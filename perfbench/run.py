"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/README.md) in a closed loop from one
process: the next operation starts when the previous one returns.  The
operations are built from the seed; a run goes through them in order
until ``--seconds`` have passed and at least MIN_OPS operations were
timed.  Every answer is checked, untimed.  The last stdout line is the
JSON result; the line before it holds the run context and the result
digest.

With ``--trace 1`` the first MIN_OPS operations run untraced and then
once more under the layer wrappers of ``tracer.py``, and the result holds
the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("distance-generic", "decide-large", "towers", "cli-files")
SETUP_PROBES = 3
# At least ten samples beyond the 90th percentile.
MIN_OPS = 100
OP_CAP_S = 20.0
# No operation starts after this many seconds of the process.
HARD_LIMIT_S = 140.0
# Nominal seconds of one reference() call; see scaled_latencies.
REF_NOMINAL_S = 0.0025
REF_WINDOW = 4

PROCESS_START = perf_counter()


class OpTimeout(BaseException):
    """Raised into an operation that ran past OP_CAP_S."""


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        _armed[0] = False
        raise OpTimeout


def reference():
    """A fixed interpreter-bound job (Fraction sorting and sums, like
    persimod's inner loops) timed before every operation.  Its timings
    track how fast this machine runs Python at that moment."""
    vals = sorted(Fraction(k * 7919 % 997, 997) for k in range(1, 500))
    return sum(vals[::7], Fraction(0))


def run_op(op):
    """(result, error text or None, seconds) of one capped call."""
    _armed[0] = True
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    t0 = perf_counter()
    try:
        out = op.run()
        dt = perf_counter() - t0
        _armed[0] = False
        return out, None, dt
    except OpTimeout:
        return None, f"timeout after {OP_CAP_S}s", perf_counter() - t0
    except Exception as err:  # an operation that raises is a failed operation
        return None, f"error {type(err).__name__}: {err}", perf_counter() - t0
    finally:
        _armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Run:
    """Timings and checked results of the operations run so far."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies = []
        self.refs = []
        self.ok = 0
        self.canon = [None] * len(ops)
        self.failures = []
        self.by_kind = {}

    def step(self, i, tracer=None):
        """Run, time and check operation ``i`` (wrapping around the list)."""
        k = i % len(self.ops)
        op = self.ops[k]
        t0 = perf_counter()
        reference()
        self.refs.append(perf_counter() - t0)
        if tracer is not None:
            tracer.op_id = i + 1
        out, error, dt = run_op(op)
        self.latencies.append(dt)
        self.by_kind.setdefault(op.kind, []).append(dt)
        if error is None:
            if tracer is not None:
                tracer.paused = True
            try:
                ok, text = op.check(out)
            except Exception as err:  # a check that cannot read the answer fails it
                ok, text = False, f"check error {type(err).__name__}: {err}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        else:
            ok, text = False, error
        if self.canon[k] is None:
            self.canon[k] = text
        elif self.canon[k] != text:
            ok, text = False, "result changed on a repeated input"
        if ok:
            self.ok += 1
        else:
            self.failures.append(f"{op.kind}: {text[:200]}")

    def scaled_latencies(self, start=0, stop=None):
        """Latencies scaled to a machine on which reference() takes
        REF_NOMINAL_S: each one is multiplied by REF_NOMINAL_S over the
        median reference time of the operations around it.  Shared
        machines drift in speed by tens of percent over seconds; the
        scaling cancels most of that drift and none of a change in
        persimod."""
        out = []
        for i in range(start, len(self.latencies) if stop is None else stop):
            near = self.refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
            out.append(self.latencies[i] * REF_NOMINAL_S / statistics.median(near))
        return out

    def digest(self):
        """SHA-256 over the canonical results of the first MIN_OPS operations."""
        body = "\n".join(c if c is not None else "<not run>" for c in self.canon[:MIN_OPS])
        return hashlib.sha256(body.encode()).hexdigest()


def probe_setup(args):
    """Seconds from the start of a fresh process to its first operation,
    unscaled and scaled like the operation timings (see
    Run.scaled_latencies) by the reference time the process measured
    right after its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    seconds = probe["ready"] - t0
    return seconds, seconds * REF_NOMINAL_S / probe["reference"]


def reference_seconds(repeats=2 * REF_WINDOW + 1):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _src_files():
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    yield name, fh.read()


def src_lines():
    return sum(body.count(b"\n") for _, body in _src_files())


def src_sha256():
    h = hashlib.sha256()
    for name, body in _src_files():
        h.update(name.encode() + b"\0" + body)
    return h.hexdigest()


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def untraced_run(args, ops, deadline):
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    run = Run(ops)
    begin = perf_counter()
    i = 0
    while perf_counter() < deadline:
        run.step(i)
        i += 1
        if i >= MIN_OPS and perf_counter() - begin >= args.seconds:
            break
    attempted = len(run.latencies)
    scaled = run.scaled_latencies()
    q = statistics.quantiles(scaled, n=10)
    raw = statistics.quantiles(run.latencies, n=10)
    setup_scaled = [seconds for _, seconds in setup]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (run.ok / sum(scaled), "1/s"),
        "latency_p50_ms": (q[4] * 1000, "ms"),
        "latency_p90_ms": (q[8] * 1000, "ms"),
        "ok_ops_ratio": (run.ok / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    context = _context(args, run)
    context["setup_samples_s"] = setup_scaled
    context["wall_s"] = perf_counter() - begin
    context["unscaled"] = {
        "setup_s": statistics.median(seconds for seconds, _ in setup),
        "ops_per_s": run.ok / sum(run.latencies),
        "latency_p50_ms": raw[4] * 1000,
        "latency_p90_ms": raw[8] * 1000,
    }
    return _result(run, metrics), context


def traced_run(args, ops, deadline):
    from tracer import Tracer

    run = Run(ops)
    for i in range(MIN_OPS):
        if perf_counter() < deadline:
            run.step(i)
    untraced = len(run.latencies)
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(MIN_OPS):
            if perf_counter() < deadline:
                run.step(i, tracer)
    finally:
        tracer.uninstall()
    untraced_s = sum(run.scaled_latencies(0, untraced))
    traced_s = sum(run.scaled_latencies(untraced))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["src.lines"] = (src_lines(), "count")
    context = _context(args, run)
    context["traced_s"], context["untraced_s"] = traced_s, untraced_s
    return _result(run, metrics), context


def _context(args, run):
    import numpy

    attempted = len(run.latencies)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": src_sha256(),
        "src.lines": src_lines(),
        "ops_timed": attempted,
        "distinct_ops": len(run.ops),
        "failed_ops_ratio": (attempted - run.ok) / attempted,
        "failures": run.failures[:20],
        "reference_ms": statistics.median(run.refs) * 1000,
        "digest": run.digest(),
        "median_ms_by_kind": {k: round(statistics.median(v) * 1000, 3) for k, v in sorted(run.by_kind.items())},
    }


def _result(run, metrics):
    attempted = len(run.latencies)
    return {
        "correct": run.ok == attempted,
        "attempted": attempted,
        "failed": attempted - run.ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "persimod", "__init__.py")):
        print(f"error: no persimod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.environ.pop("PERSIMOD_CONFIG", None)
    signal.signal(signal.SIGALRM, _on_alarm)
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        ops = workloads.build(args.workload, random.Random(args.seed), workdir)
        if args.setup_probe:
            ready = time.time()
            print(json.dumps({"ready": ready, "reference": reference_seconds()}))
            return 0
        deadline = PROCESS_START + HARD_LIMIT_S
        if args.trace:
            result, context = traced_run(args, ops, deadline)
        else:
            result, context = untraced_run(args, ops, deadline)
    if args.workload == "cli-files":
        context["audit"] = workloads.graded_audit(random.Random(args.seed))
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
