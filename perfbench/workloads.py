"""The four benchmark workloads: seeded inputs, operations and answer checks.

A workload is a list of rounds.  Each round's function takes a
``random.Random`` (and, for cli-files, a scratch directory inside the
checkout) and returns a fixed mix of operations on fresh inputs, with
each kind spread evenly through the round, so any prefix of the list
holds the same mix.  A run measures a prefix; many distinct inputs keep
its percentiles steady from one seed to the next.

An operation's ``run`` is the only timed part; ``check`` runs untimed and
returns ``(ok, canonical result)``.  Operations call persimod through its
modules (``il.gamma``), never through names imported here, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
from collections import Counter
from fractions import Fraction

import persimod.cli as cli
import persimod.interleaving as il
import persimod.io as pio
import persimod.limits as lim
from persimod.barcodes import Barcode
from persimod.fields import GF2, PrimeField
from persimod.intervals import ExtRat, Interval

import gen

GF5 = PrimeField(5)
DELTA = Fraction(1, 2)


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _spread(groups):
    """Merge groups, each keeping its order, so that every group's items are
    evenly spaced through the round."""
    keyed = [((k + 0.5) / len(g), gi, k, op) for gi, g in enumerate(groups) for k, op in enumerate(g)]
    return [item[3] for item in sorted(keyed, key=lambda item: item[:3])]


def _certificate_ok(cert, F, G, value=None):
    """Rebuild the certificate from its maps (re-verifying both round trips)
    and check it belongs to (F, G) and, when given, pins ``value``."""
    if cert is None:
        return False
    try:
        again = il.InterleavingCertificate(cert.a, cert.b, cert.u, cert.v)
    except ValueError:
        return False
    if again.u.source != F or again.v.source != G:
        return False
    return value is None or again.total == value.as_fraction()


def _distance_ok(report, F, G):
    """A finite Exact report must carry a certificate that pins its value."""
    return report.is_exact and report.value.is_finite and _certificate_ok(report.certificate, F, G, report.value)


# -- distance-generic ------------------------------------------------------------

# Pairs per round of each size.  The counts put the median inside the n=4
# group and the 90th percentile inside the 32-bar symmetric group, so
# neither percentile sits on the edge between two groups.
GAMMA_PAIRS = ((3, 9), (4, 10), (5, 3))
SYMMETRIC_PAIRS = ((32, 4),)


def distance_round(rng):
    def gamma_op(F, G):
        sym = []  # gamma_symmetric of the pair, computed at the first check

        def check(rep):
            ok = _distance_ok(rep, F, G)
            if ok:
                if not sym:
                    sym.append(il.gamma_symmetric(F, G).value)
                ok = rep.value <= sym[0] <= 2 * rep.value
            cert = rep.certificate
            return ok, f"gamma {rep.value} {cert.a if cert else '-'} {cert.b if cert else '-'}"

        return Op(f"gamma-n{len(F)}", lambda: il.gamma(F, G), check)

    def symmetric_op(F, G):
        def check(rep):
            cert = rep.certificate
            ok = _distance_ok(rep, F, G) and cert.a == cert.b
            return ok, f"gamma_symmetric {rep.value} {cert.a if cert else '-'}"

        return Op(f"gamma_symmetric-n{len(F)}", lambda: il.gamma_symmetric(F, G), check)

    def pairs(spec, make):
        return [
            [make(gen.rand_barcode(rng, n, den=997), gen.rand_barcode(rng, n, den=997)) for _ in range(count)]
            for n, count in spec
        ]

    return _spread(pairs(GAMMA_PAIRS, gamma_op) + pairs(SYMMETRIC_PAIRS, symmetric_op))


# -- decide-large ----------------------------------------------------------------

# (bars, generic pairs) per round.  Each generic pair gives one yes and one
# no decision; each size adds the two dense decisions.  More small pairs
# than large ones keep the median inside the 80-bar group and the 90th
# percentile among the 120-bar dense decisions.
DECIDE_SIZES = ((80, 4), (120, 2))


def _with_long_bar(rng, F, den=997):
    """F plus one bar three times longer than any other."""
    lo = Fraction(rng.randint(0, 10 * den), den)
    return Barcode(list(F.bars) + [(0, Interval(lo, lo + 30))])


def _displace_longest(G, by):
    bars = list(G.bars)
    k = max(range(len(bars)), key=lambda i: bars[i].interval.length)
    bars[k] = (bars[k].degree, bars[k].interval.shift(by))
    return Barcode(bars)


def decide_round(rng):
    def decide_op(kind, F, G, a, b, expect):
        def check(cert):
            if not expect:
                return cert is None, "no"
            ok = _certificate_ok(cert, F, G) and cert.a == a and cert.b == b
            return ok, f"yes {cert.a if cert else '-'} {cert.b if cert else '-'}"

        return Op(f"{kind}-n{len(F)}", lambda: il.check_interleaving(F, G, a, b), check)

    groups = []
    for n, n_pairs in DECIDE_SIZES:
        ops = []
        for _ in range(n_pairs):
            F = _with_long_bar(rng, gen.rand_barcode(rng, n - 1, den=997))
            G = gen.moved_within(rng, F, DELTA)
            ops.append(decide_op("generic-yes", F, G, DELTA, DELTA, True))
            ops.append(decide_op("generic-no", F, _displace_longest(G, 3 * DELTA), DELTA, DELTA, False))
        dense = Barcode([(0, Interval(0, 10))] * n)
        ops.append(decide_op("dense-0", dense, dense, Fraction(0), Fraction(0), True))
        ops.append(decide_op("dense-delta", dense, dense, DELTA, DELTA, True))
        groups.append(ops)
    return _spread(groups)


# -- towers ----------------------------------------------------------------------

# (bars, field, also run hocolim with the reverse maps dropped) per tower
# of a round.  The defect checks of one tower all cost about the same
# (each re-diagonalizes the whole tower), so each tower takes every other
# index, alternating between towers: more towers per run give the
# percentiles more independent samples, and each pair of towers still
# covers every index.  Equal sizes make the defect checks and the given
# hocolim one group of similar cost that holds the median.  Six dyadic
# completions per round, alike in cost, hold the 90th percentile; the one
# solved hocolim per round sits above them.
TOWERS = ((30, GF2, False), (30, GF5, True), (30, GF2, False), (30, GF5, False))
DYADIC_PER_ROUND = 6
TOWER_STAGES = 8
CAUCHY_BARS = 3


def _multiset_within(bars, pool):
    return not Counter(bars) - Counter(pool)


def towers_round(rng):
    groups = []
    for k, (n_bars, fld, drop) in enumerate(TOWERS):
        stages, fwd, rev, slacks = gen.planted_tower(rng, fld, n_bars, TOWER_STAGES)
        given = lim.InductiveSystem(stages, fwd, slacks, rev, fld)
        ops = []
        for n in range(k % 2, len(stages), 2):
            def run(n=n):
                return lim.defect_check(given, n)

            ops.append(Op(f"defect_check-{fld}", run, lambda out: (out[2] is True, f"defect {out[0]} {out[1]} {out[2]}")))
        seen = {}

        def hocolim_check(res, final=stages[-1], seen=seen):
            ok = res.error_bound.is_finite and res.error_bound >= 0 and _multiset_within(res.barcode.bars, final.bars)
            canon = f"hocolim {res.error_bound} {res.barcode!r}"
            ok = ok and seen.setdefault("canon", canon) == canon
            return ok, canon

        ops.append(Op(f"hocolim-given-{fld}", lambda s=given: lim.hocolim(s), hocolim_check))
        if drop:
            dropped = lim.InductiveSystem(stages, fwd, slacks, None, fld)
            ops.append(Op(f"hocolim-dropped-{fld}", lambda s=dropped: lim.hocolim(s), hocolim_check))
        groups.append(ops)

    def completion_op(kind, seq, tol, expect=None):
        def check(res):
            ok = res.final_gamma.value <= tol and (expect is None or res.barcode == expect)
            return ok, f"complete {res.start} {res.final_gamma.value} {res.barcode!r}"

        return Op(kind, lambda: lim.complete_cauchy(seq, tol), check)

    completions = []
    for _ in range(DYADIC_PER_ROUND):
        seq = gen.cauchy_sequence(rng, n_bars=CAUCHY_BARS)
        completions.append(completion_op("complete-dyadic", seq, Fraction(1, 2 ** (len(seq) - 3))))
    completions.append(
        completion_op("complete-tower", gen.completion_tower(), Fraction(1, 2 ** 8), Barcode([(0, Interval(0, 1))]))
    )
    groups.append(completions)
    return _spread(groups)


# -- cli-files -------------------------------------------------------------------


def run_cli(argv):
    """persimod's CLI in-process: (exit code, stdout text)."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _records(stdout):
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


# Eight distance pairs make a round of 40 operations: the three cone
# tests stay under a tenth of it and the two 10^4-breakpoint sublevel
# runs hold the 90th percentile.
DIST_PAIRS = 8
PLF_SIZES = (1000, 10000)


def cli_round(rng, workdir):
    def path(name):
        return os.path.join(workdir, name)

    def cli_op(kind, argv, verify):
        def check(res):
            code, stdout = res
            ok = code == 0 and verify(stdout)
            # The scratch directory's name differs from run to run.
            return ok, f"{kind} {code} {stdout.replace(workdir, '<dir>')}"

        return Op(kind, lambda: run_cli(argv), check)

    dist_ops = []
    gammas = {}
    for i in range(DIST_PAIRS):
        left, right = path(f"d{i}L.bc"), path(f"d{i}R.bc")
        F = gen.rand_barcode(rng, rng.randint(3, 6), lo_range=(0, 8), max_len=2)
        G = gen.rand_barcode(rng, rng.randint(3, 6), lo_range=(0, 8), max_len=2)
        _write(left, pio.emit_barcode(F))
        _write(right, pio.emit_barcode(G))
        cert_path = path(f"d{i}.cert")

        def gamma_ok(stdout, F=F, G=G, cert_path=cert_path, i=i):
            rec = _records(stdout)
            if rec.get("exactness") != "Exact" or rec.get("certificate") != cert_path:
                return False
            value = ExtRat(rec["value"])
            src, tgt, cert = pio.load_certificate(cert_path)
            gammas[i] = value
            return src == F and tgt == G and _certificate_ok(cert, F, G, value)

        def symmetric_ok(stdout, F=F, G=G, i=i):
            rec = _records(stdout)
            if rec.get("exactness") != "Exact" or rec.get("certificate") != path(f"d{i}s.cert"):
                return False
            value = ExtRat(rec["value"])
            src, tgt, cert = pio.load_certificate(path(f"d{i}s.cert"))
            if cert.a != cert.b or not _certificate_ok(cert, F, G, value):
                return False
            return i in gammas and gammas[i] <= value <= 2 * gammas[i]

        dist_ops.append(cli_op("dist-gamma", ["--machine", "dist", "gamma", left, right, "--certificate", cert_path], gamma_ok))
        dist_ops.append(
            cli_op(
                "dist-gamma-symmetric",
                ["--machine", "dist", "gamma", left, right, "--symmetric", "--certificate", path(f"d{i}s.cert")],
                symmetric_ok,
            )
        )

    F = gen.rand_barcode(rng, 8, lo_range=(0, 8), max_len=4)
    F = Barcode(list(F.bars) + [(0, Interval(Fraction(rng.randint(0, 32), 4), 40))])
    G_yes = gen.moved_within(rng, F, DELTA, den=4)
    G_no = _displace_longest(G_yes, 3 * DELTA)
    for name, bc in (("cF.bc", F), ("cY.bc", G_yes), ("cN.bc", G_no)):
        _write(path(name), pio.emit_barcode(bc))
    check_ops = [
        cli_op(
            "dist-check",
            ["dist", "check", path("cF.bc"), path(want_file), "--a", "1/2", "--b", "1/2"],
            lambda out, want=want: out == want + "\n",
        )
        for want_file, want in (("cY.bc", "interleaved"), ("cN.bc", "not-interleaved"))
    ]

    pl_ops = []
    for domain in ("circle", "interval"):
        for size in PLF_SIZES:
            bps, vals = gen.random_plf_rows(rng, size)
            name = path(f"f-{domain}-{size}.plf")
            _write(name, f"domain: {domain}\n" + "".join(f"{b} {v}\n" for b, v in zip(bps, vals)))
            lo, hi = min(vals), max(vals)

            def sublevel_ok(stdout, lo=lo, hi=hi, domain=domain):
                bc = pio.parse_barcode_text(stdout)
                ess = sorted((bar.degree, bar.interval.lo) for bar in bc.bars if bar.interval.hi.is_pos_inf)
                want = [(0, ExtRat(lo))] + ([(1, ExtRat(hi))] if domain == "circle" else [])
                return ess == want

            pl_ops.append(cli_op(f"sublevel-{domain}-{size}", ["sublevel", name], sublevel_ok))
            if domain == "circle":
                spec = path(f"s-{size}.bc")
                finite = [(0, Interval(b, b + 1)) for b in bps[:: max(1, size // 50)]]
                essential = [(0, Interval(lo, "inf")), (1, Interval(hi, "inf"))]
                _write(spec, pio.emit_barcode(Barcode(finite + essential)))
                pl_ops.append(
                    cli_op(
                        f"spectral-{size}",
                        ["--machine", "spectral", spec, "--convention", "Sublevel", "--dim", "1"],
                        lambda out, lo=lo, hi=hi: _records(out).get("c_minus") == str(ExtRat(lo))
                        and _records(out).get("c_plus") == str(ExtRat(hi)),
                    )
                )

    tower_ops = []
    for k, fld in enumerate((GF2, GF5)):
        stages, fwd, rev, slacks = gen.planted_tower(rng, fld, 8, 5)
        given = path(f"tower{k}")
        # The GF(5) tower is written without reverse maps: the CLI solves for them.
        pio.emit_system(given, lim.InductiveSystem(stages, fwd, slacks, rev if k == 0 else None, fld))
        field_arg = ["--field", str(fld.p)]
        tower_ops.append(cli_op("limit", field_arg + ["--machine", "limit", given], lambda out: "error_bound=" in out))
        tower_ops.append(
            cli_op(
                "limit-defect",
                field_arg + ["--machine", "limit", given, "--defect", str(rng.randint(0, len(stages) - 2))],
                lambda out: "ok=true" in out.splitlines(),
            )
        )
        seq_dir = path(f"seq{k}")
        os.makedirs(seq_dir)
        for j, bc in enumerate(gen.cauchy_sequence(rng)):
            _write(os.path.join(seq_dir, f"F{j}.bc"), pio.emit_barcode(bc))
        tower_ops.append(cli_op("complete", ["--machine", "complete", seq_dir, "--tol", "1/8"], lambda out: "start=" in out))

    cone_ops = []
    # One subspace per verdict kind: a symplectic plane, a Lagrangian plane
    # and the whole space, so every round holds three cone tests of
    # similar cost.
    for choices in (
        [(0, 2), (1, 3)],
        [(0, 1), (2, 3), (0, 3), (1, 2)],
        [(0, 1, 2, 3)],
    ):
        coords = rng.choice(choices)
        kind = gen.planted_verdict(coords)
        name = path(f"cloud-{kind}.csv")
        _write(name, "".join(",".join(repr(x) for x in row) + "\n" for row in gen.subspace_cloud_rows(coords)))
        cone_ops.append(
            cli_op(
                f"cone-test-{kind}",
                ["--machine", "cone-test", "--cloud", name, "--point", "0,0,0,0"],
                lambda out, kind=kind: out.splitlines()[0] == f"verdict={kind}",
            )
        )

    a = Fraction(1, rng.randint(5, 9))
    k, n = rng.randint(2, 3), 1
    cantor_ops = [
        cli_op(
            "cantor",
            ["--machine", "cantor", "--a", str(a), "--n", str(n), "--k", str(k)],
            lambda out: _records(out) == {
                "cubes": str(2 ** (2 * n * k)),
                "edge": str(a ** k),
                "bound": str(Fraction(2) ** (2 * n * k) * a ** k),
            },
        ),
        cli_op(
            "cantor-bound-table",
            ["cantor", "--a", str(a), "--n", str(n), "--k", str(k), "--bound-table"],
            lambda out: out == "".join(f"{j} {Fraction(2) ** (2 * n * j) * a ** j}\n" for j in range(1, k + 1)),
        ),
    ]

    validate_ops = [
        cli_op(f"validate-{kind}", ["validate", target], lambda out, kind=kind: out.startswith(kind + ":"))
        for kind, target in (
            ("barcode", path("d0L.bc")),
            ("pl-function", path("f-interval-1000.plf")),
            ("point-cloud", path("cloud-Coisotropic.csv")),
            ("certificate", path("d0.cert")),
            ("tower", path("tower0")),
        )
    ]
    # dist first: validate reads the certificate the first dist-gamma writes.
    return dist_ops[:2] + _spread(
        [dist_ops[2:], check_ops, pl_ops, tower_ops, cone_ops, cantor_ops, validate_ops]
    )


def graded_audit(rng, pairs=300):
    """Graded den=4 pairs over degrees {0, 1}: how many finite Exact gamma
    reports come back without a certificate."""
    missing = 0
    for _ in range(pairs):
        F = gen.rand_barcode(rng, rng.randint(0, 6), degrees=(0, 1), lo_range=(0, 8), max_len=2)
        G = gen.rand_barcode(rng, rng.randint(0, 6), degrees=(0, 1), lo_range=(0, 8), max_len=2)
        rep = il.gamma(F, G)
        if rep.is_exact and rep.value.is_finite and rep.certificate is None:
            missing += 1
    return {"graded_pairs": pairs, "exact_without_certificate": missing}


# Rounds per workload: about 1.5 times the inputs a 10-second run used
# when the benchmark was written.  A faster program wraps around to the
# first round.
ROUNDS = {
    "distance-generic": (distance_round, 6),
    "decide-large": (decide_round, 10),
    "towers": (towers_round, 4),
    "cli-files": (cli_round, 4),
}


def build(workload, rng, workdir):
    make, rounds = ROUNDS[workload]
    ops = []
    for k in range(rounds):
        if workload == "cli-files":
            round_dir = os.path.join(workdir, f"r{k}")
            os.makedirs(round_dir)
            ops.extend(make(rng, round_dir))
        else:
            ops.extend(make(rng))
    return ops
