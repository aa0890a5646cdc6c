"""Outside-in tracing of persimod's layers.

The layers are the ``persimod`` modules.  ``Tracer.install`` wraps the
public functions of each module (its ``__all__``) and the constructors of
the public classes named in ``CONSTRUCTORS``, then rebinds every wrapped
function in each persimod module that holds it, so calls made inside
persimod are caught as well as calls made by the benchmark.  Nothing in
persimod itself changes; ``uninstall`` puts every original back.

Each wrapped call records a span: name, start, end, parent span, the id of
the benchmark operation it belongs to, and the time covered by its child
calls.  Hot leaf functions (``LEAVES``) are aggregated into a call count
and a time instead, because ``hom`` alone runs hundreds of thousands of
times per operation; their time still counts as child time of the caller.
Spans stay in memory until ``layer_metrics`` reads them.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from persimod.barcodes import Barcode

MODULES = (
    "intervals",
    "fields",
    "barcodes",
    "morphisms",
    "matching",
    "canonical",
    "interleaving",
    "limits",
    "spectral",
    "cones",
    "io",
    "cli",
)

# Public classes whose construction is a unit of work.  The value types
# underneath them (ExtRat, Interval, Bar) are built millions of times and
# stay unwrapped; their cost lands in the self time of the caller.
CONSTRUCTORS = {
    "barcodes": ("Barcode",),
    "morphisms": ("Morphism",),
    "interleaving": ("InterleavingCertificate",),
    "limits": ("InductiveSystem",),
    "spectral": ("PLFunction",),
    "cones": ("PointCloud",),
}

LEAVES = frozenset({"intervals.hom", "intervals.leq", "intervals.parse_endpoint", "barcodes.Barcode"})

# Metrics computed from the inputs of a call are measured outside its span.
_INPUT_COUNTERS = {
    "matching.matching_covering": "edges",
    "fields.solve_linear": "unknowns",
    "interleaving.gamma": "grid_points",
    "interleaving.gamma_symmetric": "grid_points",
}


def _difference_grid_size(F, G) -> int:
    """Number of distinct endpoint differences of F and G, 0 included: the
    candidate grid a distance search walks."""
    pts = sorted(
        {e.as_fraction() for b in (F, G) for bar in b.bars for e in (bar.interval.lo, bar.interval.hi) if e.is_finite}
    )
    diffs = {Fraction(0)}
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            diffs.add(y - x)
    return len(diffs)


def _per_degree_grid_size(F, G) -> int:
    fd, gd = F.split_by_degree(), G.split_by_degree()
    empty = (Barcode([]), [])
    return sum(_difference_grid_size(fd.get(d, empty)[0], gd.get(d, empty)[0]) for d in set(fd) | set(gd))


def _input_count(qual, args):
    if qual == "matching.matching_covering":
        return sum(len(row) for row in args[2])
    if qual == "fields.solve_linear":
        rows = args[0]
        return len(rows[0]) if len(rows) else 0
    if qual == "interleaving.gamma":
        return _per_degree_grid_size(args[0], args[1])
    return _difference_grid_size(args[0], args[1])


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id, child seconds)
        self.leaf = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts = defaultdict(int)  # "<name>.<counter>" -> total
        self.op_id = 0
        self.paused = False
        self._stack = [[0, None, 0.0]]  # frames: [span id, name, child seconds]
        self._next_id = 1
        self._saved = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _leaf_wrapper(self, qual, fn):
        stat = self.leaf[qual]
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                stack[-1][2] += dt

        return wrapper

    def _span_wrapper(self, qual, fn):
        stack = self._stack
        spans = self.spans
        counter = _INPUT_COUNTERS.get(qual)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if counter is not None:
                # Untraced and outside the span: the count builds barcodes.
                h0 = perf_counter()
                self.paused = True
                try:
                    self.counts[f"{qual}.{counter}"] += _input_count(qual, args)
                finally:
                    self.paused = False
                parent[2] += perf_counter() - h0
            sid = self._next_id
            self._next_id += 1
            frame = [sid, qual, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[2] += t1 - t0
                spans.append((sid, qual, t0, t1, parent[0], self.op_id, frame[2]))
            if qual == "matching.matching_covering" and result is not None:
                self.counts[f"{qual}.found"] += 1
            return result

        return wrapper

    def _wrap(self, qual, fn):
        if qual in LEAVES:
            return self._leaf_wrapper(qual, fn)
        return self._span_wrapper(qual, fn)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and listed constructors."""
        mods = {name: importlib.import_module(f"persimod.{name}") for name in MODULES}
        holders = [importlib.import_module("persimod")] + list(mods.values())
        for name, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{name}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, key, fn))
                            setattr(holder, key, wrapped)
            for cls_name in CONSTRUCTORS.get(name, ()):
                cls = getattr(mod, cls_name)
                init = cls.__dict__["__init__"]
                self._saved.append((cls, "__init__", init))
                cls.__init__ = self._wrap(f"{name}.{cls_name}", init)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- reading ---------------------------------------------------------------

    def calls(self, qual) -> int:
        if qual in LEAVES:
            return self.leaf[qual][0]
        return sum(1 for s in self.spans if s[1] == qual)

    def self_seconds(self):
        out = defaultdict(float)
        for _, qual, t0, t1, _, _, child in self.spans:
            out[qual] += t1 - t0 - child
        for qual, (_, seconds) in self.leaf.items():
            out[qual] += seconds
        return out

    def nested_calls(self, inner, outer) -> int:
        """Calls of ``inner`` made while some call of ``outer`` was open."""
        by_id = {s[0]: (s[1], s[4]) for s in self.spans}
        found = 0
        for sid, qual, *_ in self.spans:
            if qual != inner:
                continue
            parent = by_id[sid][1]
            while parent in by_id:
                name, parent_next = by_id[parent]
                if name in outer:
                    found += 1
                    break
                parent = parent_next
        return found

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        self_s = self.self_seconds()
        calls = {}
        for qual in set(self_s) | {s[1] for s in self.spans}:
            calls[qual] = self.calls(qual)

        def ncalls(qual):
            return calls.get(qual, 0)

        m = {}
        for qual in (
            "intervals.hom",
            "barcodes.Barcode",
            "morphisms.Morphism",
            "morphisms.compose",
            "matching.matching_covering",
            "fields.solve_linear",
            "interleaving.check_interleaving",
            "interleaving.gamma",
            "interleaving.gamma_symmetric",
            "interleaving.InterleavingCertificate",
            "canonical.canonical_form",
            "canonical.diagonalize_system",
            "limits.defect_check",
            "limits.hocolim",
            "limits.complete_cauchy",
            "spectral.sublevel_barcode",
            "cones.cone_coisotropy_test",
            "cones.contingent",
            "io.parse_barcode",
            "io.load_certificate",
            "cli.main",
        ):
            m[f"{qual}.calls"] = (ncalls(qual), "count")
            m[f"{qual}.self_s"] = (self_s.get(qual, 0.0), "s")
        m["morphisms.equals_tau.calls"] = (ncalls("morphisms.equals_tau"), "count")
        for qual in ("spectral.spectral_invariants", "cones.paratingent", "io.load_system", "io.emit_certificate"):
            m[f"{qual}.self_s"] = (self_s.get(qual, 0.0), "s")

        covering = ncalls("matching.matching_covering")
        m["matching.matching_covering.edges"] = (self.counts["matching.matching_covering.edges"], "count")
        m["matching.matching_covering.found_ratio"] = (
            self.counts["matching.matching_covering.found"] / covering if covering else 0.0,
            "ratio",
        )
        m["fields.solve_linear.unknowns"] = (self.counts["fields.solve_linear.unknowns"], "count")

        answers = (
            ncalls("interleaving.gamma")
            + ncalls("interleaving.gamma_symmetric")
            + ncalls("interleaving.check_interleaving")
            - self.nested_calls(
                "interleaving.check_interleaving", {"interleaving.gamma", "interleaving.gamma_symmetric"}
            )
        )
        m["interleaving.probes_per_answer"] = (
            ncalls("interleaving.check_interleaving") / answers if answers else 0.0,
            "1/answer",
        )
        m["interleaving.verifications_per_answer"] = (
            ncalls("interleaving.InterleavingCertificate") / answers if answers else 0.0,
            "1/answer",
        )
        m["interleaving.grid_points"] = (
            self.counts["interleaving.gamma.grid_points"] + self.counts["interleaving.gamma_symmetric.grid_points"],
            "count",
        )

        defects = ncalls("limits.defect_check")
        m["limits.diagonalizations_per_defect_check"] = (
            self.nested_calls("canonical.diagonalize_system", {"limits.defect_check"}) / defects if defects else 0.0,
            "1/call",
        )
        completions = ncalls("limits.complete_cauchy")
        m["limits.gamma_per_completion"] = (
            self.nested_calls("interleaving.gamma", {"limits.complete_cauchy"}) / completions if completions else 0.0,
            "1/call",
        )
        tests = ncalls("cones.cone_coisotropy_test")
        m["cones.contingent_per_test"] = (
            self.nested_calls("cones.contingent", {"cones.cone_coisotropy_test"}) / tests if tests else 0.0,
            "1/call",
        )
        return m
