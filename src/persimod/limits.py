"""Towers of barcodes: truncated colimits, defect bounds, Cauchy completion.

A tower is a finite run of barcodes with forward comparison maps and a
nonnegative slack per step: the reverse map at slack eps undoes a step up
to the canonical comparison.  Diagonalizing every step (stage by stage,
all degrees at once, rebasing as we go) turns the tower into chains of
bars; the truncated colimit reports the last witnessed endpoints of every
surviving chain, plus bars born at the final stage, together with a
certified bound on how far the truncation can still drift.

Cauchy completion subsamples a sequence until consecutive distances halve,
re-anchors every stage by its accumulated slack so the comparison maps
become honest tower maps, and reads the limit off the chains -- exactly
when the endpoint histories stabilize or follow a geometric law, and as
the last witnessed value otherwise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .barcodes import Bar, Barcode, cone_diagonal, gamma_to_zero
from .canonical import StageDiagonalization, diagonalize_system
from .fields import GF2, solve_linear
from .intervals import ExtRat, Interval
from .interleaving import DistanceReport, gamma
from .morphisms import InterleavingCertificate, Morphism, _cell_allowed, _is_round_trip, compose, tau_morphism

__all__ = [
    "CompletionError",
    "ToleranceError",
    "InductiveSystem",
    "Chain",
    "HocolimResult",
    "CompletionResult",
    "hocolim",
    "defect_check",
    "complete_cauchy",
]


class CompletionError(Exception):
    """A Cauchy-completion contract failed (not Cauchy, missing certificate)."""


class ToleranceError(CompletionError):
    """The completed barcode missed the requested tolerance."""


class InductiveSystem:
    """A finite tower: stages, forward maps, per-step slacks, and (optional)
    reverse maps.  Construction verifies composability, one scalar field
    and, where a reverse map is given, that the round trip is the canonical
    comparison: the whole contract that `diagonalize_system` relies on."""

    __slots__ = ("stages", "maps", "slacks", "reverses", "field")

    def __init__(self, stages, maps, slacks, reverses=None, field=None):
        stages = tuple(stages)
        maps = tuple(maps)
        slacks = tuple(Fraction(s) for s in slacks)
        if reverses is None:
            reverses = (None,) * len(maps)
        reverses = tuple(reverses)
        if len(maps) != len(stages) - 1:
            raise ValueError("need exactly one forward map per consecutive stage pair")
        if len(slacks) != len(maps) or len(reverses) != len(maps):
            raise ValueError("need one slack and one (possibly absent) reverse map per step")
        for n, f in enumerate(maps):
            if f.source != stages[n] or f.target != stages[n + 1]:
                raise ValueError(f"forward map {n} does not connect stages {n} -> {n + 1}")
        if field is None:
            field = maps[0].field if maps else GF2
        for f in maps:
            if f.field != field:
                raise ValueError("mixed scalar fields in forward maps")
        for g in reverses:
            if g is not None and g.field != field:
                raise ValueError("mixed scalar fields in reverse maps")
        for n, (eps, g) in enumerate(zip(slacks, reverses)):
            if eps < 0:
                raise ValueError(f"negative slack at step {n}")
            if g is None:
                continue
            if g.source != stages[n + 1] or not g.target.is_shift_of(stages[n], eps):
                raise ValueError(f"reverse map {n} does not match the slack-{eps} shift")
            if not _is_round_trip(maps[n], g, eps):
                raise ValueError(f"round trip at step {n} is not the canonical comparison")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "slacks", slacks)
        object.__setattr__(self, "reverses", reverses)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *a):
        raise AttributeError("InductiveSystem is immutable")

    def __len__(self):
        return len(self.stages)

    def with_reverses(self) -> "InductiveSystem":
        """Fill in missing reverse maps by solving the (linear) round-trip
        equation against the given forward map; abort loudly on failure."""
        if all(g is not None for g in self.reverses):
            return self
        new_rev = []
        for n, g in enumerate(self.reverses):
            if g is None:
                g = _solve_reverse(self.maps[n], self.slacks[n], self.field)
                if g is None:
                    raise ValueError(
                        f"stage {n}: no reverse map realizes the slack-{self.slacks[n]} "
                        "round trip; supply one explicitly"
                    )
            new_rev.append(g)
        return InductiveSystem(self.stages, self.maps, self.slacks, new_rev, self.field)


def _allowed_into(bars: Sequence[Bar], keys: Sequence[Tuple[int, ExtRat]], tgt: Bar) -> List[int]:
    """The indices j, increasing, with `_cell_allowed(bars[j], tgt)`.  `keys`
    holds each bar's (degree, lo) in the barcode's sorted order.  An allowed
    bar has tgt's degree and starts no later than tgt, so it lies between
    the start of that degree's run and a bisect on tgt's lo."""
    window = range(bisect_left(keys, (tgt.degree,)), bisect_right(keys, (tgt.degree, tgt.interval.lo)))
    return [j for j in window if _cell_allowed(bars[j], tgt)]


def _solve_reverse(f: Morphism, eps: Fraction, fld) -> Optional[Morphism]:
    """One-sided inverse-up-to-comparison: find g with g∘f = tau_eps.

    Linear in the entries of g.  The equation at cell (i, i') of g∘f reads
    only row i' of g, so the system splits into one block per bar i' of the
    eps-shifted source: its unknowns are the allowed j of F' in increasing
    j, its equations the allowed i of F, read off column i of f; both come
    from a bisect window (`_allowed_into`).  Blocks share no unknowns, so
    solving each alone picks the pivot columns of one global elimination
    and, with free unknowns at zero, the same g; a block with no equations
    leaves its row of g zero.
    XXX free unknowns default to zero, which biases synthesized reverses
    toward sparse ones; any solution satisfies the tower contract, so this
    only matters for readability of dumped systems.
    """
    F, Fp = f.source, f.target
    shifted = F.shift(eps)
    by_source: Dict[int, List[Tuple[int, object]]] = {}
    for (j, i), coef in f.entries.items():
        by_source.setdefault(i, []).append((j, coef))
    f_keys, fp_keys = ([(bar.degree, bar.interval.lo) for bar in bc.bars] for bc in (F, Fp))
    zero, one = fld.zero, fld.one
    found = []
    for ip, tgt in enumerate(shifted.bars):
        unknowns = _allowed_into(Fp.bars, fp_keys, tgt)
        pos = {j: k for k, j in enumerate(unknowns)}
        rows, rhs = [], []
        for i in _allowed_into(F.bars, f_keys, tgt):
            coefs = [(pos[j], coef) for j, coef in by_source.get(i, ()) if j in pos]
            want = one if (ip == i and F.bars[i].interval.length > eps) else zero
            if coefs or want != zero:
                row = [zero] * len(unknowns)
                for k, coef in coefs:
                    row[k] = coef
                rows.append(row)
                rhs.append(want)
        if not rows:
            continue
        sol = solve_linear(rows, rhs, fld)
        if sol is None:
            return None
        found.extend(((ip, j), v) for j, v in zip(unknowns, sol) if v != zero)
    found.sort(key=lambda cell: (cell[0][1], cell[0][0]))  # g's entries in column order
    return Morphism(Fp, shifted, dict(found), fld)


@dataclass(frozen=True)
class Chain:
    """One bar followed through the tower: indices[k] is its bar index at
    stage birth+k.  Dead chains fell under the liveness threshold before
    the final stage and are excluded from the output."""

    degree: int
    birth: int
    indices: Tuple[int, ...]
    alive: bool


@dataclass(frozen=True)
class HocolimResult:
    barcode: Barcode
    error_bound: ExtRat
    chains: Tuple[Chain, ...]


def _follow_chains(records: Sequence[StageDiagonalization]):
    """Walk sigma through the stages.  Returns (chains, heads) where heads
    maps final-stage bar index -> its chain."""
    active: Dict[int, dict] = {}
    chains: List[dict] = []
    for rec in records:
        live = rec.live
        live_set = set(live)
        pos = {i: k for k, i in enumerate(live)}
        for i in live:
            if i not in active:
                ch = {"birth": rec.stage, "indices": [i], "alive": True}
                chains.append(ch)
                active[i] = ch
        nxt: Dict[int, dict] = {}
        for i, ch in active.items():
            if i in live_set:
                j = rec.result.sigma[pos[i]]
                ch["indices"].append(j)
                nxt[j] = ch
            else:
                ch["alive"] = False
        active = nxt
    return chains, active


def _extended_diagonal(system: InductiveSystem, rec: StageDiagonalization) -> Morphism:
    """The step's diagonalized map as a full-stage morphism: zero on the
    columns that were below threshold."""
    one = system.field.one
    entries = {(rec.result.sigma[p], i): one for p, i in enumerate(rec.live)}
    return Morphism(system.stages[rec.stage], system.stages[rec.stage + 1], entries, system.field)


def hocolim(system: InductiveSystem) -> HocolimResult:
    """Truncated colimit of the tower: surviving chains' last bars plus
    final-stage newborns above the last slack, with an error bound of four
    times the gamma-size of the last diagonalized step's cone.

    The whole tower is diagonalized stage by stage, all degrees at once;
    chains are listed by degree, and within a degree by birth stage and
    bar index, newborns last."""
    n_steps = len(system.maps)
    if n_steps == 0:
        base = system.stages[0]
        chains = tuple(
            Chain(bar.degree, 0, (i,), True) for i, bar in enumerate(base.bars)
        )
        return HocolimResult(base, ExtRat(0), chains)

    records = diagonalize_system(system)
    raw_chains, heads = _follow_chains(records)
    final = system.stages[-1]
    for j, bar in enumerate(final.bars):
        if j not in heads and bar.interval.length > system.slacks[-1]:
            raw_chains.append({"birth": n_steps, "indices": [j], "alive": True})
    chains = [
        Chain(system.stages[ch["birth"]].bars[ch["indices"][0]].degree,
              ch["birth"], tuple(ch["indices"]), ch["alive"])
        for ch in raw_chains
    ]
    chains.sort(key=lambda ch: ch.degree)  # stable: keeps each degree's order
    out_bars = [final.bars[ch.indices[-1]] for ch in chains if ch.alive]
    bound = 4 * gamma_to_zero(cone_diagonal(_extended_diagonal(system, records[-1])))
    return HocolimResult(Barcode(out_bars), bound, tuple(chains))


def defect_check(system: InductiveSystem, n: int):
    """Compare the cone-size of the composite comparison from stage n into
    the final stage against twice the summed per-step cone sizes.  Returns
    (lhs, rhs, lhs <= rhs)."""
    n_steps = len(system.maps)
    if not 0 <= n <= n_steps:
        raise ValueError(f"stage index {n} outside 0..{n_steps}")
    if n == n_steps:
        return ExtRat(0), ExtRat(0), True
    ext = [_extended_diagonal(system, rec) for rec in diagonalize_system(system)[n:]]
    comp = ext[0]
    for nxt in ext[1:]:
        comp = compose(comp, nxt)
    lhs = gamma_to_zero(cone_diagonal(comp))
    rhs = ExtRat(0)
    for e in ext:
        rhs = rhs + gamma_to_zero(cone_diagonal(e))
    rhs = 2 * rhs
    return lhs, rhs, lhs <= rhs


@dataclass(frozen=True)
class CompletionResult:
    barcode: Barcode
    start: int
    indices: Tuple[int, ...]
    certificates: Tuple[Mapping[int, InterleavingCertificate], ...]
    final_gamma: DistanceReport


def _extrapolate(values: Sequence[ExtRat]) -> ExtRat:
    """Limit of an endpoint history: exact when it stabilizes or follows a
    constant-ratio geometric progression, else the last witnessed value."""
    if all(v == values[0] for v in values):
        return values[0]
    if any(not v.is_finite for v in values):
        return values[-1]
    vals = [v.as_fraction() for v in values]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if len(diffs) >= 3 and all(d != 0 for d in diffs):
        ratios = {b / a for a, b in zip(diffs, diffs[1:])}
        if len(ratios) == 1:
            r = ratios.pop()
            if abs(r) < 1:
                return ExtRat(vals[-1] + diffs[-1] * r / (1 - r))
    return ExtRat(vals[-1])


def complete_cauchy(
    seq: Sequence[Barcode],
    tol,
    *,
    field=GF2,
) -> CompletionResult:
    """Limit of a Cauchy sequence of barcodes, to within `tol`.

    The sequence is subsampled to a suffix whose consecutive distances are
    at most 1, 1/2, 1/4, ...; certified interleavings for each step are
    re-anchored into an honest tower whose colimit is read off chainwise.
    Raises CompletionError when no suffix is Cauchy and ToleranceError when
    the result misses `tol` against the last input stage.
    """
    seq = list(seq)
    if not seq:
        raise CompletionError("empty sequence")
    tol = Fraction(tol)

    # Degrees never interact: every step is measured and certified degree
    # by degree, and its distance is the largest per-degree distance.
    degrees = sorted({bar.degree for b in seq for bar in b.bars})
    pieces = [
        {deg: sp.get(deg, (Barcode([]), []))[0] for deg in degrees}
        for sp in (b.split_by_degree() for b in seq)
    ]
    step_reports = [
        {deg: gamma(pieces[i][deg], pieces[i + 1][deg], field=field) for deg in degrees}
        for i in range(len(seq) - 1)
    ]
    steps = [max((rep.value for rep in reps.values()), default=ExtRat(0)) for reps in step_reports]

    def suffix_ok(s: int) -> bool:
        return all(steps[s + j] <= Fraction(1, 2 ** j) for j in range(len(steps) - s))

    start = next((s for s in range(len(seq)) if suffix_ok(s)), None)
    if start is None:
        raise CompletionError(
            "no suffix has consecutive distances bounded by 1, 1/2, 1/4, ..."
        )

    sub = seq[start:]
    indices = tuple(range(start, len(seq)))
    m = len(sub) - 1
    step_certs: List[Dict[int, InterleavingCertificate]] = [dict() for _ in range(m)]
    out_bars: List[Bar] = []

    for deg in sorted({bar.degree for b in sub for bar in b.bars}):
        stages_h = [pieces[start + j][deg] for j in range(m + 1)]
        certs: List[InterleavingCertificate] = []
        for j in range(m):
            cert = step_reports[start + j][deg].certificate
            if cert is None:
                raise CompletionError(
                    f"no certificate for degree {deg} between stages {start + j} and {start + j + 1}"
                )
            certs.append(cert)
            step_certs[j][deg] = cert
        # Cumulative anchors: eps_j sums the remaining per-step costs, so
        # the re-anchored forward maps need no negative shifts.
        eps = [Fraction(0)] * (m + 1)
        for j in range(m - 1, -1, -1):
            eps[j] = eps[j + 1] + certs[j].total
        anchored = [stages_h[j].shift(-eps[j]) for j in range(m + 1)]
        fwd, rev, slk = [], [], []
        for j in range(m):
            pad = tau_morphism(anchored[j + 1].shift(-certs[j].b), certs[j].b, field)
            fwd.append(compose(certs[j].u.shift(-eps[j]), pad))
            rev.append(certs[j].v.shift(-eps[j + 1]))
            slk.append(certs[j].b + certs[j].total)
        system = InductiveSystem(anchored, fwd, slk, rev, field)
        res = hocolim(system)
        for ch in res.chains:
            if not ch.alive:
                continue
            los, his = [], []
            for k, bar_idx in enumerate(ch.indices):
                stage = ch.birth + k
                bar = anchored[stage].bars[bar_idx]
                los.append(bar.interval.lo + eps[stage])
                his.append(bar.interval.hi + eps[stage])
            lo, hi = _extrapolate(los), _extrapolate(his)
            if lo < hi:
                out_bars.append(Bar(deg, Interval(lo, hi)))

    output = Barcode(out_bars)
    final = gamma(output, seq[-1], field=field)
    if final.value > tol:
        raise ToleranceError(f"gamma {final.value} exceeds tolerance {tol}")
    return CompletionResult(output, start, indices, tuple(step_certs), final)
