"""Towers of barcodes: truncated colimits, defect bounds, Cauchy completion.

A tower is a finite run of barcodes with forward comparison maps and a
nonnegative slack per step: the reverse map at slack eps undoes a step up
to the canonical comparison.  Diagonalizing every step (stage by stage,
all degrees at once, rebasing as we go) turns the tower into chains of
bars; the truncated colimit reports the last witnessed endpoints of every
surviving chain, plus bars born at the final stage, together with a
certified bound on how far the truncation can still drift: four times
the longest bar (`gamma_to_zero`) of the last step's cone (`cone_diagonal`).
The tower and its contract (`InductiveSystem`) live in `canonical`.

Cauchy completion subsamples a sequence until consecutive distances halve,
re-anchors every stage by its accumulated slack so the comparison maps
become honest tower maps, and reads the limit off the chains -- exactly
when the endpoint histories stabilize or follow a geometric law, and as
the last witnessed value otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .barcodes import Bar, Barcode
from .canonical import InductiveSystem, StageDiagonalization, diagonalize_system
from .fields import GF2
from .intervals import DEG0, ExtRat, Interval, hom
from .interleaving import DistanceReport, gamma
from .morphisms import InterleavingCertificate, Morphism, compose, tau_morphism

__all__ = [
    "CompletionError",
    "ToleranceError",
    "gamma_to_zero",
    "cone_diagonal",
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


def gamma_to_zero(b: Barcode) -> ExtRat:
    """Distance from the zero object: the maximal bar length.

    0 for the empty barcode; +inf as soon as some bar is infinite.
    """
    return max((bar.interval.length for bar in b.bars), default=ExtRat(0))


def cone_diagonal(m: Morphism) -> Barcode:
    """Barcode of the mapping cone of a morphism in diagonal form.

    ``m`` must be a direct sum of canonical degree-0 generators and zero
    rows/columns: every row and every column carries at most one nonzero
    entry, and each nonzero entry equals 1.  Per matched pair
    I=[a,b) -> J=[c,d) the cone contributes [b,d) in the source degree
    (when b < d) and [a,c) one degree up (when a < c); an unmatched source
    bar survives one degree up, an unmatched target bar in place.
    """
    one = m.field.one
    src = m.source
    tgt = m.target
    row_of: Dict[int, int] = {}
    col_of: Dict[int, int] = {}
    for (t, s), val in m.entries.items():
        if val != one:
            raise ValueError(f"entry at {(t, s)} is {val!r}, not 1: not in diagonal form")
        if t in row_of or s in col_of:
            raise ValueError("row or column carries two entries: not in diagonal form")
        row_of[t] = s
        col_of[s] = t
    bars: List[Bar] = []
    for s, bar in enumerate(src.bars):
        d = bar.degree
        i = bar.interval
        if s not in col_of:
            bars.append(Bar(d + 1, i))
            continue
        j = tgt.bars[col_of[s]].interval
        if hom(i, j) is not DEG0:
            raise ValueError(f"matched pair {i} -> {j} is not a degree-0 generator")
        if i.hi < j.hi:
            bars.append(Bar(d, Interval(i.hi, j.hi)))
        if i.lo < j.lo:
            bars.append(Bar(d + 1, Interval(i.lo, j.lo)))
    for t, bar in enumerate(tgt.bars):
        if t not in row_of:
            bars.append(bar)
    return Barcode(bars)


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
