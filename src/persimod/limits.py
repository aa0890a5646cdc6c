"""Towers of barcodes: truncated colimits, defect bounds, Cauchy completion.

A tower is a finite run of barcodes with forward comparison maps and a
nonnegative slack per step: the reverse map at slack eps undoes a step up
to the canonical comparison.  Diagonalizing every step (stage by stage,
all degrees at once, rebasing as we go) turns the tower into chains of
bars; the truncated colimit reports the last witnessed endpoints of every
surviving chain, plus bars born at the final stage, together with a
certified bound on how far the truncation can still drift: four times
the longest bar (`gamma_to_zero`) of the last step's cone.  Every tower
result is read off the step matchings {live bar: partner} that the
diagonalization verified: the chains, the bound, and the defect
comparison, whose composite follows the same chains.  A bound or a
defect side is read off the cone's bar ends (`_cone_ends`), with no
barcode built.  The tower and its contract (`InductiveSystem`) live in
`canonical`.

Cauchy completion subsamples a sequence until consecutive distances halve.
Each step's verified interleaving certificate has a forward map that
matches bars with unit entries, so the chains follow those matchings
directly, and the limit is read off each chain's endpoint history --
exactly when it stabilizes or follows a geometric law, and as the last
witnessed value otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from .barcodes import Bar, Barcode
from .canonical import InductiveSystem, diagonalize_system
from .fields import GF2
from .intervals import ExtRat, Interval, _lt
from .interleaving import DistanceReport, gamma
from .morphisms import InterleavingCertificate, Morphism

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


def _diagonal(m: Morphism) -> Dict[int, int]:
    """{source bar: target bar} of a morphism in diagonal form; ValueError
    for a non-unit entry or a row or column that carries two entries."""
    one = m.field.one
    for (t, s), val in m.entries.items():
        if val != one:
            raise ValueError(f"entry at {(t, s)} is {val!r}, not 1: not in diagonal form")
    step = {s: t for t, s in m.entries}
    if len(step) != len(m.entries) or len(set(step.values())) != len(step):
        raise ValueError("row or column carries two entries: not in diagonal form")
    return step


def _cone_ends(src: Barcode, tgt: Barcode, step: Mapping[int, int]) -> Iterator[Tuple[int, ExtRat, ExtRat]]:
    """(degree, lo, hi) of each bar of the mapping cone of the diagonal map
    that sends source bar s to target bar step[s] by the canonical
    generator: source bars first, then the target bars that no source bar
    hits."""
    for s, bar in enumerate(src.bars):
        d, i = bar.degree, bar.interval
        if s not in step:
            yield d + 1, i.lo, i.hi
            continue
        j = tgt.bars[step[s]].interval
        if _lt(i.hi, j.hi):
            yield d, i.hi, j.hi
        if _lt(i.lo, j.lo):
            yield d + 1, i.lo, j.lo
    hit = set(step.values())
    yield from ((b.degree, b.interval.lo, b.interval.hi) for t, b in enumerate(tgt.bars) if t not in hit)


def _cone_size(src: Barcode, tgt: Barcode, step: Mapping[int, int]) -> ExtRat:
    """`gamma_to_zero` of that cone, read off its ends without building it."""
    return max((hi - lo for _, lo, hi in _cone_ends(src, tgt, step)), default=ExtRat(0))


def cone_diagonal(m: Morphism) -> Barcode:
    """Barcode of the mapping cone of a morphism in diagonal form.

    ``m`` must be a direct sum of canonical degree-0 generators and zero
    rows/columns: every row and every column carries at most one nonzero
    entry, and each nonzero entry equals 1.  Per matched pair
    I=[a,b) -> J=[c,d) the cone contributes [b,d) in the source degree
    (when b < d) and [a,c) one degree up (when a < c); an unmatched source
    bar survives one degree up, an unmatched target bar in place.
    """
    return Barcode(Bar(d, Interval(lo, hi)) for d, lo, hi in _cone_ends(m.source, m.target, _diagonal(m)))


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


def _follow_chains(stages: Sequence[Barcode], steps: Sequence[Mapping[int, int]], floor) -> List[Chain]:
    """Chains of bars through the stages.  steps[n] maps each live bar of
    stage n to its bar at stage n+1: a live bar that no chain reaches
    starts one, and a chain whose bar is not live dies there.  Final-stage
    bars longer than `floor` that no chain reaches are born last.  Chains
    are listed by degree, and within a degree by birth stage and bar index,
    newborns last."""
    walked: List[Tuple[int, List[int]]] = []
    heads: Dict[int, List[int]] = {}
    for n, step in enumerate(steps):
        for i in step:
            if i not in heads:
                heads[i] = [i]
                walked.append((n, heads[i]))
        moved: Dict[int, List[int]] = {}
        for i, path in heads.items():
            if i in step:
                path.append(step[i])
                moved[step[i]] = path
        heads = moved
    last = len(stages) - 1
    walked += [
        (last, [j]) for j, bar in enumerate(stages[-1].bars) if j not in heads and bar.interval.length > floor
    ]
    chains = [
        Chain(stages[birth].bars[path[0]].degree, birth, tuple(path), birth + len(path) - 1 == last)
        for birth, path in walked
    ]
    chains.sort(key=lambda ch: ch.degree)  # stable: keeps each degree's order
    return chains


def _step_matchings(system: InductiveSystem) -> List[Dict[int, int]]:
    """{live bar: sigma partner} per step, as `canonical_form` verified it."""
    return [{i: rec.result.sigma[p] for p, i in enumerate(rec.live)} for rec in diagonalize_system(system)]


def hocolim(system: InductiveSystem) -> HocolimResult:
    """Truncated colimit of the tower: surviving chains' last bars plus
    final-stage newborns above the last slack, with an error bound of four
    times the gamma-size of the last diagonalized step's cone.

    The whole tower is diagonalized stage by stage, all degrees at once;
    chains are listed by degree, and within a degree by birth stage and
    bar index, newborns last."""
    stages = system.stages
    steps = _step_matchings(system)
    chains = _follow_chains(stages, steps, system.slacks[-1] if steps else 0)
    out_bars = [stages[-1].bars[ch.indices[-1]] for ch in chains if ch.alive]
    bound = 4 * _cone_size(stages[-2], stages[-1], steps[-1]) if steps else ExtRat(0)
    return HocolimResult(Barcode(out_bars), bound, tuple(chains))


def defect_check(system: InductiveSystem, n: int):
    """Compare the cone-size of the composite comparison from stage n into
    the final stage against twice the summed per-step cone sizes, both read
    off the step matchings.  Returns (lhs, rhs, lhs <= rhs).  The composite
    follows each chain born at stage n to the final stage.  Each step is an
    allowed generator, so by the survival rule of `intervals` the chain's
    composite survives when its last bar starts before its first ends:
    checking the two ends equals `compose`'s cleanup."""
    n_steps = len(system.maps)
    if not 0 <= n <= n_steps:
        raise ValueError(f"stage index {n} outside 0..{n_steps}")
    if n == n_steps:
        return ExtRat(0), ExtRat(0), True
    stages, steps = system.stages[n:], _step_matchings(system)[n:]
    first, last = stages[0].bars, stages[-1].bars
    composite = {
        ch.indices[0]: ch.indices[-1]
        for ch in _follow_chains(stages, steps, 0)
        if ch.birth == 0 and ch.alive and _lt(last[ch.indices[-1]].interval.lo, first[ch.indices[0]].interval.hi)
    }
    lhs = _cone_size(stages[0], stages[-1], composite)
    rhs = ExtRat(0)
    for src, tgt, step in zip(stages, stages[1:], steps):
        rhs = rhs + _cone_size(src, tgt, step)
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
    at most 1, 1/2, 1/4, ...; a suffix of two or more stages holds at least
    one step.  Degree by degree, each step's certificate (a, b) matches the
    bars of one stage to the next: a bar longer than 2(b + a + b) carries
    its chain on to its partner, and final-stage bars longer than the last
    step's b + a + b that no chain reaches start chains of their own.  Each
    surviving chain's endpoints are extrapolated from the stage bars.
    Raises CompletionError when no suffix is Cauchy or a certificate's
    forward map is not a matching with unit entries, and ToleranceError
    when the result misses `tol` against the last input stage.
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

    start = next((s for s in range(max(len(steps), 1)) if suffix_ok(s)), None)
    if start is None:
        raise CompletionError(
            "no suffix has consecutive distances bounded by 1, 1/2, 1/4, ..."
        )

    indices = tuple(range(start, len(seq)))
    step_certs: List[Dict[int, InterleavingCertificate]] = [dict() for _ in indices[1:]]
    out_bars: List[Bar] = []

    for deg in sorted({bar.degree for b in seq[start:] for bar in b.bars}):
        stages = [pieces[k][deg] for k in indices]
        walk: List[Dict[int, int]] = []
        floor = Fraction(0)
        for j, cert in enumerate(step_reports[k][deg].certificate for k in indices[:-1]):
            step_certs[j][deg] = cert
            try:
                partner = _diagonal(cert.u)
            except ValueError:
                raise CompletionError("a step certificate's forward map is not a matching with unit entries") from None
            floor = cert.b + cert.total
            walk.append({i: partner[i] for i, bar in enumerate(stages[j].bars) if bar.interval.length > 2 * floor})
        for ch in _follow_chains(stages, walk, floor):
            if ch.alive:
                ivs = [stages[ch.birth + k].bars[i].interval for k, i in enumerate(ch.indices)]
                lo, hi = _extrapolate([iv.lo for iv in ivs]), _extrapolate([iv.hi for iv in ivs])
                if lo < hi:
                    out_bars.append(Bar(deg, Interval(lo, hi)))

    output = Barcode(out_bars)
    final = gamma(output, seq[-1], field=field)
    if final.value > tol:
        raise ToleranceError(f"gamma {final.value} exceeds tolerance {tol}")
    return CompletionResult(output, start, indices, tuple(step_certs), final)
