"""Diagonalization of approximate round-trip matrices.

Gauss-Jordan elimination on the target side, constrained by the interval
order: a pivot row can only clear rows whose intervals dominate the
pivot's interval coordinatewise, so each column's pivot must be a least
element of that column's support.  A support with no least element is a
genuine order-theoretic obstruction -- no automorphism of the target can
diagonalize such a matrix -- and we raise instead of guessing.

The elimination tracks the accumulated target automorphism phi and its
inverse alongside the working matrix phi after u, all three as plain
dicts of sparse rows.  phi and the working matrix are kept by rows; phi
inverse is kept by columns, so the column operation that mirrors each
row operation is a row operation on its transpose.  Every claimed
identity (the factorization, the two inverse laws, the diagonal shape,
the endpoint drift) is re-checked on the strictly built morphisms before
they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from .morphisms import Morphism, _cell_allowed, _is_round_trip, compose, identity

if TYPE_CHECKING:
    from .limits import InductiveSystem

__all__ = [
    "DiagonalizationError",
    "CanonicalFormResult",
    "StageDiagonalization",
    "canonical_form",
    "diagonalize_system",
]


class DiagonalizationError(Exception):
    """Raised when a matrix admits no order-compatible diagonalization, or
    when the inputs fail the contract that would guarantee one."""

    def __init__(self, message: str, stage=None):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class CanonicalFormResult:
    """Outcome of :func:`canonical_form`.

    ``diagonalized`` equals phi composed after the input and has entries
    exactly ``{(sigma[i], i): 1}``; ``phi``/``phi_inverse`` are mutually
    inverse automorphisms of the target.
    """

    phi: Morphism
    phi_inverse: Morphism
    diagonalized: Morphism
    sigma: Mapping[int, int]


@dataclass(frozen=True)
class StageDiagonalization:
    stage: int
    live: Tuple[int, ...]
    result: CanonicalFormResult


def _scale_row(row: Dict[int, object], lam, field) -> None:
    """row *= lam.  lam is a nonzero field element, so no cell vanishes."""
    for k, val in row.items():
        row[k] = field.mul(lam, val)


def _add_row(dst: Dict[int, object], src: Dict[int, object], lam, field, allowed) -> None:
    """dst += lam * src (dst is not src).

    A cell that sums to zero, or whose key `allowed` rejects, is dropped.
    Forbidden cells can only ever hold values that the generator calculus
    already maps to zero (the row operations we apply are themselves
    morphisms, and composition kills those paths), so dropping them keeps
    each matrix equal to the true composite at every step.
    """
    for k, val in src.items():
        val = field.add(dst.get(k, field.zero), field.mul(lam, val))
        if val == field.zero or not allowed(k):
            dst.pop(k, None)
        else:
            dst[k] = val


def canonical_form(u: Morphism, v: Morphism, eps) -> CanonicalFormResult:
    """Diagonalize u by an automorphism of its target.

    Contract: u goes from G to G', v goes back from G' to the eps-shift
    of G, every bar of G is longer than eps, and v after u equals the
    canonical comparison at shift eps.  Under that contract a
    diagonalization by target automorphisms exists and is found here;
    violations raise :class:`DiagonalizationError`.

    G and G' may be graded.  A morphism has no entries between degrees,
    so every support, pivot and row operation stays inside one degree,
    and the result is the direct sum of the per-degree results.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise DiagonalizationError(f"negative shift {eps}")
    G, Gp = u.source, u.target
    field = u.field
    if v.field != field:
        raise DiagonalizationError("mismatched scalar fields")
    if v.source != Gp or not v.target.is_shift_of(G, eps):
        raise DiagonalizationError("v must map the target of u back to the shifted source")
    for bar in G.bars:
        if not (bar.interval.length > eps):
            raise DiagonalizationError(f"bar {bar!r} is not longer than the shift {eps}")
    if not _is_round_trip(u, v, eps):
        raise DiagonalizationError("round trip is not the canonical comparison map")

    src_bars, tgt_bars = G.bars, Gp.bars
    # m = phi after u and phi by rows, phi^-1 by columns: row t of m maps
    # column s to m[t][s], and phi_inv[c][t] is the (t, c) entry of phi^-1.
    m: Dict[int, Dict[int, object]] = {t: {} for t in range(len(Gp))}
    for (t, s), val in u.entries.items():
        m[t][s] = val
    phi = {t: {t: field.one} for t in range(len(Gp))}
    phi_inv = {t: {t: field.one} for t in range(len(Gp))}
    used = set()
    sigma: Dict[int, int] = {}

    for col in range(len(G)):
        support = [t for t, row in m.items() if col in row]
        if not support:
            # Cannot happen when the round-trip contract holds: the
            # comparison map keeps a unit on every (long) diagonal cell,
            # and the tracked matrix stays a genuine factor of it.
            raise DiagonalizationError(f"column {col} has empty support")
        lo_min = min(Gp.bars[t].interval.lo for t in support)
        hi_min = min(Gp.bars[t].interval.hi for t in support)
        least = [
            t
            for t in support
            if Gp.bars[t].interval.lo == lo_min and Gp.bars[t].interval.hi == hi_min
        ]
        if not least:
            raise DiagonalizationError(
                f"column {col}: support intervals are incomparable (no least element)"
            )
        fresh = [t for t in least if t not in used]
        if not fresh:
            raise DiagonalizationError(
                f"column {col}: every least support row already pivots another column"
            )
        r = fresh[0]
        lam = m[r][col]
        if lam != field.one:
            inv = field.inv(lam)
            _scale_row(m[r], inv, field)
            _scale_row(phi[r], inv, field)
            _scale_row(phi_inv[r], lam, field)
        for t in support:
            if t == r:
                continue
            # Row ops touch only row t, so m[t][col] is still in place.
            mu = m[t][col]
            neg = field.neg(mu)
            _add_row(m[t], m[r], neg, field, lambda s: _cell_allowed(src_bars[s], tgt_bars[t]))
            _add_row(phi[t], phi[r], neg, field, lambda s: _cell_allowed(tgt_bars[s], tgt_bars[t]))
            # column r of phi^-1 += mu * column t
            _add_row(phi_inv[r], phi_inv[t], mu, field, lambda k: _cell_allowed(tgt_bars[r], tgt_bars[k]))
        used.add(r)
        sigma[col] = r

    phi_m = Morphism(Gp, Gp, {(t, s): x for t, row in phi.items() for s, x in row.items()}, field)
    phi_inv_m = Morphism(Gp, Gp, {(t, c): x for c, col in phi_inv.items() for t, x in col.items()}, field)
    diag = Morphism(G, Gp, {(t, s): x for t, row in m.items() for s, x in row.items()}, field)

    ident = identity(Gp, field)
    postconditions = (
        (compose(u, phi_m) == diag, "tracked matrix drifted from the recomputed composite"),
        (compose(phi_m, phi_inv_m) == ident, "tracked inverse fails on the left"),
        (compose(phi_inv_m, phi_m) == ident, "tracked inverse fails on the right"),
        (diag.entries == {(r, i): field.one for i, r in sigma.items()}, "result is not a 0/1 diagonal"),
        (len(set(sigma.values())) == len(sigma), "two source bars share a target bar"),
    )
    for holds, message in postconditions:
        if not holds:
            raise DiagonalizationError(f"postcondition failed: {message}")

    for i, r in sigma.items():
        src = G.bars[i].interval
        tgt = Gp.bars[r].interval
        ok = (
            src.lo <= tgt.lo
            and tgt.lo <= src.lo + eps
            and src.hi <= tgt.hi
            and tgt.hi <= src.hi + eps
        )
        if not ok:
            raise DiagonalizationError(
                f"matched pair {src} -> {tgt} drifts by more than {eps}"
            )

    return CanonicalFormResult(phi=phi_m, phi_inverse=phi_inv_m, diagonalized=diag, sigma=sigma)


def diagonalize_system(system: InductiveSystem) -> List[StageDiagonalization]:
    """Diagonalize every comparison map of a tower, stage by stage, all
    degrees at once.

    The tower's constructor has checked its contract; missing reverse maps
    are solved for first.  At stage n only bars longer than twice the stage
    slack take part; the forward map is restricted to those source bars,
    the reverse map to the matching rows of its target.  After each stage
    the remaining maps are rewritten in the new basis of the shared middle
    object, which keeps every later round-trip contract intact.
    """
    system = system.with_reverses()
    slacks = system.slacks
    fwd = list(system.maps)
    rev = list(system.reverses)
    out: List[StageDiagonalization] = []
    for n, eps in enumerate(slacks):
        live = tuple(
            i for i, bar in enumerate(system.stages[n].bars) if bar.interval.length > 2 * eps
        )
        u = fwd[n].restrict_source(live)
        v = rev[n].restrict_target(live)
        try:
            res = canonical_form(u, v, eps)
        except DiagonalizationError as err:
            raise DiagonalizationError(f"stage {n}: {err}", stage=n) from err
        out.append(StageDiagonalization(stage=n, live=live, result=res))
        if n + 1 < len(slacks):
            fwd[n + 1] = compose(res.phi_inverse, fwd[n + 1])
            rev[n + 1] = compose(rev[n + 1], res.phi.shift(slacks[n + 1]))
    return out
