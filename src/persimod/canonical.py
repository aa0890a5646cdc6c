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
row operation is a row operation on its transpose.  u arrives valid and
phi and its inverse are built validated, so phi after u, the result,
needs no second check (`morphisms`).  The factorization, both inverse
laws, the diagonal shape and the endpoint drift are re-checked on them.

A tower (`InductiveSystem`) checks at construction the contract that
`diagonalize_system` relies on, and solves for missing reverse maps.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .barcodes import Bar
from .fields import GF2
from .intervals import ExtRat, _le, _lt, _plus, _starts_before_end
from .morphisms import Morphism, _cell_allowed, _is_round_trip, compose, identity

__all__ = [
    "DiagonalizationError",
    "CanonicalFormResult",
    "StageDiagonalization",
    "InductiveSystem",
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
    In `canonical_form` the row operations are themselves morphisms, so
    every cell they reach is reached through allowed generators and
    `allowed` is the survival rule of `intervals` at c = 0: each matrix
    stays the true composite at every step.
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
    n, d = eps.numerator, eps.denominator
    for bar in G.bars:
        if not _starts_before_end(bar.interval, bar.interval, n, d):
            raise DiagonalizationError(f"bar {bar!r} is not longer than the shift {eps}")
    if not _is_round_trip(u, v, eps):
        raise DiagonalizationError("round trip is not the canonical comparison map")

    src_his = [bar.interval.hi for bar in G.bars]
    tgt_los = [bar.interval.lo for bar in Gp.bars]
    tgt_his = [bar.interval.hi for bar in Gp.bars]
    # m = phi after u and phi by rows, phi^-1 by columns: row t of m maps
    # column s to m[t][s], and phi_inv[c][t] is the (t, c) entry of phi^-1.
    m: Dict[int, Dict[int, object]] = {t: {} for t in range(len(Gp))}
    # supports[s] is the set of rows t with a cell m[t][s], kept up to date
    # after each row operation on m.
    supports = [set() for _ in range(len(G))]
    for (t, s), val in u.entries.items():
        m[t][s] = val
        supports[s].add(t)
    phi = {t: {t: field.one} for t in range(len(Gp))}
    phi_inv = {t: {t: field.one} for t in range(len(Gp))}
    used = set()
    sigma: Dict[int, int] = {}

    for col in range(len(G)):
        # In ascending rows, so `least` and `fresh` keep the row order.
        support = sorted(supports[col])
        if not support:
            # Cannot happen when the round-trip contract holds: the
            # comparison map keeps a unit on every (long) diagonal cell,
            # and the tracked matrix stays a genuine factor of it.
            raise DiagonalizationError(f"column {col} has empty support")
        least = support
        if len(support) > 1:  # a support of one row is its own least element
            lo_min = min(tgt_los[t] for t in support)
            hi_min = min(tgt_his[t] for t in support)
            least = [t for t in support if tgt_los[t] == lo_min and tgt_his[t] == hi_min]
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
            _add_row(m[t], m[r], neg, field, lambda s: _lt(tgt_los[t], src_his[s]))
            # Only the columns of row r can gain or lose a cell in row t.
            for c in m[r]:
                (supports[c].add if c in m[t] else supports[c].discard)(t)
            _add_row(phi[t], phi[r], neg, field, lambda s: _lt(tgt_los[t], tgt_his[s]))
            # column r of phi^-1 += mu * column t
            _add_row(phi_inv[r], phi_inv[t], mu, field, lambda k: _lt(tgt_los[k], tgt_his[r]))
        used.add(r)
        sigma[col] = r

    phi_m = Morphism(Gp, Gp, {(t, s): x for t, row in phi.items() for s, x in row.items()}, field)
    phi_inv_m = Morphism(Gp, Gp, {(t, c): x for c, col in phi_inv.items() for t, x in col.items()}, field)
    tracked = {(t, s): x for t, row in m.items() for s, x in row.items()}
    diag = compose(u, phi_m)

    ident = identity(Gp, field)
    postconditions = (
        (diag.entries == tracked, "tracked matrix drifted from the recomputed composite"),
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
            _le(src.lo, tgt.lo)
            and _le(tgt.lo, _plus(src.lo, n, d))
            and _le(src.hi, tgt.hi)
            and _le(tgt.hi, _plus(src.hi, n, d))
        )
        if not ok:
            raise DiagonalizationError(
                f"matched pair {src} -> {tgt} drifts by more than {eps}"
            )

    return CanonicalFormResult(phi=phi_m, phi_inverse=phi_inv_m, diagonalized=diag, sigma=sigma)


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


_RHS = -1  # a row's right-hand side in `_solve_rows`; unknowns are bar indices


def _solve_rows(rows: Sequence[Dict[int, object]], cols: Sequence[int], fld) -> Optional[Dict[int, object]]:
    """The nonzero values of the solution with free unknowns at zero of a
    sparse system over `fld`, or None if it is inconsistent.  A row maps
    unknowns in `cols` and `_RHS` to nonzero values.  Gauss-Jordan on the
    row helpers of `canonical_form`, pivots in `cols` order; the reduced
    echelon form is unique, so no choice of pivot rows changes the result."""
    pending = [dict(row) for row in rows]
    pivots: Dict[int, Dict[int, object]] = {}
    for c in cols:
        k = next((k for k, row in enumerate(pending) if c in row), None)
        if k is not None:
            piv = pending.pop(k)
            _scale_row(piv, fld.inv(piv[c]), fld)
            for row in (*pending, *pivots.values()):
                if c in row:
                    _add_row(row, piv, fld.neg(row[c]), fld, lambda key: True)
            pivots[c] = piv
    if any(pending):  # a row left holds no unknown: it reads 0 = b, b != 0
        return None
    return {c: row[_RHS] for c, row in pivots.items() if _RHS in row}


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
    found = []
    for ip, tgt in enumerate(shifted.bars):
        unknowns = _allowed_into(Fp.bars, fp_keys, tgt)
        allowed = set(unknowns)
        rows = []
        for i in _allowed_into(F.bars, f_keys, tgt):
            row = {j: coef for j, coef in by_source.get(i, ()) if j in allowed}
            if ip == i and F.bars[i].interval.length > eps:
                row[_RHS] = fld.one
            if row:
                rows.append(row)
        if not rows:
            continue
        sol = _solve_rows(rows, unknowns, fld)
        if sol is None:
            return None
        found.extend(((ip, j), v) for j, v in sol.items())
    found.sort(key=lambda cell: (cell[0][1], cell[0][0]))  # g's entries in column order
    return Morphism(Fp, shifted, dict(found), fld)


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
        twice = 2 * eps
        live = tuple(
            i
            for i, bar in enumerate(system.stages[n].bars)
            if _starts_before_end(bar.interval, bar.interval, twice.numerator, twice.denominator)
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
            # rev[n + 1] lands in the slack-shift of phi's object, and Hom
            # is translation-invariant: phi's entries hold there unchanged.
            t = rev[n + 1].target
            rev[n + 1] = compose(rev[n + 1], Morphism(t, t, res.phi.entries, res.phi.field))
    return out
