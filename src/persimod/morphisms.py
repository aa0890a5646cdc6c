"""Morphisms between barcodes as Hom-constrained sparse matrices.

A morphism F -> G is a matrix indexed by (target bar, source bar) whose
nonzero entries are only allowed where the two bars have equal degree and
the interval Hom is one-dimensional in degree 0.  Each such entry scales
the canonical generator between the two interval modules.

Composition is matrix composition *in the generator calculus*: after the
ordinary matrix product, any accumulated value sitting at a cell whose own
generator vanishes (a "phantom" cell, order-valid but support-disjoint)
is dropped.  Every cell of the product is reached through allowed
entries, so the survival rule of `intervals` decides it with one
comparison.  This holds only if every Morphism is valid: built by the
validating constructor, or by `_trusted` from valid maps.

Interleavings, towers and diagonalization all rest on one identity: a
round trip "f then g" into the c-shift of f's source equals the canonical
comparison at shift c.  One predicate, `_is_round_trip`, decides it for
all three, on f's source bars as they are.

Every `InterleavingCertificate` is re-verified at construction through
`_is_round_trip`, on its barcodes' own endpoints: only the maps' targets
G + a and F + b are ever built, and nothing unverified is ever returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .barcodes import Bar, Barcode
from .fields import GF2
from .intervals import DEG0, _lt, _starts_before_end, hom

__all__ = [
    "InterleavingCertificate",
    "Morphism",
    "identity",
    "compose",
    "tau_morphism",
]

Entry = Tuple[int, int]  # (target index, source index)


def _cell_allowed(src_bar: Bar, tgt_bar: Bar) -> bool:
    return src_bar.degree == tgt_bar.degree and hom(src_bar.interval, tgt_bar.interval) is DEG0


class Morphism:
    """Sparse Hom-constrained matrix between two barcodes.

    Raises IndexError for an entry outside the matrix and ValueError for a
    nonzero entry that violates the Hom constraint; zero entries are dropped.
    """

    __slots__ = ("source", "target", "entries", "field")

    def __init__(self, source: Barcode, target: Barcode, entries: Mapping[Entry, object], field=GF2):
        src_bars, tgt_bars, n_src, n_tgt = source.bars, target.bars, len(source), len(target)
        canon, zero = field.canon, field.zero
        clean: Dict[Entry, object] = {}
        ok_src = ok_tgt = None  # the intervals of the last allowed cell; hom(I, I) is DEG0
        for (t, s), raw in entries.items():
            if not (0 <= s < n_src and 0 <= t < n_tgt):
                raise IndexError(f"entry index {(t, s)} out of range")
            val = canon(raw)
            if val == zero:
                continue
            src, tgt = src_bars[s], tgt_bars[t]
            same = (src.interval is ok_src and tgt.interval is ok_tgt or src.interval is tgt.interval) and src.degree == tgt.degree
            if not (same or _cell_allowed(src, tgt)):
                raise ValueError(
                    f"entry at {(t, s)} not allowed: no degree-0 generator {src.interval} -> {tgt.interval}")
            clean[(t, s)], ok_src, ok_tgt = val, src.interval, tgt.interval
        for name, value in zip(Morphism.__slots__, (source, target, clean, field)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("Morphism is immutable")

    def restrict_source(self, indices: Sequence[int]) -> "Morphism":
        idx, pos = _positions(indices, len(self.source))
        ent = {(t, pos[s]): v for (t, s), v in self.entries.items() if s in pos}
        return _trusted(self.source.restrict(idx), self.target, ent, self.field)

    def restrict_target(self, indices: Sequence[int]) -> "Morphism":
        idx, pos = _positions(indices, len(self.target))
        ent = {(pos[t], s): v for (t, s), v in self.entries.items() if t in pos}
        return _trusted(self.source, self.target.restrict(idx), ent, self.field)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        mine = (self.source, self.target, self.field, self.entries)
        return mine == (other.source, other.target, other.field, other.entries)

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"Morphism({len(self.source)}->{len(self.target)}, {len(self.entries)} entries, {self.field!r})"


def _positions(indices: Sequence[int], n: int) -> Tuple[List[int], Dict[int, int]]:
    """The distinct indices, sorted, and each one's rank; IndexError outside 0..n-1."""
    idx = sorted(set(indices))
    if idx and not (0 <= idx[0] and idx[-1] < n):
        raise IndexError(f"bar index {idx[0] if idx[0] < 0 else idx[-1]} outside 0..{n - 1}")
    return idx, {orig: k for k, orig in enumerate(idx)}


def _trusted(source: Barcode, target: Barcode, entries: Dict[Entry, object], field) -> Morphism:
    """Trusted constructor: `entries` are canonical, nonzero and allowed.
    Restriction keeps each kept entry's pair of bars; `identity` sets one
    on cells (i, i), and hom(I, I) is DEG0; `compose` keeps the cells the
    one comparison allows."""
    out = Morphism.__new__(Morphism)
    for name, value in zip(Morphism.__slots__, (source, target, entries, field)):
        object.__setattr__(out, name, value)
    return out


def identity(b: Barcode, field=GF2) -> Morphism:
    return _trusted(b, b, {(i, i): field.one for i in range(len(b))}, field)


def _product(f: Morphism, g: Morphism) -> Dict[Entry, object]:
    """The matrix product of "f then g", f's target indices read as g's
    source indices: every cell a sum reaches, zero sums included."""
    add, mul = f.field.add, f.field.mul
    by_mid: Dict[int, List[Tuple[int, object]]] = {}
    for (t, m), gv in g.entries.items():
        by_mid.setdefault(m, []).append((t, gv))
    acc: Dict[Entry, object] = {}
    for (m, s), fv in f.entries.items():
        for t, gv in by_mid.get(m, ()):
            key = (t, s)
            acc[key] = add(acc[key], mul(gv, fv)) if key in acc else mul(gv, fv)
    return acc


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The composite "f then g" of f: A -> B and g: B -> C.

    Matrix product followed by the generator-calculus cleanup: a cell whose
    own generator vanishes (C_t.lo >= A_s.hi) is zeroed whatever it summed.
    """
    if f.field != g.field:
        raise ValueError("mismatched scalar fields")
    if f.target != g.source:
        raise ValueError("mismatched middle barcode")
    zero = f.field.zero
    his, los = [bar.interval.hi for bar in f.source.bars], [bar.interval.lo for bar in g.target.bars]
    out = {(t, s): v for (t, s), v in _product(f, g).items() if v != zero and _lt(los[t], his[s])}
    return _trusted(f.source, g.target, out, f.field)


def _tau_entries(source: Barcode, c: Fraction, one) -> Dict[Entry, object]:
    """Diagonal of the comparison from source to its c-shift, c >= 0: bar i
    survives its own c-shift exactly when it is longer than c."""
    n, d, iv, out = c.numerator, c.denominator, None, {}
    for i, bar in enumerate(source.bars):
        if bar.interval is not iv:
            iv, keep = bar.interval, _starts_before_end(bar.interval, bar.interval, n, d)
        if keep:
            out[i, i] = one
    return out


def tau_morphism(b: Barcode, c, field=None) -> Morphism:
    """Diagonal comparison morphism B -> shift(B, c) for c >= 0."""
    c, field = c if type(c) is Fraction else Fraction(c), field or GF2
    if c.numerator < 0:
        raise ValueError(f"negative shift {c}")
    return Morphism(b, b.shift(c), _tau_entries(b, c, field.one), field)


def _is_round_trip(f: Morphism, g: Morphism, c: Fraction) -> bool:
    """Is the composite "f then g" the canonical comparison at shift c?

    Precondition: f and g share a field, and g lands in the c-shift of f's
    source (c >= 0).  Then the composite is read off f's source bars as
    they are, with no translation built: each cell (t, s) of the product is
    reached through allowed entries into bar t + c, so the survival rule of
    `intervals` decides whether a nonzero one is kept."""
    bars = [bar.interval for bar in f.source.bars]
    n, d, zero = c.numerator, c.denominator, f.field.zero
    got, i, j = {}, None, None
    for (t, s), x in _product(f, g).items():
        if bars[s] is not i or bars[t] is not j:  # else the last cell's verdict holds
            i, j, keep = bars[s], bars[t], _starts_before_end(bars[s], bars[t], n, d)
        if keep and x != zero:
            got[t, s] = x
    return got == _tau_entries(f.source, c, f.field.one)


class InterleavingCertificate:
    """A verified (a,b)-interleaving.  Construction re-checks both round
    trips against the canonical comparison and refuses anything else."""

    __slots__ = ("a", "b", "u", "v")

    def __init__(self, a, b, u: Morphism, v: Morphism):
        a, b = (a if type(a) is Fraction else Fraction(a)), (b if type(b) is Fraction else Fraction(b))
        if a.numerator < 0 or b.numerator < 0:
            raise ValueError("interleaving shifts must be nonnegative")
        F, G = u.source, v.source
        if u.field != v.field:
            raise ValueError("certificate maps use different scalar fields")
        if not u.target.is_shift_of(G, a):
            raise ValueError("u must land in the a-shift of G")
        if not v.target.is_shift_of(F, b):
            raise ValueError("v must land in the b-shift of F")
        # Each round trip lands in the (a+b)-shift of its source.
        total = a + b
        if not _is_round_trip(u, v, total):
            raise ValueError("round trip through G is not the canonical comparison")
        if not _is_round_trip(v, u, total):
            raise ValueError("round trip through F is not the canonical comparison")
        for name, value in zip(InterleavingCertificate.__slots__, (a, b, u, v)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("certificates are immutable")

    @property
    def total(self) -> Fraction:
        return self.a + self.b

    def __repr__(self):
        return f"InterleavingCertificate(a={self.a}, b={self.b}, total={self.total})"
