"""Morphisms between barcodes as Hom-constrained sparse matrices.

A morphism F -> G is a matrix indexed by (target bar, source bar) whose
nonzero entries are only allowed where the two bars have equal degree and
the interval Hom is one-dimensional in degree 0.  Each such entry scales
the canonical generator between the two interval modules.

Composition is matrix composition *in the generator calculus*: after the
ordinary matrix product, any accumulated value sitting at a cell whose own
generator vanishes is dropped.  (Order-valid but support-disjoint cells act
as "phantom" entries: they carry matrix algebra but realize to the zero
map, and they can never contaminate a realizable cell under
order-respecting operations.)

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
from .intervals import DEG0, _deg0_plus, hom

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
        src_bars, tgt_bars = source.bars, target.bars
        n_src, n_tgt = len(src_bars), len(tgt_bars)
        canon, zero = field.canon, field.zero
        clean: Dict[Entry, object] = {}
        for (t, s), raw in entries.items():
            if not (0 <= s < n_src and 0 <= t < n_tgt):
                raise IndexError(f"entry index {(t, s)} out of range")
            val = canon(raw)
            if val == zero:
                continue
            if not _cell_allowed(src_bars[s], tgt_bars[t]):
                raise ValueError(
                    f"entry at {(t, s)} not allowed: no degree-0 generator "
                    f"{src_bars[s].interval} -> {tgt_bars[t].interval}"
                )
            clean[(t, s)] = val
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *a):
        raise AttributeError("Morphism is immutable")

    def shift(self, c) -> "Morphism":
        """Translate source and target by c; the matrix is unchanged.  hom is
        translation-invariant, so the validated entries stay valid."""
        c = Fraction(c)
        return _trusted(self.source.shift(c), self.target.shift(c), dict(self.entries), self.field)

    def restrict_source(self, indices: Sequence[int]) -> "Morphism":
        idx = sorted(set(indices))
        pos = {orig: k for k, orig in enumerate(idx)}
        ent = {(t, pos[s]): v for (t, s), v in self.entries.items() if s in pos}
        return Morphism(self.source.restrict(idx), self.target, ent, self.field)

    def restrict_target(self, indices: Sequence[int]) -> "Morphism":
        idx = sorted(set(indices))
        pos = {orig: k for k, orig in enumerate(idx)}
        ent = {(pos[t], s): v for (t, s), v in self.entries.items() if t in pos}
        return Morphism(self.source, self.target.restrict(idx), ent, self.field)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"Morphism({len(self.source)}->{len(self.target)}, {len(self.entries)} entries, {self.field!r})"


def _trusted(source: Barcode, target: Barcode, entries: Dict[Entry, object], field) -> Morphism:
    """Trusted constructor: `entries` are canonical, nonzero and allowed."""
    out = Morphism.__new__(Morphism)
    object.__setattr__(out, "source", source)
    object.__setattr__(out, "target", target)
    object.__setattr__(out, "entries", entries)
    object.__setattr__(out, "field", field)
    return out


def identity(b: Barcode, field=GF2) -> Morphism:
    return Morphism(b, b, {(i, i): field.one for i in range(len(b))}, field)


def _product(f: Morphism, g: Morphism) -> Dict[Entry, object]:
    """The matrix product of "f then g", f's target indices read as g's
    source indices: every cell a sum reaches, zero sums included."""
    field = f.field
    add, mul, zero = field.add, field.mul, field.zero
    by_src: Dict[int, List[Tuple[int, object]]] = {}
    for (t, s), v in f.entries.items():
        by_src.setdefault(s, []).append((t, v))
    by_mid: Dict[int, List[Tuple[int, object]]] = {}
    for (t, s), v in g.entries.items():
        by_mid.setdefault(s, []).append((t, v))
    acc: Dict[Entry, object] = {}
    for s, f_col in by_src.items():
        for mid, fv in f_col:
            for t, gv in by_mid.get(mid, ()):
                key = (t, s)
                acc[key] = add(acc.get(key, zero), mul(gv, fv))
    return acc


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The composite "f then g" of f: A -> B and g: B -> C.

    Matrix product followed by the generator-calculus cleanup: a cell whose
    own generator vanishes is zeroed no matter what the sum accumulated.
    """
    if f.field != g.field:
        raise ValueError("mismatched scalar fields")
    if f.target != g.source:
        raise ValueError("mismatched middle barcode")
    zero = f.field.zero
    src_bars, tgt_bars = f.source.bars, g.target.bars
    out = {
        (t, s): v for (t, s), v in _product(f, g).items() if v != zero and _cell_allowed(src_bars[s], tgt_bars[t])
    }
    return _trusted(f.source, g.target, out, f.field)


def _tau_entries(source: Barcode, c: Fraction, one) -> Dict[Entry, object]:
    """Diagonal of the comparison from source to its c-shift, c >= 0: bar i
    survives its own c-shift (c < length) exactly when hom(bar i, bar i + c)
    is DEG0."""
    n, d = c.numerator, c.denominator
    return {(i, i): one for i, bar in enumerate(source.bars) if _deg0_plus(bar.interval, bar.interval, n, d)}


def tau_morphism(b: Barcode, c, field=None) -> Morphism:
    """Diagonal comparison morphism B -> shift(B, c) for c >= 0."""
    field = field or GF2
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"negative shift {c}")
    return Morphism(b, b.shift(c), _tau_entries(b, c, field.one), field)


def _is_round_trip(f: Morphism, g: Morphism, c: Fraction) -> bool:
    """Is the composite "f then g" the canonical comparison at shift c?

    Precondition: f and g share a field, and g lands in the c-shift of f's
    source (c >= 0).  Then the composite is read off f's source bars as
    they are, with no translation built: a nonzero cell (t, s) of the
    product is kept when hom(bar s, bar t + c) is DEG0.  f and g pair bars
    of equal degree only, so every cell of the product does too."""
    bars = [bar.interval for bar in f.source.bars]
    n, d, zero = c.numerator, c.denominator, f.field.zero
    got = {(t, s): x for (t, s), x in _product(f, g).items() if x != zero and _deg0_plus(bars[s], bars[t], n, d)}
    return got == _tau_entries(f.source, c, f.field.one)


class InterleavingCertificate:
    """A verified (a,b)-interleaving.  Construction re-checks both round
    trips against the canonical comparison and refuses anything else."""

    __slots__ = ("a", "b", "u", "v")

    def __init__(self, a, b, u: Morphism, v: Morphism):
        a, b = Fraction(a), Fraction(b)
        if a < 0 or b < 0:
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
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, *args):
        raise AttributeError("certificates are immutable")

    @property
    def total(self) -> Fraction:
        return self.a + self.b

    def __repr__(self):
        return f"InterleavingCertificate(a={self.a}, b={self.b}, total={self.total})"
