"""Graded barcodes: finite multisets of (degree, interval) bars.

A bar in degree d stands for a rank-one interval module placed in
cohomological degree d.  Barcodes are stored as tuples sorted by
(degree, lo, hi) with multiplicity expanded into repeated entries, so a
bar's index in the sorted tuple is its address in every matrix indexed
by the barcode.  The empty barcode is the zero object.

A run is a stretch of consecutive bars of one degree on one `Interval`
object, as a multiplicity column or `[bar] * k` makes.  A per-bar step that
reads only those immutable objects is done once per run.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Dict, Iterable, List, Tuple, Union

from .intervals import Interval

__all__ = ["Bar", "Barcode"]


class Bar:
    """One bar: an interval module in a fixed cohomological degree."""

    __slots__ = ("degree", "interval")

    def __init__(self, degree: int, interval: Interval):
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "interval", interval)

    def __setattr__(self, *a):
        raise AttributeError("Bar is immutable")

    def key(self):
        return (self.degree, self.interval.lo, self.interval.hi)

    def __eq__(self, other):
        if not isinstance(other, Bar):
            return NotImplemented
        return self.degree == other.degree and self.interval == other.interval

    def __hash__(self):
        return hash((self.degree, self.interval))

    def __repr__(self):
        return f"Bar({self.degree}, {self.interval})"


_set_degree = Bar.degree.__set__
_set_interval = Bar.interval.__set__

BarLike = Union[Bar, tuple]


def _as_bar(item: BarLike) -> Bar:
    if isinstance(item, Bar):
        return item
    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], Interval):
        return Bar(item[0], item[1])
    raise TypeError(f"cannot interpret {item!r} as a bar")


class Barcode:
    """Finite multiset of bars in canonical (degree, lo, hi) order."""

    __slots__ = ("bars",)

    def __init__(self, bars: Iterable[BarLike] = ()):
        _set_bars(self, tuple(sorted(map(_as_bar, bars), key=Bar.key)))

    @staticmethod
    def _from_sorted(bars: Tuple[Bar, ...]) -> "Barcode":
        """Trusted constructor: `bars` is a tuple of Bar already in
        (degree, lo, hi) order, as a translation or an index subsequence of
        a barcode leaves it, or a sort on ranks of the endpoints."""
        out = Barcode.__new__(Barcode)
        _set_bars(out, bars)
        return out

    def __setattr__(self, *a):
        raise AttributeError("Barcode is immutable")

    def __len__(self):
        return len(self.bars)

    def __iter__(self):
        return iter(self.bars)

    def __getitem__(self, i) -> Bar:
        return self.bars[i]

    def __bool__(self):
        return bool(self.bars)

    def __eq__(self, other):
        if not isinstance(other, Barcode):
            return NotImplemented
        return self.bars == other.bars

    def __hash__(self):
        return hash(self.bars)

    def __repr__(self):
        inner = ", ".join(f"({b.degree}, {b.interval})" for b in self.bars)
        return f"Barcode([{inner}])"

    # -- structure helpers ---------------------------------------------------

    def shift(self, c) -> "Barcode":
        """The translate by c; the copies of a run share one shifted Bar."""
        c = c if type(c) is Fraction else Fraction(c)
        n, d = c.numerator, c.denominator
        bars, iv, deg = [], None, None
        for b in self.bars:
            if b.interval is not iv or b.degree != deg:
                iv, deg, out = b.interval, b.degree, Bar.__new__(Bar)
                _set_degree(out, deg)
                _set_interval(out, iv._shifted(n, d))
            bars.append(out)
        return Barcode._from_sorted(tuple(bars))

    def is_shift_of(self, other: "Barcode", c) -> bool:
        """Whether this barcode equals other.shift(c), compared bar by bar
        without building the shift; a pair on the two Interval objects of the
        pair before it has their verdict."""
        c = c if type(c) is Fraction else Fraction(c)
        n, d, tb, sb = c.numerator, c.denominator, self.bars, other.bars
        return len(tb) == len(sb) and all(
            t.degree == s.degree
            and (t.interval is p.interval and s.interval is q.interval or t.interval._is_shift_of(s.interval, n, d))
            for t, s, p, q in zip(tb, sb, (_NO_BAR,) + tb, (_NO_BAR,) + sb)
        )

    def degrees(self) -> List[int]:
        return sorted({b.degree for b in self.bars})

    def restrict(self, indices: Iterable[int]) -> "Barcode":
        """Sub-barcode at the given sorted indices (order is preserved)."""
        idx = sorted(set(indices))
        if idx and idx[0] < 0:  # negative indices may wrap out of order
            return Barcode(self.bars[i] for i in idx)
        return Barcode._from_sorted(tuple(self.bars[i] for i in idx))

    def split_by_degree(self) -> Dict[int, Tuple["Barcode", List[int]]]:
        """degree -> (sub-barcode, original indices)."""
        out: Dict[int, Tuple[Barcode, List[int]]] = {}
        for d in self.degrees():
            idx = [i for i, b in enumerate(self.bars) if b.degree == d]
            out[d] = (self.restrict(idx), idx)
        return out

    def counts(self) -> List[Tuple[Bar, int]]:
        """Bars with multiplicities, in canonical order."""
        return [(b, len(list(copies))) for b, copies in groupby(self.bars)]


_set_bars = Barcode.bars.__set__
_NO_BAR = Bar(0, None)  # the pair before the first: its interval is no Interval
