"""Half-open intervals [a, b) with exact extended-rational endpoints.

Endpoints are plain rationals plus the symbolic values ``-inf`` / ``inf``;
comparisons and all derived predicates are exact (no tolerances anywhere).
The degenerate interval [a, a) is rejected at construction: the zero object
is represented by an empty barcode, never by an empty interval.

The three-valued Hom classifier between rank-one interval modules lives
here as well, since everything else in the package is built on top of it:

    hom([a,b), [c,d)) == DEG0   iff  a <= c < b <= d      (dim Hom^0 = 1)
    hom([a,b), [c,d)) == DEG1   iff  c < a <= d < b       (dim Hom^1 = 1)
    hom([a,b), [c,d)) == ZERO   otherwise

Every endpoint is a reduced triple (kind, n, d): kind -1 or +1 for -inf
or +inf, which carry the pair (0, 1), and kind 0 for the rational n/d with
gcd(n, d) == 1 and d > 0.  One comparison rule orders them: different
kinds compare by kind, equal kinds compare n1*d2 against n2*d1.  It is
written once, as `_lt` and `_le`, and `ExtRat`'s order operators, `hom`
and `leq` all go through it.  Translating a barcode goes through `_plus`,
which adds a reduced n/d to one endpoint with one reduction, and checking
a translation goes through `_is_plus`, which cross-multiplies without
building the sum.

One rule decides whether a composite survives.  Let a cell I -> J + c,
with c >= 0, be reached: through allowed generators (degree-0 entries
between bars of equal degree), or as the comparison I -> I + c.  Then the
degrees agree and I <= J + c coordinatewise, so hom(I, J + c) is DEG0
exactly when lo_J + c < hi_I.  That is `_lt(lo_J, hi_I)` for c = 0 and
`_starts_before_end(I, J, n, d)` for c = n/d, which reads the
untranslated bars.
"""

from __future__ import annotations

import enum
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

__all__ = [
    "ExtRat",
    "NEG_INF",
    "POS_INF",
    "Interval",
    "HomType",
    "ZERO",
    "DEG0",
    "DEG1",
    "leq",
    "hom",
    "compose_generator",
]

RatLike = Union[int, Fraction, str, "ExtRat"]

_INF_TOKENS = {"inf": 1, "+inf": 1, "-inf": -1, "oo": 1, "-oo": -1}


class ExtRat:
    """An exact rational extended with -inf and +inf.

    A finite value is a reduced int pair: numerator `_n` and denominator
    `_d` with gcd(_n, _d) == 1 and _d > 0, and `_kind` 0.  An infinity has
    `_kind` -1 or +1 and the pair (0, 1), so two values compare by kind
    first and then by cross-multiplication, with no Fraction in between.

    Totally ordered: -inf < every rational < +inf.  Arithmetic is defined
    for the combinations that make sense for endpoint/length bookkeeping
    (inf + finite, inf - finite, finite - inf, scalar multiples); the
    indeterminate forms raise ArithmeticError.
    """

    __slots__ = ("_kind", "_n", "_d")

    def __init__(self, value: RatLike = 0):
        if isinstance(value, ExtRat):
            self._kind, self._n, self._d = value._kind, value._n, value._d
            return
        if isinstance(value, str):
            token = value.strip()
            if token in _INF_TOKENS:
                self._kind, self._n, self._d = _INF_TOKENS[token], 0, 1
                return
            value = parse_rational(token)
        if isinstance(value, (int, Fraction)):
            self._kind, self._n, self._d = 0, value.numerator, value.denominator
            return
        raise TypeError(f"cannot build ExtRat from {value!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make_inf(sign: int) -> "ExtRat":
        out = ExtRat.__new__(ExtRat)
        out._kind, out._n, out._d = sign, 0, 1
        return out

    @staticmethod
    def _pair(n: int, d: int) -> "ExtRat":
        """Trusted constructor: n/d for an already reduced pair with d > 0."""
        out = ExtRat.__new__(ExtRat)
        out._kind, out._n, out._d = 0, n, d
        return out

    @staticmethod
    def _ratio(n: int, d: int) -> "ExtRat":
        """Trusted constructor: n/d for ints n and d > 0, reduced here."""
        g = gcd(n, d)
        out = ExtRat.__new__(ExtRat)
        out._kind, out._n, out._d = 0, n // g, d // g
        return out

    # -- predicates --------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._kind == 0

    @property
    def is_pos_inf(self) -> bool:
        return self._kind > 0

    def as_fraction(self) -> Fraction:
        if self._kind != 0:
            raise ArithmeticError(f"{self} is not finite")
        return Fraction(self._n, self._d)

    # -- ordering ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ExtRat":
        if isinstance(other, (int, Fraction, str)):
            return ExtRat(other)
        return NotImplemented

    # Equal values are equal triples, since finite pairs are reduced; the
    # order goes through `_lt` and `_le` below, and returns NotImplemented,
    # as `_coerce` does, for an operand that is not a value.

    def __eq__(self, other):
        other = other if type(other) is ExtRat else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._kind == other._kind and self._n == other._n and self._d == other._d

    def __lt__(self, other):
        other = other if type(other) is ExtRat else self._coerce(other)
        return other if other is NotImplemented else _lt(self, other)

    def __le__(self, other):
        other = other if type(other) is ExtRat else self._coerce(other)
        return other if other is NotImplemented else _le(self, other)

    def __gt__(self, other):
        other = other if type(other) is ExtRat else self._coerce(other)
        return other if other is NotImplemented else _lt(other, self)

    def __ge__(self, other):
        other = other if type(other) is ExtRat else self._coerce(other)
        return other if other is NotImplemented else _le(other, self)

    def __hash__(self):
        if self._kind != 0:
            return hash(("ExtRat", self._kind))
        return hash(Fraction(self._n, self._d))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = other if type(other) is ExtRat else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._kind:
            if self._kind and self._kind != other._kind:
                raise ArithmeticError("inf + (-inf) is undefined")
            return other
        return _plus(self, other._n, other._d)

    __radd__ = __add__

    def __neg__(self):
        return ExtRat._make_inf(-self._kind) if self._kind else ExtRat._pair(-self._n, self._d)

    def __sub__(self, other):
        other = other if type(other) is ExtRat else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._kind:
            if self._kind == other._kind:
                raise ArithmeticError("inf + (-inf) is undefined")
            return self if self._kind else -other
        return _plus(self, -other._n, other._d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = other if type(other) is ExtRat else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k, ok = self._kind, other._kind
        if not (k or ok):
            return ExtRat._ratio(self._n * other._n, self._d * other._d)
        # at least one infinite factor: require the other to be nonzero finite
        # or infinite; sign rule applies.
        sign = k or (self._n > 0) - (self._n < 0)
        osign = ok or (other._n > 0) - (other._n < 0)
        if sign == 0 or osign == 0:
            raise ArithmeticError("0 * inf is undefined")
        return ExtRat._make_inf(sign * osign)

    __rmul__ = __mul__

    # -- display -----------------------------------------------------------

    def __str__(self):
        if self._kind:
            return "inf" if self._kind > 0 else "-inf"
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"

    def __repr__(self):
        return f"ExtRat({str(self)!r})"


NEG_INF = ExtRat._make_inf(-1)
POS_INF = ExtRat._make_inf(1)


# -- the endpoint kernel ------------------------------------------------------


def _lt(x: ExtRat, y: ExtRat) -> bool:
    """x < y: kinds first, then cross-multiplied pairs."""
    k, ok = x._kind, y._kind
    return k < ok if k != ok else x._n * y._d < y._n * x._d


def _le(x: ExtRat, y: ExtRat) -> bool:
    """x <= y: kinds first, then cross-multiplied pairs."""
    k, ok = x._kind, y._kind
    return k < ok if k != ok else x._n * y._d <= y._n * x._d


def _plus(e: ExtRat, n: int, d: int) -> ExtRat:
    """e + n/d for a reduced n/d with d > 0, reduced once; an infinite e
    stays as it is."""
    if e._kind:
        return e
    num, den = e._n * d + n * e._d, e._d * d
    g = gcd(num, den)
    out = ExtRat.__new__(ExtRat)
    out._kind, out._n, out._d = 0, num // g, den // g
    return out


def _is_plus(t: ExtRat, s: ExtRat, n: int, d: int) -> bool:
    """t == s + n/d for a reduced n/d with d > 0, decided by
    cross-multiplication without building the sum."""
    if s._kind:
        return t._kind == s._kind
    return not t._kind and t._n * s._d * d == (s._n * d + n * s._d) * t._d


def _starts_before_end(i: "Interval", j: "Interval", n: int, d: int) -> bool:
    """lo_j + n/d < hi_i for a reduced n/d with d > 0, decided by
    cross-multiplication without building the translate; an infinite lo_j
    stays as it is."""
    c, b = j.lo, i.hi
    if c._kind != b._kind:
        return c._kind < b._kind
    return not c._kind and (c._n * d + n * c._d) * b._d < b._n * c._d * d


def parse_rational(token: str) -> Fraction:
    """Fraction(token) for text from outside the program, refused with
    ValueError unless it can be printed back: its numerator and denominator
    may have at most the interpreter's int/str digit limit of digits.
    Fraction builds 10**exponent for a decimal exponent, so an exponent over
    that limit is refused before that unbounded work.  A token of decimal
    digits (int reads those that Fraction's regex does) with an optional
    sign and /denominator is built from its two ints without the regex.
    A run of digits over the limit is refused in the program's words."""
    num, slash, den = token.partition("/")
    if (num.isdecimal() or num[:1] in ("+", "-") and num[1:].isdecimal()) and (not slash or den.isdecimal()):
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except ValueError:
            raise ValueError(f"digit run over the limit of {sys.get_int_max_str_digits()}") from None
    low = token.lower()
    limit = sys.get_int_max_str_digits()
    if "e" in low:
        exponent = low.rpartition("e")[2].strip().lstrip("+-0").replace("_", "")
        if exponent.isdecimal() and limit and (len(exponent) > len(str(limit)) or int(exponent) > limit):
            raise ValueError(f"decimal exponent over the limit of {limit}")
    # Fraction reads each run of digits with int, which refuses one over
    # the limit with advice to raise it; the runs are shorter than the token.
    if limit and len(token) > limit:
        if any(len(run) - run.count("_") > limit for run in re.findall(r"\d+(?:_\d+)*", token)):
            raise ValueError(f"digit run over the limit of {limit}")
    value = Fraction(token)
    # Without an exponent, no term has more digits than the token has
    # characters.
    if "e" in low or len(token) > limit:
        check_printable("value", value)
    return value


def check_printable(what: str, value: Fraction) -> None:
    """Refuse with ValueError, naming `what`, a rational whose numerator or
    denominator has more digits than the interpreter's int/str limit lets
    it print."""
    limit = sys.get_int_max_str_digits()
    top = max(abs(value.numerator), value.denominator)
    # a term of over `limit` digits is >= 10**limit > 8**limit
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:
        raise ValueError(f"{what} has over {limit} digits, the printable limit")


class Interval:
    """Half-open interval [lo, hi) with lo < hi (nonempty, non-degenerate)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RatLike, hi: RatLike):
        lo = ExtRat(lo)
        hi = ExtRat(hi)
        if not lo < hi:
            raise ValueError(f"empty interval [{lo},{hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, *a):
        raise AttributeError("Interval is immutable")

    @property
    def length(self) -> ExtRat:
        return self.hi - self.lo

    def shift(self, c) -> "Interval":
        c = Fraction(c)
        return self._shifted(c.numerator, c.denominator)

    def _shifted(self, n: int, d: int) -> "Interval":
        """Translation by the reduced n/d, built without re-parsing the
        endpoints; an infinite endpoint stays as it is."""
        lo, hi = _plus(self.lo, n, d), _plus(self.hi, n, d)
        if not _lt(lo, hi):
            raise ValueError(f"empty interval [{lo},{hi})")
        out = Interval.__new__(Interval)
        _set_lo(out, lo)
        _set_hi(out, hi)
        return out

    def _is_shift_of(self, other: "Interval", n: int, d: int) -> bool:
        """Whether this interval equals other.shift(n/d), for a reduced n/d."""
        return _is_plus(self.lo, other.lo, n, d) and _is_plus(self.hi, other.hi, n, d)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __str__(self):
        return f"[{self.lo},{self.hi})"

    def __repr__(self):
        return f"Interval({str(self.lo)!r}, {str(self.hi)!r})"


def int_pair(e: ExtRat) -> Optional[Tuple[int, int]]:
    """The reduced (numerator, denominator) of a finite e, None if infinite."""
    return None if e._kind else (e._n, e._d)


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__

class HomType(enum.Enum):
    """Shape of the (derived) morphism space between two interval modules.

    At most one of the two degrees carries a one-dimensional space; the
    other possibilities do not occur for intervals on the line.
    """

    ZERO = 0
    DEG0 = 1
    DEG1 = 2

    def __repr__(self):
        return f"HomType.{self.name}"


ZERO = HomType.ZERO
DEG0 = HomType.DEG0
DEG1 = HomType.DEG1


def leq(i: Interval, j: Interval) -> bool:
    """Product order on endpoints: I <= J iff I.lo <= J.lo and I.hi <= J.hi."""
    return _le(i.lo, j.lo) and _le(i.hi, j.hi)


def hom(i: Interval, j: Interval) -> HomType:
    """Classify the morphism space from k_I to k_J (see module docstring)."""
    a, b = i.lo, i.hi
    c, d = j.lo, j.hi
    # Both nonzero cases need c < b; given it, a <= c rules out DEG1.
    if _lt(c, b):
        if _le(a, c):
            return DEG0 if _le(b, d) else ZERO
        if _le(a, d) and _lt(d, b):
            return DEG1
    return ZERO


def compose_generator(i: Interval, j: Interval, k: Interval) -> HomType:
    """Hom class of the composite of the canonical generators I -> J -> K.

    Both legs must be nonzero in degree 0; the composite is the canonical
    generator I -> K, which vanishes unless K starts before I ends (the
    survival rule above).  Returns hom(i, k).
    """
    if hom(i, j) is not DEG0:
        raise ValueError(f"no degree-0 generator {i} -> {j}")
    if hom(j, k) is not DEG0:
        raise ValueError(f"no degree-0 generator {j} -> {k}")
    return DEG0 if _lt(k.lo, i.hi) else ZERO
