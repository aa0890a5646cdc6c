"""Scalar fields for morphism matrices: GF(p) for a prime p, or exact rationals.

The default field everywhere is GF(2), whose few elements let the test-suite
oracles enumerate every entry assignment.  Exact rationals are supported as an
alternative for small instances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

__all__ = ["PrimeField", "RationalField", "GF2", "QQ", "field_by_name"]


# Miller-Rabin on the prime bases up to 41 is exact below the bound (Sorenson
# and Webster 2015); the bases up to 37 pass the composite 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a p it cannot decide exactly raises."""
    if p >= _PRIME_TEST_BOUND:
        raise ValueError(f"field size exceeds {_PRIME_TEST_BOUND}, the bound of the exact primality test")
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _PRIME_BASES:
        x = pow(q, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic in GF(p), elements canonically stored as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    zero = 0
    one = 1

    def canon(self, x) -> int:
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return pow(a, -1, self.p)

    def elements(self) -> Iterable[int]:
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """Exact rational scalars."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    def canon(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting 0")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


GF2 = PrimeField(2)
QQ = RationalField()


def field_by_name(name) -> object:
    """``2`` / ``"2"`` -> GF(2), ``"q"``/``"Q"`` -> rationals."""
    if isinstance(name, str) and name.strip().lower() in ("q", "qq", "rational"):
        return QQ
    return PrimeField(int(name))
