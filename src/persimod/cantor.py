"""Cantor-cube families and their displacement-energy bound.

Cube corners, edges and the bound are exact Fractions.  Only
`corner_cloud` builds floats, and it loads the float cone code (and so
numpy) when it is called, not when this module is imported.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

__all__ = [
    "CubeFamily",
    "cantor_cubes",
    "corner_cloud",
    "displacement_bound",
]

CUBE_BUDGET = 10 ** 6
# displacement_bound holds 2^(2nk) exactly, so the exponent is capped; a^k is
# not, and a bound too long for the interpreter to print is refused there.
BOUND_EXPONENT_BUDGET = 10 ** 4


@dataclass(frozen=True)
class CubeFamily:
    """Level-k cubes of the 2n-fold product of a middle-excluded Cantor set."""

    cubes: Tuple[Tuple[Tuple[Fraction, ...], Fraction], ...]
    ratio: Fraction
    level: int
    half_dim: int


def _cantor_left_endpoints(a: Fraction, k: int) -> List[Fraction]:
    """Left endpoints of the 2^k level-k intervals of the Cantor set that
    keeps the outer a-fraction at each step."""
    ends = [Fraction(0)]
    for i in range(k):
        step = a ** i * (1 - a)
        ends = ends + [e + step for e in ends]
    return sorted(ends)


def _cantor_ratio(a, k: int, n: int) -> Fraction:
    """a as a Fraction once the parameters of `cantor_cubes` pass its
    checks, which build nothing."""
    a = Fraction(a)
    if not 0 < a < Fraction(1, 2):
        raise ValueError("ratio must satisfy 0 < a < 1/2 (disjointness)")
    if k < 1 or n < 1:
        raise ValueError("level and half-dimension must be >= 1")
    # 2^e > CUBE_BUDGET exactly when e >= CUBE_BUDGET.bit_length()
    if 2 * n * k >= CUBE_BUDGET.bit_length():
        raise ValueError(f"cube count 2^{2 * n * k} exceeds budget {CUBE_BUDGET}")
    return a


def cantor_cubes(a, k: int, n: int) -> CubeFamily:
    """All 2^{2nk} products of level-k Cantor intervals, edge a^k."""
    a = _cantor_ratio(a, k, n)
    ends = _cantor_left_endpoints(a, k)
    edge = a ** k
    cubes = tuple(
        (corner, edge) for corner in itertools.product(ends, repeat=2 * n)
    )
    return CubeFamily(cubes, a, k, n)


def corner_cloud(family: CubeFamily):
    """Every corner of every cube in the family, as a float point cloud
    (a `persimod.cones.PointCloud`)."""
    from .cones import PointCloud

    dim = 2 * family.half_dim
    total = len(family.cubes) * 2 ** dim
    if total > CUBE_BUDGET:
        raise ValueError(f"corner count {total} exceeds budget {CUBE_BUDGET}")
    pts = []
    for corner, edge in family.cubes:
        for bits in itertools.product((0, 1), repeat=dim):
            pts.append([float(c + b * edge) for c, b in zip(corner, bits)])
    return PointCloud(pts)


def displacement_bound(a, k: int, n: int) -> Fraction:
    """The level-k displacement-energy bound 2^{2nk} * a^k: decreasing in k
    exactly when 2^{2n} a < 1, constant at equality, increasing above."""
    a = Fraction(a)
    if not 0 < a < 1:
        raise ValueError("ratio must lie in (0, 1)")
    if k < 1 or n < 1:
        raise ValueError("level and half-dimension must be >= 1")
    if 2 * n * k > BOUND_EXPONENT_BUDGET:
        raise ValueError(f"bound exponent 2nk = {2 * n * k} exceeds budget {BOUND_EXPONENT_BUDGET}")
    r = Fraction(4) ** n * a  # reduced, so r^k is the reduced bound
    m = max(r.numerator, r.denominator)
    digits = k * math.log10(m)
    limit = sys.get_int_max_str_digits()
    # m^k has about `digits` digits; within one of the interpreter's int/str
    # limit the exact power decides.
    if limit and (digits > limit + 1 or (digits > limit - 1 and m ** k >= 10 ** limit)):
        raise ValueError(f"level-{k} bound has about {int(digits) + 1} digits, over the printable limit of {limit}")
    return r ** k
