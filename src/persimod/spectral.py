"""Sublevel-set persistence of piecewise-linear functions and the min/max
spectral numbers read off a barcode's essential bars.

Two conventions coexist: homological reports have left-infinite essential
bars (and the lower spectral number lives in degree -1), sublevel reports
have right-infinite ones.  `left_infinite_form` converts sublevel output
into the homological convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .barcodes import Bar, Barcode
from .intervals import ExtRat, Interval, NEG_INF, POS_INF

__all__ = [
    "PLFunction",
    "SpectralReport",
    "sublevel_barcode",
    "spectral_invariants",
    "left_infinite_form",
]


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function given by samples at sorted breakpoints.

    domain "interval": linear between consecutive breakpoints.
    domain "circle": the last sample additionally connects back to the
    first, so the breakpoint list reads out one full turn.
    """

    domain: str
    breakpoints: Tuple[Fraction, ...]
    values: Tuple[Fraction, ...]

    def __init__(self, domain, breakpoints, values):
        if domain not in ("interval", "circle"):
            raise ValueError(f"unknown domain {domain!r}")
        # Values parsed from a file are Fractions already; build no copy.
        bps = tuple(b if type(b) is Fraction else Fraction(b) for b in breakpoints)
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values differ in length")
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        # Compared as int pairs: a Fraction comparison costs several calls.
        pairs = [(b.numerator, b.denominator) for b in bps]
        if any(n * e >= m * d for (n, d), (m, e) in zip(pairs, pairs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)


def _approx(n: int, d: int) -> float:
    """n / d correctly rounded, or an infinity of its sign past the float
    range; either way monotone in n / d."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def sublevel_barcode(f: PLFunction) -> Barcode:
    """Sublevel-set persistence of a PL function on an interval or circle.

    Degree-0 bars come from the merge tree (elder rule: on a tie the lower
    sample index survives); the essential degree-0 bar is [min f, +inf).
    On the circle the cycle closes at the last edge in filtration order,
    contributing an essential degree-1 bar at that value -- which is the
    global maximum.  Zero-length bars are dropped.
    """
    m = len(f.values)
    # Dense ranks keep the order and the ties of the values, so the merge
    # runs on ints.  A level is keyed by its reduced int pair, which hashes
    # faster than a Fraction; each distinct level keeps one Fraction for
    # the sort and one ExtRat for the bar endpoints.  The sort compares
    # float approximations, which are monotone, and the exact Fractions
    # only where two approximations are equal.
    keys = [(v.numerator, v.denominator) for v in f.values]
    levels = dict(zip(keys, f.values))
    approx = [_approx(n, d) for n, d in levels]
    order = [key for _, _, key in sorted(zip(approx, levels.values(), levels))]
    rank = {key: k for k, key in enumerate(order)}
    r = list(map(rank.__getitem__, keys))
    edges = [(i, i + 1) for i in range(m - 1)]
    if f.domain == "circle":
        edges.append((m - 1, 0))

    # birth[v] = rank * m + index: int order is the lexicographic order of
    # (value, index), which encodes the elder rule.
    birth = [r[v] * m + v for v in range(m)]
    parent = list(range(m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # Bars as (degree, lo rank, hi rank) with +inf as rank len(order): int
    # order is the (degree, lo, hi) order of the barcode.
    inf = len(order)
    bars = []
    # `edges` is in lexicographic order and the sort is stable, so equal
    # levels keep that order.
    edge_level = [max(r[i], r[j]) for i, j in edges]
    for e in sorted(range(len(edges)), key=edge_level.__getitem__):
        i, j = edges[e]
        level = edge_level[e]
        ri, rj = find(i), find(j)
        if ri == rj:
            # cycle-closing edge: only the circle has one
            bars.append((1, level, inf))
            continue
        elder, younger = (ri, rj) if birth[ri] <= birth[rj] else (rj, ri)
        died = birth[younger] // m
        if died < level:
            bars.append((0, died, level))
        parent[younger] = elder

    # The path and the circle are connected: one root is left.
    bars.append((0, birth[find(0)] // m, inf))
    bars.sort()
    # Sorted, equal triples are adjacent: each distinct bar is built and
    # validated once, and its repeats share it.
    ends = [ExtRat._pair(n, d) for n, d in order] + [POS_INF]
    out, last, bar = [], None, None
    for t in bars:
        if t != last:
            last, bar = t, Bar(t[0], Interval(ends[t[1]], ends[t[2]]))
        out.append(bar)
    return Barcode._from_sorted(tuple(out))


@dataclass(frozen=True)
class SpectralReport:
    """Essential-endpoint spectrum of a barcode with its extremal values."""

    invariants: Tuple[Tuple[int, ExtRat], ...]
    c_minus: Fraction
    c_plus: Fraction

    @property
    def gamma(self) -> Fraction:
        return self.c_plus - self.c_minus


def _unique_essential(bars, degree, what):
    found = [b for b in bars if b.degree == degree]
    if len(found) != 1:
        raise ValueError(
            f"expected exactly one essential bar in degree {degree} ({what}), "
            f"found {len(found)}"
        )
    return found[0]


def spectral_invariants(b: Barcode, convention: str, dim_n: int) -> SpectralReport:
    """Locate the extremal essential bars by degree and report c- <= c+.

    convention "LeftInfinite": essential bars look like [-inf, c); the
    lower number sits in degree -1 and the upper in degree dim_n - 1, read
    at the finite right endpoint.  convention "Sublevel": essential bars
    look like [c, +inf); degree 0 carries the lower number and degree
    dim_n the upper, read at the left endpoint.
    """
    if convention == "LeftInfinite":
        essential = [x for x in b.bars if x.interval.lo == NEG_INF]
        deg_lo, deg_hi = -1, dim_n - 1
        read = lambda bar: bar.interval.hi
    elif convention == "Sublevel":
        essential = [x for x in b.bars if x.interval.hi == POS_INF]
        deg_lo, deg_hi = 0, dim_n
        read = lambda bar: bar.interval.lo
    else:
        raise ValueError(f"unknown convention {convention!r}")

    low = _unique_essential(essential, deg_lo, "lower spectral number")
    high = low if deg_hi == deg_lo else _unique_essential(essential, deg_hi, "upper spectral number")
    c_minus, c_plus = read(low), read(high)
    if not (c_minus.is_finite and c_plus.is_finite):
        raise ValueError("spectral numbers must be finite")
    c_minus, c_plus = c_minus.as_fraction(), c_plus.as_fraction()
    if c_minus > c_plus:
        raise ValueError(f"lower spectral number {c_minus} exceeds upper {c_plus}")
    invariants = tuple(sorted((x.degree, read(x)) for x in essential))
    return SpectralReport(invariants, c_minus, c_plus)


def left_infinite_form(b: Barcode) -> Barcode:
    """Convert a sublevel barcode to the homological convention: each
    right-infinite bar (d, [a, +inf)) becomes (d-1, [-inf, a)); finite
    bars are untouched."""
    out = []
    for bar in b.bars:
        if bar.interval.hi == POS_INF:
            out.append(Bar(bar.degree - 1, Interval(NEG_INF, bar.interval.lo)))
        else:
            out.append(bar)
    return Barcode(out)
