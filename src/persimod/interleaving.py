"""Interleaving decision, distance search, and certificates.

An (a,b)-interleaving between barcodes F and G is a pair of morphisms
u: F -> shift(G, a) and v: G -> shift(F, b) whose two round trips equal
the canonical comparison at shift a+b.  The distance gamma(F, G) is the
least achievable a+b; the symmetric variant restricts to a = b.

The decision procedure reduces existence to a bipartite matching that
must cover every bar longer than a+b on both sides (bars short enough to
die under the comparison map may go unmatched).  This is sound and
complete: a covering matching converts directly into diagonal
certificate maps, and conversely any interleaving induces such a
matching.  So every decision is either a certificate or a proof that
none exists, and every finite distance comes with a certificate at an
optimal (a, b).

Every certificate is re-verified at construction; nothing unverified is
ever returned.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .barcodes import Barcode
from .fields import GF2
from .intervals import ExtRat, POS_INF, int_pair
from .matching import matching_covering
from .morphisms import Morphism, compose, equals_tau

__all__ = [
    "InterleavingCertificate",
    "DistanceReport",
    "check_interleaving",
    "gamma",
    "gamma_symmetric",
]


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
        # v.shift(a) and u.shift(b): the checked targets are the shifted
        # sources, so only F and G shifted by a+b are built here.
        total = a + b
        v_a = v._moved(u.target, F.shift(total))
        u_b = u._moved(v.target, G.shift(total))
        if not equals_tau(compose(u, v_a), total):
            raise ValueError("round trip through G is not the canonical comparison")
        if not equals_tau(compose(v, u_b), total):
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


@dataclass(frozen=True)
class DistanceReport:
    """A distance and a verified certificate at an optimal (a, b) (None
    when the distance is infinite).  Every decision resolves, so the value
    is exact: `lower` and `upper` are `value` itself."""

    value: ExtRat
    certificate: Optional[InterleavingCertificate]

    is_exact = True
    exactness = "Exact"

    @property
    def lower(self) -> ExtRat:
        return self.value

    @property
    def upper(self) -> ExtRat:
        return self.value

    def __iter__(self):
        yield self.value
        yield self.certificate


def _infinite_mismatch(F: Barcode, G: Barcode) -> bool:
    """Per degree, the counts of left-infinite, right-infinite and
    two-sided bars must agree; an infinite bar can only ever map to a bar
    infinite on the same side."""

    def sig(b: Barcode):
        out: Dict[Tuple[int, str], int] = {}
        for bar in b.bars:
            left = bar.interval.lo.is_neg_inf
            right = bar.interval.hi.is_pos_inf
            if not (left or right):
                continue
            kind = "both" if (left and right) else ("left" if left else "right")
            key = (bar.degree, kind)
            out[key] = out.get(key, 0) + 1
        return out

    return sig(F) != sig(G)


def _int_bars(barcodes: Sequence[Barcode], shifts: Sequence[Fraction] = ()):
    """Scale one problem to Python ints.

    Returns the common denominator D of every finite endpoint and every
    shift, and per barcode its bars as (degree, lo*D, hi*D); None stands
    for an infinite endpoint.  Differences and lengths of endpoints share
    the denominator D, so the whole search runs on exact ints.
    """
    pairs = [[(bar.degree, int_pair(bar.interval.lo), int_pair(bar.interval.hi)) for bar in bc.bars] for bc in barcodes]
    dens = {s.denominator for s in shifts}
    dens.update(p[1] for bars in pairs for _, lo, hi in bars for p in (lo, hi) if p)
    scale = lcm(*dens)
    # `lo and ...` keeps an infinite endpoint's None
    return scale, [
        [(deg, lo and lo[0] * (scale // lo[1]), hi and hi[0] * (scale // hi[1])) for deg, lo, hi in bars]
        for bars in pairs
    ]


def _int_grid(F: Barcode, G: Barcode) -> Tuple[int, List[int], List[int]]:
    """Scale D, the sorted endpoint differences (0 included) and the sorted
    finite bar lengths of F and G, the last two as ints in units of 1/D."""
    scale, bars = _int_bars((F, G))
    pts = sorted({x for rows in bars for _, lo, hi in rows for x in (lo, hi) if x is not None})
    diffs = {0}
    for i, x in enumerate(pts):
        diffs.update(y - x for y in pts[i + 1:])
    lengths = {hi - lo for rows in bars for _, lo, hi in rows if lo is not None and hi is not None}
    return scale, sorted(diffs), sorted(lengths)


def _matching_entries(F: Barcode, G: Barcode, a: Fraction, b: Fraction):
    """Find a covering matching and convert it to entry dictionaries for
    (u, v), or return None when no interleaving exists.

    Bars i of F and j of G may pair when hom(F_i, G_j + a) and
    hom(G_j, F_i + b) are both DEG0, i.e. when
    flo <= glo+a < fhi <= ghi+a and glo <= flo+b < ghi <= fhi+b.  All of it
    runs on the scaled ints of `_int_bars`; an infinite endpoint becomes
    -inf or +inf, ints beyond every finite value plus a+b, which keeps each
    inequality exact (a float infinity would overflow on huge ints).  In
    ints this is glo in [flo-a, min(fhi-a-1, flo+b)] and ghi in [max(fhi-a,
    flo+b+1), fhi+b]; G's bars of a degree are sorted by lo, so the first is
    an index window of two bisects and each row comes out increasing.
    """
    scale, (fb, gb) = _int_bars((F, G), (a, b))
    a = a.numerator * (scale // a.denominator)
    b = b.numerator * (scale // b.denominator)
    total = a + b
    big = max((abs(x) for rows in (fb, gb) for _, lo, hi in rows for x in (lo, hi) if x is not None), default=0)
    inf = big + total + 1

    def by_degree(rows):
        out: Dict[int, List[Tuple[int, int, int]]] = {}
        for idx, (deg, lo, hi) in enumerate(rows):
            out.setdefault(deg, []).append((idx, -inf if lo is None else lo, inf if hi is None else hi))
        return out

    fd, gd = by_degree(fb), by_degree(gb)
    u_entries: Dict[Tuple[int, int], int] = {}
    v_entries: Dict[Tuple[int, int], int] = {}
    for deg in sorted(set(fd) | set(gd)):
        f_bars = fd.get(deg, [])
        g_bars = gd.get(deg, [])
        g_lo = [lo for _, lo, _ in g_bars]
        g_hi = [hi for _, _, hi in g_bars]
        adj: List[List[int]] = []
        for _, flo, fhi in f_bars:
            # top = min(x-1, y), hi_min = max(x, y+1), without two builtin calls
            x, y, hi_max = fhi - a, flo + b, fhi + b
            top, hi_min = (x - 1, y + 1) if x <= y else (y, x)
            window = range(bisect_left(g_lo, flo - a), bisect_right(g_lo, top))
            adj.append([j for j in window if hi_min <= g_hi[j] <= hi_max])
        req_l = [i for i, (_, lo, hi) in enumerate(f_bars) if hi - lo > total]
        req_r = [j for j, (_, lo, hi) in enumerate(g_bars) if hi - lo > total]
        m = matching_covering(len(f_bars), len(g_bars), adj, req_l, req_r)
        if m is None:
            return None
        for i, j in m.items():
            u_entries[(g_bars[j][0], f_bars[i][0])] = 1
            v_entries[(f_bars[i][0], g_bars[j][0])] = 1
    return u_entries, v_entries


def check_interleaving(F: Barcode, G: Barcode, a, b, *, field=GF2) -> Optional[InterleavingCertificate]:
    """Decide whether an (a,b)-interleaving between F and G exists.

    Returns a verified certificate, or None when no interleaving exists.
    """
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0:
        raise ValueError("interleaving shifts must be nonnegative")
    found = _matching_entries(F, G, a, b)
    if found is None:
        return None
    u_entries, v_entries = found
    u = Morphism(F, G.shift(a), u_entries, field)
    v = Morphism(G, F.shift(b), v_entries, field)
    return InterleavingCertificate(a, b, u, v)


def _min_feasible(candidates: Sequence[int], feasible) -> Optional[int]:
    """Least candidate accepted by `feasible`, assuming monotone feasibility."""
    if not candidates or not feasible(candidates[-1]):
        return None
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def _least_total(F: Barcode, G: Barcode, decide) -> Tuple[ExtRat, Optional[Tuple[Fraction, Fraction]]]:
    """Minimal a+b accepted by `decide(a, b)`, plus an optimal pair.

    Feasibility is upward closed in (a, b), so for a fixed coordinate the
    other one is binary-searched.  The scan walks the grid of endpoint
    differences for one coordinate; bar lengths enter as a+b thresholds, so
    length-minus-coordinate values complete the candidate set.  Both
    orientations are scanned: either coordinate of an optimal pair may be
    the gridded one.  The grid is taken over all degrees at once, so it
    holds every corner of the intersected per-degree staircases.  Grid,
    lengths and candidates are ints in units of 1/D (see `_int_grid`); only
    the probed points are turned back into Fractions for `decide`.
    """
    if not len(F) and not len(G):
        return ExtRat(0), (Fraction(0), Fraction(0))
    if _infinite_mismatch(F, G):
        return POS_INF, None
    scale, diffs, lengths = _int_grid(F, G)
    diff_set = set(diffs)
    cache: Dict[Tuple[int, int], bool] = {}

    def cached(a: int, b: int) -> bool:
        key = (a, b)
        if key not in cache:
            cache[key] = decide(Fraction(a, scale), Fraction(b, scale))
        return cache[key]

    best: Optional[int] = None
    best_pair: Optional[Tuple[int, int]] = None

    def partner_candidates(x: int) -> List[int]:
        head = diffs if best is None else diffs[:bisect_left(diffs, best - x)]
        extra = {ln - x for ln in lengths[bisect_right(lengths, x):]} - diff_set
        if best is not None:
            extra = {v for v in extra if v < best - x}
        return sorted(head + list(extra)) if extra else head

    for x in diffs:
        if best is not None and x >= best:
            break
        cands = partner_candidates(x)
        got = _min_feasible(cands, lambda t: cached(x, t))
        if got is not None and (best is None or x + got < best):
            best, best_pair = x + got, (x, got)
        cands = partner_candidates(x)
        got = _min_feasible(cands, lambda t: cached(t, x))
        if got is not None and (best is None or x + got < best):
            best, best_pair = x + got, (got, x)

    if best is None:
        return POS_INF, None
    return ExtRat(Fraction(best, scale)), (Fraction(best_pair[0], scale), Fraction(best_pair[1], scale))


def gamma(F: Barcode, G: Barcode, *, field=GF2) -> DistanceReport:
    """Least interleaving cost a+b, with a verified certificate at an
    optimal (a, b).  A graded pair is searched as one problem: a single
    (a, b) must interleave every degree at once."""
    value, pair = _least_total(F, G, lambda a, b: check_interleaving(F, G, a, b, field=field) is not None)
    if pair is None:
        return DistanceReport(POS_INF, None)
    return DistanceReport(value, check_interleaving(F, G, *pair, field=field))


def gamma_symmetric(F: Barcode, G: Barcode, *, field=GF2) -> DistanceReport:
    """Least 2c such that a (c, c)-interleaving exists."""
    if _infinite_mismatch(F, G):
        return DistanceReport(POS_INF, None)
    # Candidates c are ints in units of 1/D; a probe at c/2 is c/(2D).
    scale, diffs, _ = _int_grid(F, G)
    cands = sorted(set(diffs) | {2 * d for d in diffs})

    def feasible(c: int) -> bool:
        half = Fraction(c, 2 * scale)
        return check_interleaving(F, G, half, half, field=field) is not None

    got = _min_feasible(cands, feasible)
    if got is None:
        return DistanceReport(POS_INF, None)
    total = Fraction(got, scale)
    value = ExtRat(total)
    return DistanceReport(value, check_interleaving(F, G, total / 2, total / 2, field=field))
