"""Interleaving decision and distance search.

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
optimal (a, b), checked by `morphisms.InterleavingCertificate` alone.

Each problem (F, G) is scaled to ints once: one private view holds the
scaled bars of every degree and probes them through one adjacency
builder, and a public `check_interleaving` call builds a one-shot view of
its own and scales its shifts into it.  Probes stay in the view's units:
`gamma`'s probes hand `check_interleaving` int pairs, so each "yes" is a
certificate and shifts become Fractions only for it, and a line of its
scan whose top candidate fails costs that one probe and no candidate
list; `gamma_symmetric` bisects ints with no grid, its probes only
decide, greedy-started from the last probe's matchings, and its one
certificate is built at the optimum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .barcodes import Barcode
from .fields import GF2
from .intervals import ExtRat, POS_INF, int_pair
from .matching import matching_covering, saturate
from .morphisms import InterleavingCertificate, Morphism

__all__ = [
    "DistanceReport",
    "check_interleaving",
    "gamma",
    "gamma_symmetric",
]


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


def _rows(a: int, b: int, los: Sequence[int], his: Sequence[int], o_lo: Sequence[int], o_hi: Sequence[int]) -> List[List[int]]:
    """Rows of bars (los, his) of F against classes (o_lo, o_hi) of G at (a, b),
    or with b, a and the sides swapped, of G against F.  Bars x, y pair when
    hom(F_x, G_y + a) and hom(G_y, F_x + b) are DEG0: xlo <= ylo+a < xhi <=
    yhi+a and ylo <= xlo+b < yhi <= xhi+b.  So yhi is in [max(xhi-a, xlo+b+1),
    xhi+b] and ylo in [xlo-a, min(xhi-a-1, xlo+b)], a window of two bisects."""
    rows = []
    for lo, hi in zip(los, his):
        # top = min(x-1, y), hi_min = max(x, y+1), without two builtin calls
        x, y, hi_max = hi - a, lo + b, hi + b
        top, hi_min = (x - 1, y + 1) if x <= y else (y, x)
        rows.append(row := [])  # not a comprehension, which builds a function per row
        j, end = bisect_left(o_lo, lo - a), bisect_right(o_lo, top)
        while j < end:
            if hi_min <= o_hi[j] <= hi_max:
                row.append(j)
            j += 1
    return rows


class _IntView:
    """One (F, G) problem scaled to Python ints once, then probed many times.

    `scale` is `unit` times the common denominator of every finite endpoint
    and every shift in `shifts`; endpoints, lengths and probed shifts are
    ints in units of 1/scale, so the whole search runs on exact ints.  An
    infinite endpoint becomes -inf or +inf: ints beyond every finite
    endpoint by more than `reach`, which keeps each inequality of `entries`
    exact for a + b <= reach (a float infinity would overflow on huge ints).
    `reach` covers the distance grid, at most twice the endpoint span per
    coordinate, plus the given shifts.

    Per degree, in increasing order, `degrees` holds one side per barcode
    and the capacities of both sides.  Equal bars are adjacent in a sorted
    barcode, and each stretch of them is one class: a side is the index
    range of its bars of that degree, then the lo ends, hi ends, lengths
    and copy counts of its classes, in order, so the lo ends increase.  The
    capacities are the two sides' copy counts, or None when no class of
    the degree has a second copy.  Endpoints are read and scaled once per
    run (see `barcodes`), and classes are formed from the runs.
    """

    __slots__ = ("scale", "reach", "inf", "degrees")

    def __init__(self, F: Barcode, G: Barcode, shifts: Sequence[Fraction] = (), unit: int = 1):
        cols = []
        for bars in (F.bars, G.bars):
            # per run: its degree, int pairs and first index; then the end
            degs, los, his, at, iv, deg = [], [], [], [], None, None
            for k, bar in enumerate(bars):
                if bar.interval is not iv or bar.degree != deg:
                    iv, deg = bar.interval, bar.degree
                    degs.append(deg)
                    los.append(int_pair(iv.lo))
                    his.append(int_pair(iv.hi))
                    at.append(k)
            cols.append((degs, los, his, at + [len(bars)]))
        dens = {s.denominator for s in shifts}
        dens.update(p[1] for _, los, his, _ in cols for ends in (los, his) for p in ends if p)
        scale = unit * lcm(*dens)
        # `p and ...` keeps an infinite endpoint's None
        cols = [
            (degs, [p and p[0] * (scale // p[1]) for p in los], [p and p[0] * (scale // p[1]) for p in his], at)
            for degs, los, his, at in cols
        ]
        big = max((abs(x) for _, los, his, _ in cols for ends in (los, his) for x in ends if x is not None), default=0)
        self.scale = scale
        self.reach = 4 * big + sum(s.numerator * (scale // s.denominator) for s in shifts)
        self.inf = inf = big + self.reach + 1
        fd, gd = sides = ({}, {})
        for by_degree, (degs, los, his, at) in zip(sides, cols):
            los = [-inf if x is None else x for x in los]
            his = [inf if x is None else x for x in his]
            # bars are sorted by degree first, so a degree's runs are
            # consecutive, and equal bars are adjacent
            for deg in set(degs):
                i, j = bisect_left(degs, deg), bisect_right(degs, deg)
                starts = [k for k in range(i, j) if k == i or los[k] != los[k - 1] or his[k] != his[k - 1]]
                c_lo, c_hi = [los[k] for k in starts], [his[k] for k in starts]
                counts = [at[e] - at[k] for k, e in zip(starts, starts[1:] + [j])]
                by_degree[deg] = (range(at[i], at[j]), c_lo, c_hi, [hi - lo for lo, hi in zip(c_lo, c_hi)], counts)
        empty = (range(0), [], [], [], [])
        self.degrees = []
        for deg in sorted(set(fd) | set(gd)):
            f, g = fd.get(deg, empty), gd.get(deg, empty)
            caps = None if len(f[0]) == len(f[1]) and len(g[0]) == len(g[1]) else (f[4], g[4])
            self.degrees.append((f, g, caps))

    def endpoints(self) -> List[int]:
        """The sorted distinct finite endpoints of F and G."""
        return sorted({x for *sides, _ in self.degrees for side in sides for ends in side[1:3] for x in ends if abs(x) < self.inf})

    def grid(self) -> Tuple[List[int], List[int]]:
        """The sorted endpoint differences (0 included) and the sorted finite
        bar lengths of F and G."""
        inf = self.inf
        bars = [bar for *sides, _ in self.degrees for _, los, his, _, _ in sides for bar in zip(los, his)]
        pts = self.endpoints()
        diffs = {0}
        for i, x in enumerate(pts):
            diffs.update(y - x for y in pts[i + 1:])
        return sorted(diffs), sorted({hi - lo for lo, hi in bars if -inf < lo and hi < inf})

    def infinite_mismatch(self) -> bool:
        """Whether some degree holds different infinite bars in F and G.  An
        infinite bar can only ever map to a bar infinite on the same side, so
        per degree the copies of each (left-infinite, right-infinite) kind of
        infinite bar must agree in number."""
        inf = self.inf

        def kinds(side):
            out = Counter()
            for lo, hi, n in zip(side[1], side[2], side[4]):
                if lo == -inf or hi == inf:
                    out[lo == -inf, hi == inf] += n
            return out

        return any(kinds(f) != kinds(g) for f, g, _ in self.degrees)

    def decides(self, a: int, b: int, warm: Dict) -> bool:
        """Whether `entries(a, b)` finds a covering matching: by Mendelsohn-
        Dulmage, whether each side's required classes saturate on their own.
        `saturate` starts from the last probe's matching in `warm`, cut to
        this probe's rows; it matches only required classes, so its greedy
        start keeps the answer."""
        sides = []
        for d, (f, g, caps) in enumerate(self.degrees):
            for side, (s, t, (_, x_lo, x_hi, x_len, x_cnt), (_, y_lo, y_hi, _, y_cnt)) in enumerate(((a, b, f, g), (b, a, g, f))):
                req = [i for i, ln in enumerate(x_len) if ln > a + b]
                adj = dict(zip(req, _rows(s, t, [x_lo[i] for i in req], [x_hi[i] for i in req], y_lo, y_hi)))
                if not all(adj.values()):
                    return False
                old = warm.get((d, side), {}).items()  # keep the edges that are still rows of adj
                warm[d, side] = m = (
                    {v: u for v, u in old if v in adj.get(u, ())} if caps is None
                    else {v: k for v, h in old if (k := {u: n for u, n in h.items() if v in adj.get(u, ())})}
                )
                sides.append((req, adj, m, adj, caps and (x_cnt, y_cnt)))
        return all(saturate(*side) for side in sides)

    def entries(self, a: int, b: int):
        """Find a covering matching at the shifts (a, b), ints in this view's
        units with a + b <= reach, and convert it to entry dictionaries for
        (u, v); None when no interleaving exists.

        Rows (`_rows`) join classes of equal bars.  A bar longer than a+b
        must be matched, and repeated bars are matched with capacities, so
        the copies of a class are paired in index order.
        """
        total = a + b
        u_entries: Dict[Tuple[int, int], int] = {}
        v_entries: Dict[Tuple[int, int], int] = {}
        for (f_idx, f_lo, f_hi, f_len, _), (g_idx, g_lo, g_hi, g_len, _), caps in self.degrees:
            adj = _rows(a, b, f_lo, f_hi, g_lo, g_hi)
            req_l = [i for i, ln in enumerate(f_len) if ln > total]
            req_r = [j for j, ln in enumerate(g_len) if ln > total]
            m = matching_covering(len(f_lo), len(g_lo), adj, req_l, req_r, caps)
            if m is None:
                return None
            for i, j in m.items():
                s, t = f_idx[i], g_idx[j]
                u_entries[t, s] = v_entries[s, t] = 1
        return u_entries, v_entries


def check_interleaving(F: Barcode, G: Barcode, a, b, *, field=GF2, _view: Optional[_IntView] = None) -> Optional[InterleavingCertificate]:
    """Decide whether an (a,b)-interleaving between F and G exists.

    Returns a verified certificate, or None when no interleaving exists.
    """
    if _view is None:
        a, b = Fraction(a), Fraction(b)
        if a < 0 or b < 0:
            raise ValueError("interleaving shifts must be nonnegative")
        # a view built with the shifts has a scale they divide and a reach
        # that covers a + b
        view = _IntView(F, G, (a, b))
        s = view.scale
        a, b = a.numerator * (s // a.denominator), b.numerator * (s // b.denominator)
    elif a < 0 or b < 0 or a + b > _view.reach:
        # A distance search probes the one view of its (F, G) with ints in
        # the view's units.
        raise ValueError("probe shifts must be nonnegative ints with a + b within the view's reach")
    else:
        view = _view
    found = view.entries(a, b)
    if found is None:
        return None
    # shifts become Fractions only for a certificate
    a, b = Fraction(a, view.scale), Fraction(b, view.scale)
    u = Morphism(F, G.shift(a), found[0], field)
    v = Morphism(G, F.shift(b), found[1], field)
    return InterleavingCertificate(a, b, u, v)


def _min_feasible(candidates: Sequence[int], feasible) -> Optional[int]:
    """Least candidate accepted by `feasible`, assuming monotone feasibility;
    the top candidate is tried first."""
    lo, hi, k = 0, len(candidates), len(candidates) - 1
    while lo < hi:
        lo, hi = (lo, k) if feasible(candidates[k]) else (k + 1, hi)
        k = (lo + hi) // 2
    return candidates[lo] if lo < len(candidates) else None


def _least_total(F: Barcode, G: Barcode, field, view: _IntView) -> Optional[Tuple[int, int]]:
    """An optimal (a, b), the least a+b at which `check_interleaving` finds
    an (a, b)-interleaving of F and G on `view`, or None when no point of
    the grid is accepted.

    Feasibility is upward closed in (a, b), so for a fixed coordinate the
    other one is binary-searched.  The scan walks the grid of endpoint
    differences for one coordinate; bar lengths enter as a+b thresholds, so
    length-minus-coordinate values complete the candidate set.  Both
    orientations are scanned: either coordinate of an optimal pair may be
    the gridded one.  The grid is taken over all degrees at once, so it
    holds every corner of the intersected per-degree staircases.  A line's
    top candidate comes from two bisects and is probed first; only where
    it interleaves is the line's candidate list built and bisected, so a
    line whose top candidate fails costs one probe and no list.  Grid,
    lengths, candidates and the pair are ints in the units of the view.
    """
    if not view.degrees:
        return 0, 0
    diffs, lengths = view.grid()
    diff_set = set(diffs)
    feasible: Dict[Tuple[int, int], bool] = {}
    best: Optional[int] = None
    best_pair: Optional[Tuple[int, int]] = None

    def partner_candidates(x: int) -> List[int]:
        # lengths are distinct and sorted, so ln - x < best - x reads ln < best
        head = diffs if best is None else diffs[:bisect_left(diffs, best - x)]
        top = None if best is None else bisect_left(lengths, best)
        extra = [ln - x for ln in lengths[bisect_right(lengths, x):top] if ln - x not in diff_set]
        return sorted(head + extra) if extra else head

    def probe(a: int, b: int) -> bool:
        if (a, b) not in feasible:
            feasible[a, b] = check_interleaving(F, G, a, b, field=field, _view=view) is not None
        return feasible[a, b]

    for x in diffs:
        if best is not None and x >= best:
            break
        for swap in (False, True):
            # max(partner_candidates(x)) by two bisects: a length ln - x that
            # is a grid difference lies below best - x, so the head holds it
            i, j = (len(diffs), len(lengths)) if best is None else (bisect_left(diffs, best - x), bisect_left(lengths, best))
            if not i:
                break  # best fell to x: no candidate is left, and 0 heads the grid
            top = max(diffs[i - 1], lengths[j - 1] - x) if j else diffs[i - 1]
            if not (probe(top, x) if swap else probe(x, top)):
                continue  # the line costs one probe and no list
            # every candidate lies below best - x, and the top one is a memo hit
            got = _min_feasible(partner_candidates(x), (lambda t: probe(t, x)) if swap else (lambda t: probe(x, t)))
            best, best_pair = x + got, ((got, x) if swap else (x, got))
    return best_pair


def gamma(F: Barcode, G: Barcode, *, field=GF2) -> DistanceReport:
    """Least interleaving cost a+b, with a verified certificate at an
    optimal (a, b).  A graded pair is searched as one problem: a single
    (a, b) must interleave every degree at once.  One scaled view of
    (F, G) serves every probe."""
    view = _IntView(F, G)
    if view.infinite_mismatch():
        return DistanceReport(POS_INF, None)
    # With no infinite mismatch (D, D) interleaves, D the top grid
    # difference: no finite bar is longer than D, and infinite bars of one
    # kind pair across.  So the search finds a pair.
    cert = check_interleaving(F, G, *_least_total(F, G, field, view), field=field, _view=view)
    return DistanceReport(ExtRat(cert.total), cert)


def _candidates(pts: Sequence[int], lo: int, hi: int, limit: int) -> Optional[List[int]]:
    """The sorted candidates for c strictly between lo and hi: 0, and the
    differences of the sorted even ints `pts` and their halves; None once
    over `limit` are seen, a pair's difference and half counted apart."""
    zero = {0} if lo < 0 < hi else set()
    runs, seen = [], len(zero)
    for k, x in enumerate(pts):
        for s in (1, 2):  # two bisects bound the y with lo < (y - x) / s < hi
            i = bisect_right(pts, x + s * lo, k + 1)
            runs.append((x, s, i, bisect_left(pts, x + s * hi, i)))
            seen += runs[-1][3] - i
            if seen > limit:
                return None
    return None if seen > limit else sorted(zero.union((pts[k] - x) // s for x, s, i, j in runs for k in range(i, j)))


def gamma_symmetric(F: Barcode, G: Barcode, *, field=GF2) -> DistanceReport:
    """Least 2c such that a (c, c)-interleaving exists.

    At twice the common denominator every candidate for c (0, an endpoint
    difference or half of one) is an int, and feasibility is monotone, so c
    is the least feasible int, bisected on (lo, hi] from (-1, the top
    difference] (see `gamma`): ints are halved, counted while they span over
    2 * m.bit_length() bits, m the finite endpoints, and the candidates left
    inside are listed and bisected once at most m.  Memory is O(m); probes
    only decide, and the certificate is built and re-verified at the optimum."""
    view = _IntView(F, G, unit=2)
    if view.infinite_mismatch():
        return DistanceReport(POS_INF, None)
    pts, warm = view.endpoints(), {}  # even: every endpoint is a multiple of 2
    lo, hi = -1, pts[-1] - pts[0] if pts else 0
    while hi - lo > 1:
        if (hi - lo).bit_length() > 2 * len(pts).bit_length() and (cands := _candidates(pts, lo, hi, len(pts))) is not None:
            got = _min_feasible(cands, lambda c: view.decides(c, c, warm))
            hi = hi if got is None else got
            break
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if view.decides(mid, mid, warm) else (mid, hi)
    cert = check_interleaving(F, G, hi, hi, field=field, _view=view)
    return DistanceReport(ExtRat(cert.total), cert)
