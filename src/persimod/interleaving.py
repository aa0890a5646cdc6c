"""Interleaving decision, distance search, and certificates.

An (a,b)-interleaving between barcodes F and G is a pair of morphisms
u: F -> shift(G, a) and v: G -> shift(F, b) whose two round trips equal
the canonical comparison at shift a+b.  The distance gamma(F, G) is the
least achievable a+b; the symmetric variant restricts to a = b.

The default decision procedure reduces existence to a bipartite matching
that must cover every bar longer than a+b on both sides (bars short
enough to die under the comparison map may go unmatched).  This is sound
and complete: a covering matching converts directly into diagonal
certificate maps, and conversely any interleaving induces such a
matching.  An exhaustive search over entry assignments is kept alongside
as a cross-check; it is budgeted and may answer UNKNOWN.

Every certificate is re-verified at construction; nothing unverified is
ever returned.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .barcodes import Bar, Barcode
from .fields import GF2
from .intervals import DEG0, ExtRat, POS_INF, endpoint_absdiff, hom
from .matching import matching_covering
from .morphisms import Morphism, compose, equals_tau
from . import fields as _fields

__all__ = [
    "UNKNOWN",
    "DEFAULT_BUDGET",
    "InterleavingCertificate",
    "DistanceReport",
    "check_interleaving",
    "gamma",
    "gamma_symmetric",
    "matching_witness",
]

DEFAULT_BUDGET = 2 ** 20


class _UnknownType:
    """Budget-exceeded sentinel; falsy so `if cert:` reads naturally."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        return False

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _UnknownType()


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
        if u.target != G.shift(a):
            raise ValueError("u must land in the a-shift of G")
        if v.target != F.shift(b):
            raise ValueError("v must land in the b-shift of F")
        if not equals_tau(compose(u, v.shift(a)), a + b):
            raise ValueError("round trip through G is not the canonical comparison")
        if not equals_tau(compose(v, u.shift(b)), a + b):
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
    value: ExtRat
    lower: ExtRat
    upper: ExtRat
    certificate: Optional[InterleavingCertificate]

    @property
    def is_exact(self) -> bool:
        return self.lower == self.value == self.upper

    @property
    def exactness(self) -> str:
        return "Exact" if self.is_exact else "Bracket"

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


def _as_int(e: ExtRat, scale: int) -> Optional[int]:
    """Finite e times `scale` (a multiple of its denominator), None if infinite."""
    if not e.is_finite:
        return None
    q = e.as_fraction()
    return q.numerator * (scale // q.denominator)


def _int_bars(barcodes: Sequence[Barcode], shifts: Sequence[Fraction] = ()):
    """Scale one problem to Python ints.

    Returns the common denominator D of every finite endpoint and every
    shift, and per barcode its bars as (degree, lo*D, hi*D); None stands
    for an infinite endpoint.  Differences and lengths of endpoints share
    the denominator D, so the whole search runs on exact ints.
    """
    dens = {s.denominator for s in shifts}
    for bc in barcodes:
        for bar in bc.bars:
            for e in (bar.interval.lo, bar.interval.hi):
                if e.is_finite:
                    dens.add(e.as_fraction().denominator)
    scale = lcm(*dens)
    return scale, [
        [(bar.degree, _as_int(bar.interval.lo, scale), _as_int(bar.interval.hi, scale)) for bar in bc.bars]
        for bc in barcodes
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
    inequality exact (a float infinity would overflow on huge ints).
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
        g_ends = [(glo, ghi, glo + a, ghi + a) for _, glo, ghi in g_bars]
        adj: List[List[int]] = []
        for _, flo, fhi in f_bars:
            flo_b, fhi_b = flo + b, fhi + b
            adj.append([
                j
                for j, (glo, ghi, glo_a, ghi_a) in enumerate(g_ends)
                if flo <= glo_a < fhi <= ghi_a and glo <= flo_b < ghi <= fhi_b
            ])
        req_l = [i for i, (_, lo, hi) in enumerate(f_bars) if hi - lo > total]
        req_r = [j for j, (_, lo, hi) in enumerate(g_bars) if hi - lo > total]
        m = matching_covering(len(f_bars), len(g_bars), adj, req_l, req_r)
        if m is None:
            return None
        for i, j in m.items():
            u_entries[(g_bars[j][0], f_bars[i][0])] = 1
            v_entries[(f_bars[i][0], g_bars[j][0])] = 1
    return u_entries, v_entries


def _matching_certificate(F, G, a, b, field) -> Optional[InterleavingCertificate]:
    found = _matching_entries(F, G, a, b)
    if found is None:
        return None
    u_entries, v_entries = found
    u = Morphism(F, G.shift(a), u_entries, field)
    v = Morphism(G, F.shift(b), v_entries, field)
    return InterleavingCertificate(a, b, u, v)


def _allowed_cells(F: Barcode, G: Barcode, a: Fraction):
    """Cells of a morphism F -> shift(G, a) that can hold a nonzero entry."""
    cells = []
    for i, fbar in enumerate(F.bars):
        for j, gbar in enumerate(G.bars):
            if fbar.degree == gbar.degree and hom(fbar.interval, gbar.interval.shift(a)) is DEG0:
                cells.append((j, i))
    return cells


def _solve_partner(F, G, a, b, u: Morphism, field) -> Optional[Morphism]:
    """Solve for v: G -> shift(F, b) making (u, v) an interleaving; the two
    round-trip equations are linear in the entries of v."""
    total = a + b
    cells = _allowed_cells(G, F, b)  # (i, j): row i of shift(F,b), column j of G
    pos = {c: k for k, c in enumerate(cells)}
    rows: List[List] = []
    rhs: List = []
    one, zero = field.one, field.zero
    # Round trip on F: sum_j v[(i',j)] u[(j,i)] must match tau at every
    # realizable cell (i', i).
    for i, fbar in enumerate(F.bars):
        for ip, fbar2 in enumerate(F.bars):
            if fbar.degree != fbar2.degree:
                continue
            if hom(fbar.interval, fbar2.interval.shift(total)) is not DEG0:
                continue
            row = [zero] * len(cells)
            hit = False
            for (j, i_src), coef in u.entries.items():
                if i_src != i:
                    continue
                k = pos.get((ip, j))
                if k is not None:
                    row[k] = field.add(row[k], coef)
                    hit = True
            want = one if (ip == i and fbar.interval.length > total) else zero
            if hit or want != zero:
                rows.append(row)
                rhs.append(want)
    # Round trip on G: sum_i u[(j',i)] v[(i,j)] likewise.
    for j, gbar in enumerate(G.bars):
        for jp, gbar2 in enumerate(G.bars):
            if gbar.degree != gbar2.degree:
                continue
            if hom(gbar.interval, gbar2.interval.shift(total)) is not DEG0:
                continue
            row = [zero] * len(cells)
            hit = False
            for (j_tgt, i), coef in u.entries.items():
                if j_tgt != jp:
                    continue
                k = pos.get((i, j))
                if k is not None:
                    row[k] = field.add(row[k], coef)
                    hit = True
            want = one if (jp == j and gbar.interval.length > total) else zero
            if hit or want != zero:
                rows.append(row)
                rhs.append(want)
    sol = _fields.solve_linear(rows, rhs, field)
    if sol is None:
        return None
    entries = {c: val for c, val in zip(cells, sol) if val != zero}
    return Morphism(G, F.shift(b), entries, field)


def _exhaustive_enumerate(F, G, a, b, field) -> Optional[InterleavingCertificate]:
    cells = _allowed_cells(F, G, a)
    elements = list(field.elements())
    target = G.shift(a)
    for assignment in _cartesian(elements, repeat=len(cells)):
        entries = {c: val for c, val in zip(cells, assignment) if val != field.zero}
        u = Morphism(F, target, entries, field)
        v = _solve_partner(F, G, a, b, u, field)
        if v is not None:
            return InterleavingCertificate(a, b, u, v)
    return None


def _exhaustive_certificate(F, G, a, b, field, budget):
    try:
        size = len(list(field.elements()))
    except NotImplementedError:
        raise ValueError("exhaustive search needs a finite scalar field") from None
    n_u = len(_allowed_cells(F, G, a))
    n_v = len(_allowed_cells(G, F, b))
    if size ** min(n_u, n_v) > budget:
        return UNKNOWN
    if n_u <= n_v:
        return _exhaustive_enumerate(F, G, a, b, field)
    flipped = _exhaustive_enumerate(G, F, b, a, field)
    if flipped is None:
        return None
    return InterleavingCertificate(a, b, flipped.v, flipped.u)


def check_interleaving(
    F: Barcode,
    G: Barcode,
    a,
    b,
    *,
    field=GF2,
    method: str = "matching",
    budget: int = DEFAULT_BUDGET,
):
    """Decide whether an (a,b)-interleaving between F and G exists.

    Returns a verified certificate, None when none exists, or UNKNOWN when
    method="exhaustive" runs out of budget.  The default matching method
    always resolves.
    """
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0:
        raise ValueError("interleaving shifts must be nonnegative")
    if method == "matching":
        return _matching_certificate(F, G, a, b, field)
    if method == "exhaustive":
        return _exhaustive_certificate(F, G, a, b, field, budget)
    raise ValueError(f"unknown method {method!r}")


def _min_feasible(candidates: Sequence[Fraction], feasible) -> Optional[Fraction]:
    """Least candidate accepted by `feasible`, assuming monotone feasibility."""
    if not candidates:
        return None
    if feasible(candidates[-1]) is not True:
        return None
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]) is True:
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def _degree_gamma(F: Barcode, G: Barcode, decide) -> Tuple[ExtRat, Optional[Tuple[Fraction, Fraction]]]:
    """Minimal a+b on one degree piece, plus an optimal pair.

    `decide(a, b)` must return True / False / UNKNOWN.  The scan walks the
    grid of endpoint differences for one coordinate and binary-searches the
    other; bar lengths enter as a+b thresholds, so length-minus-coordinate
    values complete the candidate set.  Both orientations are scanned:
    either coordinate of an optimal pair may be the gridded one.  Grid,
    lengths and candidates are ints in units of 1/D (see `_int_grid`); only
    the probed points are turned back into Fractions for `decide`.
    """
    if not len(F) and not len(G):
        return ExtRat(0), (Fraction(0), Fraction(0))
    if _infinite_mismatch(F, G):
        return POS_INF, None
    scale, diffs, lengths = _int_grid(F, G)
    diff_set = set(diffs)
    cache: Dict[Tuple[int, int], object] = {}

    def cached(a: int, b: int):
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


def gamma(
    F: Barcode,
    G: Barcode,
    *,
    field=GF2,
    method: str = "matching",
    budget: int = DEFAULT_BUDGET,
) -> DistanceReport:
    """Least interleaving cost a+b; graded inputs take the per-degree max.

    The report is Exact whenever every probed grid point resolved; with the
    exhaustive method a budget overrun downgrades it to a Bracket whose
    lower end is the smallest unresolved cost.
    """
    unknown_sums: List[Fraction] = []

    def decide_on(Fd: Barcode, Gd: Barcode):
        def decide(a: Fraction, b: Fraction):
            res = check_interleaving(Fd, Gd, a, b, field=field, method=method, budget=budget)
            if res is UNKNOWN:
                unknown_sums.append(a + b)
                return UNKNOWN
            return res is not None
        return decide

    fd = F.split_by_degree()
    gd = G.split_by_degree()
    degrees = sorted(set(fd) | set(gd))
    if not degrees:
        cert = check_interleaving(F, G, 0, 0, field=field, method=method, budget=budget)
        cert = cert if isinstance(cert, InterleavingCertificate) else None
        return DistanceReport(ExtRat(0), ExtRat(0), ExtRat(0), cert)

    per_degree: List[Tuple[ExtRat, Optional[Tuple[Fraction, Fraction]]]] = []
    for deg in degrees:
        Fd = fd.get(deg, (Barcode([]), []))[0]
        Gd = gd.get(deg, (Barcode([]), []))[0]
        val, pair = _degree_gamma(Fd, Gd, decide_on(Fd, Gd))
        if val == POS_INF:
            return DistanceReport(POS_INF, POS_INF, POS_INF, None)
        per_degree.append((val, pair))

    value = max(v for v, _ in per_degree)
    total = value.as_fraction()

    certificate = None
    tried = set()
    for val, pair in per_degree:
        if pair is None:
            continue
        slack = total - (pair[0] + pair[1])
        for candidate in ((pair[0] + slack, pair[1]), (pair[0], pair[1] + slack)):
            if candidate in tried:
                continue
            tried.add(candidate)
            cert = check_interleaving(F, G, *candidate, field=field, method=method, budget=budget)
            if isinstance(cert, InterleavingCertificate):
                certificate = cert
                break
        if certificate is not None:
            break

    lower = value
    if unknown_sums:
        pending = min(unknown_sums)
        if pending < total:
            lower = ExtRat(pending)
    return DistanceReport(value, lower, value, certificate)


def gamma_symmetric(
    F: Barcode,
    G: Barcode,
    *,
    field=GF2,
    method: str = "matching",
    budget: int = DEFAULT_BUDGET,
) -> DistanceReport:
    """Least 2c such that a (c, c)-interleaving exists."""
    if _infinite_mismatch(F, G):
        return DistanceReport(POS_INF, POS_INF, POS_INF, None)
    # Candidates c are ints in units of 1/D; a probe at c/2 is c/(2D).
    scale, diffs, _ = _int_grid(F, G)
    cands = sorted(set(diffs) | {2 * d for d in diffs})
    unknown: List[Fraction] = []

    def feasible(c: int):
        half = Fraction(c, 2 * scale)
        res = check_interleaving(F, G, half, half, field=field, method=method, budget=budget)
        if res is UNKNOWN:
            unknown.append(Fraction(c, scale))
            return UNKNOWN
        return res is not None

    got = _min_feasible(cands, feasible)
    if got is None:
        return DistanceReport(POS_INF, ExtRat(min(unknown)) if unknown else POS_INF, POS_INF, None)
    total = Fraction(got, scale)
    cert = check_interleaving(F, G, total / 2, total / 2, field=field, method=method, budget=budget)
    cert = cert if isinstance(cert, InterleavingCertificate) else None
    value = ExtRat(total)
    lower = value
    if unknown and min(unknown) < total:
        lower = ExtRat(min(unknown))
    return DistanceReport(value, lower, value, cert)


def matching_witness(F: Barcode, G: Barcode, delta, *, field=GF2) -> Optional[InterleavingCertificate]:
    """Certificate at (delta, delta) from plain endpoint matching: bars pair
    up when both endpoints agree within delta, and bars of length at most
    2*delta may stay unmatched.  None when no such matching exists or the
    assembled certificate fails verification."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("matching tolerance must be nonnegative")
    fd = F.split_by_degree()
    gd = G.split_by_degree()
    u_entries: Dict[Tuple[int, int], int] = {}
    v_entries: Dict[Tuple[int, int], int] = {}
    for deg in sorted(set(fd) | set(gd)):
        f_piece, f_idx = fd.get(deg, (Barcode([]), []))
        g_piece, g_idx = gd.get(deg, (Barcode([]), []))
        adj: List[List[int]] = []
        for fbar in f_piece.bars:
            row = [
                j
                for j, gbar in enumerate(g_piece.bars)
                if endpoint_absdiff(fbar.interval.lo, gbar.interval.lo) <= delta
                and endpoint_absdiff(fbar.interval.hi, gbar.interval.hi) <= delta
            ]
            adj.append(row)
        req_l = [i for i, bar in enumerate(f_piece.bars) if bar.interval.length > 2 * delta]
        req_r = [j for j, bar in enumerate(g_piece.bars) if bar.interval.length > 2 * delta]
        m = matching_covering(len(f_piece), len(g_piece), adj, req_l, req_r)
        if m is None:
            return None
        for i, j in m.items():
            fbar, gbar = f_piece.bars[i], g_piece.bars[j]
            forward_ok = hom(fbar.interval, gbar.interval.shift(delta)) is DEG0
            backward_ok = hom(gbar.interval, fbar.interval.shift(delta)) is DEG0
            if forward_ok and backward_ok:
                u_entries[(g_idx[j], f_idx[i])] = 1
                v_entries[(f_idx[i], g_idx[j])] = 1
    u = Morphism(F, G.shift(delta), u_entries, field)
    v = Morphism(G, F.shift(delta), v_entries, field)
    try:
        return InterleavingCertificate(delta, delta, u, v)
    except ValueError:
        return None
