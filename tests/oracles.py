"""Independent oracles the test suite checks library answers against.

Everything here is recomputed from first principles over an explicit
stratification of the line (points and open intervals between the relevant
endpoints).  No code path below calls the library's hom/compose/cone/
persistence routines -- only the plain data containers are shared.  The
implementations favour obviousness over speed.

The exceptions are the differential oracles kept to check a faster
library path against its earlier implementation: the Fraction/ExtRat
interleaving search under the integer kernel, the line scan that built
every candidate list under the one that probes a line's top candidate
first, the validating rebuilds and the full-hom composite under the
trusted constructors and the one-comparison `compose`, the recursive
augmenting search under the matching, the full-merge matching and
all-pairs adjacency under the windowed decision kernel, the per-degree
tower split under graded diagonalization, the Fraction-backed ExtRat
under the int-pair one, the global round-trip solve and the full bar
scan under the windowed per-block reverse synthesis, the dense solver
under its sparse Gauss-Jordan, the tracked matrix class under the
row-dict diagonalization, trial division under the Miller-Rabin
primality test, and the operator-based hom and translation under the
endpoint kernel, with `compose` and `equals_tau` on translated barcodes
under the one round-trip predicate on untranslated bars and the
three-inequality offset rule under its one comparison, the Fraction
merge under the rank merge of sublevel persistence, the float-row cone
kernel under the integer-cell one, the full product walk under the
pruned normal grid, the reverse maps rebased on a shifted phi and the
cones built as barcodes under the tower readings off the cone ends, and
`Fraction(token)` under the int fast path of `parse_rational` (see their
sections).
Direct sums of morphisms are reference code for the graded checks.  The
bottleneck distance of the isometry theorem shares no code with the
interleaving kernel at all; it reads bars and nothing else.
"""

import math
import operator
import re
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from persimod.intervals import DEG0, DEG1, ZERO, ExtRat, Interval, NEG_INF, POS_INF, check_printable, hom, int_pair
from persimod.barcodes import Bar, Barcode
from persimod.cones import _PAIR_CAP, _QUANT, DirectionSet, _default_scales
from persimod.canonical import (
    CanonicalFormResult,
    DiagonalizationError,
    StageDiagonalization,
    canonical_form,
    diagonalize_system,
)
from persimod.fields import GF2, RationalField
from persimod.interleaving import DistanceReport, InterleavingCertificate, _IntView, _min_feasible, _rows, check_interleaving, gamma
from persimod.limits import (
    Chain,
    CompletionResult,
    HocolimResult,
    InductiveSystem,
    _extrapolate,
    _follow_chains,
    cone_diagonal,
    gamma_to_zero,
    hocolim,
)
from persimod.matching import _try_augment, matching_covering
from persimod.morphisms import Morphism, _cell_allowed, compose, identity, tau_morphism


def field_elements(field) -> List:
    """Every element of a prime field, in order.  Rationals are not
    enumerable: raises NotImplementedError."""
    if isinstance(field, RationalField):
        raise NotImplementedError("rationals are not enumerable")
    return list(range(field.p))


def is_prime_oracle(p: int) -> bool:
    """Trial division up to sqrt(p), which `fields` used before Miller-Rabin."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# stratification and stalks


def strata_for(endpoints) -> List[Tuple[str, ExtRat, ExtRat]]:
    """Alternating open-interval and point strata covering the line.

    ("iv", x, y) is the open interval (x, y); ("pt", p, p) the point p.
    Only finite endpoints become point strata.
    """
    pts = sorted({ExtRat(e) if not isinstance(e, ExtRat) else e for e in endpoints
                  if (e.is_finite if isinstance(e, ExtRat) else True)},
                 )
    out: List[Tuple[str, ExtRat, ExtRat]] = []
    prev = NEG_INF
    for p in pts:
        out.append(("iv", prev, p))
        out.append(("pt", p, p))
        prev = p
    out.append(("iv", prev, POS_INF))
    return out


def stalk(iv: Interval, stratum) -> int:
    """1 if the rank-one module on [lo, hi) has a section over the stratum."""
    kind, x, y = stratum
    if kind == "pt":
        return 1 if (iv.lo <= x and x < iv.hi) else 0
    # open interval (x, y): contained in [lo, hi) iff lo <= x and y <= hi
    return 1 if (iv.lo <= x and y <= iv.hi) else 0


def _point_indices(strata) -> List[int]:
    return [k for k, s in enumerate(strata) if s[0] == "pt"]


# ---------------------------------------------------------------------------
# exact rank / solve over a field (tiny dense Gaussian elimination)


def rank_q(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals."""
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def null_space_q(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    """A basis of {x : r . x = 0 for every row r} over the rationals."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots: List[int] = []
    for c in range(ncols):
        piv = next((i for i in range(len(pivots), len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        k = len(pivots)
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][c] for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for k, c in enumerate(pivots):
            x[c] = -rows[k][free]
        basis.append(x)
    return basis


def solve_field(rows, rhs, field) -> bool:
    """Whether A x = b is consistent over the field (no solution returned)."""
    aug = [[field.canon(x) for x in r] + [field.canon(b)] for r, b in zip(rows, rhs)]
    rank = 0
    ncols = len(aug[0]) - 1 if aug else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(aug)) if aug[i][c] != field.zero), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = field.inv(aug[rank][c])
        aug[rank] = [field.mul(inv, x) for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][c] != field.zero:
                f = aug[i][c]
                aug[i] = [field.add(a, field.neg(field.mul(f, b))) for a, b in zip(aug[i], aug[rank])]
        rank += 1
    return all(row[-1] == field.zero for row in aug[rank:])


def rank_field(rows, field) -> int:
    rows = [[field.canon(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != field.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][c])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [field.add(a, field.neg(field.mul(f, b))) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# hom / ext between two interval modules, by deformation complex
#
# A module constructible w.r.t. the stratification is a representation of the
# zigzag with one vertex per stratum and one arrow per (point -> adjacent open
# interval) generization.  The category of such representations is hereditary,
# so Hom is the kernel and Ext^1 the cokernel of
#
#     d : sum_s Hom(M_s, N_s) -> sum_{p -> v} Hom(M_p, N_v)
#     d(phi)_{p -> v} = N_{p -> v} . phi_p - phi_v . M_{p -> v}
#
# For rank-one stalks every Hom space is 0- or 1-dimensional, so d is a sparse
# 0/+-1 matrix and the two dimensions drop out of one rank computation.


def hom_ext_oracle(i: Interval, j: Interval) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) between the modules on i and j."""
    strata = strata_for([i.lo, i.hi, j.lo, j.hi])
    ms = [stalk(i, s) for s in strata]
    ns = [stalk(j, s) for s in strata]
    c0 = [k for k in range(len(strata)) if ms[k] and ns[k]]
    col = {k: idx for idx, k in enumerate(c0)}
    arrows = []
    for k in _point_indices(strata):
        for nb in (k - 1, k + 1):
            if ms[k] and ns[nb]:
                arrows.append((k, nb))
    rows = []
    for (k, nb) in arrows:
        row = [Fraction(0)] * len(c0)
        if ns[k] and ns[nb] and k in col:       # N-edge is the identity
            row[col[k]] += 1
        if ms[k] and ms[nb] and nb in col:      # M-edge is the identity
            row[col[nb]] -= 1
        rows.append(row)
    r = rank_q(rows)
    return len(c0) - r, len(arrows) - r


# ---------------------------------------------------------------------------
# stalkwise morphism calculus


def _endpoints(barcodes) -> List[ExtRat]:
    out = []
    for bc in barcodes:
        for bar in bc:
            out.extend([bar.interval.lo, bar.interval.hi])
    return out


def stalk_matrices(m, strata):
    """One (len(target) x len(source)) matrix per stratum, over m.field."""
    fld = m.field
    src, tgt = m.source, m.target
    mats = []
    for s in strata:
        mat = [[fld.zero] * len(src) for _ in range(len(tgt))]
        for (t, i), c in m.entries.items():
            if src[i].degree == tgt[t].degree and stalk(src[i].interval, s) and stalk(tgt[t].interval, s):
                mat[t][i] = fld.canon(c)
        mats.append(mat)
    return mats


def _matmul(a, b, field):
    out = [[field.zero] * (len(b[0]) if b else 0) for _ in range(len(a))]
    for r in range(len(a)):
        for k in range(len(b)):
            if a[r][k] == field.zero:
                continue
            ark = a[r][k]
            for c in range(len(b[k])):
                if b[k][c] != field.zero:
                    out[r][c] = field.add(out[r][c], field.mul(ark, b[k][c]))
    return out


def compose_oracle(f, g) -> Dict[Tuple[int, int], object]:
    """Generator coordinates of (g after f), computed stalk by stalk.

    Multiplies the stalk matrices over every stratum and reads the composite
    coefficient back off the overlap strata (asserting consistency), which is
    exactly what composition of the underlying module maps does.
    """
    fld = f.field
    strata = strata_for(_endpoints([f.source, f.target, g.target]))
    fm = stalk_matrices(f, strata)
    gm = stalk_matrices(g, strata)
    psi = [_matmul(gm[k], fm[k], fld) for k in range(len(strata))]
    src, tgt = f.source, g.target
    out: Dict[Tuple[int, int], object] = {}
    for t in range(len(tgt)):
        for i in range(len(src)):
            if tgt[t].degree != src[i].degree:
                assert all(psi[k][t][i] == fld.zero for k in range(len(strata)))
                continue
            vals = [psi[k][t][i] for k, s in enumerate(strata)
                    if stalk(src[i].interval, s) and stalk(tgt[t].interval, s)]
            if not vals:
                continue
            assert len(set(vals)) == 1, "composite not constant on overlap strata"
            if vals[0] != fld.zero:
                out[(t, i)] = vals[0]
    return out


def tau_stalk_matrices(b: Barcode, c, field, strata):
    """Stalk matrices of the canonical comparison b -> shift(b, c)."""
    c = Fraction(c)
    mats = []
    for s in strata:
        mat = [[field.zero] * len(b) for _ in range(len(b))]
        for i, bar in enumerate(b):
            if stalk(bar.interval, s) and stalk(bar.interval.shift(c), s):
                mat[i][i] = field.one
        mats.append(mat)
    return mats


def equals_tau_oracle(m, c) -> bool:
    """Stalkwise comparison of m against the canonical c-shift morphism."""
    src = m.source
    if m.target != src.shift(c):
        return False
    strata = strata_for(_endpoints([src, m.target]))
    return stalk_matrices(m, strata) == tau_stalk_matrices(src, c, m.field, strata)


# ---------------------------------------------------------------------------
# cone of a diagonal morphism: stalkwise kernel/cokernel dimensions


def cone_dims_oracle(m) -> Dict[Tuple[int, int], int]:
    """{(degree, stratum index): dim} of the mapping cone, stalk by stalk.

    Per degree-d block the cone carries coker(u_s) in degree d and ker(u_s)
    in degree d+1.  Keyed by the strata of strata_for(cone_strata_ends(m)).
    """
    fld = m.field
    strata = strata_for(cone_strata_ends(m))
    src, tgt = m.source, m.target
    degrees = sorted(set([b.degree for b in src] + [b.degree for b in tgt]))
    dims: Dict[Tuple[int, int], int] = {}
    for d in degrees:
        rows_t = [t for t, b in enumerate(tgt) if b.degree == d]
        cols_s = [i for i, b in enumerate(src) if b.degree == d]
        for k, s in enumerate(strata):
            live_t = [t for t in rows_t if stalk(tgt[t].interval, s)]
            live_s = [i for i in cols_s if stalk(src[i].interval, s)]
            block = [[fld.canon(m.entries.get((t, i), fld.zero)) for i in live_s] for t in live_t]
            r = rank_field(block, fld) if live_t and live_s else 0
            ker = len(live_s) - r
            coker = len(live_t) - r
            if coker:
                dims[(d, k)] = dims.get((d, k), 0) + coker
            if ker:
                dims[(d + 1, k)] = dims.get((d + 1, k), 0) + ker
    return dims


def cone_strata_ends(m) -> List[ExtRat]:
    return _endpoints([m.source, m.target])


def barcode_dims(b: Barcode, strata) -> Dict[Tuple[int, int], int]:
    """{(degree, stratum index): number of bars covering the stratum}."""
    dims: Dict[Tuple[int, int], int] = {}
    for bar in b:
        for k, s in enumerate(strata):
            if stalk(bar.interval, s):
                key = (bar.degree, k)
                dims[key] = dims.get(key, 0) + 1
    return dims


# ---------------------------------------------------------------------------
# exhaustive interleaving decision (small instances, stalkwise verification)


def interleaved_oracle(F: Barcode, G: Barcode, a, b, field=GF2, max_cells=14) -> bool:
    """Exhaustive search for a two-sided comparison pair at shifts (a, b).

    Enumerates every assignment of field values to the u-cells (source bar ->
    a-shifted partner bar with a one-dimensional Hom, decided by
    hom_ext_oracle); for each u the two round-trip conditions are linear in
    the v-cells and are solved stalkwise.  Raises if the u-search space
    exceeds 2**max_cells assignments.
    """
    a, b = Fraction(a), Fraction(b)
    Ga, Fb = G.shift(a), F.shift(b)
    cells_u = [(t, i) for t in range(len(Ga)) for i in range(len(F))
               if F[i].degree == Ga[t].degree
               and hom_ext_oracle(F[i].interval, Ga[t].interval)[0] == 1]
    cells_v = [(t, j) for t in range(len(Fb)) for j in range(len(G))
               if G[j].degree == Fb[t].degree
               and hom_ext_oracle(G[j].interval, Fb[t].interval)[0] == 1]
    nz = [x for x in field_elements(field) if x != field.zero]
    if (len(nz) + 1) ** len(cells_u) > 2 ** max_cells:
        raise ValueError("u search space too large for the exhaustive oracle")

    ends = _endpoints([F, G])
    strata = strata_for(ends + [e + a for e in _endpoints([G])]
                        + [e + b for e in _endpoints([F])]
                        + [e + a + b for e in ends])
    nstrata = len(strata)
    tauF = tau_stalk_matrices(F, a + b, field, strata)
    tauG = tau_stalk_matrices(G, a + b, field, strata)

    def cell_support(src_iv: Interval, tgt_iv: Interval, shift_by) -> List[bool]:
        lo, hi = src_iv.shift(shift_by), tgt_iv.shift(shift_by)
        return [bool(stalk(lo, s) and stalk(hi, s)) for s in strata]

    # per-stratum support of each generator cell, at the shifts where it is used
    u_sup = {c: cell_support(F[c[1]].interval, Ga[c[0]].interval, 0) for c in cells_u}
    u_sup_b = {c: cell_support(F[c[1]].interval, Ga[c[0]].interval, b) for c in cells_u}
    v_sup = {c: cell_support(G[c[1]].interval, Fb[c[0]].interval, 0) for c in cells_v}
    v_sup_a = {c: cell_support(G[c[1]].interval, Fb[c[0]].interval, a) for c in cells_v}

    for assignment in product([field.zero] + nz, repeat=len(cells_u)):
        u_vals = {c: x for c, x in zip(cells_u, assignment) if x != field.zero}
        # rows_map: (cond, stratum, t, i) -> coefficient vector over cells_v
        rows_map: Dict[Tuple[int, int, int, int], List[object]] = {}

        def row_for(key):
            if key not in rows_map:
                rows_map[key] = [field.zero] * len(cells_v)
            return rows_map[key]

        # condition 1: (v shifted by a) after u = tau_{a+b} on F
        for idx, (vt, vj) in enumerate(cells_v):
            for (ut, ui), uval in u_vals.items():
                if ut != vj:
                    continue
                for k in range(nstrata):
                    if v_sup_a[(vt, vj)][k] and u_sup[(ut, ui)][k]:
                        row = row_for((1, k, vt, ui))
                        row[idx] = field.add(row[idx], uval)
        # condition 2: (u shifted by b) after v = tau_{a+b} on G
        for idx, (vt, vj) in enumerate(cells_v):
            for (ut, ui), uval in u_vals.items():
                if ui != vt:
                    continue
                for k in range(nstrata):
                    if u_sup_b[(ut, ui)][k] and v_sup[(vt, vj)][k]:
                        row = row_for((2, k, ut, vj))
                        row[idx] = field.add(row[idx], uval)
        # every nonzero tau entry needs a row even when no cell reaches it
        for k in range(nstrata):
            for t in range(len(F)):
                if tauF[k][t][t] != field.zero:
                    row_for((1, k, t, t))
            for t in range(len(G)):
                if tauG[k][t][t] != field.zero:
                    row_for((2, k, t, t))

        seen = set()
        rows, rhs = [], []
        for (cond, k, t, i), coeff in rows_map.items():
            want = (tauF if cond == 1 else tauG)[k][t][i]
            sig = (tuple(coeff), want)
            if sig in seen:
                continue
            seen.add(sig)
            rows.append(coeff)
            rhs.append(want)
        if solve_field(rows, rhs, field):
            return True
    return False


# ---------------------------------------------------------------------------
# differential oracle for the interleaving search
#
# The library decides and searches on endpoints scaled to Python ints.  The
# functions below are the earlier implementation on Fraction/ExtRat values:
# adjacency from the library's `hom` per pair of shifted intervals, and the
# same grid scan with every candidate rebuilt as a Fraction set.  Unlike the
# oracles above they share `hom`, `matching_covering` and the certificate
# verifier with the library; what they check is the integer kernel.


def finite_endpoints_oracle(*barcodes: Barcode) -> List[Fraction]:
    vals = set()
    for bc in barcodes:
        for bar in bc.bars:
            for e in (bar.interval.lo, bar.interval.hi):
                if e.is_finite:
                    vals.add(e.as_fraction())
    return sorted(vals)


def difference_grid_oracle(*barcodes: Barcode) -> List[Fraction]:
    pts = finite_endpoints_oracle(*barcodes)
    diffs = {Fraction(0)}
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            diffs.add(y - x)
    return sorted(diffs)


def finite_lengths_oracle(*barcodes: Barcode) -> List[Fraction]:
    out = set()
    for bc in barcodes:
        for bar in bc.bars:
            ln = bar.interval.length
            if ln.is_finite:
                out.add(ln.as_fraction())
    return sorted(out)


def _infinite_signature(bc: Barcode) -> Dict[Tuple[int, bool, bool], int]:
    out: Dict[Tuple[int, bool, bool], int] = {}
    for bar in bc.bars:
        left, right = bar.interval.lo == NEG_INF, bar.interval.hi.is_pos_inf
        if left or right:
            key = (bar.degree, left, right)
            out[key] = out.get(key, 0) + 1
    return out


def matching_entries_oracle(F: Barcode, G: Barcode, a, b):
    """(u_entries, v_entries) of a covering matching at shifts (a, b), or None."""
    a, b = Fraction(a), Fraction(b)
    fd, gd = F.split_by_degree(), G.split_by_degree()
    u_entries: Dict[Tuple[int, int], int] = {}
    v_entries: Dict[Tuple[int, int], int] = {}
    for deg in sorted(set(fd) | set(gd)):
        f_piece, f_idx = fd.get(deg, (Barcode([]), []))
        g_piece, g_idx = gd.get(deg, (Barcode([]), []))
        f_shifted = [bar.interval.shift(b) for bar in f_piece.bars]
        g_shifted = [bar.interval.shift(a) for bar in g_piece.bars]
        adj = [
            [j for j, gbar in enumerate(g_piece.bars)
             if hom(fbar.interval, g_shifted[j]) is DEG0 and hom(gbar.interval, f_shifted[i]) is DEG0]
            for i, fbar in enumerate(f_piece.bars)
        ]
        req_l = [i for i, bar in enumerate(f_piece.bars) if bar.interval.length > a + b]
        req_r = [j for j, bar in enumerate(g_piece.bars) if bar.interval.length > a + b]
        m = matching_covering(len(f_piece), len(g_piece), adj, req_l, req_r)
        if m is None:
            return None
        for i, j in m.items():
            u_entries[(g_idx[j], f_idx[i])] = 1
            v_entries[(f_idx[i], g_idx[j])] = 1
    return u_entries, v_entries


def check_interleaving_oracle(F: Barcode, G: Barcode, a, b, field=GF2):
    """Verified certificate at (a, b) from the Fraction adjacency, or None."""
    found = matching_entries_oracle(F, G, a, b)
    if found is None:
        return None
    u = Morphism(F, G.shift(a), found[0], field)
    v = Morphism(G, F.shift(b), found[1], field)
    return InterleavingCertificate(a, b, u, v)


def _min_feasible_oracle(candidates, feasible):
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


def _least_total_oracle(F: Barcode, G: Barcode, field):
    if not len(F) and not len(G):
        return ExtRat(0), (Fraction(0), Fraction(0))
    if _infinite_signature(F) != _infinite_signature(G):
        return POS_INF, None
    diffs = difference_grid_oracle(F, G)
    lengths = finite_lengths_oracle(F, G)
    cache: Dict[Tuple[Fraction, Fraction], bool] = {}

    def cached(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = check_interleaving_oracle(F, G, a, b, field) is not None
        return cache[(a, b)]

    best = best_pair = None

    def partner_candidates(x):
        vals = set(diffs) | {Fraction(0)} | {ln - x for ln in lengths if ln > x}
        if best is not None:
            vals = {v for v in vals if v < best - x}
        return sorted(vals)

    for x in diffs:
        if best is not None and x >= best:
            break
        got = _min_feasible_oracle(partner_candidates(x), lambda t: cached(x, t))
        if got is not None and (best is None or x + got < best):
            best, best_pair = x + got, (x, got)
        got = _min_feasible_oracle(partner_candidates(x), lambda t: cached(t, x))
        if got is not None and (best is None or x + got < best):
            best, best_pair = x + got, (got, x)
    if best is None:
        return POS_INF, None
    return ExtRat(best), best_pair


def gamma_oracle(F: Barcode, G: Barcode, field=GF2) -> DistanceReport:
    """Least a+b over one grid scan of the whole pair, with its certificate."""
    value, pair = _least_total_oracle(F, G, field)
    if pair is None:
        return DistanceReport(POS_INF, None)
    return DistanceReport(value, check_interleaving_oracle(F, G, *pair, field))


def gamma_symmetric_oracle(F: Barcode, G: Barcode, field=GF2) -> DistanceReport:
    """Least 2c with a (c, c)-interleaving, by binary search over the grid."""
    if _infinite_signature(F) != _infinite_signature(G):
        return DistanceReport(POS_INF, None)
    diffs = difference_grid_oracle(F, G)
    cands = sorted({Fraction(0)} | set(diffs) | {2 * d for d in diffs})
    got = _min_feasible_oracle(cands, lambda c: check_interleaving_oracle(F, G, c / 2, c / 2, field) is not None)
    if got is None:
        return DistanceReport(POS_INF, None)
    value = ExtRat(got)
    return DistanceReport(value, check_interleaving_oracle(F, G, got / 2, got / 2, field))


def _warm_decides_oracle(view: _IntView, a: int, b: int, warm: Dict) -> bool:
    """`_IntView.decides` without a greedy start: the last probe's
    matchings, cut to this probe's rows, are saturated as they are."""
    sides = []
    for d, (f, g, caps) in enumerate(view.degrees):
        for side, (s, t, (_, x_lo, x_hi, x_len, x_cnt), (_, y_lo, y_hi, _, y_cnt)) in enumerate(((a, b, f, g), (b, a, g, f))):
            req = [i for i, ln in enumerate(x_len) if ln > a + b]
            adj = dict(zip(req, _rows(s, t, [x_lo[i] for i in req], [x_hi[i] for i in req], y_lo, y_hi)))
            if not all(adj.values()):
                return False
            old = warm.get((d, side), {}).items()
            warm[d, side] = m = (
                {v: u for v, u in old if v in adj.get(u, ())} if caps is None
                else {v: k for v, h in old if (k := {u: n for u, n in h.items() if v in adj.get(u, ())})}
            )
            sides.append((req, adj, m, set(req), caps and (x_cnt, y_cnt)))
    return all(saturate_without_greedy_start(*side) for side in sides)


def gamma_symmetric_grid_oracle(F: Barcode, G: Barcode, field=GF2) -> DistanceReport:
    """`gamma_symmetric` over the difference grid: the least feasible
    endpoint difference of the unit-2 view, then the least feasible half
    between the next smaller difference and it, with warm probes that
    saturate without a greedy start; the certificate at the optimum."""
    view = _IntView(F, G, unit=2)
    if view.infinite_mismatch():
        return DistanceReport(POS_INF, None)
    diffs, _ = view.grid()
    warm: Dict = {}
    top = _min_feasible_oracle(diffs, lambda c: _warm_decides_oracle(view, c, c, warm))
    below = diffs[diffs.index(top) - 1] if top else -1
    got = _min_feasible_oracle([d // 2 for d in diffs if below < d // 2 < top], lambda c: _warm_decides_oracle(view, c, c, warm))
    got = top if got is None else got
    cert = check_interleaving(F, G, got, got, field=field, _view=view)
    return DistanceReport(ExtRat(cert.total), cert)


def candidates_oracle(pts: Sequence[int], lo: int, hi: int) -> List[int]:
    """Every candidate for c strictly between lo and hi, once per way it
    arises: 0, then each pair's difference and each pair's half difference."""
    out = [0] if lo < 0 < hi else []
    for x in pts:
        for y in pts:
            if y > x:
                out.extend(d for d in (y - x, (y - x) // 2) if lo < d < hi)
    return out


def least_total_scan_oracle(F: Barcode, G: Barcode, field, view: _IntView) -> Optional[Tuple[int, int]]:
    """`interleaving._least_total` as it was before each line probed its
    top candidate first: every line builds its candidate list and hands it
    to `_min_feasible`, even where the top candidate, its first probe,
    fails.  The probes, their order and the pair are the same."""
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
        cands = partner_candidates(x)
        got = _min_feasible(cands, lambda t: probe(x, t))
        if got is not None and (best is None or x + got < best):
            best, best_pair = x + got, (x, got)
            cands = partner_candidates(x)
        got = _min_feasible(cands, lambda t: probe(t, x))
        if got is not None and (best is None or x + got < best):
            best, best_pair = x + got, (got, x)
    return best_pair


# ---------------------------------------------------------------------------
# the isometry theorem: a bottleneck distance that shares no kernel code
#
# For barcodes the interleaving distance is the bottleneck distance
# (Chazal, Cohen-Steiner, Glisse, Guibas and Oudot 2009; Lesnick 2015;
# Bauer and Lesnick 2015).  In the package's terms an (a, b)-interleaving
# exists iff, in every degree, d_B(F, G + (a - b)/2) <= (a + b)/2, where
# G + s adds s to every endpoint of G: a bar longer than a + b has a
# diagonal cost, half its length, above (a + b)/2.  So `gamma_symmetric`
# is 2 max over degrees of d_B(F, G).  The bars are read as Fraction pairs
# (None for an infinite end); an infinite bar matches only a bar infinite
# on the same sides, at the L-infinity distance of their finite ends, and
# never the diagonal.  Each degree is one square cost matrix, bars and
# the other side's diagonal copies, matched by Kuhn's augmenting paths at
# each bisected candidate cost.


def _bar_ends(bc: Barcode, degree: int, s: Fraction) -> List[Tuple[Optional[Fraction], Optional[Fraction]]]:
    out = []
    for bar in bc.bars:
        if bar.degree == degree:
            lo, hi = bar.interval.lo, bar.interval.hi
            out.append((lo.as_fraction() + s if lo.is_finite else None, hi.as_fraction() + s if hi.is_finite else None))
    return out


def _pair_cost(x, y) -> Optional[Fraction]:
    if (x[0] is None) != (y[0] is None) or (x[1] is None) != (y[1] is None):
        return None  # bars of different kinds never match
    return max((abs(p - q) for p, q in zip(x, y) if p is not None), default=Fraction(0))


def _diagonal_cost(x) -> Optional[Fraction]:
    return None if None in x else (x[1] - x[0]) / 2


def _perfect_matching(cost, c) -> bool:
    match: List[Optional[int]] = [None] * len(cost)  # column -> row

    def augment(r, seen):
        for k, w in enumerate(cost[r]):
            if w is not None and w <= c and k not in seen:
                seen.add(k)
                if match[k] is None or augment(match[k], seen):
                    match[k] = r
                    return True
        return False

    return all(augment(r, set()) for r in range(len(cost)))


def _bottleneck(X, Y):
    n, m = len(X), len(Y)
    cost = [[_pair_cost(x, y) for y in Y] + [_diagonal_cost(x) if k == i else None for k in range(n)] for i, x in enumerate(X)]
    cost += [[_diagonal_cost(y) if k == j else None for k in range(m)] + [Fraction(0)] * n for j, y in enumerate(Y)]
    if not cost:
        return Fraction(0)
    cands = sorted({w for row in cost for w in row if w is not None})
    lo, hi = 0, len(cands)  # the least feasible candidate, or len(cands): none
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _perfect_matching(cost, cands[mid]) else (mid + 1, hi)
    return cands[lo] if lo < len(cands) else math.inf


def bottleneck_oracle(F: Barcode, G: Barcode, s=Fraction(0)):
    """The largest over degrees of d_B(F, G + s), a Fraction or math.inf."""
    degrees = {bar.degree for bc in (F, G) for bar in bc.bars}
    return max((_bottleneck(_bar_ends(F, d, Fraction(0)), _bar_ends(G, d, Fraction(s))) for d in degrees), default=Fraction(0))


def translate_test_oracle(F: Barcode, G: Barcode, a, b) -> bool:
    """Whether an (a, b)-interleaving exists, by the isometry theorem."""
    a, b = Fraction(a), Fraction(b)
    return bottleneck_oracle(F, G, (a - b) / 2) <= (a + b) / 2


# ---------------------------------------------------------------------------
# sublevel persistence via rank invariant (DFS components, inclusion-exclusion)


def sublevel_oracle(values: Sequence[Fraction], circle: bool) -> Barcode:
    """Degree-0 (and circle degree-1) sublevel barcode from the rank invariant."""
    m = len(values)
    edges = [(i, i + 1) for i in range(m - 1)]
    if circle:
        edges.append((m - 1, 0))
    crit = sorted(set(values))

    def comp_ids(level):
        ids = [None] * m
        nxt = 0
        adj = {v: [] for v in range(m)}
        for (x, y) in edges:
            if values[x] <= level and values[y] <= level:
                adj[x].append(y)
                adj[y].append(x)
        for v in range(m):
            if values[v] <= level and ids[v] is None:
                stack = [v]
                ids[v] = nxt
                while stack:
                    w = stack.pop()
                    for z in adj[w]:
                        if ids[z] is None:
                            ids[z] = nxt
                            stack.append(z)
                nxt += 1
        return ids

    levels = [comp_ids(c) for c in crit]

    def rank(si, ti):
        src, tgt = levels[si], levels[ti]
        return len({tgt[v] for v in range(m) if src[v] is not None})

    bars = []
    last = len(crit) - 1
    for i in range(len(crit)):
        for j in range(i + 1, len(crit)):
            mult = rank(i, j - 1) - rank(i, j)
            if i > 0:
                mult -= rank(i - 1, j - 1) - rank(i - 1, j)
            for _ in range(mult):
                bars.append(Bar(0, Interval(crit[i], crit[j])))
        ess = rank(i, last) - (rank(i - 1, last) if i else 0)
        for _ in range(ess):
            bars.append(Bar(0, Interval(crit[i], POS_INF)))
    if circle:
        bars.append(Bar(1, Interval(max(values), POS_INF)))
    return Barcode(bars)


# ---------------------------------------------------------------------------
# differential oracle for the rank merge
#
# `sublevel_barcode` merges on dense int ranks of the values.  This is the
# merge it replaced, on the Fraction values themselves.


def sublevel_merge_oracle(f) -> Barcode:
    m = len(f.values)
    edges = [(i, i + 1) for i in range(m - 1)]
    if f.domain == "circle":
        edges.append((m - 1, 0))

    # birth[v] = (value, index): lexicographic order encodes the elder rule.
    birth = {v: (f.values[v], v) for v in range(m)}
    parent = list(range(m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    bars = []
    order = sorted(edges, key=lambda e: (max(f.values[e[0]], f.values[e[1]]), e))
    for i, j in order:
        level = max(f.values[i], f.values[j])
        ri, rj = find(i), find(j)
        if ri == rj:
            # cycle-closing edge: only the circle has one
            bars.append(Bar(1, Interval(level, POS_INF)))
            continue
        elder, younger = (ri, rj) if birth[ri] <= birth[rj] else (rj, ri)
        died = birth[younger][0]
        if died < level:
            bars.append(Bar(0, Interval(died, level)))
        parent[younger] = elder
        birth[elder] = min(birth[elder], birth[younger])

    roots = {find(v) for v in range(m)}
    for r in sorted(roots):
        bars.append(Bar(0, Interval(birth[r][0], POS_INF)))
    return Barcode(bars)


# ---------------------------------------------------------------------------
# differential oracle for the cone direction-set kernel
#
# `cones` deduplicates rounded cells as int8 rows, builds each unordered
# pair's secant once and negates its cell, and compares each direction only
# with the rows in its band of first coordinates.  The oracle keeps the
# float-row `np.unique`, the appended negatives of every ordered pair, the
# product of every candidate with every direction of every scale, and the
# greedy dedupe against every row kept so far.  `cone_oracle` stands in for
# `cones._cone`, so a test that patches it in gets today's verdict logic on
# the old kernel.
# `sphere_grid_oracle` walks every angle tuple of the normal grid, where
# `cones._sphere_grid` skips the tuples past an angle of 0 or 180 degrees.


def quantize_oracle(vecs: np.ndarray) -> np.ndarray:
    """Collapse unit vectors onto a rounding grid and renormalize."""
    if len(vecs) == 0:
        return vecs
    cells = np.unique(np.round(vecs / _QUANT), axis=0) * _QUANT
    norms = np.linalg.norm(cells, axis=1)
    keep = norms > 1e-9
    return cells[keep] / norms[keep][:, None]


def max_dot_oracle(candidates: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row-wise max of candidates @ vecs.T, chunked to bound memory."""
    out = np.full(len(candidates), -1.0)
    for lo in range(0, len(candidates), 2048):
        out[lo:lo + 2048] = (candidates[lo:lo + 2048] @ vecs.T).max(axis=1)
    return out


def _persisting_oracle(fine, theta_deg):
    if len(fine[-1]) == 0:
        raise ValueError("empty neighborhood at the finest scale")
    candidates = quantize_oracle(np.concatenate([s for s in fine if len(s)], axis=0))
    cos_t = math.cos(math.radians(theta_deg)) - 1e-12
    keep = np.ones(len(candidates), dtype=bool)
    for s in fine:
        if len(s) == 0:
            return candidates[:0]
        keep &= max_dot_oracle(candidates, s) >= cos_t
    return dedupe_oracle(candidates[keep], theta_deg)


def dedupe_oracle(vecs: np.ndarray, theta_deg: float) -> np.ndarray:
    """The rows of vecs, in order, over theta from every row kept before."""
    cos_t = math.cos(math.radians(theta_deg))
    kept = np.empty_like(vecs)
    k = 0
    for v in vecs:
        if k == 0 or np.max(kept[:k] @ v) < cos_t:
            kept[k] = v
            k += 1
    return kept[:k].copy()


def cone_oracle(cloud, x, params, pairs: bool) -> DirectionSet:
    x = np.asarray(x, dtype=float)
    if x.shape != (cloud.dimension,):
        raise ValueError(f"base point must have dimension {cloud.dimension}")
    dists = np.linalg.norm(cloud.points - x, axis=1)
    scales = list(params.scales) if params.scales is not None else _default_scales(dists)
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    per_scale = []
    for r in scales[len(scales) // 2:]:
        if pairs:
            near = cloud.points[dists <= r]
            if len(near) > _PAIR_CAP:
                near = near[np.linspace(0, len(near) - 1, _PAIR_CAP).astype(int)]
            diff = (near[:, None, :] - near[None, :, :]).reshape(-1, cloud.dimension)
        else:
            diff = cloud.points[(dists > 0) & (dists <= r)] - x
        norms = np.linalg.norm(diff, axis=1)
        secants = diff[norms > 0] / norms[norms > 0][:, None]
        per_scale.append(quantize_oracle(np.concatenate([secants, -secants]) if pairs else secants))
    return DirectionSet(_persisting_oracle(per_scale, params.theta_res), params.theta_res)


def coisotropy_union_oracle(pieces: Sequence[Sequence[Sequence[Fraction]]], dim: int) -> str:
    """The cone-level verdict at 0 for a union of rational subspaces V_i of
    R^dim, each given by spanning rows, in exact arithmetic.

    The paratingent cone spans W = sum V_i, and the contingent cone is the
    union itself.  A hyperplane contains W exactly when its normal nu lies
    in W^perp, and its symplectic orthogonal is the line through J nu.  So
    the union is vacuously coisotropic when W is the whole space, and
    coisotropic when J(W^perp) lies in the union: a subspace inside a
    finite union of subspaces lies in one of them."""
    half = dim // 2
    span = [row for piece in pieces for row in piece]
    if rank_q(span) == dim:
        return "CoisotropicVacuous"
    # J(q, p) = (-p, q)
    j_normals = [[-x for x in nu[half:]] + list(nu[:half]) for nu in null_space_q(span, dim)]
    if any(rank_q(list(piece) + j_normals) == rank_q(piece) for piece in pieces):
        return "Coisotropic"
    return "NotCoisotropic"


def sphere_grid_oracle(dim: int, step_deg: float, cap: int = 20000) -> List[np.ndarray]:
    """Unit vectors on S^{dim-1}, one per grid cell of step_deg, with
    antipodes identified (a hyperplane normal is a sign-free datum)."""
    if dim == 1:
        return [np.array([1.0])]
    angle_grids = [np.radians(np.arange(0, 180 + step_deg, step_deg))] * (dim - 2)
    last = np.radians(np.arange(0, 180, step_deg))
    out, seen = [], set()
    for combo in product(*angle_grids, last):
        v = np.zeros(dim)
        sin_prod = 1.0
        for i, a in enumerate(combo):
            v[i] = sin_prod * math.cos(a)
            sin_prod *= math.sin(a)
        v[dim - 1] = sin_prod
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        v = v / nv
        # canonical sign: first coordinate with |.| > tol is positive
        for c in v:
            if abs(c) > 1e-9:
                if c < 0:
                    v = -v
                break
        key = tuple(np.round(v, 6))
        if key in seen:
            continue
        seen.add(key)
        out.append(v)
        if len(out) >= cap:
            break
    return out


# ---------------------------------------------------------------------------
# differential oracle for the int fast path of `parse_rational`
#
# `parse_rational` builds a token of ASCII digits, an optional sign and an
# optional /denominator from its two ints.  This is the parser it replaced,
# which sends every token through `Fraction(token)`, with the program's own
# refusal of a token with a run of digits over the int/str limit (where
# Fraction gives Python's advice to raise the limit).


def parse_rational_oracle(token: str) -> Fraction:
    low = token.lower()
    limit = sys.get_int_max_str_digits()
    if "e" in low:
        exponent = low.rpartition("e")[2].strip().lstrip("+-0").replace("_", "")
        if exponent.isdecimal() and limit and (len(exponent) > len(str(limit)) or int(exponent) > limit):
            raise ValueError(f"decimal exponent over the limit of {limit}")
    runs = re.findall(r"\d+(?:_\d+)*", token)
    if limit and max((len(run) - run.count("_") for run in runs), default=0) > limit:
        raise ValueError(f"digit run over the limit of {limit}")
    value = Fraction(token)
    # Without an exponent, no term has more digits than the token has
    # characters.
    if "e" in low or len(token) > limit:
        check_printable("value", value)
    return value


# ---------------------------------------------------------------------------
# differential oracle for the trusted constructors
#
# The library builds shifted and restricted barcodes, shifted and
# restricted morphisms, identities and composites without re-validating
# them, and compares ExtRat values without coercion.  These rebuild each
# result through the validating constructors and compare through
# `FractionExtRat._key`.  `compose_hom_filter_oracle` is `compose` as it
# was before the one-comparison rule: a full hom on every product cell,
# over a product grouped on both sides with every sum started at zero.


def shift_oracle(bc: Barcode, c) -> Barcode:
    c = Fraction(c)
    return Barcode(Bar(b.degree, Interval(b.interval.lo + c, b.interval.hi + c)) for b in bc.bars)


def restrict_oracle(bc: Barcode, indices) -> Barcode:
    return Barcode(bc.bars[i] for i in sorted(set(indices)))


def morphism_shift_oracle(m: Morphism, c) -> Morphism:
    return Morphism(shift_oracle(m.source, c), shift_oracle(m.target, c), m.entries, m.field)


def product_oracle(f: Morphism, g: Morphism) -> Dict[Tuple[int, int], object]:
    """Every cell a sum of "f then g" reaches, zero sums included."""
    field = f.field
    add, mul, zero = field.add, field.mul, field.zero
    by_src: Dict[int, List[Tuple[int, object]]] = {}
    for (t, s), v in f.entries.items():
        by_src.setdefault(s, []).append((t, v))
    by_mid: Dict[int, List[Tuple[int, object]]] = {}
    for (t, s), v in g.entries.items():
        by_mid.setdefault(s, []).append((t, v))
    acc: Dict[Tuple[int, int], object] = {}
    for s, f_col in by_src.items():
        for mid, fv in f_col:
            for t, gv in by_mid.get(mid, ()):
                key = (t, s)
                acc[key] = add(acc.get(key, zero), mul(gv, fv))
    return acc


def compose_hom_filter_oracle(f: Morphism, g: Morphism) -> Morphism:
    """"f then g": the nonzero product cells whose own generator survives,
    each decided by a full hom."""
    if f.field != g.field:
        raise ValueError("mismatched scalar fields")
    if f.target != g.source:
        raise ValueError("mismatched middle barcode")
    src_bars, tgt_bars = f.source.bars, g.target.bars
    out = {
        (t, s): v
        for (t, s), v in product_oracle(f, g).items()
        if v != f.field.zero and _cell_allowed(src_bars[s], tgt_bars[t])
    }
    return Morphism(f.source, g.target, out, f.field)


def tau_entries_oracle(bc: Barcode, c) -> Dict[Tuple[int, int], int]:
    """GF(2) diagonal of the comparison bc -> shift(bc, c): bars longer than c."""
    return {(i, i): 1 for i, bar in enumerate(bc.bars) if bar.interval.length > ExtRat(Fraction(c))}


def compare_oracle(x, y) -> Tuple[bool, bool, bool, bool, bool]:
    """(==, <, <=, >, >=) of two endpoint-like values by their
    `FractionExtRat._key`s."""
    kx, ky = FractionExtRat(x)._key(), FractionExtRat(y)._key()
    return kx == ky, kx < ky, kx <= ky, kx > ky, kx >= ky


# ---------------------------------------------------------------------------
# differential oracle for the endpoint kernel
#
# `hom`, `Interval._shifted`, `Interval._is_shift_of` and the round-trip
# check of `InterleavingCertificate` work on endpoint triples through
# `intervals._lt`, `_le`, `_plus`, `_is_plus` and `_starts_before_end`;
# the round trips are checked on untranslated bars.  These are the
# versions they replaced, which go through ExtRat's operators, translated
# barcodes, `compose` and `equals_tau`.  `equals_tau` is the check
# `morphisms` made before `_is_round_trip`: on the composite `compose`
# builds, it is that predicate's reference, and `InductiveSystem` and
# `canonical_form` used it too (see `inductive_system_refusal_oracle`).
# `_deg0_plus` is the three-inequality offset rule that every survival
# check used before the one-comparison `_starts_before_end`; on a cell
# that meets the survival rule's precondition (see `intervals`) the two
# agree.


def equals_tau(f: Morphism, c) -> bool:
    """Is f entrywise equal to the canonical comparison at shift c?  A bar
    survives its own c-shift exactly when it is longer than c."""
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"negative shift {c}")
    if not f.target.is_shift_of(f.source, c):
        raise ValueError("target is not the c-shift of the source")
    one = f.field.one
    return f.entries == {(i, i): one for i, bar in enumerate(f.source.bars) if bar.interval.length > ExtRat(c)}


def _deg0_plus(i: "Interval", j: "Interval", n: int, d: int) -> bool:
    """hom(i, j + n/d) is DEG0 for a reduced n/d with d > 0, that is
    lo_i <= lo_j + n/d < hi_i <= hi_j + n/d, decided by cross-multiplication
    without building the translate; an infinite endpoint of j stays as it
    is."""
    a, b, c, e = i.lo, i.hi, j.lo, j.hi
    # lo_i <= lo_j + n/d
    if a._kind != c._kind:
        if a._kind > c._kind:
            return False
    elif not a._kind and a._n * c._d * d > (c._n * d + n * c._d) * a._d:
        return False
    # lo_j + n/d < hi_i
    if c._kind != b._kind:
        if c._kind > b._kind:
            return False
    elif c._kind or (c._n * d + n * c._d) * b._d >= b._n * c._d * d:
        return False
    # hi_i <= hi_j + n/d
    if b._kind != e._kind:
        return b._kind < e._kind
    return bool(b._kind) or b._n * e._d * d <= (e._n * d + n * e._d) * b._d


def hom_operator_oracle(i: Interval, j: Interval):
    a, b = i.lo, i.hi
    c, d = j.lo, j.hi
    if a <= c and c < b and b <= d:
        return DEG0
    if c < a and a <= d and d < b:
        return DEG1
    return ZERO


def interval_shift_oracle(iv: Interval, c) -> Interval:
    c = ExtRat(Fraction(c))
    lo, hi = iv.lo + c, iv.hi + c
    if not lo < hi:
        raise ValueError(f"empty interval [{lo},{hi})")
    return Interval(lo, hi)


def interval_is_shift_of_oracle(iv: Interval, other: Interval, c) -> bool:
    c = ExtRat(Fraction(c))
    return iv.lo == other.lo + c and iv.hi == other.hi + c


def certificate_refusal_oracle(a, b, u: Morphism, v: Morphism):
    """The message `InterleavingCertificate(a, b, u, v)` refuses with, or
    None when it accepts: both round trips go through `equals_tau`, which
    re-checks that each composite ends in the (a+b)-shift of its source."""
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0:
        return "interleaving shifts must be nonnegative"
    F, G = u.source, v.source
    if u.field != v.field:
        return "certificate maps use different scalar fields"
    if not u.target.is_shift_of(G, a):
        return "u must land in the a-shift of G"
    if not v.target.is_shift_of(F, b):
        return "v must land in the b-shift of F"
    total = a + b
    v_a = Morphism(u.target, F.shift(total), v.entries, v.field)
    u_b = Morphism(v.target, G.shift(total), u.entries, u.field)
    if not equals_tau(compose(u, v_a), total):
        return "round trip through G is not the canonical comparison"
    if not equals_tau(compose(v, u_b), total):
        return "round trip through F is not the canonical comparison"
    return None


def inductive_system_refusal_oracle(stages, maps, slacks, reverses, field=None):
    """The message `InductiveSystem(stages, maps, slacks, reverses, field)`
    refuses with, or None when it accepts: each round trip is composed on
    translated barcodes and compared by `equals_tau`."""
    if len(maps) != len(stages) - 1:
        return "need exactly one forward map per consecutive stage pair"
    if len(slacks) != len(maps) or len(reverses) != len(maps):
        return "need one slack and one (possibly absent) reverse map per step"
    for n, f in enumerate(maps):
        if f.source != stages[n] or f.target != stages[n + 1]:
            return f"forward map {n} does not connect stages {n} -> {n + 1}"
    if field is None:
        field = maps[0].field if maps else GF2
    if any(f.field != field for f in maps):
        return "mixed scalar fields in forward maps"
    if any(g is not None and g.field != field for g in reverses):
        return "mixed scalar fields in reverse maps"
    for n, (eps, g) in enumerate(zip(slacks, reverses)):
        eps = Fraction(eps)
        if eps < 0:
            return f"negative slack at step {n}"
        if g is None:
            continue
        if g.source != stages[n + 1] or g.target != stages[n].shift(eps):
            return f"reverse map {n} does not match the slack-{eps} shift"
        if not equals_tau(compose(maps[n], g), eps):
            return f"round trip at step {n} is not the canonical comparison"
    return None


# ---------------------------------------------------------------------------
# differential oracle for the int-pair ExtRat
#
# `intervals.ExtRat` stores a finite value as a reduced int pair.  This is
# the Fraction-backed class it replaced: same constructor, operators,
# errors, hash, str and repr, with every finite value held as a Fraction.


_INF_TOKENS = {"inf": 1, "+inf": 1, "-inf": -1, "oo": 1, "-oo": -1}


class FractionExtRat:
    """An exact rational extended with -inf and +inf, held as a Fraction."""

    __slots__ = ("_kind", "_q")

    def __init__(self, value=0):
        if isinstance(value, FractionExtRat):
            self._kind = value._kind
            self._q = value._q
            return
        if isinstance(value, str):
            token = value.strip()
            if token in _INF_TOKENS:
                self._kind = _INF_TOKENS[token]
                self._q = None
                return
            value = Fraction(token)
        if isinstance(value, (int, Fraction)):
            self._kind = 0
            self._q = Fraction(value)
            return
        raise TypeError(f"cannot build ExtRat from {value!r}")

    @staticmethod
    def _make_inf(sign: int) -> "FractionExtRat":
        out = FractionExtRat.__new__(FractionExtRat)
        out._kind = sign
        out._q = None
        return out

    @property
    def is_finite(self) -> bool:
        return self._kind == 0

    @property
    def is_pos_inf(self) -> bool:
        return self._kind > 0

    @property
    def is_neg_inf(self) -> bool:
        return self._kind < 0

    def as_fraction(self) -> Fraction:
        if self._kind != 0:
            raise ArithmeticError(f"{self} is not finite")
        return self._q

    def _key(self):
        # kind dominates; finite values compare by q
        return (self._kind, self._q if self._kind == 0 else 0)

    @staticmethod
    def _coerce(other) -> "FractionExtRat":
        if isinstance(other, FractionExtRat):
            return other
        if isinstance(other, (int, Fraction, str)):
            return FractionExtRat(other)
        return NotImplemented

    def _compare(self, other, op):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return op(self._key(), o._key())

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __hash__(self):
        if self._kind == 0:
            return hash(self._q)
        return hash(("ExtRat", self._kind))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._kind == 0 and o._kind == 0:
            return FractionExtRat(self._q + o._q)
        if self._kind != 0 and o._kind != 0:
            if self._kind != o._kind:
                raise ArithmeticError("inf + (-inf) is undefined")
            return self
        return self if self._kind != 0 else o

    __radd__ = __add__

    def __neg__(self):
        if self._kind == 0:
            return FractionExtRat(-self._q)
        return FractionExtRat._make_inf(-self._kind)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self._kind == 0 and o._kind == 0:
            return FractionExtRat(self._q * o._q)

        def sign(e: "FractionExtRat") -> int:
            if e._kind != 0:
                return e._kind
            return (e._q > 0) - (e._q < 0)

        if sign(self) == 0 or sign(o) == 0:
            raise ArithmeticError("0 * inf is undefined")
        return FractionExtRat._make_inf(sign(self) * sign(o))

    __rmul__ = __mul__

    def __str__(self):
        if self._kind > 0:
            return "inf"
        if self._kind < 0:
            return "-inf"
        if self._q.denominator == 1:
            return str(self._q.numerator)
        return f"{self._q.numerator}/{self._q.denominator}"

    def __repr__(self):
        return f"ExtRat({str(self)!r})"


# ---------------------------------------------------------------------------
# differential oracle for reverse-map synthesis
#
# `canonical._solve_reverse` solves one small system per bar of the shifted
# source, over the bars of one bisect window, by sparse Gauss-Jordan in
# `canonical._solve_rows`.  These are the single global elimination over
# every allowed cell of g that it replaced, the per-block solve over full
# scans of the bars that the window replaced, and the dense solver that
# `_solve_rows` replaced.


def solve_linear(
    rows: Sequence[Sequence], rhs: Sequence, field
) -> Optional[List]:
    """One solution of A x = b over ``field``, or None if inconsistent.

    Dense Gaussian elimination, sized for small systems: each block of a
    reverse-map synthesis has at most one unknown per bar of a stage.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[field.canon(v) for v in row] + [field.canon(rhs[i])] for i, row in enumerate(rows)]
    piv_col: List[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != field.zero), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [field.mul(inv, v) for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != field.zero:
                f = aug[i][c]
                aug[i] = [field.add(a, field.neg(field.mul(f, b))) for a, b in zip(aug[i], aug[r])]
        piv_col.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != field.zero:
            return None
    x = [field.zero] * n
    for i, c in enumerate(piv_col):
        x[c] = aug[i][n]
    return x


def solve_reverse_oracle(f: Morphism, eps, fld):
    """g with g∘f = tau_eps from one dense system, or None."""
    F, Fp = f.source, f.target
    shifted = F.shift(eps)
    cells = []
    for j, pbar in enumerate(Fp.bars):
        for i, sbar in enumerate(shifted.bars):
            if _cell_allowed(pbar, sbar):
                cells.append((i, j))
    pos = {c: k for k, c in enumerate(cells)}
    rows: List[List] = []
    rhs: List = []
    zero, one = fld.zero, fld.one
    for i, src in enumerate(F.bars):
        for ip, tgt in enumerate(shifted.bars):
            if not _cell_allowed(src, tgt):
                continue
            row = [zero] * len(cells)
            hit = False
            for (j, i_src), coef in f.entries.items():
                if i_src != i:
                    continue
                k = pos.get((ip, j))
                if k is not None:
                    row[k] = fld.add(row[k], coef)
                    hit = True
            want = one if (ip == i and src.interval.length > eps) else zero
            if hit or want != zero:
                rows.append(row)
                rhs.append(want)
    sol = solve_linear(rows, rhs, fld)
    if sol is None:
        return None
    entries = {c: v for c, v in zip(cells, sol) if v != zero}
    return Morphism(Fp, shifted, entries, fld)


def solve_reverse_scan_oracle(f: Morphism, eps, fld):
    """The per-block synthesis with every block's unknowns and equations
    found by scanning all bars of F' and of F, where `canonical._solve_reverse`
    takes them from a bisect window.  Returns (blocks, g): for each bar i'
    of the shifted source, in order, (i', unknowns, equations), and g or
    None."""
    F, Fp = f.source, f.target
    shifted = F.shift(eps)
    by_source: Dict[int, List[Tuple[int, object]]] = {}
    for (j, i), coef in f.entries.items():
        by_source.setdefault(i, []).append((j, coef))
    zero, one = fld.zero, fld.one
    blocks, found = [], []
    for ip, tgt in enumerate(shifted.bars):
        unknowns = [j for j, pbar in enumerate(Fp.bars) if _cell_allowed(pbar, tgt)]
        equations = [i for i, src in enumerate(F.bars) if _cell_allowed(src, tgt)]
        blocks.append((ip, unknowns, equations))
        pos = {j: k for k, j in enumerate(unknowns)}
        rows, rhs = [], []
        for i in equations:
            coefs = [(pos[j], coef) for j, coef in by_source.get(i, ()) if j in pos]
            want = one if (ip == i and F.bars[i].interval.length > eps) else zero
            if coefs or want != zero:
                row = [zero] * len(unknowns)
                for k, coef in coefs:
                    row[k] = coef
                rows.append(row)
                rhs.append(want)
        if not rows:
            continue
        sol = solve_linear(rows, rhs, fld)
        if sol is None:
            return blocks, None
        found.extend(((ip, j), v) for j, v in zip(unknowns, sol) if v != zero)
    found.sort(key=lambda cell: (cell[0][1], cell[0][0]))
    return blocks, Morphism(Fp, shifted, dict(found), fld)


# ---------------------------------------------------------------------------
# differential oracle for the augmenting search
#
# `matching._try_augment` walks an explicit stack; this is the recursive
# search it replaced.  Same neighbour order and `seen` set, so the same
# matching; recursion limits it to short augmenting paths.


def _try_augment_recursive(u, adj, match_r, seen) -> bool:
    for v in adj[u]:
        if v in seen:
            continue
        seen.add(v)
        if v not in match_r or _try_augment_recursive(match_r[v], adj, match_r, seen):
            match_r[v] = u
            return True
    return False


def augment_oracle(order, adj) -> Tuple[Dict[int, int], List[bool]]:
    """Right-to-left matching after augmenting from each left vertex of
    `order`, and whether each augmentation succeeded."""
    match_r: Dict[int, int] = {}
    found = [_try_augment_recursive(u, adj, match_r, set()) for u in order]
    return match_r, found


# ---------------------------------------------------------------------------
# differential oracle for the covering matching and its adjacency
#
# `matching` returns the left-saturating matching when it already covers
# the right side; `interleaving._IntView.entries` builds each row from an
# index window over G's sorted lo ends.  These are the versions they
# replaced: the second matching and merge on every call, and the adjacency
# tested against every bar of G.  Both start each saturation greedy, as
# `matching.saturate` does, so that their entries are the library's;
# `covering_exists_oracle` decides without the greedy start.


def _try_augment_scan(root, adj, match_r, seen) -> bool:
    stack = []
    u, nbrs = root, iter(adj[root])
    while True:
        for v in nbrs:
            if v in seen:
                continue
            seen.add(v)
            w = match_r.get(v)
            if w is not None:
                stack.append((u, nbrs, v))
                u, nbrs = w, iter(adj[w])
                break
            match_r[v] = u
            for u, _, v in reversed(stack):
                match_r[v] = u
            return True
        else:
            if not stack:
                return False
            u, nbrs, _ = stack.pop()


def _saturating_oracle(order, adj, required):
    match_r: Dict[int, int] = {}
    for u in order:  # greedy start: each required vertex takes a free neighbour
        if u in required:
            free = [v for v in adj[u] if v not in match_r]
            if free:
                match_r[free[0]] = u
    matched = set(match_r.values())
    for u in order:
        if u not in matched and not _try_augment_scan(u, adj, match_r, set()) and u in required:
            return None
    return {u: v for v, u in match_r.items()}


def saturate_without_greedy_start(order, adj, match_r, required, caps=None) -> bool:
    """`matching.saturate` before its greedy start: augment from each vertex
    of `order` in turn, up to capacity; False if a `required` one can't."""
    if caps is None:
        held = set(match_r.values())
        return all(u in held or _try_augment(u, adj, match_r) or u not in required for u in order)
    cap_l, cap_r = caps
    held = Counter()
    for h in match_r.values():
        held.update(h)
    for u in order:
        need = cap_l[u] - held[u]
        while need and (got := _try_augment(u, adj, match_r, cap_r, need)):
            need -= got
        if need and u in required:
            return False
    return True


def covering_exists_oracle(num_left, num_right, adj, required_left, required_right, caps=None) -> bool:
    """Whether a matching covers every required vertex, by Mendelsohn-
    Dulmage: each side's required vertices saturate from nothing, without
    a greedy start."""
    radj: List[List[int]] = [[] for _ in range(num_right)]
    for u in range(num_left):
        for v in adj[u]:
            radj[v].append(u)
    return all(
        saturate_without_greedy_start(sorted(req), rows, {}, set(req), caps and caps[::side])
        for rows, req, side in ((adj, required_left, 1), (radj, required_right, -1))
    )


def matching_covering_oracle(num_left, num_right, adj, required_left, required_right):
    """Covering matching from both saturating matchings and the
    per-component merge, always run in full."""
    req_l, req_r = set(required_left), set(required_right)
    m1 = _saturating_oracle(sorted(req_l) + [u for u in range(num_left) if u not in req_l], adj, req_l)
    if m1 is None:
        return None
    radj: List[List[int]] = [[] for _ in range(num_right)]
    for u in range(num_left):
        for v in adj[u]:
            radj[v].append(u)
    m2r = _saturating_oracle(sorted(req_r) + [v for v in range(num_right) if v not in req_r], radj, req_r)
    if m2r is None:
        return None
    m2 = {u: v for v, u in m2r.items()}
    inv = ({v: u for u, v in m1.items()}, {v: u for u, v in m2.items()})
    out: Dict[int, int] = {}
    seen_l = set()
    for start in range(num_left):
        if start in seen_l or (start not in m1 and start not in m2):
            continue
        comp_l, comp_r, stack = set(), set(), [("L", start)]
        while stack:
            side, x = stack.pop()
            if side == "L" and x not in comp_l:
                comp_l.add(x)
                stack.extend(("R", m[x]) for m in (m1, m2) if x in m)
            elif side == "R" and x not in comp_r:
                comp_r.add(x)
                stack.extend(("L", i[x]) for i in inv if x in i)
        seen_l |= comp_l
        pick1 = {u: v for u, v in m1.items() if u in comp_l}
        if comp_l & req_l <= set(pick1) and comp_r & req_r <= set(pick1.values()):
            out.update(pick1)
        else:
            out.update({u: v for u, v in m2.items() if u in comp_l})
    return out


def _int_bars(barcodes: Sequence[Barcode], shifts: Sequence[Fraction] = ()):
    """The common denominator D of every finite endpoint and every shift,
    and per barcode its bars as (degree, lo*D, hi*D); None stands for an
    infinite endpoint.  A copy of the per-probe scaling the library used
    before its scaled view, so this oracle does not share it."""
    pairs = [[(bar.degree, int_pair(bar.interval.lo), int_pair(bar.interval.hi)) for bar in bc.bars] for bc in barcodes]
    dens = {s.denominator for s in shifts}
    dens.update(p[1] for bars in pairs for _, lo, hi in bars for p in (lo, hi) if p)
    scale = lcm(*dens)
    return scale, [
        [(deg, lo and lo[0] * (scale // lo[1]), hi and hi[0] * (scale // hi[1])) for deg, lo, hi in bars]
        for bars in pairs
    ]


def _int_covering_graphs(F: Barcode, G: Barcode, a, b):
    """Per degree, the bars of F and of G as (index, lo, hi) from one
    scaling per call, the adjacency at (a, b) with every pair of bars
    tested, and the bars longer than a + b on each side: one vertex per
    copy of a bar."""
    a, b = Fraction(a), Fraction(b)
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
    for deg in sorted(set(fd) | set(gd)):
        f_bars, g_bars = fd.get(deg, []), gd.get(deg, [])
        adj = [
            [j for j, (_, glo, ghi) in enumerate(g_bars)
             if flo <= glo + a < fhi <= ghi + a and glo <= flo + b < ghi <= fhi + b]
            for _, flo, fhi in f_bars
        ]
        req_l = [i for i, (_, lo, hi) in enumerate(f_bars) if hi - lo > total]
        req_r = [j for j, (_, lo, hi) in enumerate(g_bars) if hi - lo > total]
        yield f_bars, g_bars, adj, req_l, req_r


def int_matching_entries_oracle(F: Barcode, G: Barcode, a, b):
    """The entries of `interleaving._IntView.entries` at (a, b) on barcodes
    without repeated bars, from the all-pairs adjacency and the full-merge
    matching."""
    u_entries: Dict[Tuple[int, int], int] = {}
    v_entries: Dict[Tuple[int, int], int] = {}
    for f_bars, g_bars, adj, req_l, req_r in _int_covering_graphs(F, G, a, b):
        m = matching_covering_oracle(len(f_bars), len(g_bars), adj, req_l, req_r)
        if m is None:
            return None
        for i, j in m.items():
            u_entries[(g_bars[j][0], f_bars[i][0])] = 1
            v_entries[(f_bars[i][0], g_bars[j][0])] = 1
    return u_entries, v_entries


def is_blown_up_covering(F: Barcode, G: Barcode, a, b, u_entries, v_entries) -> bool:
    """Whether (u_entries, v_entries) are one matching between the bars of
    F and G, every pair an edge of the all-pairs adjacency at (a, b), that
    covers every bar longer than a + b: the form a decision on classes of
    equal bars must give, whichever copies it pairs."""
    pairs = sorted((i, j) for (j, i), x in u_entries.items() if x == 1)
    if len(pairs) != len(u_entries) or v_entries != {p: 1 for p in pairs}:
        return False
    left, right = [i for i, _ in pairs], [j for _, j in pairs]
    if len(set(left)) < len(left) or len(set(right)) < len(right):
        return False
    edges, required = set(), set()
    for f_bars, g_bars, adj, req_l, req_r in _int_covering_graphs(F, G, a, b):
        edges.update((f_bars[i][0], g_bars[j][0]) for i, row in enumerate(adj) for j in row)
        required.update(("F", f_bars[i][0]) for i in req_l)
        required.update(("G", g_bars[j][0]) for j in req_r)
    covered = {("F", i) for i in left} | {("G", j) for j in right}
    return set(pairs) <= edges and required <= covered


# ---------------------------------------------------------------------------
# direct sums
#
# A graded instance built one degree at a time is the block-diagonal sum of
# its degrees; the canonical graded check compares against these.


def merge_barcodes(parts: Sequence[Barcode]) -> Tuple[Barcode, List[List[int]]]:
    """Disjoint union of barcodes plus, per part, the index of each bar
    inside the merged canonical ordering."""
    tagged = []
    for pi, part in enumerate(parts):
        for i, bar in enumerate(part.bars):
            tagged.append((bar.key(), pi, i, bar))
    tagged.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    merged = Barcode(rec[3] for rec in tagged)
    maps: List[List[int]] = [[0] * len(p) for p in parts]
    for new_idx, (_, pi, i, _) in enumerate(tagged):
        maps[pi][i] = new_idx
    return merged, maps


def direct_sum(morphisms: Sequence[Morphism]) -> Morphism:
    """Block-diagonal sum; sources and targets are merged canonically."""
    if not morphisms:
        raise ValueError("empty direct sum")
    field = morphisms[0].field
    if any(m.field != field for m in morphisms):
        raise ValueError("mismatched scalar fields")
    src, src_maps = merge_barcodes([m.source for m in morphisms])
    tgt, tgt_maps = merge_barcodes([m.target for m in morphisms])
    ent: Dict[Tuple[int, int], object] = {}
    for k, m in enumerate(morphisms):
        for (t, s), v in m.entries.items():
            ent[(tgt_maps[k][t], src_maps[k][s])] = v
    return Morphism(src, tgt, ent, field)


# ---------------------------------------------------------------------------
# differential oracle for graded tower diagonalization
#
# `limits` diagonalizes a whole graded tower in one pass.  This is the
# per-degree split it replaced: cut the tower (reverses filled in) into one
# sub-tower per degree, diagonalize each, and glue the chains, bars and
# cones back together through per-stage index maps.


def split_system_oracle(system):
    """[(degree, stages, maps, reverses, indices)] per degree, where
    indices[k][i] is the full stage-k index of piece bar i."""
    system = system.with_reverses()
    splits = [st.split_by_degree() for st in system.stages]
    pieces = []
    for deg in sorted({bar.degree for st in system.stages for bar in st.bars}):
        stages, idx = [], []
        for sp in splits:
            piece, ind = sp.get(deg, (Barcode([]), []))
            stages.append(piece)
            idx.append(list(ind))
        maps = [f.restrict_source(idx[n]).restrict_target(idx[n + 1]) for n, f in enumerate(system.maps)]
        revs = [g.restrict_source(idx[n + 1]).restrict_target(idx[n]) for n, g in enumerate(system.reverses)]
        pieces.append((deg, stages, maps, revs, idx))
    return pieces


def _diagonalized_pieces(system):
    """(degree, stages, indices, stage records) per degree."""
    return [
        (deg, stages, idx, diagonalize_system(InductiveSystem(stages, maps, system.slacks, revs, system.field)))
        for deg, stages, maps, revs, idx in split_system_oracle(system)
    ]


def _piece_diagonal(stages, rec, fld) -> Morphism:
    entries = {(rec.result.sigma[p], i): fld.one for p, i in enumerate(rec.live)}
    return Morphism(stages[rec.stage], stages[rec.stage + 1], entries, fld)


def _chains_oracle(records, final: Barcode, floor):
    """[(birth, indices, alive)]: from every live bar that no live bar of
    the stage before maps to, follow sigma forward until a bar is not live;
    then every bar of `final` longer than `floor` that the last step does
    not reach."""
    steps = [{i: rec.result.sigma[p] for p, i in enumerate(rec.live)} for rec in records]
    out = []
    for n, step in enumerate(steps):
        reached = set(steps[n - 1].values()) if n else set()
        for i in sorted(set(step) - reached):
            path, k = [i], n
            while k < len(steps) and path[-1] in steps[k]:
                path.append(steps[k][path[-1]])
                k += 1
            out.append((n, path, k == len(steps)))
    reached = set(steps[-1].values())
    out += [(len(steps), [j], True) for j, bar in enumerate(final.bars) if j not in reached and bar.interval.length > floor]
    return out


def hocolim_oracle(system) -> HocolimResult:
    """`hocolim` of a tower of two or more stages, degree by degree."""
    out_bars, chains, cone = [], [], []
    for deg, stages, idx, records in _diagonalized_pieces(system):
        for birth, path, alive in _chains_oracle(records, stages[-1], system.slacks[-1]):
            chains.append(Chain(deg, birth, tuple(idx[birth + k][i] for k, i in enumerate(path)), alive))
            if alive:
                out_bars.append(stages[-1].bars[path[-1]])
        cone.extend(cone_diagonal(_piece_diagonal(stages, records[-1], system.field)).bars)
    return HocolimResult(Barcode(out_bars), 4 * gamma_to_zero(Barcode(cone)), tuple(chains))


def defect_check_oracle(system, n: int):
    """`defect_check` degree by degree: cone bars of every degree are pooled
    before each gamma-size is taken."""
    n_steps = len(system.maps)
    if n == n_steps:
        return ExtRat(0), ExtRat(0), True
    composite_cone: List[Bar] = []
    step_cones: List[List[Bar]] = [[] for _ in range(n, n_steps)]
    for _, stages, _, records in _diagonalized_pieces(system):
        ext = [_piece_diagonal(stages, rec, system.field) for rec in records[n:]]
        comp = ext[0]
        for nxt in ext[1:]:
            comp = compose(comp, nxt)
        composite_cone.extend(cone_diagonal(comp).bars)
        for k, e in enumerate(ext):
            step_cones[k].extend(cone_diagonal(e).bars)
    lhs = gamma_to_zero(Barcode(composite_cone))
    rhs = ExtRat(0)
    for bars in step_cones:
        rhs = rhs + gamma_to_zero(Barcode(bars))
    rhs = 2 * rhs
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------------
# differential oracles for the tower readings
#
# `diagonalize_system` rebases each reverse map on phi with the reverse
# map's own target as phi's object, and `limits` reads each cone size off
# the cone's bar ends.  These are the code they replaced: the rebase on a
# translate of phi built as a new morphism, and each cone built as a
# barcode whose longest bar is then taken.


def diagonalize_system_oracle(system) -> List[StageDiagonalization]:
    """`diagonalize_system`, rebasing each reverse map on phi shifted by the
    next slack."""
    system = system.with_reverses()
    slacks, fwd, rev, out = system.slacks, list(system.maps), list(system.reverses), []
    for n, eps in enumerate(slacks):
        live = tuple(i for i, bar in enumerate(system.stages[n].bars) if bar.interval.length > 2 * eps)
        try:
            res = canonical_form(fwd[n].restrict_source(live), rev[n].restrict_target(live), eps)
        except DiagonalizationError as err:
            raise DiagonalizationError(f"stage {n}: {err}", stage=n) from err
        out.append(StageDiagonalization(stage=n, live=live, result=res))
        if n + 1 < len(slacks):
            fwd[n + 1] = compose(res.phi_inverse, fwd[n + 1])
            rev[n + 1] = compose(rev[n + 1], morphism_shift_oracle(res.phi, slacks[n + 1]))
    return out


def cone_barcode_oracle(src: Barcode, tgt: Barcode, step) -> Barcode:
    """Barcode of the mapping cone of the diagonal map that sends source
    bar s to target bar step[s] by the canonical generator."""
    bars: List[Bar] = []
    for s, bar in enumerate(src.bars):
        d, i = bar.degree, bar.interval
        if s not in step:
            bars.append(Bar(d + 1, i))
            continue
        j = tgt.bars[step[s]].interval
        if i.hi < j.hi:
            bars.append(Bar(d, Interval(i.hi, j.hi)))
        if i.lo < j.lo:
            bars.append(Bar(d + 1, Interval(i.lo, j.lo)))
    hit = set(step.values())
    bars += [bar for t, bar in enumerate(tgt.bars) if t not in hit]
    return Barcode(bars)


def tower_readings_oracle(system):
    """(`hocolim`, [`defect_check` at every index]) of a tower, from
    `diagonalize_system_oracle`, with each cone built by
    `cone_barcode_oracle` and measured by `gamma_to_zero`."""
    stages = system.stages
    steps = [{i: rec.result.sigma[p] for p, i in enumerate(rec.live)} for rec in diagonalize_system_oracle(system)]
    size = lambda src, tgt, step: gamma_to_zero(cone_barcode_oracle(src, tgt, step))
    chains = _follow_chains(stages, steps, system.slacks[-1] if steps else 0)
    out_bars = [stages[-1].bars[ch.indices[-1]] for ch in chains if ch.alive]
    bound = 4 * size(stages[-2], stages[-1], steps[-1]) if steps else ExtRat(0)
    triples = []
    for n in range(len(steps)):
        first, last = stages[n].bars, stages[-1].bars
        composite = {
            ch.indices[0]: ch.indices[-1]
            for ch in _follow_chains(stages[n:], steps[n:], 0)
            if ch.birth == 0 and ch.alive and last[ch.indices[-1]].interval.lo < first[ch.indices[0]].interval.hi
        }
        rhs = ExtRat(0)
        for src, tgt, step in zip(stages[n:], stages[n + 1:], steps[n:]):
            rhs = rhs + size(src, tgt, step)
        lhs, rhs = size(stages[n], stages[-1], composite), 2 * rhs
        triples.append((lhs, rhs, lhs <= rhs))
    triples.append((ExtRat(0), ExtRat(0), True))
    return HocolimResult(Barcode(out_bars), bound, tuple(chains)), triples

# ---------------------------------------------------------------------------
# differential oracle for Cauchy completion
#
# `limits.complete_cauchy` follows each step certificate's forward matching
# directly.  This is the synthetic tower it replaced: per degree, re-anchor
# every stage by the summed certificate totals after it, pad each shifted
# forward map with a canonical comparison, build and re-verify the tower,
# take its `hocolim`, and shift each chain's endpoints back.


def complete_cauchy_oracle(seq: Sequence[Barcode], field=GF2) -> CompletionResult:
    """`complete_cauchy` through a synthetic tower, with no tolerance check;
    the start index is the first whose suffix is Cauchy, the last one
    included."""
    degrees = sorted({bar.degree for b in seq for bar in b.bars})
    pieces = [
        {deg: sp.get(deg, (Barcode([]), []))[0] for deg in degrees}
        for sp in (b.split_by_degree() for b in seq)
    ]
    reports = [
        {deg: gamma(pieces[i][deg], pieces[i + 1][deg], field=field) for deg in degrees}
        for i in range(len(seq) - 1)
    ]
    steps = [max((rep.value for rep in reps.values()), default=ExtRat(0)) for reps in reports]
    start = next(
        s for s in range(len(seq)) if all(steps[s + j] <= Fraction(1, 2 ** j) for j in range(len(steps) - s))
    )
    m = len(seq) - 1 - start
    step_certs: List[Dict[int, InterleavingCertificate]] = [dict() for _ in range(m)]
    out_bars: List[Bar] = []
    for deg in sorted({bar.degree for b in seq[start:] for bar in b.bars}):
        certs = [reports[start + j][deg].certificate for j in range(m)]
        for j, cert in enumerate(certs):
            step_certs[j][deg] = cert
        eps = [Fraction(0)] * (m + 1)
        for j in range(m - 1, -1, -1):
            eps[j] = eps[j + 1] + certs[j].total
        anchored = [pieces[start + j][deg].shift(-eps[j]) for j in range(m + 1)]
        fwd, rev, slk = [], [], []
        for j, cert in enumerate(certs):
            pad = tau_morphism(anchored[j + 1].shift(-cert.b), cert.b, field)
            fwd.append(compose(morphism_shift_oracle(cert.u, -eps[j]), pad))
            rev.append(morphism_shift_oracle(cert.v, -eps[j + 1]))
            slk.append(cert.b + cert.total)
        res = hocolim(InductiveSystem(anchored, fwd, slk, rev, field))
        for ch in res.chains:
            if ch.alive:
                ends = [anchored[ch.birth + k].bars[i].interval for k, i in enumerate(ch.indices)]
                shifts = [eps[ch.birth + k] for k in range(len(ends))]
                lo = _extrapolate([iv.lo + e for iv, e in zip(ends, shifts)])
                hi = _extrapolate([iv.hi + e for iv, e in zip(ends, shifts)])
                if lo < hi:
                    out_bars.append(Bar(deg, Interval(lo, hi)))
    output = Barcode(out_bars)
    final = gamma(output, seq[-1], field=field)
    return CompletionResult(output, start, tuple(range(start, len(seq))), tuple(step_certs), final)


# ---------------------------------------------------------------------------
# differential oracle for the row-dict diagonalization
#
# `canonical.canonical_form` eliminates on plain dicts of rows (phi inverse
# by columns).  This is the hom-constrained matrix class it replaced, whose
# row and column operations scan every entry, and the elimination on it.


class _Tracked:
    """Hom-constrained working matrix: writes to forbidden cells vanish.

    Forbidden cells can only ever hold values that the generator calculus
    already maps to zero (the row operations we apply are themselves
    morphisms, and composition kills those paths), so dropping them keeps
    the matrix equal to the true composite at every step.
    """

    __slots__ = ("src", "tgt", "entries", "field")

    def __init__(self, src_bars, tgt_bars, entries, field):
        self.src = list(src_bars)
        self.tgt = list(tgt_bars)
        self.entries: Dict[Tuple[int, int], object] = dict(entries)
        self.field = field

    @classmethod
    def from_morphism(cls, m: Morphism) -> "_Tracked":
        return cls(m.source.bars, m.target.bars, m.entries, m.field)

    @classmethod
    def identity_on(cls, b: Barcode, field) -> "_Tracked":
        ent = {(i, i): field.one for i in range(len(b))}
        return cls(b.bars, b.bars, ent, field)

    def _put(self, t: int, s: int, val) -> None:
        if val == self.field.zero or not _cell_allowed(self.src[s], self.tgt[t]):
            self.entries.pop((t, s), None)
        else:
            self.entries[(t, s)] = val

    def row(self, r: int) -> List[Tuple[int, int]]:
        return [k for k in self.entries if k[0] == r]

    def col(self, c: int) -> List[Tuple[int, int]]:
        return [k for k in self.entries if k[1] == c]

    def rowscale(self, r: int, lam) -> None:
        for t, s in self.row(r):
            self._put(t, s, self.field.mul(lam, self.entries[(t, s)]))

    def rowadd(self, t: int, r: int, lam) -> None:
        """row_t += lam * row_r (t != r)."""
        for _, s in self.row(r):
            cur = self.entries.get((t, s), self.field.zero)
            self._put(t, s, self.field.add(cur, self.field.mul(lam, self.entries[(r, s)])))

    def colscale(self, c: int, lam) -> None:
        for t, s in self.col(c):
            self._put(t, s, self.field.mul(lam, self.entries[(t, s)]))

    def coladd(self, dst: int, src: int, lam) -> None:
        """col_dst += lam * col_src (dst != src)."""
        for t, _ in self.col(src):
            cur = self.entries.get((t, dst), self.field.zero)
            self._put(t, dst, self.field.add(cur, self.field.mul(lam, self.entries[(t, src)])))

    def to_morphism(self, source: Barcode, target: Barcode) -> Morphism:
        return Morphism(source, target, self.entries, self.field)


def canonical_form_tracked_oracle(u: Morphism, v: Morphism, eps) -> CanonicalFormResult:
    """Diagonalize u by an automorphism of its target.

    Contract: u goes from G to G', v goes back from G' to the eps-shift
    of G, every bar of G is longer than eps, and v after u equals the
    canonical comparison at shift eps.  Under that contract a
    diagonalization by target automorphisms exists and is found here;
    violations raise :class:`DiagonalizationError`.

    G and G' may be graded.  A morphism has no entries between degrees,
    so every support, pivot and row operation stays inside one degree,
    and the result is the direct sum of the per-degree results.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise DiagonalizationError(f"negative shift {eps}")
    G, Gp = u.source, u.target
    field = u.field
    if v.field != field:
        raise DiagonalizationError("mismatched scalar fields")
    if v.source != Gp or v.target != G.shift(eps):
        raise DiagonalizationError("v must map the target of u back to the shifted source")
    for bar in G.bars:
        if not (bar.interval.length > eps):
            raise DiagonalizationError(f"bar {bar!r} is not longer than the shift {eps}")
    if not equals_tau(compose(u, v), eps):
        raise DiagonalizationError("round trip is not the canonical comparison map")

    m = _Tracked.from_morphism(u)
    phi = _Tracked.identity_on(Gp, field)
    phi_inv = _Tracked.identity_on(Gp, field)
    used = set()
    sigma: Dict[int, int] = {}

    for col in range(len(G)):
        support = sorted(t for (t, s) in m.entries if s == col)
        if not support:
            # Cannot happen when the round-trip contract holds: the
            # comparison map keeps a unit on every (long) diagonal cell,
            # and the tracked matrix stays a genuine factor of it.
            raise DiagonalizationError(f"column {col} has empty support")
        lo_min = min(Gp.bars[t].interval.lo for t in support)
        hi_min = min(Gp.bars[t].interval.hi for t in support)
        least = [
            t
            for t in support
            if Gp.bars[t].interval.lo == lo_min and Gp.bars[t].interval.hi == hi_min
        ]
        if not least:
            raise DiagonalizationError(
                f"column {col}: support intervals are incomparable (no least element)"
            )
        fresh = [t for t in least if t not in used]
        if not fresh:
            raise DiagonalizationError(
                f"column {col}: every least support row already pivots another column"
            )
        r = fresh[0]
        lam = m.entries[(r, col)]
        if lam != field.one:
            inv = field.inv(lam)
            m.rowscale(r, inv)
            phi.rowscale(r, inv)
            phi_inv.colscale(r, lam)
        for t in support:
            if t == r:
                continue
            mu = m.entries.get((t, col))
            if mu is None:
                continue
            neg = field.neg(mu)
            m.rowadd(t, r, neg)
            phi.rowadd(t, r, neg)
            phi_inv.coladd(r, t, mu)
        used.add(r)
        sigma[col] = r

    phi_m = phi.to_morphism(Gp, Gp)
    phi_inv_m = phi_inv.to_morphism(Gp, Gp)
    diag = m.to_morphism(G, Gp)

    ident = identity(Gp, field)
    postconditions = (
        (compose(u, phi_m) == diag, "tracked matrix drifted from the recomputed composite"),
        (compose(phi_m, phi_inv_m) == ident, "tracked inverse fails on the left"),
        (compose(phi_inv_m, phi_m) == ident, "tracked inverse fails on the right"),
        (diag.entries == {(r, i): field.one for i, r in sigma.items()}, "result is not a 0/1 diagonal"),
        (len(set(sigma.values())) == len(sigma), "two source bars share a target bar"),
    )
    for holds, message in postconditions:
        if not holds:
            raise DiagonalizationError(f"postcondition failed: {message}")

    for i, r in sigma.items():
        src = G.bars[i].interval
        tgt = Gp.bars[r].interval
        ok = (
            src.lo <= tgt.lo
            and tgt.lo <= src.lo + eps
            and src.hi <= tgt.hi
            and tgt.hi <= src.hi + eps
        )
        if not ok:
            raise DiagonalizationError(
                f"matched pair {src} -> {tgt} drifts by more than {eps}"
            )

    return CanonicalFormResult(phi=phi_m, phi_inverse=phi_inv_m, diagonalized=diag, sigma=sigma)
