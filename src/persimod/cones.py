"""Finite-sample tangent cones and a cone-level coisotropy test.

Unlike the rest of the package this module works in double precision:
secant directions of a sampled set are approximate by nature, so the
scale list and angular resolution are parameters and the tolerances are
named constants.  It is the only module that imports numpy.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "PointCloud",
    "DirectionSet",
    "Hyperplane",
    "ConeParams",
    "Verdict",
    "standard_symplectic_matrix",
    "contingent",
    "paratingent",
    "cone_coisotropy_test",
]

# Direction sets are deduplicated on a rounding grid of this cell size
# (about 1.2 degrees) before any angular test; together with the per-scale
# cap on pair secants this keeps the quadratic paratingent sets small.
# The induced error is far below the default 5-degree resolution.  Inputs
# are unit vectors, so cells are int8 rows in [-50, 50]: one integer sort
# for any dimension.
_QUANT = 0.02
# The finest angular resolution a direction set can honour: one grid cell.
_THETA_MIN = math.degrees(_QUANT)
_PAIR_CAP = 200
# Entries of one candidates-by-set product in `_near` and `_dedupe`: 2^18
# float64 products, 2 MB, unless one row's band alone (two rows' in
# `_near`) holds more.  The product is the largest temporary of a cone
# test, so it sets the test's peak memory.
_DOT_ENTRIES = 2 ** 18
# Rows `_dedupe` compares with the kept rows at once before its greedy pass.
_DEDUPE_ROWS = 64
# Paratingent rank cut, relative to the largest singular value.  A direction
# set holds renormalized cell centres, each up to _QUANT / 2 per coordinate
# off its secant, so a sampled subspace reads with singular values off its
# span.  On random rational lines, planes and unions of two in R^4 to R^8
# those measured at most 0.7 _QUANT relative to the largest, and directions
# in the span at least 6 _QUANT; the cut sits at 2.5 grid cells.
_SV_REL_TOL = 2.5 * _QUANT
# The largest distance from the base point a cloud may reach, exclusive.
# Norms square coordinates; a secant between two points within it of the
# base point is under 2^511 long, so its squared norm stays below 2^1022.
_MAX_RADIUS = 2.0 ** 510
# Normal-grid step (degrees), default scale count.
_GRID_DEG = 10.0
_N_SCALES = 9


class PointCloud:
    """Deduplicated finite sample of R^{2n}, coordinates (q_1..q_n, p_1..p_n)."""

    __slots__ = ("points", "dimension")

    def __init__(self, points):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2:
            raise ValueError("points must be a 2-D array-like")
        if arr.shape[1] % 2 != 0 or arr.shape[1] < 2:
            raise ValueError("ambient dimension must be even and >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("points must be finite")
        arr = np.unique(arr, axis=0)
        arr.setflags(write=False)
        self.points = arr
        self.dimension = arr.shape[1]

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class DirectionSet:
    """Unit vectors recorded at angular resolution theta_res (degrees)."""

    vectors: np.ndarray
    theta_res: float

    def contains(self, v, theta_deg: Optional[float] = None) -> bool:
        theta = self.theta_res if theta_deg is None else theta_deg
        if not math.isfinite(theta):
            raise ValueError(f"theta_deg must be finite, not {theta}")
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(v)
        # a norm that underflows to 0 or overflows has no direction to test
        if not (np.all(np.isfinite(v)) and 0 < norm < math.inf):
            raise ValueError("vector must be finite, with a finite nonzero norm")
        if len(self.vectors) == 0:
            return False
        return bool(np.max(self.vectors @ (v / norm)) >= math.cos(math.radians(theta)) - 1e-12)


@dataclass(frozen=True)
class Hyperplane:
    """ker <normal, .> for a unit normal."""

    normal: np.ndarray


@dataclass(frozen=True)
class ConeParams:
    scales: Optional[Tuple[float, ...]] = None
    theta_res: float = 5.0


@dataclass(frozen=True)
class Verdict:
    kind: str  # CoisotropicVacuous | Coisotropic | NotCoisotropic
    witness: Optional[Hyperplane] = None


def standard_symplectic_matrix(n: int) -> np.ndarray:
    """The complex-structure matrix J with J(q, p) = (-p, q)."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, -eye], [eye, zero]])


def _distances(cloud: PointCloud, x: np.ndarray) -> np.ndarray:
    """The distance from x to each point of the cloud, which must all be
    below _MAX_RADIUS; an overflowing norm reads inf, without a warning."""
    with np.errstate(over="ignore"):
        dists = np.linalg.norm(cloud.points - x, axis=1)
    if not np.max(dists) < _MAX_RADIUS:
        raise ValueError("secant norms overflow: a point lies 2^510 (about 3.4e153) or farther from the base point")
    return dists


def _default_scales(dists: np.ndarray) -> List[float]:
    """r0, the largest distance from x, halved eight times.  Where the
    finest of those holds no other point, the scales run geometrically from
    r0 down to exactly the nearest other point's distance instead."""
    r0 = float(np.max(dists))
    if r0 == 0.0:
        raise ValueError("no secants: the cloud has no point distinct from x")
    scales = [r0 * 2.0 ** (-j) for j in range(_N_SCALES)]
    near = float(np.min(dists[dists > 0]))
    steps = [r0 * (near / r0) ** (j / (_N_SCALES - 1)) for j in range(_N_SCALES - 1)] + [near]
    # kept only where they strictly decrease: not where near is r0 to rounding
    return steps if scales[-1] < near and all(b < a for a, b in zip(steps, steps[1:])) else scales


def _cells(vecs: np.ndarray) -> np.ndarray:
    """The _QUANT grid cell of each unit vector, as an int8 row."""
    return np.round(vecs / _QUANT).astype(np.int8)


def _distinct(cells: np.ndarray) -> np.ndarray:
    """The distinct rows of an int8 array, in lexicographic order."""
    cells = cells[np.lexsort(cells.T[::-1])]
    first = np.ones(len(cells), dtype=bool)
    first[1:] = np.any(cells[1:] != cells[:-1], axis=1)
    return cells[first]


def _centres(cells: np.ndarray) -> np.ndarray:
    """The distinct cells, in lexicographic order (which the greedy
    `_dedupe` depends on), as renormalized cell centres."""
    if len(cells) == 0:
        return cells.astype(float)
    cells = _distinct(cells) * _QUANT
    norms = np.linalg.norm(cells, axis=1)
    keep = norms > 1e-9
    return cells[keep] / norms[keep][:, None]


def _band_half(cos_t: float) -> float:
    """Unit vectors with u.v >= cos_t lie within this of each other on every
    coordinate: |u_0 - v_0| <= |u - v| = sqrt(2 - 2 u.v).  The margin covers
    the rounding of renormalized rows and of their products."""
    return math.sqrt(max(0.0, 2.0 - 2.0 * cos_t)) + 1e-9


def _near(rows: np.ndarray, vecs: np.ndarray, cos_t: float, half: float) -> np.ndarray:
    """Which rows have a product >= cos_t with some row of vecs; both are
    sorted by their first coordinate.  A chunk of rows meets only the slice
    of vecs within `half` of its first coordinates, and a chunk grows while
    its product stays within _DOT_ENTRIES entries (two rows at least).  A
    product may round differently in its last bit under another chunking;
    the angular tests compare with cos(theta) - 1e-12, far wider."""
    out = np.zeros(len(rows), dtype=bool)
    keys = vecs[:, 0]
    lo = np.searchsorted(keys, rows[:, 0] - half, "left").tolist()
    hi = np.searchsorted(keys, rows[:, 0] + half, "right").tolist()
    n, a = len(rows), 0
    while a < n:
        lo_a = lo[a]
        b = a + bisect.bisect_right(range(a + 1, n + 1), _DOT_ENTRIES, key=lambda c: (c - a) * (hi[c - 1] - lo_a))
        b = max(b, min(a + 2, n))
        if hi[b - 1] > lo_a:
            out[a:b] = (rows[a:b] @ vecs[lo_a:hi[b - 1]].T).max(axis=1) >= cos_t
        a = b
    return out


def _greedy(vecs: np.ndarray, cos_t: float) -> List[int]:
    """Indices of the rows kept by a greedy pass: a row is kept unless its
    product with a row kept before it reaches cos_t."""
    kept = np.empty_like(vecs)
    idx = []
    for i, v in enumerate(vecs):
        if not idx or np.max(kept[:len(idx)] @ v) < cos_t:
            kept[len(idx)] = v
            idx.append(i)
    return idx


def _dedupe(vecs: np.ndarray, theta_deg: float) -> np.ndarray:
    """The rows of vecs, in order, that lie over theta from every row kept
    before them.  A chunk of _DEDUPE_ROWS rows (fewer if its product would
    pass _DOT_ENTRIES entries) meets only the kept rows in its band of first
    coordinates, then `_greedy` runs over the chunk's survivors."""
    cos_t = math.cos(math.radians(theta_deg))
    half = _band_half(cos_t)
    order = np.argsort(vecs[:, 0], kind="stable")
    keys = vecs[order, 0]
    kept = np.zeros(len(vecs), dtype=bool)
    a = 0
    while a < len(vecs):
        b = min(a + _DEDUPE_ROWS, len(vecs))
        while True:
            firsts = vecs[a:b, 0]
            band = order[np.searchsorted(keys, firsts.min() - half, "left"):
                         np.searchsorted(keys, firsts.max() + half, "right")]
            cols = band[kept[band]]
            if b - a == 1 or (b - a) * len(cols) <= _DOT_ENTRIES:
                break
            b = a + max(1, _DOT_ENTRIES // len(cols))
        fresh = np.arange(a, b)
        if len(cols):
            fresh = fresh[(vecs[a:b] @ vecs[cols].T).max(axis=1) < cos_t]
        kept[fresh[_greedy(vecs[fresh], cos_t)]] = True
        a = b
    return vecs[kept]


def _persisting(fine: List[np.ndarray], theta_deg: float) -> np.ndarray:
    """Directions present (within theta) at every scale of `fine`: the
    finest ceil(half) of the scale list, ordered coarse -> fine.  Each scale
    is sorted by first coordinate once, and it is compared only with the
    candidates that the scales before it kept."""
    if len(fine[-1]) == 0:
        raise ValueError("empty neighborhood at the finest scale")
    candidates = _centres(_cells(np.concatenate([s for s in fine if len(s)], axis=0)))
    cos_t = math.cos(math.radians(theta_deg)) - 1e-12
    half = _band_half(cos_t)
    alive = np.argsort(candidates[:, 0], kind="stable")
    for s in fine:
        if len(s) == 0:
            return candidates[:0]
        s = s[np.argsort(s[:, 0], kind="stable")]
        alive = alive[_near(candidates[alive], s, cos_t, half)]
    keep = np.zeros(len(candidates), dtype=bool)
    keep[alive] = True
    return _dedupe(candidates[keep], theta_deg)


def _cone(cloud: PointCloud, x, params: ConeParams, pairs: bool) -> DirectionSet:
    x = np.asarray(x, dtype=float)
    if x.shape != (cloud.dimension,):
        raise ValueError(f"base point must have dimension {cloud.dimension}")
    if not np.all(np.isfinite(x)):
        raise ValueError("base point must be finite")
    # Also refuses a NaN or infinite theta_res.  From 90 degrees on, each
    # vector of a direction set holds a whole closed half-sphere.
    if not _THETA_MIN <= params.theta_res < 90:
        raise ValueError(
            f"theta_res must be at least {_THETA_MIN:.3f} degrees, the rounding grid, and below 90, "
            f"not {params.theta_res}"
        )
    dists = _distances(cloud, x)
    scales = list(params.scales) if params.scales is not None else _default_scales(dists)
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    per_scale = []
    for r in scales[len(scales) // 2:]:
        if pairs:
            near = cloud.points[dists <= r]
            if len(near) > _PAIR_CAP:
                near = near[np.linspace(0, len(near) - 1, _PAIR_CAP).astype(int)]
            i, j = np.triu_indices(len(near), 1)
            diff = near[i] - near[j]
        else:
            diff = cloud.points[(dists > 0) & (dists <= r)] - x
        norms = np.linalg.norm(diff, axis=1)
        cells = _cells(diff[norms > 0] / norms[norms > 0][:, None])
        if pairs:
            # diff holds p - q for each unordered pair.  q - p is its exact
            # negative, and so is its cell (division and rounding are odd),
            # so the set is closed under v -> -v.
            cells = _distinct(cells)
            cells = np.concatenate([cells, -cells])
        per_scale.append(_centres(cells))
    return DirectionSet(_persisting(per_scale, params.theta_res), params.theta_res)


def contingent(cloud: PointCloud, x, *, params: Optional[ConeParams] = None) -> DirectionSet:
    """Directions of secants from x into the cloud that persist across the
    finest half of the scale list."""
    return _cone(cloud, x, params or ConeParams(), pairs=False)


def paratingent(cloud: PointCloud, x, *, params: Optional[ConeParams] = None) -> DirectionSet:
    """Directions of secants between pairs of cloud points near x; closed
    under v -> -v by construction."""
    return _cone(cloud, x, params or ConeParams(), pairs=True)


def _angle_tuples(grids):
    """The tuples of itertools.product(*grids), in its order, except that
    after an angle of zero sine (0 or 180 degrees) other than the last, the
    later angles keep their first value: they only move coordinates that
    angle has zeroed, so every such tuple gives the same grid vector."""
    idx = [0] * len(grids)
    while True:
        combo = [g[i] for g, i in zip(grids, idx)]
        yield combo
        # the last angle that moves: the first of zero sine, else the last
        p = next((k for k, a in enumerate(combo[:-1]) if abs(math.sin(a)) < 1e-12), len(grids) - 1)
        while idx[p] == len(grids[p]) - 1:
            idx[p] = 0
            p -= 1
            if p < 0:
                return
        idx[p] += 1


def _sphere_grid(dim: int, step_deg: float, cap: int = 20000) -> List[np.ndarray]:
    """Unit vectors on S^{dim-1}, one per grid cell of step_deg, with
    antipodes identified (a hyperplane normal is a sign-free datum).
    At most 2 * cap angle tuples are walked.  Up to dimension 11 the walk
    reaches `cap` vectors first; above it, ever more tuples round to a key
    already seen, and the walk stops with fewer."""
    if dim == 1:
        return [np.array([1.0])]
    angle_grids = [np.radians(np.arange(0, 180 + step_deg, step_deg))] * (dim - 2)
    last = np.radians(np.arange(0, 180, step_deg))
    out, seen = [], set()
    for combo in itertools.islice(_angle_tuples(angle_grids + [last]), 2 * cap):
        v = np.zeros(dim)
        sin_prod = 1.0
        for i, a in enumerate(combo):
            v[i] = sin_prod * math.cos(a)
            sin_prod *= math.sin(a)
        v[dim - 1] = sin_prod
        v = v / np.linalg.norm(v)
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


def cone_coisotropy_test(cloud: PointCloud, x, params: Optional[ConeParams] = None) -> Verdict:
    """Decide cone-level coisotropy of the sampled set at x.

    The paratingent span is estimated by singular values; full rank means
    no hyperplane contains the big cone (vacuously coisotropic).  Otherwise
    every unit normal nu orthogonal to the span (axis-aligned candidates
    first, then a grid of the orthogonal sphere) defines a hyperplane
    containing the big cone; its symplectic orthogonal is the line through
    J nu, and coisotropy demands both signs of J nu lie in the small cone.
    A failing normal is re-confirmed against a cone recomputed at halved
    angular resolution, but no finer than the rounding grid, before being
    returned as a witness.
    """
    params = params or ConeParams()
    x = np.asarray(x, dtype=float)
    n2 = cloud.dimension
    big = paratingent(cloud, x, params=params)
    if len(big.vectors) == 0:
        raise ValueError("empty paratingent cone")
    # U is never read, so it is reduced unless fewer than n2 rows would cut vt
    _, svals, vt = np.linalg.svd(big.vectors, full_matrices=len(big.vectors) < n2)
    rank = int(np.sum(svals > _SV_REL_TOL * svals[0]))
    if rank == n2:
        return Verdict("CoisotropicVacuous")
    # A nonempty finest paratingent scale has a point other than x in it, so
    # this raises nothing that `paratingent` did not.
    small = contingent(cloud, x, params=params)
    null_basis = vt[rank:]  # rows span the orthogonal complement
    j_mat = standard_symplectic_matrix(n2 // 2)

    candidates: List[np.ndarray] = []
    for i in range(n2):
        e = np.zeros(n2)
        e[i] = 1.0
        if np.linalg.norm(vt[:rank] @ e) <= 1e-8:
            candidates.append(e)
    for u in _sphere_grid(n2 - rank, _GRID_DEG):
        candidates.append(u @ null_basis)

    finer = replace(params, theta_res=max(params.theta_res / 2.0, _THETA_MIN))
    small_fine = None
    for nu in candidates:
        w = j_mat @ nu
        if small.contains(w) and small.contains(-w):
            continue
        if small_fine is None:
            small_fine = contingent(cloud, x, params=finer)
        if small_fine.contains(w, params.theta_res) and small_fine.contains(-w, params.theta_res):
            continue
        return Verdict("NotCoisotropic", Hyperplane(nu))
    return Verdict("Coisotropic")
