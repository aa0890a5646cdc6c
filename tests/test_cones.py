"""Sampled tangent cones, the coisotropy verdict, and Cantor-cube bounds."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from persimod import cones
from persimod.cantor import cantor_cubes, corner_cloud, displacement_bound
from persimod.cones import (
    ConeParams,
    PointCloud,
    cone_coisotropy_test,
    contingent,
    paratingent,
    standard_symplectic_matrix,
)
from oracles import coisotropy_union_oracle, cone_oracle, null_space_q, rank_q, sphere_grid_oracle

# radii 0.7^j reach below the finest default scale (r0 / 256), so every
# scale of the default ladder sees sample points
RADII = [0.7**j for j in range(20)]


def ray_cloud(directions, two_sided=True):
    dirs = []
    for d in directions:
        v = np.asarray(d, dtype=float)
        v = v / np.linalg.norm(v)
        dirs.append(v)
        if two_sided:
            dirs.append(-v)
    pts = [r * v for v in dirs for r in RADII]
    pts.append(np.zeros_like(dirs[0]))
    return PointCloud(pts)


def subspace_cloud(coords, dim=4):
    """Rays spanning the coordinate subspace.  Planes get a dense circle of
    directions: the verdict compares the small cone against hyperplane
    normals on a 10-degree grid, so the sample has to fill the plane's
    directions to within the 5-degree resolution."""
    dirs = []
    if len(coords) == 2:
        for theta in range(0, 360, 5):
            v = np.zeros(dim)
            v[coords[0]] = math.cos(math.radians(theta))
            v[coords[1]] = math.sin(math.radians(theta))
            dirs.append(v)
    else:
        if len(coords) == 4:
            # axes plus main diagonals already span; the full sign grid
            # just bloats the paratingent set
            patterns = list(itertools.product((-1, 1), repeat=4))
            for i in range(4):
                for s in (-1, 1):
                    patterns.append(tuple(s if j == i else 0 for j in range(4)))
        else:
            patterns = itertools.product((-1, 0, 1), repeat=len(coords))
        for signs in patterns:
            if any(signs):
                v = np.zeros(dim)
                for c, s in zip(coords, signs):
                    v[c] = s
                dirs.append(v)
    return ray_cloud(dirs, two_sided=False)


# --- point clouds and the symplectic matrix ---------------------------------


def test_point_cloud_validation():
    with pytest.raises(ValueError, match="2-D"):
        PointCloud([1.0, 2.0])
    with pytest.raises(ValueError, match="even"):
        PointCloud([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="finite"):
        PointCloud([[0.0, math.inf]])


def test_point_cloud_dedupes():
    cloud = PointCloud([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert len(cloud) == 2


def test_standard_symplectic_matrix():
    j = standard_symplectic_matrix(2)
    assert np.array_equal(j @ j, -np.eye(4))
    # (q, p) -> (-p, q): q_1 goes to p_1, p_1 comes back negated
    assert np.array_equal(j @ np.array([1.0, 0, 0, 0]), [0, 0, 1, 0])
    assert np.array_equal(j @ np.array([0, 0, 1.0, 0]), [-1, 0, 0, 0])


# --- contingent / paratingent ------------------------------------------------


def test_contingent_parabola_flattens():
    cloud = PointCloud([(t, t * t) for t in RADII] + [(-t, t * t) for t in RADII] + [(0, 0)])
    cone = contingent(cloud, (0, 0))
    assert cone.contains((1, 0))
    assert cone.contains((-1, 0))
    assert not cone.contains((0, 1))


def test_contingent_half_line_is_one_sided():
    cloud = ray_cloud([(1, 0)], two_sided=False)
    cone = contingent(cloud, (0, 0))
    assert cone.contains((1, 0))
    assert not cone.contains((-1, 0))


def test_paratingent_half_line_sees_both_signs():
    cloud = ray_cloud([(1, 0)], two_sided=False)
    cone = paratingent(cloud, (0, 0))
    assert cone.contains((1, 0))
    assert cone.contains((-1, 0))


def test_contingent_singleton_has_no_secants():
    with pytest.raises(ValueError, match="no secants"):
        contingent(PointCloud([[0.0, 0.0]]), (0, 0))


def test_contingent_empty_finest_scale():
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="empty neighborhood"):
        contingent(cloud, (0, 0), params=ConeParams(scales=(1.0, 0.5, 0.25, 0.125)))


@pytest.mark.parametrize("a, k, n", [(Fraction(1, 4), 1, 1), (Fraction(1, 4), 2, 1)])
def test_default_scales_reach_the_nearest_corner(a, k, n):
    """On these corner clouds the nearest other corner lies farther than
    r0 / 256 from every corner, so the halved scales held no point there.
    The scales run down to it instead, and every corner gets the exact
    answer: near a point of a disjoint closed cube the set is that cube."""
    cloud = corner_cloud(cantor_cubes(a, k, n))
    for x in cloud.points:
        dists = np.linalg.norm(cloud.points - x, axis=1)
        scales = cones._default_scales(dists)
        near = np.min(dists[dists > 0])
        assert scales[0] == np.max(dists) and scales[-1] == near > scales[0] / 256
        assert len(scales) == 9 and all(finer < coarser for coarser, finer in zip(scales, scales[1:]))
        assert cone_coisotropy_test(cloud, x).kind == "CoisotropicVacuous"


def test_default_scales_halve_where_the_finest_holds_a_point():
    """Where r0 / 256 reaches a point, and where the nearest point is as far
    as the farthest, the scales are r0 halved eight times, as before."""
    for dists in (np.array([0.0, 1.0, 0.5, 2.0 ** -8]), np.array([0.0, 1.0, 2.0 ** -9]), np.array([1.0, 1.0])):
        assert cones._default_scales(dists) == [2.0 ** -j for j in range(9)]
    with pytest.raises(ValueError, match="empty neighborhood"):
        contingent(PointCloud([[0.0, 0.0], [1.0, 0.0]]), (0, 0))


def test_cone_input_validation():
    cloud = ray_cloud([(1, 0)])
    with pytest.raises(ValueError, match="dimension 2"):
        contingent(cloud, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="strictly decreasing"):
        contingent(cloud, (0, 0), params=ConeParams(scales=(1.0, 1.0)))
    for x in ((math.inf, 0), (-math.inf, 0), (math.nan, 0)):
        with pytest.raises(ValueError, match="base point must be finite"):
            contingent(cloud, x)
    # below one grid cell of `_quantize`, or at 90 degrees and above, the
    # angular tests gave wrong verdicts
    plane = subspace_cloud((0, 1))
    for theta in (0.0, 1e-300, 0.2, 1.1, 90.0, 95.0, 720.0, math.inf, math.nan):
        for fn in (contingent, paratingent):
            with pytest.raises(ValueError, match="theta_res must be at least 1.146 degrees"):
                fn(plane, np.zeros(4), params=ConeParams(theta_res=theta))
    # a zero vector read 0/0 with a RuntimeWarning and answered False, as a
    # NaN vector or angle did without one; an empty set refuses them too
    cone = contingent(cloud, (0, 0))
    for dirs in (cone, cones.DirectionSet(np.zeros((0, 2)), 5.0)):
        for v in ((0, 0), (-0.0, 0), (math.nan, 1), (math.inf, 0), (1e-200, 0), (1e200, 1e200)):
            with pytest.raises(ValueError, match="vector must be finite, with a finite nonzero norm"):
                dirs.contains(v)
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="theta_deg must be finite"):
                dirs.contains((1, 0), theta)
    assert cone.contains((1e-150, 0)) and cone.contains((1e150, 0))


@pytest.mark.parametrize("coords, want", [((0, 1), "Coisotropic"), ((0, 2), "NotCoisotropic")])
def test_cone_angles_on_the_rounding_grid_keep_their_verdicts(coords, want):
    # the re-check at half the angle stops at the grid, so a resolution of
    # under two grid cells still confirms a witness
    for theta in (math.degrees(cones._QUANT), 1.5, 2.0, 89.0):
        assert cone_coisotropy_test(subspace_cloud(coords), np.zeros(4), ConeParams(theta_res=theta)).kind == want


def test_paratingent_sign_symmetric_and_contains_contingent():
    for cloud in (
        PointCloud([(t, t * t) for t in RADII] + [(0, 0)]),
        ray_cloud([(1, 0)], two_sided=False),
        subspace_cloud((0, 3)),
    ):
        x = np.zeros(cloud.dimension)
        small, big = contingent(cloud, x), paratingent(cloud, x)
        for v in big.vectors:
            assert big.contains(-v)
        for v in small.vectors:
            assert big.contains(v)


def test_paratingent_cantor_corner_contains_axes():
    cloud = corner_cloud(cantor_cubes(Fraction(1, 4), 2, 1))
    cone = paratingent(cloud, (0, 0), params=ConeParams(scales=(1.0, 0.5, 0.25, 0.125, 0.0625)))
    for v in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert cone.contains(v)


# --- coisotropy verdicts -----------------------------------------------------


def test_lagrangian_line_in_r2_is_coisotropic():
    verdict = cone_coisotropy_test(ray_cloud([(1, 0)]), (0, 0))
    assert verdict.kind == "Coisotropic"
    assert verdict.witness is None


def test_q1_axis_in_r4_is_not_coisotropic():
    verdict = cone_coisotropy_test(subspace_cloud((0,)), np.zeros(4))
    assert verdict.kind == "NotCoisotropic"
    normal = verdict.witness.normal
    # the failing hyperplane normal points along q2 or p2, within 10 degrees
    cos10 = math.cos(math.radians(10))
    assert max(abs(normal[1]), abs(normal[3])) >= cos10


def test_p1_zero_hyperplane_in_r4_is_coisotropic():
    verdict = cone_coisotropy_test(subspace_cloud((0, 1, 3)), np.zeros(4))
    assert verdict.kind == "Coisotropic"


def test_cantor_corner_sample_is_vacuous():
    cloud = corner_cloud(cantor_cubes(Fraction(1, 8), 3, 1))
    assert len(cloud) == 256
    verdict = cone_coisotropy_test(cloud, (0, 0))
    assert verdict.kind == "CoisotropicVacuous"


def _linear_coisotropic(coords, n=2):
    """Exact test for a coordinate subspace E: is E^omega contained in E?
    Pairing a q_i (resp. p_i) basis vector constrains the partner p_i
    (resp. q_i) coordinate of E^omega to vanish."""
    constrained = {c + n if c < n else c - n for c in coords}
    return all(j in coords for j in range(2 * n) if j not in constrained)


def test_verdict_matches_linear_algebra_on_coordinate_subspaces():
    params = ConeParams(scales=tuple(2.0 ** (-j) for j in range(6)))
    for size in range(1, 5):
        for coords in itertools.combinations(range(4), size):
            verdict = cone_coisotropy_test(subspace_cloud(coords), np.zeros(4), params)
            assert (verdict.kind != "NotCoisotropic") == _linear_coisotropic(coords), coords


def test_full_rank_cloud_is_vacuous():
    params = ConeParams(scales=tuple(2.0 ** (-j) for j in range(6)))
    verdict = cone_coisotropy_test(subspace_cloud((0, 1, 2, 3)), np.zeros(4), params)
    assert verdict.kind == "CoisotropicVacuous"


def _halves(draw, n):
    return [Fraction(draw(st.integers(-4, 4)), 2) for _ in range(n)]


@st.composite
def subspace_unions(draw, four=False):
    """(dim, pieces): a rational line or plane through 0 in R^4 or R^6, or
    a line with a line or a plane, each piece given by independent rows
    with entries in [-2, 2].  Half the time in R^4 it is a Lagrangian graph
    {(q, Sq)}, alone or with a line: coisotropic.  With `four`, two planes
    spanning four dimensions of R^6."""
    if four:
        pieces = [[_halves(draw, 6) for _ in range(2)] for _ in range(2)]
        assume(rank_q(pieces[0] + pieces[1]) == 4)
        return 6, pieces
    dim = draw(st.sampled_from((4, 6)))
    if dim == 4 and draw(st.booleans()):
        a, b, c = (Fraction(draw(st.integers(-4, 4)), 2) for _ in range(3))
        pieces = [[[Fraction(1), Fraction(0), a, b], [Fraction(0), Fraction(1), b, c]]]
        pieces += [[_halves(draw, dim)] for _ in range(draw(st.integers(0, 1)))]
    else:
        shapes = draw(st.sampled_from(([1], [2], [1, 1], [1, 2])))
        pieces = [[_halves(draw, dim) for _ in range(k)] for k in shapes]
    assume(all(rank_q(piece) == len(piece) for piece in pieces))
    return dim, pieces


def _unit_rows(rows):
    """An orthonormal basis of the span of `rows`, in floats, as columns."""
    return np.linalg.qr(np.array(rows, dtype=float).T)[0]


def _witness_margin(dim, pieces):
    """The largest angle (degrees) from J nu to the nearest piece, over unit
    normals nu of the pieces' span: 256 seeded samples and the basis."""
    null = _unit_rows(null_space_q([row for piece in pieces for row in piece], dim))
    nus = np.concatenate([null.T, np.random.default_rng(0).standard_normal((256, null.shape[1])) @ null.T])
    j_nus = nus @ standard_symplectic_matrix(dim // 2).T
    j_nus /= np.linalg.norm(j_nus, axis=1)[:, None]
    off = [np.linalg.norm(j_nus - j_nus @ q @ q.T, axis=1) for q in map(_unit_rows, pieces)]
    return math.degrees(math.asin(min(1.0, float(np.max(np.min(off, axis=0))))))


def _check_the_exact_rule(dim, pieces):
    """The verdict on tilted rational subspaces against the exact rule in
    Fractions.  Planes are sampled as rays every 5 degrees.  A union that
    is not coisotropic is kept only if some normal's J-image lies at least
    20 degrees from every piece: the test resolves 5 degrees, and its
    witnesses come from a 10-degree grid of normals."""
    want = coisotropy_union_oracle(pieces, dim)
    if want == "NotCoisotropic":
        assume(_witness_margin(dim, pieces) >= 20)
    assert cone_coisotropy_test(_union_cloud(pieces), np.zeros(dim)).kind == want


def _union_cloud(pieces):
    """Rays at RADII along each line, and every 5 degrees in each plane."""
    dirs = []
    for piece in pieces:
        basis = _unit_rows(piece).T
        if len(basis) == 1:
            dirs += [basis[0], -basis[0]]
        else:
            dirs += [math.cos(math.radians(t)) * basis[0] + math.sin(math.radians(t)) * basis[1] for t in range(0, 360, 5)]
    return ray_cloud(dirs, two_sided=False)


@seed(12)
@settings(max_examples=30, deadline=None)
@given(case=subspace_unions())
def test_verdict_matches_the_exact_rule_on_rational_subspaces(case):
    _check_the_exact_rule(*case)


@seed(12)
@settings(max_examples=3, deadline=None)
@given(case=subspace_unions(four=True))
def test_verdict_matches_the_exact_rule_on_four_dimensional_spans(case):
    # about 1 s a verdict on a shared 2-core machine, where comparing every
    # candidate with every direction took 5-7 s
    _check_the_exact_rule(*case)


def test_verdict_respects_explicit_scales():
    params = ConeParams(scales=tuple(2.0 ** (-j) for j in range(6)))
    verdict = cone_coisotropy_test(ray_cloud([(1, 0)]), (0, 0), params)
    assert verdict.kind == "Coisotropic"


# --- differential check of the direction-set kernel -------------------------


@st.composite
def _kernel_cases(draw):
    """(rows, x, params, verdict?): rays at the RADII ladder inside up to
    four coordinates (for two of them, optionally the dense circle of
    `subspace_cloud`), loose points on multiples of 0.01 (rounding
    boundaries of the 0.02 cells), repeated rows, a base point that is
    mostly the origin, default or explicit scales, and an angular
    resolution from 2 to 60 degrees, so that a band of first coordinates
    holds from a few rows to nearly all.  The verdict is compared up to
    dimension 6: in 12, the normal grid over the null space of a low-rank
    cloud takes minutes to hours to build."""
    dim = draw(st.sampled_from((2, 4, 6, 12)))
    span = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=4, unique=True))
    if len(span) == 2 and draw(st.booleans()):
        rows = subspace_cloud(tuple(span), dim).points.tolist()
    else:
        coeffs = st.lists(st.integers(-100, 100), min_size=len(span), max_size=len(span)).map(
            lambda c: c if any(c) else [1] + c[1:])
        rows = [[0.0] * dim]
        for d in draw(st.lists(coeffs, min_size=1, max_size=5)):
            v = np.zeros(dim)
            v[span] = d
            v /= np.linalg.norm(v)
            rows.extend((r * v).tolist() for r in RADII[: draw(st.integers(8, 20))])
    loose = st.lists(st.integers(-100, 100), min_size=dim, max_size=dim)
    rows.extend([k / 100 for k in row] for row in draw(st.lists(loose, max_size=8)))
    rows.extend(draw(st.lists(st.sampled_from(rows), max_size=4)))
    x = [0.0] * dim if draw(st.booleans()) else draw(st.sampled_from(rows))
    scales = draw(st.none() | st.lists(st.integers(1, 200), min_size=1, max_size=6, unique=True))
    if scales is not None:
        scales = tuple(sorted((k / 100 for k in scales), reverse=True))
    theta = draw(st.sampled_from((2.0, 5.0, 10.0, 30.0, 60.0)))
    return rows, x, ConeParams(scales=scales, theta_res=theta), dim <= 6


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except ValueError as err:
        return str(err)


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if hasattr(a, "vectors"):
        return a.theta_res == b.theta_res and np.array_equal(a.vectors, b.vectors)
    if a.kind != b.kind or (a.witness is None) != (b.witness is None):
        return False
    # byte equality: the sign of a zero in the normal is printed
    return a.witness is None or a.witness.normal.tobytes() == b.witness.normal.tobytes()


@settings(max_examples=40, deadline=None)
@given(_kernel_cases())
def test_direction_set_kernel_matches_the_float_row_oracle(case):
    rows, x, params, with_verdict = case
    cloud = PointCloud(rows)

    def both_cones():
        return [_outcome(f, cloud, x, params=params) for f in (contingent, paratingent)]

    got = both_cones()
    with mock.patch.object(cones, "_cone", cone_oracle):
        want = both_cones()
    assert all(_same(a, b) for a, b in zip(got, want))
    if with_verdict:
        # The old verdict built both cones, paratingent first, before its
        # rank cut, so the first of their errors was its error.
        small, big = want
        with mock.patch.object(cones, "_cone", cone_oracle):
            old = next((e for e in (big, small) if isinstance(e, str)), None) or _outcome(
                cone_coisotropy_test, cloud, x, params)
        assert _same(_outcome(cone_coisotropy_test, cloud, x, params), old)


@pytest.mark.parametrize("step, cap", [(10.0, 20000), (30.0, 20000), (10.0, 700)])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_pruned_normal_grid_matches_the_full_walk(dim, step, cap):
    got, want = cones._sphere_grid(dim, step, cap), sphere_grid_oracle(dim, step, cap)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_normal_grid_reaches_its_cap_up_to_dimension_11():
    # dimension 11 walks about 29,000 tuples for 20,000 vectors
    assert len(cones._sphere_grid(11, 10.0)) == 20000


# --- Cantor cubes ------------------------------------------------------------


def test_cantor_level_one_squares():
    fam = cantor_cubes(Fraction(1, 4), 1, 1)
    assert fam.level == 1 and fam.half_dim == 1
    corners = {c for c, _ in fam.cubes}
    assert corners == set(itertools.product([Fraction(0), Fraction(3, 4)], repeat=2))
    assert all(edge == Fraction(1, 4) for _, edge in fam.cubes)


def test_cantor_level_two_count_and_edge():
    fam = cantor_cubes(Fraction(1, 4), 2, 1)
    assert len(fam.cubes) == 16
    assert all(edge == Fraction(1, 16) for _, edge in fam.cubes)


def test_cantor_intervals_disjoint():
    fam = cantor_cubes(Fraction(1, 8), 3, 1)
    ends = sorted({c[0] for c, _ in fam.cubes})
    edge = fam.cubes[0][1]
    assert all(b - a > edge for a, b in zip(ends, ends[1:]))


def test_cantor_parameter_domain():
    with pytest.raises(ValueError, match="disjointness"):
        cantor_cubes(Fraction(1, 2), 1, 1)
    with pytest.raises(ValueError, match=">= 1"):
        cantor_cubes(Fraction(1, 4), 0, 1)
    with pytest.raises(ValueError, match="budget"):
        cantor_cubes(Fraction(1, 4), 10, 1)


def test_corner_cloud_counts_and_budget():
    cloud = corner_cloud(cantor_cubes(Fraction(1, 4), 1, 1))
    assert len(cloud) == 16
    with pytest.raises(ValueError, match="corner count"):
        corner_cloud(cantor_cubes(Fraction(1, 8), 4, 2))


# --- displacement bound ------------------------------------------------------


def test_displacement_bound_values():
    assert [displacement_bound(Fraction(1, 8), k, 1) for k in (1, 2, 3)] == [
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert [displacement_bound(Fraction(1, 4), k, 1) for k in (1, 2, 3)] == [1, 1, 1]
    assert [displacement_bound(Fraction(1, 2), k, 1) for k in (1, 2, 3)] == [2, 4, 8]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_displacement_bound_trichotomy(n):
    threshold = Fraction(1, 2 ** (2 * n))
    for a, expect in [
        (threshold / 2, -1),
        (threshold * Fraction(3, 4), -1),
        (threshold, 0),
        (threshold * Fraction(3, 2), 1),
    ]:
        vals = [displacement_bound(a, k, n) for k in range(1, 5)]
        diffs = {(-1 if y < x else (1 if y > x else 0)) for x, y in zip(vals, vals[1:])}
        assert diffs == {expect}, (a, n, vals)


def test_displacement_bound_must_be_printable():
    # 4a = 1/10, so the level-k bound is 1/10^k with k + 1 digits; the
    # interpreter prints at most 4300 (sys.get_int_max_str_digits()).
    assert displacement_bound(Fraction(1, 40), 4299, 1) == Fraction(1, 10 ** 4299)
    with pytest.raises(ValueError, match="level-4300 bound has about 4301 digits"):
        displacement_bound(Fraction(1, 40), 4300, 1)


def test_displacement_bound_domain():
    with pytest.raises(ValueError, match="ratio"):
        displacement_bound(1, 1, 1)
    with pytest.raises(ValueError, match="ratio"):
        displacement_bound(0, 1, 1)
    with pytest.raises(ValueError, match=">= 1"):
        displacement_bound(Fraction(1, 8), 1, 0)
