import math

import numpy as np
import pytest

from fillhull import hull
from fillhull.hull import HullFn, SpherePoint
from fillhull.quadrature import Grid

from conftest import boundary_point

PI = math.pi
GRID = Grid(256)


# The Lipschitz branch and bound that ``dist_to_hemisphere`` replaced,
# kept as the reference it is compared against.
_BLOCK = 1 << 16
_CHILDREN = 0.5 * np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0],
                            [1.0, 1.0]])


def _chart_dists(uv, cos_b, sin_b, fv):
    """``F(u, v) = max_k |g(beta_k) - f(beta_k)|`` at chart points ``(u,
    v) = (pi/2 - d)(cos tau, sin tau)``, with ``g`` in chord form."""
    rho = np.hypot(uv[:, 0], uv[:, 1])
    p = uv * np.sinc(rho / PI)[:, None]
    height2 = np.cos(rho) ** 2
    out = np.empty(len(uv))
    rows = max(1, _BLOCK // fv.size)
    for i in range(0, len(uv), rows):
        blk = slice(i, i + rows)
        x = p[blk, :1] - cos_b
        y = p[blk, 1:] - sin_b
        half_chord = 0.5 * np.sqrt(x * x + y * y + height2[blk, None])
        g = 2.0 * np.arcsin(np.minimum(half_chord, 1.0))
        out[blk] = np.abs(g - fv).max(axis=1)
    return out


def reference_dist_to_hemisphere(f):
    """Lipschitz branch and bound (Piyavskii 1972; Shubert 1972) on the
    azimuthal equidistant chart over ``[-pi/2, pi/2]^2``: the objective
    is 1-Lipschitz there, so a square of side ``h`` holds no value below
    ``F(center) - h / sqrt(2)``; squares that cannot beat the best value
    by ``HEMISPHERE_GAP`` are dropped and the rest split in four.  Chart
    points with ``rho > pi/2`` mirror to ``d = |pi/2 - rho|``."""
    nodes = f.grid.beta_nodes
    cos_b, sin_b = np.cos(nodes), np.sin(nodes)
    centers = np.zeros((1, 2))
    side = PI
    best, best_uv = math.inf, centers[0]
    while len(centers):
        vals = _chart_dists(centers, cos_b, sin_b, f.values)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_uv = float(vals[i]), centers[i]
        live = centers[vals - side / math.sqrt(2.0)
                       < best - hull.HEMISPHERE_GAP]
        side /= 2.0
        centers = (live[:, None, :] + side * _CHILDREN).reshape(-1, 2)
    u, v = best_uv
    return best, SpherePoint(math.atan2(v, u) % (2 * PI),
                             abs(PI / 2 - math.hypot(u, v)))


def test_boundary_point_is_member_with_zero_boundary_distance():
    f = boundary_point(1.3, GRID)
    assert hull.is_member(f)
    # the minimum sits between sample nodes, so only step-level accuracy
    assert 0.0 <= hull.dist_to_boundary(f) <= GRID.step


def test_sphere_point_is_member():
    for tau, d in [(0.0, 0.5), (2.2, PI / 2), (5.0, 0.1)]:
        assert hull.is_member(hull.sphere_point(SpherePoint(tau, d), GRID))


def test_small_distances_keep_their_digits():
    # the half-chord form; arccos(cos d cos 0) read 0.0 at d = 1e-9
    grid = Grid(512)
    f = hull.sphere_point(SpherePoint(0.0, 1e-9), grid)
    assert f.values[0] == pytest.approx(1e-9, rel=1e-15)
    f = hull.sphere_point(SpherePoint(0.0, 1e-7), grid)
    assert f.values[0] == pytest.approx(1e-7, rel=1e-15)
    assert boundary_point(1e-8, grid).values[0] == pytest.approx(
        1e-8, rel=1e-15)


def test_sphere_point_pole_is_constant():
    f = hull.sphere_point(SpherePoint(0.7, PI / 2), GRID)
    assert np.allclose(f.values, PI / 2)


def test_is_member_rejects_non_lipschitz():
    v = np.full(GRID.n, PI / 2)
    v[10] += 5 * GRID.step
    assert not hull.is_member(HullFn(GRID, v))


def test_is_member_checks_the_wrap_step():
    # a jump hidden at the antipodal wrap f(pi) = pi - f(0)
    v = np.full(GRID.n, PI / 2)
    v[0] = PI / 2 + 5 * GRID.step
    assert not hull.is_member(HullFn(GRID, v))


def test_sup_dist_matches_spherical_law_of_cosines():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p1 = SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0, PI / 2))
        p2 = SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0, PI / 2))
        got = hull.sup_dist(hull.sphere_point(p1, GRID),
                            hull.sphere_point(p2, GRID))
        c = (math.sin(p1.d) * math.sin(p2.d)
             + math.cos(p1.d) * math.cos(p2.d) * math.cos(p1.tau - p2.tau))
        want = math.acos(min(1.0, max(-1.0, c)))
        assert got == pytest.approx(want, abs=2 * GRID.step)


def test_dist_to_boundary_equals_min_over_full_circle():
    f = hull.random_hull_point(5, 0.4, 0.2, GRID)
    ext = f.extended()
    assert hull.dist_to_boundary(f) == pytest.approx(ext.min())


def test_dist_to_hemisphere_recovers_sphere_points():
    points = [SpherePoint(0.0, 0.0), SpherePoint(2.5, 0.0),
              SpherePoint(0.7, PI / 2),
              # near the pole, where a search in (tau, d) collapses onto
              # the d = pi/2 boundary
              SpherePoint(3.048544801724996, 1.5463172310585267)]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        points.append(SpherePoint(rng.uniform(0, 2 * PI),
                                  rng.uniform(0.2, PI / 2 - 0.1)))
    for p in points:
        f = hull.sphere_point(p, GRID)
        dist, q = hull.dist_to_hemisphere(f)
        assert dist <= hull.HEMISPHERE_GAP
        assert hull.sup_dist(hull.sphere_point(q, GRID), f) <= 1e-8
        assert q.d == pytest.approx(p.d, abs=1e-6)
        if p.d == PI / 2:
            assert (q.tau, q.d) == (0.0, PI / 2)   # tau = 0 at the pole


def test_dist_to_hemisphere_is_below_a_dense_scan():
    taus = np.linspace(0.0, 2 * PI, 720, endpoint=False)
    ds = np.linspace(0.0, PI / 2, 181)
    cos_d = np.cos(ds)[:, None, None]
    cos_b = np.cos(GRID.beta_nodes[None, :] - taus[:, None])
    for seed in (0, 1, 2, 3):
        f = hull.random_hull_point(seed, 0.4, 0.3, GRID)
        scan = min(np.abs(np.arccos(cd * cos_b) - f.values).max(axis=1).min()
                   for cd in cos_d)
        dist, q = hull.dist_to_hemisphere(f)
        assert dist <= scan + hull.HEMISPHERE_GAP
        assert hull.sup_dist(hull.sphere_point(q, GRID), f) == pytest.approx(
            dist, abs=1e-12)


@pytest.mark.parametrize("n", [64, 512])
def test_dist_to_hemisphere_matches_the_branch_and_bound(n):
    # sweep-like blends from the sweep's default hemisphere point toward
    # random:0..31,0.25,0.3, and ten sphere points
    grid = Grid(n)
    h = hull.sphere_point(SpherePoint(0.0, 0.7), grid).values
    inputs = [HullFn(grid, (1 - t) * h + t * g.values)
              for g in (hull.random_hull_point(seed, 0.25, 0.3, grid)
                        for seed in range(32))
              for t in (0.02, 0.2, 1.0)]
    rng = np.random.default_rng(1)
    inputs += [hull.sphere_point(SpherePoint(rng.uniform(0, 2 * PI),
                                             rng.uniform(0, PI / 2)), grid)
               for _ in range(10)]
    for f in inputs:
        dist, q = hull.dist_to_hemisphere(f)
        ref, _ = reference_dist_to_hemisphere(f)
        assert ref - hull.HEMISPHERE_GAP <= dist <= ref + 1e-15
        assert hull.sup_dist(hull.sphere_point(q, grid), f) == pytest.approx(
            dist, abs=1e-12)


@pytest.mark.parametrize("n", [512, 2048])
def test_dist_to_hemisphere_is_certified_at_the_boundary_circle(n):
    # tau = 1 and 2.5 lie over 1e-4 from every node, where the arccos of
    # sphere_point is accurate to 1e-12
    grid = Grid(n)
    for tau in (1.0, 2.5):
        for d in (0.0, 1e-9, 1e-7, 1e-3):
            f = hull.sphere_point(SpherePoint(tau, d), grid)
            dist, q = hull.dist_to_hemisphere(f)
            assert dist <= hull.HEMISPHERE_GAP
            assert q.tau == pytest.approx(tau, abs=1e-9)
            assert hull.sup_dist(hull.sphere_point(q, grid), f) == (
                pytest.approx(dist, abs=1e-12))
    # 1e-4 from a boundary point, which is a hemisphere point
    f = hull.truncate(boundary_point(0.7, grid), 1e-4)
    dist, q = hull.dist_to_hemisphere(f)
    assert dist <= 1e-4
    assert hull.sup_dist(hull.sphere_point(q, grid), f) == pytest.approx(
        dist, abs=1e-12)


def test_truncate_clamps_and_stays_member():
    f = boundary_point(0.4, GRID)
    g = hull.truncate(f, 0.25)
    assert hull.is_member(g)
    assert g.values.min() >= 0.25
    assert g.values.max() <= PI - 0.25
    with pytest.raises(ValueError):
        hull.truncate(f, 2.0)


def test_shrink_reduces_lipschitz_constant():
    f = boundary_point(0.0, GRID)
    g = hull.shrink_toward_center(f, 0.5)
    assert np.abs(np.diff(g.values)).max() <= 0.5 * GRID.step + 1e-12
    assert hull.is_member(g)


def test_random_hull_point_is_member_and_deterministic():
    f1 = hull.random_hull_point(11, 0.5, 0.3, GRID)
    f2 = hull.random_hull_point(11, 0.5, 0.3, GRID)
    assert hull.is_member(f1)
    assert np.array_equal(f1.values, f2.values)
    assert f1.values.min() >= 0.3 - 1e-9
    assert f1.values.max() <= PI - 0.3 + 1e-9


# (roughness, eps) of random points the package draws: the CLI examples
# and the benchmark's sweep endpoints, check and random:3, the l1
# probe, perturbed_cap_chart, and random:5
PROJECTED_PAIRS = [(0.25, 0.3), (0.4, 0.3), (0.5, 0.3), (0.3, 0.25),
                   (0.3, 0.3)]


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_random_hull_point_is_one_projection_pass_from_a_fixed_point(n):
    grid = Grid(n)
    for rough, eps in PROJECTED_PAIRS:
        for seed in range(20):
            f = hull.random_hull_point(seed, rough, eps, grid)
            assert hull.is_member(f)
            w = f.extended()
            w = 0.5 * (w + PI - np.roll(w, -n))
            w = hull._lipschitz_envelope(w)
            w = 0.5 * (w + PI - np.roll(w, -n))
            w = np.clip(w, eps, PI - eps)
            assert np.abs(w - f.extended()).max() <= 1e-14


def test_random_hull_point_rejects_non_finite_roughness():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="roughness must be finite"):
            hull.random_hull_point(1, bad, 0.3, GRID)


def test_random_hull_point_zero_roughness_is_truncated_hemisphere():
    f = hull.random_hull_point(2, 0.0, 0.3, GRID)
    dist, _ = hull.dist_to_hemisphere(f)
    assert dist < 1e-3


def test_value_at_interpolates_with_antipodal_extension():
    f = hull.sphere_point(SpherePoint(0.9, 0.6), GRID)
    # exact at stored nodes
    assert f.value_at(GRID.beta_nodes[7]) == pytest.approx(f.values[7])
    # antipodal identity across the stored half period
    a = 1.234
    assert float(f.value_at(a) + f.value_at(a + PI)) == pytest.approx(PI,
                                                                      abs=1e-9)


def test_json_round_trip():
    f = hull.random_hull_point(4, 0.3, 0.3, GRID)
    g = HullFn.from_json(f.to_json())
    assert g.grid.n == f.grid.n
    assert np.allclose(g.values, f.values)


def test_hullfn_rejects_wrong_shape():
    with pytest.raises(ValueError):
        HullFn(GRID, np.zeros(GRID.n + 1))


def test_sphere_point_validates_parameters():
    with pytest.raises(ValueError):
        SpherePoint(-0.1, 0.5)
    with pytest.raises(ValueError):
        SpherePoint(0.0, PI)


def test_lipschitz_envelope_matches_dense_min_plus():
    rng = np.random.default_rng(0)
    for m in (16, 64, 257, 1024):
        w = rng.normal(scale=2.0, size=m)
        idx = np.arange(m)
        diff = np.abs(idx[:, None] - idx[None, :])
        dist = np.minimum(diff, m - diff) * (2 * PI / m)
        want = 0.5 * ((w[None, :] + dist).min(axis=1)
                      + (w[None, :] - dist).max(axis=1))
        got = hull._lipschitz_envelope(w)
        assert np.abs(got - want).max() <= 1e-12
