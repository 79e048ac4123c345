import math

import numpy as np
import pytest

from fillhull import hull
from fillhull.hull import HullFn, SpherePoint
from fillhull.quadrature import Grid

PI = math.pi
GRID = Grid(256)


def test_boundary_point_is_member_with_zero_boundary_distance():
    f = hull.boundary_point(1.3, GRID)
    assert hull.is_member(f)
    # the minimum sits between sample nodes, so only step-level accuracy
    assert 0.0 <= hull.dist_to_boundary(f) <= GRID.step


def test_sphere_point_is_member():
    for tau, d in [(0.0, 0.5), (2.2, PI / 2), (5.0, 0.1)]:
        assert hull.is_member(hull.sphere_point(SpherePoint(tau, d), GRID))


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
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0.2, PI / 2 - 0.1))
        dist, q = hull.dist_to_hemisphere(hull.sphere_point(p, GRID))
        assert dist < 1e-4
        assert q.d == pytest.approx(p.d, abs=1e-3)


def test_truncate_clamps_and_stays_member():
    f = hull.boundary_point(0.4, GRID)
    g = hull.truncate(f, 0.25)
    assert hull.is_member(g)
    assert g.values.min() >= 0.25
    assert g.values.max() <= PI - 0.25
    with pytest.raises(ValueError):
        hull.truncate(f, 2.0)


def test_shrink_reduces_lipschitz_constant():
    f = hull.boundary_point(0.0, GRID)
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
