import math
import tracemalloc

import numpy as np
import pytest

from fillhull import coeffs, comass, hull, pathspace, volumes
from fillhull.hull import HullFn, SpherePoint
from fillhull.pathspace import PlanePath
from fillhull.quadrature import (Grid, integrate_period, integrate_triangle,
                                 midnodes)

from conftest import boundary_point, zero_field

PI = math.pi
GRID = Grid(256)


def test_p_at_the_pole_is_one():
    assert coeffs.p_scalar(0.7, PI / 2, PI / 2) == pytest.approx(1.0)


def test_p_is_nonnegative_and_vanishes_on_degenerate_triples():
    # x = y and gap a with cos a = cos x * cos y ... actually the
    # simplest degenerate case: both values on the same great circle,
    # x = a/2 + s, y realized by the distance function itself
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.uniform(0.1, PI - 0.1)
        x = rng.uniform(0.1, PI - 0.1)
        y = rng.uniform(0.1, PI - 0.1)
        assert coeffs.p_scalar(a, x, y) >= 0.0
    # distance-function values make the spherical triangle flat
    tau = 0.8
    f = boundary_point(tau, GRID)
    fm = f.at_midnodes()
    j, k = 40, 90
    p = coeffs.p_scalar(GRID.beta_nodes[k] - GRID.alpha_nodes[j],
                        fm[j], f.values[k])
    assert p == pytest.approx(0.0, abs=1e-12)


def test_p_equals_height_squared_over_sines():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.uniform(0.2, PI - 0.2)
        x = rng.uniform(0.2, PI - 0.2)
        y = rng.uniform(0.2, PI - 0.2)
        # e = height^2, written out and clamped at zero
        e = 1.0 - ((math.cos(x) ** 2 + math.cos(y) ** 2
                    - 2.0 * math.cos(a) * math.cos(x) * math.cos(y))
                   / math.sin(a) ** 2)
        want = max(e, 0.0) / (math.sin(x) ** 2 * math.sin(y) ** 2)
        assert coeffs.p_scalar(a, x, y) == pytest.approx(want, abs=1e-12)


def test_p_rejects_angles_at_multiples_of_pi():
    with pytest.raises(ValueError):
        coeffs.p_scalar(PI, 0.5, 0.5)
    with pytest.raises(ValueError):
        coeffs.p_scalar(0.5, 0.0, 0.5)


def test_p_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    t = 1e-5
    done = 0
    while done < 20:
        a = rng.uniform(0.3, PI - 0.3)
        x = rng.uniform(0.4, PI - 0.4)
        y = rng.uniform(0.4, PI - 0.4)
        # the closed forms differentiate the raw expression, so stay
        # clear of the region where the squared height e clamps to zero
        e = coeffs.p_scalar(a, x, y) * (math.sin(x) * math.sin(y)) ** 2
        if e < 0.05:
            continue
        done += 1
        p_x, p_y, p_xx, p_xy, p_yy = coeffs.p_derivatives(a, x, y)

        def p(xx, yy):
            return coeffs.p_scalar(a, xx, yy)

        fd_x = (p(x + t, y) - p(x - t, y)) / (2 * t)
        fd_y = (p(x, y + t) - p(x, y - t)) / (2 * t)
        fd_xx = (p(x + t, y) - 2 * p(x, y) + p(x - t, y)) / (t * t)
        fd_yy = (p(x, y + t) - 2 * p(x, y) + p(x, y - t)) / (t * t)
        fd_xy = (p(x + t, y + t) - p(x + t, y - t)
                 - p(x - t, y + t) + p(x - t, y - t)) / (4 * t * t)
        scale = max(1.0, abs(p(x, y)))
        assert fd_x == pytest.approx(p_x, abs=1e-5 * scale)
        assert fd_y == pytest.approx(p_y, abs=1e-5 * scale)
        assert fd_xx == pytest.approx(p_xx, rel=1e-3, abs=1e-3)
        assert fd_yy == pytest.approx(p_yy, rel=1e-3, abs=1e-3)
        assert fd_xy == pytest.approx(p_xy, rel=1e-3, abs=1e-3)


def test_p_grid_matches_scalar_definition():
    f = hull.random_hull_point(7, 0.4, 0.3, GRID)
    table = coeffs.p_grid(f)
    fm = f.at_midnodes()
    rng = np.random.default_rng(3)
    for _ in range(40):
        j = int(rng.integers(0, GRID.n - 1))
        k = int(rng.integers(j + 1, GRID.n))
        want = coeffs.p_scalar(GRID.beta_nodes[k] - GRID.alpha_nodes[j],
                               fm[j], f.values[k])
        assert table[j, k] == pytest.approx(want, abs=1e-10)


def _elementwise_table(f, a):
    """The coefficient table from the closed form at the gaps ``a``."""
    x = f.at_midnodes()[:, None]
    y = f.values[None, :]
    e = coeffs._e_values(a, x, y)
    return np.triu(e / (np.sin(x) ** 2 * np.sin(y) ** 2), 1)


def _toeplitz_gaps(grid):
    """The gap of entry [j, k], rounded once: (k - j - 1/2) * step."""
    k = np.arange(grid.n)
    return (k[None, :] - k[:, None] - 0.5) * grid.step


def test_p_grid_equals_the_elementwise_table():
    # blocks of n rows below n = 182, of 32768 // n rows above
    for n in (3, 64, 200):
        grid = Grid(n)
        f = hull.random_hull_point(5, 0.4, 0.3, grid)
        want = _elementwise_table(f, _toeplitz_gaps(grid))
        assert np.array_equal(coeffs.p_grid(f), want)


LONG_PI = 4 * np.arctan(np.longdouble(1))


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("point", ["sphere:0.9,0.7", "random:1",
                                   "random:2", "random:3"])
def test_p_grid_against_the_long_double_closed_form(n, point):
    """The table against the closed form in long double at the exact
    gaps (k - j - 1/2) pi / n, with the same double values of f.  Both
    the table and the one from the node difference beta_k - alpha_j
    lose digits to the cancellation in cos^2 x + cos^2 y - 2 cos a cos x
    cos y at small gaps; where the gap is wide that rounding is of the
    order of the gap's own error, and there the rounded-once gap is
    closer on average."""
    grid = Grid(n)
    if point.startswith("sphere"):
        f = hull.sphere_point(SpherePoint(0.9, 0.7), grid)
    else:
        f = hull.random_hull_point(int(point[7:]), 0.25, 0.3, grid)
    k = np.arange(n)
    exact = (k[None, :] - k[:, None] - np.longdouble(0.5)) * (LONG_PI / n)
    upper = k[None, :] > k[:, None]
    x = f.at_midnodes().astype(np.longdouble)[:, None]
    y = f.values.astype(np.longdouble)[None, :]
    cx, cy = np.cos(x), np.cos(y)
    e = 1 - (cx * cx + cy * cy - 2 * np.cos(exact) * cx * cy) \
        / np.sin(exact) ** 2
    want = np.where(upper, np.maximum(e, 0) / (np.sin(x) ** 2
                                                * np.sin(y) ** 2), 0)
    # the gap is within one ulp of the exact one (half an ulp of
    # (k - j - 1/2) * step); the node difference carries ulp(beta_k)
    ulp = np.spacing(exact[upper].astype(float))
    old_gap = grid.beta_nodes[None, :] - grid.alpha_nodes[:, None]
    assert (np.abs(_toeplitz_gaps(grid) - exact)[upper] / ulp).max() <= 1.0
    assert (np.abs(old_gap - exact)[upper] / ulp).max() > 100.0
    new_err = np.abs(coeffs.p_grid(f) - want).astype(float)
    old_err = np.abs(_elementwise_table(f, old_gap) - want).astype(float)
    # cancellation: measured at most 1.4e-9 of the largest entry
    assert new_err.max() <= 1e-8 * float(want.max())
    wide = upper & (exact >= 0.5)
    # measured ratios 0.91 - 0.99
    assert new_err[wide].mean() <= old_err[wide].mean()


def test_p_grid_zero_outside_triangle():
    f = hull.sphere_point(SpherePoint(0.1, 0.8), GRID)
    table = coeffs.p_grid(f)
    assert np.all(table[np.tril_indices(GRID.n, k=0)] == 0.0)


def test_p_grid_rejects_boundary_functions():
    f = boundary_point(0.0, GRID)
    with pytest.raises(ValueError):
        coeffs.p_grid(f)


def test_p_l1_norm_positive_and_grid_stable():
    f512 = hull.random_hull_point(9, 0.4, 0.3, Grid(512))
    f256 = hull.random_hull_point(9, 0.4, 0.3, Grid(256))
    v512 = coeffs.p_l1_norm(f512)
    v256 = coeffs.p_l1_norm(f256)
    assert v512 > 0
    assert v512 == pytest.approx(v256, rel=2e-2)


def random_path(grid, seed):
    """An antipodal plane path, sampled at the integer nodes: the unit
    circle plus random odd Fourier modes 1 to 7 of each coordinate, so
    that its action does not cancel to a small value."""
    rng = np.random.default_rng(seed)
    modes = np.arange(1, 8, 2)
    a, b = 0.2 * rng.normal(size=(2, len(modes), 2)) / modes[:, None]
    a[0, 0] += 1.0
    b[0, 1] += 1.0
    t = grid.beta_nodes[:, None] * modes
    return PlanePath(grid, np.cos(t) @ a + np.sin(t) @ b)


def dense_sums(f, gamma):
    """The path action and the l1 norm from the dense table: ``p_grid``
    and ``integrate_triangle``."""
    table = coeffs.p_grid(f)
    gb, gm = gamma.points, gamma.at_midnodes()
    cross = np.outer(gm[:, 0], gb[:, 1]) - np.outer(gm[:, 1], gb[:, 0])
    return (integrate_triangle(table * cross, f.grid),
            integrate_triangle(table, f.grid))


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_the_path_action_and_the_l1_norm_match_the_dense_table(n):
    grid = Grid(n)
    f = hull.random_hull_point(n, 0.5, 0.3, grid)
    gamma = random_path(grid, n)
    action, l1 = dense_sums(f, gamma)
    assert pathspace.omega_action(f, gamma) == pytest.approx(action,
                                                             rel=1e-12)
    assert coeffs.p_l1_norm(f) == pytest.approx(l1, rel=1e-12)


@pytest.mark.parametrize("total", ["path action", "l1 norm"])
def test_the_path_action_and_the_l1_norm_hold_no_dense_table(total):
    # one dense table at n = 4096 is 134 MB
    grid = Grid(4096)
    f = hull.random_hull_point(1, 0.5, 0.3, grid)
    gamma = random_path(grid, 1)
    tracemalloc.start()
    try:
        if total == "path action":
            pathspace.omega_action(f, gamma)
        else:
            coeffs.p_l1_norm(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_hemisphere_speed_integrates_to_two_pi():
    alphas = np.arange(2048) * (2 * PI / 2048)
    for d in (0.2, 0.7, PI / 2):
        sp = coeffs.hemisphere_speed(SpherePoint(1.1, d), alphas)
        assert integrate_period(sp, 2 * PI) == pytest.approx(2 * PI,
                                                             abs=1e-6)


def test_hemisphere_speed_rejects_boundary():
    with pytest.raises(ValueError):
        coeffs.hemisphere_speed(SpherePoint(0.0, 0.0), 0.3)


def test_every_coefficient_table_has_the_same_interior_check():
    # f(0) = 0: the function touches the boundary circle
    f = boundary_point(0.0, GRID)
    h = SpherePoint(1.3, 0.6)
    gamma = pathspace.gamma_from_eta(h, zero_field(GRID))
    message = "f touches the boundary circle; p is undefined"
    for table in (lambda: coeffs.p_grid(f),
                  lambda: coeffs.p_l1_norm(f),
                  lambda: pathspace.omega_action(f, gamma),
                  lambda: pathspace.mu_path(f, gamma),
                  lambda: comass.psi(h, f, zero_field(GRID))):
        with pytest.raises(ValueError) as info:
            table()
        assert str(info.value) == message


def test_a_table_keeps_functions_in_place():
    # two of four functions at n = 512 leave the stack: the products of
    # the rest are those of their own table, and no block is copied out
    # of place on the way
    grid = Grid(512)
    near = coeffs.gradient_near_gaps(grid.n)
    fs = [hull.random_hull_point(seed, 0.25, 0.3, grid) for seed in range(4)]
    rows = [1, 3]
    table = coeffs.WeightedTable(fs, near)
    alone = coeffs.WeightedTable([fs[r] for r in rows], near)
    block = 8 * math.prod(coeffs.WeightedTable.block_shape(grid.n, near))
    tracemalloc.start()
    try:
        table.keep(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block > 2.5e5 and peak < block, peak
    B, A = np.random.default_rng(4).normal(size=(2, len(rows), 2, grid.n))
    assert np.array_equal(table(B), alone(B))
    assert np.array_equal(table.transposed(A), alone.transposed(A))
    assert table.p_first == alone.p_first


def chart_row_pairs(grid, i=2):
    """Row ``i`` of a perturbed 5 x 8 cap with its tangent pairs, as the
    surface integral pairs them: ``(t1m, t0)`` and ``(t0m, t1)``."""
    cap = volumes.cap_chart(0.3, 5, 8, grid)
    V = volumes.perturbed_cap_chart(cap, bump_seed=2, amplitude=0.2).values
    y = V[i]
    t0 = V[i + 1] - V[i - 1]
    t1 = np.roll(y, -1, axis=0) - np.roll(y, 1, axis=0)
    t0m, t1m = (midnodes(t, -t[:, 0]) for t in (t0, t1))
    return y, ((t1m, t0), (t0m, t1))


@pytest.mark.parametrize("n", [64, 100, 256, 512])
def test_dense_tables_match_the_full_tables(n):
    # n = 100 is no multiple of the block count
    grid = Grid(n)
    tables = coeffs.dense_tables(grid)
    assert coeffs.dense_tables(Grid(n)) is tables
    for _, _, pair in tables.blocks:
        for block in pair:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1.0
    # the blocked products against the full strictly lower triangular
    # S^T and C^T, within the rounding bound of a sum of n terms in
    # any order
    X = np.random.default_rng(n).normal(size=(12, n))
    for kernel, v in enumerate(coeffs.gap_kernels(grid)):
        full = np.tril(coeffs.toeplitz(v, n).T, -1)
        got = tables._product(X[:, ::-1].copy(), kernel)
        bound = 2 * n * np.finfo(float).eps * (np.abs(X) @ np.abs(full))
        assert (np.abs(got - X @ full) <= bound).all()
    # pairs against the table entry by entry
    y, ab = chart_row_pairs(grid)
    for got, (a, b) in zip(tables.pairs(y, *ab), ab):
        want = np.array([integrate_triangle(
            coeffs.p_grid(HullFn(grid, yi)) * np.outer(ai, bi), grid)
            for yi, ai, bi in zip(y, a, b)])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
