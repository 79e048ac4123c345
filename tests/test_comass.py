import math
import tracemalloc

import numpy as np
import pytest

from fillhull import comass, hull
from fillhull.coeffs import WeightedTable, gradient_near_gaps, p_grid
from fillhull.comass import OptimizerConfig
from fillhull.hull import SpherePoint
from fillhull.pathspace import AngleField, competitor_rows
from fillhull.quadrature import Grid, integrate_triangle, midnodes

from conftest import boundary_point, zero_field

PI = math.pi
GRID = Grid(256)
H = SpherePoint(0.9, 0.7)


def random_field(grid, rng, amp=0.05, modes=(1, 2, 3)):
    v = np.zeros(grid.n)
    for k in modes:
        v += (rng.normal() * np.cos(2 * k * grid.beta_nodes)
              + rng.normal() * np.sin(2 * k * grid.beta_nodes))
    v *= amp / max(np.abs(v).max(), 1e-12)
    return AngleField.from_values(grid, v)


def workspace(h, f):
    """The workspace of the one problem ``(h, f)``: a stack of one."""
    return comass._Workspace([h], [f])


def evaluate(ws, eta):
    """Psi and its gradient at ``eta`` of the one problem of ``ws``."""
    val, g = ws.evaluate(eta.values[None])
    return val[0], g[0]


def quadform(ws, eta, v):
    return ws.quadform(eta.values[None], v.values[None])[0]


def test_psi_at_hemisphere_maximizer_is_pi():
    f = hull.sphere_point(H, GRID)
    assert comass.psi(H, f, zero_field(GRID)) == pytest.approx(PI,
                                                                    abs=1e-4)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    f = hull.random_hull_point(1, 0.2, 0.3, GRID)
    _, h = hull.dist_to_hemisphere(f)
    eta = random_field(GRID, rng)
    g = comass.psi_gradient(h, f, eta)
    v = random_field(GRID, rng, amp=1.0)
    t = 1e-6
    up = AngleField.from_values(GRID, eta.values + t * v.values)
    dn = AngleField.from_values(GRID, eta.values - t * v.values)
    fd = (comass.psi(h, f, up) - comass.psi(h, f, dn)) / (2 * t)
    assert float(g.values @ v.values) == pytest.approx(fd, abs=1e-7)


def test_hessian_quadform_matches_finite_differences():
    rng = np.random.default_rng(1)
    f = hull.sphere_point(H, GRID)
    eta = random_field(GRID, rng)
    v = random_field(GRID, rng, amp=0.3)
    q = quadform(workspace(H, f), eta, v)
    t = 1e-4
    up = AngleField.from_values(GRID, eta.values + t * v.values)
    dn = AngleField.from_values(GRID, eta.values - t * v.values)
    mid = comass.psi(H, f, eta)
    fd = (comass.psi(H, f, up) - 2 * mid + comass.psi(H, f, dn)) / (t * t)
    assert q == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_hessian_is_negative_near_the_maximizer():
    rng = np.random.default_rng(2)
    f = hull.sphere_point(H, GRID)
    for _ in range(10):
        v = random_field(GRID, rng, amp=0.1)
        q = quadform(workspace(H, f), zero_field(GRID), v)
        assert q < 0


def test_maximize_eta_at_hemisphere_point_returns_pi_and_tiny_eta():
    f = hull.sphere_point(H, GRID)
    eta, val, diag = comass.maximize_eta(H, f)
    assert diag["converged"]
    assert val == pytest.approx(PI, abs=2e-4)
    assert np.abs(eta.values).max() < 1e-2


def test_maximize_eta_never_decreases_from_zero_start():
    f = hull.random_hull_point(6, 0.25, 0.3, GRID)
    _, h = hull.dist_to_hemisphere(f)
    base = comass.psi(h, f, zero_field(GRID))
    _, val, _ = comass.maximize_eta(h, f)
    assert val >= base - 1e-12


def test_comass_ir_two_grid_matches_fine_answer():
    f_coarse = hull.sphere_point(H, Grid(256))
    val, diag = comass.comass_ir(f_coarse, eval_grid=Grid(1024))
    assert diag["converged"]
    assert val == pytest.approx(PI, abs=5e-4)
    assert diag["hemisphere_dist"] < 1e-4


def test_calibration_sweep_reports_rows_and_slope():
    grid = Grid(128)
    g = hull.random_hull_point(3, 0.25, 0.3, grid)
    out = comass.calibration_sweep(H, g, [0.1, 0.2, 0.3])
    assert len(out["rows"]) == 3
    for row in out["rows"]:
        assert set(row) == {"t", "dist", "defect", "eta_inf", "iters",
                            "converged", "floored"}
        assert isinstance(row["t"], float)
        assert isinstance(row["iters"], int)
        assert isinstance(row["converged"], bool)
    assert out["n_fit"] <= 3
    if out["n_fit"] >= 2:
        assert "slope" in out


def test_row_reductions_round_as_one_dimensional_ones():
    # a stacked ascent's results are bit for bit those of one-problem
    # runs only if each row's dot products and sums are
    rng = np.random.default_rng(14)
    for n in (64, 512, 2048):
        a, b = rng.normal(size=(2, 5, 2, n)) * rng.uniform(1, 1e3, (5, 1, 1))
        dots = comass._dots(a, b)
        sums = a[:, 0].sum(axis=1, keepdims=True)
        for i in range(5):
            assert sums[i, 0] == a[i, 0].sum()
            for r in range(2):
                assert dots[i, r] == a[i, r] @ b[i, r]


# the CLI's default t list
T_LIST = [0.02 * k for k in range(1, 11)]


def record_stacks(monkeypatch):
    """The problems and results of every stack ``calibration_sweep``
    ascends, in order."""
    stacks = []
    maximize = comass._maximize

    def recorded(points, fns):
        runs = maximize(points, fns)
        stacks.append(list(zip(points, fns, runs)))
        return runs

    monkeypatch.setattr(comass, "_maximize", recorded)
    return stacks


@pytest.mark.parametrize("n, rows, sizes", [
    (256, None, [10]), (512, 4, [4, 4, 2]), (512, None, [10])],
    ids=["256-sizes0", "512-sizes1", "512-sizes2"])
def test_a_sweep_row_does_not_depend_on_the_rest_of_its_stack(
        monkeypatch, n, rows, sizes):
    # with the default budget a sweep is one stack at n = 256 and 512;
    # with a budget of 4 rows' blocks, stacks of 4 rows at n = 512
    grid = Grid(n)
    if rows is not None:
        block = 8 * math.prod(WeightedTable.block_shape(
            n, gradient_near_gaps(n)))
        monkeypatch.setattr(comass, "_STACK_BYTES", rows * block)
    stacks = record_stacks(monkeypatch)
    for seed in range(8):
        g = hull.random_hull_point(seed, 0.25, 0.3, grid)
        out = comass.calibration_sweep(H, g, T_LIST)
        swept = stacks[:]
        assert [len(stack) for stack in swept] == sizes
        for stack in swept:
            for h_t, f_t, (eta, val, diag) in stack:
                alone = comass.maximize_eta(h_t, f_t)
                assert np.array_equal(eta, alone[0].values)
                assert (val, diag) == alone[1:]
        back = comass.calibration_sweep(H, g, T_LIST[::-1])
        assert back["rows"] == out["rows"][::-1]
        stacks.clear()


def test_a_sweep_at_the_largest_grid_holds_one_table_at_a_time(
        monkeypatch):
    # a row's near-gap blocks are 4.2 MB at n = 2048, more than a
    # stack's budget, so each stack holds one row, and the sweep's peak
    # stays below two such tables
    grid = Grid(2048)
    g = hull.random_hull_point(1, 0.25, 0.3, grid)
    comass.calibration_sweep(H, g, [0.05])     # the per-grid caches
    stacks = record_stacks(monkeypatch)
    block = 8 * math.prod(WeightedTable.block_shape(
        grid.n, gradient_near_gaps(grid.n)))
    tracemalloc.start()
    try:
        out = comass.calibration_sweep(H, g, [0.05, 0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(stack) for stack in stacks] == [1, 1]
    assert all(row["converged"] for row in out["rows"])
    assert block > comass._STACK_BYTES and peak < 2 * block, peak


@pytest.mark.parametrize("t", [1.5, -0.2, float("nan")])
def test_a_sweep_rejects_t_off_the_segment(t):
    g = hull.random_hull_point(1, 0.25, 0.3, Grid(128))
    with pytest.raises(ValueError, match="off the segment"):
        comass.calibration_sweep(H, g, [0.1, t])


def test_calibration_sweep_floor_excludes_rows():
    grid = Grid(128)
    g = hull.random_hull_point(3, 0.25, 0.3, grid)
    out = comass.calibration_sweep(H, g, [0.1], defect_floor=1e9)
    assert out["rows"][0]["floored"]
    assert out["n_fit"] == 0


def test_a_sweep_fits_no_row_at_a_distance_of_rounding():
    # the CLI's default h and g at n = 64: the t = 0 row, at the
    # hemisphere point, is 4.4e-16 from the hemisphere and its defect
    # lies above the floor; fitted, it would pull the slope from 1.98
    # to 0.076
    grid = Grid(64)
    h = SpherePoint(0.0, 0.7)
    g = hull.random_hull_point(1, 0.25, 0.3, grid)
    out = comass.calibration_sweep(h, g, [0.0, 0.1, 0.2], defect_floor=5e-5)
    row = out["rows"][0]
    assert 0 < row["dist"] <= hull.HEMISPHERE_GAP and not row["floored"]
    want = comass.calibration_sweep(h, g, [0.1, 0.2], defect_floor=5e-5)
    assert out["n_fit"] == want["n_fit"] == 2
    assert out["slope"] == want["slope"]


def test_a_sweep_fits_no_line_through_one_distance():
    # two copies of one row: a line through them is a rank-1 fit
    grid = Grid(128)
    g = hull.random_hull_point(3, 0.25, 0.3, grid)
    out = comass.calibration_sweep(H, g, [0.1, 0.1])
    assert out["rows"][0] == out["rows"][1]
    assert out["n_fit"] == 2
    assert "slope" not in out and "intercept" not in out


def test_workspace_rejects_boundary_functions():
    f = boundary_point(0.0, GRID)
    with pytest.raises(ValueError):
        comass.psi(H, f, zero_field(GRID))
    with pytest.raises(ValueError):
        workspace(H, f)


def _weighted_table(f):
    """The coefficient table times the column weights of the triangle
    rule, zero off the strict upper triangle."""
    n, h2 = f.grid.n, f.grid.step ** 2
    W = np.triu(np.full((n, n), h2), k=1)
    W[: n - 1, n - 1] *= 1.5
    return p_grid(f) * W


def _dense_reference(ws, f, eta, v):
    """Value, gradient and Hessian quadratic form of Psi from the full
    n x n tables of sin and cos of tb_k - ta_j, term by term."""
    tb = ws.nu_beta[0] + eta.values
    ta = ws.nu_alpha[0] + midnodes(eta.values, eta.values[0])
    delta = tb[None, :] - ta[:, None]
    value = integrate_triangle(p_grid(f) * np.sin(delta), ws.grid)
    PW = _weighted_table(f)
    G = PW * np.cos(delta)
    g = G.sum(axis=0)
    rows = G.sum(axis=1)
    g -= 0.5 * (rows + np.roll(rows, 1))
    dv = v.values[None, :] - midnodes(v.values, v.values[0])[:, None]
    q = float(-(PW * np.sin(delta) * dv * dv).sum())
    return value, g - g.mean(), q


def _capped_field(grid, rng, amp):
    """Smooth mean-zero field with sup norm exactly ``amp``."""
    v = random_field(grid, rng).values
    return AngleField(grid, v * (amp / np.abs(v).max()))


@pytest.mark.parametrize("n", [64, 512, 1024])
@pytest.mark.parametrize("point", ["hemisphere", "random:3,0.4,0.3"])
@pytest.mark.parametrize("eta_kind", ["zero", "interior", "at_cap"])
def test_workspace_matches_the_dense_reference(n, point, eta_kind):
    grid = Grid(n)
    if point == "hemisphere":
        h, f = H, hull.sphere_point(H, grid)
    else:
        f = hull.random_hull_point(3, 0.4, 0.3, grid)
        _, h = hull.dist_to_hemisphere(f)
    ws = workspace(h, f)
    rng = np.random.default_rng(n)
    cap = OptimizerConfig().eta_cap
    eta = {"zero": zero_field(grid),
           "interior": _capped_field(grid, rng, 0.3 * cap),
           "at_cap": _capped_field(grid, rng, cap)}[eta_kind]
    v = _capped_field(grid, rng, 0.3)
    (psi, g), q = evaluate(ws, eta), quadform(ws, eta, v)
    ref_value, ref_g, ref_q = _dense_reference(ws, f, eta, v)
    assert psi == pytest.approx(ref_value, rel=1e-13)
    assert q == pytest.approx(ref_q, rel=1e-12)
    if point == "hemisphere" and eta_kind == "zero":
        # the maximizer: the gradient is only the quadrature bias, a
        # cancellation of terms 100 to 1000 times larger, and both forms
        # round at the scale of those terms
        scale = np.abs(_weighted_table(f)).sum(axis=0).max()
    else:
        scale = np.abs(ref_g).max()
    assert np.abs(g - ref_g).max() <= 1e-13 * scale
    psi2, g2 = evaluate(ws, eta)
    assert psi2 == psi
    assert np.array_equal(g2, g)
    assert quadform(ws, eta, v) == q


LONG_PI = 4 * np.arctan(np.longdouble(1))


def _long_double_table(f):
    """``PW`` in long double from the same double gaps ``(k - j - 1/2)
    step`` and values of ``f``, at the exact midpoints ``(y_k + y_{k+1})
    / 2`` with ``y_n = pi - y_0``, as the workspace takes them."""
    L = np.longdouble
    k = np.arange(f.grid.n)
    a = ((k[None, :] - k[:, None] - 0.5) * f.grid.step).astype(L)
    y = f.values.astype(L)
    x = ((y + np.concatenate([y[1:], [LONG_PI - y[0]]])) / 2)[:, None]
    sx, sy, sa = np.sin(x), np.sin(y), np.sin(a)
    d = np.cos(x) - np.cos(a) * np.cos(y)
    e = np.maximum(sy * sy - d * d / (sa * sa), 0)
    c = f.grid.triangle_weights.astype(L)
    return np.triu(e / (sx * sx * sy * sy) * c, 1)


def _long_double_gradient(PW, ws, eta):
    """The mean-zero gradient of Psi in long double from the double
    phase tables of ``ws`` and ``eta``, term by term."""
    eta = eta.values.astype(np.longdouble)
    tb = ws.nu_beta[0] + eta
    ta = ws.nu_alpha[0] + (eta + np.roll(eta, -1)) / 2
    G = PW * np.cos(tb[None, :] - ta[:, None])
    rows = G.sum(axis=1)
    g = G.sum(axis=0) - (rows + np.roll(rows, 1)) / 2
    return g - g.mean()


@pytest.mark.parametrize("point", ["hemisphere", "random:3,0.4,0.3"])
def test_workspace_gradient_against_long_double(point):
    # the fields of test_workspace_matches_the_dense_reference at n =
    # 512, over its seed and the seven after it.  Worst error over max|g|,
    # measured: hemisphere 9.6e-14 (interior) and 3.2e-14 (at the cap),
    # random 1.9e-14 and 1.8e-14; with NEAR_GAPS near gaps for gradients
    # 9.2e-13, 2.9e-13, 1.7e-13 and 1.2e-13, each seed above its bound
    grid = Grid(512)
    if point == "hemisphere":
        h, f = H, hull.sphere_point(H, grid)
        bounds = {"interior": 1.5e-13, "at_cap": 5e-14}
    else:
        f = hull.random_hull_point(3, 0.4, 0.3, grid)
        _, h = hull.dist_to_hemisphere(f)
        bounds = {"interior": 3e-14, "at_cap": 3e-14}
    ws = workspace(h, f)
    PW = _long_double_table(f)
    cap = OptimizerConfig().eta_cap
    for seed in range(grid.n, grid.n + 8):
        rng = np.random.default_rng(seed)
        fields = {"interior": _capped_field(grid, rng, 0.3 * cap),
                  "at_cap": _capped_field(grid, rng, cap)}
        for kind, eta in fields.items():
            want = _long_double_gradient(PW, ws, eta)
            err = float(np.abs(evaluate(ws, eta)[1] - want).max()
                        / np.abs(want).max())
            assert err <= bounds[kind], (seed, kind, err)


@pytest.mark.parametrize("n", [64, 512, 1024])
@pytest.mark.parametrize("point", ["hemisphere", "random:3,0.4,0.3"])
def test_streamed_psi_matches_the_workspace_value(n, point):
    grid = Grid(n)
    if point == "hemisphere":
        h, f = H, hull.sphere_point(H, grid)
    else:
        f = hull.random_hull_point(3, 0.4, 0.3, grid)
        _, h = hull.dist_to_hemisphere(f)
    ws = workspace(h, f)
    rng = np.random.default_rng(n + 1)
    for eta in (zero_field(grid),
                _capped_field(grid, rng, OptimizerConfig().eta_cap)):
        # the same weighted entries, summed block by block: measured
        # within 1.5e-16
        assert comass.psi(h, f, eta) == pytest.approx(evaluate(ws, eta)[0],
                                                      rel=1e-14)


@pytest.mark.parametrize("n", [64, 512, 1024])
@pytest.mark.parametrize("eta_kind", ["zero", "interior", "at_cap"])
def test_evaluate_equals_the_separately_formed_products(n, eta_kind):
    # Psi and its gradient from one call are, bit for bit, those summed
    # from a product with PW and one with its transpose formed apart
    grid = Grid(n)
    f = hull.random_hull_point(3, 0.4, 0.3, grid)
    _, h = hull.dist_to_hemisphere(f)
    ws = workspace(h, f)
    rng = np.random.default_rng(n)
    cap = OptimizerConfig().eta_cap
    eta = {"zero": zero_field(grid),
           "interior": _capped_field(grid, rng, 0.3 * cap),
           "at_cap": _capped_field(grid, rng, cap)}[eta_kind]
    (B,), (A,) = competitor_rows(ws.nu_beta, ws.nu_alpha, eta.values[None])
    (R,), (T,) = ws.table(B[None]), ws.table.transposed(A[None])
    psi = A[0] @ R[1] - A[1] @ R[0]
    mid = A[0] * R[0] + A[1] * R[1]
    g = B[0] * T[0] + B[1] * T[1] - 0.5 * mid - 0.5 * np.roll(mid, 1)
    g -= g.sum() / n
    val, grad = evaluate(ws, eta)
    assert val == psi
    assert np.array_equal(grad, g)


CAP = OptimizerConfig.eta_cap


def _clipping_inputs(rng, count=40, n=64):
    """Vectors whose projection clips no entry, a few, or most."""
    for k in range(count):
        scale = (0.03, 0.2, 1.0, 5.0)[k % 4]
        yield rng.normal(scale=scale, size=n) + rng.normal()


def test_projection_satisfies_the_kkt_conditions():
    # x = P(v) minimizes |x - v|^2 on {sum x = 0, |x| <= cap} iff v - x
    # is one tau on the free entries, >= tau where x = cap and <= tau
    # where x = -cap
    rng = np.random.default_rng(11)
    for v in _clipping_inputs(rng):
        x = comass._project(v[None], CAP)[0]
        tol = 1e-14 * max(1.0, np.abs(v).max())
        assert abs(x.sum()) <= 64 * tol
        assert np.abs(x).max() <= CAP
        r = v - x
        upper, lower = x == CAP, x == -CAP
        free = ~(upper | lower)
        if free.any():
            tau = r[free].mean()
            assert np.abs(r[free] - tau).max() <= tol
        else:
            tau = 0.5 * (r[lower].max() + r[upper].min())
        assert (r[upper] >= tau - tol).all()
        assert (r[lower] <= tau + tol).all()


def test_projection_is_nearest_among_random_feasible_points():
    rng = np.random.default_rng(12)
    for v in _clipping_inputs(rng, count=8):
        x = comass._project(v[None], CAP)[0]
        best = np.linalg.norm(x - v)
        # feasible points around x and spread over the box: mean zero,
        # then scaled into the cap
        for spread in (1e-3, 0.05, CAP):
            y = x + rng.normal(scale=spread, size=(1000, len(v)))
            y -= y.mean(axis=1, keepdims=True)
            y *= np.minimum(1.0, CAP / np.abs(y).max(axis=1, keepdims=True))
            assert (np.linalg.norm(y - v, axis=1) >= best - 1e-12).all()


def test_projection_without_clipping_subtracts_the_mean():
    rng = np.random.default_rng(13)
    v = 0.02 * rng.normal(size=256) + 3.0
    assert np.array_equal(comass._project(v[None], CAP)[0], v - v.mean())


def _capped_problem():
    f = hull.random_hull_point(3, 0.25, 0.3, GRID)
    _, h = hull.dist_to_hemisphere(f)
    return h, f


def toward(h, grid, seeds, t):
    """The problems ``(nearest hemisphere point, f_t)`` of ``f_t = (1 -
    t) h + t g`` toward ``random:SEED,0.25,0.3``."""
    h_fn = hull.sphere_point(h, grid)
    problems = []
    for seed in seeds:
        g = hull.random_hull_point(seed, 0.25, 0.3, grid)
        f = hull.HullFn(grid, (1 - t) * h_fn.values + t * g.values)
        problems.append((hull.dist_to_hemisphere(f)[1], f))
    return problems


def stacked_as_alone(problems):
    """Each problem's termination alone, once one stack of all of them
    has given each problem exactly its result alone."""
    points, fns = (list(x) for x in zip(*problems))
    stacked = comass._maximize(points, fns)
    alone = [comass.maximize_eta(h, f) for h, f in problems]
    for (eta, val, diag), (eta1, val1, diag1) in zip(stacked, alone):
        assert np.array_equal(eta, eta1.values)
        assert (val, diag) == (val1, diag1)
    return [diag["termination"] for *_, diag in alone]


@pytest.mark.parametrize("max_iters, terminations", [
    (comass.MAX_ITERS, ["value_resolution", "value_resolution", "grad_tol",
                        "value_resolution"]),
    (20, ["max_iters", "value_resolution", "grad_tol", "value_resolution"])],
    ids=["400-1-terminations0", "20-1-terminations1"])
def test_problems_that_end_apart_get_their_results_alone(
        monkeypatch, max_iters, terminations):
    # the capped problem, the hemisphere point and two points near it
    # end after 33, 6, 10 and 11 iterations; with a limit of 20 the
    # capped one ends on it after the others have converged.  Each ended
    # problem leaves the stack
    monkeypatch.setattr(comass, "MAX_ITERS", max_iters)
    problems = ([_capped_problem(), (H, hull.sphere_point(H, GRID))]
                + toward(H, GRID, (2, 0), 0.02))
    assert stacked_as_alone(problems) == terminations


def test_problems_that_backtrack_apart_get_their_results_alone(
        monkeypatch):
    # past its 3 + 2i-th evaluation, every value of problem i falls by
    # 1e-3 more than the one before.  Keyed on counts of calls, which
    # rounding cannot move, the problems of a stack reject trials from
    # different rounds on, and the ones that did not move keep their
    # gradients while the ones that did take new ones
    problems = toward(SpherePoint(0.0, 0.7), Grid(128), (0, 1, 2, 3, 5, 7),
                      0.2)
    index = {id(f): i for i, (_, f) in enumerate(problems)}
    Workspace = comass._Workspace
    init, keep, evaluate = (Workspace.__init__, Workspace.keep,
                            Workspace.evaluate)

    def counting(self, points, fns):
        init(self, points, fns)
        self.start = np.array([3 + 2 * index[id(f)] for f in fns])
        self.calls = np.zeros(len(fns), dtype=int)

    def kept(self, rows):
        keep(self, rows)
        self.start, self.calls = self.start[rows], self.calls[rows]

    def falling(self, eta):
        val, g = evaluate(self, eta)
        self.calls += 1
        return val - 1e-3 * np.maximum(self.calls - self.start, 0), g

    monkeypatch.setattr(Workspace, "__init__", counting)
    monkeypatch.setattr(Workspace, "keep", kept)
    monkeypatch.setattr(Workspace, "evaluate", falling)
    assert "line_search_stall" in stacked_as_alone(problems)


def test_a_maximizer_at_the_cap_is_converged_inside_it():
    h, f = _capped_problem()
    eta, val, diag = comass.maximize_eta(h, f)
    assert diag["cap_active"] and diag["converged"]
    assert diag["termination"] in ("grad_tol", "value_resolution")
    assert np.abs(eta.values).max() <= CAP
    assert val >= comass.psi(h, f, zero_field(GRID))


def test_ascent_stops_at_the_iteration_limit(monkeypatch):
    monkeypatch.setattr(comass, "MAX_ITERS", 1)
    _, _, diag = comass.maximize_eta(*_capped_problem())
    assert diag["termination"] == "max_iters"
    assert diag["iterations"] == 1 and not diag["converged"]


def test_ascent_on_a_falling_value_stalls(monkeypatch):
    # every candidate falls by more than rounding: no step is accepted
    evaluate = comass._Workspace.evaluate
    drops = iter(range(10 ** 6))

    def falling(self, eta):
        val, g = evaluate(self, eta)
        return val - next(drops), g

    monkeypatch.setattr(comass._Workspace, "evaluate", falling)
    _, _, diag = comass.maximize_eta(*_capped_problem())
    assert diag["termination"] == "line_search_stall"
    assert diag["iterations"] == 0 and not diag["converged"]


def test_ascent_ends_on_the_gradient_mapping(monkeypatch):
    monkeypatch.setattr(comass, "GRAD_TOL", 1e-4)
    _, _, diag = comass.maximize_eta(*_capped_problem())
    assert diag["termination"] == "grad_tol" and diag["converged"]
    assert 0 < diag["iterations"] and diag["grad_norm"] <= 1e-4


def test_an_unresolvable_rise_ends_as_converged(monkeypatch):
    # with a coarse resolution the run ends early, and the value it
    # reaches is within a few times that resolution of the full run's
    h, f = _capped_problem()
    _, full, _ = comass.maximize_eta(h, f)
    monkeypatch.setattr(comass, "VALUE_RTOL", 1e-7)
    _, val, diag = comass.maximize_eta(h, f)
    assert diag["termination"] == "value_resolution" and diag["converged"]
    assert abs(val - full) <= 1e-5


def test_psi_and_the_workspace_hold_no_n_by_n_table():
    # one 2048 x 2048 table of doubles is 34 MB.  psi keeps NEAR_GAPS
    # near gaps; the gradient workspace keeps K = n // 10 of them in
    # blocks of R rows and R + K - 1 columns, 4.2 MB at n = 2048
    grid = Grid(2048)
    f = hull.random_hull_point(3, 0.4, 0.3, grid)
    _, h = hull.dist_to_hemisphere(f)
    eta = zero_field(grid)
    evaluate(workspace(h, f), eta)     # the per-grid caches
    comass.psi(h, f, eta)
    for run, limit in ((lambda: comass.psi(h, f, eta), 1e6),
                       (lambda: evaluate(workspace(h, f), eta), 1.2e7)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
