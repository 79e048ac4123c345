"""End-to-end acceptance checks for the package.

Each test prints a single PASS/FAIL line with the measured quantity so
the suite doubles as a report.  Grid sizes follow the desk scale used
throughout: optimization at n = 512, evaluation up to n = 1024,
parameter grids at most 128 x 128.
"""

import math

import numpy as np
import pytest

from fillhull import coeffs, comass, hull, pathspace, volumes
from fillhull.hull import HullFn, SpherePoint
from fillhull.pathspace import AngleField
from fillhull.quadrature import Grid, integrate_period

from conftest import ACCEPTANCE_LINES, random_norm, zero_field

PI = math.pi


def report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def smooth_field(grid: Grid, rng, amp: float) -> AngleField:
    v = np.zeros(grid.n)
    for k in (1, 2, 3, 4):
        v += (rng.normal() * np.cos(2 * k * grid.beta_nodes)
              + rng.normal() * np.sin(2 * k * grid.beta_nodes)) / k
    v *= amp / max(np.abs(v).max(), 1e-12)
    return AngleField.from_values(grid, v)


def test_calibration_value_on_hemisphere_points():
    # comass of hemisphere points equals pi within 2e-3
    rng = np.random.default_rng(0)
    grid = Grid(512)
    eval_grid = Grid(1024)
    worst = 0.0
    for _ in range(10):
        p = SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0.3, PI / 2))
        f = hull.sphere_point(p, grid)
        val, diag = comass.comass_ir(f, eval_grid=eval_grid)
        assert diag["converged"]
        worst = max(worst, abs(val - PI))
    ok = worst <= 2e-3
    report("calibration value", ok,
           f"worst |comass - pi| = {worst:.3e} over 10 hemisphere points "
           f"(tol 2e-3)")
    assert ok


def test_tangent_circle_speed_integrates_to_two_pi():
    rng = np.random.default_rng(1)
    n = 1024
    alphas = np.arange(2 * n) * (2 * PI / (2 * n))
    worst = 0.0
    for _ in range(10):
        p = SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0.05, PI / 2))
        sp = coeffs.hemisphere_speed(p, alphas)
        worst = max(worst, abs(integrate_period(sp, 2 * PI) - 2 * PI))
    ok = worst <= 1e-6
    report("tangent circle identity", ok,
           f"worst |integral - 2 pi| = {worst:.3e} over 10 random d "
           f"(tol 1e-6)")
    assert ok


def test_calibration_defect_rate():
    # the defect |comass - pi| decays superlinearly in the distance to
    # the hemisphere along segments toward rough hull points
    grid = Grid(512)
    h = SpherePoint(0.0, 0.6)
    h_fn = hull.sphere_point(h, grid)
    t_list = [0.02 * k for k in range(1, 11)]
    slopes = []
    for seed in (0, 1, 3, 4, 6):
        rough = hull.random_hull_point(seed, 0.25, 0.3, grid)
        g = HullFn(grid, 0.5 * (h_fn.values + rough.values))
        out = comass.calibration_sweep(h, g, t_list, defect_floor=5e-5)
        assert out["n_fit"] >= 4
        slopes.append(out["slope"])
    ok = min(slopes) >= 1.5
    report("calibration defect rate", ok,
           "log-log slopes " + ", ".join(f"{s:.2f}" for s in slopes)
           + " over 5 random g (all >= 1.5, >= 4 fit points each)")
    assert ok


def test_gradient_and_hessian_oracles():
    rng = np.random.default_rng(2)
    grid = Grid(256)
    worst_g = 0.0
    worst_h = 0.0
    for trial in range(20):
        f = hull.random_hull_point(100 + trial, 0.25, 0.3, grid)
        _, h = hull.dist_to_hemisphere(f)
        eta = smooth_field(grid, rng, 0.05)
        v = smooth_field(grid, rng, 1.0)
        g = comass.psi_gradient(h, f, eta)
        dot = float(g.values @ v.values)
        t = 1e-6
        up = AngleField.from_values(grid, eta.values + t * v.values)
        dn = AngleField.from_values(grid, eta.values - t * v.values)
        fd = (comass.psi(h, f, up) - comass.psi(h, f, dn)) / (2 * t)
        worst_g = max(worst_g, abs(fd - dot) / max(1.0, abs(fd)))

        q = comass._Workspace([h], [f]).quadform(eta.values[None],
                                                 v.values[None])[0]
        t = 1e-4
        up = AngleField.from_values(grid, eta.values + t * v.values)
        dn = AngleField.from_values(grid, eta.values - t * v.values)
        fd2 = (comass.psi(h, f, up) - 2 * comass.psi(h, f, eta)
               + comass.psi(h, f, dn)) / (t * t)
        worst_h = max(worst_h, abs(fd2 - q) / max(1.0, abs(fd2)))
    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    report("gradient and hessian oracles", ok,
           f"worst relative gaps: gradient {worst_g:.3e} (tol 1e-5), "
           f"hessian {worst_h:.3e} (tol 1e-4), 20 random (f, eta, v)")
    assert ok


def test_stationarity_of_hemisphere_points():
    # d/dt Psi(h, (1-t) h + t f, 0) vanishes at t = 0
    rng = np.random.default_rng(3)
    grid = Grid(512)
    worst = 0.0
    for trial in range(20):
        p = SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0.35, PI / 2))
        h_fn = hull.sphere_point(p, grid)
        f = hull.random_hull_point(200 + trial, 0.3, 0.3, grid)
        zero = zero_field(grid)
        t = 1e-4
        up = HullFn(grid, (1 - t) * h_fn.values + t * f.values)
        dn = HullFn(grid, (1 + t) * h_fn.values - t * f.values)
        der = (comass.psi(p, up, zero) - comass.psi(p, dn, zero)) / (2 * t)
        worst = max(worst, abs(der))
    ok = worst <= 1e-3
    report("stationarity", ok,
           f"worst |phi'(0)| = {worst:.3e} over 20 random directions "
           f"(tol 1e-3)")
    assert ok


def test_cone_mass_table():
    chart = volumes.cone_chart(48, 48, Grid(256))
    table = volumes.finsler_mass_table(chart)
    want = {"mass": PI ** 2 / 2, "holmes_thompson": 2 * PI,
            "busemann_hausdorff": PI ** 3 / 4, "mass_star": PI ** 2,
            "inner_riemannian": PI ** 2}
    rel = {d: abs(table[d] - want[d]) / want[d] for d in want}
    ok = max(rel.values()) <= 0.02
    report("cone mass table", ok,
           ", ".join(f"{d} {table[d]:.4f} ({rel[d]:.2%})" for d in want)
           + " (tol 2%)")
    assert ok


def test_filling_area_lower_bound():
    got = volumes.coordinate_filling_area(PI / 2)
    ok = abs(got - PI ** 2 / 2) <= 4 * math.ulp(PI ** 2 / 2)
    report("lower bound", ok,
           f"coordinate filling area {got:.12g} vs pi^2/2 = "
           f"{PI ** 2 / 2:.12g} (tol 4 ulp)")
    assert ok


def test_coefficient_l1_norm_conjecture_probe():
    # hemisphere points attain pi^2/2; a seeded random corpus stays
    # below pi^2/2 + 1e-2
    rng = np.random.default_rng(4)
    grid = Grid(1024)
    bound = PI ** 2 / 2
    worst = 0.0
    for _ in range(10):
        p = SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0.3, PI / 2))
        v = coeffs.p_l1_norm(hull.sphere_point(p, grid))
        worst = max(worst, abs(v - bound))
    hemi_ok = worst <= 1e-3

    corpus_grid = Grid(512)
    corpus_max = 0.0
    argmax = -1
    for seed in range(200):
        f = hull.random_hull_point(seed, 0.5, 0.3, corpus_grid)
        v = coeffs.p_l1_norm(f)
        if v > corpus_max:
            corpus_max, argmax = v, seed
    corpus_ok = corpus_max <= bound + 1e-2
    ok = hemi_ok and corpus_ok
    report("coefficient l1 norm", ok,
           f"hemisphere worst gap {worst:.3e} (tol 1e-3); corpus max "
           f"{corpus_max:.5f} at seed {argmax} vs bound {bound:.5f} + 1e-2")
    assert ok


def test_fuglede_stability_bounds():
    rng = np.random.default_rng(5)
    grid = Grid(512)
    worst_w = -math.inf
    worst_c = -math.inf
    for _ in range(50):
        p = SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0.3, PI / 2))
        amp = rng.uniform(0.05, 0.2)
        eta = smooth_field(grid, rng, amp)
        c0, c1, w_sup, bound = pathspace.fuglede_check(p, eta)
        _, area = pathspace.sigma_path(p, eta)
        worst_w = max(worst_w, w_sup - bound)
        worst_c = max(worst_c, (1 - abs(c1)) - math.sqrt(max(PI - area,
                                                             0.0)))
    ok = worst_w <= 1e-3 and worst_c <= 1e-3
    report("fuglede stability", ok,
           f"worst slack: sup|w| - 5 pi (pi - A) = {worst_w:.3e}, "
           f"(1 - |c1|) - sqrt(pi - A) = {worst_c:.3e} over 50 random eta "
           f"(tol 1e-3)")
    assert ok


def test_maximizer_structure():
    # unit speed, orthogonality to the mu loop, and nonnegative cross
    # product, for inputs near the hemisphere
    grid = Grid(1024)
    h = SpherePoint(0.7, 0.8)
    h_fn = hull.sphere_point(h, grid)
    worst_r = 1.0
    worst_orth = 0.0
    worst_cross = math.inf
    cases = [(101, 0.02), (102, 0.04), (103, 0.05), (104, 0.06),
             (105, 0.08)]
    for seed, t in cases:
        g = hull.random_hull_point(seed, 0.25, 0.3, grid)
        f = HullFn(grid, (1 - t) * h_fn.values + t * g.values)
        _, h_t = hull.dist_to_hemisphere(f)
        eta, _, diag = comass.maximize_eta(h_t, f)
        assert diag["converged"]
        gamma = pathspace.gamma_from_eta(h_t, eta)
        mu = pathspace.mu_path(f, gamma)
        r = np.hypot(gamma.points[:, 0], gamma.points[:, 1])
        inner = np.einsum("kc,kc->k", gamma.points, mu.points)
        cross = (gamma.points[:, 0] * mu.points[:, 1]
                 - gamma.points[:, 1] * mu.points[:, 0])
        mu_inf = np.hypot(mu.points[:, 0], mu.points[:, 1]).max()
        worst_r = min(worst_r, float(r.min()))
        worst_orth = max(worst_orth, float(np.abs(inner).max() / mu_inf))
        worst_cross = min(worst_cross, float(cross.min()))
    ok = (worst_r >= 1 - 1e-4 and worst_orth <= 1e-3
          and worst_cross >= -1e-6)
    report("maximizer structure", ok,
           f"min |gamma| = {worst_r:.6f} (>= 1 - 1e-4), orthogonality "
           f"{worst_orth:.2e} (<= 1e-3), min gamma x mu = "
           f"{worst_cross:.3f} (>= -1e-6)")
    assert ok


def test_surface_integral_exactness():
    r = 0.3
    cap = volumes.cap_chart(r, 33, 64, Grid(256))
    base = volumes.omega_surface_integral(cap)
    want = PI * 2 * PI * (1 - math.sin(r))
    round_ok = abs(base - want) / want <= 0.02
    worst = 0.0
    for seed in range(5):
        pert = volumes.perturbed_cap_chart(cap, bump_seed=seed)
        got = volumes.omega_surface_integral(pert)
        worst = max(worst, abs(got - base) / abs(base))
    pert_ok = worst <= 0.02
    ok = round_ok and pert_ok
    report("exactness", ok,
           f"cap integral {base:.4f} vs {want:.4f} "
           f"({abs(base - want) / want:.2%}); worst perturbed deviation "
           f"{worst:.2%} over 5 bumps (tol 2%)")
    assert ok


def test_volume_definition_order():
    # the inner Riemannian density dominates, and any two definitions
    # differ by at most a factor 2; equality cases (parallelogram-like
    # balls) make the first comparison tie at roundoff level
    worst_gap = math.inf
    worst_ratio = 0.0
    for seed in range(100):
        nm = random_norm(seed)
        vals = {d: volumes.jacobian(nm, d)
                for d in volumes.JACOBIAN_DEFINITIONS}
        ir = vals["inner_riemannian"]
        worst_gap = min(worst_gap, min(ir - v for v in vals.values()))
        worst_ratio = max(worst_ratio, max(vals.values())
                          / min(vals.values()))
    ok = worst_gap >= -1e-9 and worst_ratio <= 2.0
    report("volume definition order", ok,
           f"min (ir - other) = {worst_gap:.2e} (>= -1e-9), max ratio = "
           f"{worst_ratio:.4f} (<= 2) over 100 random norms")
    assert ok
