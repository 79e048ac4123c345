import math

import numpy as np
import pytest

from fillhull import coeffs, comass, hull, pathspace
from fillhull.hull import HullFn, SpherePoint
from fillhull.pathspace import AngleField, PlanePath
from fillhull.quadrature import Grid, midnodes

from conftest import zero_field

PI = math.pi
GRID = Grid(256)
H = SpherePoint(1.3, 0.6)


def is_admissible(gamma):
    """Whether every sample of the path lies in the closed unit disk."""
    return bool(np.hypot(*gamma.points.T).max() <= 1.0 + 1e-9)


def small_eta(grid=GRID, amp=0.05):
    return AngleField.from_values(
        grid, amp * np.sin(2 * grid.beta_nodes)
        + 0.5 * amp * np.cos(4 * grid.beta_nodes))


def test_nu_is_monotone_and_normalized():
    nu = pathspace.nu_h(H, GRID)
    assert nu[0] == 0.0
    assert nu[-1] == PI
    assert np.all(np.diff(nu) > 0)


def trapezoid_half_cells(p, grid, m):
    """Increments of the integral of the speed over the 2n half cells of
    ``grid``, each by the trapezoid rule on ``m`` steps."""
    h = grid.step / (2 * m)
    speed = coeffs.hemisphere_speed(p, np.arange(2 * grid.n * m + 1) * h)
    return (speed[:-1] + speed[1:]).reshape(-1, m).sum(axis=1) * (h / 2)


@pytest.mark.parametrize("d", [1e-3, 0.01, 0.3, 1.4])
@pytest.mark.parametrize("tau", [1e-3, PI / 2 + 1e-3, PI - 1e-3])
def test_nu_is_the_integral_of_the_speed(tau, d):
    # the closed form against fine trapezoids of the speed, 256 and 512
    # steps per cell, extrapolated as the trapezoid's error falls by 4 a
    # halving: its increments over the half cells lie within 5% of the
    # two trapezoids' distance of the extrapolation (at most 1.4% here)
    p, grid = SpherePoint(tau, d), Grid(64)
    nu_beta, nu_alpha = pathspace.nu_tables(p, grid)
    assert nu_beta[-1] == PI
    nu = np.empty(2 * grid.n + 1)
    nu[::2], nu[1::2] = nu_beta, nu_alpha
    coarse, fine = (trapezoid_half_cells(p, grid, m) for m in (128, 256))
    assert (np.abs(np.diff(nu) - (4 * fine - coarse) / 3)
            <= 0.05 * np.abs(coarse - fine) + 4e-15).all()


@pytest.mark.parametrize("d", [1e-3, 0.01, 0.3, 1.4])
@pytest.mark.parametrize("tau", [1e-3, PI / 2 + 1e-3, PI - 1e-3])
def test_the_inverse_phase_returns_the_nodes(tau, d):
    # alpha(t) = tau + phi_{1/s}(t + phi_s(-tau)), s = sin d, inverts
    # nu_h(alpha) = phi_s(alpha - tau) - phi_s(-tau); nu_h rounds to
    # about eps, which the inverse's slope, up to 1 / sin d, magnifies
    s = math.sin(d)
    nu = pathspace.nu_h(SpherePoint(tau, d), GRID)
    alpha = tau + pathspace._phase(nu + pathspace._phase(-tau, s), 1.0 / s)
    want = np.append(GRID.beta_nodes, PI)
    assert np.abs(alpha - want).max() <= 8e-16 / s


def test_nu_slope_between_sin_d_and_its_inverse():
    nu = pathspace.nu_h(H, GRID)
    slopes = np.diff(nu) / GRID.step
    sd = math.sin(H.d)
    assert slopes.min() >= sd - 1e-6
    assert slopes.max() <= 1.0 / sd + 1e-6


def test_nu_rejects_boundary_point():
    with pytest.raises(ValueError):
        pathspace.nu_h(SpherePoint(0.0, 0.0), GRID)


def test_gamma_from_eta_is_unit_and_admissible():
    gamma = pathspace.gamma_from_eta(H, small_eta())
    r = np.hypot(gamma.points[:, 0], gamma.points[:, 1])
    assert np.allclose(r, 1.0, atol=1e-12)
    assert is_admissible(gamma)


def test_competitor_rows_of_a_stack_are_those_of_each_field():
    nu_beta, nu_alpha = pathspace.nu_tables(H, GRID)
    rng = np.random.default_rng(4)
    fields = [AngleField.from_values(GRID, 0.05 * rng.normal(size=GRID.n))
              for _ in range(3)]
    B, A = pathspace.competitor_rows(nu_beta[:-1], nu_alpha,
                                     np.array([e.values for e in fields]))
    assert B.shape == A.shape == (3, 2, GRID.n)
    for b, a, eta in zip(B, A, fields):
        alone = pathspace.competitor_rows(nu_beta[:-1], nu_alpha,
                                          eta.values[None])
        assert np.array_equal(b, alone[0][0])
        assert np.array_equal(a, alone[1][0])
        gamma = pathspace.gamma_from_eta(H, eta)
        assert np.array_equal(gamma.points, b.T)
        assert np.array_equal(gamma.mid_points, a.T)
        # exp(i (nu_h + eta)), eta averaged at the midpoints
        theta = nu_beta[:-1] + eta.values
        theta_mid = nu_alpha + midnodes(eta.values, eta.values[0])
        assert np.array_equal(b, [np.cos(theta), np.sin(theta)])
        assert np.array_equal(a, [np.cos(theta_mid), np.sin(theta_mid)])


def test_angle_field_enforces_mean_zero():
    with pytest.raises(ValueError):
        AngleField(GRID, np.full(GRID.n, 0.1))
    eta = AngleField.from_values(GRID, np.full(GRID.n, 0.1))
    assert abs(eta.values.sum()) < 1e-12


def test_action_of_hemisphere_maximizer_is_pi():
    f = hull.sphere_point(H, GRID)
    gamma = pathspace.gamma_from_eta(H, zero_field(GRID))
    val = pathspace.omega_action(f, gamma)
    assert val == pytest.approx(PI, abs=1e-4)


def test_action_equals_phase_space_functional():
    f = hull.sphere_point(H, GRID)
    eta = small_eta()
    v1 = pathspace.omega_action(f, pathspace.gamma_from_eta(H, eta))
    v2 = comass.psi(H, f, eta)
    assert v1 == pytest.approx(v2, abs=1e-12)


def shifted(f, gamma, s):
    """``f`` and ``gamma`` with the base point moved by ``s`` grid cells,
    through the antipodal wrap of both."""
    idx = (np.arange(GRID.n) + s) % (2 * GRID.n)
    mid = gamma.at_midnodes()
    return (HullFn(GRID, f.extended()[idx]),
            PlanePath(GRID, gamma.extended()[idx],
                      np.concatenate([mid, -mid])[idx]))


def test_action_is_invariant_under_basepoint_shift():
    f = hull.random_hull_point(2, 0.3, 0.3, GRID)
    gamma = pathspace.gamma_from_eta(H, small_eta())
    before = pathspace.omega_action(f, gamma)
    for steps in (7, GRID.n // 3, GRID.n + 5):
        after = pathspace.omega_action(*shifted(f, gamma, steps))
        assert after == pytest.approx(before, abs=5e-3)


def test_scaling_the_path_scales_the_action():
    f = hull.sphere_point(H, GRID)
    gamma = pathspace.gamma_from_eta(H, zero_field(GRID))
    half = PlanePath(GRID, 0.5 * gamma.points, 0.5 * gamma.mid_points)
    v1 = pathspace.omega_action(f, gamma)
    v2 = pathspace.omega_action(f, half)
    assert v2 == pytest.approx(0.25 * v1, rel=1e-12)


def test_mu_is_orthogonal_to_the_maximizer():
    # at eta = 0 the maximizer gamma and its mu loop are pointwise
    # parallel to each other's normal: <gamma, mu> = 0 up to quadrature
    f = hull.sphere_point(H, GRID)
    gamma = pathspace.gamma_from_eta(H, zero_field(GRID))
    mu = pathspace.mu_path(f, gamma)
    inner = np.einsum("kc,kc->k", gamma.points, mu.points)
    scale = np.hypot(mu.points[:, 0], mu.points[:, 1]).max()
    assert np.abs(inner).max() <= 1e-3 * scale


def test_sigma_area_is_maximal_exactly_at_zero_eta():
    _, a0 = pathspace.sigma_path(H, zero_field(GRID))
    assert a0 == pytest.approx(PI, abs=1e-3)
    _, a1 = pathspace.sigma_path(H, small_eta(amp=0.15))
    assert a1 < a0


def test_sigma_of_maximizer_is_the_unit_circle():
    sigma, _ = pathspace.sigma_path(H, zero_field(GRID))
    r = np.hypot(sigma.points[:, 0], sigma.points[:, 1])
    assert np.allclose(r, 1.0, atol=2e-3)


def test_fuglede_check_on_the_maximizer():
    c0, c1, w_sup, bound = pathspace.fuglede_check(H, zero_field(GRID))
    assert abs(c0) < 1e-3
    assert abs(abs(c1) - 1.0) < 1e-3
    assert w_sup < 5e-3
    assert bound == pytest.approx(0.0, abs=5e-3)


def test_fuglede_residual_drops_quadratically_in_eta():
    amps = [0.2, 0.1, 0.05]
    defects = []
    for amp in amps:
        _, area = pathspace.sigma_path(H, small_eta(amp=amp))
        defects.append(PI - area)
    assert defects[0] > 0
    # halving the amplitude should cut pi - A by about 4
    assert defects[1] == pytest.approx(defects[0] / 4, rel=0.3)
    assert defects[2] == pytest.approx(defects[1] / 4, rel=0.3)


def test_plane_path_validates_shapes():
    with pytest.raises(ValueError):
        PlanePath(GRID, np.zeros((GRID.n, 3)))
    with pytest.raises(ValueError):
        PlanePath(GRID, np.zeros((GRID.n, 2)), np.zeros((GRID.n + 1, 2)))
