"""Antipodal plane paths and the action of the two-form on them.

A path is a map ``gamma: R -> R^2`` with ``gamma(alpha + pi) =
-gamma(alpha)``, stored on the half period like hull functions.  The
action of the form with coefficients ``p`` is

    omega_f(gamma) = integral over {0 < alpha < beta < pi} of
                     p(alpha, beta) * (gamma(alpha) x gamma(beta)).

For a hemisphere point ``h`` the maximizer is the unit path
``gamma_0 = exp(i nu_h)`` where ``nu_h`` integrates the tangent-circle
speed; perturbed competitors ``gamma_eta = exp(i (nu_h + eta))`` with a
mean-zero angle field ``eta`` feed the comass optimization, which takes
their samples for a stack of fields from ``competitor_rows``, and the
auxiliary loops ``mu`` and ``sigma`` quantify how far a competitor is
from calibrating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import Grid, band_rule, integrate_period, midnodes
from .hull import HullFn, SpherePoint
from .coeffs import NEAR_GAPS, WeightedTable, q_band, hemisphere_speed

__all__ = [
    "PlanePath",
    "AngleField",
    "nu_h",
    "nu_tables",
    "competitor_rows",
    "gamma_from_eta",
    "omega_action",
    "mu_path",
    "sigma_path",
    "fuglede_check",
]

PI = math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PlanePath:
    """Plane path sampled at the integer nodes; implied extension
    ``gamma(alpha + pi) = -gamma(alpha)``.

    ``mid_points`` optionally carries exact values at the midpoint
    nodes; constructors that know the path analytically fill it so the
    action agrees bit-for-bit with phase-space formulas.  When absent,
    midpoint values are linear interpolations with the antipodal wrap.
    """

    grid: Grid
    points: np.ndarray = field(repr=False)
    mid_points: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (self.grid.n, 2):
            raise ValueError(f"expected shape {(self.grid.n, 2)}, "
                             f"got {pts.shape}")
        object.__setattr__(self, "points", pts)
        if self.mid_points is not None:
            mid = np.asarray(self.mid_points, dtype=float)
            if mid.shape != (self.grid.n, 2):
                raise ValueError("mid_points shape mismatch")
            object.__setattr__(self, "mid_points", mid)

    def extended(self) -> np.ndarray:
        """Samples on the full circle, length ``2n``."""
        return np.concatenate([self.points, -self.points])

    def at_midnodes(self) -> np.ndarray:
        if self.mid_points is not None:
            return self.mid_points
        return midnodes(self.points.T, -self.points[0]).T


@dataclass(frozen=True)
class AngleField:
    """Mean-zero angle perturbation at the integer nodes, extended
    pi-periodically.  The mean-zero gauge removes the rotation
    degeneracy of the action."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError("values shape mismatch")
        if abs(v.sum() * self.grid.step) > 1e-9:
            raise ValueError("angle field is not mean zero")
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_values(grid: Grid, values: np.ndarray) -> "AngleField":
        v = np.asarray(values, dtype=float)
        return AngleField(grid, v - v.mean())


def _phase(theta: np.ndarray, s: float) -> np.ndarray:
    """``phi(theta)``, the branch of ``atan2(sin theta, s cos theta)`` in
    theta's quadrant: an antiderivative of ``s / (s^2 cos^2 theta +
    sin^2 theta)``, inverted by ``phi`` at ``1 / s``."""
    psi = np.arctan2(np.sin(theta), s * np.cos(theta))
    return psi + TWO_PI * np.round((theta - psi) / TWO_PI)


def nu_tables(p: SpherePoint, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Phase ``nu_h`` at the integer nodes (n+1 values on [0, pi]) and
    at the midpoint nodes: ``phi(alpha - tau) - phi(-tau)``, ``phi`` the
    ``_phase`` at ``sin d``, integrates ``hemisphere_speed``; ``nu_h(pi)
    = pi`` by ``phi(theta + pi) = phi(theta) + pi``, not evaluated."""
    if p.d <= 0.0:
        raise ValueError("nu is undefined on the boundary circle (d = 0)")
    sd = math.sin(p.d)
    pts = np.arange(2 * grid.n) * (grid.step / 2.0)
    nu = _phase(pts - p.tau, sd) - _phase(-p.tau, sd)
    return np.append(nu[::2], PI), nu[1::2]


def nu_h(p: SpherePoint, grid: Grid) -> np.ndarray:
    """Monotone phase function with ``nu(0) = 0`` and ``nu(pi) = pi``;
    slope between ``sin d`` and ``1/sin d``."""
    return nu_tables(p, grid)[0]


def competitor_rows(nu_beta: np.ndarray, nu_alpha: np.ndarray,
                    eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (cos, sin) rows of ``gamma_eta = exp(i (nu_h + eta))`` for a
    stack of fields ``eta`` ``(m, n)``, each ``(m, 2, n)``: at the
    integer nodes, of the phase ``nu_beta + eta``, and at the midpoint
    nodes, of ``nu_alpha`` plus ``eta`` averaged there.  ``nu_beta`` is
    the node table of ``nu_tables`` without its node at pi, ``nu_alpha``
    the midpoint table, each broadcast against ``eta``."""
    tb = nu_beta + eta
    ta = nu_alpha + midnodes(eta, eta[:, 0])
    B, A = np.empty((2, len(tb), 2, tb.shape[1]))
    np.cos(tb, out=B[:, 0])
    np.sin(tb, out=B[:, 1])
    np.cos(ta, out=A[:, 0])
    np.sin(ta, out=A[:, 1])
    return B, A


def gamma_from_eta(p: SpherePoint, eta: AngleField) -> PlanePath:
    """Unit path ``exp(i (nu_h + eta))`` with exact midpoint samples
    (eta interpolated linearly at midpoints, matching the phase-space
    functional): row 0 of ``competitor_rows``."""
    nu_beta, nu_alpha = nu_tables(p, eta.grid)
    B, A = competitor_rows(nu_beta[:-1], nu_alpha, eta.values[None])
    return PlanePath(eta.grid, B[0].T, A[0].T)


def omega_action(f: HullFn, gamma: PlanePath) -> float:
    """Action of the form of ``f`` on the path: ``coeffs.WeightedTable``
    with ``NEAR_GAPS`` near gaps, no n x n array, applied to the node
    samples and crossed with the midpoint samples.  Its ``e`` is clamped
    at zero only on the near gaps; on the 33 random endpoints of the
    benchmark (n = 512) that moves Psi by at most 4.4e-15.  ``check``
    and the tests compare it with the dense sum of ``coeffs.p_grid``."""
    if f.grid.n != gamma.grid.n:
        raise ValueError("grid mismatch")
    # contiguous (2, n) rows, like the Psi workspace's trig rows: dot
    # products of strided columns round differently
    gb = np.ascontiguousarray(gamma.points.T)
    gm = np.ascontiguousarray(gamma.at_midnodes().T)
    R = WeightedTable([f], NEAR_GAPS)(gb[None])[0]   # (PW x, PW y)
    return float(gm[0] @ R[1] - gm[1] @ R[0])


def mu_path(f: HullFn, gamma: PlanePath) -> PlanePath:
    """The loop ``mu(alpha) = integral over (alpha, alpha + pi) of
    q(alpha, beta) gamma(beta) d beta`` with ``q = e / sin^2 f(beta)``
    (``coeffs.q_band``), sampled at the integer nodes."""
    if f.grid.n != gamma.grid.n:
        raise ValueError("grid mismatch")
    q = q_band(f)  # rejects boundary functions
    idx, w = band_rule(f.grid)
    pts = np.einsum("km,m,kmc->kc", q, w, gamma.extended()[idx])
    return PlanePath(f.grid, pts)


def sigma_path(p: SpherePoint,
               eta: AngleField) -> tuple[PlanePath, float]:
    """Half-period average loop of a competitor and its signed area.

    ``sigma(alpha) = (1/2) integral over (alpha, alpha + pi) of
    p_beta(h) gamma_eta(beta) d beta``.  The derivative has the closed
    form ``sigma' = -p_alpha(h) gamma_eta(alpha)``, which we use in the
    shoelace area ``A = (1/2) contour integral of sigma x sigma'``.
    """
    grid = eta.grid
    gamma = gamma_from_eta(p, eta)
    speed = np.asarray(hemisphere_speed(p, grid.beta_nodes))
    idx, w = band_rule(grid)
    pts = 0.5 * np.einsum("km,m,kmc->kc", np.tile(speed, 2)[idx], w,
                          gamma.extended()[idx])
    sigma = PlanePath(grid, pts)

    dsigma = -speed[:, None] * gamma.points
    cross = pts[:, 0] * dsigma[:, 1] - pts[:, 1] * dsigma[:, 0]
    # sigma x sigma' is pi-periodic, so half of the [0, 2*pi) contour
    # equals the full [0, pi) sum.
    area = integrate_period(cross, PI)
    return sigma, area


def fuglede_check(p: SpherePoint,
                  eta: AngleField) -> tuple[complex, complex, float, float]:
    """Fourier stability data of the sigma loop.

    Reparametrizes sigma by the arclength variable ``t = nu_h(alpha)``,
    inverted in closed form, computes the Fourier coefficients ``c0,
    c1`` by the periodic trapezoid rule at 2048 values of ``t``, and
    returns ``(c0, c1, sup|w|, 5*pi*(pi - A))`` where ``w(t) = c0 + c1
    e^{it} - sigma(t)``.
    """
    grid = eta.grid
    sigma, area = sigma_path(p, eta)
    alpha_full = np.concatenate([grid.beta_nodes, grid.beta_nodes + PI,
                                 [TWO_PI]])
    z = sigma.extended() @ np.array([1.0, 1j])

    m_t = 2048
    t = np.arange(m_t) * (TWO_PI / m_t)
    # the inverse of nu_h: phi at 1 / sin d inverts phi at sin d
    sd = math.sin(p.d)
    alpha_t = p.tau + _phase(t + _phase(-p.tau, sd), 1.0 / sd)
    s_tilde = np.interp(alpha_t, alpha_full, np.append(z, z[0]))

    c0 = complex(s_tilde.mean())
    c1 = complex((s_tilde * np.exp(-1j * t)).mean())
    w = c0 + c1 * np.exp(1j * t) - s_tilde
    w_sup = float(np.abs(w).max())
    bound = 5.0 * PI * (PI - area)
    return c0, c1, w_sup, bound

