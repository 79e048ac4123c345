"""Comass of the two-form by concave maximization over angle fields.

With ``h`` a hemisphere point and ``f`` a nearby hull function, the
functional

    Psi(f, eta) = integral of p(alpha, beta; f)
                  * sin(nu_h(beta) - nu_h(alpha) + eta(beta) - eta(alpha))

is concave in ``eta`` on a small sup-norm ball and its maximum equals
the comass of the form of ``f``.  At ``f = h`` the maximum is pi with
maximizer ``eta = 0``.  The optimizer below is projected gradient
ascent in the mean-zero gauge with Barzilai-Borwein steps and an
Armijo safeguard.

The ascent direction is band limited: the gradient is projected onto
the Fourier modes below a cutoff (default ``n // 8``).  Near the grid
Nyquist frequency the staggered node/midpoint coupling of the
discretization nearly annihilates the Hessian, so unfiltered ascent
accumulates grid-scale oscillations there that carry no information
about the continuum maximizer.  Smooth maximizers are spectrally
concentrated well below the cutoff, so the restriction changes the
reported maximum only at the level of the quadrature error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .quadrature import Grid, integrate_triangle
from .hull import HullFn, SpherePoint, dist_to_boundary, dist_to_hemisphere
from .coeffs import p_grid
from .pathspace import AngleField, nu_tables

__all__ = [
    "OptimizerConfig",
    "psi",
    "psi_gradient",
    "psi_hessian_quadform",
    "maximize_eta",
    "comass_ir",
    "calibration_sweep",
    "concavity_certificate",
]

PI = math.pi


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 400
    grad_tol: float = 1e-8
    step0: float = 0.0          # 0 means 1 / (max p entry)
    backtrack: float = 0.5
    eta_cap: float = 0.15
    multistart: int = 1
    armijo: float = 1e-4
    seed: int = 0
    band: int = 0               # 0 means n // 8 Fourier modes

    def __post_init__(self) -> None:
        if self.max_iters <= 0 or self.grad_tol <= 0 or self.multistart <= 0:
            raise ValueError("config fields must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack must lie in (0,1)")
        if self.eta_cap <= 0 or self.armijo <= 0 or self.step0 < 0:
            raise ValueError("config fields must be positive")
        if self.band < 0:
            raise ValueError("band must be nonnegative")


class _Workspace:
    """Precomputed tables for repeated Psi evaluations at fixed (h, f)."""

    def __init__(self, p: SpherePoint, f: HullFn):
        if dist_to_boundary(f) <= 0.0:
            raise ValueError("f touches the boundary circle")
        self.grid = f.grid
        n = self.grid.n
        self.P = p_grid(f).p
        nu_beta, nu_alpha = nu_tables(p, self.grid)
        self.nu_beta = nu_beta[:-1]
        self.nu_alpha = nu_alpha
        # quadrature weights of integrate_triangle, as a matrix
        h2 = self.grid.step ** 2
        W = np.triu(np.full((n, n), h2), k=1)
        W[: n - 1, n - 1] *= 1.5
        self.PW = self.P * W

    def delta(self, eta: AngleField) -> np.ndarray:
        tb = self.nu_beta + eta.values
        ta = self.nu_alpha + eta.at_midnodes()
        return tb[None, :] - ta[:, None]

    def value(self, eta: AngleField) -> float:
        return integrate_triangle(self.P * np.sin(self.delta(eta)),
                                  self.grid)

    def gradient(self, eta: AngleField) -> np.ndarray:
        G = self.PW * np.cos(self.delta(eta))
        g = G.sum(axis=0)                      # d / d eta(beta_k)
        rows = G.sum(axis=1)                   # midpoint contributions
        g -= 0.5 * (rows + np.roll(rows, 1))
        return g - g.mean()

    def quadform(self, eta: AngleField, v: AngleField) -> float:
        dv = v.values[None, :] - v.at_midnodes()[:, None]
        return float(-(self.PW * np.sin(self.delta(eta)) * dv * dv).sum())


def psi(p: SpherePoint, f: HullFn, eta: AngleField) -> float:
    """Value of the functional; identical discretization to the path
    action of ``gamma_from_eta``."""
    return _Workspace(p, f).value(eta)


def psi_gradient(p: SpherePoint, f: HullFn, eta: AngleField) -> AngleField:
    """Exact gradient of the discrete functional in the mean-zero gauge."""
    ws = _Workspace(p, f)
    return AngleField(eta.grid, ws.gradient(eta))


def psi_hessian_quadform(p: SpherePoint, f: HullFn, eta: AngleField,
                         v: AngleField) -> float:
    """Second derivative of Psi along ``v``; negative in the concavity
    regime."""
    return _Workspace(p, f).quadform(eta, v)


def _ascend(ws: _Workspace, eta0: np.ndarray,
            cfg: OptimizerConfig) -> tuple[np.ndarray, float, dict]:
    grid = ws.grid
    n = grid.n
    step0 = cfg.step0 if cfg.step0 > 0 else 1.0 / max(ws.P.max(), 1e-12)
    band = cfg.band if cfg.band > 0 else max(8, n // 8)

    def bandpass(v: np.ndarray) -> np.ndarray:
        spec = np.fft.rfft(v)
        spec[0] = 0.0
        spec[band + 1:] = 0.0
        return np.fft.irfft(spec, n)

    def project(v: np.ndarray) -> np.ndarray:
        v = np.clip(v, -cfg.eta_cap, cfg.eta_cap)
        return v - v.mean()

    eta = project(bandpass(eta0))
    val = ws.value(AngleField(grid, eta - eta.mean()))
    step = step0
    grad_norm = math.inf
    iters = 0
    cap_active = False
    eta_prev = None
    g_prev = None
    for iters in range(1, cfg.max_iters + 1):
        field_eta = AngleField(grid, eta - eta.mean())
        g = bandpass(ws.gradient(field_eta))
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= cfg.grad_tol:
            iters -= 1
            break
        if g_prev is not None:
            # Barzilai-Borwein step for the (negated) ascent problem
            de = eta - eta_prev
            dg = g - g_prev
            denom = -float(de @ dg)
            step = float(de @ de) / denom if denom > 1e-30 else step0
            if not step0 * 1e-6 < step < step0 * 1e6:
                step = step0
        eta_prev, g_prev = eta.copy(), g.copy()
        accepted = False
        trial = step
        while trial > step0 * 1e-12:
            cand = project(eta + trial * g)
            cand_val = ws.value(AngleField(grid, cand - cand.mean()))
            if cand_val >= val + cfg.armijo * float(g @ (cand - eta)):
                eta, val = cand, cand_val
                accepted = True
                break
            trial *= cfg.backtrack
        if not accepted:
            break
        cap_active = bool(np.abs(eta).max() >= cfg.eta_cap - 1e-12)
    converged = grad_norm <= cfg.grad_tol
    diag = {"iterations": iters, "grad_norm": grad_norm,
            "cap_active": cap_active, "converged": converged}
    return eta - eta.mean(), val, diag


def maximize_eta(p: SpherePoint, f: HullFn,
                 cfg: OptimizerConfig = OptimizerConfig()
                 ) -> tuple[AngleField, float, dict]:
    """Projected gradient ascent on Psi over mean-zero angle fields
    with ``sup |eta| <= eta_cap``.  Non-convergence is reported in the
    diagnostics, not raised."""
    ws = _Workspace(p, f)
    rng = np.random.default_rng(cfg.seed)
    best = None
    for trial in range(cfg.multistart):
        if trial == 0:
            eta0 = np.zeros(ws.grid.n)
        else:
            eta0 = rng.normal(scale=0.2 * cfg.eta_cap, size=ws.grid.n)
        eta, val, diag = _ascend(ws, eta0, cfg)
        if best is None or val > best[1]:
            best = (eta, val, diag)
    eta, val, diag = best
    return AngleField(ws.grid, eta), val, diag


def _resample_hull(f: HullFn, grid: Grid) -> HullFn:
    return HullFn(grid, f.value_at(grid.beta_nodes))


def _resample_field(eta: AngleField, grid: Grid) -> AngleField:
    src = eta.grid
    xs = np.concatenate([src.beta_nodes, [PI]])
    ys = np.concatenate([eta.values, eta.values[:1]])
    v = np.interp(grid.beta_nodes, xs, ys)
    return AngleField.from_values(grid, v)


def comass_ir(f: HullFn, cfg: OptimizerConfig = OptimizerConfig(),
              eval_grid: Grid | None = None) -> tuple[float, dict]:
    """Comass of the form of ``f``: pick the nearest hemisphere point,
    then maximize Psi.  Returns the value and diagnostics (including
    the chosen hemisphere point and the maximizing field).

    With ``eval_grid`` finer than the grid of ``f``, the maximization
    runs on the coarse grid and the reported value is Psi of the
    resampled maximizer on the fine grid, which removes most of the
    coarse quadrature bias at a single extra evaluation.
    """
    hemi_dist, h = dist_to_hemisphere(f)
    eta, val, diag = maximize_eta(h, f, cfg)
    diag = dict(diag)
    if eval_grid is not None and eval_grid.n != f.grid.n:
        f_fine = _resample_hull(f, eval_grid)
        eta_fine = _resample_field(eta, eval_grid)
        val = psi(h, f_fine, eta_fine)
    diag.update({"hemisphere_point": h, "hemisphere_dist": hemi_dist,
                 "eta": eta, "eta_inf": float(np.abs(eta.values).max())})
    return val, diag


def calibration_sweep(h: SpherePoint, g: HullFn, t_list,
                      cfg: OptimizerConfig = OptimizerConfig(),
                      defect_floor: float = 0.0) -> dict:
    """Comass defect along the segment ``f_t = (1 - t) h + t g``.

    Returns a row per ``t`` with the distance to the hemisphere and
    the defect ``|comass - pi|``, plus a log-log least-squares slope
    over the converged rows whose defect exceeds ``defect_floor``
    (rows at the optimizer noise floor carry no rate information).
    """
    from .hull import sphere_point
    h_fn = sphere_point(h, g.grid)
    rows = []
    for t in t_list:
        f_t = HullFn(g.grid, (1.0 - t) * h_fn.values + t * g.values)
        dist, h_t = dist_to_hemisphere(f_t)
        eta, val, diag = maximize_eta(h_t, f_t, cfg)
        rows.append({
            "t": float(t),
            "dist": float(dist),
            "defect": float(abs(val - PI)),
            "eta_inf": float(np.abs(eta.values).max()),
            "iters": int(diag["iterations"]),
            "converged": bool(diag["converged"]),
            "floored": bool(abs(val - PI) <= defect_floor),
        })
    fit_rows = [r for r in rows
                if r["converged"] and not r["floored"] and r["dist"] > 0]
    out = {"rows": rows, "n_fit": len(fit_rows)}
    if len(fit_rows) >= 2:
        lx = np.log([r["dist"] for r in fit_rows])
        ly = np.log([r["defect"] for r in fit_rows])
        slope, intercept = np.polyfit(lx, ly, 1)
        out["slope"] = float(slope)
        out["intercept"] = float(intercept)
    return out


def concavity_certificate(p: SpherePoint, f: HullFn, eps2: float,
                          trials: int, seed: int = 0) -> float:
    """Empirical strict-concavity constant on the ``sup |eta| <= eps2``
    ball: the minimum over random segment pairs of
    ``-Q(eta_t; v) / ||v||_2^2`` at ``t in {0, 1/2, 1}``."""
    if trials == 0:
        warnings.warn("concavity_certificate called with trials = 0; "
                      "returning the empty-minimum sentinel")
        return math.inf
    ws = _Workspace(p, f)
    grid = ws.grid
    rng = np.random.default_rng(seed)
    alphas = grid.beta_nodes

    def random_field() -> np.ndarray:
        v = np.zeros(grid.n)
        for k in (1, 2, 3):
            v += (rng.normal() * np.cos(2 * k * alphas)
                  + rng.normal() * np.sin(2 * k * alphas))
        v -= v.mean()
        scale = rng.uniform(0.2, 1.0) * eps2 / max(np.abs(v).max(), 1e-12)
        return v * scale

    best = math.inf
    for _ in range(trials):
        e0 = random_field()
        e1 = random_field()
        dv = e1 - e0
        v = AngleField(grid, dv - dv.mean())
        norm2 = PI * float(v.values @ v.values) * grid.step
        for t in (0.0, 0.5, 1.0):
            et = (1 - t) * e0 + t * e1
            q = ws.quadform(AngleField(grid, et - et.mean()), v)
            best = min(best, -q / norm2)
    return best
