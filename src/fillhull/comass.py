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
the Fourier modes below a cutoff (``max(8, n // 8)``).  Near the grid
Nyquist frequency the staggered node/midpoint coupling of the
discretization nearly annihilates the Hessian, so unfiltered ascent
accumulates grid-scale oscillations there that carry no information
about the continuum maximizer.  Smooth maximizers are spectrally
concentrated well below the cutoff, so the restriction changes the
reported maximum only at the level of the quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quadrature import Grid
from .hull import HullFn, SpherePoint, dist_to_hemisphere, sphere_point
from .coeffs import _table_blocks
from .pathspace import AngleField, nu_tables

__all__ = [
    "OptimizerConfig",
    "psi",
    "psi_gradient",
    "maximize_eta",
    "comass_ir",
    "calibration_sweep",
]

PI = math.pi

# ``_ascend``: iteration limit, stopping gradient norm, Armijo search
MAX_ITERS = 400
GRAD_TOL = 1e-8
BACKTRACK = 0.5
ARMIJO = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """``multistart`` ascents of ``maximize_eta``, all but the first
    from random fields drawn with ``seed``; ``eta_cap`` is fixed."""

    eta_cap: ClassVar[float] = 0.15
    multistart: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.multistart <= 0:
            raise ValueError("multistart must be positive")


def _angle_columns(nu_beta: np.ndarray, nu_alpha: np.ndarray,
                   eta: AngleField) -> tuple[np.ndarray, np.ndarray]:
    """Columns (cos tb, sin tb) and (cos ta, sin ta), each n x 2, with
    ``tb = nu_beta + eta`` and ``ta = nu_alpha + eta_mid``."""
    tb = nu_beta + eta.values
    ta = nu_alpha + eta.at_midnodes()
    return (np.stack([np.cos(tb), np.sin(tb)], axis=1),
            np.stack([np.cos(ta), np.sin(ta)], axis=1))


def _row_sum(A: np.ndarray, R: np.ndarray) -> float:
    """Psi from ``R = PW @ B``: row j of the triangle rule is
    sum_k PW_jk sin(tb_k - ta_j)."""
    return math.fsum(A[:, 0] * R[:, 1] - A[:, 1] * R[:, 0])


class _Workspace:
    """Precomputed tables for repeated Psi evaluations at fixed (h, f).

    With ``tb = nu_beta + eta`` and ``ta = nu_alpha + eta_mid``, the
    integrand's ``sin(tb_k - ta_j)`` and ``cos(tb_k - ta_j)`` split by
    the addition formula into products of O(n) trig vectors, so each
    sum over the weighted table ``PW`` is a product of ``PW`` with a
    few n-vectors; no n x n trig table is built.

    ``PW`` is the coefficient table times the column weights of the
    triangle rule, zero off the strict upper triangle.  It is the only
    n x n array held: the blocks of ``coeffs._table_blocks`` (clamped
    at zero, Toeplitz gaps) are weighted as they are written, and of
    the unweighted table only its maximum ``p_max`` is kept, for the
    optimizer's first step.
    """

    def __init__(self, p: SpherePoint, f: HullFn):
        self.grid = f.grid
        nu_beta, nu_alpha = nu_tables(p, self.grid)
        self.nu_beta = nu_beta[:-1]
        self.nu_alpha = nu_alpha
        n = self.grid.n
        c = self.grid.triangle_weights
        self.PW = np.zeros((n, n))
        self.p_max = 0.0
        for rows, cols, block in _table_blocks(f):
            self.p_max = max(self.p_max, float(block.max()))
            np.multiply(block, c[cols], out=self.PW[rows, cols])

    def _trig(self, eta: AngleField) -> tuple[np.ndarray, np.ndarray]:
        return _angle_columns(self.nu_beta, self.nu_alpha, eta)

    def value_rows(self, eta: AngleField) -> tuple[float, tuple]:
        """Psi and the rows ``(B, A, R)`` it is summed from: the trig
        columns and the product ``R = PW @ B``.  The gradient at the same
        ``eta`` can take them instead of forming them again."""
        B, A = self._trig(eta)
        R = self.PW @ B                        # (PW cos tb, PW sin tb)
        return _row_sum(A, R), (B, A, R)

    def value(self, eta: AngleField) -> float:
        return self.value_rows(eta)[0]

    def gradient(self, eta: AngleField, rows: tuple | None = None
                 ) -> np.ndarray:
        """Gradient in the mean-zero gauge; ``rows`` are ``value_rows``'s
        at the same ``eta``, if the caller has them."""
        B, A, R = rows if rows is not None else self.value_rows(eta)[1]
        # column and row sums of PW_jk cos(tb_k - ta_j)
        g = (B * (A.T @ self.PW).T).sum(axis=1)   # d / d eta(beta_k)
        rows = (A * R).sum(axis=1)                 # midpoint contributions
        g -= 0.5 * (rows + np.roll(rows, 1))
        return g - g.mean()

    def quadform(self, eta: AngleField, v: AngleField) -> float:
        """Second derivative of Psi along ``v`` (negative in the
        concavity regime): -sum of PW_jk sin(tb_k - ta_j) (v_k - vm_j)^2,
        with the square expanded as v_k^2 - 2 v_k vm_j + vm_j^2: one
        product of PW with an n x 6 matrix."""
        B, A = self._trig(eta)
        vk = v.values[:, None]
        vm = v.at_midnodes()
        Y = self.PW @ np.hstack([B * vk * vk, B * vk, B])
        # sum_k PW_jk sin(tb_k - ta_j) x_k for the three column pairs x
        S = A[:, :1] * Y[:, 1::2] - A[:, 1:] * Y[:, 0::2]
        rows = S[:, 0] - 2.0 * vm * S[:, 1] + vm * vm * S[:, 2]
        return -math.fsum(rows)


def psi(p: SpherePoint, f: HullFn, eta: AngleField) -> float:
    """Value of the functional; identical discretization to the path
    action of ``gamma_from_eta``.

    One value needs only ``PW @ B``, so the blocks of the coefficient
    table (``coeffs._table_blocks``: Toeplitz gaps, ``e`` clamped at
    zero) are weighted and multiplied into it as they are formed, and
    no n x n array is held.  The weighted entries are those of
    ``_Workspace.PW``; the products are summed in blocks, so the value
    can differ from ``_Workspace.value`` in the last digits (measured
    within 1.6e-16 relative up to n = 2048).
    """
    nu_beta, nu_alpha = nu_tables(p, f.grid)
    B, A = _angle_columns(nu_beta[:-1], nu_alpha, eta)
    c = f.grid.triangle_weights
    R = np.zeros_like(B)
    for rows, cols, block in _table_blocks(f):
        block *= c[cols]
        R[rows] = block @ B[cols]
    return _row_sum(A, R)


def psi_gradient(p: SpherePoint, f: HullFn, eta: AngleField) -> AngleField:
    """Exact gradient of the discrete functional in the mean-zero gauge."""
    ws = _Workspace(p, f)
    return AngleField(eta.grid, ws.gradient(eta))


def _ascend(ws: _Workspace,
            eta0: np.ndarray) -> tuple[np.ndarray, float, dict]:
    grid = ws.grid
    n = grid.n
    cap = OptimizerConfig.eta_cap
    step0 = 1.0 / max(ws.p_max, 1e-12)
    band = max(8, n // 8)

    def bandpass(v: np.ndarray) -> np.ndarray:
        spec = np.fft.rfft(v)
        spec[0] = 0.0
        spec[band + 1:] = 0.0
        return np.fft.irfft(spec, n)

    def project(v: np.ndarray) -> np.ndarray:
        v = np.clip(v, -cap, cap)
        return v - v.mean()

    eta = project(bandpass(eta0))
    # rows are the trig columns and PW @ B at the current eta, from the
    # value that accepted it; the next gradient is taken at the same
    # field and reuses them
    val, rows = ws.value_rows(AngleField(grid, eta - eta.mean()))
    step = step0
    grad_norm = math.inf
    iters = 0
    cap_active = False
    eta_prev = None
    g_prev = None
    for iters in range(1, MAX_ITERS + 1):
        field_eta = AngleField(grid, eta - eta.mean())
        g = bandpass(ws.gradient(field_eta, rows))
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= GRAD_TOL:
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
            cand_val, cand_rows = ws.value_rows(
                AngleField(grid, cand - cand.mean()))
            if cand_val >= val + ARMIJO * float(g @ (cand - eta)):
                eta, val, rows = cand, cand_val, cand_rows
                accepted = True
                break
            trial *= BACKTRACK
        if not accepted:
            break
        cap_active = bool(np.abs(eta).max() >= cap - 1e-12)
    converged = grad_norm <= GRAD_TOL
    diag = {"iterations": iters, "grad_norm": grad_norm,
            "cap_active": cap_active, "converged": converged}
    return eta - eta.mean(), val, diag


def maximize_eta(p: SpherePoint, f: HullFn,
                 cfg: OptimizerConfig = OptimizerConfig()
                 ) -> tuple[AngleField, float, dict]:
    """Projected gradient ascent on Psi over mean-zero angle fields
    with ``sup |eta| <= OptimizerConfig.eta_cap``, at most ``MAX_ITERS``
    steps from ``1 / max p``.  A gradient norm above ``GRAD_TOL`` at the
    end is reported in the diagnostics as non-convergence, not raised."""
    ws = _Workspace(p, f)
    rng = np.random.default_rng(cfg.seed)
    best = None
    for trial in range(cfg.multistart):
        if trial == 0:
            eta0 = np.zeros(ws.grid.n)
        else:
            eta0 = rng.normal(scale=0.2 * cfg.eta_cap, size=ws.grid.n)
        eta, val, diag = _ascend(ws, eta0)
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

