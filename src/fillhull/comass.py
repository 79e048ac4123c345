"""Comass of the two-form by concave maximization over angle fields.

With ``h`` a hemisphere point and ``f`` a nearby hull function, the
functional

    Psi(f, eta) = integral of p(alpha, beta; f)
                  * sin(nu_h(beta) - nu_h(alpha) + eta(beta) - eta(alpha))

is concave in ``eta`` on a small sup-norm ball and its maximum equals
the comass of the form of ``f``.  At ``f = h`` the maximum is pi with
maximizer ``eta = 0``.  Every sum over the coefficient table goes
through ``coeffs.WeightedTable``, which forms the entries near the two
ends of the gap range one by one and the rest by FFT, with no n x n
array.

The optimizer is projected gradient ascent in the mean-zero gauge with
Barzilai-Borwein steps and a nonmonotone Armijo search, on the set
{mean 0, ``|eta|_inf <= eta_cap``}.  The projection onto that set is
exact (``_project``), so ``eta_inf <= eta_cap`` always holds.

The ascent direction is band limited: the gradient is projected onto
the Fourier modes below a cutoff (``max(8, n // 8)``).  Near the grid
Nyquist frequency the staggered node/midpoint coupling of the
discretization nearly annihilates the Hessian, so unfiltered ascent
accumulates grid-scale oscillations there that carry no information
about the continuum maximizer.  Smooth maximizers are spectrally
concentrated well below the cutoff, so the restriction changes the
reported maximum only at the level of the quadrature error.  Once the
field reaches the cap, clipping brings those modes back and a band-
limited step need not rise at all; there the full gradient is used,
and the run converges to a KKT point of the capped problem.  A capped
maximizer means ``f`` is outside the regime where the cap is inactive
and the maximum is the comass; it is a converged result, not a failed
one, and ``cap_active`` says so.

A run ends (``diag["termination"]``) on

* ``grad_tol``: the gradient mapping ``|eta - P(eta + s d)| / s``, ``d``
  the search direction and ``s`` the first step, is at most
  ``GRAD_TOL``: zero exactly at the constrained maximizers, and the
  norm of ``d`` when nothing clips;
* ``value_resolution``: the first-order rise of every remaining trial
  step is below the rounding of Psi (``VALUE_RTOL``), so no Armijo test
  can tell a rise from rounding;
* ``line_search_stall``: the same after a longer step fell by more
  than rounding, or the step shrank to 1e-12 of the first;
* ``max_iters``.

The first two count as converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quadrature import Grid
from .hull import HullFn, SpherePoint, dist_to_hemisphere, sphere_point
from .coeffs import NEAR_GAPS, WeightedTable, gradient_near_gaps
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

# ``_ascend``: iteration limit, stopping norm of the gradient mapping,
# Armijo search, and the relative rounding of Psi: a predicted rise
# below it cannot be told from rounding.  Differences of Psi near a
# maximizer round by at most 3e-15 (n = 512) and 7e-15 (n = 1024)
MAX_ITERS = 400
GRAD_TOL = 1e-8
BACKTRACK = 0.5
ARMIJO = 1e-4
VALUE_RTOL = 1e-14
NONMONOTONE = 10
# the terminations that count as converged
CONVERGED = ("grad_tol", "value_resolution")


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


def _angle_rows(nu_beta: np.ndarray, nu_alpha: np.ndarray,
                eta: AngleField) -> tuple[np.ndarray, np.ndarray]:
    """Rows (cos tb, sin tb) and (cos ta, sin ta), each 2 x n, with
    ``tb = nu_beta + eta`` and ``ta = nu_alpha + eta_mid``."""
    tb = nu_beta + eta.values
    ta = nu_alpha + eta.at_midnodes()
    B, A = np.empty((2, len(tb))), np.empty((2, len(ta)))
    np.cos(tb, out=B[0])
    np.sin(tb, out=B[1])
    np.cos(ta, out=A[0])
    np.sin(ta, out=A[1])
    return B, A


def _cross_sum(A: np.ndarray, R: np.ndarray) -> float:
    """Psi from ``R = PW @ B``: row j of the triangle rule is sum_k PW_jk
    sin(tb_k - ta_j)."""
    return float(A[0] @ R[1] - A[1] @ R[0])


class _Workspace:
    """O(n) data for repeated Psi evaluations at fixed (h, f).

    With ``tb = nu_beta + eta`` and ``ta = nu_alpha + eta_mid``, the
    integrand's ``sin(tb_k - ta_j)`` and ``cos(tb_k - ta_j)`` split by
    the addition formula into products of O(n) trig vectors, so every
    sum over the weighted table ``PW`` is a product of ``PW`` or its
    transpose with a few n-vectors: ``coeffs.WeightedTable``, which
    holds no n x n array.
    """

    def __init__(self, p: SpherePoint, f: HullFn, near: int | None = None):
        if near is None:
            near = gradient_near_gaps(f.grid.n)
        self.table = WeightedTable(f, near)  # rejects boundary functions
        self.grid = f.grid
        nu_beta, self.nu_alpha = nu_tables(p, self.grid)
        self.nu_beta = nu_beta[:-1]

    def _trig(self, eta: AngleField) -> tuple[np.ndarray, np.ndarray]:
        return _angle_rows(self.nu_beta, self.nu_alpha, eta)

    def value_rows(self, eta: AngleField) -> tuple[float, tuple]:
        """Psi and the rows ``(B, A, R)`` it is summed from: the trig
        rows and the product ``R = PW @ B``.  The gradient at the same
        ``eta`` can take them instead of forming them again."""
        B, A = self._trig(eta)
        R = self.table(B)                  # (PW cos tb, PW sin tb)
        return _cross_sum(A, R), (B, A, R)

    def value(self, eta: AngleField) -> float:
        return self.value_rows(eta)[0]

    def gradient(self, eta: AngleField, rows: tuple | None = None
                 ) -> np.ndarray:
        """Gradient in the mean-zero gauge; ``rows`` are ``value_rows``'s
        at the same ``eta``, if the caller has them."""
        B, A, R = rows if rows is not None else self.value_rows(eta)[1]
        # column and row sums of PW_jk cos(tb_k - ta_j)
        T = self.table.transposed(A)
        g = B[0] * T[0] + B[1] * T[1]              # d / d eta_k
        mid = A[0] * R[0] + A[1] * R[1]            # midpoint contributions
        g -= 0.5 * mid
        g[1:] -= 0.5 * mid[:-1]
        g[0] -= 0.5 * mid[-1]
        return g - g.sum() / len(g)

    def quadform(self, eta: AngleField, v: AngleField) -> float:
        """Second derivative of Psi along ``v`` (negative in the
        concavity regime): -sum of PW_jk sin(tb_k - ta_j) (v_k - vm_j)^2,
        with the square expanded as v_k^2 - 2 v_k vm_j + vm_j^2: one
        product of PW with six rows."""
        B, A = self._trig(eta)
        vk = v.values
        vm = v.at_midnodes()
        Y = self.table(np.concatenate([B * vk * vk, B * vk, B]))
        # sum_k PW_jk sin(tb_k - ta_j) x_k for the three row pairs x
        S = A[0] * Y[1::2] - A[1] * Y[0::2]
        rows = S[0] - 2.0 * vm * S[1] + vm * vm * S[2]
        return -math.fsum(rows)


def psi(p: SpherePoint, f: HullFn, eta: AngleField) -> float:
    """Value of the functional; identical discretization to the path
    action of ``gamma_from_eta``.  A value alone keeps ``NEAR_GAPS``
    near gaps (``coeffs.gradient_near_gaps``), within 4e-15 of the
    workspace value up to n = 2048, and holds no n x n array.

    The weighted table is that of ``coeffs.p_grid``, whose ``e`` is
    clamped at zero; beyond the near gaps the expansion cannot clamp.
    On the benchmark's inputs no entry is negative; on the 33 random
    endpoints they come from (n = 512) the clamp moves Psi by at most
    4.4e-15.
    """
    return _Workspace(p, f, NEAR_GAPS).value(eta)


def psi_gradient(p: SpherePoint, f: HullFn, eta: AngleField) -> AngleField:
    """Exact gradient of the discrete functional in the mean-zero gauge."""
    ws = _Workspace(p, f)
    return AngleField(eta.grid, ws.gradient(eta))


def _project(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto {mean 0, ``|eta|_inf <= cap``}:
    ``clip(v - tau, -cap, cap)`` with the ``tau`` that makes the mean
    zero, which is ``v - mean(v)`` when nothing clips.

    The sum of ``clip(v - tau)`` falls with ``tau``, linearly between
    the knots ``v_i -+ cap``.  It is evaluated at every knot from the
    sorted ``v`` and its prefix sums; on the piece where it crosses
    zero the clipped sets are fixed, and ``tau`` solves a linear
    equation (Condat 2016 solves the simplex case the same way).
    """
    w = v - v.sum() / len(v)
    if np.abs(w).max() <= cap:
        return w
    n = len(v)
    sv = np.sort(v)
    cum = np.concatenate([[0.0], np.cumsum(sv)])

    def pieces(tau):
        # entries below lo clip at -cap, from hi on at +cap
        return (np.searchsorted(sv, tau - cap, "right"),
                np.searchsorted(sv, tau + cap, "left"))

    knots = np.sort(np.concatenate([sv - cap, sv + cap]))
    lo, hi = pieces(knots)
    total = cap * (n - hi - lo) + cum[hi] - cum[lo] - knots * (hi - lo)
    k = np.flatnonzero(total >= 0.0)[-1]
    mid = 0.5 * (knots[k] + knots[k + 1])
    lo, hi = pieces(mid)
    tau = ((cap * (n - hi - lo) + cum[hi] - cum[lo]) / (hi - lo)
           if hi > lo else mid)
    return np.clip(v - tau, -cap, cap)


def _ascend(ws: _Workspace,
            eta0: np.ndarray) -> tuple[np.ndarray, float, dict]:
    grid = ws.grid
    n = grid.n
    cap = OptimizerConfig.eta_cap
    step0 = 1.0 / max(ws.table.p_first, 1e-12)
    band = max(8, n // 8)

    def bandpass(v: np.ndarray) -> np.ndarray:
        spec = np.fft.rfft(v)
        spec[0] = 0.0
        spec[band + 1:] = 0.0
        return np.fft.irfft(spec, n)

    eta = _project(bandpass(eta0), cap)
    # rows are the trig rows and PW @ B at the current eta, from the
    # value that accepted it; the next gradient is taken at the same
    # field and reuses them
    val, rows = ws.value_rows(AngleField(grid, eta))
    recent = [val]
    step = step0
    iters = 0
    eta_prev = None
    d_prev = None
    termination = None
    while True:
        g = ws.gradient(AngleField(grid, eta), rows)
        # band limited inside the cap; on it, where clipping brings the
        # grid-scale modes back, the full gradient keeps every step an
        # ascent
        d = bandpass(g) if np.abs(eta).max() < cap else g
        # the gradient mapping: zero exactly at the constrained
        # maximizers, the norm of d when nothing clips
        grad_norm = float(np.linalg.norm(
            eta - _project(eta + step0 * d, cap))) / step0
        if grad_norm <= GRAD_TOL:
            termination = "grad_tol"
            break
        if iters == MAX_ITERS:
            termination = "max_iters"
            break
        if d_prev is not None:
            # Barzilai-Borwein step for the (negated) ascent problem
            de = eta - eta_prev
            dd = d - d_prev
            denom = -float(de @ dd)
            step = float(de @ de) / denom if denom > 1e-30 else step0
            if not step0 * 1e-6 < step < step0 * 1e6:
                step = step0
        eta_prev, d_prev = eta, d
        # a change of Psi below this is rounding, not a rise or a fall
        resolution = VALUE_RTOL * abs(val)
        trial = step
        fell = False
        while True:
            cand = _project(eta + trial * d, cap)
            rise = float(g @ (cand - eta))       # first-order increase
            if rise <= resolution:
                # no trial can show a rise: converged, unless a longer
                # one fell by more than rounding
                termination = ("line_search_stall" if fell
                               else "value_resolution")
                break
            cand_val, cand_rows = ws.value_rows(AngleField(grid, cand))
            # nonmonotone: against the least of the last NONMONOTONE
            # accepted values (Birgin, Martinez and Raydan 2000)
            if cand_val >= min(recent) + ARMIJO * rise:
                eta, val, rows = cand, cand_val, cand_rows
                recent = (recent + [val])[-NONMONOTONE:]
                break
            fell = fell or cand_val < val - resolution
            trial *= BACKTRACK
            if trial <= step0 * 1e-12:
                termination = "line_search_stall"
                break
        if termination is not None:
            break
        iters += 1
    diag = {"iterations": iters, "grad_norm": grad_norm,
            "cap_active": bool(np.abs(eta).max() >= cap - 1e-12),
            "converged": termination in CONVERGED,
            "termination": termination}
    return eta, val, diag


def maximize_eta(p: SpherePoint, f: HullFn,
                 cfg: OptimizerConfig = OptimizerConfig()
                 ) -> tuple[AngleField, float, dict]:
    """Projected gradient ascent on Psi over mean-zero angle fields
    with ``sup |eta| <= OptimizerConfig.eta_cap``, at most ``MAX_ITERS``
    steps, the first from ``1 / max p`` on the table's first gap.  The
    diagnostics hold ``iterations``, ``grad_norm`` (the gradient
    mapping), ``cap_active``, ``termination`` and ``converged``; a run
    that does not converge is reported there, not raised."""
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

