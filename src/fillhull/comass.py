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

Independent problems on one grid ascend as a stack (``_maximize``): one
``_Workspace`` holds the tables of all of them, and ``_ascend`` runs
them in lockstep.  Each problem keeps its own step, nonmonotone
memory, line-search trial, iteration count and termination.  The array
work of a step (trig rows, band-pass, projection, table products) is
one pass over the whole stack, and a problem that ends leaves it: its
rows leave the ascent's arrays and the workspace (``_Workspace.keep``)
before the next table product.  A reduction over a row is the 1-D
reduction of that row:
``_dots`` takes one dot product per row, and a sum along the last axis
is each row's pairwise sum.  So a problem's result is the one it gets
alone, bit for bit, and ``maximize_eta`` is a stack of one.

``calibration_sweep`` ascends consecutive rows as stacks whose near-gap
blocks fit ``_STACK_BYTES`` = 3 MiB.  The blocks
(``WeightedTable.block_shape``) are nearly all of a workspace's memory,
and their size per row grows with n: 0.26 MB at n = 512, 1.03 MB at
1024, 4.2 MB at 2048.  A byte budget bounds the peak where a fixed row
count would not: 12 rows at n = 512, so that the default ten-row sweep
is one stack, 3 at 1024 and 1 from 2048 up.  On the benchmark's
``calibration`` workload that one stack ran 10% more operations per
second than stacks of four rows of 0.44 MB each (a 2 MiB budget), at
1.9 MB more peak RSS (45.3 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quadrature import Grid
from .hull import HullFn, SpherePoint, dist_to_hemisphere, sphere_point
from .coeffs import WeightedTable, compact, gradient_near_gaps
from .pathspace import (AngleField, competitor_rows, gamma_from_eta,
                        nu_tables, omega_action)
from .quadrature import midnodes

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
# ``calibration_sweep``: bytes of near-gap blocks one stack may hold
_STACK_BYTES = 3 * 2 ** 20


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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row ``i`` of ``a`` and ``b`` (``(...,
    n)``), in one call: a batch of vector products, each rounded as that
    1-D dot product is."""
    return np.matmul(a[..., None, :], b[..., None])[..., 0, 0]


class _Workspace:
    """O(n) data for repeated Psi evaluations at fixed (h, f), for a
    stack of problems ``(points[i], fns[i])`` on one grid.

    With ``tb = nu_beta + eta`` and ``ta = nu_alpha + eta_mid``, the
    integrand's ``sin(tb_k - ta_j)`` and ``cos(tb_k - ta_j)`` split by
    the addition formula into products of the trig rows of the
    competitor paths: ``B`` at the nodes and ``A`` at the midpoints,
    which ``pathspace.competitor_rows`` forms from the phases held
    here.  So every sum over the weighted table ``PW`` is a product of
    ``PW`` or its transpose with a few n-vectors:
    ``coeffs.WeightedTable``, which holds no n x n array.

    Every method takes fields ``eta`` as an ``(m, n)`` array, row ``i``
    for problem ``i``.
    """

    def __init__(self, points: list[SpherePoint], fns: list[HullFn]):
        self.grid = fns[0].grid
        # rejects boundary functions
        self.table = WeightedTable(fns, gradient_near_gaps(self.grid.n))
        nu = [nu_tables(p, self.grid) for p in points]
        self.nu_beta = np.array([beta[:-1] for beta, _ in nu])
        self.nu_alpha = np.array([alpha for _, alpha in nu])

    def keep(self, rows: list[int]) -> None:
        """Keep the problems ``rows`` (sorted), in place."""
        self.table.keep(rows)
        self.nu_beta = compact(self.nu_beta, rows)
        self.nu_alpha = compact(self.nu_alpha, rows)

    def value_rows(self, eta: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Psi of each problem and the rows ``(B, A, R)`` it is summed
        from: the trig rows and the product ``R = PW @ B``.  The gradient
        at the same ``eta`` can take them instead of forming them
        again."""
        B, A = competitor_rows(self.nu_beta, self.nu_alpha, eta)
        R = self.table(B)                  # (PW cos tb, PW sin tb)
        # row j of the triangle rule is sum_k PW_jk sin(tb_k - ta_j):
        # cos ta . PW sin tb - sin ta . PW cos tb
        cross = _dots(A, R[:, ::-1])
        return cross[:, 0] - cross[:, 1], (B, A, R)

    def gradient(self, eta: np.ndarray, rows: tuple | None = None
                 ) -> np.ndarray:
        """Gradients in the mean-zero gauge; ``rows`` are
        ``value_rows``'s at the same ``eta``, if the caller has them."""
        B, A, R = rows if rows is not None else self.value_rows(eta)[1]
        # column and row sums of PW_jk cos(tb_k - ta_j)
        T = self.table.transposed(A)
        g = B[:, 0] * T[:, 0] + B[:, 1] * T[:, 1]   # d / d eta_k
        mid = A[:, 0] * R[:, 0] + A[:, 1] * R[:, 1]  # midpoint contributions
        g -= 0.5 * mid
        g[:, 1:] -= 0.5 * mid[:, :-1]
        g[:, 0] -= 0.5 * mid[:, -1]
        # a sum along rows is the 1-D pairwise sum of each row
        g -= g.sum(axis=1, keepdims=True) / g.shape[1]
        return g

    def quadform(self, eta: np.ndarray, v: np.ndarray) -> list:
        """Second derivative of Psi along each row of ``v`` (negative in
        the concavity regime): -sum of PW_jk sin(tb_k - ta_j) (v_k -
        vm_j)^2, with the square expanded as v_k^2 - 2 v_k vm_j + vm_j^2:
        one product of PW with six rows."""
        B, A = competitor_rows(self.nu_beta, self.nu_alpha, eta)
        vk = v[:, None]
        vm = midnodes(v, v[:, 0])
        Y = self.table(np.concatenate([B * vk * vk, B * vk, B], axis=1))
        # sum_k PW_jk sin(tb_k - ta_j) x_k for the three row pairs x
        S = A[:, :1] * Y[:, 1::2] - A[:, 1:] * Y[:, 0::2]
        rows = S[:, 0] - 2.0 * vm * S[:, 1] + vm * vm * S[:, 2]
        return [-math.fsum(r) for r in rows]


def psi(p: SpherePoint, f: HullFn, eta: AngleField) -> float:
    """Value of the functional: the path action
    (``pathspace.omega_action``) of ``gamma_from_eta``, which ``check``
    compares with the dense sum of ``coeffs.p_grid``."""
    return omega_action(f, gamma_from_eta(p, eta))


def psi_gradient(p: SpherePoint, f: HullFn, eta: AngleField) -> AngleField:
    """Exact gradient of the discrete functional in the mean-zero gauge."""
    ws = _Workspace([p], [f])
    return AngleField(eta.grid, ws.gradient(eta.values[None])[0])


def _project(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection of each row of ``v`` (m, n) onto {mean 0,
    ``|eta|_inf <= cap``}: ``clip(v - tau, -cap, cap)`` with the ``tau``
    that makes the mean zero, which is ``v - mean(v)`` when nothing
    clips.

    The sum of ``clip(v - tau)`` falls with ``tau``, linearly between
    the knots ``v_i -+ cap``.  It is evaluated at every knot from the
    sorted ``v`` and its prefix sums; on the piece where it crosses
    zero the clipped sets are fixed, and ``tau`` solves a linear
    equation (Condat 2016 solves the simplex case the same way).
    """
    w = v - v.sum(axis=1, keepdims=True) / v.shape[1]
    if np.abs(w).max() > cap:
        for i in np.flatnonzero(np.abs(w).max(axis=1) > cap):
            w[i] = _clip_project(v[i], cap)
    return w


def _clip_project(v: np.ndarray, cap: float) -> np.ndarray:
    """``_project`` of one vector that clips."""
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


def _bandpass(v: np.ndarray, band: int) -> np.ndarray:
    """The Fourier modes 1 to ``band`` of each row of ``v``."""
    spec = np.fft.rfft(v)
    spec[:, 0] = 0.0
    spec[:, band + 1:] = 0.0
    return np.fft.irfft(spec, v.shape[1])


class _Run:
    """The scalars of one problem's ascent in ``_ascend``."""

    __slots__ = ("problem", "step0", "step", "val", "recent", "iters",
                 "grad_norm", "trial", "resolution", "fell", "fresh",
                 "termination")

    def __init__(self, problem: int, p_first: float, val: float):
        self.problem = problem
        self.step0 = self.step = self.trial = 1.0 / max(p_first, 1e-12)
        self.val = val
        self.recent = [val]
        self.iters = 0
        self.grad_norm = self.resolution = 0.0
        self.fell = False
        # its gradient at the current field is taken next
        self.fresh = True
        self.termination = None

    def direct(self, grad_norm: float, denom: float, length: float) -> None:
        """End on the gradient mapping ``grad_norm`` of a new direction or
        on the iteration limit, or start its line search; ``length /
        denom`` is the Barzilai-Borwein step for the (negated) ascent
        problem."""
        self.fresh = False
        self.grad_norm = grad_norm
        if grad_norm <= GRAD_TOL:
            self.termination = "grad_tol"
            return
        if self.iters == MAX_ITERS:
            self.termination = "max_iters"
            return
        if self.iters:
            self.step = length / denom if denom > 1e-30 else self.step0
            if not self.step0 * 1e-6 < self.step < self.step0 * 1e6:
                self.step = self.step0
        # a change of Psi below this is rounding, not a rise or a fall
        self.resolution = VALUE_RTOL * abs(self.val)
        self.trial = self.step
        self.fell = False

    def accepts(self, rise: float, value: float) -> bool:
        """Whether the trial with first-order rise ``rise`` and value
        ``value`` is accepted; a rejected one halves the trial."""
        # nonmonotone: against the least of the last NONMONOTONE
        # accepted values (Birgin, Martinez and Raydan 2000)
        if value >= min(self.recent) + ARMIJO * rise:
            self.val = value
            self.recent = (self.recent + [value])[-NONMONOTONE:]
            self.iters += 1
            self.fresh = True
            return True
        self.fell = self.fell or value < self.val - self.resolution
        self.trial *= BACKTRACK
        if self.trial <= self.step0 * 1e-12:
            self.termination = "line_search_stall"
        return False

    def result(self, eta: np.ndarray, cap: float) -> tuple:
        """``(eta, value, diagnostics)`` of the ended run at ``eta``."""
        return eta.copy(), self.val, {
            "iterations": self.iters, "grad_norm": self.grad_norm,
            "cap_active": bool(np.abs(eta).max() >= cap - 1e-12),
            "converged": self.termination in CONVERGED,
            "termination": self.termination}


def _ascend(ws: _Workspace,
            eta0: np.ndarray) -> tuple[np.ndarray, list, list]:
    """Ascents of every problem of ``ws`` from the rows of ``eta0``, in
    lockstep.  A round takes the gradient of the stack when a problem
    has just accepted a field, then one line-search trial of every
    problem.  A problem that has ended leaves the arrays and ``ws``
    before the trials are valued, so ``ws`` is left with none."""
    count, n = eta0.shape
    cap = OptimizerConfig.eta_cap
    band = max(8, n // 8)

    eta = _project(_bandpass(eta0, band), cap)
    # B, A and R are the trig rows and PW @ B at each current eta, from
    # the value that accepted it; the next gradient is taken at the same
    # field and reuses them
    val, (B, A, R) = ws.value_rows(eta)
    runs = [_Run(p, p_first, v) for p, (p_first, v)
            in enumerate(zip(ws.table.p_first, val.tolist()))]
    # the search direction, and the change of eta of the last trial
    d, de = np.zeros((2, count, n))
    results = [None] * count
    while True:
        if any(run.fresh for run in runs):
            # a problem that has not moved gets the same gradient and
            # direction again, bit for bit
            g = ws.gradient(eta, (B, A, R))
            # band limited inside the cap; on it, where clipping brings
            # the grid-scale modes back, the full gradient keeps every
            # step an ascent
            d_prev, d = d, _bandpass(g, band)
            on_cap = np.abs(eta).max(axis=1) >= cap
            d[on_cap] = g[on_cap]
            # the gradient mapping: zero exactly at the constrained
            # maximizers, the norm of d when nothing clips
            step0 = np.array([run.step0 for run in runs])
            gap = eta - _project(eta + step0[:, None] * d, cap)
            norms = np.sqrt(_dots(gap, gap)) / step0
            denoms, lengths = -_dots(de, d - d_prev), _dots(de, de)
            for run, *terms in zip(runs, norms.tolist(), denoms.tolist(),
                                   lengths.tolist()):
                if run.fresh:
                    run.direct(*terms)
        trial = np.array([run.trial for run in runs])
        cand = _project(eta + trial[:, None] * d, cap)
        de = cand - eta
        rise = _dots(g, de)                # first-order rise
        for run, r in zip(runs, rise.tolist()):
            if run.termination is None and r <= run.resolution:
                # no trial can show a rise: converged, unless a longer
                # one fell by more than rounding
                run.termination = ("line_search_stall" if run.fell
                                   else "value_resolution")
        running = [i for i, run in enumerate(runs) if run.termination is None]
        if len(running) < len(runs):
            for i, run in enumerate(runs):
                if run.termination:
                    results[run.problem] = run.result(eta[i], cap)
            runs = [runs[i] for i in running]
            if not runs:
                break
            ws.keep(running)
            eta, B, A, R, g, d, cand, de, rise = (
                x[running] for x in (eta, B, A, R, g, d, cand, de, rise))
        cand_val, (Bc, Ac, Rc) = ws.value_rows(cand)
        moved = [run.accepts(r, v) for run, r, v in zip(
            runs, rise.tolist(), cand_val.tolist())]
        if not all(moved):
            # a problem that did not move keeps its field and rows
            back = np.logical_not(moved)
            cand[back], Bc[back], Ac[back], Rc[back] = (
                eta[back], B[back], A[back], R[back])
        eta, B, A, R = cand, Bc, Ac, Rc
    eta = np.array([r[0] for r in results])
    return eta, [r[1] for r in results], [r[2] for r in results]


def _maximize(points: list[SpherePoint], fns: list[HullFn],
              cfg: OptimizerConfig) -> list[tuple]:
    """``maximize_eta`` of each problem ``(points[i], fns[i])`` on one
    grid, ascended as one stack: ``(eta, value, diagnostics)`` per
    problem, each the one the problem alone gives."""
    n = fns[0].grid.n
    rng = np.random.default_rng(cfg.seed)
    best = None
    for trial in range(cfg.multistart):
        if trial == 0:
            eta0 = np.zeros(n)
        else:
            eta0 = rng.normal(scale=0.2 * cfg.eta_cap, size=n)
        # a workspace per ascent, which its problems leave as they end
        eta, val, diags = _ascend(_Workspace(points, fns),
                                  np.tile(eta0, (len(fns), 1)))
        runs = list(zip(eta, val, diags))
        best = runs if best is None else [
            run if run[1] > kept[1] else kept
            for run, kept in zip(runs, best)]
    return best


def maximize_eta(p: SpherePoint, f: HullFn,
                 cfg: OptimizerConfig = OptimizerConfig()
                 ) -> tuple[AngleField, float, dict]:
    """Projected gradient ascent on Psi over mean-zero angle fields
    with ``sup |eta| <= OptimizerConfig.eta_cap``, at most ``MAX_ITERS``
    steps, the first from ``1 / max p`` on the table's first gap.  The
    diagnostics hold ``iterations``, ``grad_norm`` (the gradient
    mapping), ``cap_active``, ``termination`` and ``converged``; a run
    that does not converge is reported there, not raised."""
    (eta, val, diag), = _maximize([p], [f], cfg)
    return AngleField(f.grid, eta), val, diag


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
    """Comass defect along the segment ``f_t = (1 - t) h + t g``, ``t``
    in [0, 1] (a ``ValueError`` otherwise: off the segment ``f_t`` need
    not be a hull member).

    Returns a row per ``t`` with the distance to the hemisphere and
    the defect ``|comass - pi|``, plus a log-log least-squares slope
    and intercept over the converged rows whose defect exceeds
    ``defect_floor`` (rows at the optimizer noise floor carry no rate
    information).  Unless those rows hold at least two distinct
    distances, no line is fitted and ``slope`` and ``intercept`` are
    left out.
    Consecutive rows ascend as one stack (``_maximize``) within
    ``_STACK_BYTES`` of near-gap blocks: the default ten rows at n =
    512, three at a time at 1024, one at a time from 2048 up.  Each row
    is the one ``maximize_eta`` gives alone.
    """
    for t in t_list:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t = {t} is off the segment [0, 1]")
    h_fn = sphere_point(h, g.grid)
    f_ts = [HullFn(g.grid, (1.0 - t) * h_fn.values + t * g.values)
            for t in t_list]
    nearest = [dist_to_hemisphere(f_t) for f_t in f_ts]
    # bytes of one row's near-gap blocks
    block = 8 * math.prod(WeightedTable.block_shape(
        g.grid.n, gradient_near_gaps(g.grid.n)))
    size = max(1, _STACK_BYTES // block)
    runs = []
    for i in range(0, len(f_ts), size):
        runs += _maximize([h_t for _, h_t in nearest[i:i + size]],
                          f_ts[i:i + size], cfg)
    rows = []
    for t, (dist, _), (eta, val, diag) in zip(t_list, nearest, runs):
        rows.append({
            "t": float(t),
            "dist": float(dist),
            "defect": float(abs(val - PI)),
            "eta_inf": float(np.abs(eta).max()),
            "iters": int(diag["iterations"]),
            "converged": bool(diag["converged"]),
            "floored": bool(abs(val - PI) <= defect_floor),
        })
    fit_rows = [r for r in rows
                if r["converged"] and not r["floored"] and r["dist"] > 0]
    out = {"rows": rows, "n_fit": len(fit_rows)}
    if len({r["dist"] for r in fit_rows}) >= 2:
        lx = np.log([r["dist"] for r in fit_rows])
        ly = np.log([r["defect"] for r in fit_rows])
        slope, intercept = np.polyfit(lx, ly, 1)
        out["slope"] = float(slope)
        out["intercept"] = float(intercept)
    return out

