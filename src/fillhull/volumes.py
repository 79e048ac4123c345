"""Finsler masses of hull charts.

A surface chart into the hull has, at each parameter point, a metric
derivative norm on the parameter plane; integrating the chosen
Jacobian of that norm (``norms``) gives the Finsler mass of the chart.
The cone chart over the boundary circle and the polar caps of the
hemisphere are the worked examples, together with the surface integral
of the two-form and the shoelace lower-bound loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import Grid
from .hull import random_hull_point
from .coeffs import gap_vectors, toeplitz
# the norm API is re-exported: volumes.jacobian and volumes.john_ellipse
# are the names callers and the benchmark's tracer use
from .norms import (DEGENERATE_NORM, DegenerateNormError,
                    JACOBIAN_DEFINITIONS, Norm2D, check_definitions,
                    jacobian, jacobians, john_ellipse)

__all__ = [
    "Norm2D",
    "SurfaceChart",
    "DegenerateNormError",
    "JACOBIAN_DEFINITIONS",
    "john_ellipse",
    "jacobian",
    "metric_derivative",
    "finsler_mass",
    "finsler_mass_table",
    "cone_chart",
    "cap_chart",
    "perturbed_cap_chart",
    "omega_surface_integral",
    "coordinate_filling_area",
]

PI = math.pi
TWO_PI = 2.0 * math.pi
N_DIRECTIONS = 64   # equispaced in [0, pi), of every metric derivative


@dataclass(frozen=True)
class SurfaceChart:
    """Lipschitz chart into the hull over a polar parameter grid.

    ``values[i, j]`` are the hull-function samples at parameter node
    ``(axis0[i], axis1[j])``.  Every chart is a disk in polar
    coordinates: the radial axis 0 includes both endpoints, and the
    angular axis 1 wraps around (its node spacing continues past the
    last node).  Each axis has at least two nodes and a positive step.
    """

    name: str
    grid: Grid
    axis0: np.ndarray = field(repr=False)
    axis1: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        expect = (len(self.axis0), len(self.axis1), self.grid.n)
        if v.shape != expect:
            raise ValueError(f"values shape {v.shape}, expected {expect}")
        for k, axis in enumerate((self.axis0, self.axis1)):
            if len(axis) < 2 or not axis[1] - axis[0] > 0.0:
                raise ValueError(f"axis {k} needs at least two nodes and "
                                 "a positive step")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "axis0", np.asarray(self.axis0, float))
        object.__setattr__(self, "axis1", np.asarray(self.axis1, float))


# coprime integer offsets of radius 4 covering the upper half plane,
# the shortest representative per direction
_OFFSETS = tuple((a, b) for a in range(-4, 5) for b in range(5)
                 if (b > 0 or a > 0) and math.gcd(abs(a), b) == 1)


def _row_metric_derivative(chart: SurfaceChart,
                           i: int) -> tuple[np.ndarray, bool]:
    """Metric derivative norms of every node of parameter row ``i``:
    the ``(n1, N_DIRECTIONS)`` resampled unit norms and whether any of
    the row's samples is one-sided.  See ``metric_derivative``.

    Whether a neighbour at ``(i + a, j + b)`` exists depends only on
    the row, as the angular axis 1 wraps; so each offset picks one rule
    for the whole row, and costs one sup-difference of two whole rows
    per scale and side, the angular shift being a roll of the row."""
    h0 = chart.axis0[1] - chart.axis0[0]
    h1 = chart.axis1[1] - chart.axis1[0]
    n0, n1 = len(chart.axis0), len(chart.axis1)
    V = chart.values
    cols = np.arange(n1)

    def sup_diff(a: int, b: int, c: int, d: int) -> np.ndarray:
        """``max |V[i + a, j + b] - V[i + c, j + d]|`` for every ``j``,
        angular indices wrapped: row ``i + a`` is rolled against row
        ``i + c`` and the maxima rolled back."""
        diff = V[i + a].take((cols + (b - d)) % n1, axis=0)
        diff -= V[i + c]
        np.abs(diff, out=diff)
        return diff.max(axis=-1).take((cols + d) % n1)

    thetas, samples = [], []
    flagged = False
    for a, b in _OFFSETS:
        # Richardson extrapolation over the offset length: the
        # sup-difference of a Lipschitz chart carries an O(t) curvature
        # term that doubling the offset exposes and cancels
        length = math.hypot(a * h0, b * h1)

        def central(k: int) -> np.ndarray:
            return sup_diff(k * a, k * b, -k * a, -k * b) / (2 * k * length)

        def one_sided(k: int, s: int) -> np.ndarray:
            return sup_diff(s * k * a, s * k * b, 0, 0) / (k * length)

        up1, down1 = 0 <= i + a < n0, 0 <= i - a < n0
        up2, down2 = 0 <= i + 2 * a < n0, 0 <= i - 2 * a < n0
        if up2 and down2:
            sample = 2.0 * central(1) - central(2)
        elif up2:
            sample = 2.0 * one_sided(1, 1) - one_sided(2, 1)
        elif down2:
            sample = 2.0 * one_sided(1, -1) - one_sided(2, -1)
        elif up1 and down1:
            sample = central(1)
        elif up1:
            sample = one_sided(1, 1)
        elif down1:
            sample = one_sided(1, -1)
        else:
            continue
        flagged |= not (up2 and down2)
        thetas.append(math.atan2(b * h1, a * h0) % PI)
        samples.append(sample)
    return _resample_row(np.array(thetas), np.column_stack(samples)), flagged


def _resample_row(thetas: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Complete the ``(n1, k)`` samples of a row along its kept offsets,
    at angles ``thetas``, to the ``(n1, N_DIRECTIONS)`` norms of the
    row: the polygon through the sampled unit-ball boundary points,
    vectorized over the nodes; a node with a vanishing sample goes
    through ``np.interp`` on its own."""
    target = np.arange(N_DIRECTIONS) * (PI / N_DIRECTIONS)
    u = np.column_stack([np.cos(target), np.sin(target)])
    out = np.empty((len(samples), N_DIRECTIONS))
    order = np.argsort(thetas)
    thetas = thetas[order]
    norms = samples[:, order]
    seminorm = norms.min(axis=1) < 1e-12
    for node in np.flatnonzero(seminorm):
        # seminorm: interpolate the sampled values directly;
        # downstream Jacobians treat it as zero area
        row = norms[node]
        ext_t = np.concatenate([thetas, thetas + PI, [thetas[0] + TWO_PI]])
        ext_n = np.concatenate([row, row, [row[0]]])
        out[node] = np.interp(target, ext_t, ext_n)
    live = ~seminorm
    if not live.any():
        return out
    norms = norms[live]
    # polygon through the sampled unit-ball boundary points
    full_t = np.concatenate([thetas, thetas + PI])
    pts = np.column_stack([np.cos(full_t), np.sin(full_t)])[None] \
        / np.concatenate([norms, norms], axis=1)[:, :, None]
    k = np.searchsorted(full_t, target, side="right") - 1
    p = pts[:, k]
    q = pts[:, (k + 1) % len(full_t)]
    num = p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]
    den = u[:, 0] * (q[..., 1] - p[..., 1]) \
        - u[:, 1] * (q[..., 0] - p[..., 0])
    rho = num / np.where(np.abs(den) > 1e-15, den, 1e-15)
    out[live] = 1.0 / np.maximum(rho, 1e-15)
    return out


def metric_derivative(chart: SurfaceChart,
                      node: tuple[int, int]) -> tuple[Norm2D, bool]:
    """Metric derivative norm at a parameter node, resampled at
    ``N_DIRECTIONS`` equispaced directions, and whether any sample of
    the node's row is one-sided.

    Differences are taken only along integer node offsets so the chart
    is never interpolated between parameter nodes; interpolation would
    smooth the kinks of hull distance functions and bias every sampled
    norm downward.  Along each offset the sample is the Richardson step
    ``2 D(t) - D(2 t)`` of central sup-differences ``D`` when both
    doubled neighbours exist; otherwise, in this order, the Richardson
    step of one-sided differences, a plain central difference, or a
    plain one-sided difference, all flagged; an offset with no
    neighbour on either side is dropped.  The chart is polar, so only
    the radial axis 0 has ends: the rule, and so the one-sided flag,
    is the same for every node of a row.  The sampled directions are
    completed to a full norm by the polygon through the sampled
    unit-ball boundary points, which is exact for the polygonal balls
    these charts produce and second order accurate for smooth ones.
    The whole row of the node is computed, as ``finsler_mass_table``
    does.
    """
    i, j = node
    norms, flagged = _row_metric_derivative(chart, i)
    return Norm2D(N_DIRECTIONS, norms[j]), flagged


def _axis_weights(chart: SurfaceChart) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights of the two axes: the trapezoid rule on the
    radial axis 0, uniform weights on the angular axis 1."""
    h0 = chart.axis0[1] - chart.axis0[0]
    w0 = np.full(len(chart.axis0), h0)
    w0[0] = w0[-1] = 0.5 * h0
    return w0, np.full(len(chart.axis1), chart.axis1[1] - chart.axis1[0])


def finsler_mass_table(chart: SurfaceChart,
                       definitions=JACOBIAN_DEFINITIONS) -> dict[str, float]:
    """Finsler masses of the chart for several volume definitions in
    one pass: parameter quadrature of the volume Jacobians of the
    metric derivative, one parameter row at a time.  Nodes where the
    metric derivative degenerates to a seminorm contribute zero,
    matching the seminorm convention.

    The nodes of a row go through ``jacobians`` together, so the
    temporaries stay the size of one row and each node gets the value
    ``jacobian`` gives its norm; the weighted Jacobians are added node
    by node in row-major order."""
    check_definitions(definitions)
    # a NaN norm would pass the degeneracy test below unnoticed
    if not np.isfinite(chart.values).all():
        raise ValueError("chart values must be finite")
    w0, w1 = _axis_weights(chart)
    totals = dict.fromkeys(definitions, 0.0)
    for i in range(len(chart.axis0)):
        norms, _ = _row_metric_derivative(chart, i)
        cols = np.flatnonzero(norms.min(axis=1) > DEGENERATE_NORM)
        if not len(cols):
            continue
        for definition, values in jacobians(norms[cols],
                                            definitions).items():
            for j, J in zip(cols, values):
                totals[definition] += w0[i] * w1[j] * J
    return totals


def finsler_mass(chart: SurfaceChart, definition: str) -> float:
    """Finsler mass of the chart for one volume definition."""
    return finsler_mass_table(chart, (definition,))[definition]


def cone_chart(n_r: int = 48, n_alpha: int = 48,
               grid: Grid = Grid(256)) -> SurfaceChart:
    """The cone over the boundary circle,
    ``f(r, alpha) = (pi/2)(1 - r) + r * d_alpha``, ``r`` in [0, 1]."""
    rs = np.linspace(0.0, 1.0, n_r)
    alphas = np.arange(n_alpha) * (TWO_PI / n_alpha)
    dist = np.arccos(np.cos(grid.beta_nodes[None, :] - alphas[:, None]))
    values = ((PI / 2) * (1.0 - rs)[:, None, None]
              + rs[:, None, None] * dist[None, :, :])
    return SurfaceChart("cone", grid, rs, alphas, values)


def cap_chart(r: float = 0.3, n_d: int = 33, n_tau: int = 64,
              grid: Grid = Grid(256)) -> SurfaceChart:
    """Polar cap of the hemisphere: parameters ``(d, tau)`` with
    ``d in [r, pi/2]`` and ``tau`` around the full circle."""
    if not 0.3 <= r < PI / 2:
        raise ValueError("cap radius parameter must satisfy "
                         "0.3 <= r < pi/2")
    ds = np.linspace(r, PI / 2, n_d)
    taus = np.arange(n_tau) * (TWO_PI / n_tau)
    # the hemisphere point arccos(cos d cos(alpha - tau)) at every node
    values = np.cos(ds)[:, None, None] \
        * np.cos(grid.beta_nodes[None, :] - taus[:, None])
    np.arccos(values, out=values)
    return SurfaceChart("cap", grid, ds, taus, values)


def perturbed_cap_chart(cap: SurfaceChart, bump_seed: int,
                        amplitude: float = 0.15) -> SurfaceChart:
    """Interior perturbation of a cap chart with identical boundary
    rows: a pointwise convex combination with a random hull point,
    weighted by a bump vanishing at both ends of the radial axis."""
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must lie in [0, 1]")
    target = random_hull_point(bump_seed, roughness=0.3, eps=0.25,
                               grid=cap.grid)
    d0, d1 = cap.axis0[0], cap.axis0[-1]
    s = (cap.axis0 - d0) / (d1 - d0)
    bump = amplitude * np.sin(PI * s) ** 2
    values = ((1.0 - bump)[:, None, None] * cap.values
              + bump[:, None, None] * target.values[None, None, :])
    return SurfaceChart("perturbed cap", cap.grid, cap.axis0, cap.axis1,
                        values)


def _to_midnodes(v: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each row of ``v`` averaged with its right neighbour; the last
    entry's neighbour is ``last``, the extension of the row's first
    entry past the half period."""
    out = np.empty_like(v)
    out[:, :-1] = v[:, 1:]
    out[:, -1] = last
    out += v
    out *= 0.5
    return out


def _gap_tables(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """``(S^T, C^T)`` with ``S^T[k, j] = 1 / sin^2 a`` and ``C^T[k, j]
    = cos a / sin^2 a`` at the gap ``a = (k - j - 1/2) * step`` of
    ``beta_k - alpha_j``, zero for ``k <= j``: both from the per-gap
    vectors of ``coeffs.gap_vectors``."""
    ca, sa2 = gap_vectors(grid)
    s = 1.0 / sa2
    return (np.tril(toeplitz(s, grid.n).T, -1),
            np.tril(toeplitz(ca * s, grid.n).T, -1))


def _row_integrands(y: np.ndarray, t0: np.ndarray, t1: np.ndarray,
                    c: np.ndarray, st: np.ndarray,
                    ct: np.ndarray) -> np.ndarray:
    """Node values of the two-form on the tangents ``t0``, ``t1`` for
    the nodes of one parameter row with hull values ``y``; every array
    is ``(nodes, n)``.  See ``omega_surface_integral``."""
    x = _to_midnodes(y, PI - y[:, 0])
    cx, cy = np.cos(x), np.cos(y)
    sx2, w = np.sin(x), np.sin(y)
    sx2 *= sx2
    w *= w
    np.divide(c, w, out=w)
    total = np.zeros(len(y))
    # tangent functions extend antiperiodically; midpoint values by the
    # wrapped average
    for sign, t, tm in ((1.0, t0, _to_midnodes(t1, -t1[:, 0])),
                        (-1.0, t1, _to_midnodes(t0, -t0[:, 0]))):
        v = t * w
        # e v summed over k > j: the constant term of e is a reverse
        # cumulative sum, the other three are products with the tables
        ev = np.zeros_like(v)
        np.cumsum(v[:, :0:-1], axis=1, out=ev[:, -2::-1])
        ev -= cx * cx * (v @ st)
        ev -= (cy * cy * v) @ st
        ev += 2.0 * cx * ((cy * v) @ ct)
        tm /= sx2
        total += sign * np.einsum("ij,ij->i", tm, ev)
    return total


def omega_surface_integral(chart: SurfaceChart) -> float:
    """Surface integral of the two-form over the chart.

    At each parameter node the two tangent functions are paired
    through the coefficient table of the node's hull function; the
    node values are then integrated over the parameter rectangle.
    Charts are oriented (axis0, axis1); the cap comes out positive.

    With the column weights ``c`` of the triangle rule, the midnode
    values ``x``, the node values ``y`` and ``v = c t / sin^2 y``, the
    node value is ``t1m . P (c t0) - t0m . P (c t1)`` for ``P = e /
    (sin^2 x sin^2 y)`` on ``k > j``, midpoint tangents ``t0m``,
    ``t1m`` and ``e = 1 - (cos^2 x + cos^2 y - 2 cos a cos x cos y) /
    sin^2 a``.  On the strict upper triangle put ``S = 1 / sin^2 a``
    and ``C = cos a / sin^2 a``, which depend only on the grid:

        e v = sum_{k > j} v_k - cos^2 x_j (S v)_j - (S cos^2 y v)_j
              + 2 cos x_j (C cos y v)_j,

    a reverse cumulative sum and three products with the two tables
    for each tangent.  The tables are built once per chart, and every
    node of a parameter row goes through one matrix product per term,
    with temporaries the size of one row.

    Unlike ``p_grid``, ``e`` is not clamped at zero: the integral is
    defined for charts whose nodes are hull functions.  Then ``|x - y|
    <= a <= x + y`` and ``x + y + a <= 2 pi`` hold, which give ``e >=
    0``; they are linear in the values, so convex combinations of such
    charts (``perturbed_cap_chart``) keep them.  At a hemisphere point
    at distance ``d`` from the circle ``e = sin^2 d`` for every gap.  A
    clamp would only absorb rounding.  A node that touches the circle
    is rejected, the first in row-major order named.
    """
    V = chart.values
    # min(V, pi - V) over each node, as pi - v falls with v
    near = np.minimum(V.min(axis=2), PI - V.max(axis=2))
    touching = np.flatnonzero(near <= 0.0)
    if touching.size:
        node = tuple(int(k) for k in np.unravel_index(touching[0],
                                                      near.shape))
        raise ValueError(f"chart node {node} touches the "
                         "boundary circle; p is undefined")
    st, ct = _gap_tables(chart.grid)
    c = chart.grid.triangle_weights
    w0, w1 = _axis_weights(chart)
    n0 = len(chart.axis0)
    h0 = chart.axis0[1] - chart.axis0[0]
    h1 = chart.axis1[1] - chart.axis1[0]
    total = 0.0
    for i in range(n0):
        y = V[i]
        # the tangents: central differences, one-sided at the two
        # radial ends, and wrapped on the angular axis
        lo, hi = max(i - 1, 0), min(i + 1, n0 - 1)
        t0 = (V[hi] - V[lo]) / ((hi - lo) * h0)
        t1 = (np.roll(y, -1, axis=0) - np.roll(y, 1, axis=0)) / (2.0 * h1)
        total += w0[i] * (w1 @ _row_integrands(y, t0, t1, c, st, ct))
    return float(total)


def coordinate_filling_area(alpha: float, offset: float) -> float:
    """Signed shoelace area of the loop
    ``t -> (d_alpha(t), d_{alpha+offset}(t))`` of two coordinate
    distance functions.  For offset pi/2 the loop is the tilted square
    through (0, pi/2) and the area is pi^2 / 2."""
    n_t = 4096                      # a multiple of 4: corners on nodes
    t = alpha + np.arange(n_t) * (TWO_PI / n_t)
    x = np.arccos(np.cos(t - alpha))
    y = np.arccos(np.cos(t - alpha - offset))
    xs = np.roll(x, -1)
    ys = np.roll(y, -1)
    return float(0.5 * np.sum(x * ys - xs * y))
