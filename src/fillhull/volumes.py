"""Finsler masses of hull charts.

A surface chart into the hull has, at each parameter point, a metric
derivative norm on the parameter plane; integrating the chosen
Jacobian of that norm (``norms``) gives the Finsler mass of the chart.
The cone chart over the boundary circle and the polar caps of the
hemisphere are the worked examples, together with the surface integral
of the two-form and the lower-bound loop, whose area is the exact
``2 s (pi - |s|)`` at the offset ``s``.  The integral keeps
the tangents, their pairing and the chart quadrature here; its
coefficient tables and their algebra are ``coeffs.DenseTables``, whose
kernel blocks ``coeffs.dense_tables`` builds once per grid.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .quadrature import Grid, axis_weights, midnodes
from .hull import random_hull_point, sphere_point_values
from .coeffs import dense_tables
# the norm API is re-exported: volumes.jacobian and volumes.john_ellipse
# are the names callers and the benchmark's tracer use
from .norms import (DEGENERATE_NORM, DegenerateNormError,
                    JACOBIAN_DEFINITIONS, Norm2D,
                    _reduce_rows, jacobian, jacobians, john_ellipse)

__all__ = [
    "Norm2D",
    "SurfaceChart",
    "DegenerateNormError",
    "JACOBIAN_DEFINITIONS",
    "john_ellipse",
    "jacobian",
    "metric_derivative",
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
_STEP_RTOL = 1e-9   # relative rounding allowed in a chart's axis steps


@dataclass(frozen=True)
class SurfaceChart:
    """Lipschitz chart into the hull over a polar parameter grid.

    ``values[i, j]`` are the hull-function samples at parameter node
    ``(axis0[i], axis1[j])``.  Every chart is a disk in polar
    coordinates: the radial axis 0 includes both endpoints, and the
    angular axis 1 wraps around: its node spacing continues past the
    last node, so its ``n1`` steps make one turn of ``2 pi``.  Each
    axis has at least two nodes and a uniform positive step, and every
    value is finite.
    """

    grid: Grid
    axis0: np.ndarray = field(repr=False)
    axis1: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        expect = (len(self.axis0), len(self.axis1), self.grid.n)
        if v.shape != expect:
            raise ValueError(f"values shape {v.shape}, expected {expect}")
        # a NaN passes the degeneracy test of the masses and the
        # boundary test of the surface integral unnoticed
        if not np.isfinite(v).all():
            raise ValueError("chart values must be finite")
        axes = [np.asarray(axis, float) for axis in (self.axis0,
                                                     self.axis1)]
        for k, axis in enumerate(axes):
            if len(axis) < 2 or not axis[1] - axis[0] > 0.0:
                raise ValueError(f"axis {k} needs at least two nodes and "
                                 "a positive step")
            steps = np.diff(axis)
            if not np.ptp(steps) <= _STEP_RTOL * steps[0]:
                raise ValueError(f"axis {k} needs uniform steps")
        turn = len(axes[1]) * (axes[1][1] - axes[1][0])
        if not math.isclose(turn, TWO_PI, rel_tol=_STEP_RTOL):
            raise ValueError("the angular axis 1 must make one turn: "
                             f"n1 * step = {turn:.12g}, not 2 pi")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "axis0", axes[0])
        object.__setattr__(self, "axis1", axes[1])


# coprime integer offsets of radius 4 covering the upper half plane,
# the shortest representative per direction
_OFFSETS = tuple((a, b) for a in range(-4, 5) for b in range(5)
                 if (b > 0 or a > 0) and math.gcd(abs(a), b) == 1)
# bytes of the largest temporaries of ``finsler_mass_table``: the
# sup-difference buffer of a slice of rows (at least one), and the five
# ``N_DIRECTIONS``-float arrays per node of a batch of nodes being
# resampled (at least one); the benchmark's 24 x 24 cone on Grid(256)
# goes in 10-row slices and 192-node batches.  A batch is cut for
# those 2.5 KB per node, but its Jacobians take 2.1 KB per node on the
# cone's balls and up to 4.4 KB on a smooth cap's (traced): the mass
# table of the 33 x 64 cap peaks at 1.47 MB, the cone's at 0.83 MB
_BATCH_BYTES = 480 << 10


def _offset_samples(chart: SurfaceChart, rows: range
                    ) -> tuple[np.ndarray, np.ndarray, list[bool]]:
    """Samples of the metric derivative of every node of the parameter
    ``rows`` along every offset of ``_OFFSETS``: the ``(len(rows), n1,
    len(_OFFSETS))`` samples, per row which offsets it keeps (its other
    samples are unset), and per row whether any of its samples is
    one-sided.  See ``metric_derivative``.

    Whether a neighbour at ``(i + a, j + b)`` exists depends only on
    the row, as the angular axis 1 wraps; so each offset picks one rule
    per row, and the consecutive rows with the same rule cost one
    sup-difference of two row slices per scale, in slices of as many
    rows as a difference buffer of ``_BATCH_BYTES`` holds (at least
    one), its sups over beta by one ``norms._reduce_rows`` call."""
    h0 = chart.axis0[1] - chart.axis0[0]
    h1 = chart.axis1[1] - chart.axis1[0]
    n0, n1 = len(chart.axis0), len(chart.axis1)
    V = chart.values
    span = max(1, _BATCH_BYTES // V[0].nbytes)
    buf = np.empty((min(span, len(rows)), n1, chart.grid.n))
    samples = np.empty((len(rows), n1, len(_OFFSETS)))
    kept = np.zeros((len(rows), len(_OFFSETS)), bool)
    flags = np.zeros(len(rows), bool)

    def sup_diff(lo: int, hi: int, a: int, b: int, c: int,
                 d: int) -> np.ndarray:
        """``max |V[i + a, j + b] - V[i + c, j + d]|`` for every row
        ``i`` in ``[lo, hi)`` and every ``j``, angular indices wrapped:
        rows ``i + a`` shifted by ``e = b - d`` against rows ``i + c``,
        in two slices with no copy, and the maxima rolled back by
        ``d``."""
        e, d = (b - d) % n1, d % n1
        out = buf[:hi - lo]
        A, B = V[lo + a:hi + a], V[lo + c:hi + c]
        np.subtract(A[:, e:], B[:, :n1 - e], out=out[:, :n1 - e])
        np.subtract(A[:, :e], B[:, n1 - e:], out=out[:, n1 - e:])
        np.abs(out, out=out)
        top = _reduce_rows(np.maximum, out)
        return np.concatenate((top[:, d:], top[:, :d]), axis=1)

    def rule(i: int, a: int) -> tuple[int, int, int]:
        """Richardson extrapolation over the offset length: the
        sup-difference of a Lipschitz chart carries an O(t) curvature
        term that doubling the offset exposes and cancels.  The scale
        ``k`` is 2 if a doubled neighbour of row ``i`` exists, else 1;
        ``p`` and ``q`` tell whether the neighbours at that scale
        exist, both for a central difference."""
        k = 2 if 0 <= i + 2 * a < n0 or 0 <= i - 2 * a < n0 else 1
        return k, int(0 <= i + k * a < n0), int(0 <= i - k * a < n0)

    for o, (a, b) in enumerate(_OFFSETS):
        length = math.hypot(a * h0, b * h1)
        for (k, p, q), run in itertools.groupby(
                rows, lambda i, a=a: rule(i, a)):
            if not p + q:
                continue
            run = list(run)
            for lo in range(run[0], run[-1] + 1, span):
                hi = min(lo + span, run[-1] + 1)
                D = [sup_diff(lo, hi, p * s * a, p * s * b, -q * s * a,
                              -q * s * b) / ((p + q) * s * length)
                     for s in range(1, k + 1)]
                # the Richardson step, or D(t) where the step is at
                # or below DEGENERATE_NORM: no degeneracy of the chart
                r = D[-1]
                if k == 2:
                    np.subtract(2.0 * D[0], r, out=r)
                    np.copyto(r, D[0], where=r <= DEGENERATE_NORM)
                samples[lo - rows[0]:hi - rows[0], :, o] = r
            at = slice(run[0] - rows[0], run[-1] + 1 - rows[0])
            kept[at, o] = True
            flags[at] |= not (k == 2 and p and q)
    return samples, kept, flags.tolist()


def _resampled(chart: SurfaceChart, samples: np.ndarray, kept: np.ndarray,
               nodes: range) -> np.ndarray:
    """The ``(len(nodes), N_DIRECTIONS)`` metric derivative norms of
    the ``nodes``, a range of row-major indices into the rows of
    ``samples`` and ``kept`` (``_offset_samples``); the nodes of the
    rows that keep the same offsets are resampled together."""
    h0 = chart.axis0[1] - chart.axis0[0]
    h1 = chart.axis1[1] - chart.axis1[0]
    n1 = len(chart.axis1)
    thetas = np.array([math.atan2(b * h1, a * h0) % PI
                       for a, b in _OFFSETS])
    flat = samples.reshape(-1, len(_OFFSETS))
    groups = {}
    for r in range(nodes.start // n1, (nodes.stop - 1) // n1 + 1):
        lo, hi = max(nodes.start, r * n1), min(nodes.stop, (r + 1) * n1)
        groups.setdefault(tuple(np.flatnonzero(kept[r])), []).append(
            np.arange(lo, hi))
    if len(groups) == 1:
        (cols, _), = groups.items()
        return _resample(thetas, flat[nodes.start:nodes.stop], cols)
    out = np.empty((len(nodes), N_DIRECTIONS))
    for cols, members in groups.items():
        at = np.concatenate(members)
        out[at - nodes.start] = _resample(thetas, flat[at], cols)
    return out


def _metric_derivatives(chart: SurfaceChart,
                        rows: range) -> tuple[np.ndarray, list[bool]]:
    """Metric derivative norms of every node of the parameter ``rows``:
    the ``(len(rows) * n1, N_DIRECTIONS)`` resampled unit norms in
    row-major order, and per row whether any of its samples is
    one-sided.  See ``metric_derivative``."""
    samples, kept, flags = _offset_samples(chart, rows)
    return _resampled(chart, samples, kept,
                      range(len(rows) * len(chart.axis1))), flags


def _resample(thetas: np.ndarray, samples: np.ndarray,
              cols: tuple[int, ...]) -> np.ndarray:
    """Complete the ``(nodes, len(_OFFSETS))`` samples, of which the
    nodes keep the columns ``cols``, to the ``(nodes, N_DIRECTIONS)``
    norms, vectorized over the nodes; ``thetas`` are the angles of the
    offsets.  A node whose least kept sample, after the Richardson
    fallback of ``_offset_samples``, is at most ``DEGENERATE_NORM`` is
    degenerate: it gets a zero row, which every Jacobian reads as zero
    area.  The other nodes get the polygon through their sampled
    unit-ball boundary points (``_polygon_norms``)."""
    cols = np.asarray(cols)
    cols = cols[np.argsort(thetas[cols])]
    thetas = thetas[cols]
    norms = np.take(samples, cols, axis=1)
    live = _reduce_rows(np.minimum, norms) > DEGENERATE_NORM
    if live.all():
        return _polygon_norms(thetas, norms)
    out = np.zeros((len(samples), N_DIRECTIONS))
    out[live] = _polygon_norms(thetas, norms[live])
    return out


def _polygon_norms(thetas: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The ``(nodes, N_DIRECTIONS)`` norms of the polygon through the
    sampled unit-ball boundary points of each node, the ``(nodes, k)``
    positive ``norms`` at the increasing angles ``thetas``: the chord
    from point ``k`` of the full turn to point ``k + 1``, where point
    ``i`` has the direction ``full_t[i]`` and the norm of sample ``i
    mod k``; every ray between two points crosses their chord.  Five
    ``(nodes, N_DIRECTIONS)`` arrays, reused in place."""
    target = np.arange(N_DIRECTIONS) * (PI / N_DIRECTIONS)
    full_t = np.concatenate([thetas, thetas + PI])
    k = np.searchsorted(full_t, target, side="right") - 1
    k1 = (k + 1) % len(full_t)
    cos, sin = np.cos(full_t), np.sin(full_t)
    # the chord from p to q, each (x, y) = u / norm
    p1, q1 = (np.take(norms, i % len(thetas), axis=1) for i in (k, k1))
    p0, q0 = cos[k] / p1, cos[k1] / q1
    np.divide(sin[k], p1, out=p1)
    np.divide(sin[k1], q1, out=q1)
    dy = q1 - p1
    num = np.multiply(q1, p0, out=q1)
    dx = np.subtract(q0, p0, out=p0)
    num -= np.multiply(q0, p1, out=q0)          # p0 q1 - p1 q0
    dy *= np.cos(target)
    dx *= np.sin(target)
    den = np.subtract(dy, dx, out=dy)
    rho = np.divide(num, den, out=num)
    return np.divide(1.0, rho, out=rho)


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
    is the same for every node of a row.  A Richardson step at or
    below ``DEGENERATE_NORM`` falls back to ``D(t)``.  A node whose
    least sample is still at most ``DEGENERATE_NORM`` is degenerate:
    its norm is zero, and its ``jacobian`` raises.  Every other node
    is completed to a full norm by the polygon through the sampled
    unit-ball boundary points, which is exact for the polygonal balls
    these charts produce and second order accurate for smooth ones.
    The whole row of the node is computed by the code
    ``finsler_mass_table`` runs: ``len(_OFFSETS)`` samples per node
    from a sup-difference buffer of the row, its maxima over beta and the
    least sample of each node by segment reduction
    (``norms._reduce_rows``), then about five ``N_DIRECTIONS``-float
    arrays of temporaries per node to resample them.
    """
    i, j = node
    if not (0 <= i < len(chart.axis0) and 0 <= j < len(chart.axis1)):
        raise ValueError(f"node {node} lies outside the chart's "
                         f"{len(chart.axis0)} x {len(chart.axis1)} nodes")
    norms, flags = _metric_derivatives(chart, range(i, i + 1))
    return Norm2D(N_DIRECTIONS, norms[j]), flags[0]


def _node_batches(chart: SurfaceChart) -> Iterator[tuple[range,
                                                         np.ndarray]]:
    """The metric derivative norms of every node of the chart, in
    row-major batches of nodes that cross row boundaries: each batch's
    row-major node indices and ``(len(nodes), N_DIRECTIONS)`` norms.
    The offset samples of every row are taken first, at
    ``len(_OFFSETS)`` floats per node; each batch is then resampled,
    with as many nodes as ``_BATCH_BYTES`` holds at five
    ``N_DIRECTIONS`` floats each (at least one)."""
    n0, n1 = len(chart.axis0), len(chart.axis1)
    samples, kept, _ = _offset_samples(chart, range(n0))
    step = max(1, _BATCH_BYTES // (5 * 8 * N_DIRECTIONS))
    for start in range(0, n0 * n1, step):
        nodes = range(start, min(start + step, n0 * n1))
        yield nodes, _resampled(chart, samples, kept, nodes)


def finsler_mass_table(chart: SurfaceChart) -> dict[str, float]:
    """Finsler masses of the chart for every volume definition in one
    pass: parameter quadrature of the volume Jacobians of the metric
    derivative.  A degenerate node, whose least offset sample after
    the Richardson fallback is at most ``DEGENERATE_NORM``
    (``metric_derivative``), adds zero to every mass.

    The nodes go in the row-major batches of ``_node_batches``, and
    the live nodes of a batch go through one ``jacobians`` call, so
    the temporaries stay the size of one batch: five
    ``N_DIRECTIONS``-float arrays per node (2.5 KB, which the batch
    size assumes) in the resampling, and in ``norms.jacobians`` 2.1 KB
    per node on the cone's balls but up to 4.4 KB on a smooth cap's,
    next to the ``len(_OFFSETS)`` offset samples per node of the whole
    chart.  Each node gets the value ``jacobian`` gives its norm, and
    the weighted Jacobians are added node by node in row-major order."""
    w0, w1 = axis_weights(chart.axis0, chart.axis1)
    weights = np.outer(w0, w1).ravel()
    totals = dict.fromkeys(JACOBIAN_DEFINITIONS, 0.0)
    for nodes, norms in _node_batches(chart):
        live = np.flatnonzero(_reduce_rows(np.minimum, norms)
                              > DEGENERATE_NORM)
        if not len(live):
            continue
        for definition, values in jacobians(norms[live]).items():
            total = totals[definition]
            for term in (weights[nodes.start + live] * values).tolist():
                total += term
            totals[definition] = total
    return totals


def cone_chart(n_r: int = 48, n_alpha: int = 48,
               grid: Grid = Grid(256)) -> SurfaceChart:
    """The cone over the boundary circle,
    ``f(r, alpha) = (pi/2)(1 - r) + r * d_alpha``, ``r`` in [0, 1]."""
    rs = np.linspace(0.0, 1.0, n_r)
    alphas = np.arange(n_alpha) * (TWO_PI / n_alpha)
    dist = sphere_point_values(0.0, alphas[:, None], grid.beta_nodes)
    # the constant term added in place: one chart-size array
    values = rs[:, None, None] * dist[None, :, :]
    values += (PI / 2) * (1.0 - rs)[:, None, None]
    return SurfaceChart(grid, rs, alphas, values)


def cap_chart(r: float = 0.3, n_d: int = 33, n_tau: int = 64,
              grid: Grid = Grid(256)) -> SurfaceChart:
    """Polar cap of the hemisphere: parameters ``(d, tau)`` with
    ``d in [r, pi/2]`` and ``tau`` around the full circle."""
    if not 0.3 <= r < PI / 2:
        raise ValueError("cap radius parameter must satisfy "
                         "0.3 <= r < pi/2")
    ds = np.linspace(r, PI / 2, n_d)
    taus = np.arange(n_tau) * (TWO_PI / n_tau)
    values = sphere_point_values(ds[:, None, None], taus[:, None],
                                 grid.beta_nodes)
    return SurfaceChart(grid, ds, taus, values)


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
    return SurfaceChart(cap.grid, cap.axis0, cap.axis1, values)


def omega_surface_integral(chart: SurfaceChart) -> float:
    """Surface integral of the two-form over the chart.

    The node value is the form's action on the tangent path ``(t0,
    t1)``: with ``PW`` the weighted coefficient table of the node's hull
    function and ``t0m``, ``t1m`` the tangents at the midpoint nodes, it
    is ``t1m . PW t0 - t0m . PW t1``.  The grid's cached
    ``coeffs.DenseTables`` applies the tables to every node of a
    parameter row at once (the expansion over ``1 / sin^2 a`` and ``cos
    a / sin^2 a`` is derived in ``coeffs``), with temporaries the size
    of one row; the node values are then integrated over the parameter
    rectangle.  Charts are oriented (axis0, axis1); the cap comes out
    positive.

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
    tables = dense_tables(chart.grid)
    w0, w1 = axis_weights(chart.axis0, chart.axis1)
    n0 = len(chart.axis0)
    h0 = chart.axis0[1] - chart.axis0[0]
    h1 = chart.axis1[1] - chart.axis1[0]
    t1 = np.empty_like(V[0])
    total = 0.0
    for i in range(n0):
        y = V[i]
        # the tangents: central differences, one-sided at the two
        # radial ends, and wrapped on the angular axis; they extend
        # antiperiodically, which gives their midpoint values
        lo, hi = max(i - 1, 0), min(i + 1, n0 - 1)
        t0 = (V[hi] - V[lo]) / ((hi - lo) * h0)
        np.subtract(y[2:], y[:-2], out=t1[1:-1])
        np.subtract(y[1], y[-1], out=t1[0])
        np.subtract(y[0], y[-2], out=t1[-1])
        t1 /= 2.0 * h1
        t0m, t1m = (midnodes(t, -t[:, 0]) for t in (t0, t1))
        a, b = tables.pairs(y, (t1m, t0), (t0m, t1))
        total += w0[i] * (w1 @ (a - b))
    return float(total)


def coordinate_filling_area(offset: float) -> float:
    """Signed area ``2 s (pi - |s|)``, ``s`` the offset mod 2 pi in [-pi,
    pi], of the loop ``t -> (d_alpha(t), d_{alpha+offset}(t))`` of two
    coordinate distance functions: the parallelogram through its four
    kinks, whatever ``alpha``; at offset pi/2 the square of area pi^2/2."""
    s = math.remainder(offset, TWO_PI)
    return 2.0 * s * (PI - abs(s))
