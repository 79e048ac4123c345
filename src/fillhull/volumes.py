"""Normed-plane volume definitions and Finsler masses of hull charts.

Five normalizations of area on a 2-D normed plane are implemented as
Jacobians against Lebesgue measure:

* ``mass``: infimum of ``N(v) N(w)`` over unit-determinant frames,
* ``mass_star``: supremum of ``|xi1 ^ xi2|`` over dual-unit covectors,
* ``busemann_hausdorff``: ``pi / Leb(unit ball)``,
* ``holmes_thompson``: ``Leb(dual unit ball) / pi``,
* ``inner_riemannian``: ``pi / (inscribed max-area ellipse area)``.

Every definition measures one body per sampled norm: the convex hull
polygon ``{x : |c_i . x| <= 1}`` of the sampled boundary points.  Its
vertices give mass, its facet normals ``c_i`` (the vertices of the dual
polygon) give mass*, its gauge gives the ball area and the dual norm,
and the John ellipse is the exact solution of a 3-variable max-det
problem over the ``c_i``.

A surface chart into the hull has, at each parameter point, a metric
derivative norm on the parameter plane; integrating the chosen
Jacobian of that norm gives the Finsler mass of the chart.  The cone
chart over the boundary circle and the polar caps of the hemisphere
are the worked examples, together with the surface integral of the
two-form and the shoelace lower-bound loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import Grid
from .hull import ConvergenceError, random_hull_point

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

JACOBIAN_DEFINITIONS = ("mass", "mass_star", "busemann_hausdorff",
                        "holmes_thompson", "inner_riemannian")


class DegenerateNormError(ValueError):
    """The sampled norm vanishes (or nearly so) in some direction."""


@dataclass(frozen=True)
class Norm2D:
    """Norm sampled on ``m`` equispaced directions of ``[0, pi)``;
    extended by the symmetry ``N(-v) = N(v)``.

    The unit ball is the convex hull polygon of the sampled boundary
    points ``+-u_j / N(u_j)``, built once (``hull_vertices``); the gauge,
    the ball area, the dual norm and every Jacobian measure it."""

    m: int
    unit_norms: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.unit_norms, dtype=float)
        if v.shape != (self.m,):
            raise ValueError("unit_norms shape mismatch")
        object.__setattr__(self, "unit_norms", v)

    @property
    def theta_nodes(self) -> np.ndarray:
        return np.arange(self.m) * (PI / self.m)

    def check_nondegenerate(self, tol: float = 1e-9) -> None:
        if self.unit_norms.min() <= tol:
            raise DegenerateNormError(
                f"norm degenerates to {self.unit_norms.min():.3e}")

    @cached_property
    def hull_vertices(self) -> np.ndarray:
        """The ``k`` vertices of one half-turn, counterclockwise from
        angle 0, of the convex hull of the sampled boundary points
        ``+-u_j / N(u_j)``; the other half-turn is their negatives.  The
        points run counterclockwise around the origin, and one that does
        not turn left between its current neighbours lies in their
        triangle with the origin: all such points are dropped at once
        until none is left.  Unlike a sort by coordinates, this order has
        no ties up to rounding on axis-parallel edges."""
        self.check_nondegenerate()
        th = self.theta_nodes
        half = np.column_stack([np.cos(th), np.sin(th)]) \
            / self.unit_norms[:, None]
        pts = np.concatenate([half, -half])
        tol = 1e-14 * float((pts * pts).sum(axis=1).max())
        while True:
            e = np.diff(np.concatenate([pts[-1:], pts, pts[:1]]), axis=0)
            keep = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0] > tol
            if keep.all():
                break
            pts = pts[keep]
        return pts[:len(pts) // 2]

    @cached_property
    def facet_normals(self) -> np.ndarray:
        """Normals ``c``, one per antipodal facet pair, of the hull, scaled
        so that the hull is ``{x : |c . x| <= 1}``: row ``i`` is the facet
        from vertex ``i`` to the next one counterclockwise.  They are the
        vertices of the dual unit ball."""
        p = self.hull_vertices
        q = np.concatenate([p[1:], -p[:1]])
        det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
        return np.column_stack([q[:, 1] - p[:, 1],
                                p[:, 0] - q[:, 0]]) / det[:, None]

    def norm_of(self, vx, vy) -> np.ndarray:
        """Gauge of the hull polygon: ``|c . v|`` for the facet ``c`` of
        the angular sector that holds ``v``."""
        p = self.hull_vertices
        sector = np.searchsorted(np.arctan2(p[:, 1], p[:, 0]),
                                 np.mod(np.arctan2(vy, vx), PI),
                                 side="right") - 1
        c = self.facet_normals
        return np.abs(c[sector, 0] * vx + c[sector, 1] * vy)

    def ball_area(self) -> float:
        """Lebesgue area of the hull polygon by the polar formula at the
        sampled directions, with the hull radii ``1 / norm_of(u_j)``."""
        th = self.theta_nodes
        return _polar_area(self.norm_of(np.cos(th), np.sin(th)))

    def dual(self) -> "Norm2D":
        """Dual norm at the sampled directions: the support function of
        the hull polygon, a maximum over its vertices."""
        th = self.theta_nodes
        p = self.hull_vertices
        vals = np.abs(np.cos(th)[:, None] * p[None, :, 0]
                      + np.sin(th)[:, None] * p[None, :, 1])
        return Norm2D(self.m, vals.max(axis=1))

    @staticmethod
    def from_callable(fn, m: int = 256) -> "Norm2D":
        th = np.arange(m) * (PI / m)
        return Norm2D(m, np.asarray(fn(np.cos(th), np.sin(th)), float))

    @staticmethod
    def euclidean(m: int = 256, scale: float = 1.0) -> "Norm2D":
        return Norm2D.from_callable(lambda x, y: scale * np.hypot(x, y), m)

    @staticmethod
    def l1(m: int = 256) -> "Norm2D":
        return Norm2D.from_callable(lambda x, y: np.abs(x) + np.abs(y), m)

    @staticmethod
    def linf(m: int = 256) -> "Norm2D":
        return Norm2D.from_callable(
            lambda x, y: np.maximum(np.abs(x), np.abs(y)), m)

    @staticmethod
    def random(seed: int, m: int = 256) -> "Norm2D":
        """Random polytope-with-disk norm: the maximum of a few random
        linear functionals and a scaled Euclidean norm (always convex)."""
        rng = np.random.default_rng(seed)
        k = rng.integers(2, 6)
        angles = rng.uniform(0.0, PI, size=k)
        scales = rng.uniform(0.5, 1.5, size=k)
        disk = rng.uniform(0.3, 1.0)

        def fn(x, y):
            vals = disk * np.hypot(x, y)
            for a, s in zip(angles, scales):
                vals = np.maximum(vals,
                                  s * np.abs(math.cos(a) * x
                                             + math.sin(a) * y))
            return vals

        return Norm2D.from_callable(fn, m)


def _polar_area(norms: np.ndarray) -> float:
    """Polar formula ``(pi / m) sum r_j^2`` for the area of the ball whose
    radius at the ``j``-th of ``m`` equispaced directions of a half-turn
    is ``r_j = 1 / norms[j]``."""
    r = 1.0 / norms
    return float((r * r).sum() * (PI / len(norms)))


# candidate active sets among three or four facets: every pair, triple
_ACTIVE_SETS = {n: [list(s) for k in (2, 3)
                    for s in itertools.combinations(range(n), k)]
                for n in (3, 4)}


def _kkt_matrix(g: np.ndarray) -> np.ndarray:
    """Symmetric ``A`` with ``g_i^T A g_i = 1`` on the two or three rows
    of ``g``; for two rows, the maximizer ``(g^T g)^-1``."""
    if len(g) == 2:
        return np.linalg.inv(g.T @ g)
    rows = np.column_stack([g[:, 0] ** 2, 2.0 * g[:, 0] * g[:, 1],
                            g[:, 1] ** 2])
    a11, a12, a22 = np.linalg.solve(rows, np.ones(3))
    return np.array([[a11, a12], [a12, a22]])


def _max_det_on(g: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Max-det ``A`` under the three or four rows of ``g``, and its
    active rows: of the KKT solutions of every pair and triple, the one
    with the largest determinant once scaled inside all rows."""
    best = -math.inf
    for active in _ACTIVE_SETS[len(g)]:
        A = _kkt_matrix(g[active])
        det = float(np.linalg.det(A))
        if A[0, 0] > 0.0 and det > 0.0:
            peak = float(np.einsum("ij,jk,ik->i", g, A, g).max())
            if det / (peak * peak) > best:
                best, pick = det / (peak * peak), (active, A)
    return pick


def john_ellipse(norm: Norm2D) -> tuple[float, float, float, float]:
    """Maximal-area inscribed origin-symmetric ellipse of the hull
    polygon ``{x : |c_i . x| <= 1}`` of the sampled unit ball.

    The ellipse ``{x : x^T A^-1 x <= 1}`` lies inside iff every
    ``c_i^T A c_i <= 1``, so ``A`` maximizes ``log det A`` under these
    linear constraints (Boyd & Vandenberghe, *Convex Optimization*,
    8.4.2); at most three facet pairs are active, and their KKT
    equations fix ``A``.  Each active-set step adds the most violated
    facet and solves exactly over the at most four in play (``det A``
    falls strictly, so no set recurs), in the frame where the current
    ellipse is the unit disk, which keeps thin ellipses well
    conditioned.  A final rescale by ``max_i c_i^T A c_i`` makes the
    ellipse touch the polygon.  Returns ``(a, b, phi, area)`` with
    ``a >= b`` and the major axis at angle ``phi``.
    """
    c = norm.facet_normals
    i = int(np.argmax((c * c).sum(axis=1)))
    basis = [i, int(np.argmax(np.abs(c[i, 0] * c[:, 1]
                                     - c[i, 1] * c[:, 0])))]
    L = np.linalg.inv(c[basis])         # A = L L^T
    g = c @ L                           # facets in the frame of the ellipse
    for _ in range(64):
        load = (g * g).sum(axis=1)
        k = int(np.argmax(load))
        if load[k] <= 1.0 + 1e-12 or k in basis:
            break
        trial = basis + [k]
        active, A = _max_det_on(g[trial])
        basis = [trial[t] for t in active]
        chol = np.linalg.cholesky(A)
        L, g = L @ chol, g @ chol
    else:
        raise ConvergenceError("John ellipse active set did not settle")
    L = L / math.sqrt(float((g * g).sum(axis=1).max()))
    A = L @ L.T
    a = math.sqrt(0.5 * (A[0, 0] + A[1, 1])
                  + math.hypot(0.5 * (A[0, 0] - A[1, 1]), A[0, 1]))
    b = abs(float(L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0])) / a
    phi = 0.5 * math.atan2(2.0 * A[0, 1], A[0, 0] - A[1, 1]) % PI
    return a, b, phi, PI * a * b


def _max_wedge(p: np.ndarray) -> float:
    """Largest ``|p_i ^ p_j|`` over pairs of rows of ``p``."""
    return float(np.abs(np.outer(p[:, 0], p[:, 1])
                        - np.outer(p[:, 1], p[:, 0])).max())


def jacobian(norm: Norm2D, definition: str) -> float:
    """Jacobian (density against Lebesgue) of the chosen volume
    definition for the sampled norm, measured on its hull polygon.
    The extremal frames of mass and mass* sit at vertices: mass is one
    over the largest wedge of two hull vertices, mass* the largest
    wedge of two facet normals (the vertices of the dual ball)."""
    norm.check_nondegenerate()
    if definition == "mass":
        return 1.0 / _max_wedge(norm.hull_vertices)
    if definition == "mass_star":
        return _max_wedge(norm.facet_normals)
    if definition == "busemann_hausdorff":
        return PI / norm.ball_area()
    if definition == "holmes_thompson":
        # the support values sample the dual norm on a convex ball, so
        # the polar formula reads its area without a second hull
        return _polar_area(norm.dual().unit_norms) / PI
    if definition == "inner_riemannian":
        return PI / john_ellipse(norm)[3]
    raise ValueError(f"unknown volume definition {definition!r}")


@dataclass(frozen=True)
class SurfaceChart:
    """Lipschitz chart into the hull over a rectangular parameter grid.

    ``values[i, j]`` are the hull-function samples at parameter node
    ``(axis0[i], axis1[j])``.  A periodic axis wraps around (its node
    spacing continues past the last node); a non-periodic axis includes
    both endpoints.
    """

    name: str
    grid: Grid
    axis0: np.ndarray = field(repr=False)
    axis1: np.ndarray = field(repr=False)
    periodic0: bool
    periodic1: bool
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        expect = (len(self.axis0), len(self.axis1), self.grid.n)
        if v.shape != expect:
            raise ValueError(f"values shape {v.shape}, expected {expect}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "axis0", np.asarray(self.axis0, float))
        object.__setattr__(self, "axis1", np.asarray(self.axis1, float))


# coprime integer offsets of radius 4 covering the upper half plane,
# the shortest representative per direction
_OFFSETS = tuple((a, b) for a in range(-4, 5) for b in range(5)
                 if (b > 0 or a > 0) and math.gcd(abs(a), b) == 1)


def _row_metric_derivative(chart: SurfaceChart, i: int,
                           m: int) -> tuple[np.ndarray, np.ndarray]:
    """Metric derivative norms of every node of parameter row ``i``:
    the ``(n1, m)`` resampled unit norms and the ``(n1,)`` one-sided
    flags.  See ``metric_derivative``.

    Each offset costs one sup-difference of two whole rows per scale
    and side: the periodic axis 1 is shifted by rolling a row, and the
    boundary rule is a mask over the row, which on a periodic axis 1
    is all or nothing."""
    h0 = chart.axis0[1] - chart.axis0[0]
    h1 = chart.axis1[1] - chart.axis1[0]
    n0, n1 = len(chart.axis0), len(chart.axis1)
    V = chart.values
    cols = np.arange(n1)

    def exists(a: int, b: int) -> np.ndarray:
        """Which nodes ``(i, j)`` of the row have a node at ``(i + a,
        j + b)``."""
        if not (chart.periodic0 or 0 <= i + a < n0):
            return np.zeros(n1, bool)
        if chart.periodic1:
            return np.ones(n1, bool)
        return (0 <= cols + b) & (cols + b < n1)

    def sup_diff(a: int, b: int, c: int, d: int) -> np.ndarray:
        """``max |V[i + a, j + b] - V[i + c, j + d]|`` for every ``j``,
        indices wrapped: row ``i + a`` is rolled against row ``i + c``
        and the maxima rolled back."""
        diff = V[(i + a) % n0].take((cols + (b - d)) % n1, axis=0)
        diff -= V[(i + c) % n0]
        np.abs(diff, out=diff)
        return diff.max(axis=-1).take((cols + d) % n1)

    thetas = np.array([math.atan2(b * h1, a * h0) % PI for a, b in _OFFSETS])
    samples = np.zeros((n1, len(_OFFSETS)))
    have = np.zeros((n1, len(_OFFSETS)), bool)
    flagged = np.zeros(n1, bool)
    for col, (a, b) in enumerate(_OFFSETS):
        # Richardson extrapolation over the offset length: the
        # sup-difference of a Lipschitz chart carries an O(t) curvature
        # term that doubling the offset exposes and cancels
        length = math.hypot(a * h0, b * h1)

        def central(k: int) -> np.ndarray:
            return sup_diff(k * a, k * b, -k * a, -k * b) / (2 * k * length)

        def one_sided(k: int, s: int) -> np.ndarray:
            return sup_diff(s * k * a, s * k * b, 0, 0) / (k * length)

        ok = {(s, k): exists(s * k * a, s * k * b)
              for s in (1, -1) for k in (1, 2)}
        # (nodes it applies to, flagged, value), the first that applies
        # to a node gives its sample
        rules = (
            (ok[1, 2] & ok[-1, 2], False,
             lambda: 2.0 * central(1) - central(2)),
            (ok[1, 2], True, lambda: 2.0 * one_sided(1, 1) - one_sided(2, 1)),
            (ok[-1, 2], True,
             lambda: 2.0 * one_sided(1, -1) - one_sided(2, -1)),
            (ok[1, 1] & ok[-1, 1], True, lambda: central(1)),
            (ok[1, 1], True, lambda: one_sided(1, 1)),
            (ok[-1, 1], True, lambda: one_sided(1, -1)),
        )
        for applies, one_sided_rule, value in rules:
            use = applies & ~have[:, col]
            if use.any():
                samples[use, col] = value()[use]
                have[use, col] = True
                flagged |= use & one_sided_rule
    return _resample_row(thetas, samples, have, m), flagged


def _resample_row(thetas_all: np.ndarray, samples: np.ndarray,
                  have: np.ndarray, m: int) -> np.ndarray:
    """Complete each node's samples along its available offsets, at
    angles ``thetas_all``, to ``m`` equispaced directions: the polygon
    through the sampled unit-ball boundary points, vectorized over the
    nodes that share a set of offsets; a node with a vanishing sample
    goes through ``np.interp`` on its own."""
    target = np.arange(m) * (PI / m)
    u = np.column_stack([np.cos(target), np.sin(target)])
    out = np.empty((len(samples), m))
    groups: dict[bytes, list[int]] = {}
    for node, pattern in enumerate(have):
        groups.setdefault(pattern.tobytes(), []).append(node)
    for nodes in groups.values():
        pattern = have[nodes[0]]
        nodes = np.asarray(nodes)
        thetas = thetas_all[pattern]
        order = np.argsort(thetas)
        thetas = thetas[order]
        norms = samples[nodes][:, pattern][:, order]
        seminorm = norms.min(axis=1) < 1e-12
        for node, row in zip(nodes[seminorm], norms[seminorm]):
            # seminorm: interpolate the sampled values directly;
            # downstream Jacobians treat it as zero area
            ext_t = np.concatenate([thetas, thetas + PI,
                                    [thetas[0] + TWO_PI]])
            ext_n = np.concatenate([row, row, [row[0]]])
            out[node] = np.interp(target, ext_t, ext_n)
        nodes, norms = nodes[~seminorm], norms[~seminorm]
        if not len(nodes):
            continue
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
        out[nodes] = 1.0 / np.maximum(rho, 1e-15)
    return out


def metric_derivative(chart: SurfaceChart, node: tuple[int, int],
                      m: int = 64) -> tuple[Norm2D, bool]:
    """Metric derivative norm at a parameter node, resampled at ``m``
    equispaced directions, and whether any of its samples is one-sided.

    Differences are taken only along integer node offsets so the chart
    is never interpolated between parameter nodes; interpolation would
    smooth the kinks of hull distance functions and bias every sampled
    norm downward.  Along each offset the sample is the Richardson step
    ``2 D(t) - D(2 t)`` of central sup-differences ``D`` when both
    doubled neighbours exist; otherwise, in this order, the Richardson
    step of one-sided differences, a plain central difference, or a
    plain one-sided difference, all flagged; an offset with no
    neighbour on either side is dropped.  The sampled directions are
    completed to a full norm by the polygon through the sampled
    unit-ball boundary points, which is exact for the polygonal balls
    these charts produce and second order accurate for smooth ones.
    The whole row of the node is computed, as ``finsler_mass_table``
    does.
    """
    i, j = node
    norms, flagged = _row_metric_derivative(chart, i, m)
    return Norm2D(m, norms[j]), bool(flagged[j])


def _axis_weights(axis: np.ndarray, periodic: bool) -> np.ndarray:
    step = axis[1] - axis[0]
    if periodic:
        return np.full(len(axis), step)
    w = np.full(len(axis), step)
    w[0] = w[-1] = 0.5 * step
    return w


def finsler_mass_table(chart: SurfaceChart,
                       definitions=JACOBIAN_DEFINITIONS,
                       m_dirs: int = 64) -> dict[str, float]:
    """Finsler masses of the chart for several volume definitions in
    one pass: parameter quadrature of the volume Jacobians of the
    metric derivative, one parameter row at a time.  Nodes where the
    metric derivative degenerates to a seminorm contribute zero,
    matching the seminorm convention."""
    w0 = _axis_weights(chart.axis0, chart.periodic0)
    w1 = _axis_weights(chart.axis1, chart.periodic1)
    totals = dict.fromkeys(definitions, 0.0)
    for i in range(len(chart.axis0)):
        norms, _ = _row_metric_derivative(chart, i, m_dirs)
        for j in range(len(chart.axis1)):
            norm = Norm2D(m_dirs, norms[j])
            try:
                norm.check_nondegenerate()
            except DegenerateNormError:
                continue
            for definition in definitions:
                totals[definition] += w0[i] * w1[j] \
                    * jacobian(norm, definition)
    return totals


def finsler_mass(chart: SurfaceChart, definition: str,
                 m_dirs: int = 64) -> float:
    """Finsler mass of the chart for one volume definition."""
    return finsler_mass_table(chart, (definition,), m_dirs)[definition]


def cone_chart(n_r: int = 48, n_alpha: int = 48,
               grid: Grid = Grid(256), r_max: float = 1.0) -> SurfaceChart:
    """The cone over the boundary circle,
    ``f(r, alpha) = (pi/2)(1 - r) + r * d_alpha``."""
    rs = np.linspace(0.0, r_max, n_r)
    alphas = np.arange(n_alpha) * (TWO_PI / n_alpha)
    dist = np.arccos(np.cos(grid.beta_nodes[None, :] - alphas[:, None]))
    values = ((PI / 2) * (1.0 - rs)[:, None, None]
              + rs[:, None, None] * dist[None, :, :])
    return SurfaceChart("cone", grid, rs, alphas, False, True, values)


def cap_chart(r: float = 0.3, n_d: int = 33, n_tau: int = 64,
              grid: Grid = Grid(256)) -> SurfaceChart:
    """Polar cap of the hemisphere: parameters ``(d, tau)`` with
    ``d in [r, pi/2]`` and ``tau`` around the full circle."""
    if r < 0.3:
        raise ValueError("cap radius parameter must satisfy r >= 0.3")
    ds = np.linspace(r, PI / 2, n_d)
    taus = np.arange(n_tau) * (TWO_PI / n_tau)
    # the hemisphere point arccos(cos d cos(alpha - tau)) at every node
    values = np.cos(ds)[:, None, None] \
        * np.cos(grid.beta_nodes[None, :] - taus[:, None])
    np.arccos(values, out=values)
    return SurfaceChart("cap", grid, ds, taus, False, True, values)


def perturbed_cap_chart(cap: SurfaceChart, bump_seed: int,
                        amplitude: float = 0.15) -> SurfaceChart:
    """Interior perturbation of a cap chart with identical boundary
    rows: a pointwise convex combination with a random hull point,
    weighted by a bump vanishing at the non-periodic boundary."""
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
                        cap.periodic0, cap.periodic1, values)


def _tangent_stencil(axis: np.ndarray,
                     periodic: bool) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """Partial derivative along one parameter axis, as indices and
    steps: node ``k`` has tangent ``(V[up[k]] - V[down[k]]) / den[k]``,
    central inside and one-sided at a non-periodic edge."""
    n = len(axis)
    h = axis[1] - axis[0]
    up, down = np.arange(1, n + 1), np.arange(-1, n - 1)
    den = np.full(n, 2.0 * h)
    if periodic:
        return up % n, down % n, den
    up[-1], down[0] = n - 1, 0
    den[[0, -1]] = h
    return up, down, den


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
    = cos a / sin^2 a`` at the gap ``a = beta_k - alpha_j``, zero for
    ``k <= j``: one gap buffer becomes ``S^T`` in place."""
    st = grid.beta_nodes[:, None] - grid.alpha_nodes[None, :]
    ct = np.cos(st)
    np.sin(st, out=st)
    st *= st
    np.reciprocal(st, out=st)
    for k in range(grid.n):
        st[k, k:] = 0.0
    ct *= st
    return st, ct


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
    w0 = _axis_weights(chart.axis0, chart.periodic0)
    w1 = _axis_weights(chart.axis1, chart.periodic1)
    up0, down0, den0 = _tangent_stencil(chart.axis0, chart.periodic0)
    up1, down1, den1 = _tangent_stencil(chart.axis1, chart.periodic1)
    total = 0.0
    for i in range(len(chart.axis0)):
        y = V[i]
        t0 = (V[up0[i]] - V[down0[i]]) / den0[i]
        t1 = (y[up1] - y[down1]) / den1[:, None]
        total += w0[i] * (w1 @ _row_integrands(y, t0, t1, c, st, ct))
    return float(total)


def coordinate_filling_area(alpha: float, offset: float,
                            n_t: int = 4096) -> float:
    """Signed shoelace area of the loop
    ``t -> (d_alpha(t), d_{alpha+offset}(t))`` of two coordinate
    distance functions.  For offset pi/2 the loop is the tilted square
    through (0, pi/2) and the area is pi^2 / 2."""
    n_t = 4 * max(1, n_t // 4)      # keep the square's corners on nodes
    t = alpha + np.arange(n_t) * (TWO_PI / n_t)
    x = np.arccos(np.cos(t - alpha))
    y = np.arccos(np.cos(t - alpha - offset))
    xs = np.roll(x, -1)
    ys = np.roll(y, -1)
    return float(0.5 * np.sum(x * ys - xs * y))
