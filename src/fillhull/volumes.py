"""Normed-plane volume definitions and Finsler masses of hull charts.

Five normalizations of area on a 2-D normed plane are implemented as
Jacobians against Lebesgue measure:

* ``mass``: infimum of ``N(v) N(w)`` over unit-determinant frames,
* ``mass_star``: supremum of ``|xi1 ^ xi2|`` over dual-unit covectors,
* ``busemann_hausdorff``: ``pi / Leb(unit ball)``,
* ``holmes_thompson``: ``Leb(dual unit ball) / pi``,
* ``inner_riemannian``: ``pi / (inscribed max-area ellipse area)``.

For mass* and the inscribed (John) ellipse the unit ball is the convex
hull polygon ``{x : |c_i . x| <= 1}`` of the sampled boundary points:
the ``c_i`` span the dual polygon, and the John ellipse is the exact
solution of a 3-variable max-det problem over them.

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

from .quadrature import Grid, integrate_triangle
from .hull import (ConvergenceError, HullFn, SpherePoint, sphere_point,
                   random_hull_point)
from .coeffs import p_grid

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
    extended by the symmetry ``N(-v) = N(v)``."""

    m: int
    unit_norms: np.ndarray = field(repr=False)
    provenance: str = "closed-form"

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

    def unit_norm_at(self, theta) -> np.ndarray:
        """N on unit directions, by pi-periodic linear interpolation."""
        pos = np.mod(np.asarray(theta, dtype=float), PI) / (PI / self.m)
        table = np.concatenate([self.unit_norms, self.unit_norms[:1]])
        return np.interp(pos, np.arange(self.m + 1), table)

    def norm_of(self, vx, vy) -> np.ndarray:
        r = np.hypot(vx, vy)
        theta = np.arctan2(vy, vx)
        return r * self.unit_norm_at(theta)

    @cached_property
    def facet_normals(self) -> np.ndarray:
        """Normals ``c``, one per antipodal facet pair, of the convex hull
        of the sampled boundary points ``+-u_j / N(u_j)``, scaled so that
        the hull is ``{x : |c . x| <= 1}``; cached for mass* and the John
        ellipse.  The points run counterclockwise around the origin, and
        one that does not turn left between its current neighbours lies
        in their triangle with the origin: all such points are dropped
        at once until none is left.  Unlike a sort by coordinates, this
        order has no ties up to rounding on axis-parallel edges."""
        self.check_nondegenerate()
        th = self.theta_nodes
        half = np.column_stack([np.cos(th), np.sin(th)]) \
            / self.unit_norms[:, None]
        pts = np.concatenate([half, -half])
        tol = 1e-14 * float((pts * pts).sum(axis=1).max())
        while True:
            e = pts - np.roll(pts, 1, axis=0)
            keep = e[:, 0] * np.roll(e[:, 1], -1) \
                - e[:, 1] * np.roll(e[:, 0], -1) > tol
            if keep.all():
                break
            pts = pts[keep]
        k = len(pts) // 2
        p, q = pts[:k], pts[1:k + 1]
        det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
        return np.column_stack([q[:, 1] - p[:, 1],
                                p[:, 0] - q[:, 0]]) / det[:, None]

    def ball_area(self) -> float:
        """Lebesgue area of the unit ball by the polar formula."""
        r = 1.0 / self.unit_norms
        return float((r * r).sum() * (PI / self.m))

    def dual(self) -> "Norm2D":
        """Dual norm by support-function sampling over the primal
        unit vectors ``u_j / N(u_j)``."""
        self.check_nondegenerate()
        th = self.theta_nodes
        gaps = th[:, None] - th[None, :]
        vals = np.abs(np.cos(gaps)) / self.unit_norms[None, :]
        return Norm2D(self.m, vals.max(axis=1), provenance="dual")

    def to_csv(self) -> str:
        lines = ["theta,N"]
        for t, v in zip(self.theta_nodes, self.unit_norms):
            lines.append(f"{t:.12g},{v:.12g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_callable(fn, m: int = 256, provenance: str = "closed-form"
                      ) -> "Norm2D":
        th = np.arange(m) * (PI / m)
        return Norm2D(m, np.asarray(fn(np.cos(th), np.sin(th)), float),
                      provenance)

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

        return Norm2D.from_callable(fn, m, provenance=f"random:{seed}")


def _ellipse_area(norm: Norm2D, q: np.ndarray, phi: np.ndarray,
                  n_t: int) -> np.ndarray:
    """Area of the largest inscribed ellipse with aspect ``q`` and tilt
    ``phi``: scale the shape until it touches the unit sphere."""
    t = np.arange(n_t) * (PI / n_t)     # ellipse symmetric: half period
    ct, st = np.cos(t), np.sin(t)
    q = np.asarray(q, float)[..., None]
    phi = np.asarray(phi, float)[..., None]
    x = np.cos(phi) * ct - np.sin(phi) * (q * st)
    y = np.sin(phi) * ct + np.cos(phi) * (q * st)
    peak = norm.norm_of(x, y).max(axis=-1)
    return PI * q[..., 0] / (peak * peak)


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


def _dual_polygon(norm: Norm2D) -> np.ndarray:
    """Vertices of the dual unit ball, one per antipodal pair: the hull
    facet normals circumscribe the dual ball of the interpolated norm,
    so each is projected back onto its sphere with a dense
    support-function evaluation."""
    xi = norm.facet_normals
    dense = np.arange(4096) * (TWO_PI / 4096)
    u = np.column_stack([np.cos(dense), np.sin(dense)])
    v = u / norm.norm_of(u[:, 0], u[:, 1])[:, None]
    return xi / np.max(xi @ v.T, axis=1)[:, None]


def jacobian(norm: Norm2D, definition: str) -> float:
    """Jacobian (density against Lebesgue) of the chosen volume
    definition for the sampled norm."""
    norm.check_nondegenerate()
    th = norm.theta_nodes
    if definition == "mass":
        gaps = th[None, :] - th[:, None]
        s = np.abs(np.sin(gaps))
        with np.errstate(divide="ignore"):
            vals = np.where(s > 1e-12,
                            norm.unit_norms[:, None]
                            * norm.unit_norms[None, :] / s,
                            np.inf)
        return float(vals.min())
    if definition == "mass_star":
        # the supremum over dual-unit covector pairs is attained at
        # vertices of the dual ball, which for a sampled norm is the
        # polygon cut out by the primal boundary points
        xi = _dual_polygon(norm)
        wedge = np.abs(xi[:, 0][:, None] * xi[:, 1][None, :]
                       - xi[:, 1][:, None] * xi[:, 0][None, :])
        return float(wedge.max())
    if definition == "busemann_hausdorff":
        return PI / norm.ball_area()
    if definition == "holmes_thompson":
        return norm.dual().ball_area() / PI
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


def _offset_directions(radius: int) -> list[tuple[int, int]]:
    """Coprime integer offsets covering the upper half plane, shortest
    representative per direction."""
    offs = []
    for a in range(-radius, radius + 1):
        for b in range(radius + 1):
            if b == 0 and a <= 0:
                continue
            if math.gcd(abs(a), b) != 1:
                continue
            offs.append((a, b))
    return offs


def metric_derivative(chart: SurfaceChart, node: tuple[int, int],
                      m: int = 64) -> tuple[Norm2D, bool]:
    """Metric derivative norm at a parameter node, resampled at ``m``
    equispaced directions.

    Differences are taken only along integer node offsets so the chart
    is never interpolated between parameter nodes; interpolation would
    smooth the kinks of hull distance functions and bias every sampled
    norm downward.  The sampled directions are completed to a full norm
    by the polygon through the sampled unit-ball boundary points, which
    is exact for the polygonal balls these charts produce and second
    order accurate for smooth ones.  Central differences where both
    neighbours exist, one-sided (flagged) at a non-periodic boundary.
    """
    i0, j0 = node
    h0 = chart.axis0[1] - chart.axis0[0]
    h1 = chart.axis1[1] - chart.axis1[0]
    n0, n1 = len(chart.axis0), len(chart.axis1)
    V = chart.values
    center = V[i0, j0]

    def in_range(a: int, b: int) -> bool:
        ok = chart.periodic0 or 0 <= i0 + a < n0
        if not chart.periodic1:
            ok = ok and 0 <= j0 + b < n1
        return ok

    def at(a: int, b: int) -> np.ndarray:
        return V[(i0 + a) % n0, (j0 + b) % n1]

    def diff(a: int, b: int) -> tuple[float, bool] | None:
        """Norm of the metric derivative along (a, b), Richardson
        extrapolated over the offset length: the sup-difference of a
        Lipschitz chart carries an O(t) curvature term that doubling
        the offset exposes and cancels.  Central differences when both
        doubled neighbours exist, one-sided otherwise (flagged)."""
        length = math.hypot(a * h0, b * h1)

        def central(k: int) -> float:
            return float(np.abs(at(k * a, k * b)
                                - at(-k * a, -k * b)).max()) / (2 * k * length)

        def one_sided(k: int, s: int) -> float:
            return float(np.abs(at(s * k * a, s * k * b)
                                - center).max()) / (k * length)

        if in_range(2 * a, 2 * b) and in_range(-2 * a, -2 * b):
            return 2.0 * central(1) - central(2), False
        for s in (1, -1):
            if in_range(2 * s * a, 2 * s * b):
                return 2.0 * one_sided(1, s) - one_sided(2, s), True
        if in_range(a, b) and in_range(-a, -b):
            return central(1), True
        for s in (1, -1):
            if in_range(s * a, s * b):
                return one_sided(1, s), True
        return None

    thetas, norms = [], []
    boundary = False
    for a, b in _offset_directions(4):
        got = diff(a, b)
        if got is None:
            continue
        val, flagged = got
        boundary = boundary or flagged
        thetas.append(math.atan2(b * h1, a * h0) % PI)
        norms.append(val)
    thetas = np.asarray(thetas)
    norms = np.asarray(norms)
    order = np.argsort(thetas)
    thetas, norms = thetas[order], norms[order]
    target = np.arange(m) * (PI / m)

    if norms.min() < 1e-12:
        # seminorm: interpolate the sampled values directly; downstream
        # Jacobians treat the degenerate directions as zero area
        ext_t = np.concatenate([thetas, thetas + PI, [thetas[0] + TWO_PI]])
        ext_n = np.concatenate([norms, norms, [norms[0]]])
        vals = np.interp(target, ext_t, ext_n)
        return Norm2D(m, vals, provenance="sampled from chart"), boundary

    # polygon through the sampled unit-ball boundary points
    full_t = np.concatenate([thetas, thetas + PI])
    pts = np.column_stack([np.cos(full_t), np.sin(full_t)]) \
        / np.concatenate([norms, norms])[:, None]
    k = np.searchsorted(full_t, target, side="right") - 1
    p = pts[k]
    q = pts[(k + 1) % len(pts)]
    u = np.column_stack([np.cos(target), np.sin(target)])
    num = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    den = u[:, 0] * (q[:, 1] - p[:, 1]) - u[:, 1] * (q[:, 0] - p[:, 0])
    rho = num / np.where(np.abs(den) > 1e-15, den, 1e-15)
    vals = 1.0 / np.maximum(rho, 1e-15)
    return Norm2D(m, vals, provenance="sampled from chart"), boundary


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
    metric derivative.  Nodes where the metric derivative degenerates
    to a seminorm contribute zero, matching the seminorm convention."""
    w0 = _axis_weights(chart.axis0, chart.periodic0)
    w1 = _axis_weights(chart.axis1, chart.periodic1)
    totals = dict.fromkeys(definitions, 0.0)
    for i in range(len(chart.axis0)):
        for j in range(len(chart.axis1)):
            norm, _ = metric_derivative(chart, (i, j), m=m_dirs)
            for definition in definitions:
                try:
                    J = jacobian(norm, definition)
                except DegenerateNormError:
                    J = 0.0
                totals[definition] += w0[i] * w1[j] * J
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
    values = np.empty((n_d, n_tau, grid.n))
    for i, d in enumerate(ds):
        for j, tau in enumerate(taus):
            values[i, j] = sphere_point(SpherePoint(tau, d), grid).values
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


def _param_tangents(chart: SurfaceChart, axis: int,
                    i: int, j: int) -> np.ndarray:
    """Partial derivative of the chart along one parameter axis:
    central differences inside, one-sided at a non-periodic edge."""
    V = chart.values
    if axis == 0:
        n, periodic, h = len(chart.axis0), chart.periodic0, \
            chart.axis0[1] - chart.axis0[0]
        get = lambda k: V[k % n if periodic else k, j]
    else:
        n, periodic, h = len(chart.axis1), chart.periodic1, \
            chart.axis1[1] - chart.axis1[0]
        get = lambda k: V[i, k % n if periodic else k]
    k = i if axis == 0 else j
    if periodic or 0 < k < n - 1:
        return (get(k + 1) - get(k - 1)) / (2.0 * h)
    if k == 0:
        return (get(1) - get(0)) / h
    return (get(n - 1) - get(n - 2)) / h


def omega_surface_integral(chart: SurfaceChart) -> float:
    """Surface integral of the two-form over the chart.

    At each parameter node the two tangent functions are paired
    through the coefficient table of the node's hull function; the
    node values are then integrated over the parameter rectangle.
    Charts are oriented (axis0, axis1); the cap comes out positive.
    """
    grid = chart.grid
    w0 = _axis_weights(chart.axis0, chart.periodic0)
    w1 = _axis_weights(chart.axis1, chart.periodic1)
    total = 0.0
    for i in range(len(chart.axis0)):
        for j in range(len(chart.axis1)):
            f = HullFn(grid, chart.values[i, j])
            P = p_grid(f).p
            t0 = _param_tangents(chart, 0, i, j)
            t1 = _param_tangents(chart, 1, i, j)
            # tangent functions extend antiperiodically; midpoint values
            # by the wrapped average
            t0m = 0.5 * (t0 + np.concatenate([t0[1:], -t0[:1]]))
            t1m = 0.5 * (t1 + np.concatenate([t1[1:], -t1[:1]]))
            cross = (t1m[:, None] * t0[None, :]
                     - t0m[:, None] * t1[None, :])
            total += w0[i] * w1[j] * integrate_triangle(P * cross, grid)
    return total


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
