"""Normed-plane volume definitions.

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
problem over the ``c_i``.  The polygons of many norms are built and
measured together, padded with zero rows to a common size
(``jacobians``); ``Norm2D``, ``jacobian`` and ``john_ellipse`` are the
one-node case of that code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hull import ConvergenceError

__all__ = [
    "Norm2D",
    "DegenerateNormError",
    "JACOBIAN_DEFINITIONS",
    "check_definitions",
    "john_ellipse",
    "jacobian",
    "jacobians",
]

PI = math.pi
DEGENERATE_NORM = 1e-9      # a least sample at or below it: degenerate

JACOBIAN_DEFINITIONS = ("mass", "mass_star", "busemann_hausdorff",
                        "holmes_thompson", "inner_riemannian")


class DegenerateNormError(ValueError):
    """The sampled norm vanishes (or nearly so) in some direction."""


@dataclass(frozen=True)
class Norm2D:
    """Norm sampled on ``m`` equispaced directions of ``[0, pi)``;
    extended by the symmetry ``N(-v) = N(v)``.

    The unit ball is the convex hull polygon of the sampled boundary
    points ``+-u_j / N(u_j)``, built once, as the one-node case of
    ``_hull_polygons``; the gauge, the ball area, the dual norm and
    every Jacobian measure it."""

    m: int
    unit_norms: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.unit_norms, dtype=float)
        if v.shape != (self.m,):
            raise ValueError("unit_norms shape mismatch")
        if not np.isfinite(v).all():
            raise ValueError("unit_norms must be finite")
        object.__setattr__(self, "unit_norms", v)

    @property
    def theta_nodes(self) -> np.ndarray:
        return np.arange(self.m) * (PI / self.m)

    def check_nondegenerate(self) -> None:
        if (least := self.unit_norms.min()) <= DEGENERATE_NORM:
            raise DegenerateNormError(f"norm degenerates to {least:.3e}")

    @cached_property
    def _polygon(self) -> "_Polygons":
        self.check_nondegenerate()
        return _hull_polygons(self.unit_norms[None])

    @property
    def hull_vertices(self) -> np.ndarray:
        """The ``k`` vertices of one half-turn, counterclockwise from
        angle 0, of the convex hull of the sampled boundary points
        ``+-u_j / N(u_j)``; the other half-turn is their negatives."""
        poly = self._polygon
        return poly.vertices[0, :poly.counts[0]]

    @property
    def facet_normals(self) -> np.ndarray:
        """Normals ``c``, one per antipodal facet pair, of the hull, scaled
        so that the hull is ``{x : |c . x| <= 1}``: row ``i`` is the facet
        from vertex ``i`` to the next one counterclockwise.  They are the
        vertices of the dual unit ball."""
        poly = self._polygon
        return poly.normals[0, :poly.counts[0]]

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
        """Lebesgue area of the hull polygon; see ``_ball_areas``."""
        return float(_ball_areas(self._polygon)[0])

    def dual(self) -> "Norm2D":
        """Dual norm at the sampled directions; see ``_dual_norms``."""
        return Norm2D(self.m, _dual_norms(self._polygon)[0])

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


class _Polygons(NamedTuple):
    """Hull polygons of several norms sampled on ``m`` directions: the
    ``counts[n]`` vertices of one half-turn of node ``n`` and its facet
    normals (see ``Norm2D``), padded with zero rows to ``(nodes, K, 2)``.
    A zero row adds nothing to a wedge, a support value or a load."""

    m: int
    counts: np.ndarray
    vertices: np.ndarray
    normals: np.ndarray


def _hull_polygons(unit_norms: np.ndarray) -> _Polygons:
    """Hull polygons of the ``(nodes, m)`` sampled norms, all at once.

    A node's points ``+-u_j / N(u_j)`` run counterclockwise around the
    origin, and one that does not turn left between its current
    neighbours lies in their triangle with the origin: all such points
    are dropped at once until none is left.  Unlike a sort by
    coordinates, this order has no ties up to rounding on axis-parallel
    edges.  The points of every node form one flat array with a node id
    per point, and each pass finds a point's neighbours within its
    node's run.  The elimination keeps each point set symmetric, so the
    first half of a node's run is its half-turn of vertices."""
    nodes, m = unit_norms.shape
    th = np.arange(m) * (PI / m)
    half = np.column_stack([np.cos(th), np.sin(th)])[None] \
        / unit_norms[:, :, None]
    pts = np.concatenate([half, -half], axis=1)
    tol = 1e-14 * (pts * pts).sum(axis=2).max(axis=1)
    pts = pts.reshape(-1, 2)
    node = np.repeat(np.arange(nodes), 2 * m)
    while True:
        first = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
        last = np.r_[first[1:], len(node)] - 1
        prev = np.arange(-1, len(node) - 1)
        prev[first] = last
        succ = np.arange(1, len(node) + 1)
        succ[last] = first
        e_in, e_out = pts - pts[prev], pts[succ] - pts
        keep = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0] \
            > tol[node]
        if keep.all():
            break
        pts, node = pts[keep], node[keep]
    counts = np.bincount(node, minlength=nodes) // 2
    pos = np.arange(len(node)) - np.searchsorted(node, node)
    take = pos < counts[node]
    vertices = np.zeros((nodes, counts.max(), 2))
    vertices[node[take], pos[take]] = pts[take]
    # facet i runs from vertex i to the next one, the last facet to the
    # negated first vertex
    nxt = np.zeros_like(vertices)
    nxt[:, :-1] = vertices[:, 1:]
    nxt[np.arange(nodes), counts - 1] = -vertices[:, 0]
    det = vertices[..., 0] * nxt[..., 1] - vertices[..., 1] * nxt[..., 0]
    det[np.arange(vertices.shape[1]) >= counts[:, None]] = 1.0
    normals = np.stack([nxt[..., 1] - vertices[..., 1],
                        vertices[..., 0] - nxt[..., 0]], axis=-1) \
        / det[..., None]
    return _Polygons(m, counts, vertices, normals)


def _polar_areas(norms: np.ndarray) -> np.ndarray:
    """Polar formula ``(pi / m) sum r_j^2`` for the area of each ball
    whose radius at the ``j``-th of ``m`` equispaced directions of a
    half-turn is ``r_j = 1 / norms[..., j]``."""
    r = 1.0 / norms
    return (r * r).sum(axis=-1) * (PI / norms.shape[-1])


def _ball_areas(poly: _Polygons) -> np.ndarray:
    """Lebesgue area of each hull polygon by the polar formula at the
    sampled directions, with the hull radii ``1 / N(u_j)`` of its gauge
    ``N(u_j) = |c . u_j|``, ``c`` the facet of the angular sector that
    holds ``u_j``: the sector opens at the last vertex whose angle is
    at most that of ``u_j`` (the choice of ``Norm2D.norm_of``), and
    before the first vertex it is the last facet's."""
    th = np.arange(poly.m) * (PI / poly.m)
    ux, uy = np.cos(th), np.sin(th)
    v = poly.vertices
    real = np.arange(v.shape[1]) < poly.counts[:, None]
    angles = np.where(real, np.arctan2(v[..., 1], v[..., 0]), np.inf)
    sector = (angles[:, None, :]
              <= np.mod(np.arctan2(uy, ux), PI)[:, None]).sum(axis=2) - 1
    sector = np.where(sector < 0, poly.counts[:, None] - 1, sector)
    c = poly.normals[np.arange(len(v))[:, None], sector]
    return _polar_areas(np.abs(c[..., 0] * ux + c[..., 1] * uy))


def _dual_norms(poly: _Polygons) -> np.ndarray:
    """Dual norm of each hull polygon at the sampled directions: its
    support function, a maximum over its vertices."""
    th = np.arange(poly.m) * (PI / poly.m)
    p = poly.vertices[:, None]
    return np.abs(np.cos(th)[None, :, None] * p[..., 0]
                  + np.sin(th)[None, :, None] * p[..., 1]).max(axis=2)


# candidate active sets among three or four facets: every pair, then
# every triple, as rows of indices padded with -1
_ACTIVE_SETS = {n: np.array([list(s) + [-1] * (3 - k) for k in (2, 3)
                             for s in itertools.combinations(range(n), k)])
                for n in (3, 4)}


def _max_det_on(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-det ``A`` under the three or four rows of each ``g[n]``, and
    its active rows (padded with -1): of the KKT solutions of every
    pair and triple, stacked on one axis, the one with the largest
    determinant once scaled inside all rows."""
    sets = _ACTIVE_SETS[g.shape[1]]
    pairs = g[:, sets[sets[:, 2] < 0, :2]]
    triples = g[:, sets[sets[:, 2] >= 0]]
    # a pair is tight at the maximizer (g^T g)^-1; a triple fixes the
    # three entries of A by g_i^T A g_i = 1
    x, y = triples[..., 0], triples[..., 1]
    rows = np.stack([x ** 2, 2.0 * x * y, y ** 2], axis=-1)
    a = np.linalg.solve(rows, np.ones(rows.shape[:-1] + (1,)))[..., 0]
    A = np.concatenate([np.linalg.inv(pairs.swapaxes(-1, -2) @ pairs),
                        a[..., [0, 1, 1, 2]].reshape(a.shape[:-1] + (2, 2))],
                       axis=1)
    det = np.linalg.det(A)
    gx, gy = g[:, None, :, 0], g[:, None, :, 1]
    a00, a01, a10, a11 = (A[..., r, s, None] for r in (0, 1) for s in (0, 1))
    peak = (gx * a00 * gx + gx * a01 * gy + gy * a10 * gx
            + gy * a11 * gy).max(axis=2)
    score = np.where((A[..., 0, 0] > 0.0) & (det > 0.0),
                     det / (peak * peak), -np.inf)
    pick = np.argmax(score, axis=1)
    return sets[pick], A[np.arange(len(g)), pick]


def _john_ellipses(c: np.ndarray) -> np.ndarray:
    """Factors ``L`` (``A = L L^T``, shape ``(nodes, 2, 2)``) of the John
    ellipses of hull polygons with facet normals ``c`` of shape
    ``(nodes, K, 2)``, padded with zero rows; see ``john_ellipse``.
    The active set runs on every node at once, a node leaving the
    update once it has settled."""
    nodes = np.arange(len(c))
    i = np.argmax((c * c).sum(axis=2), axis=1)
    ci = c[nodes, i][:, None]
    j = np.argmax(np.abs(ci[..., 0] * c[..., 1] - ci[..., 1] * c[..., 0]),
                  axis=1)
    basis = np.column_stack([i, j, np.full(len(c), -1)])
    L = np.linalg.inv(c[nodes[:, None], basis[:, :2]])     # A = L L^T
    g = c @ L                           # facets in the frame of the ellipse
    live = np.ones(len(c), bool)
    for _ in range(64):
        load = (g * g).sum(axis=2)
        k = np.argmax(load, axis=1)
        live &= ~((load[nodes, k] <= 1.0 + 1e-12)
                  | (basis == k[:, None]).any(axis=1))
        if not live.any():
            break
        size = (basis >= 0).sum(axis=1)
        for s in (2, 3):
            sel = np.flatnonzero(live & (size == s))
            if not len(sel):
                continue
            trial = np.column_stack([basis[sel, :s], k[sel]])
            active, A = _max_det_on(g[sel[:, None], trial])
            basis[sel] = np.where(
                active >= 0, np.take_along_axis(trial, active, axis=1), -1)
            chol = np.linalg.cholesky(A)
            L[sel] = L[sel] @ chol
            g[sel] = g[sel] @ chol
    else:
        raise ConvergenceError("John ellipse active set did not settle")
    return L / np.sqrt((g * g).sum(axis=2).max(axis=1))[:, None, None]


def _ellipse_axes(L: np.ndarray) -> tuple[float, float, float, float]:
    """``(a, b, phi, area)`` of the ellipse ``{x : x^T A^-1 x <= 1}``,
    ``A = L L^T``: semi-axes ``a >= b``, the major one at angle
    ``phi``."""
    A = L @ L.T
    a = math.sqrt(0.5 * (A[0, 0] + A[1, 1])
                  + math.hypot(0.5 * (A[0, 0] - A[1, 1]), A[0, 1]))
    b = abs(float(L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0])) / a
    phi = 0.5 * math.atan2(2.0 * A[0, 1], A[0, 0] - A[1, 1]) % PI
    return a, b, phi, PI * a * b


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
    ``a >= b`` and the major axis at angle ``phi``.  This is the
    one-node case of ``jacobians``.
    """
    return _ellipse_axes(_john_ellipses(norm._polygon.normals)[0])


def _max_wedges(p: np.ndarray) -> np.ndarray:
    """Largest ``|p_i ^ p_j|`` over pairs of rows of each ``p[n]``."""
    return np.abs(p[:, :, None, 0] * p[:, None, :, 1]
                  - p[:, :, None, 1] * p[:, None, :, 0]).max(axis=(1, 2))


def check_definitions(definitions) -> None:
    """Reject any name not in ``JACOBIAN_DEFINITIONS``."""
    for definition in definitions:
        if definition not in JACOBIAN_DEFINITIONS:
            raise ValueError(f"unknown volume definition {definition!r}")


def _jacobians(poly: _Polygons, definition: str) -> np.ndarray:
    """Jacobian of a checked definition for every node of ``poly``; see
    ``jacobian``."""
    if definition == "mass":
        return 1.0 / _max_wedges(poly.vertices)
    if definition == "mass_star":
        return _max_wedges(poly.normals)
    if definition == "busemann_hausdorff":
        return PI / _ball_areas(poly)
    if definition == "holmes_thompson":
        # the support values sample the dual norm on a convex ball, so
        # the polar formula reads its area without a second hull
        return _polar_areas(_dual_norms(poly)) / PI
    # the John ellipse L B has area pi |det L|
    return 1.0 / np.abs(np.linalg.det(_john_ellipses(poly.normals)))


def jacobian(norm: Norm2D, definition: str) -> float:
    """Jacobian (density against Lebesgue) of the chosen volume
    definition for the sampled norm, measured on its hull polygon.
    The extremal frames of mass and mass* sit at vertices: mass is one
    over the largest wedge of two hull vertices, mass* the largest
    wedge of two facet normals (the vertices of the dual ball).  This
    is the one-node case of ``jacobians``."""
    check_definitions((definition,))
    return float(_jacobians(norm._polygon, definition)[0])


def jacobians(unit_norms: np.ndarray,
              definitions=JACOBIAN_DEFINITIONS) -> dict[str, np.ndarray]:
    """Jacobians of several definitions for every row of the ``(nodes,
    m)`` non-degenerate sampled norms: one batched hull build and, per
    definition, one batched pass of the code ``jacobian`` runs on one
    node, so each node's value is the same."""
    check_definitions(definitions)
    poly = _hull_polygons(unit_norms)
    return {d: _jacobians(poly, d) for d in definitions}
