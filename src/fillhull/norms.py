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
vertices give mass and the ball area, its facet normals ``c_i`` (the
vertices of the dual polygon) give mass* and the dual ball area, and
the John ellipse is the exact solution of a 3-variable max-det problem
over the ``c_i``.  The polygons of many norms are built and measured
together (``jacobians``): the hull's passes run on the half-turn of
``m`` points per node, the first on their regular layout, and the
polygons are padded with zero rows to ``K`` vertices, which the kernels
take a column at a time.  ``Norm2D``, ``jacobian`` and
``john_ellipse`` are the one-node case of that code.
"""

from __future__ import annotations

import functools
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
    ``_hull_polygons``; every Jacobian measures it."""

    m: int
    unit_norms: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.unit_norms, dtype=float)
        if v.shape != (self.m,):
            raise ValueError("unit_norms shape mismatch")
        if not np.isfinite(v).all():
            raise ValueError("unit_norms must be finite")
        object.__setattr__(self, "unit_norms", v)

    def check_nondegenerate(self) -> None:
        if (least := self.unit_norms.min()) <= DEGENERATE_NORM:
            raise DegenerateNormError(f"norm degenerates to {least:.3e}")

    @cached_property
    def _polygon(self) -> "_Polygons":
        self.check_nondegenerate()
        return _hull_polygons(self.unit_norms[None])

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


class _Polygons(NamedTuple):
    """Hull polygons of several sampled norms, each the convex hull of
    its points ``+-u_j / N(u_j)``: the ``counts[n]`` vertices of one
    half-turn of node ``n``, counterclockwise from angle 0 (the other
    half-turn is their negatives), and its facet normals, padded with
    zero rows to ``(nodes, K, 2)``.  The normals ``c``, one per
    antipodal facet pair, are scaled so that the hull is ``{x : |c . x|
    <= 1}``: row ``i`` is the facet from vertex ``i`` to the next one
    counterclockwise, and they are the half-turn vertices of the dual
    unit ball, counterclockwise as well.  A zero row adds nothing to a
    wedge, an area or a load."""

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
    edges.  The point set stays symmetric, and negation is exact in
    floating point, so a point and its negative are kept or dropped
    together: every pass runs on the half-turn ``u_j / N(u_j)`` alone,
    whose first point follows the negated last one.  The first pass
    runs on the regular layout, x and y as two ``(nodes, m)`` arrays
    with a node's neighbours along its row, at four floats per point
    at most; the survivors form flat x and y arrays, node by node, and
    each later pass turns only the points next to one the pass before
    dropped: every other point keeps its neighbours, so its turn.  What
    is left of a node's run is its half-turn of vertices."""
    nodes, m = unit_norms.shape
    th = np.arange(m) * (PI / m)
    cos, sin = np.cos(th), np.sin(th)
    x, y = cos / unit_norms, sin / unit_norms
    tol = x * x
    tol += y * y
    tol = 1e-14 * _reduce_rows(np.maximum, tol)
    ex, ey = _edges(x), _edges(y)
    del x, y
    # the turn ex_i ey_(i+1) - ey_i ex_(i+1) at each point, flat, where
    # the edge after the last point is the negated first one
    wrap = ex[:, -1] * -ey[:, 0] - ey[:, -1] * -ex[:, 0]
    cross = np.empty(ex.shape)
    fx, fy, fc = ex.reshape(-1), ey.reshape(-1), cross.reshape(-1)
    np.multiply(fx[:-1], fy[1:], out=fc[:-1])
    fc[:-1] -= np.multiply(fy[:-1], fx[1:], out=fy[:-1])
    cross[:, -1] = wrap
    keep = cross > tol[:, None]
    del ex, ey, cross, fx, fy, fc
    # the survivors' points again, by the same division, and those next
    # to a dropped point, the next pass's
    cols = np.arange(m)
    near = ~(keep[:, cols - 1] & keep[:, (cols + 1) % m])
    keep = np.flatnonzero(keep)
    at = np.flatnonzero(near.reshape(-1)[keep])
    node = keep // m
    col = keep - node * m
    norm = unit_norms[node, col]
    x, y = cos[col] / norm, sin[col] / norm
    del keep, near, col, norm
    start = np.searchsorted(node, np.arange(nodes + 1))
    while len(at):
        # the neighbours in the node's run, negated across its ends
        n = node[at]
        lo, hi = start[n], start[n + 1] - 1
        first, last = at == lo, at == hi
        prev, succ = np.where(first, hi, at - 1), np.where(last, lo, at + 1)
        sp, ss = np.where(first, -1.0, 1.0), np.where(last, -1.0, 1.0)
        xa, ya = x[at], y[at]
        ex, ey = xa - sp * x[prev], ya - sp * y[prev]
        gone = ~(ex * (ss * y[succ] - ya) - ey * (ss * x[succ] - xa)
                 > tol[n])
        if not gone.any():
            break
        # the survivors next to a dropped point are the next pass's
        keep = np.ones(len(node), bool)
        keep[at[gone]] = False
        near = np.zeros(len(node), bool)
        near[prev[gone]] = near[succ[gone]] = True
        keep = np.flatnonzero(keep)
        at = np.flatnonzero(near[keep])
        x, y, node = x[keep], y[keep], node[keep]
        start = np.searchsorted(node, np.arange(nodes + 1))
    counts = np.diff(start)
    v, w = np.zeros((2, 2, nodes, counts.max()))
    v[:, node, np.arange(len(node)) - start[node]] = x, y
    # facet i runs from vertex i to the next point, which after the
    # last vertex is the negated first one
    w[..., :-1] = v[..., 1:]
    w[:, np.arange(nodes), counts - 1] = -v[..., 0]
    det = v[0] * w[1] - v[1] * w[0]
    det[np.arange(v.shape[2]) >= counts[:, None]] = 1.0
    return _Polygons(counts, np.stack(v, axis=-1),
                     np.stack([w[1] - v[1], v[0] - w[0]], axis=-1)
                     / det[..., None])


def _edges(z: np.ndarray) -> np.ndarray:
    """The coordinate ``z`` of the edge into each point of the ``(nodes,
    m)`` half-turns ``z``, the first edge from the negated last point:
    the differences of the flat array, one contiguous run each (a
    strided operand costs numpy a buffer), with the first column, which
    they get wrong, set after."""
    e = np.empty(z.shape)
    flat = z.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=e.reshape(-1)[1:])
    np.add(z[:, 0], z[:, -1], out=e[:, 0])
    return e


def _reduce_rows(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` (``np.maximum``) or ``a.min(axis=-1)``, bit for
    bit, by ``ufunc.reduceat`` at the row starts of the flat array: an
    axis reduction costs numpy some 100 ns per row, much of a short
    one."""
    flat = np.ascontiguousarray(a).reshape(-1)
    return ufunc.reduceat(flat, np.arange(0, flat.size, a.shape[-1])
                          ).reshape(a.shape[:-1])


def _areas(p: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Area of each origin-symmetric polygon with the ``counts[n]``
    vertices ``p[n]`` of one half-turn, counterclockwise and padded with
    zero rows to ``(nodes, K, 2)``: the shoelace sum over the full turn
    is twice that over the half-turn, whose last vertex is followed by
    the negated first one.  A running sum over the vertex columns, so a
    padded row adds exactly 0."""
    x, y = p[..., 0], p[..., 1]
    out = np.zeros(len(p))
    for i in range(p.shape[1] - 1):
        out += x[:, i] * y[:, i + 1] - y[:, i] * x[:, i + 1]
    last = p[np.arange(len(p)), counts - 1]
    return out - (last[:, 0] * y[:, 0] - last[:, 1] * x[:, 0])


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
    load = gx * a00 * gx + gx * a01 * gy + gy * a10 * gx + gy * a11 * gy
    peak = functools.reduce(np.maximum, np.moveaxis(load, 2, 0))
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
    i = np.argmax(c[..., 0] ** 2 + c[..., 1] ** 2, axis=1)
    ci = c[nodes, i][:, None]
    j = np.argmax(np.abs(ci[..., 0] * c[..., 1] - ci[..., 1] * c[..., 0]),
                  axis=1)
    basis = np.column_stack([i, j, np.full(len(c), -1)])
    L = np.linalg.inv(c[nodes[:, None], basis[:, :2]])     # A = L L^T
    g = c @ L                           # facets in the frame of the ellipse
    gx, gy = g[..., 0], g[..., 1]
    live = np.ones(len(c), bool)
    for _ in range(64):
        load = gx * gx + gy * gy
        k = np.argmax(load, axis=1)
        live &= ~((load[nodes, k] <= 1.0 + 1e-12) | (basis[:, 0] == k)
                  | (basis[:, 1] == k) | (basis[:, 2] == k))
        if not live.any():
            break
        size = 2 + (basis[:, 2] >= 0)       # a pair or a triple
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
    return L / np.sqrt(_reduce_rows(np.maximum, gx * gx + gy * gy)
                       )[:, None, None]


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
    """Largest ``|p_i ^ p_j|`` over pairs of rows of each ``p[n]``: a
    running elementwise maximum over the rows ``i``, so that no
    ``(nodes, K, K)`` array is held, then one over the rows ``j``."""
    px, py = p[..., 0], p[..., 1]
    out = np.zeros(px.shape)
    for xi, yi in zip(px.T, py.T):
        out = np.maximum(out, np.abs(xi[:, None] * py - yi[:, None] * px))
    return _reduce_rows(np.maximum, out)


def _jacobians(poly: _Polygons, definition: str) -> np.ndarray:
    """Jacobian of a checked definition for every node of ``poly``; see
    ``jacobian``."""
    if definition == "mass":
        return 1.0 / _max_wedges(poly.vertices)
    if definition == "mass_star":
        return _max_wedges(poly.normals)
    if definition == "busemann_hausdorff":
        return PI / _areas(poly.vertices, poly.counts)
    if definition == "holmes_thompson":
        return _areas(poly.normals, poly.counts) / PI
    # the John ellipse L B has area pi |det L|
    return 1.0 / np.abs(np.linalg.det(_john_ellipses(poly.normals)))


def jacobian(norm: Norm2D, definition: str) -> float:
    """Jacobian (density against Lebesgue) of the chosen volume
    definition for the sampled norm, measured on its hull polygon.
    The extremal frames of mass and mass* sit at vertices: mass is one
    over the largest wedge of two hull vertices, mass* the largest
    wedge of two facet normals (the vertices of the dual ball).  The
    ball areas are exact (``_areas``).  This is the one-node case of
    ``jacobians``."""
    if definition not in JACOBIAN_DEFINITIONS:
        raise ValueError(f"unknown volume definition {definition!r}")
    return float(_jacobians(norm._polygon, definition)[0])


def jacobians(unit_norms: np.ndarray) -> dict[str, np.ndarray]:
    """Jacobians of every definition for every row of the ``(nodes, m)``
    non-degenerate sampled norms: one batched hull build and, per
    definition, one batched pass of the code ``jacobian`` runs on one
    node, so each node's value is the same.  The temporaries are four
    ``m``-float arrays per node in the hull's first pass, then flat
    arrays of the points that survive it and ``K``-vertex arrays: at
    ``m = 64``, about 2 KB per node on the cone's balls of at most 8
    vertices, and up to 4.4 KB on the 26-vertex balls of a smooth cap,
    where most points survive the first pass.  A reduction over many
    short rows is a segment reduction (``_reduce_rows``), or over 2 to
    4 columns an elementwise one."""
    poly = _hull_polygons(unit_norms)
    return {d: _jacobians(poly, d) for d in JACOBIAN_DEFINITIONS}
