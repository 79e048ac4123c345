"""Coefficient functions of the two-form on the hull.

For a triple ``(a, x, y)`` with ``a`` the angular gap and ``x, y`` the
two function values, put

    e(a, x, y) = 1 - (cos^2 x + cos^2 y - 2 cos a cos x cos y) / sin^2 a,
    q = e / sin^2 y,
    p = e / (sin^2 x sin^2 y).

Geometrically ``sqrt(e)`` is the height of the spherical point cut out
by the triple, so ``p >= 0`` with equality exactly on degenerate
triangles; roundoff can make ``e`` slightly negative there, which we
clamp away before dividing.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import Grid, integrate_triangle
from .hull import HullFn, SpherePoint, dist_to_boundary

__all__ = [
    "CoeffGrid",
    "p_scalar",
    "height",
    "p_derivatives",
    "p_grid",
    "p_l1_norm",
    "hemisphere_speed",
]

PI = math.pi


def _check_domain(*args: float) -> None:
    for v in args:
        if abs(math.remainder(v, PI)) < 1e-12:
            raise ValueError(f"argument {v} is within 1e-12 of a multiple of pi")


def _e_values(a, x, y):
    """Squared height of the triple; clamped at zero."""
    ca, cx, cy = np.cos(a), np.cos(x), np.cos(y)
    sa = np.sin(a)
    e = 1.0 - (cx * cx + cy * cy - 2.0 * ca * cx * cy) / (sa * sa)
    return np.maximum(e, 0.0)


def p_scalar(a: float, x: float, y: float) -> float:
    """Coefficient value ``p(a, x, y) = e / (sin^2 x sin^2 y)``."""
    _check_domain(a, x, y)
    sx, sy = math.sin(x), math.sin(y)
    return float(_e_values(a, x, y)) / (sx * sx * sy * sy)


def height(a: float, x: float, y: float) -> float:
    """``sqrt(e)``; satisfies ``p = height^2 / (sin^2 x sin^2 y)``."""
    _check_domain(a, x, y)
    return math.sqrt(float(_e_values(a, x, y)))


def p_derivatives(a: float, x: float, y: float):
    """Closed-form first and second partials ``(p_x, p_y, p_xx, p_xy,
    p_yy)`` of ``p`` in the two value arguments."""
    _check_domain(a, x, y)
    ca, cx, cy = math.cos(a), math.cos(x), math.cos(y)
    sa2 = math.sin(a) ** 2
    sx, sy = math.sin(x), math.sin(y)
    p_x = 2.0 * (ca * cx - cy) * (ca - cx * cy) / (sa2 * sx ** 3 * sy ** 2)
    p_y = 2.0 * (ca * cy - cx) * (ca - cy * cx) / (sa2 * sy ** 3 * sx ** 2)
    p_xx = (2.0 * (ca * cx * cy * (5.0 + cx * cx)
                   - (1.0 + 2.0 * cx * cx) * (ca * ca + cy * cy))
            / (sa2 * sx ** 4 * sy ** 2))
    p_yy = (2.0 * (ca * cy * cx * (5.0 + cy * cy)
                   - (1.0 + 2.0 * cy * cy) * (ca * ca + cx * cx))
            / (sa2 * sy ** 4 * sx ** 2))
    p_xy = (2.0 * (ca * (1.0 + cx * cx) * (1.0 + cy * cy)
                   - 2.0 * cx * cy * (1.0 + ca * ca))
            / (sa2 * sx ** 3 * sy ** 3))
    return p_x, p_y, p_xx, p_xy, p_yy


@dataclass(frozen=True)
class CoeffGrid:
    """Triangle table ``p[j, k] = p(beta_k - alpha_j, f(alpha_j),
    f(beta_k))`` for midpoint nodes ``alpha_j < beta_k``; entries
    outside the triangle are zero."""

    grid: Grid
    p: np.ndarray = field(repr=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("alpha,beta,p\n")
        alphas = self.grid.alpha_nodes
        betas = self.grid.beta_nodes
        for j in range(self.grid.n - 1):
            for k in range(j + 1, self.grid.n):
                buf.write(f"{alphas[j]:.12g},{betas[k]:.12g},"
                          f"{self.p[j, k]:.12g}\n")
        return buf.getvalue()


def p_grid(f: HullFn) -> CoeffGrid:
    """Coefficient table of a hull function.

    ``f`` is read at the midpoint nodes by linear interpolation; the
    two node families are disjoint mod pi so the gap never degenerates.
    The triangle is filled in blocks of rows, at most 8192 entries
    each, whose temporaries stay in cache and are reused by the
    allocator instead of being faulted in afresh for every table.
    """
    if dist_to_boundary(f) <= 0.0:
        raise ValueError("f touches the boundary circle; p is undefined")
    n = f.grid.n
    x = f.at_midnodes()
    y = f.values[None, :]
    sy2 = np.sin(y) ** 2
    alphas, betas = f.grid.alpha_nodes, f.grid.beta_nodes
    idx = np.arange(n)
    p = np.zeros((n, n))
    rows = max(1, 8192 // n)
    for j in range(0, n, rows):
        block, cols = slice(j, j + rows), slice(j + 1, n)
        xb = x[block, None]
        mask = idx[None, cols] > idx[block, None]
        e = np.where(mask, _e_values(betas[None, cols] - alphas[block, None],
                                     xb, y[:, cols]), 0.0)
        p[block, cols] = np.where(mask, e / (np.sin(xb) ** 2 * sy2[:, cols]),
                                  0.0)
    return CoeffGrid(f.grid, p)


def p_l1_norm(f: HullFn) -> float:
    """Triangle integral of the (nonnegative) coefficient table."""
    cg = p_grid(f)
    return integrate_triangle(cg.p, f.grid)


def hemisphere_speed(p: SpherePoint, alpha) -> np.ndarray | float:
    """Speed ``sin d / (1 - cos^2 d cos^2(alpha - tau))`` of the
    tangent circle at a hemisphere point; integrates to 2*pi."""
    if p.d <= 0.0:
        raise ValueError("speed is undefined on the boundary circle (d = 0)")
    c = math.cos(p.d) * np.cos(np.asarray(alpha, dtype=float) - p.tau)
    out = math.sin(p.d) / (1.0 - c * c)
    return out if isinstance(out, np.ndarray) else float(out)
