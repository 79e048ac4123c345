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

On a grid the gap of the table entry ``(alpha_j, beta_k)`` is ``a =
(k - j - 1/2) * step``, which depends only on ``k - j``.  The only
per-grid gap tables are therefore two cached vectors of ``cos a`` and
``sin^2 a`` over the 2n - 1 values of ``k - j``, read as n x n
Toeplitz views (no copy, no trig per hull function).  The gap is one
rounding of ``(k - j - 1/2) * step``, never the difference ``beta_k -
alpha_j`` of two rounded nodes.  ``_table_blocks`` is the one place
the table of a hull function is formed: blocks of rows of ``p``, the
clamp at zero applied on the strict upper triangle, zeros below it.
``p_grid`` stores the blocks as the dense table; the Psi workspace of
``comass`` folds them into its weighted table, and the one-shot
``comass.psi`` reduces them as they come, holding no n x n array.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .quadrature import Grid, integrate_triangle
from .hull import HullFn, SpherePoint, dist_to_boundary

__all__ = [
    "p_scalar",
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


def _e_kernel(ca, sa2, cx, cy, den=None):
    """e(a, x, y) from ``cos a``, ``sin^2 a``, ``cos x`` and ``cos y``,
    clamped at zero; divided by ``den`` when it is given (``sin^2 x
    sin^2 y`` for p, ``sin^2 y`` for q).  Callers that reuse the gaps
    ``a`` pass their trig tables instead of recomputing them.  The
    arithmetic is that of the closed form, in the same order, carried
    out in place: two arrays of the broadcast shape per call."""
    e = np.empty(np.broadcast_shapes(np.shape(ca), np.shape(cx),
                                     np.shape(cy)))
    np.add(cx * cx, cy * cy, out=e)
    t = np.multiply(2.0, ca, out=np.empty_like(e))
    t *= cx
    t *= cy
    e -= t
    e /= sa2
    np.subtract(1.0, e, out=e)
    np.maximum(e, 0.0, out=e)
    if den is not None:
        e /= den
    return e


def _gap_trig(a):
    """``(cos a, sin^2 a)``, the gap tables the kernel reads."""
    sa = np.sin(a)
    return np.cos(a), sa * sa


@lru_cache(maxsize=8)
def gap_vectors(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(cos a, sin^2 a)`` at the 2n - 1 gaps ``a = (m -
    1/2) * step``, ``m = 1 - n .. n - 1``, cached per grid.  Table
    entry ``[j, k]`` (gap ``beta_k - alpha_j``) has ``m = k - j``, so
    ``toeplitz(v, n)[j, k]`` is its value."""
    n = grid.n
    vectors = _gap_trig((np.arange(1 - n, n) - 0.5) * grid.step)
    for v in vectors:
        v.flags.writeable = False
    return vectors


def toeplitz(v: np.ndarray, n: int) -> np.ndarray:
    """The n x n view ``T[j, k] = v[k - j + n - 1]`` of a vector of
    length 2n - 1: no copy, and read-only."""
    return sliding_window_view(v, n)[::-1]


def _e_values(a, x, y):
    """Squared height of the triple; clamped at zero."""
    return _e_kernel(*_gap_trig(a), np.cos(x), np.cos(y))


def p_scalar(a: float, x: float, y: float) -> float:
    """Coefficient value ``p(a, x, y) = e / (sin^2 x sin^2 y)``."""
    _check_domain(a, x, y)
    sx, sy = math.sin(x), math.sin(y)
    return float(_e_values(a, x, y)) / (sx * sx * sy * sy)


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


def _table_blocks(f: HullFn):
    """Yield ``(rows, cols, block)`` with ``block`` a fresh array equal
    to ``p[rows, cols]`` of the coefficient table of ``f``; together
    the blocks cover the strict upper triangle, row by row.

    ``f`` is read at the midpoint nodes by linear interpolation; the
    two node families are disjoint mod pi so the gap never degenerates.
    Each block holds at most 32768 entries, so its temporaries stay in
    cache and are reused by the allocator instead of being faulted in
    afresh for every table.  The gap trig comes from ``gap_vectors``;
    ``e`` is ``_e_kernel``'s, clamped at zero, and the entries of a
    block on or below the diagonal are zero.
    """
    if dist_to_boundary(f) <= 0.0:
        raise ValueError("f touches the boundary circle; p is undefined")
    n = f.grid.n
    x = f.at_midnodes()
    cx, sx2 = np.cos(x), np.sin(x) ** 2
    y = f.values
    cy, sy2 = np.cos(y), np.sin(y) ** 2
    ca, sa2 = (toeplitz(v, n) for v in gap_vectors(f.grid))
    rows = max(1, min(n, 32768 // n))
    # block entry [r, c] is table entry [j + r, j + 1 + c]: above the
    # diagonal when c >= r, so only the first columns need the mask
    upper = np.arange(rows)[None, :] >= np.arange(rows)[:, None]
    for j in range(0, n - 1, rows):
        block, cols = slice(j, j + rows), slice(j + 1, n)
        e = _e_kernel(ca[block, cols], sa2[block, cols], cx[block, None],
                      cy[None, cols], sx2[block, None] * sy2[None, cols])
        corner = e[:, :rows]
        corner *= upper[:corner.shape[0], :corner.shape[1]]
        yield block, cols, e


def p_grid(f: HullFn) -> np.ndarray:
    """Coefficient table of a hull function: ``p[j, k] = p(a, f(alpha_j),
    f(beta_k))`` at the gap ``a = (k - j - 1/2) * step`` (rounded once,
    in place of ``beta_k - alpha_j``), with ``e`` clamped at zero, for
    ``k > j``, and zero on and below the diagonal: the blocks of
    ``_table_blocks`` stored in one dense n x n array.  Used by the l1
    probe, ``check``, the path action and the tests; Psi reads the
    same blocks without this array."""
    n = f.grid.n
    p = np.zeros((n, n))
    for rows, cols, block in _table_blocks(f):
        p[rows, cols] = block
    return p


def p_l1_norm(f: HullFn) -> float:
    """Triangle integral of the (nonnegative) coefficient table."""
    return integrate_triangle(p_grid(f), f.grid)


def hemisphere_speed(p: SpherePoint, alpha) -> np.ndarray | float:
    """Speed ``sin d / (1 - cos^2 d cos^2(alpha - tau))`` of the
    tangent circle at a hemisphere point; integrates to 2*pi."""
    if p.d <= 0.0:
        raise ValueError("speed is undefined on the boundary circle (d = 0)")
    c = math.cos(p.d) * np.cos(np.asarray(alpha, dtype=float) - p.tau)
    out = math.sin(p.d) / (1.0 - c * c)
    return out if isinstance(out, np.ndarray) else float(out)
