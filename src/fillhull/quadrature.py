"""Uniform angular grids and deterministic quadrature rules.

Everything downstream integrates over the triangle ``{0 < alpha <
beta < pi}``, over the band ``(beta, beta + pi)`` of a node, over one
full period of a periodic function, or over the parameter rectangle of
a chart (``axis_weights``).  The rules here are plain
midpoint-type rules with a fixed summation order, so repeated runs
produce bit-identical results.

The triangle rule is one set of column weights, ``Grid.triangle_weights``,
on the strict upper triangle of an ``(alpha_j, beta_k)`` table.
``integrate_triangle`` masks the triangle, reduces each row against
the weights and adds the row values with ``math.fsum``: a dense
reference for ``check`` and the tests.  The sums that pair the table
with vectors use the same weights directly.

Values on the midpoint nodes come from one rule, ``midnodes``: the
average of the two neighbouring integer nodes, continued past the half
period by each caller's own symmetry.  It gives values only.  The
coefficient tables, all but the reference ``coeffs.p_grid``, take the
cosines and sines of a hull function at its midpoints from
``coeffs._half_angle_factors``, whose angle sums are exact where a
rounded average is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "midnodes", "band_rule", "axis_weights",
           "integrate_triangle", "integrate_period"]

PI = math.pi


@dataclass(frozen=True)
class Grid:
    """Uniform partition of the half period ``[0, pi)`` into ``n`` cells.

    Two interleaved families of nodes are used:

    * ``beta_nodes``:  ``k * pi / n`` for ``k = 0..n-1`` (cell edges),
    * ``alpha_nodes``: ``(k + 1/2) * pi / n`` (cell midpoints).

    The two families are disjoint modulo ``pi``, which keeps pairwise
    integrands away from their diagonal singularities.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 nodes, got n={self.n}")

    @property
    def step(self) -> float:
        return PI / self.n

    @property
    def beta_nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.step

    @property
    def alpha_nodes(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.step

    @property
    def triangle_weights(self) -> np.ndarray:
        """Column weights ``c_k`` of the triangle rule: the integral of
        ``F`` over ``{0 < alpha < beta < pi}`` is the sum of
        ``c_k F(alpha_j, beta_k)`` over ``k >= j + 1``.  Every column
        carries ``step^2``, the last one ``3/2 step^2``."""
        c = np.full(self.n, self.step ** 2)
        c[-1] *= 1.5
        return c


def midnodes(v: np.ndarray, last) -> np.ndarray:
    """Values at the midpoint nodes ``(k + 1/2) * step`` by linear
    interpolation along the last axis of ``v``: each entry averaged with
    its right neighbour, where the last entry's neighbour is ``last``,
    the continuation of the first entry past the half period (``pi -
    v[..., 0]`` for a hull function, ``v[..., 0]`` for a pi-periodic
    field, ``-v[..., 0]`` for an antiperiodic one)."""
    out = np.empty_like(v)
    out[..., :-1] = v[..., 1:]
    out[..., -1] = last
    out += v
    out *= 0.5
    return out


def band_rule(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature over the open band ``(beta_k, beta_k + pi)`` of every
    node on the nodes ``beta_{k+m}``, ``m = 1..n-1``: their indices ``(k
    + m) mod 2n`` into samples of the full circle, shape ``(n, n - 1)``,
    and the weights, interior midpoint cells plus extended end cells
    covering the two bounded half-gaps."""
    n, step = grid.n, grid.step
    idx = (np.arange(n)[:, None] + np.arange(1, n)[None, :]) % (2 * n)
    w = np.full(n - 1, step)
    w[0] = 1.5 * step
    w[-1] = 1.5 * step
    return idx, w


def axis_weights(axis0: np.ndarray,
                 axis1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights on the two axes of a parameter rectangle: the
    trapezoid rule on the uniform radial axis 0, and on the uniform
    angular axis 1, which wraps around the circle, every node its
    spacing."""
    h0 = axis0[1] - axis0[0]
    w0 = np.full(len(axis0), h0)
    w0[0] = w0[-1] = 0.5 * h0
    return w0, np.full(len(axis1), axis1[1] - axis1[0])


def integrate_triangle(values: np.ndarray, grid: Grid) -> float:
    """Midpoint-rule integral of ``F`` over ``{0 < alpha < beta < pi}``.

    Parameters
    ----------
    values : ndarray, shape (n, n)
        ``values[j, k]`` holds ``F(alpha_j, beta_k)``; only the entries
        with ``k >= j + 1`` (where ``beta_k > alpha_j``) are read.
    grid : Grid

    Notes
    -----
    For each midpoint ``alpha_j`` the beta nodes ``j+1 .. n-1`` form an
    exact composite midpoint rule on ``[alpha_j, pi - step/2]``.  The
    remaining strip ``[pi - step/2, pi]`` is covered by extending the
    weight of the last beta node, which removes the O(1/n) boundary
    error of the naive rule; ``Grid.triangle_weights`` holds the
    resulting column weights.  The diagonal and the lower triangle are
    masked to zero and each row is reduced against the column weights by
    a matrix-vector product; the row values are then added with
    ``math.fsum`` (exactly rounded, so independent of their order).
    """
    F = np.asarray(values, dtype=float)
    n = grid.n
    if n < 8:
        raise ValueError(f"integrate_triangle requires n >= 8, got {n}")
    if F.shape != (n, n):
        raise ValueError(f"expected values of shape {(n, n)}, got {F.shape}")
    return math.fsum(np.triu(F, 1) @ grid.triangle_weights)


def integrate_period(values: np.ndarray, period: float) -> float:
    """Integral of one full period from equispaced samples.

    ``values[k]`` is the sample at ``k * period / len(values)``.  For a
    periodic integrand the rule coincides with both the midpoint and the
    trapezoid rule and converges spectrally for smooth data.
    """
    g = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("expected a nonempty 1-D sample array")
    if not period > 0.0:
        raise ValueError(f"period must be positive, got {period}")
    return math.fsum(g) * (period / g.size)
