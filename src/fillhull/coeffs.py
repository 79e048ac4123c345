"""Coefficient functions of the two-form on the hull, and the only
home of their table on a grid.

For a triple ``(a, x, y)`` with ``a`` the angular gap and ``x, y`` the
two function values, put

    e(a, x, y) = 1 - (cos^2 x + cos^2 y - 2 cos a cos x cos y) / sin^2 a
               = sin^2 y - (cos x - cos a cos y)^2 / sin^2 a,
    q = e / sin^2 y,
    p = e / (sin^2 x sin^2 y).

Geometrically ``sqrt(e)`` is the height of the spherical point cut out
by the triple, so ``p >= 0`` with equality exactly on degenerate
triangles; roundoff can make ``e`` slightly negative there, which we
clamp away before dividing.  Entry by entry ``e`` takes the second form,
which does not cancel at small gaps; the expansion below the first.

On a grid the gap of the table entry ``(alpha_j, beta_k)`` is ``a =
(k - j - 1/2) * step``, rounded once, never ``beta_k - alpha_j``.  It
depends only on ``k - j``, so the per-grid tables are cached vectors
over its 2n - 1 values, read as n x n Toeplitz views: ``cos a`` and
``sin^2 a`` (``gap_vectors``), and ``S = 1 / sin^2 a`` and ``C = cos a
/ sin^2 a`` (``gap_kernels``).  ``p_grid`` is the dense table,
clamped at zero, on the strict upper triangle; it is a reference, which
only ``check`` and the tests read.

The weighted table is ``PW = p c``, ``c`` the column weights of the
triangle rule.  With ``x`` the function at the midpoint nodes, ``y`` at
the integer nodes and ``u = c b / sin^2 y`` for a row ``b``, the terms
of ``e`` give, on the strict upper triangle,

    (PW b)_j = (U_j - cos^2 x_j (S u)_j - (S cos^2 y u)_j
                + 2 cos x_j (C cos y u)_j) / sin^2 x_j,

``U_j`` the sum of ``u_k`` over ``k > j``, a reverse cumulative sum;
``b PW`` is the same with ``S^T`` and ``C^T``.  This expansion cannot
clamp ``e``; a negative ``e`` there is rounding (about -1e-11 at most).
``WeightedTable`` applies it to a stack of functions for Psi and its
gradient (``comass._Workspace.evaluate``, which takes ``PW b`` and ``b
PW`` in one call), the path action and the l1 norm, the far gaps by FFT
(``GapOperator``), and ``DenseTables`` to many functions for the
surface integral, every gap by matrix products with column blocks of
the nonzero triangle of ``S^T`` and ``C^T``, built once per grid
(``dense_tables``).  These two and ``q_band`` take their trig factors
from ``_half_angle_factors``; ``q_band`` and the near entries of
``WeightedTable`` take ``e`` from ``_e_kernel``.

The references share no arithmetic with those tables.  ``_e_values``
writes ``e`` out from its own cosines and sines, ``p_scalar`` reads it
at one triple and ``p_grid`` over the whole n x n table of gaps; none
of them calls ``_e_kernel``, the gap tables or ``_half_angle_factors``,
so a fault in one of those shows against them.  ``p_derivatives`` is
closed form.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .quadrature import Grid, band_rule
from .hull import HullFn, SpherePoint, dist_to_boundary

__all__ = [
    "p_scalar",
    "p_derivatives",
    "p_grid",
    "q_band",
    "p_l1_norm",
    "hemisphere_speed",
]

PI = math.pi


def _check_domain(*args: float) -> None:
    for v in args:
        if abs(math.remainder(v, PI)) < 1e-12:
            raise ValueError(f"argument {v} is within 1e-12 of a multiple of pi")


def _check_interior(f: HullFn) -> None:
    if dist_to_boundary(f) <= 0.0:
        raise ValueError("f touches the boundary circle; p is undefined")


def _e_kernel(ca, sa2, cx, cy, sy2, den=None):
    """e(a, x, y) from ``cos a``, ``sin^2 a``, ``cos x``, ``cos y`` and
    ``sin^2 y``, clamped at zero; divided by ``den`` when it is given
    (``sin^2 x sin^2 y`` for p, ``sin^2 y`` for q).  The form ``sin^2 y
    - (cos x - cos a cos y)^2 / sin^2 a``, in place: one array of the
    broadcast shape per call."""
    e = np.empty(np.broadcast_shapes(np.shape(ca), np.shape(cx),
                                     np.shape(cy), np.shape(sy2)))
    np.multiply(ca, cy, out=e)
    np.subtract(cx, e, out=e)
    e *= e
    e /= sa2
    np.subtract(sy2, e, out=e)
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


@lru_cache(maxsize=8)
def gap_kernels(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only kernels ``(S, C) = (1 / sin^2 a, cos a / sin^2 a)`` of
    the expansion at the gaps of ``gap_vectors``, cached per grid;
    ``GapOperator`` and ``DenseTables`` read them."""
    ca, sa2 = gap_vectors(grid)
    s = 1.0 / sa2
    kernels = (s, ca * s)
    for v in kernels:
        v.flags.writeable = False
    return kernels


def compact(a: np.ndarray, rows: list[int]) -> np.ndarray:
    """``a[rows]`` for sorted ``rows``, as a view of the front of ``a``:
    row ``rows[i]`` moves to ``i``, at or before it, in place."""
    for i, r in enumerate(rows):
        if r != i:
            a[i] = a[r]
    return a[:len(rows)]


def toeplitz(v: np.ndarray, n: int) -> np.ndarray:
    """The n x n view ``T[j, k] = v[k - j + n - 1]`` of a vector of
    length 2n - 1: no copy, and read-only."""
    return sliding_window_view(v, n)[::-1]


# near gaps a table forms entry by entry for values of Psi
NEAR_GAPS = 8


def gradient_near_gaps(n: int) -> int:
    """Near gaps for gradients of Psi: ``n // 10``, at least
    ``NEAR_GAPS``.

    Expanded over ``S`` and ``C``, a row of the table is a sum of terms
    of the size of ``1 / sin^2 a`` that cancel to O(1); with ``K`` near
    gaps taken entry by entry, the rounding left in a row product,
    relative to the product, grows like ``n / K``.  A value of Psi
    stays within 7.5e-15 of the dense sum with ``K = 8`` up to n =
    2048.  Its gradient is a cancellation of such row products and
    wants more.  Against a long-double table from the same double gaps
    and values, at n = 512 over the fields of seeds 512 to 519, its
    worst error relative to ``max |g|`` reads, with ``K = n // 10`` and
    with ``K = 8``: at the hemisphere point 9.6e-14 and 9.2e-13 (interior
    fields), 3.2e-14 and 2.9e-13 (fields at the cap); at a random point
    1.9e-14 and 1.7e-13, 1.8e-14 and 1.2e-13.
    """
    return max(NEAR_GAPS, n // 10)


class GapOperator:
    """``S`` and ``C`` (``gap_kernels``) on the far gaps ``K < k - j < n
    - K`` for ``K`` near gaps, applied to rows of n-vectors: ``(S x)_j =
    sum_m s_m x_{j+m}`` is a correlation with the kernel ``s_m`` and
    ``S^T x`` the matching convolution, each one batched real FFT of
    length 2n (no wrap-around: the kernel and the rows span fewer than
    2n entries) against a kernel spectrum cached per grid and ``K``."""

    def __init__(self, grid: Grid, near: int):
        n = grid.n
        K = min(near, n - 1)
        self.n = n
        # (S x)_j takes x_{j+m} at circular lag -m: kernel entry 2n - m;
        # gap m sits at index m + n - 1 of the kernels
        r = np.zeros((2, 2 * n))
        r[:, n + K + 1:2 * n - K] = np.stack(
            gap_kernels(grid))[:, n + K:2 * n - K - 1][:, ::-1]
        spectra = np.fft.rfft(r)
        self.spectra = (spectra, spectra.conj())

    def __call__(self, rows: np.ndarray, factors: tuple,
                 transpose: bool = False) -> np.ndarray:
        """``S`` (``S^T`` when ``transpose``) on ``rows * f`` for every
        factor ``f`` of ``factors`` but the last (``None`` for 1, else
        broadcast against ``rows``), ``C`` (``C^T``) on ``rows`` times the
        last, as a ``(len(factors),) + rows.shape`` array; ``rows`` is
        ``(..., n)``.  The transforms go row by row, so a row's result
        does not depend on the others."""
        n = self.n
        X = np.zeros((len(factors),) + rows.shape[:-1] + (2 * n,))
        for x, f in zip(X, factors):
            np.multiply(rows, 1.0 if f is None else f, out=x[..., :n])
        spec = np.fft.rfft(X)
        # the padded input goes before the inverse transform's output
        # comes, so that no more than two such arrays are held
        del X, x
        spectra = self.spectra[transpose]
        spec[:-1] *= spectra[0]
        spec[-1] *= spectra[1]
        return np.fft.irfft(spec, 2 * n)[..., :n]


# GapOperator(grid, near), cached like the gap vectors
gap_operator = lru_cache(maxsize=8)(GapOperator)


class WeightedTable:
    """The weighted tables ``PW = p_grid(f) * c`` of a stack of functions
    on one grid, as operators on rows of n-vectors, with no n x n array:
    per function O(n) vectors, a band of ``n x K`` entries and a ``K x
    K`` corner for ``K = near``, each stacked along a leading axis.  The
    band is held in blocks of ``R`` rows (``block_shape``), each with the
    ``R + K - 1`` columns its rows reach, so that its structural zeros
    are ``(R - 1) / (R + K - 1)`` of a block: 18% at n = 512.

    Where ``sin a`` is small, within ``K`` gaps of either end of the gap
    range (``a`` near 0 on the diagonal band, near pi in the top right
    corner), the entries are formed one by one by ``_e_kernel``, ``e``
    clamped at zero, on the factors of ``_half_angle_factors``.  The far
    gaps take the expansion of the module docstring through
    ``GapOperator``; its rounding falls as ``K`` grows
    (``gradient_near_gaps``).

    A product takes rows for every function of the stack.  The far gaps
    of all of them are one ``GapOperator`` call, and the band and the
    corner the same matrix products, function by function, that a stack
    of one takes; each function's blocks are read in place, not copied.
    So each function's result is the one a stack of that function alone
    gives, bit for bit.  A function leaves the stack by ``keep``."""

    @staticmethod
    def block_shape(n: int, near: int) -> tuple[int, int, int]:
        """Shape ``(nb, R, R + K - 1)`` of one function's near-gap
        blocks: ``R`` rows each and the columns their ``K`` near gaps
        reach."""
        K = min(near, n - 1)
        # rows per block: in default sweeps at n = 512 (K = 51), R = K //
        # 4 = 12 and 17 tied as the fastest, and 8 and 25 took 5% and
        # 9% longer (x86-64, one BLAS thread)
        R = max(NEAR_GAPS, K // 4)
        return -(-n // R), R, R + K - 1

    def __init__(self, fs: list[HullFn], near: int):
        for f in fs:
            _check_interior(f)
        grid = fs[0].grid
        n = grid.n
        nb, R, L = self.block_shape(n, near)
        K = L + 1 - R
        self.op = gap_operator(grid, K)
        cy, sy2, cx, sx2 = _half_angle_factors(
            np.array([f.values for f in fs]))
        c = grid.triangle_weights
        rsx2 = 1.0 / sx2
        self.cy, self.cy2, self.wy = cy, cy * cy, c / sy2
        self.cx2, self.cx2x, self.rsx2 = cx * cx, 2.0 * cx, rsx2
        # the far-gap products of the expansion, each with its row factor
        self.mix = np.stack([-cx * cx * rsx2, -rsx2, 2.0 * cx * rsx2])
        ca, sa2 = gap_vectors(grid)

        # blocks[f, i, r, c] = PW_f[iR + r, iR + 1 + c]: R rows and the
        # R + K - 1 columns their near gaps reach, so that a product
        # with the band is one batched matrix product.  Row r is nonzero
        # in columns r to r + K - 1 only: the band itself is the strided
        # view band[f, i, r, m - 1] = PW_f[iR + r, iR + r + m].  It is
        # built in chunks of about 4096 entries, every function at once,
        # so that the kernel's temporaries stay small; the rows past n
        # and the weights past the last column are 0, which drops those
        # entries.
        F = len(fs)
        self.blocks = np.zeros((F, nb, R, L))
        s0, s1, s2, s3 = self.blocks.strides
        band = as_strided(self.blocks, shape=(F, nb, R, K),
                          strides=(s0, s1, s2 + s3, s3))
        cxp, sx2p = (np.concatenate([v, np.full((F, nb * R - n), fill)],
                                    axis=1)
                     for v, fill in ((cx, 0.0), (sx2, 1.0)))
        # row j, column m - 1 of each window view is entry j + m
        pad = nb * R + K - n
        cyw, sy2w = (sliding_window_view(np.concatenate(
            [v[:, 1:], np.full((F, pad), fill)], axis=1), K, axis=1)
            for v, fill in ((cy, 0.0), (sy2, 1.0)))
        cw = sliding_window_view(np.concatenate([c[1:], [0.0] * pad]), K)
        p_first = np.zeros(F)
        per = max(1, 4096 // (F * R * K))
        for i in range(0, nb, per):
            j, stop = i * R, min(i + per, nb) * R
            e = _e_kernel(ca[n:n + K], sa2[n:n + K], cxp[:, j:stop, None],
                          cyw[:, j:stop], sy2w[:, j:stop],
                          sx2p[:, j:stop, None] * sy2w[:, j:stop])
            # the largest entry on the first gap, where the table is
            # largest (within 4e-5 of its maximum on the benchmark's
            # inputs)
            np.maximum(p_first, e[:, :n - 1 - j, 0].max(axis=1, initial=0.0),
                       out=p_first)
            e *= cw[j:stop]
            band[:, i:i + per] = e.reshape(F, -1, R, K)
        self.p_first = p_first.tolist()
        # corner[f, j, i] = PW_f[j, n - K + i] on the gaps from n - K up,
        # less the term 1 / sin^2 x_j * c_k / sin^2 y_k that the far-gap
        # sums U and W count there
        j, k = np.arange(K)[:, None], n - K + np.arange(K)
        mask = k - j >= max(K + 1, n - K)
        ca_k, sa2_k = (toeplitz(v, n)[:K, n - K:] for v in (ca, sa2))
        self.corner = _e_kernel(ca_k, sa2_k, cx[:, :K, None],
                                cy[:, None, n - K:], sy2[:, None, n - K:])
        self.corner -= 1.0
        self.corner *= mask * rsx2[:, :K, None] * self.wy[:, None, n - K:]

    def keep(self, rows: list[int]) -> None:
        """Keep the functions ``rows`` (sorted) of the stack, in that
        order; every stacked array is compacted in place."""
        for name in ("cy", "cy2", "wy", "cx2", "cx2x", "rsx2", "blocks",
                     "corner"):
            setattr(self, name, compact(getattr(self, name), rows))
        self.mix = compact(self.mix.swapaxes(0, 1), rows).swapaxes(0, 1)
        self.p_first = [self.p_first[r] for r in rows]

    def __call__(self, B: np.ndarray) -> np.ndarray:
        """``PW`` of function ``i`` applied to each row of ``B[i]``; ``B``
        is ``(functions, rows, n)``."""
        m, r, n = B.shape
        nb, R, L = self.blocks.shape[1:]
        K = L + 1 - R
        u = B * self.wy[:, None]
        Y = self.op(u, (None, self.cy2[:, None], self.cy[:, None]))
        # U_j = sum of u_k over k - j > K (the corner's share is taken
        # out with the corner below)
        U = np.zeros_like(u)
        np.cumsum(u[..., :K:-1], axis=-1, out=U[..., -K - 2::-1])
        U *= self.rsx2[:, None]
        U += np.einsum("kfrj,kfj->frj", Y, self.mix)
        # the band: window i of B[f] holds the R + K - 1 columns block i
        # reaches, from iR + 1
        padded = np.zeros((m, r, nb * R + K))
        padded[..., :n] = B
        t0, t1, t2 = padded.strides
        windows = np.ndarray((m, nb, L, r), buffer=padded, offset=t2,
                             strides=(t0, R * t2, t2, t1))
        band = np.empty((m, nb, R, r))
        for out, window, blocks in zip(band, windows, self.blocks):
            np.matmul(blocks, window, out=out)
        U += band.reshape(m, nb * R, r)[:, :n].transpose(0, 2, 1)
        U[..., :K] += B[..., n - K:] @ self.corner.transpose(0, 2, 1)
        return U

    def transposed(self, A: np.ndarray) -> np.ndarray:
        """Each row of ``A[i]`` applied to ``PW`` of function ``i`` from
        the left; ``A`` is ``(functions, rows, n)``."""
        m, r, n = A.shape
        nb, R, L = self.blocks.shape[1:]
        K = L + 1 - R
        w = A * self.rsx2[:, None]
        Y = self.op(w, (self.cx2[:, None], None, self.cx2x[:, None]),
                    transpose=True)
        # W_k = sum of w_j over k - j > K (the corner's share is taken
        # out with the corner below)
        W = np.zeros_like(w)
        np.cumsum(w[..., :-K - 1], axis=-1, out=W[..., K + 1:])
        W -= Y[0]
        W -= self.cy2[:, None] * Y[1]
        W += self.cy[:, None] * Y[2]
        W *= self.wy[:, None]
        # the band: block i sends R rows of A to R + K - 1 columns from
        # iR + 1, which blocks i + 1, i + 2, ... also reach; they are
        # added back R columns at a time, slice q of block i to columns
        # (i + q)R + 1 on
        a = np.zeros((m, nb * R, r))
        a[:, :n] = A.transpose(0, 2, 1)
        band = np.empty((m, nb, L, r))
        for out, a_f, blocks in zip(band, a.reshape(m, nb, R, r),
                                    self.blocks):
            np.matmul(blocks.transpose(0, 2, 1), a_f, out=out)
        slices = -(-L // R)
        cols = np.zeros((m, nb + slices - 1, R, r))
        for q in range(slices):
            part = band[:, :, q * R:(q + 1) * R]
            cols[:, q:q + nb, :part.shape[2]] += part
        W[..., 1:] += cols.reshape(m, -1, r)[:, :n - 1].transpose(0, 2, 1)
        W[..., n - K:] += A[..., :K] @ self.corner
        return W


# column blocks of each DenseTables kernel.  Timed on the integral of
# the 17 x 32 round cap at 1, 2, 3, 4, 6, 8, 12, 16, 24 and 32 blocks,
# in place, interleaved (x86-64, one BLAS thread): at n = 256, 8 and 16
# tied as the fastest, and 4 took 5% longer and 32 8 to 13%; at n =
# 512, 32 was 4 to 7% faster than 8, and 4 and 16 within 3% of it.  3,
# 6, 12 and 24 took 4 to 18% longer than 8 at both sizes
DENSE_BLOCKS = 8


class DenseTables:
    """The dense counterpart of ``WeightedTable`` for many functions:
    every gap through the expansion of the module docstring, on the
    strictly lower triangular ``S^T`` and ``C^T`` of a grid.

    Each kernel is kept as ``DENSE_BLOCKS`` column blocks of about equal
    width without the zero rows above them: block ``[j0, j1)`` holds the
    rows ``k > j0``, zero where ``k <= j``.  So a product multiplies
    about ``(1 + 1 / DENSE_BLOCKS) / 2`` of the full table, one matrix
    product per block, written straight into the block's columns of the
    output: a temporary copied there made a product of 128 rows at n =
    256 9% slower.  The rows run from ``k = n - 1`` down, so that a
    column adds its near gaps, where ``1 / sin^2 a`` is largest, last:
    on rows of caps at n = 256 and 512 the results then lie 3 to 6
    times closer to the entry-by-entry table than summed in increasing
    ``k``.  ``dense_tables`` caches the blocks per grid, read-only."""

    def __init__(self, grid: Grid):
        n = grid.n
        edges = np.linspace(0, n, DENSE_BLOCKS + 1).astype(int)
        # S^T[k, j] and C^T[k, j]; entry [r, c] of a block is [n - 1 -
        # r, j0 + c], below the diagonal when c < n - 1 - j0 - r
        kernels = [toeplitz(v, n).T for v in gap_kernels(grid)]
        self.blocks = []
        for j0, j1 in zip(edges[:-1], edges[1:]):
            if j1 > j0:
                pair = tuple(np.ascontiguousarray(
                    np.tril(t[j0 + 1:, j0:j1])[::-1]) for t in kernels)
                for b in pair:
                    b.flags.writeable = False
                self.blocks.append((j0, j1, pair))
        self.c = grid.triangle_weights

    def _product(self, X: np.ndarray, kernel: int) -> np.ndarray:
        """Each row of ``X`` times ``S^T`` (``kernel`` 0) or ``C^T``
        (1), as ``(rows, n)``; ``X`` is ``(..., n)`` with its last axis
        reversed, entry ``i`` for ``k = n - 1 - i``."""
        n = X.shape[-1]
        X = X.reshape(-1, n)
        out = np.empty_like(X)
        for j0, j1, pair in self.blocks:
            np.matmul(X[:, :n - 1 - j0], pair[kernel], out=out[:, j0:j1])
        return out

    def pairs(self, y: np.ndarray, *ab: tuple) -> list[np.ndarray]:
        """``a_i . PW_i b_i`` for each pair ``(a, b)`` of ``(rows, n)``
        arrays and each row ``i``, ``PW_i`` the weighted table of the
        function with values ``y[i]``; the row factor ``1 / sin^2 x``
        divides ``a``.  Every pair's ``v`` and ``cos^2 y v`` go through
        ``S^T`` as one stack, and every ``cos y v`` through ``C^T``."""
        cy, w, cx, sx2 = _half_angle_factors(y)
        # the operands and their factors in decreasing k
        np.divide(self.c, w, out=w)
        w, cy = w[:, ::-1], cy[:, ::-1]
        X = np.empty((3, len(ab)) + y.shape)
        v = X[0]
        for vb, (_, b) in zip(v, ab):
            np.multiply(b[:, ::-1], w, out=vb)
        np.multiply(cy * cy, v, out=X[1])
        np.multiply(cy, v, out=X[2])
        ys = self._product(X[:2], 0).reshape(X[:2].shape)
        yc = self._product(X[2], 1).reshape(v.shape)
        # U_j, the sum of v_k over k > j
        ev = np.empty_like(v)
        ev[..., -1] = 0.0
        np.cumsum(v[..., :-1], axis=-1, out=ev[..., -2::-1])
        ys[0] *= cx * cx
        cx *= 2.0
        yc *= cx
        ev -= ys[0]
        ev -= ys[1]
        ev += yc
        return [np.einsum("ij,ij->i", a / sx2, e)
                for (a, _), e in zip(ab, ev)]


def _half_angle_factors(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(cos y, sin^2 y, cos x, sin^2 x)`` along the last axis of ``y``,
    ``x`` its midpoint values ``(y_k + y_{k+1}) / 2`` with ``y_n = pi -
    y_0`` (``midnodes``), from one cosine and one sine of ``y / 2``:
    with ``c, s = cos(y / 2), sin(y / 2)``, ``cos y = (c - s)(c + s)``,
    ``sin^2 y = (2 s c)^2``, and at the midpoints the angle sums ``cos x
    = c_k c_{k+1} - s_k s_{k+1}`` and ``sin x = s_k c_{k+1} + c_k
    s_{k+1}``, where ``pi - y_0`` swaps the half-angle pair exactly.
    The midpoints are exact, not rounded sums, and for values in ``(0,
    pi)`` the sines add positive terms, so the squared sines keep their
    relative precision near 0 and pi."""
    c = 0.5 * y
    s = np.sin(c)
    np.cos(c, out=c)
    # the half-angle pair at k + 1
    c1 = np.concatenate([c[..., 1:], s[..., :1]], axis=-1)
    s1 = np.concatenate([s[..., 1:], c[..., :1]], axis=-1)
    cx = c * c1
    cx -= s * s1
    sx = s * c1
    sx += c * s1
    sx *= sx
    cy = c - s
    cy *= c + s
    s *= c
    s *= 2.0
    s *= s
    return cy, s, cx, sx


# DenseTables(grid), cached like the gap vectors
dense_tables = lru_cache(maxsize=8)(DenseTables)


def _e_values(a, x, y):
    """Squared height ``e(a, x, y) = sin^2 y - (cos x - cos a cos y)^2 /
    sin^2 a`` of the triple, clamped at zero, broadcast over its
    arguments."""
    sa, sy = np.sin(a), np.sin(y)
    d = np.cos(x) - np.cos(a) * np.cos(y)
    return np.maximum(sy * sy - d * d / (sa * sa), 0.0)


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


def p_grid(f: HullFn) -> np.ndarray:
    """Coefficient table of a hull function: ``p[j, k] = p(a, f(alpha_j),
    f(beta_k))`` at the gap ``a = (k - j - 1/2) * step`` (rounded once,
    in place of ``beta_k - alpha_j``), with ``e`` clamped at zero, for
    ``k > j``, and zero on and below the diagonal: a reference, which
    only ``check`` and the tests read.  It is the definition over the
    whole n x n table, ``_e_values`` over ``sin^2 x sin^2 y``, and shares
    no arithmetic with the production tables.

    ``f`` is read at the midpoint nodes by linear interpolation; the
    two node families are disjoint mod pi so the gap never degenerates.
    """
    _check_interior(f)
    k = np.arange(f.grid.n)
    a = (k[None, :] - k[:, None] - 0.5) * f.grid.step
    x = f.at_midnodes()[:, None]
    y = f.values[None, :]
    return np.triu(_e_values(a, x, y) / (np.sin(x) ** 2 * np.sin(y) ** 2), 1)


def q_band(f: HullFn) -> np.ndarray:
    """``q = e / sin^2 y`` on the band of ``quadrature.band_rule``: entry
    ``[k, m - 1]`` at the gap ``m * step`` between the integer nodes
    ``beta_k`` and ``beta_{k+m}``, with ``x = f(beta_k)`` and ``y =
    f(beta_{k+m})`` on the full circle, ``e`` clamped at zero.  Its
    factors are ``_half_angle_factors``' at the n samples, continued by
    ``cos(pi - y) = -cos y``."""
    _check_interior(f)
    idx, _ = band_rule(f.grid)
    cy, sy2 = _half_angle_factors(f.values)[:2]
    cy_band, sy2_band = np.concatenate([cy, -cy])[idx], sy2[idx % f.grid.n]
    return _e_kernel(*_gap_trig(np.arange(1, f.grid.n) * f.grid.step),
                     cy[:, None], cy_band, sy2_band, sy2_band)


def p_l1_norm(f: HullFn) -> float:
    """Triangle integral of the (nonnegative) coefficient table: the
    ``math.fsum`` of the row sums ``PW 1`` of ``WeightedTable``."""
    ones = np.ones((1, 1, f.grid.n))
    return math.fsum(WeightedTable([f], NEAR_GAPS)(ones)[0, 0])


def hemisphere_speed(p: SpherePoint, alpha) -> np.ndarray | float:
    """Speed ``sin d / (1 - cos^2 d cos^2(alpha - tau))`` of the
    tangent circle at a hemisphere point; integrates to 2*pi.  The
    denominator is taken as ``sin^2 d + cos^2 d sin^2(alpha - tau)``,
    whose terms are non-negative: ``1 - cos^2`` of a small ``d`` rounds
    to 0 at ``alpha = tau``."""
    if p.d <= 0.0:
        raise ValueError("speed is undefined on the boundary circle (d = 0)")
    s = math.cos(p.d) * np.sin(np.asarray(alpha, dtype=float) - p.tau)
    sd = math.sin(p.d)
    out = sd / (sd * sd + s * s)
    return out if isinstance(out, np.ndarray) else float(out)
