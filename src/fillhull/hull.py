"""Discrete model of the injective hull of the round circle.

A hull point is a 1-Lipschitz function ``f`` on the circle with
``f(x) + f(x + pi) = pi``.  We store samples of ``f`` on the half
period ``[0, pi)`` only; the antipodal identity supplies the other
half at read time, so the symmetry is structural rather than tested.

Distinguished subsets:

* the embedded upper hemisphere, given by ``sphere_point``, and the
  point on it nearest to ``f`` within a certified ``HEMISPHERE_GAP``;
  at ``d = 0`` it is the circle itself, as distance functions,
* the truncated hull (values clamped to ``[eps, pi - eps]``),
* functions with Lipschitz constant < 1 (``shrink_toward_center``),
  which serve as the practical certificate for strict interiority.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import Grid, midnodes

__all__ = [
    "HullFn",
    "SpherePoint",
    "ConvergenceError",
    "is_member",
    "sphere_point",
    "sup_dist",
    "dist_to_boundary",
    "dist_to_hemisphere",
    "truncate",
    "shrink_toward_center",
    "random_hull_point",
]

PI = math.pi
TWO_PI = 2.0 * math.pi


class ConvergenceError(RuntimeError):
    """An iterative construction failed to reach its fixed point."""


@dataclass(frozen=True)
class HullFn:
    """Samples ``values[k] = f(k * pi / n)`` of a hull function.

    The implied extension is ``f(alpha + pi) = pi - f(alpha)``.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    def extended(self) -> np.ndarray:
        """Samples on the full circle ``[0, 2*pi)``, length ``2n``."""
        return np.concatenate([self.values, PI - self.values])

    def at_midnodes(self) -> np.ndarray:
        """f at the midpoint nodes ``(k + 1/2) * pi / n``, by linear
        interpolation with the antipodal wrap ``f(pi) = pi - f(0)``."""
        return midnodes(self.values, PI - self.values[0])

    def value_at(self, alpha) -> np.ndarray:
        """Interpolated value(s) of f at arbitrary angles."""
        a = np.mod(np.asarray(alpha, dtype=float), TWO_PI)
        ext = np.concatenate([self.extended(), [self.values[0]]])
        pos = a / (PI / self.grid.n)
        return np.interp(pos, np.arange(2 * self.grid.n + 1), ext)

    def to_json(self) -> str:
        return json.dumps({"n": self.grid.n, "values": self.values.tolist()})

    @staticmethod
    def from_json(text: str) -> "HullFn":
        obj = json.loads(text)
        return HullFn(Grid(int(obj["n"])), np.asarray(obj["values"], float))


@dataclass(frozen=True)
class SpherePoint:
    """Polar coordinates of a hemisphere point.

    ``tau`` is the azimuth of the nearest circle point, ``d`` the
    distance to the boundary circle (``d = pi/2`` is the pole).
    """

    tau: float
    d: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau < TWO_PI):
            raise ValueError(f"tau must lie in [0, 2*pi), got {self.tau}")
        if not (0.0 <= self.d <= PI / 2):
            raise ValueError(f"d must lie in [0, pi/2], got {self.d}")


def is_member(f: HullFn) -> bool:
    """Check the two hull constraints, up to 1e-9: finite values in
    range and 1-Lipschitz.

    The Lipschitz check includes the wrap step through the antipodal
    extension, ``|f(pi) - f(pi - step)| = |(pi - f(0)) - f(pi - step)|``.
    """
    v, step, tol = f.values, f.grid.step, 1e-9
    if not np.isfinite(v).all() or v.min() < -tol or v.max() > PI + tol:
        return False
    if np.abs(np.diff(v)).max(initial=0.0) > step + tol:
        return False
    if abs((PI - v[-1]) - v[0]) > step + tol:
        return False
    return True


def sphere_point_values(d, tau, alpha) -> np.ndarray:
    """``arccos(cos d cos(alpha - tau))``, the hemisphere point at ``(tau,
    d)`` sampled at ``alpha`` (broadcast), in the half-chord form ``2
    arcsin sqrt(sin^2(d/2) + cos d sin^2((alpha - tau)/2))``: its terms
    are non-negative, so a small distance keeps its digits where the
    arccos of a cosine near 1 loses them."""
    s = np.sin(0.5 * (alpha - tau))
    s *= s
    v = np.cos(d) * s
    v += np.sin(0.5 * d) ** 2
    np.sqrt(v, out=v)
    np.minimum(v, 1.0, out=v)
    np.arcsin(v, out=v)
    v *= 2.0
    return v


def sphere_point(p: SpherePoint, grid: Grid) -> HullFn:
    """The hemisphere point ``alpha -> arccos(cos d * cos(alpha - tau))``
    (``sphere_point_values``)."""
    return HullFn(grid, sphere_point_values(p.d, p.tau, grid.beta_nodes))


def sup_dist(f: HullFn, g: HullFn) -> float:
    """Sup-norm distance; differences are antiperiodic so the stored
    half period already realizes the sup."""
    if f.grid.n != g.grid.n:
        raise ValueError("grid mismatch")
    return float(np.abs(f.values - g.values).max())


def dist_to_boundary(f: HullFn) -> float:
    """Distance to the circle inside the hull, which is ``min f`` over
    the full circle since ``sup |d_x - f| = f(x)``."""
    v = f.values
    return float(min(v.min(), (PI - v).min()))


# Certified optimality gap of ``dist_to_hemisphere``.
HEMISPHERE_GAP = 1e-9


def _basis(nodes: tuple[int, ...], step: float, offsets: np.ndarray
           ) -> tuple[float, float, float, float] | None:
    """Bound ``T`` and point ``(x, y, z^2)`` of three circle nodes, or
    None unless they positively span with all ``F_i + T <= pi``.  ``z^2 =
    |p - e_i|^2 - |X - e_i|^2`` at the nearest node keeps ``d`` accurate
    where ``1 - |X|^2`` cancels."""
    nodes = sorted(nodes)  # counterclockwise, so spanning means lam > 0
    a = [k * step for k in nodes]
    F = [float(offsets[k]) for k in nodes]
    lam = [math.sin(a[(i + 2) % 3] - a[(i + 1) % 3]) for i in range(3)]
    if min(lam) <= 0.0:
        return None
    T = math.atan2(sum(v * math.cos(x) for v, x in zip(lam, F)),
                   sum(v * math.sin(x) for v, x in zip(lam, F)))
    if max(F) + T > PI:
        return None
    k = lam.index(max(lam))  # the other two are the best conditioned pair
    i, j = (k + 1) % 3, (k + 2) % 3
    ci, cj, det = math.cos(F[i] + T), math.cos(F[j] + T), lam[k]
    x = (ci * math.sin(a[j]) - cj * math.sin(a[i])) / det
    y = (cj * math.cos(a[i]) - ci * math.cos(a[j])) / det
    k = F.index(min(F))
    return T, x, y, (4.0 * math.sin(0.5 * (F[k] + T)) ** 2
                     - (x - math.cos(a[k])) ** 2 - (y - math.sin(a[k])) ** 2)


def dist_to_hemisphere(f: HullFn) -> tuple[float, SpherePoint]:
    """Nearest hemisphere point, certified to within ``HEMISPHERE_GAP``.

    Over the ``2n`` circle nodes ``e_k``, offset by ``F_k`` (f, and ``pi -
    f`` at the antipodes), the sup distance of the point over ``X = cos d
    (cos tau, sin tau)`` is ``max_k arccos <X, e_k> - F_k``, at most ``T``
    on the half-planes ``<X, e_k> >= cos(F_k + T)``.  Three nodes that
    positively span fix its minimum, an LP-type problem (Matousek, Sharir
    and Welzl 1992); with ``lam`` the sines of their opposite gaps, ``sum
    lam_i e_i = 0``, so the root of ``sum lam_i cos(F_i + T)`` is a lower
    bound (Farkas).  The exchange swaps in the node most violated at the
    basis point, keeps the best triple that still spans, and stops when
    the distance there is within ``HEMISPHERE_GAP`` of the bound (or of
    0), else raises ``ConvergenceError``.  It starts at ``X = (2/n) sum
    cos f(beta_k) e_k``, exact on the hemisphere; ``tau = 0`` at the pole.
    """
    n, nodes, offsets = f.grid.n, f.grid.beta_nodes, f.extended()
    x, y = 2.0 / n * np.cos([nodes, nodes - PI / 2]) @ np.cos(f.values)
    T, basis, z2 = -math.inf, (), 1.0 - x * x - y * y
    while True:
        d = math.atan2(math.sqrt(max(z2, 0.0)), math.hypot(x, y))
        tau = 0.0 if d == PI / 2 else (math.atan2(y, x) + TWO_PI) % TWO_PI
        v = sphere_point_values(d, tau, nodes) - f.values
        v = np.concatenate([v, -v])
        m = int(np.argmax(v))
        if v[m] - max(T, 0.0) <= HEMISPHERE_GAP:
            return float(v[m]), SpherePoint(tau, d)
        triples = ([basis[:k] + basis[k + 1:] + (m,) for k in range(3)]
                   if basis else  # m and the nodes a third of a turn away
                   [tuple((m + 2 * n * k // 3) % (2 * n) for k in range(3))])
        found = [(sol, t) for t in triples
                 if (sol := _basis(t, f.grid.step, offsets)) and sol[0] > T]
        if not found:
            raise ConvergenceError("no exchange reaches HEMISPHERE_GAP")
        (T, x, y, z2), basis = max(found, key=lambda s: s[0][0])


def truncate(f: HullFn, eps: float) -> HullFn:
    """Clamp values to ``[eps, pi - eps]``; a 1-Lipschitz retraction."""
    if not 0.0 < eps < PI / 2:
        raise ValueError(f"eps must lie in (0, pi/2), got {eps}")
    return HullFn(f.grid, np.clip(f.values, eps, PI - eps))


def shrink_toward_center(f: HullFn, lam: float) -> HullFn:
    """Convex combination with the center ``pi/2``; the result has
    Lipschitz constant at most ``lam``."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    return HullFn(f.grid, (1.0 - lam) * (PI / 2) + lam * f.values)


def _lipschitz_envelope(w: np.ndarray) -> np.ndarray:
    """Average of the discrete McShane upper and lower 1-Lipschitz
    envelopes on the full circle, in linear time: the upper envelope
    ``min_j (w_j + d(i, j))`` is a forward and a backward min-plus sweep
    over three laps of the cycle, and the lower one is ``-upper(-w)``."""
    m = w.size
    x = np.arange(3 * m) * (TWO_PI / m)

    def upper(v: np.ndarray) -> np.ndarray:
        laps = np.tile(v, 3)
        fwd = np.minimum.accumulate(laps - x) + x
        bwd = np.minimum.accumulate((laps + x)[::-1])[::-1] - x
        return np.minimum(fwd, bwd)[m:2 * m]

    return 0.5 * (upper(w) - upper(-w))


def random_hull_point(seed: int, roughness: float, eps: float,
                      grid: Grid) -> HullFn:
    """Deterministic random member of the truncated hull.

    A random hemisphere point is perturbed by a truncated random
    Fourier series with only odd harmonics (which keeps the antipodal
    identity), then projected in one pass: (a) antipodal
    symmetrization, (b) the 1-Lipschitz envelope average, (a) again and
    (c) the clamp to ``[eps, pi - eps]``.  Each step keeps what the
    steps before it gave: (b) maps an antipodal input to an antipodal
    output (the upper envelope of ``pi - w(. + pi)`` is ``pi`` less the
    lower envelope of ``w``, moved by ``pi``), and an average or a clamp
    of 1-Lipschitz functions is 1-Lipschitz.  So the result is in the
    hull, and a second pass moves no value by more than rounding;
    ``is_member`` guards it.
    """
    if not 0.0 < eps < PI / 2:
        raise ValueError(f"eps must lie in (0, pi/2), got {eps}")
    if not math.isfinite(roughness):
        raise ValueError(f"roughness must be finite, got {roughness}")
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.0, TWO_PI)
    d = rng.uniform(min(eps + 0.05, PI / 2), PI / 2)
    base = sphere_point(SpherePoint(tau, d), grid)
    if roughness == 0.0:
        return truncate(base, eps)

    n = grid.n
    alphas = np.arange(2 * n) * (PI / n)
    w = np.concatenate([base.values, PI - base.values])
    for k in (1, 3, 5, 7, 9):
        amp = roughness / k
        w = w + amp * (rng.normal() * np.cos(k * alphas)
                       + rng.normal() * np.sin(k * alphas))

    w = 0.5 * (w + PI - np.roll(w, -n))
    w = _lipschitz_envelope(w)
    w = 0.5 * (w + PI - np.roll(w, -n))
    out = HullFn(grid, np.clip(w[:n], eps, PI - eps))
    if not is_member(out):
        raise ConvergenceError("projection left the hull")
    return out
