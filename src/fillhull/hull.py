"""Discrete model of the injective hull of the round circle.

A hull point is a 1-Lipschitz function ``f`` on the circle with
``f(x) + f(x + pi) = pi``.  We store samples of ``f`` on the half
period ``[0, pi)`` only; the antipodal identity supplies the other
half at read time, so the symmetry is structural rather than tested.

Distinguished subsets:

* the circle itself, given by distance functions ``boundary_point``,
* the embedded upper hemisphere, given by ``sphere_point``,
* the truncated hull (values clamped to ``[eps, pi - eps]``),
* functions with Lipschitz constant < 1 (``shrink_toward_center``),
  which serve as the practical certificate for strict interiority.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .quadrature import Grid

__all__ = [
    "HullFn",
    "SpherePoint",
    "ConvergenceError",
    "is_member",
    "boundary_point",
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
        v = self.values
        right = np.concatenate([v[1:], [PI - v[0]]])
        return 0.5 * (v + right)

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


def is_member(f: HullFn, tol: float = 1e-9) -> bool:
    """Check the two hull constraints: value range and 1-Lipschitz.

    The Lipschitz check includes the wrap step through the antipodal
    extension, ``|f(pi) - f(pi - step)| = |(pi - f(0)) - f(pi - step)|``.
    """
    v = f.values
    step = f.grid.step
    if v.min() < -tol or v.max() > PI + tol:
        return False
    if np.abs(np.diff(v)).max(initial=0.0) > step + tol:
        return False
    if abs((PI - v[-1]) - v[0]) > step + tol:
        return False
    return True


def boundary_point(tau: float, grid: Grid) -> HullFn:
    """The circle distance function ``alpha -> arccos(cos(alpha - tau))``."""
    return HullFn(grid, np.arccos(np.cos(grid.beta_nodes - tau)))


def sphere_point(p: SpherePoint, grid: Grid) -> HullFn:
    """The hemisphere point ``alpha -> arccos(cos d * cos(alpha - tau))``."""
    return HullFn(
        grid, np.arccos(np.cos(p.d) * np.cos(grid.beta_nodes - p.tau)))


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


def _sphere_values(taus: np.ndarray, ds: np.ndarray,
                   nodes: np.ndarray) -> np.ndarray:
    """Hemisphere samples for broadcastable (tau, d) arrays."""
    return np.arccos(np.cos(ds)[..., None]
                     * np.cos(nodes - np.asarray(taus)[..., None]))


def dist_to_hemisphere(f: HullFn,
                       tol_opt: float = 1e-6) -> tuple[float, SpherePoint]:
    """Nearest hemisphere point: coarse (tau, d) scan, then Nelder-Mead.

    The objective is piecewise smooth and multimodal in tau, so the
    coarse scan picks the basin and the simplex search refines it.
    """
    nodes = f.grid.beta_nodes
    fv = f.values

    taus = np.linspace(0.0, TWO_PI, 72, endpoint=False)
    ds = np.linspace(0.0, PI / 2, 25)
    tt, dd = np.meshgrid(taus, ds, indexing="ij")
    samples = _sphere_values(tt.ravel(), dd.ravel(), nodes)
    coarse = np.abs(samples - fv).max(axis=1)
    best = int(np.argmin(coarse))
    x0 = np.array([tt.ravel()[best], dd.ravel()[best]])

    def objective(x: np.ndarray) -> float:
        tau = x[0] % TWO_PI
        d = min(max(x[1], 0.0), PI / 2)
        g = np.arccos(np.cos(d) * np.cos(nodes - tau))
        return float(np.abs(g - fv).max())

    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"xatol": tol_opt, "fatol": tol_opt * 1e-2,
                            "maxiter": 800})
    tau = res.x[0] % TWO_PI
    d = min(max(res.x[1], 0.0), PI / 2)
    return float(res.fun), SpherePoint(tau, d)


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
    identity), then projected by alternating (a) antipodal
    symmetrization, (b) the 1-Lipschitz envelope average, (c) the
    clamp to ``[eps, pi - eps]`` until the iteration is stationary.
    """
    if not 0.0 < eps < PI / 2:
        raise ValueError(f"eps must lie in (0, pi/2), got {eps}")
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

    for _ in range(100):
        prev = w
        w = 0.5 * (w + PI - np.roll(w, -n))
        w = _lipschitz_envelope(w)
        w = 0.5 * (w + PI - np.roll(w, -n))
        w = np.clip(w, eps, PI - eps)
        if np.abs(w - prev).max() < 1e-10:
            out = HullFn(grid, w[:n])
            if not is_member(out):
                raise ConvergenceError("projection left the hull")
            return out
    raise ConvergenceError(
        "random hull projection did not stabilize in 100 rounds")
