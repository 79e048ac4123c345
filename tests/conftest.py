"""Collects the one-line acceptance reports and echoes them in the
terminal summary, so they are visible without disabling capture;
provides the subprocess environments of the BLAS thread-count tests,
the random norms of the volume tests, and the circle points and zero
angle fields that several test modules build."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import fillhull
from fillhull.hull import HullFn, sphere_point_values
from fillhull.norms import Norm2D
from fillhull.pathspace import AngleField
from fillhull.quadrature import Grid

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance report")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def blas_thread_envs():
    """Two environments for a subprocess that imports this fillhull:
    one OpenBLAS thread, and the thread variables unset."""
    src = str(Path(fillhull.__file__).parents[1])
    base = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "GOTO_NUM_THREADS"):
        base.pop(var, None)
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, base.get("PYTHONPATH")) if p)
    return dict(base, OPENBLAS_NUM_THREADS="1"), base


def random_norm(seed: int, m: int = 256) -> Norm2D:
    """Random polytope-with-disk norm: the maximum of a few random
    linear functionals and a scaled Euclidean norm (always convex)."""
    rng = np.random.default_rng(seed)
    k = rng.integers(2, 6)
    angles = rng.uniform(0.0, math.pi, size=k)
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


def boundary_point(tau: float, grid: Grid) -> HullFn:
    """The circle distance function ``alpha -> arccos(cos(alpha - tau))``,
    the hemisphere point at ``d = 0``."""
    return HullFn(grid, sphere_point_values(0.0, tau, grid.beta_nodes))


def zero_field(grid: Grid) -> AngleField:
    """The angle field ``eta = 0``, the maximizer at ``f = h``."""
    return AngleField(grid, np.zeros(grid.n))
