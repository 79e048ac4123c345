import math

import numpy as np
import pytest

from fillhull.quadrature import (Grid, integrate_period, integrate_triangle,
                                 midnodes)

PI = math.pi


def test_grid_nodes_interleave():
    g = Grid(16)
    assert g.step == pytest.approx(PI / 16)
    assert np.all(np.diff(g.beta_nodes) > 0)
    # midpoints sit exactly half a step to the right of the edges
    assert np.allclose(g.alpha_nodes - g.beta_nodes, g.step / 2)


def test_grid_rejects_tiny_n():
    with pytest.raises(ValueError):
        Grid(1)


def test_triangle_rule_on_separable_kernel():
    # int_{0<a<b<pi} sin(b - a) da db = pi
    g = Grid(256)
    F = np.sin(g.beta_nodes[None, :] - g.alpha_nodes[:, None])
    assert integrate_triangle(F, g) == pytest.approx(PI, abs=1e-4)


def test_triangle_rule_second_order():
    def err(n):
        g = Grid(n)
        F = np.sin(g.beta_nodes[None, :] - g.alpha_nodes[:, None])
        return abs(integrate_triangle(F, g) - PI)

    # halving the step should cut the error by about 4
    assert err(256) < err(128) / 3.0


def test_triangle_rule_constant():
    g = Grid(128)
    F = np.ones((g.n, g.n))
    assert integrate_triangle(F, g) == pytest.approx(PI * PI / 2, rel=1e-3)


def test_triangle_rule_validates_input():
    g = Grid(16)
    with pytest.raises(ValueError):
        integrate_triangle(np.ones((8, 8)), g)
    with pytest.raises(ValueError):
        integrate_triangle(np.ones((4, 4)), Grid(4))


def test_triangle_rule_reads_only_the_strict_upper_triangle():
    g = Grid(64)
    F = np.cos(g.beta_nodes[None, :] + 2.0 * g.alpha_nodes[:, None])
    lower = np.tril_indices(g.n, k=0)
    zeros, nans = F.copy(), F.copy()
    zeros[lower] = 0.0
    nans[lower] = np.nan
    assert integrate_triangle(nans, g) == integrate_triangle(zeros, g)


def test_triangle_weights_are_the_rule():
    g = Grid(32)
    F = np.random.default_rng(1).normal(size=(g.n, g.n))
    U = np.triu(F, 1)
    assert integrate_triangle(F, g) == pytest.approx(
        float((U * g.triangle_weights).sum()), rel=1e-14)


def test_period_rule_is_spectral():
    t = np.arange(64) * (2 * PI / 64)
    val = integrate_period(np.cos(t) ** 2, 2 * PI)
    assert val == pytest.approx(PI, abs=1e-12)


def test_period_rule_rejects_bad_input():
    with pytest.raises(ValueError):
        integrate_period(np.array([]), 2 * PI)
    with pytest.raises(ValueError):
        integrate_period(np.ones(8), 0.0)


def test_period_rule_is_repeatable_and_exactly_summed():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=10_000) * 1e8
    a = integrate_period(vals, 2 * PI)
    b = integrate_period(vals, 2 * PI)
    assert a == b
    assert a == math.fsum(vals) * (2 * PI / vals.size)


@pytest.mark.parametrize("wrap", [lambda v0: PI - v0, lambda v0: v0,
                                  lambda v0: -v0],
                         ids=["hull", "periodic", "antiperiodic"])
def test_midnodes_is_the_wrapped_neighbour_average(wrap):
    rng = np.random.default_rng(3)
    for v in (rng.uniform(0.1, 3.0, size=64),
              rng.uniform(-2.0, 3.0, size=(5, 64))):
        last = wrap(v[..., 0])
        right = np.concatenate([v[..., 1:], last[..., None]], axis=-1)
        want = 0.5 * (v + right)
        got = midnodes(v, last)
        assert got.shape == v.shape
        assert np.array_equal(got, want)
