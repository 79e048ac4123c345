import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from fillhull import volumes
from fillhull.coeffs import p_grid
from fillhull.hull import HullFn, SpherePoint, boundary_point, sphere_point
from fillhull.norms import _hull_polygons, jacobians
from fillhull.volumes import (DegenerateNormError, JACOBIAN_DEFINITIONS,
                              Norm2D, SurfaceChart)
from fillhull.quadrature import Grid, integrate_triangle

PI = math.pi


def ellipse_area(norm, q, phi, n_t):
    """Area of the largest inscribed ellipse with aspect ``q`` and tilt
    ``phi``: scale the shape until it touches the unit sphere."""
    t = np.arange(n_t) * (PI / n_t)     # ellipse symmetric: half period
    ct, st = np.cos(t), np.sin(t)
    q = np.asarray(q, float)[..., None]
    phi = np.asarray(phi, float)[..., None]
    x = np.cos(phi) * ct - np.sin(phi) * (q * st)
    y = np.sin(phi) * ct + np.cos(phi) * (q * st)
    peak = norm.norm_of(x, y).max(axis=-1)
    return PI * q[..., 0] / (peak * peak)


def dense_john_area(norm, n_q=120, n_phi=180, n_t=720):
    """Brute-force reference for the inscribed ellipse area: dense scan
    over aspect and tilt with the scale eliminated analytically, then
    one zoomed rescan around the winner."""

    def scan(qs, phis):
        best = (-1.0, None, None)
        for q in qs:
            areas = ellipse_area(norm, np.full_like(phis, q), phis, n_t)
            j = int(np.argmax(areas))
            if areas[j] > best[0]:
                best = (float(areas[j]), float(q), float(phis[j]))
        return best

    qs = np.linspace(0.05, 1.0, n_q)
    phis = np.linspace(0.0, PI, n_phi, endpoint=False)
    area, q, phi = scan(qs, phis)
    dq = qs[1] - qs[0]
    dphi = phis[1] - phis[0]
    area2, _, _ = scan(np.linspace(max(q - dq, 0.02), min(q + dq, 1.0), 41),
                       np.linspace(phi - dphi, phi + dphi, 41))
    return max(area, area2)


def hull_facets(norm):
    """Facet normals ``c`` of the convex hull of the sampled boundary
    points, from Qhull, scaled so that the hull is ``{x : c . x <= 1}``;
    also the hull vertices."""
    th = np.concatenate([norm.theta_nodes, norm.theta_nodes + PI])
    r = 1.0 / np.concatenate([norm.unit_norms, norm.unit_norms])
    hull = ConvexHull(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    eq = hull.equations
    return eq[:, :2] / -eq[:, 2:], hull.points[hull.vertices]


def polygon_john_area(norm, rounds=8):
    """Brute-force inscribed-ellipse area of the hull polygon.

    Works in the frame where the hull vertices have unit second moments
    (the John ellipse is affine covariant).  An ellipse of tilt ``phi``
    and aspect ``q``, scaled to touch the polygon, has area
    ``pi / max_i (u_i^2 / q + q v_i^2)`` with ``(u_i, v_i)`` the facet
    normals in its axes; the maximum is convex in ``log q``, so every
    tilt of a dense scan gets its best aspect by golden section, and the
    scan zooms in on the best tilt."""
    c, verts = hull_facets(norm)
    w, vec = np.linalg.eigh(verts.T @ verts / len(verts))
    c = c @ vec * np.sqrt(w)        # facets after x -> S^(-1/2) x
    ph = np.linspace(0.0, PI, 720, endpoint=False)
    for _ in range(rounds):
        u = np.outer(c[:, 0], np.cos(ph)) + np.outer(c[:, 1], np.sin(ph))
        v = np.outer(c[:, 1], np.cos(ph)) - np.outer(c[:, 0], np.sin(ph))

        def cost(lq):
            q = 10.0 ** lq
            return (u * u / q + q * v * v).max(axis=0)

        lo, hi = np.full(len(ph), -4.0), np.zeros(len(ph))
        for _ in range(100):
            m1, m2 = lo + 0.382 * (hi - lo), hi - 0.382 * (hi - lo)
            left = cost(m1) < cost(m2)
            lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
        area = PI / cost(0.5 * (lo + hi))
        j = int(np.argmax(area))
        ph = np.linspace(ph[j] - (ph[1] - ph[0]), ph[j] + (ph[1] - ph[0]), 41)
    return float(area.max()) * math.sqrt(w[0] * w[1])


def ellipse_matrix(a, b, phi):
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    return rot @ np.diag([a * a, b * b]) @ rot.T


def test_norm2d_triangle_inequality_spot_check():
    rng = np.random.default_rng(0)
    for seed in range(5):
        # direction resolution controls the interpolation error of the
        # sampled norm, so the spot check needs a fine grid
        nm = Norm2D.random(seed, m=1024)
        for _ in range(20):
            u = rng.normal(size=2)
            v = rng.normal(size=2)
            lhs = float(nm.norm_of(u[0] + v[0], u[1] + v[1]))
            rhs = float(nm.norm_of(u[0], u[1]) + nm.norm_of(v[0], v[1]))
            assert lhs <= rhs * (1 + 1e-6)


def test_norm2d_rejects_degenerate():
    nm = Norm2D(4, np.array([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(DegenerateNormError):
        nm.check_nondegenerate()
    with pytest.raises(DegenerateNormError):
        volumes.jacobian(nm, "mass_star")


def test_dual_norm_swaps_l1_and_linf():
    d = Norm2D.l1().dual()
    want = Norm2D.linf()
    assert np.allclose(d.unit_norms, want.unit_norms, atol=1e-3)
    dd = Norm2D.l1().dual().dual()
    assert np.allclose(dd.unit_norms, Norm2D.l1().unit_norms, atol=1e-3)


def test_ball_area_closed_forms():
    assert Norm2D.euclidean().ball_area() == pytest.approx(PI, rel=1e-6)
    assert Norm2D.l1().ball_area() == pytest.approx(2.0, rel=1e-4)
    assert Norm2D.linf().ball_area() == pytest.approx(4.0, rel=1e-4)


def test_john_ellipse_of_round_and_square_balls_is_the_unit_disk():
    for nm in (Norm2D.euclidean(), Norm2D.linf()):
        a, b, _, area = volumes.john_ellipse(nm)
        assert a == pytest.approx(1.0, abs=1e-3)
        assert b == pytest.approx(1.0, abs=1e-3)
        assert area == pytest.approx(PI, abs=2e-3)


def test_john_ellipse_of_the_diamond():
    a, b, _, area = volumes.john_ellipse(Norm2D.l1())
    assert a == pytest.approx(1 / math.sqrt(2), abs=1e-3)
    assert b == pytest.approx(1 / math.sqrt(2), abs=1e-3)
    assert area == pytest.approx(PI / 2, abs=1e-3)


def test_john_ellipse_matches_dense_scan_on_random_norms():
    # seed 73 has its maximizing tilt in the second quadrant, which a
    # half-range tilt scan would miss entirely
    for seed in (0, 7, 73):
        nm = Norm2D.random(seed)
        area = volumes.john_ellipse(nm)[3]
        assert area == pytest.approx(dense_john_area(nm), abs=1e-3)


def test_john_ellipse_stays_inside_the_ball():
    for seed in (1, 4, 73):
        nm = Norm2D.random(seed)
        a, b, phi, _ = volumes.john_ellipse(nm)
        t = np.linspace(0, 2 * PI, 1000, endpoint=False)
        x = math.cos(phi) * a * np.cos(t) - math.sin(phi) * b * np.sin(t)
        y = math.sin(phi) * a * np.cos(t) + math.cos(phi) * b * np.sin(t)
        assert float(nm.norm_of(x, y).max()) <= 1.0 + 1e-8


def test_john_ellipse_of_the_regular_hexagon():
    # unit circumradius, vertices on sampled directions: the inscribed
    # circle of radius sqrt(3)/2 has area 3 pi / 4
    normals = [(math.cos(t), math.sin(t)) for t in PI / 6 + np.arange(3)
               * PI / 3]
    nm = Norm2D.from_callable(
        lambda x, y: np.max([np.abs(cx * x + cy * y) for cx, cy in normals],
                            axis=0) / math.cos(PI / 6), m=96)
    a, b, _, area = volumes.john_ellipse(nm)
    assert a == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
    assert b == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
    assert area == pytest.approx(3 * PI / 4, rel=1e-12)


def test_john_ellipse_of_an_affine_square_is_the_image_of_the_disk():
    # T maps the corners (1, +-1) of the l-infinity ball to sampled
    # directions, so the sampled ball is exactly T [-1, 1]^2 and its
    # John ellipse is T (unit disk), with axes the singular values of T
    m = 180
    v1 = 3.0 * np.array([math.cos(20 * PI / m), math.sin(20 * PI / m)])
    v2 = 0.05 * np.array([math.cos(110 * PI / m), math.sin(110 * PI / m)])
    T = np.column_stack([v1, v2]) @ np.array([[0.5, 0.5], [0.5, -0.5]])
    Tinv = np.linalg.inv(T)
    nm = Norm2D.from_callable(
        lambda x, y: np.maximum(np.abs(Tinv[0, 0] * x + Tinv[0, 1] * y),
                                np.abs(Tinv[1, 0] * x + Tinv[1, 1] * y)), m)
    a, b, phi, area = volumes.john_ellipse(nm)
    sv = np.linalg.svd(T, compute_uv=False)
    assert b / a < 0.05
    assert area == pytest.approx(PI * abs(np.linalg.det(T)), rel=1e-9)
    assert (a, b) == pytest.approx(tuple(sv), rel=1e-9)
    assert np.allclose(ellipse_matrix(a, b, phi), T @ T.T, rtol=0,
                       atol=1e-9 * a * a)


def test_john_ellipse_lies_inside_every_hull_facet_and_touches():
    chart = volumes.cone_chart(24, 24, Grid(128))
    norms = [Norm2D.random(seed) for seed in range(8)]
    norms += [volumes.metric_derivative(chart, node)[0]
              for node in [(1, 0), (5, 7), (23, 3)]]
    for nm in norms:
        A = ellipse_matrix(*volumes.john_ellipse(nm)[:3])
        c, _ = hull_facets(nm)
        load = np.einsum("ij,jk,ik->i", c, A, c)
        assert load.max() <= 1.0 + 1e-12
        assert load.max() >= 1.0 - 1e-9


def test_john_ellipse_is_bit_identical_on_repeated_calls():
    for seed in (2, 73):
        first = volumes.john_ellipse(Norm2D.random(seed))
        nm = Norm2D.random(seed)
        assert volumes.john_ellipse(nm) == first
        assert volumes.john_ellipse(nm) == first


def test_john_ellipse_near_the_cone_apex_matches_a_dense_scan():
    # next to the apex the metric derivative ball is a thin rhombus,
    # thinner than the aspect range of a linear scan from 0.05
    chart = volumes.cone_chart(48, 48, Grid(256))
    for node in [(1, 5), (2, 30)]:
        nm, _ = volumes.metric_derivative(chart, node)
        a, b, _, area = volumes.john_ellipse(nm)
        assert b / a < 0.05
        assert area == pytest.approx(polygon_john_area(nm), rel=1e-9)


def test_jacobians_of_euclidean_norm_are_one():
    eu = Norm2D.euclidean()
    for d in JACOBIAN_DEFINITIONS:
        assert volumes.jacobian(eu, d) == pytest.approx(1.0, abs=2e-3)


def test_jacobians_of_the_diamond():
    nm = Norm2D.l1()
    want = {"mass": 1.0, "mass_star": 2.0, "busemann_hausdorff": PI / 2,
            "holmes_thompson": 4 / PI, "inner_riemannian": 2.0}
    for d, w in want.items():
        assert volumes.jacobian(nm, d) == pytest.approx(w, rel=2e-3)


def test_jacobians_scale_quadratically():
    for d in JACOBIAN_DEFINITIONS:
        j1 = volumes.jacobian(Norm2D.euclidean(scale=1.0), d)
        j2 = volumes.jacobian(Norm2D.euclidean(scale=1.7), d)
        assert j2 == pytest.approx(1.7 ** 2 * j1, rel=1e-3)


def test_jacobians_are_monotone_under_norm_domination():
    # max(N1, N2) dominates both, so its ball is contained in both
    # balls and every volume density can only grow
    for s1, s2 in [(0, 1), (2, 3), (4, 6)]:
        n1, n2 = Norm2D.random(s1), Norm2D.random(s2)
        top = Norm2D(n1.m, np.maximum(n1.unit_norms, n2.unit_norms))
        for d in JACOBIAN_DEFINITIONS:
            jt = volumes.jacobian(top, d)
            assert jt >= volumes.jacobian(n1, d) - 1e-6
            assert jt >= volumes.jacobian(n2, d) - 1e-6


def test_mass_star_between_one_and_two_times_mass():
    for seed in range(10):
        nm = Norm2D.random(seed)
        m = volumes.jacobian(nm, "mass")
        ms = volumes.jacobian(nm, "mass_star")
        assert m - 1e-9 <= ms <= 2 * m + 1e-9


def test_mass_star_of_the_diamond_and_the_square_is_exact():
    # the sampled l1 and l-infinity balls contain their corners, so the
    # facet normals are exactly the vertices of the dual ball
    assert volumes.jacobian(Norm2D.l1(), "mass_star") == pytest.approx(
        2.0, rel=1e-12)
    assert volumes.jacobian(Norm2D.linf(), "mass_star") == pytest.approx(
        1.0, rel=1e-12)


def wedge_max(p):
    return float(np.abs(np.outer(p[:, 0], p[:, 1])
                        - np.outer(p[:, 1], p[:, 0])).max())


def test_every_definition_measures_the_qhull_polygon_of_cone_samples():
    # the Richardson-extrapolated samples of the cone's metric derivative
    # are not convex, so the hull polygon differs from the samples
    chart = volumes.cone_chart(24, 24, Grid(128))
    rng = np.random.default_rng(5)
    for node in [(5, 7), (12, 3), (20, 11)]:
        nm, _ = volumes.metric_derivative(chart, node)
        c, verts = hull_facets(nm)
        th = nm.theta_nodes
        gauge = (c @ np.vstack([np.cos(th), np.sin(th)])).max(axis=0)
        assert (nm.unit_norms - gauge).max() > 1e-3 * nm.unit_norms.max()
        v = rng.normal(size=(2, 200))
        assert np.allclose(nm.norm_of(v[0], v[1]), (c @ v).max(axis=0),
                           rtol=1e-12, atol=0)
        assert volumes.jacobian(nm, "mass") == pytest.approx(
            1.0 / wedge_max(verts), rel=1e-12)
        assert volumes.jacobian(nm, "mass_star") == pytest.approx(
            wedge_max(c), rel=1e-12)
        polar_area = float((1.0 / gauge ** 2).sum() * PI / nm.m)
        assert volumes.jacobian(nm, "busemann_hausdorff") == pytest.approx(
            PI / polar_area, rel=1e-12)


def test_cone_mass_table_at_the_benchmark_size():
    chart = volumes.cone_chart(24, 24, Grid(256))
    table = volumes.finsler_mass_table(chart)
    want = {"mass": PI ** 2 / 2, "holmes_thompson": 2 * PI,
            "busemann_hausdorff": PI ** 3 / 4, "mass_star": PI ** 2,
            "inner_riemannian": PI ** 2}
    for d, w in want.items():
        assert table[d] == pytest.approx(w, rel=0.011)


def test_jacobian_rejects_unknown_definition():
    with pytest.raises(ValueError):
        volumes.jacobian(Norm2D.euclidean(), "hausdorff")


def test_surface_chart_validates_value_shape():
    grid = Grid(64)
    with pytest.raises(ValueError):
        SurfaceChart("bad", grid, np.linspace(0, 1, 4),
                     np.linspace(0, 1, 5), np.zeros((4, 5, grid.n + 1)))


def test_surface_chart_rejects_a_one_node_or_non_increasing_axis():
    grid = Grid(16)
    for axis0, axis1 in (([0.5], np.linspace(0, 1, 5)),
                         (np.linspace(0, 1, 4), [1.0]),
                         (np.full(4, 0.5), np.linspace(0, 1, 5)),
                         (np.linspace(0, 1, 4), np.linspace(1, 0, 5))):
        with pytest.raises(ValueError, match="at least two nodes and a "
                           "positive step"):
            SurfaceChart("bad", grid, axis0, axis1,
                         np.ones((len(axis0), len(axis1), grid.n)))
    # a one-node radial axis has no step
    with pytest.raises(ValueError, match="axis 0"):
        volumes.cone_chart(1, 8, Grid(64))


def test_cone_metric_derivative_closed_form():
    chart = volumes.cone_chart(33, 33, Grid(128))
    i = 16
    r = chart.axis0[i]
    nm, flagged = volumes.metric_derivative(chart, (i, 5))
    assert not flagged
    th = nm.theta_nodes
    want = (PI / 2) * np.abs(np.cos(th)) + r * np.abs(np.sin(th))
    assert np.abs(nm.unit_norms - want).max() <= 0.05 * want.max()


def test_metric_derivative_flags_boundary_nodes():
    chart = volumes.cone_chart(17, 16, Grid(64))
    _, flagged = volumes.metric_derivative(chart, (0, 3))
    assert flagged
    _, interior = volumes.metric_derivative(chart, (8, 3))
    assert not interior


def test_metric_derivative_degenerates_at_the_cone_tip():
    # at r = 0 the chart is constant along alpha, so the metric
    # derivative is a seminorm and the Jacobians treat it as zero area
    chart = volumes.cone_chart(17, 16, Grid(64))
    nm, _ = volumes.metric_derivative(chart, (0, 0))
    assert nm.unit_norms.min() < 1e-6
    with pytest.raises(DegenerateNormError):
        volumes.jacobian(nm, "mass")


def reference_metric_derivative(chart, node, m=64):
    """The metric derivative one node at a time: every offset through
    its own small differences, then the node resampled on its own."""
    i0, j0 = node
    h0 = chart.axis0[1] - chart.axis0[0]
    h1 = chart.axis1[1] - chart.axis1[0]
    n0, n1 = len(chart.axis0), len(chart.axis1)
    V = chart.values
    center = V[i0, j0]

    def in_range(a):
        return 0 <= i0 + a < n0

    def at(a, b):
        return V[i0 + a, (j0 + b) % n1]

    def diff(a, b):
        length = math.hypot(a * h0, b * h1)

        def central(k):
            return float(np.abs(at(k * a, k * b)
                                - at(-k * a, -k * b)).max()) / (2 * k * length)

        def one_sided(k, s):
            return float(np.abs(at(s * k * a, s * k * b)
                                - center).max()) / (k * length)

        if in_range(2 * a) and in_range(-2 * a):
            return 2.0 * central(1) - central(2), False
        for s in (1, -1):
            if in_range(2 * s * a):
                return 2.0 * one_sided(1, s) - one_sided(2, s), True
        if in_range(a) and in_range(-a):
            return central(1), True
        for s in (1, -1):
            if in_range(s * a):
                return one_sided(1, s), True
        return None

    thetas, norms = [], []
    boundary = False
    for a in range(-4, 5):
        for b in range(5):
            if (b == 0 and a <= 0) or math.gcd(abs(a), b) != 1:
                continue
            got = diff(a, b)
            if got is None:
                continue
            val, flagged = got
            boundary = boundary or flagged
            thetas.append(math.atan2(b * h1, a * h0) % PI)
            norms.append(val)
    thetas = np.asarray(thetas)
    norms = np.asarray(norms)
    order = np.argsort(thetas)
    thetas, norms = thetas[order], norms[order]
    target = np.arange(m) * (PI / m)

    if norms.min() < 1e-12:
        ext_t = np.concatenate([thetas, thetas + PI, [thetas[0] + 2 * PI]])
        ext_n = np.concatenate([norms, norms, [norms[0]]])
        return Norm2D(m, np.interp(target, ext_t, ext_n)), boundary, \
            len(thetas)

    full_t = np.concatenate([thetas, thetas + PI])
    pts = np.column_stack([np.cos(full_t), np.sin(full_t)]) \
        / np.concatenate([norms, norms])[:, None]
    k = np.searchsorted(full_t, target, side="right") - 1
    p = pts[k]
    q = pts[(k + 1) % len(pts)]
    u = np.column_stack([np.cos(target), np.sin(target)])
    num = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    den = u[:, 0] * (q[:, 1] - p[:, 1]) - u[:, 1] * (q[:, 0] - p[:, 0])
    rho = num / np.where(np.abs(den) > 1e-15, den, 1e-15)
    return Norm2D(m, 1.0 / np.maximum(rho, 1e-15)), boundary, len(thetas)


def synthetic_chart(n0, n1, seed):
    grid = Grid(16)
    values = np.random.default_rng(seed).normal(size=(n0, n1, grid.n))
    return SurfaceChart("synthetic", grid, np.linspace(0.0, 1.0, n0),
                        np.linspace(0.0, 2.0, n1), values)


def test_row_metric_derivative_is_bit_identical_to_the_node_reference():
    cap = volumes.cap_chart(0.3, 17, 32, Grid(64))
    charts = [volumes.cone_chart(n, n, Grid(128))
              for n in (3, 4, 5, 7, 16, 24)]
    charts += [cap, volumes.perturbed_cap_chart(cap, bump_seed=4)]
    charts += [synthetic_chart(n0, n1, seed)
               for seed, (n0, n1) in enumerate([(5, 6), (3, 4)])]
    used = set()
    for chart in charts:
        for i in range(len(chart.axis0)):
            norms, flagged = volumes._row_metric_derivative(chart, i)
            for j in range(len(chart.axis1)):
                want, want_flagged, count = reference_metric_derivative(
                    chart, (i, j))
                used.add(count)
                assert np.array_equal(norms[j], want.unit_norms)
                assert flagged is want_flagged
        got, got_flagged = volumes.metric_derivative(chart, (i, 1))
        assert np.array_equal(got.unit_norms, norms[1])
        assert got_flagged is flagged
    # nodes that drop offsets with no neighbour on either side are covered
    assert {14, 20, 24} <= used and min(used) < 14


def test_finsler_mass_table_equals_the_node_reference_sum():
    chart = volumes.cone_chart(24, 24, Grid(128))
    w0, w1 = volumes._axis_weights(chart)
    want = dict.fromkeys(JACOBIAN_DEFINITIONS, 0.0)
    for i in range(len(chart.axis0)):
        for j in range(len(chart.axis1)):
            norm = reference_metric_derivative(chart, (i, j))[0]
            for d in JACOBIAN_DEFINITIONS:
                try:
                    J = volumes.jacobian(norm, d)
                except DegenerateNormError:
                    J = 0.0
                want[d] += w0[i] * w1[j] * J
    assert volumes.finsler_mass_table(chart) == want


def reference_hull(norm):
    """Hull vertices of one half-turn and facet normals of one node: the
    turn-left loop on the node's own points."""
    th = norm.theta_nodes
    half = np.column_stack([np.cos(th), np.sin(th)]) \
        / norm.unit_norms[:, None]
    pts = np.concatenate([half, -half])
    tol = 1e-14 * float((pts * pts).sum(axis=1).max())
    while True:
        e = np.diff(np.concatenate([pts[-1:], pts, pts[:1]]), axis=0)
        keep = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0] > tol
        if keep.all():
            break
        pts = pts[keep]
    p = pts[:len(pts) // 2]
    q = np.concatenate([p[1:], -p[:1]])
    det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    return p, np.column_stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]]) \
        / det[:, None]


def reference_kkt_matrix(g):
    if len(g) == 2:
        return np.linalg.inv(g.T @ g)
    rows = np.column_stack([g[:, 0] ** 2, 2.0 * g[:, 0] * g[:, 1],
                            g[:, 1] ** 2])
    a11, a12, a22 = np.linalg.solve(rows, np.ones(3))
    return np.array([[a11, a12], [a12, a22]])


def reference_max_det_on(g):
    best = -math.inf
    for k in (2, 3):
        for active in itertools.combinations(range(len(g)), k):
            A = reference_kkt_matrix(g[list(active)])
            det = float(np.linalg.det(A))
            if A[0, 0] > 0.0 and det > 0.0:
                peak = float(np.einsum("ij,jk,ik->i", g, A, g).max())
                if det / (peak * peak) > best:
                    best, pick = det / (peak * peak), (list(active), A)
    return pick


def reference_john_area(c):
    """John-ellipse area of one node's hull polygon by the active set
    on its own, and the sizes of the trial sets it solved over."""
    i = int(np.argmax((c * c).sum(axis=1)))
    basis = [i, int(np.argmax(np.abs(c[i, 0] * c[:, 1]
                                     - c[i, 1] * c[:, 0])))]
    L = np.linalg.inv(c[basis])
    g = c @ L
    sizes = []
    while True:
        load = (g * g).sum(axis=1)
        k = int(np.argmax(load))
        if load[k] <= 1.0 + 1e-12 or k in basis:
            break
        trial = basis + [k]
        sizes.append(len(trial))
        active, A = reference_max_det_on(g[trial])
        basis = [trial[t] for t in active]
        chol = np.linalg.cholesky(A)
        L, g = L @ chol, g @ chol
    L = L / math.sqrt(float((g * g).sum(axis=1).max()))
    A = L @ L.T
    a = math.sqrt(0.5 * (A[0, 0] + A[1, 1])
                  + math.hypot(0.5 * (A[0, 0] - A[1, 1]), A[0, 1]))
    b = abs(float(L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0])) / a
    return PI * a * b, sizes


def reference_jacobian(norm):
    """The five Jacobians of one node, each measured on the node's own
    hull: ``{definition: value}``, the vertex count and the trial-set
    sizes of the John ellipse."""
    p, c = reference_hull(norm)
    th = norm.theta_nodes
    sector = np.searchsorted(np.arctan2(p[:, 1], p[:, 0]),
                             np.mod(np.arctan2(np.sin(th), np.cos(th)), PI),
                             side="right") - 1
    gauge = np.abs(c[sector, 0] * np.cos(th) + c[sector, 1] * np.sin(th))
    support = np.abs(np.cos(th)[:, None] * p[None, :, 0]
                     + np.sin(th)[:, None] * p[None, :, 1]).max(axis=1)

    def polar_area(norms):
        r = 1.0 / norms
        return float((r * r).sum() * (PI / len(norms)))

    area, sizes = reference_john_area(c)
    return {"mass": 1.0 / wedge_max(p), "mass_star": wedge_max(c),
            "busemann_hausdorff": PI / polar_area(gauge),
            "holmes_thompson": polar_area(support) / PI,
            "inner_riemannian": PI / area}, len(p), sizes


def assert_batch_matches_the_node_reference(unit_norms):
    """The batched Jacobians of the ``(nodes, m)`` norms against the
    reference node by node; returns the vertex counts and the trial-set
    sizes of every node."""
    got = jacobians(unit_norms)
    vertex_counts = _hull_polygons(unit_norms).counts
    counts, sizes = [], []
    for n, row in enumerate(unit_norms):
        want, k, trials = reference_jacobian(Norm2D(len(row), row))
        assert vertex_counts[n] == k
        for d in JACOBIAN_DEFINITIONS[:4]:
            assert np.array_equal(got[d][n], want[d]), (n, d)
        assert got["inner_riemannian"][n] == pytest.approx(
            want["inner_riemannian"], rel=1e-13)
        counts.append(k)
        sizes.append(trials)
    return counts, sizes


def test_row_jacobians_equal_the_node_reference_on_charts():
    cap = volumes.cap_chart(0.3, 17, 32, Grid(64))
    charts = [volumes.cone_chart(n, n, Grid(128)) for n in (16, 24)]
    charts += [cap, volumes.perturbed_cap_chart(cap, bump_seed=4)]
    counts = []
    for chart in charts:
        for i in range(len(chart.axis0)):
            rows, _ = volumes._row_metric_derivative(chart, i)
            live = rows[rows.min(axis=1) > 1e-9]
            if len(live):
                counts += assert_batch_matches_the_node_reference(live)[0]
    # two-vertex cone balls up to the 26-vertex balls of the smooth cap
    assert min(counts) == 2 and max(counts) == 26


def test_batched_jacobians_equal_the_node_reference_on_stacked_norms():
    m = 96
    normals = [(math.cos(t), math.sin(t)) for t in PI / 6 + np.arange(3)
               * PI / 3]
    hexagon = Norm2D.from_callable(
        lambda x, y: np.max([np.abs(cx * x + cy * y) for cx, cy in normals],
                            axis=0) / math.cos(PI / 6), m)
    v1 = 3.0 * np.array([math.cos(20 * PI / m), math.sin(20 * PI / m)])
    v2 = 0.05 * np.array([math.cos(110 * PI / m), math.sin(110 * PI / m)])
    Tinv = np.linalg.inv(np.column_stack([v1, v2])
                         @ np.array([[0.5, 0.5], [0.5, -0.5]]))
    square = Norm2D.from_callable(
        lambda x, y: np.maximum(np.abs(Tinv[0, 0] * x + Tinv[0, 1] * y),
                                np.abs(Tinv[1, 0] * x + Tinv[1, 1] * y)), m)
    batch = [Norm2D.random(seed, m) for seed in range(100)]
    batch += [Norm2D.l1(m), Norm2D.linf(m), Norm2D.euclidean(m), hexagon,
              square]
    _, sizes = assert_batch_matches_the_node_reference(
        np.stack([nm.unit_norms for nm in batch]))
    # some nodes solve over four rows while others settle at once
    assert any(4 in s for s in sizes) and any(not s for s in sizes)
    # two- and 64-vertex nodes; the huge ball of the last one must not
    # set the elimination tolerance of the others
    counts, _ = assert_batch_matches_the_node_reference(np.stack(
        [Norm2D.l1(64).unit_norms, Norm2D.euclidean(64).unit_norms,
         Norm2D.random(3, 64).unit_norms,
         Norm2D.euclidean(64, scale=1e-6).unit_norms]))
    assert counts[:2] == [2, 64] and counts[3] == 64


def test_norm2d_rejects_non_finite_norms():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Norm2D(4, np.array([1.0, bad, 1.0, 1.0]))


def test_finsler_mass_table_checks_definitions_before_any_node():
    # a constant chart: every metric derivative is the zero seminorm
    grid = Grid(16)
    flat = SurfaceChart("constant", grid, np.linspace(0.0, 1.0, 4),
                        np.linspace(0.0, 1.0, 5), np.ones((4, 5, grid.n)))
    assert volumes.finsler_mass_table(flat) \
        == dict.fromkeys(JACOBIAN_DEFINITIONS, 0.0)
    with pytest.raises(ValueError, match="unknown volume definition"):
        volumes.finsler_mass_table(flat, ("hausdorff",))


def test_finsler_mass_table_rejects_a_non_finite_chart():
    cone = volumes.cone_chart(5, 5, Grid(64))
    values = cone.values.copy()
    values[2, 3, 7] = math.nan
    chart = SurfaceChart("nan", cone.grid, cone.axis0, cone.axis1, values)
    with pytest.raises(ValueError, match="chart values must be finite"):
        volumes.finsler_mass_table(chart)


def test_finsler_mass_of_small_cone_tracks_the_closed_form():
    chart = volumes.cone_chart(25, 24, Grid(128))
    got = volumes.finsler_mass(chart, "mass")
    assert got == pytest.approx(PI ** 2 / 2, rel=0.03)


def test_finsler_mass_table_matches_single_definition_calls():
    chart = volumes.cone_chart(9, 8, Grid(64))
    table = volumes.finsler_mass_table(chart)
    for d in JACOBIAN_DEFINITIONS:
        assert table[d] == pytest.approx(volumes.finsler_mass(chart, d))


def test_cap_chart_rejects_small_radius():
    with pytest.raises(ValueError):
        volumes.cap_chart(0.1)


def test_cap_chart_rejects_radii_at_or_past_the_equator():
    # at pi/2 the radial step is zero (a NaN surface integral, zero
    # masses); past it the radial axis runs downward (negative masses)
    for r in (PI / 2, 1.6):
        with pytest.raises(ValueError, match="r < pi/2"):
            volumes.cap_chart(r, 9, 16, Grid(64))


def test_perturbed_cap_keeps_boundary_rows():
    cap = volumes.cap_chart(0.3, 9, 16, Grid(64))
    pert = volumes.perturbed_cap_chart(cap, bump_seed=1)
    assert np.array_equal(pert.values[0], cap.values[0])
    assert np.array_equal(pert.values[-1], cap.values[-1])
    assert not np.allclose(pert.values[4], cap.values[4])
    with pytest.raises(ValueError):
        volumes.perturbed_cap_chart(cap, 0, amplitude=1.5)


def test_cap_chart_equals_the_sphere_points_node_by_node():
    for r, n_d, n_tau, grid in ((0.3, 9, 16, Grid(64)),
                                (0.5, 17, 32, Grid(256))):
        cap = volumes.cap_chart(r, n_d, n_tau, grid)
        for i, d in enumerate(cap.axis0):
            for j, tau in enumerate(cap.axis1):
                want = sphere_point(SpherePoint(tau, d), grid).values
                assert np.array_equal(cap.values[i, j], want)


def test_cap_surface_integral_is_positive():
    cap = volumes.cap_chart(0.4, 9, 16, Grid(64))
    assert volumes.omega_surface_integral(cap) > 0


def reference_tangent(chart, axis, i, j):
    """Partial derivative of the chart along one parameter axis at node
    ``(i, j)``: central differences, one-sided at the two ends of the
    radial axis 0 and wrapped on the angular axis 1."""
    V = chart.values
    if axis == 1:
        n, h = len(chart.axis1), chart.axis1[1] - chart.axis1[0]
        return (V[i, (j + 1) % n] - V[i, (j - 1) % n]) / (2.0 * h)
    n, h = len(chart.axis0), chart.axis0[1] - chart.axis0[0]
    if 0 < i < n - 1:
        return (V[i + 1, j] - V[i - 1, j]) / (2.0 * h)
    if i == 0:
        return (V[1, j] - V[0, j]) / h
    return (V[n - 1, j] - V[n - 2, j]) / h


def reference_surface_integral(chart):
    """Per-node coefficient table, explicit cross table and the triangle
    rule: the surface integral written out term by term."""
    w0, w1 = volumes._axis_weights(chart)
    total = 0.0
    for i in range(len(chart.axis0)):
        for j in range(len(chart.axis1)):
            P = p_grid(HullFn(chart.grid, chart.values[i, j]))
            t0 = reference_tangent(chart, 0, i, j)
            t1 = reference_tangent(chart, 1, i, j)
            t0m = 0.5 * (t0 + np.concatenate([t0[1:], -t0[:1]]))
            t1m = 0.5 * (t1 + np.concatenate([t1[1:], -t1[:1]]))
            cross = t1m[:, None] * t0[None, :] - t0m[:, None] * t1[None, :]
            total += w0[i] * w1[j] * integrate_triangle(P * cross,
                                                        chart.grid)
    return total


def test_surface_integral_matches_term_by_term_reference():
    for n in (64, 256):
        cap = volumes.cap_chart(0.3, 9, 16, Grid(n))
        for chart in (cap, volumes.perturbed_cap_chart(
                cap, bump_seed=2, amplitude=0.2)):
            want = reference_surface_integral(chart)
            assert volumes.omega_surface_integral(chart) == pytest.approx(
                want, rel=1e-13)


def test_surface_integral_is_bit_reproducible():
    cap = volumes.cap_chart(0.3, 9, 16, Grid(64))
    pert = volumes.perturbed_cap_chart(cap, bump_seed=3)
    assert volumes.omega_surface_integral(pert) \
        == volumes.omega_surface_integral(pert)


def test_surface_integral_does_not_depend_on_the_blas_thread_count(
        blas_thread_envs):
    script = ("from fillhull import volumes\n"
              "from fillhull.quadrature import Grid\n"
              "cap = volumes.cap_chart(0.3, 9, 16, Grid(256))\n"
              "pert = volumes.perturbed_cap_chart(cap, bump_seed=2)\n"
              "print(repr(volumes.omega_surface_integral(cap)),\n"
              "      repr(volumes.omega_surface_integral(pert)))\n")
    outs = [subprocess.run([sys.executable, "-c", script], env=env,
                           check=True, capture_output=True,
                           text=True).stdout
            for env in blas_thread_envs]
    assert outs[0] and outs[0] == outs[1]


def test_surface_integral_rejects_boundary_nodes():
    cap = volumes.cap_chart(0.3, 5, 8, Grid(64))
    values = cap.values.copy()
    values[2, 3] = boundary_point(cap.grid.beta_nodes[5], cap.grid).values
    chart = SurfaceChart("touching", cap.grid, cap.axis0, cap.axis1,
                         values)
    with pytest.raises(ValueError, match=r"chart node \(2, 3\) touches"):
        volumes.omega_surface_integral(chart)
    # of two touching nodes, the first in row-major order is named
    values[1, 6] = PI - values[2, 3]
    chart = SurfaceChart("touching twice", cap.grid, cap.axis0, cap.axis1,
                         values)
    with pytest.raises(ValueError, match=r"chart node \(1, 6\) touches"):
        volumes.omega_surface_integral(chart)


def test_coordinate_filling_area_quarter_offset():
    for alpha in (0.0, 0.3, 2.0):
        got = volumes.coordinate_filling_area(alpha, PI / 2)
        assert got == pytest.approx(PI ** 2 / 2, abs=1e-10)


def test_coordinate_filling_area_vanishes_at_degenerate_offsets():
    assert volumes.coordinate_filling_area(0.0, 0.0) == pytest.approx(
        0.0, abs=1e-9)
