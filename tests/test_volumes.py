import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from fillhull import volumes
from fillhull.volumes import (DegenerateNormError, JACOBIAN_DEFINITIONS,
                              Norm2D, SurfaceChart)
from fillhull.quadrature import Grid

PI = math.pi


def dense_john_area(norm, n_q=120, n_phi=180, n_t=720):
    """Brute-force reference for the inscribed ellipse area: dense scan
    over aspect and tilt with the scale eliminated analytically, then
    one zoomed rescan around the winner."""

    def scan(qs, phis):
        best = (-1.0, None, None)
        for q in qs:
            areas = volumes._ellipse_area(norm, np.full_like(phis, q),
                                          phis, n_t)
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


def test_jacobian_rejects_unknown_definition():
    with pytest.raises(ValueError):
        volumes.jacobian(Norm2D.euclidean(), "hausdorff")


def test_surface_chart_validates_value_shape():
    grid = Grid(64)
    with pytest.raises(ValueError):
        SurfaceChart("bad", grid, np.linspace(0, 1, 4),
                     np.linspace(0, 1, 5), False, False,
                     np.zeros((4, 5, grid.n + 1)))


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


def test_perturbed_cap_keeps_boundary_rows():
    cap = volumes.cap_chart(0.3, 9, 16, Grid(64))
    pert = volumes.perturbed_cap_chart(cap, bump_seed=1)
    assert np.array_equal(pert.values[0], cap.values[0])
    assert np.array_equal(pert.values[-1], cap.values[-1])
    assert not np.allclose(pert.values[4], cap.values[4])
    with pytest.raises(ValueError):
        volumes.perturbed_cap_chart(cap, 0, amplitude=1.5)


def test_cap_surface_integral_is_positive():
    cap = volumes.cap_chart(0.4, 9, 16, Grid(64))
    assert volumes.omega_surface_integral(cap) > 0


def test_coordinate_filling_area_quarter_offset():
    for alpha in (0.0, 0.3, 2.0):
        got = volumes.coordinate_filling_area(alpha, PI / 2)
        assert got == pytest.approx(PI ** 2 / 2, abs=1e-10)


def test_coordinate_filling_area_vanishes_at_degenerate_offsets():
    assert volumes.coordinate_filling_area(0.0, 0.0) == pytest.approx(
        0.0, abs=1e-9)
