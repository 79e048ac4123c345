"""Numerics for calibrations and Finsler volumes on the injective hull
of the round circle."""

from .quadrature import Grid, integrate_triangle, integrate_period
from .hull import (
    HullFn,
    SpherePoint,
    ConvergenceError,
    is_member,
    boundary_point,
    sphere_point,
    sup_dist,
    dist_to_boundary,
    dist_to_hemisphere,
    truncate,
    shrink_toward_center,
    random_hull_point,
)
from .coeffs import (
    p_scalar,
    height,
    p_derivatives,
    p_grid,
    p_l1_norm,
    hemisphere_speed,
)
from .pathspace import (
    PlanePath,
    AngleField,
    nu_h,
    gamma_from_eta,
    omega_action,
    mu_path,
    sigma_path,
    fuglede_check,
    basepoint_invariance,
)
from .comass import (
    OptimizerConfig,
    psi,
    psi_gradient,
    psi_hessian_quadform,
    maximize_eta,
    comass_ir,
    calibration_sweep,
    concavity_certificate,
)
from .norms import Norm2D, john_ellipse, jacobian
from .volumes import (
    SurfaceChart,
    metric_derivative,
    finsler_mass,
    finsler_mass_table,
    cone_chart,
    cap_chart,
    perturbed_cap_chart,
    omega_surface_integral,
    coordinate_filling_area,
)

__version__ = "0.1.0"
