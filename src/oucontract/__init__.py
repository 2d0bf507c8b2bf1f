"""Desk-scale verification lab for the Dirichlet Ornstein-Uhlenbeck
resolvent on Gaussian level-set domains: boundary curvature functionals,
a flux-form finite-difference resolvent solver, a killed-diffusion Monte
Carlo oracle, gradient-contractivity sweeps, and Karhunen-Loeve
truncations of Brownian motion and bridge."""

__version__ = "0.1.0"

from .gauss import (
    QuadratureRule,
    gauss_hermite_rule,
    hermite_poly,
)
from .domains import (
    BoundaryPoint,
    CurvatureAudit,
    LevelSetDomain,
    ball,
    curvature_audit,
    ellipsoid,
    gaussian_curvature,
    halfspace,
    mean_curvature,
    polynomial_domain,
    project_to_boundary,
)
from .grid import GaussianGrid, ScalarField, discrete_gradient
from .solver import (
    ResolventJob,
    ResolventSolution,
    assemble_ou_operator,
    discrete_ou_apply,
    solve_resolvent,
    solve_resolvents,
)
from .feynman_kac import KilledPathEstimator, McEstimate, mc_gradient_probe, mc_resolvent
from .contract import (
    BumpFunction,
    ContractRecord,
    boundary_flux_integral,
    boundary_probes,
    check_boundary_normal_slope,
    check_pointwise_inequality,
    contractivity_sweep,
    convex_power_surrogate,
    default_contract_tol,
    gradient_lp_ratio,
    gradient_magnitude_fields,
    make_bump,
)
from .wiener import (
    EpigraphSpec,
    FunctionalSpec,
    KLBasis,
    affine_level_spec,
    basel_partial_sum,
    constant_epigraph,
    cylindrical_curvature_audit,
    cylindrical_domain,
    epigraph_curvature_audit,
    epigraph_domain,
    gauss_ridge_epigraph,
    pathwise_level_value,
    rational_reference_spec,
    resolvent_convergence_study,
    trace_density,
    validate_functional,
)
