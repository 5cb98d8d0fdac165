"""Subspace extraction for analytic nonlinear eigenvalue problems.

The package projects an analytic matrix-valued function T(lambda) onto a
small subspace, solves the projected problem, extracts both the classical
(projected null vector) and the refined (residual-minimizing) eigenvector
approximations, and numerically verifies the a-priori and a-posteriori error
bounds that govern their convergence as the subspace captures the target
eigenvector.
"""

from .bounds_lab import (
    BoundReport,
    CaseContext,
    DerivativeProfile,
    angle_sandwich,
    build_case_context,
    jordan_block_order,
    perturbation_norm_bound,
    projected_sigma_bound,
    refined_bounds,
    refined_uniqueness_check,
    residual_angle_bound,
    residual_ratio_sandwich,
    ritz_complements,
    ritz_value_bound,
    ritz_vector_angle_bound,
    sigma_min_profile,
)
from .dense_kernels import (
    SvdResult,
    norm2,
    orthonormalize,
    singular_values,
    solve_linear,
    svd,
)
from .errors import NepRitzError
from .experiments import (
    CaseResult,
    analyze_case,
    build_subspace_eps,
    build_subspace_exact,
    builtin_suite,
    defective_rate_instance,
    defective_rate_subspace,
    fixture_problem,
    fit_loglog_slope,
    perturb_subspace,
    run_example1,
    run_example1_target,
    run_example2,
    run_sweep,
    simple_rate_instance,
    verify_all,
)
from .extraction import (
    RefinedExtraction,
    RitzExtraction,
    refined_vector,
    ritz_residual_for,
    ritz_vector,
    sin_angle,
)
from .nep_model import (
    Exponential,
    MatrixFunction,
    Polynomial,
    Rational,
    ReferencePair,
    eval_T,
    eval_T_many,
    load_problem,
    save_problem,
    taylor_remainder_const,
)
from .projection import (
    PerturbationWitness,
    Subspace,
    deviation,
    perturbation_witness,
    project,
)
from .small_nep_solver import (
    SpectrumResult,
    companion_eigs,
    newton_trace_refine,
    polynomialize,
    select_ritz_value,
    solve_projected,
)

__version__ = "0.1.0"
