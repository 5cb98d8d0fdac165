"""Subspace extraction for analytic nonlinear eigenvalue problems.

The package projects an analytic matrix-valued function T(lambda) onto a
small subspace, solves the projected problem, extracts both the classical
(projected null vector) and the refined (residual-minimizing) eigenvector
approximations, and numerically verifies the a-priori and a-posteriori error
bounds that govern their convergence as the subspace captures the target
eigenvector.

The names below are the public API.  Everything else, including the bound
evaluators, the case context and the solver's internals, is reached through
its submodule and may change.
"""

from .bounds_lab import BoundReport, sigma_min_profile
from .dense_kernels import norm2, singular_values, svd
from .errors import NepRitzError
from .experiments import (
    CaseResult,
    analyze_case,
    build_subspace_eps,
    builtin_suite,
    defective_rate_instance,
    defective_rate_subspace,
    fixture_problem,
    perturb_subspace,
    random_planted_nep,
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
)
from .projection import Subspace, deviation, project
from .small_nep_solver import SpectrumResult, select_ritz_value, solve_projected

__version__ = "0.1.0"
