"""Exception types shared across the package.

Every error raised on a documented failure path derives from NepRitzError so
callers can catch the whole family; suite runners additionally distinguish
InapplicableBound (a hypothesis of some bound is not met -- an expected,
reportable outcome) from genuine failures.
"""


class NepRitzError(Exception):
    """Base class for all package errors."""


class ConvergenceFailure(NepRitzError):
    """An iterative kernel (SVD/eigensolver) failed; signals a kernel bug."""


class DimensionGuard(NepRitzError):
    """A desk-scale dimension limit was exceeded."""


class NearSingular(NepRitzError):
    """Linear system matrix is numerically singular."""


class PoleHit(NepRitzError):
    """Evaluation point is (numerically) a pole of a rational term."""


class NonConverged(NepRitzError):
    """Newton refinement did not reach its residual target."""


class EmptySpectrum(NepRitzError):
    """No eigenvalue available where one is required."""


class NotAnEigenvalue(NepRitzError):
    """The given shift is not an eigenvalue of the matrix (function)."""


class DegenerateDeviation(NepRitzError):
    """Target vector is (numerically) orthogonal to the subspace."""


class ConstructionFailed(NepRitzError):
    """A requested subspace cannot be completed in the ambient space."""


class InapplicableBound(NepRitzError):
    """A bound's hypothesis fails on this instance; reported, not fatal."""


class DegenerateSigma(InapplicableBound):
    """sigma_min vanishes where the rate machinery needs it positive."""


class HypothesisFailed(InapplicableBound):
    """An explicit hypothesis of a bound evaluator is violated."""


class DegenerateRatio(InapplicableBound):
    """Residual ratio undefined because the refined residual is zero."""
