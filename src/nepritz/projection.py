"""Subspace machinery: deviation, projected functions, perturbation witness.

The deviation eps = sin of the angle between the target eigenvector and the
projection subspace is the convergence parameter of the whole theory; the
perturbation witness materializes the rank-one perturbation that makes the
target an exact eigenvalue of the perturbed projected problem.  Both need
only the component of x_star outside the subspace, x - W W^H x, so no basis
of the orthogonal complement is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense_kernels import as_matrix, as_unit_vector, norm2, norms_within
from .errors import DegenerateDeviation
# unused here; perfbench's tracer test checks every layer's alias of eval_T
from .nep_model import MatrixFunction, eval_T  # noqa: F401


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis W (n x m) of the projection subspace."""

    basis: np.ndarray        # n x m

    @classmethod
    def from_basis(cls, w) -> "Subspace":
        return cls(basis=as_matrix(w))

    def __post_init__(self):
        n, m = self.basis.shape
        if m > n:
            raise ValueError("subspace dimension exceeds ambient dimension")
        if not norms_within(self.basis.conj().T @ self.basis - np.eye(m), 1e-12):
            raise ValueError("basis columns are not orthonormal to 1e-12")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def deviation(s: Subspace, x_star) -> float:
    """sin of the angle between x_star and the subspace: ||(I - W W^H) x_star||."""
    x = as_unit_vector(x_star, "x_star")
    return min(float(np.linalg.norm(x - s.basis @ (s.basis.conj().T @ x))), 1.0)


def project(t: MatrixFunction, s: Subspace) -> MatrixFunction:
    """Projected function W^H T(lambda) W as a term-wise MatrixFunction.

    Scalar functions (and hence analyticity and poles) carry over unchanged;
    returning a MatrixFunction rather than a closure lets projected problems
    round-trip through the JSON problem format.
    """
    if t.n != s.ambient_dim:
        raise ValueError("function dimension does not match subspace")
    return t.compress(s.basis)


@dataclass(frozen=True)
class PerturbationWitness:
    """Rank-one perturbation making lambda_star exact for the projected problem.

    E at lambda_star satisfies (B(l*) + E(l*)) u_hat = 0 with
    ||E(l*)|| <= eps/sqrt(1-eps^2) ||T(l*)||; both facts are verified on
    construction, and ||E(l*)|| is recorded here.
    """

    E_at_lambda_star: np.ndarray
    u_hat: np.ndarray
    residual: np.ndarray
    norm_E: float


def perturbation_witness(ctx, s: Subspace) -> PerturbationWitness:
    """Construct the witness E(l*), u_hat, r from a case context.

    ctx is the case's bounds_lab.CaseContext, read for x_star, eps, T(l*),
    B(l*) and their norms; s is the subspace it was built for.  With
    u = W^H x and x_out = x - W u, E(l*) = (W^H T(l*) x_out) u_hat^H /
    sqrt(1 - eps^2), since x = W u + x_out and B(l*) u = W^H T(l*) W u.
    """
    if ctx.eps >= 1.0 - 1e-10:
        raise DegenerateDeviation("x_star is numerically orthogonal to the subspace")
    w = s.basis
    x = ctx.x_star
    u = w.conj().T @ x
    x_out = x - w @ u
    denom = ctx.eps_cos
    u_hat = u / denom
    r = ctx.b_star @ u_hat
    e_star = (w.conj().T @ ctx.t_star @ x_out)[:, None] @ u_hat.conj()[None, :] / denom
    # verify the two witness invariants before handing the object out; the
    # absolute term covers the B(l*) = 0 edge where rounding scales with ||T||
    tol = 1e-10 * ctx.norm_B_star + 1e-13 * ctx.norm_T_star
    if np.linalg.norm((ctx.b_star + e_star) @ u_hat) > tol:
        raise RuntimeError("witness does not annihilate u_hat; construction bug")
    norm_e = norm2(e_star)
    if norm_e > ctx.eps_ratio * ctx.norm_T_star + 1e-12:
        raise RuntimeError("witness norm exceeds its guaranteed bound")
    return PerturbationWitness(
        E_at_lambda_star=e_star, u_hat=u_hat, residual=r, norm_E=norm_e
    )
