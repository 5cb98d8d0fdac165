"""Subspace machinery: the projection subspace, deviation, projected functions.

The deviation eps = sin of the angle between the target eigenvector and the
projection subspace is the convergence parameter of the whole theory.  It
needs only the component of x_star outside the subspace, x - W W^H x, so no
basis of the orthogonal complement is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense_kernels import as_matrix, as_unit_vector, norms_within
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
