"""Dense complex linear-algebra primitives used by every other module.

All routines work on plain ``numpy`` arrays of ``complex128`` and follow a
deterministic phase convention: in any returned orthonormal column, the entry
of largest magnitude is made real and positive.  This keeps vector-valued regression tests bit-stable; the
underlying decompositions are only unique up to a unit scalar per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NearSingular, RankDeficient

ORTHO_TOL = 1e-12


def _finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array; reject NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    if not _finite(a):
        raise ValueError("matrix has NaN/Inf entries")
    return a


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size < 1 or not _finite(a):
        raise ValueError("expected a finite nonempty vector")
    return a


def norm2(m) -> float:
    """Operator 2-norm: the largest singular value, as np.linalg.norm(a, 2) takes it."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    return float(singular_values(a)[0]) if a.size else 0.0


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rescale each column by a unit scalar so its largest-|.| entry is real > 0.

    Ties on magnitude resolve to the first maximal index.  Zero columns are
    returned unchanged.
    """
    a = np.array(v, dtype=complex, copy=True)
    cols = a if a.ndim == 2 else a.reshape(-1, 1)
    for k in range(cols.shape[1]):
        col = cols[:, k]
        i = int(np.argmax(np.abs(col)))
        piv = col[i]
        if abs(piv) > 0.0:
            cols[:, k] = col * (np.conj(piv) / abs(piv))
    return a


def orthonormalize(m) -> np.ndarray:
    """Orthonormal basis of the column span, deterministic.

    Modified Gram-Schmidt with one re-orthogonalization pass, columns taken
    in input order, phase fixed per column.  Requires full column rank up to
    ``ORTHO_TOL * ||M||``.
    """
    a = as_matrix(m)
    n, k = a.shape
    if k > n:
        raise RankDeficient(f"{k} columns cannot be independent in dimension {n}")
    scale = norm2(a)
    tol = ORTHO_TOL * max(scale, 1e-300)
    q = np.zeros((n, k), dtype=complex)
    for j in range(k):
        v = a[:, j].copy()
        for _ in range(2):  # twice is enough for 1e-12 orthogonality
            for i in range(j):
                v -= q[:, i] * (np.conj(q[:, i]) @ v)
        r = np.linalg.norm(v)
        if r < tol:
            raise RankDeficient(f"column {j} is dependent (residual {r:.3e} < {tol:.3e})")
        q[:, j] = v / r
    return phase_fix(q)


def householder_complement(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of a single unit vector.

    Built from the Householder reflector mapping x onto a coordinate axis, so
    the result is a deterministic n x (n-1) matrix with columns orthogonal
    to x.
    """
    x = as_vector(x)
    n = x.size
    if n == 1:
        return np.zeros((1, 0), dtype=complex)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ValueError("cannot complement the zero vector")
    x = x / nrm
    phase = x[0] / abs(x[0]) if abs(x[0]) > 0 else 1.0
    v = x + phase * np.eye(n, 1, dtype=complex).ravel()
    v /= np.linalg.norm(v)
    h = np.eye(n, dtype=complex) - 2.0 * np.outer(v, np.conj(v))
    # first column of H is parallel to x; the rest span its complement
    return phase_fix(h[:, 1:])


@dataclass(frozen=True)
class SvdResult:
    """Full SVD with singular values sorted descending.

    The smallest singular triplet is always the last entry; callers that need
    ascending order (refined extraction) index from the end.
    """

    left_vectors: np.ndarray       # columns u_1..u_p, p = min(rows, cols) or full
    singular_values: np.ndarray    # descending, >= 0
    right_vectors: np.ndarray      # columns v_1..v_p

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])


def svd(m) -> SvdResult:
    """Full SVD with the deterministic phase convention.

    Verifies reconstruction and orthogonality to 1e-12 before returning, so a
    violated invariant surfaces as ConvergenceFailure (kernel bug), never as
    silent data corruption.
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from None
    v = vh.conj().T
    p = min(a.shape)
    # one unit scalar per coupled pair (u_k, v_k); extra null-space columns
    # are phase-fixed independently, which leaves U S V^H unchanged
    for k in range(p):
        i = int(np.argmax(np.abs(u[:, k])))
        piv = u[i, k]
        if abs(piv) > 0.0:
            c = np.conj(piv) / abs(piv)
            u[:, k] = u[:, k] * c
            v[:, k] = v[:, k] * c
    if u.shape[1] > p:
        u[:, p:] = phase_fix(u[:, p:])
    if v.shape[1] > p:
        v[:, p:] = phase_fix(v[:, p:])
    smat = np.zeros(a.shape, dtype=complex)
    smat[:p, :p] = np.diag(s)
    scale = max(1.0, float(s[0]) if s.size else 0.0)
    if norm2(a - u @ smat @ v.conj().T) > 1e-12 * scale:
        raise ConvergenceFailure("SVD reconstruction check failed")
    if (norm2(u.conj().T @ u - np.eye(u.shape[1])) > 1e-12
            or norm2(v.conj().T @ v - np.eye(v.shape[1])) > 1e-12):
        raise ConvergenceFailure("SVD orthogonality check failed")
    return SvdResult(left_vectors=u, singular_values=s.astype(float), right_vectors=v)


def singular_values(m) -> np.ndarray:
    """Singular values only (descending); cheaper than a full svd().

    m is one matrix or a stack of equally shaped matrices (..., rows, cols);
    a stack gets one batched LAPACK call and one row of values per matrix.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim <= 2:
        a = as_matrix(a)
    elif a.size == 0 or not _finite(a):
        raise ValueError("expected a nonempty finite stack of matrices")
    return np.linalg.svd(a, compute_uv=False).astype(float)


def near_singular(s) -> np.ndarray:
    """solve_linear's singularity test, sigma_min <= 1e-14 * sigma_max.

    s holds descending singular values along its last axis, so a stack of
    them gets one flag per matrix.
    """
    s = np.asarray(s)
    return s[..., -1] <= 1e-14 * s[..., 0]


def solve_with_svals(a: np.ndarray, rhs: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B and run solve_linear's residual check from A's singular values.

    A is one square matrix, with B a vector or a matrix of right-hand sides,
    or a stack (k, m, m) with B of shape (k, m, r).  s are A's descending
    singular values, so ||A|| = s[..., 0] needs no decomposition here.
    Returns X and, per system, whether every column passes
    ||A x - b|| <= 1e-10 (||A|| ||x|| + ||b||).  The caller has already
    ruled out near_singular(s).
    """
    x = np.linalg.solve(a, rhs)
    axis = -1 if rhs.ndim < a.ndim else -2
    res = np.linalg.norm(a @ x - rhs, axis=axis)
    tol = 1e-10 * (np.asarray(s)[..., :1] * np.linalg.norm(x, axis=axis)
                   + np.linalg.norm(rhs, axis=axis))
    return x, ~np.any(res > tol, axis=-1)


def solve_linear(m, b) -> np.ndarray:
    """Solve M X = B for square M that is not numerically singular.

    B is one right-hand side (a vector) or several (the columns of a matrix);
    the result has B's shape.  One set of singular values serves both the
    singularity test, which raises NearSingular when near_singular holds,
    and the residual check of solve_with_svals, which raises
    ConvergenceFailure.  small_nep_solver.companion_eigs calls it for the
    shift-and-invert solve of the companion pencil.
    """
    a = as_matrix(m)
    rhs = as_vector(b) if np.ndim(b) == 1 else as_matrix(b)
    if a.shape[0] != a.shape[1] or a.shape[0] != rhs.shape[0]:
        raise ValueError("incompatible shapes in solve_linear")
    s = singular_values(a)
    if near_singular(s):
        raise NearSingular(f"sigma_min/sigma_max = {s[-1]:.3e}/{s[0]:.3e}")
    x, ok = solve_with_svals(a, rhs, s)
    if not ok:
        raise ConvergenceFailure("linear solve residual check failed")
    return x
