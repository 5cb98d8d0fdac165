"""Dense complex linear-algebra primitives used by every other module.

All routines work on plain ``numpy`` arrays of ``complex128`` and follow a
deterministic phase convention: in any returned orthonormal column, the entry
of largest magnitude is made real and positive.  This keeps vector-valued regression tests bit-stable; the
underlying decompositions are only unique up to a unit scalar per column.
``phase_fix`` and ``svd`` apply it alike: one argmax per column finds the
pivots, each column's unit scalar is the numpy scalar quotient the old
per-column loop formed, so the bits match it (``_phase_row`` says why no
other quotient does), and one whole-array product rescales all columns.
``svd`` verifies its factors with two ``norms_within`` checks, each decided
by one Frobenius reduction of its residual unless that cannot decide.

A 2-norm alone comes from ``norm2``, the square root of the largest
eigenvalue of the Hermitian Gram matrix, for one matrix or a stack; its
docstring derives its error bound.  Any other singular value comes from
``singular_values`` or ``svd``.

Each scalar argument rule of the package is one function here:
``as_finite_scalar``, ``require_integer``, ``as_length``, ``as_deviation``,
``as_nonnegative``.
A violation raises ValueError naming the argument; a bool is no number.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NearSingular

# | ||v|| - 1 | allowed of a vector that must be unit (see as_unit_vector)
UNIT_TOL = 1e-12
# relative allowance between a computed Frobenius norm and a computed 2-norm
# (see norms_within)
NORM_ROUNDING = 1e-8


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


def as_unit_vector(v, name: str) -> np.ndarray:
    """as_vector, for an argument that must be unit: | ||v|| - 1 | <= UNIT_TOL.

    The one unit-norm rule of the package.  A vector off by more raises
    ValueError naming the argument; the admitted one is returned unscaled.
    """
    a = as_vector(v)
    nrm = np.linalg.norm(a)
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise ValueError(f"{name} must be unit norm to {UNIT_TOL:g} (got {nrm})")
    return a


def _as_number(value, kind, to):
    """to(value) for a number of this kind but bool, else to(NaN); an int too big for to is inf."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return to(math.nan)
    try:
        return to(value)
    except OverflowError:
        return to(math.inf)


def as_finite_scalar(value, name: str) -> complex:
    """value as a finite complex: a Python or numpy number with no NaN or inf part."""
    z = _as_number(value, numbers.Number, complex)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, not {value!r}")
    return z


def require_integer(name: str, value, least: int, most: int | None = None):
    """value, an int or numpy integer in [least, most] (most=None: no upper bound)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least or most is not None and value > most):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bound}, not {value!r}")
    return value


def _as_real_below(value, name: str, upper: float, interval: str) -> float:
    x = _as_number(value, numbers.Real, float)
    above_zero = 0.0 <= x if interval[0] == "[" else 0.0 < x  # "[0, ..." admits 0
    if not (above_zero and x < upper):  # comparisons that NaN fails
        raise ValueError(f"{name} must be in {interval}, not {value!r}")
    return x


def as_length(value, name: str) -> float:
    """value as a float in (0, inf): a radius or other positive finite length."""
    return _as_real_below(value, name, math.inf, "(0, inf)")


def as_deviation(value, name: str) -> float:
    """value as a float in (0, 1): a deviation epsilon of a subspace from x_star."""
    return _as_real_below(value, name, 1.0, "(0, 1)")


def as_nonnegative(value, name: str) -> float:
    """value as a float in [0, inf): a standard deviation sigma of a perturbation."""
    return _as_real_below(value, name, math.inf, "[0, inf)")


def norm2(m):
    """Operator 2-norm of one matrix (a float) or of each matrix of a stack (an array).

    m is a matrix, a vector (taken as one row), or a stack (..., rows,
    cols); NaN or inf entries raise ValueError, and an empty matrix has
    norm 0.  Each norm is the square root of the largest eigenvalue of the
    Hermitian Gram matrix of the matrix's taller side: A^H A when
    rows >= cols, A A^H otherwise, k x k with k = min(rows, cols).  A stack
    takes one batched matmul and one batched eigvalsh, and each of its
    matrices gets the value that it gets alone, bit for bit.  Each matrix is
    first multiplied by 2^-e, 2^e the power of two just above its largest
    real or imaginary part, so the Gram's entries lie below 2 max(rows, cols)
    and can neither overflow nor lose the norm to underflow.  The scaling
    and the final multiplication by 2^e are exact, so
    norm2(2^j A) == 2^j norm2(A) bit for bit while no entry of A or 2^j A
    and neither norm is subnormal or overflows.

    Error.  Let sigma be the exact norm, q = max(rows, cols) the length of
    the Gram's inner products, and r = ||A||_F^2 / sigma^2 <= k the stable
    rank.  The computed Gram is G + dG with |dG| <= gamma_{q+2} |A|^H |A|
    entrywise (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sections 3.5 and 3.6: complex inner products of length q), so
    by Cauchy-Schwarz on the columns ||dG||_2 <= gamma_{q+2} ||A||_F^2 =
    gamma_{q+2} r sigma^2.  The Hermitian eigensolver is backward stable:
    its eigenvalues are exact for G + dG + E with ||E||_2 <= p(k) u ||G||_2,
    p a modestly growing function of k (LAPACK Users' Guide, section 4.7).
    By Weyl's theorem the largest eigenvalue moves by at most
    ||dG||_2 + ||E||_2; the square root halves that relative error and adds
    one rounding.  To first order in the unit roundoff u = 2^-53,

        |norm2(A) - sigma| <= (((q + 2) r + p(k)) / 2 + 1) u sigma,

    which is O(q u) for a matrix of small stable rank and O(q k u) at worst.
    """
    a = np.asarray(m, dtype=complex)
    one = a.ndim <= 2
    a = np.atleast_2d(a)
    if not _finite(a):
        raise ValueError("matrix has NaN/Inf entries")
    if a.size == 0:
        return 0.0 if one else np.zeros(a.shape[:-2])
    if a.shape[-2] < a.shape[-1]:
        a = a.swapaxes(-1, -2)  # A^T has A's singular values
    parts = np.ascontiguousarray(a).view(float)
    _, e = np.frexp(np.abs(parts).max(axis=(-2, -1)))
    scaled = np.ldexp(parts, -e[..., None, None]).view(complex)
    gram = scaled.conj().swapaxes(-1, -2) @ scaled
    top = np.linalg.eigvalsh(gram)[..., -1]
    norms = np.ldexp(np.sqrt(np.maximum(top, 0.0)), e)
    return float(norms) if one else norms


def _phase_row(u: np.ndarray) -> np.ndarray:
    """The (1, p) row of unit scalars that puts u's p columns in the phase convention.

    One argmax over np.abs(u) picks each column's pivot u_ik, the first of
    tied maxima.  Its scalar c_k is the numpy scalar quotient
    np.conj(u_ik) / abs(u_ik), formed one column at a time: Python's complex
    division rounds differently, and so does the array np.abs, which is not
    the scalar abs's hypot; either would move the vectors in the last bit.
    A zero column gets 1.  The row is (1, p), not (p,): numpy multiplies a
    1 x 1 factor by a broadcast (p,) row in its scalar loop, whose complex
    product rounds differently from the vector loop that every other shape,
    and a per-column product u[:, k] * c_k, runs in.
    """
    p = u.shape[1]
    piv = u[np.abs(u).argmax(axis=0), np.arange(p)]
    units = (np.conj(z) / abs(z) if abs(z) > 0.0 else 1.0 for z in piv)
    return np.fromiter(units, complex, p)[None, :]


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rescale each column by a unit scalar so its largest-|.| entry is real > 0.

    Ties on magnitude resolve to the first maximal index.  Zero columns stay
    zero.  Returns a new array; v is not changed.
    """
    a = np.asarray(v, dtype=complex)
    cols = a if a.ndim == 2 else a.reshape(-1, 1)
    return (cols * _phase_row(cols)).reshape(a.shape)


def complement_compress(x, a) -> np.ndarray:
    """Compress a against the complement of the vector x, through its Householder reflector.

    H = I - 2 v v^H with v = (x/||x|| + phase e_1) / ||.|| is Hermitian and
    unitary with first column parallel to x, so V = H[:, 1:] is an
    orthonormal basis of x's complement.  An n x n matrix or a stack
    (..., n, n) gives V^H A V = (H A H)[..., 1:, 1:], an n-vector
    V^H a = (H a)[1:].  Each side's reflection is a rank-1 update, so no
    n x (n-1) basis is formed.  Any other orthonormal basis of the
    complement is V times a unitary: singular values and norms agree.
    """
    x = as_vector(x)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ValueError("cannot complement the zero vector")
    a = np.asarray(a, dtype=complex)
    if a.shape[-1] != x.size or (a.ndim > 1 and a.shape[-2] != x.size):
        raise ValueError(f"cannot compress shape {a.shape} against a {x.size}-vector")
    v = x / nrm
    v[0] += v[0] / abs(v[0]) if abs(v[0]) > 0 else 1.0
    v /= np.linalg.norm(v)
    vh = v.conj()
    if a.ndim == 1:
        return (a - 2.0 * v * (vh @ a))[1:]
    # rows = (H A)[1:, :], then (rows H)[:, 1:], each written over its update;
    # the outer products are matmuls, so a stack equals its matrices bit for bit
    rows = (2.0 * v[1:, None]) @ (vh @ a)[..., None, :]
    np.subtract(a[..., 1:, :], rows, out=rows)
    block = (2.0 * (rows @ v))[..., None] @ vh[None, 1:]
    return np.subtract(rows[..., 1:], block, out=block)


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Thin SVD with singular values sorted descending, p = min(rows, cols).

    The smallest singular triplet is always the last entry; callers that need
    ascending order (refined extraction) index from the end.
    """

    left_vectors: np.ndarray       # rows x p, columns u_1..u_p
    singular_values: np.ndarray    # p values, descending, >= 0
    right_vectors: np.ndarray      # cols x p, columns v_1..v_p

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])


def svd(m) -> SvdResult:
    """Thin SVD A = U diag(s) V^H with the deterministic phase convention.

    U is rows x p and V cols x p, p = min(rows, cols), from LAPACK's thin
    path: no caller reads the null-space columns a full U or V would add,
    and on a tall matrix such as the 128 x 16 T(mu) W forming the full U
    costs more than twice the thin one.

    The convention is phase_fix's: one product with the row of unit scalars
    from _phase_row rescales U and one rescales V, so each pair (u_k, v_k)
    keeps U S V^H.

    Verifies reconstruction and orthogonality (U^H U = V^H V = I_p) to
    1e-12 before returning, so a violated invariant surfaces as
    ConvergenceFailure (kernel bug), never as silent data corruption.  Both
    checks go through norms_within, so each is decided by one Frobenius
    reduction of its whole residual, A - U S V^H or the stack
    [U^H U - I, V^H V - I], and decomposes only when that cannot decide.
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from None
    p = s.size
    phase = _phase_row(u)
    u, v = u * phase, vh.conj().T * phase
    if not norms_within(a - (u * s) @ v.conj().T, 1e-12 * max(1.0, float(s[0]))):
        raise ConvergenceFailure("SVD reconstruction check failed")
    gram = np.empty((2, p, p), dtype=complex)
    np.matmul(u.conj().T, u, out=gram[0])
    np.matmul(v.conj().T, v, out=gram[1])
    gram.reshape(2, -1)[:, ::p + 1] -= 1.0  # the diagonals: less I_p
    if not norms_within(gram, 1e-12):
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


def norms_within(a, limit) -> bool:
    """Whether ||A||_2 <= limit for one matrix, or for every matrix of a stack.

    The answer is the plain check's, not any(singular_values(a)[..., 0] >
    limit), but one Frobenius reduction of all of A (np.vdot) decides it
    where it can: it bounds every matrix's Frobenius norm, which bounds its
    2-norm.  A computed Frobenius norm and a computed largest singular value
    each lie within a few hundred units of rounding of their exact values at
    the sizes used here, so the Frobenius side carries a relative allowance
    NORM_ROUNDING = 1e-8 above that: a pass it decides is a pass of the
    plain check.  Only when it cannot decide is A decomposed.
    """
    a = np.asarray(a, dtype=complex)
    # an overflowing or NaN sum fails the test and leaves it to the plain check
    if math.sqrt(np.vdot(a, a).real) * (1 + NORM_ROUNDING) <= limit:
        return True
    return not np.any(singular_values(a)[..., 0] > limit)


def solve_with_norm(a: np.ndarray, rhs: np.ndarray, norm_a) -> tuple[np.ndarray, np.ndarray]:
    """Solve A X = B and run solve_linear's residual check with a given ||A||.

    A is one square matrix, with B a vector or a matrix of right-hand sides,
    or a stack (k, m, m) with B of shape (k, m, r) and norm_a one value per
    matrix.  norm_a is ||A||_2, typically the largest of the singular values
    that the singularity test already has, so the check needs no
    decomposition here; a lower bound on it gives a check that is never
    looser.  Returns X and, per system, whether every column passes
    ||A x - b|| <= 1e-10 (||A|| ||x|| + ||b||), the three column norms
    taken in one pass over the stack [A X - B, X, B].  A NaN, or an Inf in
    X or the residual, fails; a column whose norms or right side overflow
    is decided again on entries scaled by powers of two, as in norm2.  The
    caller has already ruled out a singular A.
    """
    x = np.linalg.solve(a, rhs)
    axis = -1 if rhs.ndim < a.ndim else -2
    norm_a = np.asarray(norm_a, dtype=float)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # decided below
        cols = np.stack([a @ x - rhs, x, rhs])
        res, norm_x, norm_rhs = np.linalg.norm(cols, axis=axis)
        tol = 1e-10 * (norm_a * norm_x + norm_rhs)
        passed = res <= tol
        redo = ~np.isfinite(res + tol)
        if redo.any():
            # columns times 2^-e, 2^e just above their largest part, as in
            # norm2: exact, and no square overflows; both sides meet at 2^top
            parts = np.moveaxis(cols, axis, -1).reshape((3, *redo.shape, -1))[:, redo].view(float)
            _, e = np.frexp(np.abs(parts).max(axis=-1))
            r, nx, nb = np.linalg.norm(np.ldexp(parts, -e[..., None]).view(complex), axis=-1)
            frac_a, e_a = np.frexp(np.broadcast_to(norm_a, redo.shape)[redo])
            top = np.maximum(np.maximum(e[0], e_a + e[1]), e[2])
            scaled_tol = np.ldexp(frac_a * nx, e_a + e[1] - top) + np.ldexp(nb, e[2] - top)
            passed[redo] = (np.isfinite(parts).all(axis=(0, -1))
                            & (np.ldexp(r, e[0] - top) <= 1e-10 * scaled_tol))
    return x, passed.all(axis=-1)


def solve_linear(m, b) -> np.ndarray:
    """Solve M X = B for square M that is not numerically singular.

    B is one right-hand side (a vector) or several (the columns of a matrix);
    the result has B's shape.  One set of singular values serves both the
    singularity test, which raises NearSingular when sigma_min <= 1e-14
    sigma_max, and the residual check of solve_with_norm, which raises
    ConvergenceFailure.  small_nep_solver.companion_eigs calls it for the
    shift-and-invert solve of the companion pencil.
    """
    a = as_matrix(m)
    rhs = as_vector(b) if np.ndim(b) == 1 else as_matrix(b)
    if a.shape[0] != a.shape[1] or a.shape[0] != rhs.shape[0]:
        raise ValueError("incompatible shapes in solve_linear")
    s = singular_values(a)
    if s[-1] <= 1e-14 * s[0]:
        raise NearSingular(f"sigma_min/sigma_max = {s[-1]:.3e}/{s[0]:.3e}")
    x, ok = solve_with_norm(a, rhs, s[0])
    if not ok:
        raise ConvergenceFailure("linear solve residual check failed")
    return x
