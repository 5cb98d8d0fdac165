"""Shared oracles for the test suite.

These deliberately re-derive quantities through routes independent of the
library code they check: plain single-pass Gram-Schmidt, power iteration,
permanent-style determinant expansion, quotient-rule differentiation.
adversarial_case is the exception: a seeded case generator built on the
library's own problem and subspace constructors.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from nepritz.errors import NotAnEigenvalue
from nepritz.experiments import build_subspace_eps
from nepritz.nep_model import (
    Exponential,
    MatrixFunction,
    Polynomial,
    Rational,
    ReferencePair,
    eval_T,
)


def complex_randn(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def seeded_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(complex_randn(rng, n, n))
    return q


def qr_complement(x: np.ndarray) -> np.ndarray:
    """n x (n-1) orthonormal basis of the complement of x, from LAPACK's complete QR."""
    q, _ = np.linalg.qr(np.asarray(x, dtype=complex).reshape(-1, 1), mode="complete")
    return q[:, 1:]


def jordan_block_order(m: np.ndarray, mu: complex) -> int:
    """Size of the largest Jordan block of mu, by the rank staircase.

    Ranks of (M - mu I)^k are counted with singular-value threshold
    1e-8 * max(1, ||M - mu I||)^k, the norm being the largest of the k = 1
    singular values; the answer is the largest k at which the rank still
    drops.  The k = 1 rank test doubles as the eigenvalue check: computed
    eigenvalues of a defective matrix scatter like eps^(1/k) and would
    reject exact Jordan blocks, while sigma_min(M - mu I) stays at eps.
    """
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    shifted = a - complex(mu) * np.eye(n)
    power = shifted
    s = np.linalg.svd(shifted, compute_uv=False)
    base = max(1.0, float(s[0]))
    rank_prev = n
    largest = 0
    for k in range(1, n + 1):
        if k > 1:
            power = power @ shifted
            s = np.linalg.svd(power, compute_uv=False)
        rank_k = int(np.sum(s > 1e-8 * base**k))
        if rank_k < rank_prev:
            largest = k
            rank_prev = rank_k
        else:
            break
    if largest == 0:
        raise NotAnEigenvalue(f"{mu} is not an eigenvalue (rank never dropped)")
    return largest


def mgs_oracle(m: np.ndarray) -> np.ndarray:
    """Textbook single-pass modified Gram-Schmidt."""
    a = np.array(m, dtype=complex)
    n, k = a.shape
    q = np.zeros((n, k), dtype=complex)
    for j in range(k):
        v = a[:, j].copy()
        for i in range(j):
            v -= q[:, i] * (np.conj(q[:, i]) @ v)
        q[:, j] = v / np.linalg.norm(v)
    return q


def power_iteration_norm(a: np.ndarray, seed: int = 0, iters: int = 5000) -> float:
    """Operator 2-norm via power iteration on A^H A."""
    rng = np.random.default_rng(seed)
    v = complex_randn(rng, a.shape[1])
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(iters):
        w = a.conj().T @ (a @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        est = math.sqrt(nrm)
        if abs(est - last) <= 1e-13 * max(est, 1.0):
            return est
        last = est
    return last


def det_poly_coeffs(coeff_mats: list[np.ndarray]) -> np.ndarray:
    """Coefficients (ascending) of det(P(lambda)) by permutation expansion.

    Exact for any m but only sane for m <= 4; entries of P are the
    polynomials stacked across the coefficient matrices.
    """
    m = coeff_mats[0].shape[0]
    entry = {
        (i, j): np.array([c[i, j] for c in coeff_mats], dtype=complex)
        for i in range(m) for j in range(m)
    }
    total = np.zeros(1, dtype=complex)
    for perm in itertools.permutations(range(m)):
        sign = 1
        seen = list(perm)
        # parity via inversion count
        inv = sum(
            1 for i in range(m) for j in range(i + 1, m) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = np.array([1.0 + 0j])
        for i in range(m):
            prod = np.convolve(prod, entry[(i, perm[i])])
        width = max(total.size, prod.size)
        padded = np.zeros(width, dtype=complex)
        padded[: total.size] = total
        padded[: prod.size] += sign * prod
        total = padded
    return total


def poly_roots_ascending(coeffs: np.ndarray) -> list[complex]:
    """Roots of a polynomial given ascending coefficients."""
    c = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(np.abs(c) > 1e-12 * np.max(np.abs(c)))[0]
    c = c[: nz[-1] + 1]
    if c.size <= 1:
        return []
    return [complex(r) for r in np.polynomial.polynomial.polyroots(c)]


def match_point_sets(a: list[complex], b: list[complex], tol: float) -> bool:
    """Greedy nearest matching; True when every point pairs within tol."""
    if len(a) != len(b):
        return False
    rem = list(b)
    for z in a:
        best = min(range(len(rem)), key=lambda i: abs(rem[i] - z))
        if abs(rem[best] - z) > tol * max(1.0, abs(z)):
            return False
        rem.pop(best)
    return True


def quotient_rule_derivative(p: np.ndarray, q: np.ndarray, lam: complex) -> complex:
    """(p/q)'(lam) = (q p' - p q') / q^2 via direct evaluation."""
    from numpy.polynomial import polynomial as npoly

    pv = npoly.polyval(lam, p)
    qv = npoly.polyval(lam, q)
    pd = npoly.polyval(lam, npoly.polyder(p))
    qd = npoly.polyval(lam, npoly.polyder(q))
    return complex((qv * pd - pv * qd) / qv**2)


def adversarial_case(seed: int):
    """(t, ref, s): a seeded draw near the edges of the bounds' hypotheses.

    T(lam) = A - lam I + eta lam^2 C, plus on half the draws a rational term
    eta d D / (lam - p) whose pole p lies a distance d in [1e-2, 1] from
    lambda*; C and D are random with 2-norm 1.  A = V diag(l*, l* + delta,
    ...) V^-1 puts a second eigenvalue delta in [1e-6, 1e-1] from lambda*,
    with cond(V) in [1, 1e4], and the others 0.2 to 2 away.  n is 4 to 9,
    m is 2 to n - 1, eta lies in [1e-3, 1] and eps in [1e-8, 1e-2], each
    log-uniform where it spans decades.  lambda* is planted as
    random_planted_nep plants it: the constant term takes the rank-one
    correction that makes x* = V e_1 / ||V e_1|| an exact eigenvector.  The
    basis is build_subspace_eps(x*, m, eps, seed).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    m = int(rng.integers(2, n))
    lam = complex(*rng.uniform(-0.5, 0.5, 2))
    delta, cond, eta, eps = 10.0 ** rng.uniform([-6, 0, -3, -8], [-1, 4, 0, -2])
    u, _ = np.linalg.qr(complex_randn(rng, n, n))
    q, _ = np.linalg.qr(complex_randn(rng, n, n))
    v = u @ np.diag(np.logspace(0.0, -math.log10(cond), n)) @ q
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    spread = np.concatenate([[0.0, delta], rng.uniform(0.2, 2.0, n - 2)])
    a = v @ np.diag(lam + spread * phases) @ np.linalg.inv(v)
    quad = complex_randn(rng, n, n)
    terms = [(Polynomial([1]), a), (Polynomial([0, 1]), -np.eye(n)),
             (Polynomial([0, 0, 1]), eta * quad / np.linalg.norm(quad, 2))]
    if rng.uniform() < 0.5:
        dist = 10.0 ** rng.uniform(-2, 0)
        pole = lam + dist * np.exp(2j * np.pi * rng.uniform())
        rat = complex_randn(rng, n, n)
        terms.append((Rational([1.0], [-pole, 1.0]), eta * dist * rat / np.linalg.norm(rat, 2)))
    x = v[:, 0] / np.linalg.norm(v[:, 0])
    defect = eval_T(MatrixFunction.from_terms(terms), lam, 0) @ x
    terms[0] = (Polynomial([1]), a - np.outer(defect, x.conj()))
    t = MatrixFunction.from_terms(terms)
    ref = ReferencePair(lam, x)
    ref.validate(t)
    return t, ref, build_subspace_eps(x, m, eps, seed)


def seeded_delay_problem(a: float, seed: int):
    """(t, ref): T(lam) = A0 + lam A1 + e^(a lam) A2 at n = 5 with the planted pair (0, x).

    A0, A1 and A2 are (randn + i randn) / sqrt(5), drawn in that order from
    default_rng(seed), then x = randn(5) normalized; A0 takes the rank-one
    correction -(T(0) x) x^H, so T(0) x = 0.  A large |a| sends Newton
    starts of the projected problem where e^(a lam) overflows.
    """
    rng = np.random.default_rng(seed)
    a0, a1, a2 = ((rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / math.sqrt(5)
                  for _ in range(3))
    x = rng.standard_normal(5)
    x = x / np.linalg.norm(x)
    terms = [(Polynomial([1]), a0), (Polynomial([0, 1]), a1), (Exponential(a), a2)]
    defect = eval_T(MatrixFunction.from_terms(terms), 0.0, 0) @ x
    terms[0] = (Polynomial([1]), a0 - np.outer(defect, x.conj()))
    t = MatrixFunction.from_terms(terms)
    ref = ReferencePair(0.0, x)
    ref.validate(t)
    return t, ref
