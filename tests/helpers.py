"""Shared oracles for the test suite.

These deliberately re-derive quantities through routes independent of the
library code they check: plain single-pass Gram-Schmidt, power iteration,
permanent-style determinant expansion, quotient-rule differentiation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
