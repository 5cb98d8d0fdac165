"""Ritz-vector and refined-vector extraction at a selected eigenvalue.

The Ritz vector is the projected null vector W z; when the projected problem
has a multidimensional null space the choice of z is meaningless, so the
extraction returns one canonical vector but raises its nonuniqueness flag
rather than guessing.  The refined vector minimizes ||T(mu) v|| over unit
v in the subspace and comes from the smallest singular triplet of T(mu) W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense_kernels import UNIT_TOL, as_finite_scalar, as_matrix, as_unit_vector, svd
from .errors import NotAnEigenvalue
# unused here; perfbench's tracer test checks every layer's alias of eval_T
from .nep_model import eval_T  # noqa: F401
from .projection import Subspace

GEOM_MULT_TOL = 1e-8
RITZ_SIGMA_PRE = 1e-6


@dataclass(frozen=True, eq=False)
class RitzExtraction:
    """Output of the classical extraction at mu."""

    mu: complex
    z: np.ndarray               # unit m-vector, canonical null vector of B(mu)
    x_tilde: np.ndarray         # W z, unit n-vector
    residual_norm: float        # ||T(mu) W z|| / ||W z||
    geometric_multiplicity: int
    nonunique_flag: bool


@dataclass(frozen=True, eq=False)
class RefinedExtraction:
    """Output of the residual-minimizing extraction at mu.

    singular_values holds all singular values of T(mu) W ascending, so
    sigma_hats[0] = ||T(mu) x_hat|| and sigma_hats[-1] is the largest.  For a
    one-dimensional subspace there is no second singular value and the
    minimizer is trivially unique, so sigma_hat_2 is None and the gap
    certificate is granted.
    """

    mu: complex
    y: np.ndarray               # unit m-vector, smallest right singular vector
    x_hat: np.ndarray           # W y, unit n-vector
    sigma_hat_1: float
    sigma_hat_2: float | None
    sigma_hat_m: float
    singular_values: np.ndarray  # ascending
    s: np.ndarray               # left singular vector paired with sigma_hat_1
    gap_certificate: bool


def _product(tw, s: Subspace) -> np.ndarray:
    """tw as a matrix, checked to have the shape of T(mu) W rather than T(mu)."""
    tw = as_matrix(tw)
    if tw.shape != s.basis.shape:
        raise ValueError(f"tw must be T(mu) W, of shape {s.basis.shape}, not {tw.shape}")
    return tw


def ritz_vector(tw, b_mu, mu: complex, s: Subspace) -> RitzExtraction:
    """Extract the canonical Ritz vector at an eigenvalue mu of the projection.

    tw is T(mu) W and b_mu the projected B(mu) = W^H T(mu) W, formed by the
    caller, which needs them again for the refined vector and the bounds.
    Requires sigma_min(B(mu)) <= 1e-6 max(1, ||B(mu)||); z is the smallest
    right singular vector of B(mu) under the deterministic phase
    convention, and the geometric multiplicity counts singular values below
    GEOM_MULT_TOL * max(1, ||B(mu)||).  The residual is read from tw, the
    product refined_vector decomposes, so both residuals carry the same
    rounding: at m = 1 they are equal.  mu must be a finite number and b_mu
    m x m, or ValueError names the argument.
    """
    mu = as_finite_scalar(mu, "mu")
    b_mu = as_matrix(b_mu)
    if b_mu.shape != (s.dim, s.dim):
        raise ValueError(f"b_mu must be {s.dim} x {s.dim}, not {b_mu.shape}")
    dec = svd(b_mu)
    scale = max(1.0, dec.sigma_max)
    if dec.sigma_min > RITZ_SIGMA_PRE * scale:
        raise NotAnEigenvalue(
            f"sigma_min(B(mu)) = {dec.sigma_min:.3e} too large at mu = {mu}"
        )
    z = dec.right_vectors[:, -1]
    x_tilde = s.basis @ z
    gm = int(np.sum(dec.singular_values < GEOM_MULT_TOL * scale))
    gm = max(gm, 1)
    return RitzExtraction(
        mu=mu,
        z=z,
        x_tilde=x_tilde / np.linalg.norm(x_tilde),
        residual_norm=ritz_residual_for(tw, s, z),
        geometric_multiplicity=gm,
        nonunique_flag=gm > 1,
    )


def ritz_residual_for(tw, s: Subspace, z_custom) -> float:
    """||T(mu) W z|| / ||W z|| for a unit coefficient vector z; tw is T(mu) W.

    Lets experiments demonstrate how arbitrary the residual becomes when the
    projected null space has dimension > 1.  z_custom must have m entries.
    """
    z = as_unit_vector(z_custom, "z_custom")
    if z.size != s.dim:
        raise ValueError(f"z_custom must be of length m = {s.dim}, not {z.size}")
    return float(np.linalg.norm(_product(tw, s) @ z) / np.linalg.norm(s.basis @ z))


def refined_vector(tw, mu: complex, s: Subspace) -> RefinedExtraction:
    """Minimize ||T(mu) v|| over unit v in the subspace via the SVD of T(mu) W.

    tw is T(mu) W, formed by the caller.  Always well defined;
    near-nonuniqueness surfaces as a revoked gap certificate
    (sigma_hat_2 - sigma_hat_1 <= 1e-10) instead of an error.  A mu that is
    not a finite number raises ValueError.
    """
    mu = as_finite_scalar(mu, "mu")
    dec = svd(_product(tw, s))
    m = s.dim
    ascending = dec.singular_values[::-1].copy()
    y = dec.right_vectors[:, m - 1]
    x_hat = s.basis @ y
    x_hat = x_hat / np.linalg.norm(x_hat)
    left = dec.left_vectors[:, m - 1]
    sigma2 = float(ascending[1]) if m > 1 else None
    gap_ok = True if m == 1 else (sigma2 - float(ascending[0]) > 1e-10)
    return RefinedExtraction(
        mu=mu,
        y=y,
        x_hat=x_hat,
        sigma_hat_1=float(ascending[0]),
        sigma_hat_2=sigma2,
        sigma_hat_m=float(ascending[-1]),
        singular_values=ascending,
        s=left,
        gap_certificate=gap_ok,
    )


def sin_angle(a, b) -> float:
    """sin of the angle between two unit vectors, clamped to [0, 1].

    a and b must be unit to UNIT_TOL (dense_kernels.as_unit_vector), or
    ValueError names the one that is not.  The result is sqrt(1 - |a^H b|^2),
    evaluated through the projector form ||(I - a a^H) b||, which stays
    accurate when the vectors are nearly parallel (the direct form cancels
    catastrophically below angles of about 1e-8).  The two forms are
    cross-checked on their squares, where no cancellation amplification
    occurs.  With c = |a^H b|, in exact arithmetic the squares differ by

        ||b||^2 - 1  +  c^2 (||a||^2 - 1)  +  (c^2 - 1 when c > 1, the clamp),

    and for admitted vectors ||a|| and ||b|| are within u = UNIT_TOL of 1,
    so the first two terms are below 2u each and the clamp, with
    c <= ||a|| ||b||, below 4u: 8u to first order.  The check allows 10u;
    the last 2u cover the rounding of the two formulas, of order n units of
    roundoff (2u is about 2e4 of them).  So no admitted pair trips it, and a
    disagreement above 1e-11 between the two squares still raises.
    """
    av = as_unit_vector(a, "a")
    bv = as_unit_vector(b, "b")
    c = abs(np.vdot(av, bv))
    naive_sq = max(0.0, 1.0 - min(c, 1.0) ** 2)
    val = float(np.linalg.norm(bv - av * np.vdot(av, bv)))
    if abs(val**2 - naive_sq) > 10 * UNIT_TOL:
        raise RuntimeError("sin_angle cross-check failed")
    return min(max(val, 0.0), 1.0)
