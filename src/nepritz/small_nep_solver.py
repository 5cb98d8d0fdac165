"""Solve the projected problem B(lambda) z = 0 inside a region.

Rational problems are cleared to polynomial form (denominator product), the
polynomial problem is linearized to a block companion pencil, and every
candidate root is polished by a Newton-trace iteration and then filtered:
cluster-deduplication gives algebraic multiplicity, and candidates parked at
cleared poles or failing the sigma_min test are recorded as spurious, not
returned.  Problems with exponential terms skip linearization and run the
Newton iteration from a coarse grid of starting points instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .dense_kernels import singular_values, solve_linear
from .errors import (
    DimensionGuard,
    EmptySpectrum,
    NearSingular,
    NonConverged,
    PoleHit,
    UnsupportedTerm,
)
from .nep_model import Exponential, MatrixFunction, Polynomial, Rational, eval_T

PENCIL_DIM_MAX = 64
CLUSTER_RADIUS = 1e-8
SIGMA_ACCEPT = 1e-8
POLE_GUARD = 1e-8
# Newton starting points per side of the square grid over the region disc
GRID_DENSITY = 12


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of a projected problem found in a region.

    residuals[i] is sigma_min(B(eigenvalues[i])); multiplicities come from
    clustering refined roots at radius 1e-8 (companion modes) and are 1 in
    grid mode, where cluster size counts Newton seeds, not root multiplicity.
    """

    eigenvalues: list[complex]
    residuals: list[float]
    multiplicities: list[int]
    method: str
    filtered_spurious: list[complex] = field(default_factory=list)
    dropped_infinite: int = 0

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _monic(coeffs: np.ndarray) -> np.ndarray:
    return coeffs / coeffs[-1]


def polynomialize(b: MatrixFunction):
    """Clear rational denominators: return (C_0..C_d of P = q B, poles of q).

    q is the product of the distinct denominators (each used once), so for a
    purely polynomial input the transform is the identity with q = 1.  The
    construction is verified by comparing P against q*B at 20 sample points.
    """
    dens: list[np.ndarray] = []
    which_den: list[int | None] = []
    for fn, _ in b.terms:
        if isinstance(fn, Exponential):
            raise UnsupportedTerm("exponential terms cannot be polynomialized")
        if isinstance(fn, Rational):
            q = _monic(fn.denominator)
            for i, known in enumerate(dens):
                if known.size == q.size and np.allclose(known, q, atol=1e-12):
                    which_den.append(i)
                    break
            else:
                dens.append(q)
                which_den.append(len(dens) - 1)
        else:
            which_den.append(None)

    full = np.array([1.0 + 0.0j])
    for q in dens:
        full = npoly.polymul(full, q)
    cofactor = []
    for i in range(len(dens)):
        c = np.array([1.0 + 0.0j])
        for j, q in enumerate(dens):
            if j != i:
                c = npoly.polymul(c, q)
        cofactor.append(c)

    m = b.n
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    degree = 0
    for (fn, a), den_idx in zip(b.terms, which_den):
        if isinstance(fn, Polynomial):
            coeffs = npoly.polymul(fn.coefficients, full) if dens else fn.coefficients
        else:
            lead = fn.denominator[-1]
            coeffs = npoly.polymul(fn.numerator / lead, cofactor[den_idx])
        pieces.append((np.atleast_1d(coeffs), a))
        degree = max(degree, np.atleast_1d(coeffs).size - 1)

    out = [np.zeros((m, m), dtype=complex) for _ in range(degree + 1)]
    for coeffs, a in pieces:
        for k, c in enumerate(np.atleast_1d(coeffs)):
            if c != 0:
                out[k] = out[k] + c * a
    while len(out) > 1 and not np.any(out[-1]):
        out.pop()

    poles = [complex(r) for r in npoly.polyroots(full)] if full.size > 1 else []

    # sample check: P(lam) must match q(lam) B(lam) away from the poles, at
    # 20 points whose residual norms come from one batched call
    rng = np.random.default_rng(20240925)
    points: list[complex] = []
    while len(points) < 20:
        lam = complex(*rng.uniform(-1.5, 1.5, size=2))
        if all(abs(lam - p) >= 1e-3 for p in poles):
            points.append(lam)
    qvals = [complex(npoly.polyval(lam, full)) for lam in points]
    residuals = [sum(c * lam**k for k, c in enumerate(out)) - qval * eval_T(b, lam, 0)
                 for lam, qval in zip(points, qvals)]
    norms = singular_values(np.stack(residuals))[:, 0]
    scale = max(float(singular_values(np.stack(out))[:, 0].max()), 1e-300)
    if any(nrm > 1e-10 * scale * max(1.0, abs(qval)) for nrm, qval in zip(norms, qvals)):
        raise RuntimeError("polynomialize self-check failed")
    return out, poles


def companion_eigs(coeffs: list[np.ndarray]) -> list[complex]:
    """Finite eigenvalues of the block companion pencil of P(lambda).

    Infinite eigenvalues (singular leading block) are dropped; the caller can
    recover their count as d*m - len(result).
    """
    m = coeffs[0].shape[0]
    d = len(coeffs) - 1
    if d == 0:
        return []
    if d * m > PENCIL_DIM_MAX:
        raise DimensionGuard(f"pencil dimension {d * m} exceeds {PENCIL_DIM_MAX}")
    size = d * m
    a = np.zeros((size, size), dtype=complex)
    e = np.eye(size, dtype=complex)
    for k in range(d - 1):
        a[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m] = np.eye(m)
    for k in range(d):
        a[(d - 1) * m:, k * m:(k + 1) * m] = -coeffs[k]
    e[(d - 1) * m:, (d - 1) * m:] = coeffs[d]
    import scipy.linalg as sla  # deferred: the only scipy call in the package

    w = sla.eig(a, e, right=False)
    return [complex(z) for z in w if np.isfinite(z.real) and np.isfinite(z.imag)]


def newton_trace_refine(
    b: MatrixFunction, lam0: complex, max_iter: int = 50, tol: float = 1e-10
) -> complex:
    """Polish a root of det B via lam <- lam - 1/trace(B(lam)^-1 B'(lam)).

    Each step takes one solve_linear(B(lam), B'(lam)) with B' as a matrix of
    right-hand sides.  Stops as soon as sigma_min(B(lam)) <= tol *
    max(1, ||B(lam)||), testing the start and each of the max_iter iterates;
    raises NonConverged when the last of them fails, and propagates PoleHit
    if an iterate lands on a pole.
    """
    lam = complex(lam0)
    for step in range(max_iter + 1):
        bk = eval_T(b, lam, 0)
        s = singular_values(bk)
        if s[-1] <= tol * max(1.0, s[0]):
            return lam
        if step == max_iter:
            break
        try:
            x = solve_linear(bk, eval_T(b, lam, 1))
        except NearSingular:
            # numerically singular but above the sigma target: no usable step
            raise NonConverged(f"B({lam}) is singular but off-target") from None
        tr = complex(sum(np.diagonal(x)))
        if abs(tr) < 1e-300:
            raise NonConverged("vanishing trace; stationary point of det B")
        lam = lam - 1.0 / tr
    raise NonConverged(f"no convergence after {max_iter} Newton steps (from {lam0})")


def _grid_seeds(center: complex, radius: float) -> list[complex]:
    ticks = np.linspace(-radius, radius, GRID_DENSITY)
    seeds = [center + complex(x, y) for x in ticks for y in ticks]
    return [z for z in seeds if abs(z - center) <= radius]


def solve_projected(
    b: MatrixFunction, region_center: complex, region_radius: float
) -> SpectrumResult:
    """Find the eigenvalues of B inside a closed disc.

    Pipeline: polynomialize -> companion -> in-region filter -> Newton polish
    -> dedupe (algebraic multiplicity = cluster size) -> spurious filter
    (sigma_min test and pole proximity).  An empty result is a valid outcome.
    """
    center = complex(region_center)
    radius = float(region_radius)
    if radius <= 0:
        raise ValueError("region radius must be positive")
    for p in b.domain_poles:
        if abs(abs(p - center) - radius) <= POLE_GUARD:
            raise ValueError(f"pole {p} lies on the region boundary")

    dropped = 0
    try:
        coeffs, poles = polynomialize(b)
        d = len(coeffs) - 1
        raw = companion_eigs(coeffs)
        dropped = d * b.n - len(raw)
        method = (
            "companion-rationalized" if poles else "companion-polynomial"
        )
    except UnsupportedTerm:
        raw = _grid_seeds(center, radius)
        poles = list(b.domain_poles)
        method = "newton-only"

    spurious: list[complex] = []
    polished: list[complex] = []
    for z in raw:
        if abs(z - center) > radius * (1 + 1e-12):
            continue
        try:
            r = newton_trace_refine(b, z)
        except (NonConverged, PoleHit):
            spurious.append(z)
            continue
        if abs(r - center) > radius * (1 + 1e-6):
            spurious.append(r)
            continue
        polished.append(r)

    polished.sort(key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in polished:
        if clusters and abs(z - np.mean(clusters[-1])) <= CLUSTER_RADIUS:
            clusters[-1].append(z)
        else:
            clusters.append([z])

    eigenvalues: list[complex] = []
    residuals: list[float] = []
    multiplicities: list[int] = []
    for group in clusters:
        z = complex(np.mean(group))
        if any(abs(z - p) <= POLE_GUARD for p in poles):
            spurious.append(z)
            continue
        s = singular_values(eval_T(b, z, 0))
        if s[-1] > SIGMA_ACCEPT * max(1.0, s[0]):
            spurious.append(z)
            continue
        eigenvalues.append(z)
        residuals.append(float(s[-1]))
        multiplicities.append(len(group) if method != "newton-only" else 1)

    order = sorted(range(len(eigenvalues)),
                   key=lambda i: (abs(eigenvalues[i]), np.angle(eigenvalues[i])))
    return SpectrumResult(
        eigenvalues=[eigenvalues[i] for i in order],
        residuals=[residuals[i] for i in order],
        multiplicities=[multiplicities[i] for i in order],
        method=method,
        filtered_spurious=spurious,
        dropped_infinite=max(dropped, 0),
    )


def select_ritz_value(
    spec: SpectrumResult,
    lambda_star: complex | None = None,
    target: complex | None = None,
) -> complex:
    """Pick the approximation from a spectrum.

    Oracle mode (lambda_star given) minimizes the distance to the known
    eigenvalue; target mode minimizes the distance to a user shift.  Exact
    ties resolve to smaller |value|, then smaller argument.
    """
    if (lambda_star is None) == (target is None):
        raise ValueError("give exactly one of lambda_star (oracle) or target")
    if not spec.eigenvalues:
        raise EmptySpectrum("projected problem has no eigenvalue in the region")
    ref = complex(lambda_star if lambda_star is not None else target)
    return min(spec.eigenvalues, key=lambda z: (abs(z - ref), abs(z), np.angle(z)))
