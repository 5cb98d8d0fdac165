"""Solve the projected problem B(lambda) z = 0 inside a region.

Rational problems are cleared to polynomial form (denominator product), the
polynomial problem is linearized to a block companion pencil A - lambda E,
whose finite eigenvalues come from shift-and-invert: the eigenvalues theta of
(A - sigma E)^-1 E give lambda = sigma + 1/theta for a fixed shift sigma.  An
eigenvalue more than 1e13 times farther from the shift than the one nearest
it counts as infinite, and a singular pencil (det P identically zero)
raises.  Every candidate root is polished by a Newton-trace iteration and
then filtered: cluster-deduplication gives algebraic multiplicity, and
cluster means parked at cleared poles or failing the sigma_min test are
recorded as spurious, not returned.  The sigma_min test of all off-pole
means is one stacked evaluation and one stacked SVD.  Problems with
exponential terms skip linearization and run the Newton iteration from a
coarse grid of starting points instead.  Either way, all starts of a solve
are polished in lockstep: each Newton step is one stacked evaluation, one
stacked SVD and one stacked solve over the starts still running, and each
start ends exactly as a lone run from it would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .dense_kernels import near_singular, singular_values, solve_linear, solve_with_svals
from .errors import (
    ConvergenceFailure,
    DimensionGuard,
    EmptySpectrum,
    NearSingular,
    NonConverged,
    PoleHit,
    UnsupportedTerm,
)
# eval_T is unused here; perfbench's tracer test checks every layer's alias of it
from .nep_model import (  # noqa: F401
    Exponential,
    MatrixFunction,
    Polynomial,
    Rational,
    eval_T,
    eval_T_many,
)

PENCIL_DIM_MAX = 64
CLUSTER_RADIUS = 1e-8
SIGMA_ACCEPT = 1e-8
POLE_GUARD = 1e-8
# Newton starting points per side of the square grid over the region disc
GRID_DENSITY = 12
# shifts sigma of the companion solve, tried in order until A - sigma E is
# nonsingular; fixed, so a pencil always gets the same eigenvalues
COMPANION_SHIFTS = (0.1235 + 0.0988j, -0.2713 + 0.1921j, 0.0649 - 0.3377j)
# theta = 1/(lambda - sigma) with |theta| <= INFINITE_CUT * max |theta| is an
# infinite eigenvalue of the pencil
INFINITE_CUT = 1e-13


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
            q = fn.denominator / fn.denominator[-1]  # monic
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
    # 20 points evaluated as one stack on each side
    rng = np.random.default_rng(20240925)
    points: list[complex] = []
    while len(points) < 20:
        lam = complex(*rng.uniform(-1.5, 1.5, size=2))
        if all(abs(lam - p) >= 1e-3 for p in poles):
            points.append(lam)
    lams = np.array(points)
    qvals = npoly.polyval(lams, full)
    stacked = np.stack(out)
    p_vals = np.tensordot(npoly.polyvander(lams, len(out) - 1), stacked, axes=1)
    norms = singular_values(p_vals - qvals[:, None, None] * eval_T_many(b, lams, 0))[:, 0]
    scale = max(float(singular_values(stacked)[:, 0].max()), 1e-300)
    if np.any(norms > 1e-10 * scale * np.maximum(1.0, np.abs(qvals))):
        raise RuntimeError("polynomialize self-check failed")
    return out, poles


def companion_eigs(coeffs: list[np.ndarray]) -> list[complex]:
    """Finite eigenvalues of the block companion pencil A - lambda E of P(lambda).

    Shift-and-invert: for the first shift sigma of COMPANION_SHIFTS with
    A - sigma E nonsingular, the eigenvalues theta of (A - sigma E)^-1 E give
    lambda = sigma + 1/theta.  An eigenvalue more than 1/INFINITE_CUT = 1e13
    times farther from sigma than the one nearest it counts as infinite and is
    dropped (a singular leading block gives such eigenvalues); the caller can
    recover their count as d*m - len(result).  Raises NearSingular if
    A - sigma E is singular at every shift: the pencil is singular (det P
    vanishes identically) and has no well-defined eigenvalues.
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
    for sigma in COMPANION_SHIFTS:
        try:
            x = solve_linear(a - sigma * e, e)
        except NearSingular:
            continue
        theta = np.linalg.eigvals(x)
        finite = np.abs(theta) > INFINITE_CUT * np.abs(theta).max()
        return [sigma + 1.0 / t for t in theta[finite].tolist()]
    raise NearSingular("singular pencil: det P(lambda) vanishes identically")


def newton_trace_refine(
    b: MatrixFunction, starts: list[complex], max_iter: int = 50, tol: float = 1e-10
) -> list[complex | NonConverged | PoleHit]:
    """Polish roots of det B via lam <- lam - 1/trace(B(lam)^-1 B'(lam)).

    All starts advance in lockstep.  Each iteration takes one stacked
    evaluation of B at the active iterates and one stacked singular-value
    call for the stop test sigma_min(B(lam)) <= tol * max(1, ||B(lam)||);
    then, for the iterates that go on, one stacked evaluation of B' and one
    stacked solve of B X = B', whose singularity test and residual check
    reuse those singular values.  Each start keeps the rules of a lone run:
    it stops at the first of its start and max_iter iterates that passes the
    test, and gets NonConverged when the last one fails, when B is singular
    but off-target, or when the trace vanishes, and PoleHit when an iterate
    lands on a pole.  The update divides Python complex scalars, since numpy's
    vectorized complex division can differ in the last bit, so a start's
    outcome does not depend on the starts that share its stack.

    Returns one outcome per start, in order: the root, or the NonConverged
    or PoleHit instance.  A non-finite B or B' (ValueError) or a failed
    residual check (ConvergenceFailure) is raised, for the first start that
    meets one.
    """
    first = np.array([complex(z) for z in starts], dtype=complex)
    lams = first.copy()
    out: list = [None] * lams.size
    idx = np.arange(lams.size)
    for step in range(max_iter + 1):
        if not idx.size:
            break
        bk, idx = _eval_at_iterates(b, lams, idx, out)
        bad = ~np.isfinite(bk).all(axis=(1, 2))
        for i in idx[bad]:
            out[i] = ValueError(f"B({lams[i]}) has NaN/Inf entries")
        bk, idx = bk[~bad], idx[~bad]
        if not idx.size:
            break
        s = singular_values(bk)
        done = s[:, -1] <= tol * np.maximum(1.0, s[:, 0])
        for i, lam in zip(idx[done], lams[idx[done]].tolist()):
            out[i] = lam
        if step == max_iter:
            for i in idx[~done]:
                out[i] = NonConverged(
                    f"no convergence after {max_iter} Newton steps (from {first[i]})")
            break
        bk, s, idx = bk[~done], s[~done], idx[~done]
        if not idx.size:
            break
        dk = eval_T_many(b, lams[idx], 1)
        # a lone run checks B' for NaN/Inf before B for singularity
        bad = ~np.isfinite(dk).all(axis=(1, 2))
        singular = near_singular(s) & ~bad
        for i in idx[bad]:
            out[i] = ValueError(f"B'({lams[i]}) has NaN/Inf entries")
        for i in idx[singular]:
            # numerically singular but above the sigma target: no usable step
            out[i] = NonConverged(f"B({lams[i]}) is singular but off-target")
        go = ~(bad | singular)
        x, ok = solve_with_svals(bk[go], dk[go], s[go])
        idx = idx[go]
        for i in idx[~ok]:
            out[i] = ConvergenceFailure("linear solve residual check failed")
        # sum(np.diagonal(x)) of a lone run, term by term from 0
        diag = np.diagonal(x[ok], axis1=1, axis2=2)
        tr = np.zeros(diag.shape[0], dtype=complex)
        for k in range(diag.shape[1]):
            tr = tr + diag[:, k]
        idx, moved = idx[ok], []
        for i, lam, t in zip(idx.tolist(), lams[idx].tolist(), tr.tolist()):
            if abs(t) < 1e-300:
                out[i] = NonConverged("vanishing trace; stationary point of det B")
            else:
                lams[i] = lam - 1.0 / t
                moved.append(i)
        idx = np.array(moved, dtype=int)
    for o in out:
        if isinstance(o, (ValueError, ConvergenceFailure)):
            raise o
    return out


def _eval_at_iterates(b: MatrixFunction, lams: np.ndarray, idx: np.ndarray, out: list):
    """One stacked B at lams[i] for i in idx, and the indices it covers.

    An iterate on a pole gets PoleHit in out: the stack then is rebuilt one
    point at a time to find which iterate it was.
    """
    try:
        return eval_T_many(b, lams[idx], 0), idx
    except PoleHit:
        pass
    kept, mats = [], [np.zeros((0, b.n, b.n), dtype=complex)]
    for i in idx:
        try:
            mats.append(eval_T_many(b, [lams[i]], 0))
        except PoleHit as exc:
            out[i] = exc
        else:
            kept.append(i)
    return np.concatenate(mats), np.array(kept, dtype=int)


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
    inside = [z for z in raw if abs(z - center) <= radius * (1 + 1e-12)]
    for z, r in zip(inside, newton_trace_refine(b, inside)):
        if isinstance(r, (NonConverged, PoleHit)):
            spurious.append(z)
        elif abs(r - center) > radius * (1 + 1e-6):
            spurious.append(r)
        else:
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
    means = [complex(np.mean(group)) for group in clusters]
    guarded = [any(abs(z - p) <= POLE_GUARD for p in poles) for z in means]
    off_pole = [z for z, g in zip(means, guarded) if not g]
    svals = iter(singular_values(eval_T_many(b, off_pole, 0)) if off_pole else ())
    for group, z, g in zip(clusters, means, guarded):
        s = None if g else next(svals)
        if g or s[-1] > SIGMA_ACCEPT * max(1.0, s[0]):
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
        dropped_infinite=dropped,
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
