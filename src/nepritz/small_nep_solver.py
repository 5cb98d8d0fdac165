"""Solve the projected problem B(lambda) z = 0 inside a region.

Rational problems are cleared to polynomial form (denominator product), the
polynomial problem is linearized to a block companion pencil A - lambda E,
whose finite eigenvalues come from shift-and-invert: the eigenvalues theta of
(A - sigma E)^-1 E give lambda = sigma + 1/theta for a fixed shift sigma.  An
eigenvalue more than 1e13 times farther from the shift than the one nearest
it counts as infinite, and a singular pencil (det P identically zero)
raises.  Every candidate root is polished by a Newton-trace iteration and
then filtered: cluster-deduplication gives algebraic multiplicity, and
cluster means parked at a pole of B (b.domain_poles) or failing the
sigma_min test are recorded as spurious, not returned.  The sigma_min test
of a one-root cluster reads the singular values that its Newton stop test
computed at that root; the other off-pole means are one stacked evaluation
and one stacked SVD.  The term classes choose the path: a problem with an
exponential term skips linearization and runs the Newton iteration from a
coarse grid of starting points instead.  Either way, all starts of a solve
are polished in lockstep: each Newton step is one stacked evaluation and
one stacked solve over the starts still running, and each start ends
exactly as a lone run from it would: at a root, or as NonConverged (no
root in NEWTON_MAX_ITER steps, a non-finite B or B', a vanishing trace)
or PoleHit, ending only its own start.  The stop test of a step is
screened: a batched LU determinant certifies, through sigma_min >=
|det B| / ||B||_F^(m-1), the iterates far from a root, and only the others
get the stacked SVD that decides it exactly (screen_stop_test).  An
iterate that fails it is not singular by the solve's test, so none is run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .dense_kernels import (
    NORM_ROUNDING,
    as_finite_scalar,
    as_length,
    norms_within,
    singular_values,
    solve_linear,
    solve_with_norm,
)
from .errors import (
    ConvergenceFailure,
    DimensionGuard,
    EmptySpectrum,
    NearSingular,
    NonConverged,
    PoleHit,
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
# a cluster mean within POLE_GUARD of a pole of B is spurious
POLE_GUARD = 1e-8
# Newton starting points per side of the square grid over the region disc
GRID_DENSITY = 12
# a Newton run stops at the first iterate with sigma_min(B) <= NEWTON_TOL
# max(1, ||B||_2), and fails after NEWTON_MAX_ITER steps
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-10
# shifts sigma of the companion solve, tried in order until A - sigma E is
# nonsingular; fixed, so a pencil always gets the same eigenvalues
COMPANION_SHIFTS = (0.1235 + 0.0988j, -0.2713 + 0.1921j, 0.0649 - 0.3377j)
# theta = 1/(lambda - sigma) with |theta| <= INFINITE_CUT * max |theta| is an
# infinite eigenvalue of the pencil
INFINITE_CUT = 1e-13


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of a projected problem found in a region.

    residuals[i] is sigma_min(B(eigenvalues[i])): for a cluster of one root
    the value the Newton stop test computed at that root, which is the
    eigenvalue bit for bit, and for a larger cluster that of B at its mean,
    decomposed once more.  Multiplicities come from
    clustering refined roots at radius 1e-8 (companion modes) and are 1 in
    grid mode, where cluster size counts Newton seeds, not root multiplicity.
    """

    eigenvalues: list[complex]
    residuals: list[float]
    multiplicities: list[int]
    method: str
    filtered_spurious: list[complex] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.eigenvalues)


# polynomialize's candidate sample points: the first 64 draws of one seeded
# stream, uniform in [-1.5, 1.5]^2.  They lie at least 0.042 apart, so a pole
# rules out at most one of them at the 1e-3 offset, and a B with at most 44
# distinct poles keeps 20.
_CHECK_CANDIDATES = np.random.default_rng(20240925).uniform(
    -1.5, 1.5, size=(64, 2)).view(complex).ravel()


def polynomialize(b: MatrixFunction) -> list[np.ndarray]:
    """Clear rational denominators: return C_0..C_d of P = q B.

    q is the product of the distinct denominators (each used once), so for a
    purely polynomial input the transform is the identity with q = 1.  An
    exponential term raises ValueError.  The construction is verified by
    comparing P against q*B at 20 sample points, the first 20 of
    _CHECK_CANDIDATES that lie 1e-3 or more off every pole in b.domain_poles:
    ||P - q B||_2 / max(1, |q|) <= 1e-10 max_k ||C_k||_F (1 - NORM_ROUNDING)
    / sqrt(m) at each, in one dense_kernels.norms_within call.  An m x m C_k
    has at most m nonzero singular values, so that is <= 1e-10 max_k ||C_k||_2.
    """
    dens: list[np.ndarray] = []
    which_den: list[int | None] = []
    for fn, _ in b.terms:
        if isinstance(fn, Exponential):
            raise ValueError("exponential terms cannot be polynomialized")
        if isinstance(fn, Rational):
            q = fn.denominator / fn.denominator[-1]  # monic
            for i, known in enumerate(dens):
                if known.size == q.size and np.allclose(known, q, rtol=0, atol=1e-12):
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

    # sample check: P(lam) must match q(lam) B(lam) away from the poles, at
    # 20 points evaluated as one stack on each side
    off_poles = np.abs(_CHECK_CANDIDATES[:, None] - np.asarray(b.domain_poles, dtype=complex))
    lams = _CHECK_CANDIDATES[(off_poles >= 1e-3).all(axis=1)][:20]
    qvals = npoly.polyval(lams, full)
    stacked = np.stack(out)
    p_vals = np.tensordot(npoly.polyvander(lams, len(out) - 1), stacked, axes=1)
    residual = p_vals - qvals[:, None, None] * eval_T_many(b, lams, 0)
    residual /= np.maximum(1.0, np.abs(qvals))[:, None, None]
    scale = np.linalg.norm(stacked, axis=(-2, -1)).max() * (1 - NORM_ROUNDING) / math.sqrt(m)
    if not norms_within(residual, 1e-10 * scale):
        raise RuntimeError("polynomialize self-check failed")
    return out


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


def screen_stop_test(bk: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a square stack certainly fail the Newton stop test, from one LU each.

    The stop test is s[-1] <= tol * max(1, s[0]) on the computed singular
    values s of B, for a tol > 0.  A row this screen returns as True fails
    it, so it needs no decomposition.  Returns the mask and the Frobenius
    norms F = ||B||_F, which bound ||B||_2 from above and F / sqrt(m) from
    below.

    The certificate: |det B| = prod_i sigma_i <= sigma_min F^(m-1), so
    sigma_min >= |det B| / F^(m-1), and np.linalg.slogdet gives log |det B|
    from one LU.  Its rounding is bounded as follows.
    - LAPACK's getrf factors B + dB exactly, with
      |dB| <= gamma_4m |L||U| (Higham, Accuracy and Stability, Thm 9.3;
      gamma_k = k u / (1 - k u), u = 2^-53, and 4m covers complex
      arithmetic).  It pivots on |Re| + |Im|, so |l_ij| <= sqrt 2 and
      |u_ij| <= (1 + sqrt 2)^(m-1) max |b_ij|, and
      ||dB||_F <= sqrt 2 m^2 (1 + sqrt 2)^(m-1) gamma_4m F.
    - The computed singular values that the exact test reads are those of
      B + E, with ||E|| below the same bound (the SVD is backward stable
      with a smaller constant).
    - With eta = 2 sqrt 2 m^2 (1 + sqrt 2)^(m-1) gamma_4m covering both,
      Weyl's inequality gives s[-1] >= |det(B + dB)| / ||B + dB||_F^(m-1)
      - eta F, and ||B + dB||_F <= (1 + eta) F.
    - The threshold tol max(1, s[0]) is at most (1 + eta) C with
      C = tol max(1, F), and eta F <= (eta / tol) C.
    So a row whose computed |det B| / F^(m-1) exceeds M C with the margin
    M = 2 (1 + eta)^m (1 + eta / tol) fails the test: the factor 2 leaves
    room for the relative rounding of the logarithms and of F, below 1e-12.
    M is about 2.0 for m = 3, 2.4 for m = 6 and 5.7e4 for m = 16 at
    tol = 1e-10.  The test runs on logarithms, so no determinant overflows;
    a singular B (log |det B| = -inf), B = 0 and m = 1 need no special
    arithmetic, and a singular or zero B, or one whose F overflows or
    underflows to 0, is never screened out.
    """
    # a -inf or NaN log |det B| (a subnormal B's LU may divide by zero) and an
    # overflowing F only keep B on the exact path
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logdet = np.linalg.slogdet(bk)[1]
        fro = np.linalg.norm(bk, axis=(-2, -1))
    ok = np.isfinite(logdet) & np.isfinite(fro) & (fro > 0)
    log_fro = np.log(np.where(ok, fro, 1.0))
    log_margin, log_tol = _log_screen_margin(bk.shape[-1], tol), math.log(tol)
    # log(|det B| / F^(m-1)) > log(M C), both sides less log F
    far = ok & (logdet - bk.shape[-1] * log_fro
                > log_margin + np.maximum(log_tol, log_tol - log_fro))
    return far, fro


@functools.lru_cache(maxsize=None)
def _log_screen_margin(m: int, tol: float) -> float:
    """log M of screen_stop_test for m x m matrices and this tol."""
    u = np.finfo(float).eps / 2
    gamma = 4 * m * u / (1 - 4 * m * u)
    log_eta = math.log(2 * math.sqrt(2) * m * m * gamma) + (m - 1) * math.log(1 + math.sqrt(2))
    # log(1 + e^x) as logaddexp(0, x), so a huge eta cannot overflow
    return float(math.log(2.0) + m * np.logaddexp(0.0, log_eta)
                 + np.logaddexp(0.0, log_eta - math.log(tol)))


def newton_trace_refine(
    b: MatrixFunction, starts: list[complex]
) -> tuple[list[complex | NonConverged | PoleHit], list[np.ndarray | None]]:
    """Polish roots of det B via lam <- lam - 1/trace(B(lam)^-1 B'(lam)).

    All starts advance in lockstep.  Each iteration takes one stacked
    evaluation of B at the active iterates and decides the stop test
    sigma_min(B(lam)) <= NEWTON_TOL * max(1, ||B(lam)||_2) on them.  The
    test is screened first: screen_stop_test rules out, from one batched LU
    determinant and one Frobenius norm per iterate, the iterates that
    certainly fail it, and only the rest (those near a root) get the
    stacked singular-value call that decides it exactly.  Then, for the
    iterates that go on, one stacked evaluation of B' and one stacked solve
    of B X = B'.  Its residual check reads ||B||: the largest singular value
    where the test computed them, else the lower bound ||B||_F / sqrt(m),
    which makes the check never looser; an iterate that fails it with the
    bound is checked again with its exact ||B||_2.  The solve needs no
    singularity test: an iterate failing the stop test, screened or not,
    fails solve_linear's s[-1] <= 1e-14 s[0] on the same computed s.  As
    1e-14 <= NEWTON_TOL (doubles), 1e-14 s[0] <= NEWTON_TOL max(1, s[0]) for
    finite s[0] >= 0, and rounding is monotone; so too for tol nu(lam) with
    nu(lam) = sum_i |f_i(lam)| ||W^H A_i W|| >= ||B(lam)||.  Each start
    keeps the rules of a lone run: it stops at the first of its start and
    NEWTON_MAX_ITER iterates that passes the test, and gets NonConverged
    when the last one fails, when B or B' has a NaN or Inf entry (named
    with the iterate, and numpy does not warn), or when the trace vanishes,
    and PoleHit when an iterate lands on a pole.  The update divides Python
    complex scalars, since numpy's vectorized complex division can differ
    in the last bit, so a start's outcome does not depend on the starts
    that share its stack.  The active set is re-indexed only on a step
    where a start leaves it.

    Returns one outcome per start, in order: the root, or the NonConverged
    or PoleHit instance; and, per start, the singular values of B at its
    root that the passing stop test computed (None where there is no root).
    A failed residual check (a kernel fault) raises ConvergenceFailure at once.
    """
    max_iter, tol = NEWTON_MAX_ITER, NEWTON_TOL
    first = np.array([complex(z) for z in starts], dtype=complex)
    lams = first.copy()
    out: list = [None] * lams.size
    stop_svals: list = [None] * lams.size
    idx = np.arange(lams.size)
    for step in range(max_iter + 1):
        if not idx.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            bk, idx = _eval_at_iterates(b, lams, idx, out)
        bad = ~np.isfinite(bk).all(axis=(1, 2))
        if bad.any():
            for i in idx[bad]:
                out[i] = NonConverged(f"B has NaN/Inf entries at {lams[i]}")
            bk, idx = bk[~bad], idx[~bad]
        if not idx.size:
            break
        far, fro = screen_stop_test(bk, tol)
        near = ~far
        if far.all():
            s = np.empty((0, b.n))
        else:
            s = singular_values(bk[near] if far.any() else bk)
        done = np.zeros(idx.size, dtype=bool)
        done[near] = s[:, -1] <= tol * np.maximum(1.0, s[:, 0])
        norm_b = fro * ((1 - NORM_ROUNDING) / math.sqrt(b.n))
        norm_b[near] = s[:, 0]
        if done.any():
            for i, lam, sv in zip(idx[done], lams[idx[done]].tolist(), s[done[near]]):
                out[i], stop_svals[i] = lam, sv
        if step == max_iter:
            for i in idx[~done]:
                out[i] = NonConverged(
                    f"no convergence after {max_iter} Newton steps (from {first[i]})")
            break
        if done.any():
            bk, idx, far, norm_b = bk[~done], idx[~done], far[~done], norm_b[~done]
            if not idx.size:
                break
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            dk = eval_T_many(b, lams[idx], 1)
        bad = ~np.isfinite(dk).all(axis=(1, 2))
        if bad.any():
            for i in idx[bad]:
                out[i] = NonConverged(f"B' has NaN/Inf entries at {lams[i]}")
            bk, dk, far, norm_b, idx = bk[~bad], dk[~bad], far[~bad], norm_b[~bad], idx[~bad]
        x, ok = solve_with_norm(bk, dk, norm_b)
        again = far & ~ok
        if again.any():
            ok[again] = solve_with_norm(
                bk[again], dk[again], singular_values(bk[again])[:, 0])[1]
        if not ok.all():
            raise ConvergenceFailure("linear solve residual check failed")
        # sum(np.diagonal(x)) of a lone run, term by term from 0
        diag = np.diagonal(x, axis1=1, axis2=2)
        tr = np.zeros(diag.shape[0], dtype=complex)
        for k in range(diag.shape[1]):
            tr = tr + diag[:, k]
        moved = []
        for i, lam, t in zip(idx.tolist(), lams[idx].tolist(), tr.tolist()):
            if abs(t) < 1e-300:
                out[i] = NonConverged("vanishing trace; stationary point of det B")
            else:
                lams[i] = lam - 1.0 / t
                moved.append(i)
        idx = np.array(moved, dtype=int)
    return out, stop_svals


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
    grid = np.empty((GRID_DENSITY, GRID_DENSITY), dtype=complex)
    grid.real, grid.imag = ticks[:, None], ticks[None, :]
    seeds = center + grid.ravel()
    off = seeds - center
    return seeds[np.hypot(off.real, off.imag) <= radius].tolist()


def _clusters(roots: list[complex]) -> list[list[complex]]:
    """Group sorted roots: each joins the last cluster when within CLUSTER_RADIUS of its mean.

    The mean is a running sum over the cluster size, which can round away
    from np.mean's only for a root within rounding of the radius.
    """
    clusters: list[list[complex]] = []
    total = 0j  # sum of the last cluster
    for z in roots:
        if clusters and abs(z - total / len(clusters[-1])) <= CLUSTER_RADIUS:
            clusters[-1].append(z)
            total += z
        else:
            clusters.append([z])
            total = z
    return clusters


def solve_projected(
    b: MatrixFunction, region_center: complex, region_radius: float
) -> SpectrumResult:
    """Find the eigenvalues of B inside a closed disc.

    Starts: a grid over the disc if B has an exponential term, else the
    companion eigenvalues of polynomialize(b).  Then in-region filter ->
    Newton polish -> dedupe (algebraic multiplicity = cluster size) ->
    spurious filter (sigma_min test and b.domain_poles; a start that ends
    as NonConverged, as at a non-finite B or B', or as PoleHit is spurious
    and the others go on).  An empty result is valid; a non-finite
    region_center or a region_radius outside (0, inf) raises ValueError.
    While a pole of B lies within 1e-6 of the rim, the radius shrinks by
    0.97, at most 64 times; a pole still on the rim after that raises
    ValueError.
    """
    center = as_finite_scalar(region_center, "region_center")
    radius = as_length(region_radius, "region_radius")
    for shrinks in range(65):
        if all(abs(abs(p - center) - radius) > 1e-6 for p in b.domain_poles):
            break
        if shrinks == 64:
            raise ValueError(f"a pole of B is within 1e-6 of the rim at radius {radius:g}, "
                             "after 64 shrinks")
        radius *= 0.97

    if any(isinstance(fn, Exponential) for fn, _ in b.terms):
        raw = _grid_seeds(center, radius)
        method = "newton-only"
    else:
        coeffs = polynomialize(b)
        raw = companion_eigs(coeffs)
        method = "companion-rationalized" if b.domain_poles else "companion-polynomial"

    spurious: list[complex] = []
    polished: list[complex] = []
    stop_svals: dict[complex, np.ndarray] = {}
    inside = [z for z in raw if abs(z - center) <= radius * (1 + 1e-12)]
    for z, r, sv in zip(inside, *newton_trace_refine(b, inside)):
        if isinstance(r, (NonConverged, PoleHit)):
            spurious.append(z)
        elif abs(r - center) > radius * (1 + 1e-6):
            spurious.append(r)
        else:
            polished.append(r)
            stop_svals[r] = sv

    polished.sort(key=lambda z: (z.real, z.imag))
    clusters = _clusters(polished)

    # one (eigenvalue, residual, multiplicity) record per accepted cluster
    found: list[tuple[complex, float, int]] = []
    # a one-member cluster's mean is its root, and the stop test has B's
    # singular values there; only the other means are averaged and decomposed
    means = [group[0] if len(group) == 1 else complex(np.mean(group)) for group in clusters]
    guarded = [any(abs(z - p) <= POLE_GUARD for p in b.domain_poles) for z in means]
    fresh = [z for z, group, g in zip(means, clusters, guarded) if not g and len(group) > 1]
    svals = iter(singular_values(eval_T_many(b, fresh, 0)) if fresh else ())
    for group, z, g in zip(clusters, means, guarded):
        s = None if g else stop_svals[z] if len(group) == 1 else next(svals)
        if g or s[-1] > SIGMA_ACCEPT * max(1.0, s[0]):
            spurious.append(z)
            continue
        found.append((z, float(s[-1]), len(group) if method != "newton-only" else 1))

    found.sort(key=lambda rec: (abs(rec[0]), np.angle(rec[0])))
    return SpectrumResult(
        eigenvalues=[z for z, _, _ in found],
        residuals=[r for _, r, _ in found],
        multiplicities=[k for _, _, k in found],
        method=method,
        filtered_spurious=spurious,
    )


def select_ritz_value(spec: SpectrumResult, point: complex) -> complex:
    """The eigenvalue of spec nearest to point.

    point is the known eigenvalue in oracle mode and a user shift in target
    mode, and must be finite.  Exact ties resolve to smaller |value|, then
    smaller argument.
    """
    ref = as_finite_scalar(point, "point")
    if not spec.eigenvalues:
        raise EmptySpectrum("projected problem has no eigenvalue in the region")
    return min(spec.eigenvalues, key=lambda z: (abs(z - ref), abs(z), np.angle(z)))
