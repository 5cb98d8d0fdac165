"""Numerical evaluation of both sides of every error bound, with receipts.

Every evaluator returns one or more BoundReport objects carrying the measured
left side, the bound's right side, every intermediate constant, the slack
that was allowed, and a pass/fail verdict.  Constants the theory only
asserts to exist (the remainder bounds gamma and beta, the derivative floor
alpha) are estimated by disc sampling -- maxima get a 1.5x safety factor,
minima none -- and the estimates are recorded so a report can be audited
from its serialized form alone.

Every bound is a formula over a few quantities of one case: the split
x* = W u + x_out with eps = ||x_out||, W^H T(l*) and the singular values of
T(l*), ||T'(l*)||, ||T(mu)||, the projected function B at l* and mu, the
complement function L = X_perp^H T X_perp at l* and mu, and the remainder
constants gamma, beta, gamma_B.  build_case_context derives each of them
once into a frozen CaseContext, the one place a product with the basis W is
formed, and the evaluators read them from there; none takes the subspace.
Those of the target alone sit in the context's target, T's TargetValues,
shared by every case of one target.  A test that needs hand-picked
constants applies dataclasses.replace to a built context (or to its
target).  What only one bound reads, that bound builds itself:
perturbation_norm_bound forms the rank-one perturbation witness E(l*), and
ritz_value_bound takes the sigma_min profile of B along the ray from l* to
mu.

Hypothesis violations raise HypothesisFailed (or a sibling of
InapplicableBound); suite runners catch those and record the bound as
inapplicable rather than failed.  Every bound that reads a remainder
constant has the hypothesis that mu lies in the disc about lambda_star on
which the constant was sampled (CaseContext.radius).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dense_kernels import (
    as_finite_scalar, as_length, as_unit_vector, complement_compress, norm2, singular_values)
from .errors import DegenerateDeviation, DegenerateRatio, DegenerateSigma, HypothesisFailed
from .extraction import RefinedExtraction, RitzExtraction
from .nep_model import MatrixFunction, TargetValues, eval_T, eval_T_many, taylor_remainder_const
from .projection import Subspace

DEFAULT_FLOOR = 1e-12
SANDWICH_ABS_SLACK = 1e-8
IDENTITY_TOL = 1e-8
RATE_REL_SLACK = 0.05
# decay-cascade threshold of the derivative-order detection
TAU_DERIV = 1e-2
# mu with |mu - l*| below this coincides with lambda_star: the rate bound is
# a trivial 0 <= 0 and needs no derivative profile
MU_AT_LAMBDA_TOL = 1e-13

# highest derivative order of the sigma_min profile behind the rate bound
PROFILE_MAX_ORDER = 3
# central stencils of second-order accuracy: order -> {offset: coefficient}
_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}


@dataclass(frozen=True)
class BoundReport:
    """One inequality: lhs <= rhs * (1 + slack_allowance) + slack_floor."""

    theorem_id: str
    lhs: float
    rhs: float
    holds: bool
    slack_allowance: float
    intermediates: dict[str, float] = field(default_factory=dict)

    @property
    def margin(self) -> float:
        floor = self.intermediates.get("slack_floor", 0.0)
        return self.rhs * (1.0 + self.slack_allowance) + floor - self.lhs


def _report(theorem_id, lhs, rhs, rel_slack, floor, inter) -> BoundReport:
    inter = {k: float(v) for k, v in inter.items()}
    inter["slack_floor"] = float(floor)
    holds = float(lhs) <= float(rhs) * (1.0 + float(rel_slack)) + float(floor)
    return BoundReport(
        theorem_id=theorem_id,
        lhs=float(lhs),
        rhs=float(rhs),
        holds=bool(holds),
        slack_allowance=float(rel_slack),
        intermediates=inter,
    )


# ---------------------------------------------------------------------------
# derivative profile of sigma_min(B(.)) along a ray
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeProfile:
    """Finite-difference estimates of d^j/dt^j sigma_min(B(l* + t d)) at t=0.

    Estimates whose magnitude does not clear 5x the rounding-noise floor of
    their stencil are unreliable and excluded from order detection.
    The vanishing order m makes derivatives below it decay like
    |g^(j)| = O(r^(m-j)) with r the disc radius, so detected_m_mu is the
    smallest reliable j >= 1 that breaks the decay cascade:
    |g^(j)| > r |g^(j+1)| / (TAU_DERIV (j+1)).  Normalizing by the largest
    derivative instead would misdetect whenever another eigenvalue of B sits
    within a few hundred r of the center, where high orders are genuinely
    huge; None when no reliable signature exists (rate machinery
    inapplicable).

    sigma_min profiles are taken along a one-dimensional ray: for complex
    arguments sigma_min is only real-analytic along real-parametrized paths,
    so the detected order is direction-dependent by construction.
    """

    h: float
    estimates: list[float]            # index j = 0..PROFILE_MAX_ORDER
    detected_m_mu: int | None
    alpha_estimate: float | None      # min |g^(m)| over the sampled disc


def sigma_min_profile(
    b: MatrixFunction,
    lambda_star: complex,
    direction: complex = 1.0,
    *,
    disc_radius: float,
) -> DerivativeProfile:
    """Profile sigma_min(B(lambda)) derivatives up to PROFILE_MAX_ORDER at lambda_star along a ray.

    disc_radius is the radius of the disc over which the detected-order
    derivative is minimized to estimate alpha (callers pass |mu - l*|).  The
    step max(1e-3, disc_radius/10) is clamped so no stencil point crosses
    the singular dip at distance disc_radius, where sigma_min kinks and
    finite differences turn meaningless.

    B is evaluated at the distinct stencil offsets as one eval_T_many stack
    with one batched singular-value call: the offset-0 singular values give
    sigma_min(B(lambda_star)), and the largest sigma_max over the offsets
    sets the rounding-noise scale.  The alpha estimate takes the stencil
    points of all 24 disc samples (6 on each of 4 rings) as one more stack
    and one more call.

    A non-finite lambda_star or direction, a zero direction, or a
    disc_radius outside (0, inf) raises ValueError before B is evaluated.
    """
    lam0 = as_finite_scalar(lambda_star, "lambda_star")
    d = as_finite_scalar(direction, "direction")
    if d == 0:
        raise ValueError("direction must be nonzero")
    disc_radius = as_length(disc_radius, "disc_radius")
    d = d / abs(d)
    hw = max(_STENCILS[PROFILE_MAX_ORDER])  # the widest stencil
    h = min(max(1e-3, disc_radius / 10.0), disc_radius / (2.0 * (hw + 1)))

    orders = range(0, PROFILE_MAX_ORDER + 1)
    offsets = sorted({o for j in orders for o in _STENCILS[j]})
    svals = dict(zip(offsets, singular_values(
        eval_T_many(b, [lam0 + (o * h) * d for o in offsets], 0))))
    s0 = svals[0]
    if s0[-1] <= 1e-13:
        raise DegenerateSigma(
            "sigma_min(B(lambda_star)) vanishes; singular values are not "
            "differentiable at zero, rate machinery inapplicable"
        )

    ests = [sum(c * float(svals[o][-1]) for o, c in _STENCILS[j].items()) / h**j
            for j in orders]
    eps_g = 2e-15 * max(1.0, *(float(sv[0]) for sv in svals.values()))
    floors = [eps_g * sum(abs(c) for c in _STENCILS[j].values()) / h**j for j in orders]
    reliable = [j == 0 or abs(ests[j]) > 5.0 * floors[j] for j in orders]

    detected = None
    for j in range(1, PROFILE_MAX_ORDER + 1):
        if not reliable[j]:
            continue
        nxt = abs(ests[j + 1]) if j + 1 <= PROFILE_MAX_ORDER and reliable[j + 1] else 0.0
        if abs(ests[j]) > disc_radius * nxt / (TAU_DERIV * (j + 1)):
            detected = j
            break

    alpha = None
    if detected is not None:
        samples = [abs(ests[detected])]
        stencil = _STENCILS[detected]
        centers = [lam0 + disc_radius * frac * d * np.exp(2j * np.pi * k / 6)
                   for frac in (0.2, 0.4, 0.6, 0.8) for k in range(6)]
        disc = singular_values(eval_T_many(
            b, [center + o * h * d for center in centers for o in stencil], 0))
        for vals in disc[:, -1].reshape(len(centers), len(stencil)).tolist():
            est = sum(c * v for c, v in zip(stencil.values(), vals)) / h**detected
            samples.append(abs(est))
        alpha = float(min(samples))

    return DerivativeProfile(
        h=float(h),
        estimates=[float(e) for e in ests],
        detected_m_mu=detected,
        alpha_estimate=alpha,
    )


# ---------------------------------------------------------------------------
# per-case context: every quantity at lambda_star and mu, derived once
# ---------------------------------------------------------------------------

def remainder_radius(t: MatrixFunction, lambda_star: complex, mu: complex) -> float:
    """Sampling radius for Taylor-remainder estimation around lambda_star.

    Covers the segment to mu with headroom but stays clear of any pole.  A
    non-finite lambda_star or mu raises ValueError.
    """
    lam = as_finite_scalar(lambda_star, "lambda_star")
    mu = as_finite_scalar(mu, "mu")
    r = max(2.0 * abs(mu - lam), 1e-3)
    if t.domain_poles:
        dist = min(abs(p - lam) for p in t.domain_poles)
        r = min(r, 0.45 * dist)
    if r <= 0:
        raise HypothesisFailed("no pole-free disc around lambda_star")
    return r


@dataclass(frozen=True, eq=False)
class CaseContext:
    """The quantities every bound is a formula over, for one case.

    A case has two read-only parts.  target, T's TargetValues at (l*, x*),
    holds what depends on the target alone and is one object, held by
    reference, for every case of that target; the other fields belong to
    the subspace and mu.  T is the full function and the only one
    evaluated.  x_star is split once into W u + x_out with u = W^H x_star,
    and eps = ||x_out|| is its deviation from the subspace.  B = W^H T W is
    read off T's matrices: B(l*) = (W^H T(l*)) W and B(mu) = W^H (T(mu) W).
    L = X_perp^H T X_perp, the compression against the complement of
    x_star, is never formed as a function: L(l*), L'(l*) and L(mu) are the
    reflector blocks (dense_kernels.complement_compress) of T(l*), T'(l*)
    and T(mu).  B and L are linear images of T, so gamma, beta and gamma_b,
    the sampled remainder constants of T, L and B, come from one pass over
    T's remainder directions.  W, u, x_out, W^H T(l*), B(l*), T(mu) W and
    B(mu) are kept whole because the perturbation witness, the angle
    sandwich and the Ritz and refined extractions read them too; both
    extractions read the one T(mu) W, so their residuals share its
    rounding.  mu is kept for the rate bound, which profiles B along the ray
    from lambda_star to mu, and so is the radius of the disc about
    lambda_star on which the remainder constants were sampled: a bound that
    reads them needs mu in it (require_mu_in_disc).
    """

    target: TargetValues
    mu: complex
    w: np.ndarray               # the subspace's basis W, n x m
    u: np.ndarray               # W^H x_star
    x_out: np.ndarray           # x_star - W u
    eps: float                  # ||x_out||, the deviation of x_star from the subspace
    wh_t_star: np.ndarray       # W^H T(l*), m x n
    tw: np.ndarray              # T(mu) W
    norm_T_mu: float            # ||T(mu)||
    b_star: np.ndarray          # B(l*)
    b_star_svals: np.ndarray    # singular values of B(l*), descending
    b_mu: np.ndarray            # B(mu)
    sigma_min_L_mu: float       # sigma_min(L(mu))
    radius: float               # of the disc about l* that gamma, beta, gamma_b cover
    gamma: float
    beta: float
    gamma_b: float

    @property
    def mu_dist(self) -> float:
        """r = |mu - lambda_star|."""
        return abs(self.mu - self.target.lambda_star)

    def require_mu_in_disc(self) -> None:
        """HypothesisFailed unless mu lies in the disc the remainder constants cover."""
        if self.mu_dist > self.radius:
            raise HypothesisFailed(
                f"r = {self.mu_dist:.6g} exceeds the remainder disc's radius "
                f"{self.radius:.6g}; gamma, beta and gamma_B do not cover mu")

    @property
    def eps_cos(self) -> float:
        """sqrt(1 - eps^2), the cosine of the angle of x_star to the subspace."""
        return math.sqrt(1.0 - self.eps**2)

    @property
    def eps_ratio(self) -> float:
        """eps/sqrt(1-eps^2); times ||T(l*)|| it bounds ||E(l*)||, sigma_min(B(l*))."""
        return self.eps / self.eps_cos

    @property
    def norm_B_star(self) -> float:
        return float(self.b_star_svals[0])

    @property
    def sigma_min_B_star(self) -> float:
        return float(self.b_star_svals[-1])


def build_case_context(
    t: MatrixFunction, s: Subspace, x_star, lambda_star: complex, mu: complex,
) -> CaseContext:
    """Derive eps, T, B and L at lambda_star and mu, and the remainder constants, once.

    x_star must be unit (dense_kernels.as_unit_vector); its split W u + x_out
    and eps = min(||x_out||, 1) are formed as projection.deviation forms them.
    Only T is evaluated.  The context's target is the object
    t.target_values returns, measured on a target's first case and shared
    by every later one, and taylor_remainder_const gets L's map paired with
    its complement_norms, so with one nonlinear term beta reads them and
    only gamma_b takes a 2-norm per case.  With more, T keeps its last
    remainder sampling, keyed by lambda_star and the radius, in which that
    complement_norms array names L's map; remainder_radius's floor gives a
    target's cases with mu near lambda_star one radius, so each of them
    after the first reads gamma and beta from it and takes gamma_b's norms
    alone.  Per case, T(mu) alone (bit-equal to its slice of any
    eval_T_many stack) gives ||T(mu)|| and sigma_min(L(mu)).  W^H T(l*),
    B(l*) and B(mu) are compressed from T(l*) and T(mu) with s.basis, as
    gamma_b compresses T's remainder directions.  The witness, the angle
    sandwich and the extractions read them from the context.
    """
    lam, mu = complex(lambda_star), complex(mu)
    x = as_unit_vector(x_star, "x_star")
    w = s.basis
    wh = w.conj().T
    u = wh @ x
    x_out = x - w @ u
    radius = remainder_radius(t, lam, mu)
    target = t.target_values(lam, x)
    gamma, beta, gamma_b = taylor_remainder_const(
        t, lam, radius, (lambda d: complement_compress(x, d), target.complement_norms),
        lambda d: wh @ d @ w)
    t_mu = eval_T(t, mu, 0)
    tw = t_mu @ w
    wh_t_star = wh @ target.t_star
    b_star = wh_t_star @ w
    return CaseContext(
        target=target,
        mu=mu,
        w=w,
        u=u,
        x_out=x_out,
        eps=min(float(np.linalg.norm(x_out)), 1.0),
        wh_t_star=wh_t_star,
        tw=tw,
        norm_T_mu=float(singular_values(t_mu)[0]),
        b_star=b_star,
        b_star_svals=singular_values(b_star),
        b_mu=wh @ tw,
        sigma_min_L_mu=float(singular_values(complement_compress(x, t_mu))[-1]),
        radius=radius,
        gamma=gamma,
        beta=beta,
        gamma_b=gamma_b,
    )


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------

def perturbation_norm_bound(ctx: CaseContext) -> BoundReport:
    """||E(l*)|| <= eps/sqrt(1-eps^2) ||T(l*)|| for the rank-one witness E.

    E(l*) makes lambda_star an exact eigenvalue of the perturbed projected
    problem.  With the context's split x* = W u + x_out and u_hat =
    u / sqrt(1 - eps^2), E(l*) = (W^H T(l*) x_out) u_hat^H / sqrt(1 - eps^2),
    so that (B(l*) + E(l*)) u_hat = 0, since B(l*) u = W^H T(l*) W u.  Only
    x_out is formed, never a basis of the orthogonal complement.  Both facts
    are checked on construction, and a failed check is a construction bug
    (RuntimeError), not an inapplicable bound; x* numerically orthogonal to
    the subspace raises DegenerateDeviation.
    """
    if ctx.eps >= 1.0 - 1e-10:
        raise DegenerateDeviation("x_star is numerically orthogonal to the subspace")
    denom = ctx.eps_cos
    u_hat = ctx.u / denom
    e_star = (ctx.wh_t_star @ ctx.x_out)[:, None] @ u_hat.conj()[None, :] / denom
    # the absolute term covers the B(l*) = 0 edge where rounding scales with ||T||
    tol = 1e-10 * ctx.norm_B_star + 1e-13 * ctx.target.norm_T_star
    if np.linalg.norm((ctx.b_star + e_star) @ u_hat) > tol:
        raise RuntimeError("witness does not annihilate u_hat; construction bug")
    norm_e = norm2(e_star)
    rhs = ctx.eps_ratio * ctx.target.norm_T_star
    if norm_e > rhs + 1e-12:
        raise RuntimeError("witness norm exceeds its guaranteed bound")
    return _report(
        "perturbation_norm", norm_e, rhs, 1e-10, DEFAULT_FLOOR,
        {"epsilon": ctx.eps, "norm_T_star": ctx.target.norm_T_star},
    )


def projected_sigma_bound(ctx: CaseContext) -> BoundReport:
    """sigma_min(B(l*)) <= eps/sqrt(1-eps^2) ||T(l*)||."""
    rhs = ctx.eps_ratio * ctx.target.norm_T_star
    return _report(
        "projected_sigma_min", ctx.sigma_min_B_star, rhs, 1e-10, DEFAULT_FLOOR,
        {"epsilon": ctx.eps, "norm_T_star": ctx.target.norm_T_star},
    )


def ritz_value_bound(ctx: CaseContext, b: MatrixFunction) -> BoundReport:
    """|mu - l*| <= (eps/sqrt(1-eps^2) * m! / alpha * ||T(l*)||)^(1/m).

    b is the projected function B.  m and alpha come from its
    sigma_min_profile along the ray from lambda_star to mu, over the disc
    of radius |mu - l*|; when mu coincides with lambda_star the bound is a
    trivial 0 <= 0 and B is not profiled.
    """
    r, t_norm, eps = ctx.mu_dist, ctx.target.norm_T_star, ctx.eps
    if r < MU_AT_LAMBDA_TOL:
        return _report(
            "ritz_value_rate", r, 0.0, 0.0, DEFAULT_FLOOR,
            {"epsilon": eps, "norm_T_star": t_norm, "m_mu": 0, "alpha": 0.0},
        )
    lam = ctx.target.lambda_star
    profile = sigma_min_profile(b, lam, direction=(ctx.mu - lam) / r, disc_radius=r)
    m = profile.detected_m_mu
    if m is None:
        raise DegenerateSigma("no usable derivative signature at lambda_star")
    alpha = profile.alpha_estimate
    if alpha <= 0.0:
        raise DegenerateSigma("derivative floor alpha vanished over the disc")
    rhs = (ctx.eps_ratio * math.factorial(m) / alpha * t_norm) ** (1.0 / m)
    return _report(
        "ritz_value_rate", r, rhs, RATE_REL_SLACK, DEFAULT_FLOOR,
        {"epsilon": eps, "norm_T_star": t_norm, "m_mu": m, "alpha": alpha,
         "profile_h": profile.h},
    )


def residual_angle_bound(
    ctx: CaseContext,
    sin_candidate: float,
    rho: float,
    *,
    theorem_id: str,
) -> BoundReport:
    """sin(angle(x*, candidate)) <= (rho + ||T'(l*)|| |mu-l*|) / sigma_min(L(mu)).

    sin_candidate is the measured left side, sin(angle(x*, candidate)) for
    the extracted vector whose residual is rho; the caller computes it once
    per case.  The theory drops an O(|mu-l*|^2) term from the numerator; the
    slack term 10 gamma |mu-l*|^2 / sigma_min(L(mu)) absorbs it, gamma being
    the sampled remainder bound, which must cover mu (hypothesis).
    """
    sig_l = ctx.sigma_min_L_mu
    if sig_l <= 1e-12:
        raise HypothesisFailed("sigma_min(L(mu)) is not positive")
    ctx.require_mu_in_disc()
    r, tprime, gamma = ctx.mu_dist, ctx.target.norm_T_prime, ctx.gamma
    rhs = (rho + tprime * r) / sig_l
    rel = 10.0 * gamma * r**2 / (sig_l * max(rhs, 1e-30))
    return _report(
        theorem_id, sin_candidate, rhs, rel, DEFAULT_FLOOR,
        {"rho": rho, "norm_T_prime": tprime, "mu_dist": r,
         "sigma_min_L_mu": sig_l, "gamma": gamma},
    )


def ritz_complements(ctx: CaseContext, z) -> tuple[np.ndarray, np.ndarray] | None:
    """C(l*) and C(mu) as one stack, with their singular values.

    C is B compressed against the complement of the Ritz coefficient
    vector z; B(l*) and B(mu) are one complement_compress stack and one
    batched singular-value call.  None when m < 2, where z has no
    complement.
    """
    if ctx.b_star.shape[0] < 2:
        return None
    c = complement_compress(z, np.stack([ctx.b_star, ctx.b_mu]))
    return c, singular_values(c)


def ritz_vector_angle_bound(
    ctx: CaseContext,
    ritz: RitzExtraction,
    sin_ritz: float,
    complements: tuple[np.ndarray, np.ndarray] | None,
) -> BoundReport:
    """A-priori angle bound for a *simple* extracted vector.

    sin(angle(x*, x~)) <= (1 + ||T(l*)||/(sqrt(1-eps^2) sigma_min(C(l*)))) eps
                          + ||T'(l*)|| |mu-l*| / sigma_min(C(l*)),
    with C(l*) the compression of B(l*) against the complement of z, read
    from complements (ritz_complements).  sin_ritz is the measured left side,
    sin(angle(x*, x~)).  The dropped quadratic term is absorbed by a
    gamma_b-scaled slack, gamma_b being the remainder constant of the
    projected function, which must cover mu (hypothesis).
    """
    if ritz.geometric_multiplicity > 1:
        raise HypothesisFailed(
            f"extracted value has geometric multiplicity "
            f"{ritz.geometric_multiplicity}; vector not unique"
        )
    if complements is None:
        raise HypothesisFailed("one-dimensional projection has no complement block")
    sig_c = float(complements[1][0, -1])
    if sig_c <= 1e-12:
        raise HypothesisFailed("sigma_min(C(lambda_star)) is not positive")
    ctx.require_mu_in_disc()
    r, eps = ctx.mu_dist, ctx.eps
    t_norm, tprime = ctx.target.norm_T_star, ctx.target.norm_T_prime
    rhs = (1.0 + t_norm / (ctx.eps_cos * sig_c)) * eps + tprime * r / sig_c
    rel = 10.0 * ctx.gamma_b * r**2 / (sig_c * max(rhs, 1e-30))
    return _report(
        "ritz_vector_angle", sin_ritz, rhs, rel, DEFAULT_FLOOR,
        {"epsilon": eps, "norm_T_star": t_norm, "norm_T_prime": tprime,
         "mu_dist": r, "sigma_min_C_star": sig_c, "gamma_B": ctx.gamma_b},
    )


def refined_bounds(
    ctx: CaseContext, refined: RefinedExtraction, sin_refined: float,
) -> list[BoundReport]:
    """Residual and angle bounds for the refined vector.

    Residual:  sigma_hat_1 <= (||T(mu)|| eps + ||T'(l*)|| r + gamma r^2)
                               / sqrt(1 - eps^2)
    Angle:     sin(angle(x*, x^)) <= the same numerator divided additionally
               by the certified lower estimate
               sigma_min(L(l*)) - ||L'(l*)|| r - beta r^2,
    which must be positive, and gamma and beta must cover mu (hypotheses,
    checked in that order).  sin_refined is the measured
    sin(angle(x*, x^)).  The angle chain additionally needs
    a ||T(mu) x*||-sized term the stated bound folds away; the slack
    (||T'(l*)|| r + 10 gamma r^2) / lower-estimate absorbs it.
    """
    r, gamma, beta, eps, tv = ctx.mu_dist, ctx.gamma, ctx.beta, ctx.eps, ctx.target
    denom = ctx.eps_cos
    lower_est = tv.sigma_min_L_star - tv.norm_L_prime * r - beta * r**2
    if lower_est <= 0.0:
        raise HypothesisFailed(
            "sigma_min(L(l*)) - ||L'(l*)|| r - beta r^2 <= 0; refined-vector "
            "hypothesis fails at this distance"
        )
    ctx.require_mu_in_disc()
    tprime = tv.norm_T_prime
    numerator = ctx.norm_T_mu * eps + tprime * r + gamma * r**2
    inter = {
        "epsilon": eps, "mu_dist": r, "norm_T_mu": ctx.norm_T_mu,
        "norm_T_prime": tprime, "gamma": gamma, "beta": beta,
        "sigma_min_L_star": tv.sigma_min_L_star, "norm_L_prime": tv.norm_L_prime,
        "sigma_min_L_lower_est": lower_est,
    }
    residual_report = _report(
        "refined_residual", refined.sigma_hat_1, numerator / denom,
        1e-8, DEFAULT_FLOOR, inter,
    )
    rhs_angle = numerator / (denom * lower_est)
    ang_rel = (tprime * r + 10.0 * gamma * r**2) / (lower_est * max(rhs_angle, 1e-30))
    angle_report = _report(
        "refined_angle", sin_refined, rhs_angle,
        ang_rel, DEFAULT_FLOOR, inter,
    )
    return [residual_report, angle_report]


def refined_uniqueness_check(ctx: CaseContext, refined: RefinedExtraction) -> BoundReport:
    """Certify simplicity of the refined minimizer when the hypotheses hold.

    Hypotheses: sigma_hat_1 < sigma_2(T(l*))/2 - ||T'(l*)|| r  and
    sigma_2(T(l*)) > 2 gamma r^2.  When they hold the singular gap obeys
    sigma_hat_2 - sigma_hat_1 >= sigma_2(T(l*))/2 - gamma r^2 > 0, which is
    the reported inequality (predicted gap on the left, measured gap on the
    right).  Failed hypotheses make the check vacuous, never failed; mu
    outside the remainder disc makes it inapplicable.
    """
    ctx.require_mu_in_disc()
    r, tprime, gamma = ctx.mu_dist, ctx.target.norm_T_prime, ctx.gamma
    svals = ctx.target.t_star_svals
    sigma2 = float(svals[-2]) if svals.size >= 2 else float(svals[-1])
    hyp1 = refined.sigma_hat_1 < 0.5 * sigma2 - tprime * r
    hyp2 = sigma2 > 2.0 * gamma * r**2
    # the simplicity condition on sigma_min(T(mu)) alone
    simple_cond = tprime * r + gamma * r**2 < 0.5 * sigma2
    inter = {
        "sigma2_T_star": sigma2, "norm_T_prime": tprime, "mu_dist": r,
        "gamma": gamma, "hypotheses_hold": float(hyp1 and hyp2),
        "simplicity_condition": float(simple_cond),
        "gap_certificate": float(refined.gap_certificate),
    }
    if not (hyp1 and hyp2) or refined.sigma_hat_2 is None:
        return _report("refined_uniqueness", 0.0, 0.0, 1e-8, DEFAULT_FLOOR, inter)
    predicted_gap = 0.5 * sigma2 - gamma * r**2
    measured_gap = refined.sigma_hat_2 - refined.sigma_hat_1
    return _report(
        "refined_uniqueness", predicted_gap, measured_gap, 1e-8, DEFAULT_FLOOR, inter,
    )


def angle_sandwich(
    ctx: CaseContext,
    ritz: RitzExtraction,
    refined: RefinedExtraction,
    sin_between: float,
    complements: tuple[np.ndarray, np.ndarray] | None,
) -> list[BoundReport]:
    """Two-sided bracket of sin(angle(x~, x^)) plus the exact-identity check.

    sigma_hat_1 ||(W Z_perp)^H s|| / sigma_max(C(mu))
        <= sin(angle) <= sigma_hat_1 ||W^H s|| / sigma_min(C(mu)),
    and the middle identity
    sin(angle) = sigma_hat_1 ||C(mu)^{-1} (W Z_perp)^H s|| to 1e-8.
    sin_between is the measured sin(angle(x~, x^)), and C(mu) and its
    singular values are read from complements (ritz_complements), and W
    from the context.  Both sandwich sides are allowed 1e-8 absolute slack.
    """
    m = ctx.w.shape[1]
    if m < 2:
        # one-dimensional projection: both vectors coincide up to phase
        inter = {"sigma_hat_1": refined.sigma_hat_1, "dim": float(m)}
        zero = 0.0
        return [
            _report("angle_sandwich_lower", zero, zero, 0.0, SANDWICH_ABS_SLACK, inter),
            _report("angle_sandwich_upper", zero, zero, 0.0, SANDWICH_ABS_SLACK, inter),
            _report("angle_identity", zero, 0.0, 0.0, IDENTITY_TOL, inter),
        ]
    c_mu, svals = complements[0][1], complements[1][1]
    sig_min_c, sig_max_c = float(svals[-1]), float(svals[0])
    if sig_min_c <= 1e-12:
        raise HypothesisFailed("sigma_min(C(mu)) is not positive; vector not unique")
    ws = ctx.w.conj().T @ refined.s
    coupling = complement_compress(ritz.z, ws)  # (W Z_perp)^H s
    lower = refined.sigma_hat_1 * float(np.linalg.norm(coupling)) / sig_max_c
    upper = refined.sigma_hat_1 * float(np.linalg.norm(ws)) / sig_min_c
    identity_val = refined.sigma_hat_1 * float(
        np.linalg.norm(np.linalg.solve(c_mu, coupling))
    )
    inter = {
        "sigma_hat_1": refined.sigma_hat_1,
        "sigma_min_C_mu": sig_min_c,
        "sigma_max_C_mu": sig_max_c,
        "sin_between": sin_between,
        "identity_value": identity_val,
    }
    return [
        _report("angle_sandwich_lower", lower, sin_between, 0.0, SANDWICH_ABS_SLACK, inter),
        _report("angle_sandwich_upper", sin_between, upper, 0.0, SANDWICH_ABS_SLACK, inter),
        _report(
            "angle_identity", abs(sin_between - identity_val), 0.0, 0.0,
            IDENTITY_TOL, inter,
        ),
    ]


def residual_ratio_sandwich(
    ritz: RitzExtraction, refined: RefinedExtraction, sin_between: float,
) -> list[BoundReport]:
    """Bracket (||r~|| / ||r^||)^2 by the singular-value mix at angle theta.

    cos^2 t + (s_2/s_1)^2 sin^2 t <= ratio^2 <= cos^2 t + (s_m/s_1)^2 sin^2 t
    with t the angle between the two extracted vectors, whose sine
    sin_between is passed in.  Raises
    DegenerateRatio when the refined residual vanishes (ratio infinite).

    s_1 comes out of a backward-stable SVD with absolute error on the order
    of macheps * s_m, so the ratio itself carries relative noise of about
    macheps * s_m/s_1; that computable floor is added to the relative slack,
    otherwise the check turns into a coin flip once s_1/s_m drops toward
    1e-8 (both sandwich sides are exact identities on two-dimensional
    subspaces).
    """
    s1 = refined.sigma_hat_1
    if s1 <= 1e-12 * max(1.0, refined.sigma_hat_m):
        raise DegenerateRatio(
            "refined residual is numerically zero; ratio bounds are infinite"
        )
    cos2 = max(0.0, 1.0 - sin_between**2)
    ratio2 = (ritz.residual_norm / s1) ** 2
    lower = cos2
    if refined.sigma_hat_2 is not None:
        lower = cos2 + (refined.sigma_hat_2 / s1) ** 2 * sin_between**2
    upper = cos2 + (refined.sigma_hat_m / s1) ** 2 * sin_between**2
    noise_rel = 64.0 * 2.2e-16 * (refined.sigma_hat_m / s1)
    rel = 1e-8 + noise_rel
    inter = {
        "sigma_hat_1": s1,
        "sigma_hat_2": refined.sigma_hat_2 if refined.sigma_hat_2 is not None else s1,
        "sigma_hat_m": refined.sigma_hat_m,
        "sin_between": sin_between,
        "rho_ritz": ritz.residual_norm,
    }
    return [
        _report("residual_ratio_lower", lower, ratio2, rel, DEFAULT_FLOOR, inter),
        _report("residual_ratio_upper", ratio2, upper, rel, DEFAULT_FLOOR, inter),
    ]

