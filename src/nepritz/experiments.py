"""Experiment drivers: fixtures, subspace construction, sweeps, suites.

Everything here is deterministic given its seed: identical configuration and
seed produce bit-identical records.  Random perturbations use complex
Gaussians whose real and imaginary parts each carry standard deviation
sigma/sqrt(2), so one complex entry has standard deviation sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds_lab as bl
from .dense_kernels import (
    as_deviation, as_finite_scalar, as_length, as_nonnegative, as_unit_vector, norm2, phase_fix,
    require_integer, singular_values, svd)
from .errors import ConstructionFailed, InapplicableBound, NepRitzError
from .extraction import (
    RefinedExtraction,
    RitzExtraction,
    refined_vector,
    ritz_residual_for,
    ritz_vector,
    sin_angle,
)
from .nep_model import (
    MAX_POLY_DEGREE,
    MatrixFunction,
    Polynomial,
    Rational,
    ReferencePair,
    eval_T,
)
from .projection import Subspace, deviation, project
from .small_nep_solver import SpectrumResult, select_ritz_value, solve_projected

# seed of the first trial of run_example2, run_sweep and the CLI
DEFAULT_SEED_BASE = 42

# ---------------------------------------------------------------------------
# subspace construction
# ---------------------------------------------------------------------------

def _complex_randn(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _orthogonalize_against(v: np.ndarray, basis_cols: list[np.ndarray]) -> np.ndarray:
    for _ in range(2):
        for q in basis_cols:
            v = v - q * (np.conj(q) @ v)
    return v


def build_subspace_eps(x_star, m: int, eps: float, seed: int) -> Subspace:
    """Subspace with deviation from x_star equal to eps, to 1e-10.

    First vector: sqrt(1-eps^2) x_star + eps q with a seeded unit q
    orthogonal to x_star; remaining vectors are seeded and orthogonalized
    against both x_star and the basis so the deviation stays exactly eps.
    x_star must be unit (dense_kernels.as_unit_vector): a zero, non-finite
    or otherwise non-unit one raises ValueError.  So do an eps outside
    (0, 1), an m that is not an integer (a bool is none; a numpy integer is
    one) with 1 <= m < n, and a seed that is not an integer >= 0.
    """
    x = as_unit_vector(x_star, "x_star")
    x = x / np.linalg.norm(x)
    n = x.size
    eps = as_deviation(eps, "eps")
    require_integer("m", m, 1, n - 1)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    q = _orthogonalize_against(_complex_randn(rng, n), [x])
    q = q / np.linalg.norm(q)
    w1 = math.sqrt(1.0 - eps**2) * x + eps * q
    cols = [w1 / np.linalg.norm(w1)]
    # anchor on the orthonormal pair {x, q} spanning the same plane as
    # {x, w1}; Gram-Schmidt against a non-orthogonal set would leak
    # x-components back into the later columns and shrink the deviation
    anchors = [x, q]
    while len(cols) < m:
        v = _orthogonalize_against(_complex_randn(rng, n), anchors)
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            v = v / nrm
            cols.append(v)
            anchors.append(v)
    s = Subspace.from_basis(np.column_stack(cols))
    got = deviation(s, x)
    if abs(got - eps) > 1e-10:
        raise ConstructionFailed(f"requested deviation {eps}, built {got}")
    return s


def perturb_subspace(s: Subspace, sigma: float, seed: int) -> Subspace:
    """Add a complex Gaussian of standard deviation sigma and restore orthonormality.

    The noisy columns go through build_subspace_eps's Gram-Schmidt, two
    modified passes against the columns before them, in order; each is
    divided by its norm, and the basis is put in the phase convention.
    Raises ValueError for a sigma outside [0, inf) or a seed that is not an
    integer >= 0, and ConstructionFailed when the noisy basis is not finite
    or its Gram-Schmidt result is not orthonormal, as happens from about
    sigma = 1e155 up, where the squared column norms overflow.
    """
    sigma = as_nonnegative(sigma, "sigma")
    require_integer("seed", seed, 0)
    if sigma == 0.0:
        return s
    rng = np.random.default_rng(seed)
    # the checks below report an overflow, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = s.basis + sigma * _complex_randn(rng, *s.basis.shape)
        if not np.isfinite(noisy).all():
            raise ConstructionFailed(f"sigma = {sigma:g} overflows the perturbed basis")
        cols: list[np.ndarray] = []
        for v in np.ascontiguousarray(noisy.T):
            v = _orthogonalize_against(v, cols)
            cols.append(v / np.linalg.norm(v))
        try:
            return Subspace.from_basis(phase_fix(np.column_stack(cols)))
        except ValueError as exc:
            raise ConstructionFailed(f"the basis perturbed by sigma = {sigma:g} "
                                     f"is not orthonormal after Gram-Schmidt: {exc}") from None


# ---------------------------------------------------------------------------
# built-in fixture: the 3 x 3 rational problem with eigenvalues {-1, 0}
# ---------------------------------------------------------------------------

def fixture_problem() -> tuple[MatrixFunction, ReferencePair, np.ndarray]:
    """3x3 rational problem whose projection onto [e3, e1] degenerates.

    det T(lambda) = lambda (lambda + 1); the target pair is (0, e3).  The
    returned basis captures the target exactly, yet the projected problem has
    a two-dimensional null space at 0, which is what makes this fixture the
    canonical demonstration of non-unique classical extraction.
    """
    z = np.zeros((3, 3), dtype=complex)
    a_lin = z.copy(); a_lin[0, 0] = 1; a_lin[1, 1] = 1          # lambda
    a_const = z.copy(); a_const[0, 1] = 1; a_const[1, 0] = 1    # 1
    a_quad = z.copy(); a_quad[0, 2] = 1                         # lambda^2
    a_rat = z.copy(); a_rat[2, 2] = 1                           # lambda/(lambda-1)
    t = MatrixFunction.from_terms([
        (Polynomial([0, 1]), a_lin),
        (Polynomial([1]), a_const),
        (Polynomial([0, 0, 1]), a_quad),
        (Rational([0, 1], [-1, 1]), a_rat),
    ])
    x_star = np.array([0, 0, 1], dtype=complex)
    ref = ReferencePair(0.0, x_star)
    ref.validate(t)
    w = np.zeros((3, 2), dtype=complex)
    w[2, 0] = 1.0  # e3
    w[0, 1] = 1.0  # e1
    return t, ref, w


# ---------------------------------------------------------------------------
# one full extraction-and-bounds pass
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CaseResult:
    """Everything one instance produces: extractions, angles, bound reports."""

    epsilon: float
    mu: complex
    mu_dist: float
    ritz: RitzExtraction
    refined: RefinedExtraction
    sin_ritz: float
    sin_refined: float
    sin_between: float
    spectrum: SpectrumResult
    reports: list[bl.BoundReport] = field(default_factory=list)
    inapplicable: list[tuple[str, str]] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.reports)

    def verdicts(self) -> dict[str, bool | None]:
        out: dict[str, bool | None] = {r.theorem_id: r.holds for r in self.reports}
        for tid, _ in self.inapplicable:
            out.setdefault(tid, None)
        return out


def analyze_case(
    t: MatrixFunction,
    ref: ReferencePair,
    s: Subspace,
    region_center: complex | None = None,
    region_radius: float = 1.0,
    target: complex | None = None,
) -> CaseResult:
    """Project, solve, extract both vectors, and evaluate every bound.

    The projected problem is solved in the disc of region_radius about
    region_center (the reference eigenvalue by default), which
    solve_projected shrinks while a pole lies on its rim.  Selection is
    oracle mode (closest to the reference eigenvalue) unless a target shift
    is given.  A region_center or target that is not a finite number, or a
    region_radius outside (0, inf), raises ValueError before anything is
    projected.  Bounds whose hypotheses fail are recorded in
    ``inapplicable`` with the exception class name, not raised.
    """
    lam_star = ref.lambda_star
    target = None if target is None else as_finite_scalar(target, "target")
    center = lam_star if region_center is None else as_finite_scalar(
        region_center, "region_center")
    region_radius = as_length(region_radius, "region_radius")
    b = project(t, s)
    spectrum = solve_projected(b, center, region_radius)
    mu = select_ritz_value(spectrum, lam_star if target is None else target)
    ctx = bl.build_case_context(t, s, ref.x_star, lam_star, mu)
    ritz = ritz_vector(ctx.tw, ctx.b_mu, mu, s)
    refined = refined_vector(ctx.tw, mu, s)
    # the three angles and C(l*), C(mu) that the evaluators read, each once
    sin_ritz = sin_angle(ctx.target.x_star, ritz.x_tilde)
    sin_refined = sin_angle(ctx.target.x_star, refined.x_hat)
    sin_between = sin_angle(ritz.x_tilde, refined.x_hat)
    complements = bl.ritz_complements(ctx, ritz.z)

    reports: list[bl.BoundReport] = []
    inapplicable: list[tuple[str, str]] = []

    def run(tid, evaluator, *args, **kwargs):
        try:
            out = evaluator(*args, **kwargs)
        except InapplicableBound as exc:
            inapplicable.append((tid, f"{type(exc).__name__}: {exc}"))
            return
        if isinstance(out, list):
            reports.extend(out)
        else:
            reports.append(out)

    run("perturbation_norm", bl.perturbation_norm_bound, ctx)
    run("projected_sigma_min", bl.projected_sigma_bound, ctx)
    run("ritz_value_rate", bl.ritz_value_bound, ctx, b)
    run("residual_to_angle_ritz", bl.residual_angle_bound, ctx, sin_ritz,
        ritz.residual_norm, theorem_id="residual_to_angle_ritz")
    run("residual_to_angle_refined", bl.residual_angle_bound, ctx, sin_refined,
        refined.sigma_hat_1, theorem_id="residual_to_angle_refined")
    run("ritz_vector_angle", bl.ritz_vector_angle_bound, ctx, ritz, sin_ritz, complements)
    run("refined_residual", bl.refined_bounds, ctx, refined, sin_refined)
    run("refined_uniqueness", bl.refined_uniqueness_check, ctx, refined)
    run("angle_sandwich", bl.angle_sandwich, ctx, ritz, refined, sin_between, complements)
    run("residual_ratio", bl.residual_ratio_sandwich, ritz, refined, sin_between)

    return CaseResult(
        epsilon=ctx.eps,
        mu=mu,
        mu_dist=ctx.mu_dist,
        ritz=ritz,
        refined=refined,
        sin_ritz=sin_ritz,
        sin_refined=sin_refined,
        sin_between=sin_between,
        spectrum=spectrum,
        reports=reports,
        inapplicable=inapplicable,
    )


# ---------------------------------------------------------------------------
# canned experiment 1: exact-capture degenerate projection
# ---------------------------------------------------------------------------

def run_example1() -> dict:
    """Run the degenerate-projection fixture and check its exact facts.

    The projected problem has eigenvalue 0 with a two-dimensional null space:
    the classical vector is non-unique and a natural symmetric choice has
    residual 1/sqrt(2), while the refined vector recovers the target exactly.
    """
    t, ref, w = fixture_problem()
    s = Subspace.from_basis(w)
    case = analyze_case(t, ref, s, region_center=0.0, region_radius=0.5)

    checks: list[dict] = []

    def check(name, ok, value):
        checks.append({"name": name, "ok": bool(ok), "value": float(value)})

    check("ritz_value_zero", abs(case.mu) <= 1e-10, abs(case.mu))
    b0 = eval_T(project(t, s), 0.0, 0)
    twin_kernel = float(singular_values(b0)[0])
    check("projected_double_kernel", twin_kernel <= 1e-12, twin_kernel)
    check("geometric_multiplicity_two", case.ritz.geometric_multiplicity == 2,
          case.ritz.geometric_multiplicity)
    z_even = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    rho_even = ritz_residual_for(eval_T(t, case.mu, 0) @ s.basis, s, z_even)
    check("symmetric_choice_residual", abs(rho_even - 1.0 / math.sqrt(2.0)) <= 1e-10,
          rho_even)
    e3 = np.array([0, 0, 1], dtype=complex)
    phase = np.vdot(e3, case.refined.x_hat)
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    refined_err = float(np.linalg.norm(case.refined.x_hat / phase - e3))
    check("refined_recovers_target", refined_err <= 1e-10, refined_err)
    check("refined_residual_zero", case.refined.sigma_hat_1 <= 1e-12,
          case.refined.sigma_hat_1)
    ratio_degenerate = any(
        tid == "residual_ratio" and "DegenerateRatio" in reason
        for tid, reason in case.inapplicable
    )
    check("residual_ratio_degenerate", ratio_degenerate, float(ratio_degenerate))

    return {
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "mu": [case.mu.real, case.mu.imag],
        "multiplicity": case.spectrum.multiplicities,
        "verdicts": case.verdicts(),
    }


def run_example1_target(target: complex) -> dict:
    """The fixture in the full space, selecting the Ritz value nearest target.

    Projected onto the whole space, the fixture keeps both of its eigenvalues
    -1 and 0 in a unit disc around the target, so the selection has a choice.
    ok is True iff every applicable bound holds.
    """
    t, ref, _ = fixture_problem()
    s = Subspace.from_basis(np.eye(3, dtype=complex))
    case = analyze_case(t, ref, s, region_center=target, region_radius=1.0,
                        target=target)
    return {
        "ok": case.all_hold,
        "mu": [case.mu.real, case.mu.imag],
        "sin_refined": case.sin_refined,
        "verdicts": case.verdicts(),
    }


# ---------------------------------------------------------------------------
# canned experiment 2: perturbed subspace statistics
# ---------------------------------------------------------------------------

def trial_record(case: CaseResult, seed: int, epsilon: float) -> dict:
    """The JSON record of one (eps | sigma, seed) trial of the pipeline.

    A sweep files a trial under its requested eps, so trials group by it.
    """
    return {
        "epsilon": epsilon,
        "seed": seed,
        "mu": [case.mu.real, case.mu.imag],
        "mu_dist": case.mu_dist,
        "sin_ritz": case.sin_ritz,
        "sin_refined": case.sin_refined,
        "rho_ritz": case.ritz.residual_norm,
        "sigma_hat_1": case.refined.sigma_hat_1,
        "verdicts": dict(sorted(case.verdicts().items())),
    }


def run_example2(
    sigma: float = 1e-4,
    seeds: tuple[int, ...] = tuple(range(20)),
    seed_base: int = DEFAULT_SEED_BASE,
) -> dict:
    """Perturb the fixture basis and aggregate extraction statistics.

    With a perturbation of standard deviation sigma the deviation becomes
    O(sigma); across seeds the classical vector keeps an O(1) error while the
    refined vector tracks the target to O(sigma).  The median refined sine
    must lie within a decade of the median measured deviation, which the
    refined error tracks, and the cap on |mu| scales with sigma.  seeds
    must be a nonempty sequence of integers >= 0, and seed_base an integer
    >= 0, or ValueError names the argument.
    """
    if not seeds:
        raise ValueError("seeds must be nonempty")
    for i, k in enumerate(seeds):
        require_integer(f"seeds[{i}]", k, 0)
    require_integer("seed_base", seed_base, 0)
    t, ref, w = fixture_problem()
    s0 = Subspace.from_basis(w)
    records: list[dict] = []
    for k in seeds:
        seed = seed_base + k
        s = perturb_subspace(s0, sigma, seed)
        case = analyze_case(t, ref, s, region_center=0.0, region_radius=1e6)
        records.append(trial_record(case, seed, epsilon=case.epsilon))
    abs_mu = [abs(complex(*r["mu"])) for r in records]
    mu_cap = 1e-3 * max(sigma / 1e-4, 1.0)

    med = {
        "sin_refined": float(np.median([r["sin_refined"] for r in records])),
        "sin_ritz": float(np.median([r["sin_ritz"] for r in records])),
        "residual_ratio": float(np.median(
            [r["sigma_hat_1"] / max(r["rho_ritz"], 1e-300) for r in records])),
        "epsilon": float(np.median([r["epsilon"] for r in records])),
        "abs_mu": float(np.median(abs_mu)),
    }

    eps = med["epsilon"]
    checks = [
        {"name": "median_sin_refined_in_window",
         "ok": eps / 10.0 <= med["sin_refined"] <= eps * 10.0,
         "value": med["sin_refined"]},
        {"name": "median_sin_ritz_large",
         "ok": med["sin_ritz"] >= 1e-2, "value": med["sin_ritz"]},
        {"name": "median_residual_ratio_small",
         "ok": med["residual_ratio"] <= 1e-2, "value": med["residual_ratio"]},
        {"name": "selected_value_near_target",
         "ok": all(a <= mu_cap for a in abs_mu), "value": med["abs_mu"]},
    ]
    anomalies = [r["seed"] for r, a in zip(records, abs_mu) if not a <= mu_cap]
    return {
        "ok": all(c["ok"] for c in checks),
        "sigma": sigma,
        "n_seeds": len(records),
        "medians": med,
        "checks": checks,
        "anomalous_seeds": anomalies,
        "records": records,
    }


# ---------------------------------------------------------------------------
# rate-study instances
# ---------------------------------------------------------------------------

def random_planted_nep(
    n: int,
    degree: int,
    seed: int,
    lambda_star: complex,
    rational_pole: complex | None = None,
) -> tuple[MatrixFunction, ReferencePair]:
    """Random problem with a planted simple eigenpair at lambda_star.

    Terms are monomials with seeded complex coefficient matrices (plus one
    rational term when a pole is requested); the constant matrix is corrected
    by a rank-one update so the chosen unit vector is an exact eigenvector.
    Genericity of the planted pair (rank n-1 and nonvanishing eigenvalue
    derivative) is asserted, so a bad seed fails loudly instead of producing
    a defective reference.  A non-finite lambda_star or rational_pole
    raises ValueError, as do an n, degree or seed outside its integer range
    (a bool is none): n >= 2, as planting leaves a 1 x 1 T(lambda_star) = 0;
    1 <= degree <= MAX_POLY_DEGREE, as a constant T has no eigenvalue
    derivative; seed >= 0.
    """
    as_finite_scalar(lambda_star, "lambda_star")
    if rational_pole is not None:
        as_finite_scalar(rational_pole, "rational_pole")
    require_integer("n", n, 2)
    require_integer("degree", degree, 1, MAX_POLY_DEGREE)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(n)
    terms: list[tuple] = [(Polynomial([1]), _complex_randn(rng, n, n) * scale)]
    for k in range(1, degree + 1):
        coeffs = np.zeros(k + 1, dtype=complex)
        coeffs[k] = 1.0
        terms.append((Polynomial(coeffs), _complex_randn(rng, n, n) * scale))
    if rational_pole is not None:
        terms.append((
            Rational(np.array([1.0 + 0j]), np.array([-rational_pole, 1.0])),
            _complex_randn(rng, n, n) * scale,
        ))
    x = _complex_randn(rng, n)
    x = x / np.linalg.norm(x)
    # a temporary, so its copies of the coefficients are freed before T's are made
    defect = eval_T(MatrixFunction.from_terms(terms), lambda_star, 0) @ x
    fn0, a0 = terms[0]
    terms[0] = (fn0, a0 - np.outer(defect, np.conj(x)))
    t = MatrixFunction.from_terms(terms)
    ref = ReferencePair(lambda_star, x)
    ref.validate(t)
    dec = svd(eval_T(t, lambda_star, 0))
    if dec.singular_values[-2] < 1e-6 * max(1.0, dec.sigma_max):
        raise ConstructionFailed(f"seed {seed}: planted eigenvalue is not simple enough")
    # algebraic simplicity: left/right coupling through T'(lambda_star)
    y_left = dec.left_vectors[:, -1]
    t_prime = eval_T(t, lambda_star, 1)
    coupling = abs(np.vdot(y_left, t_prime @ x))
    if coupling < 1e-6 * max(1.0, norm2(t_prime)):
        raise ConstructionFailed(f"seed {seed}: eigenvalue derivative vanishes")
    return t, ref


def simple_rate_instance() -> tuple[MatrixFunction, ReferencePair, int]:
    """Polynomial problem with a simple planted pair; expected slope 1."""
    t, ref = random_planted_nep(4, 2, seed=7, lambda_star=0.3 + 0.2j)
    return t, ref, 2  # subspace dimension


def defective_rate_instance() -> tuple[MatrixFunction, ReferencePair]:
    """Linear problem whose projection is a perturbed 2x2 nilpotent block.

    A = [[0,0,1],[0,2,3],[0,1,0]] has simple eigenvalues {0, 3, -1} with
    e1 the eigenvector at 0.  Against the bases returned by
    defective_rate_subspace the projection at deviation eps is
    [[2 eps^2, sqrt(1-eps^2)+3 eps], [eps, 0]]: an exactly nilpotent block at
    eps = 0 whose eigenvalues split like sqrt(eps), so the selected value
    converges at rate 1/2 and the derivative signature detects order 2.
    """
    a = np.array([[0, 0, 1], [0, 2, 3], [0, 1, 0]], dtype=complex)
    t = MatrixFunction.from_terms([
        (Polynomial([1]), a),
        (Polynomial([0, 1]), -np.eye(3, dtype=complex)),
    ])
    ref = ReferencePair(0.0, np.array([1, 0, 0], dtype=complex))
    ref.validate(t)
    return t, ref


def defective_rate_subspace(eps: float) -> Subspace:
    """Deviation-eps basis aligned with the defective projected structure; eps in (0, 1)."""
    eps = as_deviation(eps, "eps")
    w = np.zeros((3, 2), dtype=complex)
    w[0, 0] = math.sqrt(1.0 - eps**2)
    w[1, 0] = eps
    w[2, 1] = 1.0
    return Subspace.from_basis(w)


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(y) against log10(x)."""
    lx = np.log10(np.asarray(xs, dtype=float))
    ly = np.log10(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    return float(np.polyfit(lx, ly, 1)[0])


def sweep_deviations(eps_list) -> list[float]:
    """The distinct deviations of a sweep, largest first.

    ValueError unless each lies in (0, 1) and together they span 4 decades.
    """
    eps_arr = sorted({as_deviation(e, f"eps_list[{i}]") for i, e in enumerate(eps_list)},
                     reverse=True)
    if len(eps_arr) < 2 or eps_arr[0] / eps_arr[-1] < 1e4:
        raise ValueError("eps_list must cover at least 4 decades")
    return eps_arr


def run_sweep(
    t: MatrixFunction,
    ref: ReferencePair,
    eps_list: list[float],
    trials: int = 5,
    m: int = 2,
    seed_base: int = DEFAULT_SEED_BASE,
    subspace_factory=None,
    target: complex | None = None,
) -> dict:
    """Deviation sweep: records, bound verdicts, and log-log rate fits.

    eps_list must span at least four decades for the slope fit to mean
    anything; when fewer than two deviations keep a record, both slopes are
    None and ok is False.  subspace_factory(eps, seed) overrides the default
    seeded construction (used by the defective instance, whose bases are
    explicit); target switches the selection rule from oracle mode to a
    fixed shift.  trials must be an integer >= 1 and seed_base an integer
    >= 0, or ValueError names the argument.
    """
    require_integer("trials", trials, 1)
    require_integer("seed_base", seed_base, 0)
    eps_arr = sweep_deviations(eps_list)
    records: list[dict] = []
    failures: list[str] = []
    for eps in eps_arr:
        for trial in range(trials):
            seed = seed_base + trial
            if subspace_factory is None:
                s = build_subspace_eps(ref.x_star, m, eps, seed)
            else:
                s = subspace_factory(eps, seed)
            try:
                case = analyze_case(t, ref, s, target=target)
            except NepRitzError as exc:
                failures.append(f"eps={eps} seed={seed}: {type(exc).__name__}: {exc}")
                continue
            records.append(trial_record(case, seed, epsilon=eps))
    by_eps: dict[float, list[dict]] = {}
    for r in records:
        by_eps.setdefault(r["epsilon"], []).append(r)
    eps_pts = sorted(by_eps)
    med_mu = [float(np.median([r["mu_dist"] for r in by_eps[e]])) for e in eps_pts]
    med_refined = [float(np.median([r["sin_refined"] for r in by_eps[e]])) for e in eps_pts]
    # a slope needs two deviations; with fewer there is none to report
    fitted = len(eps_pts) >= 2
    slope_mu = fit_loglog_slope(eps_pts, med_mu) if fitted else None
    slope_refined = fit_loglog_slope(eps_pts, med_refined) if fitted else None
    bound_ok = all(
        v for r in records for v in r["verdicts"].values() if v is not None
    )
    return {
        "ok": fitted and bound_ok and not failures,
        "slope_mu": slope_mu,
        "slope_refined": slope_refined,
        "eps": eps_pts,
        "median_mu_dist": med_mu,
        "median_sin_refined": med_refined,
        "records": records,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# built-in verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SuiteInstance:
    instance_id: str
    t: MatrixFunction
    ref: ReferencePair
    subspace: Subspace


_SUITE_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

_SUITE_BASES = (
    # (name, n, degree, seed, lambda_star, pole, m)
    ("poly3", 3, 2, 101, 0.3 + 0.2j, None, 2),
    ("poly6", 6, 3, 202, -0.2 + 0.5j, None, 3),
    ("rat4", 4, 2, 303, 0.1 + 0.1j, 2.0 + 0.0j, 2),
    ("poly12", 12, 2, 404, 0.5 + 0.0j, None, 6),
    ("rat5", 5, 2, 505, -0.3 + 0.0j, 1.5 + 0.0j, 3),
)


def builtin_suite() -> list[SuiteInstance]:
    """Random polynomial/rational instances crossed with a deviation ladder,
    plus the defective family at the deviations where its signature resolves.
    """
    out: list[SuiteInstance] = []
    for name, n, degree, seed, lam, pole, m in _SUITE_BASES:
        t, ref = random_planted_nep(n, degree, seed, lam, rational_pole=pole)
        for i, eps in enumerate(_SUITE_EPS):
            s = build_subspace_eps(ref.x_star, m, eps, seed + 7 * i)
            out.append(SuiteInstance(f"{name}-eps{eps:.0e}", t, ref, s))
    t_def, ref_def = defective_rate_instance()
    for eps in (1e-5, 1e-6, 1e-7):
        out.append(SuiteInstance(
            f"defective2-eps{eps:.0e}", t_def, ref_def, defective_rate_subspace(eps)
        ))
    return out


def verify_all(suite: list[SuiteInstance] | None = None) -> dict:
    """Run every bound evaluator over the suite; ok iff all applicable hold.

    Returns the failing (instance, theorem) pairs so a nonzero exit can name
    them, and under "reports" every (instance id, BoundReport) pair, which
    the command line writes out.
    """
    instances = builtin_suite() if suite is None else suite
    tagged: list[tuple[str, bl.BoundReport]] = []
    skipped: list[tuple[str, str, str]] = []
    failures: list[tuple[str, str]] = []
    errored: list[tuple[str, str]] = []
    for inst in instances:
        try:
            case = analyze_case(inst.t, inst.ref, inst.subspace)
        except NepRitzError as exc:
            errored.append((inst.instance_id, f"{type(exc).__name__}: {exc}"))
            continue
        for rep in case.reports:
            tagged.append((inst.instance_id, rep))
            if not rep.holds:
                failures.append((inst.instance_id, rep.theorem_id))
        for tid, reason in case.inapplicable:
            skipped.append((inst.instance_id, tid, reason))
    return {
        "ok": not failures and not errored,
        "n_instances": len(instances),
        "n_reports": len(tagged),
        "n_inapplicable": len(skipped),
        "failures": [list(f) for f in failures],
        "errors": [list(e) for e in errored],
        "inapplicable": [list(s) for s in skipped],
        "reports": tagged,
    }
