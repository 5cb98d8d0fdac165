import math
from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import complex_randn, jordan_block_order, qr_complement, seeded_unitary
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nepritz.bounds_lab as bl
from nepritz.dense_kernels import complement_compress, singular_values
from nepritz.errors import (
    ConstructionFailed,
    DegenerateRatio,
    DegenerateSigma,
    HypothesisFailed,
    NotAnEigenvalue,
)
from nepritz.experiments import (
    analyze_case,
    build_subspace_eps,
    builtin_suite,
    fixture_problem,
    perturb_subspace,
    random_planted_nep,
)
from nepritz.extraction import refined_vector, ritz_vector, sin_angle
from nepritz.nep_model import (
    MatrixFunction,
    Polynomial,
    TargetValues,
    eval_T,
    eval_T_many,
    taylor_remainder_const,
)
from nepritz.projection import Subspace, deviation, project


def linear_fn(a):
    n = a.shape[0]
    return MatrixFunction.from_terms([
        (Polynomial([1]), np.asarray(a, dtype=complex)),
        (Polynomial([0, 1]), -np.eye(n, dtype=complex)),
    ])


def jordan_block(mu, k):
    j = np.eye(k, dtype=complex) * mu
    for i in range(k - 1):
        j[i, i + 1] = 1.0
    return j


def fixture_context(mu=0.0, x_star=None, w=None):
    """Context of the fixture problem at lambda* = 0 and the given mu."""
    t, ref, w_fix = fixture_problem()
    s = Subspace.from_basis(w_fix if w is None else w)
    return bl.build_case_context(
        t, s, ref.x_star if x_star is None else x_star, 0.0, mu)


def fixture_projection():
    """The fixture's projected function B = W^H T W on its basis [e3, e1]."""
    t, _, w = fixture_problem()
    return project(t, Subspace.from_basis(w))


def fixture_perturbed_case(seed=0, sigma=1e-4):
    t, ref, w = fixture_problem()
    s = perturb_subspace(Subspace.from_basis(w), sigma, seed)
    return t, ref, s, analyze_case(t, ref, s, region_center=0.0, region_radius=1e6)


def per_point_profile(b, lambda_star, direction, *, disc_radius):
    """sigma_min_profile with one eval_T and one singular-value call per point."""
    lam0, d = complex(lambda_star), complex(direction) / abs(direction)
    max_order = bl.PROFILE_MAX_ORDER
    hw = 2  # the order-3 stencil reaches offsets -2..2
    h = min(max(1e-3, disc_radius / 10.0), disc_radius / (2.0 * (hw + 1)))
    orders = range(0, max_order + 1)
    offsets = sorted({o for j in orders for o in bl._STENCILS[j]})
    svals = {o: singular_values(eval_T(b, lam0 + (o * h) * d, 0)) for o in offsets}
    s0 = svals[0]
    if s0[-1] <= 1e-13:
        raise DegenerateSigma("sigma_min(B(lambda_star)) vanishes")
    ests = [sum(c * float(svals[o][-1]) for o, c in bl._STENCILS[j].items()) / h**j
            for j in orders]
    eps_g = 2e-15 * max(1.0, *(float(sv[0]) for sv in svals.values()))
    floors = [eps_g * sum(abs(c) for c in bl._STENCILS[j].values()) / h**j for j in orders]
    reliable = [j == 0 or abs(ests[j]) > 5.0 * floors[j] for j in orders]
    detected = None
    for j in range(1, max_order + 1):
        if not reliable[j]:
            continue
        nxt = abs(ests[j + 1]) if j + 1 <= max_order and reliable[j + 1] else 0.0
        if abs(ests[j]) > disc_radius * nxt / (bl.TAU_DERIV * (j + 1)):
            detected = j
            break
    alpha = None
    if detected is not None:
        samples = [abs(ests[detected])]
        stencil = bl._STENCILS[detected]
        for frac in (0.2, 0.4, 0.6, 0.8):
            for k in range(6):
                center = lam0 + disc_radius * frac * d * np.exp(2j * np.pi * k / 6)
                vals = [float(singular_values(eval_T(b, center + o * h * d, 0))[-1])
                        for o in stencil]
                est = sum(c * v for c, v in zip(stencil.values(), vals)) / h**detected
                samples.append(abs(est))
        alpha = float(min(samples))
    return bl.DerivativeProfile(
        h=float(h), estimates=[float(e) for e in ests],
        detected_m_mu=detected, alpha_estimate=alpha,
    )


def profile_bytes(profile_fn, *args, **kwargs):
    """Every DerivativeProfile field, floats and complexes as their bytes."""
    def as_bytes(x):
        if isinstance(x, list):
            return [as_bytes(v) for v in x]
        return np.asarray(x).tobytes() if isinstance(x, (float, complex)) else x

    try:
        prof = profile_fn(*args, **kwargs)
    except DegenerateSigma:
        return "DegenerateSigma"
    return [as_bytes(getattr(prof, f.name)) for f in fields(prof)]


@pytest.fixture(scope="module")
def suite_rays():
    """(instance id, B, lambda*, mu) of every built-in suite case."""
    out = []
    for inst in builtin_suite():
        mu = analyze_case(inst.t, inst.ref, inst.subspace).mu
        out.append((inst.instance_id, project(inst.t, inst.subspace),
                    inst.ref.lambda_star, mu))
    return out


class TestSigmaMinProfile:
    def test_simple_shifted_diagonal(self):
        # B(lam) = diag(lam - delta, 1): g(0) = delta, g' -> -1 along +1
        delta = 1e-3
        b = MatrixFunction.from_terms([
            (Polynomial([-delta, 1]), np.diag([1.0, 0.0]).astype(complex)),
            (Polynomial([1]), np.diag([0.0, 1.0]).astype(complex)),
        ])
        prof = bl.sigma_min_profile(b, 0.0, direction=1.0, disc_radius=delta)
        assert prof.estimates[0] == pytest.approx(delta, rel=1e-10)
        assert abs(prof.estimates[1]) == pytest.approx(1.0, rel=1e-6)
        assert prof.detected_m_mu == 1
        # off-axis disc samples see the directional derivative of |lam - delta|
        # foreshortened, so the minimum lies in (0, 1]
        assert 0.2 < prof.alpha_estimate <= 1.0 + 1e-9

    def test_defective_block_signature(self):
        mu = 0.5
        delta = 1e-2
        b = linear_fn(jordan_block(mu, 2))
        prof = bl.sigma_min_profile(b, mu - delta, direction=1.0, disc_radius=delta)
        assert prof.detected_m_mu == 2
        # sigma_min of the shifted block is |mu - lam|^2 / c with c near 1
        c = singular_values(jordan_block(mu, 2) - (mu - delta) * np.eye(2))[0]
        assert prof.estimates[0] == pytest.approx(delta**2 / c, rel=1e-6)
        assert abs(prof.estimates[1]) < 0.1  # first derivative is O(delta)

    def test_one_evaluation_per_stencil_offset(self, monkeypatch):
        delta = 1e-3
        b = linear_fn(np.diag([delta, 2.0]).astype(complex))
        stacks = []

        def counted(fn, lams, order):
            stacks.append(list(lams))
            return eval_T_many(fn, lams, order)

        monkeypatch.setattr(bl, "eval_T_many", counted)
        monkeypatch.setattr(bl, "eval_T", None)
        prof = bl.sigma_min_profile(b, 0.0, disc_radius=delta)
        assert prof.detected_m_mu == 1
        # one stack of the offsets -2..2 of the order-3 stencils, then one of
        # the two-point order-1 stencil at each of the 24 disc samples
        assert [len(s) for s in stacks] == [5, 24 * 2]
        assert len(set(stacks[0])) == 5

    def test_equals_per_point_profile_on_suite(self, suite_rays):
        for name, b, lam, mu in suite_rays:
            r = abs(mu - lam)
            args = (b, lam, (mu - lam) / r)
            assert profile_bytes(bl.sigma_min_profile, *args, disc_radius=r) == \
                profile_bytes(per_point_profile, *args, disc_radius=r), name

    def test_degenerate_center_rejected(self):
        b = linear_fn(np.diag([0.5, 2.0]).astype(complex))
        with pytest.raises(DegenerateSigma):
            bl.sigma_min_profile(b, 0.5, disc_radius=1e-3)

    def test_flat_profile_detects_nothing(self):
        # constant sigma_min: every derivative sits under its noise floor
        b = MatrixFunction.from_terms([
            (Polynomial([1]), np.array([[0.5]], dtype=complex)),
        ])
        prof = bl.sigma_min_profile(b, 0.0, disc_radius=1e-2)
        assert prof.detected_m_mu is None
        assert prof.alpha_estimate is None
        # the rate bound at mu = 1e-2 profiles b along the same ray
        with pytest.raises(DegenerateSigma):
            bl.ritz_value_bound(replace(fixture_context(mu=1e-2), eps=1e-4), b)

    @pytest.mark.parametrize("name,value", [
        ("lambda_star", complex("nan")),
        ("lambda_star", complex(0.0, math.inf)),
        ("direction", complex(1.0, math.nan)),
        ("direction", math.inf),
        ("direction", 0.0),
        ("disc_radius", math.nan),
        ("disc_radius", math.inf),
        ("disc_radius", 0.0),
        ("disc_radius", -1e-3),
    ])
    def test_unusable_argument_raises_before_evaluation(self, monkeypatch, name, value):
        # each is rejected before B is evaluated: a non-finite point warns in
        # the evaluation, and a NaN radius slips past a "<= 0" test to h = 1e-3
        def forbidden(*args):
            raise AssertionError("B was evaluated")

        monkeypatch.setattr(bl, "eval_T_many", forbidden)
        args = {"lambda_star": 0.5, "direction": 1.0, "disc_radius": 1e-3, name: value}
        with pytest.raises(ValueError, match=name):
            bl.sigma_min_profile(fixture_projection(), **args)


class TestJordanBlockOrder:
    def test_semisimple(self):
        m = np.diag([0.7, 0.7, 2.0]).astype(complex)
        assert jordan_block_order(m, 0.7) == 1

    def test_full_block(self):
        assert jordan_block_order(jordan_block(1.5j, 3), 1.5j) == 3

    def test_mixed_blocks_under_similarity(self):
        mu = -0.3 + 0.4j
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = jordan_block(mu, 2)
        m[2, 2] = mu
        rng = np.random.default_rng(12)
        z = np.eye(3) + 0.3 * complex_randn(rng, 3, 3)
        conj = z @ m @ np.linalg.inv(z)
        assert jordan_block_order(conj, mu) == 2

    def test_not_an_eigenvalue(self):
        with pytest.raises(NotAnEigenvalue):
            jordan_block_order(np.diag([1.0, 2.0]).astype(complex), 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signature_equivalence(self, k):
        # derivative-order detection agrees with the rank staircase
        mu = 0.7 + 0.1j
        m_mat = np.zeros((4, 4), dtype=complex)
        m_mat[:k, :k] = jordan_block(mu, k)
        m_mat[k:, k:] = np.diag(np.array([2.0, -1.5, 3.0][: 4 - k], dtype=complex))
        u = seeded_unitary(4, 100 + k)
        b_mat = u @ m_mat @ u.conj().T
        assert jordan_block_order(b_mat, mu) == k
        delta = 1e-3
        prof = bl.sigma_min_profile(
            linear_fn(b_mat), mu - delta, direction=1.0, disc_radius=delta,
        )
        assert prof.detected_m_mu == k


class TestSchurComplement:
    def test_fixture_complement_block(self):
        t, ref, _ = fixture_problem()
        ctx = fixture_context()
        # x* = e3: the reflector's complement basis is e2, -e1
        lmat = complement_compress(ref.x_star, eval_T(t, 0.0, 0))
        assert np.allclose(lmat, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-14)
        assert ctx.sigma_min_L_mu == pytest.approx(1.0, abs=1e-12)
        assert ctx.target.sigma_min_L_star == ctx.sigma_min_L_mu

    def test_linear_diagonal(self):
        t = linear_fn(np.diag([1.0, 2.0, 3.0]).astype(complex))
        full = Subspace.from_basis(np.eye(3, dtype=complex))
        x = np.array([1, 0, 0], dtype=complex)
        ctx = bl.build_case_context(t, full, x, 1.0, 1.0)
        lmat = complement_compress(x, eval_T(t, 1.0, 0))
        assert np.allclose(sorted(np.abs(np.diag(lmat))), [1.0, 2.0], atol=1e-12)
        assert ctx.sigma_min_L_mu == pytest.approx(1.0, abs=1e-12)
        assert ctx.target.norm_L_prime == pytest.approx(1.0, abs=1e-12)

    def test_continuity_toward_target(self):
        sig_star = fixture_context().target.sigma_min_L_star
        sigs = [fixture_context(mu=m).sigma_min_L_mu for m in (1e-2, 1e-3, 1e-4, 1e-5)]
        errs = [abs(s - sig_star) for s in sigs]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


class TestCaseContext:
    def test_target_values_have_one_home(self):
        target_fields = {f.name for f in fields(TargetValues)}
        assert not {f.name for f in fields(bl.CaseContext)} & target_fields

    def test_every_case_of_one_target_holds_one_target_values(self):
        # every case of a target holds T's own record, so they share one object
        by_target: dict[int, list[bl.CaseContext]] = {}
        for inst in builtin_suite():
            t, x, lam = inst.t, inst.ref.x_star, inst.ref.lambda_star
            ctx = bl.build_case_context(t, inst.subspace, x, lam, lam + 1e-3)
            assert ctx.target is t.target_values(lam, x)
            by_target.setdefault(id(t), []).append(ctx)
        assert len(by_target) == 6
        for ctxs in by_target.values():
            assert len(ctxs) >= 3 and all(c.target is ctxs[0].target for c in ctxs)

    def test_stacked_values_equal_one_matrix_at_a_time(self):
        # the T and L stacks give each matrix's values bit for bit
        for inst in builtin_suite()[::5]:
            t, x, lam = inst.t, inst.ref.x_star, inst.ref.lambda_star
            mu = lam + 1e-3 - 2e-3j
            ctx = bl.build_case_context(t, inst.subspace, x, lam, mu)

            def l_at(z, order):
                return complement_compress(x, eval_T(t, z, order))

            tv = ctx.target
            assert tv.t_star_svals.tobytes() == singular_values(eval_T(t, lam, 0)).tobytes()
            assert tv.norm_T_prime == singular_values(eval_T(t, lam, 1))[0]
            assert ctx.norm_T_mu == singular_values(eval_T(t, mu, 0))[0]
            assert tv.sigma_min_L_star == singular_values(l_at(lam, 0))[-1]
            assert tv.norm_L_prime == singular_values(l_at(lam, 1))[0]
            assert ctx.sigma_min_L_mu == singular_values(l_at(mu, 0))[-1]

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(n=st.integers(3, 10), degree=st.integers(1, 4), seed=st.integers(0, 10**6),
           pole=st.booleans(), m=st.integers(1, 3), arg=st.floats(0.0, 6.28))
    def test_complement_quantities_match_explicit_basis(self, n, degree, seed, pole, m, arg):
        # L's values and beta from the reflector equal those of the function
        # X_perp^H T X_perp compressed with LAPACK's complete-QR basis
        lam = 0.2 + 0.1j
        try:
            t, ref = random_planted_nep(n, degree, seed, lam,
                                        rational_pole=1.1 - 0.4j if pole else None)
        except ConstructionFailed:
            assume(False)
        w, _ = np.linalg.qr(complex_randn(np.random.default_rng(seed), n, m))
        s = Subspace.from_basis(w)
        mu = lam + 0.03 * np.exp(1j * arg)
        ctx = bl.build_case_context(t, s, ref.x_star, lam, mu)
        lfn = t.compress(qr_complement(ref.x_star))
        want = singular_values(np.stack(
            [eval_T(lfn, lam, 0), eval_T(lfn, lam, 1), eval_T(lfn, mu, 0)]))
        (beta,) = taylor_remainder_const(lfn, lam, bl.remainder_radius(t, lam, mu))
        for got, ref_value in ((ctx.target.sigma_min_L_star, want[0, -1]),
                               (ctx.target.norm_L_prime, want[1, 0]),
                               (ctx.sigma_min_L_mu, want[2, -1]),
                               (ctx.beta, beta)):
            assert math.isclose(got, ref_value, rel_tol=1e-12, abs_tol=0.0), (got, ref_value)


class TestRemainderDisc:
    """A bound that reads gamma, beta or gamma_B needs mu in the disc they were sampled on."""

    def test_context_records_the_radius(self):
        t, _, _ = fixture_problem()
        assert fixture_context(mu=0.1).radius == bl.remainder_radius(t, 0.0, 0.1) == 0.2

    def test_mu_beyond_the_disc_is_inapplicable(self):
        t, ref, s, case = fixture_perturbed_case(seed=4)
        ctx = bl.build_case_context(t, s, ref.x_star, ref.lambda_star, case.mu)
        ritz = ritz_vector(ctx.tw, ctx.b_mu, ctx.mu, s)
        refined = refined_vector(ctx.tw, ctx.mu, s)
        sin_ritz, sin_refined = (sin_angle(ctx.target.x_star, v)
                                 for v in (ritz.x_tilde, refined.x_hat))
        evaluators = [
            lambda c: bl.residual_angle_bound(c, sin_ritz, ritz.residual_norm, theorem_id="r"),
            lambda c: bl.ritz_vector_angle_bound(c, ritz, sin_ritz, bl.ritz_complements(c, ritz.z)),
            lambda c: bl.refined_bounds(c, refined, sin_refined),
            lambda c: bl.refined_uniqueness_check(c, refined),
        ]
        far = replace(ctx, radius=ctx.mu_dist / 2)
        for evaluate in evaluators:
            evaluate(ctx)  # applicable where mu is inside the disc
            with pytest.raises(HypothesisFailed, match=(
                    f"r = {ctx.mu_dist:.6g} exceeds the remainder disc's radius "
                    f"{far.radius:.6g}")):
                evaluate(far)


class TestPerturbationBounds:
    def test_exact_capture_trivial(self):
        rep = bl.perturbation_norm_bound(fixture_context())
        assert rep.holds and rep.lhs <= 1e-13 and rep.rhs == 0.0

    def test_perturbed_fixture_holds(self):
        t, ref, s, case = fixture_perturbed_case(seed=1)
        ctx = bl.build_case_context(t, s, ref.x_star, 0.0, case.mu)
        rep = bl.perturbation_norm_bound(ctx)
        assert rep.holds and rep.margin >= 0.0

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_eps_sweep_both_bounds(self, eps):
        t, ref, _ = fixture_problem()
        s = build_subspace_eps(ref.x_star, 2, eps, seed=13)
        ctx = bl.build_case_context(t, s, ref.x_star, 0.0, 0.0)
        assert bl.perturbation_norm_bound(ctx).holds
        assert bl.projected_sigma_bound(ctx).holds

    def test_projected_sigma_rhs_closed_form(self):
        # rhs is exactly eps/sqrt(1-eps^2) * ||T(l*)||, so scaled deviations
        # rescale it exactly
        t, ref, _ = fixture_problem()
        rhs = {}
        for eps in (1e-3, 1e-5):
            s = build_subspace_eps(ref.x_star, 2, eps, seed=13)
            ctx = bl.build_case_context(t, s, ref.x_star, 0.0, 0.0)
            rep = bl.projected_sigma_bound(replace(ctx, eps=eps))
            rhs[eps] = rep.rhs / (eps / math.sqrt(1 - eps**2))
            assert rep.holds
        assert rhs[1e-3] == pytest.approx(rhs[1e-5], rel=1e-12)


class TestRitzValueBound:
    def test_trivial_when_mu_equals_target(self):
        rep = bl.ritz_value_bound(fixture_context(), fixture_projection())
        assert rep.holds and rep.lhs == 0.0

    def test_simple_case_holds(self):
        t, ref, s, case = fixture_perturbed_case(seed=2)
        ids = [r.theorem_id for r in case.reports]
        assert "ritz_value_rate" in ids
        rep = case.reports[ids.index("ritz_value_rate")]
        assert rep.holds
        assert rep.intermediates["m_mu"] == 1

    def test_missing_profile_raises(self):
        # B(0) vanishes on the fixture, so sigma_min has no profile there
        with pytest.raises(DegenerateSigma, match="vanishes"):
            bl.ritz_value_bound(fixture_context(mu=1e-3), fixture_projection())


class TestResidualAngleBound:
    def test_exact_pair_trivially_holds(self):
        _, ref, _ = fixture_problem()
        ctx = replace(fixture_context(), gamma=1.0)
        rep = bl.residual_angle_bound(ctx, sin_angle(ctx.target.x_star, ref.x_star), rho=0.0,
                                      theorem_id="residual_to_angle_ritz")
        assert rep.holds and rep.lhs <= 1e-12 and rep.rhs <= 1e-12

    def test_perturbed_refined_pair_tight(self):
        t, ref, s, case = fixture_perturbed_case(seed=3)
        rep = next(r for r in case.reports
                   if r.theorem_id == "residual_to_angle_refined")
        assert rep.holds
        # bound is O(eps): both sides tiny
        assert rep.rhs < 50 * case.epsilon

    def test_perturbed_ritz_pair_weak_but_holds(self):
        t, ref, s, case = fixture_perturbed_case(seed=3)
        rep = next(r for r in case.reports
                   if r.theorem_id == "residual_to_angle_ritz")
        assert rep.holds
        # the classical residual is O(1) here, so the bound cannot be small
        assert rep.rhs > 1e-2

    def test_singular_complement_rejected(self):
        # target vector whose complement block is exactly singular at mu
        x = np.array([0.0, 1.0, 0.0], dtype=complex)
        ctx = fixture_context(x_star=x)
        with pytest.raises(HypothesisFailed):
            bl.residual_angle_bound(ctx, 0.0, rho=0.0, theorem_id="residual_to_angle_ritz")


class TestRitzVectorAngleBound:
    def test_degenerate_fixture_inapplicable(self):
        t, ref, w = fixture_problem()
        s = Subspace.from_basis(w)
        b = project(t, s)
        ritz = ritz_vector(eval_T(t, 0.0) @ s.basis, eval_T(b, 0.0), 0.0, s)
        ctx = fixture_context()
        with pytest.raises(HypothesisFailed, match="geometric multiplicity 2"):
            bl.ritz_vector_angle_bound(ctx, ritz, sin_angle(ctx.target.x_star, ritz.x_tilde),
                                       bl.ritz_complements(ctx, ritz.z))

    def test_perturbed_fixture_holds_and_explains(self):
        t, ref, s, case = fixture_perturbed_case(seed=4)
        rep = next(r for r in case.reports if r.theorem_id == "ritz_vector_angle")
        assert rep.holds
        # sigma_min(C(l*)) is O(eps), which is why the classical vector is poor
        assert rep.intermediates["sigma_min_C_star"] < 100 * case.epsilon
        assert rep.rhs > 1e-2

    def test_well_separated_case_bound_is_small(self):
        t = linear_fn(np.diag([0.0, 2.0, 3.0, -4.0]).astype(complex))
        x = np.array([1, 0, 0, 0], dtype=complex)
        from nepritz.nep_model import ReferencePair

        ref = ReferencePair(0.0, x)
        eps = 1e-6
        s = build_subspace_eps(x, 2, eps, seed=8)
        case = analyze_case(t, ref, s)
        rep = next(r for r in case.reports if r.theorem_id == "ritz_vector_angle")
        assert rep.holds and rep.rhs < 1e3 * eps


class TestRefinedBounds:
    def test_exact_capture_degenerate_case(self):
        t, ref, w = fixture_problem()
        s = Subspace.from_basis(w)
        refined = refined_vector(eval_T(t, 0.0) @ s.basis, 0.0, s)
        ctx = replace(fixture_context(), gamma=1.0, beta=1.0)
        reports = bl.refined_bounds(ctx, refined, sin_angle(ctx.target.x_star, refined.x_hat))
        assert all(r.holds for r in reports)
        res = next(r for r in reports if r.theorem_id == "refined_residual")
        ang = next(r for r in reports if r.theorem_id == "refined_angle")
        assert res.lhs <= 1e-13 and res.rhs <= 1e-13
        assert ang.lhs <= 1e-12

    def test_perturbed_fixture_order_eps(self):
        t, ref, s, case = fixture_perturbed_case(seed=5)
        res = next(r for r in case.reports if r.theorem_id == "refined_residual")
        ang = next(r for r in case.reports if r.theorem_id == "refined_angle")
        assert res.holds and ang.holds
        assert res.rhs < 100 * case.epsilon
        assert ang.rhs < 100 * case.epsilon

    def test_far_value_hypothesis_fails(self):
        t, ref, _ = fixture_problem()
        s = Subspace.from_basis(fixture_problem()[2])
        refined = refined_vector(eval_T(t, 0.9) @ s.basis, 0.9, s)
        ctx = replace(fixture_context(mu=0.9), gamma=1.0, beta=10.0)
        with pytest.raises(HypothesisFailed):
            # |mu - l*| approx 0.9 with beta large: lower estimate goes negative
            bl.refined_bounds(ctx, refined, sin_angle(ctx.target.x_star, refined.x_hat))


class TestUniquenessCheck:
    def test_fixture_certificate(self):
        t, ref, w = fixture_problem()
        s = Subspace.from_basis(w)
        refined = refined_vector(eval_T(t, 0.0) @ s.basis, 0.0, s)
        rep = bl.refined_uniqueness_check(replace(fixture_context(), gamma=0.0), refined)
        assert rep.intermediates["sigma2_T_star"] == pytest.approx(1.0, abs=1e-12)
        assert rep.intermediates["hypotheses_hold"] == 1.0
        assert rep.holds
        # predicted gap one half, measured gap one
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_far_value_vacuous(self):
        t, ref, w = fixture_problem()
        s = Subspace.from_basis(w)
        refined = refined_vector(eval_T(t, 0.45) @ s.basis, 0.45, s)
        ctx = replace(fixture_context(mu=0.45), gamma=50.0)
        rep = bl.refined_uniqueness_check(ctx, refined)
        assert rep.intermediates["hypotheses_hold"] == 0.0
        assert rep.holds  # vacuous, never failed

    def test_perturbed_fixture_certified(self):
        t, ref, s, case = fixture_perturbed_case(seed=6)
        rep = next(r for r in case.reports if r.theorem_id == "refined_uniqueness")
        assert rep.intermediates["hypotheses_hold"] == 1.0
        assert rep.holds
        assert rep.intermediates["gap_certificate"] == 1.0


class TestAngleSandwich:
    def test_degenerate_fixture_inapplicable(self):
        t, ref, w = fixture_problem()
        s = Subspace.from_basis(w)
        b = project(t, s)
        ritz = ritz_vector(eval_T(t, 0.0) @ s.basis, eval_T(b, 0.0), 0.0, s)
        refined = refined_vector(eval_T(t, 0.0) @ s.basis, 0.0, s)
        with pytest.raises(HypothesisFailed):
            ctx = fixture_context()
            bl.angle_sandwich(ctx, ritz, refined, sin_angle(ritz.x_tilde, refined.x_hat),
                              bl.ritz_complements(ctx, ritz.z))

    def test_perturbed_fixture_brackets_tightly(self):
        t, ref, s, case = fixture_perturbed_case(seed=7)
        lower = next(r for r in case.reports if r.theorem_id == "angle_sandwich_lower")
        upper = next(r for r in case.reports if r.theorem_id == "angle_sandwich_upper")
        ident = next(r for r in case.reports if r.theorem_id == "angle_identity")
        assert lower.holds and upper.holds and ident.holds
        sin_between = lower.rhs
        # the three are equal in exact arithmetic with a 1x1 complement
        # block, so the chain may be off by rounding: a few ulps of sin_between
        ulps = 4 * 2.2e-16 * sin_between
        assert upper.rhs >= sin_between - ulps
        assert sin_between >= lower.lhs - ulps
        # with a 1x1 complement block the two sides pinch the angle
        assert upper.rhs == pytest.approx(lower.lhs, rel=1e-6)
        assert ident.lhs <= 1e-8

    def test_one_dimensional_subspace_trivial(self):
        t, ref, _ = fixture_problem()
        w = np.zeros((3, 1), dtype=complex)
        w[2, 0] = 1.0
        s = Subspace.from_basis(w)
        b = project(t, s)
        ritz = ritz_vector(eval_T(t, 0.0) @ s.basis, eval_T(b, 0.0), 0.0, s)
        refined = refined_vector(eval_T(t, 0.0) @ s.basis, 0.0, s)
        ctx = fixture_context(w=w)
        complements = bl.ritz_complements(ctx, ritz.z)
        assert complements is None
        reports = bl.angle_sandwich(ctx, ritz, refined, sin_angle(ritz.x_tilde, refined.x_hat),
                                    complements)
        assert all(r.holds for r in reports)


class TestResidualRatioSandwich:
    def test_fixture_degenerate_ratio(self):
        t, ref, w = fixture_problem()
        s = Subspace.from_basis(w)
        b = project(t, s)
        ritz = ritz_vector(eval_T(t, 0.0) @ s.basis, eval_T(b, 0.0), 0.0, s)
        refined = refined_vector(eval_T(t, 0.0) @ s.basis, 0.0, s)
        with pytest.raises(DegenerateRatio):
            bl.residual_ratio_sandwich(ritz, refined, sin_angle(ritz.x_tilde, refined.x_hat))

    def test_perturbed_fixture_bracket(self):
        t, ref, s, case = fixture_perturbed_case(seed=8)
        lower = next(r for r in case.reports if r.theorem_id == "residual_ratio_lower")
        upper = next(r for r in case.reports if r.theorem_id == "residual_ratio_upper")
        assert lower.holds and upper.holds
        ratio_sq = lower.rhs
        assert lower.lhs <= ratio_sq * (1 + 1e-8)
        assert ratio_sq <= upper.rhs * (1 + 1e-8)
        # the ratio of residuals is enormous: the refined residual is O(eps)
        assert math.sqrt(ratio_sq) > 1e2

    def test_identical_vectors_ratio_one(self):
        t, ref, _ = fixture_problem()
        w = np.zeros((3, 1), dtype=complex)
        w[2, 0] = 1.0
        s = Subspace.from_basis(w)
        b = project(t, s)
        mu = 1e-4  # not an exact eigenvalue: residual positive, ratio is 1
        refined = refined_vector(eval_T(t, mu) @ s.basis, mu, s)
        from nepritz.extraction import RitzExtraction

        ritz = RitzExtraction(
            mu=mu, z=refined.y, x_tilde=refined.x_hat,
            residual_norm=refined.sigma_hat_1, geometric_multiplicity=1,
            nonunique_flag=False,
        )
        reports = bl.residual_ratio_sandwich(ritz, refined, sin_angle(ritz.x_tilde, refined.x_hat))
        for rep in reports:
            assert rep.holds
            assert rep.lhs == pytest.approx(1.0, rel=1e-10)
            assert rep.rhs == pytest.approx(1.0, rel=1e-10)


class TestReportSerialization:
    # the command line writes reports.jsonl and summary.csv; the library
    # only returns the reports
    def test_jsonl_schema(self, tmp_path):
        import json

        from nepritz.cli import _write_reports

        t, ref, s, case = fixture_perturbed_case(seed=9)
        _write_reports(tmp_path, [("case0", case.reports[0])])
        doc = json.loads((tmp_path / "reports.jsonl").read_text())
        assert set(doc) == {"instance_id", "theorem_id", "lhs", "rhs", "holds",
                            "slack_allowance", "intermediates"}
        assert doc["intermediates"] == case.reports[0].intermediates

    def test_jsonl_and_csv_writers(self, tmp_path):
        import csv
        import json

        from nepritz.cli import _write_reports

        t, ref, s, case = fixture_perturbed_case(seed=10)
        tagged = [("case0", r) for r in case.reports]
        jpath = tmp_path / "reports.jsonl"
        cpath = tmp_path / "summary.csv"
        _write_reports(tmp_path, tagged)
        lines = jpath.read_text().strip().splitlines()
        assert len(lines) == len(case.reports)
        first = json.loads(lines[0])
        assert first["instance_id"] == "case0" and "lhs" in first
        with open(cpath) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance_id", "theorem_id", "lhs", "rhs", "margin"]
        assert len(rows) == len(case.reports) + 1
