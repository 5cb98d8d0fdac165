import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import adversarial_case, complex_randn, qr_complement, seeded_delay_problem

import nepritz.experiments as ex
import nepritz.small_nep_solver as sns
from nepritz.cli import _write_reports
from nepritz.dense_kernels import complement_compress, norm2
from nepritz.errors import ConstructionFailed, NonConverged
from nepritz.extraction import sin_angle
from nepritz.nep_model import ReferencePair, eval_T, eval_T_many, load_problem
from nepritz.projection import Subspace, deviation, project
from nepritz.small_nep_solver import newton_trace_refine, select_ritz_value, solve_projected


DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


def unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


class TestBuildSubspaceEps:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_deviation_is_exact(self, eps):
        rng = np.random.default_rng(3)
        x = unit(complex_randn(rng, 5))
        s = ex.build_subspace_eps(x, 3, eps, seed=11)
        assert abs(deviation(s, x) - eps) <= 1e-10

    def test_deterministic(self):
        x = unit([1, 2, 3j, -1])
        a = ex.build_subspace_eps(x, 2, 1e-3, seed=9)
        b = ex.build_subspace_eps(x, 2, 1e-3, seed=9)
        assert np.array_equal(a.basis, b.basis)

    def test_single_column_closed_form(self):
        x = unit([1, 0, 0])
        s = ex.build_subspace_eps(x, 1, 0.5, seed=4)
        assert deviation(s, x) == pytest.approx(0.5, abs=1e-12)

    def test_range_validation(self):
        x = unit([1, 0, 0])
        with pytest.raises(ValueError):
            ex.build_subspace_eps(x, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            ex.build_subspace_eps(x, 1, 1.0, seed=0)

    def test_no_room_rejected(self):
        x = unit([1, 0])
        # n = 2, m = 1 works; m cannot reach n
        s = ex.build_subspace_eps(x, 1, 1e-2, seed=0)
        assert abs(deviation(s, x) - 1e-2) < 1e-10
        with pytest.raises(ValueError):
            ex.build_subspace_eps(x, 2, 1e-2, seed=0)

    @pytest.mark.parametrize("m", [1.5, 2.5, True, 2.0, np.float64(2.0), "2"])
    def test_non_integer_m_rejected(self, m):
        # 1.5 built 2 columns, 2.5 built 3 and True built 1
        with pytest.raises(ValueError, match="m must be an integer"):
            ex.build_subspace_eps(unit([1, 2, 3j, -1]), m, 1e-3, seed=9)

    def test_numpy_integer_m_accepted(self):
        x = unit([1, 2, 3j, -1])
        s = ex.build_subspace_eps(x, np.int64(2), 1e-3, seed=9)
        assert np.array_equal(s.basis, ex.build_subspace_eps(x, 2, 1e-3, seed=9).basis)

    def test_sweep_with_non_integer_m_rejected(self):
        # run_sweep(..., m=1.5) returned ok with 2-dimensional subspaces
        t, ref, _ = ex.simple_rate_instance()
        with pytest.raises(ValueError, match="m must be an integer"):
            ex.run_sweep(t, ref, [1e-2, 1e-6], trials=1, m=1.5)

    @pytest.mark.parametrize("x_star,m", [
        ([0, 0, 0], 2), ([math.inf, 0, 0], 2), ([math.nan, 0, 0], 1), ([2, 0, 0], 2),
    ], ids=["zero", "inf", "nan", "norm-2"])
    def test_non_unit_x_star_rejected(self, x_star, m):
        # a zero or non-finite x_star made every drawn column's norm NaN, so
        # the loop that collects the m columns never ended
        with pytest.raises(ValueError, match="^(x_star must be unit norm|expected a finite)"):
            ex.build_subspace_eps(np.array(x_star, dtype=complex), m, 0.1, seed=1)


class TestPerturbSubspace:
    def test_zero_sigma_identity(self):
        _, _, w = ex.fixture_problem()
        s = Subspace.from_basis(w)
        s2 = ex.perturb_subspace(s, 0.0, seed=3)
        assert s2 is s

    def test_deviation_scales_with_sigma(self):
        t, ref, w = ex.fixture_problem()
        s = Subspace.from_basis(w)
        for sigma, lo, hi in [(1e-4, 1e-6, 1e-2), (1e-6, 1e-8, 1e-4)]:
            devs = [deviation(ex.perturb_subspace(s, sigma, seed=k), ref.x_star)
                    for k in range(20)]
            med = float(np.median(devs))
            assert lo <= med <= hi

    def test_linear_scaling_across_sigmas(self):
        t, ref, w = ex.fixture_problem()
        s = Subspace.from_basis(w)
        ratios = []
        for k in range(20):
            d_hi = deviation(ex.perturb_subspace(s, 1e-4, seed=k), ref.x_star)
            d_lo = deviation(ex.perturb_subspace(s, 1e-6, seed=k), ref.x_star)
            ratios.append(d_lo / d_hi)
        med = float(np.median(ratios))
        assert 3e-3 <= med <= 3e-1  # two decades of sigma, two decades of eps

    def test_preserves_orthonormality(self):
        _, _, w = ex.fixture_problem()
        s2 = ex.perturb_subspace(Subspace.from_basis(w), 1e-4, seed=8)
        assert norm2(s2.basis.conj().T @ s2.basis - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("sigma,seed,message", [
        (np.finfo(float).max, 2, "overflows the perturbed basis"),
        (np.finfo(float).max, 0, "is not orthonormal after Gram-Schmidt"),
        (1e200, 0, "is not orthonormal after Gram-Schmidt"),
    ])
    def test_huge_sigma_raises_construction_failed(self, sigma, seed, message):
        _, _, w = ex.fixture_problem()
        with pytest.raises(ConstructionFailed, match=message):
            ex.perturb_subspace(Subspace.from_basis(w), sigma, seed=seed)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -1e-4])
    def test_non_finite_or_negative_sigma_rejected(self, sigma):
        # NaN and inf reached the basis and came back as ConstructionFailed
        _, _, w = ex.fixture_problem()
        with pytest.raises(ValueError, match=r"^sigma must be in \[0, inf\), not "):
            ex.perturb_subspace(Subspace.from_basis(w), sigma, seed=0)
        with pytest.raises(ValueError, match=r"^sigma must be in \[0, inf\), not "):
            ex.run_example2(sigma=sigma, seeds=(0,))


class TestRunExample1:
    def test_all_checks_pass(self):
        result = ex.run_example1()
        assert result["ok"]
        names = {c["name"] for c in result["checks"]}
        assert {"ritz_value_zero", "projected_double_kernel",
                "geometric_multiplicity_two", "symmetric_choice_residual",
                "refined_recovers_target", "refined_residual_zero",
                "residual_ratio_degenerate"} <= names

    def test_target_selection_full_space(self):
        t, ref, _ = ex.fixture_problem()
        s = Subspace.from_basis(np.eye(3, dtype=complex))
        case = ex.analyze_case(t, ref, s, region_center=-0.9, region_radius=1.0,
                               target=-0.9)
        assert case.mu == pytest.approx(-1.0, abs=1e-9)

    def test_target_mode_mu_beyond_the_remainder_disc(self):
        # mu = -1 lies 1.0 from lambda* = 0, and the pole at 1 caps the
        # remainder disc at 0.45, so the uniqueness check is inapplicable
        t, ref, _ = ex.fixture_problem()
        s = Subspace.from_basis(np.eye(3, dtype=complex))
        case = ex.analyze_case(t, ref, s, region_center=-0.9, region_radius=1.0,
                               target=-0.9)
        assert dict(case.inapplicable)["refined_uniqueness"] == (
            "HypothesisFailed: r = 1 exceeds the remainder disc's radius 0.45; "
            "gamma, beta and gamma_B do not cover mu")

    def test_target_mode_ok_follows_the_verdicts(self, monkeypatch):
        # ok is "every applicable bound holds", as in the other experiments
        assert ex.run_example1_target(-0.9)["ok"]
        analyze = ex.analyze_case

        def failing(*args, **kwargs):
            case = analyze(*args, **kwargs)
            case.reports[0] = dataclasses.replace(case.reports[0], holds=False)
            return case

        monkeypatch.setattr(ex, "analyze_case", failing)
        assert not ex.run_example1_target(-0.9)["ok"]

    def test_full_space_refined_recovery(self):
        t, ref, _ = ex.fixture_problem()
        s = Subspace.from_basis(np.eye(3, dtype=complex))
        case = ex.analyze_case(t, ref, s, region_center=0.0, region_radius=0.5)
        assert case.epsilon <= 1e-12
        assert case.sin_refined <= 1e-10


class TestRunExample2:
    def test_small_seed_count_smoke(self):
        result = ex.run_example2(sigma=1e-4, seeds=tuple(range(5)), seed_base=0)
        assert result["n_seeds"] == 5
        assert result["ok"]
        assert all(r["verdicts"] for r in result["records"])

    def test_smaller_sigma_same_split(self):
        result = ex.run_example2(sigma=1e-6, seeds=tuple(range(5)), seed_base=0)
        assert result["ok"]
        med = result["medians"]
        assert 1e-7 <= med["sin_refined"] <= 1e-5
        assert med["sin_ritz"] >= 1e-2

    def test_sigma_zero_degenerates_to_exact_capture(self):
        result = ex.run_example2(sigma=0.0, seeds=(0,), seed_base=0)
        rec = result["records"][0]
        assert rec["epsilon"] == 0.0
        assert abs(complex(*rec["mu"])) <= 1e-10
        assert rec["sigma_hat_1"] <= 1e-12

    def test_records_are_the_cases_they_came_from(self):
        t, ref, w = ex.fixture_problem()
        s = ex.perturb_subspace(Subspace.from_basis(w), 1e-4, 3)
        case = ex.analyze_case(t, ref, s, region_center=0.0, region_radius=1e6)
        rec = ex.run_example2(sigma=1e-4, seeds=(3,), seed_base=0)["records"][0]
        assert rec == ex.trial_record(case, 3, epsilon=case.epsilon)
        assert rec["rho_ritz"] == case.ritz.residual_norm
        assert rec["sigma_hat_1"] == case.refined.sigma_hat_1

    def test_empty_seeds_rejected(self):
        # medians and the per-seed check over zero records mean nothing
        with pytest.raises(ValueError, match="seeds"):
            ex.run_example2(seeds=())

    @pytest.mark.parametrize("kwargs,name", [
        ({"seeds": (0, -1)}, "seeds"), ({"seeds": (True,)}, "seeds"), ({"seeds": (1.0,)}, "seeds"),
        ({"seed_base": -1}, "seed_base"), ({"seed_base": 1.5}, "seed_base"),
    ])
    def test_negative_or_non_integer_seed_rejected(self, kwargs, name):
        # a negative seed surfaced numpy's "expected non-negative integer"
        with pytest.raises(ValueError, match=rf"^{name}(\[\d+\])? must be an integer >= 0"):
            ex.run_example2(**kwargs)

    def test_refined_window_follows_the_measured_deviation(self):
        # at sigma = 1e-300 the bases read epsilon = 0 and the refined sine 0,
        # which the window (sigma / 10, 10 sigma) rejected
        result = ex.run_example2(sigma=1e-300, seeds=(0, 1))
        assert result["medians"]["epsilon"] == 0.0
        assert result["ok"], result["checks"]


class TestAnalyzeCase:
    @pytest.mark.xfail(strict=True, reason=(
        "refined_bounds is one family: the angle's hypothesis marks "
        "refined_residual, which has none, inapplicable too"))
    def test_failed_angle_hypothesis_keeps_the_refined_residual(self, monkeypatch):
        import nepritz.bounds_lab as bl

        real = bl.build_case_context

        def no_gap(*args, **kwargs):
            ctx = real(*args, **kwargs)
            return dataclasses.replace(
                ctx, target=dataclasses.replace(ctx.target, sigma_min_L_star=0.0))

        monkeypatch.setattr(bl, "build_case_context", no_gap)
        inst = ex.builtin_suite()[0]
        case = ex.analyze_case(inst.t, inst.ref, inst.subspace)
        assert "refined_residual" in {r.theorem_id for r in case.reports}
        assert [tid for tid, _ in case.inapplicable] == ["refined_angle"]

    def test_a_start_where_b_overflows_ends_alone(self):
        # one of the 88 grid starts wanders to 16.3 - 7.3i, where e^(50 lam)
        # overflows: that start is spurious and the case runs on, with no
        # RuntimeWarning (pytest turns one into an error)
        t, ref = seeded_delay_problem(50.0, 2)
        s = ex.build_subspace_eps(ref.x_star, 2, 1e-4, 0)
        case = ex.analyze_case(t, ref, s)
        starts = sns._grid_seeds(0.0, 1.0)
        outcomes, _ = newton_trace_refine(project(t, s), starts)
        diverged = [z for z, r in zip(starts, outcomes)
                    if isinstance(r, NonConverged) and "NaN/Inf" in str(r)]
        assert len(diverged) == 1
        assert set(diverged) <= set(case.spectrum.filtered_spurious)

    @pytest.mark.parametrize("a,seed", [(-20.0, 19), (-20.0, 29), (50.0, 26), (50.0, 48)])
    def test_newton_solves_with_entries_above_1e154_are_checked(self, a, seed):
        # B reaches entries of about 1e260 at some grid iterates, so the
        # residual check's column norms overflow; it must decide them without
        # a RuntimeWarning (pytest turns one into an error)
        t, ref = seeded_delay_problem(a, seed)
        case = ex.analyze_case(t, ref, ex.build_subspace_eps(ref.x_star, 2, 1e-4, 0))
        assert isinstance(case, ex.CaseResult)

    def test_a_finer_grid_finds_the_ritz_value_that_the_pin_below_misses(self, monkeypatch):
        t, ref = seeded_delay_problem(-20.0, 2)
        b = project(t, ex.build_subspace_eps(ref.x_star, 2, 1e-4, 1))
        coarse = solve_projected(b, 0.0, 1.0)
        monkeypatch.setattr(sns, "GRID_DENSITY", 80)
        fine = solve_projected(b, 0.0, 1.0)
        assert min(abs(z) for z in coarse.eigenvalues) > 0.1
        assert min(abs(z) for z in fine.eigenvalues) < 1e-4

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: the 12 x 12 Newton grid misses the Ritz value 1.5e-5 from "
        "lambda*, so a Ritz value 0.119 away is selected and ritz_value_rate is violated"))
    def test_the_grid_finds_the_ritz_value_near_lambda_star(self):
        t, ref = seeded_delay_problem(-20.0, 2)
        case = ex.analyze_case(t, ref, ex.build_subspace_eps(ref.x_star, 2, 1e-4, 1))
        assert case.mu_dist < 1e-3

    def test_each_case_quantity_is_derived_once(self, monkeypatch):
        # only B is compressed into a function; L's values come from T's
        # stack, and gamma, beta, gamma_B from one remainder pass over T's
        # directions
        import nepritz.bounds_lab as bl
        from nepritz import nep_model

        calls = {"compress": 0, "taylor_remainder_const": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (nep_model, bl, ex):
            if hasattr(mod, "taylor_remainder_const"):
                monkeypatch.setattr(mod, "taylor_remainder_const",
                                    counted("taylor_remainder_const",
                                            mod.taylor_remainder_const))
        monkeypatch.setattr(nep_model.MatrixFunction, "compress",
                            counted("compress", nep_model.MatrixFunction.compress))
        inst = ex.builtin_suite()[0]
        case = ex.analyze_case(inst.t, inst.ref, inst.subspace)
        assert case.all_hold
        assert calls == {"compress": 1, "taylor_remainder_const": 1}


    def test_each_matrix_at_mu_is_evaluated_once(self, monkeypatch):
        # the context evaluates T(mu) and nothing else at mu: B(mu) is
        # W^H (T(mu) W), and both extractions read that one T(mu) W; a point
        # of an eval_T_many stack counts as one evaluation
        import nepritz.bounds_lab as bl
        import nepritz.extraction as extraction

        inst = ex.builtin_suite()[0]
        mu = ex.analyze_case(inst.t, inst.ref, inst.subspace).mu
        at_mu = []

        def counted(fn, lam, order=0):
            assert fn is inst.t, "the case context evaluated a function other than T"
            if lam == mu:
                at_mu.append((fn.n, order))
            return eval_T(fn, lam, order)

        def counted_many(fn, lams, order=0):
            at_mu.extend((fn.n, order) for lam in lams if lam == mu)
            return eval_T_many(fn, lams, order)

        def forbidden(*args):
            raise AssertionError("extraction evaluated T itself")

        monkeypatch.setattr(bl, "eval_T", counted)
        monkeypatch.setattr(bl, "eval_T_many", counted_many)
        monkeypatch.setattr(extraction, "eval_T", forbidden)
        case = ex.analyze_case(inst.t, inst.ref, inst.subspace)
        assert case.mu == mu and case.all_hold
        # T(mu) once; L(mu) is its reflector block and B(mu) its compression
        assert at_mu == [(inst.t.n, 0)]

    def test_case_context_takes_no_projected_function(self):
        import inspect

        import nepritz.bounds_lab as bl
        params = inspect.signature(bl.build_case_context).parameters
        assert list(params) == ["t", "s", "x_star", "lambda_star", "mu"]

    def test_target_quantities_are_derived_once(self, monkeypatch):
        # T(l*), T'(l*) and the split of x* that gives eps live in the case
        # context; the witness and the bound evaluators read them from there,
        # and projection.deviation, which forms that split, is never called.
        # T is evaluated at l* once per order for all subspaces of a target.
        import sys

        insts = ex.builtin_suite()[:3]  # poly3 at three deviations: one T, one ref
        assert all(i.t is insts[0].t and i.ref is insts[0].ref for i in insts)
        n, lam = insts[0].t.n, insts[0].ref.lambda_star
        t_at_star, deviations = [], []

        def counted_many(fn, zs, order=0):
            t_at_star.extend(order for z in zs if fn.n == n and z == lam)
            return eval_T_many(fn, zs, order)

        def counted_deviation(*args):
            deviations.append(args)
            return deviation(*args)

        # eval_T is a one-point eval_T_many, so this counts every evaluation
        for name, mod in list(sys.modules.items()):
            if name.startswith("nepritz"):
                for attr, counted in (("eval_T_many", counted_many),
                                      ("deviation", counted_deviation)):
                    if hasattr(mod, attr):
                        monkeypatch.setattr(mod, attr, counted)
        for inst in insts:
            assert ex.analyze_case(inst.t, inst.ref, inst.subspace).all_hold
        assert sorted(t_at_star) == [0, 1]
        assert deviations == []

    def test_reused_target_values_change_no_bit(self):
        # forward order, reverse order, and each case cold on a fresh T give
        # the same mu, reports, spectrum and vectors, bit for bit, on the
        # suite, a planted degree-2 problem at n = 128, m = 16 (the large_n
        # family), a delay problem with an exp term, example2's fixture and
        # the rational3 problem file.  The n = 128 and delay problems have
        # one nonlinear term, so beta reads the target's complement_norms;
        # poly6, rat4, rat5, the fixture and rational3 have two, so a case
        # at the radius of the one before it reads T's remainder sampling
        def outputs(case):
            return (case.mu.real.hex(), case.mu.imag.hex(),
                    [(r.theorem_id, r.lhs.hex(), r.rhs.hex(),
                      {k: v.hex() for k, v in r.intermediates.items()}) for r in case.reports],
                    case.inapplicable, [z.hex() for e in case.spectrum.eigenvalues
                                        for z in (e.real, e.imag)],
                    [r.hex() for r in case.spectrum.residuals],
                    case.spectrum.multiplicities, case.spectrum.method,
                    case.ritz.x_tilde.tobytes(), case.refined.x_hat.tobytes())

        def cases():
            out = [(i.t, i.ref, i.subspace, {}) for i in ex.builtin_suite()]
            t, ref = ex.random_planted_nep(128, 2, 7000, 0.3 + 0.2j)
            out += [(t, ref, ex.build_subspace_eps(ref.x_star, 16, eps, 7000 + 7 * k), {})
                    for k, eps in enumerate((1e-2, 1e-6))]
            t, ref = seeded_delay_problem(-1.0, 0)
            out += [(t, ref, ex.build_subspace_eps(ref.x_star, 2, eps, k), {})
                    for k, eps in enumerate((1e-2, 1e-5))]
            t, ref, w = ex.fixture_problem()  # as run_example2 analyses it
            out += [(t, ref, ex.perturb_subspace(Subspace.from_basis(w), 1e-4, seed),
                     {"region_center": 0.0, "region_radius": 1e6}) for seed in range(3)]
            t, ref = load_problem(DEMO_PROBLEMS / "rational3.json")
            out += [(t, ref, ex.build_subspace_eps(ref.x_star, 2, eps, 42 + k), {})
                    for k, eps in enumerate((1e-2, 1e-5, 1e-8))]
            return out

        def run(t, ref, s, kwargs):
            return outputs(ex.analyze_case(t, ref, s, **kwargs))

        forward = [run(*c) for c in cases()]
        reverse = [run(*c) for c in reversed(cases())][::-1]
        cold = [run(dataclasses.replace(t), ref, s, kw) for t, ref, s, kw in cases()]
        assert len(forward) == 38 + 2 + 2 + 3 + 3
        assert forward == reverse == cold

        # one target, radii alternating: the floor radius of eps <= 1e-4,
        # then one eps = 1e-2 case's own, then the floor again; each case
        # that follows one at its radius reads the kept sampling
        poly6 = {i.instance_id: i for i in ex.builtin_suite() if i.instance_id[:5] == "poly6"}
        order = ["eps1e-04", "eps1e-05", "eps1e-02", "eps1e-02", "eps1e-06", "eps1e-07"]
        t = poly6["poly6-eps1e-04"].t
        hits = []
        for name in order:
            inst = poly6[f"poly6-{name}"]
            before = vars(t).get("_remainder")
            warm = run(t, inst.ref, inst.subspace, {})
            hits.append(vars(t)["_remainder"] is before)
            assert warm == run(dataclasses.replace(t), inst.ref, inst.subspace, {})
        assert hits == [False, True, False, True, False, True]

    def test_non_finite_target_is_named_before_anything_is_projected(self, monkeypatch):
        # a NaN target was reported as select_ritz_value's "point", after the
        # projection and the solve
        def forbidden(*args):
            raise AssertionError("projected with a non-finite target")

        monkeypatch.setattr(ex, "project", forbidden)
        t, ref, w = ex.fixture_problem()
        for target in (math.nan, complex(0.0, math.inf)):
            with pytest.raises(ValueError, match="^target must be finite, not "):
                ex.analyze_case(t, ref, Subspace.from_basis(w), target=target)
        t, ref = ex.random_planted_nep(4, 2, 1, 0.3 + 0.2j)
        with pytest.raises(ValueError, match="^target must be finite, not "):
            ex.run_sweep(t, ref, [1e-2, 1e-4, 1e-6], trials=1, target=math.nan)

    def test_each_angle_is_measured_once(self, monkeypatch):
        # sin(x*, x~), sin(x*, x^) and sin(x~, x^) are CaseResult fields, and
        # the five evaluators that report one of them read it from the case
        import nepritz.bounds_lab as bl

        pairs = []

        def counted(a, b):
            pairs.append((a, b))
            return sin_angle(a, b)

        for mod in (ex, bl):
            monkeypatch.setattr(mod, "sin_angle", counted, raising=False)
        inst = ex.builtin_suite()[7]  # poly6, m = 3
        case = ex.analyze_case(inst.t, inst.ref, inst.subspace)
        assert case.all_hold and not case.inapplicable
        assert len(pairs) == 3
        by_id = {r.theorem_id: r.lhs for r in case.reports}
        assert by_id["residual_to_angle_ritz"] == by_id["ritz_vector_angle"] == case.sin_ritz
        assert by_id["refined_angle"] == case.sin_refined
        assert by_id["angle_sandwich_upper"] == case.sin_between

    def test_one_compression_of_the_projected_pair(self, monkeypatch):
        # for m >= 2, C(l*) and C(mu) are one complement_compress of the
        # stack [B(l*), B(mu)] against the complement of z
        import nepritz.bounds_lab as bl

        inst = ex.builtin_suite()[7]
        m = inst.subspace.dim
        compressed = []

        def counted(x, a):
            a = np.asarray(a)
            if a.ndim >= 2 and a.shape[-2:] == (m, m):
                compressed.append(a)
            return complement_compress(x, a)

        monkeypatch.setattr(bl, "complement_compress", counted)
        case = ex.analyze_case(inst.t, inst.ref, inst.subspace)
        assert case.all_hold and not case.inapplicable
        [pair] = compressed
        assert pair.shape == (2, m, m)
        s = inst.subspace.basis
        t_star, t_mu = eval_T_many(inst.t, [inst.ref.lambda_star, case.mu], 0)
        assert np.array_equal(pair[0], s.conj().T @ t_star @ s)
        assert np.array_equal(pair[1], s.conj().T @ (t_mu @ s))


class TestRandomPlantedNep:
    @pytest.mark.parametrize("name,n,degree,seed,lam,pole,m", ex._SUITE_BASES)
    def test_suite_bases_are_valid(self, name, n, degree, seed, lam, pole, m):
        t, ref = ex.random_planted_nep(n, degree, seed, lam, rational_pole=pole)
        ref.validate(t)
        assert t.n == n

    def test_rational_pole_recorded(self):
        t, _ = ex.random_planted_nep(4, 2, 303, 0.1 + 0.1j, rational_pole=2.0)
        assert any(abs(p - 2.0) < 1e-9 for p in t.domain_poles)

    @pytest.mark.parametrize("n,degree,name", [(0, 2, "n"), (1, 2, "n"), (2, 0, "degree"),
                                               (3, -1, "degree")])
    def test_unusable_size_or_degree_raises(self, n, degree, name):
        # planting leaves a 1 x 1 T(l*) = 0, so no n = 1 pair is simple, and a
        # constant T has no eigenvalue derivative
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ex.random_planted_nep(n, degree, 0, 0.3)


    @pytest.mark.parametrize("name,lam,pole", [
        ("lambda_star", math.inf, None), ("lambda_star", complex(0, math.nan), None),
        ("rational_pole", 0.3, math.inf), ("rational_pole", 0.3, complex(math.nan, 0)),
    ])
    def test_non_finite_eigenvalue_or_pole_raises_before_any_draw(self, name, lam, pole):
        # they used to reach the planted rank-one update, which warned and
        # then failed with "matrix has NaN/Inf entries"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ex.random_planted_nep(4, 2, 303, lam, rational_pole=pole)


class TestRunSweep:
    def test_requires_four_decades(self):
        t, ref, m = ex.simple_rate_instance()
        with pytest.raises(ValueError):
            ex.run_sweep(t, ref, eps_list=[1e-2, 1e-3], trials=1, m=m)

    @pytest.mark.parametrize("eps_list", [
        [1e-2, math.nan, 1e-7], [2.0, 1e-2, 1e-6], [0.5, 1e-5, 0.0], [1e-2, 1e-6, -1.0],
        [1.0, 1e-2, 1e-6],
    ])
    def test_deviation_outside_the_open_unit_interval_rejected(self, eps_list):
        # the rule of the command line's --eps: NaN used to sort into the
        # ladder, 2.0 passed, 0.0 divided by zero and -1.0 failed the span test
        with pytest.raises(ValueError, match=r"^eps_list\[\d\] must be in \(0, 1\), not "):
            ex.sweep_deviations(eps_list)

    def test_bad_ladder_rejected_before_any_case(self):
        t, ref = ex.defective_rate_instance()
        built = []

        def factory(eps, seed):
            built.append(eps)
            return ex.defective_rate_subspace(eps)

        with pytest.raises(ValueError, match=r"^eps_list\[2\] must be in \(0, 1\)"):
            ex.run_sweep(t, ref, [1e-4, 1e-8, 2.0], trials=1, subspace_factory=factory)
        assert built == []

    @pytest.mark.parametrize("kwargs,name", [
        ({"trials": 0}, "trials"), ({"trials": -2}, "trials"), ({"trials": True}, "trials"),
        ({"trials": 2.0}, "trials"), ({"seed_base": -1}, "seed_base"),
        ({"seed_base": "0"}, "seed_base"),
    ])
    def test_bad_trials_or_seed_base_rejected(self, kwargs, name):
        # trials=0 returned ok: False with no records and no failure line, and
        # a negative seed_base surfaced numpy's "expected non-negative integer"
        t, ref, m = ex.simple_rate_instance()
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            ex.run_sweep(t, ref, eps_list=[1e-2, 1e-4, 1e-6], m=m, **kwargs)

    def test_target_selects_within_the_disc_about_lambda_star(self):
        # in target mode the solver disc stays the unit disc about lambda*, and
        # only the selection follows the target: each projected problem's
        # eigenvalue nearest the target lies outside that disc, so the
        # selected value is the one inside it, as in oracle mode
        t, ref, m = ex.simple_rate_instance()
        target = -0.75 + 0.05j
        eps_list = [1e-2, 1e-4, 1e-6]
        res = ex.run_sweep(t, ref, eps_list, trials=2, m=m, target=target)
        assert res["ok"]
        assert res["records"] == ex.run_sweep(t, ref, eps_list, trials=2, m=m)["records"]
        for r in res["records"]:
            s = ex.build_subspace_eps(ref.x_star, m, r["epsilon"], r["seed"])
            nearest = select_ritz_value(solve_projected(project(t, s), target, 1.0), target)
            assert abs(nearest - target) < abs(ref.lambda_star - target)
            assert abs(nearest - ref.lambda_star) > 1.0
            assert r["mu_dist"] < r["epsilon"]

    def test_simple_instance_slopes(self):
        t, ref, m = ex.simple_rate_instance()
        res = ex.run_sweep(t, ref, eps_list=[1e-2, 1e-4, 1e-6], trials=2, m=m)
        assert res["ok"]
        assert res["slope_mu"] == pytest.approx(1.0, abs=0.2)
        assert res["slope_refined"] == pytest.approx(1.0, abs=0.2)

    def test_record_fields(self):
        t, ref, m = ex.simple_rate_instance()
        res = ex.run_sweep(t, ref, eps_list=[1e-2, 1e-4, 1e-6], trials=1, m=m)
        rec = res["records"][0]
        assert {"epsilon", "seed", "mu", "mu_dist", "sin_ritz", "sin_refined",
                "rho_ritz", "sigma_hat_1", "verdicts"} <= set(rec)

    def test_records_filed_under_requested_deviation(self):
        # trials of one eps group together, so a record keeps the requested
        # deviation, not the one measured on its subspace
        t, ref, m = ex.simple_rate_instance()
        res = ex.run_sweep(t, ref, eps_list=[1e-2, 1e-4, 1e-6], trials=2, m=m)
        assert sorted({r["epsilon"] for r in res["records"]}) == [1e-6, 1e-4, 1e-2]
        assert res["eps"] == [1e-6, 1e-4, 1e-2]

    def test_one_surviving_deviation_fits_no_slope(self):
        # at eps = 1e-2 the subspace has dimension 17 and the degree-4
        # pencil 68 > 64 rows, so only eps = 1e-6 keeps a record
        t, ref = ex.random_planted_nep(24, 4, 3, 0.2 + 0.1j)

        def factory(eps, seed):
            return ex.build_subspace_eps(ref.x_star, 17 if eps > 1e-4 else 2, eps, seed)

        res = ex.run_sweep(t, ref, eps_list=[1e-2, 1e-6], trials=1,
                           subspace_factory=factory)
        assert res["eps"] == [1e-6]
        assert res["slope_mu"] is None and res["slope_refined"] is None
        assert not res["ok"]
        assert len(res["failures"]) == 1 and "DimensionGuard" in res["failures"][0]


class TestVerifyAll:
    def test_x_star_off_unit_by_9e_13_gives_the_unit_verdicts(self):
        # ReferencePair admitted this x*, and sin_angle's cross-check then
        # raised RuntimeError on 29 of the 38 cases
        for inst in ex.builtin_suite():
            want = ex.analyze_case(inst.t, inst.ref, inst.subspace).verdicts()
            ref = ReferencePair(inst.ref.lambda_star, inst.ref.x_star * (1 + 9e-13))
            got = ex.analyze_case(inst.t, ref, inst.subspace).verdicts()
            assert got == want, inst.instance_id

    def test_sub_suite_holds_and_writes(self, tmp_path):
        suite = ex.builtin_suite()[:6]
        res = ex.verify_all(suite=suite)
        assert res["ok"]
        assert res["n_instances"] == 6
        assert len(res["reports"]) == res["n_reports"] > 0
        _write_reports(tmp_path, res["reports"])
        assert (tmp_path / "reports.jsonl").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        suite = ex.builtin_suite()[:3]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        _write_reports(d1, ex.verify_all(suite=suite)["reports"])
        _write_reports(d2, ex.verify_all(suite=suite)["reports"])
        assert (d1 / "reports.jsonl").read_bytes() == (d2 / "reports.jsonl").read_bytes()
        assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()

    def test_zero_slack_documents_why_slack_exists(self):
        # the residual-to-angle bound drops an O(|mu-l*|^2) term; on a nearly
        # quadratic problem, with a candidate whose complement component
        # cancels the linear residual part, that term is the whole story:
        # the bare bound fails and the gamma-scaled slack restores it
        import nepritz.bounds_lab as bl
        from nepritz.nep_model import MatrixFunction, Polynomial, eval_T

        eta = 1e-4
        t0 = np.diag([0.0, 1.0, 2.0]).astype(complex)
        d = np.zeros((3, 3), dtype=complex)
        d[0, 0] = 1.0
        d[1, 0] = 1.0
        c = np.zeros((3, 3), dtype=complex)
        c[1, 0] = 1.0
        c[1, 2] = 1.0
        c[2, 1] = 1.0
        t = MatrixFunction.from_terms([
            (Polynomial([1]), t0),
            (Polynomial([0, eta]), d),
            (Polynomial([0, 0, 1]), c),
        ])
        x_star = np.array([1, 0, 0], dtype=complex)
        mu = 0.05
        full = Subspace.from_basis(np.eye(3, dtype=complex))
        ctx = bl.build_case_context(t, full, x_star, 0.0, mu)
        x_perp, t_mu = qr_complement(x_star), eval_T(t, mu, 0)
        w = np.linalg.solve(x_perp.conj().T @ t_mu @ x_perp,
                            x_perp.conj().T @ t_mu @ x_star)
        cand = x_star - x_perp @ w
        cand = cand / np.linalg.norm(cand)
        rho = float(np.linalg.norm(t_mu @ cand))
        rep = bl.residual_angle_bound(ctx, sin_angle(x_star, cand), rho,
                                      theorem_id="residual_to_angle_refined")
        assert rep.lhs > rep.rhs + rep.intermediates["slack_floor"]
        assert rep.holds

    def test_errors_failures_and_inapplicable_bounds_are_recorded(self, monkeypatch):
        # the fixture's exact-capture basis makes three bounds inapplicable,
        # adversarial seed 658 raises EmptySpectrum, and a patched
        # residual_ratio_lower verdict fails on the suite case, the one of
        # the three where that bound applies
        import nepritz.bounds_lab as bl

        t, ref, w = ex.fixture_problem()
        fixture = ex.SuiteInstance("fixture", t, ref, Subspace.from_basis(w))
        empty = ex.SuiteInstance("adversarial-658", *adversarial_case(658))
        suite_case = ex.builtin_suite()[0]
        real = bl.residual_ratio_sandwich

        def failing_lower(*args):
            lower, *rest = real(*args)
            return [dataclasses.replace(lower, holds=False), *rest]

        monkeypatch.setattr(bl, "residual_ratio_sandwich", failing_lower)
        res = ex.verify_all(suite=[fixture, empty, suite_case])
        assert not res["ok"]
        assert res["n_instances"] == 3
        assert res["failures"] == [[suite_case.instance_id, "residual_ratio_lower"]]
        [(name, error)] = res["errors"]
        assert name == "adversarial-658" and error.startswith("EmptySpectrum: ")
        assert [row[:2] for row in res["inapplicable"]] == [
            ["fixture", "ritz_vector_angle"], ["fixture", "angle_sandwich"],
            ["fixture", "residual_ratio"]]
        assert res["n_inapplicable"] == 3
        assert res["n_reports"] == len(res["reports"])
        assert {i for i, _ in res["reports"]} == {"fixture", suite_case.instance_id}

    def test_builtin_suite_size(self):
        suite = ex.builtin_suite()
        assert len(suite) >= 30
        assert len({inst.instance_id for inst in suite}) == len(suite)

    def test_empty_suite_is_vacuously_ok(self):
        res = ex.verify_all(suite=[])
        assert res["ok"] and res["n_reports"] == 0

    def test_reports_self_contained(self, tmp_path):
        # every serialized verdict is recomputable from its own fields
        import json

        _write_reports(tmp_path, ex.verify_all(suite=ex.builtin_suite()[:4])["reports"])
        for line in (tmp_path / "reports.jsonl").read_text().splitlines():
            doc = json.loads(line)
            floor = doc["intermediates"]["slack_floor"]
            recomputed = doc["lhs"] <= doc["rhs"] * (1 + doc["slack_allowance"]) + floor
            assert recomputed == doc["holds"]


class TestFitSlope:
    def test_recovers_exact_powers(self):
        eps = [1e-2, 1e-3, 1e-4, 1e-5]
        assert ex.fit_loglog_slope(eps, [e**0.5 for e in eps]) == pytest.approx(0.5)
        assert ex.fit_loglog_slope(eps, [3 * e for e in eps]) == pytest.approx(1.0)
