import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    complex_randn,
    det_poly_coeffs,
    match_point_sets,
    poly_roots_ascending,
)

import nepritz
import nepritz.small_nep_solver as sns
from nepritz.dense_kernels import singular_values, solve_linear, solve_with_svals
from nepritz.errors import DimensionGuard, EmptySpectrum, NearSingular, NonConverged, PoleHit
from nepritz.experiments import build_subspace_eps, fixture_problem, perturb_subspace
from nepritz.nep_model import (
    Exponential,
    MatrixFunction,
    Polynomial,
    Rational,
    eval_T,
    eval_T_many,
)
from nepritz.projection import Subspace, project
from nepritz.small_nep_solver import (
    companion_eigs,
    newton_trace_refine,
    polynomialize,
    select_ritz_value,
    solve_projected,
)


def fixture_projected():
    t, _, w = fixture_problem()
    return project(t, Subspace.from_basis(w))


def eval_poly_mats(coeffs, lam):
    return sum(c * lam**k for k, c in enumerate(coeffs))


class TestPolynomialize:
    def test_polynomial_input_is_identity(self):
        rng = np.random.default_rng(0)
        b = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 2, 2)),
            (Polynomial([0, 0, 1]), complex_randn(rng, 2, 2)),
        ])
        coeffs, poles = polynomialize(b)
        assert poles == []
        for _ in range(5):
            lam = complex(*rng.uniform(-1, 1, 2))
            assert np.allclose(eval_poly_mats(coeffs, lam), eval_T(b, lam, 0),
                               atol=1e-12)

    def test_fixture_denominator_cleared(self):
        b = fixture_projected()
        coeffs, poles = polynomialize(b)
        assert len(poles) == 1 and abs(poles[0] - 1.0) < 1e-10
        assert len(coeffs) == 4  # degree 3
        rng = np.random.default_rng(1)
        for _ in range(10):
            lam = complex(*rng.uniform(-0.8, 0.8, 2))
            if abs(lam - 1.0) < 1e-2:
                continue
            want = (lam - 1.0) * eval_T(b, lam, 0)
            assert np.allclose(eval_poly_mats(coeffs, lam), want, atol=1e-12)

    def test_fixture_cleared_structure(self):
        # P(lam) = (lam-1) B(lam) = [[lam, 0], [lam^3 - lam^2, lam^2 - lam]]
        coeffs, _ = polynomialize(fixture_projected())
        p1 = eval_poly_mats(coeffs, 2.0)
        assert np.allclose(p1, [[2.0, 0.0], [4.0, 2.0]], atol=1e-12)

    def test_scalar_reciprocal(self):
        b = MatrixFunction.from_terms([
            (Rational([1], [0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        coeffs, poles = polynomialize(b)
        assert len(coeffs) == 1  # constant polynomial: no roots at all
        assert len(poles) == 1 and abs(poles[0]) < 1e-12
        assert companion_eigs(coeffs) == []

    def test_corrupted_coefficient_fails_self_check(self, monkeypatch):
        # the self-check compares P(lam) with q(lam) B(lam); an error of
        # 1e-6 in one entry of B is far above its 1e-10 relative tolerance
        b = fixture_projected()

        def corrupted(fn, lams, order=0):
            out = eval_T_many(fn, lams, order)
            out[:, 0, 1] += 1e-6
            return out

        monkeypatch.setattr(sns, "eval_T_many", corrupted)
        with pytest.raises(RuntimeError, match="polynomialize self-check failed"):
            polynomialize(b)

    def test_exponential_term_rejected(self):
        from nepritz.errors import UnsupportedTerm
        from nepritz.nep_model import Exponential

        b = MatrixFunction.from_terms([
            (Exponential(1.0), np.array([[1.0]], dtype=complex)),
        ])
        with pytest.raises(UnsupportedTerm):
            polynomialize(b)


class TestCompanionEigs:
    def test_scalar_quadratic(self):
        coeffs = [np.array([[-1.0 + 0j]]), np.array([[0.0 + 0j]]), np.array([[1.0 + 0j]])]
        roots = sorted(companion_eigs(coeffs), key=lambda z: z.real)
        assert match_point_sets(roots, [-1.0, 1.0], 1e-10)

    def test_fixture_roots_with_infinite_drop(self):
        coeffs, _ = polynomialize(fixture_projected())
        d, m = len(coeffs) - 1, coeffs[0].shape[0]
        roots = companion_eigs(coeffs)
        # det P = lam^2 (lam - 1): three finite roots, three at infinity
        assert match_point_sets(sorted(roots, key=lambda z: abs(z)),
                                [0.0, 0.0, 1.0], 1e-7)
        assert d * m - len(roots) == 3

    def test_decoupled_diagonal(self):
        coeffs = [np.diag([0.0, 1.0]).astype(complex), np.eye(2, dtype=complex)]
        roots = sorted(companion_eigs(coeffs), key=lambda z: z.real)
        assert match_point_sets(roots, [-1.0, 0.0], 1e-10)

    def test_dimension_guard(self):
        coeffs = [np.eye(33, dtype=complex)] * 3  # 2 * 33 = 66 > 64
        with pytest.raises(DimensionGuard):
            companion_eigs(coeffs)

    @pytest.mark.parametrize("seed,m,degree", [
        (0, 2, 2), (1, 3, 2), (2, 4, 3), (3, 2, 3), (4, 3, 3), (5, 4, 1),
        (6, 4, 2), (7, 3, 1), (8, 2, 4), (9, 3, 4), (10, 2, 5), (11, 3, 5),
    ])
    def test_matches_determinant_oracle(self, seed, m, degree):
        rng = np.random.default_rng(9000 + seed)
        coeffs = [complex_randn(rng, m, m) for _ in range(degree + 1)]
        got = companion_eigs(coeffs)
        want = poly_roots_ascending(det_poly_coeffs(coeffs))
        assert match_point_sets(sorted(got, key=lambda z: (z.real, z.imag)),
                                sorted(want, key=lambda z: (z.real, z.imag)),
                                1e-8)

    def test_rank_one_leading_block(self):
        # a rank-1 C_3 of a 3 x 3 cubic: det P has degree 7, so two of the
        # nine eigenvalues of the pencil are infinite
        rng = np.random.default_rng(9100)
        coeffs = [complex_randn(rng, 3, 3) for _ in range(3)]
        coeffs.append(np.outer(complex_randn(rng, 3), complex_randn(rng, 3)))
        got = companion_eigs(coeffs)
        want = poly_roots_ascending(det_poly_coeffs(coeffs))
        assert len(want) == 7 and 3 * 3 - len(got) == 2
        assert match_point_sets(sorted(got, key=lambda z: (z.real, z.imag)),
                                sorted(want, key=lambda z: (z.real, z.imag)),
                                1e-8)

    def test_eigenvalue_at_the_first_shift(self, monkeypatch):
        # A - sigma E is exactly singular at the first shift, so the solve
        # moves on to the second one
        sigma = sns.COMPANION_SHIFTS[0]
        coeffs = [-np.diag([sigma, 2.0, -1.0 + 1.0j]), np.eye(3, dtype=complex)]
        shifted = []

        def counted_solve(m, rhs):
            shifted.append(m)
            return solve_linear(m, rhs)

        monkeypatch.setattr(sns, "solve_linear", counted_solve)
        roots = companion_eigs(coeffs)
        assert len(shifted) == 2
        assert match_point_sets(sorted(roots, key=lambda z: (z.real, z.imag)),
                                [-1.0 + 1.0j, sigma, 2.0], 1e-10)

    def test_singular_pencil_raises(self):
        # P(lam) = (1 + lam) diag(1, 0): det P vanishes for every lam
        coeffs = [np.diag([1.0, 0.0]).astype(complex)] * 2
        with pytest.raises(NearSingular, match="singular pencil"):
            companion_eigs(coeffs)


def lone_newton(b, lam0, max_iter=50, tol=1e-10):
    """The per-start Newton-trace loop the lockstep kernel replaced: its oracle."""
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
            raise NonConverged(f"B({lam}) is singular but off-target") from None
        tr = complex(sum(np.diagonal(x)))
        if abs(tr) < 1e-300:
            raise NonConverged("vanishing trace; stationary point of det B")
        lam = lam - 1.0 / tr
    raise NonConverged(f"no convergence after {max_iter} Newton steps (from {lam0})")


def lone_outcomes(b, starts, **kwargs):
    out = []
    for z in starts:
        try:
            out.append(lone_newton(b, z, **kwargs))
        except (NonConverged, PoleHit) as exc:
            out.append(exc)
    return out


def bits(z):
    return struct.pack("<dd", z.real, z.imag)


def assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w)
        else:
            assert type(g) is complex and bits(g) == bits(w)


def planted_delay_projection(n=8, m=3, eps=1e-5, seed=31):
    # A0 + lam A1 + 0.1 lam^2 A2 + exp(-(0.8 - 0.3i) lam) A3 with a planted
    # pair at 0.2 + 0.1i, projected onto a subspace at deviation eps; the
    # complex exponential scale and the quadratic make every scalar product
    # of the evaluation a genuine one
    rng = np.random.default_rng(seed)
    lam_star = 0.2 + 0.1j
    mats = [complex_randn(rng, n, n) / math.sqrt(n) for _ in range(4)]
    fns = [Polynomial([1]), Polynomial([0, 1]), Polynomial([0, 0, 0.1]),
           Exponential(-0.8 + 0.3j)]
    x = complex_randn(rng, n)
    x /= np.linalg.norm(x)
    defect = eval_T(MatrixFunction.from_terms(list(zip(fns, mats))), lam_star, 0) @ x
    mats[0] = mats[0] - np.outer(defect, np.conj(x))
    t = MatrixFunction.from_terms(list(zip(fns, mats)))
    return project(t, build_subspace_eps(x, m, eps, seed)), lam_star


class TestNewtonTraceRefine:
    def test_linear_scalar_exact_in_one_step(self):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 1]), np.array([[1.0]], dtype=complex)),
        ])
        assert newton_trace_refine(b, [0.0], max_iter=2) == [pytest.approx(2.0)]

    def test_fixture_double_root(self):
        [mu] = newton_trace_refine(fixture_projected(), [0.1])
        assert abs(mu) <= 1e-10

    def test_sqrt_two(self):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        [root] = newton_trace_refine(b, [1.0])
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_nonconverged(self):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        [out] = newton_trace_refine(b, [100.0], max_iter=2)
        assert isinstance(out, NonConverged)

    def test_one_solve_per_step(self, monkeypatch):
        # B(lam) = diag(1, 2, 3) - lam I: one step from 0.9 lands near 0.988,
        # off the root, so max_iter = 1 ends in NonConverged
        b = MatrixFunction.from_terms([
            (Polynomial([1]), np.diag([1.0, 2.0, 3.0]).astype(complex)),
            (Polynomial([0, -1]), np.eye(3, dtype=complex)),
        ])
        solves, orders = [], []

        def counted_solve(m, rhs, s):
            solves.append(np.shape(m))
            return solve_with_svals(m, rhs, s)

        def counted_eval(fn, lams, order):
            orders.append(order)
            return eval_T_many(fn, lams, order)

        monkeypatch.setattr(sns, "solve_with_svals", counted_solve)
        monkeypatch.setattr(sns, "eval_T_many", counted_eval)
        [out] = newton_trace_refine(b, [0.9], max_iter=1)
        assert isinstance(out, NonConverged)
        # one stacked solve with B' as a 3 x 3 right-hand side; a stop test
        # before and after the single step
        assert solves == [(1, 3, 3)]
        assert orders == [0, 1, 0]


class TestLockstepMatchesLoneRuns:
    def test_delay_grid_seeds(self):
        b, lam_star = planted_delay_projection()
        seeds = sns._grid_seeds(lam_star, 1.0)
        assert len(seeds) == 88
        got = newton_trace_refine(b, seeds)
        assert_same_outcomes(got, lone_outcomes(b, seeds))
        assert any(abs(r - lam_star) < 1e-3 for r in got if isinstance(r, complex))

    def test_fixture_double_root_among_companion_starts(self):
        b = fixture_projected()
        coeffs, _ = polynomialize(b)
        starts = [0.1, 0.3 - 0.2j] + [z for z in companion_eigs(coeffs) if abs(z) < 0.9]
        assert_same_outcomes(newton_trace_refine(b, starts), lone_outcomes(b, starts))

    def test_max_iter_exhaustion(self):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        starts = [100.0, 1.4, 1e6j, 1.0]
        got = newton_trace_refine(b, starts, max_iter=3)
        assert_same_outcomes(got, lone_outcomes(b, starts, max_iter=3))
        assert [isinstance(r, NonConverged) for r in got] == [True, False, True, True]

    def test_near_singular_off_target(self):
        # sigma_min(B) = 1e-15 is below the solve's 1e-14 singularity test but
        # above tol = 1e-20, so the start can neither stop nor step
        b = MatrixFunction.from_terms([
            (Polynomial([1]), np.diag([1.0, 1e-15]).astype(complex)),
            (Polynomial([0, 1]), np.diag([1.0, 0.0]).astype(complex)),
        ])
        starts = [0.5, -0.9]
        got = newton_trace_refine(b, starts, tol=1e-20)
        assert_same_outcomes(got, lone_outcomes(b, starts, tol=1e-20))
        assert isinstance(got[0], NonConverged) and "off-target" in str(got[0])

    def test_vanishing_trace(self):
        # det B = 1 - lam^2 is stationary at 0: trace(B^-1 B') = 1 - 1 = 0
        b = MatrixFunction.from_terms([
            (Polynomial([1, 1]), np.diag([1.0, 0.0]).astype(complex)),
            (Polynomial([1, -1]), np.diag([0.0, 1.0]).astype(complex)),
        ])
        starts = [0.5, 0.0, -0.5]
        got = newton_trace_refine(b, starts)
        assert_same_outcomes(got, lone_outcomes(b, starts))
        assert isinstance(got[1], NonConverged) and "vanishing trace" in str(got[1])
        assert got[0] == pytest.approx(1.0) and got[2] == pytest.approx(-1.0)

    def test_only_the_start_on_a_pole_fails(self):
        b = fixture_projected()  # a rational term with its pole at 1
        starts = [0.1, 1.0, -0.3 + 0.1j, 0.6j]
        got = newton_trace_refine(b, starts)
        assert_same_outcomes(got, lone_outcomes(b, starts))
        assert [isinstance(r, PoleHit) for r in got] == [False, True, False, False]

    def test_non_finite_b_raises_like_a_lone_run(self):
        b = MatrixFunction.from_terms([
            (Exponential(800.0), np.array([[1.0]], dtype=complex)),
            (Polynomial([-2.0]), np.array([[1.0]], dtype=complex)),
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="NaN/Inf"):
                lone_newton(b, 1.0)
            with pytest.raises(ValueError, match="NaN/Inf"):
                newton_trace_refine(b, [0.0, 1.0])

    @pytest.mark.parametrize("center,radius", [(0.2 + 0.1j, 1.0), (-0.5, 2.0)])
    def test_spectrum_equals_oracle_run(self, monkeypatch, center, radius):
        b, _ = planted_delay_projection(eps=1e-2)
        got = solve_projected(b, center, radius)
        monkeypatch.setattr(sns, "newton_trace_refine", lone_outcomes)
        want = solve_projected(b, center, radius)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        for f in ("eigenvalues", "filtered_spurious"):
            assert [bits(z) for z in getattr(got, f)] == [bits(z) for z in getattr(want, f)]
        assert [struct.pack("<d", r) for r in got.residuals] == \
            [struct.pack("<d", r) for r in want.residuals]

    def test_companion_spectrum_equals_oracle_run(self, monkeypatch):
        t, _, w = fixture_problem()
        b = project(t, perturb_subspace(Subspace.from_basis(w), 1e-4, seed=12))
        got = solve_projected(b, 0.0, 1e6)
        monkeypatch.setattr(sns, "newton_trace_refine", lone_outcomes)
        want = solve_projected(b, 0.0, 1e6)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        assert [bits(z) for z in got.eigenvalues] == [bits(z) for z in want.eigenvalues]


NO_SCIPY_RUN = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from nepritz.cli import main
codes = [main(["example1"]), main(["verify-all"])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(k for k in sys.modules if k.startswith("scipy"))}))
"""


def test_runs_without_scipy():
    # numpy is the only dependency: with scipy unimportable, example1 (whose
    # projected pencil has a singular leading block) and verify-all (the
    # whole suite) both pass, and no scipy module is ever loaded
    src = str(Path(nepritz.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy": []}


class TestSolveProjected:
    def test_fixture_double_eigenvalue(self):
        spec = solve_projected(fixture_projected(), 0.0, 0.5)
        assert len(spec.eigenvalues) == 1
        assert abs(spec.eigenvalues[0]) <= 1e-10
        assert spec.multiplicities == [2]
        assert spec.method == "companion-rationalized"

    def test_full_problem_spectrum(self):
        t, _, _ = fixture_problem()
        spec = solve_projected(t, -0.5, 1.0)
        assert match_point_sets(spec.eigenvalues, [-1.0, 0.0], 1e-9)

    def test_residual_invariant(self):
        spec = solve_projected(fixture_projected(), 0.0, 0.5)
        b = fixture_projected()
        for mu, res in zip(spec.eigenvalues, spec.residuals):
            s = singular_values(eval_T(b, mu, 0))
            assert res <= 1e-8 * max(1.0, s[0])

    def test_perturbed_fixture_four_finite_eigenvalues(self):
        t, _, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=12)
        b = project(t, s)
        spec = solve_projected(b, 0.0, 1e6)
        assert len(spec.eigenvalues) == 4
        mags = sorted(abs(z) for z in spec.eigenvalues)
        # two near zero at O(1e-4)/O(1e-5), two large at O(1e3)
        assert mags[0] < 1e-3 and mags[1] < 1e-2
        assert mags[2] > 1e2 and mags[3] > 1e2

    def test_empty_spectrum_is_valid(self):
        b = MatrixFunction.from_terms([
            (Rational([1], [0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        spec = solve_projected(b, 3.0, 1.0)
        assert spec.eigenvalues == []

    def test_spurious_pole_root_filtered(self):
        # (lam^2 - 1)/(lam - 1) = lam + 1 away from the pole: clearing the
        # denominator plants a root exactly on the pole, which must not be
        # reported because sigma_min(B) does not vanish there
        b = MatrixFunction.from_terms([
            (Rational([-1, 0, 1], [-1, 1]), np.array([[1.0]], dtype=complex)),
        ])
        spec = solve_projected(b, 0.0, 2.5)
        assert match_point_sets(spec.eigenvalues, [-1.0], 1e-9)
        assert any(abs(z - 1.0) < 1e-6 for z in spec.filtered_spurious)
        for tpow in (1e-4, 1e-5, 1e-6):
            val = float(singular_values(eval_T(b, 1.0 + tpow, 0))[-1])
            assert val > 0.5  # approach along a ray: genuinely nonsingular

    def test_pole_on_boundary_rejected(self):
        b = fixture_projected()
        with pytest.raises(ValueError):
            solve_projected(b, 0.0, 1.0)

    def test_one_acceptance_stack_keeps_spurious_order(self, monkeypatch):
        # B = (lam - 0.5)/(lam - 0.2); the polished roots are planted: one on
        # the pole guard, one where sigma_min(B) = 2, and the true root
        b = MatrixFunction.from_terms([
            (Rational([-0.5, 1], [-0.2, 1]), np.array([[1.0]], dtype=complex)),
        ])
        planted = [0.5 + 0j, 0.3 + 0j, 0.2 + 1e-10 + 0j]
        monkeypatch.setattr(sns, "companion_eigs", lambda coeffs: list(planted))
        monkeypatch.setattr(sns, "newton_trace_refine", lambda b, starts: list(starts))
        stacks = []

        def counted(fn, lams, order):
            stacks.append(list(np.asarray(lams, dtype=complex).reshape(-1)))
            return eval_T_many(fn, lams, order)

        monkeypatch.setattr(sns, "eval_T_many", counted)
        spec = solve_projected(b, 0.4, 0.3)
        # polynomialize's 20-point self-check, then one acceptance stack over
        # the off-pole cluster means in ascending order
        assert [len(s) for s in stacks] == [20, 2]
        assert stacks[1] == [0.3, 0.5]
        assert spec.eigenvalues == [0.5] and spec.residuals == [0.0]
        # the pole-guarded mean sorts first and is filtered first
        assert spec.filtered_spurious == [planted[2], 0.3]


class TestSelectRitzValue:
    def test_oracle_picks_nearest(self):
        spec = solve_projected(fixture_problem()[0], -0.5, 1.0)
        assert select_ritz_value(spec, lambda_star=0.0) == pytest.approx(0.0, abs=1e-9)
        assert select_ritz_value(spec, target=-0.9) == pytest.approx(-1.0, abs=1e-9)

    def test_perturbed_fixture_picks_smallest(self):
        t, _, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=12)
        spec = solve_projected(project(t, s), 0.0, 1e6)
        mu = select_ritz_value(spec, lambda_star=0.0)
        assert abs(mu) == pytest.approx(min(abs(z) for z in spec.eigenvalues))

    def test_tie_break_by_argument(self):
        from nepritz.small_nep_solver import SpectrumResult

        spec = SpectrumResult(
            eigenvalues=[1 + 1j, 1 - 1j], residuals=[0.0, 0.0],
            multiplicities=[1, 1], method="companion-polynomial",
        )
        assert select_ritz_value(spec, target=1.0) == 1 - 1j

    def test_empty_raises(self):
        from nepritz.small_nep_solver import SpectrumResult

        spec = SpectrumResult(eigenvalues=[], residuals=[], multiplicities=[],
                              method="companion-polynomial")
        with pytest.raises(EmptySpectrum):
            select_ritz_value(spec, lambda_star=0.0)

    def test_exactly_one_mode(self):
        from nepritz.small_nep_solver import SpectrumResult

        spec = SpectrumResult(eigenvalues=[0.0], residuals=[0.0],
                              multiplicities=[1], method="companion-polynomial")
        with pytest.raises(ValueError):
            select_ritz_value(spec)
        with pytest.raises(ValueError):
            select_ritz_value(spec, lambda_star=0.0, target=1.0)


class TestExponentialPath:
    def test_grid_newton_finds_log_two(self):
        from nepritz.nep_model import Exponential

        b = MatrixFunction.from_terms([
            (Exponential(1.0), np.array([[1.0]], dtype=complex)),
            (Polynomial([-2.0]), np.array([[1.0]], dtype=complex)),
        ])
        spec = solve_projected(b, 0.5, 1.0)
        assert spec.method == "newton-only"
        assert match_point_sets(spec.eigenvalues, [math.log(2.0)], 1e-9)
