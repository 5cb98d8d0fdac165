import math
import os
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
from nepritz.dense_kernels import singular_values, solve_linear
from nepritz.errors import DimensionGuard, EmptySpectrum, NonConverged
from nepritz.experiments import fixture_problem, perturb_subspace
from nepritz.nep_model import (
    MatrixFunction,
    Polynomial,
    Rational,
    eval_T,
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

        def corrupted(fn, lam, order=0):
            out = eval_T(fn, lam, order)
            out[0, 1] += 1e-6
            return out

        monkeypatch.setattr(sns, "eval_T", corrupted)
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
        (6, 4, 2), (7, 3, 1),
    ])
    def test_matches_determinant_oracle(self, seed, m, degree):
        rng = np.random.default_rng(9000 + seed)
        coeffs = [complex_randn(rng, m, m) for _ in range(degree + 1)]
        got = companion_eigs(coeffs)
        want = poly_roots_ascending(det_poly_coeffs(coeffs))
        assert match_point_sets(sorted(got, key=lambda z: (z.real, z.imag)),
                                sorted(want, key=lambda z: (z.real, z.imag)),
                                1e-8)


class TestNewtonTraceRefine:
    def test_linear_scalar_exact_in_one_step(self):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 1]), np.array([[1.0]], dtype=complex)),
        ])
        assert newton_trace_refine(b, 0.0, max_iter=2) == pytest.approx(2.0)

    def test_fixture_double_root(self):
        mu = newton_trace_refine(fixture_projected(), 0.1)
        assert abs(mu) <= 1e-10

    def test_sqrt_two(self):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        assert newton_trace_refine(b, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_nonconverged(self):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        with pytest.raises(NonConverged):
            newton_trace_refine(b, 100.0, max_iter=2)

    def test_one_solve_per_step(self, monkeypatch):
        # B(lam) = diag(1, 2, 3) - lam I: one step from 0.9 lands near 0.988,
        # off the root, so max_iter = 1 ends in NonConverged
        b = MatrixFunction.from_terms([
            (Polynomial([1]), np.diag([1.0, 2.0, 3.0]).astype(complex)),
            (Polynomial([0, -1]), np.eye(3, dtype=complex)),
        ])
        solves, orders = [], []

        def counted_solve(m, rhs):
            solves.append(np.shape(rhs))
            return solve_linear(m, rhs)

        def counted_eval(fn, lam, order):
            orders.append(order)
            return eval_T(fn, lam, order)

        monkeypatch.setattr(sns, "solve_linear", counted_solve)
        monkeypatch.setattr(sns, "eval_T", counted_eval)
        with pytest.raises(NonConverged):
            newton_trace_refine(b, 0.9, max_iter=1)
        # one solve with B' as a 3 x 3 right-hand side; a stop test before
        # and after the single step
        assert solves == [(3, 3)]
        assert orders == [0, 1, 0]


def test_import_defers_scipy():
    # scipy.linalg serves only the companion pencil, so importing the
    # package must not load it
    src = str(Path(nepritz.__file__).resolve().parents[1])
    code = "import sys, nepritz; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


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
