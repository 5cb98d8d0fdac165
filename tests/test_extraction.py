import math

import numpy as np
import pytest
from helpers import complex_randn

from nepritz.errors import NotAnEigenvalue
from nepritz.experiments import fixture_problem, perturb_subspace
from nepritz.extraction import (
    refined_vector,
    ritz_residual_for,
    ritz_vector,
    sin_angle,
)
from nepritz.nep_model import MatrixFunction, Polynomial, ReferencePair, eval_T
from nepritz.projection import Subspace, deviation, project


def fixture_case():
    t, ref, w = fixture_problem()
    return t, ref, Subspace.from_basis(w)


def linear_problem(diag):
    n = len(diag)
    return MatrixFunction.from_terms([
        (Polynomial([1]), np.diag(np.asarray(diag, dtype=complex))),
        (Polynomial([0, 1]), -np.eye(n, dtype=complex)),
    ])


class TestRitzVector:
    def test_degenerate_fixture_flags_nonuniqueness(self):
        t, _, s = fixture_case()
        ritz = ritz_vector(eval_T(t, 0.0) @ s.basis, eval_T(project(t, s), 0.0), 0.0, s)
        assert ritz.geometric_multiplicity == 2
        assert ritz.nonunique_flag
        assert abs(np.linalg.norm(ritz.z) - 1.0) < 1e-12
        assert abs(np.linalg.norm(ritz.x_tilde) - 1.0) < 1e-12

    def test_simple_linear_problem(self):
        t = linear_problem([1.0, 2.0])
        s = Subspace.from_basis(np.eye(2, dtype=complex))
        ritz = ritz_vector(eval_T(t, 1.0) @ s.basis, eval_T(project(t, s), 1.0), 1.0, s)
        assert ritz.geometric_multiplicity == 1
        assert not ritz.nonunique_flag
        assert np.allclose(ritz.x_tilde, [1.0, 0.0], atol=1e-12)
        assert ritz.residual_norm < 1e-12

    def test_not_an_eigenvalue(self):
        t = linear_problem([1.0, 2.0])
        s = Subspace.from_basis(np.eye(2, dtype=complex))
        with pytest.raises(NotAnEigenvalue):
            ritz_vector(eval_T(t, 0.5) @ s.basis, eval_T(project(t, s), 0.5), 0.5, s)

    def test_projected_residual_small(self):
        t, _, s = fixture_case()
        b = project(t, s)
        ritz = ritz_vector(eval_T(t, 0.0) @ s.basis, eval_T(b, 0.0), 0.0, s)
        bmu = eval_T(b, ritz.mu, 0)
        assert np.linalg.norm(bmu @ ritz.z) <= 1e-8 * max(1.0, np.linalg.norm(bmu, 2))


class TestProductShape:
    # every extraction reads T(mu) W; T(mu) itself is rejected, not misread
    @pytest.mark.parametrize("call", [
        lambda t_mu, b_mu, s: ritz_vector(t_mu, b_mu, 0.0, s),
        lambda t_mu, b_mu, s: refined_vector(t_mu, 0.0, s),
        lambda t_mu, b_mu, s: ritz_residual_for(t_mu, s, np.array([1.0, 0.0])),
    ])
    def test_t_mu_in_place_of_t_mu_w_rejected(self, call):
        t, _, s = fixture_case()
        with pytest.raises(ValueError, match="T\\(mu\\) W"):
            call(eval_T(t, 0.0), eval_T(project(t, s), 0.0), s)


class TestRitzResidualFor:
    def test_symmetric_combination(self):
        t, _, s = fixture_case()
        z = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        rho = ritz_residual_for(eval_T(t, 0.0) @ s.basis, s, z)
        assert rho == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_first_basis_vector_is_exact(self):
        t, _, s = fixture_case()
        z = np.array([1.0, 0.0], dtype=complex)
        assert ritz_residual_for(eval_T(t, 0.0) @ s.basis, s, z) == pytest.approx(0.0, abs=1e-14)

    def test_refined_coefficients_give_sigma1(self):
        t, ref, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=5)
        refined = refined_vector(eval_T(t, 0.0) @ s.basis, 0.0, s)
        rho = ritz_residual_for(eval_T(t, 0.0) @ s.basis, s, refined.y)
        assert rho == pytest.approx(refined.sigma_hat_1, abs=1e-12)

    def test_requires_unit_vector(self):
        t, _, s = fixture_case()
        with pytest.raises(ValueError):
            ritz_residual_for(eval_T(t, 0.0) @ s.basis, s, np.array([1.0, 1.0], dtype=complex))


class TestRefinedVector:
    def test_fixture_recovers_target_exactly(self):
        t, ref, s = fixture_case()
        refined = refined_vector(eval_T(t, 0.0) @ s.basis, 0.0, s)
        assert np.allclose(refined.y, [1.0, 0.0], atol=1e-12)
        phase = np.vdot(ref.x_star, refined.x_hat)
        phase /= abs(phase)
        assert np.linalg.norm(refined.x_hat / phase - ref.x_star) < 1e-12
        assert refined.sigma_hat_1 <= 1e-14
        assert refined.sigma_hat_2 == pytest.approx(1.0, abs=1e-12)

    def test_full_space_at_exact_eigenvalue(self):
        t, ref, _ = fixture_case()
        s = Subspace.from_basis(np.eye(3, dtype=complex))
        refined = refined_vector(eval_T(t, 0.0) @ s.basis, 0.0, s)
        assert refined.sigma_hat_1 <= 1e-14
        assert sin_angle(ref.x_star, refined.x_hat) < 1e-12

    def test_sigma1_equals_residual_of_x_hat(self):
        t, _, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=9)
        refined = refined_vector(eval_T(t, 1e-5) @ s.basis, 1e-5, s)
        direct = np.linalg.norm(eval_T(t, 1e-5, 0) @ refined.x_hat)
        assert direct == pytest.approx(refined.sigma_hat_1, abs=1e-12)

    def test_singular_values_ascending(self):
        t, _, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-3, seed=2)
        refined = refined_vector(eval_T(t, 0.01) @ s.basis, 0.01, s)
        sv = refined.singular_values
        assert np.all(np.diff(sv) >= -1e-15)
        assert refined.sigma_hat_1 == sv[0] and refined.sigma_hat_m == sv[-1]

    def test_one_dimensional_subspace(self):
        t, ref, _ = fixture_case()
        w = np.zeros((3, 1), dtype=complex)
        w[2, 0] = 1.0
        refined = refined_vector(eval_T(t, 0.0) @ w, 0.0, Subspace.from_basis(w))
        assert refined.sigma_hat_2 is None
        assert refined.gap_certificate


class TestSinAngle:
    def test_equal_vectors(self):
        v = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2)
        assert sin_angle(v, v) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_vectors(self):
        assert sin_angle(np.array([1, 0], dtype=complex),
                         np.array([0, 1], dtype=complex)) == pytest.approx(1.0)

    def test_phase_invariance(self):
        rng = np.random.default_rng(4)
        a = complex_randn(rng, 5)
        a /= np.linalg.norm(a)
        b = complex_randn(rng, 5)
        b /= np.linalg.norm(b)
        base = sin_angle(a, b)
        for phase in (1j, np.exp(0.3j), -1.0):
            assert sin_angle(a * phase, b) == pytest.approx(base, abs=1e-12)
            assert sin_angle(a, b * phase) == pytest.approx(base, abs=1e-12)

    def test_small_angle_accuracy(self):
        # direct cancellation would destroy this digit count
        a = np.array([1.0, 0.0], dtype=complex)
        for delta in (1e-5, 1e-7, 1e-9):
            b = np.array([math.sqrt(1 - delta**2), delta], dtype=complex)
            assert sin_angle(a, b) == pytest.approx(delta, rel=1e-9)

    def test_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            sin_angle(np.array([2.0, 0.0]), np.array([1.0, 0.0]))

    def test_cross_check_admits_every_admitted_vector(self):
        # ||b||^2 - 1 = 1.8e-12 tripped the old 1e-12 cross-check, although
        # b passed the old 1e-10 unit test
        e1, e2 = np.eye(2, dtype=complex)
        assert sin_angle(e1, (1 + 9e-13) * e2) == 1.0
        # |a^H b| > 1: the clamp's share of the difference
        assert sin_angle((1 + 9e-13) * e1, (1 + 9e-13) * e1) < 1e-11
        with pytest.raises(ValueError, match="^b must be unit norm"):
            sin_angle(e1, (1 + 2e-12) * e2)


def _unit_norm_callers():
    """(argument name, call) of every function that requires a unit vector."""
    t, ref, s = fixture_case()
    tw = eval_T(t, 0.0) @ s.basis
    z = np.array([0.6, 0.8j])
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    return [
        ("x_star", lambda c: ReferencePair(0.0, c * ref.x_star)),
        ("x_star", lambda c: deviation(s, c * ref.x_star)),
        ("z_custom", lambda c: ritz_residual_for(tw, s, c * z)),
        ("a", lambda c: sin_angle(c * e1, e1)),
        ("b", lambda c: sin_angle(e1, c * e1)),
    ]


_CALLERS = ["ReferencePair", "deviation", "ritz_residual_for", "sin_angle-a", "sin_angle-b"]


class TestUnitNormRule:
    # one rule, | ||v|| - 1 | <= UNIT_TOL = 1e-12, for every unit argument
    @pytest.mark.parametrize("case", range(5), ids=_CALLERS)
    @pytest.mark.parametrize("scale", [1 + 9e-13, 1 - 9e-13])
    def test_admits_a_vector_off_unit_by_9e_13(self, case, scale):
        _, call = _unit_norm_callers()[case]
        call(scale)

    @pytest.mark.parametrize("case", range(5), ids=_CALLERS)
    @pytest.mark.parametrize("scale", [1 + 2e-12, 1 - 2e-12])
    def test_rejects_a_vector_off_unit_by_2e_12_naming_it(self, case, scale):
        name, call = _unit_norm_callers()[case]
        with pytest.raises(ValueError, match=f"^{name} must be unit norm"):
            call(scale)


class TestExtractionProperties:
    def test_refined_minimality_over_random_directions(self):
        t, _, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=20)
        mu = 1e-5
        refined = refined_vector(eval_T(t, mu) @ s.basis, mu, s)
        tmu = eval_T(t, mu, 0)
        rng = np.random.default_rng(99)
        for _ in range(200):
            v = complex_randn(rng, 2)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(tmu @ (s.basis @ v)) >= refined.sigma_hat_1 - 1e-12

    def test_refined_residual_below_ritz_residual(self):
        t, _, w = fixture_problem()
        for seed in range(10):
            s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=seed)
            b = project(t, s)
            from nepritz.small_nep_solver import select_ritz_value, solve_projected

            spec = solve_projected(b, 0.0, 1e6)
            mu = select_ritz_value(spec, 0.0)
            ritz = ritz_vector(eval_T(t, mu) @ s.basis, eval_T(b, mu), mu, s)
            refined = refined_vector(eval_T(t, mu) @ s.basis, mu, s)
            assert refined.sigma_hat_1 <= ritz.residual_norm + 1e-12

    def test_phase_invariance_of_pipeline_quantities(self):
        from nepritz.small_nep_solver import select_ritz_value, solve_projected

        t, ref, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=31)
        spec = solve_projected(project(t, s), 0.0, 1e6)
        mu = select_ritz_value(spec, 0.0)
        base_ritz = ritz_vector(eval_T(t, mu) @ s.basis, eval_T(project(t, s), mu), mu, s)
        base_refined = refined_vector(eval_T(t, mu) @ s.basis, mu, s)
        # rotate one basis column by a unit phase: same subspace
        w2 = s.basis.copy()
        w2[:, 1] *= np.exp(0.7j)
        s2 = Subspace.from_basis(w2)
        ritz2 = ritz_vector(eval_T(t, mu) @ s2.basis, eval_T(project(t, s2), mu), mu, s2)
        refined2 = refined_vector(eval_T(t, mu) @ s2.basis, mu, s2)
        assert ritz2.residual_norm == pytest.approx(base_ritz.residual_norm, abs=1e-12)
        assert refined2.sigma_hat_1 == pytest.approx(base_refined.sigma_hat_1, abs=1e-12)
        assert sin_angle(ref.x_star, refined2.x_hat) == pytest.approx(
            sin_angle(ref.x_star, base_refined.x_hat), abs=1e-12)
