import math

import numpy as np
import pytest
from helpers import complex_randn

from nepritz.bounds_lab import build_case_context
from nepritz.dense_kernels import norm2, orthonormalize, singular_values
from nepritz.errors import DegenerateDeviation
from nepritz.experiments import build_subspace_eps, fixture_problem
from nepritz.nep_model import ReferencePair, eval_T
from nepritz.projection import (
    Subspace,
    deviation,
    perturbation_witness,
    project,
)


def witness_case(t, s, ref):
    """(witness, context) of the target pair at mu = lambda_star."""
    lam = ref.lambda_star
    ctx = build_case_context(t, s, project(t, s), ref.x_star, lam, lam)
    return perturbation_witness(ctx, s), ctx


def random_subspace(n, m, seed):
    rng = np.random.default_rng(seed)
    return Subspace.from_basis(orthonormalize(complex_randn(rng, n, m)))


class TestSubspace:
    def test_blocks_orthonormal(self):
        s = random_subspace(6, 2, 0)
        assert s.basis.shape == (6, 2) and (s.ambient_dim, s.dim) == (6, 2)
        assert norm2(s.basis.conj().T @ s.basis - np.eye(2)) < 1e-12

    def test_rejects_skewed_basis(self):
        w = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            Subspace.from_basis(w)
        # direct construction is checked the same way
        with pytest.raises(ValueError):
            Subspace(basis=w)

    def test_rejects_too_many_columns(self):
        with pytest.raises(ValueError, match="exceeds ambient"):
            Subspace.from_basis(np.ones((2, 3), dtype=complex))

    def test_full_space_allowed(self):
        s = Subspace.from_basis(np.eye(3, dtype=complex))
        assert s.dim == s.ambient_dim == 3
        x = np.array([0.6, 0.8j, 0.0], dtype=complex)
        assert deviation(s, x) < 1e-15


class TestDeviation:
    def test_vector_in_span(self):
        s = random_subspace(5, 3, 1)
        x = s.basis @ np.array([1, 1, 1], dtype=complex) / math.sqrt(3)
        x /= np.linalg.norm(x)
        assert deviation(s, x) < 1e-12

    def test_orthogonal_vector(self):
        s = random_subspace(5, 2, 2)
        rng = np.random.default_rng(3)
        x = complex_randn(rng, 5)
        x -= s.basis @ (s.basis.conj().T @ x)
        x /= np.linalg.norm(x)
        assert deviation(s, x) == pytest.approx(1.0, abs=1e-12)

    def test_fixture_capture_is_exact(self):
        _, ref, w = fixture_problem()
        s = Subspace.from_basis(w)
        assert deviation(s, ref.x_star) == 0.0

    @pytest.mark.parametrize("seed", range(100))
    def test_pythagoras(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        s = random_subspace(n, m, seed + 5000)
        x = complex_randn(rng, n)
        x /= np.linalg.norm(x)
        eps = deviation(s, x)
        inside = np.linalg.norm(s.basis.conj().T @ x)
        assert abs(eps**2 + inside**2 - 1.0) <= 1e-12


class TestProject:
    def test_fixture_projection_vanishes_at_zero(self):
        t, _, w = fixture_problem()
        b = project(t, Subspace.from_basis(w))
        assert norm2(eval_T(b, 0.0, 0)) < 1e-14

    def test_identity_basis_is_identity_projection(self):
        t, _, _ = fixture_problem()
        b = project(t, Subspace.from_basis(np.eye(3, dtype=complex)))
        for (fa, a), (fb, bmat) in zip(t.terms, b.terms):
            assert fa is fb
            assert np.array_equal(a, bmat)

    def test_projection_commutes_with_evaluation(self):
        rng = np.random.default_rng(21)
        t, _, _ = fixture_problem()
        s = random_subspace(3, 2, 22)
        b = project(t, s)
        for _ in range(20):
            lam = complex(*rng.uniform(-0.6, 0.6, 2))
            direct = s.basis.conj().T @ eval_T(t, lam, 0) @ s.basis
            assert norm2(eval_T(b, lam, 0) - direct) < 1e-12

    def test_projected_problem_roundtrips_through_json(self, tmp_path):
        # the projection is a term list, not a closure, precisely so that
        # projected problems can be saved and reloaded like any other
        from nepritz.nep_model import load_problem, save_problem

        t, _, w = fixture_problem()
        b = project(t, Subspace.from_basis(w))
        path = tmp_path / "projected.json"
        save_problem(path, b)
        b2, _ = load_problem(path)
        for lam in (0.0, 0.3 + 0.1j, -0.5):
            assert norm2(eval_T(b2, lam, 0) - eval_T(b, lam, 0)) < 1e-14
        assert b2.domain_poles == b.domain_poles


class TestPerturbationWitness:
    def test_exact_capture_gives_zero_witness(self):
        t, ref, w = fixture_problem()
        wit, ctx = witness_case(t, Subspace.from_basis(w), ref)
        assert ctx.eps == 0.0
        assert norm2(wit.E_at_lambda_star) < 1e-14
        assert np.linalg.norm(wit.residual) < 1e-14

    def test_perturbed_fixture_residual_bound(self):
        from nepritz.experiments import perturb_subspace

        t, ref, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=3)
        wit, ctx = witness_case(t, s, ref)
        t_norm = float(singular_values(eval_T(t, 0.0, 0))[0])
        assert t_norm == pytest.approx(1.0, abs=1e-12)
        bound = ctx.eps / math.sqrt(1 - ctx.eps**2) * t_norm
        assert np.linalg.norm(wit.residual) <= bound + 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
    def test_norm_bound_across_deviations(self, eps):
        t, ref, _ = fixture_problem()
        s = build_subspace_eps(ref.x_star, 2, eps, seed=7)
        wit, ctx = witness_case(t, s, ref)
        t_norm = norm2(eval_T(t, ref.lambda_star, 0))
        rhs = ctx.eps / math.sqrt(1 - ctx.eps**2) * t_norm
        assert norm2(wit.E_at_lambda_star) <= rhs + 1e-12
        assert wit.norm_E == norm2(wit.E_at_lambda_star)
        # the projected function is this close to singular at the target
        smin = float(singular_values(
            eval_T(project(t, s), ref.lambda_star, 0))[-1])
        assert smin <= rhs + 1e-10

    def test_orthogonal_target_rejected(self):
        t, _, _ = fixture_problem()
        w = np.zeros((3, 1), dtype=complex)
        w[0, 0] = 1.0
        s = Subspace.from_basis(w)
        ref = ReferencePair(0.0, np.array([0, 0, 1], dtype=complex))
        with pytest.raises(DegenerateDeviation):
            witness_case(t, s, ref)
