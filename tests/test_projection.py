import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import complex_randn, mgs_oracle

from nepritz.bounds_lab import build_case_context, perturbation_norm_bound
from nepritz.dense_kernels import norm2, singular_values
from nepritz.errors import DegenerateDeviation
from nepritz.experiments import build_subspace_eps, fixture_problem
from nepritz.nep_model import ReferencePair, eval_T
from nepritz.projection import Subspace, deviation, project


def witness_case(t, s, ref):
    """(perturbation_norm report, context) of the target pair at mu = lambda_star."""
    lam = ref.lambda_star
    ctx = build_case_context(t, s, ref.x_star, lam, lam)
    return perturbation_norm_bound(ctx), ctx


def random_subspace(n, m, seed):
    rng = np.random.default_rng(seed)
    return Subspace.from_basis(mgs_oracle(complex_randn(rng, n, m)))


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

    @pytest.mark.parametrize("defect,accepted", [(0.9e-12, True), (1.1e-12, False)])
    def test_orthonormality_is_checked_in_the_2_norm(self, defect, accepted):
        # W^H W - I = defect I_4: its Frobenius norm 2 defect is over the
        # 1e-12 limit either way, so the 2-norm decides
        w = np.sqrt(1.0 + defect) * np.eye(6, 4, dtype=complex)
        gram = w.conj().T @ w - np.eye(4)
        assert np.allclose(np.diag(gram), defect, rtol=1e-3, atol=0)
        if accepted:
            assert Subspace.from_basis(w).dim == 4
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                Subspace.from_basis(w)

    def test_rejects_too_many_columns(self):
        with pytest.raises(ValueError, match="exceeds ambient"):
            Subspace.from_basis(np.ones((2, 3), dtype=complex))

    @pytest.mark.parametrize("w", [
        np.eye(4, 2),
        [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        np.eye(4, 2, k=-1, dtype=np.int64),
        np.eye(4, 2, dtype=complex),
    ], ids=["float", "list", "integer", "complex"])
    def test_one_construction_path(self, w):
        # the constructor and from_basis store the same read-only complex copy
        direct, named = Subspace(w), Subspace.from_basis(w)
        for s in (direct, named):
            assert s.basis.dtype == np.complex128 and not s.basis.flags.writeable
            assert s.basis.tobytes() == np.array(w, dtype=complex).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                s.basis[0, 0] = 2.0

    def test_caller_write_does_not_reach_the_basis(self):
        w = np.eye(4, 2, dtype=complex)
        made = [Subspace(w), Subspace.from_basis(w), replace(random_subspace(4, 2, 5), basis=w)]
        w[0, 0] = 3.0
        for s in made:
            assert s.basis[0, 0] == 1.0 and not s.basis.flags.writeable

    def test_project_needs_the_function_dimension(self):
        t, _, _ = fixture_problem()
        with pytest.raises(ValueError, match="wrong row dimension"):
            project(t, random_subspace(4, 2, 6))

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
        rep, ctx = witness_case(t, Subspace.from_basis(w), ref)
        assert ctx.eps == 0.0
        assert rep.lhs < 1e-14

    def test_perturbed_fixture_residual_bound(self):
        from nepritz.experiments import perturb_subspace

        t, ref, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=3)
        rep, ctx = witness_case(t, s, ref)
        t_norm = float(singular_values(eval_T(t, 0.0, 0))[0])
        assert t_norm == pytest.approx(1.0, abs=1e-12)
        bound = ctx.eps / math.sqrt(1 - ctx.eps**2) * t_norm
        assert rep.lhs <= bound + 1e-12
        # (B(l*) + E(l*)) u_hat = 0, so the residual B(l*) u_hat is E(l*) u_hat
        u_hat = s.basis.conj().T @ ref.x_star / ctx.eps_cos
        assert np.linalg.norm(ctx.b_star @ u_hat) <= bound + 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
    def test_norm_bound_across_deviations(self, eps):
        t, ref, _ = fixture_problem()
        s = build_subspace_eps(ref.x_star, 2, eps, seed=7)
        rep, ctx = witness_case(t, s, ref)
        t_star = eval_T(t, ref.lambda_star, 0)
        rhs = ctx.eps / math.sqrt(1 - ctx.eps**2) * norm2(t_star)
        assert rep.lhs <= rhs + 1e-12
        # E(l*) is rank one: ||E|| = ||W^H T(l*) x_out|| ||u|| / (1 - eps^2)
        w = s.basis
        u = w.conj().T @ ref.x_star
        x_out = ref.x_star - w @ u
        closed = (np.linalg.norm(w.conj().T @ t_star @ x_out) * np.linalg.norm(u)
                  / (1 - ctx.eps**2))
        assert rep.lhs == pytest.approx(closed, rel=1e-13, abs=0.0)
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

    def test_non_eigenvector_fails_the_annihilation_check(self):
        # e2 lies in span [e1, e2], so eps = 0 and E(l*) = 0, but T(0) e2 = e1:
        # B(0) u_hat = W^H e1 is not annihilated
        t, _, _ = fixture_problem()
        s = Subspace.from_basis(np.eye(3, 2, dtype=complex))
        e2 = np.array([0, 1, 0], dtype=complex)
        ctx = build_case_context(t, s, e2, 0.0, 0.0)
        assert ctx.eps == 0.0
        with pytest.raises(RuntimeError, match="does not annihilate u_hat"):
            perturbation_norm_bound(ctx)

    def test_understated_norm_fails_the_norm_check(self):
        # ||E(l*)|| is about eps ||T(l*)||; a context claiming a thousandth of
        # that ||T(l*)|| puts the witness above its guaranteed bound
        t, ref, _ = fixture_problem()
        s = build_subspace_eps(ref.x_star, 2, 1e-3, seed=7)
        ctx = build_case_context(t, s, ref.x_star, 0.0, 0.0)
        assert perturbation_norm_bound(ctx).holds
        with pytest.raises(RuntimeError, match="exceeds its guaranteed bound"):
            understated = replace(ctx.target, t_star_svals=ctx.target.t_star_svals * 1e-3)
            perturbation_norm_bound(replace(ctx, target=understated))
