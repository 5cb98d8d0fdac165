import numpy as np
import pytest
from helpers import complex_randn, mgs_oracle, power_iteration_norm

from nepritz.dense_kernels import (
    _finite,
    as_matrix,
    householder_complement,
    near_singular,
    norm2,
    orthonormalize,
    singular_values,
    solve_linear,
    solve_with_svals,
    svd,
)
from nepritz.errors import NearSingular, RankDeficient


class TestOrthonormalize:
    def test_identity_passes_through(self):
        q = orthonormalize(np.eye(3, dtype=complex))
        assert np.allclose(q, np.eye(3), atol=1e-14)

    def test_single_column_normalized(self):
        q = orthonormalize(np.array([[2.0], [0.0], [0.0]], dtype=complex))
        assert np.allclose(q, [[1.0], [0.0], [0.0]], atol=1e-14)

    def test_matches_gram_schmidt_oracle_span(self):
        m = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
        q = orthonormalize(m)
        oracle = mgs_oracle(m)
        assert norm2(q.conj().T @ q - np.eye(2)) < 1e-12
        # same span: projectors agree
        assert norm2(q @ q.conj().T - oracle @ oracle.conj().T) < 1e-12

    def test_phase_convention(self):
        rng = np.random.default_rng(3)
        q = orthonormalize(complex_randn(rng, 5, 3))
        for k in range(3):
            piv = q[np.argmax(np.abs(q[:, k])), k]
            assert abs(piv.imag) < 1e-14 and piv.real > 0

    def test_rank_deficient_raises(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
        with pytest.raises(RankDeficient):
            orthonormalize(m)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            orthonormalize(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_orthogonality_random(self, seed):
        rng = np.random.default_rng(seed)
        q = orthonormalize(complex_randn(rng, 8, 5))
        assert norm2(q.conj().T @ q - np.eye(5)) < 1e-12


class TestComplements:
    def test_householder_complement(self):
        rng = np.random.default_rng(11)
        x = complex_randn(rng, 5)
        x /= np.linalg.norm(x)
        xp = householder_complement(x)
        assert xp.shape == (5, 4)
        assert np.linalg.norm(xp.conj().T @ x) < 1e-12
        assert norm2(xp.conj().T @ xp - np.eye(4)) < 1e-12

    def test_householder_deterministic(self):
        x = np.array([0, 0, 1], dtype=complex)
        a = householder_complement(x)
        b = householder_complement(x)
        assert np.array_equal(a, b)


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(res.singular_values, [3.0, 1.0])

    def test_rank_one_tall(self):
        # compression of the degenerate fixture: one unit column, one zero
        m = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        res = svd(m)
        assert np.allclose(res.singular_values, [1.0, 0.0], atol=1e-14)

    def test_reconstruction_seeded(self):
        rng = np.random.default_rng(42)
        m = complex_randn(rng, 5, 3)
        res = svd(m)
        smat = np.zeros((5, 3), dtype=complex)
        smat[:3, :3] = np.diag(res.singular_values)
        rebuilt = res.left_vectors @ smat @ res.right_vectors.conj().T
        assert norm2(rebuilt - m) <= 1e-12 * max(1.0, norm2(m))

    @pytest.mark.parametrize("seed", range(10))
    def test_invariants_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = complex_randn(rng, rows, cols)
        res = svd(m)
        s = res.singular_values
        assert np.all(np.diff(s) <= 1e-15) and np.all(s >= 0)
        assert norm2(res.left_vectors.conj().T @ res.left_vectors
                     - np.eye(rows)) <= 1e-12
        assert norm2(res.right_vectors.conj().T @ res.right_vectors
                     - np.eye(cols)) <= 1e-12

    def test_singular_value_idempotence(self):
        rng = np.random.default_rng(5)
        m = complex_randn(rng, 6, 4)
        res = svd(m)
        smat = np.zeros((6, 4), dtype=complex)
        smat[:4, :4] = np.diag(res.singular_values)
        rebuilt = res.left_vectors @ smat @ res.right_vectors.conj().T
        again = singular_values(rebuilt)
        assert np.allclose(again, res.singular_values, atol=1e-10)

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(6)
        stack = complex_randn(rng, 5, 4, 3)
        got = singular_values(stack)
        assert got.shape == (5, 3)
        for m, row in zip(stack, got):
            assert np.array_equal(row, singular_values(m))

    def test_stack_rejects_nonfinite(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[2, 1, 0] = np.nan
        with pytest.raises(ValueError):
            singular_values(stack)

    @pytest.mark.parametrize("seed", range(20))
    def test_norm_matches_power_iteration(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = complex_randn(rng, 6, 5)
        assert abs(norm2(m) - power_iteration_norm(m, seed=seed)) <= 1e-8 * norm2(m)

    def test_norm_bit_equal_numpy_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows, cols = rng.integers(1, 17, size=2)
            m = complex_randn(rng, rows, cols) * 10.0 ** rng.uniform(-8, 8)
            assert np.float64(norm2(m)).tobytes() == np.linalg.norm(m, 2).tobytes()
        v = complex_randn(rng, 7)
        assert norm2(v) == np.linalg.norm(np.atleast_2d(v), 2)

    @pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(np.inf, 1.0),
                                       complex(1.0, -np.inf)])
    def test_finite_rejects_nan_and_signed_inf(self, entry):
        m = np.ones((3, 3), dtype=complex)
        m[1, 2] = entry
        stack = np.stack([np.ones((3, 3), dtype=complex), m])
        assert not _finite(m) and not _finite(stack)
        assert _finite(np.ones((2, 3, 3), dtype=complex))
        with pytest.raises(ValueError):
            as_matrix(m)
        with pytest.raises(ValueError):
            singular_values(stack)


class TestSolveLinear:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.allclose(solve_linear(np.eye(3, dtype=complex), b), b)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]).astype(complex),
                         np.array([2.0, 4.0], dtype=complex))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_seeded_system_residual(self):
        rng = np.random.default_rng(17)
        m = complex_randn(rng, 4, 4)
        b = complex_randn(rng, 4)
        x = solve_linear(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * (
            norm2(m) * np.linalg.norm(x) + np.linalg.norm(b)
        )

    def test_near_singular_raises(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]], dtype=complex)
        with pytest.raises(NearSingular):
            solve_linear(m, np.array([1.0, 1.0], dtype=complex))

    def test_matrix_rhs_matches_column_solves(self):
        rng = np.random.default_rng(23)
        m = complex_randn(rng, 5, 5)
        b = complex_randn(rng, 5, 3)
        x = solve_linear(m, b)
        assert x.shape == (5, 3)
        for i in range(3):
            assert np.allclose(x[:, i], solve_linear(m, b[:, i]), rtol=1e-13, atol=0)

    def test_matrix_rhs_near_singular_raises(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]], dtype=complex)
        with pytest.raises(NearSingular):
            solve_linear(m, np.eye(2, dtype=complex))

    def test_stacked_solve_bit_equal_single_solves(self):
        rng = np.random.default_rng(29)
        for m in (3, 16):
            a = complex_randn(rng, 6, m, m)
            rhs = complex_randn(rng, 6, m, m)
            s = singular_values(a)
            assert not near_singular(s).any()
            x, ok = solve_with_svals(a, rhs, s)
            assert ok.shape == (6,) and ok.all()
            for k in range(6):
                assert x[k].tobytes() == solve_linear(a[k], rhs[k]).tobytes()

    def test_near_singular_flags_each_matrix(self):
        a = np.stack([np.eye(2), np.diag([1.0, 1e-15]), np.diag([1.0, 1e-13])]).astype(complex)
        assert near_singular(singular_values(a)).tolist() == [False, True, False]

    def test_residual_check_flags_each_system(self):
        # cond(A) = 1e13 passes the singularity test; with ||A|| given as 0
        # the check tolerates only 1e-10 ||b||, which the rounding error of
        # x ~ 1e13 b does not meet
        rng = np.random.default_rng(31)
        a = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13])]).astype(complex)
        b = complex_randn(rng, 2, 3, 3)
        a[1] = a[1] @ np.linalg.qr(complex_randn(rng, 3, 3))[0]
        s = singular_values(a)
        _, ok = solve_with_svals(a, b, s)
        assert ok.tolist() == [True, True]
        s[1, 0] = 0.0
        _, ok = solve_with_svals(a, b, s)
        assert ok.tolist() == [True, False]
