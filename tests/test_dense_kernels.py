import numpy as np
import pytest
from helpers import complex_randn, power_iteration_norm, qr_complement

from nepritz.dense_kernels import (
    _finite,
    as_matrix,
    complement_compress,
    norm2,
    norms_within,
    phase_fix,
    singular_values,
    solve_linear,
    solve_with_norm,
    svd,
)
from nepritz.errors import ConvergenceFailure, NearSingular


class TestComplementCompress:
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 40])
    def test_matches_explicit_complement_basis(self, n):
        # the block is V^H A V for the reflector's basis V; any other basis,
        # here LAPACK's complete QR, gives the same singular values and norms
        rng = np.random.default_rng(n)
        x = complex_randn(rng, n)
        a, u = complex_randn(rng, n, n), complex_randn(rng, n)
        xp = qr_complement(x / np.linalg.norm(x))
        block = complement_compress(x, a)
        assert block.shape == (n - 1, n - 1)
        want = singular_values(xp.conj().T @ a @ xp)
        assert np.allclose(singular_values(block), want, rtol=0, atol=1e-14 * want[0])
        vec = complement_compress(x, u)
        assert vec.shape == (n - 1,)
        assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(xp.conj().T @ u), rel=1e-14)

    def test_is_the_lower_block_of_the_reflected_matrix(self):
        # H = I - 2 v v^H maps x onto a multiple of e_1, and the block is (H A H)[1:, 1:]
        rng = np.random.default_rng(3)
        x, a = complex_randn(rng, 6), complex_randn(rng, 6, 6)
        x /= np.linalg.norm(x)
        v = x + x[0] / abs(x[0]) * np.eye(6)[0]
        h = np.eye(6) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v)
        assert np.linalg.norm((h @ x)[1:]) < 1e-15
        assert np.allclose(complement_compress(x, a), (h @ a @ h)[1:, 1:], rtol=0, atol=1e-14)
        assert np.allclose(complement_compress(x, a[:, 0]), (h @ a[:, 0])[1:], rtol=0, atol=1e-14)
        # the vector itself has no component left, in either form
        assert np.linalg.norm(complement_compress(x, x)) < 1e-15
        assert norm2(complement_compress(x, np.outer(x, x.conj()))) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 8, 128])
    def test_stack_matches_one_matrix_at_a_time(self, n):
        rng = np.random.default_rng(n + 1)
        x = complex_randn(rng, n)
        for k in (1, 3, 48):
            stack = complex_randn(rng, k, n, n)
            got = complement_compress(x, stack)
            assert got.shape == (k, n - 1, n - 1)
            for m, block in zip(stack, got):
                assert block.tobytes() == complement_compress(x, m).tobytes()

    def test_scale_and_axis_vectors(self):
        # x = -e_1 takes the real-phase branch, x = e_3 the zero-pivot one
        rng = np.random.default_rng(4)
        a = complex_randn(rng, 3, 3)
        for x in (-np.eye(3)[0], np.eye(3)[2], 1e-30 * np.eye(3)[2]):
            xp = qr_complement(x / np.linalg.norm(x))
            assert np.allclose(singular_values(complement_compress(x, a)),
                               singular_values(xp.conj().T @ a @ xp), rtol=0, atol=1e-14)
        assert np.array_equal(complement_compress(-np.eye(3)[0], a), a[1:, 1:])

    def test_rejects_zero_vector_and_wrong_shapes(self):
        with pytest.raises(ValueError, match="zero vector"):
            complement_compress(np.zeros(3), np.eye(3))
        for bad in (np.eye(4), np.ones((3, 4)), np.ones(4), np.ones((2, 3, 4))):
            with pytest.raises(ValueError, match="cannot compress"):
                complement_compress(np.ones(3), bad)


def looped_phase_svd(a):
    """LAPACK's thin SVD with the per-column phase loop that svd() replaced: its oracle."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.conj().T
    for k in range(s.size):
        i = int(np.argmax(np.abs(u[:, k])))
        piv = u[i, k]
        if abs(piv) > 0.0:
            c = np.conj(piv) / abs(piv)
            u[:, k] = u[:, k] * c
            v[:, k] = v[:, k] * c
    return u, s, v


def looped_phase_fix(v):
    """phase_fix as a per-column loop, one numpy scalar quotient and product each: its oracle."""
    a = np.array(v, dtype=complex, copy=True)
    cols = a if a.ndim == 2 else a.reshape(-1, 1)
    for k in range(cols.shape[1]):
        col = cols[:, k]
        piv = col[int(np.argmax(np.abs(col)))]
        if abs(piv) > 0.0:
            cols[:, k] = col * (np.conj(piv) / abs(piv))
    return a


def tied_pivot_matrices():
    """Matrices whose computed U has columns with two largest-|.| entries that tie."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    b = complex_randn(np.random.default_rng(11), 3, 2)
    return [np.ones((4, 2), dtype=complex), np.kron(h, h), np.kron(h, np.eye(3)),
            np.vstack([b, b]), np.fft.fft(np.eye(4)),
            np.kron(np.eye(2), np.ones((2, 1))).astype(complex)]


class TestPhaseFix:
    @pytest.mark.parametrize("seed", range(4))
    def test_phase_fix_equals_the_per_column_loop(self, seed):
        # bit for bit, on C- and F-ordered matrices, vectors, one-column
        # matrices and matrices with tied pivots; v itself is left as it was
        rng = np.random.default_rng(100 + seed)
        shapes = [(1, 1), (5, 1), (1, 5), (6, 3), (16, 16), (128, 16)]
        shapes += [tuple(int(k) for k in rng.integers(1, 20, size=2)) for _ in range(8)]
        inputs = [complex_randn(rng, *shape) for shape in shapes]
        inputs += [np.asfortranarray(m) for m in inputs] + [complex_randn(rng, 7)]
        inputs += tied_pivot_matrices()
        for m in inputs:
            before = m.copy()
            got = phase_fix(m)
            want = looped_phase_fix(m)
            assert got.shape == m.shape and got.tobytes() == want.tobytes()
            assert m.tobytes() == before.tobytes()


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
        assert res.left_vectors.shape == (5, 3) and res.right_vectors.shape == (3, 3)
        rebuilt = res.left_vectors @ np.diag(res.singular_values) @ res.right_vectors.conj().T
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
        p = min(rows, cols)
        assert res.left_vectors.shape == (rows, p)
        assert res.right_vectors.shape == (cols, p)
        assert norm2(res.left_vectors.conj().T @ res.left_vectors
                     - np.eye(p)) <= 1e-12
        assert norm2(res.right_vectors.conj().T @ res.right_vectors
                     - np.eye(p)) <= 1e-12

    def test_singular_value_idempotence(self):
        rng = np.random.default_rng(5)
        m = complex_randn(rng, 6, 4)
        res = svd(m)
        rebuilt = res.left_vectors @ np.diag(res.singular_values) @ res.right_vectors.conj().T
        again = singular_values(rebuilt)
        assert np.allclose(again, res.singular_values, atol=1e-10)

    @pytest.mark.parametrize("rows,cols", [(3, 3), (12, 3), (5, 8), (128, 16), (120, 40)])
    def test_thin_factor_contract(self, rows, cols):
        # rows x p and cols x p orthonormal factors with the phase convention
        # that rebuild the matrix; the values are singular_values' to rounding
        rng = np.random.default_rng(rows * cols)
        m = complex_randn(rng, rows, cols)
        res = svd(m)
        p = min(rows, cols)
        u, v = res.left_vectors, res.right_vectors
        assert u.shape == (rows, p) and v.shape == (cols, p)
        assert norm2(u.conj().T @ u - np.eye(p)) <= 1e-13
        assert norm2(v.conj().T @ v - np.eye(p)) <= 1e-13
        assert norm2((u * res.singular_values) @ v.conj().T - m) <= 1e-13 * res.sigma_max
        piv = u[np.argmax(np.abs(u), axis=0), np.arange(p)]
        assert np.all(piv.real > 0) and np.all(np.abs(piv.imag) <= 1e-15 * piv.real)
        assert np.allclose(res.singular_values, singular_values(m), rtol=0,
                           atol=1e-14 * res.sigma_max)

    def test_checks_decompose_nothing_of_the_long_side(self, monkeypatch):
        import nepritz.dense_kernels as dk

        shapes = []

        def recorded(m):
            shapes.append(np.shape(m))
            return singular_values(m)

        monkeypatch.setattr(dk, "singular_values", recorded)
        m = complex_randn(np.random.default_rng(7), 40, 4)
        # the Frobenius norms of both residuals decide both checks
        svd(m)
        assert shapes == []
        # with an allowance no Frobenius norm can meet, the checks decompose
        # the reconstruction residual, then U^H U - I and V^H V - I in one stack
        monkeypatch.setattr(dk, "NORM_ROUNDING", 1e20)
        svd(m)
        assert shapes == [(40, 4), (2, 4, 4)]

    @pytest.mark.parametrize("seed", range(4))
    def test_phase_convention_equals_the_per_column_loop(self, seed):
        # bit for bit, over shapes from 1 x 1 to 128 x 16 and both orientations
        rng = np.random.default_rng(seed)
        shapes = [(1, 1), (1, 5), (5, 1), (2, 2), (6, 3), (3, 6), (16, 16), (128, 16), (16, 128)]
        shapes += [tuple(int(k) for k in rng.integers(1, 20, size=2)) for _ in range(12)]
        for rows, cols in shapes:
            m = complex_randn(rng, rows, cols)
            got = svd(m)
            u, s, v = looped_phase_svd(m)
            assert got.left_vectors.tobytes() == u.tobytes()
            assert got.right_vectors.tobytes() == v.tobytes()
            assert got.singular_values.tobytes() == s.tobytes()

    def test_phase_convention_on_tied_pivots_is_the_first_maximum(self):
        ties = 0
        for m in tied_pivot_matrices():
            got = svd(m)
            u, _, v = looped_phase_svd(m)
            assert got.left_vectors.tobytes() == u.tobytes()
            assert got.right_vectors.tobytes() == v.tobytes()
            mags = np.abs(np.linalg.svd(m, full_matrices=False)[0])
            ties += int(np.sum((mags == mags.max(axis=0)).sum(axis=0) > 1))
        assert ties > 0

    def test_orthogonality_check_fails_loudly(self, monkeypatch):
        # a zero singular value hides its column of U from U S V^H, so a U
        # that is orthonormal only to 1e-9 passes the reconstruction check
        import nepritz.dense_kernels as dk

        lapack = np.linalg.svd

        def skewed(a, full_matrices=True, compute_uv=True):
            if not compute_uv:
                return lapack(a, compute_uv=False)
            u, s, vh = lapack(a, full_matrices=full_matrices)
            u[:, -1] += 1e-9 * u[:, 0]
            return u, s, vh

        monkeypatch.setattr(dk.np.linalg, "svd", skewed)
        with pytest.raises(ConvergenceFailure, match="orthogonality"):
            svd(np.diag([2.0, 1.0, 0.0]).astype(complex))

    @pytest.mark.parametrize("excess,passes", [(0.9, True), (1.1, False)])
    def test_reconstruction_check_is_the_2_norm(self, monkeypatch, excess, passes):
        # LAPACK returning s = 1 + c for I_4 leaves the residual -c I_4:
        # ||R||_F = 2c is above the limit 1e-12 max(1, s_1) either way, so
        # the 2-norm c decides it, on the exact path
        import nepritz.dense_kernels as dk

        c = excess * 1e-12
        lapack = np.linalg.svd

        def off_by_c(a, full_matrices=True, compute_uv=True):
            if not compute_uv:
                return lapack(a, compute_uv=False)
            u, s, vh = lapack(a, full_matrices=full_matrices)
            return u, s + c, vh

        monkeypatch.setattr(dk.np.linalg, "svd", off_by_c)
        if passes:
            assert svd(np.eye(4, dtype=complex)).sigma_max == 1.0 + c
        else:
            with pytest.raises(ConvergenceFailure, match="reconstruction"):
                svd(np.eye(4, dtype=complex))

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


class TestNorm2:
    U = 2.0 ** -53

    def allowance(self, a, sigma):
        # norm2's first-order bound, with the eigensolver's p(k) taken as k,
        # plus k u for the error of the reference SVD; the stable rank r is
        # scale-free, so it is read from a matrix whose squares do not overflow
        k, q = min(a.shape), max(a.shape)
        r = (np.linalg.norm(a) / sigma) ** 2
        return (((q + 2) * r + k) / 2 + 1 + k) * self.U

    def test_matches_numpy_norm_within_the_derived_bound(self):
        rng = np.random.default_rng(11)
        sizes = [(1, 1), (1, 130), (130, 1), (130, 130), (2, 129)]
        sizes += [tuple(rng.integers(1, 131, size=2)) for _ in range(25)]
        for rows, cols in sizes:
            base = complex_randn(rng, rows, cols)
            tol = self.allowance(base, np.linalg.norm(base, 2))
            for scale in (1.0, 1e-8, 1e8, 2.0 ** -600, 2.0 ** 600):
                a = base * scale
                want = np.linalg.norm(a, 2)
                assert abs(norm2(a) - want) <= tol * want, (rows, cols, scale)

    def test_rank_one_is_accurate(self):
        # stable rank 1: the bound is O(max(rows, cols) u)
        rng = np.random.default_rng(12)
        x, y = complex_randn(rng, 40), complex_randn(rng, 25)
        want = np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(norm2(np.outer(x, y.conj())) - want) <= 50 * self.U * want

    @pytest.mark.parametrize("k", [-600, -40, -1, 1, 40, 600])
    def test_power_of_two_scales_exactly(self, k):
        rng = np.random.default_rng(13)
        for rows, cols in ((3, 3), (7, 2), (2, 9), (16, 16)):
            a = complex_randn(rng, rows, cols)
            assert norm2(2.0 ** k * a) == 2.0 ** k * norm2(a)
        stack = complex_randn(rng, 6, 5, 5)
        assert np.array_equal(norm2(2.0 ** k * stack), 2.0 ** k * norm2(stack))

    @pytest.mark.parametrize("shape", [(9, 5, 5), (7, 6, 3), (7, 3, 6), (2, 3, 4, 4)])
    def test_stack_slices_equal_single_calls(self, shape):
        rng = np.random.default_rng(14)
        stack = complex_randn(rng, *shape) * 10.0 ** rng.uniform(-8, 8, size=shape[:-2] + (1, 1))
        got = norm2(stack)
        assert got.shape == shape[:-2]
        for idx in np.ndindex(*shape[:-2]):
            assert got[idx] == norm2(stack[idx])
        # a matrix's value does not depend on the stack that holds it
        flat = stack.reshape(-1, *shape[-2:])
        for j in range(1, len(flat) + 1):
            assert np.array_equal(norm2(flat[:j]), got.reshape(-1)[:j])

    def test_zero_matrix_and_zero_slice(self):
        assert norm2(np.zeros((3, 4), dtype=complex)) == 0.0
        stack = complex_randn(np.random.default_rng(15), 3, 4, 4)
        stack[1] = 0.0
        got = norm2(stack)
        assert got[1] == 0.0 and got[0] == norm2(stack[0]) and got[2] == norm2(stack[2])

    def test_vectors_are_rows(self):
        v = complex_randn(np.random.default_rng(16), 7)
        got = norm2(v)
        assert isinstance(got, float)
        assert got == norm2(v[None, :]) == norm2(v[:, None])
        assert abs(got - np.linalg.norm(v)) <= 8 * self.U * got
        assert norm2(np.array([], dtype=complex)) == 0.0

    @pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(np.inf, 1.0),
                                       complex(1.0, -np.inf)])
    def test_rejects_nan_and_signed_inf(self, entry):
        m = np.ones((3, 3), dtype=complex)
        m[1, 2] = entry
        for bad in (m, m[1], np.stack([np.ones((3, 3), dtype=complex), m])):
            with pytest.raises(ValueError):
                norm2(bad)


class TestNormsWithin:
    def count_decompositions(self, monkeypatch):
        import nepritz.dense_kernels as dk

        shapes = []

        def recorded(m):
            shapes.append(np.shape(m))
            return singular_values(m)

        monkeypatch.setattr(dk, "singular_values", recorded)
        return shapes

    @pytest.mark.parametrize("excess,within", [(0.5, True), (0.9, True), (1.1, False)])
    def test_frobenius_above_two_norm_below(self, monkeypatch, excess, within):
        # ||c I_4||_F = 2c is not within tau from c = 0.5 tau on (the
        # allowance keeps the Frobenius side strictly inside), so these go to
        # the exact path, where the 2-norm c decides
        shapes = self.count_decompositions(monkeypatch)
        tau = 1e-12
        assert norms_within(excess * tau * np.eye(4), tau) is within
        assert shapes == [(4, 4)]

    def test_frobenius_decides_without_decomposing(self, monkeypatch):
        shapes = self.count_decompositions(monkeypatch)
        tau = 1e-12
        assert norms_within(0.4 * tau * np.eye(4), tau)
        assert norms_within(np.stack([0.4 * tau * np.eye(4), np.zeros((4, 4))]), tau)
        assert shapes == []

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_the_plain_check(self, seed):
        rng = np.random.default_rng(500 + seed)
        a = complex_randn(rng, 5, 6, 4) * 10.0 ** rng.uniform(-3, 3, size=(5, 1, 1))
        norms = singular_values(a)[:, 0]
        fro = np.linalg.norm(a, axis=(1, 2))
        for limit in (norms.max(), 0.99 * norms.max(), fro.max()):
            assert norms_within(a, limit) == (not np.any(norms > limit))


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
            assert (s[:, -1] > 1e-14 * s[:, 0]).all()
            x, ok = solve_with_norm(a, rhs, s[:, 0])
            assert ok.shape == (6,) and ok.all()
            for k in range(6):
                assert x[k].tobytes() == solve_linear(a[k], rhs[k]).tobytes()

    def test_residual_check_flags_each_system(self):
        # cond(A) = 1e13 passes the singularity test; with ||A|| given as 0
        # the check tolerates only 1e-10 ||b||, which the rounding error of
        # x ~ 1e13 b does not meet
        rng = np.random.default_rng(31)
        a = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13])]).astype(complex)
        b = complex_randn(rng, 2, 3, 3)
        a[1] = a[1] @ np.linalg.qr(complex_randn(rng, 3, 3))[0]
        norm_a = singular_values(a)[:, 0]
        _, ok = solve_with_norm(a, b, norm_a)
        assert ok.tolist() == [True, True]
        norm_a[1] = 0.0
        _, ok = solve_with_norm(a, b, norm_a)
        assert ok.tolist() == [True, False]

    def test_residual_check_is_decided_where_the_norms_overflow(self):
        # at 2^860 the squares in every column norm overflow; the verdicts
        # are those of the unscaled stack, with no RuntimeWarning
        rng = np.random.default_rng(31)
        a = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-13]), np.eye(3)]).astype(complex)
        a[1] = a[1] @ np.linalg.qr(complex_randn(rng, 3, 3))[0]
        a[2] = complex_randn(rng, 3, 3)
        b = complex_randn(rng, 3, 3, 3)
        norm_a = singular_values(a)[:, 0]
        norm_a[1] = 0.0
        _, ok = solve_with_norm(a, b, norm_a)
        assert ok.tolist() == [True, False, True]
        scale = 2.0 ** 860
        _, ok_scaled = solve_with_norm(a * scale, b * scale, norm_a * scale)
        assert ok_scaled.tolist() == ok.tolist()

    def test_a_system_whose_solution_overflows_fails(self):
        # x = (1e310, 1) overflows to Inf, and the residual's 0 * Inf is NaN
        _, ok = solve_with_norm(np.diag([1e-300, 1.0]).astype(complex),
                                np.array([1e10, 1.0], dtype=complex), 1.0)
        assert not ok
