import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    complex_randn,
    det_poly_coeffs,
    match_point_sets,
    poly_roots_ascending,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nepritz
import nepritz.small_nep_solver as sns
from nepritz.dense_kernels import singular_values, solve_linear, solve_with_norm
from nepritz.errors import (
    ConstructionFailed,
    ConvergenceFailure,
    DimensionGuard,
    EmptySpectrum,
    NearSingular,
    NonConverged,
    PoleHit,
)
from nepritz.experiments import (
    build_subspace_eps,
    builtin_suite,
    fixture_problem,
    perturb_subspace,
    random_planted_nep,
)
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
        coeffs = polynomialize(b)
        assert b.domain_poles == ()
        for _ in range(5):
            lam = complex(*rng.uniform(-1, 1, 2))
            assert np.allclose(eval_poly_mats(coeffs, lam), eval_T(b, lam, 0),
                               atol=1e-12)

    def test_fixture_denominator_cleared(self):
        b = fixture_projected()
        coeffs = polynomialize(b)
        assert len(b.domain_poles) == 1 and abs(b.domain_poles[0] - 1.0) < 1e-10
        assert len(coeffs) == 4  # degree 3
        rng = np.random.default_rng(1)
        for _ in range(10):
            lam = complex(*rng.uniform(-0.8, 0.8, 2))
            if abs(lam - 1.0) < 1e-2:
                continue
            want = (lam - 1.0) * eval_T(b, lam, 0)
            assert np.allclose(eval_poly_mats(coeffs, lam), want, atol=1e-12)

    def test_a_shared_denominator_is_cleared_once(self):
        # B = diag(0.3, -0.5) / (lam - 2) + I lam / (lam - 2): with q = lam - 2
        # taken once, P = diag(0.3, -0.5) + lam I, of degree 1 and not 2
        b = MatrixFunction.from_terms([
            (Rational([1], [-2, 1]), np.diag([0.3, -0.5]).astype(complex)),
            (Rational([0, 1], [-2, 1]), np.eye(2, dtype=complex)),
        ])
        coeffs = polynomialize(b)
        assert len(coeffs) == 2
        assert np.allclose(coeffs[0], np.diag([0.3, -0.5]), rtol=0, atol=1e-15)
        assert np.allclose(coeffs[1], np.eye(2), rtol=0, atol=1e-15)
        spec = solve_projected(b, 0.0, 1.0)
        assert spec.method == "companion-rationalized"
        assert spec.eigenvalues == [pytest.approx(-0.3, abs=1e-12), pytest.approx(0.5, abs=1e-12)]

    def test_a_cancelled_leading_block_is_stripped(self):
        # lam^2 I + (lam - lam^2) I + diag(-0.25, 0.4): the lam^2 blocks
        # cancel exactly, so P = diag(-0.25, 0.4) + lam I has degree 1
        b = MatrixFunction.from_terms([
            (Polynomial([0, 0, 1]), np.eye(2, dtype=complex)),
            (Polynomial([0, 1, -1]), np.eye(2, dtype=complex)),
            (Polynomial([1]), np.diag([-0.25, 0.4]).astype(complex)),
        ])
        coeffs = polynomialize(b)
        assert len(coeffs) == 2
        spec = solve_projected(b, 0.0, 1.0)
        assert spec.method == "companion-polynomial"
        assert spec.eigenvalues == [pytest.approx(0.25, abs=1e-12), pytest.approx(-0.4, abs=1e-12)]

    def test_fixture_cleared_structure(self):
        # P(lam) = (lam-1) B(lam) = [[lam, 0], [lam^3 - lam^2, lam^2 - lam]]
        coeffs = polynomialize(fixture_projected())
        p1 = eval_poly_mats(coeffs, 2.0)
        assert np.allclose(p1, [[2.0, 0.0], [4.0, 2.0]], atol=1e-12)

    def test_scalar_reciprocal(self):
        b = MatrixFunction.from_terms([
            (Rational([1], [0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        coeffs = polynomialize(b)
        assert len(coeffs) == 1  # constant polynomial: no roots at all
        assert len(b.domain_poles) == 1 and abs(b.domain_poles[0]) < 1e-12
        assert companion_eigs(coeffs) == []

    def test_close_distinct_poles_both_cleared(self):
        # denominators 1e-5 apart are two factors of q: a relative
        # tolerance of 1e-5 would merge them and fail the self-check
        b = MatrixFunction.from_terms([
            (Rational([1], [-2, 1]), np.eye(2, dtype=complex)),
            (Rational([1], [-(2 + 1e-5), 1]), np.diag([1.0, 2.0]).astype(complex)),
        ])
        coeffs = polynomialize(b)
        assert sorted(p.real for p in b.domain_poles) == pytest.approx([2.0, 2.0 + 1e-5], abs=1e-9)
        lam = 0.3 + 0.2j
        want = (lam - 2.0) * (lam - 2.0 - 1e-5) * eval_T(b, lam, 0)
        assert np.allclose(eval_poly_mats(coeffs, lam), want, atol=1e-12)

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

    def test_self_check_decided_without_decomposing(self, monkeypatch):
        # the residuals, each over max(1, |q|), meet a limit scaled by a
        # Frobenius lower bound on max_k ||C_k||_2 in one reduction
        import nepritz.dense_kernels as dk

        (rat4,) = [i for i in builtin_suite() if i.instance_id == "rat4-eps1e-04"]
        problems = [fixture_projected(), project(rat4.t, rat4.subspace)]

        def forbidden(m):
            raise AssertionError("polynomialize's self-check decomposed a matrix")

        monkeypatch.setattr(dk, "singular_values", forbidden)
        for b in problems:
            assert b.domain_poles
            polynomialize(b)

    @staticmethod
    def one_pair_per_draw(poles, count=20):
        # the self-check's points as first drawn: one (re, im) pair per draw
        rng = np.random.default_rng(20240925)
        points = []
        while len(points) < count:
            lam = complex(*rng.uniform(-1.5, 1.5, size=2))
            if all(abs(lam - p) >= 1e-3 for p in poles):
                points.append(lam)
        return np.array(points)

    def test_check_points_are_the_first_20_survivors_of_the_stream(self, monkeypatch):
        first = self.one_pair_per_draw([], count=25)
        checked = []

        def recording(fn, lams, order=0):
            checked.append(np.array(lams))
            return eval_T_many(fn, lams, order)

        monkeypatch.setattr(sns, "eval_T_many", recording)
        one = np.array([[1.0]], dtype=complex)
        # no pole; the suite's, the drivers' and the fixture's poles; one
        # near the 3rd point; near the 1st, 3rd and 7th points
        pole_sets = [(), (2.0,), (1.5,), (1.0,), (first[2] + 5e-4,),
                     (first[0], first[2] - 2e-4j, first[6] + 1e-4), (first[2],)]
        for poles in pole_sets:
            b = MatrixFunction.from_terms(
                [(Polynomial([0, 1]), one)] + [(Rational([1], [-p, 1]), one) for p in poles])
            assert len(b.domain_poles) == len(poles)
            checked.clear()
            polynomialize(b)
            want = self.one_pair_per_draw(b.domain_poles)
            assert checked[0].tobytes() == want.tobytes()
            assert all(abs(lam - p) >= 1e-3 for lam in checked[0] for p in b.domain_poles)
        # a rejected point pulls the 21st draw of the stream into the set
        assert checked[0][-1] == first[20]

    def test_exponential_term_rejected(self):
        b = MatrixFunction.from_terms([
            (Exponential(1.0), np.array([[1.0]], dtype=complex)),
        ])
        with pytest.raises(ValueError, match="exponential terms cannot be polynomialized"):
            polynomialize(b)


class TestCompanionEigs:
    def test_scalar_quadratic(self):
        coeffs = [np.array([[-1.0 + 0j]]), np.array([[0.0 + 0j]]), np.array([[1.0 + 0j]])]
        roots = sorted(companion_eigs(coeffs), key=lambda z: z.real)
        assert match_point_sets(roots, [-1.0, 1.0], 1e-10)

    def test_fixture_roots_with_infinite_drop(self):
        coeffs = polynomialize(fixture_projected())
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
    """The per-start Newton-trace loop the lockstep kernel replaced: its oracle.

    Returns the root and the singular values of B there that its stop test
    read.  A B or B' with a NaN or Inf entry ends the run as NonConverged.
    """
    lam = complex(lam0)
    for step in range(max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            bk = eval_T(b, lam, 0)
        if not np.isfinite(bk).all():
            raise NonConverged(f"B has NaN/Inf entries at {lam}")
        s = singular_values(bk)
        if s[-1] <= tol * max(1.0, s[0]):
            return lam, s
        if step == max_iter:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            dk = eval_T(b, lam, 1)
        if not np.isfinite(dk).all():
            raise NonConverged(f"B' has NaN/Inf entries at {lam}")
        x = solve_linear(bk, dk)
        tr = complex(sum(np.diagonal(x)))
        if abs(tr) < 1e-300:
            raise NonConverged("vanishing trace; stationary point of det B")
        lam = lam - 1.0 / tr
    raise NonConverged(f"no convergence after {max_iter} Newton steps (from {lam0})")


def lone_outcomes(b, starts, **kwargs):
    """newton_trace_refine's outcomes and stop-test singular values, one start at a time."""
    out, svals = [], []
    for z in starts:
        try:
            root, s = lone_newton(b, z, **kwargs)
        except (NonConverged, PoleHit) as exc:
            root, s = exc, None
        out.append(root)
        svals.append(s)
    return out, svals


def bits(z):
    return struct.pack("<dd", z.real, z.imag)


def assert_same_outcomes(got, want):
    """Same outcome types, roots and stop-test singular values, bit for bit."""
    (got, got_svals), (want, want_svals) = got, want
    assert len(got) == len(want) == len(got_svals) == len(want_svals)
    for g, w, gs, ws in zip(got, want, got_svals, want_svals):
        if isinstance(w, Exception):
            assert type(g) is type(w) and gs is None
        else:
            assert type(g) is complex and bits(g) == bits(w)
            assert gs.shape == ws.shape and gs.tobytes() == ws.tobytes()


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
    def test_linear_scalar_exact_in_one_step(self, monkeypatch):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 1]), np.array([[1.0]], dtype=complex)),
        ])
        monkeypatch.setattr(sns, "NEWTON_MAX_ITER", 2)
        assert newton_trace_refine(b, [0.0])[0] == [pytest.approx(2.0)]

    def test_fixture_double_root(self):
        [mu], _ = newton_trace_refine(fixture_projected(), [0.1])
        assert abs(mu) <= 1e-10

    def test_sqrt_two(self):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        [root], [s] = newton_trace_refine(b, [1.0])
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)
        # the stop test's singular values of B at the root come back with it
        assert s.tolist() == [abs(root * root - 2.0)]

    def test_nonconverged(self, monkeypatch):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        monkeypatch.setattr(sns, "NEWTON_MAX_ITER", 2)
        [out], [s] = newton_trace_refine(b, [100.0])
        assert isinstance(out, NonConverged) and s is None

    def test_one_solve_per_step(self, monkeypatch):
        # B(lam) = diag(1, 2, 3) - lam I: one step from 0.9 lands near 0.988,
        # off the root, so NEWTON_MAX_ITER = 1 ends in NonConverged
        b = MatrixFunction.from_terms([
            (Polynomial([1]), np.diag([1.0, 2.0, 3.0]).astype(complex)),
            (Polynomial([0, -1]), np.eye(3, dtype=complex)),
        ])
        solves, orders = [], []

        def counted_solve(m, rhs, s):
            solves.append(np.shape(m))
            return solve_with_norm(m, rhs, s)

        def counted_eval(fn, lams, order):
            orders.append(order)
            return eval_T_many(fn, lams, order)

        monkeypatch.setattr(sns, "solve_with_norm", counted_solve)
        monkeypatch.setattr(sns, "eval_T_many", counted_eval)
        monkeypatch.setattr(sns, "NEWTON_MAX_ITER", 1)
        [out], _ = newton_trace_refine(b, [0.9])
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
        assert any(abs(r - lam_star) < 1e-3 for r in got[0] if isinstance(r, complex))

    def test_fixture_double_root_among_companion_starts(self):
        b = fixture_projected()
        coeffs = polynomialize(b)
        starts = [0.1, 0.3 - 0.2j] + [z for z in companion_eigs(coeffs) if abs(z) < 0.9]
        assert_same_outcomes(newton_trace_refine(b, starts), lone_outcomes(b, starts))

    def test_max_iter_exhaustion(self, monkeypatch):
        b = MatrixFunction.from_terms([
            (Polynomial([-2, 0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        starts = [100.0, 1.4, 1e6j, 1.0]
        monkeypatch.setattr(sns, "NEWTON_MAX_ITER", 3)
        got = newton_trace_refine(b, starts)
        assert_same_outcomes(got, lone_outcomes(b, starts, max_iter=3))
        assert [isinstance(r, NonConverged) for r in got[0]] == [True, False, True, True]

    def test_vanishing_trace(self):
        # det B = 1 - lam^2 is stationary at 0: trace(B^-1 B') = 1 - 1 = 0
        b = MatrixFunction.from_terms([
            (Polynomial([1, 1]), np.diag([1.0, 0.0]).astype(complex)),
            (Polynomial([1, -1]), np.diag([0.0, 1.0]).astype(complex)),
        ])
        starts = [0.5, 0.0, -0.5]
        got = newton_trace_refine(b, starts)
        assert_same_outcomes(got, lone_outcomes(b, starts))
        outcomes = got[0]
        assert isinstance(outcomes[1], NonConverged) and "vanishing trace" in str(outcomes[1])
        assert outcomes[0] == pytest.approx(1.0) and outcomes[2] == pytest.approx(-1.0)

    def test_only_the_start_on_a_pole_fails(self):
        b = fixture_projected()  # a rational term with its pole at 1
        starts = [0.1, 1.0, -0.3 + 0.1j, 0.6j]
        got = newton_trace_refine(b, starts)
        assert_same_outcomes(got, lone_outcomes(b, starts))
        assert [isinstance(r, PoleHit) for r in got[0]] == [False, True, False, False]

    def test_only_the_overflowing_starts_end(self):
        # B = e^(800 lam) - 2 overflows at lam = 1, and B' = 800 e^(800 lam)
        # alone at lam = 0.88; pytest turns a RuntimeWarning into an error
        b = MatrixFunction.from_terms([
            (Exponential(800.0), np.array([[1.0]], dtype=complex)),
            (Polynomial([-2.0]), np.array([[1.0]], dtype=complex)),
        ])
        starts = [0.0, 1.0, 0.88]
        got = newton_trace_refine(b, starts)
        assert_same_outcomes(got, lone_outcomes(b, starts))
        root, at_one, at_088 = got[0]
        assert root == pytest.approx(math.log(2.0) / 800.0, rel=1e-12)
        assert isinstance(at_one, NonConverged)
        assert str(at_one) == "B has NaN/Inf entries at (1+0j)"
        assert isinstance(at_088, NonConverged)
        assert str(at_088) == "B' has NaN/Inf entries at (0.88+0j)"

    def test_failed_residual_check_raises_at_its_step(self, monkeypatch):
        # a kernel fault: no later step runs, and no start's outcome is parked
        b, lam_star = planted_delay_projection()
        orders = []

        def counted_eval(fn, lams, order):
            orders.append(order)
            return eval_T_many(fn, lams, order)

        def failing_solve(m, rhs, s):
            # the first system of each stack fails the check, the others pass
            x, ok = solve_with_norm(m, rhs, s)
            ok[0] = False
            return x, ok

        monkeypatch.setattr(sns, "eval_T_many", counted_eval)
        monkeypatch.setattr(sns, "solve_with_norm", failing_solve)
        with pytest.raises(ConvergenceFailure, match="residual check"):
            newton_trace_refine(b, [lam_star + 0.3, lam_star - 0.3j])
        assert orders == [0, 1]

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


def graded(rng, m, svals):
    """A random m x m matrix U diag(svals) V^H."""
    u = np.linalg.qr(complex_randn(rng, m, m))[0]
    v = np.linalg.qr(complex_randn(rng, m, m))[0]
    return (u * np.asarray(svals)) @ v.conj().T


def screen_stacks():
    """Stacks of every kind the screen must handle: (name, stack)."""
    rng = np.random.default_rng(77)
    out = []
    for m in (1, 2, 3, 6, 8):
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            out.append((f"random m={m} x{scale:g}", complex_randn(rng, 40, m, m) * scale))
            # sigma from 1 down to 1e-12, and with sigma_min placed from 0.5 to
            # 50 times the stop test's threshold tol max(1, sigma_1)
            grades = [np.logspace(0, -k, m) for k in range(13)]
            grades += [np.r_[np.ones(m - 1), c * 1e-10 / scale * max(1.0, scale)]
                       for c in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, 50.0)]
            out.append((f"graded m={m} x{scale:g}",
                        np.stack([graded(rng, m, g) * scale for g in grades])))
        if m > 1:
            deficient = complex_randn(rng, 20, m, m - 1) @ complex_randn(rng, 20, m - 1, m)
            out.append((f"rank-deficient m={m}", deficient))
        out.append((f"zero m={m}", np.zeros((3, m, m), dtype=complex)))
    return out


class TestStopTestScreen:
    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-20])
    def test_screened_rows_fail_the_stop_and_singularity_tests(self, tol):
        screened = 0
        for name, stack in screen_stacks():
            far, fro = sns.screen_stop_test(stack, tol)
            s = singular_values(stack)
            assert np.array_equal(fro, np.linalg.norm(stack, axis=(1, 2))), name
            # failing the stop test, a row is not singular by the solve's
            # test either where tol >= 1e-14 (test_failing_rows_are_not_singular)
            for row in s[far]:
                assert row[-1] > tol * max(1.0, row[0]), name
            if name.startswith(("zero", "rank-deficient")):
                assert not far.any(), name
            screened += int(far.sum())
        # the screen is not vacuous: it rules out about half of these rows
        assert screened > 600

    def test_newton_tol_admits_the_singularity_argument(self):
        # newton_trace_refine's solve runs no singularity test: an iterate
        # that fails the stop test is not singular by solve_linear's test as
        # long as this holds
        assert sns.NEWTON_TOL >= 1e-14

    def test_failing_rows_are_not_singular(self):
        failing = 0
        for name, stack in screen_stacks():
            s = singular_values(stack)
            fails = s[:, -1] > sns.NEWTON_TOL * np.maximum(1.0, s[:, 0])
            assert (s[fails, -1] > 1e-14 * s[fails, 0]).all(), name
            failing += int(fails.sum())
        assert failing > 1000

    def test_one_by_one(self):
        far, fro = sns.screen_stop_test(
            np.array([[[2.0]], [[0.0]], [[3e-10]], [[1e-10]], [[-1j]]], dtype=complex), 1e-10)
        assert far.tolist() == [True, False, True, False, True]
        assert fro.tolist() == [2.0, 0.0, 3e-10, 1e-10, 1.0]

    def test_overflowing_frobenius_norm_is_not_screened(self):
        big = np.diag([1e300, 1e300]).astype(complex)[None]
        assert sns.screen_stop_test(big, 1e-10)[0].tolist() == [False]

    def test_subnormal_matrix_is_not_screened_and_does_not_warn(self):
        # the B that `nepritz example2 --sigma 5e-324` meets: slogdet's LU
        # divides by an underflowed pivot, which must only keep B exact
        b = np.array([[[0, 5e-324], [5e-324, 1e-323]]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far, _ = sns.screen_stop_test(b, 1e-10)
        assert far.tolist() == [False]

    def test_residual_check_failing_on_the_bound_is_rechecked_exactly(self, monkeypatch):
        # a residual check that fails whenever it is given less than ||B||_2
        # fails every screened iterate on ||B||_F / sqrt(m); the exact
        # recheck must then decide, so the outcome is still a lone run's
        b = MatrixFunction.from_terms([
            (Polynomial([1]), np.diag([1.0, 2.0, 3.0]).astype(complex)),
            (Polynomial([0, -1]), np.eye(3, dtype=complex)),
        ])
        exact = []

        def strict_solve(a, rhs, norm_a):
            x, ok = solve_with_norm(a, rhs, norm_a)
            exact.append(np.array_equal(norm_a, singular_values(a)[:, 0]))
            return x, ok & (norm_a >= singular_values(a)[:, 0])

        monkeypatch.setattr(sns, "solve_with_norm", strict_solve)
        starts = [0.5 + 0.5j, 2.4 - 0.3j]
        got = newton_trace_refine(b, starts)
        monkeypatch.undo()
        assert_same_outcomes(got, lone_outcomes(b, starts))
        assert exact[:2] == [False, True]

    def test_most_grid_iterates_skip_the_decomposition(self, monkeypatch):
        # the 88 grid starts of a delay projection take about 15 steps each;
        # fewer than half of their stop tests may reach singular_values
        b, lam_star = planted_delay_projection()
        rows = {"tests": 0, "decomposed": 0}
        screen = sns.screen_stop_test

        def counted_screen(bk, tol):
            rows["tests"] += len(bk)
            return screen(bk, tol)

        def counted_svals(m):
            rows["decomposed"] += len(m)
            return singular_values(m)

        monkeypatch.setattr(sns, "screen_stop_test", counted_screen)
        monkeypatch.setattr(sns, "singular_values", counted_svals)
        newton_trace_refine(b, sns._grid_seeds(lam_star, 1.0))
        assert rows["tests"] > 500
        assert rows["decomposed"] < rows["tests"] / 2


@st.composite
def delay_draws(draw):
    return dict(seed=draw(st.integers(0, 10**6)), eps=10.0 ** draw(st.floats(-8.0, -2.0)),
                m=draw(st.integers(1, 6)))


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(draw=delay_draws())
def test_screened_newton_equals_lone_runs_on_delay_grids(draw):
    b, lam_star = planted_delay_projection(**draw)
    seeds = sns._grid_seeds(lam_star, 1.0)
    assert_same_outcomes(newton_trace_refine(b, seeds), lone_outcomes(b, seeds))


@st.composite
def polynomial_draws(draw):
    n = draw(st.integers(3, 10))
    return dict(n=n, degree=draw(st.integers(1, 4)), seed=draw(st.integers(0, 10**6)),
                lambda_star=complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))),
                m=draw(st.integers(1, n - 1)), eps=10.0 ** draw(st.floats(-10.0, -1.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(draw=polynomial_draws())
def test_screened_newton_equals_lone_runs_on_companion_starts(draw):
    try:
        t, ref = random_planted_nep(draw["n"], draw["degree"], draw["seed"], draw["lambda_star"])
        s = build_subspace_eps(ref.x_star, draw["m"], draw["eps"], draw["seed"])
    except ConstructionFailed:
        assume(False)
    b = project(t, s)
    starts = companion_eigs(polynomialize(b))
    assert_same_outcomes(newton_trace_refine(b, starts), lone_outcomes(b, starts))


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
    def test_simple_roots_are_decomposed_once(self, monkeypatch):
        # a one-member cluster's mean is its root, so its acceptance test
        # reads the singular values of the Newton stop test that found it
        t, ref = random_planted_nep(6, 3, 202, -0.2 + 0.5j)
        b = project(t, build_subspace_eps(ref.x_star, 3, 1e-4, 202))
        rows = []

        def counted(m):
            rows.extend(np.asarray(m).reshape(-1, b.n, b.n))
            return singular_values(m)

        monkeypatch.setattr(sns, "singular_values", counted)
        spec = solve_projected(b, ref.lambda_star, 1.0)
        assert spec.method == "companion-polynomial" and len(spec.eigenvalues) > 1
        assert set(spec.multiplicities) == {1}
        for z, r in zip(spec.eigenvalues, spec.residuals):
            bz = eval_T_many(b, [z], 0)[0]
            assert sum(np.array_equal(row, bz) for row in rows) == 1
            assert r == singular_values(bz)[-1]

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

    @staticmethod
    def spectrum_fields(spec):
        return (spec.eigenvalues, spec.residuals, spec.multiplicities,
                spec.filtered_spurious, spec.method)

    def test_pole_on_the_rim_shrinks_the_disc(self):
        # the fixture's projection has its pole at 1: a rim within 1e-6 of it
        # shrinks by 0.97 to a radius off the pole, and a rim 2e-6 past it
        # stays, so the cleared polynomial's root at the pole is filtered
        b = fixture_projected()
        shrunk = self.spectrum_fields(solve_projected(b, 0.0, 0.97))
        for radius in (1.0, 1.0 + 5e-7, 1.0 - 1e-8):
            assert self.spectrum_fields(solve_projected(b, 0.0, radius)) == shrunk
        assert self.spectrum_fields(solve_projected(b, 0.0, 1.0 + 2e-6)) != shrunk

    def test_pole_on_every_shrunk_rim_raises(self):
        # a pole at the center is within 1e-6 of the rim of every disc of
        # radius below 1e-6, so 64 shrinks do not clear it
        b = MatrixFunction.from_terms([
            (Rational([1], [0, 1]), np.array([[1.0]], dtype=complex)),
        ])
        with pytest.raises(ValueError, match="after 64 shrinks"):
            solve_projected(b, 0.0, 5e-7)
        with pytest.raises(ValueError, match=r"^region_radius must be in \(0, inf\)"):
            solve_projected(b, 0.0, math.nan)

    @pytest.mark.parametrize("center,radius", [
        (0.0, math.nan), (0.0, math.inf), (complex(math.nan, 0.0), 1.0),
        (complex(0.0, math.inf), 1.0),
    ])
    @pytest.mark.parametrize("fn", [Polynomial([-0.5, 1]), Exponential(1.0)],
                             ids=["companion", "grid"])
    def test_non_finite_region_rejected(self, fn, center, radius):
        # a NaN region held no start and gave an empty spectrum, and an
        # infinite radius overflowed the grid of Newton starts
        b = MatrixFunction.from_terms([
            (fn, np.array([[1.0]], dtype=complex)),
            (Polynomial([-2.0]), np.array([[1.0]], dtype=complex)),
        ])
        name = "region_radius" if center == 0.0 else "region_center"
        with pytest.raises(ValueError, match=f"^{name} must be"):
            solve_projected(b, center, radius)

    def test_one_acceptance_stack_keeps_spurious_order(self, monkeypatch):
        # B = (lam - 0.5)/(lam - 0.2); the polished roots are planted: one on
        # the pole guard, a double one where sigma_min(B) = 2, a single one
        # where it is 0.2, and the true root, double
        b = MatrixFunction.from_terms([
            (Rational([-0.5, 1], [-0.2, 1]), np.array([[1.0]], dtype=complex)),
        ])
        planted = [0.5 + 0j, 0.5 + 0j, 0.3 + 0j, 0.3 + 0j, 0.2 + 1e-10 + 0j, 0.45 + 0j]
        monkeypatch.setattr(sns, "companion_eigs", lambda coeffs: list(planted))
        monkeypatch.setattr(sns, "newton_trace_refine", lambda b, starts: (
            list(starts), [singular_values(eval_T(b, z, 0)) for z in starts]))
        stacks = []

        def counted(fn, lams, order):
            stacks.append(list(np.asarray(lams, dtype=complex).reshape(-1)))
            return eval_T_many(fn, lams, order)

        monkeypatch.setattr(sns, "eval_T_many", counted)
        spec = solve_projected(b, 0.4, 0.3)
        # polynomialize's 20-point self-check, then one acceptance stack over
        # the off-pole means of the clusters of two, in ascending order; the
        # single root keeps the singular values of its stop test
        assert [len(s) for s in stacks] == [20, 2]
        assert stacks[1] == [0.3, 0.5]
        assert spec.eigenvalues == [0.5] and spec.residuals == [0.0]
        # the pole-guarded mean sorts first and is filtered first
        assert spec.filtered_spurious == [planted[4], 0.3, 0.45]


def np_mean_clusters(roots):
    """The clustering rule with np.mean of the whole cluster at every root."""
    clusters = []
    for z in roots:
        if clusters and abs(z - np.mean(clusters[-1])) <= sns.CLUSTER_RADIUS:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    return clusters


class TestClusters:
    def test_boundary_roots_match_np_mean_rule(self):
        # the means here are exact in both rules, so each root's distance is
        # the same float: a root at exactly the radius joins, one ulp past it
        # starts a new cluster
        r = sns.CLUSTER_RADIUS
        past = np.nextafter(r, 1.0)
        lists = [
            [],
            [0.5 + 0j],
            [0j, complex(r)],
            [0j, complex(past)],
            [0j, complex(0, r)],
            [-r + 0j, r + 0j, 3 * r + 0j],
            [0j, complex(r), complex(r + past)],
            [1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j, complex(1 + r)],
            [0.25 + 0j, 0.25 + 0j, complex(0.25, r), complex(0.25, past)],
        ]
        for roots in lists:
            got = sns._clusters(roots)
            assert got == np_mean_clusters(roots), roots
        assert [len(c) for c in sns._clusters([0j, complex(r)])] == [2]
        assert [len(c) for c in sns._clusters([0j, complex(past)])] == [1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_clusters_match_np_mean_rule(self, seed):
        # up to 40 roots each, spread 1e-10 about centers 1e-6 and more apart
        rng = np.random.default_rng(seed)
        roots = []
        for center in rng.uniform(-1, 1, 12) * 1e-3 + 1j * rng.uniform(-1, 1, 12):
            k = int(rng.integers(1, 41))
            roots.extend(complex(center + 1e-10 * z) for z in complex_randn(rng, k))
        roots.sort(key=lambda z: (z.real, z.imag))
        got = sns._clusters(roots)
        assert got == np_mean_clusters(roots)
        assert sum(map(len, got)) == len(roots)


class TestSelectRitzValue:
    def test_oracle_picks_nearest(self):
        spec = solve_projected(fixture_problem()[0], -0.5, 1.0)
        assert select_ritz_value(spec, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert select_ritz_value(spec, -0.9) == pytest.approx(-1.0, abs=1e-9)

    def test_perturbed_fixture_picks_smallest(self):
        t, _, w = fixture_problem()
        s = perturb_subspace(Subspace.from_basis(w), 1e-4, seed=12)
        spec = solve_projected(project(t, s), 0.0, 1e6)
        mu = select_ritz_value(spec, 0.0)
        assert abs(mu) == pytest.approx(min(abs(z) for z in spec.eigenvalues))

    def test_tie_break_by_argument(self):
        from nepritz.small_nep_solver import SpectrumResult

        spec = SpectrumResult(
            eigenvalues=[1 + 1j, 1 - 1j], residuals=[0.0, 0.0],
            multiplicities=[1, 1], method="companion-polynomial",
        )
        assert select_ritz_value(spec, 1.0) == 1 - 1j

    def test_empty_raises(self):
        from nepritz.small_nep_solver import SpectrumResult

        spec = SpectrumResult(eigenvalues=[], residuals=[], multiplicities=[],
                              method="companion-polynomial")
        with pytest.raises(EmptySpectrum):
            select_ritz_value(spec, 0.0)

    @pytest.mark.parametrize("point", [complex("nan"), complex("inf"), complex(0.0, -math.inf),
                                       complex(1.0, math.nan)])
    def test_non_finite_point_raises(self, point):
        # min over NaN distances returned the first eigenvalue, whatever it was
        from nepritz.small_nep_solver import SpectrumResult

        spec = SpectrumResult(eigenvalues=[2.0, 0.0], residuals=[0.0, 0.0],
                              multiplicities=[1, 1], method="companion-polynomial")
        with pytest.raises(ValueError, match="finite"):
            select_ritz_value(spec, point)


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
