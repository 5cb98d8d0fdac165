import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import complex_randn, qr_complement, quotient_rule_derivative
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import nepritz.dense_kernels as dense_kernels
import nepritz.nep_model as nep_model
from nepritz.bounds_lab import remainder_radius
from nepritz.dense_kernels import complement_compress, norm2
from nepritz.errors import ConstructionFailed, PoleHit
from nepritz.experiments import (
    analyze_case,
    build_subspace_eps,
    builtin_suite,
    fixture_problem,
    random_planted_nep,
)
from nepritz.nep_model import (
    PHI2_SERIES_RADIUS,
    Exponential,
    MatrixFunction,
    Polynomial,
    Rational,
    ReferencePair,
    eval_T,
    eval_T_many,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    taylor_remainder_const,
)


def value(fn, lam, order=0):
    """A scalar term's derivative of the given order at one point."""
    return complex(fn.eval_many(np.array([lam], dtype=complex), order)[0])


class TestScalarFns:
    def test_polynomial_value(self):
        assert value(Polynomial([0, 0, 1]), 2.0, 0) == pytest.approx(4.0)

    def test_polynomial_derivatives(self):
        f = Polynomial([1, 2, 3])  # 1 + 2x + 3x^2
        assert value(f, 2.0, 1) == pytest.approx(14.0)
        assert value(f, 2.0, 2) == pytest.approx(6.0)
        assert value(f, 2.0, 3) == 0.0

    def test_rational_value_at_zero(self):
        f = Rational([0, 1], [-1, 1])  # lam / (lam - 1)
        assert value(f, 0.0, 0) == pytest.approx(0.0)

    def test_rational_derivative_matches_quotient_rule(self):
        p = np.array([0, 1], dtype=complex)
        q = np.array([-1, 1], dtype=complex)
        f = Rational(p, q)
        got = value(f, 0.0, 1)
        want = quotient_rule_derivative(p, q, 0.0)
        assert got == pytest.approx(want)
        assert got == pytest.approx(-1.0)

    def test_rational_higher_orders(self):
        # f = 1/(1 - x): f^(k)(0) = k!
        f = Rational([1], [1, -1])
        for k in range(6):
            assert value(f, 0.0, k) == pytest.approx(float(math.factorial(k)))

    def test_rational_pole_hit(self):
        f = Rational([0, 1], [-1, 1])
        with pytest.raises(PoleHit):
            value(f, 1.0, 0)

    def test_exponential_derivatives(self):
        f = Exponential(2.0 + 1.0j)
        lam = 0.3 - 0.2j
        for k in range(4):
            want = (2.0 + 1.0j) ** k * np.exp((2.0 + 1.0j) * lam)
            assert value(f, lam, k) == pytest.approx(want)

    def test_order_guard(self):
        t = MatrixFunction.from_terms([(Polynomial([1]), np.eye(2))])
        with pytest.raises(ValueError):
            eval_T(t, 0.0, nep_model.MAX_DERIV_ORDER + 1)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            Polynomial(np.ones(34))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            Rational([1], [0])


class TestEvalT:
    def test_fixture_value_at_zero(self):
        t, _, _ = fixture_problem()
        want = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
        assert np.allclose(eval_T(t, 0.0, 0), want, atol=1e-14)

    def test_fixture_derivative_at_zero(self):
        # term-wise: d/dl (l) = 1, d/dl(l^2) = 0 at 0, d/dl(l/(l-1)) = -1 at 0
        t, _, _ = fixture_problem()
        want = np.diag([1.0, 1.0, -1.0]).astype(complex)
        assert np.allclose(eval_T(t, 0.0, 1), want, atol=1e-14)

    def test_linear_problem_derivative(self):
        rng = np.random.default_rng(0)
        a = complex_randn(rng, 4, 4)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), a),
            (Polynomial([0, 1]), -np.eye(4, dtype=complex)),
        ])
        assert np.allclose(eval_T(t, 0.7 + 0.1j, 1), -np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("fn", [
        Polynomial([1.0, -2.0, 0.5, 1.0j]),
        Rational([1.0, 1.0j], [2.0, 0.0, 1.0]),
        Exponential(0.7 - 0.3j),
    ])
    def test_scalar_derivative_matches_central_difference(self, fn):
        rng = np.random.default_rng(hash(type(fn).__name__) % 2**32)
        for _ in range(5):
            lam = complex(*rng.uniform(-0.5, 0.5, 2))
            h = 1e-5
            fd = (value(fn, lam + h, 0) - value(fn, lam - h, 0)) / (2 * h)
            assert abs(fd - value(fn, lam, 1)) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_derivative_consistency_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        t = MatrixFunction.from_terms([
            (Polynomial(complex_randn(rng, 3)), complex_randn(rng, 3, 3)),
            (Rational(complex_randn(rng, 2), np.array([2.0, 0, 1.0])), complex_randn(rng, 3, 3)),
            (Exponential(0.5j), complex_randn(rng, 3, 3)),
        ])
        lam = complex(*rng.uniform(-0.5, 0.5, 2))
        h = 1e-5
        fd = (eval_T(t, lam + h, 0) - eval_T(t, lam - h, 0)) / (2 * h)
        assert np.max(np.abs(fd - eval_T(t, lam, 1))) < 1e-6

    def test_linearity_in_terms(self):
        rng = np.random.default_rng(9)
        t1 = MatrixFunction.from_terms([(Polynomial(complex_randn(rng, 3)),
                                         complex_randn(rng, 2, 2))])
        t2 = MatrixFunction.from_terms([(Exponential(1.0), complex_randn(rng, 2, 2))])
        lam = 0.3 + 0.4j
        both = MatrixFunction.from_terms(list(t1.terms) + list(t2.terms))
        assert np.max(np.abs(eval_T(both, lam, 0)
                             - (eval_T(t1, lam, 0) + eval_T(t2, lam, 0)))) < 1e-14

    def test_domain_poles_collected(self):
        t, _, _ = fixture_problem()
        assert len(t.domain_poles) == 1
        assert abs(t.domain_poles[0] - 1.0) < 1e-12


class TestEvalTMany:
    # scalar products with rounding that numpy's vectorized complex multiply
    # may fuse: complex coefficients, degrees up to 5, a complex exponential
    # scale and a rational term
    @staticmethod
    def problem(seed):
        rng = np.random.default_rng(seed)
        fns = [Polynomial(complex_randn(rng, 6)), Polynomial([0, 0, 1]),
               Rational(complex_randn(rng, 2), np.array([2.0, 0, 1.0])),
               Exponential(-0.8 + 0.3j), Exponential(-1.0)]
        return MatrixFunction.from_terms([(f, complex_randn(rng, 4, 4)) for f in fns])

    @pytest.mark.parametrize("order", [0, 1, 2, 5])
    def test_slices_bit_equal_single_points(self, order):
        t = self.problem(order)
        rng = np.random.default_rng(100 + order)
        lams = complex_randn(rng, 40) * 2.0
        stack = eval_T_many(t, lams, order)
        assert stack.shape == (40, 4, 4)
        for lam, got in zip(lams, stack):
            assert got.tobytes() == eval_T(t, lam, order).tobytes()

    @pytest.mark.parametrize("fn", [
        Polynomial([0.3 - 1.0j, 1.0, -0.7 + 0.2j]),
        Rational([1.0, 1.0j], [2.0, 0.0, 1.0]),
        Exponential(-0.8 + 0.3j),
    ])
    def test_one_by_one_slices_do_not_depend_on_the_stack(self, fn):
        # numpy's broadcast product f(lam) A can round a one-point stack of
        # 1 x 1 matrices differently from the same point in a larger stack
        rng = np.random.default_rng(3)
        for _ in range(40):
            t = MatrixFunction.from_terms([(fn, complex_randn(rng, 1, 1))])
            lams = complex_randn(rng, 5)
            for order in (0, 1):
                for k in (1, 2, 5):
                    stack = eval_T_many(t, lams[:k], order)
                    for j, lam in enumerate(lams[:k]):
                        one = eval_T_many(t, [lam], order)[0]
                        assert one.tobytes() == stack[j].tobytes()
                        assert one.tobytes() == eval_T(t, lam, order).tobytes()

    def test_term_values_equal_scalar_oracles(self):
        rng = np.random.default_rng(7)
        fns = [fn for fn, _ in self.problem(7).terms]
        fns += [Rational(complex_randn(rng, 4), complex_randn(rng, 3)),
                Rational([1.0], [-2.0, 1.0]), Rational(complex_randn(rng, 2), [0.5j, 0, 0, 1])]
        for fn in fns:
            # and near each pole but off it: |q| down to about 1e-12 |q'|
            lams = np.concatenate([complex_randn(rng, 40) * 3.0] + [
                pole + 10.0 ** -rng.uniform(2, 12, 10) * np.exp(2j * np.pi * rng.random(10))
                for pole in fn.poles()])
            for order in range(nep_model.MAX_DERIV_ORDER + 1):
                want = np.array([scalar_oracle(fn, lam, order) for lam in lams.tolist()])
                # + 0 maps -0.0 to 0.0: past a polynomial's degree the derivative is
                # an exact zero that _nth_der and npoly.polyder sign differently,
                # and eval_T's sum drops the sign
                assert (fn.eval_many(lams, order) + 0).tobytes() == (want + 0).tobytes()
                assert value(fn, lams[0], order) == want[0]

    def test_pole_in_stack_raises(self):
        t, _, _ = fixture_problem()
        with pytest.raises(PoleHit):
            eval_T_many(t, [0.0, 1.0, 0.5j], 0)
        # poles at 1 and -2: the error names the first point on one
        f = Rational([1.0], [-2.0, 1.0, 1.0])
        for order in (0, 2):
            with pytest.raises(PoleHit, match=r"lambda = \(-2\+0j\)"):
                f.eval_many(np.array([0.5, -2.0, 0.1j, 1.0]), order)

    def test_order_out_of_range(self):
        t, _, _ = fixture_problem()
        with pytest.raises(ValueError):
            eval_T_many(t, [0.0], nep_model.MAX_DERIV_ORDER + 1)

    @pytest.mark.parametrize("order", [True, False, 1.5, 1.0, -1, "1", None])
    def test_order_must_be_an_integer(self, order):
        # True used to give T' and, on an exponential term, 1.5 gave a^1.5 e^(a lam)
        t = MatrixFunction.from_terms([(Exponential(-1.0), np.eye(2, dtype=complex))])
        for f in (lambda: eval_T(t, 0.2, order), lambda: eval_T_many(t, [0.2], order)):
            with pytest.raises(ValueError, match="order"):
                f()

    def test_numpy_integer_order_accepted(self):
        t, _, _ = fixture_problem()
        assert eval_T(t, 0.2, np.int64(1)).tobytes() == eval_T(t, 0.2, 1).tobytes()


def horner(c, lam):
    """sum_k c_k lam^k by Horner's rule in Python complex arithmetic."""
    acc = complex(c[-1])
    for ck in c[-2::-1].tolist():
        acc = ck + acc * lam
    return acc


def scalar_oracle(fn, lam, order):
    """A term's derivative at one point, in Python complex arithmetic."""
    if isinstance(fn, Polynomial):
        return horner(npoly.polyder(fn.coefficients, order), lam)
    if isinstance(fn, Exponential):
        return fn.scale ** order * complex(np.exp(fn.scale * lam))
    # a Rational: the Leibniz recurrence
    pd = [horner(npoly.polyder(fn.numerator, j), lam) for j in range(order + 1)]
    qd = [horner(npoly.polyder(fn.denominator, j), lam) for j in range(order + 1)]
    f = [pd[0] / qd[0]]
    for k in range(1, order + 1):
        acc = pd[k]
        for j in range(k):
            acc -= math.comb(k, j) * f[j] * qd[k - j]
        f.append(acc / qd[0])
    return f[order]


class TestComplexDivision:
    @staticmethod
    def python_quotients(a, b):
        return np.array([x / y for x, y in zip(a.tolist(), b.tolist())], dtype=complex)

    def test_bit_equal_python_quotient(self):
        rng = np.random.default_rng(11)
        k = 20000
        a, b = (rng.standard_normal((k, 2)) * 10.0 ** rng.uniform(-20, 20, (k, 2))
                for _ in range(2))
        for x in (a, b):
            # signed zeros in either part
            x[rng.random((k, 2)) < 0.1] *= 0.0
        # |re| = |im| ties, in every sign combination
        tie = rng.random(k) < 0.1
        b[tie, 1] = b[tie, 0] * rng.choice([-1.0, 1.0], tie.sum())
        a, b = a.view(complex).ravel(), b.view(complex).ravel()
        b[b == 0] = 1.0
        by_real = np.abs(b.real) >= np.abs(b.imag)
        assert 1000 < by_real.sum() < k - 1000  # both of Smith's branches
        assert np.any(tie & (b.real != 0))
        got = nep_model._cdiv(a, b)
        assert got.tobytes() == self.python_quotients(a, b).tobytes()

    def test_zero_parts_and_overflow_raise_no_warning(self):
        # a zero part of b is where the other branch's ratio would divide
        # by zero; an overflowing quotient is inf, silently, as in Python
        a = np.array([1 + 2j, -3 + 0j, 1e300 + 1e300j, complex(-0.0, 5)])
        b = np.array([complex(0.0, -2), complex(-0.0, 4), 1e-300 + 0j, complex(7, -0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nep_model._cdiv(a, b)
        assert got.tobytes() == self.python_quotients(a, b).tobytes()
        assert np.isinf(got[2].real)


class TestNthDerivative:
    def test_bit_equal_repeated_polyder(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            c = complex_randn(rng, int(rng.integers(1, 34)))
            c *= 10.0 ** rng.uniform(-8, 8, size=c.size)
            # signed zeros in either part
            c[rng.random(c.size) < 0.2] *= 0.0
            c[rng.random(c.size) < 0.2] *= -1.0
            want = c
            for order in range(nep_model.MAX_DERIV_ORDER + 1):
                got = nep_model._nth_der(c, order)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                want = npoly.polyder(want)


class TestTaylorRemainder:
    def test_linear_function_has_zero_remainder(self):
        rng = np.random.default_rng(1)
        a = complex_randn(rng, 3, 3)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), a),
            (Polynomial([0, 1]), -np.eye(3, dtype=complex)),
        ])
        assert taylor_remainder_const(t, 0.2, 0.5) == (pytest.approx(0.0, abs=1e-13),)

    @pytest.mark.parametrize("radius", [1e-3, 1e-7])
    def test_linear_function_is_exactly_zero(self, radius):
        # the matrix difference T(lam) - T(l*) - T'(l*) h read about
        # u ||T|| / radius^2 here: 3.6e-9 at 1e-3 and 0.36 at 1e-7
        rng = np.random.default_rng(1)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 3, 3)),
            (Polynomial([0.5, 2.0 - 1.0j]), complex_randn(rng, 3, 3)),
        ])
        assert taylor_remainder_const(t, 0.2 + 0.3j, radius) == (0.0,)

    @pytest.mark.parametrize("radius", [1e-9, 1e-3, 0.3, 10.0])
    def test_quadratic_is_exactly_scaled_leading_norm(self, radius):
        rng = np.random.default_rng(2)
        a2 = complex_randn(rng, 4, 4)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 4, 4)),
            (Polynomial([0, 1]), complex_randn(rng, 4, 4)),
            (Polynomial([0, 0, 1]), a2),
        ])
        assert taylor_remainder_const(t, -0.4 + 0.7j, radius) == (1.5 * norm2(a2),)

    def test_matches_matrix_difference_loop(self):
        # reference: 1.5 max ||T(lam) - T(l*) - T'(l*) h|| / |h|^2 over the
        # same 3 x 16 samples, one full matrix and one 2-norm per sample; at
        # this radius its cancellation error is far below the tolerance
        rng = np.random.default_rng(3)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 3, 3)),
            (Polynomial([0, 0, 1]), complex_randn(rng, 3, 3)),
            (Polynomial([0, 0, 0, 1]), complex_randn(rng, 3, 3)),
            (Rational([1.0], [-1.5, 1.0]), complex_randn(rng, 3, 3)),
            (Exponential(-0.8 + 0.3j), complex_randn(rng, 3, 3)),
        ])
        lam, radius = 0.1 - 0.2j, 0.4
        t0, t1 = eval_T(t, lam, 0), eval_T(t, lam, 1)
        worst = 0.0
        for r in (radius / 4, radius / 2, radius):
            for k in range(16):
                h = r * np.exp(2j * np.pi * k / 16)
                rem = eval_T(t, lam + h, 0) - t0 - t1 * h
                worst = max(worst, norm2(rem) / abs(h) ** 2)
        assert taylor_remainder_const(t, lam, radius) == (pytest.approx(1.5 * worst, rel=1e-12),)

    @staticmethod
    def count_norms(monkeypatch):
        # rows of each norm2 call of the pass; any SVD or sort fails the test
        rows = []

        def counted_norm2(m):
            rows.append(1 if np.ndim(m) == 2 else len(m))
            return norm2(m)

        def forbidden(*args, **kwargs):
            raise AssertionError("the remainder pass decomposed or sorted")

        monkeypatch.setattr(nep_model, "norm2", counted_norm2)
        monkeypatch.setattr(dense_kernels, "singular_values", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(np, "unique", forbidden)
        return rows

    @pytest.mark.parametrize("nonlinear", [
        Polynomial([0.3, -1.0, 0.5j]),
        Exponential(-1.0),
        Rational([1.0], [-2.0, 1.0]),
    ])
    def test_one_nonlinear_term_costs_one_norm(self, monkeypatch, nonlinear):
        # affine terms drop out and every sample shares the direction (1):
        # t's norm is its coefficient's, from the one batched norm2 over all
        # three coefficients that t makes on first use, and the map costs one
        # norm per call
        rng = np.random.default_rng(4)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 5, 5)),
            (Polynomial([0, 1]), complex_randn(rng, 5, 5)),
            (nonlinear, complex_randn(rng, 5, 5)),
        ])
        evals = []

        def counted_eval(*args):
            evals.append(args)
            return eval_T(*args)

        monkeypatch.setattr(nep_model, "eval_T", counted_eval)
        norms = self.count_norms(monkeypatch)
        gamma, block = taylor_remainder_const(t, 0.3 + 0.1j, 0.2, lambda d: d[:, :3, :3])
        assert gamma > 0 and block > 0
        assert norms == [3, 1] and evals == []
        assert taylor_remainder_const(t, -0.1j, 0.1, lambda d: d[:, :3, :3])[0] > 0
        assert norms == [3, 1, 1] and evals == []

    def test_two_nonlinear_terms_cost_one_norm_per_live_sample(self, monkeypatch):
        # each sample has its own direction: one matrix and one norm per
        # sample and function, with no sort to find equal directions
        rng = np.random.default_rng(5)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 5, 5)),
            (Polynomial([0, 0, 1]), complex_randn(rng, 5, 5)),
            (Exponential(-1.0), complex_randn(rng, 5, 5)),
        ])
        w, _ = np.linalg.qr(complex_randn(rng, 5, 2))
        norms = self.count_norms(monkeypatch)
        gamma, gamma_b = taylor_remainder_const(t, 0.3 + 0.1j, 0.2,
                                                lambda d: w.conj().T @ d @ w)
        assert gamma > 0 and gamma_b > 0
        assert norms == [3 * nep_model.REMAINDER_SAMPLES] * 2

    def test_pure_quadratic(self):
        t = MatrixFunction.from_terms([(Polynomial([0, 0, 1]), np.eye(2, dtype=complex))])
        # remainder is exactly lam^2 I, so the ratio is 1 and the factor 1.5 shows
        assert taylor_remainder_const(t, 0.0, 0.3) == (pytest.approx(1.5),)

    def test_fixture_gamma_bounds_fresh_samples(self):
        t, _, _ = fixture_problem()
        (gamma,) = taylor_remainder_const(t, 0.0, 0.1)
        assert gamma > 0
        t0 = eval_T(t, 0.0, 0)
        t1 = eval_T(t, 0.0, 1)
        rng = np.random.default_rng(77)
        for _ in range(100):
            lam = complex(*rng.uniform(-0.07, 0.07, 2))
            if abs(lam) < 1e-3:
                continue
            rem = eval_T(t, lam, 0) - t0 - t1 * lam
            assert np.linalg.norm(rem, 2) <= gamma * abs(lam) ** 2 * (1 + 1e-9)

    def test_pole_inside_disc_rejected(self):
        t, _, _ = fixture_problem()
        with pytest.raises(PoleHit):
            taylor_remainder_const(t, 0.0, 1.5)

    @pytest.mark.parametrize("lam", [complex(math.nan, 0), complex(0.3, math.inf), math.nan])
    def test_non_finite_lambda_star_rejected(self, lam):
        # a NaN lambda_star used to give a finite constant (1.81 here)
        t, _ = random_planted_nep(4, 2, 1, 0.3 + 0.2j)
        with pytest.raises(ValueError, match="lambda_star"):
            taylor_remainder_const(t, lam, 0.1)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1e-3])
    def test_radius_outside_positive_reals_rejected(self, radius):
        # a NaN radius used to give (nan,)
        t, _ = random_planted_nep(4, 2, 1, 0.3 + 0.2j)
        with pytest.raises(ValueError, match="radius"):
            taylor_remainder_const(t, 0.3 + 0.2j, radius)

    @pytest.mark.parametrize("mu", [complex(math.nan, 0), complex(0.3, -math.inf)])
    def test_remainder_radius_rejects_non_finite_mu(self, mu):
        t, ref = random_planted_nep(4, 2, 1, 0.3 + 0.2j)
        with pytest.raises(ValueError, match="mu"):
            remainder_radius(t, ref.lambda_star, mu)


def build(how, terms):
    """A MatrixFunction of terms, by the constructor, from_terms, or replace on another."""
    if how == "constructor":
        return MatrixFunction(terms)
    if how == "from_terms":
        return MatrixFunction.from_terms(terms)
    pole_free = MatrixFunction.from_terms([(Polynomial([1.0]), np.eye(2))])
    return dataclasses.replace(pole_free, terms=terms)


class TestCoefficientNorms:
    @staticmethod
    def planted(n=6, seed=3):
        return random_planted_nep(n, 2, seed, 0.3 + 0.2j, rational_pole=2.0)[0]

    def test_each_norm_is_its_coefficients_bit_for_bit_at_n128(self):
        t = self.planted(128)
        got = t.coefficient_norms
        assert got.shape == (len(t.terms),)
        assert [g.hex() for g in got] == [norm2(a).hex() for _, a in t.terms]

    def test_measured_once_per_problem(self, monkeypatch):
        # one nonlinear term, so gamma reads t's norms; each case adds one
        # norm2 per map (beta's and gamma_B's) and measures nothing of t again
        t, ref = random_planted_nep(6, 2, 3, 0.3 + 0.2j)
        shapes = []

        def counted_norm2(m):
            shapes.append(np.shape(m))
            return norm2(m)

        monkeypatch.setattr(nep_model, "norm2", counted_norm2)
        assert "coefficient_norms" not in vars(t)  # construction measured nothing
        for eps, seed in [(1e-3, 1), (1e-5, 2), (1e-3, 1)]:
            analyze_case(t, ref, build_subspace_eps(ref.x_star, 3, eps, seed))
        assert shapes.count((3, 6, 6)) == 1 and len(shapes) == 1 + 3 * 2
        assert "coefficient_norms" in vars(t)

    def test_compressed_function_measures_its_own(self):
        t = self.planted()
        t.coefficient_norms  # cached before B is formed
        w, _ = np.linalg.qr(complex_randn(np.random.default_rng(8), 6, 2))
        b = t.compress(w)
        want = [norm2(w.conj().T @ a @ w) for _, a in t.terms]
        assert [g.hex() for g in b.coefficient_norms] == [x.hex() for x in want]
        assert np.all(b.coefficient_norms < t.coefficient_norms)

    def test_replace_gives_fresh_norms(self):
        t = self.planted()
        t.coefficient_norms  # cached before the replacement
        doubled = dataclasses.replace(t, terms=tuple((fn, 2.0 * a) for fn, a in t.terms))
        assert [g.hex() for g in doubled.coefficient_norms] == \
            [(2.0 * g).hex() for g in t.coefficient_norms]

    def test_stored_coefficients_and_norms_are_read_only(self):
        t = self.planted()
        b = t.compress(np.eye(6, 2, dtype=complex))
        for f in (t, b):
            for _, a in f.terms:
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                f.coefficient_norms[0] = 1.0

    @pytest.mark.parametrize("how", ["constructor", "from_terms", "replace"])
    def test_every_build_copies_the_callers_arrays(self, how):
        a = np.eye(3, dtype=complex)
        t = build(how, ((Polynomial([0, 0, 1]), a),))
        assert t.coefficient_norms.tolist() == [1.0]
        a *= 3.0
        assert a.flags.writeable
        assert norm2(t.terms[0][1]) == t.coefficient_norms[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            t.terms[0][1][0, 0] = 3.0


class TestConstruction:
    """Every way of building a MatrixFunction checks its terms and derives n and the poles."""

    @pytest.mark.parametrize("how", ["constructor", "replace"])
    def test_poles_and_n_derived_from_the_terms(self, how):
        # a pole at 0.5 caps the remainder disc about 0 at 0.45 * 0.5, not 2 |mu|
        t = build(how, ((Rational([1.0], [-0.5, 1.0]), np.eye(3)),))
        assert t.n == 3 and t.domain_poles == (0.5,)
        assert remainder_radius(t, 0.0, 0.3) == 0.225

    @pytest.mark.parametrize("how", ["constructor", "from_terms", "replace"])
    def test_no_terms_rejected(self, how):
        with pytest.raises(ValueError, match="needs at least one term"):
            build(how, iter(()))

    @pytest.mark.parametrize("how", ["constructor", "replace"])
    def test_non_term_function_rejected(self, how):
        with pytest.raises(TypeError, match="term 1 has an unknown scalar function"):
            build(how, ((Polynomial([1.0]), np.eye(2)), (object(), np.eye(2))))

    @pytest.mark.parametrize("how", ["constructor", "replace"])
    @pytest.mark.parametrize("second", [np.eye(3), np.ones((2, 3))])
    def test_coefficients_must_be_n_by_n(self, how, second):
        with pytest.raises(ValueError, match=r"coefficient 1 has shape \(\d, 3\), not n x n"):
            build(how, ((Polynomial([1.0]), np.eye(2)), (Polynomial([0, 1]), second)))

    def test_rational_roots_found_once(self, monkeypatch):
        t = TestCoefficientNorms.planted()
        calls = []
        real = npoly.polyroots
        monkeypatch.setattr(npoly, "polyroots", lambda c: calls.append(c) or real(c))
        b = t.compress(np.eye(6, 2, dtype=complex))
        again = MatrixFunction.from_terms(t.terms)
        assert calls == []
        assert b.domain_poles == again.domain_poles == t.domain_poles != ()


def per_function_remainder(t, lambda_star, radius):
    """The remainder loop of one function at a time, circle by circle.

    A copy of the single-function estimate that preceded the shared pass:
    one batched singular-value call per circle over the directions that
    circle adds.  The shared pass must reproduce it bit for bit on t itself.
    """
    lambda_star = complex(lambda_star)
    for pole in t.domain_poles:
        if abs(pole - lambda_star) <= radius * (1 + 1e-12):
            raise PoleHit(f"pole {pole} inside sampling disc of radius {radius}")
    unit = np.exp(2j * np.pi * np.arange(16) / 16)
    h = np.concatenate([r * unit for r in (radius / 4.0, radius / 2.0, radius)])
    rho = np.column_stack([fn.remainder(lambda_star, h) for fn, _ in t.terms])
    kept = np.flatnonzero(np.any(rho != 0, axis=0))
    if kept.size == 0:
        return 0.0
    rho = rho[:, kept]
    coeffs = np.stack([t.terms[i][1] for i in kept])
    rows, big = np.arange(h.size), np.argmax(np.abs(rho), axis=1)
    piv = rho[rows, big]
    dirs = rho / np.where(piv == 0, 1.0, piv)[:, None]
    dirs[rows, big] = 1.0
    keys = [d.tobytes() for d in dirs]
    norms = {}
    for circle in np.split(rows, 3):
        fresh = {keys[k]: dirs[k] for k in circle if piv[k] != 0 and keys[k] not in norms}
        if fresh:
            stack = np.tensordot(np.array(list(fresh.values())), coeffs, axes=1)
            norms.update(zip(fresh, norm2(stack).tolist()))
    worst = max((abs(piv[k]) * norms[keys[k]] for k in rows if piv[k] != 0), default=0.0)
    return 1.5 * worst


def assert_shared_pass_matches_loop(t, x_star, basis, lam, radius):
    # beta and gamma_B map t's directions through the reflector block and
    # W^H . W; the loop sums terms compressed with an explicit QR basis of
    # x's complement and with W, so the two agree to rounding only
    got = taylor_remainder_const(t, lam, radius,
                                 lambda d: complement_compress(x_star, d),
                                 lambda d: basis.conj().T @ d @ basis)
    want = [per_function_remainder(f, lam, radius)
            for f in (t, t.compress(qr_complement(x_star)), t.compress(basis))]
    assert got[0].hex() == want[0].hex()
    for g, w in zip(got[1:], want[1:]):
        assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0), (g, w)


def assert_remainder_scales_with_t(t, x_star, basis, lam, radius):
    # gamma, beta and gamma_B of 2^k T are 2^k times those of T, bit for bit:
    # the pass is linear in the coefficients and norm2 scales exactly
    maps = (lambda d: complement_compress(x_star, d), lambda d: basis.conj().T @ d @ basis)
    base = taylor_remainder_const(t, lam, radius, *maps)
    for k in (-40, 40):
        scaled = MatrixFunction.from_terms([(fn, 2.0 ** k * a) for fn, a in t.terms])
        got = taylor_remainder_const(scaled, lam, radius, *maps)
        assert [g.hex() for g in got] == [(2.0 ** k * c).hex() for c in base], k


def suite_remainder_cases():
    for inst in builtin_suite():
        lam = inst.ref.lambda_star
        for radius in (1e-3, remainder_radius(inst.t, lam, lam + 0.05)):
            yield pytest.param(inst, radius, id=f"{inst.instance_id}-r{radius:.3g}")


class TestSharedRemainderPass:
    @pytest.mark.parametrize("inst,radius", suite_remainder_cases())
    def test_suite_matches_per_function_loop(self, inst, radius):
        assert_shared_pass_matches_loop(inst.t, inst.ref.x_star, inst.subspace.basis,
                                        inst.ref.lambda_star, radius)

    @pytest.mark.parametrize("radius", [1e-3, 0.3, 2.0])
    def test_delay_problem_matches_per_function_loop(self, radius):
        # exponential phi_2 on both sides of its series switch at radius 2
        rng = np.random.default_rng(11)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 8, 8)),
            (Polynomial([0, 1]), complex_randn(rng, 8, 8)),
            (Exponential(-1.0), complex_randn(rng, 8, 8)),
        ])
        x = complex_randn(rng, 8)
        w, _ = np.linalg.qr(complex_randn(rng, 8, 3))
        assert_shared_pass_matches_loop(t, x / np.linalg.norm(x), w, 0.2 + 0.1j, radius)

    @pytest.mark.parametrize("radius", [1e-3, 0.4])
    def test_rational_problem_with_pole_matches_per_function_loop(self, radius):
        rng = np.random.default_rng(12)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 5, 5)),
            (Polynomial([0, 0, 1]), complex_randn(rng, 5, 5)),
            (Polynomial([0, 0, 0, 1]), complex_randn(rng, 5, 5)),
            (Rational([1.0, 0.5j], [-1.0, 1.0]), complex_randn(rng, 5, 5)),
        ])
        x = complex_randn(rng, 5)
        w, _ = np.linalg.qr(complex_randn(rng, 5, 2))
        assert_shared_pass_matches_loop(t, x / np.linalg.norm(x), w, 0.3j, radius)
        # the pole at 1 is inside every disc from radius |1 - 0.3i| on
        with pytest.raises(PoleHit):
            taylor_remainder_const(t, 0.3j, 1.1, lambda d: w.conj().T @ d @ w)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(n=st.integers(3, 10), degree=st.integers(1, 4), seed=st.integers(0, 10**6),
           pole=st.booleans(), m=st.integers(1, 3))
    def test_planted_problems_match_per_function_loop(self, n, degree, seed, pole, m):
        lam = 0.2 + 0.1j
        try:
            t, ref = random_planted_nep(n, degree, seed, lam,
                                        rational_pole=1.1 - 0.4j if pole else None)
        except ConstructionFailed:
            assume(False)
        w, _ = np.linalg.qr(complex_randn(np.random.default_rng(seed), n, m))
        assert_shared_pass_matches_loop(t, ref.x_star, w, lam,
                                        remainder_radius(t, lam, lam + 0.05))

    @pytest.mark.parametrize("inst", builtin_suite(), ids=lambda inst: inst.instance_id)
    def test_suite_constants_scale_with_t(self, inst):
        lam = inst.ref.lambda_star
        assert_remainder_scales_with_t(inst.t, inst.ref.x_star, inst.subspace.basis, lam,
                                       remainder_radius(inst.t, lam, lam + 0.05))

    def test_delay_constants_scale_with_t(self):
        rng = np.random.default_rng(11)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 8, 8)),
            (Polynomial([0, 1]), complex_randn(rng, 8, 8)),
            (Polynomial([0, 0, 1]), complex_randn(rng, 8, 8)),
            (Exponential(-1.0), complex_randn(rng, 8, 8)),
        ])
        x = complex_randn(rng, 8)
        w, _ = np.linalg.qr(complex_randn(rng, 8, 3))
        assert_remainder_scales_with_t(t, x / np.linalg.norm(x), w, 0.2 + 0.1j, 0.3)

    def test_one_constant_per_function(self):
        rng = np.random.default_rng(13)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 4, 4)),
            (Polynomial([0, 1]), complex_randn(rng, 4, 4)),
        ])
        w, _ = np.linalg.qr(complex_randn(rng, 4, 2))
        def compress(d):
            return w.conj().T @ d @ w

        # affine: every constant is exactly 0
        assert taylor_remainder_const(t, 0.1, 0.5, compress, compress) == (0.0,) * 3

    def test_maps_take_the_direction_stack(self):
        rng = np.random.default_rng(14)
        a, c = complex_randn(rng, 3, 3), complex_randn(rng, 3, 3)
        t = MatrixFunction.from_terms([(Polynomial([1]), a), (Polynomial([0, 0, 1]), c)])
        seen = []

        def leading_block(d):
            seen.append(d)
            return d[:, :2, :2]

        # one nonlinear term: every direction is (1), so the stack is c alone
        assert taylor_remainder_const(t, 0.0, 0.1, leading_block) \
            == (1.5 * norm2(c), 1.5 * norm2(c[:2, :2]))
        assert len(seen) == 1 and seen[0].shape == (1, 3, 3)
        assert np.array_equal(seen[0][0], c)


LAM_STAR = 0.2 + 0.1j
_rng = np.random.default_rng(42)
# every term class: polynomials of degree 0-5, a rational term with a pole
# 0.5 from LAM_STAR, and exponentials with |a h| at |h| = 0.3 on both sides
# of the series switch of phi_2
SCALAR_TERMS = {
    **{f"poly{d}": Polynomial(complex_randn(_rng, d + 1)) for d in range(6)},
    "rational_pole": Rational([1.0, 0.5j, 2.0], [-(LAM_STAR + 0.5j), 1.0]),
    "exp_series": Exponential(1.2 - 0.5j),
    "exp_direct": Exponential(3.0 + 1.0j),
}


def direct_remainder(fn, lam, h):
    """(f(lam + h) - f(lam) - f'(lam) h) / h^2 straight from the definition."""
    return np.array([
        (value(fn, lam + dh, 0) - value(fn, lam, 0) - value(fn, lam, 1) * dh) / dh**2
        for dh in h
    ])


def is_affine(fn):
    return isinstance(fn, Polynomial) and fn.degree <= 1


class TestScalarRemainders:
    def test_exponentials_straddle_series_switch(self):
        steps = [abs(SCALAR_TERMS[k].scale) * 0.3 for k in ("exp_series", "exp_direct")]
        assert steps[0] < PHI2_SERIES_RADIUS < steps[1]

    @pytest.mark.parametrize("name", SCALAR_TERMS)
    def test_agrees_with_direct_difference(self, name):
        fn = SCALAR_TERMS[name]
        h = 0.3 * np.exp(2j * np.pi * (np.arange(8) + 0.25) / 8)
        got = fn.remainder(LAM_STAR, h)
        want = direct_remainder(fn, LAM_STAR, h)
        if is_affine(fn):
            assert np.all(got == 0.0)
            assert np.max(np.abs(want)) < 1e-13
        else:
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("name", SCALAR_TERMS)
    def test_small_step_tends_to_half_second_derivative(self, name):
        # the remainder is f''/2 + f''' h/6 + O(h^2); the h term is kept
        # because |f'''/(3 f'')| h alone exceeds 1e-10 for several terms
        fn = SCALAR_TERMS[name]
        h = 1e-9 * np.exp(2j * np.pi * np.arange(8) / 8)
        got = fn.remainder(LAM_STAR, h)
        limit = value(fn, LAM_STAR, 2) / 2
        want = limit + value(fn, LAM_STAR, 3) * h / 6
        if is_affine(fn):
            assert limit == 0.0 and np.all(got == 0.0)
        else:
            assert np.all(np.abs(got - want) <= 1e-10 * abs(limit))

    def test_remainder_at_pole_raises(self):
        fn = SCALAR_TERMS["rational_pole"]
        with pytest.raises(PoleHit):
            fn.remainder(LAM_STAR + 0.5j, np.array([0.1]))


class TestReferencePair:
    def test_fixture_reference_validates(self):
        t, ref, _ = fixture_problem()
        ref.validate(t)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError):
            ReferencePair(0.0, np.array([1.0, 1.0], dtype=complex))

    def test_non_eigenpair_rejected(self):
        t, _, _ = fixture_problem()
        bad = ReferencePair(0.0, np.array([1, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            bad.validate(t)

    def test_pole_coincidence_rejected(self):
        t, _, _ = fixture_problem()
        # T(1) is a pole of the rational term
        pair = ReferencePair(1.0, np.array([0, 0, 1], dtype=complex))
        with pytest.raises(PoleHit):
            pair.validate(t)

    def test_x_star_of_another_length_rejected(self):
        # numpy's matmul shape error was the message before
        t, _, _ = fixture_problem()
        pair = ReferencePair(0.0, np.array([0, 0, 0, 1], dtype=complex))
        with pytest.raises(ValueError, match="x_star has 4 entries, not n = 3"):
            pair.validate(t)

    def test_overflowing_t_at_lambda_star_rejected(self):
        # exp(1000) overflows; under the RuntimeWarning filter the warning
        # was raised before, and "matrix has NaN/Inf entries" came after it
        t = MatrixFunction.from_terms([(Exponential(1000.0), np.eye(2))])
        pair = ReferencePair(1.0, np.array([1, 0], dtype=complex))
        with pytest.raises(ValueError, match=r"T\(lambda_star\) is not finite"):
            pair.validate(t)


class TestProblemFormat:
    def test_roundtrip_all_variants(self, tmp_path):
        rng = np.random.default_rng(4)
        t = MatrixFunction.from_terms([
            (Polynomial(complex_randn(rng, 3)), complex_randn(rng, 2, 2)),
            (Rational(complex_randn(rng, 2), np.array([3.0, 1.0])), complex_randn(rng, 2, 2)),
            (Exponential(0.3 - 0.1j), complex_randn(rng, 2, 2)),
        ])
        path = tmp_path / "prob.json"
        save_problem(path, t)
        t2, ref2 = load_problem(path)
        assert ref2 is None
        lam = 0.1 + 0.2j
        assert np.allclose(eval_T(t, lam, 0), eval_T(t2, lam, 0), atol=1e-14)
        assert np.allclose(eval_T(t, lam, 1), eval_T(t2, lam, 1), atol=1e-14)

    def test_roundtrip_with_reference(self, tmp_path):
        t, ref, _ = fixture_problem()
        path = tmp_path / "fixture.json"
        save_problem(path, t, ref)
        t2, ref2 = load_problem(path)
        assert ref2 is not None
        assert ref2.lambda_star == ref.lambda_star
        assert np.allclose(ref2.x_star, ref.x_star)

    def test_schema_shape(self):
        t, ref, _ = fixture_problem()
        doc = problem_to_dict(t, ref)
        assert set(doc) == {"n", "terms", "reference"}
        assert doc["n"] == 3
        kinds = [e["fn"]["type"] for e in doc["terms"]]
        assert kinds.count("polynomial") == 3 and kinds.count("rational") == 1
        assert all(len(e["matrix"]) == 9 for e in doc["terms"])
        assert doc["reference"]["lambda_star"] == [0.0, 0.0]
        # every scalar is a [re, im] pair, so the document is plain JSON
        json.dumps(doc)

    def test_unknown_type_rejected(self):
        doc = {"n": 1, "terms": [{"fn": {"type": "sine"}, "matrix": [[1.0, 0.0]]}]}
        with pytest.raises(ValueError):
            problem_from_dict(doc)

    def test_matrix_size_mismatch_rejected(self):
        doc = {"n": 2, "terms": [{"fn": {"type": "polynomial", "coefficients": [[1.0, 0.0]]},
                                  "matrix": [[1.0, 0.0]]}]}
        with pytest.raises(ValueError):
            problem_from_dict(doc)

    @pytest.mark.parametrize("name", ["delay8", "planted_poly4", "rational3"])
    def test_save_reproduces_the_demo_files(self, tmp_path, name):
        demo = Path(__file__).resolve().parents[1] / "demos" / "problems" / f"{name}.json"
        save_problem(tmp_path / "again.json", *load_problem(demo))
        assert (tmp_path / "again.json").read_bytes() == demo.read_bytes()

    def test_term_fields_are_pairs_or_lists_of_pairs(self):
        # the codec reads each field's shape off its annotation
        for cls in (*nep_model._TERM_TYPES.values(), ReferencePair):
            assert {f.type for f in dataclasses.fields(cls)} <= {"complex", "np.ndarray"}

    @pytest.mark.parametrize("pair", [
        [0.0], [[0.0, 0.0]], [1.0, 0.0, 9.0], ["1.0", "0.0"], [True, False], None, 0.0,
    ])
    def test_malformed_pair_rejected(self, pair):
        t, ref, _ = fixture_problem()
        for where in ("lambda_star", "x_star", "coefficients", "matrix"):
            doc = problem_to_dict(t, ref)
            if where == "lambda_star":
                doc["reference"]["lambda_star"] = pair
            elif where == "x_star":
                doc["reference"]["x_star"][1] = pair
            elif where == "coefficients":
                doc["terms"][0]["fn"]["coefficients"][0] = pair
            else:
                doc["terms"][2]["matrix"][4] = pair
            with pytest.raises(ValueError, match=where):
                problem_from_dict(doc)

    @pytest.mark.parametrize("n,size", [
        (True, 1), ("3", 3), (2.5, 2), (3.0, 3), (0, 1), (-1, 1), (None, 1),
    ])
    def test_n_is_a_positive_integer(self, n, size):
        # each n but 0 and -1 was read as int(n) == size, so the file loaded
        doc = problem_to_dict(MatrixFunction.from_terms([(Polynomial([1]), np.eye(size))]))
        doc["n"] = n
        with pytest.raises(ValueError, match="n must be a positive integer"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("length", [1, 3])
    def test_reference_of_another_length_rejected(self, length):
        doc = problem_to_dict(MatrixFunction.from_terms([(Polynomial([0, 1]), np.eye(2))]))
        x_star = [[1.0, 0.0]] + [[0.0, 0.0]] * (length - 1)
        doc["reference"] = {"lambda_star": [0.0, 0.0], "x_star": x_star}
        with pytest.raises(ValueError, match=f"x_star has {length} entries, not n = 2"):
            problem_from_dict(doc)

    def test_integer_pairs_read_as_floats(self):
        t, ref, _ = fixture_problem()
        doc = problem_to_dict(t, ref)
        doc["reference"]["lambda_star"] = [0, 0]
        doc["terms"][0]["matrix"] = [[int(re), int(im)] for re, im in doc["terms"][0]["matrix"]]
        assert problem_to_dict(*problem_from_dict(doc)) == problem_to_dict(t, ref)
