import json
import math

import numpy as np
import pytest
from helpers import complex_randn, quotient_rule_derivative
from numpy.polynomial import polynomial as npoly

import nepritz.nep_model as nep_model
from nepritz.dense_kernels import norm2, singular_values
from nepritz.errors import PoleHit
from nepritz.experiments import fixture_problem
from nepritz.nep_model import (
    PHI2_SERIES_RADIUS,
    Exponential,
    MatrixFunction,
    Polynomial,
    Rational,
    ReferencePair,
    eval_T,
    eval_T_many,
    eval_fn,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    taylor_remainder_const,
)


class TestScalarFns:
    def test_polynomial_value(self):
        assert eval_fn(Polynomial([0, 0, 1]), 2.0, 0) == pytest.approx(4.0)

    def test_polynomial_derivatives(self):
        f = Polynomial([1, 2, 3])  # 1 + 2x + 3x^2
        assert eval_fn(f, 2.0, 1) == pytest.approx(14.0)
        assert eval_fn(f, 2.0, 2) == pytest.approx(6.0)
        assert eval_fn(f, 2.0, 3) == 0.0

    def test_rational_value_at_zero(self):
        f = Rational([0, 1], [-1, 1])  # lam / (lam - 1)
        assert eval_fn(f, 0.0, 0) == pytest.approx(0.0)

    def test_rational_derivative_matches_quotient_rule(self):
        p = np.array([0, 1], dtype=complex)
        q = np.array([-1, 1], dtype=complex)
        f = Rational(p, q)
        got = eval_fn(f, 0.0, 1)
        want = quotient_rule_derivative(p, q, 0.0)
        assert got == pytest.approx(want)
        assert got == pytest.approx(-1.0)

    def test_rational_higher_orders(self):
        # f = 1/(1 - x): f^(k)(0) = k!
        f = Rational([1], [1, -1])
        for k in range(6):
            assert eval_fn(f, 0.0, k) == pytest.approx(float(math.factorial(k)))

    def test_rational_pole_hit(self):
        f = Rational([0, 1], [-1, 1])
        with pytest.raises(PoleHit):
            eval_fn(f, 1.0, 0)

    def test_exponential_derivatives(self):
        f = Exponential(2.0 + 1.0j)
        lam = 0.3 - 0.2j
        for k in range(4):
            want = (2.0 + 1.0j) ** k * np.exp((2.0 + 1.0j) * lam)
            assert eval_fn(f, lam, k) == pytest.approx(want)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            eval_fn(Polynomial([1]), 0.0, 9)

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
            fd = (eval_fn(fn, lam + h, 0) - eval_fn(fn, lam - h, 0)) / (2 * h)
            assert abs(fd - eval_fn(fn, lam, 1)) < 1e-6

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

    def test_term_values_equal_scalar_calls(self):
        rng = np.random.default_rng(7)
        lams = complex_randn(rng, 200) * 3.0
        for fn, _ in self.problem(7).terms:
            for order in (0, 1, 3):
                many = fn.eval_many(lams, order)
                assert all(m == eval_fn(fn, lam, order) for m, lam in zip(many, lams))

    def test_pole_in_stack_raises(self):
        t, _, _ = fixture_problem()
        with pytest.raises(PoleHit):
            eval_T_many(t, [0.0, 1.0, 0.5j], 0)

    def test_order_out_of_range(self):
        t, _, _ = fixture_problem()
        with pytest.raises(ValueError):
            eval_T_many(t, [0.0], nep_model.MAX_DERIV_ORDER + 1)


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
        assert taylor_remainder_const(t, 0.2, 0.5) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("radius", [1e-3, 1e-7])
    def test_linear_function_is_exactly_zero(self, radius):
        # the matrix difference T(lam) - T(l*) - T'(l*) h read about
        # u ||T|| / radius^2 here: 3.6e-9 at 1e-3 and 0.36 at 1e-7
        rng = np.random.default_rng(1)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 3, 3)),
            (Polynomial([0.5, 2.0 - 1.0j]), complex_randn(rng, 3, 3)),
        ])
        assert taylor_remainder_const(t, 0.2 + 0.3j, radius) == 0.0

    @pytest.mark.parametrize("radius", [1e-9, 1e-3, 0.3, 10.0])
    def test_quadratic_is_exactly_scaled_leading_norm(self, radius):
        rng = np.random.default_rng(2)
        a2 = complex_randn(rng, 4, 4)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 4, 4)),
            (Polynomial([0, 1]), complex_randn(rng, 4, 4)),
            (Polynomial([0, 0, 1]), a2),
        ])
        assert taylor_remainder_const(t, -0.4 + 0.7j, radius) == 1.5 * norm2(a2)

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
        assert taylor_remainder_const(t, lam, radius) == pytest.approx(1.5 * worst, rel=1e-12)

    @pytest.mark.parametrize("nonlinear", [
        Polynomial([0.3, -1.0, 0.5j]),
        Exponential(-1.0),
        Rational([1.0], [-2.0, 1.0]),
    ])
    def test_one_nonlinear_term_costs_one_norm(self, monkeypatch, nonlinear):
        # affine terms drop out and every sample shares the direction (1)
        rng = np.random.default_rng(4)
        t = MatrixFunction.from_terms([
            (Polynomial([1]), complex_randn(rng, 5, 5)),
            (Polynomial([0, 1]), complex_randn(rng, 5, 5)),
            (nonlinear, complex_randn(rng, 5, 5)),
        ])
        norms, evals = [], []

        def counted_svals(m):
            out = singular_values(m)
            norms.append(1 if np.ndim(m) == 2 else len(m))
            return out

        def counted_eval(*args):
            evals.append(args)
            return eval_T(*args)

        monkeypatch.setattr(nep_model, "singular_values", counted_svals)
        monkeypatch.setattr(nep_model, "eval_T", counted_eval)
        monkeypatch.setattr(nep_model, "norm2", None)
        gamma = taylor_remainder_const(t, 0.3 + 0.1j, 0.2)
        assert gamma > 0
        assert sum(norms) == 1 and evals == []

    def test_pure_quadratic(self):
        t = MatrixFunction.from_terms([(Polynomial([0, 0, 1]), np.eye(2, dtype=complex))])
        # remainder is exactly lam^2 I, so the ratio is 1 and the factor 1.5 shows
        assert taylor_remainder_const(t, 0.0, 0.3) == pytest.approx(1.5)

    def test_fixture_gamma_bounds_fresh_samples(self):
        t, _, _ = fixture_problem()
        gamma = taylor_remainder_const(t, 0.0, 0.1)
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
        (eval_fn(fn, lam + dh, 0) - eval_fn(fn, lam, 0) - eval_fn(fn, lam, 1) * dh) / dh**2
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
        limit = eval_fn(fn, LAM_STAR, 2) / 2
        want = limit + eval_fn(fn, LAM_STAR, 3) * h / 6
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
