"""The five scalar argument rules of dense_kernels and every argument they govern.

as_finite_scalar (a finite complex), require_integer (an integer in a
range), as_length (a float in (0, inf)), as_deviation (a float in (0, 1))
and as_nonnegative (a float in [0, inf)) each raise ValueError naming the
argument, and a bool is no number under any of them.  The command line
parses its text, then applies the same rules.
"""

import argparse
import math
import re

import numpy as np
import pytest

import nepritz.bounds_lab as bl
from nepritz import cli
from nepritz import experiments as ex
from nepritz.dense_kernels import (
    as_deviation, as_finite_scalar, as_length, as_nonnegative, require_integer)
from nepritz.extraction import refined_vector, ritz_residual_for, ritz_vector
from nepritz.nep_model import (
    MAX_DERIV_ORDER,
    MAX_POLY_DEGREE,
    Exponential,
    MatrixFunction,
    Polynomial,
    ReferencePair,
    eval_T,
    eval_T_many,
    problem_from_dict,
    problem_to_dict,
    taylor_remainder_const,
)
from nepritz.projection import Subspace, project
from nepritz.small_nep_solver import SpectrumResult, select_ritz_value, solve_projected

TINY = 5e-324  # the smallest positive float
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
NON_NUMBERS = [True, np.True_, "0.5", None]
NON_FINITE = [math.nan, math.inf, -math.inf]
SIGMA_MESSAGE = r"^sigma must be in \[0, inf\), not "


class TestRules:
    @pytest.mark.parametrize("value", [0, 2.5, -1 + 2j, np.float64(0.3), np.complex64(1j),
                                       np.int64(-4), 10**300])
    def test_finite_scalar_is_its_complex(self, value):
        got = as_finite_scalar(value, "z")
        assert type(got) is complex and got == complex(value)

    @pytest.mark.parametrize("value", NON_NUMBERS + NON_FINITE + [
        complex(0, math.nan), complex(math.inf, 0), 10**400])
    def test_finite_scalar_rejects(self, value):
        with pytest.raises(ValueError, match=r"^z must be finite, not "):
            as_finite_scalar(value, "z")

    @pytest.mark.parametrize("value,least,most", [
        (0, 0, None), (2, 2, None), (10**30, 0, None), (np.int64(3), 1, 3), (1, 1, 3),
        (np.uint8(8), 0, 8),
    ])
    def test_integer_in_range_is_returned_unchanged(self, value, least, most):
        assert require_integer("k", value, least, most) is value

    @pytest.mark.parametrize("value,least,most,bound", [
        (True, 0, None, ">= 0"), (False, 0, None, ">= 0"), (2.0, 0, None, ">= 0"),
        (np.float64(2.0), 0, None, ">= 0"), ("2", 0, None, ">= 0"), (None, 0, None, ">= 0"),
        (math.nan, 0, None, ">= 0"), (-1, 0, None, ">= 0"), (0, 1, None, ">= 1"),
        (4, 1, 3, r"in \[1, 3\]"), (np.int64(0), 1, 3, r"in \[1, 3\]"),
    ])
    def test_integer_rejects(self, value, least, most, bound):
        with pytest.raises(ValueError, match=rf"^k must be an integer {bound}, not "):
            require_integer("k", value, least, most)

    @pytest.mark.parametrize("rule,value", [
        (as_length, TINY), (as_length, 1), (as_length, np.float64(2.5)), (as_length, 1e308),
        (as_length, 10**300), (as_deviation, TINY), (as_deviation, BELOW_ONE),
        (as_deviation, np.float32(0.5)),
    ])
    def test_length_and_deviation_are_their_float(self, rule, value):
        got = rule(value, "r")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("rule,interval,value", [
        *((as_length, r"\(0, inf\)", v) for v in NON_NUMBERS + NON_FINITE + [
            0.0, -TINY, 1j, 10**400]),
        *((as_deviation, r"\(0, 1\)", v) for v in NON_NUMBERS + NON_FINITE + [
            0.0, -TINY, 1.0, ABOVE_ONE, 2.5, 0.5j]),
    ])
    def test_length_and_deviation_reject(self, rule, interval, value):
        with pytest.raises(ValueError, match=rf"^r must be in {interval}, not "):
            rule(value, "r")

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, TINY, 1, 2.5, 1e308, 10**300,
                                       np.float64(1e-4), np.float32(0.5), np.int64(3),
                                       np.float64(-0.0)])
    def test_nonnegative_is_its_float(self, value):
        got = as_nonnegative(value, "sigma")
        assert type(got) is float and got == float(value)
        assert math.copysign(1.0, got) == math.copysign(1.0, float(value))

    @pytest.mark.parametrize("value", NON_NUMBERS + NON_FINITE + [
        -TINY, -1.0, -1, 1j, 0j, 10**400, -(10**400), np.float64(math.nan),
        np.float32(-1.0), np.float64(math.inf), np.int64(-2), np.bool_(False), False])
    def test_nonnegative_rejects(self, value):
        with pytest.raises(ValueError, match=SIGMA_MESSAGE):
            as_nonnegative(value, "sigma")


# ---------------------------------------------------------------------------
# every argument the rules govern: (id, call with the value, name, bad values)
# ---------------------------------------------------------------------------

def _unit(n):
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    return x


def _planted():
    return ex.random_planted_nep(4, 2, 1, 0.3 + 0.2j)


def _fixture_case():
    t, ref, w = ex.fixture_problem()
    return t, ref, Subspace.from_basis(w)


def _fixture_projection():
    t, _, w = ex.fixture_problem()
    return project(t, Subspace.from_basis(w))


def _problem_doc(n):
    doc = problem_to_dict(MatrixFunction.from_terms([(Polynomial([1]), np.eye(2))]))
    doc["n"] = n
    return doc


def _fixture_products():
    """(T(0) W, B(0), fixture subspace): the products extraction reads at mu = 0."""
    t, _, s = _fixture_case()
    tw = eval_T(t, 0.0, 0) @ s.basis
    return tw, s.basis.conj().T @ tw, s


def _spectrum():
    return SpectrumResult([0.5 + 0j], [0.0], [1], "companion-polynomial")


def _integer_bad(least, most=None):
    return [True, 2.5, *NON_FINITE, least - 1] + ([] if most is None else [most + 1])


SCALAR_BAD = [True, *NON_FINITE, complex(0.0, math.nan)]
LENGTH_BAD = [True, *NON_FINITE, 0.0, -TINY]
DEVIATION_BAD = [True, 2.5, *NON_FINITE, 0.0, -TINY, 1.0, ABOVE_ONE]
NONNEGATIVE_BAD = [True, *NON_FINITE, -TINY, -1.0]
SWEEP_EPS = [1e-2, 1e-4, 1e-6]

GOVERNED = [
    # finite scalars
    ("ReferencePair.lambda_star", lambda v: ReferencePair(v, _unit(3)),
     "lambda_star", SCALAR_BAD),  # NaN was accepted
    ("Exponential.scale", lambda v: Exponential(v), "scale", SCALAR_BAD),
    ("taylor_remainder_const.lambda_star",
     lambda v: taylor_remainder_const(_planted()[0], v, 0.1), "lambda_star", SCALAR_BAD),
    ("random_planted_nep.lambda_star", lambda v: ex.random_planted_nep(4, 2, 0, v),
     "lambda_star", SCALAR_BAD),
    ("random_planted_nep.rational_pole",
     lambda v: ex.random_planted_nep(4, 2, 0, 0.3, rational_pole=v), "rational_pole",
     SCALAR_BAD),
    ("sigma_min_profile.lambda_star",
     lambda v: bl.sigma_min_profile(_fixture_projection(), v, disc_radius=1e-3),
     "lambda_star", SCALAR_BAD),
    ("sigma_min_profile.direction",
     lambda v: bl.sigma_min_profile(_fixture_projection(), 0.5, v, disc_radius=1e-3),
     "direction", SCALAR_BAD + [0.0]),
    ("remainder_radius.lambda_star", lambda v: bl.remainder_radius(_planted()[0], v, 0.3),
     "lambda_star", SCALAR_BAD),  # NaN gave a NaN radius
    ("remainder_radius.mu", lambda v: bl.remainder_radius(_planted()[0], 0.3 + 0.2j, v),
     "mu", SCALAR_BAD),
    ("solve_projected.region_center",
     lambda v: solve_projected(_fixture_projection(), v, 1.0), "region_center", SCALAR_BAD),
    ("select_ritz_value.point", lambda v: select_ritz_value(_spectrum(), v), "point",
     SCALAR_BAD),
    # a NaN target was reported as select_ritz_value's point
    ("analyze_case.target", lambda v: ex.analyze_case(*_fixture_case(), target=v), "target",
     SCALAR_BAD),
    ("run_sweep.target", lambda v: ex.run_sweep(*_planted(), SWEEP_EPS, trials=1, target=v),
     "target", SCALAR_BAD),
    # extraction recorded a NaN or True mu as its mu
    ("ritz_vector.mu", lambda v: ritz_vector(*_fixture_products()[:2], v, _fixture_case()[2]),
     "mu", SCALAR_BAD),
    ("refined_vector.mu",
     lambda v: refined_vector(_fixture_products()[0], v, _fixture_case()[2]), "mu",
     SCALAR_BAD),
    # integers
    ("eval_T.order", lambda v: eval_T(_planted()[0], 0.0, v), "order",
     _integer_bad(0, MAX_DERIV_ORDER)),
    ("eval_T_many.order", lambda v: eval_T_many(_planted()[0], [0.0], v), "order",
     _integer_bad(0, MAX_DERIV_ORDER)),
    ("problem_from_dict.n", lambda v: problem_from_dict(_problem_doc(v)), "n",
     _integer_bad(1)),
    ("build_subspace_eps.m", lambda v: ex.build_subspace_eps(_unit(4), v, 1e-3, 0), "m",
     _integer_bad(1, 3)),
    # a seed of 0.5 raised numpy's TypeError, one of -1 its unnamed message
    ("build_subspace_eps.seed", lambda v: ex.build_subspace_eps(_unit(4), 2, 1e-3, v),
     "seed", _integer_bad(0)),
    ("perturb_subspace.seed",
     lambda v: ex.perturb_subspace(Subspace.from_basis(np.eye(3, 2)), 1e-4, v), "seed",
     _integer_bad(0)),
    # n = 2.5 raised numpy's TypeError, degree True built a linear problem
    # and degree 40 was reported as "degree 33"
    ("random_planted_nep.n", lambda v: ex.random_planted_nep(v, 2, 0, 0.3), "n",
     _integer_bad(2)),
    ("random_planted_nep.degree", lambda v: ex.random_planted_nep(4, v, 0, 0.3), "degree",
     _integer_bad(1, MAX_POLY_DEGREE) + [40]),
    ("random_planted_nep.seed", lambda v: ex.random_planted_nep(4, 2, v, 0.3), "seed",
     _integer_bad(0)),
    ("run_sweep.trials", lambda v: ex.run_sweep(*_planted(), SWEEP_EPS, trials=v), "trials",
     _integer_bad(1)),
    ("run_sweep.seed_base", lambda v: ex.run_sweep(*_planted(), SWEEP_EPS, seed_base=v),
     "seed_base", _integer_bad(0)),
    ("run_example2.seeds", lambda v: ex.run_example2(seeds=(0, v)), "seeds[1]",
     _integer_bad(0)),
    ("run_example2.seed_base", lambda v: ex.run_example2(seed_base=v), "seed_base",
     _integer_bad(0)),
    # lengths
    ("taylor_remainder_const.radius",
     lambda v: taylor_remainder_const(_planted()[0], 0.3 + 0.2j, v), "radius", LENGTH_BAD),
    ("sigma_min_profile.disc_radius",
     lambda v: bl.sigma_min_profile(_fixture_projection(), 0.5, disc_radius=v),
     "disc_radius", LENGTH_BAD),
    ("solve_projected.region_radius",
     lambda v: solve_projected(_fixture_projection(), 0.0, v), "region_radius", LENGTH_BAD),
    # nonnegative floats
    ("perturb_subspace.sigma",
     lambda v: ex.perturb_subspace(Subspace.from_basis(np.eye(3, 2)), v, 0), "sigma",
     NONNEGATIVE_BAD),
    ("run_example2.sigma", lambda v: ex.run_example2(sigma=v, seeds=(0,)), "sigma",
     NONNEGATIVE_BAD),
    # deviations
    ("build_subspace_eps.eps", lambda v: ex.build_subspace_eps(_unit(4), 2, v, 0), "eps",
     DEVIATION_BAD),
    ("sweep_deviations.eps_list", lambda v: ex.sweep_deviations([1e-2, 1e-7, v]),
     "eps_list[2]", DEVIATION_BAD),
    # 1.5 raised "math domain error", -0.1 built a deviation-0.1 basis
    ("defective_rate_subspace.eps", lambda v: ex.defective_rate_subspace(v), "eps",
     DEVIATION_BAD + [-0.1, 1.5]),
]


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=f"{arg}-{value!r}")
    for arg, call, name, bad in GOVERNED for value in bad
])
def test_bad_argument_raises_value_error_naming_it(call, name, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        call(value)


@pytest.mark.parametrize("name,value", [
    pytest.param(name, value, id=f"{name}-{value!r}")
    for name, bad in (("region_center", SCALAR_BAD + ["0.0", np.False_]),
                      ("region_radius", LENGTH_BAD + ["1.0", np.False_]))
    for value in bad
])
def test_analyze_case_checks_its_region_before_projecting(monkeypatch, name, value):
    # True was read as 1+0j and the string "0.0" as 0, after projecting
    def no_projection(*args):
        raise AssertionError("projected before the region was checked")

    monkeypatch.setattr(ex, "project", no_projection)
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        ex.analyze_case(*_fixture_case(), **{name: value})


@pytest.mark.parametrize("b_mu", [np.eye(3), np.zeros((2, 3)), np.zeros(2)],
                         ids=["3x3", "2x3", "vector"])
def test_ritz_vector_needs_an_m_by_m_b_mu(b_mu):
    # a 3 x 3 B(mu) on the m = 2 subspace was reported as NotAnEigenvalue
    tw, _, s = _fixture_products()
    with pytest.raises(ValueError, match=r"^b_mu must be 2 x 2, not "):
        ritz_vector(tw, b_mu, 0.0, s)


@pytest.mark.parametrize("call", [
    lambda tw, b_mu, s: ritz_vector(tw, b_mu, 0.0, s),
    lambda tw, b_mu, s: refined_vector(tw, 0.0, s),
    lambda tw, b_mu, s: ritz_residual_for(tw, s, _unit(2)),
], ids=["ritz_vector", "refined_vector", "ritz_residual_for"])
def test_extraction_needs_a_tw_of_the_basis_shape(call):
    # the message read 'T(mu) W must be (3, 2), got (4, 2)', naming no argument
    tw, b_mu, s = _fixture_products()
    with pytest.raises(ValueError, match=r"^tw must be T\(mu\) W, of shape \(3, 2\), not \(4, 2\)$"):
        call(np.vstack([tw, tw[:1]]), b_mu, s)


@pytest.mark.parametrize("n", [1, 3])
def test_ritz_residual_needs_a_z_of_length_m(n):
    # a z of another length surfaced numpy's matmul message
    tw, _, s = _fixture_products()
    with pytest.raises(ValueError, match=rf"^z_custom must be of length m = 2, not {n}$"):
        ritz_residual_for(tw, s, _unit(n))


# ---------------------------------------------------------------------------
# the command line parses its text, then applies the library's rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("least", [0, 1])
@pytest.mark.parametrize("text", ["0", "1", "-1", " 7", "2.5", "True", "nan", "1e3", ""])
def test_integer_flag_admits_what_require_integer_admits(text, least):
    parse = cli._integer_at_least("trials", least)
    try:
        expected = require_integer("trials", int(text), least)
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError,
                           match=rf"^trials must be an integer >= {least}, not "):
            parse(text)
    else:
        assert parse(text) == expected


@pytest.mark.parametrize("value", ["0.3+0.2j", "-1", "nan", "inf", "1-infj", "nanj"])
def test_selection_target_admits_what_as_finite_scalar_admits(value):
    try:
        expected = as_finite_scalar(complex(value), "target")
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError, match="^target must be finite, not "):
            cli._parse_selection(f"target={value}")
    else:
        assert cli._parse_selection(f"target={value}") == ("target", expected)


@pytest.mark.parametrize("text", ["0", "-0", "0.0", "1e-4", "1e308", "1e309", "-1e-4", "-0.5",
                                  "nan", "inf", "-inf"])
def test_sigma_flag_admits_what_as_nonnegative_admits(text):
    try:
        expected = as_nonnegative(float(text), "sigma")
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError, match=SIGMA_MESSAGE):
            cli._parse_sigma(text)
    else:
        got = cli._parse_sigma(text)
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)
