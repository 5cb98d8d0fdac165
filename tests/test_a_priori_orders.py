"""The paper's orders in eps, read off the bound reports without a reference.

Each generic suite family (experiments._SUITE_BASES) is analyzed on the
suite's eps ladder, 1e-2 ... 1e-8, with the subspace seeds 1000-1004 reused
at every eps, and each theorem's median lhs and median rhs over the five
seeds are fitted against eps on a log-log scale.  A per-case verdict cannot
see an rhs of the wrong order as long as it is loose enough to hold; these
slopes can.  The seeds are fixed because the suite's own ladder draws a new
seed at each eps, which scatters its slopes over 0.67-1.17.

- Slope 1: perturbation_norm, projected_sigma_min, both residual_to_angle_*,
  refined_residual, refined_angle, ritz_vector_angle, both angle_sandwich_*
  and, on poly6 and poly12, ritz_value_rate.
- Slope 0: refined_uniqueness and both residual_ratio_*.
- angle_identity is not fitted: its rhs is 0.

Tolerance 0.03.  Measured, the largest |slope - order| of an asserted slope
is 0.021 at seeds 1000-1004 (ritz_vector_angle's rhs on poly3) and 0.023
over the seed sets 1000, 2000, 3000 and 4000 (refined_angle's rhs on poly12
at 3000), so a wrong power (1/2 or 2) lies far outside it.

ritz_value_rate's rhs has slope 1.07, 1.06 and 1.04 on poly3, rat4 and
rat5: at eps in {1e-2, 1e-3}, 16 of the 50 reports detect an order m != 1
although every planted eigenvalue is simple (ROADMAP item 9).  Those three
families are strict xfails.  Which families show the defect changes with the
seed set (at seeds 4000-4004 rat4's rhs slope is 1.13), another reason the
seeds are fixed.

defective2, on its deterministic bases at eps = 1e-4 ... 1e-8, has the
paper's square-root splitting: lhs slope 1/2 for ritz_value_rate, both
residual_to_angle_*, refined_residual, refined_angle, ritz_vector_angle and
both angle_sandwich_*; lhs slope 1 for perturbation_norm and
projected_sigma_min, which depend on eps only through W; and rhs slope 0
for ritz_vector_angle and angle_sandwich_upper, which is the paper's "the
Ritz vector may fail to converge".  Measured, every one is within 0.007.
"""

from collections import defaultdict

import numpy as np
import pytest

import nepritz.experiments as ex

TOL = 0.03
SEEDS = range(1000, 1005)
LINEAR = ("perturbation_norm", "projected_sigma_min", "residual_to_angle_ritz",
          "residual_to_angle_refined", "refined_residual", "refined_angle",
          "ritz_vector_angle", "angle_sandwich_lower", "angle_sandwich_upper")
CONSTANT = ("refined_uniqueness", "residual_ratio_lower", "residual_ratio_upper")
DEFECTIVE_EPS = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
FAMILIES = [base[0] for base in ex._SUITE_BASES]
RATE_DEFECT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 9: the rate bound detects m != 1 at a simple eigenvalue")


def slopes(cases) -> dict[str, tuple[float, float]]:
    """Per theorem, the log-log slopes of the median lhs and the median rhs over eps."""
    sides = defaultdict(lambda: defaultdict(list))
    for eps, case in cases:
        for rep in case.reports:
            sides[rep.theorem_id][eps].append((rep.lhs, rep.rhs))
    out = {}
    for tid, by_eps in sides.items():
        eps = sorted(by_eps)
        medians = np.array([np.median(by_eps[e], axis=0) for e in eps])
        out[tid] = (ex.fit_loglog_slope(eps, medians[:, 0]),
                    ex.fit_loglog_slope(eps, medians[:, 1]))
    return out


@pytest.fixture(scope="module")
def generic():
    out = {}
    for name, n, degree, seed, lam, pole, m in ex._SUITE_BASES:
        t, ref = ex.random_planted_nep(n, degree, seed, lam, rational_pole=pole)
        out[name] = slopes(
            (eps, ex.analyze_case(t, ref, ex.build_subspace_eps(ref.x_star, m, eps, s)))
            for eps in ex._SUITE_EPS for s in SEEDS)
    return out


@pytest.fixture(scope="module")
def defective():
    t, ref = ex.defective_rate_instance()
    return slopes((eps, ex.analyze_case(t, ref, ex.defective_rate_subspace(eps)))
                  for eps in DEFECTIVE_EPS)


@pytest.mark.parametrize("family", FAMILIES)
def test_generic_family_orders(generic, family):
    got = generic[family]
    assert set(got) == {*LINEAR, *CONSTANT, "ritz_value_rate", "angle_identity"}
    for tid, order in [(t, 1.0) for t in LINEAR] + [(t, 0.0) for t in CONSTANT]:
        lhs, rhs = got[tid]
        assert abs(lhs - order) <= TOL and abs(rhs - order) <= TOL, (tid, lhs, rhs)


@pytest.mark.parametrize("family", [
    pytest.param(f, marks=RATE_DEFECT) if f in ("poly3", "rat4", "rat5") else f
    for f in FAMILIES
])
def test_ritz_value_rate_is_linear(generic, family):
    lhs, rhs = generic[family]["ritz_value_rate"]
    assert abs(lhs - 1.0) <= TOL and abs(rhs - 1.0) <= TOL, (lhs, rhs)


def test_defective_square_root_orders(defective):
    for tid in ("ritz_value_rate", "residual_to_angle_ritz", "residual_to_angle_refined",
                "refined_residual", "refined_angle", "ritz_vector_angle",
                "angle_sandwich_lower", "angle_sandwich_upper"):
        assert abs(defective[tid][0] - 0.5) <= TOL, (tid, defective[tid])
    for tid in ("perturbation_norm", "projected_sigma_min"):
        assert abs(defective[tid][0] - 1.0) <= TOL, (tid, defective[tid])
    # these bounds do not shrink where the Ritz vector need not converge
    for tid in ("ritz_vector_angle", "angle_sandwich_upper"):
        assert abs(defective[tid][1]) <= TOL, (tid, defective[tid])
