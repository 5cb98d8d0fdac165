"""Seeded input generators for the benchmark workloads.

Each workload is a list of cases; a case is a problem ``T``, its planted
reference pair and an orthonormal basis ``W``.  The timed unit of work is
``Subspace.from_basis(W)`` followed by ``analyze_case(T, ref, S)``.  The same
workload name and seed always give bit-identical inputs.

Workloads, and why each is in the benchmark:

* ``suite`` -- the built-in verification suite (38 cases, n = 3..12).  Tiny
  matrices, so time goes to per-call Python overhead and repeated derivation
  (Taylor-remainder sampling, ``eval_T``, the sigma_min profile).  At
  ``DEFAULT_SEED`` it is ``experiments.builtin_suite()`` instance for
  instance; other seeds shift the five family seeds.
* ``large_n`` -- planted degree-2 polynomial problems at n = 128, m = 16.
  Dense n x n kernels dominate (the 144 2-norms per Taylor-remainder call,
  the complement loop in ``Subspace.from_basis``); the projected solve is
  under 2%, so a solver change should leave it flat.
* ``exp_delay`` -- planted delay problems A0 + lam A1 + exp(-tau lam) A2 at
  n = 8 and 12, m = 3.  The exponential term sends the projected solver down
  its grid-Newton path (about 88 Newton starts per case), which then takes
  over 90% of the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nepritz import (
    Exponential,
    MatrixFunction,
    Polynomial,
    ReferencePair,
    build_subspace_eps,
    defective_rate_instance,
    defective_rate_subspace,
    eval_T,
    norm2,
    singular_values,
    svd,
)
from nepritz.errors import ConstructionFailed
from nepritz.experiments import random_planted_nep

DEFAULT_SEED = 0
WORKLOADS = ("suite", "large_n", "exp_delay")

# a copy of the built-in suite's table, so a change to the package's private
# constants shows up as a failing equality test instead of a silent new input
SUITE_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
SUITE_FAMILIES = (
    # (name, n, degree, seed, lambda_star, pole, m)
    ("poly3", 3, 2, 101, 0.3 + 0.2j, None, 2),
    ("poly6", 6, 3, 202, -0.2 + 0.5j, None, 3),
    ("rat4", 4, 2, 303, 0.1 + 0.1j, 2.0 + 0.0j, 2),
    ("poly12", 12, 2, 404, 0.5 + 0.0j, None, 6),
    ("rat5", 5, 2, 505, -0.3 + 0.0j, 1.5 + 0.0j, 3),
)
SUITE_DEFECTIVE_EPS = (1e-5, 1e-6, 1e-7)
SUITE_SEED_STRIDE = 1000

LARGE_N = 128
LARGE_M = 16
LARGE_EPS = (1e-2, 1e-4, 1e-6, 1e-8)
LARGE_LAMBDA = 0.3 + 0.2j
LARGE_SEED_BASE = 7000

DELAY_SIZES = (8, 12)
DELAY_PROBLEMS = 8
DELAY_M = 3
DELAY_EPS = (1e-2, 1e-5, 1e-8)
DELAY_TAU = 1.0
DELAY_LAMBDA = 0.2 + 0.1j
DELAY_SEED_BASE = 9000

SCALING_NS = (16, 32, 64, 128, 256)
SCALING_EPS = 1e-4

# generator seeds are retried upward past ones that give a non-generic
# planted pair; at the default seed no retry happens
_RETRIES = 10


@dataclass(frozen=True)
class Case:
    case_id: str
    t: MatrixFunction
    ref: ReferencePair
    basis: np.ndarray


def _first_generic(make, seed: int):
    for k in range(_RETRIES):
        try:
            return make(seed + k)
        except ConstructionFailed:
            continue
    raise ConstructionFailed(f"no generic instance in seeds {seed}..{seed + _RETRIES - 1}")


def suite_cases(seed: int) -> list[Case]:
    """The built-in suite with every family seed shifted by 1000 * seed."""
    shift = SUITE_SEED_STRIDE * (seed - DEFAULT_SEED)
    out: list[Case] = []
    for name, n, degree, fam_seed, lam, pole, m in SUITE_FAMILIES:
        def make(s, n=n, degree=degree, lam=lam, pole=pole, m=m):
            t, ref = random_planted_nep(n, degree, s, lam, rational_pole=pole)
            bases = [build_subspace_eps(ref.x_star, m, eps, s + 7 * i).basis
                     for i, eps in enumerate(SUITE_EPS)]
            return t, ref, bases
        t, ref, bases = _first_generic(make, fam_seed + shift)
        for eps, w in zip(SUITE_EPS, bases):
            out.append(Case(f"{name}-eps{eps:.0e}", t, ref, w))
    t_def, ref_def = defective_rate_instance()
    for eps in SUITE_DEFECTIVE_EPS:
        out.append(Case(f"defective2-eps{eps:.0e}", t_def, ref_def,
                        defective_rate_subspace(eps).basis))
    return out


def planted_polynomial_cases(n: int, m: int, eps_list, seed: int) -> list[Case]:
    """One planted degree-2 polynomial problem of size n over an eps ladder."""
    def make(s):
        t, ref = random_planted_nep(n, 2, s, LARGE_LAMBDA)
        return t, ref, [build_subspace_eps(ref.x_star, m, eps, s + 7 * i).basis
                        for i, eps in enumerate(eps_list)]
    t, ref, bases = _first_generic(make, seed)
    return [Case(f"n{n}-eps{eps:.0e}", t, ref, w) for eps, w in zip(eps_list, bases)]


def large_n_cases(seed: int) -> list[Case]:
    return planted_polynomial_cases(LARGE_N, LARGE_M, LARGE_EPS, LARGE_SEED_BASE + seed)


def scaling_case(n: int, seed: int) -> Case:
    """One large_n-family case at size n (m = min(16, n/2)), for the n-curve."""
    m = min(LARGE_M, n // 2)
    return planted_polynomial_cases(n, m, (SCALING_EPS,), LARGE_SEED_BASE + seed)[0]


def _complex_randn(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def planted_delay_nep(
    n: int, seed: int, lambda_star: complex = DELAY_LAMBDA, tau: float = DELAY_TAU
) -> tuple[MatrixFunction, ReferencePair]:
    """T(lam) = A0 + lam A1 + exp(-tau lam) A2 with a planted simple pair.

    A0 gets the rank-one correction -(T(l*) x*) x*^H, so the seeded unit x*
    is an exact eigenvector at l*.  Non-generic draws (a second small
    singular value at l*, or a vanishing eigenvalue derivative) raise
    ConstructionFailed, as random_planted_nep does.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(n)
    a0, a1, a2 = (_complex_randn(rng, n, n) * scale for _ in range(3))
    x = _complex_randn(rng, n)
    x = x / np.linalg.norm(x)
    terms = [(Polynomial([1]), a0), (Polynomial([0, 1]), a1), (Exponential(-tau), a2)]
    defect = eval_T(MatrixFunction.from_terms(terms), lambda_star, 0) @ x
    terms[0] = (terms[0][0], a0 - np.outer(defect, np.conj(x)))
    t = MatrixFunction.from_terms(terms)
    ref = ReferencePair(lambda_star, x)
    ref.validate(t)
    t_star = eval_T(t, lambda_star, 0)
    svals = singular_values(t_star)
    if svals[-2] < 1e-6 * max(1.0, svals[0]):
        raise ConstructionFailed(f"seed {seed}: planted eigenvalue is not simple enough")
    y_left = svd(t_star).left_vectors[:, -1]
    t_prime = eval_T(t, lambda_star, 1)
    if abs(np.vdot(y_left, t_prime @ x)) < 1e-6 * max(1.0, norm2(t_prime)):
        raise ConstructionFailed(f"seed {seed}: eigenvalue derivative vanishes")
    return t, ref


def exp_delay_cases(seed: int) -> list[Case]:
    out: list[Case] = []
    for k in range(DELAY_PROBLEMS):
        n = DELAY_SIZES[k % len(DELAY_SIZES)]

        def make(s, n=n):
            t, ref = planted_delay_nep(n, s)
            return t, ref, [build_subspace_eps(ref.x_star, DELAY_M, eps, s + 7 * i).basis
                            for i, eps in enumerate(DELAY_EPS)]
        t, ref, bases = _first_generic(make, DELAY_SEED_BASE + 100 * seed + 10 * k)
        for eps, w in zip(DELAY_EPS, bases):
            out.append(Case(f"delay{k}-n{n}-eps{eps:.0e}", t, ref, w))
    return out


_BUILDERS = {"suite": suite_cases, "large_n": large_n_cases, "exp_delay": exp_delay_cases}


def build(workload: str, seed: int) -> list[Case]:
    """All cases of one workload for one seed, in run order."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _BUILDERS[workload](seed)
