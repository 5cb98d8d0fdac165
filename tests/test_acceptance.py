"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.
"""

import math
import time

import numpy as np
import pytest
from helpers import (
    complex_randn,
    det_poly_coeffs,
    jordan_block_order,
    match_point_sets,
    poly_roots_ascending,
    seeded_unitary,
)

import nepritz as nr
import nepritz.bounds_lab as bl
from nepritz.dense_kernels import norm2, orthonormalize, singular_values
from nepritz.nep_model import MatrixFunction, Polynomial, eval_T
from nepritz.projection import Subspace, deviation, project
from nepritz.small_nep_solver import companion_eigs


def _report(name: str, detail: str) -> None:
    print(f"[PASS] {name}: {detail}")


def test_criterion_1_exact_degenerate_projection_reproduction():
    """Exact-capture fixture: value, kernel, residuals, refined recovery."""
    start = time.perf_counter()
    t, ref, w = nr.fixture_problem()
    s = Subspace.from_basis(w)
    case = nr.analyze_case(t, ref, s, region_center=0.0, region_radius=0.5)

    assert abs(case.mu) <= 1e-10
    b0 = eval_T(project(t, s), 0.0, 0)
    assert np.all(singular_values(b0) <= 1e-12)
    z = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    rho = nr.ritz_residual_for(eval_T(t, case.mu) @ s.basis, s, z)
    assert abs(rho - 1.0 / math.sqrt(2.0)) <= 1e-10
    e3 = np.array([0, 0, 1], dtype=complex)
    phase = np.vdot(e3, case.refined.x_hat)
    phase = phase / abs(phase)
    assert np.linalg.norm(case.refined.x_hat / phase - e3) <= 1e-10
    assert case.refined.sigma_hat_1 <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1 (exact degenerate projection)",
            f"|mu|={abs(case.mu):.1e}, rho(sym z)={rho:.6f}, "
            f"sigma1={case.refined.sigma_hat_1:.1e}, {elapsed:.2f}s")


def test_criterion_2_perturbed_subspace_statistics():
    """20-seed statistics at sigma = 1e-4 reproduce the reference orders."""
    start = time.perf_counter()
    result = nr.run_example2(sigma=1e-4, seeds=tuple(range(20)), seed_base=0)
    med = result["medians"]
    assert 1e-5 <= med["sin_refined"] <= 1e-3
    assert med["sin_ritz"] >= 1e-2
    assert med["residual_ratio"] <= 1e-2
    assert all(abs(complex(*r["mu"])) <= 1e-3 for r in result["records"])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 2 (perturbed subspace statistics)",
            f"median sin(refined)={med['sin_refined']:.2e}, "
            f"median sin(classical)={med['sin_ritz']:.2e}, "
            f"median ratio={med['residual_ratio']:.2e}, {elapsed:.2f}s")


def test_criterion_3_bound_suite_holds():
    """Every applicable bound on the built-in suite holds within slack."""
    start = time.perf_counter()
    suite = nr.builtin_suite()
    assert len(suite) >= 30
    result = nr.verify_all(suite=suite)
    assert result["ok"], f"failures: {result['failures']} errors: {result['errors']}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 3 (bound suite)",
            f"{result['n_reports']} reports / {result['n_instances']} instances, "
            f"{result['n_inapplicable']} inapplicable, {elapsed:.1f}s")


def test_criterion_3b_angle_identity_to_1e8():
    """The exact angle identity holds to 1e-8 wherever the block inverts."""
    suite = nr.builtin_suite()
    checked = 0
    for inst in suite:
        case = nr.analyze_case(inst.t, inst.ref, inst.subspace)
        for rep in case.reports:
            if rep.theorem_id == "angle_identity":
                assert rep.lhs <= 1e-8
                checked += 1
    assert checked >= 30
    _report("criterion 3 (angle identity)", f"verified on {checked} instances")


def test_criterion_4_rates_and_jordan_signature():
    """Convergence-rate slopes and derivative-order/Jordan-order agreement."""
    start = time.perf_counter()
    t, ref, m = nr.simple_rate_instance()
    simple = nr.run_sweep(t, ref, eps_list=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
                          trials=3, m=m)
    assert simple["slope_mu"] == pytest.approx(1.0, abs=0.2)

    t2, ref2 = nr.defective_rate_instance()
    defect = nr.run_sweep(
        t2, ref2, eps_list=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8], trials=1,
        subspace_factory=lambda eps, seed: nr.defective_rate_subspace(eps))
    assert defect["slope_mu"] == pytest.approx(0.5, abs=0.2)

    mu = 0.7 + 0.1j
    orders = {}
    for k in (1, 2, 3):
        m_mat = np.zeros((4, 4), dtype=complex)
        m_mat[:k, :k] = mu * np.eye(k) + np.diag(np.ones(k - 1), 1)
        m_mat[k:, k:] = np.diag(np.array([2.0, -1.5, 3.0][: 4 - k], dtype=complex))
        u = seeded_unitary(4, 100 + k)
        b_mat = u @ m_mat @ u.conj().T
        b_fn = MatrixFunction.from_terms([
            (Polynomial([1]), b_mat),
            (Polynomial([0, 1]), -np.eye(4, dtype=complex)),
        ])
        delta = 1e-3
        prof = nr.sigma_min_profile(b_fn, mu - delta, direction=1.0, disc_radius=delta)
        orders[k] = (jordan_block_order(b_mat, mu), prof.detected_m_mu)
        assert orders[k] == (k, k)
    elapsed = time.perf_counter() - start
    _report("criterion 4 (rates and signatures)",
            f"slopes {simple['slope_mu']:.2f}/{defect['slope_mu']:.2f}, "
            f"orders {orders}, {elapsed:.1f}s")


def test_criterion_5_kernel_properties():
    """SVD invariants, companion-vs-determinant roots, deviation identity."""
    rng = np.random.default_rng(20240901)
    for i in range(100):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = complex_randn(rng, rows, cols)
        res = nr.svd(a)
        p = min(rows, cols)
        # thin factors: U is rows x p and V cols x p
        assert res.left_vectors.shape == (rows, p)
        assert res.right_vectors.shape == (cols, p)
        smat = np.diag(res.singular_values)
        assert norm2(res.left_vectors @ smat @ res.right_vectors.conj().T - a) \
            <= 1e-12 * max(1.0, norm2(a))
        assert norm2(res.left_vectors.conj().T @ res.left_vectors
                     - np.eye(p)) <= 1e-12
        assert norm2(res.right_vectors.conj().T @ res.right_vectors
                     - np.eye(p)) <= 1e-12

    matched = 0
    for seed, m, degree in [(0, 2, 2), (1, 3, 2), (2, 4, 3), (3, 2, 3),
                            (4, 3, 3), (5, 4, 1), (6, 4, 2), (7, 3, 1)]:
        r2 = np.random.default_rng(9000 + seed)
        coeffs = [complex_randn(r2, m, m) for _ in range(degree + 1)]
        got = companion_eigs(coeffs)
        want = poly_roots_ascending(det_poly_coeffs(coeffs))
        assert match_point_sets(sorted(got, key=lambda z: (z.real, z.imag)),
                                sorted(want, key=lambda z: (z.real, z.imag)),
                                1e-8)
        matched += len(got)

    for i in range(100):
        r3 = np.random.default_rng(40000 + i)
        n = int(r3.integers(3, 11))
        m = int(r3.integers(1, n))
        s = Subspace.from_basis(orthonormalize(complex_randn(r3, n, m)))
        x = complex_randn(r3, n)
        x /= np.linalg.norm(x)
        eps = deviation(s, x)
        inside = np.linalg.norm(s.basis.conj().T @ x)
        assert abs(eps**2 + inside**2 - 1.0) <= 1e-12
    _report("criterion 5 (kernel properties)",
            f"100 SVDs, {matched} companion roots matched, 100 deviation identities")


def test_criterion_6_refined_minimality():
    """The refined residual is the minimum over the subspace, and never
    exceeds the classical residual."""
    t, ref, w = nr.fixture_problem()
    rng = np.random.default_rng(777)
    instances = 0
    for seed in range(3):
        s = nr.perturb_subspace(Subspace.from_basis(w), 1e-4, seed=seed)
        case = nr.analyze_case(t, ref, s, region_center=0.0, region_radius=1e6)
        tmu = eval_T(t, case.mu, 0)
        for _ in range(200):
            v = complex_randn(rng, 2)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(tmu @ (s.basis @ v)) \
                >= case.refined.sigma_hat_1 - 1e-12
        assert case.refined.sigma_hat_1 <= case.ritz.residual_norm + 1e-12
        instances += 1
    for inst in nr.builtin_suite()[::5]:
        case = nr.analyze_case(inst.t, inst.ref, inst.subspace)
        assert case.refined.sigma_hat_1 <= case.ritz.residual_norm + 1e-12
        instances += 1
    _report("criterion 6 (refined minimality)",
            f"200 directions x 3 perturbed instances + {instances - 3} suite instances")
