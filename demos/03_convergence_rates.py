"""Convergence rates of the selected eigenvalue against the deviation.

Two instances bracket the theory:

* a generic polynomial problem with a simple planted pair: the selected
  value converges linearly in the deviation eps (slope 1 on a log-log fit);
* a linear problem whose projection is an exactly nilpotent 2 x 2 block at
  eps = 0: the eigenvalues split like sqrt(eps) (slope 1/2), and the
  derivative profile of sigma_min(B(.)) detects the order-2 signature that
  the rank staircase reads off the projected matrix directly.
"""

import numpy as np

import nepritz as nr
from nepritz.nep_model import MatrixFunction, Polynomial

EPS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]

# -- generic simple instance: slope 1 -----------------------------------------
t, ref, m = nr.simple_rate_instance()
res = nr.run_sweep(t, ref, eps_list=EPS, trials=3, m=m)
print("generic polynomial problem (simple planted pair):")
for e, d in zip(res["eps"], res["median_mu_dist"]):
    print(f"  eps = {e:.0e}   |mu - lambda*| = {d:.3e}")
print(f"  fitted slope: {res['slope_mu']:.3f}   (refined-vector slope: "
      f"{res['slope_refined']:.3f})")

# -- defective projected block: slope 1/2 -------------------------------------
t2, ref2 = nr.defective_rate_instance()
res2 = nr.run_sweep(t2, ref2, eps_list=EPS + [1e-8], trials=1,
                    subspace_factory=lambda eps, seed: nr.defective_rate_subspace(eps))
print("\nlinear problem with a nilpotent projected block:")
for e, d in zip(res2["eps"], res2["median_mu_dist"]):
    print(f"  eps = {e:.0e}   |mu - lambda*| = {d:.3e}")
print(f"  fitted slope: {res2['slope_mu']:.3f}   (square-root splitting)")

# -- the order signature behind the slow rate ---------------------------------
print("\norder detection on constructed blocks (rank staircase vs profile):")
mu = 0.7 + 0.1j
for k in (1, 2, 3):
    block = mu * np.eye(k, dtype=complex) + np.diag(np.ones(k - 1), 1)
    mat = np.zeros((4, 4), dtype=complex)
    mat[:k, :k] = block
    mat[k:, k:] = np.diag(np.array([2.0, -1.5, 3.0][: 4 - k], dtype=complex))
    staircase = nr.jordan_block_order(mat, mu)
    fn = MatrixFunction.from_terms([
        (Polynomial([1]), mat),
        (Polynomial([0, 1]), -np.eye(4, dtype=complex)),
    ])
    prof = nr.sigma_min_profile(fn, mu - 1e-3, direction=1.0, disc_radius=1e-3)
    print(f"  block size {k}: staircase -> {staircase}, "
          f"derivative signature -> {prof.detected_m_mu}")
