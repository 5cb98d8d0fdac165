"""When classical extraction fails and residual minimization does not.

A 3 x 3 rational problem with eigenvalues {-1, 0} is projected onto a
two-dimensional subspace that contains the eigenvector of 0 *exactly*.
Even so, the projected problem degenerates: its null space at 0 is
two-dimensional, so the classical extracted vector is arbitrary, while the
refined (residual-minimizing) vector recovers the target to machine
precision.
"""

import math

import numpy as np

import nepritz as nr

np.set_printoptions(precision=4, suppress=True)

# -- the problem and the exact-capture subspace ------------------------------
t, ref, w = nr.fixture_problem()
s = nr.Subspace.from_basis(w)

print("T(0) =")
print(nr.eval_T(t, 0.0, 0).real)
print(f"\ntarget pair: lambda* = {ref.lambda_star}, x* = {ref.x_star.real}")
print(f"deviation of x* from the subspace: {nr.deviation(s, ref.x_star):.2e}")

# -- project and solve the small problem -------------------------------------
b = nr.project(t, s)
spectrum = nr.solve_projected(b, 0.0, 0.5)
print(f"\nprojected eigenvalues in |lambda| <= 0.5: {spectrum.eigenvalues}")
print(f"algebraic multiplicities: {spectrum.multiplicities}")

mu = nr.select_ritz_value(spectrum, lambda_star=ref.lambda_star)
tw = nr.eval_T(t, mu) @ s.basis  # T(mu) W: both extractions read this one product
ritz = nr.ritz_vector(tw, s.basis.conj().T @ tw, mu, s)
print(f"\nselected value mu = {mu}")
print(f"null-space dimension of B(mu): {ritz.geometric_multiplicity}"
      f"  (non-unique extraction: {ritz.nonunique_flag})")

# -- any unit coefficient vector is formally an answer -----------------------
z_even = np.array([1.0, 1.0]) / math.sqrt(2.0)
rho = nr.ritz_residual_for(tw, s, z_even)
print(f"\nresidual of the symmetric choice z = (1,1)/sqrt(2): {rho:.6f}"
      f"  (= 1/sqrt(2): meaningless answer)")

# -- the refined vector is unique and exact here ------------------------------
refined = nr.refined_vector(tw, mu, s)
print(f"\nrefined vector x^ = {np.round(refined.x_hat.real, 10)}")
print(f"refined residual ||T(mu) x^|| = {refined.sigma_hat_1:.2e}")
print(f"angle to the target: {nr.sin_angle(ref.x_star, refined.x_hat):.2e}")
print("\nthe refined extraction turns an unusable projection into an exact answer")
