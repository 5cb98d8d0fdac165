"""40-digit reference values on mpmath, for tests only.

A problem is taken exactly as the pipeline holds it: every float entry and
coefficient converts to mpmath without rounding, so a reference value
differs from the exact one of those float inputs only by the 40-digit
arithmetic.  The pipeline's error is then measured against the problem it
was given, not against a perturbed one.  Two kinds of reference are given:
the eigenvalue a float mu approximates, and the scalars of a case context
(bounds_lab.CaseContext) with the witness norm ||E(l*)||.
"""

import mpmath as mp

from nepritz.nep_model import Exponential, MatrixFunction, Polynomial, Rational

DIGITS = 40


def _ascending(coeffs, lam):
    return mp.polyval([mp.mpc(c) for c in coeffs[::-1]], lam)


def scalar(fn, lam):
    """f(lam) at the working precision, for a term class of nep_model."""
    if isinstance(fn, Polynomial):
        return _ascending(fn.coefficients, lam)
    if isinstance(fn, Rational):
        return _ascending(fn.numerator, lam) / _ascending(fn.denominator, lam)
    if isinstance(fn, Exponential):
        return mp.exp(mp.mpc(fn.scale) * lam)
    raise TypeError(f"unknown scalar function {fn!r}")


def _derived(coeffs):
    """Ascending coefficients of the derivative, each k c_k formed exactly."""
    return [k * mp.mpc(c) for k, c in enumerate(coeffs)][1:] or [0]


def derivative(fn, lam, order):
    """f^(order)(lam) for order 0 or 1, by the term's analytic derivative."""
    if order == 0:
        return scalar(fn, lam)
    if order != 1:
        raise ValueError("only orders 0 and 1 are implemented")
    if isinstance(fn, Polynomial):
        return _ascending(_derived(fn.coefficients), lam)
    if isinstance(fn, Rational):
        p, q = fn.numerator, fn.denominator
        qv = _ascending(q, lam)
        return (_ascending(_derived(p), lam) * qv
                - _ascending(p, lam) * _ascending(_derived(q), lam)) / qv**2
    if isinstance(fn, Exponential):
        return mp.mpc(fn.scale) * mp.exp(mp.mpc(fn.scale) * lam)
    raise TypeError(f"unknown scalar function {fn!r}")


def _matrix(a):
    """A float array (a matrix, or a vector as a column) at the working precision."""
    rows = [[mp.mpc(z) for z in row] for row in (a if a.ndim == 2 else a[:, None])]
    return mp.matrix(rows)


def matrix(t: MatrixFunction, lam, order=0):
    """T^(order)(lam) at the working precision."""
    total = mp.zeros(t.n, t.n)
    for fn, a in t.terms:
        total += derivative(fn, lam, order) * _matrix(a)
    return total


def det(t: MatrixFunction, lam):
    """det T(lam) at the working precision."""
    return mp.det(matrix(t, lam))


def _singular_values(m):
    """Singular values of an mpmath matrix, descending."""
    return sorted(mp.svd_c(m, compute_uv=False), reverse=True)


def _norm(v):
    """2-norm of an mpmath column."""
    return mp.sqrt(sum(abs(z) ** 2 for z in v))


def scale(t: MatrixFunction, lam: complex, order=0) -> float:
    """nu = sum_i |f_i^(order)(lam)| ||A_i||_F, the size of T^(order)(lam)'s rounding errors.

    Evaluating sum_i f_i A_i in floating point errs by a few units of
    roundoff u times |f_i| |A_i| per term and entry, so by O(u nu) in the
    Frobenius norm, and a matrix's 2-norm is at most nu.
    """
    with mp.workdps(DIGITS):
        lam = mp.mpc(lam)
        return float(sum(abs(derivative(fn, lam, order)) * mp.norm(_matrix(a), 2)
                         for fn, a in t.terms))


def context_scalars(t: MatrixFunction, x_star, w, lambda_star: complex, mu: complex) -> dict:
    """The case context's scalars and the witness norm at 40 digits.

    Keys are the CaseContext names norm_T_star, norm_T_prime, norm_T_mu,
    sigma_min_L_star, norm_L_prime and sigma_min_L_mu, plus norm_E for
    ||E(l*)||.  L, the compression of T against the complement of x*, is
    taken through P = I - x* x*^H / (x*^H x*): P T P has L's singular values
    and one more 0, so sigma_min(L) is its second-smallest and ||L'|| the
    largest of P T' P.  E(l*) is rank one, so with u = W^H x*, x_out =
    x* - W u and eps = ||x_out||, ||E(l*)|| = ||W^H T(l*) x_out|| ||u|| /
    (1 - eps^2).
    """
    with mp.workdps(DIGITS):
        lam, mu = mp.mpc(lambda_star), mp.mpc(mu)
        x, wm = _matrix(x_star), _matrix(w)
        p = mp.eye(t.n) - x * x.H / (x.H * x)[0]
        t_star, t_prime, t_mu = matrix(t, lam), matrix(t, lam, 1), matrix(t, mu)
        u = wm.H * x
        x_out = x - wm * u
        eps = _norm(x_out)
        values = {
            "norm_T_star": _singular_values(t_star)[0],
            "norm_T_prime": _singular_values(t_prime)[0],
            "norm_T_mu": _singular_values(t_mu)[0],
            "sigma_min_L_star": _singular_values(p * t_star * p)[-2],
            "norm_L_prime": _singular_values(p * t_prime * p)[0],
            "sigma_min_L_mu": _singular_values(p * t_mu * p)[-2],
            "norm_E": _norm(wm.H * t_star * x_out) * _norm(u) / (1 - eps**2),
        }
        return {k: float(v) for k, v in values.items()}


def eigenvalue_error(t: MatrixFunction, mu: complex) -> float:
    """|mu - mu_40|, mu_40 the eigenvalue of t that findroot on det T reaches from mu.

    The root is found and the difference taken at DIGITS digits, so the
    result is mu's own error, not the rounding of mu_40 to a double.
    """
    with mp.workdps(DIGITS):
        start = mp.mpc(mu)
        root = mp.findroot(lambda z: det(t, z), start)
        return float(abs(start - root))
