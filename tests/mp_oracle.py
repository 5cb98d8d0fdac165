"""40-digit reference values on mpmath, for tests only.

A problem is taken exactly as the pipeline holds it: every float entry and
coefficient converts to mpmath without rounding, so a reference value
differs from the exact one of those float inputs only by the 40-digit
arithmetic.  The pipeline's error is then measured against the problem it
was given, not against a perturbed one.
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


def det(t: MatrixFunction, lam):
    """det T(lam) at the working precision."""
    total = mp.zeros(t.n, t.n)
    for fn, a in t.terms:
        total += scalar(fn, lam) * mp.matrix([[mp.mpc(z) for z in row] for row in a])
    return mp.det(total)


def eigenvalue_error(t: MatrixFunction, mu: complex) -> float:
    """|mu - mu_40|, mu_40 the eigenvalue of t that findroot on det T reaches from mu.

    The root is found and the difference taken at DIGITS digits, so the
    result is mu's own error, not the rounding of mu_40 to a double.
    """
    with mp.workdps(DIGITS):
        start = mp.mpc(mu)
        root = mp.findroot(lambda z: det(t, z), start)
        return float(abs(start - root))
