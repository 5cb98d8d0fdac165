"""Analytic matrix-valued functions T(lambda) = sum_i f_i(lambda) A_i.

Scalar terms come in three variants (polynomial, rational, exponential) that
cover the problem classes of interest while staying serializable.  All
derivatives are computed analytically term-wise -- never by finite
differences -- so downstream bound evaluators are not polluted by truncation
error.  The same holds for the second-order Taylor remainders of the terms,
which are formed without the cancellation of f(l + h) - f(l) - f'(l) h.

Every term has one evaluator, eval_many, which takes a whole point set as
one array pass; eval_T is eval_T_many at a single point, so T has one
evaluation path.  A point's value does not depend on the other points of its
stack.  The helpers _cmul and _cdiv make that hold for the terms: they form
complex products and quotients from real numpy operations rounded one at a
time, as Python's complex arithmetic rounds them, where numpy's vectorized
complex multiply and divide may fuse or reorder depending on the stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from math import comb, factorial
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from .dense_kernels import (
    as_finite_scalar, as_length, as_matrix, as_unit_vector, as_vector, complement_compress,
    norm2, require_integer, singular_values)
from .errors import PoleHit

MAX_POLY_DEGREE = 32
MAX_DERIV_ORDER = 8
# points per circle of the Taylor-remainder estimate, and the circle they lie on
REMAINDER_SAMPLES = 16
_UNIT_CIRCLE = np.exp(2j * np.pi * np.arange(REMAINDER_SAMPLES) / REMAINDER_SAMPLES)
# phi_2(z) = (e^z - 1 - z)/z^2 comes from its Taylor series below this |z|;
# 17 terms leave a truncation error under 1e-20 there
PHI2_SERIES_RADIUS = 0.5
_PHI2_SERIES = np.array([1.0 / factorial(k + 2) for k in range(17)])


def _as_coeffs(c) -> np.ndarray:
    a = np.atleast_1d(np.asarray(c, dtype=complex))
    if a.ndim != 1 or a.size == 0:
        raise ValueError("coefficients must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("coefficients must be finite")
    # strip trailing zeros but keep at least the constant term
    nz = np.nonzero(a)[0]
    return a[: nz[-1] + 1] if nz.size else a[:1]


@dataclass(frozen=True, eq=False)
class Polynomial:
    """c_0 + c_1 lam + ... + c_d lam^d, coefficients ascending."""

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _as_coeffs(self.coefficients))
        if self.degree > MAX_POLY_DEGREE:
            raise ValueError(f"degree {self.degree} exceeds desk-scale limit {MAX_POLY_DEGREE}")

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def eval_many(self, lams: np.ndarray, order: int = 0) -> np.ndarray:
        """Derivative of order k at each point of lams, by Horner's rule."""
        return _horner(_nth_der(self.coefficients, order), lams)

    def remainder(self, lam: complex, h) -> np.ndarray:
        """(f(lam + h) - f(lam) - f'(lam) h) / h^2 for each step in h.

        The Taylor shift of the coefficients to lam keeps those of h^2 and up.
        """
        return _from_h2(_taylor_shift(self.coefficients, lam), h)

    def poles(self) -> list[complex]:
        return []


@dataclass(frozen=True, eq=False)
class Rational:
    """p(lam)/q(lam) with polynomial coefficient arrays, ascending."""

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "numerator", _as_coeffs(self.numerator))
        object.__setattr__(self, "denominator", _as_coeffs(self.denominator))
        q = self.denominator
        if q.size == 1 and q[0] == 0:
            raise ValueError("rational denominator is identically zero")
        for c in (self.numerator, self.denominator):
            if c.size - 1 > MAX_POLY_DEGREE:
                raise ValueError("rational degree exceeds desk-scale limit")

    def _check_poles(self, lams: np.ndarray) -> np.ndarray:
        """q at each point of lams; PoleHit names the first point on a pole."""
        q = self.denominator
        qval = _horner(q, lams)
        hit = np.abs(qval) < 1e-14 * (1.0 + np.abs(lams) ** (q.size - 1))
        if hit.any():
            raise PoleHit(f"denominator vanishes at lambda = {complex(lams[hit.argmax()])}")
        return qval

    def eval_many(self, lams: np.ndarray, order: int = 0) -> np.ndarray:
        """Derivative of order k at each point of lams, via the Leibniz recurrence on p = f q.

        f^(k) = (p^(k) - sum_{j<k} C(k,j) f^(j) q^(k-j)) / q, which avoids the
        exponential degree growth of the symbolic quotient rule.  Each entry
        is rounded as the same recurrence in Python complex arithmetic, where
        the integer C(k,j) multiplies as the complex C(k,j) + 0j.  A point on
        a pole raises PoleHit for the whole stack.
        """
        qd = [self._check_poles(lams)]
        qd += [_horner(_nth_der(self.denominator, j), lams) for j in range(1, order + 1)]
        pd = [_horner(_nth_der(self.numerator, j), lams) for j in range(order + 1)]
        f = [_cdiv(pd[0], qd[0])]
        for k in range(1, order + 1):
            acc = pd[k]
            for j in range(k):
                acc = acc - _cmul(_cmul(complex(comb(k, j)), f[j]), qd[k - j])
            f.append(_cdiv(acc, qd[0]))
        return f[order]

    def remainder(self, lam: complex, h) -> np.ndarray:
        """(f(lam + h) - f(lam) - f'(lam) h) / h^2 for each step in h.

        With P, Q the numerator and denominator shifted to lam and
        f_0 + f_1 h the tangent, N = P - (f_0 + f_1 h) Q vanishes to second
        order, so its coefficients from h^2 up, over Q(h), give the remainder.
        """
        self._check_poles(np.array([lam], dtype=complex))
        p = _taylor_shift(self.numerator, lam)
        q = _taylor_shift(self.denominator, lam)
        f0 = p[0] / q[0]
        f1 = ((p[1] if p.size > 1 else 0.0) - f0 * (q[1] if q.size > 1 else 0.0)) / q[0]
        nc = np.zeros(max(p.size, q.size + 1), dtype=complex)
        nc[:p.size] += p
        nc[:q.size] -= f0 * q
        nc[1:q.size + 1] -= f1 * q
        h = np.asarray(h, dtype=complex)
        return _from_h2(nc, h) / npoly.polyval(h, q)

    def poles(self) -> list[complex]:
        return list(self._roots)

    @cached_property
    def _roots(self) -> tuple[complex, ...]:
        """The roots of q, found on first use and kept: the function is frozen."""
        q = self.denominator
        return tuple(complex(r) for r in npoly.polyroots(q)) if q.size > 1 else ()


@dataclass(frozen=True)
class Exponential:
    """exp(a lam) for a fixed complex scale a."""

    scale: complex

    def __post_init__(self):
        object.__setattr__(self, "scale", as_finite_scalar(self.scale, "scale"))

    def eval_many(self, lams: np.ndarray, order: int = 0) -> np.ndarray:
        """a^k exp(a lam), the derivative of order k, at each point of lams."""
        return _cmul(self.scale ** order, np.exp(_cmul(self.scale, lams)))

    def remainder(self, lam: complex, h) -> np.ndarray:
        """(f(lam + h) - f(lam) - f'(lam) h) / h^2 = e^(a lam) a^2 phi_2(a h)."""
        a = self.scale
        return a * a * np.exp(a * lam) * _phi2(a * np.asarray(h, dtype=complex))

    def poles(self) -> list[complex]:
        return []


ScalarAnalyticFn = Polynomial | Rational | Exponential


def _cmul(a, b) -> np.ndarray:
    """a * b elementwise (a or b an array), rounded as a scalar complex product.

    Each real product and sum is rounded on its own, as in Python's (and
    numpy's scalar) complex product.  numpy's vectorized complex multiply may
    fuse multiply-adds and differ in the last bit; this keeps each entry
    independent of the stack it is in, and equal to the same product in
    Python complex arithmetic, which the lone-run oracles of the tests use.
    """
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b elementwise for arrays of one shape, rounded as Python's complex quotient.

    That quotient (CPython 3.10 to 3.13) is Smith's algorithm: divide
    through by whichever part of b is larger in magnitude (the real part on
    a tie).  Here the two branches are one pass: ratio = small / big, and
    the factors r1, r2 are (1, ratio) or (ratio, 1), so every product and
    sum is the one the branch forms (x * 1.0 is exactly x).  Overflow,
    underflow and a NaN operand pass silently, as in the scalar quotient;
    b must be nonzero.  So each entry is independent of the stack it is in,
    and equal to the same quotient in Python complex arithmetic.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):
        ratio = np.where(by_real, bi, br) / np.where(by_real, br, bi)
        r1 = np.where(by_real, 1.0, ratio)
        r2 = np.where(by_real, ratio, 1.0)
        denom = br * r1 + bi * r2
        out = np.empty(denom.shape, dtype=complex)
        out.real = (ar * r1 + ai * r2) / denom
        out.imag = (ai * r1 - ar * r2) / denom
    return out


def _horner(c: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sum_k c_k lam^k at each point of lams: npoly.polyval's Horner steps with scalar products."""
    acc = np.full(lams.shape, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        acc = ck + _cmul(acc, lams)
    return acc


def _nth_der(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Ascending coefficients of the order-th derivative, k c_k as polyder forms them."""
    c = coeffs
    for _ in range(order):
        c = c[1:] * np.arange(1, c.size) if c.size > 1 else c[:1] * 0
    return c


def _taylor_shift(coeffs: np.ndarray, x0: complex) -> np.ndarray:
    """Coefficients of p(x0 + h) in h, ascending, by repeated synthetic division."""
    b = np.array(coeffs, dtype=complex)
    d = b.size - 1
    for k in range(d):
        for j in range(d - 1, k - 1, -1):
            b[j] += x0 * b[j + 1]
    return b


def _from_h2(coeffs: np.ndarray, h) -> np.ndarray:
    """sum_{k >= 2} c_k h^(k-2) for each step in h (zero when deg < 2)."""
    h = np.asarray(h, dtype=complex)
    if coeffs.size <= 2:
        return np.zeros(h.shape, dtype=complex)
    return npoly.polyval(h, coeffs[2:])


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z) / z^2 elementwise, from its series near 0."""
    out = np.empty(z.shape, dtype=complex)
    near = np.abs(z) < PHI2_SERIES_RADIUS
    out[near] = npoly.polyval(z[near], _PHI2_SERIES)
    far = z[~near]
    out[~near] = (np.expm1(far) - far) / (far * far)
    return out


def _dedupe_points(points: list[complex]) -> list[complex]:
    """points sorted, less each that lies within 1e-10 of the last one kept."""
    out: list[complex] = []
    for p in sorted(points, key=lambda z: (z.real, z.imag)):
        if not out or abs(p - out[-1]) > 1e-10:
            out.append(p)
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TargetValues:
    """What bounds read of T at a target (lambda_star, x_star) for any subspace; read-only.

    L = X_perp^H T X_perp is T compressed against x_star's complement
    (dense_kernels.complement_compress); complement_norms holds each term's
    coefficient so compressed, in 2-norm, which beta reads when one term is
    nonlinear (taylor_remainder_const).
    """

    lambda_star: complex
    x_star: np.ndarray
    t_star: np.ndarray
    t_star_svals: np.ndarray    # singular values of T(l*), descending
    norm_T_prime: float         # ||T'(l*)||
    sigma_min_L_star: float     # sigma_min(L(l*))
    norm_L_prime: float         # ||L'(l*)||
    complement_norms: np.ndarray  # ||(H A_i H)[1:, 1:]||_2 of every term

    @property
    def norm_T_star(self) -> float:
        return float(self.t_star_svals[0])


@dataclass(frozen=True, eq=False)
class MatrixFunction:
    """T(lambda) = sum_i f_i(lambda) A_i with constant n x n coefficients.

    terms is the one field it is built from, by the constructor, from_terms,
    compress or dataclasses.replace alike: each coefficient is stored as a
    read-only copy, so nothing read off them can go stale, and n and
    domain_poles are derived from the terms.
    """

    terms: tuple[tuple[ScalarAnalyticFn, np.ndarray], ...]
    n: int = field(init=False)
    domain_poles: tuple[complex, ...] = field(init=False)

    def __post_init__(self):
        fixed = []
        for i, (fn, a) in enumerate(self.terms):
            if not isinstance(fn, ScalarAnalyticFn):
                raise TypeError(f"term {i} has an unknown scalar function {fn!r}")
            mat = as_matrix(np.array(a, dtype=complex))  # a copy, whatever the caller passed
            n = fixed[0][1].shape[0] if fixed else mat.shape[0]
            if mat.shape != (n, n):
                raise ValueError(f"coefficient {i} has shape {mat.shape}, not n x n with n = {n}")
            fixed.append((fn, _read_only(mat)))
        if not fixed:
            raise ValueError("a MatrixFunction needs at least one term")
        object.__setattr__(self, "terms", tuple(fixed))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "domain_poles", tuple(
            _dedupe_points([p for fn, _ in fixed for p in fn.poles()])))

    @classmethod
    def from_terms(cls, terms) -> "MatrixFunction":
        """The constructor over any iterable of (function, coefficient) pairs."""
        return cls(tuple(terms))

    def compress(self, v: np.ndarray) -> "MatrixFunction":
        """Two-sided compression V^H A_i V of every term; scalars, and so poles, unchanged."""
        v = as_matrix(v)
        if v.shape[0] != self.n:
            raise ValueError("compression basis has the wrong row dimension")
        return MatrixFunction(tuple((fn, v.conj().T @ a @ v) for fn, a in self.terms))

    @cached_property
    def coefficient_norms(self) -> np.ndarray:
        """||A_i||_2 of every term, in term order, as a read-only array.

        One batched norm2 over the stacked coefficients, on first use: norm2
        gives each matrix of a stack the value it gets alone, so entry i is
        norm2(A_i) bit for bit.  It depends on the problem alone, so each
        MatrixFunction measures it once (dataclasses.replace makes a new one,
        with its own norms).
        """
        return _read_only(norm2(np.stack([a for _, a in self.terms])))

    def target_values(self, lambda_star: complex, x_star) -> TargetValues:
        """T's TargetValues at (lambda_star, x_star), measured once while the target stays.

        One singular_values call on [T(l*), T'(l*)] and one on its
        complement_compress(x_star, .) blocks, L(l*) and L'(l*), and one
        norm2 of each coefficient's block, complement_norms[i] =
        norm2(complement_compress(x_star, A_i)); a term at a time, so a large
        T's blocks are not all held at once.  One slot keeps the last
        target's record, keyed by lambda_star and x_star's bytes, compared
        bit for bit; another target replaces it.  It cannot go stale: the
        coefficients are read-only copies.
        """
        lam, x = complex(lambda_star), as_vector(x_star)
        key = np.complex128(lam).tobytes() + x.tobytes()
        kept = vars(self).get("_target")
        if kept is None or kept[0] != key:
            stack = np.stack([eval_T(self, lam, 0), eval_T(self, lam, 1)])
            t_svals = singular_values(stack)
            l_svals = singular_values(complement_compress(x, stack))
            kept = vars(self)["_target"] = (key, TargetValues(
                lam, _read_only(x.copy()), _read_only(stack[0].copy()), _read_only(t_svals[0]),
                float(t_svals[1, 0]), float(l_svals[0, -1]), float(l_svals[1, 0]),
                _read_only(np.array([norm2(complement_compress(x, a)) for _, a in self.terms]))))
        return kept[1]


def eval_T(t: MatrixFunction, lam: complex, order: int = 0) -> np.ndarray:
    """sum_i f_i^(order)(lam) A_i; propagates PoleHit from rational terms."""
    return eval_T_many(t, [lam], order)[0]


def eval_T_many(t: MatrixFunction, lams, order: int = 0) -> np.ndarray:
    """sum_i f_i^(order)(lam) A_i at each point of lams, stacked to shape (len(lams), n, n).

    Each product f_i(lam_j) A_i is a row of the outer product of the term
    values with the flattened A_i, which numpy rounds the same for any
    number of points and any n (a broadcast against the (n, n) matrices
    does not: it rounds a one-point stack of 1 x 1 matrices differently).
    So slice j is bit-equal in every stack that holds lams[j], eval_T's
    one-point stack included.  A point on a pole of a rational term raises
    PoleHit for the whole stack.  order must be an integer (a bool is none)
    in [0, MAX_DERIV_ORDER], or ValueError names it.
    """
    require_integer("order", order, 0, MAX_DERIV_ORDER)
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    out = np.zeros((lams.size, t.n * t.n), dtype=complex)
    for fn, a in t.terms:
        out += fn.eval_many(lams, order)[:, None] * a.reshape(1, -1)
    return out.reshape(lams.size, t.n, t.n)


def taylor_remainder_const(
    t: MatrixFunction, lambda_star: complex, radius: float, *maps,
) -> tuple[float, ...]:
    """Estimate uniform bounds on the second-order Taylor remainders of t and of compressions of it.

    For t, takes the largest ||T(lam) - T(l*) - T'(l*) h|| / |h|^2,
    h = lam - l*, over REMAINDER_SAMPLES points on each of three concentric
    circles (radius/4, radius/2, radius) and returns 1.5x it.  The 1.5
    safety factor compensates for angular gaps between samples and is
    recorded by callers in their reports.  Each map is a linear map of
    n x n matrices that takes a stack (k, n, n) to a stack of its images,
    such as the compression M -> W^H M W; it gets the same estimate for the
    function lam -> map(T(lam)), whose remainder is the map of T's.  A map
    may come as a pair (map, norms) whose norms[i] is norm2(map(A_i)) for
    every term i, measured once elsewhere, as TargetValues.complement_norms
    is for L.  The result holds one constant for t, then one per map, in
    that order.

    The remainder over h^2 is sum_i rho_i(h) A_i with rho_i the scalar
    remainders of the terms, which are exact rather than differences of
    matrices: a linear T gives exactly 0, with no u ||T|| / radius^2
    cancellation floor.  Terms whose rho_i is zero at every sample (the
    affine ones, where it vanishes identically) are dropped.  Each sample's
    row c = (rho_i(h)) is written as piv * d with piv its entry of largest
    modulus, so ||sum c_i A_i|| = |piv| ||sum d_i A_i||.  With one
    nonlinear term A_k every d is exactly (1): the stack is A_k alone, t's
    norm is t.coefficient_norms[k], measured once per problem, a pair's is
    its norms[k], and any other map costs a single 2-norm.  With more, each
    live sample (piv != 0) puts its direction sum_i d_i A_i into one stack,
    and t and each map, a pair's included, cost one batched norm2 over it
    or its image.  Equal directions give equal matrices and so equal norms,
    so nothing is deduplicated.

    A non-finite lambda_star or a radius outside (0, inf) raises ValueError.
    """
    radius = as_length(radius, "radius")
    lambda_star = as_finite_scalar(lambda_star, "lambda_star")
    for pole in t.domain_poles:
        if abs(pole - lambda_star) <= radius * (1 + 1e-12):
            raise PoleHit(f"pole {pole} inside sampling disc of radius {radius}")
    h = np.concatenate([r * _UNIT_CIRCLE for r in (radius / 4.0, radius / 2.0, radius)])
    rho = np.column_stack([fn.remainder(lambda_star, h) for fn, _ in t.terms])
    kept = np.flatnonzero(np.any(rho != 0, axis=0))
    if kept.size == 0:
        return (0.0,) * (1 + len(maps))
    maps = [m if isinstance(m, tuple) else (m, None) for m in maps]
    # |piv| as abs() of a scalar rounds it: np.abs of a complex array may not
    if kept.size == 1:
        k = kept[0]
        piv = rho[:, k]
        scale = np.hypot(piv.real, piv.imag).max()
        stack = t.terms[k][1][None]
        norms = [t.coefficient_norms[k:k + 1], *(
            norm2(f(stack)) if known is None else known[k:k + 1] for f, known in maps)]
    else:
        rho = rho[:, kept]
        rows, big = np.arange(h.size), np.argmax(np.abs(rho), axis=1)
        piv = rho[rows, big]
        dirs = rho / np.where(piv == 0, 1.0, piv)[:, None]
        dirs[rows, big] = 1.0  # exactly: a complex x / x can round away from 1
        live = piv != 0
        scale = np.hypot(piv.real, piv.imag)[live]
        stack = np.tensordot(dirs[live], np.stack([t.terms[i][1] for i in kept]), axes=1)
        norms = [norm2(stack), *(norm2(f(stack)) for f, _ in maps)]
    return tuple(1.5 * np.max(scale * nrm) for nrm in norms)


@dataclass(frozen=True, eq=False)
class ReferencePair:
    """A known simple eigenpair (lambda_star, x_star), ground truth; x_star a read-only copy."""

    lambda_star: complex
    x_star: np.ndarray

    def __post_init__(self):
        x = _read_only(np.array(as_unit_vector(self.x_star, "x_star")))
        object.__setattr__(self, "lambda_star", as_finite_scalar(self.lambda_star, "lambda_star"))
        object.__setattr__(self, "x_star", x)

    def validate(self, t: MatrixFunction) -> None:
        """Check this really is an eigenpair of t, of its size, not at a pole, T finite there."""
        if self.x_star.size != t.n:
            raise ValueError(f"x_star has {self.x_star.size} entries, not n = {t.n}")
        for pole in t.domain_poles:
            if abs(pole - self.lambda_star) < 1e-10:
                raise PoleHit("lambda_star coincides with a domain pole")
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            t0 = eval_T(t, self.lambda_star, 0)
        if not np.isfinite(t0).all():
            raise ValueError(f"T(lambda_star) is not finite at lambda_star = {self.lambda_star}")
        res = np.linalg.norm(t0 @ self.x_star)
        if res > 1e-10 * max(norm2(t0), 1e-300):
            raise ValueError(f"(lambda_star, x_star) is not an eigenpair (residual {res:.3e})")


# ---------------------------------------------------------------------------
# problem file format (JSON)
# ---------------------------------------------------------------------------

_TERM_TYPES = {cls.__name__.lower(): cls for cls in (Polynomial, Rational, Exponential)}


def _to_json(value):
    """A complex scalar as [re, im]; an array as the flat list of its entries' pairs."""
    if isinstance(value, np.ndarray):
        return [_to_json(z) for z in value.ravel()]
    z = complex(value)
    return [z.real, z.imag]


def _from_json(value, scalar: bool, name: str):
    """A complex scalar from one [re, im] pair, or a 1-D array from a list of them.

    A pair is exactly two JSON numbers, and float(True) is 1.0, so a boolean
    is no number here.  Anything else raises ValueError naming the field.
    """
    if not scalar:
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list of [re, im] pairs")
        return np.array([_from_json(p, True, name) for p in value], dtype=complex)
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{name} holds {value!r}, not a [re, im] pair of two numbers")
    return complex(value[0], value[1])


def _fields_to_json(obj) -> dict:
    return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}


def _fields_from_json(cls, d: dict, name: str):
    """cls from its fields' pairs: a complex field is one pair, an np.ndarray a list of them."""
    return cls(**{f.name: _from_json(d[f.name], f.type == "complex", f"{name}.{f.name}")
                  for f in fields(cls)})


def problem_to_dict(t: MatrixFunction, ref: ReferencePair | None = None) -> dict:
    terms = [{"fn": {"type": next(k for k, cls in _TERM_TYPES.items() if isinstance(fn, cls)),
                     **_fields_to_json(fn)}, "matrix": _to_json(a)} for fn, a in t.terms]
    doc = {"n": t.n, "terms": terms}
    if ref is not None:
        doc["reference"] = _fields_to_json(ref)
    return doc


def problem_from_dict(doc: dict) -> tuple[MatrixFunction, ReferencePair | None]:
    n = require_integer("n", doc["n"], 1)
    terms = []
    for i, entry in enumerate(doc["terms"]):
        flat = _from_json(entry["matrix"], False, f"terms[{i}].matrix")
        if flat.size != n * n:
            raise ValueError("matrix entry count does not match n*n")
        kind = entry["fn"]["type"]
        cls = _TERM_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"unknown scalar function type {kind!r}")
        terms.append((_fields_from_json(cls, entry["fn"], f"terms[{i}].fn"), flat.reshape(n, n)))
    t = MatrixFunction.from_terms(terms)
    ref = None
    if "reference" in doc and doc["reference"]:
        ref = _fields_from_json(ReferencePair, doc["reference"], "reference")
        ref.validate(t)
    return t, ref


def save_problem(path, t: MatrixFunction, ref: ReferencePair | None = None) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(t, ref), indent=2, sort_keys=True))


def load_problem(path) -> tuple[MatrixFunction, ReferencePair | None]:
    return problem_from_dict(json.loads(Path(path).read_text()))
