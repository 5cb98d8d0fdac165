"""Analytic matrix-valued functions T(lambda) = sum_i f_i(lambda) A_i.

Scalar terms come in three variants (polynomial, rational, exponential) that
cover the problem classes of interest while staying serializable.  All
derivatives are computed analytically term-wise -- never by finite
differences -- so downstream bound evaluators are not polluted by truncation
error.  The same holds for the second-order Taylor remainders of the terms,
which are formed without the cancellation of f(l + h) - f(l) - f'(l) h.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb, factorial
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from .dense_kernels import as_matrix, as_vector, norm2, singular_values
from .errors import PoleHit

MAX_POLY_DEGREE = 32
MAX_DERIV_ORDER = 8
# points per circle of the Taylor-remainder estimate
REMAINDER_SAMPLES = 16
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


@dataclass(frozen=True)
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

    def eval(self, lam: complex, order: int = 0) -> complex:
        return complex(npoly.polyval(lam, _nth_der(self.coefficients, order)))

    def eval_many(self, lams: np.ndarray, order: int = 0) -> np.ndarray:
        """eval at each point of lams: npoly.polyval's Horner steps with scalar products."""
        c = _nth_der(self.coefficients, order)
        acc = np.full(lams.shape, c[-1], dtype=complex)
        for ck in c[-2::-1]:
            acc = ck + _cmul(acc, lams)
        return acc

    def remainder(self, lam: complex, h) -> np.ndarray:
        """(f(lam + h) - f(lam) - f'(lam) h) / h^2 for each step in h.

        The Taylor shift of the coefficients to lam keeps those of h^2 and up.
        """
        return _from_h2(_taylor_shift(self.coefficients, lam), h)

    def poles(self) -> list[complex]:
        return []


@dataclass(frozen=True)
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

    def _check_pole(self, lam: complex) -> complex:
        q = self.denominator
        qval = complex(npoly.polyval(lam, q))
        if abs(qval) < 1e-14 * (1.0 + abs(lam) ** (q.size - 1)):
            raise PoleHit(f"denominator vanishes at lambda = {lam}")
        return qval

    def eval(self, lam: complex, order: int = 0) -> complex:
        """Derivative of order k via the Leibniz recurrence on p = f q.

        f^(k) = (p^(k) - sum_{j<k} C(k,j) f^(j) q^(k-j)) / q, which avoids the
        exponential degree growth of the symbolic quotient rule.
        """
        self._check_pole(lam)
        p, q = self.numerator, self.denominator
        pd = [complex(npoly.polyval(lam, _nth_der(p, j))) for j in range(order + 1)]
        qd = [complex(npoly.polyval(lam, _nth_der(q, j))) for j in range(order + 1)]
        f = [pd[0] / qd[0]]
        for k in range(1, order + 1):
            acc = pd[k]
            for j in range(k):
                acc -= comb(k, j) * f[j] * qd[k - j]
            f.append(acc / qd[0])
        return f[order]

    def eval_many(self, lams: np.ndarray, order: int = 0) -> np.ndarray:
        """eval at each point of lams, one scalar call per point."""
        return np.array([self.eval(complex(lam), order) for lam in lams], dtype=complex)

    def remainder(self, lam: complex, h) -> np.ndarray:
        """(f(lam + h) - f(lam) - f'(lam) h) / h^2 for each step in h.

        With P, Q the numerator and denominator shifted to lam and
        f_0 + f_1 h the tangent, N = P - (f_0 + f_1 h) Q vanishes to second
        order, so its coefficients from h^2 up, over Q(h), give the remainder.
        """
        self._check_pole(lam)
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
        q = self.denominator
        if q.size == 1:
            return []
        return [complex(r) for r in npoly.polyroots(q)]


@dataclass(frozen=True)
class Exponential:
    """exp(a lam) for a fixed complex scale a."""

    scale: complex

    def __post_init__(self):
        object.__setattr__(self, "scale", complex(self.scale))
        if not np.isfinite(self.scale.real) or not np.isfinite(self.scale.imag):
            raise ValueError("exponential scale must be finite")

    def eval(self, lam: complex, order: int = 0) -> complex:
        return self.scale ** order * np.exp(self.scale * lam)

    def eval_many(self, lams: np.ndarray, order: int = 0) -> np.ndarray:
        """eval at each point of lams, with scalar products."""
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
    fuse multiply-adds and differ in the last bit; this keeps each eval_many
    entry equal to its eval call.
    """
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


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


def eval_fn(f: ScalarAnalyticFn, lam: complex, order: int = 0) -> complex:
    """order-th analytic derivative of a scalar term at lam."""
    if not 0 <= order <= MAX_DERIV_ORDER:
        raise ValueError(f"order must be in [0, {MAX_DERIV_ORDER}]")
    return f.eval(complex(lam), order)


def _dedupe_points(points: list[complex], tol: float = 1e-10) -> list[complex]:
    out: list[complex] = []
    for p in sorted(points, key=lambda z: (z.real, z.imag)):
        if not out or abs(p - out[-1]) > tol:
            out.append(p)
    return out


@dataclass(frozen=True)
class MatrixFunction:
    """T(lambda) = sum_i f_i(lambda) A_i with constant n x n coefficients."""

    n: int
    terms: tuple[tuple[ScalarAnalyticFn, np.ndarray], ...]
    domain_poles: tuple[complex, ...] = field(default=())

    @classmethod
    def from_terms(cls, terms) -> "MatrixFunction":
        if not terms:
            raise ValueError("a MatrixFunction needs at least one term")
        fixed = []
        n = None
        poles: list[complex] = []
        for fn, a in terms:
            mat = as_matrix(a)
            if mat.shape[0] != mat.shape[1]:
                raise ValueError("coefficient matrices must be square")
            if n is None:
                n = mat.shape[0]
            elif mat.shape[0] != n:
                raise ValueError("all coefficient matrices must share one dimension")
            fixed.append((fn, mat))
            poles.extend(fn.poles())
        return cls(n=n, terms=tuple(fixed), domain_poles=tuple(_dedupe_points(poles)))

    def __call__(self, lam: complex, order: int = 0) -> np.ndarray:
        return eval_T(self, lam, order)

    def compress(self, v: np.ndarray) -> "MatrixFunction":
        """Two-sided compression V^H A_i V of every term; scalars unchanged."""
        v = as_matrix(v)
        if v.shape[0] != self.n:
            raise ValueError("compression basis has the wrong row dimension")
        return MatrixFunction.from_terms(
            [(fn, v.conj().T @ a @ v) for fn, a in self.terms]
        )


def eval_T(t: MatrixFunction, lam: complex, order: int = 0) -> np.ndarray:
    """sum_i f_i^(order)(lam) A_i; propagates PoleHit from rational terms."""
    lam = complex(lam)
    out = np.zeros((t.n, t.n), dtype=complex)
    for fn, a in t.terms:
        out += eval_fn(fn, lam, order) * a
    return out


def eval_T_many(t: MatrixFunction, lams, order: int = 0) -> np.ndarray:
    """eval_T at each of the points lams, stacked to shape (len(lams), n, n).

    The term loop and per-term arithmetic are eval_T's, so slice j is
    bit-equal to eval_T(t, lams[j], order).  A point on a pole of a rational
    term raises PoleHit for the whole stack.
    """
    if not 0 <= order <= MAX_DERIV_ORDER:
        raise ValueError(f"order must be in [0, {MAX_DERIV_ORDER}]")
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    out = np.zeros((lams.size, t.n, t.n), dtype=complex)
    for fn, a in t.terms:
        out += fn.eval_many(lams, order)[:, None, None] * a
    return out


def taylor_remainder_const(t: MatrixFunction, lambda_star: complex, radius: float) -> float:
    """Estimate a uniform bound on the second-order Taylor remainder.

    Takes the largest ||T(lam) - T(l*) - T'(l*) h|| / |h|^2, h = lam - l*,
    over REMAINDER_SAMPLES points on each of three concentric circles
    (radius/4, radius/2, radius) and returns 1.5x it.  The 1.5 safety factor
    compensates for angular gaps between samples and is recorded by callers
    in their reports.

    The remainder over h^2 is sum_i rho_i(h) A_i with rho_i the scalar
    remainders of the terms, which are exact rather than differences of
    matrices: a linear T gives exactly 0, with no u ||T|| / radius^2
    cancellation floor.  Terms whose rho_i is zero at every sample (the
    affine ones, where it vanishes identically) are dropped.  Each sample's
    row c = (rho_i(h)) is written as piv * d with piv its entry of largest
    modulus, so ||sum c_i A_i|| = |piv| ||sum d_i A_i||, and samples with
    the same direction d share one 2-norm; the directions a circle adds go
    through one batched singular-value call.  With one nonlinear term every
    d is (1), and the estimate costs a single 2-norm.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    lambda_star = complex(lambda_star)
    for pole in t.domain_poles:
        if abs(pole - lambda_star) <= radius * (1 + 1e-12):
            raise PoleHit(f"pole {pole} inside sampling disc of radius {radius}")
    unit = np.exp(2j * np.pi * np.arange(REMAINDER_SAMPLES) / REMAINDER_SAMPLES)
    h = np.concatenate([r * unit for r in (radius / 4.0, radius / 2.0, radius)])
    rho = np.column_stack([fn.remainder(lambda_star, h) for fn, _ in t.terms])
    kept = np.flatnonzero(np.any(rho != 0, axis=0))
    if kept.size == 0:
        return 0.0
    rho = rho[:, kept]
    coeffs = np.stack([t.terms[i][1] for i in kept])
    rows, big = np.arange(h.size), np.argmax(np.abs(rho), axis=1)
    piv = rho[rows, big]
    dirs = rho / np.where(piv == 0, 1.0, piv)[:, None]
    dirs[rows, big] = 1.0  # exactly: a complex x / x can round away from 1
    keys = [d.tobytes() for d in dirs]
    norms: dict[bytes, float] = {}
    for circle in np.split(rows, 3):
        fresh = {keys[k]: dirs[k] for k in circle if piv[k] != 0 and keys[k] not in norms}
        if fresh:
            stack = np.tensordot(np.array(list(fresh.values())), coeffs, axes=1)
            norms.update(zip(fresh, singular_values(stack)[:, 0].tolist()))
    worst = max((abs(piv[k]) * norms[keys[k]] for k in rows if piv[k] != 0), default=0.0)
    return 1.5 * worst


@dataclass(frozen=True)
class ReferencePair:
    """A known simple eigenpair (lambda_star, x_star) used as ground truth."""

    lambda_star: complex
    x_star: np.ndarray

    def __post_init__(self):
        x = as_vector(self.x_star)
        nrm = np.linalg.norm(x)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"x_star must be unit norm (got {nrm})")
        object.__setattr__(self, "lambda_star", complex(self.lambda_star))
        object.__setattr__(self, "x_star", x)

    def validate(self, t: MatrixFunction) -> None:
        """Check this really is an eigenpair of t and not at a pole."""
        for pole in t.domain_poles:
            if abs(pole - self.lambda_star) < 1e-10:
                raise PoleHit("lambda_star coincides with a domain pole")
        t0 = eval_T(t, self.lambda_star, 0)
        res = np.linalg.norm(t0 @ self.x_star)
        if res > 1e-10 * max(norm2(t0), 1e-300):
            raise ValueError(f"(lambda_star, x_star) is not an eigenpair (residual {res:.3e})")


# ---------------------------------------------------------------------------
# problem file format (JSON)
# ---------------------------------------------------------------------------

def _c2j(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _j2c(pair) -> complex:
    return complex(pair[0], pair[1])


def _coeffs2j(c: np.ndarray) -> list[list[float]]:
    return [_c2j(z) for z in np.atleast_1d(c)]


def _j2coeffs(lst) -> np.ndarray:
    return np.array([_j2c(p) for p in lst], dtype=complex)


def _fn_to_json(fn: ScalarAnalyticFn) -> dict:
    if isinstance(fn, Polynomial):
        return {"type": "polynomial", "coefficients": _coeffs2j(fn.coefficients)}
    if isinstance(fn, Rational):
        return {
            "type": "rational",
            "numerator": _coeffs2j(fn.numerator),
            "denominator": _coeffs2j(fn.denominator),
        }
    if isinstance(fn, Exponential):
        return {"type": "exponential", "scale": _c2j(fn.scale)}
    raise TypeError(f"unknown scalar function {fn!r}")


def _fn_from_json(d: dict) -> ScalarAnalyticFn:
    kind = d["type"]
    if kind == "polynomial":
        return Polynomial(_j2coeffs(d["coefficients"]))
    if kind == "rational":
        return Rational(_j2coeffs(d["numerator"]), _j2coeffs(d["denominator"]))
    if kind == "exponential":
        return Exponential(_j2c(d["scale"]))
    raise ValueError(f"unknown scalar function type {kind!r}")


def problem_to_dict(t: MatrixFunction, ref: ReferencePair | None = None) -> dict:
    doc = {
        "n": t.n,
        "terms": [
            {"fn": _fn_to_json(fn), "matrix": [_c2j(z) for z in a.ravel()]}
            for fn, a in t.terms
        ],
    }
    if ref is not None:
        doc["reference"] = {
            "lambda_star": _c2j(ref.lambda_star),
            "x_star": [_c2j(z) for z in ref.x_star],
        }
    return doc


def problem_from_dict(doc: dict) -> tuple[MatrixFunction, ReferencePair | None]:
    n = int(doc["n"])
    terms = []
    for entry in doc["terms"]:
        flat = _j2coeffs(entry["matrix"])
        if flat.size != n * n:
            raise ValueError("matrix entry count does not match n*n")
        terms.append((_fn_from_json(entry["fn"]), flat.reshape(n, n)))
    t = MatrixFunction.from_terms(terms)
    ref = None
    if "reference" in doc and doc["reference"]:
        r = doc["reference"]
        ref = ReferencePair(_j2c(r["lambda_star"]), _j2coeffs(r["x_star"]))
        ref.validate(t)
    return t, ref


def save_problem(path, t: MatrixFunction, ref: ReferencePair | None = None) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(t, ref), indent=2, sort_keys=True))


def load_problem(path) -> tuple[MatrixFunction, ReferencePair | None]:
    return problem_from_dict(json.loads(Path(path).read_text()))
