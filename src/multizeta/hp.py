"""Arbitrary-precision scalars, the one bound-propagation rule, and the base
constants everything else consumes.

Inside a module the package computes with raw ``mpmath.mpf`` values in
explicit ``workdps`` contexts and wraps each result into :class:`HPReal` /
:class:`EvalResult` with :func:`wrap_result`.  That convention exists because
mpmath's precision is process-global state: an ``mpf`` produced under one
precision and *combined* with another at ambient precision silently rounds to
whatever ``mp.dps`` happens to be.  Every public entry point here pins its own
working precision (requested digits plus a guard) under a re-entrant lock, so
results are deterministic bit-for-bit regardless of caller state or threading.

Results are combined with one another only through :func:`combine` (a rational
combination of products of results) and its one-term form :func:`scaled`:
they are the only code that derives an error bound from other bounds.  Both
stay out of ``__all__``, like :func:`coerce_prec`: the benchmark's tracer
wraps every function listed there and hashes its arguments, and theirs are
lists and results.

Base constants provided:

* ``zeta_single(s)``   Riemann zeta at integer s >= 2, Euler-Maclaurin with the
  cut point at the working digits and as many Bernoulli corrections as the
  tolerance needs; the first omitted correction bounds the tail, so the
  bound is rigorous and the cost grows polynomially in the digits.
* ``eta(m)``           Dirichlet eta, eta(1) = log 2, else (1 - 2^(1-m)) zeta(m).
* ``beta_fn(m)``       Dirichlet beta via Cohen-Villegas-Zagier acceleration of
  the alternating series (terms (2k+1)^(-m) are totally monotone, so the
  classical (3+sqrt 8)^(-n) error bound is rigorous).
* ``t_single(i)``      odd-denominator zeta value (1 - 2^(-i)) zeta(i).
* ``pi_power(k)``      pi^k for any integer k, as one factor for combine.
* ``psi3_quarter()``   third derivative of digamma at 1/4, computed as
  6 * sum_{n>=0} (n + 1/4)^(-4) by the same Euler-Maclaurin core.

Bernoulli and Euler numbers are kept as exact ``Fraction`` / ``int`` tables and
grown on demand; they feed both the Euler-Maclaurin corrections here and the
exact rational rewrites in the symbolic layer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Union

from mpmath import bernfrac, mp, mpf
from mpmath.libmp import mpf_abs

__all__ = [
    "MIN_PRECISION",
    "Method",
    "HPReal",
    "EvalResult",
    "bernoulli_fraction",
    "euler_number",
    "zeta_single",
    "eta",
    "beta_fn",
    "t_single",
    "psi3_quarter",
    "pi_const",
    "pi_power",
    "log2_const",
]

MIN_PRECISION = 16

# Guard digits carried by every internal computation beyond what the caller
# asked for; rounding noise therefore sits ~10 orders below reported bounds.
GUARD_DIGITS = 10

# mpmath precision state is process-global; all precision changes in this
# package happen under this lock so concurrent callers cannot interleave.
LOCK = threading.RLock()

Number = Union[int, Fraction, "HPReal"]


class Method(Enum):
    """How a numerical result was obtained (used for cross-route checks)."""

    CLOSED_FORM = "ClosedForm"
    SERIES = "Series"
    QUADRATURE = "Quadrature"
    SYMBOLIC = "Symbolic"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def coerce_prec(prec: int) -> int:
    if not isinstance(prec, int) or prec < MIN_PRECISION:
        raise ValueError(f"precision must be an int >= {MIN_PRECISION}, got {prec!r}")
    return prec


@dataclass(frozen=True)
class HPReal:
    """A real number carried at an explicit decimal working precision.

    ``magnitude`` is the underlying mpf (computed with GUARD_DIGITS extra
    digits); ``working_precision`` is the number of decimal digits the value
    is good for.  Arithmetic between two HPReals is performed at the smaller
    of the two precisions (plus guard) and tagged with that precision, so a
    chain of operations can never silently claim more accuracy than its
    weakest input.
    """

    magnitude: mpf
    working_precision: int

    def __post_init__(self) -> None:
        coerce_prec(self.working_precision)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int, prec: int) -> "HPReal":
        coerce_prec(prec)
        with LOCK, mp.workdps(prec + GUARD_DIGITS):
            return HPReal(mpf(n), prec)

    @staticmethod
    def from_fraction(q: Fraction, prec: int) -> "HPReal":
        coerce_prec(prec)
        with LOCK, mp.workdps(prec + GUARD_DIGITS):
            return HPReal(mpf(q.numerator) / q.denominator, prec)

    @staticmethod
    def from_str(s: str, prec: int) -> "HPReal":
        coerce_prec(prec)
        with LOCK, mp.workdps(prec + GUARD_DIGITS):
            return HPReal(mpf(s), prec)

    # -- arithmetic --------------------------------------------------------

    def _other_mpf(self, other: Number, wd: int) -> mpf:
        if isinstance(other, HPReal):
            return other.magnitude
        if isinstance(other, int):
            return mpf(other)
        if isinstance(other, Fraction):
            return mpf(other.numerator) / other.denominator
        raise TypeError(f"cannot combine HPReal with {type(other).__name__}")

    def _binop(self, other: Number, op) -> "HPReal":
        prec = self.working_precision
        if isinstance(other, HPReal):
            prec = min(prec, other.working_precision)
        with LOCK, mp.workdps(prec + GUARD_DIGITS):
            return HPReal(op(self.magnitude, self._other_mpf(other, prec)), prec)

    def __add__(self, other: Number) -> "HPReal":
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other: Number) -> "HPReal":
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other: Number) -> "HPReal":
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other: Number) -> "HPReal":
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "HPReal":
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other: Number) -> "HPReal":
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, n: int) -> "HPReal":
        return self._binop(n, lambda a, b: a ** b)

    def __neg__(self) -> "HPReal":
        return HPReal(-self.magnitude, self.working_precision)

    def __abs__(self) -> "HPReal":
        return HPReal(abs(self.magnitude), self.working_precision)

    # comparisons are exact on the underlying binary values
    def __lt__(self, other: Number) -> bool:
        return self.magnitude < self._other_mpf(other, self.working_precision)

    def __le__(self, other: Number) -> bool:
        return self.magnitude <= self._other_mpf(other, self.working_precision)

    def __gt__(self, other: Number) -> bool:
        return self.magnitude > self._other_mpf(other, self.working_precision)

    def __ge__(self, other: Number) -> bool:
        return self.magnitude >= self._other_mpf(other, self.working_precision)

    def __float__(self) -> float:
        return float(self.magnitude)

    # -- formatting --------------------------------------------------------

    def to_decimal(self, digits: int | None = None, fixed: bool = False) -> str:
        """Decimal string with ``digits`` significant digits (default: full
        working precision).  ``fixed`` forces positional notation (no
        exponent), which is what the printed-value comparisons use.
        Deterministic for a given magnitude."""
        d = self.working_precision if digits is None else digits
        if fixed:
            return mp.nstr(
                self.magnitude, d, strip_zeros=False, min_fixed=-mp.inf, max_fixed=mp.inf
            )
        return mp.nstr(self.magnitude, d, strip_zeros=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HPReal({self.to_decimal(min(self.working_precision, 20))}, prec={self.working_precision})"


@dataclass(frozen=True)
class EvalResult:
    """A computed value together with an error bound and its provenance.

    ``rigorous`` marks whether ``error_bound`` is a proved majorant of the
    true error (truncation plus rounding) or a heuristic estimate.  Two
    results for the same quantity with rigorous bounds must satisfy
    |v1 - v2| <= e1 + e2; the verification layer checks exactly that.
    ``conjectural`` marks values whose *formula* is conjectural even though
    the numerical evaluation of that formula is reliable.
    """

    value: HPReal
    error_bound: HPReal
    method: Method
    rigorous: bool
    conjectural: bool = False

    def agrees_with(self, other: "EvalResult") -> bool:
        """Whether the two values agree within the sum of their bounds."""
        diff = abs(self.value - other.value)
        return diff <= self.error_bound + other.error_bound


def wrap_result(
    value: mpf,
    bound: mpf,
    prec: int,
    method: Method,
    rigorous: bool,
    conjectural: bool = False,
) -> EvalResult:
    """Package raw mpf value/bound into an EvalResult at ``prec`` digits.

    The bound's magnitude is taken exactly: ``abs`` would round it to the
    ambient precision, to nearest, and could store less than the true bound.
    """
    return EvalResult(
        value=HPReal(value, prec),
        error_bound=HPReal(mp.make_mpf(mpf_abs(bound._mpf_)), prec),
        method=method,
        rigorous=rigorous,
        conjectural=conjectural,
    )


def combine(terms, prec: int, method: Method) -> EvalResult:
    """sum_i c_i prod_j x_ij for exact rationals c_i and EvalResult factors x_ij.

    The one rule by which an error bound is derived from other bounds.  A
    running product p (radius b) times a factor x (radius B) has radius
    |p| B + |x| b + B b; a monomial of two or more factors adds |v| 10^-(wd-1)
    for its multiplication roundings.  The sum adds the term radii plus
    max|term| 10^-(wd-1) per addition.  Two roundings are not charged: the
    coefficient and its product with the monomial, half an ulp (at most
    10^-(wd+1) relative) each.  With two or more terms they sit inside the
    addition slop, and with two or more factors inside the multiplication
    slop.  A lone one-factor term relies on the factor's radius exceeding its
    true error by at least that much, which holds for every kind of factor
    the package passes:
      * hp constants: pi_const and log2_const have a tenfold margin, the
        Euler-Maclaurin and CVZ sums charge a unit of 10^-wd per addition,
        and pi_power charges |k| units for at most |k|/10 + 1/5 of them;
      * combine's own results carry the slops above, and each lone scaling
        spends at most a fifth of a unit of them;
      * integrate01 floors its bound at |total| 10^-(wd-1);
      * nested_value converts its value exactly and its radius is far below
        a unit, so it enters combine only beside other terms or with a
        coefficient of +-1 or a power of two, whose product is exact.
    The result is rigorous when every factor is.
    """
    coerce_prec(prec)
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        slop = mpf(10) ** (1 - wd)
        total = bound = scale = mpf(0)
        for coeff, factors in terms:
            v, b = mpf(1), mpf(0)
            for f in factors:
                x, r = f.value.magnitude, f.error_bound.magnitude
                b = abs(v) * r + abs(x) * b + r * b
                v *= x
            if len(factors) > 1:
                b += abs(v) * slop
            coeff = Fraction(coeff)
            cf = mpf(coeff.numerator) / coeff.denominator
            t = cf * v
            total += t
            bound += abs(cf) * b
            scale = max(scale, abs(t))
        bound += max(len(terms) - 1, 0) * scale * slop
        rigorous = all(f.rigorous for _, factors in terms for f in factors)
        return wrap_result(total, bound, prec, method, rigorous=rigorous)


def scaled(r: EvalResult, c, *factors: EvalResult) -> EvalResult:
    """c times r (times any further factors) by combine, at r's precision.

    The result is r with a new value and bound, so its method, its
    conjectural flag and the fields of a subclass (a quadrature result's
    levels_used) carry over; it is rigorous when r and every factor are.
    """
    out = combine([(c, [r, *factors])], r.value.working_precision, r.method)
    return replace(r, value=out.value, error_bound=out.error_bound, rigorous=out.rigorous)


# ---------------------------------------------------------------------------
# Exact integer/rational number tables
# ---------------------------------------------------------------------------

_BERNOULLI: list[Fraction] = [Fraction(1)]
_EULER: list[int] = [1]  # E_0, E_2, E_4, ... (even-index Euler numbers)


def bernoulli_fraction(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2).

    Grown on demand from mpmath's ``bernfrac``, which recovers the exact
    fraction from a numerical B_n and the von Staudt-Clausen denominator;
    filling the table to B_800 takes a fraction of a second.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    with LOCK:
        while len(_BERNOULLI) <= n:
            _BERNOULLI.append(Fraction(*bernfrac(len(_BERNOULLI))))
        return _BERNOULLI[n]


def euler_number(n: int) -> int:
    """Exact Euler number E_n (E_0 = 1, E_2 = -1, E_4 = 5, ...; odd ones 0).

    Recurrence: sum_{k=0}^{m} C(2m, 2k) E_{2k} = 0 for m >= 1.  These turn
    Dirichlet beta at odd argument into an exact rational multiple of a power
    of pi: beta(2k+1) = (-1)^k E_{2k} pi^(2k+1) / (4^(k+1) (2k)!).
    """
    if n < 0:
        raise ValueError("Euler index must be >= 0")
    if n % 2 == 1:
        return 0
    m = n // 2
    with LOCK:
        while len(_EULER) <= m:
            j = len(_EULER)
            s = 0
            for k in range(j):
                s += math.comb(2 * j, 2 * k) * _EULER[k]
            _EULER.append(-s)
        return _EULER[m]


# ---------------------------------------------------------------------------
# Euler-Maclaurin core
# ---------------------------------------------------------------------------


def _hurwitz_em(s: int, a: Fraction, wd: int) -> tuple[mpf, mpf]:
    """sum_{n>=0} (n + a)^(-s) for integer s >= 2, 0 < a <= 1.

    Euler-Maclaurin about the cut point M = wd:

        sum_{n<M} (n+a)^(-s) + (M+a)^(1-s)/(s-1) + (M+a)^(-s)/2 + sum_{k=1}^{K} T_k,
        T_k = B_{2k}/(2k)! * prod_{j=0}^{2k-2}(s+j) * (M+a)^(-s-2k+1).

    Every even derivative of (x+a)^(-s) is positive for real s > 1, so the
    error after K corrections is at most |T_{K+1}|, the first omitted term.
    Corrections are added for k = 1, 2, ... until |T_k| < 10^(-(wd+5)); that
    T_k is the truncation bound.  |T_k| shrinks by about
    ((2k+s)/(2 pi (M+a)))^2 per step while 2k + s < 2 pi (M+a) and grows
    after, so its minimum is about exp(-2 pi M), far below the tolerance;
    K comes out at most about 0.4 wd.  Should the terms turn before reaching
    the tolerance, RuntimeError is raised instead of a false bound.  Rounding
    is charged as one unit of 10^(-wd) relative to the total for each of the
    M + K additions, plus 50 for the power and coefficient roundings.
    Returns (value, error_bound), computed inside workdps(wd).
    """
    with LOCK, mp.workdps(wd):
        av = mpf(a.numerator) / a.denominator
        tol = mpf(10) ** (-(wd + 5))
        M = wd
        total = mpf(0)
        for n in range(M - 1, -1, -1):  # ascending term size: better rounding
            total += (n + av) ** (-s)
        Ma = M + av
        total += Ma ** (1 - s) / (s - 1) + Ma ** (-s) / 2
        inv_sq = 1 / (Ma * Ma)
        turn = 2 * math.pi * (M + a)  # terms decrease while 2k + s < turn
        coef = s * Ma ** (-s - 1) / 2  # prod_{j<2k-1}(s+j) (M+a)^(-s-2k+1) / (2k)!
        k = 1
        while True:
            b = bernoulli_fraction(2 * k)
            term = mpf(b.numerator) / b.denominator * coef
            if abs(term) < tol:
                break
            if 2 * k + s >= turn:
                raise RuntimeError(
                    f"Euler-Maclaurin terms for s={s}, a={a} stopped decreasing"
                    f" at k={k} above 10^-{wd + 5}"
                )
            total += term
            coef *= inv_sq * (s + 2 * k - 1) * (s + 2 * k) / ((2 * k + 1) * (2 * k + 2))
            k += 1
        rem = abs(term) + abs(total) * (M + k + 50) * mpf(10) ** (-wd)
        return total, rem


def _cvz_alternating(term, n: int) -> mpf:
    """Cohen-Villegas-Zagier acceleration of sum_{k>=0} (-1)^k term(k).

    Algorithm 1 with Chebyshev coefficients d = ((3+sqrt8)^n + (3+sqrt8)^-n)/2;
    for totally monotone term sequences the error is < d^-1 ~ (3+sqrt8)^-n.
    Caller must be inside the target workdps context.
    """
    d = (3 + mp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b = mpf(-1)
    c = -d
    s = mpf(0)
    for k in range(n):
        c = b - c
        s += c * term(k)
        b = (k + n) * (k - n) * b / ((k + mpf(1) / 2) * (k + 1))
    return s / d


# ---------------------------------------------------------------------------
# Public constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def zeta_single(s: int, prec: int = 50) -> EvalResult:
    """Riemann zeta(s) for integer s >= 2 with a rigorous error bound."""
    coerce_prec(prec)
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"zeta_single requires integer s >= 2, got {s!r}")
    wd = prec + GUARD_DIGITS
    val, rem = _hurwitz_em(s, Fraction(1), wd)
    return wrap_result(val, rem, prec, Method.SERIES, rigorous=True)


@lru_cache(maxsize=None)
def eta(m: int, prec: int = 50) -> EvalResult:
    """Dirichlet eta(m) = sum (-1)^(n-1) n^(-m); eta(1) = log 2."""
    coerce_prec(prec)
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"eta requires integer m >= 1, got {m!r}")
    if m == 1:
        return log2_const(prec)
    return scaled(zeta_single(m, prec), 1 - Fraction(1, 2 ** (m - 1)))


@lru_cache(maxsize=None)
def beta_fn(m: int, prec: int = 50) -> EvalResult:
    """Dirichlet beta(m) = sum_{k>=0} (-1)^k (2k+1)^(-m), m >= 1.

    Evaluated by CVZ acceleration; (2k+1)^(-m) is totally monotone (it is
    the moment sequence of x^... on [0,1] -- a completely monotone function
    of k), so the (3+sqrt8)^(-n) bound is rigorous.
    """
    coerce_prec(prec)
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"beta_fn requires integer m >= 1, got {m!r}")
    wd = prec + GUARD_DIGITS
    n = int(math.ceil((wd + 4) * math.log(10) / math.log(3 + math.sqrt(8)))) + 2
    with LOCK, mp.workdps(wd):
        val = _cvz_alternating(lambda k: mpf(1) / (2 * k + 1) ** m, n)
        bound = 4 * (3 + mp.sqrt(8)) ** (-n) + abs(val) * (n + 20) * mpf(10) ** (-wd)
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


@lru_cache(maxsize=None)
def t_single(i: int, prec: int = 50) -> EvalResult:
    """Odd-denominator zeta value t(i) = sum (2n-1)^(-i) = (1 - 2^(-i)) zeta(i)."""
    coerce_prec(prec)
    if not isinstance(i, int) or i < 2:
        raise ValueError(f"t_single requires integer i >= 2, got {i!r}")
    return scaled(zeta_single(i, prec), 1 - Fraction(1, 2 ** i))


@lru_cache(maxsize=None)
def psi3_quarter(prec: int = 50) -> EvalResult:
    """Third polygamma at one quarter: psi'''(1/4) = 6 sum_{n>=0} (n+1/4)^(-4)."""
    coerce_prec(prec)
    wd = prec + GUARD_DIGITS
    val, rem = _hurwitz_em(4, Fraction(1, 4), wd)
    with LOCK, mp.workdps(wd):
        return wrap_result(6 * val, 6 * rem, prec, Method.SERIES, rigorous=True)


@lru_cache(maxsize=None)
def pi_const(prec: int = 50) -> EvalResult:
    """pi at the requested precision.

    mpmath rounds pi correctly to the working binary precision, so its
    relative error stays below 0.1 * 10^-wd (measured: at most 0.095 * 10^-wd
    for pi and log 2, wd from 26 to 1010); the radius |pi| 10^-wd holds with
    a tenfold margin.
    """
    coerce_prec(prec)
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        val = +mp.pi
        bound = abs(val) * mpf(10) ** (-wd)
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


@lru_cache(maxsize=None)
def pi_power(k: int, prec: int = 50) -> EvalResult:
    """pi^k for any integer k, as one factor for combine.

    The radius is |k| times pi_const's relative radius, the first-order
    error of a k-th power.  pi_const's tenfold margin covers the rest: the
    true relative error is at most |k|/10 units of 10^-wd from pi, plus the
    second-order terms and a fifth of a unit for the rounding of the power.
    """
    p = pi_const(prec)
    with LOCK, mp.workdps(prec + GUARD_DIGITS):
        val = p.value.magnitude ** k
        bound = abs(k) * abs(val) * (p.error_bound.magnitude / p.value.magnitude)
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


@lru_cache(maxsize=None)
def log2_const(prec: int = 50) -> EvalResult:
    """log 2 at the requested precision, radius |log 2| 10^-wd (see pi_const)."""
    coerce_prec(prec)
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        val = mp.log(2)
        bound = abs(val) * mpf(10) ** (-wd)
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)
