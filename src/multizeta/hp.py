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

* ``zeta_single(s)``   Riemann zeta at integer s >= 2, as eta(s)/(1 - 2^(1-s)).
* ``eta(m)``           Dirichlet eta, sum (-1)^(n-1) n^(-m); eta(1) = log 2.
* ``beta_fn(m)``       Dirichlet beta, sum_{k>=0} (-1)^k (2k+1)^(-m).
* ``t_single(i)``      odd-denominator zeta value (1 - 2^(-i)) zeta(i).
* ``pi_power(k)``      pi^k for any integer k, as one factor for combine.
* ``psi3_quarter()``   third derivative of digamma at 1/4, by the exact
  identity psi'''(1/4) = 8 pi^4 + 768 beta(4).

eta and beta are alternating sums of totally monotone terms, so one kernel
serves both: the convergence acceleration of Cohen, Rodriguez Villegas and
Zagier (as Borwein uses it for zeta), run in exact integers scaled by 2^B as
the series and quadrature layers do, with its proved (3+sqrt 8)^-n tail.
Its bound charges the tail, the floors of the scaled integers and one unit
for rounding the value to the working digits; the cost grows polynomially in
the digits.

Bernoulli and Euler numbers are kept as exact ``Fraction`` / ``int`` tables
and grown on demand for the exact rational rewrites of the symbolic and
quadrature layers; no constant here uses them.
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
from mpmath.libmp import dps_to_prec, mpf_abs

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
        CVZ kernel charges a whole unit |v| 10^-wd for a rounding of at most
        a seventh of one, and pi_power charges |k| units for at most
        |k|/10 + 1/5 of them;
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
    fraction from a numerical B_n and the von Staudt-Clausen denominator.
    No hp constant uses it: the symbolic layer asks for zeta at even
    arguments (indices up to the weight), and quadrature for zeta at
    non-positive integers in the polylogarithm's expansion about 1 (indices
    up to about the working digits, only in the quadrature routes).
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
# Cohen-Villegas-Zagier kernel in scaled integers
# ---------------------------------------------------------------------------

_LOG_RATE = math.log(3 + math.sqrt(8))


@lru_cache(maxsize=4)
def _cvz_weights(n: int) -> tuple[int, tuple[int, ...]]:
    """(d_n, (c_0, ..., c_(n-1))): the integer weights of Cohen, Rodriguez
    Villegas and Zagier (Experiment. Math. 9, 2000, Algorithm 1), n >= 1.

    d_0 = 1, d_1 = 3, d_k = 6 d_(k-1) - d_(k-2), so d_n = ((3+sqrt 8)^n +
    (3-sqrt 8)^n)/2; b_0 = -1, b_(k+1) = 2 b_k (k+n)(k-n)/((2k+1)(k+1)), an
    exact division since -b_k is the x^k coefficient of the Chebyshev
    polynomial T_n(1-2x); c_k = b_k - c_(k-1) from c_(-1) = -d_n.  Kept per
    n, which every constant at one precision shares.
    """
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, cs = -1, -d, []
    for k in range(n):
        c = b - c
        cs.append(c)
        b = 2 * b * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return d, tuple(cs)


def _cvz(den, ratio: Fraction, prec: int) -> EvalResult:
    """ratio sum_(k>=0) (-1)^k/den(k), 0 < ratio <= 2, for integers den(k)
    with den(0) = 1 and 1/den(k) = int_0^1 x^k dmu, mu >= 0; rigorous.

    With the weights of _cvz_weights, the value is V u, u = 2^-B,

        V = floor(ratio sum_(k<n) floor(c_k 2^B/den(k)) / d_n),

    B the working bits at wd = prec + GUARD_DIGITS digits plus the bits of n
    plus 4.  Its three error sources are each charged:
      * tail: the sum S <= 1 (mu has mass 1/den(0) = 1) is within S/d_n
        <= 2 (3+sqrt 8)^-n of the CVZ value; 4 ratio (3+sqrt 8)^-n is charged;
      * floors: the n inner ones cost under n ratio/d_n < n units u, as
        d_n >= 3 > ratio, the outer one under one unit; n + 2 are charged;
      * rounding V u to the working bits costs at most 2^-wbits <=
        10^-wd/7 relative; one unit |v| 10^-wd is charged, so the radius
        keeps the spare that combine's lone-scaling rule spends.
    n puts the tail near 10^-(wd+5) and the bits of n keep the floors near
    2^-wbits/16; the slack in the tail and floor charges covers the
    roundings of the bound itself.
    """
    wd = prec + GUARD_DIGITS
    n = int(math.ceil((wd + 4) * math.log(10) / _LOG_RATE)) + 2
    bits = dps_to_prec(wd) + n.bit_length() + 4
    d, cs = _cvz_weights(n)
    total = sum((c << bits) // den(k) for k, c in enumerate(cs))
    v = total * ratio.numerator // (d * ratio.denominator)
    with LOCK, mp.workdps(wd):
        val = mp.ldexp(mpf(v), -bits)
        tail = 4 * mpf(ratio.numerator) / ratio.denominator * (3 + mp.sqrt(8)) ** (-n)
        bound = tail + mp.ldexp(n + 2, -bits) + abs(val) * mpf(10) ** (-wd)
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


# ---------------------------------------------------------------------------
# Public constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def zeta_single(s: int, prec: int = 50) -> EvalResult:
    """Riemann zeta(s) for integer s >= 2, rigorous: the CVZ kernel's
    eta(s) times 1/(1 - 2^(1-s)), a ratio of at most 2."""
    coerce_prec(prec)
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"zeta_single requires integer s >= 2, got {s!r}")
    return _cvz(lambda k: (k + 1) ** s, Fraction(2 ** (s - 1), 2 ** (s - 1) - 1), prec)


@lru_cache(maxsize=None)
def eta(m: int, prec: int = 50) -> EvalResult:
    """Dirichlet eta(m) = sum (-1)^(n-1) n^(-m); eta(1) = log 2, and for
    m >= 2 the CVZ kernel directly."""
    coerce_prec(prec)
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"eta requires integer m >= 1, got {m!r}")
    if m == 1:
        return log2_const(prec)
    return _cvz(lambda k: (k + 1) ** m, Fraction(1), prec)


@lru_cache(maxsize=None)
def beta_fn(m: int, prec: int = 50) -> EvalResult:
    """Dirichlet beta(m) = sum_{k>=0} (-1)^k (2k+1)^(-m), m >= 1, by the CVZ
    kernel: (2k+1)^(-m) = int_0^1 y^k dmu(y) with mu >= 0 (put y = x^2 in
    int_0^1 x^(2k) (-log x)^(m-1)/(m-1)! dx)."""
    coerce_prec(prec)
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"beta_fn requires integer m >= 1, got {m!r}")
    return _cvz(lambda k: (2 * k + 1) ** m, Fraction(1), prec)


@lru_cache(maxsize=None)
def t_single(i: int, prec: int = 50) -> EvalResult:
    """Odd-denominator zeta value t(i) = sum (2n-1)^(-i) = (1 - 2^(-i)) zeta(i)."""
    coerce_prec(prec)
    if not isinstance(i, int) or i < 2:
        raise ValueError(f"t_single requires integer i >= 2, got {i!r}")
    return scaled(zeta_single(i, prec), 1 - Fraction(1, 2 ** i))


@lru_cache(maxsize=None)
def psi3_quarter(prec: int = 50) -> EvalResult:
    """Third polygamma at one quarter, psi'''(1/4) = 8 pi^4 + 768 beta(4).

    psi'''(1/4) = 6 sum_(n>=0) (n+1/4)^-4 = 1536 sum_(n>=0) (4n+1)^-4, and
    that sum is half of beta(4) plus the sum over odd integers, (15/16)
    zeta(4) = pi^4/96.
    """
    coerce_prec(prec)
    return combine([(8, [pi_power(4, prec)]), (768, [beta_fn(4, prec)])], prec, Method.SERIES)


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
