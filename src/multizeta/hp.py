"""Arbitrary-precision results, the one bound-propagation rule, the one
agreement rule, and the base constants everything else consumes.

Inside a module the package computes with raw ``mpmath.mpf`` values in
explicit ``workdps`` contexts and wraps each result into an
:class:`EvalResult` with :func:`wrap_result`: a value and a radius, each an
:class:`HPReal` record of an mpf and its decimal precision.  That convention
exists because mpmath's precision is process-global state: an ``mpf``
produced under one precision and *combined* with another at ambient
precision silently rounds to whatever ``mp.dps`` happens to be.  Every
public entry point here pins its own working precision (requested digits
plus a guard) under a re-entrant lock, so results are deterministic
bit-for-bit regardless of caller state or threading.

Results are combined with one another only through :func:`combine` (a rational
combination of products of results) and its one-term form :func:`scaled`:
they are the only code that derives an error bound from other bounds, and
they charge the roundings of the values they form.  combine computes on the
raw ``_mpf_`` tuples through ``mpmath.libmp`` at an explicit binary
precision, so it neither reads nor sets mpmath's precision and holds no
lock.  Two results agree when :meth:`EvalResult.agrees_with` says so:
|v1 - v2| <= e1 + e2 with both sides exact (:func:`gap`, :func:`bound_sum`),
so no working precision enters the verdict.  :func:`digits_short` says how
far a result's bound falls short of the digits asked for.  These helpers
stay out of ``__all__``, like the parameter checks :func:`coerce_prec` and
:func:`require`: the benchmark's tracer wraps every function listed there
and hashes its arguments, and theirs are lists, results and mpf values.

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
from fractions import Fraction
from functools import lru_cache

from mpmath import bernfrac, mp, mpf
from mpmath.libmp import (dps_to_prec, fone, from_int, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt,
                          mpf_mul, mpf_mul_int, mpf_pow_int, mpf_shift, round_nearest)

__all__ = [
    "MIN_PRECISION",
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


def coerce_prec(prec: int) -> int:
    if not isinstance(prec, int) or prec < MIN_PRECISION:
        raise ValueError(f"precision must be an int >= {MIN_PRECISION}, got {prec!r}")
    return prec


def require(value, name: str, least: int = 1, why: str = "") -> None:
    """Refuse a parameter that is not an int >= least."""
    if not isinstance(value, int) or value < least:
        raise ValueError(f"{name} >= {least} required, got {value!r}{why}")


@dataclass(frozen=True)
class HPReal:
    """A value and the decimal precision it was computed for: a record with
    no arithmetic of its own.

    ``magnitude`` is the underlying mpf (computed with GUARD_DIGITS extra
    digits); ``working_precision`` is the number of decimal digits the value
    is good for.  Results are combined through :func:`combine`, which
    propagates their bounds, and compared through
    :meth:`EvalResult.agrees_with`.
    """

    magnitude: mpf
    working_precision: int

    def __post_init__(self) -> None:
        coerce_prec(self.working_precision)

    def to_decimal(self, digits: int) -> str:
        """Decimal string with ``digits`` significant digits, deterministic
        for a given magnitude."""
        return mp.nstr(self.magnitude, digits, strip_zeros=False)


@dataclass(frozen=True)
class EvalResult:
    """A computed value together with an error bound.

    ``rigorous`` marks whether ``error_bound`` is a proved majorant of the
    true error (truncation plus rounding) or a heuristic estimate.  Two
    results for the same quantity with rigorous bounds must satisfy
    |v1 - v2| <= e1 + e2, which :meth:`agrees_with` decides; the CLI's
    ``--method all`` and the verification suites check agreement with it.
    ``conjectural`` marks values whose *formula* is conjectural even though
    the numerical evaluation of that formula is reliable.
    """

    value: HPReal
    error_bound: HPReal
    rigorous: bool
    conjectural: bool = False

    def agrees_with(self, other: "EvalResult") -> bool:
        """|v1 - v2| <= e1 + e2, both sides computed exactly: the answer
        depends on no working precision and not on mp.dps."""
        return gap(self.value.magnitude, other.value.magnitude) <= bound_sum(self, other)


def gap(x: mpf, y: mpf) -> mpf:
    """|x - y| without rounding."""
    return mp.fsub(y, x, exact=True) if x < y else mp.fsub(x, y, exact=True)


def bound_sum(a: EvalResult, b: EvalResult) -> mpf:
    """e1 + e2 without rounding: the widest gap two results may agree across."""
    return mp.fadd(a.error_bound.magnitude, b.error_bound.magnitude, exact=True)


def wrap_result(
    value: mpf,
    bound: mpf,
    prec: int,
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
        rigorous=rigorous,
        conjectural=conjectural,
    )


def combine(terms, prec: int) -> EvalResult:
    """sum_i c_i prod_j x_ij for exact rationals c_i and EvalResult factors x_ij.

    The one rule by which an error bound is derived from other bounds.  A
    running product p (radius b) times a factor x (radius B) has radius
    |p| B + |x| b + B b; a monomial of two or more factors adds |v| 10^-(wd-1)
    for its multiplication roundings.  The sum adds the term radii plus
    max|term| 10^-(wd-1) per addition.

    Each term also rounds its coefficient c to c' and its value t = c' v.
    Rounding to nearest on wbits bits moves a result by at most u = 2^-wbits
    of the rounded result, so |t - c v| <= u |t| + u |c' v| <= (2 + u) u |t|.
    With two or more factors this sits inside the multiplication slop, and
    with two or more terms inside the addition slop: 10^-(wd-1) is over 70 u,
    as u <= 2^(1/2) 10^-(wd+1); that margin also pays the k-th partial
    sum's own rounding, at most u k max|term|, up to 130 terms, and the
    products' roundings, (m - 1) u |v| for m factors, up to 60 factors.  A
    lone term of one factor or none has neither slop, and is charged 2u |t|;
    the remaining u^2 |t|, with the u |c' - c| b of using c' for c in the
    radius, is a relative u of that radius, the order at which any radius
    computed here is itself rounded.  A coefficient 0 or +-2^k scales
    exactly and is charged nothing.  The result is rigorous when every
    factor is.

    It runs on the raw values through mpmath.libmp, each operation at wd's
    binary precision rounded to nearest, as the mpf operators did under
    mp.workdps(wd): the same bits whatever the caller's mp.dps, and no lock.
    """
    coerce_prec(prec)
    wd = prec + GUARD_DIGITS
    p, rnd, slop = dps_to_prec(wd), round_nearest, _slop(wd)
    total = bound = scale = fzero
    for coeff, factors in terms:
        v, b = fone, fzero
        for f in factors:
            x, r = f.value.magnitude._mpf_, f.error_bound.magnitude._mpf_
            b = mpf_add(mpf_add(mpf_mul(mpf_abs(v, p, rnd), r, p, rnd),
                                mpf_mul(mpf_abs(x, p, rnd), b, p, rnd), p, rnd),
                        mpf_mul(r, b, p, rnd), p, rnd)
            v = mpf_mul(v, x, p, rnd)
        if len(factors) > 1:
            b = mpf_add(b, mpf_mul(mpf_abs(v, p, rnd), slop, p, rnd), p, rnd)
        coeff = Fraction(coeff)
        cf = mpf_div(from_int(coeff.numerator, p, rnd), from_int(coeff.denominator), p, rnd)
        t = mpf_mul(cf, v, p, rnd)
        total, size = mpf_add(total, t, p, rnd), mpf_abs(t, p, rnd)
        bound = mpf_add(bound, mpf_mul(mpf_abs(cf, p, rnd), b, p, rnd), p, rnd)
        if len(terms) == 1 and len(factors) <= 1 and not _scales_exactly(coeff):
            bound = mpf_add(bound, mpf_shift(size, 1 - p), p, rnd)
        scale = size if mpf_gt(size, scale) else scale
    spread = mpf_mul(mpf_mul_int(scale, max(len(terms) - 1, 0), p, rnd), slop, p, rnd)
    bound = mpf_add(bound, spread, p, rnd)
    rigorous = all(f.rigorous for _, factors in terms for f in factors)
    return wrap_result(mp.make_mpf(total), mp.make_mpf(bound), prec, rigorous=rigorous)


@lru_cache(maxsize=64)
def _slop(wd: int) -> tuple:
    """10^(1-wd) as a raw value, rounded as mpf(10) ** (1 - wd) at wd digits."""
    return mpf_pow_int(from_int(10), 1 - wd, dps_to_prec(wd), round_nearest)


def _scales_exactly(c: Fraction) -> bool:
    """Whether c is 0 or +-2^k, so that c' = c and c' v = c v exactly."""
    n, d = abs(c.numerator), c.denominator
    return n & (n - 1) == 0 and d & (d - 1) == 0


def scaled(r: EvalResult, c, *factors: EvalResult) -> EvalResult:
    """c times r (times any further factors) by combine, at r's precision.

    The result is r with a new value and bound, so its conjectural flag and
    the fields of a subclass (a quadrature result's levels_used) carry over;
    it is rigorous when r and every factor are.
    """
    out = combine([(c, [r, *factors])], r.value.working_precision)
    return replace(r, value=out.value, error_bound=out.error_bound, rigorous=out.rigorous)


def digits_short(r: EvalResult, prec: int) -> int:
    """How many decimal digits r falls short of prec: the least k >= 0 with
    bound <= 10^(k-prec) |value|.  0 also when the bound reaches |value|:
    no digit holds, and more working digits need not make one.  Whether r
    is short is decided exactly; only the count is taken at 15 digits."""
    v = mp.make_mpf(mpf_abs(r.value.magnitude._mpf_))
    b = r.error_bound.magnitude
    if b >= v or mp.fmul(b, 10 ** prec, exact=True) <= v:
        return 0
    with LOCK, mp.workdps(15):
        return max(1, int(mp.ceil(prec - mp.log10(v / b))))


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
    require(n, "the Bernoulli index", 0)
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
    require(n, "the Euler index", 0)
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
        10^-wd/7 relative; one unit |v| 10^-wd is charged.
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
    return wrap_result(val, bound, prec, rigorous=True)


# ---------------------------------------------------------------------------
# Public constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def zeta_single(s: int, prec: int = 50) -> EvalResult:
    """Riemann zeta(s) for integer s >= 2, rigorous: the CVZ kernel's
    eta(s) times 1/(1 - 2^(1-s)), a ratio of at most 2."""
    coerce_prec(prec)
    require(s, "zeta_single's s", 2)
    return _cvz(lambda k: (k + 1) ** s, Fraction(2 ** (s - 1), 2 ** (s - 1) - 1), prec)


@lru_cache(maxsize=None)
def eta(m: int, prec: int = 50) -> EvalResult:
    """Dirichlet eta(m) = sum (-1)^(n-1) n^(-m); eta(1) = log 2, and for
    m >= 2 the CVZ kernel directly."""
    coerce_prec(prec)
    require(m, "eta's m")
    if m == 1:
        return log2_const(prec)
    return _cvz(lambda k: (k + 1) ** m, Fraction(1), prec)


@lru_cache(maxsize=None)
def beta_fn(m: int, prec: int = 50) -> EvalResult:
    """Dirichlet beta(m) = sum_{k>=0} (-1)^k (2k+1)^(-m), m >= 1, by the CVZ
    kernel: (2k+1)^(-m) = int_0^1 y^k dmu(y) with mu >= 0 (put y = x^2 in
    int_0^1 x^(2k) (-log x)^(m-1)/(m-1)! dx)."""
    coerce_prec(prec)
    require(m, "beta_fn's m")
    return _cvz(lambda k: (2 * k + 1) ** m, Fraction(1), prec)


@lru_cache(maxsize=None)
def t_single(i: int, prec: int = 50) -> EvalResult:
    """Odd-denominator zeta value t(i) = sum (2n-1)^(-i) = (1 - 2^(-i)) zeta(i)."""
    coerce_prec(prec)
    require(i, "t_single's i", 2)
    return scaled(zeta_single(i, prec), 1 - Fraction(1, 2 ** i))


@lru_cache(maxsize=None)
def psi3_quarter(prec: int = 50) -> EvalResult:
    """Third polygamma at one quarter, psi'''(1/4) = 8 pi^4 + 768 beta(4).

    psi'''(1/4) = 6 sum_(n>=0) (n+1/4)^-4 = 1536 sum_(n>=0) (4n+1)^-4, and
    that sum is half of beta(4) plus the sum over odd integers, (15/16)
    zeta(4) = pi^4/96.
    """
    coerce_prec(prec)
    return combine([(8, [pi_power(4, prec)]), (768, [beta_fn(4, prec)])], prec)


@lru_cache(maxsize=None)
def pi_const(prec: int = 50) -> EvalResult:
    """pi at the requested precision.

    mpmath rounds pi correctly to the working binary precision, so its
    relative error stays below 0.1 * 10^-wd (measured: at most 0.095 * 10^-wd
    for pi and log 2, wd from 26 to 1010); the radius |pi| 10^-wd holds with
    a tenfold margin.
    """
    return _rounded_const(lambda: mp.pi, prec)


def _rounded_const(value, prec: int) -> EvalResult:
    """value() rounded at wd = prec + GUARD_DIGITS digits, radius |v| 10^-wd."""
    coerce_prec(prec)
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        val = +value()
        bound = abs(val) * mpf(10) ** (-wd)
    return wrap_result(val, bound, prec, rigorous=True)


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
    return wrap_result(val, bound, prec, rigorous=True)


@lru_cache(maxsize=None)
def log2_const(prec: int = 50) -> EvalResult:
    """log 2 at the requested precision, radius |log 2| 10^-wd (see pi_const)."""
    return _rounded_const(lambda: mp.log(2), prec)
