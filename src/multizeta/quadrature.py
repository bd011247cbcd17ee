"""Double-exponential quadrature on (0,1) and the specific kernel integrals.

The tanh-sinh substitution x = e^(2u)/(1+e^(2u)), u = (pi/2) sinh(t) pushes
endpoint singularities off to doubly-exponentially small weights, so one
scheme handles every integrand family used here: log and power-of-log blowups
at 0, algebraic 1/sqrt(1-x) behaviour at 1, and cancelled simple poles at 1.
Each trapezoid level halves the step and reuses all previous nodes (only odd
multiples are new); two successive levels agreeing to 10^(-prec-3) ends the
refinement.

Every integrand evaluator receives *both* x and xc = 1-x as exact node data.
The DE transform computes xc directly from e^(2u) without cancellation, so an
evaluator needing log(x), arccos(x) or atanh(x) near x = 1 can get full
working precision from xc where forming 1-x would lose everything.  The
helpers _log_stable / acos_stable / _asin_stable / _atanh_stable implement
those rewrites:

    log(1-xc)    = -sum xc^k/k            (xc below 2^-10)
    arccos(x)    = 2 asin(sqrt(xc/2))     (exact identity, used everywhere)
    atanh(x)     = (log(2-xc) - log(xc))/2
    log(sin((pi/2)(1-xc))) = log(cos((pi/2) xc))

The polylogarithm is evaluated by three branches: the defining series for
|x| <= 1/2, the expansion about x = 1 in powers of L = log x for x in
(1/2, 1], and the square identity Li_p(x) = 2^(1-p) Li_p(x^2) - Li_p(-x) for
x in (-1, -1/2).  The log branch sums its expansion by Horner's rule over
coefficients cached per (p, working digits), to a degree chosen from a
proved tail bound (see _polylog_log_branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Callable

from mpmath import mp, mpf

from .hp import (
    GUARD_DIGITS,
    LOCK,
    EvalResult,
    HPReal,
    Method,
    bernoulli_fraction,
    coerce_prec,
    eta,
    wrap_result,
    zeta_single,
)

__all__ = [
    "REGULAR",
    "LOGARITHMIC",
    "ALGEBRAIC",
    "Integrand",
    "QuadratureResult",
    "QuadratureNonConvergence",
    "integrate01",
    "polylog",
    "I_quad",
    "j_cot",
    "k_arctanh",
    "t_kernel_quad",
    "logpolylog_kernel",
    "kernel_pair",
    "logsine_check",
]

REGULAR = "regular"
LOGARITHMIC = "logarithmic"
ALGEBRAIC = "algebraic"

LEVEL_CAP = 12  # finest trapezoid level (step 2^-12)


@dataclass(frozen=True)
class Integrand:
    """An integrand on (0,1).

    ``evaluator(x, xc)`` receives the node and its exact complement 1-x as
    mpf values under the working precision of the integration and returns the
    integrand value.  ``endpoint_behavior`` declares the singularity class at
    0 and at 1 (REGULAR / LOGARITHMIC / ALGEBRAIC) -- documentation that the
    DE scheme is entitled to, and the hook for grouping convergence tests.
    Endpoint values themselves are never requested: all DE nodes are interior.
    """

    evaluator: Callable[[mpf, mpf], mpf]
    endpoint_behavior: tuple[str, str] = (REGULAR, REGULAR)
    name: str = ""


@dataclass(frozen=True)
class QuadratureResult(EvalResult):
    """EvalResult plus the number of trapezoid levels actually used.

    rigorous is always False here: the successive-level error model is
    excellent in practice (typically 10+ digits of margin) but heuristic.
    """

    levels_used: int = 0


class QuadratureNonConvergence(RuntimeError):
    """Raised when the level cap is hit; carries the best estimate."""

    def __init__(self, message: str, best: QuadratureResult):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

_NODE_CACHE: dict[tuple[int, int], list] = {}


def _de_cutoff(wd: int) -> mpf:
    """Largest |t|: far enough that trapezoid truncation sits below 10^-2(wd+8)."""
    return mp.asinh(2 * mp.log(10) * (wd + 8) / mp.pi)


def _nodes(level: int, wd: int) -> list:
    """New (x, xc, w) triples at this level (odd multiples of h; level 0 all).

    Mirror nodes at -t are emitted as (xc, x, w): the transform swaps the
    roles of x and 1-x under t -> -t.
    """
    with LOCK, mp.workdps(wd):
        T = _de_cutoff(wd)
        h = mpf(2) ** (-level)
        js = (
            range(0, int(mp.floor(T / h)) + 1)
            if level == 0
            else range(1, int(mp.floor(T / h)) + 1, 2)
        )
        out = []
        for j in js:
            t = j * h
            u = mp.pi / 2 * mp.sinh(t)
            e2u = mp.exp(2 * u)
            xc = 1 / (1 + e2u)
            x = e2u / (1 + e2u)
            w = mp.pi / 2 * mp.cosh(t) / (2 * mp.cosh(u) ** 2)
            out.append((x, xc, w))
            if j > 0:
                out.append((xc, x, w))
        return out


def _cached_nodes(level: int, wd: int) -> list:
    key = (level, wd)
    with LOCK:
        got = _NODE_CACHE.get(key)
        if got is None:
            got = _nodes(level, wd)
            _NODE_CACHE[key] = got
        return got


def integrate01(f, prec: int = 50) -> QuadratureResult:
    """Tanh-sinh quadrature of ``f`` over (0,1).

    ``f`` may be an Integrand or a bare ``evaluator(x, xc)`` callable.
    Levels double until two successive trapezoid refinements agree to
    10^(-prec-3) relative; the reported error_bound is ten times that last
    difference.  Hitting the level cap raises QuadratureNonConvergence with
    the best estimate attached.
    """
    coerce_prec(prec)
    integrand = f if isinstance(f, Integrand) else Integrand(f)
    ev = integrand.evaluator
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        tol = mpf(10) ** (-prec - 3)
        total = mpf(0)
        prev = None
        diff = mpf(1)
        for level in range(LEVEL_CAP + 1):
            h = mpf(2) ** (-level)
            part = mpf(0)
            for x, xc, w in _cached_nodes(level, wd):
                part += w * ev(x, xc)
            total = (total / 2 if level > 0 else mpf(0)) + h * part
            if prev is not None:
                diff = abs(total - prev)
                if diff <= tol * max(1, abs(total)):
                    return QuadratureResult(
                        value=HPReal(total, prec),
                        error_bound=HPReal(diff * 10, prec),
                        method=Method.QUADRATURE,
                        rigorous=False,
                        levels_used=level + 1,
                    )
            prev = total
        best = QuadratureResult(
            value=HPReal(total, prec),
            error_bound=HPReal(diff * 10, prec),
            method=Method.QUADRATURE,
            rigorous=False,
            levels_used=LEVEL_CAP + 1,
        )
    raise QuadratureNonConvergence(
        f"tanh-sinh did not stabilise within {LEVEL_CAP} levels"
        f" (last successive difference {mp.nstr(diff, 3)})",
        best,
    )


# ---------------------------------------------------------------------------
# endpoint-stable elementary evaluations (see module docstring)
# ---------------------------------------------------------------------------

_SMALL = mpf(2) ** (-10)


def _log_stable(x: mpf, xc: mpf) -> mpf:
    """log(x) where x = 1 - xc with xc exact; series when xc is tiny."""
    if xc < _SMALL:
        s = mpf(0)
        p = mpf(1)
        tol = mpf(10) ** (-mp.dps - 4)
        for k in range(1, 10000):
            p *= xc
            t = p / k
            s -= t
            if t < tol:
                break
        return s
    return mp.log(x)


def acos_stable(x: mpf, xc: mpf) -> mpf:
    """arccos(x) = 2 asin(sqrt(xc/2)): exact identity, stable at both ends."""
    return 2 * mp.asin(mp.sqrt(xc / 2))


def _asin_stable(x: mpf, xc: mpf) -> mpf:
    if x > mpf(9) / 10:
        return mp.pi / 2 - acos_stable(x, xc)
    return mp.asin(x)


def _atanh_stable(x: mpf, xc: mpf) -> mpf:
    """atanh(x) = (log(1+x) - log(1-x))/2 with 1+x = 2-xc, 1-x = xc exact."""
    if xc < _SMALL:
        return (mp.log(2 - xc) - mp.log(xc)) / 2
    return mp.atanh(x)


# ---------------------------------------------------------------------------
# polylogarithm
# ---------------------------------------------------------------------------


def _zeta_at_int(s: int, wd: int) -> mpf:
    """zeta at any integer s != 1 as an mpf at working precision wd."""
    if s >= 2:
        return zeta_single(s, wd).value.magnitude
    if s == 0:
        return mpf(-1) / 2
    if s % 2 == 0:  # negative even: trivial zeros
        return mpf(0)
    m = (1 - s) // 2
    b = bernoulli_fraction(2 * m)
    return -(mpf(b.numerator) / b.denominator) / (2 * m)


def _log_degree(p: int, log_r: float, wd: int) -> int:
    """Least degree J >= p whose tail bound (see _polylog_log_branch) for
    r = exp(log_r) is below 10^(-(wd+2)), found in floating-point logarithms
    with a margin of a factor e.  J grows with r."""
    log_tol = -(wd + 2) * math.log(10) - 1
    J = p
    log_tail = (
        math.log(math.pi ** 2 / 3) + (p - 1) * math.log(2 * math.pi)
        - math.lgamma(p + 2) + (p + 1) * log_r - math.log1p(-math.exp(log_r))
    )
    while log_tail > log_tol:
        log_tail += log_r + math.log((J + 2 - p) / (J + 2))
        J += 1
    return J


# log r for |L| = 0.7: above every r = |log x|/(2 pi) of the domain x > 1/2
# (|log x| < log 2), with room for the rounding of log r
_LOG_R_MAX = math.log(0.7 / (2 * math.pi))


@lru_cache(maxsize=None)
def _log_coeffs(p: int, wd: int) -> tuple:
    """c_j = zeta(p-j)/j! at wd digits, c_{p-1} = H_{p-1}/(p-1)!, for every
    degree the log branch can need."""
    with LOCK, mp.workdps(wd):
        cs = []
        for j in range(_log_degree(p, _LOG_R_MAX, wd) + 1):
            if j == p - 1:
                c = sum(mpf(1) / i for i in range(1, p))
            else:
                c = _zeta_at_int(p - j, wd)
            cs.append(c / math.factorial(j))
        return tuple(cs)


def _polylog_log_branch(p: int, x: mpf, xc: mpf, wd: int) -> tuple[mpf, mpf]:
    """Li_p(x) for 1/2 < x < 1 from its expansion in L = log x:

        Li_p(x) = sum_{j != p-1} zeta(p-j) L^j/j! + L^(p-1)/(p-1)! (H_{p-1} - log(-L)).

    Tail: for j > p the functional equation gives |zeta(p-j)| <= 2 zeta(2)
    (j-p)!/(2 pi)^(j-p+1), so with r = |L|/(2 pi) < 0.7/(2 pi) < 0.112 the
    terms past degree J >= p sum to at most

        C (J+1-p)!/(J+1)! r^(J+1)/(1-r),   C = 2 zeta(2) (2 pi)^(p-1),

    and J is the least degree putting this below 10^(-(wd+2)).  Rounding: the
    sum of |c_j L^j| (the log term included) is below 5, since zeta(p-j) <=
    zeta(2), H_{p-1}/(p-1)! <= 1 and |L|^(p-1) |log|L|| <= 1/e; the Horner
    evaluation and the coefficients cost at most 2J + 10 units of 10^(-wd)
    of that sum.
    """
    L = _log_stable(x, xc)  # negative, |L| < log 2
    log_neg_l = mp.log(-L)
    log_r = float(log_neg_l) - math.log(2 * math.pi)
    if not log_r <= _LOG_R_MAX:
        raise RuntimeError(f"Li_{p} log branch needs x > 1/2, got log x = {mp.nstr(L, 5)}")
    J = _log_degree(p, log_r, wd)
    cs = _log_coeffs(p, wd)
    s = cs[J]
    for j in range(J - 1, -1, -1):
        s = s * L + cs[j]
        if j == p - 1:
            s -= log_neg_l / math.factorial(p - 1)
    return s, mpf(10) ** (-(wd + 2)) + 5 * (2 * J + 10) * mpf(10) ** (-wd)


def _polylog_raw(p: int, x: mpf, xc: mpf, wd: int) -> tuple[mpf, mpf]:
    """(value, rigorous error bound) for Li_p(x), -1 <= x <= 1, inside wd."""
    if x == 0:
        return mpf(0), mpf(0)
    ulp = mpf(10) ** (-(wd - 1))
    if x == 1:
        z = zeta_single(p, wd)
        return z.value.magnitude, z.error_bound.magnitude + ulp
    if x == -1:
        e = eta(p, wd)
        return -e.value.magnitude, e.error_bound.magnitude + ulp
    if abs(x) <= mpf(1) / 2:
        tol = mpf(10) ** (-wd - 2)
        s = mpf(0)
        xk = mpf(1)
        for k in count(1):
            xk *= x
            t = xk / mpf(k) ** p
            s += t
            if abs(t) <= tol * (1 - abs(x)):
                break
        # geometric tail: |t_{k+1}| <= |t_k| * |x|, summed <= |t|*|x|/(1-|x|)
        return s, abs(t) * abs(x) / (1 - abs(x)) + ulp * abs(s)
    if x > 0:
        return _polylog_log_branch(p, x, xc, wd)
    # x in (-1, -1/2): Li_p(x) = 2^(1-p) Li_p(x^2) - Li_p(-x)
    xc2 = xc * (2 - xc)  # 1 - x^2 without cancellation
    v1, b1 = _polylog_raw(p, x * x, xc2, wd)
    v2, b2 = _polylog_raw(p, -x, xc, wd)
    return mpf(2) ** (1 - p) * v1 - v2, mpf(2) ** (1 - p) * b1 + b2 + ulp


def polylog(p: int, x, prec: int = 50) -> EvalResult:
    """Li_p(x) for integer p >= 2 and -1 <= x <= 1, rigorous bound."""
    coerce_prec(prec)
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"polylog requires integer p >= 2, got {p!r}")
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        if isinstance(x, HPReal):
            xv = x.magnitude
        elif isinstance(x, Fraction):
            xv = mpf(x.numerator) / x.denominator
        else:
            xv = mpf(x)
        if abs(xv) > 1:
            raise ValueError(f"polylog argument must satisfy |x| <= 1, got {x!r}")
        val, bound = _polylog_raw(p, xv, 1 - xv, wd)
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


# ---------------------------------------------------------------------------
# the specific integrals
# ---------------------------------------------------------------------------


def _scaled(result: QuadratureResult, factor: mpf, prec: int) -> QuadratureResult:
    with LOCK, mp.workdps(prec + GUARD_DIGITS):
        return QuadratureResult(
            value=HPReal(result.value.magnitude * factor, prec),
            error_bound=HPReal(abs(result.error_bound.magnitude * factor), prec),
            method=Method.QUADRATURE,
            rigorous=False,
            levels_used=result.levels_used,
        )


def I_quad(N: int, prec: int = 50) -> QuadratureResult:
    """integral_0^1 arcsin^N(z)/z dz by DE quadrature."""
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N >= 1 required, got {N!r}")
    coerce_prec(prec)

    def ev(x, xc):
        return _asin_stable(x, xc) ** N / x

    return integrate01(
        Integrand(ev, (REGULAR, REGULAR), name=f"I({N})"), prec
    )


def j_cot(n: int, prec: int = 50) -> QuadratureResult:
    """J(n) = integral_0^(1/2) z^n cot(pi z) dz.

    Substituting z = x/2 maps to (0,1); cot(pi x/2) is rewritten as
    tan((pi/2) xc) near x = 1 (where cot passes through zero) and the z^n
    factor tames the 1/z pole of cot at the origin, leaving z^(n-1)/pi there.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n >= 1 required, got {n!r}")
    coerce_prec(prec)

    def ev(x, xc):
        z = x / 2
        if xc < mpf(1) / 2:
            c = mp.tan(mp.pi / 2 * xc)
        else:
            c = mp.cot(mp.pi * z)
        return z ** n * c / 2

    return integrate01(
        Integrand(ev, (REGULAR, REGULAR), name=f"J({n})"), prec
    )


def k_arctanh(N: int, prec: int = 50) -> QuadratureResult:
    """K(N) = integral_0^1 atanh^N(z)/z dz (log^N blowup at z = 1)."""
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N >= 1 required, got {N!r}")
    coerce_prec(prec)

    def ev(x, xc):
        return _atanh_stable(x, xc) ** N / x

    return integrate01(
        Integrand(ev, (REGULAR, LOGARITHMIC), name=f"K({N})"), prec
    )


def t_kernel_quad(N: int, prec: int = 50) -> QuadratureResult:
    """(1/(2N+1)!) integral_0^1 arcsin^(2N+1)(z) arccos(z)/z dz.

    The arccos factor vanishes like sqrt(2(1-z)) at z = 1 (algebraic class);
    it is evaluated through the half-angle identity at every node.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N >= 1 required, got {N!r}")
    coerce_prec(prec)
    M = 2 * N + 1

    def ev(x, xc):
        return _asin_stable(x, xc) ** M * acos_stable(x, xc) / x

    raw = integrate01(
        Integrand(ev, (REGULAR, ALGEBRAIC), name=f"t-kernel({N})"), prec
    )
    with LOCK, mp.workdps(prec + GUARD_DIGITS):
        factor = 1 / mpf(math.factorial(M))
        return _scaled(raw, factor, prec)


def logpolylog_kernel(
    p: int, q: int, sign_arg: int, sign_den: int, prec: int = 50
) -> QuadratureResult:
    """integral_0^1 log^(q-1)(x) Li_p(sign_arg*x) / (x (1 + sign_den*x^2)) dx.

    With sign_den = -1 the denominator factor 1 - x^2 = xc (2 - xc) has a
    simple zero at x = 1 which the log^(q-1) zero (q >= 2) cancels; both
    factors are computed from xc directly so the ratio is fully accurate at
    the deepest DE nodes.  q < 2 is refused: with sign_den = -1 the endpoint
    becomes non-integrable, and the uniform q >= 2 precondition keeps the
    operation's domain a rectangle.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p >= 2 required, got {p!r}")
    if not isinstance(q, int) or q < 2:
        if sign_den == -1:
            raise ValueError(
                f"q >= 2 required, got {q!r}: the 1/(1-x^2) endpoint is non-integrable"
            )
        raise ValueError(f"q >= 2 required, got {q!r}")
    if sign_arg not in (1, -1) or sign_den not in (1, -1):
        raise ValueError("sign_arg and sign_den must be +1 or -1")
    coerce_prec(prec)
    wd = prec + GUARD_DIGITS

    def ev(x, xc):
        lg = _log_stable(x, xc)
        li = _polylog_raw(p, sign_arg * x, xc, wd)[0]
        if sign_den == -1:
            den = x * xc * (2 - xc)  # x (1-x) (1+x), no cancellation
        else:
            den = x * (1 + x * x)
        return lg ** (q - 1) * li / den

    ends = (LOGARITHMIC, LOGARITHMIC if sign_den == -1 else REGULAR)
    name = f"log^{q-1} Li_{p}({'+' if sign_arg > 0 else '-'}x)/(x(1{'+' if sign_den > 0 else '-'}x^2))"
    return integrate01(Integrand(ev, ends, name=name), prec)


def kernel_pair(p: int, q: int, sign_den: int, prec: int = 50) -> EvalResult:
    """(-1)^q/(2 (q-1)!) [L(p,q,-1,den) - L(p,q,+1,den)], L = logpolylog_kernel.

    With sign_den = -1 the pair reproduces O(p,q), with +1 the alternating
    B(p,q).  Like every quadrature result the bound is an estimate.
    """
    lneg = logpolylog_kernel(p, q, -1, sign_den, prec)
    lpos = logpolylog_kernel(p, q, +1, sign_den, prec)
    with LOCK, mp.workdps(prec + GUARD_DIGITS):
        scale = mpf((-1) ** q) / (2 * math.factorial(q - 1))
        value = scale * (lneg.value.magnitude - lpos.value.magnitude)
        bound = abs(scale) * (lneg.error_bound.magnitude + lpos.error_bound.magnitude)
    return wrap_result(value, bound, prec, Method.QUADRATURE, rigorous=False)


def logsine_check(n: int, prec: int = 50) -> QuadratureResult:
    """-n integral_0^(pi/2) z^(n-1) log(sin z) dz (equals I(n); cross-check).

    Mapped to (0,1) by z = (pi/2) x; near x = 1 the integrand uses
    log(sin((pi/2)(1-xc))) = log(cos((pi/2) xc)).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n >= 1 required, got {n!r}")
    coerce_prec(prec)

    def ev(x, xc):
        z = mp.pi / 2 * x
        if xc < mpf(1) / 2:
            ls = mp.log(mp.cos(mp.pi / 2 * xc))
        else:
            ls = mp.log(mp.sin(z))
        return z ** (n - 1) * ls

    raw = integrate01(
        Integrand(ev, (LOGARITHMIC, REGULAR), name=f"logsine({n})"), prec
    )
    with LOCK, mp.workdps(prec + GUARD_DIGITS):
        factor = -n * mp.pi / 2
        return _scaled(raw, factor, prec)
