"""Truncated power series, the averaging operator W, and coefficient families.

The operator  W f(z) = integral_0^1 f(xz)/sqrt(1-x^2) dx  acts on a power
series coefficientwise: z^n picks up the Wallis factor

    W_n = integral_0^1 x^n/sqrt(1-x^2) dx
        = (n-1)!!/n!!            for odd n,
        = (pi/2) (n-1)!!/n!!     for even n,

with the conventions (-1)!! = 0!! = 1.  A truncated series is the tuple of
its exact coefficients: Fractions for the series themselves, and for W's
image, where even factors carry a bare pi, SeriesCoeff pairs in Q + Q*pi.
That choice makes the structural facts -- W's linearity, the recurrence
defining each coefficient family, the double-factorial cancellation
(2k)!!/(2k+1)!! * (2k-1)!!/(2k)!! = 1/(2k+1) -- exact statements instead of
floating-point approximations.

Coefficient families (all exact rationals, memoized, each row built from the
one below it by the one nested-prefix recurrence of _row):

  G_N(k) = sum over k > n_1 > ... > n_N >= 0 of prod 1/(2 n_j + 1)^2,
           G_0 = 1; the odd-power arcsin expansion
           arcsin^(2v+1)(z)/(2v+1)! = sum_k G_v(k) (2k-1)!!/((2k)!! (2k+1)) z^(2k+1).

  H_N(k): H_1 = 1/4, H_(N+1)(k) = sum_(n<k) H_N(n)/(2n)^2; the even-power
           expansion arcsin^(2v)(z)/(2v)! = sum_k H_v(k) (2k)!!/((2k-1)!! k^2) z^(2k).

  A_N(m) = sum over m > n_N > ... > n_1 with n_j = j (mod 2) of prod 1/n_j,
           A_0 = 1; the arctanh expansion
           arctanh^N(z)/N! = sum_(m = N mod 2) A_(N-1)(m)/m z^m.

wallis_identity_check evaluates both sides of the W-operator identity for a
truncated series (verify row 30) exactly in Q + Q*pi, evaluated by
hp.combine: the left side by the Wallis factors, the right side by arccos
moments integrated over the sine series of their integrand.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .hp import LOCK, EvalResult, coerce_prec, combine, pi_const, require

__all__ = [
    "SeriesCoeff",
    "g_coeff",
    "h_coeff",
    "arctanh_nested_coeff",
    "double_factorial",
    "wallis_fraction",
    "arcsin_power_series",
    "w_apply",
    "wallis_identity_check",
]

DEFAULT_ORDER = 80


# ---------------------------------------------------------------------------
# exact coefficient ring Q + Q*pi
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesCoeff:
    """One coefficient of W's image: rational + pi_part * pi, both exact Fractions."""

    rational: Fraction = Fraction(0)
    pi_part: Fraction = Fraction(0)


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    require(n, "n", -1)
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def wallis_fraction(n: int) -> Fraction:
    """(n-1)!!/n!! -- the rational part of the Wallis integral W_n.

    W_n itself is this fraction for odd n and (pi/2) times it for even n.
    """
    require(n, "n", 0)
    return Fraction(double_factorial(n - 1), double_factorial(n))


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------

# (family, N) -> list of Fractions indexed by k; grown on demand under LOCK
_TABLES: dict[tuple[str, int], list[Fraction]] = {}

# family -> (base N, base value from its first nonzero k on, that k, weight):
# rows above the base are X_N(k) = X_N(k-1) + w_N(k-1) X_(N-1)(k-1), zero
# below k = first + N - base, with w_N(n) = weight(N, n); A's is 1/n where
# n = N (mod 2) and 0 elsewhere
_FAMILIES = {
    "G": (0, Fraction(1), 0, lambda N, n: Fraction(1, (2 * n + 1) ** 2)),
    "H": (1, Fraction(1, 4), 1, lambda N, n: Fraction(1, (2 * n) ** 2)),
    "arctanh_nested": (0, Fraction(1), 1, lambda N, n: Fraction(n % 2 == N % 2, n)),
}


def _row(family: str, N: int, upto: int) -> list[Fraction]:
    """[X_N(0), ..., X_N(upto)] of one coefficient family, memoized and extended."""
    base, value, first, weight = _FAMILIES[family]
    with LOCK:
        row = _TABLES.setdefault((family, N), [])
        row.extend([Fraction(0)] * (min(first + N - base, upto + 1) - len(row)))
        if N == base:
            row.extend([value] * (upto + 1 - len(row)))
        elif len(row) <= upto:
            prev = _row(family, N - 1, upto)
            for k in range(len(row), upto + 1):
                row.append(row[k - 1] + weight(N, k - 1) * prev[k - 1])
        return row


def g_coeff(N: int, k: int) -> Fraction:
    """G_N(k) = sum over k > n_1 > ... > n_N >= 0 of prod 1/(2 n_j + 1)^2."""
    require(N, "N", 0)
    require(k, "k", 0)
    return _row("G", N, k)[k]


def h_coeff(N: int, k: int) -> Fraction:
    """H_N(k): H_1 = 1/4 and H_(N+1)(k) = sum_(n<k) H_N(n)/(2n)^2."""
    require(N, "N")
    require(k, "k")
    return _row("H", N, k)[k]


def arctanh_nested_coeff(N: int, m: int) -> Fraction:
    """A_N(m): nested parity-constrained harmonic chains below m."""
    require(N, "N", 0)
    require(m, "m")
    return _row("arctanh_nested", N, m)[m]


# ---------------------------------------------------------------------------
# the arcsin series
# ---------------------------------------------------------------------------


def arcsin_power_series(N: int, M: int = DEFAULT_ORDER) -> tuple[Fraction, ...]:
    """Coefficients c_0, ..., c_M of arcsin^N(z)/N! through z^M.

    Odd N = 2v+1:  coefficient of z^(2k+1) is G_v(k) (2k-1)!!/((2k)!! (2k+1)).
    Even N = 2v:   coefficient of z^(2k)   is H_v(k) (2k)!!/((2k-1)!! k^2).
    """
    require(N, "N")
    require(M, "M", N)
    cs = [Fraction(0)] * (M + 1)
    if N % 2:
        v = (N - 1) // 2
        for k in range(0, (M - 1) // 2 + 1):
            g = g_coeff(v, k)
            if g:
                c = g * Fraction(double_factorial(2 * k - 1), double_factorial(2 * k))
                cs[2 * k + 1] = c / (2 * k + 1)
    else:
        v = N // 2
        for k in range(1, M // 2 + 1):
            h = h_coeff(v, k)
            if h:
                c = h * Fraction(double_factorial(2 * k), double_factorial(2 * k - 1))
                cs[2 * k] = c / k ** 2
    return tuple(cs)


# ---------------------------------------------------------------------------
# the W operator
# ---------------------------------------------------------------------------


def w_apply(coeffs) -> tuple[SeriesCoeff, ...]:
    """Coefficientwise Wallis map of rational coefficients: c_n -> c_n * W_n.

    Odd n scales by the rational (n-1)!!/n!!.  Even n additionally multiplies
    by pi/2, so its image lies in the pi slot.
    """
    return tuple(
        SeriesCoeff(c * wallis_fraction(n)) if n % 2
        else SeriesCoeff(Fraction(0), c * wallis_fraction(n) / 2)
        for n, c in enumerate(coeffs)
    )


@cache
def _arccos_moment(n: int) -> SeriesCoeff:
    """J_n = integral_0^1 x^(n-1) arccos(x) dx in Q + Q*pi, from the sine series
    of its integrand.  With x = cos t and m = n - 1, J_n = integral_0^(pi/2)
    t cos^m t sin t dt, and cos^m t sin t = 2^-(m+1) sum_j C(m, j) [sin((m-2j+1) t)
    - sin((m-2j-1) t)].  F(k) = integral_0^(pi/2) t sin(kt) dt = sin(k pi/2)/k^2
    - (pi/2) cos(k pi/2)/k is odd in k, so J_n = 2^-m sum_(i < n/2) (C(m, i) -
    C(m, i-1)) F(n - 2i): rational for odd n, F(k) = (-1)^(k//2)/k^2, and pi
    times a rational for even n, F(k) = -(pi/2) (-1)^(k//2)/k; summed in
    integers over L^2 or L, L = lcm(1, ..., n), walking C(m, i) by C(m, i+1) =
    C(m, i) (m - i)/(i + 1)."""
    m, odd = n - 1, n % 2
    L = math.lcm(*range(1, n + 1))
    total, below, binom = 0, 0, 1  # C(m, i-1), C(m, i)
    for i, k in enumerate(range(n, 0, -2)):
        total += (-1) ** (k // 2) * (binom - below) * (L // k) ** (1 + odd)
        below, binom = binom, binom * (m - i) // (i + 1)
    if odd:
        return SeriesCoeff(Fraction(total, L * L << m))
    return SeriesCoeff(Fraction(0), Fraction(-total, L << n))


def _exact(x, what: str) -> Fraction:
    """x read exactly: an mpf by its mantissa and exponent, anything else by Fraction."""
    if isinstance(x, mpf):
        if mp.isfinite(x):
            return Fraction(*to_rational(x._mpf_))
    else:
        with suppress(TypeError, ValueError, OverflowError):  # None, an object, inf, nan
            return Fraction(x)
    raise ValueError(f"{what} must be a finite real number, got {x!r}")


def _fraction_sum(pairs) -> Fraction:
    """sum n/d over integer pairs (n, d), over their least common denominator."""
    den = math.lcm(*(d for _, d in pairs))
    return Fraction(sum(n * (den // d) for n, d in pairs), den)


def _sum_at(terms, prec: int) -> EvalResult:
    """sum of x (rational + pi_part pi) over pairs (x, SeriesCoeff) as q + r pi, by
    hp.combine; q and r are each summed in integers over one common denominator."""
    parts = ([], [])
    for x, c in terms:
        for part, y in zip(parts, (c.rational, c.pi_part)):
            if y:
                part.append((x.numerator * y.numerator, x.denominator * y.denominator))
    q, r = map(_fraction_sum, parts)
    return combine([(v, fs) for v, fs in ((q, []), (r, [pi_const(prec)])) if v], prec)


def wallis_identity_check(f, alpha, prec: int = 50) -> tuple[EvalResult, EvalResult]:
    """Both sides of  W(integral_0^alpha f(z)/z dz) = integral_0^1 f(alpha x) arccos(x)/x dx.

    f holds the coefficients c_0, ..., c_M of f, with f(0) = 0 so that f(z)/z
    is a power series; alpha lies in (0, 1].  alpha and each c_n are read
    once, exactly: an mpf by its mantissa and exponent, an int, Fraction,
    float or string by Fraction; None, other objects, inf and nan raise
    ValueError.  Each side is exact in Q + Q*pi and evaluated by hp.combine,
    so rigorous.  Left: c_n -> c_n/n, then W (w_apply), at alpha.  Right:
    sum_n c_n alpha^n J_n over the arccos moments (_arccos_moment).  The two
    share only the c_n and alpha, so their agreement checks the operator
    identity itself (integration by parts against arccos), exactly.
    """
    coerce_prec(prec)
    cs = [_exact(c, "a coefficient") for c in f]
    if not cs or cs[0]:
        raise ValueError("identity requires coefficients c_0, ... with f(0) = 0")
    a = _exact(alpha, "alpha")
    if not 0 < a <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    powers = [a ** n for n in range(len(cs))]
    lhs = _sum_at(zip(powers, w_apply([c / n if n else c for n, c in enumerate(cs)])), prec)
    rhs = _sum_at(((c * p, _arccos_moment(n)) for n, (c, p) in enumerate(zip(cs, powers)) if n), prec)
    return lhs, rhs
