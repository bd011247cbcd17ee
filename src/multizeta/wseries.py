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
truncated series, by Horner's rule and by DE quadrature (verify row 30); the
quadrature side reads cos and sin at each node from one node column of
quadrature, filled by one cos_sin per node pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from .hp import GUARD_DIGITS, LOCK, EvalResult, coerce_prec, require, wrap_result
from .quadrature import Integrand, QuadratureResult, integrate01, scaled_quotient
from .quadrature import cos_sin_column

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

    def to_mpf(self) -> mpf:
        """Materialize at the ambient working precision."""
        v = mpf(self.rational.numerator) / self.rational.denominator
        if self.pi_part:
            v += mpf(self.pi_part.numerator) / self.pi_part.denominator * mp.pi
        return v


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def wallis_fraction(n: int) -> Fraction:
    """(n-1)!!/n!! -- the rational part of the Wallis integral W_n.

    W_n itself is this fraction for odd n and (pi/2) times it for even n.
    """
    if n < 0:
        raise ValueError(f"n >= 0 required, got {n!r}")
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
    if N < 0 or k < 0:
        raise ValueError("N, k >= 0 required")
    return _row("G", N, k)[k]


def h_coeff(N: int, k: int) -> Fraction:
    """H_N(k): H_1 = 1/4 and H_(N+1)(k) = sum_(n<k) H_N(n)/(2n)^2."""
    if N < 1 or k < 1:
        raise ValueError("N, k >= 1 required")
    return _row("H", N, k)[k]


def arctanh_nested_coeff(N: int, m: int) -> Fraction:
    """A_N(m): nested parity-constrained harmonic chains below m."""
    if N < 0 or m < 1:
        raise ValueError("N >= 0 and m >= 1 required")
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
    if M < N:
        raise ValueError("truncation order below the leading exponent")
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


def wallis_identity_check(f, alpha, prec: int = 50) -> tuple[EvalResult, QuadratureResult]:
    """Both sides of  W(integral_0^alpha f(z)/z dz) = integral_0^1 f(alpha x) arccos(x)/x dx.

    f is the tuple of f's rational coefficients c_0, ..., c_M.  Left: termwise
    integration c_n -> c_n/n, W, then series evaluation at alpha.  Right:
    DE quadrature after x = cos(theta), theta = (pi/2) s, of the integrand
    alpha (pi/2)^2 s sin(pi s/2) g(alpha cos(pi s/2)), analytic on [0, 1],
    with g(y) = f(y)/y = sum_(n>=1) c_n y^(n-1); cos and sin at a node and at
    its mirror come from one cos_sin (the two-valued node column
    cos_sin_column).  The two routes share only the coefficients, so their
    agreement exercises the operator identity itself (integration by parts
    against arccos).  Requires f(0) = 0 so that f(z)/z is a power series,
    and alpha in (0, 1], a Fraction or a real number.

    Both sides evaluate the same polynomial, so the left side is charged its
    Horner roundings only, (M + 2) 10^-(wd-1) sum |c_n| |alpha|^n for the
    polynomial's degree M, and not an estimate of the series tail; one
    Horner loop gives the value and that majorant.

    The right side splits g(y) = E(y^2) + y O(y^2) and runs Horner's rule on
    each part with a nonzero coefficient (arcsin^2's g is odd) in integers
    scaled by 2^B, B = wbits + the bits of g's M coefficients + 4.  Each
    coefficient is rounded to within one unit 2^-B once per call; y = alpha
    cos is rounded once as an mpf and u = y^2 floored to B bits, a smaller
    change; each product by u is floored, its error multiplied by u < 1 in
    every later step.  So a part of K coefficients is within 2K - 1 units,
    y O one floor more: g is within 2M units, under 2^-wbits/8, and its
    exact product with s, sin and alpha (pi/2)^2 is floored once by
    quadrature.scaled_quotient.
    """
    coerce_prec(prec)
    if f[0]:
        raise ValueError("identity requires f(0) = 0")
    poly = w_apply((Fraction(0), *(Fraction(c, n) for n, c in enumerate(f) if n)))
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        if isinstance(alpha, Fraction):
            av = mpf(alpha.numerator) / alpha.denominator
        else:
            av = mpf(alpha)
        if not 0 < av <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        value = majorant = mpf(0)
        for c in reversed(poly):
            cv = c.to_mpf()
            value = value * av + cv
            majorant = majorant * av + abs(cv)
        rounding = majorant * (len(poly) + 1) * mpf(10) ** (1 - wd)
        lhs = wrap_result(value, rounding, prec, rigorous=False)
        shifted = f[1:] or (0,)  # g's coefficients
        bits = dps_to_prec(wd) + len(shifted).bit_length() + 4
        # bits of the largest coefficient's magnitude: mpf's roundings of each
        # then cost under a hundredth of a unit before nint
        size = max(int(abs(c)) for c in shifted).bit_length()
        with mp.workprec(bits + size + 10):
            ints = [int(mp.nint(mp.ldexp(mpf(c.numerator) / c.denominator, bits)))
                    for c in shifted]
        parts = [part[::-1] if any(part) else [] for part in (ints[0::2], ints[1::2])]
        _, mk, ek, _ = (av * mp.pi ** 2 / 4)._mpf_

    def ev(x, xc):
        _, m, e, _ = (av * mpf(cos_sin_column(x, xc)))._mpf_
        u = (m * m << bits) >> -2 * e  # y^2 2^B, floored
        even, odd = (reduce(lambda acc, c: (acc * u >> bits) + c, part, 0) for part in parts)
        ms, es = cos_sin_column(x, xc, 1)
        _, mx, ex, _ = x._mpf_
        return scaled_quotient(mk * mx * ms * (even + (odd * m >> -e)), ek + ex + es - bits)

    rhs = integrate01(Integrand(ev, name="Wallis identity"), prec)
    return lhs, rhs
