"""Truncated power series, the averaging operator W, and coefficient families.

The operator  W f(z) = integral_0^1 f(xz)/sqrt(1-x^2) dx  acts on a power
series coefficientwise: z^n picks up the Wallis factor

    W_n = integral_0^1 x^n/sqrt(1-x^2) dx
        = (n-1)!!/n!!            for odd n,
        = (pi/2) (n-1)!!/n!!     for even n,

with the conventions (-1)!! = 0!! = 1.  Because even factors carry a bare pi,
every coefficient in this module lives in the ring Q + Q*pi, stored as an
exact pair of Fractions.  That choice makes the structural facts -- W's
linearity, the recurrence defining each coefficient family, the double-
factorial cancellation (2k)!!/(2k+1)!! * (2k-1)!!/(2k)!! = 1/(2k+1) -- exact
statements instead of floating-point approximations.  Applying W twice would
need pi^2 and is refused rather than silently approximated.

Coefficient families (all exact rationals, memoized):

  G_N(k) = sum over k > n_1 > ... > n_N >= 0 of prod 1/(2 n_j + 1)^2,
           G_0 = 1; the odd-power arcsin expansion
           arcsin^(2v+1)(z)/(2v+1)! = sum_k G_v(k) (2k-1)!!/((2k)!! (2k+1)) z^(2k+1).

  H_N(k): H_1 = 1/4, H_(N+1)(k) = sum_(n<k) H_N(n)/(2n)^2; the even-power
           expansion arcsin^(2v)(z)/(2v)! = sum_k H_v(k) (2k)!!/((2k-1)!! k^2) z^(2k).

  A_N(m) = sum over m > n_N > ... > n_1 with n_j = j (mod 2) of prod 1/n_j,
           A_0 = 1; the arctanh expansion
           arctanh^N(z)/N! = sum_(m = N mod 2) A_(N-1)(m)/m z^m.

wallis_identity_check evaluates both sides of the W-operator identity for a
truncated series, by Horner's rule and by DE quadrature (verify row 30).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from .hp import GUARD_DIGITS, LOCK, EvalResult, HPReal, coerce_prec, wrap_result
from .quadrature import Integrand, QuadratureResult, acos_column, integrate01

__all__ = [
    "SeriesCoeff",
    "TruncatedSeries",
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
    """One coefficient: rational + pi_part * pi, both exact Fractions."""

    rational: Fraction = Fraction(0)
    pi_part: Fraction = Fraction(0)

    def __add__(self, other: "SeriesCoeff") -> "SeriesCoeff":
        return SeriesCoeff(self.rational + other.rational, self.pi_part + other.pi_part)

    def scale(self, c: Fraction) -> "SeriesCoeff":
        return SeriesCoeff(self.rational * c, self.pi_part * c)

    def is_zero(self) -> bool:
        return self.rational == 0 and self.pi_part == 0

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
# truncated series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial c_0 + c_1 z + ... + c_M z^M standing in for a power series;
    its coefficients are exact SeriesCoeff pairs."""

    coeffs: tuple[SeriesCoeff, ...]

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_rationals(cls, values: Sequence[Fraction | int]) -> "TruncatedSeries":
        return cls(tuple(SeriesCoeff(Fraction(v)) for v in values))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("truncation orders differ")
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries(tuple(a.scale(c) for a in self.coeffs))

    def integrate_over_z(self) -> "TruncatedSeries":
        """Termwise integral_0^z f(t)/t dt: c_n -> c_n/n.  Needs c_0 = 0."""
        if not self.coeffs[0].is_zero():
            raise ValueError("integrate_over_z requires a vanishing constant term")
        out = [SeriesCoeff()]
        out.extend(c.scale(Fraction(1, n)) for n, c in enumerate(self.coeffs) if n > 0)
        return TruncatedSeries(tuple(out))


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------

# (family, N) -> list of Fractions indexed by k; grown on demand under LOCK
_TABLES: dict[tuple[str, int], list[Fraction]] = {}


def _row(family: str, N: int, upto: int) -> list[Fraction]:
    """The family row as a list [f(0), ..., f(upto)], memoized and extended."""
    key = (family, N)
    with LOCK:
        row = _TABLES.get(key)
        if row is None:
            row = []
            _TABLES[key] = row
        if len(row) > upto:
            return row
        if N == 0:
            # G_0 = A_0 = 1 everywhere (H has no N = 0 row)
            base = Fraction(1)
            while len(row) <= upto:
                if family == "arctanh_nested" and len(row) == 0:
                    row.append(Fraction(0))  # chains index from 1
                else:
                    row.append(base)
            return row
        # H_1 is its own base case (1/4 everywhere); everything else recurses
        prev = None if (family == "H" and N == 1) else _row(family, N - 1, upto)
        k = len(row)
        while k <= upto:
            if k == 0:
                row.append(Fraction(0))
            elif family == "G":
                # G_N(k) = G_N(k-1) + G_(N-1)(k-1)/(2(k-1)+1)^2
                row.append(row[k - 1] + prev[k - 1] / (2 * (k - 1) + 1) ** 2)
            elif family == "H":
                # H_(N+1)(k) = sum_(n<k) H_N(n)/(2n)^2 plus the base row 1/4
                if N == 1:
                    row.append(Fraction(1, 4))
                elif k == 1:
                    row.append(Fraction(0))
                else:
                    row.append(row[k - 1] + prev[k - 1] / (2 * (k - 1)) ** 2)
            else:
                # A_N(m) = sum_(n<m, n = N mod 2) A_(N-1)(n)/n
                if k == 1:
                    row.append(Fraction(0))
                else:
                    acc = row[k - 1]
                    n = k - 1
                    if n % 2 == N % 2:
                        acc = acc + prev[n] / n
                    row.append(acc)
            k += 1
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


def arcsin_power_series(N: int, M: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Series of arcsin^N(z)/N! through z^M.

    Odd N = 2v+1:  coefficient of z^(2k+1) is G_v(k) (2k-1)!!/((2k)!! (2k+1)).
    Even N = 2v:   coefficient of z^(2k)   is H_v(k) (2k)!!/((2k-1)!! k^2).
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N >= 1 required, got {N!r}")
    if M < N:
        raise ValueError("truncation order below the leading exponent")
    cs = [SeriesCoeff() for _ in range(M + 1)]
    if N % 2:
        v = (N - 1) // 2
        for k in range(0, (M - 1) // 2 + 1):
            g = g_coeff(v, k)
            if g:
                c = g * Fraction(double_factorial(2 * k - 1), double_factorial(2 * k))
                cs[2 * k + 1] = SeriesCoeff(c / (2 * k + 1))
    else:
        v = N // 2
        for k in range(1, M // 2 + 1):
            h = h_coeff(v, k)
            if h:
                c = h * Fraction(double_factorial(2 * k), double_factorial(2 * k - 1))
                cs[2 * k] = SeriesCoeff(c / k ** 2)
    return TruncatedSeries(tuple(cs))


# ---------------------------------------------------------------------------
# the W operator
# ---------------------------------------------------------------------------


def w_apply(f: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise Wallis map: c_n -> c_n * W_n.

    Odd n scales by the rational (n-1)!!/n!!.  Even n additionally multiplies
    by pi/2, moving the rational slot into the pi slot; an even coefficient
    that already carries pi would need pi^2 and is refused.
    """
    out = []
    for n, c in enumerate(f.coeffs):
        w = wallis_fraction(n)
        if n % 2:
            out.append(c.scale(w))
        else:
            if c.pi_part:
                raise ValueError(
                    f"coefficient of z^{n} already has a pi part; applying W "
                    "again would leave the Q + Q*pi coefficient ring"
                )
            out.append(SeriesCoeff(Fraction(0), c.rational * w / 2))
    return TruncatedSeries(tuple(out))


def wallis_identity_check(
    f: TruncatedSeries, alpha, prec: int = 50
) -> tuple[EvalResult, QuadratureResult]:
    """Both sides of  W(integral_0^alpha f(z)/z dz) = integral_0^1 f(alpha x) arccos(x)/x dx.

    Left: termwise integration, W, then series evaluation at alpha.  Right:
    DE quadrature of the arccos kernel against the same truncated series.
    The two routes share only the coefficients, so their agreement exercises
    the operator identity itself (integration by parts against arccos).  The
    arccos values come from the quadrature node column t_kernel_quad reads.
    Requires f(0) = 0 so that f(z)/z is a power series.

    Both sides evaluate the same polynomial, so the left side is charged its
    Horner roundings only, (M + 2) 10^-(wd-1) sum |c_n| |alpha|^n for the
    polynomial's degree M, and not an estimate of the series tail; one
    Horner loop gives the value and that majorant.

    The right side's polynomial, of M coefficients, runs Horner's rule in
    integers scaled by 2^B, B the working bits wbits plus the bits of M plus
    4: each coefficient is rounded to within one unit 2^-B once per call,
    and each product by y = alpha x is exact on y's mantissa, then floored.
    A step's error is multiplied by |y| < 1 in every later one, so the
    polynomial is within 2M - 1 units, under 2^-wbits/8.
    """
    coerce_prec(prec)
    if not f.coeffs[0].is_zero():
        raise ValueError("identity requires f(0) = 0")
    poly = w_apply(f.integrate_over_z())
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        if isinstance(alpha, HPReal):
            av = alpha.magnitude
        elif isinstance(alpha, Fraction):
            av = mpf(alpha.numerator) / alpha.denominator
        else:
            av = mpf(alpha)
        if not 0 < av <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        value = majorant = mpf(0)
        for c in reversed(poly.coeffs):
            cv = c.to_mpf()
            value = value * av + cv
            majorant = majorant * av + abs(cv)
        rounding = majorant * (poly.truncation_order + 2) * mpf(10) ** (1 - wd)
        lhs = wrap_result(value, rounding, prec, rigorous=False)
        # f(alpha x)/x = alpha * sum_(n>=1) c_n (alpha x)^(n-1): no division
        shifted = f.coeffs[1:] or (SeriesCoeff(),)
        bits = dps_to_prec(wd) + len(shifted).bit_length() + 4
        # bits of the largest coefficient's magnitude: mpf's roundings of each
        # then cost under a hundredth of a unit before nint
        size = max(int(abs(c.rational) + 4 * abs(c.pi_part)) for c in shifted).bit_length()
        with mp.workprec(bits + size + 10):
            ints = [int(mp.nint(mp.ldexp(c.to_mpf(), bits))) for c in reversed(shifted)]

    def ev(x, xc):
        sign, man, exp, _ = (av * x)._mpf_
        m = -man if sign else man
        acc = ints[0]
        for c in ints[1:]:
            acc = ((acc * m) >> -exp) + c
        return av * mp.ldexp(acc, -bits) * acos_column(x, xc)

    rhs = integrate01(Integrand(ev, name="arccos kernel"), prec)
    return lhs, rhs
