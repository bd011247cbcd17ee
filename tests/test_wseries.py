"""Tests for coefficient families, truncated series, and the W operator.

The coefficient families are checked against brute-force chain enumeration
(exact rationals), the series they generate, summed exactly over Q, against
direct mpmath function evaluation, and the W-operator identities exactly in
the Q + Q*pi coefficient ring.
"""

import itertools
import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from multizeta.wseries import (
    SeriesCoeff,
    arcsin_power_series,
    arctanh_nested_coeff,
    double_factorial,
    g_coeff,
    h_coeff,
    w_apply,
    wallis_fraction,
    wallis_identity_check,
)


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------


def brute_g(N, k):
    """G_N(k) by direct enumeration of strictly decreasing chains below k."""
    total = Fraction(0)
    for chain in itertools.combinations(range(k), N):
        p = Fraction(1)
        for n in chain:
            p /= (2 * n + 1) ** 2
        total += p
    return total


def brute_a(N, m):
    """A_N(m): chains m > n_N > ... > n_1 >= 1 with n_j = j (mod 2)."""
    total = Fraction(0)
    for chain in itertools.combinations(range(1, m), N):
        if any(chain[j] % 2 != (j + 1) % 2 for j in range(N)):
            continue
        p = Fraction(1)
        for n in chain:
            p /= n
        total += p
    return total


def test_g_examples():
    assert all(g_coeff(0, k) == 1 for k in range(10))
    assert g_coeff(1, 2) == Fraction(10, 9)
    assert g_coeff(2, 2) == Fraction(1, 9)
    with pytest.raises(ValueError):
        g_coeff(-1, 2)


def test_g_bruteforce():
    for N in range(4):
        for k in range(12):
            assert g_coeff(N, k) == brute_g(N, k), (N, k)


def test_g_recurrence_exact():
    for N in range(1, 5):
        for k in range(1, 40):
            assert g_coeff(N, k) == sum(
                (g_coeff(N - 1, n) / Fraction((2 * n + 1) ** 2) for n in range(k)),
                Fraction(0),
            )


def test_h_examples():
    assert all(h_coeff(1, k) == Fraction(1, 4) for k in range(1, 10))
    assert h_coeff(2, 2) == Fraction(1, 16)
    assert h_coeff(2, 3) == Fraction(5, 64)
    with pytest.raises(ValueError):
        h_coeff(1, 0)


def test_h_recurrence_exact():
    for N in range(2, 5):
        for k in range(1, 40):
            assert h_coeff(N, k) == sum(
                (h_coeff(N - 1, n) / Fraction((2 * n) ** 2) for n in range(1, k)),
                Fraction(0),
            )


def test_arctanh_coeffs_bruteforce():
    for N in range(4):
        for m in range(1, 12):
            assert arctanh_nested_coeff(N, m) == brute_a(N, m), (N, m)


def test_family_signs():
    # zero below the chain length, strictly positive from there on
    for N in range(1, 5):
        for k in range(N):
            assert g_coeff(N, k) == 0
        for k in range(N, N + 20):
            assert g_coeff(N, k) > 0
        for k in range(1, N):
            assert h_coeff(N, k) == 0
        for k in range(N, N + 20):
            assert h_coeff(N, k) > 0


def test_table_growth_is_thread_safe():
    results = []

    def worker():
        results.append(g_coeff(3, 150))

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == g_coeff(3, 150)


# ---------------------------------------------------------------------------
# double factorials and Wallis fractions
# ---------------------------------------------------------------------------


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_wallis_fraction_values():
    # W_0 = pi/2 (fraction 1), W_1 = 1, W_2 = pi/4 (fraction 1/2)
    assert wallis_fraction(0) == 1
    assert wallis_fraction(1) == 1
    assert wallis_fraction(2) == Fraction(1, 2)
    assert wallis_fraction(3) == Fraction(2, 3)
    # the telescoping used by the odd-route roundtrip
    for k in range(20):
        assert wallis_fraction(2 * k + 1) * wallis_fraction(2 * k) == Fraction(
            1, 2 * k + 1
        )


# ---------------------------------------------------------------------------
# the series the families generate
# ---------------------------------------------------------------------------


def arctanh_coeffs(N, M):
    """{m: coefficient of z^m in arctanh^N(z)/N!} through z^M: A_(N-1)(m)/m
    for m = N (mod 2), zero below z^N."""
    return {m: arctanh_nested_coeff(N - 1, m) / m for m in range(N, M + 1, 2)}


def arcsin_coeffs(N, M):
    return dict(enumerate(arcsin_power_series(N, M)))


def exact_sum(coeffs, z):
    """The polynomial summed exactly over Q, as an mpf at the ambient precision."""
    total = sum((c * z ** n for n, c in coeffs.items()), Fraction(0))
    return mpf(total.numerator) / total.denominator


def test_arcsin_series_classical():
    s = arcsin_power_series(1, 9)
    assert s[:8] == (0, 1, 0, Fraction(1, 6), 0, Fraction(3, 40), 0, Fraction(15, 336))
    assert len(s) == 10
    assert all(type(c) is Fraction for c in s)


def test_leading_terms_are_z_N_over_N_factorial():
    for N in range(1, 7):
        s = arcsin_power_series(N, 12)
        assert s[N] == Fraction(1, math.factorial(N))
        assert not any(s[:N])
        assert arctanh_coeffs(N, 12)[N] == Fraction(1, math.factorial(N))
        assert all(arctanh_nested_coeff(N - 1, m) == 0 for m in range(1, N))


def test_arctanh_series_classical():
    assert arctanh_coeffs(1, 9) == {m: Fraction(1, m) for m in (1, 3, 5, 7, 9)}
    assert arctanh_coeffs(3, 5)[3] == Fraction(1, 6)


@pytest.mark.parametrize("N", range(1, 7))
def test_series_vs_function(N):
    # the degree-80 polynomials, summed exactly, at points where the
    # series' tail is below 10^-40
    for coeffs, fn in ((arcsin_coeffs(N, 80), mp.asin), (arctanh_coeffs(N, 80), mp.atanh)):
        for z in (Fraction(1, 10), Fraction(3, 10)):
            with workdps(60):
                zv = mpf(z.numerator) / z.denominator
                err = abs(exact_sum(coeffs, z) - fn(zv) ** N / mp.factorial(N))
                assert err < mpf(10) ** -40, (N, z, fn, float(err))


def test_arcsin_cube_at_half():
    # arcsin(1/2) = pi/6, so the N=3 series at 1/2 approaches (pi/6)^3/6
    with workdps(60):
        err = abs(exact_sum(arcsin_coeffs(3, 80), Fraction(1, 2)) - (mp.pi / 6) ** 3 / 6)
        assert err < mpf(10) ** -24


def test_series_construction_validation():
    with pytest.raises(ValueError):
        arcsin_power_series(0, 10)
    with pytest.raises(ValueError):
        arcsin_power_series(5, 3)
    with pytest.raises(ValueError):
        arcsin_power_series("2", 10)


# ---------------------------------------------------------------------------
# the W operator
# ---------------------------------------------------------------------------


def test_w_apply_trivial_examples():
    # f = 1 -> pi/2;  f = z -> z;  f = z^2 -> (pi/4) z^2
    assert w_apply([Fraction(1)]) == (SeriesCoeff(Fraction(0), Fraction(1, 2)),)
    assert w_apply([Fraction(0), Fraction(1)])[1] == SeriesCoeff(Fraction(1))
    assert w_apply([Fraction(0)] * 2 + [Fraction(1)])[2] == SeriesCoeff(Fraction(0), Fraction(1, 4))


small_fractions = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=12
)


@given(
    st.lists(small_fractions, min_size=5, max_size=5),
    st.lists(small_fractions, min_size=5, max_size=5),
    small_fractions,
    small_fractions,
)
@settings(max_examples=60, deadline=None)
def test_w_linearity_exact(f_coeffs, g_coeffs, a, b):
    lhs = w_apply([a * f + b * g for f, g in zip(f_coeffs, g_coeffs)])
    rhs = tuple(
        SeriesCoeff(a * u.rational + b * v.rational, a * u.pi_part + b * v.pi_part)
        for u, v in zip(w_apply(f_coeffs), w_apply(g_coeffs))
    )
    assert lhs == rhs


@given(st.lists(small_fractions, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_odd_coefficient_roundtrip(cs):
    # a_(2k+1) = ((2k-1)!!/(2k)!!) C_k  ==>  W-image coefficient C_k/(2k+1)
    M = 2 * len(cs)
    coeffs = [Fraction(0)] * (M + 1)
    for k, c in enumerate(cs):
        coeffs[2 * k + 1] = wallis_fraction(2 * k) * c
    out = w_apply(coeffs)
    for k, c in enumerate(cs):
        assert out[2 * k + 1] == SeriesCoeff(c / Fraction(2 * k + 1))


# ---------------------------------------------------------------------------
# the averaging identity
# ---------------------------------------------------------------------------


def test_wallis_identity_linear():
    # f = z, alpha = 1: both sides are integral_0^1 arccos(x) dx = 1
    lhs, rhs = wallis_identity_check((Fraction(0), Fraction(1)), 1, 50)
    with workdps(75):
        assert abs(lhs.value.magnitude - 1) < mpf(10) ** -45
        assert abs(rhs.value.magnitude - 1) < mpf(10) ** -45


def test_wallis_identity_quadratic():
    # f = z^2, alpha = 1: both sides are 2 integral_0^1 x arccos(x) dx / 2 = pi/8
    lhs, rhs = wallis_identity_check((Fraction(0), Fraction(0), Fraction(1)), 1, 50)
    with workdps(75):
        assert abs(lhs.value.magnitude - mp.pi / 8) < mpf(10) ** -45
        assert abs(rhs.value.magnitude - mp.pi / 8) < mpf(10) ** -45


def test_wallis_identity_arcsin_cube():
    lhs, rhs = wallis_identity_check(arcsin_power_series(3, 60), 1, 50)
    with workdps(75):
        assert abs(lhs.value.magnitude - rhs.value.magnitude) < mpf(10) ** -20


def test_wallis_identity_interior_alpha():
    lhs, rhs = wallis_identity_check(arcsin_power_series(2, 80), Fraction(1, 2), 50)
    with workdps(75):
        assert abs(lhs.value.magnitude - rhs.value.magnitude) < mpf(10) ** -40


def exact_left_side(f, alpha):
    """(q, r): the left side sum_n W_n (c_n/n) alpha^n is q + r pi exactly,
    with W_2k = (pi/2) C(2k, k)/4^k and W_(2k+1) = 4^k/((2k+1) C(2k, k))."""
    q = r = Fraction(0)
    for n, c in enumerate(f):
        if n == 0:
            continue
        k = n // 2
        term = c / n * alpha ** n
        if n % 2:
            q += term * Fraction(4 ** k, (2 * k + 1) * math.comb(2 * k, k))
        else:
            r += term * Fraction(math.comb(2 * k, k), 2 * 4 ** k)
    return q, r


@pytest.mark.parametrize("N, M, alpha, pi_only", [
    (2, 80, Fraction(1), True),  # arcsin^2 is even: the value is pi times a rational
    (3, 60, Fraction(1, 2), False),  # arcsin^3 is odd: the value is rational
])
@pytest.mark.parametrize("prec", [50, 200])
def test_wallis_left_side_is_exact(N, M, alpha, pi_only, prec):
    # row 30's left side against its exact value, within the bound it reports
    f = arcsin_power_series(N, M)
    q, r = exact_left_side(f, alpha)
    assert (q == 0) == pi_only and (r == 0) != pi_only
    lhs, _ = wallis_identity_check(f, alpha, prec)
    with workdps(prec + 40):
        exact = mpf(q.numerator) / q.denominator + mpf(r.numerator) / r.denominator * mp.pi
        assert abs(lhs.value.magnitude - exact) <= lhs.error_bound.magnitude


def test_wallis_identity_mixed_parity():
    # f(z)/z has even and odd powers, so both Horner parts run; both sides
    # match an mpmath quadrature of the arccos form
    cs = [0, 1, Fraction(-3, 7), 2, Fraction(5, 3), 0, Fraction(-1, 9)]
    f = tuple(map(Fraction, cs))
    for alpha in (1, Fraction(2, 3)):
        lhs, rhs = wallis_identity_check(f, alpha, 50)
        assert lhs.agrees_with(rhs)
        with workdps(75):
            a = mpf(alpha.numerator) / alpha.denominator
            ref = mp.quad(lambda x: sum(c * (a * x) ** n for n, c in enumerate(cs))
                          * mp.acos(x) / x, [0, 1])
            assert abs(lhs.value.magnitude - ref) < mpf(10) ** -45
            assert abs(rhs.value.magnitude - ref) < mpf(10) ** -45


def test_wallis_identity_validation():
    with pytest.raises(ValueError):
        wallis_identity_check((Fraction(1), Fraction(1)), 1, 50)
    with pytest.raises(ValueError):
        wallis_identity_check((Fraction(0), Fraction(1)), 2, 50)
    with pytest.raises(ValueError):
        wallis_identity_check((Fraction(0), Fraction(1)), 0, 50)
