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

from multizeta import hp, symbolic, wseries
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
from oracles import arccos_moment_comb, combine_mpf, sum_at_fractions


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


WALLIS_CASES = [
    (2, 80, Fraction(1), True),  # arcsin^2 is even: the value is pi times a rational
    (3, 60, Fraction(1, 2), False),  # arcsin^3 is odd: the value is rational
    (2, 80, Fraction(1, 2), True),
    (1, 9, Fraction(1), False),
]


@pytest.mark.parametrize("N, M, alpha, pi_only", WALLIS_CASES)
@pytest.mark.parametrize("prec", [16, 30, 50, 200, 1000])
def test_wallis_left_side_is_exact(N, M, alpha, pi_only, prec):
    # row 30's left side against its exact value, within the rigorous bound
    # it reports
    f = arcsin_power_series(N, M)
    q, r = exact_left_side(f, alpha)
    assert (q == 0) == pi_only and (r == 0) != pi_only
    lhs, _ = wallis_identity_check(f, alpha, prec)
    assert lhs.rigorous
    with workdps(prec + 40):
        exact = mpf(q.numerator) / q.denominator + mpf(r.numerator) / r.denominator * mp.pi
        assert abs(lhs.value.magnitude - exact) <= lhs.error_bound.magnitude


@pytest.mark.parametrize("n", range(1, 16))
def test_an_arccos_moment_matches_quadrature(n):
    # J_n = integral_0^1 x^(n-1) arccos(x) dx, from the sine series of its
    # integrand, against mpmath's own quadrature of the arccos form
    J = wseries._arccos_moment(n)
    assert (J.rational == 0) == (n % 2 == 0) and (J.pi_part == 0) == (n % 2 == 1)
    with workdps(60):
        exact = mpf(J.rational.numerator) / J.rational.denominator \
            + mpf(J.pi_part.numerator) / J.pi_part.denominator * mp.pi
        ref = mp.quad(lambda x: x ** (n - 1) * mp.acos(x), [0, 1])
        assert abs(exact - ref) <= mpf(10) ** -50


@pytest.mark.parametrize("N, M, alpha, pi_only", WALLIS_CASES)
@pytest.mark.parametrize("prec", [16, 30, 50, 200, 1000])
def test_wallis_right_side_is_exact(N, M, alpha, pi_only, prec):
    # the right side sum_n c_n alpha^n J_n, from the arccos moments alone, is
    # the left side's q + r pi exactly; both sides are rigorous, and being
    # one exact number they evaluate to the same bits
    f = arcsin_power_series(N, M)
    terms = [(c * alpha ** n, wseries._arccos_moment(n)) for n, c in enumerate(f) if n]
    q = sum(x * J.rational for x, J in terms)
    r = sum(x * J.pi_part for x, J in terms)
    assert (q, r) == exact_left_side(f, alpha)
    lhs, rhs = wallis_identity_check(f, alpha, prec)
    assert lhs.rigorous and rhs.rigorous
    assert rhs.value.magnitude._mpf_ == lhs.value.magnitude._mpf_
    assert rhs.error_bound.magnitude._mpf_ == lhs.error_bound.magnitude._mpf_


def test_the_arccos_moments_walk_the_binomials_exactly():
    # C(m, i) by its recurrence gives the moments that two math.comb calls
    # per term gave
    for n in range(1, 301):
        assert wseries._arccos_moment(n) == arccos_moment_comb(n), n


def _sides_by_oracles(f, alpha, prec):
    """Row 30's two sides as they were computed before the sums ran in
    integers: a Fraction per addition, math.comb moments, mpf combine."""
    powers = [alpha ** n for n in range(len(f))]
    left = zip(powers, w_apply([c / n if n else c for n, c in enumerate(f)]))
    right = ((c * p, arccos_moment_comb(n)) for n, (c, p) in enumerate(zip(f, powers)) if n)
    sides = []
    for terms in (left, right):
        q, r = sum_at_fractions(terms)
        sides.append(combine_mpf([(v, fs) for v, fs in ((q, []), (r, [hp.pi_const(prec)])) if v],
                                 prec))
    return sides


@pytest.mark.parametrize("N, M, alpha", [
    (2, 80, Fraction(1)), (2, 80, Fraction(1, 2)), (3, 60, Fraction(1, 2)),
    (1, 9, Fraction(1)), (4, 40, Fraction(2, 3)), (5, 101, Fraction(1)),
])
@pytest.mark.parametrize("prec", [16, 30, 50, 200, 1000])
def test_wallis_sides_are_their_oracles_bit_for_bit(N, M, alpha, prec):
    f = arcsin_power_series(N, M)
    for got, want in zip(wallis_identity_check(f, alpha, prec), _sides_by_oracles(f, alpha, prec)):
        assert got.value.magnitude._mpf_ == want.value.magnitude._mpf_
        assert got.error_bound.magnitude._mpf_ == want.error_bound.magnitude._mpf_
        assert got.rigorous and want.rigorous


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 6)


@given(
    terms=st.lists(st.tuples(RATIONALS, RATIONALS, RATIONALS), max_size=40),
    prec=st.integers(min_value=16, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_sums_over_one_denominator_are_the_fraction_sums(terms, prec):
    # zero parts, zero sums and denominators sharing factors included
    pairs = [(x, SeriesCoeff(a, b)) for x, a, b in terms]
    q, r = sum_at_fractions(pairs)
    got = wseries._sum_at(pairs, prec)
    want = combine_mpf([(v, fs) for v, fs in ((q, []), (r, [hp.pi_const(prec)])) if v], prec)
    assert (got.value.magnitude._mpf_, got.error_bound.magnitude._mpf_) == (
        want.value.magnitude._mpf_, want.error_bound.magnitude._mpf_)


def test_wallis_alpha_is_read_exactly():
    # a float, an mpf and a Fraction of the same value give the same sides,
    # bit for bit
    f = arcsin_power_series(2, 80)
    sides = [wallis_identity_check(f, alpha, 30) for alpha in (0.5, mpf("0.5"), Fraction(1, 2))]
    raw = [[(s.value.magnitude._mpf_, s.error_bound.magnitude._mpf_) for s in pair]
           for pair in sides]
    assert raw[0] == raw[1] == raw[2]
    assert sides[0] == sides[1] == sides[2]


def test_wallis_identity_mixed_parity():
    # f has even and odd powers, so both sides have a rational and a pi
    # part; both match an mpmath quadrature of the arccos form
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


@pytest.mark.parametrize("coeffs, same_as", [
    ((0, 0.5), (0, Fraction(1, 2))),
    ((0, "1/2"), (0, Fraction(1, 2))),
    ((0, mpf("0.5")), (0, Fraction(1, 2))),
    (("0", 1), (0, 1)),
    ((0, None), None),
    ((None, 1), None),
    ((0, object()), None),
    ((0, float("inf")), None),
    ((0, float("nan")), None),
    ((0, mp.inf), None),
], ids=["float", "string", "mpf", "string zero", "None", "None at zero", "object", "inf",
        "nan", "mpf inf"])
def test_wallis_coefficients_are_read_exactly(coeffs, same_as):
    # every coefficient is read by alpha's rule, once, for both sides; what
    # that rule cannot read exactly is a ValueError, and f(0) = 0 is a number
    if same_as is None:
        with pytest.raises(ValueError):
            wallis_identity_check(coeffs, 1, 30)
        return
    got, want = wallis_identity_check(coeffs, 1, 30), wallis_identity_check(same_as, 1, 30)
    for g, w in zip(got, want):
        assert g.value.magnitude._mpf_ == w.value.magnitude._mpf_
        assert g.error_bound.magnitude._mpf_ == w.error_bound.magnitude._mpf_


def test_wallis_identity_validation():
    with pytest.raises(ValueError):
        wallis_identity_check((Fraction(1), Fraction(1)), 1, 50)
    with pytest.raises(ValueError):
        wallis_identity_check((Fraction(0), Fraction(1)), float("inf"), 50)
    with pytest.raises(ValueError):
        wallis_identity_check((Fraction(0), Fraction(1)), 2, 50)
    with pytest.raises(ValueError):
        wallis_identity_check((Fraction(0), Fraction(1)), 0, 50)


@pytest.mark.parametrize("fn, args", [
    (arcsin_power_series, (2, "80")),
    (arcsin_power_series, (2, 80.0)),
    (g_coeff, ("1", 2)),
    (g_coeff, (1.5, 2)),
    (h_coeff, (1, "2")),
    (arctanh_nested_coeff, (1, "3")),
    (double_factorial, ("5",)),
    (wallis_fraction, ("4",)),
    (wallis_fraction, (2.0,)),
    (hp.bernoulli_fraction, ("4",)),
    (hp.euler_number, ("4",)),
    (symbolic.zeta_even_rational, ("4",)),
    (symbolic.beta_odd_rational, ("3",)),
    (symbolic.t_single_expr, ("3",)),
    (wallis_identity_check, ((), 1, 30)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_a_parameter_of_the_wrong_type_is_a_value_error(fn, args):
    # a string or float where an integer belongs, or no coefficients at all
    with pytest.raises(ValueError):
        fn(*args)
