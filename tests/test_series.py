"""The brute-force oracles of ``tests/oracles.py`` and the series module's
central-binomial sum: exact small cases, printed-value prefixes, tail-bound
honesty.

Independent references come from three places: exact Fraction arithmetic for
small truncations, hp-layer single constants (whose own tests tie them to
mpmath), and a handful of decimal strings that were verified against
higher-cutoff runs.  Cutoffs here are kept modest so the unit suite stays
fast.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from multizeta.hp import beta_fn, psi3_quarter, t_single, zeta_single
from multizeta.series import central_binomial_sum, nested_value

from oracles import (
    HarmonicState,
    big_t_series,
    euler_H_series,
    harmonic,
    mtv_series,
    mu_series,
    mzv_series,
    odd_B_series,
    odd_O_series,
    valean_alt_sum,
)


def combined(a, b):
    return a.error_bound.magnitude + b.error_bound.magnitude


def diff(a, b):
    with mp.workdps(80):
        return abs(a.value.magnitude - b.value.magnitude)


def _fixed(r, digits):
    """r's value to ``digits`` significant digits, positional (no exponent)."""
    return mp.nstr(r.value.magnitude, digits, strip_zeros=False,
                   min_fixed=-mp.inf, max_fixed=mp.inf)


# ---------------------------------------------------------------------------
# harmonic numbers / HarmonicState
# ---------------------------------------------------------------------------


def test_harmonic_exact_values():
    assert harmonic(1, 1) == 1
    assert harmonic(1, 7) == 1
    assert harmonic(2, 1) == Fraction(3, 2)
    assert harmonic(3, 2) == Fraction(49, 36)
    assert harmonic(0, 3) == 0  # empty sum, not an error


def test_harmonic_state_matches_direct_sums():
    hs = HarmonicState()
    hs.track(1)
    hs.track(2)
    hs.track(2, odd=True)
    hs.track(3, alt_odd=True)
    for _ in range(7):
        hs.advance()
    assert hs.values[1] == harmonic(7, 1)
    assert hs.values[2] == harmonic(7, 2)
    assert hs.odd_values[2] == sum(Fraction(1, (2 * k - 1) ** 2) for k in range(1, 8))
    assert hs.alt_odd_values[3] == sum(
        Fraction((-1) ** k, (2 * k - 1) ** 3) for k in range(1, 8)
    )


def test_harmonic_state_odd_prefix_approaches_t_value():
    # O_n(p) -> (1 - 2^-p) zeta(p); remainder below the odd-tail integral
    hs = HarmonicState()
    hs.track(2, odd=True)
    for _ in range(500):
        hs.advance()
    with mp.workdps(40):
        target = t_single(2, 30).value.magnitude
        got = mpf(hs.odd_values[2].numerator) / hs.odd_values[2].denominator
        assert abs(target - got) < mpf(1) / (2 * (2 * 500 - 1))


# ---------------------------------------------------------------------------
# index validation
# ---------------------------------------------------------------------------


def test_nested_value_refuses_malformed_indices():
    for params in [(), [], (2, 0), (3, 2.0), (3, "2"), 3, None, "32"]:
        for quantity in ("zeta", "tvalue", "mu", "bigT"):
            with pytest.raises(ValueError):
                nested_value(quantity, params, 16)
    with pytest.raises(ValueError, match="outermost exponent must be >= 2"):
        nested_value("zeta", (1, 2), 16)
    assert nested_value("zeta", [3, 2], 16) == nested_value("zeta", (3, 2), 16)


def test_divergent_indices_refused():
    with pytest.raises(ValueError):
        mzv_series((1, 2), 100)
    with pytest.raises(ValueError):
        mtv_series((1,), 100)
    with pytest.raises(ValueError):
        mu_series((1, 1), 100)


# ---------------------------------------------------------------------------
# integer-denominator nested sums
# ---------------------------------------------------------------------------


def test_mzv_depth_one_matches_zeta():
    r = mzv_series((3,), 10 ** 4)
    z = zeta_single(3, 50)
    assert diff(r, z) <= combined(r, z)
    assert r.rigorous


def test_mzv_32_printed_prefix():
    r = mzv_series((3, 2), 2 * 10 ** 5)
    assert _fixed(r, 9).startswith("0.22881039")


def test_mzv_21_equals_zeta3():
    # depth-2 sum with an inner 1-entry: the tail picks up a log factor
    r = mzv_series((2, 1), 10 ** 5)
    z = zeta_single(3, 50)
    assert diff(r, z) <= combined(r, z)
    # and the bound is not grossly loose: the true tail is ~ ln(C)/C
    with mp.workdps(30):
        assert r.error_bound.magnitude < mpf(60) / 10 ** 5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mzv_two_ones_duality(n):
    r = mzv_series((2,) + (1,) * (n - 1), 10 ** 5)
    z = zeta_single(n + 1, 50)
    assert diff(r, z) <= combined(r, z)


def test_mzv_small_truncation_matches_exact_fractions():
    # brute-force exact oracle at tiny cutoff, bit-for-bit scale check
    C = 30
    exact = Fraction(0)
    for n1 in range(1, C + 1):
        for n2 in range(1, n1):
            exact += Fraction(1, n1 ** 3 * n2 ** 2)
    r = mzv_series((3, 2), C, prec=40)
    with mp.workdps(60):
        want = mpf(exact.numerator) / exact.denominator
        assert abs(r.value.magnitude - want) < mpf(10) ** (-48)


# ---------------------------------------------------------------------------
# odd-denominator nested sums
# ---------------------------------------------------------------------------


def test_mtv_depth_one_is_pi2_over_8():
    r = mtv_series((2,), 10 ** 5)
    with mp.workdps(80):
        target = mp.pi ** 2 / 8
        assert abs(r.value.magnitude - target) <= r.error_bound.magnitude


def test_mtv_printed_prefixes():
    r322 = mtv_series((3, 2, 2), 2 * 10 ** 5)
    assert _fixed(r322, 10).startswith("0.002109185")
    r3222 = mtv_series((3, 2, 2, 2), 2 * 10 ** 5)
    assert _fixed(r3222, 10).startswith("0.00005499616")


def test_mtv_small_truncation_exact():
    C = 25
    exact = Fraction(0)
    for n1 in range(1, C + 1):
        for n2 in range(1, n1):
            exact += Fraction(1, (2 * n1 - 1) ** 3 * (2 * n2 - 1) ** 2)
    r = mtv_series((3, 2), C, prec=40)
    with mp.workdps(60):
        want = mpf(exact.numerator) / exact.denominator
        assert abs(r.value.magnitude - want) < mpf(10) ** (-48)


# ---------------------------------------------------------------------------
# parity-constrained sums
# ---------------------------------------------------------------------------


def _mu_exact_bruteforce(entries, cutoff):
    """Exhaustive parity-respecting chains, exact Fractions (tiny cutoffs).

    Chains n_k > ... > n_1 >= 1 with n_j == j (mod 2); exponent exps[j-1]
    attaches to n_j where exps is the index reversed to innermost-first.
    """
    k = len(entries)
    exps = list(reversed(entries))

    def rec(level, upper_exclusive):
        total = Fraction(0)
        for n in range(1, upper_exclusive):
            if n % 2 == level % 2:
                inner = rec(level - 1, n) if level > 1 else Fraction(1)
                total += inner / n ** exps[level - 1]
        return total

    return rec(k, cutoff + 1)


def test_mu_small_truncation_exact():
    entries = (2, 1, 1)
    exact = _mu_exact_bruteforce(entries, 21)
    r = mu_series(entries, 21, prec=40)
    with mp.workdps(60):
        want = mpf(exact.numerator) / exact.denominator
        assert abs(r.value.magnitude - want) < mpf(10) ** (-48)


def test_mu_examples_against_closed_targets():
    with mp.workdps(80):
        z3 = zeta_single(3, 60).value.magnitude
        z5 = zeta_single(5, 60).value.magnitude
        targets = {
            (2, 1): mpf(7) / 16 * z3,
            (2, 1, 1): mp.pi ** 4 / 384,
            (2, 1, 1, 1): mpf(31) / 256 * z5,
        }
    for entries, target in targets.items():
        r = mu_series(entries, 10 ** 5)
        assert abs(r.value.magnitude - target) <= r.error_bound.magnitude, entries


def test_big_t_scaling_and_duality():
    r = big_t_series((2, 1), 10 ** 5)
    m = mu_series((2, 1), 10 ** 5)
    with mp.workdps(70):
        assert abs(r.value.magnitude - 4 * m.value.magnitude) < mpf(10) ** (-55)
    # T(2, 1^(n-1)) = 2 (1 - 2^-(n+1)) zeta(n+1) for n = 2..5
    for n in range(2, 6):
        r = big_t_series((2,) + (1,) * (n - 1), 10 ** 5)
        with mp.workdps(80):
            target = 2 * (1 - mpf(2) ** (-(n + 1))) * zeta_single(n + 1, 60).value.magnitude
            assert abs(r.value.magnitude - target) <= r.error_bound.magnitude, n


# ---------------------------------------------------------------------------
# Euler-type sums
# ---------------------------------------------------------------------------


def test_euler_reflection_instance():
    a = euler_H_series((2,), 3, 2 * 10 ** 5)
    b = euler_H_series((3,), 2, 2 * 10 ** 5)
    with mp.workdps(80):
        z2 = zeta_single(2, 60).value.magnitude
        z3 = zeta_single(3, 60).value.magnitude
        z5 = zeta_single(5, 60).value.magnitude
        target = z2 * z3 + z5
        got = a.value.magnitude + b.value.magnitude
        assert abs(got - target) <= combined(a, b)


def test_euler_diagonal_p2():
    r = euler_H_series((2,), 2, 2 * 10 ** 5)
    with mp.workdps(80):
        target = mpf(7) / 4 * zeta_single(4, 60).value.magnitude
        assert abs(r.value.magnitude - target) <= r.error_bound.magnitude
    assert r.rigorous


def test_euler_p1_classical_value():
    r = euler_H_series((1,), 2, 2 * 10 ** 5)
    with mp.workdps(80):
        target = 2 * zeta_single(3, 60).value.magnitude
        assert abs(r.value.magnitude - target) <= r.error_bound.magnitude
    assert not r.rigorous  # log-factor tail is heuristic by contract


def test_euler_multiple_factors_small_exact():
    C = 40
    exact = sum(
        (harmonic(n, 1) * harmonic(n, 2)) / Fraction(n ** 3) for n in range(1, C + 1)
    )
    r = euler_H_series((1, 2), 3, C, prec=40)
    with mp.workdps(60):
        want = mpf(exact.numerator) / exact.denominator
        assert abs(r.value.magnitude - want) < mpf(10) ** (-45)


def test_euler_rejects_divergent_outer():
    with pytest.raises(ValueError):
        euler_H_series((2,), 1, 100)


# ---------------------------------------------------------------------------
# odd Euler sums
# ---------------------------------------------------------------------------


def test_odd_O_diagonal_22():
    r = odd_O_series(2, 2, 2 * 10 ** 5)
    with mp.workdps(80):
        target = 5 * mp.pi ** 4 / 384
        assert abs(r.value.magnitude - target) <= r.error_bound.magnitude


def test_odd_O_23_closed_target():
    r = odd_O_series(2, 3, 10 ** 5)
    with mp.workdps(80):
        z2 = zeta_single(2, 60).value.magnitude
        z3 = zeta_single(3, 60).value.magnitude
        z5 = zeta_single(5, 60).value.magnitude
        target = mpf(31) / 64 * z5 + mpf(9) / 32 * z3 * z2
        assert abs(r.value.magnitude - target) <= r.error_bound.magnitude


def test_odd_B_diagonal_33_true_closed_form():
    # reflection diagonal: B(3,3) = ((1 - 2^-6) zeta(6) + beta(3)^2) / 2
    r = odd_B_series(3, 3, 10 ** 5)
    with mp.workdps(80):
        z6 = zeta_single(6, 60).value.magnitude
        b3 = beta_fn(3, 60).value.magnitude
        target = ((1 - mpf(2) ** (-6)) * z6 + b3 * b3) / 2
        assert abs(r.value.magnitude - target) <= r.error_bound.magnitude
        # same thing as an exact multiple of pi^6
        assert abs(target - 31 * mp.pi ** 6 / 30720) < mpf(10) ** (-55)


def test_odd_B_sign_convention_equivalence():
    # (-1)^n sum (-1)^k a_k  ==  (-1)^(n-1) sum (-1)^(k-1) a_k, exactly
    p, q, C = 2, 2, 60

    def convention(outer_start_negative):
        total = Fraction(0)
        for n in range(1, C + 1):
            inner = Fraction(0)
            for k in range(1, n + 1):
                s = (-1) ** k if outer_start_negative else (-1) ** (k - 1)
                inner += Fraction(s, (2 * k - 1) ** p)
            s = (-1) ** n if outer_start_negative else (-1) ** (n - 1)
            total += Fraction(s) * inner / (2 * n - 1) ** q
        return total

    assert convention(True) == convention(False)


def test_odd_B_small_truncation_exact():
    C = 35
    exact = Fraction(0)
    for n in range(1, C + 1):
        inner = sum(Fraction((-1) ** k, (2 * k - 1) ** 2) for k in range(1, n + 1))
        exact += Fraction((-1) ** n) * inner / (2 * n - 1) ** 3
    r = odd_B_series(2, 3, C, prec=40)
    with mp.workdps(60):
        want = mpf(exact.numerator) / exact.denominator
        assert abs(r.value.magnitude - want) < mpf(10) ** (-48)


def test_odd_sums_require_q_at_least_2():
    with pytest.raises(ValueError):
        odd_O_series(2, 1, 100)
    with pytest.raises(ValueError):
        odd_B_series(2, 1, 100)


def test_odd_O_p1_converges_with_rigorous_bound():
    r = odd_O_series(1, 3, 10 ** 4)
    bigger = odd_O_series(1, 3, 10 ** 5)
    assert r.rigorous
    assert diff(r, bigger) <= r.error_bound.magnitude


# ---------------------------------------------------------------------------
# central binomial sums
# ---------------------------------------------------------------------------


def test_central_binomial_closed_values():
    with mp.workdps(80):
        targets = {
            "inverse_square": zeta_single(2, 60).value.magnitude / 3,
            "alt_inverse_cube": mpf(2) / 5 * zeta_single(3, 60).value.magnitude,
            "inverse_fourth": mpf(17) / 36 * zeta_single(4, 60).value.magnitude,
        }
    for kind, target in targets.items():
        r = central_binomial_sum(kind, prec=50)
        with mp.workdps(80):
            assert abs(r.value.magnitude - target) < mpf(10) ** (-49), kind
        assert r.rigorous
        assert r.error_bound.magnitude < mpf(10) ** (-49)


@pytest.mark.parametrize("prec", [20, 50, 200])
def test_central_binomial_bound_holds_across_precisions(prec):
    # the sum stops where its terms underflow; a run at twice the digits
    # sits within the two bounds
    for kind in ("inverse_square", "alt_inverse_cube", "inverse_fourth"):
        r = central_binomial_sum(kind, prec)
        fine = central_binomial_sum(kind, 2 * prec)
        assert diff(r, fine) <= combined(r, fine), (kind, prec)
        assert r.error_bound.magnitude < mpf(10) ** -prec


def test_central_binomial_bad_kind():
    with pytest.raises(ValueError):
        central_binomial_sum("nope")


# ---------------------------------------------------------------------------
# alternating even-index harmonic sums
# ---------------------------------------------------------------------------


def _valean_targets():
    with mp.workdps(80):
        z3 = zeta_single(3, 60).value.magnitude
        z5 = zeta_single(5, 60).value.magnitude
        psi = psi3_quarter(60).value.magnitude
        pi = +mp.pi
        h2n2 = (
            mpf(61) * pi ** 2 / 192 * z3
            + mpf(1973) / 128 * z5
            + pi ** 5 / 16
            - pi / 128 * psi
        )
        h2n = (
            -(pi ** 2) / 3 * z3
            - mpf(437) / 64 * z5
            - pi ** 5 / 24
            + pi / 192 * psi
        )
    return {"H2n2_over_n3": h2n2, "H2n_over_n4": h2n}


@pytest.mark.parametrize("kind", ["H2n2_over_n3", "H2n_over_n4"])
def test_valean_sums_match_closed_targets(kind):
    target = _valean_targets()[kind]
    r = valean_alt_sum(kind, 10 ** 5)
    with mp.workdps(80):
        assert abs(r.value.magnitude - target) < mpf(10) ** (-12)
    assert not r.rigorous


def test_valean_error_estimate_consistency():
    # |value(20) - value(10)| should be within the cutoff-10 estimate
    for kind in ("H2n_over_n4", "H2n2_over_n3"):
        a = valean_alt_sum(kind, 10)
        b = valean_alt_sum(kind, 20)
        assert diff(a, b) <= a.error_bound.magnitude, kind


# ---------------------------------------------------------------------------
# cross-cutting properties
# ---------------------------------------------------------------------------


def test_series_determinism():
    a = mzv_series((3, 2), 5000)
    b = mzv_series((3, 2), 5000)
    assert a.value.magnitude == b.value.magnitude
    assert a.error_bound.magnitude == b.error_bound.magnitude


@given(
    entries=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).map(
        lambda l: tuple([max(l[0], 2)] + l[1:])
    ),
    c1=st.integers(min_value=50, max_value=400),
)
@settings(max_examples=25, deadline=None)
def test_monotone_truncation_and_bound_consistency(entries, c1):
    """Nonnegative-term sums grow with cutoff; increments sit within bounds."""
    c2 = c1 * 20
    small = mzv_series(entries, c1, prec=30)
    large = mzv_series(entries, c2, prec=30)
    assert large.value.magnitude >= small.value.magnitude
    assert diff(small, large) <= small.error_bound.magnitude


@given(
    entries=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3).map(
        lambda l: tuple([max(l[0], 2)] + l[1:])
    )
)
@settings(max_examples=15, deadline=None)
def test_mtv_bound_consistency(entries):
    """Odd-denominator truncations also sit within their reported bounds."""
    a = mtv_series(entries, 300, prec=30)
    b = mtv_series(entries, 6000, prec=30)
    assert a.value.magnitude > 0
    assert diff(a, b) <= a.error_bound.magnitude


def test_empty_sum_below_depth_cutoff():
    r = mzv_series((3, 2, 2), 2, prec=30)  # cutoff < depth: no valid chain
    assert r.value.magnitude == 0
    assert r.error_bound.magnitude > 0
