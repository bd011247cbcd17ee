"""Base-constant layer: oracle cross-checks, bound honesty, determinism.

Oracles are mpmath's own zeta/catalan/psi implementations evaluated at a
higher precision than the values under test.  All reference values are
constructed *inside* elevated-precision contexts -- an expression like
``mp.pi/2`` evaluated at ambient precision quietly rounds to 15 digits and
would corrupt the comparison.
"""

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from multizeta.hp import (
    GUARD_DIGITS,
    HPReal,
    Method,
    bernoulli_fraction,
    beta_fn,
    eta,
    euler_number,
    combine,
    log2_const,
    pi_const,
    pi_power,
    psi3_quarter,
    scaled,
    t_single,
    wrap_result,
    zeta_single,
)


def ref_err(result, ref_builder, ref_dps=90):
    """|value - reference| with the reference built at ref_dps digits."""
    with mp.workdps(ref_dps):
        ref = ref_builder()
        return abs(result.value.magnitude - ref)


# ---------------------------------------------------------------------------
# exact tables
# ---------------------------------------------------------------------------


def test_bernoulli_values():
    assert bernoulli_fraction(0) == 1
    assert bernoulli_fraction(1) == Fraction(-1, 2)
    assert bernoulli_fraction(2) == Fraction(1, 6)
    assert bernoulli_fraction(4) == Fraction(-1, 30)
    assert bernoulli_fraction(12) == Fraction(-691, 2730)
    assert bernoulli_fraction(3) == 0
    assert bernoulli_fraction(17) == 0


def test_bernoulli_matches_defining_recurrence():
    # oracle: B_m = -1/(m+1) sum_{k<m} C(m+1, k) B_k, exact over Q
    bs = [Fraction(1)]
    for m in range(1, 61):
        bs.append(-sum(math.comb(m + 1, k) * bs[k] for k in range(m)) / (m + 1))
    assert [bernoulli_fraction(n) for n in range(61)] == bs
    assert bernoulli_fraction(1) == Fraction(-1, 2)
    assert all(bernoulli_fraction(n) == 0 for n in range(3, 400, 2))


def test_euler_numbers():
    assert [euler_number(n) for n in (0, 2, 4, 6, 8)] == [1, -1, 5, -61, 1385]
    assert euler_number(5) == 0


# ---------------------------------------------------------------------------
# zeta / eta / beta / t / psi3 against mpmath oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 10, 13, 23])
@pytest.mark.parametrize("prec", [20, 50])
def test_zeta_matches_oracle_within_bound(s, prec):
    r = zeta_single(s, prec)
    err = ref_err(r, lambda: mp.zeta(s))
    assert err <= r.error_bound.magnitude
    assert r.rigorous
    assert r.error_bound.magnitude < mpf(10) ** (-prec)


@pytest.mark.parametrize("m", [1, 2, 3, 6, 11])
def test_eta_matches_oracle(m):
    r = eta(m, 50)
    if m == 1:
        err = ref_err(r, lambda: mp.log(2))
    else:
        err = ref_err(r, lambda: (1 - mpf(2) ** (1 - m)) * mp.zeta(m))
    assert err <= r.error_bound.magnitude


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_beta_matches_oracle(m):
    r = beta_fn(m, 50)

    def ref():
        if m == 1:
            return mp.pi / 4
        if m == 2:
            return +mp.catalan
        if m == 3:
            return mp.pi ** 3 / 32
        # beta(m) = 4^(-m) (zeta(m,1/4) - zeta(m,3/4))
        return mpf(4) ** (-m) * (mp.zeta(m, mpf(1) / 4) - mp.zeta(m, mpf(3) / 4))

    assert ref_err(r, ref) <= r.error_bound.magnitude
    assert r.error_bound.magnitude < mpf(10) ** (-50)


def test_eta_one_is_log2_const():
    for prec in (20, 50, 300):
        r = eta(1, prec)
        assert r.value.magnitude == log2_const(prec).value.magnitude
        with mp.workdps(prec + 30):
            radius = mp.log(2) * mpf(10) ** (-(prec + GUARD_DIGITS))
            # log2_const computes the radius |log 2| 10^-wd at the working precision
            assert abs(r.error_bound.magnitude / radius - 1) < 1e-12


@pytest.mark.parametrize("i", [2, 3, 5, 9])
def test_t_single_matches_oracle(i):
    r = t_single(i, 50)
    err = ref_err(r, lambda: (1 - mpf(2) ** (-i)) * mp.zeta(i))
    assert err <= r.error_bound.magnitude


def test_psi3_quarter_matches_polygamma():
    r = psi3_quarter(50)
    err = ref_err(r, lambda: mp.psi(3, mpf(1) / 4))
    assert err <= r.error_bound.magnitude
    # 25-digit pin, independently computed
    assert r.value.to_decimal(25).startswith("1538.78214400918839602279")


def test_psi3_reflection():
    # psi'''(1/4) + psi'''(3/4) = 16 pi^4  (reflection of the tetragamma)
    r = psi3_quarter(60)
    with mp.workdps(90):
        other = mp.psi(3, mpf(3) / 4)
        lhs = r.value.magnitude + other
        rhs = 16 * mp.pi ** 4
        assert abs(lhs - rhs) < mpf(10) ** (-58)


# Independent mpmath references at 50, 300 and 1000 digits: every value must
# sit within its own bound of the reference, and that bound below 10^-prec.
HIGH_PRECISION_CASES = [
    *(
        (f"zeta({s})", lambda p, s=s: zeta_single(s, p), lambda s=s: mp.zeta(s))
        for s in (2, 3, 7, 23)
    ),
    ("eta(3)", lambda p: eta(3, p), lambda: (1 - mpf(2) ** -2) * mp.zeta(3)),
    ("t(5)", lambda p: t_single(5, p), lambda: (1 - mpf(2) ** -5) * mp.zeta(5)),
    *(
        (f"beta({m})", lambda p, m=m: beta_fn(m, p), lambda m=m: mp.dirichlet(m, [0, 1, 0, -1]))
        for m in (2, 4)
    ),
    ("psi3(1/4)", lambda p: psi3_quarter(p), lambda: mp.psi(3, mpf(1) / 4)),
]


@pytest.mark.parametrize("prec", [50, 300, 1000])
@pytest.mark.parametrize(
    "name,compute,reference", HIGH_PRECISION_CASES, ids=[c[0] for c in HIGH_PRECISION_CASES]
)
def test_constants_at_high_precision_within_bound(name, compute, reference, prec):
    r = compute(prec)
    err = ref_err(r, reference, prec + 20)
    assert err <= r.error_bound.magnitude, name
    assert r.error_bound.magnitude < mpf(10) ** (-prec), name


def test_pi_log2_consts():
    with mp.workdps(90):
        assert abs(pi_const(50).value.magnitude - mp.pi) < mpf(10) ** (-55)
        assert abs(log2_const(50).value.magnitude - mp.log(2)) < mpf(10) ** (-55)


# ---------------------------------------------------------------------------
# contracts: determinism, precision scaling, validation
# ---------------------------------------------------------------------------


def test_results_deterministic_and_cached():
    a = zeta_single(3, 40)
    b = zeta_single(3, 40)
    assert a is b  # memoised
    # same bits when recomputed through a fresh equal call path
    c = zeta_single(3, 41)
    with mp.workdps(60):
        assert abs(a.value.magnitude - c.value.magnitude) < mpf(10) ** (-45)


def test_deterministic_under_ambient_precision_changes():
    baseline = zeta_single(5, 30).value.magnitude
    old = mp.dps
    try:
        mp.dps = 7
        zeta_single.cache_clear()
        again = zeta_single(5, 30).value.magnitude
    finally:
        mp.dps = old
    assert again == baseline


def test_precision_monotonicity():
    for prec in (16, 25, 40, 60, 80):
        r = zeta_single(2, prec)
        assert r.error_bound.magnitude < mpf(10) ** (-prec)
        assert r.value.working_precision == prec


def test_validation_errors():
    with pytest.raises(ValueError):
        zeta_single(1, 50)
    with pytest.raises(ValueError):
        zeta_single(2, 10)
    with pytest.raises(ValueError):
        eta(0, 50)
    with pytest.raises(ValueError):
        beta_fn(0, 50)
    with pytest.raises(ValueError):
        t_single(1, 50)


def test_thread_safety_of_precision_state():
    results = {}

    def worker(name, s, prec):
        zeta_single.cache_clear()
        results[name] = zeta_single(s, prec).value.magnitude

    threads = [
        threading.Thread(target=worker, args=(f"w{i}", 2 + (i % 3), 30 + i))
        for i in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    with mp.workdps(80):
        for i in range(6):
            s = 2 + (i % 3)
            assert abs(results[f"w{i}"] - mp.zeta(s)) < mpf(10) ** (-30)


# ---------------------------------------------------------------------------
# HPReal arithmetic
# ---------------------------------------------------------------------------


def test_hpreal_basic_arithmetic():
    a = HPReal.from_fraction(Fraction(1, 3), 40)
    b = HPReal.from_int(2, 40)
    assert (a * 3 + b - 3).to_decimal(5).startswith("0.0")
    c = a / b
    assert c.working_precision == 40
    assert abs(float(c) - 1 / 6) < 1e-12


def test_hpreal_min_precision_propagates():
    a = HPReal.from_int(1, 60)
    b = HPReal.from_int(3, 20)
    assert (a / b).working_precision == 20


def test_hpreal_decimal_output_pins_digits():
    x = HPReal.from_fraction(Fraction(2, 3), 30)
    s = x.to_decimal(10)
    assert s.startswith("0.666666666")


@given(
    p=st.fractions(
        min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
    ),
    q=st.fractions(
        min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
    ),
)
@settings(max_examples=60, deadline=None)
def test_hpreal_field_ops_match_fractions(p, q):
    prec = 30
    a = HPReal.from_fraction(p, prec)
    b = HPReal.from_fraction(q, prec)
    with mp.workdps(50):
        want_sum = mpf((p + q).numerator) / (p + q).denominator
        want_prod = mpf((p * q).numerator) / (p * q).denominator
        assert abs((a + b).magnitude - want_sum) < mpf(10) ** (-28)
        assert abs((a * b).magnitude - want_prod) < mpf(10) ** (-26)


def test_eval_result_agreement_protocol():
    a = zeta_single(3, 40)
    b = zeta_single(3, 50)
    assert a.agrees_with(b)


def test_wrap_result_keeps_the_bound_bit_for_bit():
    with mp.workdps(210):
        value = mp.pi
        bound = mp.pi * mpf(10) ** -200
        negated = -bound
    assert mp.dps == 15
    for b in (bound, negated):
        r = wrap_result(value, b, 200, Method.SERIES, rigorous=True)
        assert r.error_bound.magnitude == bound
        assert r.error_bound.magnitude._mpf_ == bound._mpf_


# ---------------------------------------------------------------------------
# combine, scaled and pi_power: the one bound-propagation rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prec", [30, 300])
@pytest.mark.parametrize("k", [-7, -2, 1, 4])
def test_pi_power_within_bound(k, prec):
    r = pi_power(k, prec)
    assert ref_err(r, lambda: mp.pi ** k, prec + 40) <= r.error_bound.magnitude
    assert r.rigorous


def test_eta_and_t_single_scale_zeta_without_extra_slop():
    # the radius of (1 - 2^-i) zeta(i) is that factor times zeta's radius
    for prec in (20, 50):
        z = zeta_single(5, prec)
        for r, c in ((eta(5, prec), Fraction(15, 16)), (t_single(5, prec), Fraction(31, 32))):
            with mp.workdps(prec + GUARD_DIGITS):
                f = mpf(c.numerator) / c.denominator  # exact in binary
                assert r.value.magnitude == f * z.value.magnitude
                assert r.error_bound.magnitude == f * z.error_bound.magnitude


def test_scaled_keeps_method_and_flags():
    base = wrap_result(mpf(3), mpf("1e-40"), 30, Method.SERIES, rigorous=False, conjectural=True)
    r = scaled(base, Fraction(-1, 4))
    assert r.value.magnitude == mpf(-3) / 4
    assert r.error_bound.magnitude == mpf("1e-40") / 4
    assert (r.method, r.rigorous, r.conjectural) == (Method.SERIES, False, True)


def test_combine_charges_products_and_sums():
    # (pi^2 - 2 pi) at 30 digits: the radius covers both factors' radii plus
    # one multiplication and one addition unit of 10^-(wd-1)
    prec = 30
    wd = prec + GUARD_DIGITS
    pi = pi_const(prec)
    r = combine([(1, [pi, pi]), (-2, [pi])], prec, Method.CLOSED_FORM)
    with mp.workdps(wd + 20):
        p, b = pi.value.magnitude, pi.error_bound.magnitude
        unit = mpf(10) ** (1 - wd)
        expected = 2 * p * b + b * b + p * p * unit + 2 * b + p * p * unit
        assert abs(r.error_bound.magnitude / expected - 1) < mpf(10) ** -(wd - 2)
        assert abs(r.value.magnitude - (mp.pi ** 2 - 2 * mp.pi)) <= r.error_bound.magnitude
    assert r.rigorous and r.method is Method.CLOSED_FORM
