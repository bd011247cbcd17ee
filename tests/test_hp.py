"""Base-constant layer: oracle cross-checks, bound honesty, determinism.

Oracles are mpmath's own zeta/catalan/psi implementations evaluated at a
higher precision than the values under test.  All reference values are
constructed *inside* elevated-precision contexts -- an expression like
``mp.pi/2`` evaluated at ambient precision quietly rounds to 15 digits and
would corrupt the comparison.
"""

import math
import threading
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from multizeta.hp import (
    GUARD_DIGITS,
    _cvz_weights,
    _scales_exactly,
    EvalResult,
    HPReal,
    bernoulli_fraction,
    beta_fn,
    eta,
    euler_number,
    combine,
    digits_short,
    log2_const,
    pi_const,
    pi_power,
    psi3_quarter,
    refine,
    scaled,
    t_single,
    wrap_result,
    zeta_single,
)
from multizeta.series import nested_value
from oracles import combine_mpf


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


# Independent mpmath references at 50, 300 and 1000 digits, and zeta(3) and
# beta(2) at 2000 as well: every value must sit within its own bound of the
# reference, and that bound below 10^-prec.
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


HIGH_PRECISION_RUNS = [
    (*case, prec)
    for case in HIGH_PRECISION_CASES
    for prec in (50, 300, 1000, *((2000,) if case[0] in ("zeta(3)", "beta(2)") else ()))
]


@pytest.mark.parametrize(
    "name,compute,reference,prec",
    HIGH_PRECISION_RUNS,
    ids=[f"{run[0]}-{run[3]}" for run in HIGH_PRECISION_RUNS],
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
# HPReal records and the agreement rule
# ---------------------------------------------------------------------------


def test_hpreal_decimal_output_pins_digits():
    with mp.workdps(40):
        x = HPReal(mpf(2) / 3, 30)
    s = x.to_decimal(10)
    assert s.startswith("0.666666666")


def test_eval_result_agreement_protocol():
    a = zeta_single(3, 40)
    b = zeta_single(3, 50)
    assert a.agrees_with(b)


def _record(value, bound, prec=20):
    return EvalResult(HPReal(value, prec), HPReal(bound, prec), rigorous=True)


def test_digits_short_counts_the_missing_digits():
    # 0 when the bound holds 30 digits; when it holds none, log10(bound) +
    # prec + 2, and at least the working digits the result was computed at
    with mp.workdps(40):
        cases = [(mpf(10) ** -31, 0), (2 * mpf(10) ** -26, 5), (mpf(10) ** -12 / 3, 18),
                 (mpf(0.5), 30), (mpf(1), 32), (mpf(7), 33)]
    for bound, short in cases:
        assert digits_short(_record(mpf(-1), bound, 30), 30) == short, bound
    assert digits_short(_record(mpf(0), mpf(0)), 20) == 0
    assert digits_short(_record(mpf(0), mpf(10) ** -40, 24), 20) == 24
    assert digits_short(_record(mpf(10) ** 9, mpf(10) ** 12, 24), 20) == 34


def test_refine_re_evaluates_until_no_digit_is_missing():
    # a value of 10^-30 whose bound is 10^(10 - wd) at wd working digits:
    # no digit holds at 20, so the working digits double; 19 digits are
    # missing at 41, and none at 61
    calls = []

    def evaluate(wd):
        calls.append(wd)
        with mp.workdps(wd + 10):
            return _record(mpf(10) ** -30, mpf(10) ** (10 - wd), wd)

    r = refine(evaluate, 20)
    assert calls == [20, 41, 61]
    assert digits_short(r, 20) == 0


def test_refine_refuses_a_re_evaluation_that_gains_no_digit():
    with pytest.raises(ValueError, match="gained no digit"):
        refine(lambda wd: _record(mpf(1), mpf(3), wd), 20)


@pytest.mark.parametrize("dps", [15, 500])
def test_agreement_is_exact_at_the_knife_edge(dps):
    # the gap 1 + 2^-2000 exceeds the summed bounds 1/2 + 1/2 by far less
    # than one rounding at the results' precision or at the ambient one
    tiny = mp.ldexp(mpf(1), -2000)
    a = _record(mp.fadd(1, tiny, exact=True), mpf(0.5))
    b = _record(mpf(0), mpf(0.5))
    wide = _record(mpf(0), mp.fadd(0.5, tiny, exact=True))
    with mp.workdps(dps):
        assert not a.agrees_with(b) and not b.agrees_with(a)
        assert a.agrees_with(wide) and wide.agrees_with(a)
    assert mp.dps == 15


def test_wrap_result_keeps_the_bound_bit_for_bit():
    with mp.workdps(210):
        value = mp.pi
        bound = mp.pi * mpf(10) ** -200
        negated = -bound
    assert mp.dps == 15
    for b in (bound, negated):
        r = wrap_result(value, b, 200, rigorous=True)
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


def test_t_single_scales_zeta_without_extra_slop():
    # the radius of (1 - 2^-i) zeta(i) is that factor times zeta's radius,
    # plus combine's 2^(1 - wbits) |t| for a lone term's two roundings
    for prec in (20, 50):
        z = zeta_single(5, prec)
        r = t_single(5, prec)
        with mp.workdps(prec + GUARD_DIGITS):
            f = mpf(31) / 32  # exact in binary
            assert r.value.magnitude == f * z.value.magnitude
            charge = mp.ldexp(abs(r.value.magnitude), 1 - mp.prec)
            assert r.error_bound.magnitude == f * z.error_bound.magnitude + charge


def test_lone_scaling_of_a_tight_result_is_charged():
    # a nested series' radius is far below one rounding of its value, so
    # only the charge for rounding 1/3 and the product covers pi^2/18
    r = scaled(nested_value("zeta", (2,), 50), Fraction(1, 3))
    assert ref_err(r, lambda: mp.pi ** 2 / 18) <= r.error_bound.magnitude


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("prec", [20, 50, 300])
def test_eta_from_the_kernel_is_no_looser_than_scaled_zeta(m, prec):
    # eta(m) comes from the CVZ kernel directly, not as (1 - 2^(1-m)) zeta(m).
    # Both radii charge the same tail and the same |eta| 10^-wd rounding
    # unit; the kernel's floor charge, under 10^-wd/8, is taken at full
    # weight here, where the scaled radius took it times 1 - 2^(1-m).
    r = eta(m, prec)
    via_zeta = scaled(zeta_single(m, prec), 1 - Fraction(1, 2 ** (m - 1)))
    with mp.workdps(prec + 30):
        err = abs(r.value.magnitude - mp.altzeta(m))
        floors = mpf(2) ** (1 - m) * mpf(10) ** -(prec + GUARD_DIGITS) / 8
        assert err <= r.error_bound.magnitude
        assert r.error_bound.magnitude <= via_zeta.error_bound.magnitude + floors


def test_scaled_keeps_flags():
    base = wrap_result(mpf(3), mpf("1e-40"), 30, rigorous=False, conjectural=True)
    r = scaled(base, Fraction(-1, 4))
    assert r.value.magnitude == mpf(-3) / 4
    assert r.error_bound.magnitude == mpf("1e-40") / 4
    assert (r.rigorous, r.conjectural) == (False, True)


def test_combine_charges_products_and_sums():
    # (pi^2 - 2 pi) at 30 digits: the radius covers both factors' radii plus
    # one multiplication and one addition unit of 10^-(wd-1)
    prec = 30
    wd = prec + GUARD_DIGITS
    pi = pi_const(prec)
    r = combine([(1, [pi, pi]), (-2, [pi])], prec)
    with mp.workdps(wd + 20):
        p, b = pi.value.magnitude, pi.error_bound.magnitude
        unit = mpf(10) ** (1 - wd)
        expected = 2 * p * b + b * b + p * p * unit + 2 * b + p * p * unit
        assert abs(r.error_bound.magnitude / expected - 1) < mpf(10) ** -(wd - 2)
        assert abs(r.value.magnitude - (mp.pi ** 2 - 2 * mp.pi)) <= r.error_bound.magnitude
    assert r.rigorous


# ---------------------------------------------------------------------------
# the CVZ kernel: exact weights, honest bounds, the spare combine spends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1000, 3000])
def test_cvz_weights_are_exact(n):
    d, cs = _cvz_weights(n)
    # d_n is A in (3 + sqrt 8)^n = A + B sqrt 8, in exact integers
    a, b = 1, 0
    for _ in range(n):
        a, b = 3 * a + 8 * b, a + 3 * b
    assert d == a
    # b_k = c_k + c_(k-1) is minus the x^k coefficient of T_n(1 - 2x), and
    # the recurrence's division by (2k+1)(k+1) leaves no remainder
    prev = -d
    for k, c in enumerate(cs):
        bk = c + prev
        coeff = 4 ** k * n * math.comb(n + k, 2 * k)
        assert coeff % (n + k) == 0
        assert bk == (-1) ** (k + 1) * (coeff // (n + k))
        assert (2 * bk * (k + n) * (k - n)) % ((2 * k + 1) * (k + 1)) == 0
        prev = c


KERNEL_CONSTANTS = {
    "zeta": (zeta_single, lambda s: mp.zeta(s)),
    "eta": (eta, lambda s: (1 - mpf(2) ** (1 - s)) * mp.zeta(s)),
    "t": (t_single, lambda s: (1 - mpf(2) ** -s) * mp.zeta(s)),
    "beta": (beta_fn, lambda s: mp.dirichlet(s, [0, 1, 0, -1])),
}


@given(
    name=st.sampled_from(sorted(KERNEL_CONSTANTS)),
    s=st.integers(min_value=2, max_value=40),
    prec=st.integers(min_value=16, max_value=400),
)
@settings(max_examples=80, deadline=None)
def test_kernel_constants_bound_honest(name, s, prec):
    compute, reference = KERNEL_CONSTANTS[name]
    r = compute(s, prec)
    err = ref_err(r, lambda: reference(s), prec + 40)
    assert err <= r.error_bound.magnitude < mpf(10) ** -prec
    assert r.rigorous


@pytest.mark.parametrize("prec", [16, 50, 300, 1000, 2000])
def test_psi3_quarter_against_polygamma(prec):
    # the identity 8 pi^4 + 768 beta(4) against mpmath's polygamma
    r = psi3_quarter(prec)
    err = ref_err(r, lambda: mp.psi(3, mpf(1) / 4), prec + 20)
    assert err <= r.error_bound.magnitude < mpf(10) ** -prec
    assert r.rigorous


# every hp constant, as (compute at prec, mpmath reference)
HP_CONSTANTS = {
    "pi": (pi_const, lambda: +mp.pi),
    "log2": (log2_const, lambda: mp.log(2)),
    "pi^-3": (lambda p: pi_power(-3, p), lambda: mp.pi ** -3),
    "pi^1": (lambda p: pi_power(1, p), lambda: +mp.pi),
    "pi^4": (lambda p: pi_power(4, p), lambda: mp.pi ** 4),
    "psi3(1/4)": (psi3_quarter, lambda: mp.psi(3, mpf(1) / 4)),
    "eta(1)": (lambda p: eta(1, p), lambda: mp.log(2)),
    "beta(1)": (lambda p: beta_fn(1, p), lambda: mp.pi / 4),
    **{
        f"{name}({s})": (lambda p, f=compute, s=s: f(s, p), lambda r=reference, s=s: r(s))
        for name, (compute, reference) in KERNEL_CONSTANTS.items()
        for s in (2, 3, 11)
    },
}


@pytest.mark.parametrize("prec", [16, 50, 300])
@pytest.mark.parametrize("name", sorted(HP_CONSTANTS))
def test_radius_keeps_the_spare_combine_spends(name, prec):
    """Every constant's radius exceeds its true error by a fifth of a unit
    |v| 10^-wd at least: the kernel charges a whole unit for a rounding of at
    most a seventh of one, and pi and log 2 keep a tenfold margin."""
    compute, reference = HP_CONSTANTS[name]
    r = compute(prec)
    with mp.workdps(prec + 40):
        v = r.value.magnitude
        spare = r.error_bound.magnitude - abs(v - reference())
        assert spare >= abs(v) * mpf(10) ** -(prec + GUARD_DIGITS) / 5


@given(
    name=st.sampled_from(sorted(HP_CONSTANTS)),
    c=st.fractions(min_value=-50, max_value=50, max_denominator=50),
    prec=st.integers(min_value=16, max_value=300),
)
@settings(max_examples=80, deadline=None)
def test_scaled_constant_within_bound(name, c, prec):
    compute, reference = HP_CONSTANTS[name]
    r = scaled(compute(prec), c)
    with mp.workdps(prec + 40):
        want = mpf(c.numerator) / c.denominator * reference()
        assert abs(r.value.magnitude - want) <= r.error_bound.magnitude


def _tight(q: Fraction, prec: int):
    """q rounded to the working digits, with its exact error (rounded up at
    twice the bits) as its radius."""
    with mp.workdps(prec + GUARD_DIGITS):
        v = mpf(q.numerator) / q.denominator
        bits = 2 * mp.prec
    err = abs(mp.fsub(mp.fmul(v, q.denominator, exact=True), q.numerator, exact=True))
    return wrap_result(v, mp.fdiv(err, q.denominator, prec=bits, rounding="u"), prec,
                       rigorous=True)


COMBINE_CONSTANTS = ("pi", "log2", "pi^-3", "pi^4", "psi3(1/4)", "beta(1)",
                     "zeta(3)", "zeta(11)", "eta(3)", "t(2)", "t(11)")
FACTORS = st.one_of(
    st.sampled_from(COMBINE_CONSTANTS),
    st.fractions(min_value=-10, max_value=10, max_denominator=10 ** 6),
)
COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(
    lambda c: not _scales_exactly(c)
)


@given(
    terms=st.lists(st.tuples(COEFFS, st.lists(FACTORS, min_size=0, max_size=3)),
                   min_size=1, max_size=3),
    prec=st.integers(min_value=16, max_value=300),
)
@example(terms=[(Fraction(1, 3), [Fraction(1, 7)])], prec=50)
@example(terms=[(Fraction(1, 3), [])], prec=20)
@settings(max_examples=60, deadline=None)
def test_combine_within_bound(terms, prec):
    """combine's radius holds for non-dyadic coefficients over hp constants
    and over tight factors, whose radius is their exact error: a bound that
    left a rounding uncharged shows there, with no spare to hide it."""
    built, exact = [], []
    for coeff, factors in terms:
        fs, refs = [], []
        for f in factors:
            if isinstance(f, Fraction):
                fs.append(_tight(f, prec))
                refs.append(lambda q=f: mpf(q.numerator) / q.denominator)
            else:
                compute, reference = HP_CONSTANTS[f]
                fs.append(compute(prec))
                refs.append(reference)
        built.append((coeff, fs))
        exact.append((coeff, refs))
    r = combine(built, prec)
    with mp.workdps(2 * (prec + GUARD_DIGITS) + 20):
        want = mpf(0)
        for coeff, refs in exact:
            term = mpf(coeff.numerator) / coeff.denominator
            for ref in refs:
                term *= ref()
            want += term
        assert abs(r.value.magnitude - want) <= r.error_bound.magnitude


# ---------------------------------------------------------------------------
# combine on raw values: bit for bit its mpf-operator loop
# ---------------------------------------------------------------------------


def _raw_factor(spec) -> EvalResult:
    """A factor at its own precision, which need not be combine's: an hp
    constant or a tight rational, rigorous or not."""
    what, own_prec, rigorous = spec
    r = _tight(what, own_prec) if isinstance(what, Fraction) else HP_CONSTANTS[what][0](own_prec)
    return r if rigorous else replace(r, rigorous=False)


RAW_FACTORS = st.tuples(
    st.one_of(st.sampled_from(COMBINE_CONSTANTS),
              st.fractions(min_value=-10, max_value=10, max_denominator=10 ** 6)),
    st.integers(min_value=16, max_value=300),
    st.booleans(),
)
RAW_COEFFS = st.one_of(
    st.just(0),
    st.tuples(st.sampled_from((1, -1)), st.integers(min_value=-70, max_value=70)).map(
        lambda sk: sk[0] * Fraction(2) ** sk[1]),
    st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6),
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    # a numerator wider than the working bits is rounded before the division
    st.builds(Fraction, st.integers(min_value=-10 ** 400, max_value=10 ** 400),
              st.integers(min_value=1, max_value=10 ** 60)),
)


@given(
    terms=st.lists(st.tuples(RAW_COEFFS, st.lists(RAW_FACTORS, max_size=8)), max_size=8),
    prec=st.integers(min_value=16, max_value=300),
)
@example(terms=[], prec=16)  # the empty sum
@example(terms=[(Fraction(1, 3), [("pi", 50, True)])], prec=50)  # a lone factor: 2u
@example(terms=[(Fraction(-5, 7), [("zeta(11)", 300, True)])], prec=16)
@example(terms=[(Fraction(1, 3), [])], prec=20)
@example(terms=[(4, [("log2", 30, False)]), (0, [("pi", 30, True)])], prec=30)
@settings(max_examples=80, deadline=None)
def test_combine_is_its_mpf_loop_bit_for_bit(terms, prec):
    """combine on raw values runs the operations of its mpf-operator form,
    rounded alike: the same value, bound and flag, to the last bit."""
    built = [(coeff, [_raw_factor(f) for f in factors]) for coeff, factors in terms]
    got, want = combine(built, prec), combine_mpf(built, prec)
    assert got.value.magnitude._mpf_ == want.value.magnitude._mpf_
    assert got.error_bound.magnitude._mpf_ == want.error_bound.magnitude._mpf_
    assert got.rigorous == want.rigorous
    assert got.value.working_precision == want.value.working_precision == prec


@pytest.mark.parametrize("terms", [
    [(Fraction(1, 3), ["pi", "zeta(3)"]), (Fraction(-2, 7), ["log2"])],
    [(Fraction(1, 3), ["psi3(1/4)"])],
])
def test_combine_reads_no_global_precision(terms):
    # the caller's mp.dps enters neither the value nor the bound
    built = [(c, [HP_CONSTANTS[f][0](40) for f in fs]) for c, fs in terms]
    raw = []
    for dps in (5, 500):
        with mp.workdps(dps):
            r = combine(built, 40)
        raw.append((r.value.magnitude._mpf_, r.error_bound.magnitude._mpf_))
        assert mp.dps == 15
    assert raw[0] == raw[1]
    want = combine_mpf(built, 40)
    assert raw[0] == (want.value.magnitude._mpf_, want.error_bound.magnitude._mpf_)
