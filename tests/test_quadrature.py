"""Tests for the DE quadrature engine and the specific kernel integrals.

Strategy: every integral here has an independent closed form in terms of pi,
log 2, zeta and beta values.  Targets are built from mpmath's own constants
(mp.zeta, mp.catalan) at elevated precision, so agreement is a genuine
cross-check of the quadrature path, not a reflexive comparison.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workdps
from mpmath.libmp import dps_to_prec

from multizeta import quadrature
from multizeta.hp import GUARD_DIGITS, eta, scaled, zeta_single
from multizeta.quadrature import (
    Integrand,
    QuadratureNonConvergence,
    QuadratureResult,
    I_quad,
    integrate01,
    j_cot,
    k_arctanh,
    kernel_pair,
    logpolylog_kernel,
    logsine_check,
    polylog,
    t_kernel_quad,
    _asin_stable,
    _log_stable,
    acos_stable,
)
from multizeta.series import nested_value

REF_DPS = 80


def combo(terms):
    """sum of c * pi^a * zeta(m) for (c, a, m) triples; m = 0 means no zeta,
    m = 1 means log 2 (the eta(1) limit), m = -2 means Catalan's constant."""
    acc = mpf(0)
    for c, a, m in terms:
        f = Fraction(c)
        t = mpf(f.numerator) / f.denominator * mp.pi ** a
        if m == 1:
            t *= mp.log(2)
        elif m == -2:
            t *= mp.catalan
        elif m != 0:
            t *= mp.zeta(m)
        acc += t
    return acc


def quad_err(result, target_terms):
    with workdps(REF_DPS):
        return abs(result.value.magnitude - combo(target_terms))


# ---------------------------------------------------------------------------
# integrate01 basics
# ---------------------------------------------------------------------------


def test_constant_integrand():
    r = integrate01(lambda x, xc: mpf(1), 50)
    with workdps(70):
        assert abs(r.value.magnitude - 1) < mpf(10) ** -55
    assert isinstance(r, QuadratureResult)
    assert not r.rigorous


def test_log_endpoint_integrand():
    # integral of -log(x) over (0,1) is 1
    r = integrate01(Integrand(lambda x, xc: -mp.log(x)), 50)
    with workdps(70):
        assert abs(r.value.magnitude - 1) < mpf(10) ** -50


def test_algebraic_endpoint_integrand():
    # integral of (1-x^2)^(-1/2) is pi/2; inverse sqrt blowup at x = 1
    r = integrate01(Integrand(lambda x, xc: 1 / mp.sqrt(xc * (2 - xc))), 50)
    with workdps(70):
        assert abs(r.value.magnitude - mp.pi / 2) < mpf(10) ** -50


def test_levels_within_cap_at_default_precision():
    for r in (
        integrate01(lambda x, xc: -mp.log(x), 50),
        I_quad(3, 50),
        k_arctanh(4, 50),
        t_kernel_quad(2, 50),
        j_cot(2, 50),
    ):
        assert r.levels_used <= 12


def test_non_convergence_raises_with_best_estimate():
    # 1/x diverges: successive levels keep growing, the cap must trip
    with pytest.raises(QuadratureNonConvergence) as exc:
        integrate01(lambda x, xc: 1 / x, 30)
    best = exc.value.best
    assert isinstance(best, QuadratureResult)
    assert best.levels_used == 13
    # nowhere near the requested 10^-33: the estimate is flagged, not silent
    assert float(best.error_bound.magnitude) > 1e-6


def test_determinism():
    a = I_quad(4, 50)
    b = I_quad(4, 50)
    assert mp.mpf(a.value.magnitude) == mp.mpf(b.value.magnitude)
    assert a.levels_used == b.levels_used


# ---------------------------------------------------------------------------
# polylog
# ---------------------------------------------------------------------------


def test_polylog_dilog_half():
    # Li_2(1/2) = pi^2/12 - log(2)^2/2
    r = polylog(2, Fraction(1, 2), 50)
    with workdps(REF_DPS):
        target = mp.pi ** 2 / 12 - mp.log(2) ** 2 / 2
        assert abs(r.value.magnitude - target) < mpf(10) ** -30
        assert abs(r.value.magnitude - target) <= r.error_bound.magnitude


def test_polylog_endpoints():
    for p in (2, 3, 4, 7):
        plus = polylog(p, 1, 50)
        minus = polylog(p, -1, 50)
        z = zeta_single(p, 60)
        e = eta(p, 60)
        assert plus.agrees_with(z)
        with workdps(REF_DPS):
            assert abs(minus.value.magnitude + e.value.magnitude) < mpf(10) ** -55
    assert float(polylog(3, 0, 50).value.magnitude) == 0.0


def test_polylog_against_mpmath_grid():
    xs = ["-1", "-0.95", "-0.6", "-0.5", "-0.3", "0.3", "0.49", "0.51", "0.7", "0.95", "1"]
    for p in (2, 3, 5):
        for xs_ in xs:
            r = polylog(p, xs_, 40)
            with workdps(70):
                oracle = mp.polylog(p, mpf(xs_))
                err = abs(r.value.magnitude - oracle)
            assert err < mpf(10) ** -40, (p, xs_, mp.nstr(err, 3))
            assert err <= r.error_bound.magnitude + mpf(10) ** -60, (p, xs_)


def test_polylog_branch_seam():
    # the series / log-expansion handoff at x = 1/2 must be seamless; exact
    # rational arguments so the reference sees the same point
    eps = Fraction(1, 10 ** 12)
    for p in (2, 4):
        x_lo = Fraction(1, 2) - eps
        x_hi = Fraction(1, 2) + eps
        lo = polylog(p, x_lo, 50)
        hi = polylog(p, x_hi, 50)
        with workdps(REF_DPS):
            gap = abs(hi.value.magnitude - lo.value.magnitude)
            # Li_p is smooth there: the two branches differ by ~ Li'_p(1/2)*2eps
            assert gap < 4 * mpf(10) ** -12
            oracle = mp.polylog(p, mpf(x_lo.numerator) / x_lo.denominator)
            assert abs(lo.value.magnitude - oracle) < mpf(10) ** -45


def _li_reference(p, x):
    """mp.polylog at the current precision; Li_2(9/10) goes through Euler's
    reflection Li_2(x) + Li_2(1-x) = pi^2/6 - log x log(1-x), because
    mpmath's own evaluation there takes seconds at 1000 digits."""
    if (p, x) == (2, Fraction(9, 10)):
        y = mpf(1) / 10
        return mp.pi ** 2 / 6 - mp.log(1 - y) * mp.log(y) - mp.polylog(2, y)
    return mp.polylog(p, mpf(x.numerator) / x.denominator)


@pytest.mark.parametrize(
    "p,x,prec",
    [
        (p, x, prec)
        for p, x in ((2, Fraction(9, 10)), (3, Fraction(3, 4)), (3, Fraction(-3, 4)))
        for prec in (50, 300, 1000)
    ]
    # the log-branch term count must follow the working digits, not a fixed cap
    + [(3, Fraction(3, 4), 600)],
)
def test_polylog_at_high_precision_within_bound(p, x, prec):
    r = polylog(p, x, prec)
    with workdps(prec + 20):
        err = abs(r.value.magnitude - _li_reference(p, x))
    assert err <= r.error_bound.magnitude
    assert r.error_bound.magnitude < mpf(10) ** (-prec)


# bound honesty of the scaled-integer branches: every argument is a binary
# fraction of at most 53 bits, so polylog and the reference see the same point

PS = st.integers(2, 10)
PRECS = st.integers(16, 300)


def _assert_within_bound(p, x, prec):
    r = polylog(p, x, prec)
    with workdps(prec + 30):
        err = abs(r.value.magnitude - mp.polylog(p, mpf(x.numerator) / x.denominator))
    assert err <= r.error_bound.magnitude, (p, x, prec, mp.nstr(err, 5))


@given(p=PS, x=st.floats(-0.5, 0.5), prec=PRECS)
# near |x| = 1/2 at high precision the floors of the integer series are most
# of the error: a bound without its rounding count fails here
@example(p=2, x=0.49999999999, prec=300)
@example(p=3, x=-0.4999999, prec=200)
@settings(max_examples=40, deadline=None)
def test_polylog_series_within_bound(p, x, prec):
    _assert_within_bound(p, Fraction(x), prec)


@given(
    p=PS,
    m=st.integers(1, 2 ** 53),
    e=st.integers(333, 1200),  # |x| < 10^-100
    sign=st.sampled_from((1, -1)),
    prec=PRECS,
)
@settings(max_examples=30, deadline=None)
def test_polylog_tiny_arguments_within_bound(p, m, e, sign, prec):
    x = Fraction(sign * m, 2 ** e)
    _assert_within_bound(p, x, prec)
    # Li_p(x) = x (1 + x/2^p + ...): the value keeps its relative accuracy
    r = polylog(p, x, prec)
    with workdps(prec + 30):
        assert r.error_bound.magnitude <= abs(mpf(x.numerator) / x.denominator) * mpf(10) ** -prec


@given(p=PS, x=st.floats(0.5, 1, exclude_min=True, exclude_max=True), prec=PRECS)
@settings(max_examples=20, deadline=None)
def test_polylog_log_branch_within_bound(p, x, prec):
    _assert_within_bound(p, Fraction(x), prec)


@given(p=PS, x=st.floats(-1, -0.5, exclude_min=True, exclude_max=True), prec=PRECS)
@settings(max_examples=20, deadline=None)
def test_polylog_square_identity_within_bound(p, x, prec):
    _assert_within_bound(p, Fraction(x), prec)


@pytest.mark.parametrize(
    "p,x", [(3, Fraction(1, 3)), (2, Fraction(-1, 5)), (4, Fraction(3, 4)), (3, Fraction(-3, 4))]
)
@pytest.mark.parametrize("prec", [20, 50, 300])
def test_polylog_value_is_rounded_to_the_working_bits(p, x, prec):
    # the scaled integer is rounded once to the working precision, the
    # rounding the bound charges, instead of keeping its full width
    r = polylog(p, x, prec)
    mantissa = r.value.magnitude._mpf_[1]
    assert mantissa.bit_length() <= dps_to_prec(prec + GUARD_DIGITS)
    with workdps(prec + 30):
        err = abs(r.value.magnitude - mp.polylog(p, mpf(x.numerator) / x.denominator))
    assert err <= r.error_bound.magnitude


def test_polylog_validation():
    with pytest.raises(ValueError):
        polylog(1, 0.5)
    with pytest.raises(ValueError):
        polylog(2, 1.5)
    with pytest.raises(ValueError):
        polylog(2, -2)
    with pytest.raises(ValueError):
        polylog(2.0, 0.5)


# ---------------------------------------------------------------------------
# the arcsin integrals I(N) and their relatives
# ---------------------------------------------------------------------------

# I(N) = integral_0^1 arcsin^N(z)/z dz, 25-digit references computed from the
# eta/zeta closed forms at 60 digits and double-checked against mp.quad
I_REFERENCE = {
    1: "1.088793045151801065250344",
    2: "0.6584723256996341364870989",
    3: "0.5622792684846932407937079",
    4: "0.5600964068274092684010823",
    5: "0.6102364794296436081663015",
    6: "0.7054550044339948923745744",
    7: "0.8507800143238270451394135",
    8: "1.05922144364921610739431",
}


@pytest.mark.parametrize("N", sorted(I_REFERENCE))
def test_I_quad_reference_values(N):
    r = I_quad(N, 50)
    with workdps(REF_DPS):
        assert abs(r.value.magnitude - mpf(I_REFERENCE[N])) < mpf(10) ** -24


def test_I_quad_odd_closed_form():
    # odd N = 2M+1: I(N) = (2M+1)!/2^(2M+1) sum_j (-1)^j pi^(2M+1-2j) eta(2j+1)/(2M+1-2j)!
    for M in (0, 1, 2):
        N = 2 * M + 1
        with workdps(REF_DPS):
            acc = mpf(0)
            for j in range(M + 1):
                e = mp.log(2) if j == 0 else (1 - mpf(2) ** (-2 * j)) * mp.zeta(2 * j + 1)
                acc += (-1) ** j * mp.pi ** (N - 2 * j) * e / mp.factorial(N - 2 * j)
            target = mp.factorial(N) / mpf(2) ** N * acc
            assert abs(I_quad(N, 50).value.magnitude - target) < mpf(10) ** -45


def test_I_quad_even_closed_form():
    # even N = 2M: same eta sum to j = M-1 plus (-1)^M * 2 (1 - 2^(-2M-1)) zeta(2M+1)
    for M in (1, 2, 3):
        N = 2 * M
        with workdps(REF_DPS):
            acc = mpf(0)
            for j in range(M):
                e = mp.log(2) if j == 0 else (1 - mpf(2) ** (-2 * j)) * mp.zeta(2 * j + 1)
                acc += (-1) ** j * mp.pi ** (N - 2 * j) * e / mp.factorial(N - 2 * j)
            acc += (-1) ** M * 2 * (1 - mpf(2) ** (-N - 1)) * mp.zeta(N + 1)
            target = mp.factorial(N) / mpf(2) ** N * acc
            assert abs(I_quad(N, 50).value.magnitude - target) < mpf(10) ** -45


@pytest.mark.parametrize("n", range(1, 9))
def test_j_cot_matches_I(n):
    # J(n) = I(n)/pi^(n+1): the cotangent moment carries the same data
    jr = j_cot(n, 50)
    ir = I_quad(n, 50)
    with workdps(REF_DPS):
        assert abs(jr.value.magnitude * mp.pi ** (n + 1) - ir.value.magnitude) < mpf(10) ** -45


@pytest.mark.parametrize("N", range(1, 7))
def test_k_arctanh_closed_form(N):
    # K(N) = N! (2^(N+1) - 1) zeta(N+1) / 2^(2N)
    r = k_arctanh(N, 50)
    with workdps(REF_DPS):
        target = (
            mp.factorial(N) * (mpf(2) ** (N + 1) - 1) * mp.zeta(N + 1) / mpf(2) ** (2 * N)
        )
        assert abs(r.value.magnitude - target) < mpf(10) ** -45


def test_logsine_equals_I():
    # -n integral_0^(pi/2) z^(n-1) log sin z dz reproduces I(n)
    for n in (1, 2, 4):
        ls = logsine_check(n, 50)
        ir = I_quad(n, 50)
        with workdps(REF_DPS):
            assert abs(ls.value.magnitude - ir.value.magnitude) < mpf(10) ** -45


def test_boundary_identity():
    # I(2N) = (2N)!/2^(2N) [sum_{j<N} (-1)^j pi^(2N-2j) eta(2j+1)/(2N-2j)!]
    #         + (-1)^N K(2N)
    # ties the arcsin and arctanh families together at the z = 1 endpoint
    for N in (1, 2, 3):
        with workdps(REF_DPS):
            acc = mpf(0)
            for j in range(N):
                e = mp.log(2) if j == 0 else (1 - mpf(2) ** (-2 * j)) * mp.zeta(2 * j + 1)
                acc += (-1) ** j * mp.pi ** (2 * N - 2 * j) * e / mp.factorial(2 * N - 2 * j)
            closed_part = mp.factorial(2 * N) / mpf(2) ** (2 * N) * acc
            lhs = I_quad(2 * N, 50).value.magnitude
            k = k_arctanh(2 * N, 50).value.magnitude
            assert abs(lhs - (closed_part + (-1) ** N * k)) < mpf(10) ** -44


# ---------------------------------------------------------------------------
# t-value kernels
# ---------------------------------------------------------------------------

T_KERNEL_REFERENCE = {
    1: "0.053854967123544725176",  # t(3,2)
    2: "0.0021091851327528231438",  # t(3,2,2)
    3: "0.000054996166222452568743",  # t(3,2,2,2)
}


@pytest.mark.parametrize("N", sorted(T_KERNEL_REFERENCE))
def test_t_kernel_reference_values(N):
    r = t_kernel_quad(N, 50)
    with workdps(REF_DPS):
        assert abs(r.value.magnitude - mpf(T_KERNEL_REFERENCE[N])) < mpf(10) ** -21


# ---------------------------------------------------------------------------
# log-polylog kernels
# ---------------------------------------------------------------------------


def test_kernel_2_3_odd_denominator_pair():
    plus = logpolylog_kernel(2, 3, 1, -1, 50)
    minus = logpolylog_kernel(2, 3, -1, -1, 50)
    # integral log^2(x) Li_2(x)/(x(1-x^2)) = 11/16 z5 + 3/4 z2 z3, and the
    # Li_2(-x) twin = -5/4 z5 - 3/8 z2 z3
    with workdps(REF_DPS):
        target_plus = mpf(11) / 16 * mp.zeta(5) + mpf(3) / 4 * mp.zeta(2) * mp.zeta(3)
        target_minus = -mpf(5) / 4 * mp.zeta(5) - mpf(3) / 8 * mp.zeta(2) * mp.zeta(3)
        assert abs(plus.value.magnitude - target_plus) < mpf(10) ** -45
        assert abs(minus.value.magnitude - target_minus) < mpf(10) ** -45


def test_kernel_2_3_even_denominator_value():
    # integral log^2(x) Li_2(x)/(x(1+x^2)) = G pi^3/16 - 3 pi^2 zeta(3)/32 + 331 zeta(5)/256
    r = logpolylog_kernel(2, 3, 1, 1, 50)
    with workdps(REF_DPS):
        target = (
            mp.catalan * mp.pi ** 3 / 16
            - 3 * mp.pi ** 2 * mp.zeta(3) / 32
            + mpf(331) / 256 * mp.zeta(5)
        )
        assert abs(r.value.magnitude - target) < mpf(10) ** -45


# the eight log^j Li_j(+-x)/(x(1-x^2)) integrals, j = 3..6: each reduces to a
# rational combination of pi powers and odd zeta values
REMARK_INTEGRALS = {
    (3, 1): [("-3/64", 4, 3), ("5/16", 2, 5), ("-489/128", 0, 7)],
    (3, -1): [("3/64", 4, 3), ("-5/32", 2, 5), ("273/128", 0, 7)],
    (4, 1): [("1/24", 4, 5), ("35/32", 2, 7), ("579/64", 0, 9)],
    (4, -1): [("-7/192", 4, 5), ("-35/64", 2, 7), ("-477/32", 0, 9)],
    (5, 1): [("-15/128", 6, 5), ("7/32", 4, 7), ("315/64", 2, 9), ("-18825/256", 0, 11)],
    (5, -1): [("15/128", 6, 5), ("-49/256", 4, 7), ("-315/128", 2, 9), ("1485/32", 0, 11)],
    (6, 1): [("1/24", 6, 7), ("21/16", 4, 9), ("3465/128", 2, 11), ("72855/256", 0, 13)],
    (6, -1): [("-31/768", 6, 7), ("-147/128", 4, 9), ("-3465/256", 2, 11), ("-222885/512", 0, 13)],
}


@pytest.mark.parametrize("key", sorted(REMARK_INTEGRALS))
def test_remark_integrals(key):
    j, sign_arg = key
    r = logpolylog_kernel(j, j + 1, sign_arg, -1, 50)
    assert quad_err(r, REMARK_INTEGRALS[key]) < mpf(10) ** -42


def test_kernel_pair_reproduces_odd_sum():
    # (-1)^q/(2 (q-1)!) [L(p,q,-,den) - L(p,q,+,den)] gives the odd double sum
    # (den = -1) and its alternating twin (den = +1); checked at (p,q) = (2,3)
    # against the closed forms of those sums
    p, q = 2, 3
    with workdps(REF_DPS):
        scale = mpf((-1) ** q) / (2 * mp.factorial(q - 1))
        for den, target in (
            (-1, mpf(31) / 64 * mp.zeta(5) + mpf(9) / 32 * mp.zeta(3) * mp.zeta(2)),
            (
                1,
                mpf(31) / 64 * mp.zeta(5)
                - 9 * mp.pi ** 2 / 256 * mp.zeta(3)
                + mp.catalan * mp.pi ** 3 / 32,
            ),
        ):
            lneg = logpolylog_kernel(p, q, -1, den, 50).value.magnitude
            lpos = logpolylog_kernel(p, q, 1, den, 50).value.magnitude
            assert abs(scale * (lneg - lpos) - target) < mpf(10) ** -44


@pytest.mark.parametrize("prec", (30, 50, 100))
@pytest.mark.parametrize("fam, sign_den", (("O", -1), ("B", 1)))
@pytest.mark.parametrize("p, q", [(p, q) for p in range(2, 5) for q in range(2, 5)])
def test_kernel_pair_matches_nested_series(p, q, fam, sign_den, prec):
    # one integral over Li_p(-x) - Li_p(x) against the iterated-integral route
    k = kernel_pair(p, q, sign_den, prec)
    s = nested_value("oddsum", (fam, p, q), prec)
    assert k.agrees_with(s)
    assert k.value.working_precision == prec


def test_t_kernel_reuses_its_arccos_bit_for_bit():
    # t_kernel_quad evaluates arccos once per node; the value is the same to
    # the last bit as with arcsin and arccos evaluated apart
    for N in (1, 2):
        M = 2 * N + 1
        raw = integrate01(
            Integrand(lambda x, xc, M=M: _asin_stable(x, xc) ** M * acos_stable(x, xc) / x),
            30,
        )
        two_calls = scaled(raw, Fraction(1, math.factorial(M)))
        one_call = t_kernel_quad(N, 30)
        assert one_call.value.magnitude == two_calls.value.magnitude
        assert one_call.error_bound.magnitude == two_calls.error_bound.magnitude


# ---------------------------------------------------------------------------
# the per-process memo of the public kernels
# ---------------------------------------------------------------------------

MEMOISED = [
    (I_quad, (3,)),
    (j_cot, (2,)),
    (k_arctanh, (2,)),
    (t_kernel_quad, (1,)),
    (logsine_check, (2,)),
    (logpolylog_kernel, (2, 2, 1, -1)),
    (kernel_pair, (2, 2, 1)),
]


@pytest.mark.parametrize("fn, args", MEMOISED)
def test_memoised_call_equals_a_fresh_one(fn, args):
    first = fn(*args, 20)
    assert fn(*args, 20) is first  # a repeat returns the stored result
    fn.cache_clear()
    fresh = fn(*args, 20)
    assert fresh is not first
    assert fresh == first
    assert fresh.value.magnitude == first.value.magnitude


def test_memo_keys_on_precision():
    kernel_pair.cache_clear()
    a = kernel_pair(2, 3, -1, 30)
    b = kernel_pair(2, 3, -1, 31)
    assert kernel_pair.cache_info().currsize == 2
    assert (a.value.working_precision, b.value.working_precision) == (30, 31)
    assert a.value.magnitude != b.value.magnitude


def test_memo_keys_on_argument_type():
    # 2.0 == 2 must not reach a stored result and skip the validation
    kernel_pair(2, 3, -1, 30)
    with pytest.raises(ValueError):
        kernel_pair(2.0, 3, -1, 30)


def test_non_convergence_is_never_memoised(monkeypatch):
    calls = []
    real = quadrature.integrate01

    def counted(f, prec=50):
        calls.append(prec)
        return real(f, prec)

    monkeypatch.setattr(quadrature, "integrate01", counted)
    monkeypatch.setattr(quadrature, "LEVEL_CAP", 0)  # one level: never two to compare
    I_quad.cache_clear()
    for _ in range(3):
        with pytest.raises(QuadratureNonConvergence):
            I_quad(2, 20)
    assert calls == [20, 20, 20]
    assert I_quad.cache_info().currsize == 0


def test_custom_kernel_with_1_plus_x_denominator():
    # integral log^2(x) Li_2(x)/(x(1+x)) = 83/8 zeta(5) - 9/2 zeta(2) zeta(3):
    # exercises integrate01 with a user-supplied evaluator
    def ev(x, xc):
        lg = _log_stable(x, xc)
        li = mp.polylog(2, x) if x < 1 else mp.zeta(2)
        return lg ** 2 * li / (x * (1 + x))

    r = integrate01(Integrand(ev), 40)
    with workdps(REF_DPS):
        target = mpf(83) / 8 * mp.zeta(5) - mpf(9) / 2 * mp.zeta(2) * mp.zeta(3)
        assert abs(r.value.magnitude - target) < mpf(10) ** -35


def test_logpolylog_validation():
    with pytest.raises(ValueError):
        logpolylog_kernel(1, 3, 1, -1)
    with pytest.raises(ValueError):
        logpolylog_kernel(2, 1, 1, -1)  # non-integrable endpoint
    with pytest.raises(ValueError):
        logpolylog_kernel(2, 1, 1, 1)
    with pytest.raises(ValueError):
        logpolylog_kernel(2, 3, 0, -1)
    with pytest.raises(ValueError):
        logpolylog_kernel(2, 3, 1, 2)


def test_integral_argument_validation():
    for fn in (I_quad, j_cot, k_arctanh, t_kernel_quad, logsine_check):
        with pytest.raises(ValueError):
            fn(0)
        with pytest.raises(ValueError):
            fn(-3)


# ---------------------------------------------------------------------------
# the bound floor and scaling through hp.combine
# ---------------------------------------------------------------------------


# every one of these returned error_bound 0.0 before the floor: its last two
# trapezoid levels agreed bit for bit
ZERO_DIFF_CASES = [
    (I_quad, (1,), 30),
    (I_quad, (4,), 50),
    (I_quad, (6,), 30),
    (j_cot, (1,), 30),
    (j_cot, (3,), 50),
    (k_arctanh, (3,), 50),
    (logsine_check, (4,), 30),
    (logsine_check, (5,), 50),
    (kernel_pair, (3, 3, -1), 30),
]


@pytest.mark.parametrize("fn, args, prec", ZERO_DIFF_CASES)
def test_no_quadrature_route_reports_a_zero_bound(fn, args, prec):
    r = fn(*args, prec)
    with workdps(prec + GUARD_DIGITS):
        floor = abs(r.value.magnitude) * mpf(10) ** (1 - (prec + GUARD_DIGITS))
        # scaling by a rational can round the floor down by an ulp or so
        assert r.error_bound.magnitude >= floor * (1 - mpf(10) ** -20)


def test_scaled_quadrature_keeps_its_fields():
    raw = replace(I_quad(2, 30), conjectural=True)
    r = scaled(raw, Fraction(1, 2))
    assert isinstance(r, QuadratureResult)
    assert r.levels_used == raw.levels_used > 0
    assert (r.rigorous, r.conjectural) == (False, True)
    with workdps(60):
        assert r.value.magnitude == raw.value.magnitude / 2
        assert r.error_bound.magnitude == raw.error_bound.magnitude / 2
