"""Tests for the DE quadrature engine and the specific kernel integrals.

Strategy: every integral here has an independent closed form in terms of pi,
log 2, zeta and beta values.  Targets are built from mpmath's own constants
(mp.zeta, mp.catalan) at elevated precision, so agreement is a genuine
cross-check of the quadrature path, not a reflexive comparison.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workdps

from multizeta import quadrature
from multizeta.hp import GUARD_DIGITS, scaled
from multizeta.quadrature import (
    Integrand,
    QuadratureNonConvergence,
    QuadratureResult,
    I_quad,
    integrate01,
    j_cot,
    k_arctanh,
    kernel_pair,
    logsine_check,
    t_kernel_quad,
    _log_stable,
)
from multizeta.series import _words_values, nested_value

from oracles import kernel_words

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
# log-polylog integrals, as words of the iterated-integral engine
# ---------------------------------------------------------------------------

WORD_PRECS = (16, 50, 200)


def assert_words_within_bound(p, q, s, den, terms):
    """L(p,q,s,den) from its words lies within their proved bound of the
    closed form ``combo(terms)`` at every precision of WORD_PRECS."""
    for prec in WORD_PRECS:
        (r,) = _words_values([kernel_words(p, q, s, den)], prec)
        assert r.rigorous
        with workdps(prec + 40):
            err = abs(r.value.magnitude - combo(terms))
            assert err <= r.error_bound.magnitude, (p, q, s, den, prec, mp.nstr(err, 3))
            assert r.error_bound.magnitude < mpf(10) ** -prec


def test_kernel_2_3_odd_denominator_pair():
    # integral log^2(x) Li_2(x)/(x(1-x^2)) = 11/16 z5 + 3/4 z2 z3, and the
    # Li_2(-x) twin = -5/4 z5 - 3/8 z2 z3; z2 = pi^2/6
    assert_words_within_bound(2, 3, 1, -1, [("11/16", 0, 5), ("1/8", 2, 3)])
    assert_words_within_bound(2, 3, -1, -1, [("-5/4", 0, 5), ("-1/16", 2, 3)])


def test_kernel_2_3_even_denominator_value():
    # integral log^2(x) Li_2(x)/(x(1+x^2)) = G pi^3/16 - 3 pi^2 zeta(3)/32 + 331 zeta(5)/256
    assert_words_within_bound(
        2, 3, 1, 1, [("1/16", 3, -2), ("-3/32", 2, 3), ("331/256", 0, 5)]
    )


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
    assert_words_within_bound(j, j + 1, sign_arg, -1, REMARK_INTEGRALS[key])


@pytest.mark.parametrize("prec", (30, 50, 100))
@pytest.mark.parametrize("fam, sign_den", (("O", -1), ("B", 1)))
@pytest.mark.parametrize("p, q", [(p, q) for p in range(2, 5) for q in range(2, 5)])
def test_kernel_pair_matches_nested_series(p, q, fam, sign_den, prec):
    # one integral over Li_p(-x) - Li_p(x) against the iterated-integral route
    k = kernel_pair(p, q, sign_den, prec)
    s = nested_value("oddsum", (fam, p, q), prec)
    assert k.agrees_with(s)
    assert k.value.working_precision == prec


def bracket_node(where):
    """(x, xc) at the working precision: a place, a float in (0, 1), or an
    integer k for the tiny x = 2^-k/3."""
    ulp = mpf(2) ** -mp.prec
    if where == "xc = 2^-200":
        xc = mpf(2) ** -200
        return 1 - xc, xc  # x rounds to 1 below 200 bits, as at the deepest DE nodes
    if isinstance(where, int):
        x = mp.ldexp(mpf(1) / 3, -where)
    else:
        x = {"above 1/2": 0.5 + ulp, "below 1/2": 0.5 - ulp / 2, "1/2": mpf(0.5)}.get(where)
        if x is None:
            x = min(mpf(where), 1 - ulp)
    return x, 1 - x


@settings(max_examples=40, deadline=None)
@given(p=st.integers(2, 8), prec=st.integers(16, 300),
       where=st.one_of(st.sampled_from(("above 1/2", "xc = 2^-200", "below 1/2", "1/2")),
                       st.floats(0, 1, exclude_min=True), st.integers(1, 3000)))
@example(p=2, prec=16, where="xc = 2^-200")
@example(p=8, prec=300, where="above 1/2")
@example(p=2, prec=300, where="below 1/2")
@example(p=8, prec=16, where=3000)
def test_the_chi_bracket_is_within_its_bound(p, prec, where):
    # _bracket's docstring: for 1/2 < x < 1, at the node x = 1 - xc,
    # |_bracket - (Li_p(-x) - Li_p(x))| <= 2 10^-(wd+2) + (4J + 6) 2^-B + 11 eps,
    # and for x <= 1/2 it is <= 2 x (n + 7) 2^-B + eps |value|
    wd = prec + GUARD_DIGITS
    bits = quadrature._scale_bits(wd)
    with workdps(wd):
        x, xc = bracket_node(where)
        (got,) = quadrature._bracket(p, x, xc)
        if x > 0.5:
            J = quadrature._chi_horner(p, _log_stable(x, xc)[0], wd)[1]
            bound = (2 * mpf(10) ** -(wd + 2) + mp.ldexp(4 * J + 6, -bits)
                     + mp.ldexp(11, -mp.prec))
        else:
            m, e = quadrature._pair(x)
            n = quadrature._series_scaled(p, m * m, -2 * e, bits)[1]
            bound = 2 * x * mp.ldexp(n + 7, -bits) + mp.ldexp(abs(got), -mp.prec)
    with workdps(wd + 40):
        node = 1 - xc if x > 0.5 else x
        exact = mp.polylog(p, -node) - mp.polylog(p, node)
        assert abs(got - exact) <= bound
        if x <= 0.5:  # relative to x, down to the tiniest nodes
            assert bound <= abs(exact) * mpf(10) ** -prec


# ---------------------------------------------------------------------------
# the per-process memo of the public kernels
# ---------------------------------------------------------------------------

MEMOISED = [
    (I_quad, (3,)),
    (j_cot, (2,)),
    (k_arctanh, (2,)),
    (t_kernel_quad, (1,)),
    (logsine_check, (2,)),
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
        (lg,) = _log_stable(x, xc)
        li = mp.polylog(2, x) if x < 1 else mp.zeta(2)
        return lg ** 2 * li / (x * (1 + x))

    r = integrate01(Integrand(ev), 40)
    with workdps(REF_DPS):
        target = mpf(83) / 8 * mp.zeta(5) - mpf(9) / 2 * mp.zeta(2) * mp.zeta(3)
        assert abs(r.value.magnitude - target) < mpf(10) ** -35


def test_kernel_pair_validation():
    with pytest.raises(ValueError):
        kernel_pair(1, 3, -1)
    with pytest.raises(ValueError, match="non-integrable"):
        kernel_pair(2, 1, -1)
    with pytest.raises(ValueError):
        kernel_pair(2, 1, 1)
    with pytest.raises(ValueError):
        kernel_pair(2, 3, 2)


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
