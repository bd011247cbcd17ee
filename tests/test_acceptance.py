"""Acceptance gate: eleven headline guarantees, one test per criterion.

Each criterion runs its assertions and then prints a single
``ACCEPTANCE #NN <label>: PASS`` line (visible with -s or in a tee'd -v log);
a failing criterion stops at its assert instead, so the line doubles as the
pass/fail marker.  Criterion 5 carries one strict xfail: a circulated decimal
for the weight-6 alternating diagonal that our closed form and both series
routes contradict; its corrected value is asserted in the green companion.

Everything here goes through the public evaluation routes, except the
log-polylog words of criterion 06 (``oracles.kernel_words``, no route's
shape) and the brute-force triple sum of criterion 08; tolerances are
either the fixed targets stated in the criterion or the sum of the two
routes' own error bounds (never an eyeballed epsilon).
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from mpmath import mp, mpf

from multizeta.closed import evaluate
from multizeta.hp import (
    beta_fn,
    combine,
    pi_const,
    psi3_quarter,
    t_single,
    zeta_single,
)
from multizeta.quadrature import (
    I_quad,
    j_cot,
    k_arctanh,
    kernel_pair,
    logsine_check,
    t_kernel_quad,
)
from multizeta.series import _words_values, central_binomial_sum, nested_value
from multizeta.symbolic import Formula, FormulaId, build, eval_symbolic, weight_check
from oracles import _triple_nonstrict_sum, hoffman_expr, kernel_words
from multizeta.wseries import (
    TruncatedSeries,
    arcsin_power_series,
    arctanh_nested_coeff,
    g_coeff,
    h_coeff,
    wallis_identity_check,
)

from test_quadrature import REMARK_INTEGRALS

WD = 80  # working dps for all difference arithmetic below


def announce(num: int, label: str):
    print(f"ACCEPTANCE #{num:02d} {label}: PASS")


def ref(terms):
    """sum of c * pi^a * zeta(b) (b = 0 means no zeta factor), exact c."""
    total = mpf(0)
    for c, a, b in terms:
        f = Fraction(c)
        term = mpf(f.numerator) / f.denominator * mp.pi**a
        if b:
            term *= mp.zeta(b)
        total += term
    return total


def gap(result, other) -> mpf:
    """|difference| of two results (EvalResult or mpf), at WD digits."""
    def mag(x):
        return x.value.magnitude if hasattr(x, "value") else x

    return abs(mag(result) - mag(other))


def bounds(*results) -> mpf:
    return sum(r.error_bound.magnitude for r in results)


# ---------------------------------------------------------------------------
# 1. the five published-to-print decimals
# ---------------------------------------------------------------------------


def test_criterion_01_printed_decimals():
    cases = [
        (evaluate(FormulaId(Formula.Z322, (1,)), 30), "0.22881039"),
        (evaluate(FormulaId(Formula.Z322, (2,)), 30), "0.02912562"),
        (evaluate(FormulaId(Formula.Z322, (3,)), 30), "0.00252145"),
        (evaluate(FormulaId(Formula.T322, (2,)), 30), "0.002109185"),
        (evaluate(FormulaId(Formula.T322, (3,)), 30), "0.00005499616"),
    ]
    for result, prefix in cases:
        assert mp.nstr(result.value.magnitude, 25, strip_zeros=False,
                       min_fixed=-mp.inf, max_fixed=mp.inf).startswith(prefix)
    announce(1, "decimal prefixes of the depth-3/5/7 closed forms")


# ---------------------------------------------------------------------------
# 2. three independent routes to t(3,{2}^N) and zeta(3,{2}^N)
# ---------------------------------------------------------------------------


def test_criterion_02_triple_route_agreement():
    with mp.workdps(WD):
        for N in range(1, 5):
            tc = evaluate(FormulaId(Formula.T322, (N,)), 50)
            tq = t_kernel_quad(N, 50)
            assert gap(tc, tq) < mpf(10) ** -30
            ts = nested_value("tvalue", (3,) + (2,) * N, 50)
            assert gap(tc, ts) < bounds(tc, ts)

            zc = evaluate(FormulaId(Formula.Z322, (N,)), 50)
            zs = nested_value("zeta", (3,) + (2,) * N, 50)
            assert gap(zc, zs) < bounds(zc, zs)
            # integral route: 2^(2N+4)/(2N+2)! [ I(2N+2)/2 - I(2N+3)/pi ]
            i2 = I_quad(2 * N + 2, 50).value.magnitude
            i3 = I_quad(2 * N + 3, 50).value.magnitude
            zi = (
                mpf(2) ** (2 * N + 4)
                / mp.factorial(2 * N + 2)
                * (i2 / 2 - i3 / mp.pi)
            )
            assert gap(zc, zi) < mpf(10) ** -30
    announce(2, "closed = series = quadrature for t and zeta, N = 1..4")


# ---------------------------------------------------------------------------
# 3. the arcsin-power integral family
# ---------------------------------------------------------------------------


def test_criterion_03_integral_family():
    with mp.workdps(WD):
        for N in range(1, 9):
            ic = evaluate(FormulaId(Formula.I_CLOSED, (N,)), 50)
            iq = I_quad(N, 50)
            assert gap(ic, iq) < mpf(10) ** -30
        for n in range(1, 5):
            # pi^(n+1) J(n) = I(n)
            jq = j_cot(n, 50)
            ic = evaluate(FormulaId(Formula.I_CLOSED, (n,)), 50)
            scaled = jq.value.magnitude * mp.pi ** (n + 1)
            tol = jq.error_bound.magnitude * mp.pi ** (n + 1) + ic.error_bound.magnitude
            assert abs(scaled - ic.value.magnitude) < tol + mpf(10) ** -40
        for n in (1, 2, 4):
            ls = logsine_check(n, 50)
            assert gap(evaluate(FormulaId(Formula.I_CLOSED, (n,)), 50), ls) < mpf(10) ** -25
    announce(3, "I(N) closed form vs quadrature, cotangent and log-sine variants")


# ---------------------------------------------------------------------------
# 4. the mu family and its arctanh integral
# ---------------------------------------------------------------------------


def test_criterion_04_mu_family():
    with mp.workdps(WD):
        for N in range(1, 5):
            mc = evaluate(FormulaId(Formula.E211, (N,)), 50)
            ms = nested_value("mu", (2,) + (1,) * (N - 1), 50)
            assert gap(mc, ms) < bounds(mc, ms)
        for N in range(1, 6):
            kq = k_arctanh(N, 50)
            target = (
                mp.factorial(N)
                * (mpf(2) ** (N + 1) - 1)
                * mp.zeta(N + 1)
                / mpf(2) ** (2 * N)
            )
            assert abs(kq.value.magnitude - target) < mpf(10) ** -25
    announce(4, "mu closed form vs parity series and arctanh integral")


# ---------------------------------------------------------------------------
# 5. reflection laws for the odd double sums, 2 <= p, q <= 6
# ---------------------------------------------------------------------------


def test_criterion_05_reflection_laws():
    prec = 40
    with mp.workdps(WD):
        o = {}
        b = {}
        for p in range(2, 7):
            for q in range(2, 7):
                o[p, q] = nested_value("oddsum", ("O", p, q), prec)
                b[p, q] = nested_value("oddsum", ("B", p, q), prec)
        for p in range(2, 7):
            for q in range(2, 7):
                lhs = o[p, q].value.magnitude + o[q, p].value.magnitude
                tp, tq, ts = t_single(p, prec), t_single(q, prec), t_single(p + q, prec)
                rhs = tp.value.magnitude * tq.value.magnitude + ts.value.magnitude
                assert abs(lhs - rhs) < bounds(o[p, q], o[q, p], tp, tq, ts) + mpf(10) ** -40

                lhs = b[p, q].value.magnitude + b[q, p].value.magnitude
                bp, bq = beta_fn(p, prec), beta_fn(q, prec)
                rhs = bp.value.magnitude * bq.value.magnitude + ts.value.magnitude
                assert abs(lhs - rhs) < bounds(b[p, q], b[q, p], bp, bq, ts) + mpf(10) ** -40

        diag = evaluate(FormulaId(Formula.O_SUM, (2, 2)), 50)
        assert gap(diag, ref([(Fraction(5, 384), 4, 0)])) < mpf(10) ** -30
        diag = evaluate(FormulaId(Formula.B_SUM, (3, 3)), 50)
        assert gap(diag, ref([(Fraction(31, 30720), 6, 0)])) < mpf(10) ** -30
    announce(5, "O and B reflection laws on the full 2..6 grid plus diagonals")


@pytest.mark.xfail(
    strict=True,
    reason="the circulated decimal 1937 pi^6/1935360 for the weight-6 alternating "
    "diagonal misses the reflection-consistent value 31 pi^6/30720 by 8e-3; "
    "closed form, both series routes, and the kernel quadrature all agree on "
    "the latter",
)
def test_criterion_05_b33_circulated_decimal():
    with mp.workdps(WD):
        diag = evaluate(FormulaId(Formula.B_SUM, (3, 3)), 50)
        assert gap(diag, ref([(Fraction(1937, 1935360), 6, 0)])) < mpf(10) ** -30


# ---------------------------------------------------------------------------
# 6. log-polylog kernel representations
# ---------------------------------------------------------------------------


def test_criterion_06_kernel_representations():
    with mp.workdps(WD):
        for p, q in ((2, 3), (3, 4), (4, 5)):
            ko = kernel_pair(p, q, -1, 50)
            ov, ob = ko.value.magnitude, ko.error_bound.magnitude
            os_ = nested_value("oddsum", ("O", p, q), 50)
            assert abs(ov - os_.value.magnitude) < ob + os_.error_bound.magnitude

            kb = kernel_pair(p, q, +1, 50)
            bv, bb = kb.value.magnitude, kb.error_bound.magnitude
            bs = nested_value("oddsum", ("B", p, q), 50)
            assert abs(bv - bs.value.magnitude) < bb + bs.error_bound.magnitude
        # the eight integrals as iterated-integral words, within their proved bound
        for (j, sign_arg), terms in sorted(REMARK_INTEGRALS.items()):
            (r,) = _words_values([kernel_words(j, j + 1, sign_arg, -1)], 50)
            target = ref([(Fraction(c), a, z) for c, a, z in terms])
            assert gap(r, target) <= bounds(r)
    announce(6, "kernel quadrature reproduces odd sums; the eight log-polylog integrals hold")


# ---------------------------------------------------------------------------
# 7. the alternating (2,3) sum and the two psi'''-form alternating sums
# ---------------------------------------------------------------------------


def test_criterion_07_b23_and_alternating_harmonic_sums():
    with mp.workdps(WD):
        bc = evaluate(FormulaId(Formula.B_SUM, (2, 3)), 50)
        bs = nested_value("oddsum", ("B", 2, 3), 50)
        assert gap(bc, bs) < bounds(bc, bs)
        # forms in pi^2 zeta(3), zeta(5), pi^5 and pi psi_3(1/4)
        pi = pi_const(50)
        monomials = ([pi, pi, zeta_single(3, 50)], [zeta_single(5, 50)], [pi] * 5,
                     [pi, psi3_quarter(50)])
        for kind, coeffs in (
            ("H2n_over_n4", ("-1/3", "-437/64", "-1/24", "1/192")),
            ("H2n2_over_n3", ("61/192", "1973/128", "1/16", "-1/128")),
        ):
            form = combine(list(zip(coeffs, monomials)), 50)
            r = nested_value("valean", kind, 50)
            assert gap(r, form) < bounds(r, form)
    announce(7, "alternating B(2,3) closed form and the psi'''(1/4) alternating sums")


# ---------------------------------------------------------------------------
# 8. telescoping ones-tails and the non-strict triple sum
# ---------------------------------------------------------------------------


def test_criterion_08_ones_tails_and_triple_sum():
    with mp.workdps(WD):
        for n in range(2, 6):
            zs = nested_value("zeta", (2,) + (1,) * (n - 1), 40)
            zc = zeta_single(n + 1, 40)
            assert gap(zs, zc) < bounds(zs, zc)
            ts = nested_value("bigT", (2,) + (1,) * (n - 1), 40)
            tv = t_single(n + 1, 40)
            assert abs(
                ts.value.magnitude - 2 * tv.value.magnitude
            ) < bounds(ts) + 2 * tv.error_bound.magnitude

        z311 = evaluate(FormulaId(Formula.ZETA311), 50)
        target = 2 * mp.zeta(5) - mp.zeta(2) * mp.zeta(3)
        assert abs(z311.value.magnitude - target) < mpf(10) ** -40

        z311s = nested_value("zeta", (3, 1, 1), 50)
        assert gap(z311, z311s) < bounds(z311, z311s)

        tv3, tb3 = _triple_nonstrict_sum(10**5, 50)
        target = 2 * mp.zeta(2) * mp.zeta(3) - mpf(7) / 2 * mp.zeta(5)
        assert abs(tv3 - target) < tb3 + mpf(10) ** -45
    announce(8, "zeta(2,{1}^k) and T(2,{1}^k) telescope; zeta(3,1,1) and its triple sum")


# ---------------------------------------------------------------------------
# 9. the ones-tail conjecture for t({2}^N, 1)
# ---------------------------------------------------------------------------


def test_criterion_09_ones_tail_conjecture():
    with mp.workdps(WD):
        for N in range(1, 4):
            conj = evaluate(FormulaId(Formula.T2S1_CONJECTURE, (N,)), 60)
            known = eval_symbolic(hoffman_expr(N), 60)
            assert gap(conj, known) < mpf(10) ** -40
            assert not conj.conjectural
        # beyond the proven depths: the nested series route, within the
        # combined bounds
        for N in (4, 5):
            conj = evaluate(FormulaId(Formula.T2S1_CONJECTURE, (N,)), 50)
            series = nested_value("tvalue", (2,) * N + (1,), 50)
            assert gap(conj, series) < bounds(conj, series)
            assert conj.conjectural
    announce(9, "t({2}^N,1) = I(2N)/(2N)! at proven depths and numerically to depth 6")


# ---------------------------------------------------------------------------
# 10. the O(4,3) table entry discriminates its head coefficient
# ---------------------------------------------------------------------------


def test_criterion_10_o43_discrimination():
    with mp.workdps(WD):
        s = nested_value("oddsum", ("O", 4, 3), 50)
        table = evaluate(FormulaId(Formula.O_SUM, (4, 3)), 50)
        combined = bounds(s, table)
        good = ref([("1/768", 4, 3), ("5/128", 2, 5), ("127/256", 0, 7)])
        bad = ref([("1/728", 4, 3), ("5/128", 2, 5), ("127/256", 0, 7)])
        assert abs(s.value.magnitude - good) < combined
        assert abs(s.value.magnitude - bad) > 100 * combined
    announce(10, "series pins the pi^4/768 head of O(4,3) and rejects pi^4/728")


# ---------------------------------------------------------------------------
# 11. structural properties with no numeric targets
# ---------------------------------------------------------------------------


def _brute_g(N, k):
    return sum(
        Fraction(1, math.prod((2 * n + 1) ** 2 for n in c))
        for c in combinations(range(k), N)
    )


def _brute_h(N, k):
    if N == 1:
        return Fraction(1, 4)
    return sum(
        Fraction(1, 4 * math.prod((2 * n) ** 2 for n in c))
        for c in combinations(range(1, k), N - 1)
    )


def _brute_arctanh(N, m):
    # descending chains m > n_1 > ... > n_N >= 1 with n_j = N - j + 1 (mod 2)
    total = Fraction(0)
    for c in combinations(range(1, m), N):
        chain = sorted(c, reverse=True)
        if all(chain[j] % 2 == (N - j) % 2 for j in range(N)):
            total += Fraction(1, math.prod(chain))
    return total


def test_criterion_11_structural_properties():
    # (a) the averaging-operator identity on three different integrands
    with mp.workdps(WD):
        for f, alpha in (
            (TruncatedSeries.from_rationals([0, 1]), 1),
            (arcsin_power_series(2, 80), 1),
            (arcsin_power_series(3, 60), Fraction(1, 2)),
        ):
            lhs, rhs = wallis_identity_check(f, alpha, 50)
            assert gap(lhs, rhs) < bounds(lhs, rhs) + mpf(10) ** -20

    # (b) coefficient tables: defining sums at small k, recurrences to k = 100
    for N in range(4):
        for k in range(12):
            assert g_coeff(N, k) == _brute_g(N, k)
    for N in range(1, 4):
        for k in range(1, 12):
            assert h_coeff(N, k) == _brute_h(N, k)
            assert arctanh_nested_coeff(N, k) == _brute_arctanh(N, k)
    for N in range(1, 6):
        for k in range(1, 100):
            assert g_coeff(N, k + 1) - g_coeff(N, k) == g_coeff(N - 1, k) / (2 * k + 1) ** 2
            if N >= 2 and k >= 1:
                assert h_coeff(N, k + 1) - h_coeff(N, k) == h_coeff(N - 1, k) / (2 * k) ** 2

    # (c) weight homogeneity of every symbolic build
    odd_sums = (Formula.O_SUM, Formula.B_SUM)
    fids = (
        [(FormulaId(Formula.I_CLOSED, (N,)), N + 1) for N in range(1, 7)]
        + [(FormulaId(Formula.T322, (N,)), 2 * N + 3) for N in range(1, 5)]
        + [(FormulaId(Formula.Z322, (N,)), 2 * N + 3) for N in range(0, 5)]
        + [(FormulaId(Formula.E211, (N,)), N + 1) for N in range(1, 7)]
        + [(FormulaId(fam, (q, q)), 2 * q) for fam in odd_sums for q in range(2, 6)]
        + [(FormulaId(fam, (p, w - p)), w) for fam in odd_sums for w in range(5, 16, 2) for p in range(2, w - 1)]
        + [(FormulaId(Formula.T2S1_CONJECTURE, (N,)), 2 * N + 1) for N in range(1, 6)]
        + [(FormulaId(Formula.ZETA311), 5)]
    )
    for fid, weight in fids:
        assert weight_check(build(fid), weight), f"{fid} not homogeneous of weight {weight}"

    # (d) the Lehmer central-binomial sum, fast and to full precision
    with mp.workdps(WD):
        r = central_binomial_sum("inverse_square", 50)
        assert abs(r.value.magnitude - mp.pi**2 / 18) < mpf(10) ** -40
    announce(11, "operator identity, exact tables, weight grading, Lehmer sum")
