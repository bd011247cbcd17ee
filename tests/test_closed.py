"""Closed-form layer: exact-combination oracles and frozen decimals.

References are built from exact rationals times pi powers / odd zeta values /
Catalan inside an elevated-precision block, never parsed from short decimal
strings at ambient precision.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from multizeta import symbolic
from multizeta.closed import evaluate
from multizeta.hp import GUARD_DIGITS, log2_const, pi_const
from multizeta.quadrature import I_quad
from multizeta.routes import fid_for
from multizeta.series import nested_value
from multizeta.symbolic import (
    PI,
    Formula,
    FormulaId,
    SymbolicExpr,
    build,
    eval_symbolic,
    pi_zeta_expr,
    t_single_expr,
)

from oracles import B23_TERMS, O_TABLE_COMBOS, hoffman_expr
from test_symbolic import ALL_FIDS, beta_expr

REF_DPS = 80


def combo(terms):
    """sum of c * pi^a * X(m): m=0 -> 1, m=1 -> log 2, m=-2 -> Catalan, else zeta(m)."""
    with mp.workdps(REF_DPS):
        total = mpf(0)
        for c, a, m in terms:
            t = mpf(Fraction(c).numerator) / Fraction(c).denominator * mp.pi ** a
            if m == 1:
                t *= mp.log(2)
            elif m == -2:
                t *= mp.catalan
            elif m != 0:
                t *= mp.zeta(m)
            total += t
        return total


def exact(terms):
    """combo's terms, without log 2, as an exact basis expression."""
    acc = SymbolicExpr.zero()
    for c, a, m in terms:
        if m == -2:
            acc = acc + SymbolicExpr.atom(PI, a, Fraction(c)) * beta_expr(2)
        else:
            acc = acc + pi_zeta_expr([(c, a, m)])
    return acc


def ev(name, *params, prec=50):
    """The closed form ``name(params)`` at ``prec`` digits."""
    return evaluate(FormulaId(name, params), prec)


def err(result, reference):
    with mp.workdps(REF_DPS):
        return abs(result.value.magnitude - reference)


# ---------------------------------------------------------------------------
# I(N)
# ---------------------------------------------------------------------------


def test_i_closed_small_odd():
    # I(1) = (pi/2) log 2,  I(3) = pi^3/8 log2 - (9 pi/16) zeta(3)
    assert err(ev(Formula.I_CLOSED, 1), combo([("1/2", 1, 1)])) < mpf(10) ** -45
    assert err(ev(Formula.I_CLOSED, 3), combo([("1/8", 3, 1), ("-9/16", 1, 3)])) < mpf(10) ** -45


def test_i_closed_small_even():
    # I(2) = pi^2/4 log2 - 7/8 zeta(3),  I(4) = pi^4/16 log2 - 9pi^2/16 z3 + 93/32 z5
    assert err(ev(Formula.I_CLOSED, 2), combo([("1/4", 2, 1), ("-7/8", 0, 3)])) < mpf(10) ** -45
    assert (
        err(ev(Formula.I_CLOSED, 4), combo([("1/16", 4, 1), ("-9/16", 2, 3), ("93/32", 0, 5)]))
        < mpf(10) ** -45
    )


def test_i_closed_weight_nine():
    ref = combo(
        [
            ("1/256", 8, 1),
            ("-21/128", 6, 3),
            ("1575/256", 4, 5),
            ("-19845/256", 2, 7),
            ("160965/512", 0, 9),
        ]
    )
    assert err(ev(Formula.I_CLOSED, 8), ref) < mpf(10) ** -42


def test_i_closed_within_own_bound():
    with mp.workdps(REF_DPS):
        # independent route: mpmath quadrature of arcsin^N(z)/z
        for N in (1, 2, 3, 5):
            r = ev(Formula.I_CLOSED, N, prec=40)
            oracle = mp.quad(lambda z: mp.asin(z) ** N / z, [0, 1])
            assert abs(r.value.magnitude - oracle) < mpf(10) ** -40
            assert r.error_bound.magnitude < mpf(10) ** -45


# the closed forms of t(3,{2}^N), zeta(3,{2}^N) and I(N) whose alternating
# sums cancel most: up to 28 digits for zeta(3,{2}^20), 24 for I(40)
LONG_FORMS = (
    [(Formula.T322, N) for N in range(1, 21)]
    + [(Formula.Z322, N) for N in range(21)]
    + [(Formula.I_CLOSED, N) for N in range(1, 41)]
)


@pytest.mark.parametrize("prec", [30, 50])
def test_closed_forms_hold_the_requested_digits(prec):
    for name, N in LONG_FORMS:
        r = ev(name, N, prec=prec)
        with mp.workdps(prec + 20):
            assert r.error_bound.magnitude <= abs(r.value.magnitude) * mpf(10) ** -prec, (name, N)


@pytest.mark.parametrize("prec", [30, 50])
def test_long_closed_forms_agree_with_the_series_route(prec):
    for name, quantity in ((Formula.T322, "tvalue"), (Formula.Z322, "zeta")):
        for N in range(1, 21):
            series = nested_value(quantity, (3,) + (2,) * N, prec)
            assert ev(name, N, prec=prec).agrees_with(series), (name, N)


@pytest.mark.parametrize("prec", [30, 50])
def test_i_closed_agrees_with_itself_at_twice_the_digits(prec):
    for N in range(1, 41):
        assert ev(Formula.I_CLOSED, N, prec=prec).agrees_with(
            ev(Formula.I_CLOSED, N, prec=2 * prec)
        ), N


@pytest.mark.parametrize("prec", [16, 50])
def test_closed_forms_that_cancel_completely_deliver_their_digits(prec):
    # I(N) for N >= 40 cancels past every working digit at these digits: at
    # 16, I(200)'s first bound is 2.5e292 on a value of 1.0e35.  Each is
    # evaluated again until it holds prec digits, and agrees with itself at
    # 30 digits more and with the quadrature route
    for N in (40, 80, 120, 200):
        r = ev(Formula.I_CLOSED, N, prec=prec)
        with mp.workdps(prec + 20):
            assert r.error_bound.magnitude <= abs(r.value.magnitude) * mpf(10) ** -prec, N
        assert r.agrees_with(ev(Formula.I_CLOSED, N, prec=prec + 30)), N
    assert r.agrees_with(I_quad(200, 16))


def test_a_total_cancellation_takes_one_more_evaluation(monkeypatch):
    # the first bound measures the cancellation: I(200) at 16 digits holds
    # them after one re-evaluation
    calls = []
    combine_at = symbolic._combine_at
    monkeypatch.setattr(symbolic, "_combine_at",
                        lambda expr, prec: calls.append(prec) or combine_at(expr, prec))
    eval_symbolic(build(FormulaId(Formula.I_CLOSED, (200,))), 16)
    assert len(calls) == 2 and calls[0] == 16


def test_i_closed_validation():
    with pytest.raises(ValueError):
        ev(Formula.I_CLOSED, 0)
    with pytest.raises(ValueError):
        ev(Formula.I_CLOSED, -3)


# ---------------------------------------------------------------------------
# t(3,{2}^N) and zeta(3,{2}^N)
# ---------------------------------------------------------------------------

# 21-digit decimals frozen from two independent evaluation routes
T_REFERENCE = {
    1: "0.053854967123544725176",
    2: "0.0021091851327528231438",
    3: "0.000054996166222452568743",
    4: "0.0000010011162598824512026",
}

Z_REFERENCE = {
    0: "1.2020569031595942854",
    1: "0.22881039760335375977",
    2: "0.029125622289826226561",
    3: "0.0025214520963462911534",
}


def test_t_closed_frozen_decimals():
    with mp.workdps(REF_DPS):
        for N, ref in T_REFERENCE.items():
            assert err(ev(Formula.T322, N), mpf(ref)) < mpf(10) ** -21


def test_z_closed_frozen_decimals():
    with mp.workdps(REF_DPS):
        for N, ref in Z_REFERENCE.items():
            assert err(ev(Formula.Z322, N), mpf(ref)) < mpf(10) ** -19


def test_t_closed_exact_combinations():
    # t(3,2) and t(3,2,2) in the pi/zeta basis
    assert (
        err(ev(Formula.T322, 2), combo([("1/1024", 4, 3), ("-15/512", 2, 5), ("381/2048", 0, 7)]))
        < mpf(10) ** -42
    )
    ref3 = combo(
        [("1/122880", 6, 3), ("-5/8192", 4, 5), ("189/16384", 2, 7), ("-511/8192", 0, 9)]
    )
    assert err(ev(Formula.T322, 3), ref3) < mpf(10) ** -42


def test_z_closed_exact_combinations():
    assert err(ev(Formula.Z322, 0), combo([(1, 0, 3)])) < mpf(10) ** -45
    assert err(ev(Formula.Z322, 1), combo([("1/2", 2, 3), ("-11/2", 0, 5)])) < mpf(10) ** -42
    ref3 = combo(
        [("1/1680", 6, 3), ("-1/16", 4, 5), ("63/32", 2, 7), ("-223/16", 0, 9)]
    )
    assert err(ev(Formula.Z322, 3), ref3) < mpf(10) ** -41


def test_dual_route_assertion_runs_clean():
    # both constructors go through build(), which raises unless the
    # summation and integral-combination forms are equal over Q; exercising
    # N = 1..5 at two precisions covers that path and the bound size
    for N in range(1, 6):
        for prec in (30, 60):
            t = ev(Formula.T322, N, prec=prec)
            z = ev(Formula.Z322, N, prec=prec)
            assert t.rigorous and z.rigorous
            assert t.error_bound.magnitude < mpf(10) ** -(prec + 3)
            assert z.error_bound.magnitude < mpf(10) ** -(prec + 3)


def test_t_z_validation():
    with pytest.raises(ValueError):
        ev(Formula.T322, 0)
    with pytest.raises(ValueError):
        ev(Formula.Z322, -1)


# ---------------------------------------------------------------------------
# mu(2,{1}^(N-1))
# ---------------------------------------------------------------------------

def test_mu_closed_examples():
    assert err(ev(Formula.E211, 1), combo([("1/8", 2, 0)])) < mpf(10) ** -45
    assert err(ev(Formula.E211, 2), combo([("7/16", 0, 3)])) < mpf(10) ** -45
    assert err(ev(Formula.E211, 3), combo([("1/384", 4, 0)])) < mpf(10) ** -45


def test_mu_closed_general_formula():
    with mp.workdps(REF_DPS):
        for N in range(1, 9):
            ref = (mpf(2) ** (N + 1) - 1) * mp.zeta(N + 1) / mpf(2) ** (2 * N)
            assert err(ev(Formula.E211, N), ref) < mpf(10) ** -45


def test_mu_closed_validation():
    with pytest.raises(ValueError):
        ev(Formula.E211, 0)


# ---------------------------------------------------------------------------
# odd Euler sums: diagonals, parity theorems, reflections
# ---------------------------------------------------------------------------


def test_o_diag_weight_four():
    assert err(ev(Formula.O_SUM, 2, 2), combo([("5/384", 4, 0)])) < mpf(10) ** -42


def test_o_diag_general():
    with mp.workdps(REF_DPS):
        for q in (2, 3, 4, 6):
            ref = ((1 - mpf(2) ** (-2 * q)) * mp.zeta(2 * q)
                   + ((1 - mpf(2) ** -q) * mp.zeta(q)) ** 2) / 2
            assert err(ev(Formula.O_SUM, q, q), ref) < mpf(10) ** -42


def test_b_diag_closed_forms():
    # B(2,2) = 15/512 pi^4/... use the formula directly; B(3,3) = 31 pi^6/30720
    with mp.workdps(REF_DPS):
        ref22 = ((1 - mpf(2) ** -4) * mp.zeta(4) + mp.catalan ** 2) / 2
        assert err(ev(Formula.B_SUM, 2, 2), ref22) < mpf(10) ** -42
    assert err(ev(Formula.B_SUM, 3, 3), combo([("31/30720", 6, 0)])) < mpf(10) ** -42


def test_diag_validation():
    for bad in (1, 0, -2):
        for fam in (Formula.O_SUM, Formula.B_SUM):
            with pytest.raises(ValueError):
                ev(fam, bad, bad)


# frozen decimals for the reversed entries
O_REFLECTED_REFERENCE = {
    (3, 2): "1.2437510127590558524",
    (4, 3): "1.0524665977391639948",
    (5, 4): "1.0147392317031662106",
    (6, 5): "1.0045299951930443685",
    (7, 6): "1.0014477392916257999",
}

# every p, q >= 2 with p + q odd, by weight
ODD_WEIGHT_PAIRS = {
    w: [(p, w - p) for p in range(2, w - 1)] for w in range(5, 22, 2)
}


def test_o_table_primary_entries():
    for pq, terms in O_TABLE_COMBOS.items():
        assert err(ev(Formula.O_SUM, *pq), combo(terms)) < mpf(10) ** -42


def test_o_odd_equals_the_typed_rows_over_q():
    # the parity theorem reproduces each once-typed row and its reflection
    for (p, q), terms in O_TABLE_COMBOS.items():
        row = pi_zeta_expr(terms)
        assert build(FormulaId(Formula.O_SUM, (p, q))) == row, (p, q)
        reflected = t_single_expr(p) * t_single_expr(q) + t_single_expr(p + q) - row
        assert build(FormulaId(Formula.O_SUM, (q, p))) == reflected, (q, p)


def test_o_table_reflected_entries():
    with mp.workdps(REF_DPS):
        for pq, ref in O_REFLECTED_REFERENCE.items():
            assert err(ev(Formula.O_SUM, *pq), mpf(ref)) < mpf(10) ** -19


def test_o_table_reflected_is_reflection():
    # X(p,q) + X(q,p) = c(p) c(q) + t(p+q), exactly over Q, up to weight 21,
    # with c = t for O and beta for B
    for fam, c in ((Formula.O_SUM, t_single_expr), (Formula.B_SUM, beta_expr)):
        for w, pairs in ODD_WEIGHT_PAIRS.items():
            for p, q in pairs:
                lhs = build(FormulaId(fam, (p, q))) + build(FormulaId(fam, (q, p)))
                assert lhs == c(p) * c(q) + t_single_expr(w), (fam, p, q)


def test_o_table_reflection_consistency_43():
    # O(3,4) + O(4,3) = O(3) O(4) + O(7): the (4,3) entry carries the
    # pi^4/768 zeta(3) head coefficient
    ref = combo([("1/768", 4, 3), ("5/128", 2, 5), ("127/256", 0, 7)])
    assert err(ev(Formula.O_SUM, 4, 3), ref) < mpf(10) ** -42


@pytest.mark.parametrize("digits, pairs", [
    (60, [pq for w in range(5, 16, 2) for pq in ODD_WEIGHT_PAIRS[w]]),
    (1000, [(2, 13), (7, 8), (8, 7), (13, 2), (3, 4), (4, 3)]),
], ids=["60", "1000"])
def test_o_odd_agrees_with_the_series(digits, pairs):
    # both families, every odd-weight pair up to weight 15 at 60 digits; six at 1000
    for fam, name in (("O", Formula.O_SUM), ("B", Formula.B_SUM)):
        for p, q in pairs:
            assert fid_for("oddsum", (fam, p, q)) == FormulaId(name, (p, q))
            closed_value = ev(name, p, q, prec=digits)
            assert closed_value.agrees_with(nested_value("oddsum", (fam, p, q), digits)), (fam, p, q)


def test_o_table_domain():
    # every p, q >= 2 with p = q or of odd weight has a closed form, in both families
    for fam, name in (("O", Formula.O_SUM), ("B", Formula.B_SUM)):
        for pq in ((7, 2), (2, 2), (3, 4), (4, 3), (2, 13)):
            assert fid_for("oddsum", (fam, *pq)) == FormulaId(name, pq)
        for bad in ((2, 4), (1, 4), (4, 1), (3, 7), (1, 1)):
            assert fid_for("oddsum", (fam, *bad)) is None
            with pytest.raises(ValueError):
                ev(name, *bad)


def test_reflect_validation():
    # O_SUM and B_SUM take two parameters >= 2, equal or of odd sum
    for name in (Formula.O_SUM, Formula.B_SUM):
        for bad in ((1, 2), (2, 1), (4, 2), (2, 3, 4), (5,), (), (0, 0)):
            with pytest.raises(ValueError):
                FormulaId(name, bad)


def test_b23_closed_value():
    # the once-typed row is the oracle, over Q and in value
    assert build(FormulaId(Formula.B_SUM, (2, 3))) == exact(B23_TERMS)
    assert err(ev(Formula.B_SUM, 2, 3), combo(B23_TERMS)) < mpf(10) ** -42
    with mp.workdps(REF_DPS):
        assert err(ev(Formula.B_SUM, 2, 3), mpf("0.97269557759092374248")) < mpf(10) ** -20


def test_b_reflect_23():
    # B(3,2) = beta(2) beta(3) + O(5) - B(2,3)
    reflected = beta_expr(2) * beta_expr(3) + t_single_expr(5) - exact(B23_TERMS)
    assert build(FormulaId(Formula.B_SUM, (3, 2))) == reflected
    with mp.workdps(REF_DPS):
        ref = mp.catalan * (mp.pi ** 3 / 32) + (1 - mpf(2) ** -5) * mp.zeta(5) - combo(B23_TERMS)
    got = ev(Formula.B_SUM, 3, 2, prec=60)
    assert err(got, ref) <= got.error_bound.magnitude
    assert got.error_bound.magnitude < mpf(10) ** -60


# ---------------------------------------------------------------------------
# Hoffman relations and the t({2}^N,1) conjecture
# ---------------------------------------------------------------------------


def test_hoffman_t21():
    # t(2,1) = t(2) log2 - t(3)/2
    with mp.workdps(REF_DPS):
        ref = (mp.pi ** 2 / 8) * mp.log(2) - (mpf(7) / 8) * mp.zeta(3) / 2
        assert err(ev(Formula.T2S1_CONJECTURE, 1), ref) < mpf(10) ** -42


def test_hoffman_matches_arcsin_integrals():
    # I(2N)/(2N)! is Hoffman's relation over Q for N = 1..3; this pins the
    # 3/14 coefficient of the N = 2 relation (1/14 misses by ~8e-5)
    for N in (1, 2, 3):
        assert build(FormulaId(Formula.T2S1_CONJECTURE, (N,))) == hoffman_expr(N), N


def test_hoffman_t221_wrong_coefficient_is_far():
    with mp.workdps(REF_DPS):
        t2 = (mp.pi ** 2) / 8
        t3 = (mpf(7) / 8) * mp.zeta(3)
        t4 = (mpf(15) / 16) * mp.zeta(4)
        t5 = (mpf(31) / 32) * mp.zeta(5)
        wrong = t5 / 8 - t2 * t3 / 14 + t4 * mp.log(2) / 4
        good = t5 / 8 - 3 * t2 * t3 / 14 + t4 * mp.log(2) / 4
        target = ev(Formula.T2S1_CONJECTURE, 2, prec=60).value.magnitude
        assert abs(good - target) < mpf(10) ** -55
        assert abs(wrong - target) > mpf(10) ** -5


def test_t2s1_flags_and_values():
    # conjectural past N = 3, the range Hoffman proved
    r = ev(Formula.T2S1_CONJECTURE, 4)
    assert r.conjectural
    for N in (1, 2, 3):
        assert ev(Formula.T2S1_CONJECTURE, N).conjectural is False
    with mp.workdps(REF_DPS):
        assert err(r, mpf("0.000026270373106379367743")) < mpf(10) ** -20


def test_hoffman_validation():
    with pytest.raises(ValueError):
        FormulaId(Formula.T2S1_CONJECTURE, (2, 1))
    with pytest.raises(ValueError):
        ev(Formula.T2S1_CONJECTURE, 0)


def test_zeta311_value():
    ref = combo([(2, 0, 5), ("-1/6", 2, 3)])  # 2 z5 - zeta(2) zeta(3)
    assert err(ev(Formula.ZETA311), ref) < mpf(10) ** -42
    with mp.workdps(REF_DPS):
        assert err(ev(Formula.ZETA311), mpf("0.096551159989443734466")) < mpf(10) ** -20


# ---------------------------------------------------------------------------
# FormulaId plumbing
# ---------------------------------------------------------------------------


def test_formula_id_validation():
    FormulaId(Formula.I_CLOSED, (3,))
    FormulaId(Formula.Z322, (0,))
    FormulaId(Formula.O_SUM, (3, 2))
    FormulaId(Formula.O_SUM, (7, 2))
    FormulaId(Formula.T2S1_CONJECTURE, (9,))
    FormulaId(Formula.B_SUM, (2, 3))
    FormulaId(Formula.B_SUM, (3, 3))
    with pytest.raises(ValueError):
        FormulaId(Formula.I_CLOSED, (0,))
    with pytest.raises(ValueError):
        FormulaId(Formula.T322, ())
    with pytest.raises(ValueError):
        FormulaId(Formula.Z322, (-1,))
    with pytest.raises(ValueError):
        FormulaId(Formula.O_SUM, (1, 1))
    with pytest.raises(ValueError):
        FormulaId(Formula.O_SUM, (2, 4))
    with pytest.raises(ValueError):
        FormulaId(Formula.B_SUM, (3, 5))
    with pytest.raises(ValueError):
        FormulaId(Formula.T2S1_CONJECTURE, (0,))
    with pytest.raises(ValueError):
        FormulaId(Formula.ZETA311, (1,))


def test_formula_id_stores_params_as_a_tuple():
    # a list validates like its tuple, so it must hash and compare like it
    listed = FormulaId(Formula.I_CLOSED, [3])
    assert listed.params == (3,)
    assert listed == FormulaId(Formula.I_CLOSED, (3,))
    assert evaluate(listed, 30) is evaluate(FormulaId(Formula.I_CLOSED, (3,)), 30)


def test_evaluate_dispatch_matches_direct():
    # evaluate flags the t({2}^N,1) conjecture past N = 3 alone (same value
    # and bound: test_symbolic)
    for fid in ALL_FIDS:
        got = evaluate(fid)
        assert got.rigorous
        assert got.conjectural == (fid.name is Formula.T2S1_CONJECTURE and fid.params[0] > 3), fid


def test_hoffman_kind_order():
    # one closed form for every t({2}^N,1), its id counting the leading 2s
    for n in range(1, 6):
        assert fid_for("tvalue", (2,) * n + (1,)) == FormulaId(Formula.T2S1_CONJECTURE, (n,))


# ---------------------------------------------------------------------------
# rigour of the propagated bounds
# ---------------------------------------------------------------------------


def _mp_constant(c):
    if c.kind == "pi":
        return mp.pi
    if c.kind == "log2":
        return mp.log(2)
    if c.kind == "zeta_odd":
        return mp.zeta(c.arg)
    if c.kind == "beta_even":
        return mp.dirichlet(c.arg, [0, 1, 0, -1])
    return mp.psi(3, mpf(1) / 4)


@pytest.mark.parametrize("prec", [30, 50])
def test_closed_values_within_bound_of_mpmath(prec):
    # the reference evaluates the same exact expression over mpmath's own
    # constants, 20 digits beyond the working precision
    for fid in ALL_FIDS:
        r = evaluate(fid, prec)
        with mp.workdps(prec + GUARD_DIGITS + 20):
            ref = mpf(0)
            for mono, c in build(fid).terms:
                term = mpf(c.numerator) / c.denominator
                for const, e in mono:
                    term *= _mp_constant(const) ** e
                ref += term
            assert abs(r.value.magnitude - ref) <= r.error_bound.magnitude, (fid, prec)


@pytest.mark.parametrize("digits", [16, 50, 200, 1000])
def test_pi_log2_radius(digits):
    wd = digits + GUARD_DIGITS
    for r, exact in ((pi_const(digits), lambda: mp.pi), (log2_const(digits), lambda: mp.log(2))):
        x = r.value.magnitude
        with mp.workdps(wd):
            # the radius is |x| 10^-wd (stored at double precision)
            ratio = r.error_bound.magnitude / (abs(x) * mpf(10) ** (-wd))
            assert abs(ratio - 1) < mpf(10) ** -14
        with mp.workdps(wd + 20):
            err = abs(x - exact())
            assert err <= r.error_bound.magnitude
            # correct rounding keeps a tenfold margin inside the radius
            assert err <= abs(x) * mpf("0.1") * mpf(10) ** (-wd)


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fid", [FormulaId(Formula.I_CLOSED, (5,)), fid_for("tvalue", (3, 2, 2))])
def test_a_closed_form_is_memoised_whatever_the_callers_digits(fid):
    results = []
    for dps in (8, 30, 300):
        evaluate.cache_clear()
        with mp.workdps(dps):
            results.append(evaluate(fid, 40))
    first = results[0]
    for r in results[1:]:
        assert r == first
        assert r.value.magnitude == first.value.magnitude
        assert r.error_bound.magnitude == first.error_bound.magnitude
    with mp.workdps(12):
        assert evaluate(fid, 40) is results[-1]  # a repeat is a memo hit
    assert evaluate(fid, 41) is not results[-1]
