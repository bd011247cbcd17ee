"""Closed-form layer: exact-combination oracles and frozen decimals.

References are built from exact rationals times pi powers / odd zeta values /
Catalan inside an elevated-precision block, never parsed from short decimal
strings at ambient precision.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from multizeta.closed import evaluate
from multizeta.hp import GUARD_DIGITS, log2_const, pi_const
from multizeta.quadrature import I_quad
from multizeta.routes import fid_for
from multizeta.series import nested_value
from multizeta.symbolic import (
    O_TABLE_PRIMARY,
    Formula,
    FormulaId,
    build,
    t_single_expr,
)

from test_symbolic import ALL_FIDS

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


def test_closed_form_with_no_digit_keeps_its_wide_bound():
    # I(200) at 16 digits cancels past every working digit: more digits are
    # not spent on it, and its bound stays wider than its value, and honest
    r = ev(Formula.I_CLOSED, 200, prec=16)
    assert r.value.working_precision == 16
    assert r.error_bound.magnitude >= abs(r.value.magnitude)
    assert r.agrees_with(I_quad(200, 16))


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
# odd Euler sums: diagonals, table, reflections
# ---------------------------------------------------------------------------


def test_o_diag_weight_four():
    assert err(ev(Formula.O_DIAG, 2), combo([("5/384", 4, 0)])) < mpf(10) ** -42


def test_o_diag_general():
    with mp.workdps(REF_DPS):
        for q in (2, 3, 4, 6):
            ref = ((1 - mpf(2) ** (-2 * q)) * mp.zeta(2 * q)
                   + ((1 - mpf(2) ** -q) * mp.zeta(q)) ** 2) / 2
            assert err(ev(Formula.O_DIAG, q), ref) < mpf(10) ** -42


def test_b_diag_closed_forms():
    # B(2,2) = 15/512 pi^4/... use the formula directly; B(3,3) = 31 pi^6/30720
    with mp.workdps(REF_DPS):
        ref22 = ((1 - mpf(2) ** -4) * mp.zeta(4) + mp.catalan ** 2) / 2
        assert err(ev(Formula.B_DIAG, 2), ref22) < mpf(10) ** -42
    assert err(ev(Formula.B_DIAG, 3), combo([("31/30720", 6, 0)])) < mpf(10) ** -42


def test_diag_validation():
    for bad in (1, 0, -2):
        with pytest.raises(ValueError):
            ev(Formula.O_DIAG, bad)
        with pytest.raises(ValueError):
            ev(Formula.B_DIAG, bad)


O_TABLE_COMBOS = {
    (2, 3): [("31/64", 0, 5), ("3/64", 2, 3)],
    (3, 4): [("1/128", 4, 3), ("-5/128", 2, 5), ("127/256", 0, 7)],
    (4, 5): [("5/3072", 4, 5), ("105/3072", 2, 7), ("511/1024", 0, 9)],
    (5, 6): [("1/1024", 6, 5), ("-7/4096", 4, 7), ("-63/2048", 2, 9), ("2047/4096", 0, 11)],
    (6, 7): [("7/122880", 6, 7), ("7/4096", 4, 9), ("231/8192", 2, 11), ("8191/16384", 0, 13)],
}

# frozen decimals for the derived (reflected) entries
O_REFLECTED_REFERENCE = {
    (3, 2): "1.2437510127590558524",
    (4, 3): "1.0524665977391639948",
    (5, 4): "1.0147392317031662106",
    (6, 5): "1.0045299951930443685",
    (7, 6): "1.0014477392916257999",
}


def test_o_table_primary_entries():
    for pq, terms in O_TABLE_COMBOS.items():
        assert err(ev(Formula.O_TABLE, *pq), combo(terms)) < mpf(10) ** -42


def test_o_table_reflected_entries():
    with mp.workdps(REF_DPS):
        for pq, ref in O_REFLECTED_REFERENCE.items():
            assert err(ev(Formula.O_TABLE, *pq), mpf(ref)) < mpf(10) ** -19


def test_o_table_reflected_is_reflection():
    # O(p,q) + O(q,p) = O(p) O(q) + O(p+q), exactly over Q, for every pair
    for p, q in O_TABLE_PRIMARY:
        lhs = build(FormulaId(Formula.O_TABLE, (p, q))) + build(FormulaId(Formula.O_TABLE, (q, p)))
        assert lhs == t_single_expr(p) * t_single_expr(q) + t_single_expr(p + q), (p, q)


def test_o_table_reflection_consistency_43():
    # O(3,4) + O(4,3) = O(3) O(4) + O(7): the derived (4,3) entry carries the
    # pi^4/768 zeta(3) head coefficient
    ref = combo([("1/768", 4, 3), ("5/128", 2, 5), ("127/256", 0, 7)])
    assert err(ev(Formula.O_TABLE, 4, 3), ref) < mpf(10) ** -42


def test_o_table_domain():
    for bad in ((2, 2), (3, 3), (2, 4), (7, 2), (3, 7)):
        with pytest.raises(ValueError):
            ev(Formula.O_TABLE, *bad)


def test_reflect_validation():
    # the reflected ids exist only for the tabulated pairs
    for name, bad in ((Formula.O_TABLE, (1, 3)), (Formula.O_TABLE, (3, 1)),
                      (Formula.O_TABLE, (4, 2)), (Formula.O_TABLE, (2, 3, 4)),
                      (Formula.B_REFLECT, (2, 1)), (Formula.B_REFLECT, (3, 2)),
                      (Formula.B_REFLECT, ())):
        with pytest.raises(ValueError):
            FormulaId(name, bad)


def test_b23_closed_value():
    ref = combo([("31/64", 0, 5), ("-9/256", 2, 3), ("1/32", 3, -2)])
    assert err(ev(Formula.B23), ref) < mpf(10) ** -42
    with mp.workdps(REF_DPS):
        assert err(ev(Formula.B23), mpf("0.97269557759092374248")) < mpf(10) ** -20


def test_b_reflect_23():
    # B(3,2) = beta(2) beta(3) + O(5) - B(2,3)
    with mp.workdps(REF_DPS):
        b23 = combo([("31/64", 0, 5), ("-9/256", 2, 3), ("1/32", 3, -2)])
        ref = mp.catalan * (mp.pi ** 3 / 32) + (1 - mpf(2) ** -5) * mp.zeta(5) - b23
    got = ev(Formula.B_REFLECT, 2, 3, prec=60)
    assert err(got, ref) <= got.error_bound.magnitude
    assert got.error_bound.magnitude < mpf(10) ** -60


# ---------------------------------------------------------------------------
# Hoffman relations and the t({2}^N,1) conjecture
# ---------------------------------------------------------------------------


def test_hoffman_t21():
    # t(2,1) = t(2) log2 - t(3)/2
    with mp.workdps(REF_DPS):
        ref = (mp.pi ** 2 / 8) * mp.log(2) - (mpf(7) / 8) * mp.zeta(3) / 2
        assert err(ev(Formula.HOFFMAN_T, 1), ref) < mpf(10) ** -42


def test_hoffman_matches_arcsin_integrals():
    # the proven relations equal I(2N)/(2N)! for N = 1..3; this pins the 3/14
    # coefficient in the depth-3 relation (1/14 misses by ~8e-5)
    for N in (1, 2, 3):
        h = ev(Formula.HOFFMAN_T, N, prec=60)
        c = ev(Formula.T2S1_CONJECTURE, N, prec=60)
        assert abs(h.value.magnitude - c.value.magnitude) < mpf(10) ** -55


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
    r = ev(Formula.T2S1_CONJECTURE, 4)
    assert r.conjectural
    assert ev(Formula.HOFFMAN_T, 2).conjectural is False
    with mp.workdps(REF_DPS):
        assert err(r, mpf("0.000026270373106379367743")) < mpf(10) ** -20


def test_hoffman_validation():
    with pytest.raises(ValueError):
        FormulaId(Formula.HOFFMAN_T, (4,))
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
    FormulaId(Formula.O_TABLE, (3, 2))
    FormulaId(Formula.HOFFMAN_T, (2,))
    FormulaId(Formula.B23)
    with pytest.raises(ValueError):
        FormulaId(Formula.I_CLOSED, (0,))
    with pytest.raises(ValueError):
        FormulaId(Formula.T322, ())
    with pytest.raises(ValueError):
        FormulaId(Formula.Z322, (-1,))
    with pytest.raises(ValueError):
        FormulaId(Formula.O_DIAG, (1,))
    with pytest.raises(ValueError):
        FormulaId(Formula.O_TABLE, (2, 4))
    with pytest.raises(ValueError):
        FormulaId(Formula.B_REFLECT, (3, 4))
    with pytest.raises(ValueError):
        FormulaId(Formula.HOFFMAN_T, (4,))
    with pytest.raises(ValueError):
        FormulaId(Formula.ZETA311, (1,))


def test_evaluate_dispatch_matches_direct():
    # evaluate flags the t({2}^N,1) conjecture alone (same value and bound:
    # test_symbolic)
    for fid in ALL_FIDS:
        got = evaluate(fid)
        assert got.rigorous
        assert got.conjectural == (fid.name is Formula.T2S1_CONJECTURE), fid


def test_hoffman_kind_order():
    # the Hoffman id counts the leading 2s; past three the conjecture takes over
    for n in (1, 2, 3):
        assert fid_for("tvalue", (2,) * n + (1,)) == FormulaId(Formula.HOFFMAN_T, (n,))
    assert fid_for("tvalue", (2,) * 4 + (1,)) == FormulaId(Formula.T2S1_CONJECTURE, (4,))


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
