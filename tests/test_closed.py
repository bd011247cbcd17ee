"""Closed-form layer: exact-combination oracles and frozen decimals.

References are built from exact rationals times pi powers / odd zeta values /
Catalan inside an elevated-precision block, never parsed from short decimal
strings at ambient precision.
"""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from multizeta.closed import (
    Formula,
    FormulaId,
    HOFFMAN_KINDS,
    O_TABLE_PRIMARY,
    b23_closed,
    b_diag,
    b_reflect,
    evaluate,
    hoffman_t,
    i_closed,
    mu_closed,
    o_diag,
    o_reflect,
    o_table,
    t2s1_conjecture,
    t_closed,
    z_closed,
    zeta311,
)
from multizeta.hp import GUARD_DIGITS, log2_const, pi_const
from multizeta.symbolic import build

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


def err(result, reference):
    with mp.workdps(REF_DPS):
        return abs(result.value.magnitude - reference)


# ---------------------------------------------------------------------------
# I(N)
# ---------------------------------------------------------------------------


def test_i_closed_small_odd():
    # I(1) = (pi/2) log 2,  I(3) = pi^3/8 log2 - (9 pi/16) zeta(3)
    assert err(i_closed(1), combo([("1/2", 1, 1)])) < mpf(10) ** -45
    assert err(i_closed(3), combo([("1/8", 3, 1), ("-9/16", 1, 3)])) < mpf(10) ** -45


def test_i_closed_small_even():
    # I(2) = pi^2/4 log2 - 7/8 zeta(3),  I(4) = pi^4/16 log2 - 9pi^2/16 z3 + 93/32 z5
    assert err(i_closed(2), combo([("1/4", 2, 1), ("-7/8", 0, 3)])) < mpf(10) ** -45
    assert (
        err(i_closed(4), combo([("1/16", 4, 1), ("-9/16", 2, 3), ("93/32", 0, 5)]))
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
    assert err(i_closed(8), ref) < mpf(10) ** -42


def test_i_closed_within_own_bound():
    with mp.workdps(REF_DPS):
        # independent route: mpmath quadrature of arcsin^N(z)/z
        for N in (1, 2, 3, 5):
            r = i_closed(N, 40)
            oracle = mp.quad(lambda z: mp.asin(z) ** N / z, [0, 1])
            assert abs(r.value.magnitude - oracle) < mpf(10) ** -40
            assert r.error_bound.magnitude < mpf(10) ** -45


def test_i_closed_validation():
    with pytest.raises(ValueError):
        i_closed(0)
    with pytest.raises(ValueError):
        i_closed(-3)


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
            assert err(t_closed(N), mpf(ref)) < mpf(10) ** -21


def test_z_closed_frozen_decimals():
    with mp.workdps(REF_DPS):
        for N, ref in Z_REFERENCE.items():
            assert err(z_closed(N), mpf(ref)) < mpf(10) ** -19


def test_t_closed_exact_combinations():
    # t(3,2) and t(3,2,2) in the pi/zeta basis
    assert (
        err(t_closed(2), combo([("1/1024", 4, 3), ("-15/512", 2, 5), ("381/2048", 0, 7)]))
        < mpf(10) ** -42
    )
    ref3 = combo(
        [("1/122880", 6, 3), ("-5/8192", 4, 5), ("189/16384", 2, 7), ("-511/8192", 0, 9)]
    )
    assert err(t_closed(3), ref3) < mpf(10) ** -42


def test_z_closed_exact_combinations():
    assert err(z_closed(0), combo([(1, 0, 3)])) < mpf(10) ** -45
    assert err(z_closed(1), combo([("1/2", 2, 3), ("-11/2", 0, 5)])) < mpf(10) ** -42
    ref3 = combo(
        [("1/1680", 6, 3), ("-1/16", 4, 5), ("63/32", 2, 7), ("-223/16", 0, 9)]
    )
    assert err(z_closed(3), ref3) < mpf(10) ** -41


def test_dual_route_assertion_runs_clean():
    # both constructors go through build(), which raises unless the
    # summation and integral-combination forms are equal over Q; exercising
    # N = 1..5 at two precisions covers that path and the bound size
    for N in range(1, 6):
        for prec in (30, 60):
            t = t_closed(N, prec)
            z = z_closed(N, prec)
            assert t.rigorous and z.rigorous
            assert t.error_bound.magnitude < mpf(10) ** -(prec + 3)
            assert z.error_bound.magnitude < mpf(10) ** -(prec + 3)


def test_t_z_validation():
    with pytest.raises(ValueError):
        t_closed(0)
    with pytest.raises(ValueError):
        z_closed(-1)


# ---------------------------------------------------------------------------
# mu(2,{1}^(N-1))
# ---------------------------------------------------------------------------

def test_mu_closed_examples():
    assert err(mu_closed(1), combo([("1/8", 2, 0)])) < mpf(10) ** -45
    assert err(mu_closed(2), combo([("7/16", 0, 3)])) < mpf(10) ** -45
    assert err(mu_closed(3), combo([("1/384", 4, 0)])) < mpf(10) ** -45


def test_mu_closed_general_formula():
    with mp.workdps(REF_DPS):
        for N in range(1, 9):
            ref = (mpf(2) ** (N + 1) - 1) * mp.zeta(N + 1) / mpf(2) ** (2 * N)
            assert err(mu_closed(N), ref) < mpf(10) ** -45


def test_mu_closed_validation():
    with pytest.raises(ValueError):
        mu_closed(0)


# ---------------------------------------------------------------------------
# odd Euler sums: diagonals, table, reflections
# ---------------------------------------------------------------------------


def test_o_diag_weight_four():
    assert err(o_diag(2), combo([("5/384", 4, 0)])) < mpf(10) ** -42


def test_o_diag_general():
    with mp.workdps(REF_DPS):
        for q in (2, 3, 4, 6):
            ref = ((1 - mpf(2) ** (-2 * q)) * mp.zeta(2 * q)
                   + ((1 - mpf(2) ** -q) * mp.zeta(q)) ** 2) / 2
            assert err(o_diag(q), ref) < mpf(10) ** -42


def test_b_diag_closed_forms():
    # B(2,2) = 15/512 pi^4/... use the formula directly; B(3,3) = 31 pi^6/30720
    with mp.workdps(REF_DPS):
        ref22 = ((1 - mpf(2) ** -4) * mp.zeta(4) + mp.catalan ** 2) / 2
        assert err(b_diag(2), ref22) < mpf(10) ** -42
    assert err(b_diag(3), combo([("31/30720", 6, 0)])) < mpf(10) ** -42


def test_diag_validation():
    for bad in (1, 0, -2):
        with pytest.raises(ValueError):
            o_diag(bad)
        with pytest.raises(ValueError):
            b_diag(bad)


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
        assert err(o_table(*pq), combo(terms)) < mpf(10) ** -42


def test_o_table_reflected_entries():
    with mp.workdps(REF_DPS):
        for pq, ref in O_REFLECTED_REFERENCE.items():
            assert err(o_table(*pq), mpf(ref)) < mpf(10) ** -19


def test_o_table_reflected_is_reflection():
    # the reversed entries are defined through the reflection, so the
    # round trip must be exact at the arithmetic level
    for (p, q) in O_TABLE_PRIMARY:
        direct = o_table(q, p)
        via = o_reflect(p, q, o_table(p, q))
        assert direct.value.magnitude == via.value.magnitude


def test_o_table_reflection_consistency_43():
    # O(3,4) + O(4,3) = O(3) O(4) + O(7): the derived (4,3) entry carries the
    # pi^4/768 zeta(3) head coefficient
    ref = combo([("1/768", 4, 3), ("5/128", 2, 5), ("127/256", 0, 7)])
    assert err(o_table(4, 3), ref) < mpf(10) ** -42


def test_o_table_domain():
    for bad in ((2, 2), (3, 3), (2, 4), (7, 2), (3, 7)):
        with pytest.raises(ValueError):
            o_table(*bad)


def test_o_reflect_involution():
    base = o_table(2, 3)
    once = o_reflect(2, 3, base)
    back = o_reflect(3, 2, once)
    assert abs(back.value.magnitude - base.value.magnitude) < mpf(10) ** -45


def test_reflect_validation():
    base = o_table(2, 3)
    with pytest.raises(ValueError):
        o_reflect(1, 3, base)
    with pytest.raises(ValueError):
        b_reflect(2, 1, base)


def test_b23_closed_value():
    ref = combo([("31/64", 0, 5), ("-9/256", 2, 3), ("1/32", 3, -2)])
    assert err(b23_closed(), ref) < mpf(10) ** -42
    with mp.workdps(REF_DPS):
        assert err(b23_closed(), mpf("0.97269557759092374248")) < mpf(10) ** -20


def test_b_reflect_23():
    # B(3,2) = beta(2) beta(3) + O(5) - B(2,3)
    with mp.workdps(REF_DPS):
        ref = (mp.catalan * (mp.pi ** 3 / 32)
               + (1 - mpf(2) ** -5) * mp.zeta(5)
               - b23_closed(60).value.magnitude)
        got = b_reflect(2, 3, b23_closed(60), 60)
        assert abs(got.value.magnitude - ref) < mpf(10) ** -45


# ---------------------------------------------------------------------------
# Hoffman relations and the t({2}^N,1) conjecture
# ---------------------------------------------------------------------------


def test_hoffman_t21():
    # t(2,1) = t(2) log2 - t(3)/2
    with mp.workdps(REF_DPS):
        ref = (mp.pi ** 2 / 8) * mp.log(2) - (mpf(7) / 8) * mp.zeta(3) / 2
        assert err(hoffman_t("t21"), ref) < mpf(10) ** -42


def test_hoffman_matches_arcsin_integrals():
    # the proven relations equal I(2N)/(2N)! for N = 1..3; this pins the 3/14
    # coefficient in the depth-3 relation (1/14 misses by ~8e-5)
    for N, kind in ((1, "t21"), (2, "t221"), (3, "t2221")):
        h = hoffman_t(kind, 60)
        c = t2s1_conjecture(N, 60)
        assert abs(h.value.magnitude - c.value.magnitude) < mpf(10) ** -55


def test_hoffman_t221_wrong_coefficient_is_far():
    with mp.workdps(REF_DPS):
        t2 = (mp.pi ** 2) / 8
        t3 = (mpf(7) / 8) * mp.zeta(3)
        t4 = (mpf(15) / 16) * mp.zeta(4)
        t5 = (mpf(31) / 32) * mp.zeta(5)
        wrong = t5 / 8 - t2 * t3 / 14 + t4 * mp.log(2) / 4
        good = t5 / 8 - 3 * t2 * t3 / 14 + t4 * mp.log(2) / 4
        target = t2s1_conjecture(2, 60).value.magnitude
        assert abs(good - target) < mpf(10) ** -55
        assert abs(wrong - target) > mpf(10) ** -5


def test_t2s1_flags_and_values():
    r = t2s1_conjecture(4)
    assert r.conjectural
    assert hoffman_t("t221").conjectural is False
    with mp.workdps(REF_DPS):
        assert err(r, mpf("0.000026270373106379367743")) < mpf(10) ** -20


def test_hoffman_validation():
    with pytest.raises(ValueError):
        hoffman_t("t22221")
    with pytest.raises(ValueError):
        t2s1_conjecture(0)


def test_zeta311_value():
    ref = combo([(2, 0, 5), ("-1/6", 2, 3)])  # 2 z5 - zeta(2) zeta(3)
    assert err(zeta311(), ref) < mpf(10) ** -42
    with mp.workdps(REF_DPS):
        assert err(zeta311(), mpf("0.096551159989443734466")) < mpf(10) ** -20


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
    pairs = [
        (FormulaId(Formula.I_CLOSED, (4,)), i_closed(4)),
        (FormulaId(Formula.T322, (2,)), t_closed(2)),
        (FormulaId(Formula.Z322, (1,)), z_closed(1)),
        (FormulaId(Formula.E211, (3,)), mu_closed(3)),
        (FormulaId(Formula.O_DIAG, (2,)), o_diag(2)),
        (FormulaId(Formula.B_DIAG, (3,)), b_diag(3)),
        (FormulaId(Formula.O_TABLE, (4, 3)), o_table(4, 3)),
        (FormulaId(Formula.B23, ()), b23_closed()),
        (FormulaId(Formula.T2S1_CONJECTURE, (2,)), t2s1_conjecture(2)),
        (FormulaId(Formula.HOFFMAN_T, (2,)), hoffman_t("t221")),
        (FormulaId(Formula.ZETA311, ()), zeta311()),
    ]
    for fid, direct in pairs:
        got = evaluate(fid)
        assert got.value.magnitude == direct.value.magnitude
        assert got.conjectural == direct.conjectural
    refl = evaluate(FormulaId(Formula.O_REFLECT, (2, 3)))
    assert refl.value.magnitude == o_table(3, 2).value.magnitude
    brefl = evaluate(FormulaId(Formula.B_REFLECT, (2, 3)))
    assert brefl.value.magnitude == b_reflect(2, 3, b23_closed()).value.magnitude


def test_hoffman_kind_order():
    assert HOFFMAN_KINDS == ("t21", "t221", "t2221")


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
