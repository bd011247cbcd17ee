"""Symbolic layer: exact structure of the closed forms.

Everything here is exact rational arithmetic, so most assertions are
structural equalities; the numeric cross-checks at the end tie the symbolic
expressions back to the closed-form evaluations within rigorous bounds.
"""

import hashlib
import json
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from multizeta import symbolic
from multizeta.closed import evaluate
from multizeta.hp import beta_fn
from multizeta.symbolic import (
    Formula,
    FormulaId,
    _FORMS,
    _assert_same_form,
    _build_odd,
    _eta_sum,
    _t322_integral,
    _t322_summation,
    _z322_integral,
    _z322_summation,
    LOG2,
    PI,
    BasisConstant,
    SymbolicExpr,
    beta_even,
    beta_odd_rational,
    build,
    canonical_text,
    eval_symbolic,
    json_terms,
    pi_zeta_expr,
    t_single_expr,
    weight_check,
    zeta_even_rational,
    zeta_odd,
)

from oracles import (
    hoffman_expr,
    ring_add,
    ring_divide_by_pi,
    ring_from_dict,
    ring_monomial,
    ring_mul,
    ring_scale,
)


# ---------------------------------------------------------------------------
# basis constants
# ---------------------------------------------------------------------------


def test_basis_weights():
    assert PI.weight == 1
    assert LOG2.weight == 1
    assert zeta_odd(7).weight == 7
    assert beta_even(4).weight == 4


def test_basis_validation():
    with pytest.raises(ValueError):
        BasisConstant("gamma")
    with pytest.raises(ValueError):
        zeta_odd(4)
    with pytest.raises(ValueError):
        zeta_odd(1)
    with pytest.raises(ValueError):
        beta_even(3)
    with pytest.raises(ValueError):
        BasisConstant("pi", 2)
    with pytest.raises(ValueError, match="kind must be one of"):
        BasisConstant("psi3_quarter")  # 8 pi^4 + 768 beta(4): not independent
    with pytest.raises(ValueError, match="zeta_odd takes odd arg >= 3, got 4"):
        zeta_odd(4)


def test_the_build_memos_are_bounded_and_shared():
    # each memo holds a bounded number of expressions, and a repeat returns
    # the expression built before: T322, Z322, T2S1 and I_CLOSED share I(N)
    for memo in (symbolic.build, symbolic._build_i):
        assert memo.cache_info().maxsize == 256
    fid = FormulaId(Formula.T322, (2,))
    assert build(fid) is build(FormulaId(Formula.T322, [2]))
    assert build(FormulaId(Formula.I_CLOSED, (6,))) is symbolic._build_i(6)
    symbolic._build_i.cache_clear()
    build.cache_clear()
    for name in (Formula.T322, Formula.Z322, Formula.T2S1_CONJECTURE):
        build(FormulaId(name, (2,)))
    # I(5), I(6) for T322(2); I(6), I(7) for Z322(2); I(4) for t({2}^2,1)
    assert symbolic._build_i.cache_info().misses == 4


def test_one_table_row_per_formula():
    assert set(_FORMS) == set(Formula)
    with pytest.raises(ValueError, match=r"Z322 takes one parameter N >= 0, got \(-1,\)"):
        FormulaId(Formula.Z322, [-1])
    with pytest.raises(ValueError, match=r"OSum takes two parameters p, q >= 2 with p = q or p \+ q odd, got \(2, 4\)"):
        FormulaId(Formula.O_SUM, (2, 4))


def test_even_zeta_rationals():
    assert zeta_even_rational(2) == Fraction(1, 6)
    assert zeta_even_rational(4) == Fraction(1, 90)
    assert zeta_even_rational(6) == Fraction(1, 945)
    assert zeta_even_rational(8) == Fraction(1, 9450)
    with pytest.raises(ValueError):
        zeta_even_rational(3)


def test_odd_beta_rationals():
    assert beta_odd_rational(1) == Fraction(1, 4)
    assert beta_odd_rational(3) == Fraction(1, 32)
    assert beta_odd_rational(5) == Fraction(5, 1536)
    with pytest.raises(ValueError):
        beta_odd_rational(2)


def test_t_single_expr():
    # t(2) = pi^2/8, t(3) = 7/8 zeta3
    assert t_single_expr(2) == SymbolicExpr.atom(PI, 2, Fraction(1, 8))
    assert t_single_expr(3) == SymbolicExpr.atom(zeta_odd(3), coeff=Fraction(7, 8))
    with pytest.raises(ValueError):
        t_single_expr(1)


# ---------------------------------------------------------------------------
# normalization and ring laws
# ---------------------------------------------------------------------------


def test_normalized_construction_rejects_garbage():
    mono = ((zeta_odd(3), 1),)
    with pytest.raises(ValueError):
        SymbolicExpr(((mono, Fraction(0)),))
    with pytest.raises(ValueError):
        SymbolicExpr(((mono, Fraction(1)), (mono, Fraction(2))))


@pytest.mark.parametrize("make, arg", [
    (zeta_odd, 5.0), (zeta_odd, "5"), (zeta_odd, None), (beta_even, 4.0), (beta_even, "4"),
    (partial(BasisConstant, "pi"), 0.0), (partial(BasisConstant, "log2"), None),
], ids=["zeta-5.0", "zeta-str", "zeta-None", "beta-4.0", "beta-str", "pi-0.0", "log2-None"])
def test_a_constant_refuses_an_argument_that_is_not_an_int(make, arg):
    # zeta_odd(5.0) once compared equal to zeta_odd(5) but printed zeta5.0
    with pytest.raises(ValueError, match=f"takes .*, got {arg!r}"):
        make(arg)


@pytest.mark.parametrize("exp", [2.5, 2.0, "2", None], ids=repr)
def test_a_monomial_refuses_an_exponent_that_is_not_an_int(exp):
    with pytest.raises(ValueError, match=f"the exponent of pi >= 0 required, got {exp!r}"):
        SymbolicExpr.atom(PI, exp)
    with pytest.raises(ValueError, match="the exponent of zeta3 >= 0 required"):
        SymbolicExpr.atom(zeta_odd(3), exp)
    with pytest.raises(ValueError, match="the exponent of pi >= 0 required"):
        pi_zeta_expr([("1/2", exp, 3)])


def test_pi_zeta_expr_refuses_a_zeta_argument_that_is_not_an_int():
    with pytest.raises(ValueError, match="zeta_odd takes odd arg >= 3, got 3.0"):
        pi_zeta_expr([("1/2", 2, 3.0)])
    with pytest.raises(ValueError, match="m >= 2 required, got 2.0"):
        pi_zeta_expr([("1/2", 2, 2.0)])


def test_a_negative_exponent_is_refused():
    with pytest.raises(ValueError, match="the exponent of log2 >= 0 required, got -1"):
        SymbolicExpr.atom(LOG2, -1)


def test_basis_constants_order_by_kind_row_then_argument():
    ordered = [PI, LOG2, zeta_odd(3), zeta_odd(5), zeta_odd(11), beta_even(2), beta_even(4)]
    assert sorted(reversed(ordered)) == ordered
    assert list(symbolic._KINDS) == [c.kind for c in (PI, LOG2, zeta_odd(3), beta_even(2))]


FACTORS = st.sampled_from([PI, LOG2, zeta_odd(3), zeta_odd(5), zeta_odd(7), beta_even(2), beta_even(4)])
MONOMIALS = st.lists(st.tuples(FACTORS, st.integers(0, 3)), max_size=3).map(ring_monomial)
COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=12)
EXPRS = st.dictionaries(MONOMIALS, COEFFS, max_size=7).map(lambda d: SymbolicExpr(ring_from_dict(d)))


@settings(max_examples=300, deadline=None)
@given(a=EXPRS, b=EXPRS, c=EXPRS, q=COEFFS, cancel=st.sampled_from([None, "all", "part"]))
def test_the_ring_operations_are_their_oracles(a, b, c, q, cancel):
    # the one-merge operations give the terms the dict-and-sort ones gave,
    # order included, also where a sum cancels wholly or in part
    if cancel:
        b = SymbolicExpr(ring_add(ring_scale(a.terms, -1), b.terms if cancel == "part" else ()))
    assert (a + b).terms == ring_add(a.terms, b.terms)
    assert (a - b).terms == ring_add(a.terms, ring_scale(b.terms, -1))
    assert a.scale(q).terms == ring_scale(a.terms, q)
    assert (a * b).terms == ring_mul(a.terms, b.terms)
    assert SymbolicExpr.total([a, b, c]).terms == ring_add(ring_add(a.terms, b.terms), c.terms)
    assert SymbolicExpr.total(e for e in (a, b)).terms == ring_add(a.terms, b.terms)
    pa = SymbolicExpr.atom(PI, 1, q) * a
    assert pa.divide_by_pi().terms == ring_divide_by_pi(pa.terms)
    if any(all(f != PI for f, _ in mono) for mono, _ in a.terms):
        with pytest.raises(ValueError, match="no pi factor"):
            a.divide_by_pi()
    else:
        assert a.divide_by_pi().terms == ring_divide_by_pi(a.terms)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FACTORS, st.integers(0, 3))), COEFFS)
def test_an_atom_is_its_oracle(pairs, q):
    const, exp = pairs[0] if pairs else (PI, 0)
    assert SymbolicExpr.atom(const, exp, q).terms == ring_from_dict({ring_monomial([(const, exp)]): q})


@settings(max_examples=100, deadline=None)
@given(EXPRS.flatmap(lambda e: st.tuples(st.just(e), st.permutations(e.terms))))
def test_any_order_of_valid_terms_builds_the_same_expression(case):
    expr, terms = case
    assert SymbolicExpr(tuple(terms)).terms == expr.terms
    assert SymbolicExpr(list(terms)) == expr


def test_the_constructor_puts_a_large_form_in_canonical_order():
    e = build(FormulaId(Formula.T322, (8,)))
    assert SymbolicExpr(e.terms[::-1]) == e
    assert e.terms == ring_from_dict(dict(e.terms))


def test_add_cancels_exactly():
    e = build(FormulaId(Formula.T322, (2,)))
    assert (e + e.scale(-1)).is_zero
    assert (e - e).is_zero


def test_scale_and_add_normalize():
    a = SymbolicExpr.atom(zeta_odd(5), coeff=Fraction(1, 3))
    b = SymbolicExpr.atom(zeta_odd(5), coeff=Fraction(2, 3))
    assert a + b == SymbolicExpr.atom(zeta_odd(5))
    assert a.scale(0).is_zero


def test_multiply_merges_monomials():
    # (pi + zeta3)^2 = pi^2 + 2 pi zeta3 + zeta3^2
    e = SymbolicExpr.atom(PI) + SymbolicExpr.atom(zeta_odd(3))
    sq = e * e
    assert sq.coefficient_of((PI, 2)) == 1
    assert sq.coefficient_of((PI, 1), (zeta_odd(3), 1)) == 2
    assert sq.coefficient_of((zeta_odd(3), 2)) == 1
    assert len(sq.terms) == 3


simple_atoms = st.sampled_from(
    [PI, LOG2, zeta_odd(3), zeta_odd(5), beta_even(2)]
)
small_exprs = st.lists(
    st.tuples(simple_atoms, st.integers(1, 2), st.fractions(min_value=-3, max_value=3)),
    min_size=0,
    max_size=4,
).map(
    lambda items: sum(
        (SymbolicExpr.atom(c, e, q) for c, e, q in items if q != 0),
        SymbolicExpr.zero(),
    )
)


@settings(max_examples=60, deadline=None)
@given(small_exprs, small_exprs, small_exprs)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([PI, LOG2, zeta_odd(3), zeta_odd(5), beta_even(2), beta_even(4)]),
    st.sampled_from([PI, LOG2, zeta_odd(3), beta_even(4)]),
    st.integers(1, 3),
    st.integers(1, 2),
)
def test_multiply_adds_weights(c1, c2, e1, e2):
    a = SymbolicExpr.atom(c1, e1)
    b = SymbolicExpr.atom(c2, e2)
    assert weight_check(a * b, c1.weight * e1 + c2.weight * e2)


def test_divide_by_pi():
    e = SymbolicExpr.atom(PI, 3, Fraction(1, 8)) + SymbolicExpr.atom(PI) * SymbolicExpr.atom(zeta_odd(3))
    d = e.divide_by_pi()
    assert d == SymbolicExpr.atom(PI, 2, Fraction(1, 8)) + SymbolicExpr.atom(zeta_odd(3))
    assert (e * SymbolicExpr.atom(PI)).divide_by_pi() == e
    with pytest.raises(ValueError):
        SymbolicExpr.atom(zeta_odd(5)).divide_by_pi()


# ---------------------------------------------------------------------------
# builds: exact structure
# ---------------------------------------------------------------------------


def test_build_z322_weight_five():
    e = build(FormulaId(Formula.Z322, (1,)))
    assert e.coefficient_of((PI, 2), (zeta_odd(3), 1)) == Fraction(1, 2)
    assert e.coefficient_of((zeta_odd(5), 1)) == Fraction(-11, 2)
    assert len(e.terms) == 2
    assert canonical_text(e) == "1/2*pi^2*zeta3 - 11/2*zeta5"


def test_build_t322_weight_seven():
    e = build(FormulaId(Formula.T322, (2,)))
    assert canonical_text(e) == "1/1024*pi^4*zeta3 - 15/512*pi^2*zeta5 + 381/2048*zeta7"


def test_build_mu_pi_powers():
    e = build(FormulaId(Formula.E211, (3,)))
    assert e == SymbolicExpr.atom(PI, 4, Fraction(1, 384))
    assert canonical_text(e) == "1/384*pi^4"
    # odd N+1 stays a zeta monomial
    e2 = build(FormulaId(Formula.E211, (2,)))
    assert e2 == SymbolicExpr.atom(zeta_odd(3), coeff=Fraction(7, 16))


def test_build_arcsin_integrals():
    assert canonical_text(build(FormulaId(Formula.I_CLOSED, (3,)))) == "1/8*pi^3*log2 - 9/16*pi*zeta3"
    e4 = build(FormulaId(Formula.I_CLOSED, (4,)))
    assert e4.coefficient_of((PI, 4), (LOG2, 1)) == Fraction(1, 16)
    assert e4.coefficient_of((PI, 2), (zeta_odd(3), 1)) == Fraction(-9, 16)
    assert e4.coefficient_of((zeta_odd(5), 1)) == Fraction(93, 32)


def beta_expr(m):
    """beta(m) in the basis: a pi power for odd m, opaque for even."""
    return SymbolicExpr.atom(PI, m, beta_odd_rational(m)) if m % 2 else SymbolicExpr.atom(beta_even(m))


def test_build_diagonals():
    assert build(FormulaId(Formula.O_SUM, (2, 2))) == SymbolicExpr.atom(PI, 4, Fraction(5, 384))
    assert build(FormulaId(Formula.B_SUM, (3, 3))) == SymbolicExpr.atom(PI, 6, Fraction(31, 30720))
    # even-beta diagonal keeps the opaque beta(2)^2 monomial
    e = build(FormulaId(Formula.B_SUM, (2, 2)))
    assert e.coefficient_of((beta_even(2), 2)) == Fraction(1, 2)
    # X(q,q) = (t(2q) + c(q)^2)/2, c = t for O and beta for B
    for q in range(2, 11):
        for fam, c in ((Formula.O_SUM, t_single_expr(q)), (Formula.B_SUM, beta_expr(q))):
            assert build(FormulaId(fam, (q, q))) == (t_single_expr(2 * q) + c * c).scale(Fraction(1, 2)), (fam, q)


def test_build_table_and_reflection():
    e = build(FormulaId(Formula.O_SUM, (4, 3)))
    assert e.coefficient_of((PI, 4), (zeta_odd(3), 1)) == Fraction(1, 768)
    assert e.coefficient_of((PI, 2), (zeta_odd(5), 1)) == Fraction(5, 128)
    assert e.coefficient_of((zeta_odd(7), 1)) == Fraction(127, 256)


def test_build_b_reflect_catalan_cancels():
    e = build(FormulaId(Formula.B_SUM, (3, 2)))
    assert canonical_text(e) == "9/256*pi^2*zeta3 + 31/64*zeta5"
    assert all(c.kind != "beta_even" for mono, _ in e.terms for c, _ in mono)


def test_build_log2_cancellation():
    # the arcsin-integral combinations must shed their log-2 monomials
    for N in range(1, 6):
        for fam in (Formula.T322, Formula.Z322):
            e = build(FormulaId(fam, (N,)))
            assert all(
                c.kind != "log2" for mono, _ in e.terms for c, _ in mono
            ), (fam, N)
    # the conjectural even-integral family keeps log 2
    e = build(FormulaId(Formula.T2S1_CONJECTURE, (1,)))
    assert e.coefficient_of((PI, 2), (LOG2, 1)) == Fraction(1, 8)


def test_build_homogeneity():
    cases = [
        (FormulaId(Formula.T322, (3,)), 9),
        (FormulaId(Formula.Z322, (0,)), 3),
        (FormulaId(Formula.Z322, (4,)), 11),
        (FormulaId(Formula.I_CLOSED, (6,)), 7),
        (FormulaId(Formula.E211, (5,)), 6),
        (FormulaId(Formula.O_SUM, (4, 4)), 8),
        (FormulaId(Formula.B_SUM, (2, 2)), 4),
        (FormulaId(Formula.O_SUM, (5, 6)), 11),
        (FormulaId(Formula.O_SUM, (3, 2)), 5),
        (FormulaId(Formula.O_SUM, (2, 13)), 15),
        (FormulaId(Formula.B_SUM, (3, 2)), 5),
        (FormulaId(Formula.B_SUM, (2, 3)), 5),
        (FormulaId(Formula.B_SUM, (8, 7)), 15),
        (FormulaId(Formula.T2S1_CONJECTURE, (2,)), 5),
        (FormulaId(Formula.T2S1_CONJECTURE, (1,)), 3),
        (FormulaId(Formula.T2S1_CONJECTURE, (3,)), 7),
        (FormulaId(Formula.ZETA311, ()), 5),
    ]
    for fid, w in cases:
        assert weight_check(build(fid), w), fid
    mixed = SymbolicExpr.atom(PI) + SymbolicExpr.atom(zeta_odd(3))
    assert not weight_check(mixed, 1)
    assert not weight_check(mixed, 3)
    assert weight_check(SymbolicExpr.zero(), 12)


def test_summation_and_integral_forms_equal_over_q():
    # the two derivations that build() compares, exact element by element
    for N in range(1, 9):
        assert _t322_summation(N) == _t322_integral(N), N
    for N in range(0, 9):
        assert _z322_summation(N) == _z322_integral(N), N


T3_TERMS = [("1/122880", 6, 3), ("-5/8192", 4, 5), ("189/16384", 2, 7), ("-511/8192", 0, 9)]


def test_transcription_guard_rejects_plus_variant():
    # the circulated '+511/8192 zeta(9)' slip in t(3,2,2,2) is caught exactly
    plus = pi_zeta_expr(T3_TERMS[:3] + [("511/8192", 0, 9)])
    with pytest.raises(RuntimeError, match="differ by"):
        _assert_same_form("t(3,{2}^3)", plus, _t322_integral(3))
    minus = pi_zeta_expr(T3_TERMS)
    assert _assert_same_form("t(3,{2}^3)", minus, _t322_integral(3)) == minus
    assert build(FormulaId(Formula.T322, (3,))) == minus


def test_trailing_zeta_sign_alternates():
    # coefficient of zeta(2N+3) carries sign (-1)^N in both nested families
    for N in range(1, 8):
        for fam in (Formula.T322, Formula.Z322):
            c = build(FormulaId(fam, (N,))).coefficient_of((zeta_odd(2 * N + 3), 1))
            assert c != 0
            assert (c > 0) == (N % 2 == 0), (fam, N, c)


def test_stuffle_consistency():
    # zeta(2) zeta(3) = zeta(2,3) + zeta(3,2) + zeta(5) pins zeta(2,3)
    z32 = build(FormulaId(Formula.Z322, (1,)))
    z2z3 = SymbolicExpr.atom(PI, 2, Fraction(1, 6)) * SymbolicExpr.atom(zeta_odd(3))
    z23 = z2z3 - SymbolicExpr.atom(zeta_odd(5)) - z32
    expected = (
        SymbolicExpr.atom(zeta_odd(5), coeff=Fraction(9, 2))
        + SymbolicExpr.atom(PI, 2) * SymbolicExpr.atom(zeta_odd(3), coeff=Fraction(-1, 3))
    )
    assert z23 == expected


# ---------------------------------------------------------------------------
# evaluation and rendering
# ---------------------------------------------------------------------------

ALL_FIDS = [
    FormulaId(Formula.I_CLOSED, (5,)),
    FormulaId(Formula.T322, (1,)),
    FormulaId(Formula.T322, (3,)),
    FormulaId(Formula.Z322, (0,)),
    FormulaId(Formula.Z322, (2,)),
    FormulaId(Formula.E211, (4,)),
    FormulaId(Formula.O_SUM, (3, 3)),
    FormulaId(Formula.B_SUM, (2, 2)),
    FormulaId(Formula.O_SUM, (2, 3)),
    FormulaId(Formula.B_SUM, (3, 2)),
    FormulaId(Formula.O_SUM, (5, 4)),
    FormulaId(Formula.B_SUM, (2, 3)),
    FormulaId(Formula.B_SUM, (4, 3)),
    FormulaId(Formula.T2S1_CONJECTURE, (3,)),
    FormulaId(Formula.T2S1_CONJECTURE, (4,)),
    FormulaId(Formula.ZETA311, ()),
]


def test_eval_matches_closed_forms():
    # the closed route evaluates the same expression: same value, same bound
    for fid in ALL_FIDS:
        s = eval_symbolic(build(fid), 50)
        c = evaluate(fid, 50)
        assert (s.value, s.error_bound) == (c.value, c.error_bound), fid
        assert s.rigorous


def test_eval_beta_even_atom():
    r = eval_symbolic(SymbolicExpr.atom(beta_even(4), coeff=Fraction(1, 2)), 40)
    direct = beta_fn(4, 40)
    with mp.workdps(60):
        assert abs(r.value.magnitude - direct.value.magnitude / 2) < mpf(10) ** -36


def test_eval_zero_and_rational():
    assert eval_symbolic(SymbolicExpr.zero(), 30).value.magnitude == 0
    r = eval_symbolic(pi_zeta_expr([("22/7", 0, 0)]), 30)
    with mp.workdps(40):
        assert abs(r.value.magnitude - mpf(22) / 7) < mpf(10) ** -35


def test_lone_rational_is_charged_its_rounding():
    # 1/3 has no binary expansion: the bound must cover its rounding
    r = eval_symbolic(pi_zeta_expr([("1/3", 0, 0)]), 20)
    assert r.rigorous
    with mp.workdps(60):
        assert abs(r.value.magnitude - mpf(1) / 3) <= r.error_bound.magnitude


def test_canonical_text_corners():
    assert canonical_text(SymbolicExpr.zero()) == "0"
    assert canonical_text(pi_zeta_expr([("-3/4", 0, 0)])) == "-3/4"
    assert canonical_text(SymbolicExpr.atom(zeta_odd(5))) == "zeta5"
    assert canonical_text(SymbolicExpr.atom(zeta_odd(5), coeff=-1)) == "-zeta5"
    e = SymbolicExpr.atom(PI, 2, Fraction(1, 6)) - SymbolicExpr.atom(LOG2, 2)
    assert canonical_text(e) == "1/6*pi^2 - log2^2"


def test_canonical_order_determinism():
    e = hoffman_expr(3)
    # descending pi power throughout
    pi_pows = []
    for mono, _ in e.terms:
        pi_pows.append(next((x for c, x in mono if c.kind == "pi"), 0))
    assert pi_pows == sorted(pi_pows, reverse=True)


def test_json_terms_round_trip_structure():
    e = build(FormulaId(Formula.Z322, (1,)))
    terms = json_terms(e)
    assert terms == [
        {
            "coefficient": "1/2",
            "factors": [
                {"constant": "pi", "arg": 0, "power": 2},
                {"constant": "zeta_odd", "arg": 3, "power": 1},
            ],
        },
        {
            "coefficient": "-11/2",
            "factors": [{"constant": "zeta_odd", "arg": 5, "power": 1}],
        },
    ]


# sha256 of canonical_text and of json.dumps(json_terms) for forms far past
# the golden corpus, as the ring built them when each construction sorted its
# terms twice
LARGE_FORMS = [
    (Formula.I_CLOSED, (400,), "7985c93eef22e661e39e33887569b7de16199f95326c93b49efbd21c55d3ccf4",
     "595d4e407bf39c2f99a223d831b905687f188087cdb76e17ec882663cbda80b1"),
    (Formula.T322, (60,), "2f03257a6bd415645d5fb08503bed32ec8fa83822565ed0c12ac9b4213ce8cbd",
     "2030bfeae53ba977099d8ff6dcd3c8253ee2a9a3038568e4ddb94d359635d71d"),
    (Formula.Z322, (60,), "020e764d2da362993489417be745976a7aa29cdd2a0e29401bc5633dc2518dcc",
     "9ad009bc0cfcd1c87701b5c214c7a09ebcbd2a0fcca37646116ba8489b04186a"),
    (Formula.O_SUM, (40, 41), "7f6bac662919efad28af56640c65d1b062b2650aea71d32bf7aa226ba4677053",
     "a65903e0a7df5e05a6d9d85b3d249cb35f9f703c2e83f37dba26d79a18882483"),
    (Formula.B_SUM, (40, 41), "4d5ef199629617e8c3b041a837fa44ebc659e5aa0a30d6c5460a8af6eda3a37a",
     "e992d60645694ee5366229db57cab9d314c8c71840cd87af34a45db525243d46"),
]


@pytest.mark.parametrize("name, params, text_sha, json_sha", LARGE_FORMS,
                         ids=[f"{n.value}-" + "-".join(map(str, p)) for n, p, _, _ in LARGE_FORMS])
def test_a_large_form_is_byte_identical(name, params, text_sha, json_sha):
    e = build(FormulaId(name, params))
    assert hashlib.sha256(canonical_text(e).encode()).hexdigest() == text_sha
    assert hashlib.sha256(json.dumps(json_terms(e)).encode()).hexdigest() == json_sha


# ---------------------------------------------------------------------------
# the ring's work: one key per term, one merge per sum
# ---------------------------------------------------------------------------

# the 19 forms a cold verify --suite all builds
VERIFY_FORMS = [
    FormulaId(Formula[name], params)
    for name, params in [
        ("Z322", (1,)), ("Z322", (2,)), ("Z322", (3,)), ("T322", (1,)), ("T322", (2,)),
        ("T322", (3,)), ("I_CLOSED", (5,)), ("O_SUM", (2, 3)), ("O_SUM", (3, 2)),
        ("O_SUM", (4, 3)), ("B_SUM", (3, 3)), ("B_SUM", (2, 3)), ("E211", (2,)),
        ("ZETA311", ()), *((("T2S1_CONJECTURE", (N,)) for N in range(1, 6))),
    ]
]


def count_the_ring(monkeypatch) -> dict:
    """Count term keys, constructions, merges, totals and additions; each
    construction must key each term it holds once, each total merge once."""
    counts = dict.fromkeys(("keys", "constructions", "merges", "totals", "adds"), 0)
    term_key, post_init, sum_terms = symbolic._term_key, SymbolicExpr.__post_init__, symbolic._sum_terms
    total, add = SymbolicExpr.total, SymbolicExpr.__add__

    def counted_key(term):
        counts["keys"] += 1
        return term_key(term)

    def counted_post_init(self):
        before = counts["keys"]
        post_init(self)
        assert counts["keys"] - before == len(self.terms)
        counts["constructions"] += 1

    def counted_sum(pairs):
        counts["merges"] += 1
        return sum_terms(pairs)

    def counted_total(exprs):
        parts = list(exprs)  # the parts' own merges happen before the sum's
        before = counts["merges"]
        out = total(parts)
        assert counts["merges"] - before == 1
        counts["totals"] += 1
        return out

    def counted_add(self, other):
        counts["adds"] += 1
        return add(self, other)

    monkeypatch.setattr(symbolic, "_term_key", counted_key)
    monkeypatch.setattr(symbolic, "_sum_terms", counted_sum)
    monkeypatch.setattr(SymbolicExpr, "__post_init__", counted_post_init)
    monkeypatch.setattr(SymbolicExpr, "total", staticmethod(counted_total))
    monkeypatch.setattr(SymbolicExpr, "__add__", counted_add)
    return counts


def test_verify_forms_key_each_term_once_per_construction(monkeypatch):
    assert len(set(VERIFY_FORMS)) == 19
    counts = count_the_ring(monkeypatch)
    memos = (build, symbolic._build_i)
    for memo in memos:
        memo.cache_clear()
    try:
        for fid in VERIFY_FORMS:
            build(fid)
    finally:
        for memo in memos:  # drop what was built under the counters
            memo.cache_clear()
    # guard against a vacuous pass: the builds ran from cold, through total
    assert counts["constructions"] > 250 and counts["totals"] > 10


BUILDERS = [
    (symbolic._build_i.__wrapped__, (9,)),
    (symbolic._build_i.__wrapped__, (10,)),
    (_eta_sum, (3, 8)),
    (pi_zeta_expr, (T3_TERMS,)),
    (partial(_build_odd, False), (2, 5)),
    (partial(_build_odd, True), (4, 7)),
    (partial(_build_odd, False), (3, 3)),
    (partial(_build_odd, True), (2, 2)),
]


@pytest.mark.parametrize("builder, args", BUILDERS, ids=["I9", "I10", "eta_sum", "pi_zeta_expr", "O25", "B47",
                                                         "O33", "B22"])
def test_a_builder_adds_its_parts_in_one_merge(monkeypatch, builder, args):
    counts = count_the_ring(monkeypatch)
    expr = builder(*args)
    assert counts["totals"] == 1 and counts["adds"] == 0
    assert not expr.is_zero
