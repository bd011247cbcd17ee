"""The iterated-integral engine behind the nested series route.

References are independent of the engine: mpmath constants (mp.zeta, pi,
log 2, psi) through identities such as zeta(2,1,1) = zeta(4),
B(3,3) = 31 pi^6/30720 and Euler's formula for sum H_n/n^q, the closed-form
tables, an mpmath quadrature of the one-dimensional form of I(w0 sigma rho),
the brute-force partial sums of ``tests/oracles.py``, and exact rational
arithmetic for the letter-by-letter integration.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from multizeta.cli import main
from multizeta.closed import evaluate
from multizeta.series import (
    VALEAN_KINDS,
    _REFLECT,
    _ROUND_UNITS,
    _family_words,
    _integrate,
    nested_value,
    nested_values,
)
from multizeta.symbolic import Formula, FormulaId

from oracles import (
    _triple_nonstrict_sum,
    big_t_series,
    euler_H_series,
    kernel_words,
    mtv_series,
    mu_series,
    mzv_series,
    odd_B_series,
    odd_O_series,
    valean_alt_sum,
    words_value_per_word,
)

LETTERS = (
    "w0", "w1", "rho", "tau", "sigma", "kappa", "rho~", "tau~", "sigma~", "kappa~",
)


def _t(i):
    return (1 - mpf(2) ** -i) * mp.zeta(i)


def _b12():
    # B(1,2) = t(3) - I(w0 sigma rho); integrating the outer w0 by parts
    # leaves -int_0^1 log(t) t atanh(t)/(1+t^2) dt
    inner = -mp.quad(lambda t: mp.log(t) * t * mp.atanh(t) / (1 + t * t), [0, 1])
    return _t(3) - inner


def _valean(a, b, c, d):
    """a pi^2 zeta(3) + b zeta(5) + c pi^5 + d pi psi_3(1/4), with the third
    polygamma psi_3(1/4) = 6 zeta(4, 1/4) (Hurwitz)."""
    pi = mp.pi
    return a * pi ** 2 * mp.zeta(3) + b * mp.zeta(5) + c * pi ** 5 + d * pi * 6 * mp.zeta(4, 0.25)


# (quantity, params, reference evaluated at the ambient mpmath precision)
MPMATH_REFS = [
    ("zeta", (5,), lambda: mp.zeta(5)),
    ("zeta", (2, 1, 1), lambda: mp.zeta(4)),
    ("tvalue", (2,), lambda: mp.pi ** 2 / 8),
    ("tvalue", (2, 1), lambda: -_t(3) / 2 + _t(2) * mp.log(2)),
    ("mu", (2, 1), lambda: mpf(7) / 16 * mp.zeta(3)),
    ("mu", (2, 1, 1, 1), lambda: mpf(31) / 256 * mp.zeta(5)),
    ("bigT", (2, 1, 1), lambda: 2 * _t(4)),
    ("oddsum", ("O", 2, 2), lambda: (_t(2) ** 2 + _t(4)) / 2),
    ("oddsum", ("O", 1, 2), lambda: _t(3) / 2 + _t(2) * mp.log(2)),
    ("oddsum", ("B", 3, 3), lambda: 31 * mp.pi ** 6 / 30720),
    ("eulersum", (2, 1, 1), lambda: mpf(17) / 4 * mp.zeta(4)),
    ("eulersum", (3, 2), lambda: 3 * mp.zeta(2) * mp.zeta(3) - mpf(9) / 2 * mp.zeta(5)),
    ("valean", "H2n_over_n4", lambda: _valean(-1 / mpf(3), -437 / mpf(64), -1 / mpf(24), 1 / mpf(192))),
    ("valean", "H2n2_over_n3", lambda: _valean(61 / mpf(192), 1973 / mpf(128), 1 / mpf(16), -1 / mpf(128))),
]
# (quantity, params, closed route returning an EvalResult at the given digits)
CLOSED_REFS = [
    ("zeta", (3, 2, 2), lambda d: evaluate(FormulaId(Formula.Z322, (2,)), d)),
    ("tvalue", (3, 2, 2), lambda d: evaluate(FormulaId(Formula.T322, (2,)), d)),
    ("oddsum", ("O", 4, 3), lambda d: evaluate(FormulaId(Formula.O_SUM, (4, 3)), d)),
    ("oddsum", ("B", 2, 3), lambda d: evaluate(FormulaId(Formula.B_SUM, (2, 3)), d)),
]


def _check(quantity, params, prec, ref, ref_bound=0):
    r = nested_value(quantity, params, prec)
    with mp.workdps(prec + 30):
        err = abs(r.value.magnitude - ref)
        assert err <= r.error_bound.magnitude + ref_bound, (quantity, params, prec)
        assert r.error_bound.magnitude < mpf(10) ** -prec
    assert r.rigorous


@pytest.mark.parametrize("prec", [50, 300, 1000])
def test_every_family_within_bound_of_mpmath(prec):
    for quantity, params, ref in MPMATH_REFS:
        with mp.workdps(prec + 20):
            value = ref()
        _check(quantity, params, prec, value)


@pytest.mark.parametrize("prec", [50, 300])
def test_b_with_p1_against_quadrature(prec):
    with mp.workdps(prec + 20):
        value = _b12()
    _check("oddsum", ("B", 1, 2), prec, value)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_euler_sum_of_h_n_matches_eulers_formula(q):
    """sum H_n/n^q = (q+2)/2 zeta(q+1) - 1/2 sum_(k=1..q-2) zeta(k+1) zeta(q-k)."""
    prec = 1000
    with mp.workdps(prec + 20):
        z = mp.zeta
        value = mpf(q + 2) / 2 * z(q + 1) - sum(z(k + 1) * z(q - k) for k in range(1, q - 1)) / 2
    _check("eulersum", (q, 1), prec, value)


@pytest.mark.parametrize("prec", [50, 300, 1000])
def test_every_family_within_bound_of_closed_tables(prec):
    for quantity, params, closed in CLOSED_REFS:
        ref = closed(prec + 20)
        _check(quantity, params, prec, ref.value.magnitude, ref.error_bound.magnitude)


BRUTE = [
    ("zeta", (3, 2, 2), lambda c: mzv_series((3, 2, 2), c, 30)),
    ("zeta", (2, 1, 1), lambda c: mzv_series((2, 1, 1), c, 30)),
    ("tvalue", (2, 2, 1), lambda c: mtv_series((2, 2, 1), c, 30)),
    ("mu", (3, 1, 2), lambda c: mu_series((3, 1, 2), c, 30)),
    ("bigT", (2, 1, 1), lambda c: big_t_series((2, 1, 1), c, 30)),
    ("oddsum", ("O", 1, 3), lambda c: odd_O_series(1, 3, c, 30)),
    ("oddsum", ("O", 4, 3), lambda c: odd_O_series(4, 3, c, 30)),
    ("oddsum", ("B", 1, 2), lambda c: odd_B_series(1, 2, c, 30)),
    ("oddsum", ("B", 3, 2), lambda c: odd_B_series(3, 2, c, 30)),
    ("eulersum", (4, 1), lambda c: euler_H_series((1,), 4, c, 30)),
    ("eulersum", (3, 1, 2), lambda c: euler_H_series((1, 2), 3, c, 30)),
    ("eulersum", (2, 2, 2, 3), lambda c: euler_H_series((2, 2, 3), 2, c, 30)),
    ("valean", "H2n_over_n4", lambda c: valean_alt_sum("H2n_over_n4", c, 30)),
    ("valean", "H2n2_over_n3", lambda c: valean_alt_sum("H2n2_over_n3", c, 30)),
]


@pytest.mark.parametrize("quantity,params,brute", BRUTE)
def test_partial_sums_within_their_tails(quantity, params, brute):
    """|engine - partial sum at C| <= tail(C) + rounding + the engine's bound."""
    r = nested_value(quantity, params, 30)
    for cutoff in (50, 2000):
        assert r.agrees_with(brute(cutoff)), (quantity, params, cutoff)


def test_triple_sum_oracle_within_its_tail():
    """The non-strict triple sum at cutoff 2000 against zeta(3,1,1) + zeta(3,2)
    from the engine, within the oracle's own bound."""
    val, bound = _triple_nonstrict_sum(2000, 40)
    words = [nested_value("zeta", p, 40) for p in ((3, 1, 1), (3, 2))]
    with mp.workdps(60):
        engine = sum(w.value.magnitude for w in words)
        assert abs(val - engine) <= bound + sum(w.error_bound.magnitude for w in words)


_INDEX = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).map(
    lambda entries: (max(entries[0], 2), *entries[1:])
).filter(lambda entries: sum(entries) <= 10)


_EULER = st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4).map(
    lambda entries: (max(entries[0], 2), *entries[1:])
).filter(lambda entries: sum(entries) <= 10)

_NESTED = st.one_of(
    st.tuples(st.sampled_from(("zeta", "tvalue", "mu", "bigT")), _INDEX),
    st.tuples(st.just("eulersum"), _EULER),
    st.tuples(st.just("valean"), st.sampled_from(tuple(VALEAN_KINDS))),
)


@given(nested=_NESTED, prec=st.integers(min_value=16, max_value=150))
@settings(max_examples=50, deadline=None)
def test_precision_doubling(nested, prec):
    quantity, params = nested
    a = nested_value(quantity, params, prec)
    b = nested_value(quantity, params, 2 * prec)
    with mp.workdps(2 * prec + 20):
        diff = abs(a.value.magnitude - b.value.magnitude)
        assert diff <= a.error_bound.magnitude + b.error_bound.magnitude


@given(
    fam=st.sampled_from(("O", "B")),
    p=st.integers(min_value=1, max_value=5),
    q=st.integers(min_value=2, max_value=5),
    prec=st.integers(min_value=16, max_value=150),
)
@settings(max_examples=20, deadline=None)
def test_odd_sum_precision_doubling(fam, p, q, prec):
    a = nested_value("oddsum", (fam, p, q), prec)
    b = nested_value("oddsum", (fam, p, q), 2 * prec)
    with mp.workdps(2 * prec + 20):
        diff = abs(a.value.magnitude - b.value.magnitude)
        assert diff <= a.error_bound.magnitude + b.error_bound.magnitude


# ---------------------------------------------------------------------------
# the letters and the coefficient sup-norm
# ---------------------------------------------------------------------------


def _laurent(letter, n):
    """Exact r_-1, r_0..r_n of the letter's form, from its definition."""
    if letter == "w0":
        return [Fraction(1)] + [Fraction(0)] * (n + 1)
    if letter in ("rho~", "tau~"):  # 1/(u(2-u)) = sum_(m>=-1) u^m / 2^(m+2)
        sign = 1 if letter == "rho~" else -1  # (1-u)/(u(2-u)) = that - 1/(2-u)
        return [Fraction(1, 2)] + [Fraction(sign, 2 ** (m + 2)) for m in range(n + 1)]
    if letter in ("sigma~", "kappa~"):
        # sigma~ = Re 1/(1+i-u), kappa~ = -Im 1/(1+i-u), and
        # (1+i)^-(m+1) = (1-i)^(m+1) / 2^(m+1)
        coeffs, re, im = [], 1, -1  # (1-i)^(m+1) in Gaussian integers
        for m in range(n + 1):
            coeffs.append(Fraction(re if letter == "sigma~" else -im, 2 ** (m + 1)))
            re, im = re + im, im - re
        return [Fraction(0)] + coeffs
    regular = {
        "w1": lambda m: 1,
        "rho": lambda m: 1 - m % 2,
        "tau": lambda m: m % 2,
        "sigma": lambda m: (-1) ** (m // 2) if m % 2 else 0,
        "kappa": lambda m: 0 if m % 2 else (-1) ** (m // 2),
    }[letter]
    return [Fraction(0)] + [Fraction(regular(m)) for m in range(n + 1)]


def _exact_integrate(letter, c):
    r = _laurent(letter, len(c))
    g = [Fraction(0)] * len(c)
    for n in range(len(c) - 1):
        acc = r[0] * c[n + 1] + sum(r[m + 1] * c[n - m] for m in range(n + 1))
        g[n + 1] = acc / (n + 1)
    return g


@pytest.mark.parametrize("letter", LETTERS)
def test_letter_laurent_condition(letter):
    """|r_-1| + sum_(m<=n) |r_m| <= n + 1: one integration keeps |c_n| <= 1."""
    r = _laurent(letter, 200)
    running = abs(r[0])
    for n in range(201):
        running += abs(r[n + 1])
        assert running <= n + 1, (letter, n)


@pytest.mark.parametrize("letter", LETTERS)
def test_integrate_matches_exact_map(letter):
    """The scaled-integer recurrences equal the exact convolution up to the
    charged rounding, on random coefficients (c_0 = 0) of both signs."""
    rng = random.Random(7)
    scale = 1 << 80
    for _ in range(5):
        c = [0] + [rng.randint(-scale, scale) for _ in range(60)]
        got = _integrate(letter, c)
        want = _exact_integrate(letter, c)
        assert max(abs(g - w) for g, w in zip(got, want)) < _ROUND_UNITS, letter


@pytest.mark.parametrize(
    "quantity,params",
    [
        ("zeta", (3, 2, 2)), ("zeta", (2, 1, 1, 1)), ("tvalue", (2, 2, 2, 1)),
        ("tvalue", (4, 1, 3)), ("mu", (2, 1, 1)), ("mu", (5, 3)),
        ("oddsum", ("O", 1, 4)), ("oddsum", ("B", 1, 2)), ("oddsum", ("B", 4, 3)),
        ("eulersum", (2, 1, 1, 2)), ("valean", "H2n_over_n4"), ("valean", "H2n2_over_n3"),
        ("arcsin_kernel", ("I", 5)), ("arcsin_kernel", ("t", 2)),
    ],
)
def test_piece_coefficients_stay_at_most_one(quantity, params):
    """Every partial word, in both directions, keeps |c_n| <= 1 (plus the
    rounding of the integrations so far)."""
    bits = 100
    for _, word in _family_words(quantity, params):
        for letters in ([_REFLECT[f] for f in word], list(reversed(word))):
            c = [1 << bits] + [0] * 150
            for k, letter in enumerate(letters, 1):
                c = _integrate(letter, c)
                assert max(abs(x) for x in c) <= (1 << bits) + _ROUND_UNITS * k


# ---------------------------------------------------------------------------
# shared chains: one trie walk per bit width, bit for bit the per-word engine
# ---------------------------------------------------------------------------

# a shape of every _family_words family; their widths span two bit widths b
WALK_SHAPES = [
    ("zeta", (3, 2, 2)), ("zeta", (2, 1, 1, 1)), ("tvalue", (2, 2, 2, 1)), ("tvalue", (4, 1, 3)),
    ("mu", (5, 3)), ("bigT", (2, 1, 1)), ("oddsum", ("O", 1, 4)), ("oddsum", ("B", 4, 3)),
    ("eulersum", (2, 1, 2, 3, 4)), ("valean", "H2n_over_n4"), ("valean", "H2n2_over_n3"),
    ("arcsin_kernel", ("I", 5)), ("arcsin_kernel", ("t", 2)),
]


@pytest.mark.parametrize("prec", [16, 50, 200])
def test_the_chain_walk_equals_the_per_word_engine(prec):
    batch = nested_values(WALK_SHAPES, prec)
    assert len({r.value.magnitude for r in batch}) == len(WALK_SHAPES)  # not vacuous
    for (quantity, params), r in zip(WALK_SHAPES, batch):
        want = words_value_per_word(_family_words(quantity, params), prec)
        assert r.rigorous and want.rigorous
        assert r.value.magnitude == want.value.magnitude, (quantity, params)
        assert r.error_bound.magnitude == want.error_bound.magnitude, (quantity, params)


# ---------------------------------------------------------------------------
# the paper's integrals as words
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fam, den", [("O", -1), ("B", 1)])
def test_the_kernel_pair_words_reduce_to_the_odd_sum_words(fam, den):
    # kernel_pair(p, q, den) = (-1)^q/(2 (q-1)!) [L(p,q,-1,den) - L(p,q,+1,den)]:
    # the w1 words cancel over Q, leaving O(p,q)'s or B(p,q)'s series words
    for p in range(2, 7):
        for q in range(2, 7):
            k = Fraction((-1) ** q, 2 * math.factorial(q - 1))
            got: dict = {}
            for s in (-1, 1):
                for c, word in kernel_words(p, q, s, den):
                    got[word] = got.get(word, 0) - s * k * c
            want: dict = {}
            for c, word in _family_words("oddsum", (fam, p, q)):
                want[word] = want.get(word, 0) + c
            assert {w: c for w, c in got.items() if c} == want, (fam, p, q)


@given(
    shape=st.one_of(st.tuples(st.just("I"), st.integers(1, 12)),
                    st.tuples(st.just("t"), st.integers(1, 4))),
    prec=st.sampled_from([16, 30, 50, 200]),
)
@settings(max_examples=30, deadline=None)
def test_the_arcsin_kernel_words_agree_with_the_closed_forms(shape, prec):
    # I(n) = 2^n n! [I(w0 kappa^n) - 2 I(sigma kappa^n)] and, M = 2n + 1,
    # t(3,{2}^n) = 2^(M+1) [I(kappa w0 kappa^M) - 2 I(kappa sigma kappa^M)]
    kind, n = shape
    words = nested_value("arcsin_kernel", shape, prec)
    fid = FormulaId(Formula.I_CLOSED if kind == "I" else Formula.T322, (n,))
    assert words.rigorous
    assert words.agrees_with(evaluate(fid, prec)), (shape, prec)


def test_validation():
    for quantity, params in [
        ("zeta", (1, 2)), ("tvalue", (1,)), ("mu", ()), ("zeta", (2, 0)),
        ("oddsum", ("O", 0, 3)), ("oddsum", ("B", 2, 1)), ("oddsum", ("X", 2, 3)),
        ("eulersum", (1, 2)), ("eulersum", (3,)), ("eulersum", (3, 0)), ("eulersum", ()),
        ("valean", "H2n_over_n5"), ("cbsum", ("inverse_square",)),
        ("arcsin_kernel", ("I", 0)), ("arcsin_kernel", ("J", 2)), ("arcsin_kernel", ("t", 1.5)),
    ]:
        with pytest.raises(ValueError):
            nested_value(quantity, params, 30)
    with pytest.raises(ValueError):
        nested_value("zeta", (3, 2), 5)


def test_cli_all_routes_at_200_digits(capsys):
    code = main(["zeta", "3", "2", "2", "--method", "all", "--prec", "200", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["agreement"] is True
    series = next(e for e in payload["routes"] if e["method"] == "series")
    assert series["rigorous"] is True
    with mp.workdps(30):
        assert mpf(series["error_bound"]) < mpf("1e-200")
