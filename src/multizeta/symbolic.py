"""Exact symbolic skeletons of the closed forms, and their one evaluator.

Every closed form in this package lives in the graded ring generated by

    pi (weight 1), log 2 (weight 1), zeta(odd m >= 3) (weight m),
    beta(even m >= 2) (weight m)

over the rationals.  Even zeta values are eliminated on sight through
zeta(2k) = (-1)^(k+1) B_(2k) (2 pi)^(2k) / (2 (2k)!), eta values through
eta(m) = (1 - 2^(1-m)) zeta(m) with eta(1) = log 2, and beta at odd argument
through beta(2k+1) = (-1)^k E_(2k) pi^(2k+1) / (4^(k+1) (2k)!).  What
remains is a SymbolicExpr, monomials with Fraction coefficients, which
makes structural facts checkable exactly: weight homogeneity, the (-1)^N
sign pattern of the zeta(2N+3) coefficient, and the exact cancellation of
log 2 when the arcsin-integral combinations assemble t(3,{2}^N) and
zeta(3,{2}^N).  Each kind of basis constant is one _KINDS row: its text,
weight, argument rule and hp evaluator; the order of the rows, then the
argument, orders the factors.  A SymbolicExpr's constructor sorts its terms
into that canonical order once, and every sum (+, -, scale, *,
divide_by_pi, atom, total) is one merge of (monomial, coefficient) pairs.

build() is the only definition of each closed form in the package, one row
of _FORMS per Formula; closed.evaluate() evaluates what it returns.  No
coefficient of an odd Euler sum O(p,q) or B(p,q) is typed: both families,
the diagonal p = q and every odd weight p + q, are built by _build_odd from
the reflection and one parity theorem.  Nor is any coefficient of
t({2}^N,1): every N is built as I(2N)/(2N)!, the paper's conjecture, which
Hoffman proved for N <= 3 (FormulaId.conjectural states that range).
t(3,{2}^N) and zeta(3,{2}^N) are derived twice, from the eta/zeta summation
form and from the arcsin-integral combination, and build() raises
RuntimeError unless the two expressions are equal over Q -- a transcription
slip in either formula cannot reach a printed digit.

eval_symbolic() evaluates an expression by feeding the basis constants of
its monomials to hp.combine(), the package's one bound-propagation rule,
and evaluates it again with more digits (hp.refine) until cancellation no
longer leaves it short of the digits asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial

from .hp import (
    EvalResult,
    bernoulli_fraction,
    beta_fn,
    combine,
    euler_number,
    log2_const,
    pi_const,
    refine,
    require,
    zeta_single,
)

__all__ = [
    "Formula",
    "FormulaId",
    "BasisConstant",
    "SymbolicExpr",
    "PI",
    "LOG2",
    "zeta_odd",
    "beta_even",
    "zeta_even_rational",
    "beta_odd_rational",
    "t_single_expr",
    "pi_zeta_expr",
    "build",
    "eval_symbolic",
    "weight_check",
    "canonical_text",
    "json_terms",
]


class Formula(Enum):
    I_CLOSED = "I_closed"
    T322 = "T322"
    Z322 = "Z322"
    E211 = "E211"
    O_SUM = "OSum"
    B_SUM = "BSum"
    T2S1_CONJECTURE = "T2s1Conjecture"
    ZETA311 = "Zeta311"


@dataclass(frozen=True)
class FormulaId:
    """A closed-form family plus its integer parameters."""

    name: Formula
    params: tuple[int, ...] = ()

    def __post_init__(self):
        # a list would validate but leave the id unhashable and unequal to its tuple form
        object.__setattr__(self, "params", tuple(self.params))
        if not takes(self.name, self.params):
            raise ValueError(f"{self.name.value} takes {_FORMS[self.name][1]}, got {self.params}")

    @property
    def conjectural(self) -> bool:
        """True for t({2}^N,1) = I(2N)/(2N)! past N = 3, the range Hoffman
        proved ("An odd variant of multiple zeta values", Commun. Number
        Theory Phys. 13 (2019))."""
        return self.name is Formula.T2S1_CONJECTURE and self.params[0] > 3


# kind -> (text, weight or None for the argument, argument test, its rule,
# its hp value at (arg, prec)), rows in the canonical order of the factors;
# a value looks its hp function up when it runs, so rebound wrappers see it
_KINDS = {
    "pi": ("pi", 1, lambda m: m == 0, "no argument", lambda m, prec: pi_const(prec)),
    "log2": ("log2", 1, lambda m: m == 0, "no argument", lambda m, prec: log2_const(prec)),
    "zeta_odd": ("zeta", None, lambda m: m >= 3 and m % 2 == 1, "odd arg >= 3",
                 lambda m, prec: zeta_single(m, prec)),
    "beta_even": ("beta", None, lambda m: m >= 2 and m % 2 == 0, "even arg >= 2",
                  lambda m, prec: beta_fn(m, prec)),
}


@dataclass(frozen=True, order=True)
class BasisConstant:
    """A generator of the constant ring; arg is 0 except for the zeta/beta
    families, where it is the (parity-checked) argument.  Constants order by
    their _KINDS row, then their arg: the canonical order of the factors."""

    row: int = field(init=False, repr=False)
    kind: str
    arg: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {tuple(_KINDS)}, got {self.kind!r}")
        _, _, arg_ok, rule, _ = _KINDS[self.kind]
        if not (isinstance(self.arg, int) and arg_ok(self.arg)):
            raise ValueError(f"{self.kind} takes {rule}, got {self.arg!r}")
        object.__setattr__(self, "row", list(_KINDS).index(self.kind))

    @property
    def weight(self) -> int:
        weight = _KINDS[self.kind][1]
        return self.arg if weight is None else weight

    def value(self, prec: int) -> EvalResult:
        return _KINDS[self.kind][4](self.arg, prec)

    def _text(self) -> str:
        text = _KINDS[self.kind][0]
        return f"{text}{self.arg}" if self.arg else text


PI = BasisConstant("pi")
LOG2 = BasisConstant("log2")


def zeta_odd(m: int) -> BasisConstant:
    return BasisConstant("zeta_odd", m)


def beta_even(m: int) -> BasisConstant:
    return BasisConstant("beta_even", m)


def _mono_sorted(pairs) -> tuple:
    """The monomial prod c^e over (c, e) pairs: a tuple of (BasisConstant,
    positive exponent) in BasisConstant order."""
    merged: dict[BasisConstant, int] = {}
    for c, e in pairs:
        require(e, f"the exponent of {c._text()}", 0)
        merged[c] = merged.get(c, 0) + e
    return tuple(sorted((c, e) for c, e in merged.items() if e))


def _mono_pi_exp(mono: tuple) -> int:
    # pi is the first row of _KINDS, so it leads any monomial it divides
    return mono[0][1] if mono and mono[0][0] == PI else 0


def _term_key(term) -> tuple:
    """A term's canonical place: descending pi power, then the other factors."""
    mono = term[0]
    e = _mono_pi_exp(mono)
    return (-e, mono[1:] if e else mono)


@dataclass(frozen=True)
class SymbolicExpr:
    """Normalized rational combination of basis monomials.

    The constructor puts terms in canonical order (_term_key) with one sort
    and refuses zero coefficients and duplicate monomials, so structural
    equality is just dataclass equality.
    """

    terms: tuple = ()

    def __post_init__(self):
        terms = tuple(sorted(self.terms, key=_term_key))
        if any(not coeff for _, coeff in terms):
            raise ValueError("zero coefficient survived normalization")
        if any(a[0] == b[0] for a, b in zip(terms, terms[1:])):
            raise ValueError("duplicate monomial survived normalization")
        object.__setattr__(self, "terms", terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SymbolicExpr":
        return cls(())

    @staticmethod
    def atom(const: BasisConstant, exp: int = 1, coeff=1) -> "SymbolicExpr":
        return _sum_terms([(_mono_sorted([(const, exp)]), Fraction(coeff))])

    @staticmethod
    def total(exprs) -> "SymbolicExpr":
        """The sum of many expressions, in one merge."""
        return _sum_terms(term for expr in exprs for term in expr.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SymbolicExpr") -> "SymbolicExpr":
        return _sum_terms(self.terms + other.terms)

    def __sub__(self, other: "SymbolicExpr") -> "SymbolicExpr":
        return _sum_terms(self.terms + tuple((m, -c) for m, c in other.terms))

    def scale(self, c) -> "SymbolicExpr":
        c = Fraction(c)
        return _sum_terms((m, k * c) for m, k in self.terms)

    def __mul__(self, other: "SymbolicExpr") -> "SymbolicExpr":
        return _sum_terms(
            (_mono_sorted(m1 + m2), c1 * c2) for m1, c1 in self.terms for m2, c2 in other.terms
        )

    def divide_by_pi(self) -> "SymbolicExpr":
        """Divide every monomial by pi; raises if any term lacks a pi factor."""
        pairs = []
        for mono, c in self.terms:
            e = _mono_pi_exp(mono)
            if e < 1:
                raise ValueError(f"term {c} * {mono} has no pi factor to cancel")
            pairs.append((mono[1:] if e == 1 else ((PI, e - 1),) + mono[1:], c))
        return _sum_terms(pairs)

    # -- inspection --------------------------------------------------------

    def coefficient_of(self, *pairs) -> Fraction:
        """Coefficient of the monomial prod const^exp (pairs of (const, exp))."""
        return dict(self.terms).get(_mono_sorted(pairs), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _sum_terms(pairs) -> SymbolicExpr:
    """The one merge: sum the coefficients of equal monomials over (monomial,
    coefficient) pairs, drop the zeros, and construct."""
    merged: dict = {}
    for mono, c in pairs:
        merged[mono] = merged[mono] + c if mono in merged else c
    return SymbolicExpr(tuple((m, c) for m, c in merged.items() if c))


def weight_check(expr: SymbolicExpr, expected: int) -> bool:
    """True iff every monomial of expr has total weight == expected."""
    return all(sum(c.weight * e for c, e in mono) == expected for mono, _ in expr.terms)


# ---------------------------------------------------------------------------
# rewrites into the basis
# ---------------------------------------------------------------------------


def zeta_even_rational(m: int) -> Fraction:
    """zeta(2k) / pi^(2k) as an exact rational."""
    require(m, "m", 2)
    if m % 2:
        raise ValueError(f"even m >= 2 required, got {m}")
    k = m // 2
    return Fraction((-1) ** (k + 1)) * bernoulli_fraction(2 * k) * Fraction(2 ** (2 * k), 2 * math.factorial(2 * k))


def beta_odd_rational(m: int) -> Fraction:
    """beta(2k+1) / pi^(2k+1) as an exact rational."""
    require(m, "m")
    if m % 2 == 0:
        raise ValueError(f"odd m >= 1 required, got {m}")
    k = (m - 1) // 2
    return Fraction((-1) ** k) * euler_number(2 * k) / Fraction(4 ** (k + 1) * math.factorial(2 * k))


def _zeta_expr(m: int) -> SymbolicExpr:
    """zeta(m) in the basis (even arguments become pi powers)."""
    if m % 2 == 0:
        return SymbolicExpr.atom(PI, m, zeta_even_rational(m))
    return SymbolicExpr.atom(zeta_odd(m))


def _eta_expr(m: int) -> SymbolicExpr:
    """eta(m) = (1 - 2^(1-m)) zeta(m), with eta(1) = log 2."""
    if m == 1:
        return SymbolicExpr.atom(LOG2)
    return _zeta_expr(m).scale(1 - Fraction(1, 2 ** (m - 1)))


def _beta_expr(m: int) -> SymbolicExpr:
    """beta(m): odd arguments become pi powers, even stay opaque."""
    if m % 2:
        return SymbolicExpr.atom(PI, m, beta_odd_rational(m))
    return SymbolicExpr.atom(beta_even(m))


def t_single_expr(m: int) -> SymbolicExpr:
    """t(m) = (1 - 2^(-m)) zeta(m) in the basis (m >= 2)."""
    require(m, "m", 2)
    return _zeta_expr(m).scale(1 - Fraction(1, 2 ** m))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


# expressions kept, like closed.evaluate's results: verify --suite all builds
# 9 distinct I(N) and 19 distinct forms
@lru_cache(maxsize=256)
def _build_i(N: int) -> SymbolicExpr:
    parts = []
    for j in range((N + 1) // 2):
        c = Fraction((-1) ** j * math.factorial(N), 2 ** N * math.factorial(N - 2 * j))
        parts.append(SymbolicExpr.atom(PI, N - 2 * j, c) * _eta_expr(2 * j + 1))
    if N % 2 == 0:
        M = N // 2
        c = Fraction((-1) ** M * math.factorial(N) * (2 ** (2 * M + 1) - 1), 2 ** N * 2 ** (2 * M))
        parts.append(_zeta_expr(N + 1).scale(c))
    return SymbolicExpr.total(parts)


def _eta_sum(N: int, top: int) -> SymbolicExpr:
    # sum_(j=1..N) (-1)^(j+1) (2j) pi^(2N+2-2j) eta(2j+1)/(top-2j)!
    parts = []
    for j in range(1, N + 1):
        c = Fraction((-1) ** (j + 1) * 2 * j, math.factorial(top - 2 * j))
        parts.append(SymbolicExpr.atom(PI, 2 * N + 2 - 2 * j, c) * _eta_expr(2 * j + 1))
    return SymbolicExpr.total(parts)


def _t322_summation(N: int) -> SymbolicExpr:
    # 2^(-(2N+2)) [_eta_sum(N, 2N+2) + (-1)^N 2 (2N+2) (1 - 2^(-2N-3)) zeta(2N+3)]
    c = (-1) ** N * 2 * (2 * N + 2) * (1 - Fraction(1, 2 ** (2 * N + 3)))
    bracket = _eta_sum(N, 2 * N + 2) + _zeta_expr(2 * N + 3).scale(c)
    return bracket.scale(Fraction(1, 2 ** (2 * N + 2)))


def _t322_integral(N: int) -> SymbolicExpr:
    # ((pi/2) I(2N+1) - I(2N+2)) / (2N+1)!; the log-2 monomials cancel
    half_pi = SymbolicExpr.atom(PI, 1, Fraction(1, 2))
    return (half_pi * _build_i(2 * N + 1) - _build_i(2 * N + 2)).scale(
        Fraction(1, math.factorial(2 * N + 1))
    )


def _z322_summation(N: int) -> SymbolicExpr:
    # 2 [_eta_sum(N, 2N+3) - (-1)^N (1 - (1 - 2^(-2N-2)) (2N+2)) zeta(2N+3)]
    c = -((-1) ** N) * (1 - (1 - Fraction(1, 2 ** (2 * N + 2))) * (2 * N + 2))
    return (_eta_sum(N, 2 * N + 3) + _zeta_expr(2 * N + 3).scale(c)).scale(2)


def _z322_integral(N: int) -> SymbolicExpr:
    # 2^(2N+4)/(2N+2)! [I(2N+2)/2 - I(2N+3)/pi]; the log-2 monomials cancel
    return (
        _build_i(2 * N + 2).scale(Fraction(1, 2)) - _build_i(2 * N + 3).divide_by_pi()
    ).scale(Fraction(2 ** (2 * N + 4), math.factorial(2 * N + 2)))


def _assert_same_form(what: str, summation: SymbolicExpr, integral: SymbolicExpr) -> SymbolicExpr:
    """The transcription guard: two derivations of one constant must agree over Q."""
    if summation != integral:
        raise RuntimeError(
            f"{what}: summation and integral closed forms differ by "
            f"{canonical_text(summation - integral)}"
        )
    return summation


def pi_zeta_expr(terms) -> SymbolicExpr:
    """sum of c * pi^a * zeta(m) over (c, a, m) triples; m = 0 stands for 1."""
    parts = []
    for c, a, m in terms:
        term = SymbolicExpr.atom(PI, a, c)
        parts.append(term * _zeta_expr(m) if m else term)
    return SymbolicExpr.total(parts)


def _build_odd(alternating: bool, p: int, q: int) -> SymbolicExpr:
    """The odd Euler sums, for p, q >= 2 with p = q or w = p + q odd:

      O(p,q) = sum_(n>=1) (2n-1)^(-q) sum_(k<=n) (2k-1)^(-p),
      B(p,q) = sum_(n>=1) (-1)^(n-1) (2n-1)^(-q) sum_(k<=n) (-1)^(k-1) (2k-1)^(-p).

    With c = t, L = zeta, s = p for O and c = beta, L = eta, s = q for B,

      X(q,q) = (t(2q) + c(q)^2)/2,
      X(p,q) = t(w)/2 + [s odd] c(p) c(q) + (-1)^s sum_(k=1..(w-3)/2)
               [C(w-2k-1, p-1) + C(w-2k-1, q-1)] 2^(-(w-2k)) t(2k) L(w-2k).

    The diagonal is the reflection X(p,q) + X(q,p) = c(p) c(q) + t(w) at
    p = q.  The odd weights are the odd-denominator twins of Euler's parity
    theorem, by the residue lemma of Flajolet and Salvy ("Euler sums and
    contour integral representations", Experiment. Math. 7 (1998)): the
    residues of s^(-q) xi(s), xi(s) = (pi/2) tan(pi s/2) sum_(j>=0) e^j
    (s+2j)^(-p) with e = 1 for O and -1 for B, sum to zero.
    (pi/2) tan(pi s/2) has residue -1 at every odd integer: the positive
    ones give -X(q,p), the negative ones X(p,q) - e (-1)^q c(p) c(q), and by
    the reflection the two sum to 2 X(p,q) - t(w) - (1 + e (-1)^q) c(p) c(q).
    At 0 and at -2, -4, ... the zero of tan leaves Taylor coefficients,
    (pi/2) tan(pi u/2) = sum_k 2 t(2k) u^(2k-1), against
    sum_(j>=1) e^j (2j)^(-n) = e 2^(-n) L(n): 0 gives the C(w-2k-1, p-1)
    terms (its j = 0 term none, w being odd), the negative even integers
    the C(w-2k-1, q-1) terms, each times 2 e (-1)^q.  For odd w, (1 + e (-1)^q)/2 = [s odd] and -e (-1)^q = (-1)^s.
    """
    # looked up when called, so a wrapper rebound in this module sees them
    single, tail, s = (_beta_expr, _eta_expr, q) if alternating else (t_single_expr, _zeta_expr, p)
    if p == q:
        return SymbolicExpr.total([t_single_expr(2 * q), single(q) * single(q)]).scale(Fraction(1, 2))
    w = p + q
    parts = [t_single_expr(w).scale(Fraction(1, 2))]
    if s % 2:
        parts.append(single(p) * single(q))
    for k in range(1, (w - 1) // 2):
        n = w - 2 * k
        c = Fraction((-1) ** s * (math.comb(n - 1, p - 1) + math.comb(n - 1, q - 1)), 2 ** n)
        parts.append((t_single_expr(2 * k) * tail(n)).scale(c))
    return SymbolicExpr.total(parts)


def _ints(params, count: int, low: int) -> bool:
    """params holds count ints, each at least low."""
    return len(params) == count and all(isinstance(p, int) and p >= low for p in params)


def _one(low: int, name: str = "N") -> tuple:
    """The parameter test and its rule for one parameter, at least low."""
    return (lambda params: _ints(params, 1, low)), f"one parameter {name} >= {low}"


# the parameter test and its rule for both odd-sum families
_ODD_PAIR = (
    lambda params: _ints(params, 2, 2) and (params[0] == params[1] or sum(params) % 2 == 1),
    "two parameters p, q >= 2 with p = q or p + q odd",
)


# Formula -> (parameter test, its rule in words, builder of the parameters).
# A row calls the hp constants and this module's public functions by name
# when it runs, never through a stored reference, so that a wrapper rebound
# in this module's namespace sees every call.
_FORMS = {
    Formula.I_CLOSED: (*_one(1), _build_i),
    Formula.T322: (*_one(1), lambda N: _assert_same_form(
        f"t(3,{{2}}^{N})", _t322_summation(N), _t322_integral(N))),
    Formula.Z322: (*_one(0), lambda N: _assert_same_form(
        f"zeta(3,{{2}}^{N})", _z322_summation(N), _z322_integral(N))),
    Formula.E211: (*_one(1), lambda N: _zeta_expr(N + 1).scale(Fraction(2 ** (N + 1) - 1, 4 ** N))),
    Formula.O_SUM: (*_ODD_PAIR, partial(_build_odd, False)),
    Formula.B_SUM: (*_ODD_PAIR, partial(_build_odd, True)),
    Formula.T2S1_CONJECTURE: (*_one(1), lambda N: _build_i(2 * N).scale(Fraction(1, math.factorial(2 * N)))),
    Formula.ZETA311: (
        lambda params: not params, "no parameters",
        lambda: _zeta_expr(5).scale(2) - _zeta_expr(2) * _zeta_expr(3),
    ),
}


def takes(name: Formula, params: tuple) -> bool:
    """Whether the closed form ``name`` takes ``params``: its _FORMS rule."""
    return _FORMS[name][0](params)


@lru_cache(maxsize=256)
def build(fid: FormulaId) -> SymbolicExpr:
    """Exact basis expression for any FormulaId, memoised per fid like
    _build_i: an expression is immutable, so the closed and symbolic routes,
    ``--symbolic`` and verify share one build of each form."""
    return _FORMS[fid.name][2](*fid.params)


# ---------------------------------------------------------------------------
# evaluation and rendering
# ---------------------------------------------------------------------------


def _combine_at(expr: SymbolicExpr, prec: int) -> EvalResult:
    terms = [(coeff, [c.value(prec) for c, e in mono for _ in range(e)]) for mono, coeff in expr.terms]
    return combine(terms, prec)


def eval_symbolic(expr: SymbolicExpr, prec: int = 50) -> EvalResult:
    """Evaluate a basis expression over the hp constants through combine(),
    re-evaluated by hp.refine at more working digits until it holds prec
    digits, however deep its terms cancel."""
    return refine(partial(_combine_at, expr), prec)


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def canonical_text(expr: SymbolicExpr) -> str:
    """Deterministic human form, e.g. '1/2*pi^2*zeta3 - 11/2*zeta5'."""
    if expr.is_zero:
        return "0"
    parts = []
    for i, (mono, coeff) in enumerate(expr.terms):
        factors = [f"{c._text()}^{e}" if e > 1 else c._text() for c, e in mono]
        mag = abs(coeff)
        body = "*".join(factors if factors and mag == 1 else [_coeff_text(mag)] + factors)
        sign = ("" if coeff > 0 else "-") if i == 0 else ("+ " if coeff > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts)


def json_terms(expr: SymbolicExpr) -> list:
    """JSON-ready term list mirroring the canonical order."""
    return [
        {
            "coefficient": _coeff_text(coeff),
            "factors": [{"constant": c.kind, "arg": c.arg, "power": e} for c, e in mono],
        }
        for mono, coeff in expr.terms
    ]
