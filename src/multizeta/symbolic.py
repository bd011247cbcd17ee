"""Exact symbolic skeletons of the closed forms, and their one evaluator.

Every closed form in this package lives in the graded ring generated by

    pi (weight 1), log 2 (weight 1), zeta(odd m >= 3) (weight m),
    beta(even m >= 2) (weight m), psi3(1/4) (weight 4, kept opaque)

over the rationals.  Even zeta values are eliminated on sight through
zeta(2k) = (-1)^(k+1) B_(2k) (2 pi)^(2k) / (2 (2k)!), eta values through
eta(m) = (1 - 2^(1-m)) zeta(m) with eta(1) = log 2, and beta at odd argument
through beta(2k+1) = (-1)^k E_(2k) pi^(2k+1) / (4^(k+1) (2k)!).  What
remains is a normalized list of monomials with Fraction coefficients, which
makes structural facts checkable exactly: weight homogeneity, the (-1)^N
sign pattern of the zeta(2N+3) coefficient, and the exact cancellation of
log 2 when the arcsin-integral combinations assemble t(3,{2}^N) and
zeta(3,{2}^N).

build() is the only definition of each closed form in the package;
closed.evaluate() evaluates what it returns.  t(3,{2}^N) and
zeta(3,{2}^N) are derived twice, from the eta/zeta summation form and from
the arcsin-integral combination, and build() raises RuntimeError unless the
two expressions are equal over Q -- a transcription slip in either formula
cannot reach a printed digit.

eval_symbolic() evaluates an expression by feeding the basis constants of
its monomials to hp.combine(), the package's one bound-propagation rule,
and evaluates it once more with more digits when cancellation leaves it
short of the digits asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .hp import (
    EvalResult,
    bernoulli_fraction,
    beta_fn,
    combine,
    digits_short,
    euler_number,
    log2_const,
    pi_const,
    psi3_quarter,
    zeta_single,
)

__all__ = [
    "Formula",
    "FormulaId",
    "O_TABLE_PRIMARY",
    "BasisConstant",
    "SymbolicExpr",
    "PI",
    "LOG2",
    "zeta_odd",
    "beta_even",
    "PSI3Q",
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
    O_DIAG = "ODiag"
    B_DIAG = "BDiag"
    B_REFLECT = "BReflect"
    O_TABLE = "OTable"
    B23 = "B23"
    T2S1_CONJECTURE = "T2s1Conjecture"
    HOFFMAN_T = "HoffmanT"
    ZETA311 = "Zeta311"


# primary odd-Euler table entries: exact terms (coeff, pi power, zeta index);
# zeta(2) in the (2,3) row is already rewritten as pi^2/6
O_TABLE_PRIMARY: dict[tuple[int, int], tuple[tuple[Fraction, int, int], ...]] = {
    (2, 3): (
        (Fraction(31, 64), 0, 5),
        (Fraction(3, 64), 2, 3),
    ),
    (3, 4): (
        (Fraction(1, 128), 4, 3),
        (Fraction(-5, 128), 2, 5),
        (Fraction(127, 256), 0, 7),
    ),
    (4, 5): (
        (Fraction(5, 3072), 4, 5),
        (Fraction(105, 3072), 2, 7),
        (Fraction(511, 1024), 0, 9),
    ),
    (5, 6): (
        (Fraction(1, 1024), 6, 5),
        (Fraction(-7, 4096), 4, 7),
        (Fraction(-63, 2048), 2, 9),
        (Fraction(2047, 4096), 0, 11),
    ),
    (6, 7): (
        (Fraction(7, 122880), 6, 7),
        (Fraction(7, 4096), 4, 9),
        (Fraction(231, 8192), 2, 11),
        (Fraction(8191, 16384), 0, 13),
    ),
}

# Hoffman's proven t-value relations; keys are the number of leading 2s.
# The t(2)t(3) coefficient in the depth-3 relation is 3/14: 1/14 fails the
# I(4)/4! cross-check by 8e-5, 3/14 matches it to full precision.
_HOFFMAN_TERMS: dict[int, tuple[tuple[Fraction, tuple[int, ...], int], ...]] = {
    # (coefficient, t-value factors, power of log 2)
    1: (
        (Fraction(1, 1), (2,), 1),
        (Fraction(-1, 2), (3,), 0),
    ),
    2: (
        (Fraction(1, 8), (5,), 0),
        (Fraction(-3, 14), (2, 3), 0),
        (Fraction(1, 4), (4,), 1),
    ),
    3: (
        (Fraction(-1, 32), (7,), 0),
        (Fraction(-3, 56), (3, 4), 0),
        (Fraction(15, 248), (2, 5), 0),
        (Fraction(1, 48), (6,), 1),
    ),
}


def _check_params(name: Formula, params: tuple[int, ...]) -> None:
    if name in (Formula.I_CLOSED, Formula.T322, Formula.E211, Formula.T2S1_CONJECTURE):
        if len(params) != 1 or params[0] < 1:
            raise ValueError(f"{name.value} takes one parameter N >= 1, got {params}")
    elif name is Formula.Z322:
        if len(params) != 1 or params[0] < 0:
            raise ValueError(f"{name.value} takes one parameter N >= 0, got {params}")
    elif name in (Formula.O_DIAG, Formula.B_DIAG):
        if len(params) != 1 or params[0] < 2:
            raise ValueError(f"{name.value} takes one parameter q >= 2, got {params}")
    elif name is Formula.O_TABLE:
        if tuple(params) not in O_TABLE_PRIMARY and tuple(params[::-1]) not in O_TABLE_PRIMARY:
            raise ValueError(
                f"{name.value}: supported (p, q) are the tabulated pairs "
                f"{sorted(O_TABLE_PRIMARY)} and their reversals, got {params}"
            )
    elif name is Formula.B_REFLECT:
        if tuple(params) != (2, 3):
            raise ValueError(
                f"{name.value}: the only alternating pair with a closed form is (2, 3), got {params}"
            )
    elif name is Formula.HOFFMAN_T:
        if len(params) != 1 or not 1 <= params[0] <= 3:
            raise ValueError(
                f"{name.value} takes one parameter in 1..3 (the number of leading 2s), got {params}"
            )
    elif name in (Formula.B23, Formula.ZETA311):
        if params:
            raise ValueError(f"{name.value} takes no parameters, got {params}")
    else:  # pragma: no cover
        raise ValueError(f"unknown formula {name!r}")


@dataclass(frozen=True)
class FormulaId:
    """A closed-form family plus its integer parameters."""

    name: Formula
    params: tuple[int, ...] = ()

    def __post_init__(self):
        _check_params(self.name, tuple(self.params))


_KINDS = ("pi", "log2", "zeta_odd", "beta_even", "psi3_quarter")
_KIND_ORDER = {k: i for i, k in enumerate(_KINDS)}


@dataclass(frozen=True, order=True)
class BasisConstant:
    """A generator of the constant ring; arg is 0 except for the zeta/beta
    families, where it is the (parity-checked) argument."""

    kind: str
    arg: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "zeta_odd":
            if self.arg < 3 or self.arg % 2 == 0:
                raise ValueError(f"zeta_odd needs odd arg >= 3, got {self.arg}")
        elif self.kind == "beta_even":
            if self.arg < 2 or self.arg % 2:
                raise ValueError(f"beta_even needs even arg >= 2, got {self.arg}")
        elif self.arg != 0:
            raise ValueError(f"{self.kind} takes no argument, got {self.arg}")

    @property
    def weight(self) -> int:
        if self.kind in ("pi", "log2"):
            return 1
        if self.kind == "psi3_quarter":
            return 4
        return self.arg

    def _sort_key(self):
        return (_KIND_ORDER[self.kind], self.arg)

    def _text(self) -> str:
        if self.kind == "pi":
            return "pi"
        if self.kind == "log2":
            return "log2"
        if self.kind == "zeta_odd":
            return f"zeta{self.arg}"
        if self.kind == "beta_even":
            return f"beta{self.arg}"
        return "psi3q"


PI = BasisConstant("pi")
LOG2 = BasisConstant("log2")
PSI3Q = BasisConstant("psi3_quarter")


def zeta_odd(m: int) -> BasisConstant:
    return BasisConstant("zeta_odd", m)


def beta_even(m: int) -> BasisConstant:
    return BasisConstant("beta_even", m)


# a monomial is a sorted tuple of (BasisConstant, positive exponent)
Monomial = tuple


def _mono_sorted(pairs) -> Monomial:
    merged: dict[BasisConstant, int] = {}
    for c, e in pairs:
        if e:
            merged[c] = merged.get(c, 0) + e
    for c, e in merged.items():
        if e < 0:
            raise ValueError(f"negative exponent on {c!r}")
    return tuple(sorted(((c, e) for c, e in merged.items() if e), key=lambda p: p[0]._sort_key()))


def _mono_weight(mono: Monomial) -> int:
    return sum(c.weight * e for c, e in mono)


def _mono_pi_exp(mono: Monomial) -> int:
    for c, e in mono:
        if c.kind == "pi":
            return e
    return 0


def _term_sort_key(item):
    mono, _ = item
    rest = tuple((c._sort_key(), e) for c, e in mono if c.kind != "pi")
    return (-_mono_pi_exp(mono), rest)


@dataclass(frozen=True)
class SymbolicExpr:
    """Normalized rational combination of basis monomials.

    terms is canonically ordered (descending pi power, then the remaining
    factors), holds no zero coefficients and no duplicate monomials, so
    structural equality is just dataclass equality.
    """

    terms: tuple = ()

    def __post_init__(self):
        seen = set()
        for mono, coeff in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficient survived normalization")
            if mono in seen:
                raise ValueError("duplicate monomial survived normalization")
            seen.add(mono)
        if list(self.terms) != sorted(self.terms, key=_term_sort_key):
            raise ValueError("terms not in canonical order")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_dict(d: dict) -> "SymbolicExpr":
        items = [(m, c) for m, c in d.items() if c != 0]
        items.sort(key=_term_sort_key)
        return SymbolicExpr(tuple(items))

    @classmethod
    def zero(cls) -> "SymbolicExpr":
        return cls(())

    @classmethod
    def rational(cls, c) -> "SymbolicExpr":
        c = Fraction(c)
        return cls._from_dict({(): c})

    @classmethod
    def atom(cls, const: BasisConstant, exp: int = 1, coeff=1) -> "SymbolicExpr":
        return cls._from_dict({_mono_sorted([(const, exp)]): Fraction(coeff)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SymbolicExpr") -> "SymbolicExpr":
        d = {m: c for m, c in self.terms}
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return SymbolicExpr._from_dict(d)

    def __sub__(self, other: "SymbolicExpr") -> "SymbolicExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "SymbolicExpr":
        c = Fraction(c)
        if c == 0:
            return SymbolicExpr.zero()
        return SymbolicExpr._from_dict({m: k * c for m, k in self.terms})

    def __mul__(self, other: "SymbolicExpr") -> "SymbolicExpr":
        d: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_sorted(list(m1) + list(m2))
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return SymbolicExpr._from_dict(d)

    def divide_by_pi(self) -> "SymbolicExpr":
        """Divide every monomial by pi; raises if any term lacks a pi factor."""
        d: dict = {}
        for mono, c in self.terms:
            if _mono_pi_exp(mono) < 1:
                raise ValueError(f"term {c} * {mono} has no pi factor to cancel")
            pairs = [(cc, e - 1 if cc.kind == "pi" else e) for cc, e in mono]
            d[_mono_sorted(pairs)] = c
        return SymbolicExpr._from_dict(d)

    # -- inspection --------------------------------------------------------

    def coefficient_of(self, *pairs) -> Fraction:
        """Coefficient of the monomial prod const^exp (pairs of (const, exp))."""
        target = _mono_sorted(pairs)
        for m, c in self.terms:
            if m == target:
                return c
        return Fraction(0)

    def weights(self) -> set:
        return {_mono_weight(m) for m, _ in self.terms}

    @property
    def is_zero(self) -> bool:
        return not self.terms


def weight_check(expr: SymbolicExpr, expected: int) -> bool:
    """True iff every monomial of expr has total weight == expected."""
    return expr.weights() <= {expected}


# ---------------------------------------------------------------------------
# rewrites into the basis
# ---------------------------------------------------------------------------


def zeta_even_rational(m: int) -> Fraction:
    """zeta(2k) / pi^(2k) as an exact rational."""
    if m < 2 or m % 2:
        raise ValueError(f"even m >= 2 required, got {m}")
    k = m // 2
    return Fraction((-1) ** (k + 1)) * bernoulli_fraction(2 * k) * Fraction(2 ** (2 * k), 2 * math.factorial(2 * k))


def beta_odd_rational(m: int) -> Fraction:
    """beta(2k+1) / pi^(2k+1) as an exact rational."""
    if m < 1 or m % 2 == 0:
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
    if m < 2:
        raise ValueError(f"m >= 2 required, got {m}")
    return _zeta_expr(m).scale(1 - Fraction(1, 2 ** m))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_i(N: int) -> SymbolicExpr:
    acc = SymbolicExpr.zero()
    if N % 2:
        M = (N - 1) // 2
        js = range(M + 1)
    else:
        M = N // 2
        js = range(M)
    for j in js:
        c = Fraction((-1) ** j * math.factorial(N), 2 ** N * math.factorial(N - 2 * j))
        acc = acc + (SymbolicExpr.atom(PI, N - 2 * j) * _eta_expr(2 * j + 1)).scale(c)
    if N % 2 == 0:
        c = Fraction((-1) ** M * math.factorial(N) * (2 ** (2 * M + 1) - 1), 2 ** N * 2 ** (2 * M))
        acc = acc + _zeta_expr(N + 1).scale(c)
    return acc


def _eta_sum(N: int, top: int) -> SymbolicExpr:
    # sum_(j=1..N) (-1)^(j+1) (2j) pi^(2N+2-2j) eta(2j+1)/(top-2j)!
    acc = SymbolicExpr.zero()
    for j in range(1, N + 1):
        c = Fraction((-1) ** (j + 1) * 2 * j, math.factorial(top - 2 * j))
        acc = acc + (SymbolicExpr.atom(PI, 2 * N + 2 - 2 * j) * _eta_expr(2 * j + 1)).scale(c)
    return acc


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
    acc = SymbolicExpr.zero()
    for c, a, m in terms:
        term = SymbolicExpr.atom(PI, a, Fraction(c))
        acc = acc + (term * _zeta_expr(m) if m else term)
    return acc


def _build_o_table(p: int, q: int) -> SymbolicExpr:
    if (p, q) in O_TABLE_PRIMARY:
        return pi_zeta_expr(O_TABLE_PRIMARY[(p, q)])
    # a reversed entry, by the reflection O(p,q) = O(p) O(q) + O(p+q) - O(q,p)
    reflected = pi_zeta_expr(O_TABLE_PRIMARY[(q, p)])
    return t_single_expr(p) * t_single_expr(q) + t_single_expr(p + q) - reflected


def _build_b23() -> SymbolicExpr:
    return (
        SymbolicExpr.atom(zeta_odd(5), coeff=Fraction(31, 64))
        + (SymbolicExpr.atom(PI, 2) * SymbolicExpr.atom(zeta_odd(3))).scale(Fraction(-9, 256))
        + (SymbolicExpr.atom(PI, 3) * _beta_expr(2)).scale(Fraction(1, 32))
    )


def _build_hoffman(depth: int) -> SymbolicExpr:
    acc = SymbolicExpr.zero()
    for c, t_args, log_pow in _HOFFMAN_TERMS[depth]:
        term = SymbolicExpr.rational(c)
        for m in t_args:
            term = term * t_single_expr(m)
        if log_pow:
            term = term * SymbolicExpr.atom(LOG2, log_pow)
        acc = acc + term
    return acc


def build(fid: FormulaId) -> SymbolicExpr:
    """Exact basis expression for any FormulaId."""
    name, params = fid.name, tuple(fid.params)
    if name is Formula.I_CLOSED:
        return _build_i(params[0])
    if name is Formula.T322:
        N = params[0]
        return _assert_same_form(f"t(3,{{2}}^{N})", _t322_summation(N), _t322_integral(N))
    if name is Formula.Z322:
        N = params[0]
        return _assert_same_form(f"zeta(3,{{2}}^{N})", _z322_summation(N), _z322_integral(N))
    if name is Formula.E211:
        N = params[0]
        return _zeta_expr(N + 1).scale(Fraction(2 ** (N + 1) - 1, 2 ** (2 * N)))
    if name is Formula.O_DIAG:
        q = params[0]
        t = t_single_expr(q)
        return (_zeta_expr(2 * q).scale(1 - Fraction(1, 4 ** q)) + t * t).scale(Fraction(1, 2))
    if name is Formula.B_DIAG:
        q = params[0]
        b = _beta_expr(q)
        return (_zeta_expr(2 * q).scale(1 - Fraction(1, 4 ** q)) + b * b).scale(Fraction(1, 2))
    if name is Formula.B_REFLECT:
        # B(3,2) = beta(2) beta(3) + O(5) - B(2,3); the Catalan monomials cancel
        return _beta_expr(2) * _beta_expr(3) + t_single_expr(5) - _build_b23()
    if name is Formula.O_TABLE:
        return _build_o_table(*params)
    if name is Formula.B23:
        return _build_b23()
    if name is Formula.T2S1_CONJECTURE:
        N = params[0]
        return _build_i(2 * N).scale(Fraction(1, math.factorial(2 * N)))
    if name is Formula.HOFFMAN_T:
        return _build_hoffman(params[0])
    if name is Formula.ZETA311:
        return _zeta_expr(5).scale(2) - _zeta_expr(2) * _zeta_expr(3)
    raise ValueError(f"unknown formula {name!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# evaluation and rendering
# ---------------------------------------------------------------------------


def _const_value(c: BasisConstant, prec: int) -> EvalResult:
    if c.kind == "pi":
        return pi_const(prec)
    if c.kind == "log2":
        return log2_const(prec)
    if c.kind == "zeta_odd":
        return zeta_single(c.arg, prec)
    if c.kind == "beta_even":
        return beta_fn(c.arg, prec)
    return psi3_quarter(prec)


def _combine_at(expr: SymbolicExpr, prec: int) -> EvalResult:
    return combine(
        [
            (coeff, [_const_value(c, prec) for c, e in mono for _ in range(e)])
            for mono, coeff in expr.terms
        ],
        prec,
    )


def eval_symbolic(expr: SymbolicExpr, prec: int = 50) -> EvalResult:
    """Evaluate a basis expression over the hp constants through combine().

    Cancellation between terms costs log10(max|term| / |value|) digits,
    whatever the working precision, so a result short of prec digits is
    evaluated once more with that many digits added, and one to spare.
    """
    r = _combine_at(expr, prec)
    short = digits_short(r, prec)
    return _combine_at(expr, prec + short + 1) if short else r


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
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_coeff_text(mag)] + factors)
        if i == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def json_terms(expr: SymbolicExpr) -> list:
    """JSON-ready term list mirroring the canonical order."""
    out = []
    for mono, coeff in expr.terms:
        out.append(
            {
                "coefficient": _coeff_text(coeff),
                "factors": [
                    {"constant": c.kind, "arg": c.arg, "power": e} for c, e in mono
                ],
            }
        )
    return out
