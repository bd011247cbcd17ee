"""Closed-form evaluations: every identity here reduces a nested sum or an
integral to pi powers, log 2, odd zeta values, and Dirichlet beta values.

The central family: with eta(m) = (1 - 2^(1-m)) zeta(m), eta(1) = log 2,

  I(2M+1) = (2M+1)!/2^(2M+1) * sum_(j=0..M)   (-1)^j pi^(2M+1-2j) eta(2j+1)/(2M+1-2j)!
  I(2M)   = (2M)!/2^(2M)     * [sum_(j=0..M-1) (-1)^j pi^(2M-2j) eta(2j+1)/(2M-2j)!
                                + (-1)^M 2 (1 - 2^(-2M-1)) zeta(2M+1)]

for I(N) = integral_0^1 arcsin^N(z)/z dz, and the two theorems that follow
from it by the W-operator argument:

  t(3,{2}^N) = 2^(-(2N+2)) [sum_(j=1..N) (-1)^(j+1) (2j) pi^(2N+2-2j) eta(2j+1)/(2N+2-2j)!
               + (-1)^N 2 (2N+2) (1 - 2^(-2N-3)) zeta(2N+3)]
  zeta(3,{2}^N) = 2 [sum_(j=1..N) (-1)^(j+1) (2j) pi^(2N+2-2j) eta(2j+1)/(2N+3-2j)!
               - (-1)^N (1 - (1 - 2^(-2N-2)) (2N+2)) zeta(2N+3)]

Each formula is written once, as an exact expression in symbolic.build();
every function here validates its parameters and evaluates that expression
through hp.combine(), the package's one bound-propagation rule.  The two
nested-value theorems are also derived from the integral combinations
((pi/2) I(2N+1) - I(2N+2))/(2N+1)!  resp.
2^(2N+4)/(2N+2)! [I(2N+2)/2 - I(2N+3)/pi], and build() refuses to return
unless both derivations are the same element of the constant ring over Q.

The reflections o_reflect / b_reflect stay numeric combinators over a
caller-supplied known side, combined by the same rule.  Every result is
rigorous=True when its inputs are.

Adjudicated coefficients (differences between equivalent published forms are
resolved by exact arithmetic or by >>100x numerical separation; see the
verification suite, which reports each case explicitly):
  * O(4,3): the reflection formula forces pi^4/768 zeta(3); the tabulated
    "pi^4/728" cannot satisfy O(3,4) + O(4,3) = O(3)O(4) + O(7).
  * hoffman_t("t221"): the coefficient of t(2)t(3) is 3/14, not 1/14; only
    3/14 matches t(2,2,1) = I(4)/4! (agreement to ~1e-70; 1/14 is off by 8e-5).
  * b_reflect: the symmetric reflection for the alternating family is
    B(p,q) + B(q,p) = beta(p) beta(q) + O(p+q); the single-value variants
    beta(p+q) / B(p+q) fail numerically at the 1e-3 level.
"""

from __future__ import annotations

from dataclasses import replace

from .hp import EvalResult, Method, beta_fn, combine, t_single
from .symbolic import (
    HOFFMAN_KINDS,
    O_TABLE_PRIMARY,
    Formula,
    FormulaId,
    build,
    eval_symbolic,
)

__all__ = [
    "Formula",
    "FormulaId",
    "i_closed",
    "t_closed",
    "z_closed",
    "mu_closed",
    "o_diag",
    "b_diag",
    "o_reflect",
    "b_reflect",
    "o_table",
    "O_TABLE_PRIMARY",
    "b23_closed",
    "t2s1_conjecture",
    "hoffman_t",
    "HOFFMAN_KINDS",
    "zeta311",
    "evaluate",
]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# the arcsin-integral closed forms
# ---------------------------------------------------------------------------


def i_closed(N: int, prec: int = 50) -> EvalResult:
    """I(N) = integral_0^1 arcsin^N(z)/z dz via the eta/zeta closed form."""
    _require(isinstance(N, int) and N >= 1, f"N >= 1 required, got {N!r}")
    return evaluate(FormulaId(Formula.I_CLOSED, (N,)), prec)


def t_closed(N: int, prec: int = 50) -> EvalResult:
    """t(3,{2}^N) by the eta/zeta summation form, proved equal over Q to the
    integral combination ((pi/2) I(2N+1) - I(2N+2))/(2N+1)!."""
    _require(isinstance(N, int) and N >= 1, f"N >= 1 required, got {N!r}")
    return evaluate(FormulaId(Formula.T322, (N,)), prec)


def z_closed(N: int, prec: int = 50) -> EvalResult:
    """zeta(3,{2}^N) by the summation form, proved equal over Q to
    2^(2N+4)/(2N+2)! [I(2N+2)/2 - I(2N+3)/pi]; N = 0 gives zeta(3)."""
    _require(isinstance(N, int) and N >= 0, f"N >= 0 required, got {N!r}")
    return evaluate(FormulaId(Formula.Z322, (N,)), prec)


def mu_closed(N: int, prec: int = 50) -> EvalResult:
    """mu(2,{1}^(N-1)) = (2^(N+1) - 1) zeta(N+1) / 2^(2N)."""
    _require(isinstance(N, int) and N >= 1, f"N >= 1 required, got {N!r}")
    return evaluate(FormulaId(Formula.E211, (N,)), prec)


# ---------------------------------------------------------------------------
# odd Euler sums: diagonals, reflections, table
# ---------------------------------------------------------------------------


def o_diag(q: int, prec: int = 50) -> EvalResult:
    """O(q,q) = 1/2 [(1 - 2^(-2q)) zeta(2q) + ((1 - 2^(-q)) zeta(q))^2]."""
    _require(isinstance(q, int) and q >= 2, f"q >= 2 required (q = 1 diverges), got {q!r}")
    return evaluate(FormulaId(Formula.O_DIAG, (q,)), prec)


def b_diag(q: int, prec: int = 50) -> EvalResult:
    """B(q,q) = 1/2 [(1 - 2^(-2q)) zeta(2q) + beta(q)^2]."""
    _require(isinstance(q, int) and q >= 2, f"q >= 2 required (q = 1 diverges), got {q!r}")
    return evaluate(FormulaId(Formula.B_DIAG, (q,)), prec)


def _reflect(single, p: int, q: int, known: EvalResult, prec: int) -> EvalResult:
    _require(
        isinstance(p, int) and isinstance(q, int) and p >= 2 and q >= 2,
        f"p, q >= 2 required, got {(p, q)!r}",
    )
    return combine(
        [(1, [single(p, prec), single(q, prec)]), (1, [t_single(p + q, prec)]), (-1, [known])],
        prec,
        Method.CLOSED_FORM,
    )


def o_reflect(p: int, q: int, known: EvalResult, prec: int = 50) -> EvalResult:
    """O(q,p) = O(p) O(q) + O(p+q) - O(p,q), given O(p,q)."""
    return _reflect(t_single, p, q, known, prec)


def b_reflect(p: int, q: int, known: EvalResult, prec: int = 50) -> EvalResult:
    """B(q,p) = beta(p) beta(q) + O(p+q) - B(p,q), given B(p,q).

    The symmetric reading of the alternating reflection: the cross term is
    the plain odd sum O(p+q) = (1 - 2^(-p-q)) zeta(p+q).  (Replacing it with
    beta(p+q) fails numerically at the 1e-3 level; the verification suite
    carries that comparison.)
    """
    return _reflect(beta_fn, p, q, known, prec)


def o_table(p: int, q: int, prec: int = 50) -> EvalResult:
    """Tabulated O(p,q) closed forms: the five primary pairs, and their
    reversals derived through o_reflect (the transcription-safe route).
    Other pairs raise ValueError from FormulaId."""
    return evaluate(FormulaId(Formula.O_TABLE, (p, q)), prec)


def b23_closed(prec: int = 50) -> EvalResult:
    """B(2,3) = 31/64 zeta(5) - 9 pi^2/256 zeta(3) + G pi^3/32 (G = Catalan)."""
    return evaluate(FormulaId(Formula.B23), prec)


# ---------------------------------------------------------------------------
# conjectures and quoted relations
# ---------------------------------------------------------------------------


def t2s1_conjecture(N: int, prec: int = 50) -> EvalResult:
    """Conjectured t({2}^N, 1) = I(2N)/(2N)!; flagged conjectural.

    For N = 1..3 the value agrees with proven t-value relations (see
    hoffman_t); beyond that the identity is checked numerically only.
    """
    _require(isinstance(N, int) and N >= 1, f"N >= 1 required, got {N!r}")
    return evaluate(FormulaId(Formula.T2S1_CONJECTURE, (N,)), prec)


def hoffman_t(kind: str, prec: int = 50) -> EvalResult:
    """The proven relations for t(2,1), t(2,2,1), t(2,2,2,1) in terms of
    single t-values and log 2."""
    _require(kind in HOFFMAN_KINDS, f"kind must be one of {HOFFMAN_KINDS}, got {kind!r}")
    return evaluate(FormulaId(Formula.HOFFMAN_T, (HOFFMAN_KINDS.index(kind) + 1,)), prec)


def zeta311(prec: int = 50) -> EvalResult:
    """zeta(3,1,1) = 2 zeta(5) - zeta(2) zeta(3)."""
    return evaluate(FormulaId(Formula.ZETA311), prec)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def evaluate(fid: FormulaId, prec: int = 50) -> EvalResult:
    """Evaluate any FormulaId (reflections resolve their 'known' side from
    the primary table / the (2,3) alternating closed form)."""
    name, params = fid.name, tuple(fid.params)
    if name is Formula.O_TABLE and params not in O_TABLE_PRIMARY:
        return evaluate(FormulaId(Formula.O_REFLECT, params[::-1]), prec)
    if name is Formula.O_REFLECT:
        return o_reflect(*params, evaluate(FormulaId(Formula.O_TABLE, params), prec), prec)
    if name is Formula.B_REFLECT:
        return b_reflect(*params, b23_closed(prec), prec)
    r = eval_symbolic(build(fid), prec, Method.CLOSED_FORM)
    return replace(r, conjectural=name is Formula.T2S1_CONJECTURE)
