"""Cross-verification suites: every identity this package implements is
checked here by at least two independent routes, and every place where a
published form needed adjudication gets an explicit, machine-readable row.

A row is data: (id, description, left, right[, tolerance[, mode]]).  A side
is one of
  * a route reference (quantity, params, method), resolved through
    ``routes.routes``, the table the CLI serves, so a row certifies the
    route the CLI runs for that request;
  * an exact basis expression (``pi_zeta_expr``, or a built form plus one),
    for the rejected variants;
  * a decimal string, the value the paper prints, read at 40 digits;
  * a combination ((coefficient, (side, ...)), ...), evaluated by
    ``hp.combine``.
Each distinct side is evaluated once per run, the series sides first (in
combinations too) in one ``routes.series_values`` batch that shares their
words' chains, and a lone route side is used as the route returns it.
Rows 07-09 hold closed forms against the paper's arcsine integrals written
as words, rows 24-25 against the series words that the log-polylog kernel
pair's words reduce to over Q, so no row integrates numerically: the
quadrature routes are checked by ``--method all`` and the tests.  Every row
but the Wallis row (30), which is short code beside the table, is data.

Two row modes:
  match     pass  <=>  |left - right| <= tolerance   (the default)
  separate  pass  <=>  |left - right| >= tolerance

The tolerance is one of
  * none: the row has the sum of its sides' error bounds as its tolerance
    and passes when ``EvalResult.agrees_with`` does, so its verdict depends
    on no working precision and holds at every precision the results are
    computed at;
  * a decimal string, the fixed distance a rejected variant must keep, or
    for the printed-decimal rows (01-05) one unit in the printed decimal's
    last place;
  * (k, a, b): k times the summed bounds of sides a and b, which need not be
    the row's own (row 19 holds its variant 100 bounds of O(4,3)'s series
    and closed routes away).
Row 30's two sides, the Wallis factors and the arccos moments of one
truncated polynomial, are exact in Q + Q*pi and evaluated by ``hp.combine``.
Differences are exact; every number is reported to 20 significant digits.

Separation rows pin the *rejected* variants of formulas that circulate with
transcription slips.  A verification that only confirmed the good variant
could silently rot into confirming the bad one after an edit; keeping the
rejected variant in the report, with the distance it fails by, makes the
adjudication reproducible:

  * t(3,{2}^3): the trailing-zeta coefficient is -511/8192; the "+" variant
    misses by ~0.125.
  * B(3,3): the diagonal formula gives 31 pi^6/30720; the also-published
    decimal 1937 pi^6/1935360 is off by ~8e-3.
  * t(2,2,1): the t(2)t(3) coefficient is 3/14; 1/14 misses by ~8e-5.
  * O(4,3): the reflection forces pi^4/768 zeta(3); pi^4/728 misses the
    series by >100x the combined error bounds.
  * duality for the alternating family: the cross term is O(p+q); the
    single-value beta(p+q) variant misses by ~1e-3.

The conjecture suite compares the closed route of t({2}^N,1), the
conjectured I(2N)/(2N)!, with its nested odd series for N = 1..5; every row
is flagged conjectural, so callers decide whether its failure gates anything.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from mpmath import mp, mpf

from .hp import LOCK, EvalResult, bound_sum, coerce_prec, combine, gap
from .routes import routes, series_values
from .symbolic import Formula, FormulaId, SymbolicExpr, build, eval_symbolic, pi_zeta_expr
from .wseries import arcsin_power_series, wallis_identity_check

__all__ = ["Check", "VerifyReport", "run_suite", "SUITES"]

SUITES = ("paper", "conjectures", "all")

_FMT_DIGITS = 20


def check_cutoff(cutoff) -> None:
    """The one check of ``--cutoff``, which the CLI and ``run_suite`` accept
    for compatibility and no route reads: an integer >= 10."""
    if not isinstance(cutoff, int) or cutoff < 10:
        raise ValueError(f"cutoff must be an integer >= 10, got {cutoff!r}")


def _fmt(x: mpf) -> str:
    with LOCK, mp.workdps(_FMT_DIGITS + 10):
        return mp.nstr(mpf(x), _FMT_DIGITS)


@dataclass(frozen=True)
class Check:
    """One verification row; numeric fields are decimal strings so the
    report renders and serializes identically everywhere."""

    check_id: str
    description: str
    left: str
    right: str
    difference: str
    tolerance: str
    passed: bool
    conjectural: bool = False
    mode: str = "match"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    precision: int
    cutoff: int
    checks: tuple

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed_blocking(self) -> int:
        return sum(1 for c in self.checks if not c.passed and not c.conjectural)

    @property
    def failed_conjectural(self) -> int:
        return sum(1 for c in self.checks if not c.passed and c.conjectural)

    def all_passed(self, strict_conjectures: bool = False) -> bool:
        if strict_conjectures:
            return self.failed_blocking == 0 and self.failed_conjectural == 0
        return self.failed_blocking == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "precision_digits": self.precision,
            "cutoff": self.cutoff,
            "checks": [c.to_dict() for c in self.checks],
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.failed_blocking,
                "failed_conjectural": self.failed_conjectural,
            },
        }

    def render_table(self) -> str:
        lines = []
        lines.append("=" * 100)
        lines.append(
            f" verification suite: {self.suite}   prec={self.precision}   cutoff={self.cutoff}"
        )
        lines.append("=" * 100)
        lines.append(
            f"{'id':<28}{'mode':<10}{'|difference|':<26}{'tolerance':<26}{'status':<8}"
        )
        lines.append("-" * 100)
        for c in self.checks:
            status = "PASS" if c.passed else ("fail*" if c.conjectural else "FAIL")
            lines.append(
                f"{c.check_id:<28}{c.mode:<10}{c.difference:<26}{c.tolerance:<26}{status:<8}"
            )
            lines.append(f"    {c.description}")
        lines.append("-" * 100)
        tail = f" {self.passed}/{self.total} passed"
        if self.failed_conjectural:
            tail += f", {self.failed_conjectural} conjectural failure(s) (non-blocking)"
        if self.failed_blocking:
            tail += f", {self.failed_blocking} BLOCKING failure(s)"
        lines.append(tail)
        lines.append("=" * 100)
        return "\n".join(lines)


def _as_mpf(x) -> mpf:
    # never re-round an existing mpf at ambient precision: mpf(x) on an mpf
    # truncates its mantissa to the current context
    if isinstance(x, EvalResult):
        return x.value.magnitude
    if isinstance(x, mpf):
        return x
    with LOCK, mp.workdps(_FMT_DIGITS + 10):
        return mpf(x)


def _row(check_id: str, description: str, left, right, tolerance=None,
         conjectural: bool = False, mode: str = "match") -> Check:
    """One row.  Without a tolerance the two results must agree within their
    bounds (EvalResult.agrees_with), and the row reports the bounds' sum as
    its tolerance; with one, the exact difference is held against it."""
    lv, rv = _as_mpf(left), _as_mpf(right)
    diff = gap(lv, rv)
    if tolerance is None:
        tol, passed = bound_sum(left, right), left.agrees_with(right)
    else:
        tol = _as_mpf(tolerance)
        passed = bool(diff <= tol) if mode == "match" else bool(diff >= tol)
    return Check(check_id, description, _fmt(lv), _fmt(rv), _fmt(diff), _fmt(tol), passed,
                 conjectural, mode)


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def _ref(quantity: str, *params, method: str = "closed") -> tuple:
    return (quantity, params, method)


def _const(name: str, arg: int = 0) -> tuple:
    return _ref("constants", name, arg)


def _series(quantity: str, *params) -> tuple:
    return _ref(quantity, *params, method="series")


_PI = _const("pi")
_T = {i: _const("t", i) for i in (2, 3, 4, 5, 7)}
_O23 = _ref("oddsum", "O", 2, 3)
_O43 = _ref("oddsum", "O", 4, 3)
_O43_SERIES = _series("oddsum", "O", 4, 3)
_B33 = _ref("oddsum", "B", 3, 3)
_T221 = _ref("tvalue", 2, 2, 1)
_B_REFLECTION = ((1, (_series("oddsum", "B", 2, 3),)), (1, (_series("oddsum", "B", 3, 2),)))
_BETA23 = (_const("beta", 2), _const("beta", 3))
_ZETA311_SERIES = _series("zeta", 3, 1, 1)
# the monomials of the psi3(1/4) forms: pi^2 zeta(3), zeta(5), pi^5, pi psi3(1/4)
_PSI_MONOMIALS = ((_PI, _PI, _const("zeta", 3)), (_const("zeta", 5),), (_PI,) * 5,
                  (_PI, _const("psi3_quarter")))

# (id, description, left, right[, tolerance[, mode]])
_PAPER_ROWS = (
    # the paper's printed decimals, to one unit in their last place
    ("01-printed-z1", "zeta(3,2) closed form vs printed decimal",
     _ref("zeta", 3, 2), "0.22881039", "1e-8"),
    ("02-printed-z2", "zeta(3,2,2) closed form vs printed decimal",
     _ref("zeta", 3, 2, 2), "0.02912562", "1e-8"),
    ("03-printed-z3", "zeta(3,2,2,2) closed form vs printed decimal",
     _ref("zeta", 3, 2, 2, 2), "0.00252145", "1e-8"),
    ("04-printed-t2", "t(3,2,2) closed form vs printed decimal",
     _ref("tvalue", 3, 2, 2), "0.002109185", "1e-9"),
    ("05-printed-t3", "t(3,2,2,2) closed form vs printed decimal",
     _ref("tvalue", 3, 2, 2, 2), "0.00005499616", "1e-11"),
    # adjudication: the trailing-zeta sign in t(3,{2}^3)
    ("06-t3-tail-sign", "rejected '+511/8192 zeta(9)' variant of t(3,2,2,2) stays far away",
     _ref("tvalue", 3, 2, 2, 2),
     pi_zeta_expr([("1/122880", 6, 3), ("-5/8192", 4, 5), ("189/16384", 2, 7), ("511/8192", 0, 9)]),
     "0.1", "separate"),
    # closed forms vs the paper's arcsine integrals written as words
    ("07-kernel-t1", "t(3,{2}^1) closed form vs its arcsin-kernel integral as words",
     _ref("tvalue", 3, 2), _series("arcsin_kernel", "t", 1)),
    ("08-kernel-t2", "t(3,{2}^2) closed form vs its arcsin-kernel integral as words",
     _ref("tvalue", 3, 2, 2), _series("arcsin_kernel", "t", 2)),
    ("09-arcsin-integral-5", "I(5) closed form vs its integral as words",
     _ref("integral", "I", 5), _series("arcsin_kernel", "I", 5)),
    # reflection (duality) identities
    ("10-duality1-23", "O(2,3) + O(3,2) = O(2) O(3) + O(5) at the closed-form level",
     ((1, (_O23,)), (1, (_ref("oddsum", "O", 3, 2),))),
     ((1, (_T[2], _T[3])), (1, (_T[5],)))),
    ("11-duality1-series-34", "O(3,4) + O(4,3) = O(3) O(4) + O(7) at the series level",
     ((1, (_series("oddsum", "O", 3, 4),)), (1, (_O43_SERIES,))),
     ((1, (_T[3], _T[4])), (1, (_T[7],)))),
    ("12-duality2-sym-23", "B(2,3) + B(3,2) = beta(2) beta(3) + O(5) (symmetric cross term)",
     _B_REFLECTION, ((1, _BETA23), (1, (_T[5],)))),
    ("13-duality2-single-variant", "rejected single-value cross term beta(5) stays far from the series",
     _B_REFLECTION, ((1, _BETA23), (1, (_const("beta", 5),))), "1e-4", "separate"),
    # adjudication: the B(3,3) diagonal
    ("14-b33-formula", "B(3,3) diagonal formula equals 31 pi^6/30720",
     _B33, pi_zeta_expr([("31/30720", 6, 0)])),
    ("15-b33-printed", "rejected printed value 1937 pi^6/1935360 stays far away",
     _B33, pi_zeta_expr([("1937/1935360", 6, 0)]), "1e-3", "separate"),
    # adjudication: the t(2,2,1) coefficient
    ("16-t221-coeff", "rejected 1/14 coefficient variant of t(2,2,1) stays far away",
     _T221, (("1/8", (_T[5],)), ("-1/14", (_T[2], _T[3])), ("1/4", (_T[4], _const("log2")))),
     "1e-5", "separate"),
    ("17-t221-series", "t(2,2,1) relation vs the nested odd series",
     _T221, _series("tvalue", 2, 2, 1)),
    # adjudication: the O(4,3) table head coefficient
    ("18-o43-table", "O(4,3) series vs table entry with pi^4/768 zeta(3)", _O43_SERIES, _O43),
    ("19-o43-variant", "rejected pi^4/728 zeta(3) variant misses by >100x the combined bounds",
     _O43_SERIES,  # the derived O(4,3) with its pi^4/768 head swapped for pi^4/728
     build(FormulaId(Formula.O_SUM, (4, 3))) + pi_zeta_expr([("1/728", 4, 3), ("-1/768", 4, 3)]),
     (100, _O43_SERIES, _O43), "separate"),
    # zeta(3,1,1) and its non-strict triple-sum decomposition
    ("20-zeta311-series", "zeta(3,1,1) = 2 zeta(5) - zeta(2) zeta(3) vs nested series",
     _ref("zeta", 3, 1, 1), _ZETA311_SERIES),
    ("21-zeta311-triple",
     "sum_{m>n>=k} 1/(m^3 n k) = zeta(3,1,1) + zeta(3,2) = 2 zeta(2) zeta(3) - 7/2 zeta(5)",
     ((1, (_ZETA311_SERIES,)), (1, (_series("zeta", 3, 2),))),
     pi_zeta_expr([("1/3", 2, 3), ("-7/2", 0, 5)])),  # 2 z2 z3 - 7/2 z5
    # telescoping families
    ("22-mzv-ones-3", "zeta(2,1,1) = zeta(4)", _series("zeta", 2, 1, 1), _const("zeta", 4)),
    ("23-bigT-ones-3", "T(2,1,1) = T(4) = 2 (1 - 2^-4) zeta(4)",
     _series("bigT", 2, 1, 1), _ref("bigT", 4)),
    # log-polylog kernel orientation: the pair's words reduce to the series words
    ("24-kernel-O23", "odd-denominator log-polylog kernel pair, as words, reproduces O(2,3)",
     _series("oddsum", "O", 2, 3), _O23),
    ("25-kernel-B23", "even-denominator log-polylog kernel pair, as words, reproduces B(2,3)",
     _series("oddsum", "B", 2, 3), _ref("oddsum", "B", 2, 3)),
    # alternating even-index harmonic sums vs psi3(1/4) forms
    ("26-valean-H2n", "sum (-1)^(n-1) H_{2n}/n^4 vs its psi3(1/4) closed form",
     ("valean", "H2n_over_n4", "series"),
     tuple(zip(("-1/3", "-437/64", "-1/24", "1/192"), _PSI_MONOMIALS))),
    ("27-valean-H2n2", "sum (-1)^(n-1) H_{2n}^(2)/n^3 vs its psi3(1/4) closed form",
     ("valean", "H2n2_over_n3", "series"),
     tuple(zip(("61/192", "1973/128", "1/16", "-1/128"), _PSI_MONOMIALS))),
    # central-binomial sum (geometric tail, so full precision is cheap)
    ("28-cb-lehmer", "sum 1/(n^2 binom(2n,n)) = zeta(2)/3",
     _series("cbsum", "inverse_square"), pi_zeta_expr([("1/18", 2, 0)])),
    ("29-mu-series-2", "mu(2,1) nested parity series vs (2^3-1) zeta(3)/2^4",
     _series("mu", 2, 1), _ref("mu", 2, 1)),
)

# the conjecture t({2}^N,1) = I(2N)/(2N)!
_CONJECTURE_ROWS = tuple(
    (f"c0{N}-t2s1-{N}", f"conjectured t({{2}}^{N},1) vs the nested odd series",
     _ref("tvalue", *(2,) * N, 1), _series("tvalue", *(2,) * N, 1))
    for N in range(1, 6)
)


def _evaluate(side, prec: int, seen: dict) -> EvalResult | mpf:
    """The result a row side stands for; ``seen`` keeps each one evaluated."""
    if side not in seen:
        if isinstance(side, str):  # a printed decimal
            with LOCK, mp.workdps(40):
                seen[side] = mpf(side)
        elif isinstance(side, SymbolicExpr):
            seen[side] = eval_symbolic(side, prec)
        elif isinstance(side[0], str):  # (quantity, params, method)
            quantity, params, method = side
            seen[side] = routes(quantity, params, prec)[method]()
        else:  # ((coefficient, (side, ...)), ...)
            terms = [(c, [_evaluate(f, prec, seen) for f in fs]) for c, fs in side]
            seen[side] = combine(terms, prec)
    return seen[side]


def _series_refs(node):
    """The series route references nested anywhere in rows or sides."""
    if isinstance(node, tuple) and node[2:] == ("series",) and isinstance(node[0], str):
        yield node
    elif isinstance(node, tuple):
        for item in node:
            yield from _series_refs(item)


def _series_batch(rows, prec: int) -> dict:
    """Each series side the rows name -> its result, from one batch."""
    refs = list(dict.fromkeys(_series_refs(rows)))
    return dict(zip(refs, series_values([ref[:2] for ref in refs], prec)))


def _checks(rows, prec: int, seen: dict, conjectural: bool = False) -> list:
    checks = []
    for cid, description, left, right, *rest in rows:
        tolerance, mode = rest + [None, "match"][len(rest):]
        if isinstance(tolerance, tuple):  # (k, side a, side b): k (e_a + e_b)
            k, a, b = tolerance
            sides = _evaluate(a, prec, seen), _evaluate(b, prec, seen)
            tolerance = mp.fmul(k, bound_sum(*sides), exact=True)
        left, right = _evaluate(left, prec, seen), _evaluate(right, prec, seen)
        checks.append(_row(cid, description, left, right, tolerance, conjectural, mode))
    return checks


def _paper_checks(prec: int, seen: dict) -> list:
    checks = _checks(_PAPER_ROWS, prec, seen)
    lhs_w, rhs_w = wallis_identity_check(arcsin_power_series(2, 80), 1, prec)
    checks.append(
        _row("30-wallis-arcsin", "W-operator identity for arcsin^2/2! at alpha = 1", lhs_w, rhs_w)
    )
    return checks


def run_suite(suite: str = "all", prec: int = 50, cutoff: int = 10 ** 6) -> VerifyReport:
    """Run a verification suite and return the ordered report.

    ``cutoff`` is accepted for compatibility, validated and echoed in the
    report; it has no effect, since every series row is evaluated by
    ``nested_values`` or a geometric sum that needs no cutoff.
    """
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    check_cutoff(cutoff)
    coerce_prec(prec)
    paper, conjectures = suite != "conjectures", suite != "paper"
    checks, seen = [], _series_batch(_PAPER_ROWS * paper + _CONJECTURE_ROWS * conjectures, prec)
    if paper:
        checks.extend(_paper_checks(prec, seen))
    if conjectures:
        checks.extend(_checks(_CONJECTURE_ROWS, prec, seen, conjectural=True))
    checks.sort(key=lambda c: c.check_id)
    return VerifyReport(suite=suite, precision=prec, cutoff=cutoff, checks=tuple(checks))
