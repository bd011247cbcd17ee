"""Correctness oracle, independent of the routes under test.

Reference values come from mpmath alone: ``mp.quad`` over integral forms
that differ from the program's (the substitution z = sin t for the arcsine
family, z = tanh u for the arctanh family), ``mp.polylog`` inside the
log-polylog kernels, ``mp.zeta``, ``mp.dirichlet``, ``mp.psi(3, 1/4)`` for
the closed-form basis constants.  The quadrature references are slow (about
1.5 s each for the polylog kernels at 70 digits), so they are computed once
by ``python3 bench/make_refs.py`` into ``refs.json``; closed forms are
evaluated live from the ``json_terms`` the program prints, after the timed
request has finished.

A value passes when it lies within its reported error bound of the
reference, widened by one unit in the last printed digit (the value string
is rounded to the requested digits) and by the five-digit rounding of the
printed bound.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpf

REFS_PATH = Path(__file__).with_name("refs.json")

# Every row of `verify --suite all`, with its mode and conjectural flag; the
# expected verdict of every row is "passed".  The separation rows 06, 13, 15,
# 16 and 19 pass by staying far from a rejected variant.
VERIFY_ROWS = {
    "01-printed-z1": ("match", False),
    "02-printed-z2": ("match", False),
    "03-printed-z3": ("match", False),
    "04-printed-t2": ("match", False),
    "05-printed-t3": ("match", False),
    "06-t3-tail-sign": ("separate", False),
    "07-kernel-t1": ("match", False),
    "08-kernel-t2": ("match", False),
    "09-arcsin-integral-5": ("match", False),
    "10-duality1-23": ("match", False),
    "11-duality1-series-34": ("match", False),
    "12-duality2-sym-23": ("match", False),
    "13-duality2-single-variant": ("separate", False),
    "14-b33-formula": ("match", False),
    "15-b33-printed": ("separate", False),
    "16-t221-coeff": ("separate", False),
    "17-t221-series": ("match", False),
    "18-o43-table": ("match", False),
    "19-o43-variant": ("separate", False),
    "20-zeta311-series": ("match", False),
    "21-zeta311-triple": ("match", False),
    "22-mzv-ones-3": ("match", False),
    "23-bigT-ones-3": ("match", False),
    "24-kernel-O23": ("match", False),
    "25-kernel-B23": ("match", False),
    "26-valean-H2n": ("match", False),
    "27-valean-H2n2": ("match", False),
    "28-cb-lehmer": ("match", False),
    "29-mu-series-2": ("match", False),
    "30-wallis-arcsin": ("match", False),
    "c01-t2s1-1": ("match", True),
    "c02-t2s1-2": ("match", True),
    "c03-t2s1-3": ("match", True),
    "c04-t2s1-4": ("match", True),
    "c05-t2s1-5": ("match", True),
}


class Outcome:
    """The checks made on one operation: passed or not, and at how many digits."""

    def __init__(self, ok: bool, digits: list[float] | None = None, why: str = "",
                 deadline: bool = False):
        self.ok = ok
        self.digits = digits or []
        self.why = why
        self.deadline = deadline  # failed by running out of time, not by a wrong output


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def load_refs() -> dict[str, mpf]:
    with mp.workdps(70):
        return {shape: mpf(v) for shape, v in json.loads(REFS_PATH.read_text()).items()}


def _basis_constant(kind: str, arg: int) -> mpf:
    if kind == "pi":
        return +mp.pi
    if kind == "log2":
        return mp.log(2)
    if kind == "zeta_odd":
        return mp.zeta(arg)
    if kind == "beta_even":
        return mp.dirichlet(arg, [0, 1, 0, -1])
    if kind == "psi3_quarter":
        return mp.psi(3, mpf(1) / 4)
    raise ValueError(f"unknown basis constant {kind!r}")


def eval_terms(terms: list, digits: int) -> mpf:
    """A closed form given as ``json_terms`` evaluated over mpmath constants."""
    with mp.workdps(digits + 15):
        total = mpf(0)
        for term in terms:
            c = Fraction(term["coefficient"])
            t = mpf(c.numerator) / c.denominator
            for f in term["factors"]:
                t *= _basis_constant(f["constant"], f["arg"]) ** f["power"]
            total += t
        return total


def psi3_quarter(digits: int) -> mpf:
    with mp.workdps(digits + 15):
        return mp.psi(3, mpf(1) / 4)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _within(value: str, bound: str, ref: mpf, prec: int) -> bool:
    with mp.workdps(prec + 20):
        v = mpf(value)
        b = mpf(bound) * (1 + mpf("1e-4"))
        ulp = mpf(10) ** (int(mp.floor(mp.log10(abs(v)))) - prec + 1) if v else mpf(10) ** -prec
        return abs(v - ref) <= b + ulp


def _digits(bound: mpf, ref: mpf, prec: int) -> float:
    """-log10 of a bound relative to the reference; a zero bound checks `prec` digits."""
    if bound == 0 or ref == 0:
        return float(prec)
    with mp.workdps(30):
        return float(-mp.log10(abs(bound) / abs(ref)))


def check_payload(payload: dict, ref: mpf, prec: int) -> Outcome:
    """Check a ``--json`` evaluation payload against the reference value.

    A ``--method all`` payload must agree and every route must hold the
    reference within its bound; its checked digits come from the largest
    pairwise combined bound.  A single-route payload's checked digits come
    from its own bound.
    """
    if payload.get("precision_digits") != prec:
        return Outcome(False, why="precision_digits differs from the request")
    entries = payload["routes"] if "routes" in payload else [payload]
    for e in entries:
        if not _within(e["value"], e["error_bound"], ref, prec):
            return Outcome(False, why=f"{e['method']} value outside its bound of the reference")
    if "routes" in payload:
        if payload.get("agreement") is not True:
            return Outcome(False, why="routes disagree")
        with mp.workdps(30):
            bounds = [mpf(e["error_bound"]) for e in entries]
            pairs = [(a, b) for i, a in enumerate(bounds) for b in bounds[i + 1:]]
            worst = max((a + b for a, b in pairs), default=bounds[0])
        return Outcome(True, [_digits(worst, ref, prec)])
    with mp.workdps(30):
        return Outcome(True, [_digits(mpf(payload["error_bound"]), ref, prec)])


def check_verify(payload: dict) -> list[Outcome]:
    """One outcome per expected verify row: present, right mode, passed."""
    rows = {c["check_id"]: c for c in payload.get("checks", [])}
    out = []
    for cid, (mode, conjectural) in VERIFY_ROWS.items():
        row = rows.get(cid)
        if row is None:
            out.append(Outcome(False, why=f"{cid} missing"))
        elif row["mode"] != mode or row["conjectural"] != conjectural:
            out.append(Outcome(False, why=f"{cid} changed mode or conjectural flag"))
        elif row["passed"] is not True:
            out.append(Outcome(False, why=f"{cid} verdict differs from the expected pass"))
        elif mode == "match":
            with mp.workdps(30):
                tol = mpf(row["tolerance"])
            digits = float(-mp.log10(tol)) if tol > 0 else 50.0
            out.append(Outcome(True, [digits]))
        else:
            out.append(Outcome(True))
    for cid in rows.keys() - VERIFY_ROWS.keys():
        out.append(Outcome(False, why=f"{cid} is not an expected row"))
    return out


# ---------------------------------------------------------------------------
# reference formulas (used by make_refs.py and the tests)
# ---------------------------------------------------------------------------


def _i(n: int) -> mpf:
    return mp.quad(lambda t: t ** n * mp.cot(t), [0, mp.pi / 2])


def _k(n: int) -> mpf:
    return mp.quad(lambda u: 2 * u ** n / mp.sinh(2 * u), [0, mp.inf])


def _kernel(p: int, q: int, sign_den: int) -> mpf:
    def L(sign_arg):
        def f(x):
            return mp.log(x) ** (q - 1) * mp.polylog(p, sign_arg * x) / (x * (1 + sign_den * x * x))

        return mp.quad(f, [0, 1])

    return mpf(-1) ** q / (2 * math.factorial(q - 1)) * (L(-1) - L(+1))


def reference(shape: str) -> mpf:
    """The value of a quad-session shape at the current mpmath precision."""
    words = shape.split()
    head, args = words[0], words[1:]
    if head == "integral":
        kind, n = args[0], int(args[1])
        if kind in ("I", "logsine"):
            return _i(n)
        if kind == "J":
            return mp.quad(lambda z: z ** n * mp.cot(mp.pi * z), [0, mpf(1) / 2])
        return _k(n)
    exps = [int(a) for a in args] if head != "oddsum" else []
    if head == "tvalue" and exps[0] == 3:  # t(3, {2}^N)
        m = 2 * (len(exps) - 1) + 1
        integral = mp.quad(lambda t: t ** m * (mp.pi / 2 - t) * mp.cot(t), [0, mp.pi / 2])
        return integral / mp.factorial(m)
    if head == "tvalue":  # t({2}^N, 1) = I(2N)/(2N)!
        n = 2 * (len(exps) - 1)
        return _i(n) / mp.factorial(n)
    if head == "mu":  # mu(2, {1}^(N-1)) = K(N)/N!
        return _k(len(exps)) / mp.factorial(len(exps))
    fam, p, q = args[0], int(args[1]), int(args[2])
    return _kernel(p, q, -1 if fam == "O" else +1)
