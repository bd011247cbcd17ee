"""Double-exponential quadrature on (0,1) and the specific kernel integrals.

The tanh-sinh substitution x = e^(2u)/(1+e^(2u)), u = (pi/2) sinh(t) pushes
endpoint singularities off to doubly-exponentially small weights, so one
scheme handles every integrand family used here: log and power-of-log blowups
at 0, algebraic 1/sqrt(1-x) behaviour at 1, and cancelled simple poles at 1.
Each trapezoid level halves the step and reuses all previous nodes (only odd
multiples are new); two successive levels agreeing to 10^(-prec-3) ends the
refinement.

Every integrand evaluator receives *both* x and xc = 1-x as exact node data.
The DE transform computes xc directly from e^(2u) without cancellation, so an
evaluator needing log(x), arccos(x) or atanh(x) near x = 1 can get full
working precision from xc where forming 1-x would lose everything.  The
helpers _log_stable / acos_stable / _asin_stable / _atanh_stable implement
those rewrites:

    log(1-xc)    = log1p(-xc)             (xc below 2^-10)
    arccos(x)    = 2 asin(sqrt(xc/2))     (exact identity, used everywhere)
    atanh(x)     = (log(2-xc) - log(xc))/2
    log(sin((pi/2)(1-xc))) = log(cos((pi/2) xc))

The polylogarithm is evaluated by three branches: the defining series for
|x| <= 1/2, the expansion about x = 1 in powers of L = log x for x in
(1/2, 1], and the square identity Li_p(x) = 2^(1-p) Li_p(x^2) - Li_p(-x) for
x in (-1, -1/2).  The first two run in integers scaled by 2^B, B the working
bits plus _GUARD_BITS, the technique of ``series.nested_value``: the node x
and the log L enter as their exact binary mantissas, every product is floored
once, and only the result is rounded back to an mpf.  The defining series
sums S = sum x^(k-1)/k^p over a per-p cache of the integers k^p and returns
x S, so the value keeps its relative accuracy at the tiny nodes near 0; the
log branch runs Horner's rule over integer coefficients cached per
(p, working digits), to a degree chosen from a proved tail bound.  Both
bounds are proved in _polylog_raw.

The O/B kernels need only the difference Li_p(-x) - Li_p(x), so kernel_pair
integrates it as one integrand: for x <= 1/2 it is -2 sum_(k odd) x^k/k^p,
one series over half the terms; above 1/2 it is 2^(1-p) Li_p(x^2) - 2 Li_p(x),
with log x^2 = 2 log x taken from the one log the node needs anyway.

Every public kernel (I_quad, j_cot, k_arctanh, t_kernel_quad,
logpolylog_kernel, kernel_pair, logsine_check) is memoised per process in a
bounded lru cache keyed by its exact arguments, prec included.  A result is a
frozen dataclass computed at the working precision prec + GUARD_DIGITS under
LOCK, whatever the caller's mpmath state, so a repeated request returns the
identical object.  QuadratureNonConvergence is raised, never stored.

Below the memo, the kernels share their transcendental factors.  Beside each
cached node table (level, wd) sit columns: the values of one node function
at every node of the table, filled on first use and read by every later
integral at that working precision.  The node functions are _asin_stable,
acos_stable, _atanh_stable, _log_stable, the cot and log-sine factors of
j_cot and logsine_check, and kernel_pair's bracket (one column per p); the
kernels only form powers, products and denominators around them.  Same
nodes, same function, same precision: the same bits as evaluating at every
node.  Evaluators keep the (x, xc) contract: integrate01 records the node it
is evaluating, and a column accessor serves the stored value only when
called with that node's own x and xc objects at its precision, computing
directly otherwise.  The tables of the _NODE_PRECISIONS most recently used
working precisions are kept, columns evicted with their nodes.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Callable

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, finf, fnan, fninf, fzero

from .hp import (
    GUARD_DIGITS,
    LOCK,
    EvalResult,
    HPReal,
    bernoulli_fraction,
    coerce_prec,
    eta,
    pi_const,
    scaled,
    wrap_result,
    zeta_single,
)

__all__ = [
    "Integrand",
    "QuadratureResult",
    "QuadratureNonConvergence",
    "integrate01",
    "polylog",
    "I_quad",
    "j_cot",
    "k_arctanh",
    "t_kernel_quad",
    "logpolylog_kernel",
    "kernel_pair",
    "logsine_check",
]

LEVEL_CAP = 12  # finest trapezoid level (step 2^-12)

# results kept per public kernel; a quad-session stream has about twenty
# distinct requests per kernel
_MEMO_SIZE = 128


@dataclass(frozen=True)
class Integrand:
    """An integrand on (0,1).

    ``evaluator(x, xc)`` receives the node and its exact complement 1-x as
    mpf values under the working precision of the integration and returns the
    integrand value; ``name`` labels it.  Endpoint values themselves are
    never requested: all DE nodes are interior.
    """

    evaluator: Callable[[mpf, mpf], mpf]
    name: str = ""


@dataclass(frozen=True)
class QuadratureResult(EvalResult):
    """EvalResult plus the number of trapezoid levels actually used.

    rigorous is always False here: the successive-level error model is
    excellent in practice (typically 10+ digits of margin) but heuristic.
    """

    levels_used: int = 0


class QuadratureNonConvergence(RuntimeError):
    """Raised when the level cap is hit; carries the best estimate."""

    def __init__(self, message: str, best: QuadratureResult):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

# working precisions whose node tables (and their columns) are kept, the
# least recently used evicted first: the same count as hp._cvz_weights
_NODE_PRECISIONS = 4


class _NodeTable:
    """The (x, xc, w) triples of one (level, wd) and the columns beside them.

    A column holds one node function's value at every node, in node order,
    as signed mantissas and an array('q') of binary exponents: far smaller
    than a list of mpf objects, and rebuilt exactly by mp.make_mpf.
    """

    __slots__ = ("nodes", "prec", "columns")

    def __init__(self, nodes: list, prec: int):
        self.nodes = nodes
        self.prec = prec
        self.columns: dict = {}


_NODE_CACHE: OrderedDict[int, dict[int, _NodeTable]] = OrderedDict()


def _de_cutoff(wd: int) -> mpf:
    """Largest |t|: far enough that trapezoid truncation sits below 10^-2(wd+8)."""
    return mp.asinh(2 * mp.log(10) * (wd + 8) / mp.pi)


def _nodes(level: int, wd: int) -> list:
    """New (x, xc, w) triples at this level (odd multiples of h; level 0 all).

    Mirror nodes at -t are emitted as (xc, x, w): the transform swaps the
    roles of x and 1-x under t -> -t.
    """
    with LOCK, mp.workdps(wd):
        T = _de_cutoff(wd)
        h = mpf(2) ** (-level)
        js = (
            range(0, int(mp.floor(T / h)) + 1)
            if level == 0
            else range(1, int(mp.floor(T / h)) + 1, 2)
        )
        out = []
        for j in js:
            t = j * h
            u = mp.pi / 2 * mp.sinh(t)
            e2u = mp.exp(2 * u)
            xc = 1 / (1 + e2u)
            x = e2u / (1 + e2u)
            w = mp.pi / 2 * mp.cosh(t) / (2 * mp.cosh(u) ** 2)
            out.append((x, xc, w))
            if j > 0:
                out.append((xc, x, w))
        return out


def _cached_nodes(level: int, wd: int) -> _NodeTable:
    """The node table of (level, wd), built on first use; marks wd as the
    most recently used precision, evicting the oldest beyond _NODE_PRECISIONS."""
    with LOCK:
        tables = _NODE_CACHE.get(wd)
        if tables is None:
            tables = _NODE_CACHE[wd] = {}
            while len(_NODE_CACHE) > _NODE_PRECISIONS:
                _NODE_CACHE.popitem(last=False)
        else:
            _NODE_CACHE.move_to_end(wd)
        table = tables.get(level)
        if table is None:
            table = tables[level] = _NodeTable(_nodes(level, wd), dps_to_prec(wd))
        return table


# (table, position, x, xc) of the node integrate01 is evaluating, else None;
# written only under LOCK, and reset when the integration ends, however
_AT: tuple | None = None

# the exponent field of mpmath's zero, nan, +inf and -inf, whose mantissa is 0
_SPECIAL = {v[2]: v for v in (fzero, fnan, finf, fninf)}


class _Column:
    """``(x, xc) -> fn(x, xc)`` read from the column of the node being evaluated.

    Inside integrate01, called with that node's own x and xc objects at its
    working precision, the value comes from the node table's column for fn,
    filled at every node of the table on first use.  Any other call (outside
    integrate01, another x, another precision) computes fn directly and
    stores nothing.  Columns are aligned to node position, never keyed by
    x's value: at the deepest nodes x rounds to 1 while xc still differs.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[mpf, mpf], mpf]):
        self.fn = fn

    def __call__(self, x: mpf, xc: mpf) -> mpf:
        at = _AT
        if at is None or at[2] is not x or at[3] is not xc or at[0].prec != mp.prec:
            return self.fn(x, xc)
        table, i = at[0], at[1]
        column = table.columns.get(self)
        if column is None:
            column = self._fill(table)
        m, e = column[0][i], column[1][i]
        if m > 0:
            return mp.make_mpf((0, m, e, m.bit_length()))
        if m < 0:
            return mp.make_mpf((1, -m, e, (-m).bit_length()))
        return mp.make_mpf(_SPECIAL[e])

    def _fill(self, table: _NodeTable) -> tuple:
        """fn at every node of table, stored only once complete.  Each node
        is recorded while fn runs there, so fn may read other columns."""
        global _AT
        outer = _AT
        mans, exps = [], array("q")
        try:
            for i, (x, xc, _) in enumerate(table.nodes):
                _AT = (table, i, x, xc)
                sign, man, exp, _ = self.fn(x, xc)._mpf_
                mans.append(-man if sign else man)
                exps.append(exp)
        finally:
            _AT = outer
        # a tuple of ints, unlike a list, drops out of the cyclic collector
        column = table.columns[self] = (tuple(mans), exps)
        return column


def integrate01(f, prec: int = 50) -> QuadratureResult:
    """Tanh-sinh quadrature of ``f`` over (0,1).

    ``f`` may be an Integrand or a bare ``evaluator(x, xc)`` callable.
    Levels double until two successive trapezoid refinements agree to
    10^(-prec-3) relative; the reported error_bound is ten times that last
    difference, but never below |total| 10^-(wd-1), the unit hp.combine
    charges per rounding: two levels can agree bit for bit, and a zero bound
    would claim the integral exactly.  Hitting the level cap raises
    QuadratureNonConvergence with the best estimate attached.
    """
    global _AT
    coerce_prec(prec)
    integrand = f if isinstance(f, Integrand) else Integrand(f)
    ev = integrand.evaluator
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        tol = mpf(10) ** (-prec - 3)
        unit = mpf(10) ** (1 - wd)
        total = mpf(0)
        prev = None
        diff = mpf(1)

        def result(levels: int) -> QuadratureResult:
            return QuadratureResult(
                value=HPReal(total, prec),
                error_bound=HPReal(max(diff * 10, abs(total) * unit), prec),
                rigorous=False,
                levels_used=levels,
            )

        outer = _AT
        try:
            for level in range(LEVEL_CAP + 1):
                h = mpf(2) ** (-level)
                part = mpf(0)
                table = _cached_nodes(level, wd)
                for i, (x, xc, w) in enumerate(table.nodes):
                    _AT = (table, i, x, xc)
                    part += w * ev(x, xc)
                total = (total / 2 if level > 0 else mpf(0)) + h * part
                if prev is not None:
                    diff = abs(total - prev)
                    if diff <= tol * max(1, abs(total)):
                        return result(level + 1)
                prev = total
        finally:
            _AT = outer
        best = result(LEVEL_CAP + 1)
    raise QuadratureNonConvergence(
        f"tanh-sinh did not stabilise within {LEVEL_CAP} levels"
        f" (last successive difference {mp.nstr(diff, 3)})",
        best,
    )


# ---------------------------------------------------------------------------
# endpoint-stable elementary evaluations (see module docstring)
# ---------------------------------------------------------------------------

_SMALL = mpf(2) ** (-10)


def _log_stable(x: mpf, xc: mpf) -> mpf:
    """log(x) where x = 1 - xc with xc exact; log1p(-xc) when xc is tiny.

    Either way the result is within an ulp or so of the log of the exact
    node, relative: mpmath's log1p adds 1 - xc at twice the precision.
    """
    if xc < _SMALL:
        return mp.log1p(-xc)
    return mp.log(x)


def acos_stable(x: mpf, xc: mpf) -> mpf:
    """arccos(x) = 2 asin(sqrt(xc/2)): exact identity, stable at both ends."""
    return 2 * mp.asin(mp.sqrt(xc / 2))


def _asin_stable(x: mpf, xc: mpf) -> mpf:
    if x > mpf(9) / 10:
        return mp.pi / 2 - acos_stable(x, xc)
    return mp.asin(x)


def _atanh_stable(x: mpf, xc: mpf) -> mpf:
    """atanh(x) = (log(1+x) - log(1-x))/2 with 1+x = 2-xc, 1-x = xc exact."""
    if xc < _SMALL:
        return (mp.log(2 - xc) - mp.log(xc)) / 2
    return mp.atanh(x)


def _cot_half_pi(x: mpf, xc: mpf) -> mpf:
    """cot((pi/2) x), as tan((pi/2) xc) where x is near 1 (cot passes 0)."""
    if xc < mpf(1) / 2:
        return mp.tan(mp.pi / 2 * xc)
    return mp.cot(mp.pi * (x / 2))


def _log_sin_half_pi(x: mpf, xc: mpf) -> mpf:
    """log(sin((pi/2) x)), as log(cos((pi/2) xc)) where x is near 1."""
    if xc < mpf(1) / 2:
        return mp.log(mp.cos(mp.pi / 2 * xc))
    return mp.log(mp.sin(mp.pi / 2 * x))


_log_column = _Column(_log_stable)
acos_column = _Column(acos_stable)
_asin_column = _Column(_asin_stable)
_atanh_column = _Column(_atanh_stable)
_cot_column = _Column(_cot_half_pi)
_log_sin_column = _Column(_log_sin_half_pi)


# ---------------------------------------------------------------------------
# polylogarithm in scaled integers
# ---------------------------------------------------------------------------

# bits of the scaled integers beyond mpmath's working bits: the floors of a
# series of n terms then cost about n/2^_GUARD_BITS units of 2^-prec, and the
# bound states them apart from the final rounding
_GUARD_BITS = 4


def _scale_bits(wd: int) -> int:
    """B: the working bits at wd digits plus the guard."""
    return dps_to_prec(wd) + _GUARD_BITS


def _mantissa(v: mpf) -> tuple[int, int]:
    """(m, s) with v = m 2^-s exactly; s >= 1 whenever 0 < |v| < 1."""
    sign, man, exp, _ = v._mpf_
    return (-man if sign else man), -exp


_POWERS: dict[int, list] = {}


def _powers(p: int, n: int) -> list:
    """[0, 1, 2^p, ..., n^p] or longer: the integers k^p, grown per p."""
    kp = _POWERS.setdefault(p, [0])
    if len(kp) <= n:
        kp.extend(k ** p for k in range(len(kp), n + 1))
    return kp


def _series_scaled(p: int, m: int, s: int, step: int, bits: int) -> tuple[int, int, int]:
    """(S, n, T): S = sum_(i<n) y^i/(1 + step i)^p for y = m 2^-s, |y| <= 1/2,
    as an integer scaled by 2^bits; T is its last term.

    The power y^i is a scaled integer floored once per step, so its error e_i
    obeys |e_i| <= |y| |e_(i-1)| + 1 < 2 units; each term is floored once
    more, so term i is within 1 + 2/(1 + step i)^p units (term 0 is exact),
    and S is within n - 1 + 2 (zeta(p) - 1) < n + 1 units of the exact
    partial sum.  Summing stops at the first term below 2^_GUARD_BITS units:
    at most bits + 2 terms, since the power reaches 0 or -1 by then.
    """
    kp = _powers(p, step * (bits + 2) + 1)
    stop = 1 << _GUARD_BITS
    power = 1 << bits
    total = 0
    k = 1
    while True:
        term = power // kp[k]
        total += term
        if -stop < term < stop:
            return total, (k - 1) // step + 1, term
        power = (power * m) >> s
        k += step


def _zeta_rational(s: int) -> Fraction:
    """zeta(s) for integer s <= 0: -1/2, the trivial zeros, -B_(1-s)/(1-s)."""
    if s == 0:
        return Fraction(-1, 2)
    if s % 2 == 0:
        return Fraction(0)
    return -bernoulli_fraction(1 - s) / (1 - s)


def _log_degree(p: int, log_r: float, wd: int) -> int:
    """Least degree J >= p whose tail bound (see _polylog_raw) for
    r = exp(log_r) is below 10^(-(wd+2)), found in floating-point logarithms
    with a margin of a factor e.  J grows with r."""
    log_tol = -(wd + 2) * math.log(10) - 1
    J = p
    log_tail = (
        math.log(math.pi ** 2 / 3) + (p - 1) * math.log(2 * math.pi)
        - math.lgamma(p + 2) + (p + 1) * log_r - math.log1p(-math.exp(log_r))
    )
    while log_tail > log_tol:
        log_tail += log_r + math.log((J + 2 - p) / (J + 2))
        J += 1
    return J


# log r for |L| = 0.7: above every r = |log x|/(2 pi) of the domain x > 1/2
# (|log x| < log 2), with room for the rounding of log r
_LOG_R_MAX = math.log(0.7 / (2 * math.pi))


@lru_cache(maxsize=None)
def _log_coeffs(p: int, wd: int) -> tuple:
    """c_j 2^B rounded to integers, c_j = zeta(p-j)/j! and c_(p-1) =
    H_(p-1)/(p-1)!, for every degree the log branch can need; B = _scale_bits(wd).

    Each is within one unit: the rational ones are rounded exactly, and
    zeta_single(s, wd), computed at wd + 10 digits, is good to 10^-(wd+5)
    (its bound is below 10^-(wd+9.7)), below 2^-(B+9), before the
    division at B + 20 bits and the rounding.
    """
    bits = _scale_bits(wd)
    cs = []
    for j in range(_log_degree(p, _LOG_R_MAX, wd) + 1):
        if p - j >= 2:
            z = zeta_single(p - j, wd).value.magnitude
            with LOCK, mp.workprec(bits + 20):
                c = int(mp.nint(mp.ldexp(z, bits) / math.factorial(j)))
        else:
            exact = (
                sum(Fraction(1, i) for i in range(1, p)) if j == p - 1 else _zeta_rational(p - j)
            )
            c = round(exact / math.factorial(j) * 2 ** bits)
        cs.append(c)
    return tuple(cs)


def _log_horner(p: int, L: mpf, wd: int) -> tuple[int, int]:
    """(S, J): Li_p(e^L) 2^B as an integer, and the degree, for -0.7 < L < 0.

    Horner's rule over the expansion in L (see _polylog_raw), each product
    by L exact on L's mantissa and then floored.  Runs inside workdps(wd).
    """
    log_neg_l = mp.log(-L)
    log_r = float(log_neg_l) - math.log(2 * math.pi)
    if not log_r <= _LOG_R_MAX:
        raise RuntimeError(f"Li_{p} log branch needs x > 1/2, got log x = {mp.nstr(L, 5)}")
    J = _log_degree(p, log_r, wd)
    bits = _scale_bits(wd)
    cs = _log_coeffs(p, wd)
    m, s = _mantissa(L)
    d = int(mp.ldexp(log_neg_l, bits)) // math.factorial(p - 1)
    acc = cs[J]
    for j in range(J - 1, -1, -1):
        acc = ((acc * m) >> s) + cs[j]
        if j == p - 1:
            acc -= d
    return acc, J


def _polylog_raw(
    p: int, x: mpf, xc: mpf, wd: int, log_abs: mpf | None = None
) -> tuple[mpf, mpf]:
    """(value, rigorous error bound) for Li_p(x), -1 <= x <= 1, inside wd.

    xc is 1 - |x|, exact, and log_abs is log|x| when the caller has it.
    Below, u = 2^-B is the unit of the scaled integers and eps = 2^-prec
    = 2^_GUARD_BITS u the relative rounding of one mpf operation at wd.

    |x| <= 1/2: Li_p(x) = x S with S = sum_(k>=1) x^(k-1)/k^p summed by
    _series_scaled on x's exact mantissa.  After n terms the last of which is
    T units (so |x^(n-1)/n^p| <= (|T| + 2) u), the tail is at most
    |x^(n-1)/n^p| |x|/(1-|x|), as k^p grows, and the floors cost under n + 1
    units.  Rounding the exact integer x 2^B S once costs eps |value|:

        bound = |x| u ((|T| + 2) |x|/(1 - |x|) + n + 1) + eps |value|.

    The proved count is below n + 0.3, and the spare 0.7 |x| u covers the
    roundings of the bound itself.

    1/2 < x < 1: the expansion about x = 1 in L = log x,

        Li_p(x) = sum_(j != p-1) zeta(p-j) L^j/j! + L^(p-1)/(p-1)! (H_(p-1) - log(-L)).

    Tail: for j > p the functional equation gives |zeta(p-j)| <= 2 zeta(2)
    (j-p)!/(2 pi)^(j-p+1), so with r = |L|/(2 pi) < 0.7/(2 pi) < 0.112 the
    terms past degree J >= p sum to at most

        C (J+1-p)!/(J+1)! r^(J+1)/(1-r),   C = 2 zeta(2) (2 pi)^(p-1),

    and J is the least degree putting this below 10^(-(wd+2)).  Fixed-point
    rounding: the J floors of _log_horner, the J + 1 coefficients (one unit
    each, see _log_coeffs) and the log term (two units: truncated, then
    floored by (p-1)!) are each multiplied by a power of |L| < 1 afterwards,
    so they cost at most 2J + 3 units; 2J + 4 is charged.  The mpf inputs
    cost at most 8 eps: L within 4 eps relative shifts the value by
    |L Li_(p-1)(x)| <= zeta(2) log 2 < 1.15 times that; mpmath's log(-L)
    within 3 eps relative (it is good to about one), multiplied by
    |L|^(p-1) |log(-L)|/(p-1)! <= 1/e; and the final rounding eps |Li_p(x)|
    <= 1.65 eps.  So

        bound = 10^(-(wd+2)) + (2J + 4) u + 8 eps.

    -1 < x < -1/2: Li_p(x) = 2^(1-p) Li_p(x^2) - Li_p(-x), with x^2 formed
    exactly and log x^2 = 2 log|x|; the bounds add, plus 10^-(wd-1) for the
    subtraction.  x = 1 and x = -1 take zeta(p) and -eta(p) with their bounds.
    """
    if x == 0:
        return mpf(0), mpf(0)
    ulp = mpf(10) ** (-(wd - 1))
    if x == 1:
        z = zeta_single(p, wd)
        return z.value.magnitude, z.error_bound.magnitude + ulp
    if x == -1:
        e = eta(p, wd)
        return -e.value.magnitude, e.error_bound.magnitude + ulp
    bits = _scale_bits(wd)
    if abs(x) <= mpf(1) / 2:
        m, s = _mantissa(x)
        total, n, last = _series_scaled(p, m, s, 1, bits)
        val = mp.ldexp(mpf(m * total), -(s + bits))  # rounded to the working bits
        ax = abs(x)
        units = (abs(last) + 2) * ax / (1 - ax) + n + 1
        return val, ax * mp.ldexp(units, -bits) + mp.ldexp(abs(val), _GUARD_BITS - bits)
    L = _log_stable(abs(x), xc) if log_abs is None else log_abs
    if x > 0:
        acc, J = _log_horner(p, L, wd)
        bound = mpf(10) ** (-(wd + 2)) + mp.ldexp(2 * J + 4, -bits)
        return mp.ldexp(mpf(acc), -bits), bound + mp.ldexp(8, _GUARD_BITS - bits)
    x2 = mp.fmul(x, x, exact=True)
    v1, b1 = _polylog_raw(p, x2, xc * (2 - xc), wd, 2 * L)
    v2, b2 = _polylog_raw(p, -x, xc, wd, L)
    return mp.ldexp(v1, 1 - p) - v2, mp.ldexp(b1, 1 - p) + b2 + ulp


def polylog(p: int, x, prec: int = 50) -> EvalResult:
    """Li_p(x) for integer p >= 2 and -1 <= x <= 1, rigorous bound."""
    coerce_prec(prec)
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"polylog requires integer p >= 2, got {p!r}")
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        if isinstance(x, HPReal):
            xv = x.magnitude
        elif isinstance(x, Fraction):
            xv = mpf(x.numerator) / x.denominator
        else:
            xv = mpf(x)
        if abs(xv) > 1:
            raise ValueError(f"polylog argument must satisfy |x| <= 1, got {x!r}")
        val, bound = _polylog_raw(p, xv, 1 - abs(xv), wd)
    return wrap_result(val, bound, prec, rigorous=True)


# ---------------------------------------------------------------------------
# the specific integrals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def I_quad(N: int, prec: int = 50) -> QuadratureResult:
    """integral_0^1 arcsin^N(z)/z dz by DE quadrature."""
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N >= 1 required, got {N!r}")
    coerce_prec(prec)

    def ev(x, xc):
        return _asin_column(x, xc) ** N / x

    return integrate01(Integrand(ev, name=f"I({N})"), prec)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def j_cot(n: int, prec: int = 50) -> QuadratureResult:
    """J(n) = integral_0^(1/2) z^n cot(pi z) dz.

    Substituting z = x/2 maps to (0,1); cot(pi x/2) is rewritten as
    tan((pi/2) xc) near x = 1 (where cot passes through zero) and the z^n
    factor tames the 1/z pole of cot at the origin, leaving z^(n-1)/pi there.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n >= 1 required, got {n!r}")
    coerce_prec(prec)

    def ev(x, xc):
        return (x / 2) ** n * _cot_column(x, xc) / 2

    return integrate01(Integrand(ev, name=f"J({n})"), prec)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def k_arctanh(N: int, prec: int = 50) -> QuadratureResult:
    """K(N) = integral_0^1 atanh^N(z)/z dz (log^N blowup at z = 1)."""
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N >= 1 required, got {N!r}")
    coerce_prec(prec)

    def ev(x, xc):
        return _atanh_column(x, xc) ** N / x

    return integrate01(Integrand(ev, name=f"K({N})"), prec)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def t_kernel_quad(N: int, prec: int = 50) -> QuadratureResult:
    """(1/(2N+1)!) integral_0^1 arcsin^(2N+1)(z) arccos(z)/z dz.

    The arccos factor vanishes like sqrt(2(1-z)) at z = 1, an algebraic
    endpoint; it is evaluated through the half-angle identity, and above
    9/10 the arcsin is pi/2 minus it, as in _asin_stable.  Both come from
    the node columns I_quad and the Wallis check share.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N >= 1 required, got {N!r}")
    coerce_prec(prec)
    M = 2 * N + 1

    def ev(x, xc):
        return _asin_column(x, xc) ** M * acos_column(x, xc) / x

    raw = integrate01(Integrand(ev, name=f"t-kernel({N})"), prec)
    return scaled(raw, Fraction(1, math.factorial(M)))


def _check_kernel_args(p, q, sign_den) -> None:
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p >= 2 required, got {p!r}")
    if not isinstance(q, int) or q < 2:
        if sign_den == -1:
            raise ValueError(
                f"q >= 2 required, got {q!r}: the 1/(1-x^2) endpoint is non-integrable"
            )
        raise ValueError(f"q >= 2 required, got {q!r}")
    if sign_den not in (1, -1):
        raise ValueError("sign_den must be +1 or -1")


def _denominator(x: mpf, xc: mpf, sign_den: int) -> mpf:
    """x (1 + sign_den x^2); for -1 as x xc (2 - xc), without cancellation."""
    if sign_den == -1:
        return x * xc * (2 - xc)
    return x * (1 + x * x)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def logpolylog_kernel(
    p: int, q: int, sign_arg: int, sign_den: int, prec: int = 50
) -> QuadratureResult:
    """integral_0^1 log^(q-1)(x) Li_p(sign_arg*x) / (x (1 + sign_den*x^2)) dx.

    With sign_den = -1 the denominator factor 1 - x^2 = xc (2 - xc) has a
    simple zero at x = 1 which the log^(q-1) zero (q >= 2) cancels; both
    factors are computed from xc directly so the ratio is fully accurate at
    the deepest DE nodes.  q < 2 is refused: with sign_den = -1 the endpoint
    becomes non-integrable, and the uniform q >= 2 precondition keeps the
    operation's domain a rectangle.
    """
    _check_kernel_args(p, q, sign_den)
    if sign_arg not in (1, -1):
        raise ValueError("sign_arg and sign_den must be +1 or -1")
    coerce_prec(prec)
    wd = prec + GUARD_DIGITS

    def ev(x, xc):
        lg = _log_column(x, xc)
        li = _polylog_raw(p, sign_arg * x, xc, wd, lg)[0]
        return lg ** (q - 1) * li / _denominator(x, xc, sign_den)

    name = f"log^{q-1} Li_{p}({'+' if sign_arg > 0 else '-'}x)/(x(1{'+' if sign_den > 0 else '-'}x^2))"
    return integrate01(Integrand(ev, name=name), prec)


def _bracket(p: int, x: mpf, xc: mpf) -> mpf:
    """Li_p(-x) - Li_p(x) at the working digits wd = mp.dps, as kernel_pair
    integrates it: -2 x sum_(j>=0) x^(2j)/(2j+1)^p for x <= 1/2, and
    2^(1-p) Li_p(x^2) - 2 Li_p(x) above, in integers scaled by 2^B."""
    wd = mp.dps
    bits = _scale_bits(wd)
    m, s = _mantissa(x)
    if x <= 0.5:
        odd = _series_scaled(p, m * m, 2 * s, 2, bits)[0]
        return -mp.ldexp(mpf(m * odd), 1 - s - bits)
    lg = _log_column(x, xc)
    if m * m << 1 <= 1 << (2 * s):  # x^2 <= 1/2
        total = _series_scaled(p, m * m, 2 * s, 1, bits)[0]
        sq = m * m * total >> (2 * s)
    else:
        sq = _log_horner(p, 2 * lg, wd)[0]
    return mp.ldexp(mpf((sq >> (p - 1)) - 2 * _log_horner(p, lg, wd)[0]), -bits)


@cache
def _bracket_column(p: int) -> _Column:
    """The node column of _bracket for this p, one per p."""
    return _Column(partial(_bracket, p))


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def kernel_pair(p: int, q: int, sign_den: int, prec: int = 50) -> QuadratureResult:
    """(-1)^q/(2 (q-1)!) [L(p,q,-1,den) - L(p,q,+1,den)], L = logpolylog_kernel.

    With sign_den = -1 the pair reproduces O(p,q), with +1 the alternating
    B(p,q).  The two kernels are integrated as one, over the bracket
    Li_p(-x) - Li_p(x): -2 x sum_(j>=0) x^(2j)/(2j+1)^p for x <= 1/2, and
    2^(1-p) Li_p(x^2) - 2 Li_p(x) above.  Like every quadrature result the
    bound is an estimate.
    """
    _check_kernel_args(p, q, sign_den)
    coerce_prec(prec)
    bracket = _bracket_column(p)

    def ev(x, xc):
        return _log_column(x, xc) ** (q - 1) * bracket(x, xc) / _denominator(x, xc, sign_den)

    den = "-" if sign_den == -1 else "+"
    name = f"log^{q-1} [Li_{p}(-x) - Li_{p}(x)]/(x(1{den}x^2))"
    raw = integrate01(Integrand(ev, name=name), prec)
    return scaled(raw, Fraction((-1) ** q, 2 * math.factorial(q - 1)))


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def logsine_check(n: int, prec: int = 50) -> QuadratureResult:
    """-n integral_0^(pi/2) z^(n-1) log(sin z) dz (equals I(n); cross-check).

    Mapped to (0,1) by z = (pi/2) x; near x = 1 the integrand uses
    log(sin((pi/2)(1-xc))) = log(cos((pi/2) xc)).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n >= 1 required, got {n!r}")
    coerce_prec(prec)

    def ev(x, xc):
        return (mp.pi / 2 * x) ** (n - 1) * _log_sin_column(x, xc)

    raw = integrate01(Integrand(ev, name=f"logsine({n})"), prec)
    return scaled(raw, Fraction(-n, 2), pi_const(prec))
