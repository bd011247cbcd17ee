"""Double-exponential quadrature on (0,1) and the specific kernel integrals.

The tanh-sinh substitution x = e^(2u)/(1+e^(2u)), u = (pi/2) sinh(t) pushes
endpoint singularities off to doubly-exponentially small weights, so one
scheme handles every integrand family used here: log and power-of-log blowups
at 0, algebraic 1/sqrt(1-x) behaviour at 1, and cancelled simple poles at 1.
Each trapezoid level halves the step and reuses all previous nodes (only odd
multiples are new).  Tanh-sinh about doubles its correct digits per level,
so the refinement ends at the first level whose error that model puts below
the working unit (integrate01), without a further level to confirm it.

Every integrand evaluator receives *both* x and xc = 1-x as exact node data:
the DE transform computes xc from e^(2u) without cancellation, so the stable
node functions below get full precision near x = 1 from xc, where forming
1-x would lose it all.

Every public kernel is memoised per process in a bounded lru cache keyed by
its exact arguments, prec included.  A result is computed at prec +
GUARD_DIGITS under LOCK, whatever the caller's mpmath state, so a repeated
request returns the identical frozen object; QuadratureNonConvergence is
raised, never stored.

Below the memo, the kernels share their transcendental factors.  Beside each
cached node table (level, wd) sit columns: the values of one node function
at every node of the table, filled on first use and read by every later
integral at that working precision.  A node function returns a tuple of
values, one per slot of its column: the stable ones above (arcsin and arccos
from one arcsine) and kernel_pair's bracket Li_p(-x) - Li_p(x) (one column
per p), above x = 1/2 one Horner sum of Legendre's chi in log x, read from
the log column.  Two share one transcendental between a node (x, xc) and its
mirror (xc, x), listed next (_mirrored): one tan gives cot((pi/2) x) at
both, one cos_sin the log-sine at both.  Each node function stays a pure
function of (x, xc) with the bits its column stores: same nodes, same
function, same precision, the same bits as evaluating at every node.
Evaluators keep the (x, xc) contract: integrate01 records the node it is
evaluating, and a column serves its stored pairs only when called with that
node's own x and xc objects at its precision, computing directly otherwise.
Tables are kept up to _NODE_BYTES estimated bytes, the least recently used
working precision evicted first.

Each level is summed in integers.  A kernel forms its node value as one
integer product of exact mantissas (column pairs, x, xc, a constant) over
its integer denominator, floored once to B bits (scaled_quotient), and
returns it as an exact pair (m, e), m 2^e; an opaque evaluator's mpf is
taken as its exact pair.  integrate01 adds w times each value into one
integer accumulator per level, floored once per node to a unit 2^-B below
the largest term (_level_sum proves the rounding), and rounds only the level
sum back to an mpf.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Callable

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

from .hp import (
    GUARD_DIGITS,
    LOCK,
    EvalResult,
    HPReal,
    bernoulli_fraction,
    coerce_prec,
    pi_const,
    require,
    scaled,
    zeta_single,
)

__all__ = [
    "QuadratureNonConvergence",
    "integrate01",
    "I_quad",
    "j_cot",
    "k_arctanh",
    "t_kernel_quad",
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
    integrand value: a finite mpf (or int or float), or an exact pair (m, e)
    of ints meaning m 2^e; ``name`` labels it.  Endpoint values themselves
    are never requested: all DE nodes are interior.
    """

    evaluator: Callable[[mpf, mpf], mpf | tuple[int, int]]
    name: str = ""


@dataclass(frozen=True)
class QuadratureResult(EvalResult):
    """EvalResult plus the number of trapezoid levels actually used.

    rigorous is always False here: the digit-doubling model that ends the
    levels is excellent in practice (typically 10+ digits of margin) but
    heuristic.
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

# estimated bytes of node tables and columns kept, 3-21% above the bytes
# tracemalloc sees freed when the tables are dropped, at 30-800 digits (a
# quad-session stream holds 0.56 MB, an I/K sweep step at 800 digits 16.4 MB)
_NODE_BYTES = 32 << 20


class _NodeTable:
    """The (x, xc, w) triples of one (level, wd) and the columns beside them.

    A column holds one node function's values at every node, in node order,
    per slot as signed mantissas and an array('q') of binary exponents: far
    smaller than a list of mpf objects, and read as exact pairs.
    """

    __slots__ = ("nodes", "prec", "columns")

    def __init__(self, nodes: list, prec: int):
        self.nodes = nodes
        self.prec = prec
        self.columns: dict = {}


_NODE_CACHE: OrderedDict[int, dict[int, _NodeTable]] = OrderedDict()


def _held_bytes() -> int:
    """Estimated bytes of the tables held at p bits: per node 360 plus p/5
    for the mantissas of x, xc and w (a mirror shares them), per column
    entry (one slot at one node) 50 plus 2p/15, a p-bit int taking 4 bytes
    per 30 bits."""
    return sum(len(t.nodes) * (360 + t.prec // 5
                               + sum(map(len, t.columns.values())) * (50 + 2 * t.prec // 15))
               for tables in _NODE_CACHE.values() for t in tables.values())


def _evict() -> None:
    """Drop the least recently used precisions while over _NODE_BYTES."""
    while len(_NODE_CACHE) > 1 and _held_bytes() > _NODE_BYTES:
        _NODE_CACHE.popitem(last=False)


def _de_cutoff(wd: int) -> mpf:
    """Largest |t|: far enough that trapezoid truncation sits below 10^-2(wd+8)."""
    return mp.asinh(2 * mp.log(10) * (wd + 8) / mp.pi)


def _nodes(level: int, wd: int) -> list:
    """New (x, xc, w) triples at this level (odd multiples of h; level 0 all).

    Mirror nodes at -t are emitted as (xc, x, w): the transform swaps the
    roles of x and 1-x under t -> -t.  w is an exact pair (m, e), m 2^e.  As
    2 cosh^2 u = (1 + e^(2u))^2/(2 e^(2u)), the weight (pi/2) cosh t/(2 cosh^2 u)
    is pi cosh t x xc, cosh t = sqrt(1 + s^2): two transcendentals, s = sinh t
    and e^(2u) = exp(pi s).  It is within 8 eps of that at the stored x and xc,
    eps = 2^-p: sinh (an ulp, 2 eps), pi, s^2, 1 + s^2, the root and three
    products round once each, the first three reaching the root halved.
    """
    with LOCK, mp.workdps(wd):
        T = _de_cutoff(wd)
        h = mpf(2) ** (-level)
        n = int(mp.floor(T / h))
        js = range(0, n + 1) if level == 0 else range(1, n + 1, 2)
        pi = +mp.pi
        out = []
        for j in js:
            s = mp.sinh(j * h)
            e2u = mp.exp(pi * s)
            xc = 1 / (1 + e2u)
            x = e2u / (1 + e2u)
            w = _pair(pi * mp.sqrt(1 + s * s) * x * xc)
            out.append((x, xc, w))
            if j > 0:
                out.append((xc, x, w))
        return out


def _cached_nodes(level: int, wd: int) -> _NodeTable:
    """The node table of (level, wd), built on first use; marks wd as the
    most recently used precision, evicting the oldest beyond _NODE_BYTES."""
    with LOCK:
        tables = _NODE_CACHE.setdefault(wd, {})
        _NODE_CACHE.move_to_end(wd)
        table = tables.get(level)
        if table is None:
            table = tables[level] = _NodeTable(_nodes(level, wd), dps_to_prec(wd))
            _evict()
        return table


# (table, position, x, xc) of the node integrate01 is evaluating, else None;
# written only under LOCK, and reset when the integration ends, however
_AT: tuple | None = None


class _Column:
    """``(x, xc, slot) -> fn(x, xc)[slot]`` as its exact pair (m, e), m 2^e,
    read from the column of the node being evaluated.

    fn returns a tuple of finite values, one per slot of the column (arcsin
    and arccos, else one).  Inside integrate01, called with that node's own
    x and xc objects at its working precision, the pair comes from the node
    table's column for fn, filled at every node of the table on first use.
    Any other call (outside integrate01, another x, another precision)
    computes fn directly and stores nothing.  Columns are aligned to node
    position, never keyed by x's value: at the deepest nodes x rounds to 1
    while xc still differs.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[mpf, mpf], tuple]):
        self.fn = fn

    def __call__(self, x: mpf, xc: mpf, slot: int = 0) -> tuple[int, int]:
        at = _AT
        if at is None or at[2] is not x or at[3] is not xc or at[0].prec != mp.prec:
            return _pair(self.fn(x, xc)[slot])
        i = at[1]
        mans, exps = (at[0].columns.get(self) or self._fill(at[0]))[slot]
        return mans[i], exps[i]

    def _fill(self, table: _NodeTable) -> tuple:
        """fn's column over table, stored only once complete: per slot a
        tuple of mantissas (unlike a list, it drops out of the cyclic
        collector) and an array('q') of exponents.  Each node is recorded
        while fn runs there, so fn may read other columns."""
        global _AT
        outer, slots = _AT, None
        try:
            for i, (x, xc, _) in enumerate(table.nodes):
                _AT = (table, i, x, xc)
                values = self.fn(x, xc)
                slots = slots or [([], array("q")) for _ in values]
                for (mans, exps), v in zip(slots, values):
                    m, e = _pair(v)
                    mans.append(m)
                    exps.append(e)
        finally:
            _AT = outer
        slots = table.columns[self] = tuple((tuple(mans), exps) for mans, exps in slots)
        _evict()
        return slots


def _mirrored(both: Callable) -> Callable[[mpf, mpf], tuple]:
    """The node function of both(x, xc) -> (values at (x, xc), values at the
    mirror (xc, x)), each transcendental computed once per node pair: the
    mirror's values are kept until the next computation and served to a
    call at (xc, x), the same objects at the same precision.  _nodes lists
    each node just before its mirror, after level 0's lone x = xc = 1/2."""
    kept = (None, None, 0, ())

    def fn(x: mpf, xc: mpf) -> tuple:
        nonlocal kept
        k = kept
        if k[0] is x and k[1] is xc and k[2] == mp.prec:
            return k[3]
        values, mirror = both(x, xc)
        kept = (xc, x, mp.prec, mirror)
        return values

    return fn


def _pair(v) -> tuple[int, int]:
    """(m, e) with v = m 2^e exactly, for a finite mpf (or int or float)."""
    sign, man, exp, _ = (v if isinstance(v, mpf) else mpf(v))._mpf_
    if not man and exp:
        raise ValueError(f"quadrature needs finite values, got {v}")
    return (-man if sign else man), exp


def scaled_quotient(num: int, exp: int, den: int = 1) -> tuple[int, int]:
    """(q, f), q 2^f = num 2^exp/den floored to B = mp.prec + _GUARD_BITS bits.

    The rule every kernel forms its node value by.  With k = B + len(den) -
    len(num), len the bit length, q = floor(num 2^k/den), the shift and the
    division flooring once together: floor(floor(a/b)/c) = floor(a/(bc)).  For
    num != 0, |num| 2^k/den lies in (2^(B-1), 2^(B+1)), so q 2^f is within
    one unit 2^f < 2^(1-B) |v| of the exact value v.
    """
    k = mp.prec + _GUARD_BITS + den.bit_length() - num.bit_length()
    return (num << k if k >= 0 else num >> -k) // den, exp - k


def _level_sum(table: _NodeTable, ev) -> tuple[int, int]:
    """(acc, E): the sum of w ev(x, xc) over the table as acc 2^E, each node
    recorded in _AT while ev runs there; B = mp.prec + _GUARD_BITS.

    Each value is an exact pair (an mpf converted exactly), times the weight's
    mantissa exactly.  The unit 2^E is 2^(top - B) for the largest term t so
    far, 2^(top-1) <= |t| < 2^top; a rise floors acc to the new unit, and
    each term is added floored to the current one.  Units only rise, so the n
    term floors and r < n rises each cost under one final unit:

        |acc 2^E - sum w v| < (n + r) 2^E <= n 2^(2-B) max |w v|.
    """
    global _AT
    outer, bits = _AT, mp.prec + _GUARD_BITS
    acc, E = 0, None
    try:
        for i, (x, xc, (mw, ew)) in enumerate(table.nodes):
            _AT = (table, i, x, xc)
            v = ev(x, xc)
            m, e = v if type(v) is tuple else _pair(v)
            if m:
                m *= mw
                e += ew
                top = m.bit_length() + e - bits
                if E is None or top > E:
                    acc, E = (acc >> (top - E) if acc else 0), top
                acc += m << (e - E) if e >= E else m >> (E - e)
    finally:
        _AT = outer
    return acc, E or 0


def integrate01(f, prec: int = 50) -> QuadratureResult:
    """Tanh-sinh quadrature of ``f`` over (0,1).

    ``f`` may be an Integrand or a bare ``evaluator(x, xc)`` callable.
    Levels double until, at T_k, the total after level k, two successive
    totals agree to 10^(-prec-3) relative (the bound is ten times their
    difference), or, from k = 2, the digit-doubling model of Bailey,
    Jeyabalan & Li (Experiment. Math. 14, 2005; mpmath's quad estimate)
    clears the working unit.  With D1 = log10(|T_k - T_(k-1)|/|T_k|) and D2
    the same for T_(k-2), it asks D2 < 0, D1 <= 1.5 D2 (the gaps show the
    doubling) and D1 min(D1/D2, 2) <= -wd, and bounds the error by ten times
    |T_k| 10^(D1 min(D1/D2, 2)).  Its last gap must be below 10^(-wd/2), and
    on algebraic convergence the gaps never reach the ratio 1.5: there the
    agreement test decides.  A bound is never below |total| 10^-(wd-1), the
    unit hp.combine charges per rounding: two levels can agree bit for bit,
    and a zero bound would claim the integral exactly.  Hitting the level
    cap raises QuadratureNonConvergence with the best estimate attached.

    Each level is summed by _level_sum, within n 2^(2-B) max |w v| of the
    exact sum of its n node values, B = _scale_bits(wd); only that sum times
    h = 2^-level is rounded to the working bits, once.
    """
    coerce_prec(prec)
    integrand = f if isinstance(f, Integrand) else Integrand(f)
    ev = integrand.evaluator
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        tol = mpf(10) ** (-prec - 3)
        unit = mpf(10) ** (1 - wd)
        total = mpf(0)
        totals: list[mpf] = []
        diff = mpf(1)

        def result(levels: int) -> QuadratureResult:
            return QuadratureResult(
                value=HPReal(total, prec),
                error_bound=HPReal(max(diff * 10, abs(total) * unit), prec),
                rigorous=False,
                levels_used=levels,
            )

        for level in range(LEVEL_CAP + 1):
            acc, E = _level_sum(_cached_nodes(level, wd), ev)
            total = total / 2 + mp.make_mpf(from_man_exp(acc, E - level, mp.prec, round_nearest))
            if totals:
                diff = abs(total - totals[-1])
                if diff <= tol * max(1, abs(total)):
                    return result(level + 1)
            if len(totals) > 1 and total and total != totals[-2]:
                d1 = float(mp.log10(diff / abs(total)))
                d2 = float(mp.log10(abs(total - totals[-2]) / abs(total)))
                if d2 < 0 and d1 <= 1.5 * d2 and (est := d1 * min(d1 / d2, 2)) <= -wd:
                    diff = abs(total) * mpf(10) ** est
                    return result(level + 1)
            totals.append(total)
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
_HALF = mpf(1) / 2  # compared exactly at any precision


@cache
def _constants(prec: int) -> tuple[mpf, mpf]:
    """pi/2 and 9/10 at prec bits, as the node functions compare and add them."""
    with LOCK, mp.workprec(prec):
        return mp.pi / 2, mpf(9) / 10


def _log_stable(x: mpf, xc: mpf) -> tuple[mpf]:
    """(log x,), x = 1 - xc with xc exact: log1p(-xc) when xc is tiny.

    Either way the result is within an ulp or so of the log of the exact
    node, relative: mpmath's log1p adds 1 - xc at twice the precision.
    """
    return (mp.log1p(-xc) if xc < _SMALL else mp.log(x),)


def _arcsines(x: mpf, xc: mpf) -> tuple[mpf, mpf]:
    """(arcsin x, arccos x) from one arcsine: a = asin x and pi/2 - a for
    x <= 9/10; above, arccos x = c = 2 asin(sqrt(xc/2)), an exact identity
    stable at x = 1, and arcsin x = pi/2 - c."""
    half_pi, nine_tenths = _constants(mp.prec)
    if x > nine_tenths:
        c = 2 * mp.asin(mp.sqrt(xc / 2))
        return half_pi - c, c
    a = mp.asin(x)
    return a, half_pi - a


def _atanh_stable(x: mpf, xc: mpf) -> tuple[mpf]:
    """(atanh x,) = ((log(1+x) - log(1-x))/2,) with 1+x = 2-xc, 1-x = xc exact."""
    if xc < _SMALL:
        return ((mp.log(2 - xc) - mp.log(xc)) / 2,)
    return (mp.atanh(x),)


@_mirrored
def _cots(x: mpf, xc: mpf) -> tuple:
    """cot((pi/2) x) at (x, xc) and at (xc, x), from one tan: tan((pi/2) xc)
    where xc < 1/2 (cot passes 0 at x = 1), else 1/tan((pi/2) x)."""
    t = mp.tan(_constants(mp.prec)[0] * min(x, xc))
    return ((t,), (1 / t,)) if xc < _HALF else ((1 / t,), (t,))


@_mirrored
def _log_sines(x: mpf, xc: mpf) -> tuple:
    """log(sin((pi/2) x)) at (x, xc) and at (xc, x), from one cos_sin of
    (pi/2) min(x, xc): log(cos((pi/2) xc)) where xc < 1/2, else log(sin)."""
    c, s = mp.cos_sin(_constants(mp.prec)[0] * min(x, xc))
    return ((mp.log(c),), (mp.log(s),)) if xc < _HALF else ((mp.log(s),), (mp.log(c),))


_log_column = _Column(_log_stable)
_arcsine_column = _Column(_arcsines)
_atanh_column = _Column(_atanh_stable)
_cot_column = _Column(_cots)
_log_sin_column = _Column(_log_sines)


# ---------------------------------------------------------------------------
# the bracket Li_p(-x) - Li_p(x) in scaled integers
# ---------------------------------------------------------------------------

# bits of the scaled integers beyond mpmath's working bits: the floors of a
# series of n terms then cost about n/2^_GUARD_BITS units of 2^-prec, and the
# bound states them apart from the final rounding
_GUARD_BITS = 4


def _scale_bits(wd: int) -> int:
    """B: the working bits at wd digits plus the guard."""
    return dps_to_prec(wd) + _GUARD_BITS


_POWERS: dict[int, list] = {}


def _powers(p: int, n: int) -> list:
    """[0, 1, 2^p, ..., n^p] or longer: the integers k^p, grown per p."""
    kp = _POWERS.setdefault(p, [0])
    if len(kp) <= n:
        kp.extend(k ** p for k in range(len(kp), n + 1))
    return kp


def _series_scaled(p: int, m: int, s: int, bits: int) -> tuple[int, int]:
    """(S, n): S = sum_(i<n) y^i/(2i + 1)^p for y = m 2^-s, |y| <= 1/2,
    as an integer scaled by 2^bits.

    The power y^i is a scaled integer floored once per step, so its error e_i
    obeys |e_i| <= |y| |e_(i-1)| + 1 < 2 units; each term is floored once
    more, so term i is within 1 + 2/(2i + 1)^p units (term 0 is exact),
    and S is within n - 1 + 2 (zeta(p) - 1) < n + 1 units of the exact
    partial sum.  Summing stops at the first term below 2^_GUARD_BITS units:
    at most bits + 2 terms, since the power reaches 0 or -1 by then.
    """
    kp = _powers(p, 2 * bits + 5)
    stop = 1 << _GUARD_BITS
    power = 1 << bits
    total = 0
    k = 1
    while True:
        term = power // kp[k]
        total += term
        if -stop < term < stop:
            return total, k // 2 + 1
        power = (power * m) >> s
        k += 2


def _zeta_rational(s: int) -> Fraction:
    """zeta(s) for integer s <= 0: -1/2, the trivial zeros, -B_(1-s)/(1-s)."""
    if s == 0:
        return Fraction(-1, 2)
    if s % 2 == 0:
        return Fraction(0)
    return -bernoulli_fraction(1 - s) / (1 - s)


@lru_cache(maxsize=None)
def _chi_coeffs(p: int, wd: int) -> tuple[tuple, list]:
    """(c, a): c_j 2^B as integers for the expansion of _bracket up to the
    degree |L| = 0.7 needs; a_k the largest log|L| at which degree p - 1 + 2k
    meets its tail bound, the terms' ratio taken as 0.05 and with a margin
    of a factor e.  Each c_j is within one unit: zeta_single(s, wd), at wd +
    10 digits, is good to 10^-(wd+5) (its bound is below 10^-(wd+9.7)),
    below 2^-(B+9); the rest is formed at B + 20 bits, every |c_j| < 2; and
    rounding to an integer costs half a unit.
    """
    bits = _scale_bits(wd)
    log_tol = -(wd + 2) * math.log(10) - 1 - math.log(1.06 * math.pi / 6)
    a: list[float] = []
    while not a or a[-1] < math.log(0.7):
        n = 2 * len(a) + 1
        a.append((log_tol + n * math.log(math.pi) + math.lgamma(p + n + 1) - math.lgamma(n + 1)) / (p + n))
    # zeta(p-j) for j = 0, 1, ..., with H_(p-1) + log 2 at j = p - 1
    zetas = [zeta_single(p - j, wd).value.magnitude for j in range(p - 1)]
    exact = [sum(Fraction(1, i) for i in range(1, p))] + [_zeta_rational(-n) for n in range(2 * len(a) - 2)]
    with LOCK, mp.workprec(bits + 20):
        zetas += [mpf(f.numerator) / f.denominator for f in exact]
        zetas[p - 1] += mp.log(2)
        return tuple(int(mp.nint(mp.ldexp(z * (1 - mp.ldexp(1, j - p)), bits) / math.factorial(j)))
                     for j, z in enumerate(zetas)), a


def _chi_horner(p: int, L: mpf, wd: int) -> tuple[int, int]:
    """(S, J): chi_p(e^L) 2^B as an integer, and the degree, for -0.7 < L < 0:
    Horner's rule over the expansion of _bracket in steps of L^2 down to
    p - 1, then of L, each product exact on L's mantissa and then floored."""
    log_neg_l = mp.log(-L)
    cs, a = _chi_coeffs(p, wd)
    J = p - 1 + 2 * bisect_left(a, float(log_neg_l))
    m, e = _pair(L)
    acc, m2 = cs[J], m * m
    for j in range(J - 2, p - 2, -2):
        acc = (acc * m2 >> -2 * e) + cs[j]
    acc -= int(mp.ldexp(log_neg_l, _scale_bits(wd) - 1)) // math.factorial(p - 1)
    for j in range(p - 2, -1, -1):
        acc = (acc * m >> -e) + cs[j]
    return acc, J


def _bracket(p: int, x: mpf, xc: mpf) -> tuple[mpf]:
    """(Li_p(-x) - Li_p(x),) at the working digits wd = mp.dps, as kernel_pair
    integrates it, in integers scaled by 2^B; u = 2^-B, eps = 2^-prec.

    x <= 1/2: -2 x S, S = sum_(j>=0) y^j/(2j+1)^p, y = x^2 <= 1/4, by
    _series_scaled on x's exact mantissa squared.  Its n floors cost under
    n + 1 units; its last term is under 16 units, the exact one under 18,
    and each later term is at most y times the one before: a tail under
    18 y/(1 - y) <= 6 units.  Rounding 2 x S 2^B once costs eps |value|, so
    the bound, relative down to the tiniest x, is

        |_bracket - (Li_p(-x) - Li_p(x))| <= 2 x (n + 7) u + eps |value|.

    1/2 < x < 1: -2 chi_p(x), Legendre's chi, in L = log x (the log
    column).  For |L| < 2 pi, Li_p(e^L) = sum_(j != p-1) zeta(p-j) L^j/j!
    + L^(p-1)/(p-1)! (H_(p-1) - log(-L)), and chi_p(x) = Li_p(x) - 2^-p
    Li_p(x^2) (as Li_p(x) + Li_p(-x) = 2^(1-p) Li_p(x^2)); with log x^2 = 2L

        chi_p(e^L) = sum_(j != p-1) (1 - 2^(j-p)) zeta(p-j) L^j/j!
                     + L^(p-1)/(2 (p-1)!) (H_(p-1) + log 2 - log(-L)).

    Terms j = p + n vanish for even n >= 0; for odd n, |zeta(-n)| <= 2 zeta(2)
    n!/(2 pi)^(n+1) bounds them by t_n = zeta(2)/pi |L|^p (|L|/pi)^n n!/(p+n)!,
    and t_(n+2) < rho t_n, rho = (|L|/pi)^2 < 0.05 as |L| < log 2.  Past
    degree J = p - 1 + 2k the tail is below t_(2k+1)/(1 - rho), and
    _chi_horner takes the least k putting it below tau = 10^-(wd+2).  Its J
    floors, J + 1 coefficients and log term (2 units) are multiplied
    afterwards by powers of |L| < 1: under 2J + 3 units.  L within 4 eps
    relative moves chi_p by 4 eps |L chi_(p-1)(e^L)| <= 4 eps log 2 pi^2/8
    (chi_1 = atanh: less), log(-L) within 2 eps relative by eps |L log(-L)|
    <= eps/e, and rounding -2 chi_p costs eps pi^2/4.  So

        |_bracket - (Li_p(-x) - Li_p(x))| <= 2 tau + (4J + 6) u + 11 eps.
    """
    wd = mp.dps
    bits = _scale_bits(wd)
    if x <= _HALF:
        m, e = _pair(x)
        odd = _series_scaled(p, m * m, -2 * e, bits)[0]
        return (-mp.ldexp(mpf(m * odd), 1 + e - bits),)
    L = mpf(_log_column(x, xc))
    return (mp.ldexp(mpf(-_chi_horner(p, L, wd)[0]), 1 - bits),)


@cache
def _bracket_column(p: int) -> _Column:
    """The node column of _bracket for this p, one per p."""
    return _Column(partial(_bracket, p))


# ---------------------------------------------------------------------------
# the specific integrals
# ---------------------------------------------------------------------------


def _column_power_integral(column: _Column, N: int, name: str, prec: int) -> QuadratureResult:
    """integral_0^1 f(z)^N/z dz, f the column's first slot, for I_quad and
    k_arctanh."""
    require(N, "N")

    def ev(x, xc):
        m, e = column(x, xc)
        _, mx, ex, _ = x._mpf_
        return scaled_quotient(m ** N, N * e - ex, mx)

    return integrate01(Integrand(ev, name=f"{name}({N})"), prec)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def I_quad(N: int, prec: int = 50) -> QuadratureResult:
    """integral_0^1 arcsin^N(z)/z dz by DE quadrature."""
    return _column_power_integral(_arcsine_column, N, "I", prec)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def j_cot(n: int, prec: int = 50) -> QuadratureResult:
    """J(n) = integral_0^(1/2) z^n cot(pi z) dz.

    Substituting z = x/2 maps to (0,1); cot(pi x/2) is rewritten as
    tan((pi/2) xc) near x = 1 (where cot passes through zero) and the z^n
    factor tames the 1/z pole of cot at the origin, leaving z^(n-1)/pi there.
    """
    require(n, "n")

    def ev(x, xc):  # (x/2)^n cot / 2
        m, e = _cot_column(x, xc)
        _, mx, ex, _ = x._mpf_
        return scaled_quotient(mx ** n * m, n * (ex - 1) + e - 1)

    return integrate01(Integrand(ev, name=f"J({n})"), prec)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def k_arctanh(N: int, prec: int = 50) -> QuadratureResult:
    """K(N) = integral_0^1 atanh^N(z)/z dz (log^N blowup at z = 1)."""
    return _column_power_integral(_atanh_column, N, "K", prec)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def t_kernel_quad(N: int, prec: int = 50) -> QuadratureResult:
    """(1/(2N+1)!) integral_0^1 arcsin^(2N+1)(z) arccos(z)/z dz.

    The arccos factor vanishes like sqrt(2(1-z)) at z = 1, an algebraic
    endpoint; above 9/10 it is evaluated through the half-angle identity
    and the arcsin is pi/2 minus it, below the reverse (_arcsines).  Both
    come from the arcsine column I_quad reads too.
    """
    require(N, "N")
    M = 2 * N + 1

    def ev(x, xc):
        m, e = _arcsine_column(x, xc)
        mc, ec = _arcsine_column(x, xc, 1)
        _, mx, ex, _ = x._mpf_
        return scaled_quotient(m ** M * mc, M * e + ec - ex, mx)

    raw = integrate01(Integrand(ev, name=f"t-kernel({N})"), prec)
    return scaled(raw, Fraction(1, math.factorial(M)))


def _check_kernel_args(p, q, sign_den) -> None:
    require(p, "p", 2)
    require(q, "q", 2, ": the 1/(1-x^2) endpoint is non-integrable" if sign_den == -1 else "")
    if sign_den not in (1, -1):
        raise ValueError("sign_den must be +1 or -1")


def _denominator(x: mpf, xc: mpf, sign_den: int) -> tuple[int, int]:
    """x (1 + sign_den x^2) as an exact pair (D, e), D > 0; for -1 as
    x xc (2 - xc), without cancellation.  x, xc <= 1 have exponents <= 0."""
    _, mx, ex, _ = x._mpf_
    if sign_den == -1:
        _, mc, ec, _ = xc._mpf_
        return mx * mc * ((2 << -ec) - mc), ex + 2 * ec
    return mx * ((1 << -2 * ex) + mx * mx), 3 * ex


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def kernel_pair(p: int, q: int, sign_den: int, prec: int = 50) -> QuadratureResult:
    """(-1)^q/(2 (q-1)!) [L(p,q,-1,den) - L(p,q,+1,den)], den = sign_den, where

        L(p,q,s,den) = integral_0^1 log^(q-1)(x) Li_p(s x)/(x (1 + den x^2)) dx.

    With sign_den = -1 the pair reproduces O(p,q), with +1 the alternating
    B(p,q).  The two integrals are taken as one, over the bracket
    Li_p(-x) - Li_p(x) (see _bracket).  Like every quadrature result the
    bound is an estimate.
    """
    _check_kernel_args(p, q, sign_den)
    bracket = _bracket_column(p)

    def ev(x, xc):
        ml, el = _log_column(x, xc)
        mb, eb = bracket(x, xc)
        d, ed = _denominator(x, xc, sign_den)
        return scaled_quotient(ml ** (q - 1) * mb, (q - 1) * el + eb - ed, d)

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
    require(n, "n")
    coerce_prec(prec)
    with LOCK, mp.workdps(prec + GUARD_DIGITS):
        mp_, ep = _pair(mp.pi)

    def ev(x, xc):  # ((pi/2) x)^(n-1) log sin
        m, e = _log_sin_column(x, xc)
        _, mx, ex, _ = x._mpf_
        return scaled_quotient((mp_ * mx) ** (n - 1) * m, (n - 1) * (ep - 1 + ex) + e)

    raw = integrate01(Integrand(ev, name=f"logsine({n})"), prec)
    return scaled(raw, Fraction(-n, 2), pi_const(prec))
