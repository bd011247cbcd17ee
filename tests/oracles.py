"""Brute-force partial sums kept as test oracles for the engine routes.

Each is a truncated sum, evaluated by a single sweep n = 1..cutoff over
dynamic-programming prefix sums: O(depth * cutoff) time and O(depth) memory.
The accumulators are scaled integers (value times 10^(prec+12)): integer
floor-division loses at most one unit in the last scaled place per
operation, so the total rounding error is bounded by (depth+1) * cutoff
ulps -- added to every reported error bound -- and results are
deterministic bit-for-bit.  ``HarmonicState`` and ``harmonic`` are exact
rational references for the loops themselves.

``DIRECT_KERNELS`` holds the quadrature kernels with every node function
computed at every node, without the node columns of ``multizeta.quadrature``,
each node value combined by the engine's rule ``scaled_quotient``: the
column-backed kernels must equal them bit for bit.  The node functions are
the columns' own, so the equality holds by construction and checks the
columns' storage, sharing and reads.  ``MPF_KERNELS`` forms the node values
in mpf arithmetic from independent formulas, as the kernels did before the
integer accumulator and the shared fills; the kernels must lie within
|total| 10^(1-wd) of them.

``O_TABLE_COMBOS`` keeps the five hand-typed rows O(p, p+1), p = 2..6, that
the odd Euler sums were once read from, ``B23_TERMS`` the one typed
alternating row B(2,3), and ``HOFFMAN_TERMS`` Hoffman's relations for
t({2}^N,1), N <= 3; the derived closed forms must equal them over Q.

``kernel_words`` writes the log-polylog integrals behind ``kernel_pair`` as
words of the iterated-integral engine of ``multizeta.series``, whose proved
bound then checks their closed forms.  ``words_value_per_word`` is that
engine as it was before its chains were shared: each word's top and bottom
chains built from scratch by ``word_integral``; the shared-chain walk must
equal it bit for bit.

``combine_mpf``, ``integrate_loops``, ``arccos_moment_comb``,
``sum_at_fractions`` and ``fmt_nstr`` are ``hp.combine``,
``series._integrate``, ``wseries._arccos_moment``, ``wseries._sum_at`` and
``verify._fmt`` as they were before they ran on raw mpmath values and in
integers: mpf operators under ``mp.workdps``, one floor division per
coefficient, two ``math.comb`` calls per term, a ``Fraction`` per addition
and ``mp.nstr``.  The package's versions must equal them bit for bit.

Tail bounds.  For a strictly-decreasing nested sum with outer exponent e and
inner exponents e_2..e_k, the tail past n > C is majorised by the product of
full inner prefix sums:

    sum_{n>C} n^(-e) * prod_j (sum_{m<=n} m^(-e_j))
        <= prod_{e_j>=2} zeta(2) * (1+ln n)^m * C^(1-e)/(e-1)-type integral

where m counts inner exponents equal to 1 (whose prefix sums grow like ln n).
When m = 0 this is the classical zeta(2)^(depth-1) * C^(1-e)/(e-1) majorant.
When m > 0 the log factors are handled by the incomplete-gamma integral

    sum_{n>C} (1+ln n)^m n^(-e) <= 2 * (1+ln C)^m * C^(1-e)/(e-1)

valid whenever (e-1)(1+ln C) >= 2m (amply true for every cutoff >= 100 used
here); the factor 2 absorbs the by-parts corrections.  These bounds remain
valid verbatim for odd denominators (2n-1 >= n) and for parity-constrained
sums (their chains are a subset of the unconstrained ones).
"""

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import accumulate
from operator import floordiv

from mpmath import mp, mpf

from multizeta.hp import (
    GUARD_DIGITS,
    LOCK,
    EvalResult,
    _scales_exactly,
    coerce_prec,
    pi_const,
    scaled,
    t_single,
    wrap_result,
)
from multizeta.quadrature import (
    _arcsines,
    _atanh_stable,
    _bracket_column,
    _cot_column,
    _log_sin_column,
    _denominator,
    _log_stable,
    _pair,
    integrate01,
    scaled_quotient,
)
from multizeta.series import (
    _PLAIN,
    _REFLECT,
    _ROUND_UNITS,
    VALEAN_KINDS,
    _at_half,
    _entries,
    _integrate,
)
from multizeta.symbolic import _KINDS, LOG2, SymbolicExpr, pi_zeta_expr, t_single_expr
from multizeta.wseries import SeriesCoeff

DEFAULT_CUTOFF = 10 ** 6
_SCALE_EXTRA = 12  # scaled-integer guard digits below the reported precision


@dataclass
class HarmonicState:
    """Running partial sums advanced one index at a time (exact rationals).

    ``values[p]``         H_n^(p)   = sum_{k<=n} k^(-p)
    ``odd_values[p]``     O_n(p)    = sum_{k<=n} (2k-1)^(-p)
    ``alt_odd_values[p]`` B_n(p)    = sum_{k<=n} (-1)^k (2k-1)^(-p)

    Useful as a slow-but-exact oracle in tests; the production loops below
    use scaled integers instead.
    """

    n: int = 0
    values: dict[int, Fraction] = dc_field(default_factory=dict)
    odd_values: dict[int, Fraction] = dc_field(default_factory=dict)
    alt_odd_values: dict[int, Fraction] = dc_field(default_factory=dict)

    def track(self, p: int, odd: bool = False, alt_odd: bool = False) -> None:
        if self.n:
            raise ValueError("track exponents before advancing")
        target = self.alt_odd_values if alt_odd else (self.odd_values if odd else self.values)
        target.setdefault(p, Fraction(0))

    def advance(self) -> None:
        self.n += 1
        n = self.n
        d = 2 * n - 1
        for p in self.values:
            self.values[p] += Fraction(1, n ** p)
        for p in self.odd_values:
            self.odd_values[p] += Fraction(1, d ** p)
        for p in self.alt_odd_values:
            self.alt_odd_values[p] += Fraction((-1) ** n, d ** p)


def harmonic(n: int, p: int) -> Fraction:
    """Exact generalized harmonic number H_n^(p) = sum_{k=1..n} k^(-p).

    n = 0 returns the empty sum 0 (not an error).
    """
    if n < 0 or p < 1:
        raise ValueError("harmonic requires n >= 0 and p >= 1")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k ** p)
    return total


# ---------------------------------------------------------------------------
# Tail majorants
# ---------------------------------------------------------------------------


def _chain_tail(entries: tuple[int, ...], cutoff: int, wd: int) -> tuple[mpf, bool]:
    """Tail majorant for a nested strictly-decreasing (or parity) chain.

    Product-of-prefix-sums bound as derived in the module docstring.  The
    leading constant uses 1.645 > zeta(2) per inner exponent >= 2 and
    (1 + ln(2*cutoff)) per inner exponent 1 (the 2*cutoff covers odd
    denominators, whose largest value is 2*cutoff - 1).
    """
    e1 = entries[0]
    ones = sum(1 for e in entries[1:] if e == 1)
    caps = sum(1 for e in entries[1:] if e >= 2)
    with LOCK, mp.workdps(wd):
        bound = mpf("1.645") ** caps * mpf(cutoff) ** (1 - e1) / (e1 - 1)
        if ones == 0:
            return bound, True
        bound *= (1 + mp.log(2 * cutoff)) ** ones
        if (e1 - 1) * (1 + mp.log(cutoff)) >= 2 * ones:
            return 2 * bound, True
        return 4 * bound, False  # very small cutoffs: keep a bound, flag it


def _slop(n_ops: int, prec: int, wd: int) -> mpf:
    """Accumulated scaled-integer floor error: one ulp per floor division."""
    with LOCK, mp.workdps(wd):
        return mpf(n_ops) * mpf(10) ** (-(prec + _SCALE_EXTRA))


# ---------------------------------------------------------------------------
# Strictly-decreasing families (integer and odd denominators)
# ---------------------------------------------------------------------------


def _strict_chain_dp(entries: tuple[int, ...], cutoff: int, scale: int, odd: bool) -> int:
    """Scaled-integer DP for sum over n_1 > ... > n_k >= 1, n_1 <= cutoff.

    f[j] holds the chain sum from level j inward over indices <= n processed
    so far.  Updating j in *increasing* order reads f[j+1] before its own
    update at this n, which is exactly the strict inequality n_j > n_{j+1}.
    """
    k = len(entries)
    f = [0] * (k + 2)
    f[k + 1] = scale
    for n in range(1, cutoff + 1):
        d = 2 * n - 1 if odd else n
        last_e = 0
        p = 1
        for j in range(1, k + 1):
            e = entries[j - 1]
            if e != last_e:
                p = d ** e
                last_e = e
            f[j] += f[j + 1] // p
    return f[1]


def _strict_series(idx, cutoff: int, prec: int, odd: bool) -> EvalResult:
    entries = _entries(idx)
    coerce_prec(prec)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    acc = _strict_chain_dp(entries, cutoff, scale, odd)
    tail, rigorous = _chain_tail(entries, cutoff, wd)
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        bound = tail + _slop((len(entries) + 1) * cutoff, prec, wd)
    return wrap_result(val, bound, prec, rigorous)


def mzv_series(idx, cutoff: int = DEFAULT_CUTOFF, prec: int = 50) -> EvalResult:
    """Nested sum over n_1 > ... > n_k >= 1 of prod n_j^(-i_j), truncated.

    The index is outermost-first; entries[0] >= 2 is required for
    convergence.  A cutoff below the depth yields the (correct) empty sum
    with the full tail majorant as its bound.
    """
    return _strict_series(idx, cutoff, prec, odd=False)


def mtv_series(idx, cutoff: int = DEFAULT_CUTOFF, prec: int = 50) -> EvalResult:
    """As mzv_series but over odd denominators: prod (2 n_j - 1)^(-i_j)."""
    return _strict_series(idx, cutoff, prec, odd=True)


# ---------------------------------------------------------------------------
# Parity-constrained family
# ---------------------------------------------------------------------------


def mu_series(idx, cutoff: int = DEFAULT_CUTOFF, prec: int = 50) -> EvalResult:
    """Parity-interleaved nested sum, index written outermost-first.

    Sums prod_j n_j^(-e_j) over n_k > n_(k-1) > ... > n_1 >= 1 subject to
    n_j == j (mod 2): the innermost variable is odd, the next even, and so
    on.  The index (i_k, ..., i_1) gives the *outermost* exponent first, so
    entries[0] (>= 2 required) belongs to the largest variable n_k.

    DP: level j accumulates g[j] += g[j-1] * n^(-e_j), but only at n of the
    right parity; adjacent levels have opposite parity, so g[j-1] is always
    the strictly-earlier state and the chain inequalities stay strict.
    """
    entries = _entries(idx)
    coerce_prec(prec)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    k = len(entries)
    # level j (1 = innermost) carries exponent entries[k - j]
    lev_exp = [0] * (k + 1)
    for j in range(1, k + 1):
        lev_exp[j] = entries[k - j]
    g = [0] * (k + 1)
    g[0] = scale
    for n in range(1, cutoff + 1):
        start = 1 if (n & 1) else 2
        for j in range(start, k + 1, 2):
            e = lev_exp[j]
            g[j] += g[j - 1] // (n if e == 1 else n ** e)
    tail, rigorous = _chain_tail(entries, cutoff, wd)
    with LOCK, mp.workdps(wd):
        val = mpf(g[k]) / scale
        bound = tail + _slop((k + 1) * cutoff, prec, wd)
    return wrap_result(val, bound, prec, rigorous)


def big_t_series(idx, cutoff: int = DEFAULT_CUTOFF, prec: int = 50) -> EvalResult:
    """2^depth times mu_series: the normalised variant of the parity sum."""
    return scaled(mu_series(idx, cutoff, prec), 2 ** len(_entries(idx)))


# ---------------------------------------------------------------------------
# Euler-type sums over full harmonic prefixes
# ---------------------------------------------------------------------------


def euler_H_series(
    ps, q: int, cutoff: int = DEFAULT_CUTOFF, prec: int = 50
) -> EvalResult:
    """sum_{n<=cutoff} prod_j H_n^(p_j) / n^q.

    q >= 2 is required; p_j = 1 factors are allowed (H_n grows only
    logarithmically).  The tail bound multiplies zeta(2)-caps for p_j >= 2
    and (1+ln cutoff) factors for p_j = 1; with log factors present the
    bound is flagged non-rigorous (heuristic constant), matching how the
    growth of H_n past the cutoff is estimated rather than proved here.
    """
    if isinstance(ps, int):
        ps = (ps,)
    ps = tuple(int(p) for p in ps)
    if not ps or any(p < 1 for p in ps):
        raise ValueError("ps must be a nonempty sequence of integers >= 1")
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"outer exponent q >= 2 required, got {q!r} (sum diverges)")
    coerce_prec(prec)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    distinct = sorted(set(ps))
    h = {p: 0 for p in distinct}
    acc = 0
    for n in range(1, cutoff + 1):
        for p in distinct:
            h[p] += scale // (n if p == 1 else n ** p)
        t = h[ps[0]]
        for p in ps[1:]:
            t = t * h[p] // scale
        acc += t // (n ** q)
    ones = sum(1 for p in ps if p == 1)
    caps = len(ps) - ones
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        tail = mpf("1.645") ** caps * mpf(cutoff) ** (1 - q) / (q - 1)
        if ones:
            tail *= 2 * (1 + mp.log(cutoff)) ** ones
        bound = tail + _slop((len(ps) + 2) * cutoff, prec, wd)
    return wrap_result(val, bound, prec, rigorous=(ones == 0))


# ---------------------------------------------------------------------------
# Odd Euler sums
# ---------------------------------------------------------------------------


# O(p, p+1) as exact terms (coefficient, pi power, zeta index; 0 stands for 1),
# zeta(2) in the (2,3) row already rewritten as pi^2/6
O_TABLE_COMBOS = {
    (2, 3): [("31/64", 0, 5), ("3/64", 2, 3)],
    (3, 4): [("1/128", 4, 3), ("-5/128", 2, 5), ("127/256", 0, 7)],
    (4, 5): [("5/3072", 4, 5), ("105/3072", 2, 7), ("511/1024", 0, 9)],
    (5, 6): [("1/1024", 6, 5), ("-7/4096", 4, 7), ("-63/2048", 2, 9), ("2047/4096", 0, 11)],
    (6, 7): [("7/122880", 6, 7), ("7/4096", 4, 9), ("231/8192", 2, 11), ("8191/16384", 0, 13)],
}

# B(2,3) as the same kind of terms, -2 standing for beta(2) (Catalan's constant)
B23_TERMS = [("31/64", 0, 5), ("-9/256", 2, 3), ("1/32", 3, -2)]


# ---------------------------------------------------------------------------
# Hoffman's t-value relations
# ---------------------------------------------------------------------------


# t({2}^N, 1) as (coefficient, t-value factors, power of log 2) terms, N = 1..3,
# as Hoffman proved them.  The t(2)t(3) coefficient of N = 2 is 3/14: 1/14
# misses I(4)/4! by 8e-5.
HOFFMAN_TERMS = {
    1: [("1", (2,), 1), ("-1/2", (3,), 0)],
    2: [("1/8", (5,), 0), ("-3/14", (2, 3), 0), ("1/4", (4,), 1)],
    3: [("-1/32", (7,), 0), ("-3/56", (3, 4), 0), ("15/248", (2, 5), 0), ("1/48", (6,), 1)],
}


def hoffman_expr(N: int) -> SymbolicExpr:
    """HOFFMAN_TERMS[N] as an exact basis expression."""
    acc = SymbolicExpr.zero()
    for c, t_args, log_pow in HOFFMAN_TERMS[N]:
        term = pi_zeta_expr([(c, 0, 0)])
        for m in t_args:
            term = term * t_single_expr(m)
        if log_pow:
            term = term * SymbolicExpr.atom(LOG2, log_pow)
        acc = acc + term
    return acc


# The ring operations as first written, on terms tuples: each builds a dict of
# monomials and sorts it by a key computed from the kinds' names.  The ring's
# operations must give these tuples, order included.


def _ring_factor_key(c) -> tuple:
    return (list(_KINDS).index(c.kind), c.arg)


def ring_monomial(pairs) -> tuple:
    """prod c^e over (c, e) pairs, sorted by kind row and argument."""
    merged = {}
    for c, e in pairs:
        if e:
            merged[c] = merged.get(c, 0) + e
    return tuple(sorted(((c, e) for c, e in merged.items() if e), key=lambda p: _ring_factor_key(p[0])))


def _ring_term_key(item) -> tuple:
    mono, _ = item
    pi_exp = next((e for c, e in mono if c.kind == "pi"), 0)
    return (-pi_exp, tuple((_ring_factor_key(c), e) for c, e in mono if c.kind != "pi"))


def ring_from_dict(d: dict) -> tuple:
    """The terms of a monomial -> coefficient dict: zeros dropped, sorted."""
    return tuple(sorted(((m, c) for m, c in d.items() if c != 0), key=_ring_term_key))


def ring_add(a: tuple, b: tuple) -> tuple:
    d = dict(a)
    for m, c in b:
        d[m] = d.get(m, Fraction(0)) + c
    return ring_from_dict(d)


def ring_scale(a: tuple, c) -> tuple:
    c = Fraction(c)
    return ring_from_dict({m: k * c for m, k in a})


def ring_mul(a: tuple, b: tuple) -> tuple:
    d = {}
    for m1, c1 in a:
        for m2, c2 in b:
            m = ring_monomial(list(m1) + list(m2))
            d[m] = d.get(m, Fraction(0)) + c1 * c2
    return ring_from_dict(d)


def ring_divide_by_pi(a: tuple) -> tuple:
    d = {}
    for mono, c in a:
        if all(cc.kind != "pi" for cc, _ in mono):
            raise ValueError(f"term {c} * {mono} has no pi factor to cancel")
        d[ring_monomial([(cc, e - 1 if cc.kind == "pi" else e) for cc, e in mono])] = c
    return ring_from_dict(d)


def odd_O_series(
    p: int, q: int, cutoff: int = DEFAULT_CUTOFF, prec: int = 50
) -> EvalResult:
    """sum_{n<=cutoff} O_n(p) / (2n-1)^q with O_n(p) = sum_{k<=n} (2k-1)^(-p).

    Note the inner prefix is *non-strict* (k = n included).  Rigorous tail:
    for p >= 2, O_n(p) <= t(p) < 1.3 and the outer tail integrates to
    t(p) * (2*cutoff)^(1-q)/(q-1); for p = 1 the inner prefix grows like
    (1/2) ln n and the weighted integral

        sum_{n>C} (1 + ln(2n-1)) (2n-1)^(-q)
            <= [(1+ln v) v^(1-q)/(q-1) + v^(1-q)/(q-1)^2] / 2,  v = 2C-1,

    is used instead (also rigorous).
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"p must be an integer >= 1, got {p!r}")
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q >= 2 required, got {q!r}")
    coerce_prec(prec)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    o = 0
    acc = 0
    for n in range(1, cutoff + 1):
        d = 2 * n - 1
        o += scale // (d if p == 1 else d ** p)
        acc += o // (d ** q)
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        if p >= 2:
            cap = t_single(p, min(prec, 30)).value.magnitude * mpf("1.001")
            tail = cap * mpf(2 * cutoff) ** (1 - q) / (q - 1)
        else:
            v = mpf(2 * cutoff - 1)
            tail = ((1 + mp.log(v)) * v ** (1 - q) / (q - 1) + v ** (1 - q) / (q - 1) ** 2) / 2
        bound = tail + _slop(2 * cutoff, prec, wd)
    return wrap_result(val, bound, prec, rigorous=True)


def odd_B_series(
    p: int, q: int, cutoff: int = DEFAULT_CUTOFF, prec: int = 50
) -> EvalResult:
    """sum_{n<=cutoff} (-1)^n B_n(p) / (2n-1)^q, B_n(p) = sum (-1)^k (2k-1)^(-p).

    Both sign conventions (leading term negative as here, or both signs
    flipped) give the same series because the signs cancel in the product;
    a unit test pins that equivalence.  Internally the positive quantity
    -B_n is tracked so the scaled-integer floors always truncate toward
    zero.

    Rigorous tail: splitting B_n = B_inf + (alternating remainder whose
    magnitude is below (2n+1)^(-p)) gives

        |tail| <= (2C+1)^(-q)  +  (2C-1)^(1-p-q) / (2(p+q-1)),

    the first piece from the alternating series with constant B_inf, the
    second from the remainder sum.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"p must be an integer >= 1, got {p!r}")
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q >= 2 required, got {q!r}")
    coerce_prec(prec)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    pb = 0  # -B_n scaled: alternating sum with positive leading term
    acc = 0
    for n in range(1, cutoff + 1):
        d = 2 * n - 1
        step = scale // (d if p == 1 else d ** p)
        if n & 1:
            pb += step
            acc += pb // (d ** q)
        else:
            pb -= step
            acc -= pb // (d ** q)
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        tail = mpf(2 * cutoff + 1) ** (-q) + mpf(2 * cutoff - 1) ** (1 - p - q) / (
            2 * (p + q - 1)
        )
        bound = tail + _slop(2 * cutoff, prec, wd)
    return wrap_result(val, bound, prec, rigorous=True)


# ---------------------------------------------------------------------------
# Alternating even-index harmonic sums
# ---------------------------------------------------------------------------


def valean_alt_sum(kind: str, cutoff: int = 10 ** 5, prec: int = 50) -> EvalResult:
    """Alternating sums of even-indexed harmonic numbers.

    kinds: H2n_over_n4    sum (-1)^(n-1) H_{2n}    / n^4
           H2n2_over_n3   sum (-1)^(n-1) H_{2n}^(2)/ n^3

    The terms are not monotone (H_{2n} grows), so the classical alternating
    remainder theorem does not literally apply; the reported bound is ten
    times the last computed term and is flagged non-rigorous.
    """
    if kind not in VALEAN_KINDS:
        raise ValueError(f"kind must be one of {VALEAN_KINDS}, got {kind!r}")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    coerce_prec(prec)
    e = 4 if kind == "H2n_over_n4" else 3
    sq = kind == "H2n2_over_n3"
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    h = 0
    acc = 0
    term = 0
    for n in range(1, cutoff + 1):
        a, b = 2 * n - 1, 2 * n
        if sq:
            h += scale // (a * a) + scale // (b * b)
        else:
            h += scale // a + scale // b
        term = h // n ** e
        acc += term if n & 1 else -term
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        bound = 10 * mpf(term) / scale + _slop(3 * cutoff, prec, wd)
    return wrap_result(val, bound, prec, rigorous=False)

# ---------------------------------------------------------------------------
# The non-strict triple sum
# ---------------------------------------------------------------------------


def _triple_nonstrict_sum(cutoff: int, prec: int):
    """sum_{m>n>=k>=1} 1/(m^3 n k) = sum_m m^-3 sum_{n<m} H_n/n, by scaled
    integers; returns (value, rigorous bound).  The full sum is
    zeta(3,1,1) + zeta(3,2)."""
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + 12)
    h = 0  # H_n scaled
    a = 0  # sum_{n<=current} H_n/n scaled
    acc = 0
    for m in range(2, cutoff + 1):
        n = m - 1
        h += scale // n
        a += h // n
        acc += a // m ** 3
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        # integral majorant: sum_{m>C} (1+ln m)^2/m^3 <= ((1+L)^2 + (1+L) + 1/2)/(2C^2)
        L = mp.log(cutoff)
        tail = ((1 + L) ** 2 + (1 + L) + mpf(1) / 2) / (2 * mpf(cutoff) ** 2)
        slop = mpf(3 * cutoff + 10) / scale
        return val, tail + slop


# ---------------------------------------------------------------------------
# Quadrature kernels evaluated node by node, without node columns
# ---------------------------------------------------------------------------


# independent formulas for MPF_KERNELS: tan or cot, cos or sin, and the
# bracket as two polylogarithms, where the columns share one transcendental
# per node pair and sum Legendre's chi


def _cot(x, xc):
    if xc < mpf(1) / 2:
        return mp.tan(mp.pi / 2 * xc)
    return mp.cot(mp.pi * (x / 2))


def _log_sin(x, xc):
    if xc < mpf(1) / 2:
        return mp.log(mp.cos(mp.pi / 2 * xc))
    return mp.log(mp.sin(mp.pi / 2 * x))


def _bracket(p, x, xc):
    """Li_p(-x) - Li_p(x) at the working digits, by mp.polylog 20 digits
    above them, at the node 1 - xc where xc < 1/2 (x may round to 1 there)."""
    wd = mp.dps
    with mp.workdps(wd + 20):
        node = 1 - xc if xc < 0.5 else x
        exact = mp.polylog(p, -node) - mp.polylog(p, node)
    return +exact


def _mpf_denominator(x, xc, sign_den):
    return x * xc * (2 - xc) if sign_den == -1 else x * (1 + x * x)


# Each kernel's node value formed by quadrature.scaled_quotient, the engine's
# rule, from its factor functions computed at the node.


def node_copy(x):
    """x's value as another object: a node function given it computes, and
    reads neither a column nor the values a mirrored node function kept."""
    return mp.make_mpf(x._mpf_)


def _i_direct(N: int, prec: int):
    def ev(x, xc):
        m, e = _pair(_arcsines(x, xc)[0])
        mx, ex = _pair(x)
        return scaled_quotient(m ** N, N * e - ex, mx)

    return integrate01(ev, prec)


def _j_direct(n: int, prec: int):
    def ev(x, xc):
        m, e = _pair(_cot_column.fn(node_copy(x), xc)[0])
        mx, ex = _pair(x)
        return scaled_quotient(mx ** n * m, n * (ex - 1) + e - 1)

    return integrate01(ev, prec)


def _k_direct(N: int, prec: int):
    def ev(x, xc):
        m, e = _pair(_atanh_stable(x, xc)[0])
        mx, ex = _pair(x)
        return scaled_quotient(m ** N, N * e - ex, mx)

    return integrate01(ev, prec)


def _t_direct(N: int, prec: int):
    M = 2 * N + 1

    def ev(x, xc):
        acos = _arcsines(x, xc)[1]
        m, e = _pair(mp.pi / 2 - acos if x > mpf(9) / 10 else mp.asin(x))
        mc, ec = _pair(acos)
        mx, ex = _pair(x)
        return scaled_quotient(m ** M * mc, M * e + ec - ex, mx)

    return scaled(integrate01(ev, prec), Fraction(1, math.factorial(M)))


def _pair_direct(p: int, q: int, sign_den: int, prec: int):
    def ev(x, xc):
        ml, el = _pair(_log_stable(x, xc)[0])
        mb, eb = _pair(_bracket_column(p).fn(node_copy(x), xc)[0])
        d, ed = _denominator(x, xc, sign_den)
        return scaled_quotient(ml ** (q - 1) * mb, (q - 1) * el + eb - ed, d)

    raw = integrate01(ev, prec)
    return scaled(raw, Fraction((-1) ** q, 2 * math.factorial(q - 1)))


def _logsine_direct(n: int, prec: int):
    def ev(x, xc):
        m, e = _pair(_log_sin_column.fn(node_copy(x), xc)[0])
        mp_, ep = _pair(mp.pi)
        mx, ex = _pair(x)
        return scaled_quotient((mp_ * mx) ** (n - 1) * m, (n - 1) * (ep - 1 + ex) + e)

    return scaled(integrate01(ev, prec), Fraction(-n, 2), pi_const(prec))


# public kernel name -> the same kernel evaluated node by node; called with
# the kernel's own arguments, prec last
DIRECT_KERNELS = {
    "I_quad": _i_direct,
    "j_cot": _j_direct,
    "k_arctanh": _k_direct,
    "t_kernel_quad": _t_direct,
    "kernel_pair": _pair_direct,
    "logsine_check": _logsine_direct,
}


# The same kernels with every node value formed in mpf arithmetic, as before
# the integer accumulator: an independent check of the engine's rounding.


def _pair_mpf(p: int, q: int, sign_den: int, prec: int):
    def ev(x, xc):
        return _log_stable(x, xc)[0] ** (q - 1) * _bracket(p, x, xc) / _mpf_denominator(x, xc, sign_den)

    return scaled(integrate01(ev, prec), Fraction((-1) ** q, 2 * math.factorial(q - 1)))


MPF_KERNELS = {
    "I_quad": lambda N, prec: integrate01(lambda x, xc: _arcsines(x, xc)[0] ** N / x, prec),
    "j_cot": lambda n, prec: integrate01(lambda x, xc: (x / 2) ** n * _cot(x, xc) / 2, prec),
    "k_arctanh": lambda N, prec: integrate01(lambda x, xc: _atanh_stable(x, xc)[0] ** N / x, prec),
    "t_kernel_quad": lambda N, prec: scaled(
        integrate01(lambda x, xc: _arcsines(x, xc)[0] ** (2 * N + 1) * _arcsines(x, xc)[1] / x, prec),
        Fraction(1, math.factorial(2 * N + 1)),
    ),
    "kernel_pair": _pair_mpf,
    "logsine_check": lambda n, prec: scaled(
        integrate01(lambda x, xc: (mp.pi / 2 * x) ** (n - 1) * _log_sin(x, xc), prec),
        Fraction(-n, 2),
        pi_const(prec),
    ),
}


# ---------------------------------------------------------------------------
# The log-polylog integrals as iterated-integral words
# ---------------------------------------------------------------------------


def kernel_words(p: int, q: int, s: int, den: int) -> list:
    """L(p,q,s,den) = integral_0^1 log^(q-1)(x) Li_p(s x)/(x (1 + den x^2)) dx
    as [(integer coefficient, word)] for ``series._words_value``, q >= 2.

    With 1/(x (1 - x^2)) = w0 + tau, 1/(x (1 + x^2)) = w0 - sigma,
    log^(q-1) x = (-1)^(q-1) (q-1)! I(x; w0^(q-1); 1), Li_p(x) =
    I(0; w0^(p-1) w1; x) and Li_p(-x) = -I(0; w0^(p-1) (2 rho - w1); x):

        L(p,q,s,den) = s (-1)^(q-1) (q-1)! I(w0^(q-1) m w0^(p-1) l_s),

    m = w0 + tau for den = -1 and w0 - sigma for +1, l_+ = w1, l_- = 2 rho - w1.
    """
    middle = ((1, "w0"), (1, "tau") if den == -1 else (-1, "sigma"))
    last = ((1, "w1"),) if s == 1 else ((2, "rho"), (-1, "w1"))
    c = s * (-1) ** (q - 1) * math.factorial(q - 1)
    return [
        (c * a * b, ("w0",) * (q - 1) + (m,) + ("w0",) * (p - 1) + (l,))
        for a, m in middle
        for b, l in last
    ]


# ---------------------------------------------------------------------------
# The iterated-integral engine, one word at a time
# ---------------------------------------------------------------------------


def word_integral(word: tuple, n_terms: int, bits: int) -> int:
    """2^bits I(0; f_1 ... f_W; 1), f_1 the letter next to 1, as a floor:
    Hölder convolution at 1/2, the top pieces built from f~_1 outward and
    the bottom ones from f_W outward, each from scratch."""
    one = [1 << bits] + [0] * n_terms
    top = [1 << bits]
    c = one
    for f in word:
        c = _integrate(_REFLECT[f], c)
        top.append(_at_half(c))
    bottom = [1 << bits]
    c = one
    for f in reversed(word):
        c = _integrate(f, c)
        bottom.append(_at_half(c))
    bottom.reverse()
    return sum(t * b for t, b in zip(top, bottom)) >> bits


def words_value_per_word(words: list, prec: int) -> EvalResult:
    """sum c I(word) over [(integer c, word)] with nested_value's widths and
    proved bound, every word by word_integral."""
    width = max(len(word) for _, word in words)
    n_terms = (prec + GUARD_DIGITS + 5) * 3322 // 1000 + 11
    bits = n_terms + (5 * width + 2).bit_length()
    total = units = 0
    for coeff, word in words:
        total += coeff * word_integral(word, n_terms, bits)
        d = _ROUND_UNITS * len(word) + 2 + (1 << (bits - n_terms))
        units += abs(coeff) * (3 * (len(word) + 1) * d + 1)
    with LOCK, mp.workprec(max(total.bit_length(), units.bit_length(), 1)):
        val = mp.ldexp(mpf(total), -bits)
        bound = mp.ldexp(mpf(units), -bits)
    return wrap_result(val, bound, prec, rigorous=True)


# ---------------------------------------------------------------------------
# The loops before they ran on raw values and integers
# ---------------------------------------------------------------------------


def combine_mpf(terms, prec: int) -> EvalResult:
    """hp.combine in mpf operators at mp.workdps(prec + GUARD_DIGITS)."""
    wd = prec + GUARD_DIGITS
    with LOCK, mp.workdps(wd):
        slop = mpf(10) ** (1 - wd)
        total = bound = scale = mpf(0)
        for coeff, factors in terms:
            v, b = mpf(1), mpf(0)
            for f in factors:
                x, r = f.value.magnitude, f.error_bound.magnitude
                b = abs(v) * r + abs(x) * b + r * b
                v *= x
            if len(factors) > 1:
                b += abs(v) * slop
            coeff = Fraction(coeff)
            cf = mpf(coeff.numerator) / coeff.denominator
            t = cf * v
            total += t
            bound += abs(cf) * b
            if len(terms) == 1 and len(factors) <= 1 and not _scales_exactly(coeff):
                bound += mp.ldexp(abs(t), 1 - mp.prec)
            scale = max(scale, abs(t))
        bound += max(len(terms) - 1, 0) * scale * slop
        rigorous = all(f.rigorous for _, factors in terms for f in factors)
        return wrap_result(total, bound, prec, rigorous=rigorous)


def integrate_loops(letter: str, c: list) -> list:
    """series._integrate with one floor division per coefficient in its loops."""
    n_max = len(c) - 1
    g = [0] * (n_max + 1)
    if letter == "w0":
        g[1:] = map(floordiv, c[1:], range(1, n_max + 1))
    elif letter == "w1":
        g[1:] = map(floordiv, accumulate(c[:n_max]), range(1, n_max + 1))
    elif letter in _PLAIN:
        s, d, j = _PLAIN[letter]
        acc = [0, 0]
        for n in range(n_max):
            acc[n % d] = s * acc[n % d] + (c[n - j] if n >= j else 0)
            g[n + 1] = acc[n % d] // (n + 1)
    elif letter in ("rho~", "tau~"):
        sign = 1 if letter == "rho~" else -1
        q = 0
        for n in range(n_max):
            q = (c[n] + 2 * q) // 4
            g[n + 1] = (c[n + 1] + sign * 2 * q) // (2 * (n + 1))
    elif letter in ("sigma~", "kappa~"):
        lag = 1 if letter == "sigma~" else 0
        p1 = p2 = 0
        for n in range(n_max):
            p1, p2 = (c[n] - lag * (c[n - 1] if n else 0) + 2 * p1 - p2) // 2, p1
            g[n + 1] = p1 // (n + 1)
    return g


def arccos_moment_comb(n: int) -> SeriesCoeff:
    """wseries._arccos_moment with two math.comb calls per term."""
    m, odd = n - 1, n % 2
    L = math.lcm(*range(1, n + 1))
    total = sum((-1) ** (k // 2) * (math.comb(m, i) - (math.comb(m, i - 1) if i else 0))
                * (L // k) ** (1 + odd) for i, k in enumerate(range(n, 0, -2)))
    if odd:
        return SeriesCoeff(Fraction(total, L * L << m))
    return SeriesCoeff(Fraction(0), Fraction(-total, L << n))


def sum_at_fractions(terms) -> tuple:
    """(q, r) of wseries._sum_at, added one Fraction at a time."""
    q = r = Fraction(0)
    for x, c in terms:
        q, r = q + x * c.rational, r + x * c.pi_part
    return q, r


def fmt_nstr(x) -> str:
    """verify._fmt through mp.nstr at 30 working digits."""
    with LOCK, mp.workdps(30):
        return mp.nstr(mpf(x), 20)
