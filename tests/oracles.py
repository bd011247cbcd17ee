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
computed at every node, as the integrands read before the node columns of
``multizeta.quadrature``: the column-backed kernels must equal them bit for
bit.

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

from mpmath import mp, mpf

from multizeta.hp import (
    GUARD_DIGITS,
    LOCK,
    EvalResult,
    coerce_prec,
    pi_const,
    scaled,
    t_single,
    wrap_result,
)
from multizeta.quadrature import (
    _asin_stable,
    _atanh_stable,
    _denominator,
    _log_horner,
    _log_stable,
    _mantissa,
    _polylog_raw,
    _scale_bits,
    _series_scaled,
    acos_stable,
    integrate01,
)
from multizeta.series import VALEAN_KINDS, _as_index

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
    index = _as_index(idx)
    if not index.admissible():
        raise ValueError(
            f"index {index.entries} diverges: outermost exponent must be >= 2"
        )
    coerce_prec(prec)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    acc = _strict_chain_dp(index.entries, cutoff, scale, odd)
    tail, rigorous = _chain_tail(index.entries, cutoff, wd)
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        bound = tail + _slop((index.depth + 1) * cutoff, prec, wd)
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
    index = _as_index(idx)
    if not index.admissible():
        raise ValueError(
            f"index {index.entries} diverges: outermost exponent must be >= 2"
        )
    coerce_prec(prec)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    k = index.depth
    # level j (1 = innermost) carries exponent entries[k - j]
    lev_exp = [0] * (k + 1)
    for j in range(1, k + 1):
        lev_exp[j] = index.entries[k - j]
    g = [0] * (k + 1)
    g[0] = scale
    for n in range(1, cutoff + 1):
        start = 1 if (n & 1) else 2
        for j in range(start, k + 1, 2):
            e = lev_exp[j]
            g[j] += g[j - 1] // (n if e == 1 else n ** e)
    tail, rigorous = _chain_tail(index.entries, cutoff, wd)
    with LOCK, mp.workdps(wd):
        val = mpf(g[k]) / scale
        bound = tail + _slop((k + 1) * cutoff, prec, wd)
    return wrap_result(val, bound, prec, rigorous)


def big_t_series(idx, cutoff: int = DEFAULT_CUTOFF, prec: int = 50) -> EvalResult:
    """2^depth times mu_series: the normalised variant of the parity sum."""
    index = _as_index(idx)
    return scaled(mu_series(index, cutoff, prec), 2 ** index.depth)


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


def _i_direct(N: int, prec: int):
    return integrate01(lambda x, xc: _asin_stable(x, xc) ** N / x, prec)


def _j_direct(n: int, prec: int):
    def ev(x, xc):
        z = x / 2
        if xc < mpf(1) / 2:
            c = mp.tan(mp.pi / 2 * xc)
        else:
            c = mp.cot(mp.pi * z)
        return z ** n * c / 2

    return integrate01(ev, prec)


def _k_direct(N: int, prec: int):
    return integrate01(lambda x, xc: _atanh_stable(x, xc) ** N / x, prec)


def _t_direct(N: int, prec: int):
    M = 2 * N + 1

    def ev(x, xc):
        acos = acos_stable(x, xc)
        asin = mp.pi / 2 - acos if x > mpf(9) / 10 else mp.asin(x)
        return asin ** M * acos / x

    return scaled(integrate01(ev, prec), Fraction(1, math.factorial(M)))


def _logpolylog_direct(p: int, q: int, sign_arg: int, sign_den: int, prec: int):
    wd = prec + GUARD_DIGITS

    def ev(x, xc):
        lg = _log_stable(x, xc)
        li = _polylog_raw(p, sign_arg * x, xc, wd, lg)[0]
        return lg ** (q - 1) * li / _denominator(x, xc, sign_den)

    return integrate01(ev, prec)


def _pair_direct(p: int, q: int, sign_den: int, prec: int):
    wd = prec + GUARD_DIGITS
    bits = _scale_bits(wd)

    def ev(x, xc):
        lg = _log_stable(x, xc)
        m, s = _mantissa(x)
        if x <= 0.5:
            odd = _series_scaled(p, m * m, 2 * s, 2, bits)[0]
            bracket = -mp.ldexp(mpf(m * odd), 1 - s - bits)
        else:
            if m * m << 1 <= 1 << (2 * s):  # x^2 <= 1/2
                total = _series_scaled(p, m * m, 2 * s, 1, bits)[0]
                sq = m * m * total >> (2 * s)
            else:
                sq = _log_horner(p, 2 * lg, wd)[0]
            bracket = mp.ldexp(mpf((sq >> (p - 1)) - 2 * _log_horner(p, lg, wd)[0]), -bits)
        return lg ** (q - 1) * bracket / _denominator(x, xc, sign_den)

    raw = integrate01(ev, prec)
    return scaled(raw, Fraction((-1) ** q, 2 * math.factorial(q - 1)))


def _logsine_direct(n: int, prec: int):
    def ev(x, xc):
        z = mp.pi / 2 * x
        if xc < mpf(1) / 2:
            ls = mp.log(mp.cos(mp.pi / 2 * xc))
        else:
            ls = mp.log(mp.sin(z))
        return z ** (n - 1) * ls

    return scaled(integrate01(ev, prec), Fraction(-n, 2), pi_const(prec))


# public kernel name -> the same kernel evaluated node by node; called with
# the kernel's own arguments, prec last
DIRECT_KERNELS = {
    "I_quad": _i_direct,
    "j_cot": _j_direct,
    "k_arctanh": _k_direct,
    "t_kernel_quad": _t_direct,
    "logpolylog_kernel": _logpolylog_direct,
    "kernel_pair": _pair_direct,
    "logsine_check": _logsine_direct,
}
