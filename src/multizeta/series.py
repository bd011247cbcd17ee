"""Nested series: an iterated-integral engine, and brute-force oracles.

``nested_value`` evaluates the nested families zeta(s), t(s), mu(s), T(s)
and the odd Euler sums O(p,q), B(p,q) at the requested precision.  Each is
written as an iterated integral over [0, 1] of a word of rational 1-forms,
the path is split at 1/2 (Hölder convolution), and each piece is a power
series whose coefficients stay in [-1, 1], so it converges like 2^-n: about
3.3 terms per digit, with a proved bound and ``rigorous=True``.  The details
and the bound are in its docstring.  No cutoff applies to it.

The remaining functions are truncated sums, evaluated by a single sweep
n = 1..cutoff maintaining dynamic-programming prefix sums, O(depth * cutoff)
time and O(depth) memory.  ``euler_H_series``, ``central_binomial_sum`` and
``valean_alt_sum`` serve the CLI and the verify suite; ``mzv_series``,
``mtv_series``, ``mu_series``, ``big_t_series``, ``odd_O_series`` and
``odd_B_series`` keep their partial-sum meaning as independent oracles for
the tests.  The accumulators are *scaled integers* (value times
10^(prec+12)): integer floor-division loses at most one unit in the last
scaled place per operation, so the total rounding error is bounded by
(depth+1) * cutoff ulps -- added to every reported error bound -- and
results are deterministic bit-for-bit.

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

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from mpmath import mp, mpf

from .hp import (
    GUARD_DIGITS,
    LOCK,
    EvalResult,
    Method,
    coerce_prec,
    t_single,
    wrap_result,
)

__all__ = [
    "MultiIndex",
    "HarmonicState",
    "harmonic",
    "nested_value",
    "mzv_series",
    "mtv_series",
    "mu_series",
    "big_t_series",
    "euler_H_series",
    "odd_O_series",
    "odd_B_series",
    "central_binomial_sum",
    "valean_alt_sum",
    "CB_KINDS",
    "VALEAN_KINDS",
]

DEFAULT_CUTOFF = 10 ** 6
_SCALE_EXTRA = 12  # scaled-integer guard digits below the reported precision

CB_KINDS = ("inverse_square", "alt_inverse_cube", "inverse_fourth")
VALEAN_KINDS = ("H2n_over_n4", "H2n2_over_n3")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiIndex:
    """An exponent tuple (i_1, ..., i_k), written outermost-first.

    For the strictly-decreasing families the first entry is the exponent of
    the largest summation variable; for the parity-constrained family the
    convention is the same (outermost exponent written first), which is the
    reversed order relative to the innermost-first way those sums unfold.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("MultiIndex needs at least one entry")
        if any((not isinstance(e, int)) or e < 1 for e in self.entries):
            raise ValueError(f"all entries must be integers >= 1: {self.entries}")

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def weight(self) -> int:
        return sum(self.entries)

    def admissible(self) -> bool:
        """Convergence condition: the outermost exponent must be >= 2."""
        return self.entries[0] >= 2


def _as_index(idx) -> MultiIndex:
    if isinstance(idx, MultiIndex):
        return idx
    if isinstance(idx, int):
        return MultiIndex((idx,))
    return MultiIndex(tuple(idx))


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
# Iterated-integral engine: Hölder convolution at 1/2
# ---------------------------------------------------------------------------

# Letters: w0 = dt/t, w1 = dt/(1-t), rho = dt/(1-t^2), tau = t dt/(1-t^2),
# sigma = t dt/(1+t^2), and the reflections f~(u) = f(1-u) of the last three:
# rho~ = 1/(u(2-u)), tau~ = (1-u)/(u(2-u)), sigma~ = (1-u)/(2-2u+u^2).
# w0 and w1 reflect into each other.
_REFLECT = {"w0": "w1", "w1": "w0", "rho": "rho~", "tau": "tau~", "sigma": "sigma~"}

# Letters with an exact two-term recurrence P_n = s P_(n-d) + c_(n-j) for the
# coefficients of f(t) F(t): (s, d, j).
_PLAIN = {"w1": (1, 1, 0), "rho": (1, 2, 0), "tau": (1, 2, 1), "sigma": (-1, 2, 1)}

_ROUND_UNITS = 5  # rounding charged per integration, in units of 2^-b


def _integrate(letter: str, c: list) -> list:
    """Coefficients of x -> int_0^x f(t) F(t) dt, where F = sum c_n t^n.

    ``c`` holds c_0..c_N as integers scaled by 2^b; the result has the same
    length and is exact up to the floors.  Coefficient n+1 of the result only
    reads c_0..c_(n+1), so truncating at degree N loses nothing below it.
    Letters with a 1/t pole (w0, rho~, tau~) need c_0 = 0.  Each result
    coefficient is off by less than ``_ROUND_UNITS`` units from the exact
    image of ``c``: one floor for w0 and the plain letters; 2/(n+1) + 1 for
    rho~ and tau~, whose auxiliary sum Q halves its own floor errors; and
    (10/3)/(n+1) + 1 for sigma~, whose recurrence P_n = P_(n-1) - P_(n-2)/2
    + ... sums floor errors with weights of absolute sum 10/3.
    """
    n_max = len(c) - 1
    g = [0] * (n_max + 1)
    if letter == "w0":
        for n in range(1, n_max + 1):
            g[n] = c[n] // n
    elif letter in _PLAIN:
        s, d, j = _PLAIN[letter]
        acc = [0, 0]
        for n in range(n_max):
            acc[n % d] = s * acc[n % d] + (c[n - j] if n >= j else 0)
            g[n + 1] = acc[n % d] // (n + 1)
    elif letter in ("rho~", "tau~"):
        # coefficient n of f F is c_(n+1)/2 +- Q_n, Q_n = sum_(m<=n) 2^-(m+2) c_(n-m)
        sign = 1 if letter == "rho~" else -1
        q = 0
        for n in range(n_max):
            q = (c[n] + 2 * q) // 4
            g[n + 1] = (c[n + 1] + sign * 2 * q) // (2 * (n + 1))
    elif letter == "sigma~":
        # (2 - 2u + u^2) P = (1 - u) F
        p1 = p2 = 0
        for n in range(n_max):
            p1, p2 = (c[n] - (c[n - 1] if n else 0) + 2 * p1 - p2) // 2, p1
            g[n + 1] = p1 // (n + 1)
    return g


def _at_half(c: list) -> int:
    """sum_(n>=1) c_n 2^-n by Horner's rule; the floors lose under 2 units."""
    v = 0
    for x in reversed(c[1:]):
        v = (v + x) >> 1
    return v


def _word_integral(word: tuple, n_terms: int, bits: int) -> int:
    """2^bits I(0; f_1 ... f_W; 1), f_1 the letter next to 1, as a floor.

    Hölder convolution at 1/2 (Borwein, Bradley, Broadhurst, Lisonek,
    "Special values of multiple polylogarithms", Trans. AMS 353 (2001)):

        I(0; f_1..f_W; 1) = sum_k I(0; f~_k..f~_1; 1/2) I(0; f_(k+1)..f_W; 1/2).

    The top pieces are built from f~_1 outward and the bottom ones from f_W
    outward, each a power series in integers scaled by 2^bits, truncated at
    degree ``n_terms``.  Needs f_1 regular at 1 and f_W regular at 0.
    """
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


def _entry_word(entries, letters) -> tuple:
    """w0^(s_j - 1) then the entry's letter, for every entry, outermost first."""
    word = ()
    for s, letter in zip(entries, letters):
        word += ("w0",) * (s - 1) + (letter,)
    return word


def _t_word(entries) -> tuple:
    return _entry_word(entries, ("tau",) * (len(entries) - 1) + ("rho",))


def _family_words(quantity: str, params) -> list:
    """The quantity as a signed sum of words: [(integer coefficient, word)]."""
    if quantity == "oddsum":
        fam, p, q = params
        if fam not in ("O", "B"):
            raise ValueError(f"odd-sum family must be 'O' or 'B', got {fam!r}")
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"p must be an integer >= 1, got {p!r}")
        if not isinstance(q, int) or q < 2:
            raise ValueError(f"q >= 2 required, got {q!r}")
        if fam == "O":  # the inner sum is non-strict: O(p,q) = t(q,p) + t(p+q)
            return [(1, _t_word((q, p))), (1, _t_word((p + q,)))]
        # chi4(m) chi4(j) = (-1)^((m-j)/2) for odd m, j; sigma carries that sign
        return [(1, _t_word((p + q,))), (-1, _entry_word((q, p), ("sigma", "rho")))]
    index = _as_index(params)
    if not index.admissible():
        raise ValueError(
            f"index {index.entries} diverges: outermost exponent must be >= 2"
        )
    k = index.depth
    if quantity == "zeta":
        return [(1, _entry_word(index.entries, ("w1",) * k))]
    if quantity == "tvalue":
        return [(1, _t_word(index.entries))]
    if quantity in ("mu", "bigT"):
        word = _entry_word(index.entries, ("rho",) * k)
        return [(2 ** k if quantity == "bigT" else 1, word)]
    raise ValueError(f"no nested series for quantity {quantity!r}")


def nested_value(quantity: str, params, prec: int = 50) -> EvalResult:
    """A nested family at ``prec`` digits, from its iterated integral over [0, 1].

    quantity  params            value
    zeta      (s_1, ..., s_k)   zeta(s), every entry w0^(s_j-1) w1
    tvalue    (s_1, ..., s_k)   t(s), entries w0^(s_j-1) tau, the innermost rho
    mu        (s_1, ..., s_k)   mu(s), every entry w0^(s_j-1) rho
    bigT      (s_1, ..., s_k)   T(s) = 2^k mu(s)
    oddsum    ("O", p, q)       O(p,q) = t(q,p) + t(p+q)
    oddsum    ("B", p, q)       B(p,q) = t(p+q) - I(w0^(q-1) sigma w0^(p-1) rho)

    Indices are outermost-first with s_1 >= 2; odd sums need p >= 1, q >= 2.

    Proved bound (``rigorous=True``).  Every letter and reflection has
    Laurent coefficients r_m with |r_-1| + sum_(0<=m<=n) |r_m| <= n + 1 for
    all n, so integrating one letter maps coefficients |c_n| <= 1 (with
    c_0 = 0 when r_-1 != 0) to coefficients of the same bound: starting from
    F = 1, every coefficient of every piece has |c_n| <= 1, each piece value
    is at most 1, and its tail past degree N is at most 2^-N.  The same
    linear map cannot amplify earlier rounding errors, so with S = 2^b each
    piece of a word of W letters carries at most D = 5W + 2 + S 2^-N units
    of 1/S (rounding of at most W integrations and the Horner sum, plus the
    tail).  A product of two pieces is then off by at most 2D + D^2/S <= 3D
    units, and the word by 3(W + 1) D + 1 units after the final floor.  The
    reported bound is sum |coefficient| (3(W + 1) D + 1) / S; the value is
    converted to mpf exactly.  N is 3.322 (prec + GUARD_DIGITS + 5) + 10 and
    b exceeds N by the bit length of 5W + 2, so the bound sits near
    10^-(prec + 16) and the work is 2W integrations of N terms per word.
    """
    coerce_prec(prec)
    words = _family_words(quantity, params)
    width = max(len(word) for _, word in words)
    n_terms = (prec + GUARD_DIGITS + 5) * 3322 // 1000 + 11  # 3.322 > log2(10)
    bits = n_terms + (5 * width + 2).bit_length()
    total = 0
    units = 0
    for coeff, word in words:
        total += coeff * _word_integral(word, n_terms, bits)
        d = _ROUND_UNITS * len(word) + 2 + (1 << (bits - n_terms))
        units += abs(coeff) * (3 * (len(word) + 1) * d + 1)
    with LOCK, mp.workprec(max(total.bit_length(), units.bit_length(), 1)):
        val = mp.ldexp(mpf(total), -bits)  # exact at this precision
        bound = mp.ldexp(mpf(units), -bits)
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


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
    return wrap_result(val, bound, prec, Method.SERIES, rigorous)


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
    return wrap_result(val, bound, prec, Method.SERIES, rigorous)


def big_t_series(idx, cutoff: int = DEFAULT_CUTOFF, prec: int = 50) -> EvalResult:
    """2^depth times mu_series: the normalised variant of the parity sum."""
    index = _as_index(idx)
    base = mu_series(index, cutoff, prec)
    factor = 2 ** index.depth
    with LOCK, mp.workdps(prec + GUARD_DIGITS):
        return wrap_result(
            base.value.magnitude * factor,
            base.error_bound.magnitude * factor,
            prec,
            Method.SERIES,
            base.rigorous,
        )


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
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=(ones == 0))


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
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


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
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


# ---------------------------------------------------------------------------
# Central-binomial and alternating-harmonic sums
# ---------------------------------------------------------------------------


def central_binomial_sum(kind: str, cutoff: int = 400, prec: int = 50) -> EvalResult:
    """Lehmer-type sums with reciprocal central binomial coefficients.

    kinds: inverse_square     sum 1/(n^2 binom(2n,n))
           alt_inverse_cube   sum (-1)^(n-1)/(n^3 binom(2n,n))
           inverse_fourth     sum 1/(n^4 binom(2n,n))

    The binomial reciprocal is maintained by the ratio recurrence
    c_{n+1} = c_n (n+1)/(2(2n+1)) (never recomputing factorials); since the
    ratio is <= 1/3, the tail is geometric and bounded rigorously by
    1.5 * |first omitted term|.  Terms decay like 4^(-n), so the scaled
    integer underflows to zero long before any large cutoff: the loop stops
    there with a sub-ulp tail.
    """
    if kind not in CB_KINDS:
        raise ValueError(f"kind must be one of {CB_KINDS}, got {kind!r}")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    coerce_prec(prec)
    e = {"inverse_square": 2, "alt_inverse_cube": 3, "inverse_fourth": 4}[kind]
    alt = kind == "alt_inverse_cube"
    wd = prec + GUARD_DIGITS
    scale = 10 ** (prec + _SCALE_EXTRA)
    c = scale // 2  # 1/binom(2,1)
    acc = 0
    n = 1
    while n <= cutoff and c > 0:
        term = c // n ** e
        acc += -term if (alt and n % 2 == 0) else term
        c = c * (n + 1) // (2 * (2 * n + 1))
        n += 1
    with LOCK, mp.workdps(wd):
        val = mpf(acc) / scale
        if c == 0:
            tail = mpf(10) ** (-(prec + _SCALE_EXTRA - 2))  # below one scaled ulp
        else:
            tail = mpf(3) / 2 * mpf(c) / scale / mpf(n) ** e
        bound = tail + _slop(2 * n, prec, wd)
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=True)


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
    return wrap_result(val, bound, prec, Method.SERIES, rigorous=False)
