"""Nested series, evaluated as iterated integrals.

``nested_value`` evaluates every nested family of the package at the
requested precision: zeta(s), t(s), mu(s), T(s), the odd Euler sums O(p,q)
and B(p,q), the Euler sums sum_n prod_j H_n^(p_j)/n^q and the alternating
even-index harmonic sums sum (-1)^(n-1) H_2n^(b)/n^a.  Each is written as a
signed integer combination of iterated integrals over [0, 1] of words of
rational 1-forms, the path is split at 1/2 (Hölder convolution), and each
piece is a power series whose coefficients stay in [-1, 1], so it converges
like 2^-n: about 3.3 terms per digit, with a proved bound and
``rigorous=True``.  The details and the bound are in its docstring.  No
cutoff applies to it.  An index is a plain tuple of exponents, outermost
first, checked by one private rule (_entries).  ``nested_values`` evaluates
many shapes in one pass: a word's pieces are chains (its prefixes
integrated from 1, its suffixes from 0) that words share, and one
depth-first walk of the prefix trie and one of the reversed-suffix trie
integrate each chain once (_chains).  A chain's integers depend only on the
chain, the degree and the bit width, so a value is bit for bit the same
alone or in any batch.

Euler sums reduce to zeta words by the quasi-shuffle (stuffle) product of
the truncated sums S_N(a_1..a_r) = sum_(N >= n_1 > ... > n_r >= 1) prod
n_j^-a_j, which multiply as S_N(u) S_N(v) = S_N(u * v) (Flajolet and Salvy,
"Euler sums and contour integral representations", Experiment. Math. 7,
1998); then sum_n n^-q S_n(a_1..a_r) = zeta(q, a_1..a_r) + zeta(q + a_1,
a_2..a_r).  The alternating even-index sums are level 4: with
omega = i dt/(1 - i t) = i kappa - sigma, kappa = dt/(1+t^2),

    sum_(m>k) i^m/(m^a k^b) = I(w0^(a-1) omega w0^(b-1) omega),
    sum_n (-1)^(n-1) H_2n^(b)/n^a = -2^a Re sum_m i^m H_m^(b)/m^a,

so they are integer combinations of words in w0, kappa and sigma; so are
the paper's arcsine integrals, by z = sin(theta), t = tan(theta/2).

``central_binomial_sum`` is the one other series: its terms shrink by a
factor 3 or more, so it runs in scaled integers until they underflow.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate
from operator import add, floordiv, sub

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_int, from_man_exp, mpf_div, round_nearest

from .hp import (
    GUARD_DIGITS,
    EvalResult,
    coerce_prec,
    require,
    wrap_result,
)

__all__ = [
    "nested_value",
    "nested_values",
    "central_binomial_sum",
    "CB_KINDS",
    "VALEAN_KINDS",
]

CB_KINDS = ("inverse_square", "alt_inverse_cube", "inverse_fourth")
# kind -> (a, b): sum (-1)^(n-1) H_2n^(b) / n^a
VALEAN_KINDS = {"H2n_over_n4": (4, 1), "H2n2_over_n3": (3, 2)}


# ---------------------------------------------------------------------------
# Iterated-integral engine: Hölder convolution at 1/2
# ---------------------------------------------------------------------------

# Letters: w0 = dt/t, w1 = dt/(1-t), rho = dt/(1-t^2), tau = t dt/(1-t^2),
# sigma = t dt/(1+t^2), kappa = dt/(1+t^2), and the reflections
# f~(u) = f(1-u) of the last four: rho~ = 1/(u(2-u)), tau~ = (1-u)/(u(2-u)),
# sigma~ = (1-u)/(2-2u+u^2), kappa~ = 1/(2-2u+u^2).  w0 and w1 reflect into
# each other.
_REFLECT = {
    "w0": "w1", "w1": "w0", "rho": "rho~", "tau": "tau~", "sigma": "sigma~",
    "kappa": "kappa~",
}

# Letters with an exact two-term recurrence P_n = s P_(n-d) + c_(n-j) for the
# coefficients of f(t) F(t): (s, d, j).
_PLAIN = {"rho": (1, 2, 0), "tau": (1, 2, 1), "sigma": (-1, 2, 1), "kappa": (-1, 2, 0)}

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
    (10/3)/(n+1) + 1 for sigma~ and kappa~, whose recurrence P_n = P_(n-1)
    - P_(n-2)/2 + ... sums floor errors with the weights 2 r_m of
    1/(1 - u + u^2/2) = 2 kappa~, of absolute sum 10/3 (see nested_value).
    """
    n_max = len(c) - 1
    g = [0] * (n_max + 1)
    if letter == "w0":
        g[1:] = map(floordiv, c[1:], range(1, n_max + 1))
    elif letter == "w1":  # P_n = P_(n-1) + c_n: the running sums
        g[1:] = map(floordiv, accumulate(c[:n_max]), range(1, n_max + 1))
    elif letter in _PLAIN:  # P_n = s P_(n-d) + c_(n-j): running sums of each residue mod d
        s, d, j = _PLAIN[letter]
        shifted, sums = ([0] * j + c)[:n_max], [0] * n_max
        for r in range(d):
            sums[r::d] = accumulate(shifted[r::d], add if s == 1 else (lambda a, x: x - a))
        g[1:] = map(floordiv, sums, range(1, n_max + 1))
    elif letter in ("rho~", "tau~"):
        # coefficient n of f F is c_(n+1)/2 +- Q_n, Q_n = sum_(m<=n) 2^-(m+2) c_(n-m)
        sign = 2 if letter == "rho~" else -2
        q, sums = 0, []
        for x, y in zip(c, c[1:]):
            q = (x + 2 * q) >> 2
            sums.append(y + sign * q)
        g[1:] = map(floordiv, sums, range(2, 2 * n_max + 1, 2))
    elif letter in ("sigma~", "kappa~"):
        # (2 - 2u + u^2) P = (1 - u) F for sigma~, = F for kappa~
        head, sums = c[:n_max], []
        p1 = p2 = 0
        for x in map(sub, head, [0] + head[:-1]) if letter == "sigma~" else head:
            p1, p2 = (x + 2 * p1 - p2) >> 1, p1
            sums.append(p1)
        g[1:] = map(floordiv, sums, range(1, n_max + 1))
    return g


def _at_half(c: list) -> int:
    """sum_(n>=1) c_n 2^-n by Horner's rule; the floors lose under 2 units."""
    v = 0
    for x in reversed(c[1:]):
        v = (v + x) >> 1
    return v


def _chains(words, top: bool, n_terms: int, bits: int) -> dict:
    """2^bits I(0; ...; 1/2) of every chain of the words, floored, keyed by
    its letters in integration order: each prefix f_1..f_k (as f~_1..f~_k)
    if ``top``, else each suffix reversed, f_W..f_k.  A depth-first walk of
    their trie: in sorted order a chain shares its longest stem with the one
    before it, whose coefficient arrays are kept one per depth."""
    values = {(): 1 << bits}
    stack = [[1 << bits] + [0] * n_terms]
    path = ()
    for chain in sorted({w if top else w[::-1] for w in words}):
        k = next((i for i, (a, b) in enumerate(zip(path, chain)) if a != b),
                 min(len(path), len(chain)))
        del stack[k + 1:]
        for i in range(k, len(chain)):
            stack.append(_integrate(_REFLECT[chain[i]] if top else chain[i], stack[-1]))
            values[chain[:i + 1]] = _at_half(stack[-1])
        path = chain
    return values


def _entry_word(entries, letters) -> tuple:
    """w0^(s_j - 1) then the entry's letter, for every entry, outermost first."""
    word = ()
    for s, letter in zip(entries, letters):
        word += ("w0",) * (s - 1) + (letter,)
    return word


def _t_word(entries) -> tuple:
    return _entry_word(entries, ("tau",) * (len(entries) - 1) + ("rho",))


def _zeta_word(entries) -> tuple:
    return _entry_word(entries, ("w1",) * len(entries))


def _stuffle(words: Counter, a: int) -> Counter:
    """The quasi-shuffle of every word with the one-letter word (a)."""
    out = Counter()
    for w, mult in words.items():
        for i in range(len(w) + 1):
            out[w[:i] + (a,) + w[i:]] += mult
        for i in range(len(w)):
            out[w[:i] + (w[i] + a,) + w[i + 1:]] += mult
    return out


def _euler_words(q, ps) -> list:
    """sum_n prod_j H_n^(p_j)/n^q as zeta words with positive coefficients."""
    require(q, "outer exponent q", 2, " (sum diverges)")
    if not ps or any(not isinstance(p, int) or p < 1 for p in ps):
        raise ValueError("ps must be a nonempty sequence of integers >= 1")
    harmonic = Counter({(): 1})
    for p in ps:
        harmonic = _stuffle(harmonic, p)
    indices = Counter()
    for (a, *rest), mult in harmonic.items():
        indices[(q, a, *rest)] += mult
        indices[(q + a, *rest)] += mult
    return [(mult, _zeta_word(index)) for index, mult in indices.items()]


def _entries(params) -> tuple:
    """The index (s_1, ..., s_k), outermost first: a nonempty tuple or list
    of ints >= 1 whose first entry is >= 2, else ValueError."""
    if not isinstance(params, (tuple, list)) or not params or any(
        not isinstance(e, int) or e < 1 for e in params
    ):
        raise ValueError(f"index must be a nonempty sequence of integers >= 1, got {params!r}")
    if params[0] < 2:
        raise ValueError(f"index {tuple(params)} diverges: outermost exponent must be >= 2")
    return tuple(params)


def _family_words(quantity: str, params) -> list:
    """The quantity as a signed sum of words: [(integer coefficient, word)]."""
    if quantity == "oddsum":
        fam, p, q = params
        if fam not in ("O", "B"):
            raise ValueError(f"odd-sum family must be 'O' or 'B', got {fam!r}")
        require(p, "p")
        require(q, "q", 2)
        if fam == "O":  # the inner sum is non-strict: O(p,q) = t(q,p) + t(p+q)
            return [(1, _t_word((q, p))), (1, _t_word((p + q,)))]
        # chi4(m) chi4(j) = (-1)^((m-j)/2) for odd m, j; sigma carries that sign
        return [(1, _t_word((p + q,))), (-1, _entry_word((q, p), ("sigma", "rho")))]
    if quantity == "eulersum":
        q, *ps = params
        return _euler_words(q, ps)
    if quantity == "valean":
        if params not in VALEAN_KINDS:
            raise ValueError(f"kind must be one of {tuple(VALEAN_KINDS)}, got {params!r}")
        a, b = VALEAN_KINDS[params]
        c = 2 ** a  # the even m = 2n carry i^m/m^a = (-1)^n/(2^a n^a)
        return [
            (c, _entry_word((a, b), ("kappa", "kappa"))),
            (-c, _entry_word((a, b), ("sigma", "sigma"))),
            (c, _entry_word((a + b,), ("sigma",))),
        ]
    if quantity == "arcsin_kernel":
        kind, n = params
        if kind not in ("I", "t") or not isinstance(n, int) or n < 1:
            raise ValueError(f"arcsin kernel needs ('I' or 't', n >= 1), got {params!r}")
        # z = sin(theta), t = tan(theta/2): theta^n = 2^n n! I(t; kappa^n), cot(theta)
        # dtheta = w0 - 2 sigma, and for t(3,{2}^n) pi/2 - theta = 2 I(t; kappa; 1)
        c, head, m = (2 ** n * math.factorial(n), (), n) if kind == "I" else (
            2 ** (2 * n + 2), ("kappa",), 2 * n + 1)
        return [(c, head + ("w0",) + ("kappa",) * m), (-2 * c, head + ("sigma",) + ("kappa",) * m)]
    entries = _entries(params)
    if quantity == "zeta":
        return [(1, _zeta_word(entries))]
    if quantity == "tvalue":
        return [(1, _t_word(entries))]
    if quantity in ("mu", "bigT"):
        word = _entry_word(entries, ("rho",) * len(entries))
        return [(2 ** len(entries) if quantity == "bigT" else 1, word)]
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
    eulersum  (q, p_1, ..., p_r)  sum_n prod_j H_n^(p_j)/n^q, by the stuffle
                                  product as zeta words, e.g. zeta(4,1) + zeta(5)
                                  for (4, 1)
    valean    "H2n_over_n4"     sum (-1)^(n-1) H_2n/n^4 = 16 [I(w0^3 kappa kappa)
                                - I(w0^3 sigma sigma) + I(w0^4 sigma)]
    valean    "H2n2_over_n3"    sum (-1)^(n-1) H_2n^(2)/n^3 = 8 [I(w0^2 kappa w0
                                kappa) - I(w0^2 sigma w0 sigma) + I(w0^4 sigma)]
    arcsin_kernel ("I", n)      int_0^1 arcsin^n(z)/z dz = 2^n n! [I(w0 kappa^n)
                                - 2 I(sigma kappa^n)]
    arcsin_kernel ("t", n)      t(3,{2}^n) = int_0^1 arcsin^M(z) arccos(z)/(M! z) dz
                                = 2^(M+1) [I(kappa w0 kappa^M) - 2 I(kappa sigma
                                kappa^M)], M = 2n + 1

    An index is a tuple or list of ints >= 1, outermost first (for mu and
    bigT too: s_1 belongs to the largest summation variable), with s_1 >= 2;
    anything else, a bare int included, raises ValueError.  Odd sums need
    p >= 1, q >= 2; Euler sums q >= 2 and every p_j >= 1.

    Proved bound (``rigorous=True``).  Every letter and reflection has
    Laurent coefficients r_m with |r_-1| + sum_(0<=m<=n) |r_m| <= n + 1 for
    all n.  For kappa, r_m = (-1)^(m/2) at even m and 0 at odd m, so the sum
    is floor(n/2) + 1; for kappa~ = 1/((1+i-u)(1-i-u)), r_m = 2^(-(m+1)/2)
    sin((m+1) pi/4), whose partial sums are 1/2, 1 and then at most their
    total, 5/3 (the pattern repeats every 8 terms with a factor 1/16).  So
    integrating one letter maps coefficients |c_n| <= 1 (with c_0 = 0 when
    r_-1 != 0) to coefficients of the same bound: starting from F = 1,
    every coefficient of every piece has |c_n| <= 1, each piece value is at
    most 1, and its tail past degree N is at most 2^-N.  The same linear
    map cannot amplify earlier rounding errors, so with S = 2^b each piece
    of a word of W letters carries at most D = 5W + 2 + S 2^-N units of 1/S
    (rounding of at most W integrations, ``_ROUND_UNITS`` each, and the
    Horner sum, plus the tail).  A product of two pieces is then off by at
    most 2D + D^2/S <= 3D units, and the word by 3(W + 1) D + 1 units after
    the final floor.  The reported bound is sum |coefficient| (3(W + 1) D +
    1) / S; the value is converted to mpf exactly.  N is 3.322 (prec +
    GUARD_DIGITS + 5) + 10 and b exceeds N by the bit length of 5W + 2, so
    the bound sits near 10^-(prec + 16) times the coefficient sum, and the
    work is one integration of N terms per distinct chain (_chains).
    """
    return nested_values([(quantity, params)], prec)[0]


def nested_values(shapes, prec: int = 50) -> list:
    """[nested_value(quantity, params, prec) for (quantity, params) in shapes],
    bit for bit, from one walk of the shapes' chains per bit width b."""
    coerce_prec(prec)
    return _words_values([_family_words(q, p) for q, p in shapes], prec)


def _words_values(families: list, prec: int) -> list:
    """sum c I(0; f_1..f_W; 1) over each family [(integer c, word)], f_1
    regular at 1 and f_W at 0, with nested_value's proved bound, by Hölder
    convolution at 1/2 (Borwein, Bradley, Broadhurst, Lisonek, "Special
    values of multiple polylogarithms", Trans. AMS 353 (2001)):

        I(0; f_1..f_W; 1) = sum_k I(0; f~_k..f~_1; 1/2) I(0; f_(k+1)..f_W; 1/2).
    """
    n_terms = (prec + GUARD_DIGITS + 5) * 3322 // 1000 + 11  # 3.322 > log2(10)
    widths = [n_terms + (5 * max(len(w) for _, w in words) + 2).bit_length()
              for words in families]
    walks = {}  # bit width -> the top and the bottom chains of its words
    for bits in set(widths):
        words = {w for family, b in zip(families, widths) if b == bits for _, w in family}
        walks[bits] = [_chains(words, top, n_terms, bits) for top in (True, False)]
    results = []
    for words, bits in zip(families, widths):
        top, bottom = walks[bits]
        total = units = 0
        for coeff, word in words:
            w, rev = len(word), word[::-1]
            total += coeff * (sum(top[word[:k]] * bottom[rev[:w - k]] for k in range(w + 1)) >> bits)
            d = _ROUND_UNITS * w + 2 + (1 << (bits - n_terms))
            units += abs(coeff) * (3 * (w + 1) * d + 1)
        val, bound = (mp.make_mpf(from_man_exp(n, -bits)) for n in (total, units))  # exact
        results.append(wrap_result(val, bound, prec, rigorous=True))
    return results


# ---------------------------------------------------------------------------
# Central-binomial sums
# ---------------------------------------------------------------------------


def central_binomial_sum(kind: str, prec: int = 50) -> EvalResult:
    """Lehmer-type sums with reciprocal central binomial coefficients.

    kinds: inverse_square     sum 1/(n^2 binom(2n,n))
           alt_inverse_cube   sum (-1)^(n-1)/(n^3 binom(2n,n))
           inverse_fourth     sum 1/(n^4 binom(2n,n))

    The reciprocal c_n = 1/binom(2n,n) is a scaled integer (value times
    10^(prec+12)) kept by the ratio recurrence c_(n+1) = c_n (n+1)/(2(2n+1)),
    floored once per step.  The ratio is at most 1/3, so c_n stays within
    1.5 units of the exact reciprocal, and the sum runs until c_n underflows
    to 0: the remainder is then below 2.25 units, and the floors of the n
    terms cost under n + 2.5.  100 + 2n units are charged.
    """
    if kind not in CB_KINDS:
        raise ValueError(f"kind must be one of {CB_KINDS}, got {kind!r}")
    coerce_prec(prec)
    e = {"inverse_square": 2, "alt_inverse_cube": 3, "inverse_fourth": 4}[kind]
    alt = kind == "alt_inverse_cube"
    scale = 10 ** (prec + 12)
    c = scale // 2  # 1/binom(2,1)
    acc = 0
    n = 1
    while c > 0:
        term = c // n ** e
        acc += -term if (alt and n % 2 == 0) else term
        c = c * (n + 1) // (2 * (2 * n + 1))
        n += 1
    # value and bound each rounded, then divided by scale, to nearest at
    # prec + GUARD_DIGITS digits, as mpf(k) / scale would be at those digits
    p, rnd = dps_to_prec(prec + GUARD_DIGITS), round_nearest
    val, bound = (mp.make_mpf(mpf_div(from_int(k, p, rnd), from_int(scale), p, rnd))
                  for k in (acc, 100 + 2 * n))
    return wrap_result(val, bound, prec, rigorous=True)
