"""Closed-form evaluation: every identity here reduces a nested sum or an
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

Each formula, the odd Euler sums O(p,q) and B(p,q) on the diagonal and of
every odd weight (derived from one parity theorem per family) and the
conjectured t({2}^N,1) = I(2N)/(2N)! for every N included, is written
once, as an exact expression in symbolic.build(); evaluate() evaluates that
expression through hp.combine(), the package's one bound-propagation rule,
and every result is rigorous=True.
The closed and symbolic routes therefore print the same value and bound:
their agreement is no independent check, the series and quadrature routes
are.  The two nested-value theorems are also derived from the integral
combinations ((pi/2) I(2N+1) - I(2N+2))/(2N+1)!  resp.
2^(2N+4)/(2N+2)! [I(2N+2)/2 - I(2N+3)/pi], and build() refuses to return
unless both derivations are the same element of the constant ring over Q.

Adjudicated coefficients (the O(4,3) head pi^4/768, the 3/14 of t(2,2,1),
the O(p+q) cross term of the alternating reflection) are resolved by exact
arithmetic or by >>100x numerical separation; the verification suite
reports each case explicitly.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from .hp import EvalResult
from .symbolic import FormulaId, build, eval_symbolic

__all__ = ["evaluate"]


# results kept: verify --suite all evaluates 19 distinct closed forms, and a
# 119-request quad-session stream 42
@lru_cache(maxsize=256, typed=True)
def evaluate(fid: FormulaId, prec: int = 50) -> EvalResult:
    """The closed form ``fid`` at ``prec`` digits; flagged conjectural
    where ``fid`` is (t({2}^N,1) = I(2N)/(2N)! for N > 3).

    Memoised per (fid, prec) like the quadrature kernels: the value does not
    depend on the caller's mpmath state, so a repeat returns the identical
    frozen result."""
    r = eval_symbolic(build(fid), prec)
    return replace(r, conjectural=fid.conjectural)
