"""High-precision evaluation and cross-verification of nested zeta-like constants.

The package computes families of nested sums over integer or odd-integer
denominators -- multiple zeta values, their odd-denominator and
parity-constrained relatives, and odd-indexed Euler sums -- by three
independent routes (closed forms in a zeta/beta/pi basis, nested series
evaluated as iterated integrals with a proved bound, and double-exponential
quadrature of log/arcsine/polylogarithm kernels) and checks the routes
against each other.
"""

from .hp import (
    EvalResult,
    HPReal,
    MIN_PRECISION,
    beta_fn,
    bernoulli_fraction,
    eta,
    euler_number,
    log2_const,
    pi_const,
    psi3_quarter,
    t_single,
    zeta_single,
)

__version__ = "0.1.0"

__all__ = [
    "EvalResult",
    "HPReal",
    "MIN_PRECISION",
    "beta_fn",
    "bernoulli_fraction",
    "eta",
    "euler_number",
    "log2_const",
    "pi_const",
    "psi3_quarter",
    "t_single",
    "zeta_single",
    "__version__",
]
