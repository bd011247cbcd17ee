"""The route registry: which evaluators serve each request shape.

``routes(quantity, params, prec)`` maps each method available for a shape
(closed, series, quadrature, symbolic) to a thunk evaluating it at ``prec``
digits; ``fid_for(quantity, params)`` names the shape's exact closed form,
if any.  Params are the CLI's (see ``cli.Request``).  The CLI serves these
routes and the verification rows name them, so verify certifies what the
CLI serves.  The quantities "valean" and "arcsin_kernel" (names of
``series.nested_value``) have a series route for verify only; the CLI does
not accept them.  ``series_values`` evaluates many series routes at once.
An unknown odd-sum family, integral kind or constant name, and an argument
to a constant that takes none, raise ValueError where the shape is first
read.

Layers are called through their modules (``hp.scaled``, not ``scaled``);
only classes, enums and constants are imported by name.  The benchmark's
tracer rebinds a layer's wrapped functions in the layer modules only, and
tests monkeypatch the defining module: a function imported by name here
would escape both.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from . import closed, hp, quadrature, series
from .symbolic import Formula, FormulaId

__all__ = ["ARGUMENT_CONSTANTS", "CONSTANT_NAMES", "INTEGRAL_KINDS", "fid_for", "routes",
           "series_values"]

# the families series.nested_value evaluates
_NESTED = ("zeta", "tvalue", "mu", "bigT", "oddsum", "eulersum", "valean", "arcsin_kernel")
INTEGRAL_KINDS = ("I", "J", "K", "logsine")
CONSTANT_NAMES = ("pi", "log2", "zeta", "eta", "beta", "t", "psi3_quarter")
# the constants that take an integer argument m; the others take 0
ARGUMENT_CONSTANTS = ("zeta", "eta", "beta", "t")


def _shape(params):
    """A list of params as the tuple it holds; verify's valean params stay a string."""
    return tuple(params) if isinstance(params, list) else params


def _head_tail_run(params, head, tail) -> int:
    """Length of the tail run when params == (head, tail, ..., tail), else 0."""
    if len(params) >= 2 and params[0] == head and all(p == tail for p in params[1:]):
        return len(params) - 1
    return 0


def _twos_then_one(params) -> int:
    """N when params == ({2}^N, 1), else 0."""
    if len(params) >= 2 and params[-1] == 1 and all(p == 2 for p in params[:-1]):
        return len(params) - 1
    return 0


def fid_for(quantity: str, params):
    """FormulaId for the shape, when a symbolic build exists."""
    p = _shape(params)
    if quantity == "zeta":
        if p == (3,):
            return FormulaId(Formula.Z322, (0,))
        if (n := _head_tail_run(p, 3, 2)):
            return FormulaId(Formula.Z322, (n,))
        if p == (3, 1, 1):
            return FormulaId(Formula.ZETA311)
    elif quantity == "tvalue":
        if (n := _head_tail_run(p, 3, 2)):
            return FormulaId(Formula.T322, (n,))
        if (n := _twos_then_one(p)):
            return FormulaId(Formula.T2S1_CONJECTURE, (n,))
    elif quantity == "mu":
        if p == (2,):
            return FormulaId(Formula.E211, (1,))
        if (n := _head_tail_run(p, 2, 1)):
            return FormulaId(Formula.E211, (n + 1,))
    elif quantity == "oddsum":
        fam, a, b = p
        if fam not in ("O", "B"):
            raise ValueError(f"odd-sum family must be 'O' or 'B', got {fam!r}")
        if min(a, b) >= 2 and (a == b or (a + b) % 2):
            return FormulaId(Formula.O_SUM if fam == "O" else Formula.B_SUM, (a, b))
    elif quantity == "integral":
        kind, n = p
        if kind not in INTEGRAL_KINDS:
            raise ValueError(f"integral kind must be one of {INTEGRAL_KINDS}, got {kind!r}")
        if kind == "I" and isinstance(n, int) and n >= 1:
            return FormulaId(Formula.I_CLOSED, (n,))
    return None


def routes(quantity: str, params, prec: int) -> dict:
    """Available evaluation routes for the shape, method name -> thunk."""
    p = _shape(params)
    found: dict = {}

    if quantity == "constants":
        name, arg = p
        if name not in CONSTANT_NAMES:
            raise ValueError(f"constant must be one of {CONSTANT_NAMES}, got {name!r}")
        if name not in ARGUMENT_CONSTANTS and arg != 0:
            raise ValueError(f"constants {name} takes no argument")
        found["closed"] = {
            "pi": lambda: hp.pi_const(prec),
            "log2": lambda: hp.log2_const(prec),
            "zeta": lambda: hp.zeta_single(arg, prec),
            "eta": lambda: hp.eta(arg, prec),
            "beta": lambda: hp.beta_fn(arg, prec),
            "t": lambda: hp.t_single(arg, prec),
            "psi3_quarter": lambda: hp.psi3_quarter(prec),
        }[name]
        return found

    fid = fid_for(quantity, p)
    if fid is not None:  # single-entry zeta keeps zeta_single below
        # one exact expression behind both: they agree by construction
        found["closed"] = found["symbolic"] = lambda: closed.evaluate(fid, prec)
        n = fid.params[0] if fid.params else 0
        if fid.name is Formula.T322:
            found["quadrature"] = lambda: quadrature.t_kernel_quad(n, prec)
        elif fid.name is Formula.T2S1_CONJECTURE:
            # t({2}^n, 1) = I(2n)/(2n)!, conjectural where the closed form is
            found["quadrature"] = lambda: replace(
                hp.scaled(quadrature.I_quad(2 * n, prec), Fraction(1, math.factorial(2 * n))),
                conjectural=fid.conjectural,
            )
        elif fid.name is Formula.E211:  # mu(2, {1}^(n-1)) = K(n)/n!
            found["quadrature"] = lambda: hp.scaled(
                quadrature.k_arctanh(n, prec), Fraction(1, math.factorial(n))
            )
        elif fid.name is Formula.I_CLOSED:
            found["quadrature"] = lambda: quadrature.I_quad(n, prec)

    if quantity in _NESTED:
        found["series"] = lambda: series.nested_value(quantity, p, prec)

    if quantity == "zeta":
        if len(p) == 1:
            found["closed"] = lambda: hp.zeta_single(p[0], prec)
        elif _head_tail_run(p, 2, 1):
            # telescoping:  zeta(2, {1}^(k-1)) = zeta(k+1)
            found["closed"] = lambda: hp.zeta_single(len(p) + 1, prec)

    elif quantity == "tvalue":
        if len(p) == 1:
            found["closed"] = lambda: hp.t_single(p[0], prec)

    elif quantity == "bigT":
        if len(p) == 1:
            found["closed"] = lambda: hp.scaled(hp.t_single(p[0], prec), 2)
        elif _head_tail_run(p, 2, 1):
            # T(2, {1}^(k-1)) = T(k+1) = 2 t(k+1)
            found["closed"] = lambda: hp.scaled(hp.t_single(len(p) + 1, prec), 2)

    elif quantity == "oddsum":
        fam, a, b = p
        sign = -1 if fam == "O" else +1
        if a >= 2 and b >= 2:
            found["quadrature"] = lambda: quadrature.kernel_pair(a, b, sign, prec)

    elif quantity == "integral":
        kind, n = p
        if n < 1:
            raise ValueError(f"integral {kind} needs n >= 1, got {n}")
        if kind == "J":
            # J(n) = I(n)/pi^(n+1)
            found["closed"] = lambda: hp.scaled(
                closed.evaluate(FormulaId(Formula.I_CLOSED, (n,)), prec),
                1,
                hp.pi_power(-n - 1, prec),
            )
            found["quadrature"] = lambda: quadrature.j_cot(n, prec)
        elif kind == "K":
            # K(N) = N! (2^(N+1)-1) zeta(N+1) / 2^(2N) = N! mu(2, {1}^(N-1))
            found["closed"] = lambda: hp.scaled(
                closed.evaluate(FormulaId(Formula.E211, (n,)), prec), math.factorial(n)
            )
            found["quadrature"] = lambda: quadrature.k_arctanh(n, prec)
        elif kind == "logsine":  # -n int_0^(pi/2) z^(n-1) log sin z dz, equals I(n)
            found["closed"] = lambda: closed.evaluate(FormulaId(Formula.I_CLOSED, (n,)), prec)
            found["quadrature"] = lambda: quadrature.logsine_check(n, prec)

    elif quantity == "cbsum":
        found["series"] = lambda: series.central_binomial_sum(p[0], prec)

    return found


def series_values(shapes, prec: int) -> list:
    """routes(quantity, params, prec)["series"]() of each shape, bit for bit,
    the nested families from one series.nested_values batch."""
    nested = [shape for shape in shapes if shape[0] in _NESTED]
    batch = dict(zip(nested, series.nested_values(nested, prec)))
    return [batch[s] if s in batch else routes(*s, prec)["series"]() for s in shapes]
