"""The route registry: which evaluators serve each request shape.

``routes(quantity, params, prec)`` maps each method available for a shape
(closed, series, quadrature, symbolic) to a thunk evaluating it at ``prec``
digits; ``fid_for(quantity, params)`` names the shape's exact closed form,
if any.  Params are the CLI's (see ``cli.Request``).  The CLI serves these
routes and the verification rows name them, so verify certifies what the
CLI serves.  The quantity "valean" (a name of ``series.nested_value``) has
a series route for verify only; the CLI does not accept it.

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

from . import closed, hp, quadrature, series, symbolic
from .symbolic import Formula, FormulaId

__all__ = ["fid_for", "routes"]

# the families series.nested_value evaluates
_NESTED = ("zeta", "tvalue", "mu", "bigT", "oddsum", "eulersum", "valean")


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
    p = params
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
            if n <= 3:
                return FormulaId(Formula.HOFFMAN_T, (n,))
            return FormulaId(Formula.T2S1_CONJECTURE, (n,))
    elif quantity == "mu":
        if p == (2,):
            return FormulaId(Formula.E211, (1,))
        if (n := _head_tail_run(p, 2, 1)):
            return FormulaId(Formula.E211, (n + 1,))
    elif quantity == "oddsum":
        fam, a, b = p
        if fam == "O":
            if a == b and a >= 2:
                return FormulaId(Formula.O_DIAG, (a,))
            if (a, b) in closed.O_TABLE_PRIMARY or (b, a) in closed.O_TABLE_PRIMARY:
                return FormulaId(Formula.O_TABLE, (a, b))
        else:
            if a == b and a >= 2:
                return FormulaId(Formula.B_DIAG, (a,))
            if (a, b) == (2, 3):
                return FormulaId(Formula.B23)
            if (a, b) == (3, 2):
                return FormulaId(Formula.B_REFLECT, (2, 3))
    elif quantity == "integral":
        kind, n = p
        if kind == "I" and isinstance(n, int) and n >= 1:
            return FormulaId(Formula.I_CLOSED, (n,))
    return None


def routes(quantity: str, params, prec: int) -> dict:
    """Available evaluation routes for the shape, method name -> thunk."""
    p = params
    found: dict = {}

    if quantity == "constants":
        name, arg = p
        found["closed"] = {
            "pi": lambda: hp.pi_const(prec),
            "log2": lambda: hp.log2_const(prec),
            "psi3_quarter": lambda: hp.psi3_quarter(prec),
            "zeta": lambda: hp.zeta_single(arg, prec),
            "eta": lambda: hp.eta(arg, prec),
            "beta": lambda: hp.beta_fn(arg, prec),
            "t": lambda: hp.t_single(arg, prec),
        }[name]
        return found

    fid = fid_for(quantity, p)
    if fid is not None:  # single-entry zeta keeps zeta_single below
        conj = fid.name is Formula.T2S1_CONJECTURE
        found["closed"] = lambda: closed.evaluate(fid, prec)
        found["symbolic"] = lambda: replace(
            symbolic.eval_symbolic(symbolic.build(fid), prec), conjectural=conj
        )

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
        elif (n := _head_tail_run(p, 3, 2)):
            found["quadrature"] = lambda: quadrature.t_kernel_quad(n, prec)
        elif (m := _twos_then_one(p)):
            # t({2}^m, 1) = I(2m)/(2m)!, proven for m <= 3
            found["quadrature"] = lambda: replace(
                hp.scaled(quadrature.I_quad(2 * m, prec), Fraction(1, math.factorial(2 * m))),
                conjectural=m > 3,
            )

    elif quantity == "mu":
        if p == (2,) or _head_tail_run(p, 2, 1):
            N = len(p)
            found["quadrature"] = lambda: hp.scaled(
                quadrature.k_arctanh(N, prec), Fraction(1, math.factorial(N))
            )

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
        if kind == "I":
            found["quadrature"] = lambda: quadrature.I_quad(n, prec)
        elif kind == "J":
            # J(n) = I(n)/pi^(n+1)
            found["closed"] = lambda: hp.scaled(closed.i_closed(n, prec), 1, hp.pi_power(-n - 1, prec))
            found["quadrature"] = lambda: quadrature.j_cot(n, prec)
        elif kind == "K":
            # K(N) = N! (2^(N+1)-1) zeta(N+1) / 2^(2N) = N! mu(2, {1}^(N-1))
            found["closed"] = lambda: hp.scaled(closed.mu_closed(n, prec), math.factorial(n))
            found["quadrature"] = lambda: quadrature.k_arctanh(n, prec)
        else:  # logsine: -n int_0^(pi/2) z^(n-1) log sin z dz, equals I(n)
            found["closed"] = lambda: closed.i_closed(n, prec)
            found["quadrature"] = lambda: quadrature.logsine_check(n, prec)

    elif quantity == "cbsum":
        found["series"] = lambda: series.central_binomial_sum(p[0], prec)

    return found
