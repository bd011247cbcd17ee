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

from . import closed, hp, quadrature, series, symbolic
from .symbolic import Formula, FormulaId

__all__ = ["ARGUMENT_CONSTANTS", "CONSTANT_NAMES", "INTEGRAL_KINDS", "fid_for", "routes",
           "series_values"]

# the families series.nested_value evaluates
_NESTED = ("zeta", "tvalue", "mu", "bigT", "oddsum", "eulersum", "valean", "arcsin_kernel")
INTEGRAL_KINDS = ("I", "J", "K", "logsine")
# name -> its closed route at (m, prec); each looks its hp function up when
# it runs, so that a wrapper rebound in hp sees the call
_CONSTANTS = {
    "pi": lambda m, prec: hp.pi_const(prec),
    "log2": lambda m, prec: hp.log2_const(prec),
    "zeta": lambda m, prec: hp.zeta_single(m, prec),
    "eta": lambda m, prec: hp.eta(m, prec),
    "beta": lambda m, prec: hp.beta_fn(m, prec),
    "t": lambda m, prec: hp.t_single(m, prec),
    "psi3_quarter": lambda m, prec: hp.psi3_quarter(prec),
}
CONSTANT_NAMES = tuple(_CONSTANTS)
# the constants that take an integer argument m; the others take 0
ARGUMENT_CONSTANTS = ("zeta", "eta", "beta", "t")


def _shape(params):
    """A list of params as the tuple it holds; verify's valean params stay a string."""
    return tuple(params) if isinstance(params, list) else params


def _head_tail(params, head, tail) -> bool:
    """params == (head, tail, ..., tail), the tail run possibly empty."""
    return params[:1] == (head,) and all(p == tail for p in params[1:])


def fid_for(quantity: str, params):
    """FormulaId for the shape, when a symbolic build exists: the shape names
    a candidate closed form, and symbolic.takes says whether that form's
    parameter rule accepts its params."""
    p = _shape(params)
    candidate = None
    if quantity == "zeta":
        if _head_tail(p, 3, 2):  # zeta(3) is Z322's N = 0
            candidate = Formula.Z322, (len(p) - 1,)
        elif p == (3, 1, 1):
            candidate = Formula.ZETA311, ()
    elif quantity == "tvalue":
        if _head_tail(p, 3, 2):
            candidate = Formula.T322, (len(p) - 1,)
        elif p[-1:] == (1,) and all(e == 2 for e in p[:-1]):
            candidate = Formula.T2S1_CONJECTURE, (len(p) - 1,)
    elif quantity == "mu":
        if _head_tail(p, 2, 1):
            candidate = Formula.E211, (len(p),)
    elif quantity == "oddsum":
        fam, a, b = p
        if fam not in ("O", "B"):
            raise ValueError(f"odd-sum family must be 'O' or 'B', got {fam!r}")
        candidate = (Formula.O_SUM if fam == "O" else Formula.B_SUM), (a, b)
    elif quantity == "integral":
        kind, n = p
        if kind not in INTEGRAL_KINDS:
            raise ValueError(f"integral kind must be one of {INTEGRAL_KINDS}, got {kind!r}")
        if kind == "I":
            candidate = Formula.I_CLOSED, (n,)
    if candidate is not None and symbolic.takes(*candidate):
        return FormulaId(*candidate)
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
        found["closed"] = lambda: _CONSTANTS[name](arg, prec)
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
        elif _head_tail(p, 2, 1):
            # telescoping:  zeta(2, {1}^(k-1)) = zeta(k+1)
            found["closed"] = lambda: hp.zeta_single(len(p) + 1, prec)

    elif quantity == "tvalue":
        if len(p) == 1:
            found["closed"] = lambda: hp.t_single(p[0], prec)

    elif quantity == "bigT":
        if len(p) == 1:
            found["closed"] = lambda: hp.scaled(hp.t_single(p[0], prec), 2)
        elif _head_tail(p, 2, 1):
            # T(2, {1}^(k-1)) = T(k+1) = 2 t(k+1)
            found["closed"] = lambda: hp.scaled(hp.t_single(len(p) + 1, prec), 2)

    elif quantity == "oddsum":
        fam, a, b = p
        sign = -1 if fam == "O" else +1
        if all(isinstance(e, int) and e >= 2 for e in (a, b)):
            found["quadrature"] = lambda: quadrature.kernel_pair(a, b, sign, prec)

    elif quantity == "integral":
        kind, n = p
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"integral {kind} needs n >= 1, got {n!r}")
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
