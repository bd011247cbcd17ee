"""Command-line front end.

Each evaluating subcommand serves one evaluation family (single constants,
zeta, tvalue, mu, bigT, oddsum, eulersum, integral, cbsum); one table,
``_COMMANDS``, declares its positional arguments, and a request's params are
their values in table order.  ``series-coeff`` prints exact coefficient-table
entries and ``verify`` runs the cross-verification suites.  ``multizeta
--help`` lists every subcommand.

Every evaluating subcommand takes --method {closed,series,quadrature,
symbolic,all}: 'all' runs every route available for the requested shape and
checks pairwise agreement within the combined error bounds.  The routes come
from multizeta.routes, the table the verification suite also reads.  Routes
that do not apply to a shape are simply absent (e.g. there is no closed form
for an arbitrary zeta index), and asking for one explicitly is an invalid
request.
--json emits a deterministic machine payload (identical invocations produce
byte-identical output); --symbolic attaches the exact basis expression where
one exists.

Exit codes: 0 success, 1 route disagreement (or failed verification),
2 invalid request, 3 quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from mpmath.libmp import mpf_pos, round_nearest, to_str

from .hp import GUARD_DIGITS, EvalResult, coerce_prec
from .quadrature import QuadratureNonConvergence
from .routes import ARGUMENT_CONSTANTS, CONSTANT_NAMES, INTEGRAL_KINDS, fid_for, routes
from .series import CB_KINDS
from .symbolic import build, canonical_text, json_terms
from .verify import SUITES, check_cutoff, run_suite
from .wseries import arctanh_nested_coeff, g_coeff, h_coeff

__all__ = ["Request", "run", "main"]

_METHODS = ("closed", "series", "quadrature", "symbolic", "all")
_INT, _INTS = {"type": int}, {"type": int, "nargs": "+"}
_EXPONENTS = ("exponents", _INTS)
# evaluating subcommand -> (help, positional arguments as (name, argparse options))
_COMMANDS = {
    "constants": ("single constants", (
        ("name", {"choices": CONSTANT_NAMES}),
        ("arg", {"type": int, "nargs": "?", "help": "argument m where applicable"}),
    )),
    "zeta": ("nested zeta value, exponents outermost-first", (_EXPONENTS,)),
    "tvalue": ("nested odd-denominator t value", (_EXPONENTS,)),
    "mu": ("nested parity-constrained mu value", (_EXPONENTS,)),
    "bigT": ("2^depth-scaled parity value", (_EXPONENTS,)),
    "oddsum": ("odd Euler sums O(p,q) and alternating B(p,q)",
               (("family", {"choices": ("O", "B")}), ("p", _INT), ("q", _INT))),
    "eulersum": ("sum prod_j H_n^(p_j) / n^q  (arguments: q p1 [p2 ...])",
                 (("q", _INT), ("ps", _INTS))),
    "integral": ("integral family", (("kind", {"choices": INTEGRAL_KINDS}), ("n", _INT))),
    "cbsum": ("central-binomial (Lehmer) sums", (("kind", {"choices": CB_KINDS}),)),
}
_COEFFS = {"G": g_coeff, "H": h_coeff, "arctanh": arctanh_nested_coeff}


@dataclass(frozen=True)
class Request:
    """One evaluation request: a quantity family plus its parameters.

    ``params`` holds the subcommand's positional arguments in ``_COMMANDS``
    order, lists flattened (integers for exponent tuples; a leading name
    string for constants, oddsum, integral, and cbsum), stored as a tuple.
    """

    quantity: str
    params: tuple
    method: str = "all"
    prec: int = 50
    symbolic: bool = False

    def __post_init__(self):
        # a list would evaluate but leave the request unhashable and unequal to its tuple form
        object.__setattr__(self, "params", tuple(self.params))
        if self.quantity not in _COMMANDS:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        coerce_prec(self.prec)
        _check_printable(self.prec)


def _check_printable(prec: int) -> None:
    """Refuse, before any computing, a precision whose value could not print.

    mpmath prints a number carried at wd = prec + GUARD_DIGITS digits
    through one integer of up to wd + 1 digits, and Python converts at most
    sys.get_int_max_str_digits() digits of an int to str (0: no limit).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    ceiling = limit - GUARD_DIGITS - 1
    if limit and prec > ceiling:
        raise ValueError(
            f"precision {prec} is above {ceiling} digits, the most that prints"
            f" under Python's limit of {limit} digits per int-to-str conversion"
            " (sys.set_int_max_str_digits)"
        )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _result_payload(req: Request, method: str, r: EvalResult) -> dict:
    # five digits of the bound, from its 64-bit rounding: a re-evaluated
    # closed form carries a mantissa far wider than the int-to-str limit
    err = to_str(mpf_pos(r.error_bound.magnitude._mpf_, 64, round_nearest), 5)
    return {
        "quantity": req.quantity,
        "params": list(req.params),
        "method": method,
        "precision_digits": req.prec,
        "value": r.value.to_decimal(req.prec),
        "error_bound": err,
        "rigorous": bool(r.rigorous),
        "conjectural": bool(r.conjectural),
    }


def run(req: Request) -> dict:
    """Evaluate a request; returns the JSON-ready payload.

    Raises ValueError for a method the shape has no route for; lets
    QuadratureNonConvergence propagate for the caller's exit mapping.
    """
    found = routes(req.quantity, req.params, req.prec)

    if req.method != "all":
        if req.method not in found:
            raise ValueError(
                f"method {req.method!r} not available for {req.quantity} "
                f"{req.params}; available: {sorted(found)}"
            )
        payload = _result_payload(req, req.method, found[req.method]())
    else:
        order = [m for m in _METHODS if m in found]
        # closed and symbolic share one thunk: each distinct thunk runs once
        values = {thunk: thunk() for thunk in dict.fromkeys(found[m] for m in order)}
        results = [(m, values[found[m]]) for m in order]
        entries = [_result_payload(req, m, r) for m, r in results]
        agree = all(a.agrees_with(b) for (_, a), (_, b) in combinations(results, 2))
        payload = {
            "quantity": req.quantity,
            "params": list(req.params),
            "method": "all",
            "precision_digits": req.prec,
            "routes": entries,
            "agreement": agree,
        }

    if req.symbolic:
        fid = fid_for(req.quantity, req.params)
        if fid is not None:
            expr = build(fid)
            payload["symbolic"] = {"text": canonical_text(expr), "terms": json_terms(expr)}
    return payload


def _render_text(payload: dict) -> str:
    lines = []
    params = ",".join(str(x) for x in payload["params"])
    lines.append(f"{payload['quantity']}({params})   [prec {payload['precision_digits']}]")
    entries = payload["routes"] if "routes" in payload else [payload]
    for e in entries:
        flags = []
        if not e["rigorous"]:
            flags.append("estimate")
        if e["conjectural"]:
            flags.append("conjectural")
        suffix = f"   ({', '.join(flags)})" if flags else ""
        lines.append(f"  {e['method']:<12} {e['value']}   error <= {e['error_bound']}{suffix}")
    if "agreement" in payload and len(entries) >= 2:
        lines.append(
            "  agreement: OK (all pairwise differences within combined bounds)"
            if payload["agreement"]
            else "  agreement: FAILED"
        )
    if "symbolic" in payload:
        lines.append(f"  exact: {payload['symbolic']['text']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _shared_flags(sp, evaluating: bool):
    """--prec, --cutoff and --json; an evaluating subcommand also takes --method
    and --symbolic (declared in this order, the order its usage line shows)."""
    sp.add_argument("--prec", type=int, default=50, help="decimal digits (default 50)")
    # validated and echoed in verify's report; no route reads it
    sp.add_argument(
        "--cutoff",
        type=int,
        default=10 ** 6,
        help="accepted for compatibility; no effect (every series route reaches the"
        " full precision without a cutoff)",
    )
    if evaluating:
        sp.add_argument(
            "--method", choices=_METHODS, default="all", help="evaluation route (default all)"
        )
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    if evaluating:
        sp.add_argument(
            "--symbolic", action="store_true", help="attach the exact basis expression"
        )


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, each call filling a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="multizeta",
        description=(
            "high-precision nested zeta/t/mu values, odd Euler sums, "
            "and their integral representations"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd, (hlp, positionals) in _COMMANDS.items():
        sp = sub.add_parser(cmd, help=hlp)
        for name, options in positionals:
            sp.add_argument(name, **options)
        _shared_flags(sp, evaluating=True)

    sp = sub.add_parser("series-coeff", help="exact coefficient-table entries")
    sp.add_argument("family", choices=_COEFFS)
    sp.add_argument("N", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("verify", help="run the cross-verification suites")
    sp.add_argument("--suite", choices=SUITES, default="all")
    _shared_flags(sp, evaluating=False)
    sp.add_argument("--report", metavar="PATH", help="also write the JSON report to PATH")
    sp.add_argument(
        "--strict-conjectures",
        action="store_true",
        help="conjectural failures also gate the exit status",
    )
    return ap


def _request_from_args(args) -> Request:
    params = []
    for name, _ in _COMMANDS[args.command][1]:
        value = getattr(args, name)
        params.extend(value if isinstance(value, list) else [value])
    if args.command == "constants":
        name, arg = params
        if name in ARGUMENT_CONSTANTS and arg is None:
            raise ValueError(f"constants {name} requires an integer argument m")
        if name not in ARGUMENT_CONSTANTS and arg is not None:
            raise ValueError(f"constants {name} takes no argument")
        params[1] = arg or 0
    return Request(args.command, params, args.method, args.prec, args.symbolic)


def _run_series_coeff(args) -> int:
    value = _COEFFS[args.family](args.N, args.k)
    if args.json:
        print(
            json.dumps(
                {
                    "quantity": "series-coeff",
                    "params": [args.family, args.N, args.k],
                    "value": str(value),
                    "exact": True,
                },
                indent=2,
            )
        )
    else:
        print(f"{args.family}_{args.N}[{args.k}] = {value}")
    return 0


def _run_verify(args) -> int:
    _check_printable(args.prec)
    report = run_suite(args.suite, prec=args.prec, cutoff=args.cutoff)
    payload = report.to_dict()
    if args.report:
        try:
            with open(args.report, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"cannot write report {args.report}: {exc.strerror}") from exc
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(report.render_table())
    return 0 if report.all_passed(strict_conjectures=args.strict_conjectures) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "series-coeff":
            return _run_series_coeff(args)
        req = _request_from_args(args)
        check_cutoff(args.cutoff)
        payload = run(req)
    except QuadratureNonConvergence as exc:
        print(f"quadrature failed to converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))
    return 0 if payload.get("agreement", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
