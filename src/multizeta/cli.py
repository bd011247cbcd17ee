"""Command-line front end.

Subcommands map one-to-one onto the evaluation families:

  constants     single constants (pi, log2, zeta m, eta m, beta m, t m, psi3_quarter)
  zeta          nested zeta values zeta(i1,...,ik), outermost exponent first
  tvalue        nested odd-denominator values t(i1,...,ik)
  mu            nested parity-constrained values mu(i1,...,ik)
  bigT          2^depth-scaled parity values T(i1,...,ik)
  oddsum        odd Euler sums O(p,q) / alternating B(p,q)
  eulersum      classical Euler sums  sum prod_j H_n^(p_j) / n^q
  integral      the integral family (I, J, K, logsine)
  series-coeff  exact coefficient-table entries (G, H, arctanh families)
  cbsum         central-binomial (Lehmer) sums
  verify        run the cross-verification suites

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

from mpmath import mp

from .hp import GUARD_DIGITS, EvalResult, coerce_prec
from .quadrature import QuadratureNonConvergence
from .routes import fid_for, routes
from .series import CB_KINDS
from .symbolic import build, canonical_text, json_terms
from .verify import SUITES, run_suite
from .wseries import arctanh_nested_coeff, g_coeff, h_coeff

__all__ = ["Request", "run", "main"]

_METHODS = ("closed", "series", "quadrature", "symbolic", "all")
_QUANTITIES = (
    "constants",
    "zeta",
    "tvalue",
    "mu",
    "bigT",
    "oddsum",
    "eulersum",
    "integral",
    "cbsum",
)
# --cutoff is accepted and validated for compatibility (verify echoes it in its
# report); no route reads it
DEFAULT_CUTOFF = 10 ** 6
_CONSTANT_NAMES = ("pi", "log2", "zeta", "eta", "beta", "t", "psi3_quarter")
_INTEGRAL_KINDS = ("I", "J", "K", "logsine")


@dataclass(frozen=True)
class Request:
    """One evaluation request: a quantity family plus its parameters.

    ``params`` holds the subcommand's positional arguments verbatim
    (integers for exponent tuples; a leading name string for constants,
    oddsum, integral, and cbsum).
    """

    quantity: str
    params: tuple
    method: str = "all"
    prec: int = 50
    cutoff: int = DEFAULT_CUTOFF
    output: str = "text"
    symbolic: bool = False

    def __post_init__(self):
        if self.quantity not in _QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.output not in ("text", "json"):
            raise ValueError(f"output must be 'text' or 'json', got {self.output!r}")
        coerce_prec(self.prec)
        if not isinstance(self.cutoff, int) or self.cutoff < 10:
            raise ValueError(f"cutoff must be an integer >= 10, got {self.cutoff!r}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _result_payload(req: Request, method: str, r: EvalResult) -> dict:
    with mp.workdps(req.prec + GUARD_DIGITS):
        err = mp.nstr(r.error_bound.magnitude, 5)
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

    Raises ValueError for shapes with no applicable route; lets
    QuadratureNonConvergence propagate for the caller's exit mapping.
    """
    found = routes(req.quantity, req.params, req.prec)
    if not found:
        raise ValueError(f"no evaluation route for {req.quantity} {req.params}")

    if req.method != "all":
        if req.method not in found:
            raise ValueError(
                f"method {req.method!r} not available for {req.quantity} "
                f"{req.params}; available: {sorted(found)}"
            )
        payload = _result_payload(req, req.method, found[req.method]())
    else:
        order = [m for m in ("closed", "series", "quadrature", "symbolic") if m in found]
        results = [(m, found[m]()) for m in order]
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


def _common_flags(sp):
    sp.add_argument("--prec", type=int, default=50, help="decimal digits (default 50)")
    sp.add_argument(
        "--cutoff",
        type=int,
        default=DEFAULT_CUTOFF,
        help="accepted for compatibility; no effect (every series route reaches the"
        " full precision without a cutoff)",
    )
    sp.add_argument(
        "--method", choices=_METHODS, default="all", help="evaluation route (default all)"
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")
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

    sp = sub.add_parser("constants", help="single constants")
    sp.add_argument("name", choices=_CONSTANT_NAMES)
    sp.add_argument("arg", type=int, nargs="?", default=None, help="argument m where applicable")
    _common_flags(sp)

    for cmd, hlp in (
        ("zeta", "nested zeta value, exponents outermost-first"),
        ("tvalue", "nested odd-denominator t value"),
        ("mu", "nested parity-constrained mu value"),
        ("bigT", "2^depth-scaled parity value"),
    ):
        sp = sub.add_parser(cmd, help=hlp)
        sp.add_argument("exponents", type=int, nargs="+")
        _common_flags(sp)

    sp = sub.add_parser("oddsum", help="odd Euler sums O(p,q) and alternating B(p,q)")
    sp.add_argument("family", choices=("O", "B"))
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    _common_flags(sp)

    sp = sub.add_parser(
        "eulersum", help="sum prod_j H_n^(p_j) / n^q  (arguments: q p1 [p2 ...])"
    )
    sp.add_argument("q", type=int)
    sp.add_argument("ps", type=int, nargs="+")
    _common_flags(sp)

    sp = sub.add_parser("integral", help="integral family")
    sp.add_argument("kind", choices=_INTEGRAL_KINDS)
    sp.add_argument("n", type=int)
    _common_flags(sp)

    sp = sub.add_parser("series-coeff", help="exact coefficient-table entries")
    sp.add_argument("family", choices=("G", "H", "arctanh"))
    sp.add_argument("N", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("cbsum", help="central-binomial (Lehmer) sums")
    sp.add_argument("kind", choices=CB_KINDS)
    _common_flags(sp)

    sp = sub.add_parser("verify", help="run the cross-verification suites")
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--prec", type=int, default=50)
    sp.add_argument(
        "--cutoff",
        type=int,
        default=DEFAULT_CUTOFF,
        help="accepted for compatibility; no effect",
    )
    sp.add_argument("--json", action="store_true", help="print the report as JSON")
    sp.add_argument("--report", metavar="PATH", help="also write the JSON report to PATH")
    sp.add_argument(
        "--strict-conjectures",
        action="store_true",
        help="conjectural failures also gate the exit status",
    )
    return ap


def _request_from_args(args) -> Request:
    common = dict(
        method=args.method,
        prec=args.prec,
        cutoff=args.cutoff,
        output="json" if args.json else "text",
        symbolic=args.symbolic,
    )
    if args.command == "constants":
        if args.name in ("zeta", "eta", "beta", "t"):
            if args.arg is None:
                raise ValueError(f"constants {args.name} requires an integer argument m")
            return Request("constants", (args.name, args.arg), **common)
        if args.arg is not None:
            raise ValueError(f"constants {args.name} takes no argument")
        return Request("constants", (args.name, 0), **common)
    if args.command in ("zeta", "tvalue", "mu", "bigT"):
        return Request(args.command, tuple(args.exponents), **common)
    if args.command == "oddsum":
        return Request("oddsum", (args.family, args.p, args.q), **common)
    if args.command == "eulersum":
        return Request("eulersum", (args.q, *args.ps), **common)
    if args.command == "integral":
        return Request("integral", (args.kind, args.n), **common)
    if args.command == "cbsum":
        return Request("cbsum", (args.kind,), **common)
    raise ValueError(f"unhandled command {args.command!r}")  # pragma: no cover


def _run_series_coeff(args) -> int:
    fn = {"G": g_coeff, "H": h_coeff, "arctanh": arctanh_nested_coeff}[args.family]
    value = fn(args.N, args.k)
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
    report = run_suite(args.suite, prec=args.prec, cutoff=args.cutoff)
    payload = report.to_dict()
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
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
        payload = run(req)
    except QuadratureNonConvergence as exc:
        print(f"quadrature failed to converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    if req.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))
    return 0 if payload.get("agreement", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
