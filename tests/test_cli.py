"""End-to-end tests for the command-line interface.

main() is invoked in-process with explicit argv so exit codes and stdout can
be asserted without subprocesses.  --cutoff is accepted and has no effect:
the routes themselves are tested elsewhere; here we test wiring, output
shape, and the exit-code contract (0 ok / 1 disagreement or failed verification / 2 invalid
request / 3 quadrature non-convergence).
"""

import json
import sys
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from multizeta import cli, closed, quadrature, routes, series, symbolic
from multizeta.cli import Request, main, run
from multizeta.hp import GUARD_DIGITS, scaled, wrap_result
from multizeta.quadrature import QuadratureNonConvergence
from multizeta.symbolic import Formula, FormulaId

from oracles import B23_TERMS, O_TABLE_COMBOS

SCHEMA_KEYS = [
    "quantity",
    "params",
    "method",
    "precision_digits",
    "value",
    "error_bound",
    "rigorous",
    "conjectural",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# the documented example invocations
# ---------------------------------------------------------------------------


def test_zeta_closed_example(capsys):
    code, out, _ = run_cli(capsys, "zeta", "3", "2", "2", "--method", "closed", "--prec", "30")
    assert code == 0
    assert "0.02912562" in out


def test_tvalue_all_routes_agree(capsys):
    code, out, _ = run_cli(
        capsys, "tvalue", "3", "2", "2", "--method", "all", "--cutoff", "20000", "--prec", "30"
    )
    assert code == 0
    for route in ("closed", "series", "quadrature"):
        assert route in out
    assert out.count("0.0021091851") >= 3  # closed, quadrature, symbolic agree to print depth
    assert "agreement: OK" in out


def test_mu_closed_symbolic(capsys):
    code, out, _ = run_cli(capsys, "mu", "2", "1", "1", "--method", "closed", "--symbolic")
    assert code == 0
    assert "1/384*pi^4" in out
    assert "0.2536695079010480" in out  # pi^4/384


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def test_json_schema_single_method(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", "3", "2", "--json", "--method", "closed", "--prec", "20"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == SCHEMA_KEYS
    assert payload["quantity"] == "zeta"
    assert payload["params"] == [3, 2]
    assert payload["method"] == "closed"
    assert payload["precision_digits"] == 20
    assert payload["value"].startswith("0.22881039760335375977"[:20])
    assert payload["rigorous"] is True
    assert payload["conjectural"] is False
    assert mpf(payload["error_bound"]) < mpf("1e-20")


def test_json_byte_determinism(capsys):
    args = ("tvalue", "3", "2", "--json", "--method", "closed", "--prec", "25")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_json_all_routes(capsys):
    code, out, _ = run_cli(
        capsys, "tvalue", "3", "2", "--json", "--cutoff", "5000", "--prec", "25"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "all"
    methods = [e["method"] for e in payload["routes"]]
    assert methods == ["closed", "series", "quadrature", "symbolic"]
    for entry in payload["routes"]:
        assert list(entry.keys()) == SCHEMA_KEYS
    assert payload["agreement"] is True


@pytest.mark.parametrize("fam", ["O", "B"])
def test_every_odd_weight_o_has_a_closed_route(capsys, fam):
    # (2,5) was no typed row in either family: the parity theorem gives it every route
    code, out, _ = run_cli(
        capsys, "oddsum", fam, "2", "5", "--method", "all", "--prec", "30", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [e["method"] for e in payload["routes"]] == ["closed", "series", "quadrature", "symbolic"]
    assert payload["agreement"] is True
    # an even weight has none
    code, _, err = run_cli(capsys, "oddsum", fam, "2", "4", "--method", "closed")
    assert code == 2
    assert "not available" in err


def test_method_all_evaluates_the_shared_closed_form_once(capsys, monkeypatch):
    calls = []
    evaluate = closed.evaluate

    def counted(fid, prec):
        calls.append(fid)
        return evaluate(fid, prec)

    monkeypatch.setattr(closed, "evaluate", counted)
    code, out, _ = run_cli(capsys, "integral", "I", "3", "--json", "--prec", "20")
    assert code == 0
    assert len(calls) == 1
    routes_out = json.loads(out)["routes"]
    assert [e["method"] for e in routes_out] == ["closed", "quadrature", "symbolic"]
    assert {k: v for k, v in routes_out[0].items() if k != "method"} == {
        k: v for k, v in routes_out[2].items() if k != "method"
    }


def test_json_symbolic_attachment(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", "3", "2", "--json", "--method", "closed", "--symbolic", "--prec", "20"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic"]["text"] == "1/2*pi^2*zeta3 - 11/2*zeta5"
    terms = payload["symbolic"]["terms"]
    assert terms[0]["coefficient"] == "1/2"
    assert {"constant": "pi", "arg": 0, "power": 2} in terms[0]["factors"]


def test_the_printed_expression_is_the_one_evaluated(capsys, monkeypatch):
    # --symbolic prints the expression closed.evaluate built: T322(2) is
    # built once per process, not once per reader
    built = []
    takes, rule, builder = symbolic._FORMS[Formula.T322]
    monkeypatch.setitem(symbolic._FORMS, Formula.T322,
                        (takes, rule, lambda *params: built.append(params) or builder(*params)))
    memos = (closed.evaluate, symbolic.build, symbolic._build_i)
    for memo in memos:
        memo.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "tvalue", "3", "2", "2", "--method", "symbolic",
                               "--symbolic", "--json")
    finally:
        for memo in memos:  # drop what the recorder built
            memo.cache_clear()
    assert code == 0 and built == [(2,)]
    assert json.loads(out)["symbolic"]["text"].endswith("+ 381/2048*zeta7")


def test_symbolic_at_1000_digits_within_bound(capsys):
    code, out, _ = run_cli(
        capsys, "tvalue", "3", "2", "2", "--method", "symbolic", "--prec", "1000", "--json",
        "--symbolic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["precision_digits"] == 1000
    constants = {"pi": lambda arg: +mp.pi, "zeta_odd": mp.zeta}
    with mp.workdps(1030):
        ref = mpf(0)
        for term in payload["symbolic"]["terms"]:
            c = Fraction(term["coefficient"])
            t = mpf(c.numerator) / c.denominator
            for f in term["factors"]:
                t *= constants[f["constant"]](f["arg"]) ** f["power"]
            ref += t
        value = mpf(payload["value"])
        bound = mpf(payload["error_bound"])
        # the printed value is rounded to 1000 significant digits
        last_digit = mpf(10) ** (int(mp.floor(mp.log10(abs(value)))) - 999)
        assert bound < mpf(10) ** -1000
        assert abs(value - ref) <= bound + last_digit / 2


def test_conjectural_flag_in_json(capsys):
    _, out, _ = run_cli(
        capsys, "tvalue", "2", "2", "2", "2", "1", "--json", "--method", "closed", "--prec", "25"
    )
    assert json.loads(out)["conjectural"] is True
    _, out, _ = run_cli(
        capsys, "tvalue", "2", "2", "1", "--json", "--method", "closed", "--prec", "25"
    )
    assert json.loads(out)["conjectural"] is False


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_t2s1_is_conjectural_past_the_proven_range(capsys, N):
    # every route of t({2}^N,1) is flagged past N = 3, the range Hoffman proved
    code, out, _ = run_cli(capsys, "tvalue", *["2"] * N, "1", "--method", "all", "--json", "--prec", "20")
    assert code == 0
    entries = json.loads(out)["routes"]
    assert [e["method"] for e in entries] == ["closed", "series", "quadrature", "symbolic"]
    assert {e["method"]: e["conjectural"] for e in entries} == {
        "closed": N > 3, "series": False, "quadrature": N > 3, "symbolic": N > 3,
    }


# ---------------------------------------------------------------------------
# constants, integrals, coefficient tables, simple sums
# ---------------------------------------------------------------------------


def test_constants(capsys):
    code, out, _ = run_cli(capsys, "constants", "pi", "--prec", "30")
    assert code == 0
    assert "3.14159265358979323846264338328" in out
    code, out, _ = run_cli(capsys, "constants", "beta", "3", "--prec", "25")
    assert code == 0
    assert "0.96894614625936" in out  # pi^3/32
    code, out, _ = run_cli(capsys, "constants", "psi3_quarter", "--prec", "25")
    assert code == 0
    assert "1538.7821440091883960" in out


# mpmath prints a value carried at prec + GUARD_DIGITS digits through an int
# of one digit more, which Python converts to str only up to its limit
def printable_ceiling():
    return sys.get_int_max_str_digits() - GUARD_DIGITS - 1


@pytest.mark.parametrize("argv", [("constants", "psi3_quarter"), ("verify", "--suite", "all")])
def test_a_precision_too_wide_to_print_is_refused_before_computing(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--prec", "20000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert f"above {printable_ceiling()} digits" in err
    assert "int-to-str" in err


def test_the_largest_accepted_precision_prints(capsys):
    top = printable_ceiling()
    code, out, err = run_cli(
        capsys, "constants", "pi", "--prec", str(top), "--method", "closed", "--json"
    )
    assert code == 0, err
    value = json.loads(out)["value"]
    assert value.startswith("3.14159265358979")
    assert len(value) == top + 1  # every digit and the point
    code, _, err = run_cli(capsys, "constants", "pi", "--prec", str(top + 1))
    assert code == 2
    assert "int-to-str" in err


def test_a_bound_wider_than_the_print_limit_prints():
    # integral I 40 --method closed --prec 4289 re-evaluates its closed form
    # after cancellation, and its bound near 10^-4300 carried a 14,363-bit
    # mantissa, too wide for int-to-str at five digits
    top = printable_ceiling()
    with mp.workprec(14363):
        bound = mpf(1) / 3 * mpf(10) ** -(top + 11)
    with mp.workdps(top + GUARD_DIGITS):
        r = wrap_result(mpf(1) / 7, bound, top, rigorous=True)
    req = Request("integral", ("I", 40), method="closed", prec=top)
    payload = cli._result_payload(req, "closed", r)
    assert payload["error_bound"] == f"3.3333e-{top + 12}"
    assert payload["value"].startswith("0.142857142857")


def test_the_ceiling_follows_the_interpreters_limit(capsys):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        assert run_cli(capsys, "constants", "pi", "--prec", str(1000 - GUARD_DIGITS - 1))[0] == 0
        assert run_cli(capsys, "constants", "pi", "--prec", str(1000 - GUARD_DIGITS))[0] == 2
        sys.set_int_max_str_digits(0)  # no limit, no ceiling
        code, out, _ = run_cli(capsys, "constants", "pi", "--prec", str(limit + 100))
        assert code == 0
        assert "3.14159265358979" in out
    finally:
        sys.set_int_max_str_digits(limit)


def test_constants_argument_validation(capsys):
    code, _, err = run_cli(capsys, "constants", "zeta")
    assert code == 2
    assert "requires an integer argument" in err
    code, _, err = run_cli(capsys, "constants", "pi", "4")
    assert code == 2
    assert "takes no argument" in err


def test_integral_routes(capsys):
    code, out, _ = run_cli(capsys, "integral", "J", "1", "--prec", "25")
    assert code == 0
    assert "agreement: OK" in out
    code, out, _ = run_cli(capsys, "integral", "K", "2", "--prec", "25")
    assert code == 0
    # K(2) = 2! * 7 zeta(3) / 16 = 7 zeta(3) / 8
    assert "1.0517997902646449" in out


def test_series_coeff(capsys):
    code, out, _ = run_cli(capsys, "series-coeff", "G", "2", "5")
    assert code == 0
    assert "34562/178605" in out
    code, out, _ = run_cli(capsys, "series-coeff", "H", "1", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/4"
    assert payload["exact"] is True


def test_cbsum(capsys):
    code, out, _ = run_cli(capsys, "cbsum", "inverse_square", "--prec", "30")
    assert code == 0
    assert "0.548311355616075478" in out  # pi^2/18


def test_eulersum(capsys):
    code, out, _ = run_cli(capsys, "eulersum", "3", "1", "--cutoff", "30000", "--prec", "25")
    assert code == 0
    with mp.workdps(30):
        target = mp.pi**4 / 72  # sum H_n/n^3
        value = mpf(out.splitlines()[1].split()[1])
        assert abs(value - target) < mpf("1e-24")  # printed to 25 digits


def test_eulersum_ignores_a_huge_cutoff(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "eulersum", "4", "1", "--cutoff", "100000000", "--prec", "50",
        "--method", "series", "--json",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert payload["rigorous"] is True
    with mp.workdps(60):
        assert mpf(payload["error_bound"]) < mpf("1e-50")


SERIES_SHAPES = [
    ("zeta", "3", "2", "2"),
    ("tvalue", "2", "2", "1"),
    ("mu", "2", "1", "1"),
    ("bigT", "2", "1"),
    ("oddsum", "O", "1", "3"),
    ("oddsum", "B", "3", "2"),
    ("eulersum", "4", "1"),
    ("eulersum", "2", "1", "1", "2"),
    ("cbsum", "inverse_square"),
    ("cbsum", "alt_inverse_cube"),
    ("cbsum", "inverse_fourth"),
]


@pytest.mark.parametrize("digits", [30, 50, 200])
def test_every_series_route_is_rigorous_to_the_digits_asked(capsys, digits):
    for shape in SERIES_SHAPES:
        code, out, _ = run_cli(
            capsys, *shape, "--method", "series", "--prec", str(digits), "--json"
        )
        assert code == 0, shape
        payload = json.loads(out)
        assert payload["rigorous"] is True, shape
        with mp.workdps(30):
            assert mpf(payload["error_bound"]) < mpf(10) ** -digits, shape


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_invalid_index_exits_2(capsys):
    code, _, err = run_cli(capsys, "tvalue", "1", "2", "--method", "series")
    assert code == 2
    assert "invalid request" in err


def test_unavailable_method_exits_2(capsys):
    code, _, err = run_cli(capsys, "oddsum", "O", "1", "2", "--method", "quadrature")
    assert code == 2
    assert "not available" in err
    code, _, err = run_cli(capsys, "zeta", "7", "5", "--method", "closed")
    assert code == 2


@pytest.mark.parametrize("kind", ["I", "J", "K", "logsine"])
@pytest.mark.parametrize("method", ["closed", "quadrature", "all"])
def test_integral_below_one_exits_2(capsys, kind, method):
    code, out, err = run_cli(capsys, "integral", kind, "0", "--method", method)
    assert (code, out) == (2, "")
    assert err == f"invalid request: integral {kind} needs n >= 1, got 0\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["integral", "Q", "1"])
    assert exc.value.code == 2


def test_reused_parser_carries_no_value_over(capsys, monkeypatch):
    # the parser is built once per process; each call must still parse afresh
    seen = []

    def record(req):
        seen.append(req)
        return {"agreement": True}

    monkeypatch.setattr(cli, "run", record)
    first = ["zeta", "3", "2", "--prec", "30", "--method", "closed", "--cutoff", "500"]
    assert main([*first, "--symbolic", "--json"]) == 0
    assert main(["zeta", "3", "2", "--json"]) == 0
    capsys.readouterr()
    assert seen == [
        Request("zeta", (3, 2), "closed", 30, True),
        Request("zeta", (3, 2)),
    ]
    assert cli._build_parser() is cli._build_parser()


# one argv per evaluating subcommand and the request main builds from it:
# params are the positionals in table order, nargs="+" lists flattened
REQUEST_CASES = [
    (["constants", "pi"], Request("constants", ("pi", 0))),
    (["constants", "zeta", "3", "--prec", "30"], Request("constants", ("zeta", 3), prec=30)),
    (["zeta", "3", "2", "2", "--method", "closed"], Request("zeta", (3, 2, 2), "closed")),
    (["tvalue", "3", "2", "--symbolic"], Request("tvalue", (3, 2), symbolic=True)),
    (["mu", "2", "1", "--cutoff", "500"], Request("mu", (2, 1))),
    (["bigT", "2", "1", "1", "--method", "series"], Request("bigT", (2, 1, 1), "series")),
    (["oddsum", "B", "3", "3"], Request("oddsum", ("B", 3, 3))),
    (["eulersum", "3", "1", "2"], Request("eulersum", (3, 1, 2))),
    (["integral", "logsine", "4", "--method", "quadrature", "--prec", "40"],
     Request("integral", ("logsine", 4), "quadrature", 40)),
    (["cbsum", "inverse_fourth"], Request("cbsum", ("inverse_fourth",))),
]


@pytest.mark.parametrize("argv, expected", REQUEST_CASES,
                         ids=[" ".join(argv) for argv, _ in REQUEST_CASES])
def test_each_subcommand_builds_its_request(capsys, monkeypatch, argv, expected):
    seen = []
    monkeypatch.setattr(cli, "run", lambda req: seen.append(req) or {"agreement": True})
    assert main([*argv, "--json"]) == 0  # the stub payload has no text rendering
    capsys.readouterr()
    assert seen == [expected]


def test_the_request_cases_cover_every_evaluating_subcommand():
    assert {argv[0] for argv, _ in REQUEST_CASES} == set(cli._COMMANDS)


@pytest.mark.parametrize("cmd", [*cli._COMMANDS, "series-coeff", "verify"])
def test_every_subcommand_prints_its_help(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: multizeta {cmd} ")


@pytest.mark.parametrize("quantity, params", [
    ("constants", ("zeta", 3)),
    ("zeta", (3, 1, 1)),
    ("tvalue", (3, 2)),
    ("mu", (2,)),
    ("bigT", (2, 1)),
    ("oddsum", ("O", 2, 3)),
    ("eulersum", (3, 1)),
    ("integral", ("K", 2)),
    ("cbsum", ("inverse_square",)),
])
def test_a_list_of_params_is_the_tuple_it_holds(quantity, params):
    listed = routes.routes(quantity, list(params), 30)
    held = routes.routes(quantity, params, 30)
    assert list(listed) == list(held)
    for method in held:
        assert listed[method]() == held[method](), method
    assert routes.fid_for(quantity, list(params)) == routes.fid_for(quantity, params)
    req = Request(quantity, list(params), prec=30)
    assert req == Request(quantity, params, prec=30) and req.params == params
    assert hash(req) == hash(Request(quantity, params, prec=30))
    assert run(req) == run(Request(quantity, params, prec=30))


def test_nonconvergence_exits_3(capsys, monkeypatch):
    def blow_up(N, prec=50):
        raise QuadratureNonConvergence("level cap hit", None)

    monkeypatch.setattr(quadrature, "t_kernel_quad", blow_up)
    code, _, err = run_cli(capsys, "tvalue", "3", "2", "--method", "quadrature")
    assert code == 3
    assert "quadrature failed to converge" in err


def test_route_disagreement_exits_1(capsys, monkeypatch):
    def wrong_value(N, prec=50):
        with mp.workdps(prec + 10):
            return wrap_result(mpf(1), mpf("1e-40"), prec, rigorous=False)

    monkeypatch.setattr(quadrature, "t_kernel_quad", wrong_value)
    code, out, _ = run_cli(
        capsys, "tvalue", "3", "2", "--method", "all", "--cutoff", "2000", "--prec", "25"
    )
    assert code == 1
    assert "agreement: FAILED" in out


# ---------------------------------------------------------------------------
# bounds: symbolic and closed routes, and the scaled routes against mpmath
# ---------------------------------------------------------------------------

# every shape the route table keys on a FormulaId
FID_SHAPES = (
    [("zeta", (3,) + (2,) * n) for n in range(4)]
    + [("zeta", (3, 1, 1))]
    + [("tvalue", (3,) + (2,) * n) for n in range(1, 4)]
    + [("tvalue", (2,) * n + (1,)) for n in range(1, 6)]
    + [("mu", (2,) + (1,) * n) for n in range(4)]
    + [("oddsum", (fam, q, q)) for fam in "OB" for q in range(2, 6)]
    + [("oddsum", ("O", p, p + 1)) for p in range(2, 7)]
    + [("oddsum", ("O", p + 1, p)) for p in range(2, 7)]
    + [("oddsum", ("O", 2, 5)), ("oddsum", ("O", 7, 2)), ("oddsum", ("O", 3, 8))]
    + [("oddsum", ("B", 2, 3)), ("oddsum", ("B", 3, 2))]
    + [("oddsum", ("B", 2, 5)), ("oddsum", ("B", 5, 2)), ("oddsum", ("B", 3, 8))]
    + [("integral", ("I", n)) for n in range(1, 7)]
)


@pytest.mark.parametrize("prec", [30, 50])
def test_symbolic_bound_equals_closed(prec):
    # both routes evaluate the one exact expression of the shape
    for quantity, params in FID_SHAPES:
        assert routes.fid_for(quantity, params) is not None, (quantity, params)
        found = routes.routes(quantity, params, prec)
        closed, symbolic = found["closed"](), found["symbolic"]()
        assert symbolic.value.magnitude == closed.value.magnitude, (quantity, params)
        assert symbolic.error_bound.magnitude == closed.error_bound.magnitude, (quantity, params)


def _typed_row(terms):
    # a once-typed row over mpmath's constants; -2 stands for Catalan's constant
    return sum(mpf(Fraction(c).numerator) / Fraction(c).denominator * mp.pi ** a
               * (mp.catalan if m == -2 else mp.zeta(m)) for c, a, m in terms)


def _reflected_reference(fam, p, q):
    # O(p,q) = O(p) O(q) + O(p+q) - O(q,p);  B(3,2) = beta(2) beta(3) + O(5) - B(2,3)
    if fam == "O":
        return _t(p) * _t(q) + _t(p + q) - _typed_row(O_TABLE_COMBOS[(q, p)])
    return mp.catalan * mp.pi ** 3 / 32 + _t(5) - _typed_row(B23_TERMS)


# the reversed entries of the once-typed rows, and B(3,2)
REFLECTED = [("O", p + 1, p) for p in range(2, 7)] + [("B", 3, 2)]


@pytest.mark.parametrize("prec", [30, 50, 200])
@pytest.mark.parametrize("shape", REFLECTED, ids=lambda s: "".join(map(str, s)))
def test_reflected_closed_bound_is_honest(shape, prec):
    found = routes.routes("oddsum", shape, prec)
    closed = found["closed"]()
    assert closed.agrees_with(found["series"]())
    with mp.workdps(prec + 20):
        reference = _reflected_reference(*shape)
        assert abs(closed.value.magnitude - reference) <= closed.error_bound.magnitude


@pytest.mark.parametrize("quantity, params, message", [
    ("oddsum", ("X", 2, 3), "odd-sum family must be"),
    ("integral", ("Z", 3), "integral kind must be"),
    ("constants", ("foo", 0), "constant must be"),
])
def test_routes_reject_an_unknown_name(quantity, params, message):
    # argparse's choices hide these from the CLI; library callers see them
    with pytest.raises(ValueError, match=message):
        routes.routes(quantity, params, 30)


@pytest.mark.parametrize("call", [
    lambda: run(Request("integral", ("I", "4"))),
    lambda: run(Request("oddsum", "O23")),
    lambda: routes.fid_for("oddsum", ("O", "2", "3")),
    lambda: FormulaId(Formula.I_CLOSED, ("4",)),
], ids=["integral", "oddsum", "fid_for", "FormulaId"])
def test_a_string_parameter_is_a_value_error(call):
    # argparse always passes ints; a library caller passing a string where an
    # integer belongs gets a ValueError (main's exit 2), or no closed form
    try:
        assert call() is None
    except ValueError:
        pass


@pytest.mark.parametrize("name", ("pi", "log2", "psi3_quarter"))
def test_routes_refuse_an_argument_to_a_constant_that_takes_none(name):
    # the CLI refuses it before routes; a library caller must not get the
    # constant for an argument it ignored
    assert name not in routes.ARGUMENT_CONSTANTS
    with pytest.raises(ValueError, match=f"constants {name} takes no argument"):
        routes.routes("constants", (name, 7), 30)
    assert set(routes.routes("constants", (name, 0), 30)) == {"closed"}


def _t(m):
    return (1 - mpf(2) ** -m) * mp.zeta(m)


def _i_quad(n):
    # I(n) = int_0^(pi/2) t^n cot t dt, the z = sin t form of the arcsine integral
    return mp.quad(lambda t: t ** n * mp.cot(t), [0, mp.pi / 2])


def _j_series(n):
    # z^n cot(pi z) = z^(n-1)/pi (1 - 2 sum_k zeta(2k) z^(2k)), integrated to 1/2
    total, k = mpf(1) / (n * 2 ** n), 1
    while True:
        term = 2 * mp.zeta(2 * k) / ((n + 2 * k) * mpf(2) ** (n + 2 * k))
        total -= term
        if term < mpf(10) ** -(mp.dps + 5):
            return total / mp.pi
        k += 1


# (quantity, params, route, reference, digits): every route that scales a
# result by a rational or by a power of pi
SCALED_ROUTES = (
    [("bigT", (3,), "closed", lambda: 2 * _t(3), d) for d in (50, 200)]
    + [("bigT", (2, 1, 1), "closed", lambda: 2 * _t(4), d) for d in (50, 200)]
    + [
        ("integral", ("J", n), "closed", lambda n=n: _j_series(n), d)
        for n in range(1, 7)
        for d in (50, 200)
    ]
    + [
        ("integral", ("K", n), "closed",
         lambda n=n: mp.factorial(n) * (2 ** (n + 1) - 1) * mp.zeta(n + 1) / 4 ** n, d)
        for n in range(1, 7)
        for d in (50, 200)
    ]
    + [
        ("mu", (2, 1, 1), "quadrature", lambda: 15 * mp.zeta(4) / 64, 50),
        ("tvalue", (2, 2, 1), "quadrature",
         lambda: _t(5) / 8 - 3 * _t(2) * _t(3) / 14 + _t(4) * mp.log(2) / 4, 50),
        ("tvalue", (2, 2, 2, 2, 1), "quadrature", lambda: _i_quad(8) / mp.factorial(8), 50),
        ("tvalue", (2, 2, 2, 2, 1), "symbolic", lambda: _i_quad(8) / mp.factorial(8), 50),
    ]
)


@pytest.mark.parametrize(
    "quantity, params, route, reference, digits",
    SCALED_ROUTES,
    ids=[f"{q}{p}-{r}-{d}" for q, p, r, _, d in SCALED_ROUTES],
)
def test_scaled_routes_hold_the_reference(quantity, params, route, reference, digits):
    r = routes.routes(quantity, params, digits)[route]()
    with mp.workdps(digits + 30):
        assert abs(r.value.magnitude - reference()) <= r.error_bound.magnitude


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def test_verify_conjectures_suite(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "conjectures",
        "--prec",
        "30",
        "--cutoff",
        "2000",
        "--report",
        str(report_path),
    )
    assert code == 0
    assert "c01-t2s1-1" in out
    payload = json.loads(report_path.read_text())
    assert payload["suite"] == "conjectures"
    assert payload["summary"]["failed"] == 0
    assert all(c["conjectural"] for c in payload["checks"])


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_unwritable_report_exits_2(capsys, tmp_path, where):
    # a path under a missing directory, or a directory: an invalid request,
    # not a failed verification
    path = tmp_path / where
    code, _, err = run_cli(capsys, "verify", "--suite", "conjectures", "--prec", "16",
                           "--report", str(path))
    assert code == 2
    reason = "No such file or directory" if where != "." else "Is a directory"
    assert err == f"invalid request: cannot write report {path}: {reason}\n"


def test_verify_blocking_failure_exits_1(capsys, monkeypatch):
    # a wrong input to row 27 (twice the H_{2n}^(2)/n^3 sum) must fail the
    # row, and the suite must say so and gate the exit status
    nested_values = series.nested_values

    def doubled_valean(shapes, prec):
        return [scaled(r, 2) if shape == ("valean", "H2n2_over_n3") else r
                for shape, r in zip(shapes, nested_values(shapes, prec))]

    monkeypatch.setattr(series, "nested_values", doubled_valean)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "paper", "--prec", "30", "--cutoff", "2000"
    )
    assert code == 1
    assert "27-valean-H2n2" in out
    assert "FAIL" in out


def test_verify_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "conjectures", "--json", "--prec", "30", "--cutoff", "2000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["precision_digits"] == 30
    assert payload["summary"]["total"] == 5


def test_cutoff_has_one_lower_limit(capsys):
    # the CLI's requests and verify share one check: 10 and up
    code, _, _ = run_cli(capsys, "zeta", "3", "2", "--cutoff", "50", "--method", "closed")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "paper", "--json", "--prec", "20", "--cutoff", "50"
    )
    assert code == 0
    assert json.loads(out)["cutoff"] == 50
    for argv in (("zeta", "3", "2"), ("verify", "--suite", "conjectures")):
        code, _, err = run_cli(capsys, *argv, "--cutoff", "9")
        assert code == 2
        assert "cutoff must be an integer >= 10" in err


# ---------------------------------------------------------------------------
# Request object
# ---------------------------------------------------------------------------


def test_request_validation():
    with pytest.raises(ValueError):
        Request("zeta", (3,), method="bogus")
    with pytest.raises(ValueError):
        Request("nope", (3,))


def test_run_surfaces_route_validation():
    with pytest.raises(ValueError):
        run(Request("oddsum", ("O", 0, 3), method="all"))
