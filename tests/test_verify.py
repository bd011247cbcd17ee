"""Verification-suite plumbing: ordering, determinism, row semantics.

The heavyweight numerical content of each row is tested where it lives
(closed/series/quadrature test files); here the suites run at modest
precision to exercise the registry itself.  The cutoff is accepted, checked
and echoed, and has no effect.
"""

import json
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from multizeta import closed, hp, quadrature, routes, series, symbolic, verify, wseries
from multizeta.cli import Request, run
from multizeta.hp import HPReal
from multizeta.symbolic import Formula, FormulaId, build, eval_symbolic
from multizeta.verify import SUITES, Check, VerifyReport, run_suite
from oracles import _triple_nonstrict_sum, fmt_nstr

CUTOFF = 3000


@pytest.fixture(scope="module")
def full_report():
    return run_suite("all", prec=40, cutoff=CUTOFF)


def test_all_rows_pass(full_report):
    failed = [c.check_id for c in full_report.checks if not c.passed]
    assert failed == []
    assert full_report.all_passed()
    assert full_report.all_passed(strict_conjectures=True)


@pytest.mark.parametrize("prec", [16, 20, 25])
def test_all_rows_pass_at_low_precision(prec):
    # a match row's tolerance is its two sides' bounds, so the suite holds at
    # the lowest precisions too, where a fixed 1e-30 or 1e-40 could not
    assert run_suite("all", prec).all_passed()


def test_ordering_is_by_check_id(full_report):
    ids = [c.check_id for c in full_report.checks]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_suite_partition(full_report):
    paper = run_suite("paper", prec=40, cutoff=CUTOFF)
    conj = run_suite("conjectures", prec=40, cutoff=CUTOFF)
    assert {c.check_id for c in paper.checks} | {c.check_id for c in conj.checks} == {
        c.check_id for c in full_report.checks
    }
    assert all(c.conjectural for c in conj.checks)
    assert not any(c.conjectural for c in paper.checks)


def test_adjudication_rows_are_separations(full_report):
    by_id = {c.check_id: c for c in full_report.checks}
    for cid in ("06-t3-tail-sign", "13-duality2-single-variant", "15-b33-printed",
                "16-t221-coeff", "19-o43-variant"):
        row = by_id[cid]
        assert row.mode == "separate"
        assert row.passed
        # a separation that passes must actually be separated
        with mp.workdps(40):
            assert mpf(row.difference) >= mpf(row.tolerance)
    assert by_id["14-b33-formula"].mode == "match"


def test_json_determinism():
    a = run_suite("paper", prec=30, cutoff=1000)
    b = run_suite("paper", prec=30, cutoff=1000)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_cutoff_is_echoed_and_has_no_effect():
    low = run_suite("paper", prec=30, cutoff=100)
    high = run_suite("paper", prec=30, cutoff=10 ** 9)
    assert (low.cutoff, high.cutoff) == (100, 10 ** 9)
    assert low.checks == high.checks


def test_report_summary_counts(full_report):
    d = full_report.to_dict()
    assert d["summary"]["total"] == len(full_report.checks)
    assert d["summary"]["passed"] == sum(1 for c in full_report.checks if c.passed)
    assert d["summary"]["failed"] == 0
    assert d["suite"] == "all"
    assert d["precision_digits"] == 40
    assert d["cutoff"] == CUTOFF


def test_render_table_shape(full_report):
    table = full_report.render_table()
    assert "verification suite: all" in table
    assert table.count("PASS") == full_report.passed
    assert "FAIL" not in table.replace("fail*", "")
    for c in full_report.checks:
        assert c.check_id in table


def test_validation():
    with pytest.raises(ValueError):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("paper", cutoff=9)
    with pytest.raises(ValueError):
        run_suite("paper", prec=1)


def test_failed_counts_reflect_modes():
    # hand-built report: a blocking failure and a conjectural one
    rows = (
        Check("a", "x", "1", "2", "1.0", "0.5", False, False),
        Check("b", "y", "1", "1", "0.0", "0.5", True, False),
        Check("c", "z", "1", "2", "1.0", "0.5", False, True),
    )
    rep = VerifyReport("paper", 30, 1000, rows)
    assert rep.failed_blocking == 1
    assert rep.failed_conjectural == 1
    assert not rep.all_passed()
    rep2 = VerifyReport("paper", 30, 1000, rows[1:])
    assert rep2.all_passed()
    assert not rep2.all_passed(strict_conjectures=True)


def test_triple_sum_against_brute_force():
    cutoff = 60
    val, bound = _triple_nonstrict_sum(cutoff, 40)
    brute = Fraction(0)
    for m in range(2, cutoff + 1):
        for n in range(1, m):
            for k in range(1, n + 1):
                brute += Fraction(1, m ** 3 * n * k)
    with mp.workdps(60):
        b = mpf(brute.numerator) / brute.denominator
        # scaled-integer partial sum matches exact rational partial sum
        assert abs(val - b) < mpf(10) ** -45
        assert bound < mpf("0.01")


def test_triple_sum_bound_honest():
    # the tail bound at cutoff C must cover the value change to 4C
    v1, b1 = _triple_nonstrict_sum(2000, 40)
    v2, _ = _triple_nonstrict_sum(8000, 40)
    with mp.workdps(60):
        assert abs(v2 - v1) <= b1


def test_suites_constant():
    assert SUITES == ("paper", "conjectures", "all")


# ---------------------------------------------------------------------------
# the rows are data over the CLI's route registry
# ---------------------------------------------------------------------------

ROW_TABLES = (verify._PAPER_ROWS, verify._CONJECTURE_ROWS)


def _route_refs(side):
    """The (quantity, params, method) references a side names."""
    if isinstance(side, tuple) and isinstance(side[0], str):
        yield side
    elif isinstance(side, tuple):  # a combination of (coefficient, factors)
        for _, factors in side:
            for factor in factors:
                yield from _route_refs(factor)


def all_route_refs() -> set:
    found = set()
    for rows in ROW_TABLES:
        for _, _, left, right, *rest in rows:
            sides = [left, right]
            if rest and isinstance(rest[0], tuple):  # (k, side a, side b)
                sides += rest[0][1:]
            for side in sides:
                found.update(_route_refs(side))
    return found


def test_row_ids_are_unique():
    ids = [cid for rows in ROW_TABLES for cid, *_ in rows] + ["30-wallis-arcsin"]
    assert len(ids) == len(set(ids)) == 35


def test_every_route_reference_resolves():
    refs = all_route_refs()
    assert len(refs) > 30  # guard against a vacuous walk
    for quantity, params, method in refs:
        assert method in routes.routes(quantity, params, 30), (quantity, params, method)


def test_the_cli_serves_every_route_verify_certifies():
    served = 0
    for quantity, params, method in sorted(all_route_refs(), key=repr):
        try:
            req = Request(quantity, params, method=method, prec=30)
        except ValueError:
            assert quantity in ("valean", "arcsin_kernel")  # series routes verify alone reaches
            continue
        payload = run(req)
        assert (payload["quantity"], payload["method"]) == (quantity, method)
        served += 1
    assert served > 30


def test_a_side_shared_by_rows_is_evaluated_once(monkeypatch):
    # rows 11, 18 and 19 all use O(4,3)'s series route; every nested series
    # side is evaluated in one batch
    calls = []
    nested_values = series.nested_values

    def counted(shapes, prec=50):
        calls.append(list(shapes))
        return nested_values(shapes, prec)

    monkeypatch.setattr(series, "nested_values", counted)
    run_suite("paper", 30)
    (shapes,) = calls
    assert shapes.count(("oddsum", ("O", 4, 3))) == 1
    assert len(shapes) == len(set(shapes)) > 10


@pytest.mark.parametrize("prec", [16, 30, 50, 200])
def test_the_series_batch_equals_each_series_route(prec):
    # verify evaluates every series side of its rows in one batch; each
    # result is bit for bit the route's own
    refs = {ref for ref in all_route_refs() if ref[2] == "series"}
    batch = verify._series_batch(verify._PAPER_ROWS + verify._CONJECTURE_ROWS, prec)
    assert set(batch) == refs and len(refs) > 15
    for (quantity, params, method), got in batch.items():
        want = routes.routes(quantity, params, prec)[method]()
        assert got.rigorous and want.rigorous
        assert got.value.magnitude == want.value.magnitude, (quantity, params)
        assert got.error_bound.magnitude == want.error_bound.magnitude, (quantity, params)


def test_the_suite_integrates_nothing(monkeypatch):
    # every side is a closed form, a series or row 30's exact sums: no
    # quadrature, whatever the kernels' memos hold
    calls = []
    integrate01 = quadrature.integrate01

    def counted(f, prec=50):
        calls.append(f)
        return integrate01(f, prec)

    for name in quadrature.__all__:
        getattr(getattr(quadrature, name), "cache_clear", lambda: None)()
    holders = [module for name, module in sorted(sys.modules.items())
               if name.startswith("multizeta")
               and getattr(module, "integrate01", None) is integrate01]
    assert quadrature in holders
    for module in holders:  # rebound everywhere, as the tracer does
        monkeypatch.setattr(module, "integrate01", counted)
    assert run_suite("all", 30).all_passed()
    assert calls == []
    quadrature.I_quad(3, 30)  # guard against a vacuous pass: a kernel is counted
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# row 30: both sides evaluate one polynomial, so it checks its digits
# ---------------------------------------------------------------------------


def wallis_row(report):
    (row,) = [c for c in report.checks if c.check_id == "30-wallis-arcsin"]
    return row


def test_wallis_row_tolerance_is_rounding_only():
    row = wallis_row(run_suite("paper", 50))
    assert row.passed
    assert mpf(row.tolerance) <= mpf("1e-55")


def test_wallis_row_fails_a_perturbed_left_side(monkeypatch):
    check = verify.wallis_identity_check

    def perturbed(f, alpha, prec):
        lhs, rhs = check(f, alpha, prec)
        with mp.workdps(prec + 10):
            shifted = HPReal(lhs.value.magnitude + mpf("1e-40"), prec)
        return replace(lhs, value=shifted), rhs

    monkeypatch.setattr(verify, "wallis_identity_check", perturbed)
    row = wallis_row(run_suite("paper", 50))
    assert not row.passed


def test_wallis_row_fails_a_wrong_wallis_factor(monkeypatch):
    # the right side uses no Wallis factor: one wrong W_n moves the left side
    # alone, so row 30 fails and no other row does
    wallis_fraction = wseries.wallis_fraction

    def wrong_at_10(n):
        return wallis_fraction(n) * (1 + Fraction(1, 10 ** 12) * (n == 10))

    monkeypatch.setattr(wseries, "wallis_fraction", wrong_at_10)
    report = run_suite("all", 50)
    assert [c.check_id for c in report.checks if not c.passed] == ["30-wallis-arcsin"]


def test_formatting_in_another_thread_changes_no_result():
    # mpmath's precision is process-global: verify's formatting rounds at
    # an explicit precision and never sets it, so it cannot move while
    # another thread evaluates
    expr = build(FormulaId(Formula.T322, (3,)))
    expected = eval_symbolic(expr, 50)
    stop = threading.Event()

    def format_until_stopped():
        while not stop.is_set():
            verify._fmt(mpf(1) / 3)

    worker = threading.Thread(target=format_until_stopped)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    runs = differing = 0
    try:
        worker.start()
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            runs += 1
            differing += eval_symbolic(expr, 50) != expected
    finally:
        stop.set()
        worker.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert runs > 0 and differing == 0, f"{differing} of {runs} results differ"


# every memo between a cold request and the work it does
MEMOS = (hp.zeta_single, hp.eta, hp.beta_fn, hp.t_single, hp.psi3_quarter, hp.pi_const,
         hp.pi_power, hp.log2_const, closed.evaluate, symbolic.build, symbolic._build_i)


def test_the_suite_does_its_work_once(monkeypatch):
    # a cold run_suite("all", 50) integrates 190 chains, runs the CVZ kernel
    # 11 times and builds each closed form and each I(N) once: counts, so
    # that extra work shows whatever the box's speed
    counts, built = Counter(), Counter()
    for module, name in ((series, "_integrate"), (hp, "_cvz")):
        def counted(*args, fn=getattr(module, name), name=name):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    for name, (takes, rule, builder) in list(symbolic._FORMS.items()):
        def recorded(*params, name=name, builder=builder):
            built[name, params] += 1
            return builder(*params)
        monkeypatch.setitem(symbolic._FORMS, name, (takes, rule, recorded))
    for memo in MEMOS:
        memo.cache_clear()
    try:
        assert run_suite("all", 50).all_passed()
        i_info = symbolic._build_i.cache_info()
    finally:
        for memo in MEMOS:  # drop what the recorders built
            memo.cache_clear()
    assert counts == {"_integrate": 190, "_cvz": 11}
    assert len(built) == 19 and set(built.values()) == {1}
    assert i_info.misses == i_info.currsize == 9  # 9 distinct I(N), each built once


MPFS = st.builds(  # exact: up to 300 bits, more than the 103 that _fmt rounds to
    lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
    st.integers(min_value=-(1 << 300), max_value=1 << 300),
    st.integers(min_value=-1200, max_value=200),
)


NEAR_TIES = st.builds(  # within a few units of the 31st digit of a 20-digit tie
    lambda digits, tail, e: mp.make_mpf(mpf(f"{digits}{tail}e{e}", prec=400)._mpf_),
    st.integers(min_value=10 ** 19, max_value=10 ** 20 - 1),
    st.sampled_from(["5", "49999999999", "500000000001", "4999999999999999", "50000000000000001"]),
    st.integers(min_value=-60, max_value=60),
)


@given(x=st.one_of(MPFS, NEAR_TIES, NEAR_TIES.map(lambda x: -x)))
@example(x=mpf(0))
@example(x=mpf(1) / 3)
@example(x=mpf("-9.99999999999999999995"))
@example(x=mpf("1e-400"))
@settings(max_examples=200, deadline=None)
def test_a_number_is_formatted_as_mp_nstr_formatted_it(x):
    assert verify._fmt(x) == fmt_nstr(x)
