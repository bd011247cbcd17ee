"""Node columns of the quadrature: each node function runs once per node and
working precision, and every kernel equals its node-by-node evaluation
(``oracles.DIRECT_KERNELS``) bit for bit, whatever was evaluated before it.
"""

import dataclasses
from collections import Counter
from functools import cache

import pytest
from mpmath import mp

from multizeta import quadrature, wseries
from multizeta.hp import GUARD_DIGITS
from multizeta.quadrature import (
    Integrand,
    QuadratureNonConvergence,
    acos_column,
    acos_stable,
    integrate01,
)
from multizeta.wseries import arcsin_power_series, wallis_identity_check

from oracles import DIRECT_KERNELS

KERNELS = (
    quadrature.I_quad,
    quadrature.j_cot,
    quadrature.k_arctanh,
    quadrature.t_kernel_quad,
    quadrature.logpolylog_kernel,
    quadrature.kernel_pair,
    quadrature.logsine_check,
)

WALLIS_F = arcsin_power_series(2, 80)  # verify row 30's series


def cold():
    """Forget every node table, column and memoised kernel result."""
    quadrature._NODE_CACHE.clear()
    for fn in KERNELS:
        fn.cache_clear()


@pytest.fixture(autouse=True)
def cold_around():
    cold()
    yield
    cold()


def wallis_rhs(prec):
    return wallis_identity_check(WALLIS_F, 1, prec)[1]


def evaluate(name, args, prec):
    if name == "wallis":
        return wallis_rhs(prec)
    return getattr(quadrature, name)(*args, prec)


@cache
def direct(name, args, prec):
    if name == "wallis":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wseries, "acos_column", acos_stable)
            return wallis_rhs(prec)
    return DIRECT_KERNELS[name](*args, prec)


def assert_same(got, want):
    assert type(got) is type(want)
    assert got == want
    assert got.value.magnitude == want.value.magnitude
    assert got.error_bound.magnitude == want.error_bound.magnitude
    assert got.levels_used == want.levels_used


def node_keys(prec):
    """Counter over every node of every table held at prec's working digits."""
    tables = quadrature._NODE_CACHE[prec + GUARD_DIGITS].values()
    return Counter((id(x), id(xc)) for table in tables for x, xc, _ in table.nodes)


def count_calls(monkeypatch, column):
    calls = Counter()
    fn = column.fn

    def counted(x, xc):
        calls[id(x), id(xc)] += 1
        return fn(x, xc)

    monkeypatch.setattr(column, "fn", counted)
    return calls


# ---------------------------------------------------------------------------
# bit identity with the node-by-node kernels
# ---------------------------------------------------------------------------

# pairs of families that read a common column, the column named last
SHARED = [
    (("I_quad", (3,)), ("t_kernel_quad", (1,))),  # arcsin
    (("t_kernel_quad", (1,)), ("wallis", ())),  # arccos
    (("logpolylog_kernel", (2, 2, 1, -1)), ("kernel_pair", (2, 2, -1))),  # log
    (("kernel_pair", (2, 3, -1)), ("kernel_pair", (2, 3, 1))),  # Li_2 bracket
    (("k_arctanh", (2,)), ("I_quad", (2,))),  # atanh, arcsin
    (("j_cot", (2,)), ("logsine_check", (2,))),  # cot, log sin
]


@pytest.mark.parametrize("prec", (30, 50, 200))
@pytest.mark.parametrize("pair", SHARED, ids=lambda pair: "-".join(name for name, _ in pair))
def test_kernels_equal_their_node_by_node_evaluation(pair, prec):
    for order in (pair, pair[::-1]):
        cold()
        for name, args in order:  # the first fills the columns, the second reads them
            assert_same(evaluate(name, args, prec), direct(name, args, prec))
        for fn in KERNELS:
            fn.cache_clear()
        for name, args in order:  # every column warm
            assert_same(evaluate(name, args, prec), direct(name, args, prec))


def test_direct_oracles_cover_every_kernel():
    assert set(DIRECT_KERNELS) == {fn.__name__ for fn in KERNELS}
    covered = {name for pair in SHARED for name, _ in pair}
    assert covered == set(DIRECT_KERNELS) | {"wallis"}


# ---------------------------------------------------------------------------
# one evaluation per node, per working precision
# ---------------------------------------------------------------------------


def test_the_arcsin_column_runs_once_per_node(monkeypatch):
    calls = count_calls(monkeypatch, quadrature._asin_column)
    for N in range(2, 7):
        quadrature.I_quad(N, 50)
    assert calls == node_keys(50)
    assert set(calls.values()) == {1}


def test_the_log_and_bracket_columns_run_once_per_node(monkeypatch):
    logs = count_calls(monkeypatch, quadrature._log_column)
    brackets = count_calls(monkeypatch, quadrature._bracket_column(2))
    for q in (2, 3):
        for sign_den in (1, -1):
            quadrature.kernel_pair(2, q, sign_den, 30)
    nodes = node_keys(30)
    assert logs == nodes
    assert brackets == nodes
    assert set(nodes.values()) == {1}


def test_the_wallis_check_reads_the_t_kernel_arccos(monkeypatch):
    calls = count_calls(monkeypatch, acos_column)
    quadrature.t_kernel_quad(1, 50)
    wallis_rhs(50)
    assert calls == node_keys(50)
    assert set(calls.values()) == {1}


# ---------------------------------------------------------------------------
# reads that are not at the node being evaluated
# ---------------------------------------------------------------------------


def columns_held():
    return [
        column
        for tables in quadrature._NODE_CACHE.values()
        for table in tables.values()
        for column in table.columns
    ]


def test_a_read_outside_integrate01_computes_directly():
    quadrature.I_quad(2, 30)
    wd = 30 + GUARD_DIGITS
    table = quadrature._NODE_CACHE[wd][0]
    held = dict(table.columns)
    x, xc, _ = table.nodes[3]
    with mp.workdps(wd):
        assert acos_column(x, xc) == acos_stable(x, xc)
    assert table.columns == held
    assert acos_column not in columns_held()


def test_a_read_at_another_x_or_precision_computes_directly():
    seen = []

    def ev(x, xc):
        copy = mp.make_mpf(x._mpf_)  # the node's value, another object
        seen.append(acos_column(copy, xc) == acos_stable(copy, xc))
        with mp.workdps(mp.dps + 7):
            seen.append(acos_column(x, xc) == acos_stable(x, xc))
        return x

    integrate01(ev, 20)
    assert seen and all(seen)
    assert acos_column not in columns_held()


def test_no_record_or_partial_column_survives_a_failure(monkeypatch):
    monkeypatch.setattr(quadrature, "LEVEL_CAP", 1)
    with pytest.raises(QuadratureNonConvergence):
        integrate01(lambda x, xc: acos_column(x, xc) / x ** 2, 30)
    assert quadrature._AT is None
    table = quadrature._NODE_CACHE[30 + GUARD_DIGITS][1]
    x, xc, _ = table.nodes[-1]  # the last node evaluated
    with mp.workdps(30 + GUARD_DIGITS):
        assert acos_column(x, xc) == acos_stable(x, xc)

    # a column whose function fails part-way through its table is not kept
    n = [0]

    def failing(x, xc):
        n[0] += 1
        if n[0] == 5:
            raise ArithmeticError("fifth node")
        return acos_stable(x, xc)

    column = quadrature._Column(failing)
    with pytest.raises(ArithmeticError):
        integrate01(lambda x, xc: column(x, xc), 30)
    assert quadrature._AT is None
    assert column not in columns_held()
    monkeypatch.undo()
    column.fn = acos_stable
    assert_same(integrate01(lambda x, xc: column(x, xc), 30), integrate01(acos_stable, 30))


def test_a_column_rebuilds_zeros_and_infinities_exactly():
    values = (mp.zero, mp.inf, -mp.inf, mp.mpf(-3) / 7)

    def pick(x, xc):
        return values[int(x * 1000) % len(values)]

    column = quadrature._Column(pick)
    seen = []

    def ev(x, xc):
        got, want = column(x, xc), pick(x, xc)
        seen.append(got._mpf_ == want._mpf_)
        return x

    integrate01(ev, 20)
    assert seen and all(seen)
    assert column in columns_held()


# ---------------------------------------------------------------------------
# eviction by working precision
# ---------------------------------------------------------------------------


def test_tables_are_kept_for_the_four_latest_precisions():
    first = quadrature.I_quad(2, 20)
    for prec in (21, 22, 23, 24, 25):
        quadrature.k_arctanh(2, prec)
    assert list(quadrature._NODE_CACHE) == [p + GUARD_DIGITS for p in (22, 23, 24, 25)]
    quadrature.I_quad(2, 22)  # a use keeps a precision
    quadrature.I_quad(2, 26)
    assert list(quadrature._NODE_CACHE) == [p + GUARD_DIGITS for p in (24, 25, 22, 26)]
    quadrature.I_quad.cache_clear()
    assert_same(quadrature.I_quad(2, 20), first)
    assert len(quadrature._NODE_CACHE) == 4


# ---------------------------------------------------------------------------
# the evaluator contract: (x, xc) -> value, wrappable
# ---------------------------------------------------------------------------


def wrapping(integrate):
    """integrate01 with each evaluator wrapped the way bench/tracer.py does."""

    def wrapper(f, *args, **kwargs):
        integrand = f if isinstance(f, Integrand) else Integrand(f)
        ev = integrand.evaluator

        def timed(x, xc):
            return ev(x, xc)

        return integrate(dataclasses.replace(integrand, evaluator=timed), *args, **kwargs)

    return wrapper


# a kernel, a second one reading the same column, and that column
WRAPPED = [
    (("I_quad", (3,)), ("I_quad", (4,)), "_asin_column"),
    (("t_kernel_quad", (1,)), ("wallis", ()), "acos_column"),
    (("kernel_pair", (2, 3, -1)), ("kernel_pair", (2, 2, 1)), "_log_column"),
]


@pytest.mark.parametrize("first, second, column", WRAPPED, ids=[c for *_, c in WRAPPED])
def test_a_wrapped_evaluator_gives_the_same_result(monkeypatch, first, second, column):
    plain = evaluate(*first, 30)
    cold()
    wrapped_integrate = wrapping(quadrature.integrate01)
    for module in (quadrature, wseries):  # rebound everywhere, as the tracer does
        monkeypatch.setattr(module, "integrate01", wrapped_integrate)
    calls = count_calls(monkeypatch, getattr(quadrature, column))
    wrapped = evaluate(*first, 30)
    assert_same(wrapped, plain)
    assert_same(wrapped, direct(*first, 30))
    evaluate(*second, 30)  # read through the wrapper, the column still serves
    assert calls == node_keys(30)
    assert set(calls.values()) == {1}
