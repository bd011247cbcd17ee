"""Node columns of the quadrature: each node function runs once per node and
working precision, and every kernel equals its node-by-node evaluation
(``oracles.DIRECT_KERNELS``) bit for bit, whatever was evaluated before it.
The integer level sums hold the rounding ``quadrature._level_sum`` and
``scaled_quotient`` state, and the tables held stay within their byte budget.
"""

import dataclasses
import importlib
import pkgutil
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

import multizeta
from multizeta import quadrature
from multizeta.hp import GUARD_DIGITS
from multizeta.quadrature import (
    Integrand,
    QuadratureNonConvergence,
    _arcsine_column,
    _arcsines,
    _pair,
    integrate01,
    scaled_quotient,
)
from multizeta.verify import run_suite

from oracles import DIRECT_KERNELS, MPF_KERNELS, node_copy

KERNELS = (
    quadrature.I_quad,
    quadrature.j_cot,
    quadrature.k_arctanh,
    quadrature.t_kernel_quad,
    quadrature.kernel_pair,
    quadrature.logsine_check,
)


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


def evaluate(name, args, prec):
    return getattr(quadrature, name)(*args, prec)


def computed(column, x, xc):
    """The column's pairs at (x, xc), computed afresh."""
    return [_pair(v) for v in column.fn(node_copy(x), xc)]


@cache
def direct(name, args, prec):
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
    """Counter over the nodes where the column's node function ran."""
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
    (("kernel_pair", (2, 2, -1)), ("kernel_pair", (3, 2, 1))),  # log
    (("kernel_pair", (2, 3, -1)), ("kernel_pair", (2, 3, 1))),  # Li_2 bracket
    (("k_arctanh", (2,)), ("I_quad", (2,))),  # atanh, arcsin
    (("j_cot", (2,)), ("logsine_check", (2,))),  # cot, log sin
]


def shared_id(pair):
    """The two families' names; a family paired with itself at two p, which
    read two bracket columns, adds each p."""
    (a, args_a), (b, args_b) = pair
    if a == b and args_a[0] != args_b[0]:
        return f"{a}{args_a[0]}-{b}{args_b[0]}"
    return f"{a}-{b}"


@pytest.mark.parametrize("prec", (30, 50, 200))
@pytest.mark.parametrize("pair", SHARED, ids=shared_id)
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
    assert covered == set(DIRECT_KERNELS)


# ---------------------------------------------------------------------------
# each fill stores its node function, at every node
# ---------------------------------------------------------------------------

# every value a column holds: its column and slot
COLUMNS = {
    "log": (quadrature._log_column, 0),
    "arcsin": (_arcsine_column, 0),
    "arccos": (_arcsine_column, 1),
    "atanh": (quadrature._atanh_column, 0),
    "cot": (quadrature._cot_column, 0),
    "log-sine": (quadrature._log_sin_column, 0),
    **{f"bracket-{p}": (quadrature._bracket_column(p), 0) for p in range(2, 6)},
}


def test_the_columns_listed_are_every_column():
    columns = {column for column, _ in COLUMNS.values()}
    in_module = {v for v in vars(quadrature).values() if isinstance(v, quadrature._Column)}
    brackets = {quadrature._bracket_column(p) for p in range(2, 6)}
    assert columns == in_module | brackets
    for column in columns:
        slots = {slot for c, slot in COLUMNS.values() if c is column}
        with mp.workdps(30):
            assert slots == set(range(len(column.fn(mpf(1) / 3, mpf(2) / 3))))


def test_no_column_is_exported():
    # bench/tracer.py wraps each callable of a layer's __all__ and reads its
    # __name__, which a column instance lacks
    names = [info.name for info in pkgutil.iter_modules(multizeta.__path__)]
    for layer in [multizeta] + [importlib.import_module(f"multizeta.{n}") for n in names]:
        for name in layer.__all__:
            assert not isinstance(getattr(layer, name), quadrature._Column), (layer, name)


def edge_table(wd):
    """A table of the branch edges: the lone x = xc = 1/2, then node pairs
    at x = 9/10 (as the fill rounds it) and an ulp either side of it and of
    1/2, each pair listed as _nodes lists them, a node then its mirror, and
    each also with the mirror first."""
    with mp.workdps(wd):
        ulp = mpf(2) ** -mp.prec
        half, nine = mpf(1) / 2, mpf(9) / 10
        nodes = [(half, +half, (1, 0))]
        for x in (nine - ulp, nine, nine + ulp, half + ulp, half + 2 * ulp):
            xc = 1 - x
            nodes += [(x, xc, (1, 0)), (xc, x, (1, 0)), (xc, x, (1, 0)), (x, xc, (1, 0))]
        return quadrature._NodeTable(nodes, mp.prec)


@pytest.mark.parametrize("prec", (16, 30, 50, 200))
@pytest.mark.parametrize("name", COLUMNS)
def test_a_fill_stores_its_node_function_at_every_node(name, prec):
    # a mirrored node function's values at the mirror, kept from the
    # computation at the node before, equal its values computed there
    column, slot = COLUMNS[name]
    wd = prec + GUARD_DIGITS
    tables = [quadrature._cached_nodes(level, wd) for level in range(4)] + [edge_table(wd)]
    with mp.workdps(wd):
        for table in tables:
            assert column not in table.columns
            column._fill(table)
            mans, exps = table.columns[column][slot]
            assert len(mans) == len(exps) == len(table.nodes)
            for (x, xc, _), m, e in zip(table.nodes, mans, exps):
                assert (m, e) == computed(column, x, xc)[slot]


# ---------------------------------------------------------------------------
# one evaluation per node, per working precision
# ---------------------------------------------------------------------------


def test_the_arcsin_column_runs_once_per_node(monkeypatch):
    calls = count_calls(monkeypatch, _arcsine_column)
    for N in range(2, 7):
        quadrature.I_quad(N, 50)
    quadrature.t_kernel_quad(1, 50)
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


def count_transcendentals(monkeypatch, names):
    """Counter of the calls to these mpmath functions, not counting those
    one of them makes (log1p calls log)."""
    calls, depth = Counter(), [0]
    for name in names:
        real = getattr(mp, name)

        def counted(*args, real=real, name=name):
            calls[name] += not depth[0]
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(mp, name, counted)
    return calls


def per_node(table):
    return len(table.nodes)


def per_pair(table):
    """The node pairs, and level 0's lone node x = xc = 1/2."""
    return (len(table.nodes) + 1) // 2


def above_half(table):
    return sum(x > 0.5 for x, _, _ in table.nodes)


# the mpmath functions each column's fill calls, and how many times over a
# table: one arcsine per node for arcsin and arccos, one tan per node pair,
# one cos_sin per node pair for log-sine, atanh or (where xc < 2^-10) two
# logs per node, and for a bracket the log column's one log per node and,
# above 1/2, chi's log(-log x)
TRANSCENDENTALS = {
    "log": (("log", "log1p"), per_node),
    "arcsin": (("asin", "acos"), per_node),
    "atanh": (("atanh", "log"), lambda t: per_node(t) + sum(xc < 2 ** -10 for _, xc, _ in t.nodes)),
    "cot": (("tan", "cot"), per_pair),
    "log-sine": (("cos_sin", "cos", "sin"), per_pair),
    **{f"bracket-{p}": (("log", "log1p"), lambda t: per_node(t) + above_half(t)) for p in range(2, 6)},
}


def test_every_column_has_its_transcendental_count():
    assert {COLUMNS[name][0] for name in TRANSCENDENTALS} == {c for c, _ in COLUMNS.values()}


def warm_chi_coeffs(wd):
    """The brackets' coefficients, computed once per process, computed now."""
    for p in range(2, 6):
        quadrature._chi_coeffs(p, wd)


@pytest.mark.parametrize("prec", (30, 50))
@pytest.mark.parametrize("name", TRANSCENDENTALS)
def test_a_fill_costs_its_transcendentals_once(monkeypatch, name, prec):
    column, _ = COLUMNS[name]
    names, count = TRANSCENDENTALS[name]
    wd = prec + GUARD_DIGITS
    tables = [quadrature._cached_nodes(level, wd) for level in range(4)] + [edge_table(wd)]
    warm_chi_coeffs(wd)
    calls = count_transcendentals(monkeypatch, names)
    with mp.workdps(wd):
        for table in tables:
            column._fill(table)
    assert sum(calls.values()) == sum(map(count, tables))


def test_every_bracket_reads_the_one_log_per_node(monkeypatch):
    wd = 30 + GUARD_DIGITS
    table = quadrature._cached_nodes(2, wd)
    warm_chi_coeffs(wd)
    calls = count_transcendentals(monkeypatch, ("log", "log1p"))
    with mp.workdps(wd):
        for p in range(2, 6):
            quadrature._bracket_column(p)._fill(table)
    assert sum(calls.values()) == per_node(table) + 4 * above_half(table)


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


def arcsines(x, xc):
    return [_pair(v) for v in _arcsines(x, xc)]


def read(column, x, xc):
    """Every slot of the column at (x, xc), read through its accessor."""
    return [column(x, xc, slot) for slot in range(len(column.fn(x, xc)))]


def test_a_read_outside_integrate01_computes_directly():
    quadrature.k_arctanh(2, 30)  # its table, without the arcsine column
    wd = 30 + GUARD_DIGITS
    table = quadrature._NODE_CACHE[wd][0]
    held = dict(table.columns)
    x, xc, _ = table.nodes[3]
    with mp.workdps(wd):
        assert read(_arcsine_column, x, xc) == arcsines(x, xc)
    assert table.columns == held
    assert _arcsine_column not in columns_held()


def test_a_read_at_another_x_or_precision_computes_directly():
    seen = []

    def ev(x, xc):
        other = node_copy(x)  # the node's value, another object
        seen.append(read(_arcsine_column, other, xc) == arcsines(other, xc))
        with mp.workdps(mp.dps + 7):
            seen.append(read(_arcsine_column, x, xc) == arcsines(x, xc))
        return x

    integrate01(ev, 20)
    assert seen and all(seen)
    assert _arcsine_column not in columns_held()


def test_no_record_or_partial_column_survives_a_failure(monkeypatch):
    monkeypatch.setattr(quadrature, "LEVEL_CAP", 1)
    with pytest.raises(QuadratureNonConvergence):
        integrate01(lambda x, xc: mpf(_arcsine_column(x, xc, 1)) / x ** 2, 30)
    assert quadrature._AT is None
    table = quadrature._NODE_CACHE[30 + GUARD_DIGITS][1]
    x, xc, _ = table.nodes[-1]  # the last node evaluated
    with mp.workdps(30 + GUARD_DIGITS):
        assert read(_arcsine_column, x, xc) == arcsines(x, xc)

    # a column whose function fails part-way through its table is not kept
    n = [0]

    def failing(x, xc):
        n[0] += 1
        if n[0] == 5:
            raise ArithmeticError("fifth node")
        return _arcsines(x, xc)

    column = quadrature._Column(failing)
    with pytest.raises(ArithmeticError):
        integrate01(lambda x, xc: column(x, xc, 1), 30)
    assert quadrature._AT is None
    assert column not in columns_held()
    monkeypatch.undo()
    column.fn = _arcsines
    assert_same(integrate01(lambda x, xc: column(x, xc, 1), 30),
                integrate01(lambda x, xc: _arcsines(x, xc)[1], 30))


def test_a_column_serves_zeros_exactly():
    values = (mp.zero, mpf(-3) / 7, mpf(5))

    def pick(x, xc):
        return values[int(x * 1000) % len(values)], mp.zero

    column = quadrature._Column(pick)
    seen = []

    def ev(x, xc):
        seen.append(read(column, x, xc) == [_pair(v) for v in pick(x, xc)])
        return x

    integrate01(ev, 20)
    assert seen and all(seen)
    assert column in columns_held()


@pytest.mark.parametrize("bad", (mp.inf, -mp.inf, mp.nan))
def test_a_non_finite_node_value_raises_and_stores_no_column(bad):
    # columns hold exact finite pairs: no value stands for inf or nan
    column = quadrature._Column(lambda x, xc: (x, bad if x > 0.9 else xc))
    with pytest.raises(ValueError, match="finite"):
        integrate01(lambda x, xc: column(x, xc), 20)
    assert quadrature._AT is None
    assert column not in columns_held()


MIRRORED = ("cot", "log-sine")


@pytest.mark.parametrize("name", MIRRORED)
def test_a_kept_mirror_value_is_served_only_at_its_objects_and_precision(name):
    column, _ = COLUMNS[name]
    wd = 30 + GUARD_DIGITS
    x, xc, _ = quadrature._cached_nodes(1, wd).nodes[2]
    with mp.workdps(wd):
        column.fn(x, xc)  # keeps the values at (xc, x)
        assert column.fn(node_copy(xc), x) == column.fn(node_copy(xc), node_copy(x))
        column.fn(x, xc)
        with mp.workdps(wd + 7):
            assert [_pair(v) for v in column.fn(xc, x)] == computed(column, xc, x)
        column.fn(x, xc)
        assert [_pair(v) for v in column.fn(xc, x)] == computed(column, xc, x)


def test_mirrored_values_hold_for_interleaved_callers():
    # a mirrored node function keeps its last mirror's values in one shared
    # slot; four threads walking the same nodes in node order overwrite it
    # under one another, and each call must still get its own node's values
    wd = 30 + GUARD_DIGITS
    table = quadrature._cached_nodes(2, wd)
    columns = (quadrature._cot_column, quadrature._log_sin_column)
    failures = []

    def walk():
        for _ in range(3):
            for column in columns:
                for (x, xc, _), want in zip(table.nodes, wanted[column]):
                    if [_pair(v) for v in column.fn(x, xc)] != want:
                        failures.append((column, x))

    interval = sys.getswitchinterval()
    with mp.workdps(wd):
        wanted = {c: [computed(c, x, xc) for x, xc, _ in table.nodes] for c in columns}
        threads = [threading.Thread(target=walk) for _ in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# ---------------------------------------------------------------------------
# eviction by estimated bytes
# ---------------------------------------------------------------------------


def sweep(precs):
    """The precision sweep that grew memory under a count of precisions."""
    for prec in precs:
        quadrature.I_quad(2, prec)
        quadrature.I_quad(3, prec)
        quadrature.k_arctanh(2, prec)
        yield prec


def test_a_precision_sweep_stays_within_the_byte_budget(monkeypatch):
    # the sweep over 100, ..., 800 digits is slow; its first four steps hold
    # an estimated 8.5 MB, so a budget a sixth as large (5.3 MB) evicts
    monkeypatch.setattr(quadrature, "_NODE_BYTES", quadrature._NODE_BYTES // 6)
    for prec in sweep(range(100, 500, 100)):
        assert quadrature._held_bytes() <= quadrature._NODE_BYTES
        assert next(reversed(quadrature._NODE_CACHE)) == prec + GUARD_DIGITS
    assert len(quadrature._NODE_CACHE) < 4  # evicted


def test_the_least_recently_used_precision_goes_first(monkeypatch):
    first = quadrature.I_quad(2, 22)  # 22 to 25 digits take the same five levels
    monkeypatch.setattr(quadrature, "_NODE_BYTES", quadrature._held_bytes() * 5 // 2)
    quadrature.I_quad(2, 23)
    quadrature.I_quad.cache_clear()
    quadrature.I_quad(2, 22)  # a use keeps a precision
    quadrature.I_quad(2, 24)
    assert list(quadrature._NODE_CACHE) == [p + GUARD_DIGITS for p in (22, 24)]
    quadrature.I_quad(2, 25)
    assert list(quadrature._NODE_CACHE) == [p + GUARD_DIGITS for p in (24, 25)]
    quadrature.I_quad.cache_clear()
    assert_same(quadrature.I_quad(2, 22), first)  # rebuilt tables, same result


def test_the_benchmark_working_sets_are_never_evicted(monkeypatch):
    dropped = []
    evict = quadrature._evict

    def counted():
        before = set(quadrature._NODE_CACHE)
        evict()
        dropped.extend(before - set(quadrature._NODE_CACHE))

    monkeypatch.setattr(quadrature, "_evict", counted)
    for prec in (30, 50):  # every quad-session shape
        for n in range(1, 9):  # tvalue({2}^m, 1) reads I(2m) up to I(8)
            quadrature.I_quad(n, prec)
        for n in range(1, 7):
            quadrature.j_cot(n, prec)
            quadrature.logsine_check(n, prec)
        for n in range(1, 6):
            quadrature.k_arctanh(n, prec)
        for n in range(1, 4):
            quadrature.t_kernel_quad(n, prec)
        for p in (2, 3):
            for q in (2, 3):
                for sign_den in (1, -1):
                    quadrature.kernel_pair(p, q, sign_den, prec)
    run_suite("all", 50)
    assert dropped == []
    assert quadrature._held_bytes() * 4 < quadrature._NODE_BYTES


# ---------------------------------------------------------------------------
# the integer engine
# ---------------------------------------------------------------------------

MPF_CASES = [
    ("I_quad", (3,)),
    ("j_cot", (2,)),
    ("k_arctanh", (3,)),
    ("t_kernel_quad", (1,)),
    ("kernel_pair", (2, 3, -1)),
    ("logsine_check", (4,)),
]


@pytest.mark.parametrize("prec", (30, 50))
@pytest.mark.parametrize("name, args", MPF_CASES, ids=[name for name, _ in MPF_CASES])
def test_kernels_lie_within_a_unit_of_their_mpf_node_values(name, args, prec):
    got = evaluate(name, args, prec)
    want = MPF_KERNELS[name](*args, prec)
    assert got.levels_used == want.levels_used
    wd = prec + GUARD_DIGITS
    with mp.workdps(wd):
        total = got.value.magnitude
        assert abs(total - want.value.magnitude) <= abs(total) * mpf(10) ** (1 - wd)


class Captured(Exception):
    pass


def integrand_of(name, args, prec, monkeypatch):
    """The Integrand a kernel hands integrate01, without integrating it."""

    def capture(f, prec):
        raise Captured(f)

    monkeypatch.setattr(quadrature, "integrate01", capture)
    try:
        getattr(quadrature, name).__wrapped__(*args, prec)  # past the memo
    except Captured as got:
        return got.args[0]
    finally:
        monkeypatch.undo()
    raise AssertionError("the kernel did not integrate")


def as_pair(v):
    return v if type(v) is tuple else quadrature._pair(v)


KERNEL_ARGS = st.one_of(
    st.tuples(st.just("I_quad"), st.tuples(st.integers(1, 6))),
    st.tuples(st.just("j_cot"), st.tuples(st.integers(1, 6))),
    st.tuples(st.just("k_arctanh"), st.tuples(st.integers(1, 5))),
    st.tuples(st.just("t_kernel_quad"), st.tuples(st.integers(1, 3))),
    st.tuples(
        st.just("kernel_pair"),
        st.tuples(st.integers(2, 4), st.integers(2, 4), st.sampled_from((1, -1))),
    ),
    st.tuples(st.just("logsine_check"), st.tuples(st.integers(1, 6))),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kernel=KERNEL_ARGS, prec=st.integers(16, 80), level=st.integers(0, 2))
def test_a_level_sum_is_within_its_stated_units(monkeypatch, kernel, prec, level):
    ev = integrand_of(*kernel, prec, monkeypatch).evaluator
    wd = prec + GUARD_DIGITS
    bits = quadrature._scale_bits(wd)
    table = quadrature._cached_nodes(level, wd)
    with mp.workdps(wd):
        acc, E = quadrature._level_sum(table, ev)
        values = [ev(x, xc) for x, xc, _ in table.nodes]  # computed, not read
    with mp.workdps(2 * wd):
        terms = [
            mp.ldexp(mpf(mw * m), ew + e)
            for (_, _, (mw, ew)), (m, e) in zip(table.nodes, map(as_pair, values))
        ]
        exact = mp.fsum(terms)
        stated = len(terms) * mp.ldexp(max(abs(t) for t in terms), 2 - bits)
        assert abs(mp.ldexp(mpf(acc), E) - exact) <= stated


@pytest.mark.parametrize("wd", (26, 60, 210))
def test_node_weights_are_within_eight_eps(wd):
    # w is within 8 2^-p relative of pi cosh t x xc at the stored x and xc
    eps = mpf(2) ** -dps_to_prec(wd)
    for level in range(4):
        nodes = quadrature._nodes(level, wd)
        # t = j h with j = 0, 1, 1, 2, 2, ... at level 0 and 1, 1, 3, 3, ... above
        step = 1 if level == 0 else 2
        js = [0] * (level == 0) + [j for j in range(1, 2 * len(nodes), step) for _ in "xy"]
        for j, (x, xc, (mw, ew)) in zip(js, nodes):
            with mp.workdps(2 * wd):
                want = mp.pi * mp.cosh(mpf(j) / 2 ** level) * x * xc
                assert abs(mp.ldexp(mw, ew) - want) <= 8 * eps * want


@given(num=st.integers(-(1 << 600), 1 << 600).filter(bool), den=st.integers(1, 1 << 400),
       exp=st.integers(-2000, 2000), prec=st.integers(4, 400))
def test_a_scaled_quotient_is_floored_once(num, den, exp, prec):
    with mp.workprec(prec):
        q, f = scaled_quotient(num, exp, den)
    bits = prec + quadrature._GUARD_BITS
    exact = Fraction(num, den) * Fraction(2) ** exp
    unit = Fraction(2) ** f
    assert 0 <= exact - q * unit < unit
    assert unit < abs(exact) * Fraction(2) ** (1 - bits)


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


# a kernel, a second one reading the same column, and that column; the
# _asin_column and acos_column cases read the arcsine column's arcsin slot
# (I_quad) and its arccos slot (t_kernel_quad), the _arcsine_column case both
WRAPPED = [
    pytest.param(("I_quad", (3,)), ("I_quad", (4,)), "_arcsine_column", id="_asin_column"),
    pytest.param(("t_kernel_quad", (1,)), ("t_kernel_quad", (2,)), "_arcsine_column",
                 id="acos_column"),
    pytest.param(("I_quad", (3,)), ("t_kernel_quad", (1,)), "_arcsine_column",
                 id="_arcsine_column"),
    pytest.param(("kernel_pair", (2, 3, -1)), ("kernel_pair", (2, 2, 1)), "_log_column",
                 id="_log_column"),
]


@pytest.mark.parametrize("first, second, column", WRAPPED)
def test_a_wrapped_evaluator_gives_the_same_result(monkeypatch, first, second, column):
    plain = evaluate(*first, 30)
    want = direct(*first, 30)  # before the count: an oracle may call the node function
    cold()
    monkeypatch.setattr(quadrature, "integrate01", wrapping(quadrature.integrate01))
    calls = count_calls(monkeypatch, getattr(quadrature, column))
    wrapped = evaluate(*first, 30)
    assert_same(wrapped, plain)
    assert_same(wrapped, want)
    evaluate(*second, 30)  # read through the wrapper, the column still serves
    assert calls == node_keys(30)
    assert set(calls.values()) == {1}
