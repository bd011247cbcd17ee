"""Module layout: no module of the package imports a private name from a
sibling module, so every cross-module dependency goes through a public API;
no module imports a name it never uses; outside ``hp`` no code derives
an error bound from other bounds, so ``hp.combine`` stays the one rule that
propagates them, and outside ``hp``, ``series`` and ``quadrature`` no code
builds a result from a value and a bound; every change of mpmath's
process-global precision is made under ``hp.LOCK``; and no code tests a basis
constant's kind against a name, so a kind is one ``symbolic._KINDS`` row.
"""

import ast
import importlib
import inspect
from itertools import product
from pathlib import Path

import multizeta
from multizeta import quadrature, routes, symbolic
from multizeta.symbolic import Formula, FormulaId

PACKAGE = Path(multizeta.__file__).parent

ALLOWED: set = set()

# The series route checks the closed, symbolic and quadrature routes, so it
# must not be built from them.
SERIES_FORBIDDEN = {"closed", "symbolic", "quadrature", "wseries"}

# The layers whose functions the route registry reaches through the module
# (``hp.scaled(...)``), never by a name imported from it: the benchmark's
# tracer wraps a layer's functions by rebinding them in the layer modules
# only, so a call through a name imported into ``routes`` would escape it
# (a traced verify pass would report no series calls and bill their time to
# verify), and so would a test's monkeypatch of the defining module.
LAYERS_CALLED_THROUGH_MODULE = {"hp", "series", "quadrature", "symbolic", "closed"}

# The only functions outside hp that read a result's ``.error_bound``: they
# print it, compare it, or take the bound of a base constant as it stands.
BOUND_READERS = {
    ("cli", "_result_payload"),  # the JSON payload's error_bound string
}

# The only modules that build a result from a value and a bound: hp (its
# constants and combine), series (its proved engines) and quadrature (its
# level rule).  Every other module takes its results from them, or derives
# one through hp.combine or hp.scaled.
RESULT_BUILDERS = {"hp", "series", "quadrature"}
RESULT_CONSTRUCTORS = {"wrap_result", "EvalResult", "QuadratureResult", "HPReal"}


def sibling_imports(path: Path):
    """(sibling module, imported names) for each package-internal import."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("multizeta."):
                    yield alias.name.split(".", 1)[1], []
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [alias.name for alias in node.names]
            if node.level == 1 and module:
                yield module, names
            elif module.startswith("multizeta."):
                yield module.split(".", 1)[1], names
            elif node.level == 1 or module == "multizeta":  # from . import closed
                yield from ((name, []) for name in names)


def private_imports() -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, names in sibling_imports(path):
            for name in names:
                if name.startswith("_") and (module, name) not in ALLOWED:
                    found.append(f"{path.stem} imports {module}.{name}")
    return found


def unused_imports(path: Path) -> list:
    """Names ``path`` imports but neither reads nor re-exports in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.stem}:{line} imports {name}" for name, line in imported.items()
            if name not in used]


def bound_readers(path: Path) -> set:
    """(module, top-level function or class) pairs that read ``.error_bound``."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "error_bound"
                and isinstance(child.ctx, ast.Load)
            ):
                found.add((path.stem, owner))
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def result_constructions(path: Path) -> list:
    """Each call of a result constructor, by name or as a module attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RESULT_CONSTRUCTORS:
                found.append(f"{path.stem}:{node.lineno} calls {name}")
    return found


def kind_name_comparisons(path: Path) -> list:
    """Each comparison of a ``.kind`` attribute with a string literal, alone
    or inside a tuple, list or set."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands) and any(
                isinstance(n, ast.Constant) and isinstance(n.value, str) for o in operands for n in ast.walk(o)
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def unlocked_precision_changes(path: Path) -> list:
    """Each mp.workdps/mp.workprec not entered in a ``with`` after LOCK, or
    inside a ``with`` that holds LOCK in the same function."""
    found, locked_calls = [], set()

    def is_change(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
            "workdps", "workprec")

    def visit(node, locked):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            locked = False  # a body runs when called, not where it is defined
        if isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                locked = locked or (isinstance(expr, ast.Name) and expr.id == "LOCK")
                if is_change(expr) and locked:
                    locked_calls.add(expr)
        elif is_change(node) and node not in locked_calls:
            found.append(f"{path.stem}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return found


def test_no_private_imports_across_modules():
    assert private_imports() == []


def test_no_unused_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        assert unused_imports(path) == []


def test_unused_import_scan_sees_imports(tmp_path):
    # guard against a vacuous pass: an import read nowhere is reported, one
    # read or re-exported is not
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\nimport math\nfrom typing import Callable\n"
        "from .hp import LOCK\n__all__ = ['LOCK']\nx = math.pi\n"
    )
    assert unused_imports(module) == ["m:3 imports Callable"]


def test_every_precision_change_holds_the_lock():
    for path in sorted(PACKAGE.glob("*.py")):
        assert unlocked_precision_changes(path) == []


def test_precision_scan_sees_changes(tmp_path):
    # guard against a vacuous pass: a change outside LOCK, before it in the
    # same with, or in a function defined under it is reported
    module = tmp_path / "m.py"
    module.write_text(
        "with LOCK, mp.workdps(30):\n    with mp.workprec(64):\n        pass\n"
        "with mp.workdps(30):\n    pass\n"
        "with mp.workprec(64), LOCK:\n    pass\n"
        "with LOCK:\n    def f():\n        with mp.workdps(30):\n            pass\n"
    )
    assert unlocked_precision_changes(module) == ["m:4", "m:6", "m:10"]


def test_series_route_is_independent():
    imported = {module for module, _ in sibling_imports(PACKAGE / "series.py")}
    assert "hp" in imported  # guard against a vacuous pass
    assert imported & SERIES_FORBIDDEN == set()


def test_quadrature_route_is_independent():
    # the quadrature route checks the closed and series routes: it is built
    # on the hp constants alone
    imported = {module for module, _ in sibling_imports(PACKAGE / "quadrature.py")}
    assert imported == {"hp"}


def functions_imported_by_name(stem: str, layers: set) -> tuple[list, int]:
    """(functions of ``layers`` that ``stem`` imports by name, names checked)."""
    found, checked = [], 0
    for module, names in sibling_imports(PACKAGE / f"{stem}.py"):
        if module not in layers:
            continue
        layer = importlib.import_module(f"multizeta.{module}")
        for name in names:
            checked += 1
            obj = getattr(layer, name)
            if callable(obj) and not inspect.isclass(obj):
                found.append(f"{stem} imports {module}.{name}")
    return found, checked


def quadrature_readers() -> dict:
    """name -> the other modules that read it from quadrature, by import or
    as an attribute ``quadrature.name``."""
    readers: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "quadrature":
            continue
        names = [name for module, names in sibling_imports(path) if module == "quadrature"
                 for name in names]
        tree = ast.parse(path.read_text(), filename=str(path))
        names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "quadrature"]
        for name in names:
            readers.setdefault(name, set()).add(path.stem)
    return readers


def test_every_quadrature_export_has_a_reader():
    # a public kernel that no route, check or CLI path reaches is dead code
    # to be deleted, not kept for the tests alone.  The one exception is
    # integrate01, which no other module calls: bench/tracer.py wraps every
    # function of __all__ and records levels_used and the integrand spans
    # through it, and the benchmark's session tests pin quad_levels
    readers = quadrature_readers()
    assert readers.get("kernel_pair") == {"routes"}  # guard against a vacuous pass
    assert [name for name in quadrature.__all__ if name not in readers] == ["integrate01"]


def test_wseries_is_built_on_hp_alone():
    # row 30 checks the W operator in exact arithmetic: wseries reads no
    # quadrature, series or closed form
    imported = {module for module, _ in sibling_imports(PACKAGE / "wseries.py")}
    assert imported == {"hp"}


def test_routes_call_layers_through_their_modules():
    found, checked = functions_imported_by_name("routes", LAYERS_CALLED_THROUGH_MODULE)
    assert checked > 0  # guard against a vacuous pass: Formula, FormulaId
    assert found == []


def test_only_routes_wire_shapes_to_evaluators():
    # the CLI and verify reach every evaluator of these layers through
    # routes: they import classes and constants from them, no function
    for stem in ("cli", "verify"):
        found, _ = functions_imported_by_name(stem, {"closed", "quadrature", "series"})
        assert found == []


def test_closed_has_no_numeric_path():
    # closed.evaluate evaluates symbolic.build's expression; only build may
    # define a closed form, so closed imports no combine, scaled or constant
    imported = list(sibling_imports(PACKAGE / "closed.py"))
    assert {module for module, _ in imported} == {"hp", "symbolic"}
    assert all(names for _, names in imported)  # no module import: hp.combine
    found, checked = functions_imported_by_name("closed", {"hp"})
    assert checked > 0  # guard against a vacuous pass: EvalResult
    assert found == []


def test_only_hp_derives_error_bounds():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "hp":
            readers |= bound_readers(path)
    assert readers == BOUND_READERS


def test_bound_scan_sees_reads():
    # guard against a vacuous pass: hp reads bounds in combine
    assert ("hp", "combine") in bound_readers(PACKAGE / "hp.py")


def test_only_hp_series_and_quadrature_build_results():
    found = [call for path in sorted(PACKAGE.glob("*.py")) if path.stem not in RESULT_BUILDERS
             for call in result_constructions(path)]
    assert found == []


def test_result_scan_sees_constructions(tmp_path):
    # guard against a vacuous pass: every module allowed to build results
    # does, and a call by name or through a module is reported
    assert all(result_constructions(PACKAGE / f"{stem}.py") for stem in RESULT_BUILDERS)
    module = tmp_path / "m.py"
    module.write_text("r = hp.wrap_result(v, b, 30, True)\nclass R(EvalResult):\n    pass\n"
                      "h = HPReal(v, 30)\n")
    assert result_constructions(module) == ["m:1 calls wrap_result", "m:4 calls HPReal"]


def test_no_code_tests_a_kind_by_name():
    # what a kind means (text, weight, argument rule, hp value, place in the
    # canonical order) is its _KINDS row; a kind named in code elsewhere is a
    # second table that a new row would have to find
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in kind_name_comparisons(path)]
    assert found == []


def test_kind_scan_sees_comparisons(tmp_path):
    # guard against a vacuous pass
    module = tmp_path / "m.py"
    module.write_text('a = c.kind == "pi"\nb = "log2" != c.kind\nd = c.kind in ("pi", "log2")\n'
                      'e = kind == "I"\nf = c.kind == PI.kind\n')
    assert kind_name_comparisons(module) == ["m:1", "m:2", "m:3"]


def test_scan_sees_the_package():
    # guard against a vacuous pass over an empty or wrong directory
    names = {p.stem for p in PACKAGE.glob("*.py")}
    assert {"closed", "symbolic", "verify", "cli", "hp"} <= names


def built_kinds() -> set:
    """Basis kinds of every Formula built over a small grid its rule accepts."""
    kinds, built = set(), set()
    grid = [(), *((a,) for a in range(8)), *((a, b) for a in range(8) for b in range(8))]
    for name in Formula:
        for params in grid:
            try:
                expr = symbolic.build(FormulaId(name, params))
            except ValueError:
                continue
            built.add(name)
            kinds |= {c.kind for mono, _ in expr.terms for c, _ in mono}
    assert built == set(Formula)  # guard against a vacuous pass
    return kinds


def test_every_basis_kind_is_built():
    # a generator no closed form produces is dead code, and one that is not
    # independent of the others would let structural equality of two
    # expressions differ from equality of their values
    assert built_kinds() == set(symbolic._KINDS)


def cli_shapes():
    """Every request shape over small indices, as the CLI passes them to routes."""
    for depth in range(1, 6):
        for idx in product(range(1, 4), repeat=depth):
            yield from ((q, idx) for q in ("zeta", "tvalue", "mu", "bigT"))
    for fam, p, q in product("OB", range(1, 8), range(1, 8)):
        yield "oddsum", (fam, p, q)
    for kind, n in product(("I", "J", "K", "logsine"), range(8)):
        yield "integral", (kind, n)


def test_every_formula_is_reached():
    # a Formula that no CLI shape serves is dead code
    served = {fid.name for fid in (routes.fid_for(q, p) for q, p in cli_shapes()) if fid}
    assert Formula.T2S1_CONJECTURE in served  # guard against a vacuous pass
    assert served == set(Formula)
