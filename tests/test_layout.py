"""Module layout: no module of the package imports a private name from a
sibling module, so every cross-module dependency goes through a public API;
no module imports a name it never uses; and outside ``hp`` no code derives
an error bound from other bounds, so ``hp.combine`` stays the one rule that
propagates them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import multizeta

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
    ("quadrature", "_polylog_raw"),  # Li_p(+-1) = zeta(p), -eta(p)
}


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


def test_scan_sees_the_package():
    # guard against a vacuous pass over an empty or wrong directory
    names = {p.stem for p in PACKAGE.glob("*.py")}
    assert {"closed", "symbolic", "verify", "cli", "hp"} <= names
