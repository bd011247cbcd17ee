"""Module layout: no module of the package imports a private name from a
sibling module, so every cross-module dependency goes through a public API.
"""

import ast
from pathlib import Path

import multizeta

PACKAGE = Path(multizeta.__file__).parent

ALLOWED: set = set()

# The series route checks the closed, symbolic and quadrature routes, so it
# must not be built from them.
SERIES_FORBIDDEN = {"closed", "symbolic", "quadrature", "wseries"}


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


def test_no_private_imports_across_modules():
    assert private_imports() == []


def test_series_route_is_independent():
    imported = {module for module, _ in sibling_imports(PACKAGE / "series.py")}
    assert "hp" in imported  # guard against a vacuous pass
    assert imported & SERIES_FORBIDDEN == set()


def test_scan_sees_the_package():
    # guard against a vacuous pass over an empty or wrong directory
    names = {p.stem for p in PACKAGE.glob("*.py")}
    assert {"closed", "symbolic", "verify", "cli", "hp"} <= names
