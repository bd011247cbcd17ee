"""Module layout: no module of the package imports a private name from a
sibling module, so every cross-module dependency goes through a public API.
"""

import ast
from pathlib import Path

import multizeta

PACKAGE = Path(multizeta.__file__).parent

# Known exception, left for later cleanup: the cancellation-free arccos that
# wseries borrows from the quadrature integrands.
ALLOWED = {("quadrature", "_acos_stable")}


def private_imports() -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                module = node.module
            elif node.module.startswith("multizeta."):
                module = node.module.split(".", 1)[1]
            else:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and (module, alias.name) not in ALLOWED:
                    found.append(f"{path.stem} imports {module}.{alias.name}")
    return found


def test_no_private_imports_across_modules():
    assert private_imports() == []


def test_scan_sees_the_package():
    # guard against a vacuous pass over an empty or wrong directory
    names = {p.stem for p in PACKAGE.glob("*.py")}
    assert {"closed", "symbolic", "verify", "cli", "hp"} <= names
