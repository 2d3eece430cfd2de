"""Lint: no module of the package imports a name it never uses, or sympy or mpmath."""

import ast
from pathlib import Path

import pytest

import skewdiv

MODULES = sorted(
    p for p in Path(skewdiv.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_caught():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)",
        "b (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.e\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    assert imported_modules("import sympy.polys\nfrom mpmath import mpf\nfrom . import jets\n") == {
        "sympy",
        "mpmath",
    }


@pytest.mark.parametrize("path", MODULES + [Path(skewdiv.__file__)], ids=lambda p: p.name)
def test_the_package_imports_no_symbolic_algebra(path):
    """sympy and mpmath serve the test oracle only; the package needs numpy alone."""
    assert not imported_modules(path.read_text()) & {"sympy", "mpmath"}
