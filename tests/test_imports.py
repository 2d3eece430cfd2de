"""Lint: no module of the package or the tests imports a name it never uses.

The package imports neither sympy and mpmath nor a module of the tests, and
every public function and class it defines is on a command's path.
"""

import ast
from pathlib import Path

import pytest

import skewdiv

MODULES = sorted(
    p for p in Path(skewdiv.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
PACKAGE = MODULES + [Path(skewdiv.__file__)]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_the_package_imports_no_symbolic_algebra(path):
    """sympy and mpmath serve the test oracle only; the package needs numpy alone."""
    assert not imported_modules(path.read_text()) & {"sympy", "mpmath"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_the_package_imports_nothing_from_the_tests(path):
    """The exact oracle and the test-only checks stay out of the package."""
    assert not imported_modules(path.read_text()) & {p.stem for p in TESTS}


# The entry points of the console script and of ``python -m skewdiv``.
ENTRY_POINTS = {"cli.main", "cli.console_main"}

# Public names that no command reaches yet, each with the reason it stays.
UNCALLED = {
    "identities.cpe_residual": (
        "the Besse conjecture applies the divergence estimate to critical-point metrics; "
        "verify is to report it on a critical-point built-in, or it moves to tests/checks.py (ROADMAP)"
    ),
    "identities.static_bochner_residual": (
        "the uniqueness argument for static triples rests on this substitution; "
        "verify is to report it on a static built-in, or it moves to tests/checks.py (ROADMAP)"
    ),
}


def uncalled(sources: dict[str, str], allowed) -> list[str]:
    """``module.name`` of each public top-level function and class in ``sources`` that no code reads.

    ``sources`` maps module names to their text.  A definition is read when
    a name or an attribute of that name appears in another module or in its
    own module outside the definition itself; a docstring or a comment that
    names it does not count.  Names in ``allowed`` are not reported.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = [(stmt, names_read(stmt)) for tree in trees.values() for stmt in tree.body]
    return [
        f"{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and f"{mod}.{node.name}" not in allowed
        and not any(node.name in names for stmt, names in reads if stmt is not node)
    ]


def names_read(node: ast.AST) -> set[str]:
    """Every name and attribute name that the code under ``node`` reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_uncalled_names_are_caught():
    sources = {
        "a": (
            '"""unused_but_named and its_own_caller have no caller."""\n'
            "def unused(): pass\n"
            "def unused_but_named(): pass\n"
            "def its_own_caller(n):\n"
            "    return its_own_caller(n - 1)\n"
            "def called_here(): pass\n"
            "def called_elsewhere(): pass\n"
            "class Read: pass\n"
            "VALUE = called_here()\n"
        ),
        "b": "from . import a\nfrom .a import called_elsewhere\ncalled_elsewhere(a.Read)\n",
    }
    assert uncalled(sources, ()) == ["a.unused", "a.unused_but_named", "a.its_own_caller"]
    assert uncalled(sources, {"a.unused"}) == ["a.unused_but_named", "a.its_own_caller"]


def test_every_public_name_is_on_a_commands_path():
    """Each public function and class of the package is read by the package's own code.

    A check that only the tests call lives in ``tests/checks.py``.
    """
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert uncalled(sources, ENTRY_POINTS | UNCALLED.keys()) == []
    # A name that gains a caller leaves the list.
    assert sorted(uncalled(sources, ENTRY_POINTS)) == sorted(UNCALLED)
