"""Lint: no module of the package or the tests imports a name it never uses.

The package imports neither sympy and mpmath nor a module of the tests, and
every public function and class it defines, every member of its classes
and every field and attribute they hold, is on a command's path.
"""

import ast
from collections import Counter
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

# Public names, class members and data members that no command reaches yet, each with the
# reason it stays.  Empty: a check that only the tests call lives in
# tests/checks.py.
UNCALLED: dict[str, str] = {}


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


def unread_members(sources: dict[str, str], allowed=()) -> list[str]:
    """``module.Class.name`` of each method and property of a class in ``sources`` that no code reads.

    A member is read when its name appears as an attribute load or a whole
    string constant (``getattr`` reads a property by its name) anywhere in
    ``sources`` outside the member's own definition.  A bare name does not
    count, so a parameter or a local variable that spells a member does not
    hide it.  Dunders are called by the language and are not reported, nor
    are names in ``allowed``.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    total = sum((read_counts(tree) for tree in trees.values()), Counter())
    return [
        f"{mod}.{cls.name}.{member.name}"
        for mod, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and f"{mod}.{cls.name}.{member.name}" not in allowed
        and total[member.name] == read_counts(member)[member.name]
    ]


def read_counts(node: ast.AST) -> Counter:
    """How often the code under ``node`` reads each name: as an attribute load or a string."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(node)
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Constant) and isinstance(n.value, str))
    )


def test_unread_members_are_caught():
    sources = {
        "a": (
            "from functools import cached_property\n"
            "class A:\n"
            '    """unused is named here, but only in a docstring."""\n'
            "    def __init__(self): self.x = 1\n"
            "    def __len__(self): return 0\n"
            "    def unused(self): pass\n"
            "    def its_own_caller(self): return self.its_own_caller()\n"
            "    @cached_property\n"
            "    def unread(self): return 1\n"
            "    @property\n"
            "    def by_attribute(self): return 2\n"
            "    @property\n"
            "    def by_string(self): return 3\n"
            "    def by_sibling(self): return self.by_attribute\n"
            "    def spelt_by_a_parameter(self): pass\n"
            "COLUMNS = ('by_string',)\n"
            "def f(spelt_by_a_parameter): return spelt_by_a_parameter\n"
        ),
        "b": "from .a import A, COLUMNS\nv = [getattr(A(), nm) for nm in COLUMNS] + [A().by_sibling()]\n",
    }
    unread = ["a.A.unused", "a.A.its_own_caller", "a.A.unread", "a.A.spelt_by_a_parameter"]
    assert unread_members(sources) == unread
    assert unread_members(sources, {"a.A.unread"}) == [m for m in unread if m != "a.A.unread"]


def unread_fields(sources: dict[str, str], allowed=()) -> list[str]:
    """``module.Class.name`` of each data member of a class in ``sources`` that no code reads.

    A data member is a name annotated in the class body (a dataclass or
    ``NamedTuple`` field) or an attribute that a method stores on ``self``.
    It is read when its name appears anywhere in ``sources`` as an attribute
    load or as a whole string constant (``getattr`` reads a field by its
    name).  A bare name does not count, so a local variable that spells a
    field does not hide it.  Limit: a name that another class's attribute or
    a string key also spells counts as read.  Names in ``allowed`` are not
    reported.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = {
        n.attr if isinstance(n, ast.Attribute) else n.value
        for tree in trees.values()
        for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Constant) and isinstance(n.value, str))
    }
    return [
        f"{mod}.{cls.name}.{name}"
        for mod, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for name in data_members(cls)
        if name not in read and f"{mod}.{cls.name}.{name}" not in allowed
    ]


def data_members(cls: ast.ClassDef) -> list[str]:
    """The names annotated in the body of ``cls`` and the attributes its methods store on ``self``."""
    fields = [
        s.target.id for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]
    stored = [
        n.attr
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(method)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name)
        and n.value.id == "self"
    ]
    return list(dict.fromkeys(fields + stored))


def test_unread_fields_are_caught():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "from typing import NamedTuple\n"
            "@dataclass\n"
            "class D:\n"
            "    read: int\n"
            "    unread: int\n"
            "    by_string: int\n"
            "    spelt_by_a_local: int\n"
            "class Row(NamedTuple):\n"
            "    x: float\n"
            "    unread_column: float\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.kept = 1\n"
            "        self.stored_only = 2\n"
            "        self.allowed = 3\n"
            "COLUMNS = ('by_string',)\n"
        ),
        "b": (
            "from .a import COLUMNS, D, Row, S\n"
            "spelt_by_a_local = D(1, 2, 3, 4).read + Row(0.0, 1.0).x + S().kept\n"
            "v = [getattr(D(1, 2, 3, 4), nm) for nm in COLUMNS]\n"
        ),
    }
    assert unread_fields(sources) == [
        "a.D.unread",
        "a.D.spelt_by_a_local",
        "a.Row.unread_column",
        "a.S.stored_only",
        "a.S.allowed",
    ]
    assert unread_fields(sources, {"a.S.allowed"}) == [
        "a.D.unread",
        "a.D.spelt_by_a_local",
        "a.Row.unread_column",
        "a.S.stored_only",
    ]


def test_every_public_name_is_on_a_commands_path():
    """Each public function and class of the package, and each member of a class, is read by package code.

    The members are methods and properties, fields, and attributes stored on ``self``.

    A check that only the tests call lives in ``tests/checks.py``.
    """
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert uncalled(sources, ENTRY_POINTS | UNCALLED.keys()) == []
    assert unread_members(sources, UNCALLED.keys()) == []
    assert unread_fields(sources, UNCALLED.keys()) == []
    # A name that gains a caller leaves the list.
    assert sorted(
        uncalled(sources, ENTRY_POINTS) + unread_members(sources) + unread_fields(sources)
    ) == sorted(UNCALLED)
