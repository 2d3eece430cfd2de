"""Lint: the floor-at-1 relative rule is written once, in ``geometry.residual``.

Only that function builds an ``IdentityResidual``, so every residual the
package or the tests form follows the rule.
"""

import ast
from pathlib import Path

import skewdiv

MODULES = sorted(Path(skewdiv.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def enclosing(tree: ast.AST, node: ast.AST) -> str:
    """The name of the innermost function around ``node``, or ``<module>``."""
    around = [
        d for d in ast.walk(tree) if isinstance(d, ast.FunctionDef) and d.lineno <= node.lineno <= d.end_lineno
    ]
    return max(around, key=lambda d: d.lineno).name if around else "<module>"


def floor_at_one_calls(source: str) -> list[str]:
    """The function around each ``np.maximum`` or ``max`` call that takes the literal 1.0."""
    tree = ast.parse(source)
    return [
        enclosing(tree, node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("np.maximum", "max")
        and any(isinstance(arg, ast.Constant) and repr(arg.value) == "1.0" for arg in node.args)
    ]


def residual_constructions(source: str) -> list[str]:
    """The function around each call of ``IdentityResidual``, by name or as an attribute."""
    tree = ast.parse(source)
    return [
        enclosing(tree, node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "IdentityResidual"
    ]


def test_floor_at_one_calls_are_caught():
    source = "def f(x):\n    def g():\n        return max(1.0, x)\n    return np.maximum(x, 1.0)\n"
    assert sorted(floor_at_one_calls(source)) == ["f", "g"]
    assert floor_at_one_calls("max(x, 0.0, 1)\nnp.maximum(1.0, 2.0)\n") == ["<module>"]


def test_only_the_residual_builder_floors_at_one():
    found = [f"{p.stem}.{name}" for p in MODULES for name in floor_at_one_calls(p.read_text())]
    assert found == ["geometry.residual"]


def test_residual_constructions_are_caught():
    source = (
        "def f():\n    return IdentityResidual('a', 1.0, 1.0)\n"
        "def g():\n    return geometry.IdentityResidual(name='b', abs_residual=0.0, rel_residual=0.0)\n"
        "x = IdentityResidual\n"
        "s = 'IdentityResidual(name)'\n"
    )
    assert residual_constructions(source) == ["f", "g"]


def test_only_the_residual_builder_constructs_a_residual():
    found = [
        f"{p.parent.name}/{p.stem}.{name}"
        for p in MODULES + TESTS
        for name in residual_constructions(p.read_text())
    ]
    assert found == ["skewdiv/geometry.residual"]
