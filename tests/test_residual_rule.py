"""Lint: the floor-at-1 relative rule is written once, in ``geometry.residual``."""

import ast
from pathlib import Path

import skewdiv

MODULES = sorted(Path(skewdiv.__file__).parent.glob("*.py"))


def floor_at_one_calls(source: str) -> list[str]:
    """The function around each ``np.maximum`` or ``max`` call that takes the literal 1.0."""
    tree = ast.parse(source)
    defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.maximum", "max")):
            continue
        if any(isinstance(arg, ast.Constant) and repr(arg.value) == "1.0" for arg in node.args):
            around = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
            found.append(max(around, key=lambda d: d.lineno).name if around else "<module>")
    return found


def test_floor_at_one_calls_are_caught():
    source = "def f(x):\n    def g():\n        return max(1.0, x)\n    return np.maximum(x, 1.0)\n"
    assert sorted(floor_at_one_calls(source)) == ["f", "g"]
    assert floor_at_one_calls("max(x, 0.0, 1)\nnp.maximum(1.0, 2.0)\n") == ["<module>"]


def test_only_the_residual_builder_floors_at_one():
    found = [f"{p.stem}.{name}" for p in MODULES for name in floor_at_one_calls(p.read_text())]
    assert found == ["geometry.residual"]
