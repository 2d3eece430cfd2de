"""Lint: no ``np.einsum`` call in the package sums more than three operands at once.

Without a contraction path numpy runs a k-operand einsum as one loop over
every index tuple; contracting two or three operands at a time is faster
and rounds less (see ``geometry.norm_sq``).
"""

import ast
from pathlib import Path

import pytest

import skewdiv

MODULES = sorted(Path(skewdiv.__file__).parent.glob("*.py"))
MAX_OPERANDS = 3


def wide_einsums(source: str) -> list[str]:
    """``line: operand count`` of each ``np.einsum`` call with more than MAX_OPERANDS operands."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.einsum":
            operands = node.args[1:]
            if len(operands) > MAX_OPERANDS or any(isinstance(a, ast.Starred) for a in operands):
                found.append(f"{node.lineno}: {len(operands)}")
    return found


def test_wide_einsums_are_caught():
    source = (
        'np.einsum("ij,jk,kl,lm->im", a, b, c, d)\n'
        'np.einsum("ij,jk,kl->il", a, b, c, optimize=True)\n'
        "np.einsum(spec, *ops)\n"
        'x = f(np.einsum("...ia,...jb,...kc,...ijk,...abc->...", g, g, g, t, t))\n'
    )
    assert wide_einsums(source) == ["1: 4", "3: 1", "4: 5"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum_sums_more_than_three_operands(path):
    assert wide_einsums(path.read_text()) == []
