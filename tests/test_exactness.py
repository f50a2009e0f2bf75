"""No float in the library: every module is checked for float literals and
calls of float(), so exact arithmetic cannot be lost by accident."""

import ast
from pathlib import Path

import pytest

import dp1toric

MODULES = sorted(Path(dp1toric.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: call of float()")
    return found


def test_the_guard_sees_floats():
    tree = ast.parse("x = 0.5\ny = float(3)\nz = Fraction(1, 2)\n")
    assert float_uses(tree) == ["line 1: float literal 0.5",
                                "line 2: call of float()"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_module(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"))) == []
