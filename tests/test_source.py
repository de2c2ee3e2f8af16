"""Checks on the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ringlab"
JUMPS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _unreachable(tree):
    """Line numbers of statements that follow a return, raise, continue or break in their block."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for stmt, after in zip(block, block[1:]):
                if isinstance(stmt, JUMPS):
                    yield after.lineno


def test_unreachable_finds_statements_after_a_jump():
    code = "def f(x):\n    for y in x:\n        break\n        y = 1\n    return x\n    x = 2\n"
    assert sorted(_unreachable(ast.parse(code))) == [4, 6]


def test_no_statement_follows_a_jump():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _unreachable(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
