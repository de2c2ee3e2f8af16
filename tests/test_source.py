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


def _unused_private_definitions(trees):
    """Names of ``_name`` functions and classes that no other node of ``trees`` names.

    A name counts as used where it is read (``_f``) or taken as an attribute
    (``cls._f``); an import (``from .m import _f``) or a docstring does not count.
    """
    defined, used = [], set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(set(defined) - used)


def test_unused_private_definitions_count_reads_and_attributes_only():
    code = (
        "from m import _b\nclass _A:\n    def _m(self):\n        '''not _b'''\n"
        "def _b():\n    return _A()._m()\n"
    )
    assert _unused_private_definitions([ast.parse(code)]) == ["_b"]


def test_every_private_definition_is_used_in_src():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    assert _unused_private_definitions(trees) == []


def _undefined_exports(tree):
    """Names in a module's ``__all__`` that the module neither defines nor imports at top level."""
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = [elt.value for elt in node.value.elts]
    return [name for name in exported if name not in defined]


def test_undefined_exports_reads_definitions_imports_and_assignments():
    code = (
        "import os.path\nfrom m import a as b\nX: int = 1\nY = 2\ndef f(): pass\n"
        "class C: pass\n__all__ = ['os', 'b', 'X', 'Y', 'f', 'C', 'a', 'gone']\n"
    )
    assert _undefined_exports(ast.parse(code)) == ["a", "gone"]


def test_every_exported_name_is_defined():
    found = [
        f"{path.relative_to(SRC)}:{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _undefined_exports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
