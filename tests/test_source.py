"""Checks on the package source itself."""
import ast
from pathlib import Path

import numpy as np

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


def _is_module_function(name):
    """Whether ``numpy.random.<name>`` is not a class (``default_rng``, ``seed``, ``rand``, ...)."""
    return not isinstance(getattr(np.random, name, None), type)


def _unkeyed_randomness(tree):
    """Line numbers that import stdlib ``random`` or use a ``numpy.random`` module-level function.

    ``numpy.random``'s classes (``Generator``, ``Philox``, ...) are allowed.
    Uses go through any name that an import binds to ``numpy`` or to
    ``numpy.random``.
    """
    numpy_names, random_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    yield node.lineno
                elif alias.name == "numpy.random" and alias.asname:
                    random_names.add(alias.asname)
                elif alias.name.split(".")[0] == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [alias.name for alias in node.names]
            if node.module.split(".")[0] == "random":
                yield node.lineno
            elif node.module == "numpy.random" and any(map(_is_module_function, names)):
                yield node.lineno
            elif node.module == "numpy":
                random_names.update(a.asname or a.name for a in node.names if a.name == "random")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _is_module_function(node.attr):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in random_names:
            yield node.lineno
        elif (
            isinstance(owner, ast.Attribute)
            and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in numpy_names
        ):
            yield node.lineno


def test_unkeyed_randomness_finds_stdlib_random_and_numpy_module_functions():
    code = (
        "import random\n"
        "import numpy as np\n"
        "import numpy.random as npr\n"
        "from numpy import random as r\n"
        "from numpy.random import Generator, default_rng\n"
        "from random import choice\n"
        "g: np.random.Generator = np.random.Generator(np.random.Philox())\n"
        "np.random.seed(1)\n"
        "npr.rand(2)\n"
        "r.shuffle([])\n"
        "gen = npr.Generator(npr.Philox(key=r.SeedSequence(1).entropy))\n"
        "gen.integers(0, 2)\n"
    )
    assert sorted(_unkeyed_randomness(ast.parse(code))) == [1, 5, 6, 8, 9, 10]


def test_every_draw_comes_from_a_keyed_generator():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _unkeyed_randomness(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _error_exits_outside_main(tree):
    """Top-level functions and classes, ``main`` aside, that name an error exit code or stderr.

    The codes are ``EXIT_USAGE`` and ``EXIT_BAD_GRAPH``; stderr is any ``.stderr`` attribute.
    """
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name == "main":
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name) and sub.id in ("EXIT_USAGE", "EXIT_BAD_GRAPH")
                or isinstance(sub, ast.Attribute) and sub.attr == "stderr"
            ):
                found.append(node.name)
                break
    return found


def test_error_exits_outside_main_finds_codes_and_stderr():
    code = (
        "EXIT_USAGE = 2\n"
        "def f():\n    print('x', file=sys.stderr)\n"
        "class C:\n    def m(self):\n        return EXIT_BAD_GRAPH\n"
        "def g():\n    raise ValueError\n"
        "def main():\n    print('x', file=sys.stderr)\n    return EXIT_USAGE\n"
    )
    assert _error_exits_outside_main(ast.parse(code)) == ["f", "C"]


def test_only_cli_main_maps_failures_to_exit_codes():
    # the handlers raise; main alone prints the stderr line and picks the code
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert _error_exits_outside_main(tree) == []


def _second_rule_uses(node, allowed=frozenset()):
    """Lines under ``node`` that call ``.integers(...)`` or name a ``.state`` attribute.

    The classes named in ``allowed`` are skipped.  Either use would make
    bounded integers by a rule other than stream layout 3's: numpy's own,
    or a replay from a saved generator state.
    """
    if isinstance(node, ast.ClassDef) and node.name in allowed:
        return []
    found = []
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "integers":
            found.append(node.lineno)
    elif isinstance(node, ast.Attribute) and node.attr == "state":
        found.append(node.lineno)
    for child in ast.iter_child_nodes(node):
        found += _second_rule_uses(child, allowed)
    return sorted(found)


def test_second_rule_uses_finds_integers_calls_and_state_outside_allowed_classes():
    code = (
        "class _StreamFamily:\n    def g(self):\n        return self._bitgen.state\n"
        "def f(gen):\n    gen.integers(0, 3)\n    s = gen.bit_generator.state\n"
        "    gen.bit_generator.state = s\n    return gen.integers\n"
    )
    assert _second_rule_uses(ast.parse(code), {"_StreamFamily"}) == [5, 6, 7]


def test_samplers_and_the_campaign_engine_keep_one_bounded_integer_rule():
    # no numpy integers call and no generator state in any module: the
    # samplers, the campaign engine and the single-graph adversaries included
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _second_rule_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _fsum_over_comprehensions(tree):
    """Line numbers of ``fsum(...)`` calls whose argument is a generator expression or list comprehension.

    Either builds one Python float per element before summing; the engines
    sum a ``tolist()`` of an array, or slices of one.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "fsum" and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp)):
            yield node.lineno


def _class_slots(tree, name):
    """The names in the ``__slots__`` of the top-level class ``name``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    return [elt.value for elt in stmt.value.elts]
    return []


def test_fsum_over_comprehensions_and_class_slots_read_the_tree():
    code = (
        "import math\nfrom math import fsum\n"
        "class P:\n    __slots__ = ('a', '_b')\n"
        "def f(ws, xs):\n    s = math.fsum(w for w in ws)\n    t = fsum([x for x in xs])\n"
        "    return math.fsum(ws.tolist()) + fsum(xs[1:]) + s + t\n"
    )
    tree = ast.parse(code)
    assert sorted(_fsum_over_comprehensions(tree)) == [6, 7]
    assert _class_slots(tree, "P") == ["a", "_b"]
    assert _class_slots(tree, "Q") == []


def test_chunk_layout_and_weights_have_one_array_form():
    # the per-user forms (a tuple of chunk tuples, one Python float per
    # weight summed from a generator) must not come back
    entropy = ast.parse((SRC / "entropy.py").read_text(encoding="utf-8"))
    graph = ast.parse((SRC / "graph.py").read_text(encoding="utf-8"))
    assert list(_fsum_over_comprehensions(entropy)) == []
    slots = _class_slots(graph, "Partition")
    assert "_chunk_flat" in slots and "chunks" not in slots
    for tree in (entropy, graph):
        assert not any(isinstance(n, ast.Attribute) and n.attr == "chunks" for n in ast.walk(tree))
