"""No module of the package or the test suite imports a name it never uses,
no module of the package imports from the package inside a function, no
private helper of the package is left without a caller, and no keyword-only
option of the package is left that no caller sets."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "kvol").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that the module never loads.

    A name counts as used when it appears as an identifier anywhere in the
    module or is listed in ``__all__`` (a re-export)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_unused_and_keeps_reexports():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == [(1, "os"), (3, "w")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def local_package_imports(source: str) -> list[int]:
    """Lines of every relative import that is not a module-level statement."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top
    )


def test_scanner_flags_local_package_imports():
    source = "from .a import b\nimport os\ndef f():\n    from .c import d\n    import json\n"
    assert local_package_imports(source) == [4]


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.parent.name == "kvol"], ids=lambda p: p.name
)
def test_no_local_package_imports(path):
    assert local_package_imports(path.read_text()) == []


def _referenced_names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def dead_helpers(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module:name`` of every module-level ``_private`` function or class of
    ``modules`` that no source in ``modules`` or ``others`` refers to outside
    its own definition.

    A reference is a name or an attribute with the helper's name; uses inside
    the helper's own body (recursion) do not count."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        refs += _referenced_names(tree)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and refs[node.name] == _referenced_names(node)[node.name]
            ):
                dead.append(f"{name}:{node.name}")
    return dead


def test_scanner_flags_dead_helpers():
    module = (
        "def _a():\n    return _a()\n"
        "def _b(): pass\n"
        "class _C: pass\n"
        "def f():\n    return _b\n"
    )
    assert dead_helpers({"m": module}, ["import m\nm._C()\n"]) == ["m:_a"]


def test_no_dead_private_helpers():
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    tests = [p.read_text() for p in FILES if p.parent.name == "tests"]
    assert dead_helpers(package, tests) == []


def _callee(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def unused_options(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module:callable(option=)`` for every keyword-only parameter of a
    function, method or class (``__init__``) of ``modules`` that no call in
    ``modules`` or ``others`` passes.

    A call matches by the callee's name.  Forwarding, ``option=option``,
    does not count as setting the option, and neither does ``**kwargs``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    options = []
    for name, tree in trees.items():
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[id(item)] = node.name if item.name == "__init__" else item.name
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = methods.get(id(node), node.name)
                options += [(name, callee, a.arg) for a in node.args.kwonlyargs]
    passed = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                passed |= {
                    (_callee(node), kw.arg)
                    for kw in node.keywords
                    if kw.arg and not (isinstance(kw.value, ast.Name) and kw.value.id == kw.arg)
                }
    return [f"{m}:{c}({o}=)" for m, c, o in options if (c, o) not in passed]


def test_scanner_flags_unused_options():
    module = (
        "def f(x, *, a=1, b=2, c=3):\n    return g(c=c)\n"
        "def g(*, c=0): pass\n"
        "class K:\n    def __init__(self, *, d=0): pass\n    def m(self, *, e=0): pass\n"
        "f(1, a=2, **{})\n"
    )
    assert unused_options({"m": module}, ["import m\nm.K(d=1)\n"]) == [
        "m:f(b=)", "m:f(c=)", "m:g(c=)", "m:m(e=)",
    ]


def test_no_unused_options():
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    callers = [p.read_text() for p in FILES if p.parent.name == "tests"]
    callers += [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unused_options(package, callers) == []
