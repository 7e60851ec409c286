"""No module of the package or the test suite imports a name it never uses,
no module of the package imports from the package inside a function, no
private helper of the package is left without a caller, no keyword-only
option of the package is left that no caller sets, no public module-level
function, class or constant of the package is left that nothing reads, and
no public member of a package class is left that nothing reads.  Exactly one
function of the package steps a trace across glued edges, and no module of
the package writes mpmath's process-global precision."""

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
    module; listing it in ``__all__`` (a re-export) does not count."""
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_unused_imports():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == [(1, "os"), (3, "w"), (3, "y")]


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
    """How often each name is read, as a name or an attribute; assignments
    to a name are not reads."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store)
    )


def _reads(trees, others: list[str]) -> Counter:
    """``_referenced_names`` summed over parsed ``trees`` and ``others`` sources."""
    reads = Counter()
    for tree in [*trees, *map(ast.parse, others)]:
        reads += _referenced_names(tree)
    return reads


def dead_helpers(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module:name`` of every module-level ``_private`` function or class of
    ``modules`` that no source in ``modules`` or ``others`` refers to outside
    its own definition.

    A reference is a name or an attribute with the helper's name; uses inside
    the helper's own body (recursion) do not count."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = _reads(trees.values(), others)
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


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class, or
    the plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unread_names(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module:name`` of every public module-level function, class or
    constant of ``modules`` that no source in ``modules`` or ``others`` reads.

    The read rule is that of ``unread_members``: a loaded name or attribute
    with the definition's name; reads inside the definition itself do not
    count, and neither do assignments or imports."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = _reads(trees.values(), others)
    return [
        f"{name}:{defined}"
        for name, tree in trees.items()
        for node in tree.body
        for defined in _defined_names(node)
        if not defined.startswith("_") and reads[defined] == _referenced_names(node)[defined]
    ]


def test_scanner_flags_unread_names():
    module = (
        "import os\n"
        "A = 1\nB: int = 2\nC = B + 1\n_D = 0\n"
        "def f(k):\n    return f(k - 1) if k else 0\n"
        "def g():\n    return C\n"
        "class K:\n    pass\n"
        "class L:\n    pass\n"
        "__all__ = ['A', 'K']\n"
    )
    assert unread_names({"m": module}, ["from m import A, L\nimport m\nm.g(L)\n"]) == [
        "m:A", "m:f", "m:K",
    ]


def test_no_unread_names():
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    readers = [p.read_text() for p in FILES if p.parent.name == "tests"]
    readers += [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unread_names(package, readers) == []


def unread_members(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module:Class.member`` for every public method, property or ``self.``
    attribute of a class of ``modules`` that no source in ``modules`` or
    ``others`` reads.

    A read is a loaded name or attribute with the member's name; a method's
    reads inside its own body do not count, and neither do assignments."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = _reads(trees.values(), others)
    unread = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            members = {}
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                members.setdefault(item.name, _referenced_names(item)[item.name])
                for node in ast.walk(item):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        members.setdefault(node.attr, 0)
            unread += [
                f"{name}:{cls.name}.{m}"
                for m, own in members.items()
                if not m.startswith("_") and reads[m] == own
            ]
    return unread


def test_scanner_flags_unread_members():
    module = (
        "class A:\n"
        "    def __init__(self):\n        self.x = 1\n        self.y = 2\n        self._z = 3\n"
        "    @property\n    def p(self):\n        return self.y\n"
        "    def m(self, k):\n        return self.m(k - 1) if k else 0\n"
        "    def used(self):\n        pass\n"
        "A().used()\n"
    )
    assert unread_members({"m": module}, ["y = 0\nprint(y)\n"]) == [
        "m:A.x", "m:A.p", "m:A.m",
    ]


def test_no_unread_members():
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    readers = [p.read_text() for p in FILES if p.parent.name == "tests"]
    readers += [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unread_members(package, readers) == []


def _own_nodes(func: ast.AST):
    """The nodes of a function's body, without those of functions nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def glue_stepping_functions(modules: dict[str, str]) -> list[str]:
    """``module:function`` of every function with a loop that both calls
    ``exit_through_face`` and reads ``glue`` or ``glue_shift``: a loop that
    walks a straight line from face to face across glued edges."""
    found = []
    for name, source in modules.items():
        for func in ast.walk(ast.parse(source)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for loop in _own_nodes(func):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                calls = {_callee(n) for n in ast.walk(loop) if isinstance(n, ast.Call)}
                names = _referenced_names(loop)
                if "exit_through_face" in calls and (names["glue"] or names["glue_shift"]):
                    found.append(f"{name}:{func.name}")
                    break
    return found


def test_scanner_flags_glue_stepping_loops():
    module = (
        "def a(S, f, p):\n    for _ in range(9):\n        q, h = exit_through_face(S, f, p)\n"
        "        f, p = S.glue[h][0], q\n"
        "def b(S, f, p):\n    for _ in range(9):\n        exit_through_face(S, f, p)\n"
        "def c(S, h):\n    t = S.glue_shift[h]\n    while t:\n        t = exit_through_face(S, t)\n"
        "def d(S):\n    def e(p):\n        while p:\n"
        "            p = exit_through_face(S, p) + S.glue_shift[p]\n    return e\n"
        "def g(S):\n    return [S.glue_shift[h] for h in walk(S)]\n"
    )
    assert glue_stepping_functions({"m": module}) == ["m:a", "m:e"]


def test_one_glue_stepping_loop():
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    assert len(glue_stepping_functions(package)) == 1, glue_stepping_functions(package)


_PRECISION_CALLS = ("workprec", "workdps", "extraprec", "extradps")
_PRECISION_OWNERS = ("mpmath", "mpmath.mp", "mp", "iv")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def global_precision_writes(source: str) -> list[int]:
    """Lines that write mpmath's process-global precision: a call of
    ``workprec``, ``workdps``, ``extraprec`` or ``extradps``, or an
    assignment to ``prec`` or ``dps``, on ``mpmath``, ``mpmath.mp``, ``mp``
    or ``iv``.  A private ``mpmath.MPContext`` may set its own."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target, names = node.func, _PRECISION_CALLS
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            target, names = node, ("prec", "dps")
        else:
            continue
        if target.attr in names and _dotted(target.value) in _PRECISION_OWNERS:
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_flags_global_precision_writes():
    source = (
        "import mpmath\nfrom mpmath import iv, mp\n"
        "with mpmath.workprec(80):\n    pass\n"
        "mpmath.mp.dps = 30\n"
        "iv.prec = 53\n"
        "mp.prec += 10\n"
        "f = mpmath.extradps(5)(g)\n"
        "ctx = mpmath.MPContext()\nctx.prec = 80\n"
        "with ctx.workprec(90):\n    p = mp.prec\n"
        "x = mpmath.mpf(1)\n"
    )
    assert global_precision_writes(source) == [3, 5, 6, 7, 8]


def test_global_precision_written_in_hyperbolic_only():
    writers = [
        p.name for p in FILES if p.parent.name == "kvol" and global_precision_writes(p.read_text())
    ]
    assert set(writers) <= {"hyperbolic.py"}, writers


def test_global_precision_never_written():
    writers = [
        p.name for p in FILES if p.parent.name == "kvol" and global_precision_writes(p.read_text())
    ]
    assert writers == []
