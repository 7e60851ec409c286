"""No module of the package or the test suite imports a name it never uses,
no module of the package imports from the package inside a function or
imports a module of the test suite at any depth, no private helper of the
package is left without a caller, no keyword-only option of the package is
left that no caller sets, no public module-level function, class or
constant of the package is left that nothing reads, nor one that only the
tests read without README.md naming it, and the same holds for every public
member of a package class.  Exactly one function of the package
steps a trace across glued edges, exactly one outside ``kvol.intersect``
reads a form's chains or matrix (the pair scan's), and no module of the
package writes mpmath's process-global precision."""

from __future__ import annotations

import ast
import re
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


def imported_test_helpers(source: str, helpers: set[str]) -> list[tuple[int, str]]:
    """(line, name) of every import, at any depth, that names one of
    ``helpers`` (the stems of the test suite's files) as a module, a part of
    a dotted module path, or a name imported from a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        parts = [part for name in names for part in name.split(".")]
        found += [(node.lineno, part) for part in parts if part in helpers]
    return sorted(found)


def test_scanner_flags_test_helper_imports():
    source = (
        "import os\nfrom .field import CycloReal\n"
        "def f():\n    import intersect_oracle\n    return intersect_oracle.intersect\n"
        "def g():\n    if os:\n        from ngon_sectors import sector_index as s\n"
        "from tests import sqrt_oracle\nimport tests.conftest as c\n"
    )
    helpers = {"conftest", "intersect_oracle", "ngon_sectors", "sqrt_oracle"}
    assert imported_test_helpers(source, helpers) == [
        (4, "intersect_oracle"), (8, "ngon_sectors"), (9, "sqrt_oracle"), (10, "conftest"),
    ]


def test_no_test_helper_imports():
    helpers = {p.stem for p in FILES if p.parent.name == "tests"}
    assert "intersect_oracle" in helpers
    found = {
        p.name: imported_test_helpers(p.read_text(), helpers)
        for p in FILES
        if p.parent.name == "kvol"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


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


def readme_names(text: str) -> set[str]:
    """Every identifier that a Markdown text shows as library API: in a code
    span of a library-table row (a table row whose first cell is a
    ``kvol.<module>`` span) or in the code of a fenced block.  Code spans in
    prose and comments in blocks name nothing, and a module path
    ``kvol.<module>`` names no function of that module, so its parts are
    dropped."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    blocks = [re.sub(r"#.*", "", block) for block in blocks]
    rows = re.findall(r"^\| `kvol\.\w+` \|.*$", text, flags=re.M)
    spans = blocks + [span for row in rows for span in re.findall(r"`+([^`]+)`+", row)]
    return {
        word
        for span in spans
        for word in re.findall(r"[A-Za-z_]\w*", re.sub(r"\bkvol\.\w+", " ", span))
    }


def unreached_names(modules: dict[str, str], readme: str) -> list[str]:
    """``module:name`` of every public module-level function, class or
    constant of ``modules`` that no source in ``modules`` reads and that
    ``readme`` does not name in backticks.

    The rule: a public name of the library is read by the library, or it is
    library API.  Reads are those of ``unread_names``, from ``modules`` only;
    the tests and the benchmark do not count as readers, so a check or an
    oracle that only the tests read belongs under ``tests/``.  The allowlist
    is the README: a name it shows in backticks (``readme_names``), in the
    library overview or an example, is API, and its README line says what
    it is for."""
    named = readme_names(readme)
    return [entry for entry in unread_names(modules, []) if entry.split(":")[1] not in named]


def test_scanner_flags_unreached_names():
    module = (
        "def oracle(x):\n    return x\n"
        "def api(x):\n    return helper(x)\n"
        "def helper(x):\n    return x\n"
        "LIMIT = 3\n"
    )
    test = "from m import oracle, LIMIT\nassert oracle(LIMIT) == LIMIT\n"
    # a fenced block names api; plain prose names nothing
    readme = "Call it so:\n\n```python\nfrom m import api\n```\n\noracle and LIMIT\n"
    # tests count as readers for unread_names, not for unreached_names
    assert unread_names({"m": module}, [test]) == ["m:api"]
    assert unreached_names({"m": module}, readme) == ["m:oracle", "m:LIMIT"]
    # an inline code span in prose names nothing
    assert unreached_names({"m": module}, readme + "See `m.LIMIT`.\n") == ["m:oracle", "m:LIMIT"]
    # a code span in a library-table row names LIMIT
    row = "| Module | What it does |\n| --- | --- |\n| `kvol.m` | `LIMIT` caps it. |\n"
    assert unreached_names({"m": module}, readme + row) == ["m:oracle"]
    # a module path names no function of that module, nor does a comment
    row = "| `kvol.oracle` | The oracle module. |\n```sh\nrun  # LIMIT\n```\n"
    assert unreached_names({"m": module}, readme + row) == ["m:oracle", "m:LIMIT"]


def test_no_unreached_names():
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    assert unreached_names(package, (ROOT / "README.md").read_text()) == []


def test_unreached_names_flags_a_function_named_like_its_module():
    """The real sources and README, with an ``intersect`` that nothing in the
    library reads appended to ``kvol.intersect``: the README's
    ``kvol.intersect`` row names the module, not a function of it."""
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    package["intersect"] += "\n\ndef intersect(gamma, delta):\n    return 0\n"
    assert unreached_names(package, (ROOT / "README.md").read_text()) == ["intersect:intersect"]


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


def unreached_members(modules: dict[str, str], readme: str) -> list[str]:
    """``module:Class.member`` for every public method, property or ``self.``
    attribute of a class of ``modules`` that no source in ``modules`` reads
    and that ``readme`` does not name.

    The rule of ``unreached_names``, one level down: reads are those of
    ``unread_members``, from ``modules`` only, so the tests and the
    benchmark do not count as readers, and the allowlist is what
    ``readme_names`` finds in the library table and the fenced examples."""
    named = readme_names(readme)
    return [entry for entry in unread_members(modules, []) if entry.split(".")[-1] not in named]


def test_scanner_flags_unreached_members():
    module = (
        "class A:\n"
        "    def __init__(self):\n        self.x = 1\n        self.y = 2\n"
        "    @property\n    def p(self):\n        return self.x\n"
        "    def m(self, k):\n        return self.m(k - 1) if k else 0\n"
        "    def api(self):\n        pass\n"
        "    def used(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "A().used()\n"
    )
    test = "from m import A\nA().p\nA().m(1)\nA().y\n"
    readme = "```python\nA().api()\n```\n\nprose names m\n"
    # tests count as readers for unread_members, not for unreached_members
    assert unread_members({"m": module}, [test]) == ["m:A.api"]
    assert unreached_members({"m": module}, readme) == ["m:A.y", "m:A.p", "m:A.m"]
    # a code span in a library-table row names p
    row = "| Module | What it does |\n| --- | --- |\n| `kvol.m` | `A.p` reads x. |\n"
    assert unreached_members({"m": module}, readme + row) == ["m:A.y", "m:A.m"]


def test_no_unreached_members():
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    assert unreached_members(package, (ROOT / "README.md").read_text()) == []


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
    ``_exit_at_level`` and reads ``glue`` or ``glue_shift``: a loop that
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
                if "_exit_at_level" in calls and (names["glue"] or names["glue_shift"]):
                    found.append(f"{name}:{func.name}")
                    break
    return found


def test_scanner_flags_glue_stepping_loops():
    module = (
        "def a(S, f, p):\n    for _ in range(9):\n        q, h = _exit_at_level(S, f, p)\n"
        "        f, p = S.glue[h][0], q\n"
        "def b(S, f, p):\n    for _ in range(9):\n        _exit_at_level(S, f, p)\n"
        "def c(S, h):\n    t = S.glue_shift[h]\n    while t:\n        t = _exit_at_level(S, t)\n"
        "def d(S):\n    def e(p):\n        while p:\n"
        "            p = _exit_at_level(S, p) + S.glue_shift[p]\n    return e\n"
        "def g(S):\n    return [S.glue_shift[h] for h in walk(S)]\n"
    )
    assert glue_stepping_functions({"m": module}) == ["m:a", "m:e"]


def test_one_glue_stepping_loop():
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    assert len(glue_stepping_functions(package)) == 1, glue_stepping_functions(package)


_FORM_INTERNALS = ("coord_rows", "matrix")


def form_internals_readers(modules: dict[str, str]) -> list[str]:
    """``module:function`` of every function, lambda or module body outside
    ``intersect`` that reads an attribute ``coord_rows`` or ``matrix``: a
    place that multiplies a form's chains itself rather than through the
    pair scan."""
    found = []
    for name, source in modules.items():
        if name == "intersect":
            continue
        tree = ast.parse(source)
        scopes = [("<module>", tree)] + [
            (getattr(node, "name", "<lambda>"), node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]
        for scope, node in scopes:
            if any(
                isinstance(n, ast.Attribute) and n.attr in _FORM_INTERNALS
                for n in _own_nodes(node)
            ):
                found.append(f"{name}:{scope}")
    return found


def test_scanner_flags_form_internals_readers():
    module = (
        "C = form.coord_rows(curves)\n"
        "def a(form, c):\n    return c @ form.matrix @ c\n"
        "def b(form):\n    def inner(c):\n        return form.coord_rows(c)\n    return inner\n"
        "def c(form, x, y):\n    return form.pair(x, y)\n"
        "class K:\n    def m(self):\n        return sorted(self.items, key=lambda f: f.matrix)\n"
    )
    assert form_internals_readers({"m": module}) == ["m:<module>", "m:a", "m:inner", "m:<lambda>"]
    assert form_internals_readers({"intersect": module}) == []


def test_one_reader_of_form_internals():
    # the pair scan is the one engine that multiplies chains by the form
    package = {p.stem: p.read_text() for p in FILES if p.parent.name == "kvol"}
    assert form_internals_readers(package) == ["ratios:_ratio_blocks"]


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


def test_global_precision_never_written():
    writers = [
        p.name for p in FILES if p.parent.name == "kvol" and global_precision_writes(p.read_text())
    ]
    assert writers == []
