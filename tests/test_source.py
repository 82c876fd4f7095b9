"""Static checks over the package source, in place of a linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qorsim"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, as "line: name". A name
    listed in __all__ counts as read, and an import whose line carries
    "# noqa: F401" is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_finder_sees_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps as d, loads\n"
        "from re import compile  # noqa: F401\n"
        "from sys import argv\n"
        "__all__ = ['argv']\n"
        "x = os.path.join(math.pi, d)\n"
    )
    assert unused_imports(source) == ["4: loads"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private names ("_x", not dunder) that a module binds at top level and
    that nothing reads, as "module:line: name"; ``sources`` maps module
    names to source. The module itself reads a name by loading it in any
    scope (so a local of the same name hides a miss); another module reads
    it by importing it from the module or as an attribute of the module's
    name. A name of the same spelling in another module does not count."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, stmt.lineno, n) for n in names
                        if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                source_module = node.module.split(".")[-1]
                read.update((source_module, alias.name) for alias in node.names)
    return [f"{module}:{line}: {name}" for module, line, name in defined
            if (module, name) not in read]


def test_private_finder_sees_unused_and_reads_across_modules():
    sources = {
        "a": (
            "import b\n"
            "_LEFT = 1\n"
            "_USED, _PAIR = 2, 3\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Box:\n"
            "    pass\n"
            "x = b._via_attr\n"
        ),
        "b": (
            "from .a import _Box\n"
            "_via_attr = 4\n"
            "_TABLE: list = []\n"
            "_USED = 5\n"
        ),
    }
    # a reads b._via_attr and b imports a._Box; a reads only its own _USED.
    assert unused_private_names(sources) == [
        "a:2: _LEFT", "a:3: _PAIR", "a:5: _helper", "b:3: _TABLE", "b:4: _USED",
    ]


def test_no_unused_private_names():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def unused_private_methods(sources: dict[str, str]) -> list[str]:
    """Methods (not dunder) of top-level private classes ("class _X") that
    no module reads as an attribute, as "module:line: _X.name"; ``sources``
    maps module names to source. A read of an attribute of that name on any
    object, in any module, counts."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name.startswith("_"):
                defined += [
                    (module, f.lineno, stmt.name, f.name) for f in stmt.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (f.name.startswith("__") and f.name.endswith("__"))
                ]
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return [f"{module}:{line}: {cls}.{name}" for module, line, cls, name in defined
            if name not in read]


def test_private_method_finder_sees_unused_and_reads_across_modules():
    sources = {
        "a": (
            "class _Box:\n"
            "    def __init__(self):\n"
            "        self.n = self._count()\n"
            "    def _count(self):\n"
            "        return 1\n"
            "    def left(self):\n"
            "        return 2\n"
            "    def shared(self):\n"
            "        return 3\n"
            "class Public:\n"
            "    def unread(self):\n"
            "        return 4\n"
        ),
        "b": (
            "from .a import _Box\n"
            "def f(box):\n"
            "    return box.shared()\n"
            "class _Sized:\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def _spare(self):\n"
            "        return _Box\n"
            "x = _Sized().size\n"
        ),
    }
    # b reads a's shared; dunders and public classes are not listed.
    assert unused_private_methods(sources) == ["a:6: _Box.left", "b:10: _Sized._spare"]


def test_no_unused_private_methods():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_methods(sources) == []
