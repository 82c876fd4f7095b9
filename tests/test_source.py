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


def unused_options(package: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of public top-level functions that no call in
    ``callers`` passes, as "module.function(parameter)"; ``package`` maps
    module names to source. A call names the function as a plain name or
    as an attribute, of any object; it passes a parameter by keyword, or by
    position when it has more positional arguments than precede it. A call
    with *args passes every positional parameter and one with **kwargs
    every parameter."""
    options = []
    for module, source in package.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                continue
            a = stmt.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            options += [(module, stmt.name, p.arg, i)
                        for i, p in enumerate(positional) if i >= first]
            options += [(module, stmt.name, p.arg, None)
                        for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    passed = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            star = any(isinstance(arg, ast.Starred) for arg in node.args)
            for _, fname, param, i in options:
                if fname != name:
                    continue
                by_position = i is not None and (star or i < len(node.args))
                by_keyword = any(k.arg in (param, None) for k in node.keywords)
                if by_position or by_keyword:
                    passed.add((fname, param))
    return [f"{module}.{fname}({param})" for module, fname, param, _ in options
            if (fname, param) not in passed]


def test_option_finder_sees_unpassed_defaults():
    package = {
        "a": (
            "def f(x, y=1, *, z=2):\n"
            "    pass\n"
            "def g(p=0, r=0):\n"
            "    pass\n"
            "def k(s=0, /, t=0):\n"
            "    pass\n"
            "def m(u=0):\n"
            "    pass\n"
            "def _h(q=0):\n"
            "    pass\n"
            "class C:\n"
            "    def meth(self, w=0):\n"
            "        pass\n"
        ),
    }
    callers = [
        "from a import f, k\nf(1, 2)\nk(**opts)\n",
        "import a\na.g(r=3)\nb.m(*args)\n",
    ]
    assert unused_options(package, callers) == ["a.f(z)", "a.g(p)"]


# Options kept although no product code passes them: the console script
# calls main() without argv.
OPTIONS_ONLY_TESTS_SET = {"cli.main(argv)"}


def test_no_unused_options():
    root = PACKAGE.parents[1]
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text() for d in ("src", "bench", "tools")
               for p in sorted((root / d).rglob("*.py"))]
    assert sorted(unused_options(package, callers)) == sorted(OPTIONS_ONLY_TESTS_SET)


def unread_fields(package: dict[str, str], readers: list[str]) -> list[str]:
    """Fields of the dataclasses in ``package`` (module name to source)
    that no source in ``readers`` reads as an attribute, as
    "module.Class.field". A class is a dataclass when a decorator named
    dataclass, called or not, marks it; its fields are the names it
    annotates in its body. A load of an attribute of that name on any
    object counts as a read, except inside the defining class's own
    __post_init__, where a check of the field is no use of it; a store, or
    a name in a string, does not."""
    fields = []
    for module, source in package.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in marks):
                continue
            fields += [(module, cls.name, f.target.id) for f in cls.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    # Attribute name to the classes whose __post_init__ reads it, None
    # standing for a read anywhere else.
    read = {}
    for source in readers:
        tree = ast.parse(source)
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                 for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.setdefault(node.attr, set()).add(owner.get(id(node)))
    return [f"{module}.{cls}.{name}" for module, cls, name in fields
            if read.get(name, set()) <= {cls}]


def test_field_finder_sees_unread_fields():
    package = {
        "a": (
            "import dataclasses\n"
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Result:\n"
            "    value: float\n"
            "    echo: str\n"
            "    unit: str\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'echo', self.value)\n"
            "@dataclasses.dataclass\n"
            "class _Box:\n"
            "    size: int = 0\n"
            "    label: str = ''\n"
            "    result: Result = None\n"
            "    def __post_init__(self):\n"
            "        assert self.result.unit\n"
            "class Plain:\n"
            "    hint: int\n"
        ),
    }
    readers = [
        package["a"],
        "def f(box, r):\n    box.label = 'x'\n    return box.size + r.value\n",
    ]
    # echo is set through a string and label only stored; result is read
    # only in its own class's __post_init__, and unit in another's, which
    # counts; Plain is no dataclass.
    assert unread_fields(package, readers) == ["a.Result.echo", "a._Box.label", "a._Box.result"]


# Fields kept although no product code reads them: verify_cptp reports
# and never raises, so its report is its whole output.
FIELDS_ONLY_TESTS_READ = {
    "channels.CptpReport.completeness_residual",
    "channels.CptpReport.choi_min_eigenvalue",
    "channels.CptpReport.trace_preserving",
    "channels.CptpReport.completely_positive",
    "channels.CptpReport.valid",
}


def test_no_unread_fields():
    root = PACKAGE.parents[1]
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for d in ("src", "bench", "tools")
               for p in sorted((root / d).rglob("*.py"))]
    assert sorted(unread_fields(package, readers)) == sorted(FIELDS_ONLY_TESTS_READ)


def unread_route_keys(keys, sources: list[str]) -> list[str]:
    """Route keys that no source reads as ``params["KEY"]``: a load of a
    string subscript of a name or attribute called params. A key written
    in a dict display, as in the table itself, or stored, is not read."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                    and getattr(node.value, "id", getattr(node.value, "attr", None)) == "params"
                    and isinstance(node.slice, ast.Constant)):
                read.add(node.slice.value)
    return [key for key in keys if key not in read]


def test_route_key_finder_sees_unread_keys():
    sources = [
        'PARAMS = {"used": (1.0, "[0, 1]", "1", "read"), "listed": (False, "bool", "-", "")}\n'
        "def f(route, params, other):\n"
        '    params["stored"] = 1\n'
        '    return route.params["used"] + params.get("got") + other["other"]\n',
        'x = self.params["attr"]\n',
    ]
    keys = ["used", "listed", "stored", "got", "other", "attr"]
    assert unread_route_keys(keys, sources) == ["listed", "stored", "got", "other"]


def test_no_unread_route_keys():
    from qorsim.planner import PARAMS

    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_route_keys(PARAMS, sources) == []


@pytest.mark.parametrize("name", ["fiber.py", "qkd.py"])
def test_module_imports_no_numpy(name):
    # A span stack is the channel catalog's composition and a pair is four
    # floats, so these modules reach numpy only through qorsim's own.
    tree = ast.parse((PACKAGE / name).read_text())
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.level == 0}
    assert not {m for m in modules if m.split(".")[0] == "numpy"}
