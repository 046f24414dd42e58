"""Static checks, with the stdlib ``ast`` module only: every name a module
of the package imports is used in that module, every module-level private
helper is used somewhere in the package, every public one is named by code
outside the tests, every defaulted parameter is passed by some caller, the
library entry points of a run declare no default, and one module owns the
process's native settings."""

import ast
from pathlib import Path

import pytest

import fpt

_MODULES = sorted(Path(fpt.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nnp.zeros(a)\n"
    assert _unused_imports(source) == ["line 3: b", "line 1: os"]


def _unnamed_defs(sources: dict[str, str], defining, private: bool) -> dict[str, list[str]]:
    """Per module of ``defining`` (keys of ``sources``), the module-level
    functions and classes, ``_``-prefixed when ``private`` and public
    otherwise, that no code in ``sources`` names outside their own
    definition."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    names_in = {}  # top-level statement -> every name it reads, imports or looks up
    for tree in trees.values():
        for stmt in tree.body:
            nodes = list(ast.walk(stmt))
            names_in[stmt] = (
                {n.id for n in nodes if isinstance(n, ast.Name)}
                | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
            )
    return {
        mod: [
            stmt.name
            for stmt in trees[mod].body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") == private
            and not stmt.name.startswith("__")
            and not any(stmt.name in names for other, names in names_in.items() if other is not stmt)
        ]
        for mod in defining
    }


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used_in_the_package(path):
    sources = {p.name: p.read_text(encoding="utf-8") for p in _MODULES}
    assert _unnamed_defs(sources, sources, private=True)[path.name] == []


def test_the_check_sees_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\ndef _self_only():\n    return _self_only()\n"
        "class _Kept:\n    pass\n",
        "b.py": "from .a import _Kept\nfrom . import a\nx = a._used() or _Kept\n"
        "def _orphan():\n    pass\n",
    }
    assert _unnamed_defs(sources, sources, private=True) == {
        "a.py": ["_self_only"], "b.py": ["_orphan"]
    }


_CALLERS = [
    path
    for folder in ("src/fpt", "tests", "tools", "perfbench")
    for path in sorted((Path(__file__).resolve().parents[1] / folder).rglob("*.py"))
]


# Public names that only tests name: two metrics acceptance c11 audits
# against loop references, and the spike fixture of the anomaly tests.
_NAMED_BY_TESTS_ALONE = {"metrics.mase", "metrics.owa", "synthetic.inject_spikes"}


def test_every_public_name_is_named_outside_the_tests():
    """Each public module-level function and class of the package is named by
    the package, ``tools`` or ``perfbench`` outside its test files, so no
    copy of a rule survives for the tests alone."""
    sources = {
        str(p): p.read_text(encoding="utf-8")
        for p in _CALLERS
        if "tests" not in p.parts and not p.name.startswith("test_")
    }
    package = [mod for mod in sources if Path(mod).parent.name == "fpt"]
    found = _unnamed_defs(sources, package, private=False)
    unnamed = {f"{Path(mod).stem}.{name}" for mod, names in found.items() for name in names}
    assert sorted(unnamed - _NAMED_BY_TESTS_ALONE) == []


def test_the_check_sees_an_unnamed_public_def():
    sources = {
        "a.py": "def used():\n    pass\ndef self_only():\n    return self_only()\n"
        "class Kept:\n    pass\ndef _private():\n    pass\n",
        "b.py": "from .a import Kept\nfrom . import a\nx = a.used() or Kept\n"
        "def unnamed():\n    pass\n",
    }
    assert _unnamed_defs(sources, ["a.py", "b.py"], private=False) == {
        "a.py": ["self_only"], "b.py": ["unnamed"]
    }


def _unpassed_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """``function(parameter)`` for every defaulted parameter of a ``def`` in
    ``defining`` that no call in ``calling`` passes by keyword, by position
    or through ``*``/``**``.  Calls match a def by name alone; a method's
    positions skip ``self``, and ``__init__`` is called by its class name."""
    passed = set()  # (callee name, a keyword, a position, "*" or "**")
    for source in calling:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            for i, arg in enumerate(call.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else i))
            passed.update((name, k.arg or "**") for k in call.keywords)
    unpassed = []
    for source in defining:
        tree = ast.parse(source)
        methods = {
            f: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
        }
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            name = methods[f] if f.name == "__init__" else f.name
            skip = int(f in methods)
            params = f.args.posonlyargs + f.args.args
            first = len(params) - len(f.args.defaults)
            defaulted = [(p.arg, i - skip) for i, p in enumerate(params) if i >= first]
            defaulted += [
                (p.arg, None) for p, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d
            ]
            for param, position in defaulted:
                if not {(name, param), (name, position), (name, "*"), (name, "**")} & passed:
                    unpassed.append(f"{f.name}({param})")
    return unpassed


def test_every_defaulted_parameter_is_passed_by_a_caller():
    sources = [p.read_text(encoding="utf-8") for p in _CALLERS]
    assert _unpassed_defaults([p.read_text(encoding="utf-8") for p in _MODULES], sources) == []


def test_the_check_sees_an_unpassed_default():
    defining = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        pass\n"
        "def g(u=0):\n    pass\n"
    )
    calling = "f(0, 1, e=5)\nK(1)\nk.m(z=2)\ng(*args)\n"
    assert _unpassed_defaults([defining], [calling]) == ["f(c)", "f(d)", "m(y)"]


# The entry points that take every run value from their caller, so that
# cli._SCHEMA and the analyze flags are the one home of a run default: per
# module, the functions and dataclasses named, and "*" for every public
# module-level function.
_TAKE_EVERY_VALUE = {
    "tasks.py": ("*", "TrainConfig"),
    "data.py": ("few_shot_subset", "WindowSpec"),
    "metrics.py": ("prf1",),
    "backbone.py": ("mix_weights",),
    "synthetic.py": ("donor_values",),
}


def _declared_defaults(source: str, names) -> list[str]:
    """``function(parameter)`` for every defaulted parameter of a module-level
    function of ``source`` in ``names`` (or public, when ``names`` holds
    "*"), and ``Class.field`` for every field default of a class in
    ``names``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and (
            node.name in names or "*" in names and not node.name.startswith("_")
        ):
            args = node.args
            params = args.posonlyargs + args.args
            defaulted = params[len(params) - len(args.defaults) :]
            defaulted += [p for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{node.name}({p.arg})" for p in defaulted]
        elif isinstance(node, ast.ClassDef) and node.name in names:
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and f.value is not None]
            found += [f"{node.name}.{f.target.id}" for f in fields]
    return found


@pytest.mark.parametrize("module", _TAKE_EVERY_VALUE)
def test_run_entry_points_declare_no_default(module):
    source = (Path(fpt.__file__).parent / module).read_text(encoding="utf-8")
    assert _declared_defaults(source, _TAKE_EVERY_VALUE[module]) == []


def test_the_check_sees_a_declared_default():
    source = (
        "def run(a, b=1, *, c=2, d):\n    pass\n"
        "def _helper(x=0):\n    pass\n"
        "def other(y=0):\n    pass\n"
        "class Cfg:\n    e: int\n    f: int = 1\n    def g(self, h=0):\n        pass\n"
        "class Kept:\n    i: int = 1\n"
    )
    assert _declared_defaults(source, ("*", "Cfg")) == ["run(b)", "run(c)", "other(y)", "Cfg.f"]
    assert _declared_defaults(source, ("other", "_helper")) == ["_helper(x)", "other(y)"]


def _importers(sources: dict[str, str], module: str) -> list[str]:
    """The sources that import the top-level ``module``, in either form."""
    return sorted(
        {
            name
            for name, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == module for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and not node.level
            and node.module.split(".")[0] == module
        }
    )


def test_only_the_worker_imports_ctypes():
    """The heap thresholds and the OpenBLAS thread count are set in
    ``fpt.worker`` alone."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in _MODULES}
    assert _importers(sources, "ctypes") == ["worker.py"]


def test_the_check_sees_a_ctypes_import():
    sources = {
        "a.py": "import ctypes.util\nimport ctypes\n",
        "b.py": "from ctypes import CDLL\n",
        "c.py": "from . import ctypes\nimport os\n",
    }
    assert _importers(sources, "ctypes") == ["a.py", "b.py"]


_BUILTIN_ERRORS = {"ValueError", "TypeError", "KeyError", "IndexError"}


def _builtin_raises(source: str) -> list[str]:
    """``line N: Name`` for every ``raise`` of a builtin error in
    ``_BUILTIN_ERRORS``, called or bare."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in _BUILTIN_ERRORS:
                found.append(f"line {node.lineno}: {exc.id}")
    return found


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_module_raises_a_builtin_error(path):
    """The package raises its own ``FptError`` types, which the CLI maps to
    exit codes, never a bare ``ValueError``, ``TypeError``, ``KeyError`` or
    ``IndexError``."""
    assert _builtin_raises(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_builtin_raise():
    source = "raise ValueError('x')\nraise KeyError\nraise InvalidInput('y')\nraise\n"
    assert _builtin_raises(source) == ["line 1: ValueError", "line 2: KeyError"]
