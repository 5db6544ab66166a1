"""The trusted core (see the package docstring) imports only itself, and
none of its functions calls itself; outside it, the functions that call
themselves are listed, and the list may only shrink.

Imports are read from each core module's source with `ast`, so an import
made inside a function, or one that another module happens to have loaded
already, counts the same as one at the top.  Calls are read the same way,
so a core walk that recursed once per level of its input, and so failed on
deep input under the default recursion limit, is found without building
such an input.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
import typing
from pathlib import Path

import pytest

import cyclarith

CORE = ("sexpr", "syntax", "calculus", "records", "annotation", "checker")


def _outside_imports(source: str):
    """The modules a source imports that are neither the core nor the
    standard library, as absolute names."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module == "cyclarith":
                # `from . import m` names modules; `from .m import f` names m
                subs = [node.module] if node.level and node.module \
                    else [alias.name for alias in node.names]
                names = [f"cyclarith.{sub}" for sub in subs]
            else:
                names = [node.module]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "cyclarith":
                if rest.split(".")[0] not in CORE:
                    bad.append(name)
            elif top not in sys.stdlib_module_names:
                bad.append(name)
    return bad


@pytest.mark.parametrize("name", CORE)
def test_core_module_imports_only_the_core(name):
    path = Path(cyclarith.__file__).parent / f"{name}.py"
    assert _outside_imports(path.read_text()) == []


def test_outside_imports_are_found():
    source = ("from __future__ import annotations\nimport re, weakref\n"
              "from . import sexpr, semantics\nfrom .calculus import walk\n"
              "def f():\n    from .uncycle import extract_all\n"
              "import hypothesis\nfrom cyclarith.syntax import V\n"
              "from cyclarith import builders, checker\nimport cyclarith.derived\n")
    assert _outside_imports(source) == [
        "cyclarith.semantics", "hypothesis", "cyclarith.builders",
        "cyclarith.derived", "cyclarith.uncycle"]


def _core_names(source: str):
    """The (module, name) pairs a source takes from the core, sorted: by
    `from .m import name`, or as an attribute `m.name` of a core module it
    imported whole with `from . import m`."""
    modules, got = {}, set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        mod = node.module or ""
        if node.level or mod.partition(".")[0] == "cyclarith":
            mod = mod.removeprefix("cyclarith").removeprefix(".")
            if mod in CORE:
                got |= {(mod, alias.name) for alias in node.names}
            elif not mod:
                modules.update({alias.asname or alias.name: alias.name
                                for alias in node.names if alias.name in CORE})
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            got.add((modules[node.value.id], node.attr))
    return sorted(got)


def test_core_names_are_found():
    source = ("from . import sexpr, semantics as sem\nfrom .checker import validate, _vset\n"
              "from cyclarith.annotation import propagate\nfrom .uncycle import extract_all\n"
              "def f(t):\n    return sexpr.parse(t), sem.eval_formula\n")
    assert _core_names(source) == [("annotation", "propagate"), ("checker", "_vset"),
                                   ("checker", "validate"), ("sexpr", "parse")]


def test_uncycle_takes_no_annotation_judgement_from_the_core():
    # whether a cycle keeps its annotation is validate's to judge: extraction
    # neither propagates annotations nor reaches into the core's private names
    path = Path(cyclarith.__file__).parent / "uncycle.py"
    names = [name for _, name in _core_names(path.read_text())]
    assert "validate" in names
    assert [name for name in names if name == "propagate" or name.startswith("_")] == []


def _self_reaching(source: str):
    """The functions of a source that reach themselves in its call graph,
    sorted by name.

    The graph is over the source's own function names: a call `f(...)`,
    `self.f(...)` or `cls.f(...)` is an edge to every function named f, and
    a nested function's calls count for the function around it too.  Calls
    through other objects are not edges, nor is indexing: `sexpr._Blocks`
    recurses from `__missing__` through `self[...]`, which this cannot see,
    and is bounded there by BLOCK_DEPTH; `records.Record` reads and writes
    its nested records through the functions its slots hold, bounded by the
    depth of its template.
    """
    defs = [node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    calls = {d.name: set() for d in defs}
    for d in defs:
        for node in ast.walk(d):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name = f.id
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id in ("self", "cls"):
                name = f.attr
            else:
                continue
            if name in calls:
                calls[d.name].add(name)
    bad = []
    for name in sorted(calls):
        seen, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo += calls[callee]
        if name in seen:
            bad.append(name)
    return bad


@pytest.mark.parametrize("name", CORE)
def test_core_functions_do_not_recurse(name):
    path = Path(cyclarith.__file__).parent / f"{name}.py"
    assert _self_reaching(path.read_text()) == []


def test_self_reaching_functions_are_found():
    source = ("def walk(t):\n    return [walk(c) for c in t]\n"
              "def even(n):\n    return n == 0 or odd(n - 1)\n"
              "def odd(n):\n    return n != 0 and even(n - 1)\n"
              "def outer(t):\n    def inner(u):\n        return outer(u)\n"
              "    return inner(t)\n"
              "class Node:\n    def size(self):\n        return 1 + self.size()\n"
              "    def count(self, f):\n        return self.items.count(f)\n"
              "    def __new__(cls):\n        return object.__new__(cls)\n"
              "def caller():\n    return walk([]) + even(2)\n")
    assert _self_reaching(source) == ["even", "inner", "odd", "outer", "size", "walk"]


def test_core_dataclass_annotations_resolve():
    classes = []
    for name in CORE:
        module = importlib.import_module(f"cyclarith.{name}")
        classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    assert cyclarith.ProofNode in classes and cyclarith.Mode in classes
    for cls in classes:
        typing.get_type_hints(cls)


# Functions outside the core that still reach themselves; each is a walk
# that recurses once per level of its input.  The list may only shrink: a
# new recursive function fails the test below, and so does one made
# iterative without its name taken off here.
RECURSIVE_OUTSIDE_THE_CORE = {
    "builders": ["term"],
    "semantics": ["_compile", "_term_code"],
    "derived": [],
    "transform": [],
    "uncycle": [],
    "cli": [],
}


@pytest.mark.parametrize("name", sorted(RECURSIVE_OUTSIDE_THE_CORE))
def test_recursion_outside_the_core_only_shrinks(name):
    path = Path(cyclarith.__file__).parent / f"{name}.py"
    assert _self_reaching(path.read_text()) == RECURSIVE_OUTSIDE_THE_CORE[name]
