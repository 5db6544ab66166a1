"""The trusted core (see the package docstring) imports only itself.

Imports are read from each core module's source with `ast`, so an import
made inside a function, or one that another module happens to have loaded
already, counts the same as one at the top.
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

CORE = ("sexpr", "syntax", "calculus", "annotation", "checker")


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


def test_core_dataclass_annotations_resolve():
    classes = []
    for name in CORE:
        module = importlib.import_module(f"cyclarith.{name}")
        classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    assert cyclarith.AnnotatedSequent in classes and cyclarith.Mode in classes
    for cls in classes:
        typing.get_type_hints(cls)
