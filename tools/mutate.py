"""Mutation check of the kernel's judgement functions.

Each mutant changes one condition of one judgement function: an `if` test
made False (the guard deleted) or True, an operand dropped from `and` or
`or`, a `not` dropped, a comparison turned into its neighbour (`==` and
`!=`, `<` and `<=`, `in` and `not in`, `is` and `is not`), or an exception
class dropped from an `except` clause, which then lets it through.  For each
mutant the tier-1 suite runs with `-x` against a copy of `src/`, `tests/`
and the files the tests read in a temporary directory, so the working tree
is never changed.  As many mutants run at once as the process has CPUs,
each in its own copy.  A mutant is killed when a test fails or the run
times out, and survives when every test passes.  A surviving mutant is
either a gap in the tests or an equivalent mutant, one that cannot change
any result.  A control run of the unmutated code, as `ast.unparse` writes it
back, goes first.

    python3 tools/mutate.py src/cyclarith/checker.py [TARGET ...]
    python3 tools/mutate.py calculus.premises_of calculus.Sequent.remove_one

A target is a module, given by its path or its name (`checker`), whose
judgement functions `JUDGEMENTS` lists; or one function of a module in
`src/cyclarith`, `module.function` or `module.Class.method`, listed there or
not.  The closing summary gives killed and surviving mutants per function
and per module.

Only `ast` and the standard library are used.  Test files run in the order
below, the ones that judge proofs first, so that a mutant is usually killed
early; the set of tests is the whole tier-1 suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 900   # seconds: a mutant that loops forever is killed, not waited for

# The judgement functions of each module; "Class.method" names a method.
JUDGEMENTS = {
    "checker": ["validate", "_check_local", "_check_leaf", "_crosses_case_right",
                "_path_down"],
    "annotation": ["propagate", "Mode.in_restriction"],
    "calculus": ["premises_of", "check_step", "is_axiom", "_node_id", "_node_from_sexpr",
                 "Sequent.remove_one", "Sequent.minus"],
    "syntax": ["negate", "substitute", "is_in", "ident_var"],
}
FIRST = ("test_checker.py", "test_calculus.py", "test_annotation.py", "test_acceptance.py",
         "test_transform.py", "test_uncycle.py", "test_cli.py")
FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
        ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}


def _functions(tree: ast.Module, names):
    """(name, definition) of each function of tree that names lists, a
    method named "Class.method"."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{f.name}", f) for f in node.body
                    if isinstance(f, ast.FunctionDef) and f"{node.name}.{f.name}" in names]
    return out


def _sites(func: ast.FunctionDef):
    """(node, change, label) for every condition of func: change() makes
    the mutant in place and returns a function that undoes it."""
    parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(func):
        if isinstance(node, ast.If):
            for value in (False, True):
                yield node, _setter(node, "test", ast.Constant(value)), f"if -> {value}"
        elif isinstance(node, ast.BoolOp):
            word = "and" if isinstance(node.op, ast.And) else "or"
            for i in range(len(node.values)):
                kept = node.values[:i] + node.values[i + 1:]
                new = kept[0] if len(kept) == 1 else ast.BoolOp(node.op, kept)
                yield node, _replace(parents[node], node, new), \
                    f"drop operand {i + 1} of {word}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, _replace(parents[node], node, node.operand), "drop not"
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIP:
                    ops = node.ops[:i] + [FLIP[type(op)]()] + node.ops[i + 1:]
                    yield node, _setter(node, "ops", ops), \
                        f"{type(op).__name__} -> {FLIP[type(op)].__name__}"
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for i, kind in enumerate(caught):
                kept = ast.Tuple(caught[:i] + caught[i + 1:], ast.Load())
                yield node, _setter(node, "type", kept), f"except drops {ast.unparse(kind)}"


def _setter(node, field, value):
    def change():
        old = getattr(node, field)
        setattr(node, field, value)
        return lambda: setattr(node, field, old)
    return change


def _replace(parent, node, new):
    """A change that puts new where node stands in parent."""
    for field, value in ast.iter_fields(parent):
        if value is node:
            return _setter(parent, field, new)
        if isinstance(value, list) and any(v is node for v in value):
            i = next(k for k, v in enumerate(value) if v is node)
            return _setter(parent, field, value[:i] + [new] + value[i + 1:])
    raise ValueError("node not under parent")


def mutants(path: Path, names):
    """(function, line:column, label, source) for each mutant of the
    functions names lists in path."""
    tree = ast.parse(path.read_text())
    for name, func in _functions(tree, names):
        for node, change, label in list(_sites(func)):
            undo = change()
            mutated = ast.unparse(tree)
            undo()
            yield name, f"{node.lineno}:{node.col_offset + 1}", label, mutated


def targets(args) -> dict:
    """Module path -> the function names to mutate in it, from the targets
    of the command line (see the module docstring)."""
    out: dict = {}
    for arg in args:
        if arg.endswith(".py"):
            path, names = Path(arg).resolve(), None
        else:
            module, _, name = arg.partition(".")
            path, names = ROOT / "src" / "cyclarith" / f"{module}.py", [name] if name else None
        if not path.is_file():
            raise SystemExit(f"no module {arg}")
        if names is None:
            names = JUDGEMENTS.get(path.stem)
            if names is None:
                raise SystemExit(f"{path.stem} has no judgement functions; name one")
        found = [n for n, _ in _functions(ast.parse(path.read_text()), names)]
        missing = [n for n in names if n not in found]
        if missing:
            raise SystemExit(f"{path.stem} has no function {missing[0]}")
        out.setdefault(path, [])
        out[path] += [n for n in names if n not in out[path]]
    return out


def _copy() -> Path:
    work = Path(tempfile.mkdtemp(prefix="mutate-"))
    for sub in ("src", "tests", "tools"):     # test_pairs reads tools/pairs.py
        shutil.copytree(ROOT / sub, work / sub,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    for name in ("pyproject.toml", "README.md"):     # tests read both
        shutil.copy(ROOT / name, work / name)
    return work


def _tests(work: Path):
    names = sorted(p.name for p in (work / "tests").glob("test_*.py"))
    return [f"tests/{n}" for n in FIRST if n in names] + \
        [f"tests/{n}" for n in names if n not in FIRST]


def run(work: Path):
    """(outcome, detail) of the tier-1 suite in work: killed or survived."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *_tests(work)]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed", "timeout"
    if done.returncode == 0:
        return "survived", ""
    failed = [line.split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"exit {done.returncode}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("targets", nargs="+", metavar="TARGET")
    chosen = targets(p.parse_args(argv).targets)
    paths = list(chosen)
    todo = [(path, m) for path in paths for m in mutants(path, chosen[path])]
    print(f"{len(todo)} mutants", flush=True)
    copies = [_copy() for _ in os.sched_getaffinity(0)]     # one mutant per CPU at once
    free: queue.SimpleQueue = queue.SimpleQueue()     # the copies no mutant is using
    for work in copies:
        free.put(work)

    def one(item):
        path, (func, line, label, source) = item
        work = free.get()
        target = work / path.relative_to(ROOT)
        start = time.monotonic()
        try:
            target.write_text(source)
            outcome, detail = run(work)
        finally:
            shutil.copy(path, target)
            free.put(work)
        print(f"{path.name}:{line} {func}: {label}: {outcome} {detail} "
              f"({time.monotonic() - start:.0f} s)", flush=True)
        return path.name, func, outcome

    try:
        # the control: each module as ast.unparse writes it back, unmutated
        for path in paths:
            control = ast.unparse(ast.parse(path.read_text()))
            (copies[0] / path.relative_to(ROOT)).write_text(control)
        outcome, detail = run(copies[0])
        for path in paths:
            shutil.copy(path, copies[0] / path.relative_to(ROOT))
        if outcome != "survived":
            print(f"the unmutated code fails: {detail}")
            return 1
        with ThreadPoolExecutor(len(copies)) as pool:
            results = list(pool.map(one, todo))
    finally:
        for work in copies:
            shutil.rmtree(work, ignore_errors=True)
    for path in paths:
        for func in chosen[path] + [None]:
            outcomes = [outcome for name, f, outcome in results
                        if name == path.name and func in (None, f)]
            print(f"{path.stem}{'.' + func if func else ''}: {outcomes.count('killed')} "
                  f"killed, {outcomes.count('survived')} survived of {len(outcomes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
