"""Inputs and operation lists for the three workloads.

Each workload turns a seed into a fixed list of operations. An operation is
one argv for cyclarith.cli.main plus its known answer (see oracle.py). All
inputs are written under the run's work directory during set-up; the
program under test only ever sees those files and argv strings.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List

import oracle
from oracle import FILE, STDERR, STDOUT, Expect

WORKLOADS = ("corpus-uncycle", "corpus-cyclic", "ground-ladder")

# The corpus workloads always use these `examples` corpora, so that the load
# does not depend on the seed: the random files of a corpus vary 30-fold in
# size and their `uncycle` from 6 ms to 2 s. The workload seed orders the
# operations and draws the mutants.
UNCYCLE_EXAMPLES = (3,)
# One operation of 7-10 s cannot be timed steadily on a shared machine: over
# ten runs its fastest pass ranged from 6.8 to 10.5 s (see bench/README.md).
UNCYCLE_SKIP = ("ind_schema_pi3.cyc",)
CYCLIC_EXAMPLES = (1, 2, 3)
UNRAVEL_DEPTH = 10   # the CLI default

# ground-ladder rungs. They are fixed so that the load does not depend on the
# seed: the true equations are k+k=2k and r*r=r^2, whose proof size depends
# on both operands; the seed draws the false equations and the split of each
# deep eval term, which barely change the cost. File size grows about
# cubically in the rung, so `check` takes 0.25 s at k=20, 0.45 s at k=24 and
# 2.4 s at k=32; the top rungs stay low so that a run holds over a dozen
# passes (see bench/README.md). Rungs are close together so that no wide gap
# in latency falls at the median operation.
ADD_RUNGS = tuple(range(2, 21, 2))
ANNOTATE_RUNGS = (4, 8, 12, 16)          # add proofs also annotated and checked
MUL_RUNGS = (2, 3, 4)
EVAL_DEPTHS = (1000, 2000, 4000, 8000, 15000)


@dataclass
class Op:
    argv: List[str]
    expect: Expect
    kind: str           # subcommand, or "mutant" for check on a mutant
    size: int           # input size in characters
    depth: int = 0      # term depth, for eval operations
    standalone: bool = True  # False when it reads another operation's output


def run_cli(argv) -> int:
    """cyclarith.cli.main with both output streams captured and dropped."""
    from cyclarith import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def build(workload: str, seed: int, work: Path, write: bool = True) -> List[Op]:
    """The operation list; with write=False the inputs must already be in work."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "corpus-uncycle":
        return _corpus_uncycle(seed, work, write)
    if workload == "corpus-cyclic":
        return _corpus_cyclic(seed, work, write)
    return _ground_ladder(seed, work)


def _examples(seed: int, outdir: Path, write: bool):
    """`examples --seed seed` into outdir; yield (path, text, mode flags) per cyclic file."""
    if write and run_cli(["examples", str(outdir), "--seed", str(seed)]) != 0:
        raise RuntimeError(f"examples --seed {seed} failed")
    for line in (outdir / "MANIFEST").read_text(encoding="utf-8").splitlines():
        name, kind, system, level = line.split()
        if kind != "cyclic":
            continue
        path = outdir / name
        flags = ["--system", system, "--level", level]
        assume = path.with_suffix(".assume")
        if assume.exists():
            flags += ["--assume", str(assume)]
        yield path, path.read_text(encoding="utf-8"), flags


def _corpus_uncycle(seed: int, work: Path, write: bool) -> List[Op]:
    ops = []
    for k in UNCYCLE_EXAMPLES:
        for path, text, flags in _examples(k, work / f"corpus{k}", write):
            if path.name in UNCYCLE_SKIP:
                continue
            out = str(path) + ".cert"
            ops.append(Op(["uncycle", str(path), *flags, "--bound", "3", "--cutoff", "8",
                           "-o", out],
                          Expect(0, FILE, oracle.certificates(("bounded-true",
                                                               "bounded-unknown")), out),
                          "uncycle", len(text)))
    random.Random(seed).shuffle(ops)
    return ops


def _corpus_cyclic(seed: int, work: Path, write: bool) -> List[Op]:
    from cyclarith.calculus import parse_proof
    from cyclarith.transform import graph_of, render_graph
    rng = random.Random(seed)
    ops = []
    for k in CYCLIC_EXAMPLES:
        for path, text, flags in _examples(k, work / f"corpus{k}", write):
            p, n = str(path), len(text)
            graph = path.with_suffix(".graph")
            if write:
                graph.write_text(render_graph(graph_of(parse_proof(text))) + "\n",
                                 encoding="utf-8")
            ops += [
                Op(["check", p, *flags, "--format", "sexpr", "-o", p + ".rep"],
                   Expect(0, FILE, oracle.report_valid, p + ".rep"), "check", n),
                Op(["unravel", p, *flags, "--depth", str(UNRAVEL_DEPTH), "-o", p + ".unr"],
                   Expect(0, FILE, oracle.unfolding, p + ".unr"), "unravel", n),
                Op(["ravel", str(graph), *flags, "-o", p + ".rav"],
                   Expect(0, FILE, oracle.same_proof(text), p + ".rav"), "ravel", n),
                Op(["uncycle", p, *flags, "--no-check", "-o", p + ".cert"],
                   Expect(0, FILE, oracle.certificates(("unchecked",)), p + ".cert"),
                   "uncycle", n),
            ]
            for suffix, mutate, tag in (("retarget", oracle.retarget_backlink, "NotAncestor"),
                                        ("blank", oracle.blank_annotation, "Annotation")):
                made = mutate(text, rng)
                if made is None:
                    continue
                mtext, node = made
                mpath = f"{p}.{suffix}.cyc"
                if write:
                    Path(mpath).write_text(mtext, encoding="utf-8")
                ops.append(Op(["check", mpath, *flags, "--format", "sexpr",
                               "-o", mpath + ".rep"],
                              Expect(1, FILE, oracle.report_flags(node, tag), mpath + ".rep"),
                              "mutant", len(mtext)))
    rng.shuffle(ops)
    return ops


def numeral(n: int) -> str:
    return "(s " * n + "0" + ")" * n


def _ground_ladder(seed: int, work: Path) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []

    def prove(name: str, op: str, a: int, b: int, c: int) -> None:
        """prove-ground on `a op b = c`; a true goal's proof is then checked."""
        goal = f"(eq ({op} {numeral(a)} {numeral(b)}) {numeral(c)})"
        out = str(work / f"{name}.prf")
        true = (a + b if op == "add" else a * b) == c
        if not true:
            ops.append(Op(["prove-ground", goal, "-o", out],
                          Expect(1, STDERR, oracle.says("false;")), "prove-ground", len(goal)))
            return
        ops.append(Op(["prove-ground", goal, "-o", out],
                      Expect(0, FILE, oracle.proves(goal), out), "prove-ground", len(goal)))
        ops.append(Op(["check", out, "--format", "sexpr", "-o", out + ".rep"],
                      Expect(0, FILE, oracle.report_valid, out + ".rep"), "check",
                      len(goal), standalone=False))
        if op == "add" and b in ANNOTATE_RUNGS:
            ann = str(work / f"{name}.ann.prf")
            ops.append(Op(["annotate", out, "-o", ann],
                          Expect(0, FILE, oracle.proves(goal, annotated=True), ann),
                          "annotate", len(goal), standalone=False))
            ops.append(Op(["check", ann, "--format", "sexpr", "-o", ann + ".rep"],
                          Expect(0, FILE, oracle.report_valid, ann + ".rep"), "check",
                          len(goal), standalone=False))

    for k in ADD_RUNGS:
        prove(f"add{k}", "add", k, k, 2 * k)
        a, b = k + rng.choice((-1, 0, 1)), k + rng.choice((-1, 0, 1))
        prove(f"add{k}.false", "add", a, b, a + b + rng.choice((-1, 1)))
    for r in MUL_RUNGS:
        prove(f"mul{r}", "mul", r, r, r * r)
        a, b = r + rng.choice((0, 1)), r + rng.choice((0, 1))
        prove(f"mul{r}.false", "mul", a, b, a * b + rng.choice((-1, 1)))
    for d in EVAL_DEPTHS:
        a = rng.randrange(45 * d // 100, 55 * d // 100)
        b, c = d - a, d + rng.choice((-1, 0, 0, 1))
        formula = f"(eq (add {numeral(a)} {numeral(b)}) {numeral(c)})"
        ops.append(Op(["eval", formula], Expect(0, STDOUT, oracle.says(str(a + b == c).lower())),
                      "eval", len(formula), depth=d))
    return ops
