"""Command-line surface.

One binary, eight subcommands:

  check         validate a proof file (annotated cyclic or plain finite)
  annotate      attach annotations to a plain proof
  unravel       unfold a cyclic proof into a finite tree with open leaves
  ravel         tie a regular proof graph back into a cyclic proof
  uncycle       extract induction certificates from a cyclic proof
  eval          evaluate a formula under an assignment
  prove-ground  prove a closed equation or disequation
  examples      write the builder corpus to a directory

Exit codes are a stable contract: 0 success/valid, 1 semantic failure
(invalid proof, false obligation, refused goal), 2 usage/parse/IO errors.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import sexpr
from .annotation import Mode, System, annotate_tree, is_annotated
from .builders import (PreError, forall_cycle_proof, induction_rule_proof,
                       induction_rule_via_assumptions, induction_schema_proof,
                       omega_truncation, prove_ground_atom, tautology,
                       two_loops_proof, _chain, _HOLE)
from .calculus import (AddSRule, ArgMismatch, RepRule, Sequent, parse_proof,
                       render_proof)
from .checker import CyclicProof, render_report, validate
from .semantics import DEFAULT_CUTOFF, DEFAULT_VALUE_BOUND, eval_formula, eval_term
from .syntax import (Add, All, And, CaptureError, Eq, Ex, Formula, Mul, Neq,
                     Or, ParseError, Succ, V, Var, ZERO, formula_from_sexpr,
                     ident_var, negate, numeral, parse_formula, substitute)
from .transform import RavelError, parse_graph, ravel, unravel
from .uncycle import (ExtractionError, check_certificate_bounded, extract_all,
                      render_certificates)

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

_SYSTEMS = {"sn": System.SN, "spi": System.SPI, "ssigma": System.SSIGMA}


class CliError(Exception):
    """Carries an exit code alongside the message."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
        return
    try:
        Path(out).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _assumptions(paths: Sequence[str]) -> frozenset:
    got = set()
    for path in paths:
        for value in sexpr.parse_many(_read(path)):
            got.add(formula_from_sexpr(value))
    return frozenset(got)


def _mode(args) -> Mode:
    if args.level < 0:
        raise CliError(f"--level must be >= 0, got {args.level}")
    return Mode(_SYSTEMS[args.system], args.level, _assumptions(args.assume))


# --- subcommands -----------------------------------------------------------------

def cmd_check(args) -> int:
    mode = _mode(args)
    root = parse_proof(_read(args.path))
    report = validate(root, mode, plain=not is_annotated(root))
    _emit(render_report(report, args.format), args.out)
    return EXIT_OK if report.valid else EXIT_FAIL


def cmd_annotate(args) -> int:
    mode = _mode(args)
    root = parse_proof(_read(args.path))
    if is_annotated(root):
        raise CliError("input already annotated")
    root_vars = frozenset(ident_var(v) for v in args.vars)
    try:
        out = annotate_tree(root, root_vars, mode)
    except (ArgMismatch, CaptureError) as exc:
        print(f"annotation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(render_proof(out), args.out)
    return EXIT_OK


def cmd_unravel(args) -> int:
    root = parse_proof(_read(args.path))
    try:
        tree = unravel(root, args.depth)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(render_proof(tree), args.out)
    return EXIT_OK


def cmd_ravel(args) -> int:
    mode = _mode(args)
    graph = parse_graph(_read(args.path))
    try:
        proof = ravel(graph, mode)
    except RavelError as exc:
        print(f"ravel failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(render_proof(proof.root), args.out)
    return EXIT_OK


def cmd_uncycle(args) -> int:
    mode = _mode(args)
    proof = CyclicProof(parse_proof(_read(args.path)))
    report = validate(proof, mode)
    if not report.valid:
        print(render_report(report, args.format), file=sys.stderr)
        return EXIT_FAIL
    try:
        pairs = extract_all(proof, mode)
    except ExtractionError as exc:
        print(f"extraction failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    failed = False
    certs = []
    for _, cert in pairs:
        if not args.no_check:
            checked = check_certificate_bounded(cert, args.bound, args.cutoff)
            cert = checked.certificate
            failed = failed or not checked.ok
        certs.append(cert)
    _emit(render_certificates(certs), args.out)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_eval(args) -> int:
    phi = parse_formula(args.formula)
    env = {}
    if args.assign:
        for piece in args.assign.split(","):
            piece = piece.strip()
            if not piece:
                continue
            name, _, value = piece.partition("=")
            if not value.lstrip("-").isdigit() or int(value) < 0:
                raise CliError(f"bad assignment {piece!r}, want name=nat")
            env[ident_var(name.strip())] = int(value)
    print(str(eval_formula(phi, env, args.cutoff)))
    return EXIT_OK


def cmd_prove_ground(args) -> int:
    phi = parse_formula(args.atom)
    if not isinstance(phi, (Eq, Neq)):
        raise CliError(f"not an atom: {phi.sx}")
    if phi.left.fv or phi.right.fv:
        raise CliError(f"not closed: {phi.sx}")
    holds = (eval_term(phi.left, {}) == eval_term(phi.right, {}))
    if holds != isinstance(phi, Eq):
        flipped = negate(phi)
        print(f"{phi.sx} is false; {flipped.sx} holds instead", file=sys.stderr)
        return EXIT_FAIL
    _emit(render_proof(prove_ground_atom(phi.left, phi.right)), args.out)
    return EXIT_OK


# --- the examples corpus ---------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # cyclic | tree | tree-open
    text: str
    system: str = "sn"
    level: int = 0
    assume: Tuple[Formula, ...] = ()


def _rand_pi1(rng: random.Random, x: Var) -> Formula:
    """A small Pi1 formula with x free: universal prefix over a safe matrix."""
    y, z = Var("y"), Var("z")
    prefix = rng.choice([(), (y,), (y, z)])
    pool_vars = [V(x)] + [V(v) for v in prefix]

    def term(depth: int):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return rng.choice(pool_vars) if rng.random() < 0.7 else numeral(rng.randrange(3))
        kind = rng.choice([Add, Mul, Succ])
        if kind is Succ:
            return Succ(term(depth - 1))
        return kind(term(depth - 1), term(depth - 1))

    def atom():
        kind = rng.choice([Eq, Neq])
        return kind(term(1), term(1))

    matrix: Formula = atom()
    for _ in range(rng.randrange(3)):
        matrix = rng.choice([And, Or])(matrix, atom())
    # make sure x actually occurs free
    if x not in matrix.fv:
        matrix = And(matrix, Eq(Add(V(x), ZERO), V(x)))
    phi = matrix
    for v in reversed(prefix):
        phi = All(v, phi)
    return phi


def _rule_add_left() -> CyclicProof:
    """Induction-rule instance for 0+x = x with hand-rolled sub-proofs."""
    x = Var("x")
    phi = Eq(Add(ZERO, V(x)), V(x))
    base = prove_ground_atom(Add(ZERO, ZERO), ZERO)
    phisx = substitute(phi, x, Succ(V(x)))
    step = _chain(Sequent([negate(phi), phisx]), [
        AddSRule(ZERO, V(x)),
        RepRule(Add(ZERO, Succ(V(x))), Succ(V(_HOLE)), _HOLE,
                Add(ZERO, V(x)), V(x)),
    ], "c")
    return induction_rule_proof(base, step, phi, x, 0)


def build_corpus(seed: int = 0) -> List[CorpusEntry]:
    rng = random.Random(seed)
    x, y = Var("x"), Var("y")
    entries: List[CorpusEntry] = []

    def cyclic(name, proof, mode):
        entries.append(CorpusEntry(name, "cyclic", render_proof(proof.root),
                                   str(mode.system), mode.level,
                                   tuple(sorted(mode.assumptions, key=lambda f: f.sx))))

    commute = All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x))))
    cyclic("ind_schema_pi1.cyc", induction_schema_proof(commute, x, 0), Mode(System.SN, 0))
    z = Var("z")
    pi2 = All(y, Ex(z, Eq(Add(V(x), V(y)), Add(V(y), V(z)))))
    cyclic("ind_schema_pi2.cyc", induction_schema_proof(pi2, x, 1), Mode(System.SN, 1))
    w = Var("w")
    pi3 = All(y, Ex(z, All(w, Eq(Add(V(x), V(w)), Add(V(w), V(x))))))
    cyclic("ind_schema_pi3.cyc", induction_schema_proof(pi3, x, 2), Mode(System.SN, 2))

    cyclic("ind_rule_add0.cyc", _rule_add_left(), Mode(System.SPI, 0))
    proof, mode = two_loops_proof()
    cyclic("two_loops.cyc", proof, mode)
    proof, mode = forall_cycle_proof()
    cyclic("forall_cycle.cyc", proof, mode)
    proof, mode = induction_rule_via_assumptions(commute, x, 0)
    cyclic("ind_rule_assume.cyc", proof, mode)

    for i in range(8):
        phi = _rand_pi1(rng, x)
        cyclic(f"schema_rand_{i:02d}.cyc", induction_schema_proof(phi, x, 0),
               Mode(System.SN, 0))

    for i in range(6):
        phi = _rand_pi1(rng, x)
        proof = tautology(Sequent([]), phi)
        entries.append(CorpusEntry(f"taut_{i:02d}.prf", "tree", render_proof(proof)))

    for i in range(6):
        a, b = rng.randrange(9), rng.randrange(9)
        t = Add(numeral(a), numeral(b)) if rng.random() < 0.5 else Mul(numeral(a), numeral(b))
        u = numeral(rng.randrange(13))
        proof = prove_ground_atom(t, u)
        entries.append(CorpusEntry(f"ground_{i:02d}.prf", "tree", render_proof(proof)))

    phi = Eq(Add(V(x), ZERO), V(x))
    stages = [prove_ground_atom(Add(numeral(k), ZERO), numeral(k)) for k in range(3)]
    entries.append(CorpusEntry("omega_k3.prf", "tree-open",
                               render_proof(omega_truncation(stages, Sequent([]), phi, x))))
    return entries


def cmd_examples(args) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {outdir}: {exc.strerror or exc}") from exc
    entries = build_corpus(args.seed)

    def write(entry: CorpusEntry) -> List[str]:
        (outdir / entry.name).write_text(entry.text + "\n", encoding="utf-8")
        lines = [f"{entry.name} {entry.kind} {entry.system} {entry.level}"]
        if entry.assume:
            aname = entry.name.rsplit(".", 1)[0] + ".assume"
            (outdir / aname).write_text(
                "".join(f.sx + "\n" for f in entry.assume), encoding="utf-8")
            lines.append(f"{aname} assumptions {entry.system} {entry.level}")
        return lines

    manifest = [line for e in entries for line in write(e)]
    (outdir / "MANIFEST").write_text("".join(line + "\n" for line in manifest),
                                     encoding="utf-8")
    print(f"wrote {len(manifest)} files to {outdir}")
    return EXIT_OK


# --- wiring ----------------------------------------------------------------------

def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=sorted(_SYSTEMS), default="sn")
    p.add_argument("--level", type=int, default=0, metavar="N")
    p.add_argument("--assume", action="append", default=[], metavar="FILE",
                   help="file of assumption sentences, one s-expression each")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="write here instead of stdout")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cyclarith",
                                  description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a proof file")
    p.add_argument("path")
    _add_mode_flags(p)
    p.add_argument("--format", choices=["text", "sexpr"], default="text")
    _add_out_flag(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("annotate", help="annotate a plain proof")
    p.add_argument("path")
    p.add_argument("vars", nargs="*", metavar="VAR",
                   help="root annotation variables")
    _add_mode_flags(p)
    _add_out_flag(p)
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("unravel", help="unfold a cyclic proof to finite depth")
    p.add_argument("path")
    p.add_argument("--depth", type=int, default=10, metavar="K")
    _add_mode_flags(p)
    _add_out_flag(p)
    p.set_defaults(fn=cmd_unravel)

    p = sub.add_parser("ravel", help="cyclic proof from a regular proof graph")
    p.add_argument("path")
    _add_mode_flags(p)
    _add_out_flag(p)
    p.set_defaults(fn=cmd_ravel)

    p = sub.add_parser("uncycle", help="extract induction certificates")
    p.add_argument("path")
    _add_mode_flags(p)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF, metavar="K")
    p.add_argument("--bound", type=int, default=DEFAULT_VALUE_BOUND, metavar="K")
    p.add_argument("--no-check", action="store_true",
                   help="skip bounded obligation checking")
    p.add_argument("--format", choices=["text", "sexpr"], default="text")
    _add_out_flag(p)
    p.set_defaults(fn=cmd_uncycle)

    p = sub.add_parser("eval", help="evaluate a formula")
    p.add_argument("formula")
    p.add_argument("--assign", default="", metavar="A",
                   help="comma-separated name=value pairs")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF, metavar="K")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("prove-ground", help="prove a closed equation")
    p.add_argument("atom")
    _add_out_flag(p)
    p.set_defaults(fn=cmd_prove_ground)

    p = sub.add_parser("examples", help="write the builder corpus")
    p.add_argument("outdir")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(fn=cmd_examples)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.setrecursionlimit(20000)
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, sexpr.SexprError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except RecursionError:
        print("error: input nested too deep", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
