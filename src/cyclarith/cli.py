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
import functools
import os
import stat
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import sexpr
from .annotation import Mode, System, annotate_tree, is_annotated, is_plain
from .builders import CorpusEntry, PreError, build_corpus, prove_ground_atom
from .calculus import ArgMismatch, parse_proof, render_proof
from .checker import render_report, validate
from .semantics import DEFAULT_CUTOFF, DEFAULT_VALUE_BOUND, eval_formula, eval_term
from .syntax import (CaptureError, Eq, Neq, ParseError, formula_from_sexpr,
                     ident_var, negate, parse_formula)
from .transform import RavelError, parse_graph, ravel, unravel
from .uncycle import (ExtractionError, check_certificate_bounded, extract_all,
                      render_certificates)

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


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
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 (byte "
                       f"0x{exc.object[exc.start]:02x} at offset {exc.start})") from exc


def _write(path: str | Path, text: str) -> None:
    """Overwrite path with text as UTF-8, in place: the one way the CLI writes a file.

    The file is opened without O_TRUNC and cut to the written length after
    the write: on ext4, a file truncated to zero on open, or renamed over,
    has its blocks allocated at close, which costs more than the write itself.
    Writing in place keeps a symlink, hard links and the file's mode; a
    missing file is created with mode 0o666 less the umask. The write is not
    atomic: a crash part-way may leave old bytes after new ones. Only a
    regular file is cut; a FIFO, tty or /dev/null has no length.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as f:
            f.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                f.truncate()
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        _write(out, text + "\n")


def _assumptions(paths: Sequence[str]) -> frozenset:
    got = set()
    for path in paths:
        for value in sexpr.parse_many(_read(path)):
            got.add(formula_from_sexpr(value))
    return frozenset(got)


def _naturals(args, *flags: str) -> None:
    """Reject a negative value of any of the named integer flags."""
    for flag in flags:
        value = getattr(args, flag)
        if value < 0:
            raise CliError(f"--{flag} must be >= 0, got {value}")


def _mode(args) -> Mode:
    _naturals(args, "level")
    return Mode(System(args.system), args.level, _assumptions(args.assume))


# --- subcommands -----------------------------------------------------------------

def cmd_check(args) -> int:
    mode = _mode(args)
    root = parse_proof(_read(args.path))
    report = validate(root, mode, plain=is_plain(root))
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
    _naturals(args, "depth")
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
    _emit(render_proof(proof), args.out)
    return EXIT_OK


def cmd_uncycle(args) -> int:
    _naturals(args, "bound", "cutoff")
    mode = _mode(args)
    try:
        pairs = extract_all(parse_proof(_read(args.path)), mode)
    except ExtractionError as exc:
        print(f"extraction failed: {exc}" if exc.report is None
              else render_report(exc.report, args.format), file=sys.stderr)
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
    _naturals(args, "cutoff")
    phi = parse_formula(args.formula)
    env = {}
    if args.assign:
        for piece in args.assign.split(","):
            piece = piece.strip()
            if not piece:
                continue
            name, _, value = piece.partition("=")
            if not (value.isascii() and value.isdigit()):     # [0-9]+
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

def cmd_examples(args) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {outdir}: {exc.strerror or exc}") from exc
    entries = build_corpus(args.seed)

    def write(entry: CorpusEntry) -> List[str]:
        _write(outdir / entry.name, entry.text + "\n")
        lines = [f"{entry.name} {entry.kind} {entry.system} {entry.level}"]
        if entry.assume:
            aname = entry.name.rsplit(".", 1)[0] + ".assume"
            _write(outdir / aname, "".join(f.sx + "\n" for f in entry.assume))
            lines.append(f"{aname} assumptions {entry.system} {entry.level}")
        return lines

    manifest = [line for e in entries for line in write(e)]
    _write(outdir / "MANIFEST", "".join(line + "\n" for line in manifest))
    print(f"wrote {len(manifest)} files to {outdir}")
    return EXIT_OK


# --- wiring ----------------------------------------------------------------------

def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", choices=[s.value for s in System], default="sn")
    p.add_argument("--level", type=int, default=0, metavar="N")
    p.add_argument("--assume", action="append", default=[], metavar="FILE",
                   help="file of assumption sentences, one s-expression each")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="write here instead of stdout")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process; parse_args copies the --assume default."""
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
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except RecursionError:
        print("error: input nested too deep", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.setrecursionlimit(limit)  # the caller's, on every exit


if __name__ == "__main__":
    sys.exit(main())
