"""Known answers for benchmark operations.

Every expectation here comes from how the input was made (builder output,
a hand-made mutation, Python integer arithmetic), never from running the
code under test. Outputs are read with plain string and regex matching on
the documented file formats, not with the library's own readers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

# where the checked text comes from
FILE, STDOUT, STDERR = "file", "stdout", "stderr"

_STATUS_RE = re.compile(r"\(status ([^()\s]+)\)")
_NODE_RE = re.compile(r"^( *)\(node :id (\S+) ")
_BACK_RE = re.compile(r"\(back (\S+?)\)")
_VARS_RE = re.compile(r"\(vars[^()]*\)")


@dataclass(frozen=True)
class Expect:
    """Exit code plus a check on one output stream; check returns a problem."""
    code: int
    stream: str
    check: Callable[[str], Optional[str]]
    out: Optional[str] = None  # the -o path when stream is FILE

    def flipped(self) -> "Expect":
        return replace(self, code=1 - self.code)


def judge(expect: Expect, code, stdout: str, stderr: str) -> Optional[str]:
    """None when the operation gave its known answer, else the first problem."""
    if "Traceback" in stdout or "Traceback" in stderr:
        return "printed a traceback"
    if code != expect.code:
        return f"exit {code}, expected {expect.code}"
    if expect.stream == FILE:
        try:
            text = Path(expect.out).read_text(encoding="utf-8")
        except OSError as exc:
            return f"no output file: {exc}"
    else:
        text = stdout if expect.stream == STDOUT else stderr
    return expect.check(text)


# --- checks on output text ----------------------------------------------------

def certificates(status_ok) -> Callable[[str], Optional[str]]:
    """uncycle output: at least one certificate, every obligation's status ok."""
    def check(text: str) -> Optional[str]:
        n = text.count("(obligation ")
        statuses = _STATUS_RE.findall(text)
        if "(certificate" not in text or n == 0:
            return "no certificate or no obligation"
        if len(statuses) != n:
            return f"{n} obligations but {len(statuses)} statuses"
        bad = sorted(set(statuses) - set(status_ok))
        return f"obligation status {bad}" if bad else None
    return check


def report_valid(text: str) -> Optional[str]:
    if "(verdict valid)" not in text or "(violation" in text:
        return "report is not a clean valid verdict"
    return None


def report_flags(node: str, tag: str) -> Callable[[str], Optional[str]]:
    """check --format sexpr output: invalid, with tag reported at node."""
    pat = re.compile(r"\(violation \(node " + re.escape(node) + r"\) \(tag "
                     + re.escape(tag) + r"\)")

    def check(text: str) -> Optional[str]:
        if "(verdict invalid)" not in text:
            return "mutant not rejected"
        return None if pat.search(text) else f"no {tag} violation at {node}"
    return check


def unfolding(text: str) -> Optional[str]:
    """unravel output: a tree rooted at n, cut by open leaves, no back-links."""
    if not text.startswith("(node :id n "):
        return "unfolding not rooted at n"
    if "(back " in text or "(open)" not in text:
        return "unfolding keeps back-links or has no open leaf"
    return None


def _mask_backlink_ids(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return [_NODE_RE.sub(r"\1(node :id * ", ln) if _BACK_RE.search(ln) else ln
            for ln in lines]


def same_proof(original: str) -> Callable[[str], Optional[str]]:
    """ravel output: the original proof line for line; back-leaf ids may differ."""
    want = _mask_backlink_ids(original)

    def check(text: str) -> Optional[str]:
        return None if _mask_backlink_ids(text) == want else "ravel changed the proof"
    return check


def proves(goal: str, annotated: bool = False) -> Callable[[str], Optional[str]]:
    """A proof whose root sequent is exactly {goal}, empty-annotated if asked."""
    root = f" (aseq (seq {goal}) (vars)) " if annotated else f" (seq {goal}) "

    def check(text: str) -> Optional[str]:
        head = text.split("\n", 1)[0]
        if not head.startswith("(node :id ") or root not in head:
            return "root sequent is not the goal"
        return None
    return check


def says(word: str) -> Callable[[str], Optional[str]]:
    def check(text: str) -> Optional[str]:
        return None if word in text.split() else f"expected {word!r} in {text[:80]!r}"
    return check


# --- hand-made mutants ----------------------------------------------------------

def node_lines(text: str):
    """(line index, depth, id, ancestor ids) for each node line of a proof."""
    out, stack = [], []
    for i, line in enumerate(text.splitlines()):
        m = _NODE_RE.match(line)
        if not m:
            continue
        depth = len(m.group(1)) // 2
        del stack[depth:]
        out.append((i, depth, m.group(2), tuple(stack)))
        stack.append(m.group(2))
    return out


def retarget_backlink(text: str, rng):
    """Point one back-link at a node that is not its ancestor: (text, leaf id)."""
    lines = text.splitlines()
    nodes = node_lines(text)
    leaves = [(i, nid, anc) for i, _, nid, anc in nodes if _BACK_RE.search(lines[i])]
    if not leaves:
        return None
    i, leaf, anc = rng.choice(leaves)
    others = [nid for _, _, nid, _ in nodes if nid not in anc and nid != leaf]
    target = rng.choice(others) if others else leaf
    lines[i] = _BACK_RE.sub(f"(back {target})", lines[i], count=1)
    return "\n".join(lines) + "\n", leaf


def blank_annotation(text: str, rng):
    """Empty the annotation of one non-root node that carries one: (text, id)."""
    lines = text.splitlines()
    picks = [(i, nid) for i, depth, nid, _ in node_lines(text)
             if depth > 0 and "(assume " not in lines[i]
             and (m := _VARS_RE.search(lines[i])) and m.group(0) != "(vars)"]
    if not picks:
        return None
    i, nid = rng.choice(picks)
    lines[i] = _VARS_RE.sub("(vars)", lines[i], count=1)
    return "\n".join(lines) + "\n", nid
