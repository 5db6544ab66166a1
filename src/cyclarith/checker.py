"""Validation of cyclic annotated proofs.

A cyclic proof is a finite annotated tree whose back-reference leaves point
at proper ancestors. Validity is entirely local plus one path condition per
back-link: the target must carry the same sequent and the same annotation as
the leaf, the annotation must stay constant and non-empty all the way down
from target to leaf, and the path must cross the right premise of a (case)
inference at least once. Reports carry one tagged violation per defect, so
an invalid proof lists everything wrong with it, not just the first problem.
The tree is the whole proof: validate takes its root and indexes ids,
parents and back-links itself.

validate is the package's only validity judgement, and it reads off the
proof whether it is plain: a proof with no annotated node is judged as a
finite tree, any other as a cyclic proof, each bare node reported Unannotated.
This is sound: the plain judgement refuses every back leaf, so a plain proof
it accepts is a finite derivation, carried by local soundness alone, and
erasing a cyclic proof's annotations cannot make it pass. _check_leaf is the
only place a leaf is decided. uncycle's extraction calls validate once and
refuses, with its report, every proof it rejects; it adds only the refusals
validate does not decide (see that module's docstring).
Reports are rendered and read by records, outside the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .annotation import Mode, propagate
from .calculus import (ArgMismatch, AssumeLeaf, AxiomLeaf, BackLeaf, CaseRule,
                       LEAF_KINDS, OpenLeaf, ProofNode, check_step, is_axiom,
                       node_map, walk)


@dataclass(frozen=True)
class Violation:
    node_id: str
    tag: str
    message: str


@dataclass(frozen=True)
class ProofStats:
    nodes: int
    backlinks: int
    cycle_lengths: Tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    verdict: str  # "valid" | "invalid"
    violations: Tuple[Violation, ...]
    stats: ProofStats

    @property
    def valid(self) -> bool:
        return self.verdict == "valid"


def validate(root: ProofNode, mode: Mode) -> ValidationReport:
    """Judge a proof: as a finite tree when it is plain, else as a cyclic one.

    A plain proof is judged on its steps and leaves only: back leaves are
    rejected like open ones and every violation is tagged Tree.  A cyclic
    proof's node ids must be unique (ParseError names a duplicate).  A step
    message names its rule once, in either judgement.
    """
    plain = all(n.vars is None for n in walk(root))
    violations: List[Violation] = []

    def bad(node_id: str, tag: str, message: str) -> None:
        violations.append(Violation(node_id, "Tree" if plain else tag, message))

    if plain:
        size = _check_local(root, mode, plain, bad)
        return _report(violations, ProofStats(size, 0, ()))

    nodes = node_map(root)
    parents: Dict[str, str] = {}
    backlinks: Dict[str, str] = {}  # leaf id -> target id
    for node in nodes.values():
        if node.vars is None:
            bad(node.id, "Unannotated", "node carries no annotation")
        if isinstance(node.rule, BackLeaf):
            backlinks[node.id] = node.rule.target
        for child in node.children:
            parents[child.id] = node.id
    _check_local(root, mode, plain, bad)

    cycle_lengths = []
    for leaf_id, target_id in sorted(backlinks.items()):
        leaf = nodes[leaf_id]
        if target_id not in nodes:
            bad(leaf_id, "DanglingTarget", f"no node with id {target_id}")
            continue
        pth = _path_down(parents, target_id, leaf_id)
        if pth is None or len(pth) < 2:
            bad(leaf_id, "NotAncestor", f"{target_id} is not a proper ancestor")
            continue
        target = nodes[target_id]
        cycle_lengths.append(len(pth) - 1)
        if leaf.sequent != target.sequent:
            bad(leaf_id, "SequentMismatch",
                f"leaf {leaf.sequent.sx} vs target {target.sequent.sx}")
        if leaf.vars is None or target.vars is None:
            continue  # already reported as Unannotated
        if leaf.vars != target.vars:
            bad(leaf_id, "AnnotationMismatch",
                f"leaf {_vset(leaf.vars)} vs target {_vset(target.vars)}")
            continue
        wanted = target.vars
        if not wanted:
            bad(leaf_id, "EmptyAnnotation", "annotation on the cycle is empty")
        else:
            for nid in pth:
                nvars = nodes[nid].vars
                if nvars is not None and nvars != wanted:
                    bad(leaf_id, "AnnotationMismatch", f"annotation changes at {nid}")
                    break
        if not _crosses_case_right(nodes, pth):
            bad(leaf_id, "NoProgress", "no (case) right premise on the cycle")

    stats = ProofStats(len(nodes), len(backlinks), tuple(cycle_lengths))
    return _report(violations, stats)


def _report(violations: List[Violation], stats: ProofStats) -> ValidationReport:
    return ValidationReport("invalid" if violations else "valid",
                            tuple(violations), stats)


def _check_local(root: ProofNode, mode: Mode, plain: bool, bad) -> int:
    """Steps, leaves and (unless plain) annotation propagation; node count."""
    size = 0
    for node in walk(root):
        size += 1
        if node.vars is None and not plain:
            continue
        r = node.rule
        if isinstance(r, LEAF_KINDS):
            _check_leaf(node, mode, plain, bad)
            continue
        err = check_step(node.sequent, r, [c.sequent for c in node.children])
        if err is not None:
            bad(node.id, "Step", f"({err.rule}) {err.message}")
            continue
        if plain:
            continue
        try:
            anns = propagate(node.sequent, node.vars, r, mode)
        except ArgMismatch as exc:
            bad(node.id, "Step", str(exc))
            continue
        for child, want in zip(node.children, anns):
            if child.vars is not None and child.vars != want:
                bad(child.id, "Annotation",
                    f"expected {_vset(want)}, found {_vset(child.vars)}")
    return size


def _check_leaf(node: ProofNode, mode: Mode, plain: bool, bad) -> None:
    """The one leaf judgement; back leaves of annotated proofs go to the cycle pass."""
    r = node.rule
    if node.children:
        bad(node.id, "Step", "leaf with children")
    if isinstance(r, AxiomLeaf):
        if is_axiom(node.sequent) is None:
            bad(node.id, "AxiomLeaf", f"not an axiom: {node.sequent.sx}")
    elif isinstance(r, AssumeLeaf):
        if len(node.sequent) != 1 or node.sequent.count(r.formula) != 1:
            bad(node.id, "AssumeLeaf",
                "assumption leaf sequent must be the assumed formula alone")
        elif r.formula.fv:
            bad(node.id, "AssumeLeaf", "assumed formula must be a sentence")
        elif r.formula not in mode.assumptions:
            bad(node.id, "AssumeLeaf",
                f"not among the declared assumptions: {r.formula.sx}")
    elif isinstance(r, OpenLeaf):
        bad(node.id, "OpenLeaf", "open leaves are not allowed")
    elif plain:
        bad(node.id, "BackLeaf", "back leaves are not allowed in a plain proof")


def _path_down(parents: Dict[str, str], top: str,
               bottom: str) -> Optional[List[str]]:
    """Ids from top down to bottom inclusive, or None."""
    chain = [bottom]
    while chain[-1] != top:
        if chain[-1] not in parents:
            return None
        chain.append(parents[chain[-1]])
    chain.reverse()
    return chain


def _crosses_case_right(nodes, pth: List[str]) -> bool:
    for up, down in zip(pth, pth[1:]):
        n = nodes[up]
        if isinstance(n.rule, CaseRule) and len(n.children) == 2 \
                and n.children[1].id == down:
            return True
    return False


def _vset(vs) -> str:
    return "{" + " ".join(sorted(v.name for v in vs)) + "}"

