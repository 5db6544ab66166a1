"""Checking modes and deterministic annotation propagation.

An annotated sequent is a (Sequent, frozenset) pair, which calculus reads
and writes.  An annotation is the set of case variables a branch is still
protecting.  Propagation through a rule is a function of the conclusion's
annotation, the rule arguments, and the checking mode; the only rule that
ever enlarges an annotation is (case) on its right premise, and several
rules reset it to the empty set when their principal formula falls outside
the mode's restriction class.

Modes: `sn` and `spi` restrict against Pi_{n+1}; `ssigma` against Sigma_n.
They differ in the (case) right-premise test -- `sn` asks that the case
variable occur freely only in restriction-class formulas, `spi`/`ssigma`
ask that the whole conclusion lie in the class -- and `ssigma` additionally
resets annotations across every (all) inference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from . import sexpr
from .calculus import (AllRule, AndRule, ArgMismatch, CaseRule, CutRule,
                       ProofNode, Rule, Sequent, fold_tree,
                       node_sequent_from_sexpr, walk)
from .syntax import (All, And, CaptureError, Formula, PI, ParseError, SIGMA, V,
                     is_in, negate, substitute)


class System(enum.Enum):
    SN = "sn"
    SPI = "spi"
    SSIGMA = "ssigma"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Mode:
    system: System
    level: int
    assumptions: frozenset = frozenset()

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")

    def in_restriction(self, phi: Formula) -> bool:
        """Membership in the mode's restriction class."""
        if self.system is System.SSIGMA:
            return is_in(phi, SIGMA, self.level)
        return is_in(phi, PI, self.level + 1)


EMPTY: frozenset = frozenset()


def parse_aseq(text: str) -> Tuple[Sequent, frozenset]:
    """An `(aseq (seq f ...) (vars x ...))` text as its (sequent, vars) pair."""
    value = sexpr.parse(text)
    if not isinstance(value, list) or not value or value[0] != "aseq":
        raise ParseError(f"bad annotated sequent {sexpr.excerpt(value)}")
    return node_sequent_from_sexpr(value)


def propagate(seq: Sequent, vs: frozenset, r: Rule, mode: Mode) -> List[frozenset]:
    """One annotation per premise of r, uniquely determined by the
    conclusion seq annotated with vs."""
    if isinstance(r, AndRule):
        if not isinstance(r.principal, And):
            raise ArgMismatch(f"(and) principal is not a conjunction: {r.principal.sx}")
        return [vs if mode.in_restriction(r.principal.left) else EMPTY,
                vs if mode.in_restriction(r.principal.right) else EMPTY]
    if isinstance(r, CutRule):
        return [vs if mode.in_restriction(r.formula) else EMPTY,
                vs if mode.in_restriction(negate(r.formula)) else EMPTY]
    if isinstance(r, AllRule):
        if mode.system is System.SSIGMA:
            return [EMPTY]
        if not isinstance(r.principal, All):
            raise ArgMismatch(f"(all) principal is not universal: {r.principal.sx}")
        try:
            inst = substitute(r.principal.body, r.principal.var, V(r.var))
        except CaptureError as exc:
            raise ArgMismatch(str(exc)) from None
        keep = r.var not in vs and mode.in_restriction(inst)
        return [vs if keep else EMPTY]
    if isinstance(r, CaseRule):
        if mode.system is System.SN:
            ok = all(mode.in_restriction(f) for f in seq if r.var in f.fv)
        else:
            ok = all(mode.in_restriction(f) for f in seq)
        return [EMPTY, vs | {r.var} if ok else EMPTY]
    return [vs] * r.premises


def annotate_tree(root: ProofNode, root_vars, mode: Mode) -> ProofNode:
    """Annotated copy: root carries root_vars, the rest by propagation.

    Works on cyclic trees too; back-reference leaves are annotated by their
    tree position (whether that matches their target is the checker's job).
    A child the rule gives no premise for, such as a leaf's, is kept with
    the empty annotation, so that the checker sees and reports it.
    """
    def visit(item):
        node, vs = item
        anns = propagate(node.sequent, vs, node.rule, mode)
        anns += [EMPTY] * (len(node.children) - len(anns))
        return item, list(zip(node.children, anns))

    def build(item, kids) -> ProofNode:
        node, vs = item
        return ProofNode(node.id, node.sequent, node.rule, kids, vs)

    return fold_tree((root, frozenset(root_vars)), visit, build)


def erase(root: ProofNode) -> ProofNode:
    """Annotation-free copy; ids, sequents, and rules unchanged."""
    return fold_tree(root, lambda node: (node, node.children),
                     lambda node, kids: ProofNode(node.id, node.sequent, node.rule, kids, None))


def is_annotated(root: ProofNode) -> bool:
    return all(n.vars is not None for n in walk(root))


def is_plain(root: ProofNode) -> bool:
    """No node carries an annotation: the proof is judged as a plain tree.

    A partly annotated proof is neither plain nor annotated; the validator
    reports its unannotated nodes.
    """
    return all(n.vars is None for n in walk(root))
