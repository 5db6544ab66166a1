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
resets annotations across every (all) inference.  Annotating, erasing and
testing a whole tree are proof-tree transformations, in `transform`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from .calculus import (AllRule, AndRule, ArgMismatch, CaseRule, CutRule, Rule,
                       Sequent)
from .syntax import (All, And, CaptureError, Formula, PI, SIGMA, V, is_in, negate,
                     substitute)


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

