"""One-sided sequent calculus for arithmetic without induction.

Sequents are finite multisets of formulas read disjunctively.  A sequent
keeps its formulas sorted by their canonical rendering, so equal multisets
have the same tuple of (hash-consed, see syntax) formula nodes: equality,
hashing and membership compare nodes by identity, and the rendering is
canonical.  Each rule application carries exactly the arguments needed to
recompute its premises, so checking is deterministic: premises_of either
returns the unique premise list or raises ArgMismatch.

Proof trees are rule-labeled nodes with opaque string ids.  Leaves are
axioms, assumptions, open stubs, or back-references.  This module decides
single steps (check_step) only; whole trees, leaves included, are judged by
checker.validate, which tells plain finite trees from cyclic proofs itself.

parse_proof reads a file once: the reader takes a shallow list that the
file repeats, such as a sequent a premise copies from its conclusion, as
one token and reads its text once, and a numeral four or more deep as one
token and one value, decoded once per read (see sexpr), and
proof_from_sexpr converts with one memo of formulas and terms for the
document (see syntax).  A formula that a premise repeats from its
conclusion is then converted once, and each node's Sequent is built from
the memoised formulas.  The memo dies with the call.  premises_of builds
each premise sequent once: a rule that replaces its principal removes it
and adds the new formulas in one Sequent.  Heads, `:id`, node ids and rule
names are atoms, and quoted text equals no atom (see sexpr), so
`(node :id "a" ...)` or `("axiom")` is refused; every refusal is a
ParseError.

File format:
    (node :id L <sequent> <rule> <child>*)
    <sequent>  ::=  (seq f ...)  |  (aseq (seq f ...) (vars x ...))
    <rule>     ::=  (rule <name> <args...>)
                 |  (axiom) | (assume f) | (open) | (back L)
Rule argument syntax:
    (rule and f)            principal conjunction
    (rule or f)             principal disjunction
    (rule all f z)          principal universal, eigenvariable z
    (rule ex f t)           principal existential, witness term t
    (rule ref t)            premise adds t != t
    (rule rep u0 u1 y t0 t1)  pattern u0 != u1 with hole y; needs t0 != t1
                              and the t0-instance; premise adds the
                              t1-instance
    (rule add0 t)           premise adds t+0 != t
    (rule adds t u)         premise adds t+s(u) != s(t+u)
    (rule mult0 t)          premise adds t*0 != 0
    (rule mults t u)        premise adds t*s(u) != t*u+t
    (rule pred t0 t1)       needs s(t0) != s(t1); premise adds t0 != t1
    (rule case y)           premises substitute y := 0 and y := s(y)
    (rule weak (seq f ...)) premise is the conclusion minus the multiset
    (rule cut f)            premises add f and its negation
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import sexpr
from .syntax import (ZERO, Add, All, And, CaptureError, Eq, Ex, Formula, Mul,
                     Neq, Or, ParseError, Succ, Term, V, Var, Zero,
                     formula_from_sexpr, ident_var, negate, substitute,
                     term_from_sexpr)


class ArgMismatch(Exception):
    """Rule arguments do not fit the conclusion sequent."""


_by_sx = attrgetter("sx")


class Sequent:
    """Finite multiset of formulas, stored sorted by rendering.

    Equality and hashing go by the tuple of (interned) formula nodes; the
    rendering `sx` is built from the formulas' cached renderings on each use.
    """

    __slots__ = ("formulas", "fv")

    def __init__(self, formulas: Iterable[Formula] = ()):
        fs = tuple(sorted(formulas, key=_by_sx))
        object.__setattr__(self, "formulas", fs)
        object.__setattr__(self, "fv", frozenset().union(*[f.fv for f in fs]))

    def __setattr__(self, name, value):
        raise AttributeError("Sequent is immutable")

    @property
    def sx(self) -> str:
        return "(seq" + "".join([" " + f.sx for f in self.formulas]) + ")"

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)

    def __len__(self):
        return len(self.formulas)

    def __contains__(self, f: Formula):
        return f in self.formulas

    def __eq__(self, other):
        return isinstance(other, Sequent) and other.formulas == self.formulas

    def __hash__(self):
        return hash(self.formulas)

    def __repr__(self):
        return self.sx

    def count(self, f: Formula) -> int:
        return self.formulas.count(f)

    def add(self, *fs: Formula) -> "Sequent":
        return Sequent(self.formulas + fs)

    def remove_one(self, f: Formula, *fs: Formula) -> "Sequent":
        """One copy of f taken out and fs added, in one new sequent."""
        if f not in self.formulas:
            raise ArgMismatch(f"{f.sx} does not occur in {self.sx}")
        out = list(self.formulas)
        out.remove(f)
        return Sequent(out + list(fs))

    def minus(self, fs: Iterable[Formula]) -> "Sequent":
        """Multiset difference; every copy in fs must be present."""
        need = Counter(fs)
        out = []
        for g in self.formulas:
            if need.get(g, 0) > 0:
                need[g] -= 1
            else:
                out.append(g)
        missing = [f for f, k in need.items() if k > 0]
        if missing:
            raise ArgMismatch(f"{missing[0].sx} is not in {self.sx} often enough")
        return Sequent(out)

    def map(self, fn) -> "Sequent":
        return Sequent(fn(f) for f in self.formulas)


def parse_sequent(text: str) -> Sequent:
    return sequent_from_sexpr(sexpr.parse(text))


def sequent_from_sexpr(value, memo: dict = None) -> Sequent:
    if not isinstance(value, list) or not value or value[0] != "seq":
        raise ParseError(f"bad sequent {sexpr.excerpt(value)}")
    if memo is None:
        memo = {}
    return Sequent([formula_from_sexpr(v, memo) for v in value[1:]])


# --- rules and leaves ---------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """A rule application or a leaf.  Each subclass declares its schema
    once: its `name` in the file format, its field `kinds`, one letter per
    field in declaration order (f formula, t term, v variable, s sequent,
    i node id), and its number of `premises`.  Reading, rendering and
    RULE_ARITY follow from these.  A subclass without premises is a leaf,
    written (name args...); the others are written (rule name args...)."""
    name = "?"
    kinds = ""
    premises = 0


@dataclass(frozen=True)
class AndRule(Rule):
    principal: Formula
    name, kinds, premises = "and", "f", 2


@dataclass(frozen=True)
class OrRule(Rule):
    principal: Formula
    name, kinds, premises = "or", "f", 1


@dataclass(frozen=True)
class AllRule(Rule):
    principal: Formula
    var: Var  # eigenvariable
    name, kinds, premises = "all", "fv", 1


@dataclass(frozen=True)
class ExRule(Rule):
    principal: Formula
    witness: Term
    name, kinds, premises = "ex", "ft", 1


@dataclass(frozen=True)
class RefRule(Rule):
    term: Term
    name, kinds, premises = "ref", "t", 1


@dataclass(frozen=True)
class RepRule(Rule):
    u0: Term
    u1: Term
    var: Var  # hole of the pattern u0 != u1
    t0: Term
    t1: Term
    name, kinds, premises = "rep", "ttvtt", 1

    def instance(self, t: Term) -> Formula:
        return Neq(substitute(self.u0, self.var, t),
                   substitute(self.u1, self.var, t))


@dataclass(frozen=True)
class Add0Rule(Rule):
    term: Term
    name, kinds, premises = "add0", "t", 1


@dataclass(frozen=True)
class AddSRule(Rule):
    term: Term
    arg: Term
    name, kinds, premises = "adds", "tt", 1


@dataclass(frozen=True)
class Mult0Rule(Rule):
    term: Term
    name, kinds, premises = "mult0", "t", 1


@dataclass(frozen=True)
class MultSRule(Rule):
    term: Term
    arg: Term
    name, kinds, premises = "mults", "tt", 1


@dataclass(frozen=True)
class PredRule(Rule):
    t0: Term
    t1: Term
    name, kinds, premises = "pred", "tt", 1


@dataclass(frozen=True)
class CaseRule(Rule):
    var: Var
    name, kinds, premises = "case", "v", 2


@dataclass(frozen=True)
class WeakRule(Rule):
    delta: Sequent
    name, kinds, premises = "weak", "s", 1


@dataclass(frozen=True)
class CutRule(Rule):
    formula: Formula
    name, kinds, premises = "cut", "f", 2


@dataclass(frozen=True)
class AxiomLeaf(Rule):
    name = "axiom"


@dataclass(frozen=True)
class AssumeLeaf(Rule):
    formula: Formula
    name, kinds = "assume", "f"


@dataclass(frozen=True)
class OpenLeaf(Rule):
    name = "open"


@dataclass(frozen=True)
class BackLeaf(Rule):
    target: str
    name, kinds = "back", "i"


RULE_KINDS = (AndRule, OrRule, AllRule, ExRule, RefRule, RepRule, Add0Rule,
              AddSRule, Mult0Rule, MultSRule, PredRule, CaseRule, WeakRule,
              CutRule, AxiomLeaf, AssumeLeaf, OpenLeaf, BackLeaf)
LEAF_KINDS = tuple(k for k in RULE_KINDS if not k.premises)
RULE_ARITY = {k.name: k.premises for k in RULE_KINDS}
_LEAF_HEADS = {k.name: k for k in LEAF_KINDS}
_RULE_NAMES = {k.name: k for k in RULE_KINDS if k.premises}


def is_axiom(seq: Sequent) -> Optional[str]:
    """ax_a for a matching t0=t1 / t0!=t1 pair, ax_s for s(t)!=0, else None."""
    eqs = {(f.left, f.right) for f in seq if isinstance(f, Eq)}
    for f in seq:
        if isinstance(f, Neq) and (f.left, f.right) in eqs:
            return "ax_a"
    for f in seq:
        if isinstance(f, Neq) and isinstance(f.left, Succ) \
                and isinstance(f.right, Zero):
            return "ax_s"
    return None


def premises_of(conclusion: Sequent, r: Rule) -> List[Sequent]:
    """The unique premise list determined by the rule schema.  ArgMismatch
    messages do not name the rule; the step check's caller does."""
    if isinstance(r, AndRule):
        if not isinstance(r.principal, And):
            raise ArgMismatch(f"principal is not a conjunction: {r.principal.sx}")
        return [conclusion.remove_one(r.principal, r.principal.left),
                conclusion.remove_one(r.principal, r.principal.right)]
    if isinstance(r, OrRule):
        if not isinstance(r.principal, Or):
            raise ArgMismatch(f"principal is not a disjunction: {r.principal.sx}")
        return [conclusion.remove_one(r.principal, r.principal.left, r.principal.right)]
    if isinstance(r, AllRule):
        if not isinstance(r.principal, All):
            raise ArgMismatch(f"principal is not universal: {r.principal.sx}")
        if r.principal not in conclusion:
            raise ArgMismatch(f"{r.principal.sx} does not occur in {conclusion.sx}")
        if r.var in conclusion.fv:
            raise ArgMismatch(f"eigenvariable {r.var.name} occurs free in the conclusion")
        try:
            inst = substitute(r.principal.body, r.principal.var, V(r.var))
        except CaptureError as exc:
            raise ArgMismatch(str(exc)) from None
        return [conclusion.remove_one(r.principal, inst)]
    if isinstance(r, ExRule):
        if not isinstance(r.principal, Ex):
            raise ArgMismatch(f"principal is not existential: {r.principal.sx}")
        if r.principal not in conclusion:
            raise ArgMismatch(f"{r.principal.sx} does not occur in {conclusion.sx}")
        try:
            inst = substitute(r.principal.body, r.principal.var, r.witness)
        except CaptureError as exc:
            raise ArgMismatch(str(exc)) from None
        return [conclusion.add(inst)]
    if isinstance(r, RefRule):
        return [conclusion.add(Neq(r.term, r.term))]
    if isinstance(r, RepRule):
        neq = Neq(r.t0, r.t1)
        if neq not in conclusion:
            raise ArgMismatch(f"needs {neq.sx} in the conclusion")
        if r.instance(r.t0) not in conclusion:
            raise ArgMismatch(f"needs the instance {r.instance(r.t0).sx}")
        return [conclusion.add(r.instance(r.t1))]
    if isinstance(r, Add0Rule):
        t = r.term
        return [conclusion.add(Neq(Add(t, ZERO), t))]
    if isinstance(r, AddSRule):
        t, u = r.term, r.arg
        return [conclusion.add(Neq(Add(t, Succ(u)), Succ(Add(t, u))))]
    if isinstance(r, Mult0Rule):
        t = r.term
        return [conclusion.add(Neq(Mul(t, ZERO), ZERO))]
    if isinstance(r, MultSRule):
        t, u = r.term, r.arg
        return [conclusion.add(Neq(Mul(t, Succ(u)), Add(Mul(t, u), t)))]
    if isinstance(r, PredRule):
        if Neq(Succ(r.t0), Succ(r.t1)) not in conclusion:
            raise ArgMismatch(f"needs {Neq(Succ(r.t0), Succ(r.t1)).sx}")
        return [conclusion.add(Neq(r.t0, r.t1))]
    if isinstance(r, CaseRule):
        if r.var not in conclusion.fv:
            raise ArgMismatch(f"case variable {r.var.name} is not free in {conclusion.sx}")
        succ = Succ(V(r.var))
        return [conclusion.map(lambda f: substitute(f, r.var, ZERO)),
                conclusion.map(lambda f: substitute(f, r.var, succ))]
    if isinstance(r, WeakRule):
        return [conclusion.minus(r.delta)]
    if isinstance(r, CutRule):
        return [conclusion.add(r.formula), conclusion.add(negate(r.formula))]
    raise ArgMismatch(f"{r.name} has no premises")


@dataclass(frozen=True)
class StepError:
    rule: str
    message: str
    expected: Optional[Tuple[Sequent, ...]] = None


def check_step(conclusion: Sequent, r: Rule,
               children: List[Sequent]) -> Optional[StepError]:
    """None when the children are exactly the schema's premises, in order."""
    try:
        expected = premises_of(conclusion, r)
    except ArgMismatch as exc:
        return StepError(r.name, str(exc))
    if len(expected) != len(children):
        return StepError(r.name, f"expected {len(expected)} premises, got {len(children)}",
                         tuple(expected))
    for i, (want, got) in enumerate(zip(expected, children)):
        if want != got:
            return StepError(r.name, f"premise {i}: expected {want.sx}, got {got.sx}",
                             tuple(expected))
    return None


# --- proof trees ---------------------------------------------------------------

@dataclass(frozen=True)
class ProofNode:
    id: str
    sequent: Sequent
    rule: Rule
    children: Tuple["ProofNode", ...] = ()
    vars: Optional[frozenset] = None  # annotation; None when plain


def walk(root: ProofNode) -> Iterator[ProofNode]:
    """Preorder, iterative (ground proofs can be long chains)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def fold_tree(root, visit, build):
    """build(head, children) for root and every item below it, children
    first, where visit(item) gives (head, child items) and children is the
    tuple of what build made of the child items.  visit runs in preorder and
    build in postorder, on an explicit stack: a tree may be a chain
    thousands of nodes long."""
    out: list = []
    todo: list = [(False, root)]
    while todo:
        built, item = todo.pop()
        if built:
            head, n = item
            start = len(out) - n
            children = tuple(out[start:])
            del out[start:]
            out.append(build(head, children))
            continue
        head, kids = visit(item)
        todo.append((True, (head, len(kids))))
        todo.extend([(False, kid) for kid in reversed(kids)])
    return out[0]


def node_map(root: ProofNode) -> Dict[str, ProofNode]:
    out = {}
    for node in walk(root):
        if node.id in out:
            raise ParseError(f"duplicate node id {node.id!r}")
        out[node.id] = node
    return out


# --- parsing and rendering -----------------------------------------------------

def _node_id(value, memo) -> str:
    """A node id, an atom and not a quoted string; rule_from_sexpr reports
    any other value as a bad rule."""
    if value.__class__ is not str:
        raise ValueError("a node id is an atom")
    return value


# How each field kind of a rule is read and written (records.py adds more).
READ_ARG = {
    "f": formula_from_sexpr, "t": term_from_sexpr, "s": sequent_from_sexpr,
    "v": lambda value, memo: ident_var(value), "i": _node_id,
}
RENDER_ARG = {"f": _by_sx, "t": _by_sx, "s": _by_sx, "v": attrgetter("name"), "i": str}


def rule_from_sexpr(value, memo: dict = None) -> Rule:
    """The rule or leaf of value; its arguments are read left to right."""
    cls = args = None
    if isinstance(value, list) and value and isinstance(value[0], str):
        if value[0] != "rule":
            cls, args = _LEAF_HEADS.get(value[0]), value[1:]
        elif len(value) > 1 and isinstance(value[1], str):
            cls, args = _RULE_NAMES.get(value[1]), value[2:]
    if cls is None or len(args) != len(cls.kinds):
        raise ParseError(f"bad rule {sexpr.excerpt(value)}")
    try:
        return cls(*[READ_ARG[k](a, memo) for k, a in zip(cls.kinds, args)])
    except ValueError:  # from _node_id
        raise ParseError(f"bad rule {sexpr.excerpt(value)}") from None


def rule_to_sexpr_str(r: Rule) -> str:
    # a frozen dataclass sets its fields in declaration order, so __dict__
    # lists them in the order of r.kinds
    out = ["(rule " + r.name if r.premises else "(" + r.name]
    out += [RENDER_ARG[k](a) for k, a in zip(r.kinds, r.__dict__.values())]
    return " ".join(out) + ")"


def node_sequent_to_sexpr_str(seq: Sequent, vs: Optional[frozenset]) -> str:
    """(seq f ...) when vs is None, else (aseq (seq f ...) (vars x ...));
    node_sequent_from_sexpr inverts it."""
    if vs is None:
        return seq.sx
    return f"(aseq {seq.sx} (vars" + "".join(" " + v.name for v in sorted(vs)) + "))"


def node_sequent_from_sexpr(
        value, memo: dict = None) -> Tuple[Sequent, Optional[frozenset]]:
    """A node's sequent and annotation: (seq f ...) reads with annotation
    None, (aseq (seq f ...) (vars x ...)) with the set of its variables."""
    if not isinstance(value, list) or not value or value[0] != "aseq":
        return sequent_from_sexpr(value, memo), None
    if len(value) != 3 or not isinstance(value[2], list) or not value[2] \
            or value[2][0] != "vars":
        raise ParseError(f"bad annotated sequent {sexpr.excerpt(value)}")
    return (sequent_from_sexpr(value[1], memo),
            frozenset(ident_var(a) for a in value[2][1:]))


def proof_from_sexpr(value) -> ProofNode:
    root = _node_from_sexpr(value, {})
    node_map(root)  # raises on duplicate ids
    return root


def _node_from_sexpr(value, memo: dict) -> ProofNode:
    """The proof tree of value.  Each node's header, sequent and rule are
    checked in preorder and its premise count after its children, as a
    recursive descent would."""
    def visit(value):
        if not isinstance(value, list) or len(value) < 4 or value[0] != "node" \
                or value[1] != ":id":
            raise ParseError(f"bad proof node {sexpr.excerpt(value)}")
        label = value[2]
        if label.__class__ is not str:     # a list, a Chain, or quoted text, named
            got = f", got {sexpr.excerpt(label)}" if isinstance(label, str) else ""
            raise ParseError(f"node id must be an atom{got}")
        seq, vs = node_sequent_from_sexpr(value[3], memo)
        if len(value) < 5:
            raise ParseError(f"node {label} is missing its rule")
        return (label, seq, rule_from_sexpr(value[4], memo), vs), value[5:]

    def build(head, children) -> ProofNode:
        label, seq, rule, vs = head
        if len(children) != rule.premises:
            raise ParseError(f"node {label}: ({rule.name}) takes "
                             f"{rule.premises} premises, got {len(children)}")
        return ProofNode(label, seq, rule, children, vs)

    return fold_tree(value, visit, build)


def parse_proof(text: str) -> ProofNode:
    return proof_from_sexpr(sexpr.parse(text))


def render_proof(root: ProofNode) -> str:
    """Deterministic indented rendering; parse_proof inverts it."""
    out: List[str] = []
    # (node, depth, True) opens a node; (None, depth, False) closes one
    stack: List[Tuple[Optional[ProofNode], int, bool]] = [(root, 0, True)]
    while stack:
        node, depth, opening = stack.pop()
        if not opening:
            out[-1] += ")"
            continue
        pad = "  " * depth
        out.append(f"{pad}(node :id {node.id} "
                   f"{node_sequent_to_sexpr_str(node.sequent, node.vars)} "
                   f"{rule_to_sexpr_str(node.rule)}")
        stack.append((None, depth, False))
        for child in reversed(node.children):
            stack.append((child, depth + 1, True))
    return "\n".join(out) + "\n"
