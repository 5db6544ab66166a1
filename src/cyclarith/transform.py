"""Proof-tree transformations: annotating and erasing a tree, regular proof
graphs, unravelling, and ravelling.

A regular proof graph is the rolled-up presentation of a proof tree with
finitely many distinct subtrees: nodes carry annotated sequents and rules,
children are id references, and cycles are ordinary child edges. Ravelling
unrolls such a graph depth-first into a cyclic proof, installing a
back-reference the first time the current path revisits a graph node, and
then hands the result to checker.validate: this module checks no step, leaf
or back-link condition itself. Unravelling goes the other way: it folds the
proof into its graph and expands that to a depth bound, cutting the tree off
with Open leaves.

Two distinct graph nodes with structurally identical unfoldings are never
merged; repeats are detected by node id, not by comparing unfoldings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import sexpr
from .annotation import EMPTY, Mode, propagate
from .calculus import (BackLeaf, LEAF_KINDS, OpenLeaf, ProofNode, Rule, Sequent,
                       fold_tree, node_map, node_sequent_from_sexpr, walk)
from .checker import Violation, validate
from .records import Record
from .syntax import ParseError


def parse_aseq(text: str) -> Tuple[Sequent, frozenset]:
    """An `(aseq (seq f ...) (vars x ...))` text as its (sequent, vars) pair."""
    value = sexpr.parse(text)
    if not isinstance(value, list) or not value or value[0] != "aseq":
        raise ParseError(f"bad annotated sequent {sexpr.excerpt(value)}")
    return node_sequent_from_sexpr(value)


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


@dataclass(frozen=True)
class GNode:
    id: str
    sequent: Sequent
    vars: Optional[frozenset]
    rule: Rule
    children: Tuple[str, ...]


class RegularProofGraph:
    __slots__ = ("root", "nodes")

    def __init__(self, root: str, nodes: Dict[str, GNode]):
        if root not in nodes:
            raise ValueError(f"root {root} is not a node")
        for n in nodes.values():
            if isinstance(n.rule, BackLeaf):
                raise ValueError(f"{n.id}: back leaves have no place in a graph")
            want = n.rule.premises
            if len(n.children) != want:
                raise ValueError(f"{n.id}: rule {n.rule.name} needs "
                                 f"{want} children, has {len(n.children)}")
            for c in n.children:
                if c not in nodes:
                    raise ValueError(f"{n.id}: unknown child {c}")
        seen = set()
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(nodes[nid].children)
        stray = sorted(set(nodes) - seen)
        if stray:
            raise ValueError(f"unreachable nodes: {', '.join(stray)}")
        self.root = root
        self.nodes = dict(nodes)

    def __eq__(self, other):
        return isinstance(other, RegularProofGraph) and \
            self.root == other.root and self.nodes == other.nodes

    def __repr__(self):
        return f"RegularProofGraph(root={self.root!r}, {len(self.nodes)} nodes)"


def graph_of(root: ProofNode) -> RegularProofGraph:
    """Collapse each back-reference into a child edge to its target.

    Raises ParseError on a duplicate node id, and ValueError, from the graph
    constructor, when a back-reference reaches no inference node.
    """
    nodes: Dict[str, GNode] = {}
    for n in node_map(root).values():
        if isinstance(n.rule, BackLeaf):
            continue
        kids = tuple(c.rule.target if isinstance(c.rule, BackLeaf) else c.id
                     for c in n.children)
        nodes[n.id] = GNode(n.id, n.sequent, n.vars, n.rule, kids)
    return RegularProofGraph(root.id, nodes)


class RavelError(Exception):
    """The unrolled proof is invalid; carries its first violation."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"{violation.tag} at {violation.node_id}: "
                         f"{violation.message}")


def ravel(g: RegularProofGraph, mode: Mode) -> ProofNode:
    """Unroll g into a cyclic proof, back-linking at the first on-path
    repeat, and return its root.

    The result is judged by checker.validate, and RavelError reports its
    first violation.
    """
    emitted = set()
    counters: Dict[str, int] = {}

    def fresh_id(gid: str) -> str:
        # first visit keeps the graph id; later visits append ~k, skipping
        # anything that would collide with another graph id
        k = counters.get(gid, 0)
        while True:
            cand = gid if k == 0 else f"{gid}~{k}"
            k += 1
            if cand not in emitted and (cand == gid or cand not in g.nodes):
                break
        counters[gid] = k
        emitted.add(cand)
        return cand

    on_path: Dict[str, str] = {}  # graph id -> tree id of its copy on the path

    def visit(gid: str):
        gn = g.nodes[gid]
        if gid in on_path:
            return (gid, fresh_id(gid), BackLeaf(on_path[gid])), ()
        tid = on_path[gid] = fresh_id(gid)
        return (gid, tid, gn.rule), gn.children

    def build(head, kids) -> ProofNode:
        gid, tid, rule = head
        if not isinstance(rule, BackLeaf):
            del on_path[gid]
        gn = g.nodes[gid]
        return ProofNode(tid, gn.sequent, rule, kids, gn.vars)

    root = fold_tree(g.root, visit, build)
    report = validate(root, mode)
    if not report.valid:
        raise RavelError(report.violations[0])
    return root


def unravel(root: ProofNode, depth: int) -> ProofNode:
    """Depth-bounded unfolding: expand_graph of the proof's graph.

    Raises ValueError when a back-reference reaches no inference node.
    """
    return expand_graph(graph_of(root), depth)


def expand_graph(g: RegularProofGraph, depth: int) -> ProofNode:
    """Depth-bounded expansion; ids record the path from the root.

    A cycle edge is followed like any other. A node sitting at the bound
    keeps its place if it is a closing leaf and becomes an Open leaf
    otherwise.
    """
    def visit(item):
        gid, d, pid = item
        gn = g.nodes[gid]
        if isinstance(gn.rule, LEAF_KINDS):
            return (pid, gn, gn.rule), ()
        if d >= depth:
            return (pid, gn, OpenLeaf()), ()
        return (pid, gn, gn.rule), [(c, d + 1, pid + str(i))
                                    for i, c in enumerate(gn.children)]

    def build(head, kids) -> ProofNode:
        pid, gn, rule = head
        return ProofNode(pid, gn.sequent, rule, kids, gn.vars)

    return fold_tree((g.root, 0, "n"), visit, build)


def prefix_equal(a: ProofNode, b: ProofNode) -> bool:
    """Tree equality up to Open leaves, which cut the comparison short."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if isinstance(a.rule, OpenLeaf) or isinstance(b.rule, OpenLeaf):
            if (a.id, a.sequent, a.vars) != (b.id, b.sequent, b.vars):
                return False
            continue
        if (a.id, a.sequent, a.rule, a.vars) != (b.id, b.sequent, b.rule, b.vars) \
                or len(a.children) != len(b.children):
            return False
        todo.extend(zip(a.children, b.children))
    return True


# --- graph file format -----------------------------------------------------------

def _graph(root: str, gnodes) -> RegularProofGraph:
    nodes: Dict[str, GNode] = {}
    for gn in gnodes:
        if nodes.setdefault(gn.id, gn) is not gn:
            raise ValueError(f"duplicate node id {gn.id}")
    return RegularProofGraph(root, nodes)


GRAPH = Record("""
    (graph (root i)
           (gnode* ":id" i a r (children i*)))""",
    types={"graph": (_graph, lambda g: (g.root, g.nodes.values())),
           "gnode": (lambda nid, sv, rule, kids: GNode(nid, *sv, rule, kids),
                     lambda gn: (gn.id, (gn.sequent, gn.vars), gn.rule, gn.children))})


render_graph = GRAPH.render
parse_graph = GRAPH.parse
