"""Extraction of explicit induction certificates from cyclic proofs.

Given a valid cyclic proof whose root sits on a cycle, the extractor
computes the set M of nodes with a directed path back to the root (tree
edges plus back-references), splits every M-sequent into its restriction
class part Psi and remainder Phi, and assembles

    theta = forall B . /\\_{c in C} \\/ Psi_c
    zeta(z) = forall y1<=z ... forall ym<=z (y1+...+ym = z -> theta)

where C collects the (case) conclusions in M, y1..ym their case variables,
and B the eigenvariables of (forall) inferences in M. The certificate
carries theta, zeta, and the proof obligations that reduce the cyclic
argument to ordinary induction on z: a base and step for zeta, one
equivalence of Phi-parts per edge inside M, one theta-to-sequent
obligation per M-node, and a discharge obligation at the root.

Proofs whose root lies on no cycle yield None instead;
extract_all searches below such roots, with an explicit stack, and emits
one certificate per maximal root-cycle component, outermost first.

Extraction takes a proof's root and judges its validity only through
checker.validate, once per call: an invalid proof raises ExtractionError
carrying validate's report. On a valid proof every M-node carries the
root's non-empty annotation, and propagate keeps it on every edge inside M.
Extraction then refuses, with ExtractionError and no report, only an
M-sequent outside the restriction class in spi and ssigma, and a cycle of M
that avoids every (case) conclusion (compute_ranks). Ranks then decrease
along every M-edge, and theta and zeta lie in the restriction class, by
construction.

The grid checks here, of a certificate's obligations and of every sequent
of a proof (soundness_sample), are diagnostics over semantics' bounded
evaluation; no validity judgement depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .annotation import Mode, System
from .calculus import AllRule, BackLeaf, CaseRule, ProofNode, Sequent, walk
from .checker import validate
from .derived import desugar
from .records import Record, fields_of
from .semantics import (DEFAULT_CUTOFF, DEFAULT_VALUE_BOUND, TV,
                        all_assignments, eval_formula, sequent_truth)
from .syntax import (And, All, AllLe, Add, BOT, Eq, Formula, Or, Succ, TOP, V,
                     Var, ZERO, iff, impl, negate, substitute)


class ExtractionError(Exception):
    """Extraction refused; report is validate's report when the proof is
    invalid, and None for a refusal validate does not decide."""

    report = None


STATUS_UNCHECKED = "unchecked"
STATUS_TRUE = "bounded-true"
STATUS_UNKNOWN = "bounded-unknown"
STATUS_FALSE = "false"  # diagnostic only: flags an extractor bug
STATUSES = (STATUS_UNCHECKED, STATUS_TRUE, STATUS_UNKNOWN, STATUS_FALSE)

KINDS = ("base", "step", "side-equiv", "theta-gamma", "root-discharge")

# one-letter case tags keyed by the rule of the edge's source node;
# back-reference edges are tagged "link" since they apply no rule
EDGE_TAGS = {
    "ref": "A", "rep": "A", "add0": "A", "adds": "A", "mult0": "A",
    "mults": "A", "pred": "A",
    "weak": "B", "or": "C", "ex": "D", "all": "E", "and": "F", "cut": "G",
    "case": "H", "back": "link",
}


@dataclass(frozen=True)
class Obligation:
    kind: str
    formula: Formula
    desugared: Formula
    status: str = STATUS_UNCHECKED
    about: Tuple[str, ...] = ()


@dataclass(frozen=True)
class InductionCertificate:
    level: int
    system: System
    root: str
    m_nodes: Tuple[str, ...]          # preorder
    c_nodes: Tuple[str, ...]          # preorder
    b_vars: Tuple[Var, ...]           # name-sorted
    case_vars: Tuple[Var, ...]        # first-occurrence order
    fresh_z: Var
    theta: Formula
    zeta: Formula                     # has fresh_z free
    phi_root: Formula
    phi_root_trivial: bool
    ranks: Mapping[str, int]
    obligations: Tuple[Obligation, ...]
    edge_tags: Tuple[Tuple[str, str, str], ...]
    notes: Tuple[str, ...] = ()


# --- the directed graph over the proof tree --------------------------------------

def _digraph(root: ProofNode) -> Tuple[Dict[str, ProofNode],
                                       Dict[str, List[str]], Dict[str, List[str]]]:
    """Nodes by id, successors and predecessors: tree edges plus
    back-reference jumps."""
    nodes = {n.id: n for n in walk(root)}
    succ = {nid: [n.rule.target] if isinstance(n.rule, BackLeaf)
            else [c.id for c in n.children] for nid, n in nodes.items()}
    pred: Dict[str, List[str]] = {nid: [] for nid in succ}
    for u, vs in succ.items():
        for v in vs:
            pred[v].append(u)
    return nodes, succ, pred


def _root_cycle(nodes, pred, root_id: str):
    """Ids of root_id's subtree with a directed path to it, or None when
    root_id lies on no cycle.

    Back-links of a valid proof target ancestors, so the search leaves the
    subtree only through the tree edge into root_id, which it skips by
    starting from the back leaves that target root_id.
    """
    queue = [p for p in pred[root_id] if isinstance(nodes[p].rule, BackLeaf)]
    if not queue:
        return None
    seen = {root_id, *queue}
    while queue:
        for p in pred[queue.pop()]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return frozenset(seen)


def split_sequent(seq: Sequent, mode: Mode) -> Tuple[Tuple[Formula, ...],
                                                     Tuple[Formula, ...]]:
    """(Phi, Psi): the restriction-class members land in Psi, rest in Phi."""
    phi, psi = [], []
    for f in seq:
        (psi if mode.in_restriction(f) else phi).append(f)
    return tuple(phi), tuple(psi)


def _disj(formulas) -> Formula:
    out = None
    for f in formulas:
        out = f if out is None else Or(out, f)
    return BOT if out is None else out


def _fresh_named(avoid) -> Var:
    names = {v.name for v in avoid}
    k = 0
    cand = "z"
    while cand in names:
        cand = f"z{k}"
        k += 1
    return Var(cand)


# --- ranks ------------------------------------------------------------------------

def compute_ranks(succ: Mapping[str, List[str]], m_nodes,
                  c_nodes) -> Dict[str, int]:
    """Longest directed path to the first (case) conclusion, in edges.

    A depth-first search with an explicit stack of (node, successors left);
    a node's rank is set when its successors are done.  It meets the nodes
    in the order of a recursive search over sorted(m), so an error names
    the same node."""
    m = set(m_nodes)
    succ = {u: [v for v in succ[u] if v in m] for u in m}
    memo: Dict[str, int] = {u: 0 for u in c_nodes}
    order = sorted(m)   # the cycle an error names must not depend on string hashing
    for top in order:
        if top in memo:
            continue
        path = {top}    # the nodes on the stack
        stack = [(top, iter(succ[top]))]
        while stack:
            u, rest = stack[-1]
            for v in rest:
                if v not in memo:
                    if v in path:
                        raise ExtractionError(f"directed cycle through {v} "
                                              "avoids every (case) conclusion")
                    path.add(v)
                    stack.append((v, iter(succ[v])))
                    break
            else:
                stack.pop()
                path.remove(u)
                memo[u] = max((1 + memo[v] for v in succ[u]), default=0)
    return {u: memo[u] for u in order}


# --- extraction -------------------------------------------------------------------

def extract_certificate(root: ProofNode, mode: Mode) -> Optional[InductionCertificate]:
    """Certificate for the root cycle, or None when the root lies on no cycle.

    Raises ExtractionError on a proof that validate judges invalid, and on
    the refusals the module docstring lists.
    """
    nodes, succ, pred = _validated(root, mode)
    m_set = _root_cycle(nodes, pred, root.id)
    if m_set is None:
        return None
    return _certificate(nodes, succ, root, m_set, mode)


def _validated(root: ProofNode, mode: Mode):
    """_digraph(root), once validate accepts the proof; otherwise
    ExtractionError with the report, its first violation as the message."""
    report = validate(root, mode)
    if not report.valid:
        v = report.violations[0]
        exc = ExtractionError(f"{v.tag} at {v.node_id}: {v.message}")
        exc.report = report
        raise exc
    return _digraph(root)


def _certificate(nodes, succ, root: ProofNode, m_set, mode: Mode):
    """The certificate of the root cycle m_set of root's subtree."""
    preorder_m: List[str] = []
    avoid = set()  # every name bound in the subtree stays clear of z
    for nd in walk(root):
        if nd.id in m_set:
            preorder_m.append(nd.id)
        for f in nd.sequent:
            avoid |= f.av

    phis: Dict[str, Formula] = {}
    psis: Dict[str, Formula] = {}
    tagged: List[Tuple[str, str, str]] = []
    b_set = set()
    c_ids: List[str] = []
    case_vars: List[Var] = []
    for nid in preorder_m:
        phi_part, psi_part = split_sequent(nodes[nid].sequent, mode)
        if mode.system in (System.SPI, System.SSIGMA) and phi_part:
            raise ExtractionError(
                f"{nid}: sequent leaves the restriction class in mode "
                f"{mode.system}")
        phis[nid] = negate(_disj(phi_part))
        psis[nid] = _disj(psi_part)
        r = nodes[nid].rule
        if isinstance(r, BackLeaf):
            tagged.append((nid, r.target, EDGE_TAGS["back"]))
            continue
        tagged += [(nid, c.id, EDGE_TAGS[r.name])
                   for c in nodes[nid].children if c.id in m_set]
        if isinstance(r, AllRule):
            b_set.add(r.var)
        elif isinstance(r, CaseRule):
            c_ids.append(nid)
            if r.var not in case_vars:
                case_vars.append(r.var)
    ranks = compute_ranks(succ, m_set, c_ids)

    theta = reduce(And, [psis[c] for c in c_ids])  # compute_ranks found a (case)
    for b in sorted(b_set, reverse=True):
        theta = All(b, theta)
    z = _fresh_named(avoid | b_set | set(case_vars) | theta.av)
    phi_root = phis[root.id]
    zeta, (base, step, *gammas) = _theta_parts(
        theta, case_vars, z, phi_root, root.id,
        [((nid,), impl(phis[nid], psis[nid])) for nid in preorder_m])
    sides = [_obligation("side-equiv", iff(phis[u], phis[v]), (u, v))
             for u, v, _tag in tagged]
    discharge = _obligation("root-discharge", impl(phi_root, psis[root.id]),
                            (root.id,))

    notes = ["obligation variables are read universally (closure over case "
             "variables and eigenvariables)"]
    if mode.system is System.SSIGMA and mode.level > 0:
        notes.append("bounded-quantifier normalization via the collection "
                     "schema is not applied")

    return InductionCertificate(
        level=mode.level, system=mode.system, root=root.id,
        m_nodes=tuple(preorder_m), c_nodes=tuple(c_ids),
        b_vars=tuple(sorted(b_set)), case_vars=tuple(case_vars),
        fresh_z=z, theta=theta, zeta=zeta,
        phi_root=phi_root, phi_root_trivial=phi_root == TOP,
        ranks=ranks, obligations=(base, step, *sides, *gammas, discharge),
        edge_tags=tuple(tagged), notes=tuple(notes))


def _obligation(kind: str, f: Formula, about: Tuple[str, ...]) -> Obligation:
    return Obligation(kind, f, desugar(f), STATUS_UNCHECKED, about)


def _theta_parts(theta: Formula, case_vars, z: Var, phi_root: Formula,
                 root_id: str, gammas) -> Tuple[Formula, List[Obligation]]:
    """Everything that depends on theta: zeta(z), which is
    forall y1<=z ... forall ym<=z (y1+...+ym = z -> theta), and the
    obligations base and step of induction on z for zeta, then one
    theta-gamma per (about, gamma) of gammas."""
    total = None
    for y in case_vars:
        total = V(y) if total is None else Add(total, V(y))
    zeta = impl(Eq(total, V(z)), theta)
    for y in reversed(case_vars):
        zeta = AllLe(y, V(z), zeta)
    zetasz = substitute(zeta, z, Succ(V(z)))
    return zeta, [
        _obligation("base", impl(phi_root, substitute(zeta, z, ZERO)), (root_id,)),
        _obligation("step", impl(phi_root, All(z, impl(zeta, zetasz))), (root_id,)),
        *[_obligation("theta-gamma", impl(theta, gamma), about)
          for about, gamma in gammas]]


def extract_all(root: ProofNode,
                mode: Mode) -> List[Tuple[str, InductionCertificate]]:
    """One certificate per maximal root-cycle component, outermost first.

    Validates once, as extract_certificate does. Components are met in
    preorder, without recursion: an explicit stack holds the subtrees still
    to search, pushed in reverse so that they pop in tree order.
    """
    nodes, succ, pred = _validated(root, mode)
    out: List[Tuple[str, InductionCertificate]] = []
    todo = [root]
    while todo:
        node = todo.pop()
        if isinstance(node.rule, BackLeaf):
            continue
        m_set = _root_cycle(nodes, pred, node.id)
        if m_set is None:
            todo += reversed(node.children)
            continue
        cert = _certificate(nodes, succ, node, m_set, mode)
        out.append((node.id, cert))
        todo += reversed([c for nid in cert.m_nodes
                          for c in nodes[nid].children if c.id not in m_set])
    return out


# --- bounded obligation checking --------------------------------------------------

@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    certificate: InductionCertificate
    counterexamples: Tuple[Tuple[str, str, str], ...]  # (kind, about, env)


def check_certificate_bounded(cert: InductionCertificate,
                              value_bound: int = DEFAULT_VALUE_BOUND,
                              cutoff: int = DEFAULT_CUTOFF) -> CertificateCheck:
    """Grid-evaluate every obligation; False anywhere flags an extractor bug.

    All obligations share one compile table, so theta, zeta and their
    subformulas are compiled and memoised once per certificate.
    """
    checked: List[Obligation] = []
    hits: List[Tuple[str, str, str]] = []
    table = {}
    for ob in cert.obligations:
        fvs = sorted(ob.formula.fv)
        verdicts = set()
        for env in all_assignments(fvs, value_bound):
            tv = eval_formula(ob.formula, env, cutoff, table)
            verdicts.add(tv)
            if tv is TV.FALSE:
                shown = ",".join(f"{v.name}={env[v]}" for v in fvs)
                hits.append((ob.kind, " ".join(ob.about), shown))
        if TV.FALSE in verdicts:
            status = STATUS_FALSE
        elif verdicts <= {TV.TRUE}:
            status = STATUS_TRUE
        else:
            status = STATUS_UNKNOWN
        checked.append(replace(ob, status=status))
    return CertificateCheck(not hits, replace(cert, obligations=tuple(checked)),
                            tuple(hits))


@dataclass(frozen=True)
class SoundnessReport:
    ok: bool
    checked: int
    hits: Tuple[Tuple[str, str, str], ...]  # (node id, assignment, note)


def soundness_sample(root: ProofNode,
                     value_bound: int = DEFAULT_VALUE_BOUND,
                     cutoff: int = DEFAULT_CUTOFF) -> SoundnessReport:
    """Grid check: no node's sequent evaluates to false outright.

    A false sequent under some assignment of the grid means the proof
    claims something refutable, which a sound derivation never does when
    its assumptions hold.  One compile table serves the whole walk.
    """
    hits: List[Tuple[str, str, str]] = []
    checked = 0
    table = {}
    for node in walk(root):
        fvs = sorted(node.sequent.fv)
        for env in all_assignments(fvs, value_bound):
            checked += 1
            if sequent_truth(node.sequent, env, cutoff, table) is TV.FALSE:
                shown = ",".join(f"{v.name}={env[v]}" for v in fvs)
                hits.append((node.id, shown, node.sequent.sx))
    return SoundnessReport(not hits, checked, tuple(hits))


def certificate_with_theta(cert: InductionCertificate,
                           theta: Formula) -> InductionCertificate:
    """Same skeleton, new invariant formula; obligations rebuilt unchecked."""
    z = cert.fresh_z
    if z in theta.fv:
        raise ValueError("replacement invariant captures the fresh variable")
    zeta, rebuilt = _theta_parts(
        theta, cert.case_vars, z, cert.phi_root, cert.root,
        [(ob.about, ob.formula.right) for ob in cert.obligations
         if ob.kind == "theta-gamma"])
    new = {(ob.kind, ob.about): ob for ob in rebuilt}
    out = tuple(new.get((ob.kind, ob.about), replace(ob, status=STATUS_UNCHECKED))
                for ob in cert.obligations)
    return replace(cert, theta=theta, zeta=zeta, obligations=out)


# --- certificate file format ------------------------------------------------------

def _ranks(pairs) -> Dict[str, int]:
    if [nid for nid, _ in pairs] != sorted({nid for nid, _ in pairs}):
        raise ValueError("ranks must name each node once, in order")
    return dict(pairs)


CERTIFICATE = Record("""
    (certificate (level n) (mode system) (root i) (m i*) (phi-root f "trivial?")
                 (theta f) (zeta f) (fresh v) (case-vars v*) (B v*) (C i*)
                 (ranks (_* i n))
                 (obligation* (kind kind) (formula f) (desugared f) (status status)
                              (about i*))
                 (edge-just* (_ i i tag))
                 (note* q))""",
    sets={"system": tuple(System), "kind": KINDS, "status": STATUSES,
          "tag": EDGE_TAGS.values()},
    types={"certificate": fields_of(InductionCertificate, """level system root m_nodes
                   phi_root phi_root_trivial theta zeta fresh_z case_vars b_vars
                   c_nodes ranks obligations edge_tags notes"""),
           "obligation": fields_of(Obligation, "kind formula desugared status about"),
           "ranks": (_ranks, lambda ranks: [sorted(ranks.items())])},
    invariants=[("phi-root is trivial exactly when it is (eq 0 0)",
                 lambda c: c.phi_root_trivial == (c.phi_root == TOP)),
                ("ranks must name exactly the nodes of m",
                 lambda c: set(c.ranks) == set(c.m_nodes))])


render_certificate = CERTIFICATE.render
parse_certificate = CERTIFICATE.parse


def render_certificates(certs: Iterable[InductionCertificate]) -> str:
    return "\n\n".join(render_certificate(c) for c in certs)
