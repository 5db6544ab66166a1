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

Proofs whose root lies on no cycle yield the NoRootCycle marker instead;
extract_all recurses below such roots and emits one certificate per
maximal root-cycle component, outermost first.

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
from typing import Dict, Iterable, List, Mapping, Tuple

from . import sexpr
from .annotation import Mode, System
from .calculus import AllRule, BackLeaf, CaseRule, ProofNode, Sequent, walk
from .checker import validate
from .derived import desugar
from .semantics import (DEFAULT_CUTOFF, DEFAULT_VALUE_BOUND, TV,
                        all_assignments, eval_formula, sequent_truth)
from .syntax import (And, All, AllLe, Add, BOT, Eq, Formula, Or, ParseError,
                     Succ, TOP, V, Var, ZERO, formula_from_sexpr, iff, impl,
                     negate, substitute)


class NoRootCycle:
    """Marker: the proof's root lies on no directed cycle."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoRootCycle"


NO_ROOT_CYCLE = NoRootCycle()


class ExtractionError(Exception):
    """Extraction refused; report is validate's report when the proof is
    invalid, and None for a refusal validate does not decide."""

    report = None


STATUS_UNCHECKED = "unchecked"
STATUS_TRUE = "bounded-true"
STATUS_UNKNOWN = "bounded-unknown"
STATUS_FALSE = "false"  # diagnostic only: flags an extractor bug

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
    """Ids of root_id's subtree with a directed path to it, or NoRootCycle.

    Back-links of a valid proof target ancestors, so the search leaves the
    subtree only through the tree edge into root_id, which it skips by
    starting from the back leaves that target root_id.
    """
    queue = [p for p in pred[root_id] if isinstance(nodes[p].rule, BackLeaf)]
    if not queue:
        return NO_ROOT_CYCLE
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

def extract_certificate(root: ProofNode, mode: Mode):
    """Certificate for the root cycle, or NoRootCycle.

    Raises ExtractionError on a proof that validate judges invalid, and on
    the refusals the module docstring lists.
    """
    nodes, succ, pred = _validated(root, mode)
    m_set = _root_cycle(nodes, pred, root.id)
    if isinstance(m_set, NoRootCycle):
        return m_set
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
        if isinstance(m_set, NoRootCycle):
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

def render_certificate(cert: InductionCertificate) -> str:
    lines = ["(certificate",
             f"  (level {cert.level})",
             f"  (mode {cert.system})",
             f"  (root {cert.root})",
             f"  (m{_ids(cert.m_nodes)})",
             f"  (phi-root {cert.phi_root.sx}"
             + (" trivial)" if cert.phi_root_trivial else ")"),
             f"  (theta {cert.theta.sx})",
             f"  (zeta {cert.zeta.sx})",
             f"  (fresh {cert.fresh_z.name})",
             f"  (case-vars{_names(cert.case_vars)})",
             f"  (B{_names(cert.b_vars)})",
             f"  (C{_ids(cert.c_nodes)})",
             "  (ranks" + "".join(f" ({nid} {cert.ranks[nid]})"
                                  for nid in sorted(cert.ranks)) + ")"]
    for ob in cert.obligations:
        about = _ids(ob.about)
        lines.append(f"  (obligation (kind {ob.kind}) (formula {ob.formula.sx})"
                     f" (desugared {ob.desugared.sx}) (status {ob.status})"
                     f" (about{about}))")
    for u, v, tag in cert.edge_tags:
        lines.append(f"  (edge-just ({u} {v} {tag}))")
    for note in cert.notes:
        lines.append(f"  (note {sexpr.render(sexpr.QuotedString(note))})")
    return "\n".join(lines) + ")"


def _ids(ids) -> str:
    return "".join(f" {i}" for i in ids)


def _names(vs) -> str:
    return "".join(f" {v.name}" for v in vs)


# The single-valued entries render_certificate writes, and the fields of
# its obligations; obligation, edge-just and note entries may repeat.
_CERTIFICATE_ENTRIES = {"level", "mode", "root", "m", "phi-root", "theta", "zeta",
                        "fresh", "case-vars", "B", "C", "ranks"}
_OBLIGATION_FIELDS = {"kind", "formula", "desugared", "status", "about"}


def certificate_from_sexpr(value) -> InductionCertificate:
    if not isinstance(value, list) or not value or value[0] != "certificate":
        raise ParseError("expected (certificate ...)")
    fields: Dict[str, object] = {"obligations": [], "edges": [], "notes": []}
    for item in value[1:]:
        if not isinstance(item, list) or not item:
            raise ParseError(f"bad certificate entry {sexpr.excerpt(item)}")
        try:
            head = item[0]
            if head == "obligation":
                sub = {e[0]: e[1:] for e in item[1:]}
                if not sub.keys() <= _OBLIGATION_FIELDS:
                    raise ValueError("unknown obligation field")
                fields["obligations"].append(Obligation(
                    kind=sub["kind"][0],
                    formula=formula_from_sexpr(sub["formula"][0]),
                    desugared=formula_from_sexpr(sub["desugared"][0]),
                    status=sub.get("status", [STATUS_UNCHECKED])[0],
                    about=tuple(sub.get("about", []))))
            elif head == "edge-just":
                u, v, tag = item[1]
                fields["edges"].append((u, v, tag))
            elif head == "note":
                fields["notes"].append(str(item[1]))
            elif head in _CERTIFICATE_ENTRIES:
                fields[head] = item[1:]
            else:
                raise ValueError(f"unknown entry {head}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ParseError(f"bad certificate entry {sexpr.excerpt(item)}") from exc
    try:
        theta = formula_from_sexpr(fields["theta"][0])
        zeta = formula_from_sexpr(fields["zeta"][0])
        phi_entry = fields["phi-root"]
        ranks = {pair[0]: int(pair[1]) for pair in fields["ranks"]}
        return InductionCertificate(
            level=int(fields["level"][0]),
            system=System(fields["mode"][0]),
            root=fields["root"][0],
            m_nodes=tuple(fields["m"]),
            c_nodes=tuple(fields["C"]),
            b_vars=tuple(Var(nm) for nm in fields["B"]),
            case_vars=tuple(Var(nm) for nm in fields["case-vars"]),
            fresh_z=Var(fields["fresh"][0]),
            theta=theta, zeta=zeta,
            phi_root=formula_from_sexpr(phi_entry[0]),
            phi_root_trivial=len(phi_entry) > 1 and phi_entry[1] == "trivial",
            ranks=ranks,
            obligations=tuple(fields["obligations"]),
            edge_tags=tuple(fields["edges"]),
            notes=tuple(fields["notes"]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"incomplete certificate: {exc}") from exc


def parse_certificate(text: str) -> InductionCertificate:
    return certificate_from_sexpr(sexpr.parse(text))


def render_certificates(certs: Iterable[InductionCertificate]) -> str:
    return "\n\n".join(render_certificate(c) for c in certs)
