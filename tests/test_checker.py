import dataclasses
import sys

import pytest

from cyclarith import (
    Add,
    And,
    AndRule,
    AxiomLeaf,
    BackLeaf,
    CaseRule,
    Eq,
    Mode,
    Neq,
    OpenLeaf,
    ParseError,
    ProofNode,
    RefRule,
    Sequent,
    Succ,
    System,
    V,
    Var,
    Violation,
    WeakRule,
    Zero,
    annotate_tree,
    check_tree,
    erase,
    numeral,
    parse_report,
    render_report,
    soundness_sample,
    validate,
)

from conftest import rebuild, retarget, schema

x, y = Var("x"), Var("y")
SN0 = Mode(System.SN, 0)


def test_cyclic_proof_structure():
    p = schema()
    assert p.id == "n0"
    stats = validate(p, SN0).stats
    assert stats.backlinks == 1
    assert stats.cycle_lengths == (4,)


def test_validate_schema_proof():
    rep = validate(schema(), SN0)
    assert rep.valid
    assert rep.verdict == "valid"
    assert rep.violations == ()
    assert rep.stats.backlinks == 1
    assert rep.stats.cycle_lengths == (4,)


def test_validate_corpus(cyclic_corpus):
    for name, proof, mode in cyclic_corpus:
        rep = validate(proof, mode)
        assert rep.valid, (name, rep.violations[:2])


def test_cyclic_corpus_is_picked_by_annotation(cyclic_corpus):
    # the annotated entries are exactly the corpus's cyclic proofs
    assert [name for name, _, _ in cyclic_corpus] == \
        [f"pi1_{i:02d}" for i in range(20)] + ["sch_n0", "sch_n1", "sch_n2"] \
        + ["two_loops", "forall_cycle", "ind_rule_assume"] \
        + [f"extra_{i:02d}" for i in range(54)]


def test_dangling_target():
    p = schema()
    rep = validate(retarget(p, "n4", "zz"), SN0)
    assert not rep.valid
    assert [v.tag for v in rep.violations] == ["DanglingTarget"]


def test_not_ancestor():
    p = schema()
    rep = validate(retarget(p, "n4", "a.t3"), SN0)
    assert not rep.valid
    assert "NotAncestor" in {v.tag for v in rep.violations}


def test_retarget_above_case_detected():
    # moving the link target below the case node breaks both the sequent
    # match and the progress condition
    p = schema()
    rep = validate(retarget(p, "n4", "n1"), SN0)
    assert not rep.valid
    tags = {v.tag for v in rep.violations}
    assert "NoProgress" in tags and "SequentMismatch" in tags


def test_blanked_annotation_detected():
    p = schema()

    def blank(n):
        return dataclasses.replace(n, vars=frozenset()) if n.id == "n3" else n

    rep = validate(rebuild(p, blank), SN0)
    assert not rep.valid
    tags = {v.tag for v in rep.violations}
    assert "Annotation" in tags or "AnnotationMismatch" in tags


def test_altered_leaf_sequent_detected():
    p = schema()

    def alt(n):
        if n.id == "n4":
            return dataclasses.replace(n, sequent=n.sequent.add(Eq(Zero(), Zero())))
        return n

    rep = validate(rebuild(p, alt), SN0)
    assert not rep.valid
    assert "SequentMismatch" in {v.tag for v in rep.violations}


def test_empty_annotation_under_sigma_system():
    # the universal cycle formula falls outside Sigma_0, so the annotation
    # empties out along the cycle and the link cannot certify progress
    p = schema()
    plain = erase(p)
    mode = Mode(System.SSIGMA, 0)
    redone = annotate_tree(plain, frozenset(), mode)
    rep = validate(redone, mode)
    assert not rep.valid
    assert {v.tag for v in rep.violations} == {"EmptyAnnotation"}


def test_unannotated_tree_rejected():
    p = schema()
    rep = validate(erase(p), SN0)
    assert not rep.valid
    assert "Unannotated" in {v.tag for v in rep.violations}


def test_no_progress_without_case():
    # ref/weak loop: sequent and annotation line up but no case edge is
    # crossed on the way back up
    gam = Sequent([Eq(Add(V(x), Zero()), V(x))])
    t = Neq(V(y), V(y))
    n2 = ProofNode("c2", gam, BackLeaf("c0"), (), frozenset([x]))
    n1 = ProofNode("c1", gam.add(t), WeakRule(Sequent([t])), (n2,), frozenset([x]))
    n0 = ProofNode("c0", gam, RefRule(V(y)), (n1,), frozenset([x]))
    rep = validate(n0, SN0)
    assert not rep.valid
    assert {v.tag for v in rep.violations} == {"NoProgress"}


def test_report_round_trip():
    p = schema()
    for proof in [p, retarget(p, "n4", "zz")]:
        rep = validate(proof, SN0)
        txt = render_report(rep, "sexpr")
        back = parse_report(txt)
        assert back.verdict == rep.verdict
        assert [v.tag for v in back.violations] == [v.tag for v in rep.violations]
    assert "verdict: valid" in render_report(validate(p, SN0), "text")


def test_soundness_sampleschema():
    rep = soundness_sample(schema(), value_bound=3, cutoff=8)
    assert rep.ok
    assert rep.checked > 0
    assert rep.hits == ()


@pytest.mark.parametrize("text", [
    "(report (verdict valid) (violation (tag X)))",
    "(report (verdict))",
    "(report (verdict valid) (stats (nodes)))",
    "(report (verdict valid) (violation x))",
    "(report (foo) (verdict valid))",
    "(report (s 0) (verdict valid))",
    "(report (verdict valid) (violation (node n0) (tag X) (bogus 1)))",
    "(report (verdict valid) (stats (nodes 1) (backlinks 0) (cycles) (bogus 1)))",
])
def test_report_reader_rejects_malformed_entries(text):
    with pytest.raises(ParseError, match="bad report entry"):
        parse_report(text)


def test_plain_tree_check_shares_the_leaf_judgement():
    # the same fake axiom leaf, judged in an annotated proof and a plain tree
    s = Sequent([Eq(V(x), Zero())])
    annotated = validate(ProofNode("n0", s, AxiomLeaf(), (), frozenset()), SN0)
    plain = validate(ProofNode("n0", s, AxiomLeaf()), SN0, plain=True)
    assert [(v.tag, v.message) for v in annotated.violations] == \
        [("AxiomLeaf", f"not an axiom: {s.sx}")]
    assert [(v.tag, v.message) for v in plain.violations] == \
        [("Tree", f"not an axiom: {s.sx}")]
    assert check_tree(ProofNode("n0", s, BackLeaf("n0"))) == \
        [Violation("n0", "Tree", "back leaves are not allowed in a plain proof")]


def _conjunction(t, depth):
    """depth conjunctions of (eq t k), k = 0, 1, 2 in turn, nested right."""
    phi = Eq(t, Zero())
    for k in range(depth):
        phi = And(Eq(t, numeral(k % 3)), phi)
    return phi


def _open(node_id, formula, vs):
    return ProofNode(node_id, Sequent([formula]), OpenLeaf(), (), frozenset(vs))


@pytest.mark.parametrize("step", ["and", "case"])
def test_deep_conjunction_validates_without_recursion(step):
    phi = _conjunction(V(x), 3000)
    if step == "and":
        kids = (_open("n1", phi.left, ()), _open("n2", phi.right, ()))
        root = ProofNode("n0", Sequent([phi]), AndRule(phi), kids, frozenset())
    else:
        kids = (_open("n1", _conjunction(Zero(), 3000), ()),
                _open("n2", _conjunction(Succ(V(x)), 3000), {x}))
        root = ProofNode("n0", Sequent([phi]), CaseRule(x), kids, frozenset())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        report = validate(root, SN0)
    finally:
        sys.setrecursionlimit(limit)
    assert report.verdict == "invalid"
    assert [(v.node_id, v.tag) for v in report.violations] == \
        [("n1", "OpenLeaf"), ("n2", "OpenLeaf")]
