import dataclasses
import sys

import pytest

from cyclarith import (
    Add,
    All,
    AllRule,
    And,
    AndRule,
    AssumeLeaf,
    AxiomLeaf,
    BackLeaf,
    CaseRule,
    CutRule,
    Eq,
    Ex,
    ExRule,
    Mode,
    Neq,
    OpenLeaf,
    Or,
    OrRule,
    PredRule,
    ParseError,
    ProofNode,
    RefRule,
    RepRule,
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
    forall_cycle_proof,
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


# --- soundness guards: proofs of false sequents that one guard alone rejects ------

Z, ONE, EMPTY = Zero(), numeral(1), frozenset()


def _closed(node_id, seq):
    """seq closed by (ref 0) and an axiom; seq must hold 0 = 0."""
    return ProofNode(node_id, seq, RefRule(Z),
                     (ProofNode(node_id + "a", seq.add(Neq(Z, Z)), AxiomLeaf()),))


def test_validate_path_check_alone_rejects_an_annotation_emptied_and_restored():
    # s(x) = 0 by cut on all x. x = 0: the left branch drops s(x) = 0, opens
    # the universal with eigenvariable x, which empties the annotation, and
    # cases on x, whose right premise puts {x} back for the back-link; every
    # edge agrees with propagate and both ends carry {x}
    goal, phi = Eq(Succ(V(x)), Z), All(x, Eq(V(x), Z))
    case = ProofNode("r3", Sequent([Eq(V(x), Z)]), CaseRule(x),
                     (_closed("r4", Sequent([Eq(Z, Z)])),
                      ProofNode("r6", Sequent([goal]), BackLeaf("r0"))))
    left = ProofNode("r1", Sequent([goal, phi]), WeakRule(Sequent([goal])),
                     (ProofNode("r2", Sequent([phi]), AllRule(phi, x), (case,)),))
    right_seq = Sequent([goal, Ex(x, Neq(V(x), Z))])
    right = ProofNode("r7", right_seq, ExRule(Ex(x, Neq(V(x), Z)), ONE),
                      (ProofNode("r8", right_seq.add(Neq(ONE, Z)), AxiomLeaf()),))
    root = annotate_tree(ProofNode("r0", Sequent([goal]), CutRule(phi), (left, right)),
                         {x}, SN0)
    assert not soundness_sample(root, value_bound=2, cutoff=4).ok
    assert [(v.node_id, v.tag, v.message) for v in validate(root, SN0).violations] == \
        [("r6", "AnnotationMismatch", "annotation changes at r3")]


# (conclusion, rule, premise, message): a step from a premise an axiom closes
# to a false conclusion, which one guard of premises_of alone rejects
_FALSE_STEPS = {
    "ex principal": (Sequent([All(x, Eq(V(x), Z))]), ExRule(All(x, Eq(V(x), Z)), Z),
                     Sequent([All(x, Eq(V(x), Z)), Eq(Z, Z)]),
                     "(ex) principal is not existential: (all x (eq x 0))"),
    "ex occurs": (Sequent([Eq(Z, ONE)]), ExRule(Ex(x, Eq(V(x), V(x))), Z),
                  Sequent([Eq(Z, ONE), Eq(Z, Z)]),
                  "(ex) (ex x (eq x x)) does not occur in (seq (eq 0 (s 0)))"),
    "rep neq": (Sequent([Neq(Z, Z)]), RepRule(V(Var("z")), Z, Var("z"), Z, ONE),
                Sequent([Neq(Z, Z), Neq(ONE, Z)]),
                "(rep) needs (neq 0 (s 0)) in the conclusion"),
    "or principal": (Sequent([And(Eq(Z, Z), Eq(Z, ONE))]), OrRule(And(Eq(Z, Z), Eq(Z, ONE))),
                     Sequent([Eq(Z, Z), Eq(Z, ONE)]),
                     "(or) principal is not a disjunction: (and (eq 0 0) (eq 0 (s 0)))"),
}


@pytest.mark.parametrize("name", sorted(_FALSE_STEPS))
def test_premises_of_guards_reject_a_step_to_a_false_sequent(name):
    conclusion, rule, premise, message = _FALSE_STEPS[name]
    root = ProofNode("n0", conclusion, rule, (_closed("n1", premise),))
    assert not soundness_sample(root, value_bound=2, cutoff=4).ok
    assert check_tree(root) == [Violation("n0", "Tree", message)]
    annotated = annotate_tree(erase(root), (), SN0)
    assert [(v.tag, v.message) for v in validate(annotated, SN0).violations] == \
        [("Step", message)]


_GUARDS = [  # (conclusion, rule, the step message naming the rule once)
    ([Eq(Z, Z)], AndRule(Eq(Z, Z)), "(and) principal is not a conjunction: (eq 0 0)"),
    ([Eq(Z, Z)], AndRule(And(Eq(Z, Z), Eq(Z, Z))),
     "(and) (and (eq 0 0) (eq 0 0)) does not occur in (seq (eq 0 0))"),
    ([Eq(Z, Z)], OrRule(Eq(Z, Z)), "(or) principal is not a disjunction: (eq 0 0)"),
    ([Eq(Z, Z)], AllRule(Eq(Z, Z), x), "(all) principal is not universal: (eq 0 0)"),
    ([All(y, Eq(V(x), V(y)))], AllRule(All(y, Eq(V(x), V(y))), x),
     "(all) eigenvariable x occurs free in the conclusion"),
    ([All(x, All(y, Eq(V(x), V(y))))], AllRule(All(x, All(y, Eq(V(x), V(y)))), y),
     "(all) substituting y for x captures y"),
    ([Eq(Z, Z)], ExRule(Eq(Z, Z), Z), "(ex) principal is not existential: (eq 0 0)"),
    ([Ex(x, All(y, Eq(V(x), V(y))))], ExRule(Ex(x, All(y, Eq(V(x), V(y)))), V(y)),
     "(ex) substituting y for x captures y"),
    ([Neq(Z, ONE)], RepRule(V(x), Z, x, Z, ONE), "(rep) needs the instance (neq 0 0)"),
    ([Eq(Z, Z)], PredRule(Z, Z), "(pred) needs (neq (s 0) (s 0))"),
    ([Eq(Z, Z)], CaseRule(x), "(case) case variable x is not free in (seq (eq 0 0))"),
    ([Eq(Z, Z)], WeakRule(Sequent([Eq(Z, ONE)])),
     "(weak) (eq 0 (s 0)) is not in (seq (eq 0 0)) often enough"),
    ([Eq(Z, Z)], OrRule(Or(Eq(Z, Z), Eq(Z, Z))),
     "(or) (or (eq 0 0) (eq 0 0)) does not occur in (seq (eq 0 0))"),
    # an absent principal is named first, even with the eigenvariable free
    ([Eq(V(x), Z)], AllRule(All(y, Eq(V(y), Z)), x),
     "(all) (all y (eq y 0)) does not occur in (seq (eq x 0))"),
]


@pytest.mark.parametrize("conclusion,rule,message", _GUARDS)
def test_each_step_guard_names_its_rule_once(conclusion, rule, message):
    kids = tuple(_open(f"n{i + 1}", Eq(Z, Z), ()) for i in range(rule.premises))
    root = ProofNode("n0", Sequent(conclusion), rule, kids)
    assert validate(root, SN0, plain=True).violations[0] == Violation("n0", "Tree", message)


def test_step_messages_name_the_rule_once_for_premise_mismatches():
    seq = Sequent([Eq(Z, Z)])
    wrong = ProofNode("n0", seq, RefRule(Z), (ProofNode("n1", seq, AxiomLeaf()),))
    assert check_tree(wrong)[0] == Violation(
        "n0", "Tree", "(ref) premise 0: expected (seq (eq 0 0) (neq 0 0)), "
        "got (seq (eq 0 0))")


def test_an_assumed_formula_must_be_a_sentence():
    # --assume files may hold open formulas; only the leaf check refuses them
    f = Eq(V(x), Z)
    leaf = ProofNode("a", Sequent([f]), AssumeLeaf(f))
    assert check_tree(leaf, [f]) == \
        [Violation("a", "Tree", "assumed formula must be a sentence")]


def test_a_leaf_with_children_is_rejected():
    # the reader refuses such a node, so only a tree built here reaches it
    seq = Sequent([Eq(Z, Z), Neq(Z, Z)])
    leaf = ProofNode("n0", seq, AxiomLeaf(), (ProofNode("n1", seq, AxiomLeaf()),))
    assert check_tree(leaf) == [Violation("n0", "Tree", "leaf with children")]
    annotated = ProofNode("n0", seq, AxiomLeaf(), (ProofNode("n1", seq, AxiomLeaf(), (), EMPTY),),
                          EMPTY)
    assert [(v.node_id, v.tag, v.message) for v in validate(annotated, SN0).violations] == \
        [("n0", "Step", "leaf with children")]


def test_an_assumption_leaf_carries_the_annotation_propagation_gives():
    proof, mode = forall_cycle_proof()
    assert validate(proof, mode).valid
    changed = _with(proof, "a0", vars=frozenset({x}))
    assert [(v.node_id, v.tag, v.message) for v in validate(changed, mode).violations] == \
        [("a0", "Annotation", "expected {}, found {x}")]


# --- back-link conditions: each reports its own defect, once --------------------

def _with(root, node_id, **change):
    return rebuild(root, lambda n: dataclasses.replace(n, **change) if n.id == node_id else n)


def test_a_back_leaf_aimed_at_itself_is_not_below_its_target():
    rep = validate(retarget(schema(), "n4", "n4"), SN0)
    assert [(v.node_id, v.tag, v.message) for v in rep.violations] == \
        [("n4", "NotAncestor", "n4 is not a proper ancestor")]


def test_a_cycle_of_one_edge_is_judged_like_any_other():
    # (weak) of nothing keeps its sequent, so its premise may link straight
    # back to it; the cycle crosses no (case)
    seq, vs = Sequent([Eq(V(x), Zero())]), frozenset({x})
    root = ProofNode("n0", seq, WeakRule(Sequent()),
                     (ProofNode("n1", seq, BackLeaf("n0"), (), vs),), vs)
    rep = validate(root, SN0)
    assert [(v.node_id, v.tag) for v in rep.violations] == [("n1", "NoProgress")]
    assert rep.stats.cycle_lengths == (1,)


@pytest.mark.parametrize("node_id", ["n4", "n0"])
def test_an_unannotated_end_of_a_back_link_is_reported_once(node_id):
    rep = validate(_with(schema(), node_id, vars=None), SN0)
    assert [(v.node_id, v.tag) for v in rep.violations] == [(node_id, "Unannotated")]


def test_a_back_leaf_annotated_unlike_its_target():
    rep = validate(_with(schema(), "n4", vars=frozenset()), SN0)
    assert [(v.node_id, v.tag, v.message) for v in rep.violations] == [
        ("n4", "Annotation", "expected {x}, found {}"),
        ("n4", "AnnotationMismatch", "leaf {} vs target {x}")]


def test_an_assumption_leaf_closes_only_the_formula_it_assumes():
    # (eq 0 0) is declared, but the leaf's sequent is the false 0 = s(0)
    leaf = ProofNode("a", Sequent([Eq(Z, ONE)]), AssumeLeaf(Eq(Z, Z)))
    assert check_tree(leaf, [Eq(Z, Z)]) == [Violation(
        "a", "Tree", "assumption leaf sequent must be the assumed formula alone")]


def test_only_a_case_right_premise_counts_as_progress():
    # the cycle passes through the right premise of a (cut), not a (case)
    goal = Sequent([Eq(V(x), V(x))])
    right = ProofNode("n2", goal.add(Neq(Z, Z)), WeakRule(Sequent([Neq(Z, Z)])),
                      (ProofNode("n3", goal, BackLeaf("n0")),))
    root = annotate_tree(ProofNode("n0", goal, CutRule(Eq(Z, Z)),
                                   (_closed("n1", goal.add(Eq(Z, Z))), right)), {x}, SN0)
    assert [(v.node_id, v.tag) for v in validate(root, SN0).violations] == \
        [("n3", "NoProgress")]


def test_a_case_with_one_premise_on_a_cycle_is_reported_not_raised():
    # only a tree built here can give (case) one premise; the cycle runs
    # through it
    goal, vs = Sequent([Eq(V(x), Z)]), frozenset({x})
    root = ProofNode("n0", goal, CaseRule(x), (ProofNode("n1", goal, BackLeaf("n0"), (), vs),),
                     vs)
    assert [(v.node_id, v.tag) for v in validate(root, SN0).violations] == \
        [("n0", "Step"), ("n1", "NoProgress")]


def test_a_case_left_premise_is_no_progress():
    # x = x, by (case x); its left premise 0 = 0 gets x = x back by a cut
    # and a weakening, and links to the root
    goal, left = Sequent([Eq(V(x), V(x))]), Sequent([Eq(Z, Z)])
    back = ProofNode("n2", left.add(Eq(V(x), V(x))), WeakRule(left),
                     (ProofNode("n3", goal, BackLeaf("n0")),))
    cut = ProofNode("n1", left, CutRule(Eq(V(x), V(x))),
                    (back, _closed("n4", left.add(Neq(V(x), V(x))))))
    sx = Sequent([Eq(Succ(V(x)), Succ(V(x)))])
    step = ProofNode("n5", sx, RefRule(Succ(V(x))),
                     (ProofNode("n6", sx.add(Neq(Succ(V(x)), Succ(V(x)))), AxiomLeaf()),))
    root = annotate_tree(ProofNode("n0", goal, CaseRule(x), (cut, step)), {x}, SN0)
    root = _with(root, "n3", vars=frozenset({x}))  # as its target, unlike its parent
    assert [(v.node_id, v.tag, v.message) for v in validate(root, SN0).violations] == [
        ("n3", "Annotation", "expected {}, found {x}"),
        ("n3", "AnnotationMismatch", "annotation changes at n1"),
        ("n3", "NoProgress", "no (case) right premise on the cycle")]


@pytest.mark.parametrize("formula", [
    Neq(Z, Z), Neq(V(x), Z), Neq(Succ(V(x)), Succ(Z)), Neq(ONE, ONE), Eq(ONE, Z)])
def test_an_axiom_leaf_closes_only_an_axiom(formula):
    # s(t) != 0 is an axiom; neither 0 != 0 nor s(t) != s(u) is
    leaf = ProofNode("n0", Sequent([formula]), AxiomLeaf())
    assert check_tree(leaf) == [Violation("n0", "Tree", f"not an axiom: {leaf.sequent.sx}")]
