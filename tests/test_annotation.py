import random

import pytest

from cyclarith import (
    Add,
    All,
    AllRule,
    And,
    AndRule,
    AxiomLeaf,
    CaseRule,
    CutRule,
    Eq,
    Ex,
    ExRule,
    Mode,
    Neq,
    OrRule,
    Or,
    ProofNode,
    RefRule,
    Sequent,
    Succ,
    System,
    V,
    Var,
    WeakRule,
    Zero,
    annotate_tree,
    check_tree,
    erase,
    is_annotated,
    numeral,
    parse_aseq,
    propagate,
    render_proof,
    validate,
)
from cyclarith.calculus import ArgMismatch

x, y, z = Var("x"), Var("y"), Var("z")

SN0 = Mode(System.SN, 0)
SPI0 = Mode(System.SPI, 0)
SSIG0 = Mode(System.SSIGMA, 0)

PI1 = All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x))))
SIG1 = Ex(y, Eq(V(x), V(y)))
ATOM = Eq(Add(V(x), Zero()), V(x))


def test_mode_fields():
    m = Mode(System.SPI, 2, frozenset([ATOM]))
    assert m.system is System.SPI
    assert m.level == 2
    assert ATOM in m.assumptions
    assert Mode(System.SN, 0).assumptions == frozenset()


def test_propagate_copies_by_default():
    aseq = (Sequent([ATOM, SIG1]), frozenset([x]))
    for rule in [WeakRule(Sequent([SIG1])), OrRule(Or(ATOM, ATOM)), RefRule(V(x))]:
        if isinstance(rule, OrRule):
            aseq_r = (Sequent([Or(ATOM, ATOM)]), frozenset([x]))
            assert propagate(*aseq_r, rule, SN0) == [frozenset([x])]
        else:
            assert propagate(*aseq, rule, SN0) == [frozenset([x])]


def test_propagate_and_splits_on_class():
    # premise keeps the annotation only when its displayed conjunct stays
    # inside the restricted class
    phi = And(PI1, SIG1)
    aseq = (Sequent([phi, ATOM]), frozenset([x]))
    assert propagate(*aseq, AndRule(phi), SN0) == [frozenset([x]), frozenset()]
    flipped = And(SIG1, PI1)
    aseq2 = (Sequent([flipped, ATOM]), frozenset([x]))
    assert propagate(*aseq2, AndRule(flipped), SN0) == [frozenset(), frozenset([x])]


def test_propagate_and_rejects_a_principal_that_is_no_conjunction():
    # annotate propagates before any step check, so a mistyped (and) rule
    # must be an ArgMismatch (exit 1 from the CLI), not an AttributeError
    aseq = (Sequent([PI1, ATOM]), frozenset([x]))
    with pytest.raises(ArgMismatch, match="not a conjunction"):
        propagate(*aseq, AndRule(PI1), SN0)
    root = ProofNode("n", Sequent([PI1]), AndRule(PI1), ())
    with pytest.raises(ArgMismatch):
        annotate_tree(root, frozenset([x]), SN0)


def test_propagate_all_rejects_a_principal_it_cannot_instantiate():
    # likewise an (all) rule whose principal is no universal, or whose
    # body would capture the eigenvariable
    aseq = (Sequent([ATOM]), frozenset([x]))
    with pytest.raises(ArgMismatch,
                       match=r"^\(all\) principal is not universal: \(eq \(add x 0\) x\)$"):
        propagate(*aseq, AllRule(ATOM, y), SN0)
    # an existential has a body and a variable too
    with pytest.raises(ArgMismatch, match=r"^\(all\) principal is not universal: \(ex y "):
        propagate(Sequent([SIG1]), frozenset([x]), AllRule(SIG1, z), SN0)
    # ssigma clears the annotation on every (all) before looking at it
    assert propagate(*aseq, AllRule(ATOM, y), SSIG0) == [frozenset()]
    phi = All(x, Ex(y, Eq(V(x), V(y))))
    with pytest.raises(ArgMismatch, match="^substituting y for x captures y$"):
        propagate(Sequent([phi]), frozenset([x]), AllRule(phi, y), SN0)


def test_propagate_cut_splits_on_class():
    aseq = (Sequent([ATOM]), frozenset([x]))
    out = propagate(*aseq, CutRule(PI1), SN0)
    assert out[0] == frozenset([x])  # cut formula in class
    out2 = propagate(*aseq, CutRule(SIG1), SN0)
    assert out2[0] == frozenset()  # cut formula outside class
    # the negation side is Pi_1 for a Sigma_1 cut formula
    assert out2[1] == frozenset([x])


def test_propagate_all():
    phi = All(y, Eq(V(x), V(y)))
    aseq = (Sequent([phi]), frozenset([x]))
    assert propagate(*aseq, AllRule(phi, z), SN0) == [frozenset([x])]
    # eigenvariable inside the annotation blocks keeping it
    aseq2 = (Sequent([phi]), frozenset([z]))
    assert propagate(*aseq2, AllRule(phi, z), SN0) == [frozenset()]
    # the Sigma-style system always clears on (all)
    assert propagate(*aseq, AllRule(phi, z), SSIG0) == [frozenset()]


def test_propagate_ex_copies():
    phi = Ex(y, Eq(V(x), V(y)))
    aseq = (Sequent([phi]), frozenset([x]))
    assert propagate(*aseq, ExRule(phi, numeral(1)), SN0) == [frozenset([x])]


def test_propagate_case_sn():
    # left premise always cleared; right extends when the case variable
    # occurs only in formulas of the restricted class
    aseq = (Sequent([ATOM]), frozenset())
    assert propagate(*aseq, CaseRule(x), SN0) == [frozenset(), frozenset([x])]
    mixed = (Sequent([ATOM, SIG1]), frozenset())
    assert propagate(*mixed, CaseRule(x), SN0) == [frozenset(), frozenset()]
    # x free only in class formulas: the Sigma occurrence of x blocks SN
    only_r = (Sequent([ATOM, PI1]), frozenset())
    assert propagate(*only_r, CaseRule(x), SN0) == [frozenset(), frozenset([x])]


def test_propagate_case_spi_needs_all_in_class():
    mixed = (Sequent([ATOM, SIG1]), frozenset())
    assert propagate(*mixed, CaseRule(x), SPI0) == [frozenset(), frozenset()]
    only_r = (Sequent([ATOM, PI1]), frozenset())
    assert propagate(*only_r, CaseRule(x), SPI0) == [frozenset(), frozenset([x])]


def test_propagate_case_ssigma():
    s = (Sequent([SIG1]), frozenset())
    assert propagate(*s, CaseRule(x), Mode(System.SSIGMA, 1)) == [frozenset(), frozenset([x])]
    # Pi_1 formula is outside Sigma_1, blocks the extension
    s2 = (Sequent([PI1]), frozenset())
    assert propagate(*s2, CaseRule(x), Mode(System.SSIGMA, 1)) == [frozenset(), frozenset()]


def test_is_annotated_and_erase(cyclic_corpus):
    for name, root, _mode in cyclic_corpus[:10]:
        assert is_annotated(root), name
        plain = erase(root)
        assert not is_annotated(plain), name


def test_annotate_identity_on_corpus(cyclic_corpus):
    # re-annotating the erased tree reproduces the original byte for byte
    for name, root, mode in cyclic_corpus:
        plain = erase(root)
        redone = annotate_tree(plain, root.vars, mode)
        assert render_proof(redone) == render_proof(root), name


def test_annotate_deterministic(cyclic_corpus):
    for name, proof, mode in cyclic_corpus[:15]:
        plain = erase(proof)
        a = annotate_tree(plain, proof.vars, mode)
        b = annotate_tree(plain, proof.vars, mode)
        assert render_proof(a) == render_proof(b), name


def test_parse_aseq():
    assert parse_aseq("(aseq (seq (eq x 0)) (vars x y))") == \
        (Sequent([Eq(V(x), Zero())]), frozenset([x, y]))
    assert parse_aseq("(aseq (seq) (vars))") == (Sequent([]), frozenset())


@pytest.mark.parametrize("system", [System.SN, System.SPI])
def test_all_keeps_the_annotation_only_for_an_instance_in_the_class(system):
    # all y ex w (w = y + x): its instance at z is Sigma_1, outside Pi_1
    w = Var("w")
    phi = All(y, Ex(w, Eq(V(w), Add(V(y), V(x)))))
    conclusion = (Sequent([phi]), frozenset({x}))
    assert propagate(*conclusion, AllRule(phi, z), Mode(system, 0)) == [frozenset()]
    assert propagate(*conclusion, AllRule(phi, z), Mode(system, 1)) == [frozenset({x})]


def _violations(report):
    return [(v.node_id, v.message) for v in report]


@pytest.mark.parametrize("rule, premises", [(AxiomLeaf(), 0), (RefRule(Zero()), 1)])
def test_annotate_keeps_the_children_a_rule_gives_no_premise_for(rule, premises):
    # a library-built tree: the reader refuses a node with extra children
    axiom = Sequent([Eq(Zero(), Zero()), Neq(Zero(), Zero())])
    seq = axiom if premises == 0 else Sequent([Eq(Zero(), Zero())])
    kids = tuple(ProofNode(f"k{i}", axiom, AxiomLeaf()) for i in range(premises + 1))
    node = ProofNode("n", seq, rule, kids)
    done = annotate_tree(node, frozenset({x}), SN0)
    assert [(k.id, k.vars) for k in done.children] == \
        [(k.id, frozenset({x})) for k in kids[:premises]] + [(kids[-1].id, frozenset())]
    report = validate(done, SN0)
    assert not report.valid
    assert _violations(report.violations) == _violations(check_tree(node)) != []
