import dataclasses
import gc
import random
import re
import sys
from pathlib import Path

import pytest

from cyclarith import (
    Add,
    Add0Rule,
    AddSRule,
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
    Mul,
    Neq,
    OpenLeaf,
    Or,
    OrRule,
    PredRule,
    ProofNode,
    RefRule,
    RepRule,
    Sequent,
    Succ,
    V,
    Var,
    WeakRule,
    Zero,
    check_step,
    is_axiom,
    numeral,
    parse_graph,
    parse_proof,
    parse_sequent,
    premises_of,
    prove_ground_atom,
    render_proof,
    walk,
)
from cyclarith import calculus, sexpr
from cyclarith.calculus import (ArgMismatch, RULE_ARITY, rule_from_sexpr,
                                rule_to_sexpr_str)

from cyclarith import (Mode, System, annotate_tree, erase, extract_all, graph_of,
                       is_annotated, prefix_equal, ravel, syntax, unravel, validate)
from cyclarith.calculus import BackLeaf, node_map, proof_from_sexpr
from cyclarith.cli import build_corpus
from cyclarith.sexpr import SexprError
from cyclarith.syntax import ParseError

import reference_sexpr
from conftest import (RULE_NAMES, check_tree, grid_counterexample, make_rule_instance, mutate_document,
                      random_term)

x, y, z = Var("x"), Var("y"), Var("z")


def test_sequent_multiset():
    a = Eq(V(x), Zero())
    b = Neq(V(y), Zero())
    s = Sequent([a, a, b])
    assert s.count(a) == 2 and s.count(b) == 1
    assert len(s.formulas) == 3
    assert s.remove_one(a).count(a) == 1
    assert s.minus(Sequent([a, b])).sx == "(seq (eq x 0))"
    assert s.add(b).count(b) == 2
    assert s.fv == frozenset([x, y])


def test_sequent_canonical_order():
    a = Eq(V(x), Zero())
    b = Neq(V(y), Zero())
    assert Sequent([a, b]).sx == Sequent([b, a]).sx
    assert Sequent([a, b]) == Sequent([b, a])
    assert parse_sequent(Sequent([b, a]).sx) == Sequent([a, b])


@pytest.mark.parametrize("text", ["(seqq (eq 0 0))", "x", '"seq"', "()", "(s (s (s (s 0))))"])
def test_a_sequent_is_a_seq_list(text):
    # the line break keeps the node from being one block, so a numeral in
    # it is read as a Chain
    for read in (parse_sequent, lambda t: parse_proof(f"(node :id a\n {t} (axiom))")):
        with pytest.raises(ParseError) as exc:
            read(text)
        assert str(exc.value) == f"bad sequent {text}"


def test_is_axiom():
    assert is_axiom(Sequent([Eq(V(x), V(y)), Neq(V(x), V(y))])) == "ax_a"
    assert is_axiom(Sequent([Neq(Succ(Add(V(x), V(y))), Zero())])) == "ax_s"
    # ax_a needs the syntactically identical pair, not a symmetric variant
    assert is_axiom(Sequent([Eq(V(x), V(y)), Neq(V(y), V(x))])) is None
    assert is_axiom(Sequent([Eq(V(x), V(y))])) is None
    # s(t) != 0 must have that exact orientation
    assert is_axiom(Sequent([Neq(Zero(), Succ(V(x)))])) is None


def test_rule_arity():
    assert RULE_ARITY["and"] == 2
    assert RULE_ARITY["case"] == 2
    assert RULE_ARITY["cut"] == 2
    for name in ["or", "all", "ex", "ref", "rep", "add0", "adds", "mult0", "mults", "pred", "weak"]:
        assert RULE_ARITY[name] == 1
    for name in ["axiom", "assume", "open", "back"]:
        assert RULE_ARITY[name] == 0


def test_premises_and():
    phi = And(Eq(V(x), Zero()), Neq(V(y), Zero()))
    c = Sequent([phi, Eq(Zero(), Zero())])
    left, right = premises_of(c, AndRule(phi))
    assert left == Sequent([Eq(Zero(), Zero()), Eq(V(x), Zero())])
    assert right == Sequent([Eq(Zero(), Zero()), Neq(V(y), Zero())])


def test_premises_or():
    phi = Or(Eq(V(x), Zero()), Neq(V(y), Zero()))
    c = Sequent([phi])
    (p,) = premises_of(c, OrRule(phi))
    assert p == Sequent([Eq(V(x), Zero()), Neq(V(y), Zero())])


def test_premises_all_eigenvariable():
    phi = All(x, Neq(Succ(V(x)), Zero()))
    (p,) = premises_of(Sequent([phi]), AllRule(phi, z))
    assert p.sx == "(seq (neq (s z) 0))"
    # eigenvariable must not occur free in the conclusion
    c = Sequent([phi, Eq(V(z), Zero())])
    with pytest.raises(ArgMismatch):
        premises_of(c, AllRule(phi, z))


def test_premises_ex_keeps_principal():
    phi = Ex(x, Eq(V(x), Zero()))
    (p,) = premises_of(Sequent([phi]), ExRule(phi, numeral(0)))
    assert p == Sequent([phi, Eq(Zero(), Zero())])


def test_premises_arith_axioms():
    c = Sequent([Eq(Zero(), Zero())])
    (p,) = premises_of(c, RefRule(V(x)))
    assert p == c.add(Neq(V(x), V(x)))
    (p,) = premises_of(c, Add0Rule(V(x)))
    assert p == c.add(Neq(Add(V(x), Zero()), V(x)))
    (p,) = premises_of(c, AddSRule(V(x), V(y)))
    assert p == c.add(Neq(Add(V(x), Succ(V(y))), Succ(Add(V(x), V(y)))))


def test_premises_pred():
    c = Sequent([Neq(Succ(Zero()), Succ(V(x)))])
    (p,) = premises_of(c, PredRule(Zero(), V(x)))
    assert p == c.add(Neq(Zero(), V(x)))
    with pytest.raises(ArgMismatch):
        premises_of(Sequent([Eq(Zero(), Zero())]), PredRule(Zero(), V(x)))


def test_premises_rep():
    # rewrite x + 0 to x inside s(_) != s(_)-frame
    hole = Var("h")
    t0 = Add(V(x), Zero())
    t1 = V(x)
    inst0 = Neq(Succ(t0), Succ(t0))
    c = Sequent([Neq(t0, t1), inst0])
    r = RepRule(Succ(V(hole)), Succ(V(hole)), hole, t0, t1)
    (p,) = premises_of(c, r)
    assert p == c.add(Neq(Succ(t1), Succ(t1)))
    # both the disequation and the instance at t0 must be present
    with pytest.raises(ArgMismatch):
        premises_of(Sequent([Neq(t0, t1)]), r)


def test_premises_case_substitutes():
    s = Sequent([Eq(Add(V(x), Zero()), V(x))])
    zero, succ = premises_of(s, CaseRule(x))
    assert zero.sx == "(seq (eq (add 0 0) 0))"
    assert succ.sx == "(seq (eq (add (s x) 0) (s x)))"
    with pytest.raises(ArgMismatch):
        premises_of(Sequent([Eq(Zero(), Zero())]), CaseRule(x))


def test_premises_weak_cut():
    a, b = Eq(V(x), Zero()), Neq(V(y), V(y))
    c = Sequent([a, b])
    (p,) = premises_of(c, WeakRule(Sequent([b])))
    assert p == Sequent([a])
    with pytest.raises(ArgMismatch):
        premises_of(Sequent([a]), WeakRule(Sequent([b])))
    l, r = premises_of(c, CutRule(Eq(V(z), Zero())))
    assert l == c.add(Eq(V(z), Zero()))
    assert r == c.add(Neq(V(z), Zero()))


def test_check_step_random_instances():
    rng = random.Random(8)
    for name in RULE_NAMES:
        for _ in range(25):
            concl, rule = make_rule_instance(rng, name)
            prems = premises_of(concl, rule)
            assert check_step(concl, rule, prems) is None, name


def _ill_formed(rng, concl, rule):
    """(conclusion, rule) pairs made from a well-formed instance so that the
    arguments may no longer fit it: the principal with the dual connective,
    the principal taken out of the conclusion, an eigenvariable free in the
    conclusion, and (rep) without its t0 != t1, once as made and once with a
    pattern whose instances differ in truth, so that t0 and t1 matter."""
    if isinstance(rule, (AndRule, OrRule, AllRule, ExRule)):
        p = rule.principal
        if isinstance(p, (And, Or)):
            flipped = (Or if isinstance(p, And) else And)(p.left, p.right)
        else:
            flipped = (Ex if isinstance(p, All) else All)(p.var, p.body)
        yield concl.remove_one(p).add(flipped), dataclasses.replace(rule, principal=flipped)
        yield concl.remove_one(p), rule
    if isinstance(rule, AllRule):
        yield concl.add(Eq(V(rule.var), numeral(rng.randrange(3)))), rule
    if isinstance(rule, RepRule):
        neq = Neq(rule.t0, rule.t1)
        yield concl.minus([neq]), rule
        other = RepRule(V(rule.var), numeral(rng.randrange(3)), rule.var, rule.t0,
                        random_term(rng, 1, [x, y, z]))
        yield concl.minus([neq, rule.instance(rule.t0)]).add(other.instance(other.t0)), other


def test_premises_of_is_sound_or_refuses_on_ill_formed_instances():
    # the guards of premises_of never fire on make_rule_instance's output;
    # here every pair it accepts must pass the local soundness check
    rng = random.Random(31)
    tried = refused = 0
    bad = []
    for name in ("and", "or", "all", "ex", "rep"):
        for _ in range(60):
            for concl, rule in _ill_formed(rng, *make_rule_instance(rng, name)):
                tried += 1
                try:
                    prems = premises_of(concl, rule)
                except ArgMismatch:
                    refused += 1
                    continue
                env = grid_counterexample(concl, prems)
                if env is not None:
                    bad.append((rule, concl.sx, env))
    assert bad == [], bad[:3]
    assert tried == 60 * (2 + 2 + 3 + 2 + 2) and refused > tried * 0.9


def test_check_step_rejects_wrong_premises():
    rng = random.Random(9)
    junk = Sequent([Eq(numeral(3), numeral(4))])
    for name in RULE_NAMES:
        concl, rule = make_rule_instance(rng, name)
        prems = premises_of(concl, rule)
        # wrong count
        assert check_step(concl, rule, prems + [junk]) is not None
        # altered premise
        broken = [p.add(Eq(numeral(4), numeral(5))) for p in prems]
        assert check_step(concl, rule, broken) is not None


def _leaf(i, seq, rule):
    return ProofNode(i, seq, rule)


def test_check_tree_small():
    ax = Sequent([Eq(V(x), V(y)), Neq(V(x), V(y))])
    good = ProofNode("n0", ax, AxiomLeaf())
    assert check_tree(good) == []
    # axiom leaf with a non-axiom sequent
    bad = ProofNode("n0", Sequent([Eq(V(x), V(y))]), AxiomLeaf())
    assert check_tree(bad) != []


def test_check_tree_rejects_open_and_back():
    s = Sequent([Eq(Zero(), Zero())])
    assert check_tree(ProofNode("n0", s, OpenLeaf())) != []
    assert check_tree(ProofNode("n0", s, BackLeaf("n0"))) != []


def test_check_tree_assumptions():
    from cyclarith import AssumeLeaf

    phi = All(x, Eq(V(x), V(x)))
    leaf = ProofNode("n0", Sequent([phi]), AssumeLeaf(phi))
    assert check_tree(leaf, assumptions={phi}) == []
    assert check_tree(leaf) != []
    # assumption leaves must be the singleton of the assumed sentence
    fat = ProofNode("n0", Sequent([phi, Eq(Zero(), Zero())]), AssumeLeaf(phi))
    assert check_tree(fat, assumptions={phi}) != []


def test_check_tree_corpus(proof_corpus):
    for name, proof, _mode in proof_corpus:
        if not is_annotated(proof):
            assert check_tree(proof) == [], name


def test_walk_preorder():
    s = Sequent([Eq(Zero(), Zero()), Neq(Zero(), Zero())])
    leaf = ProofNode("b", s, AxiomLeaf())
    root = ProofNode("a", s, WeakRule(Sequent()), (ProofNode("m", s.minus(Sequent()), WeakRule(Sequent()), (leaf,)),))
    assert [n.id for n in walk(root)] == ["a", "m", "b"]


def test_proof_render_parse_round_trip(proof_corpus):
    for name, root, _mode in proof_corpus[:30]:
        txt = render_proof(root)
        back = parse_proof(txt)
        assert render_proof(back) == txt, name


# --- reading each document once ------------------------------------------


def _deep_chain(n):
    """A plain proof 2n+2 nodes deep: (ref 0) and (weak (seq (neq 0 0)))
    alternate above an axiom, so every sequent has one or two formulas."""
    gamma = Sequent([Eq(Zero(), Zero())])
    neq = Neq(Zero(), Zero())
    node = ProofNode("r", gamma, RefRule(Zero()), (ProofNode("a", gamma.add(neq), AxiomLeaf()),))
    for i in range(n):
        node = ProofNode(f"w{i}", gamma.add(neq), WeakRule(Sequent([neq])), (node,))
        node = ProofNode(f"r{i}", gamma, RefRule(Zero()), (node,))
    return node


def test_deep_proof_parses_annotates_erases_and_checks_without_recursion():
    text = render_proof(_deep_chain(500))
    sn0 = Mode(System.SN, 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        root = parse_proof(text)
        assert sum(1 for _ in walk(root)) == 1002
        assert validate(root, sn0).valid
        annotated = annotate_tree(root, frozenset({x}), sn0)
        assert is_annotated(annotated)
        assert validate(annotated, sn0).valid
        assert extract_all(annotated, sn0) == []
        again = render_proof(annotated)
        assert render_proof(parse_proof(again)) == again
        assert render_proof(erase(annotated)) == text
        assert render_proof(ravel(graph_of(root), sn0)) == text
        assert sum(1 for _ in walk(unravel(root, 2000))) == 1002
        assert prefix_equal(root, root)
    finally:
        sys.setrecursionlimit(limit)


def _outcome(read, text):
    try:
        return ("proof", render_proof(read(text)))
    except ParseError as exc:
        return ("error", str(exc))


def _reference_proof(text):
    """parse_proof over the recursive reference reader, whose lists are
    never shared."""
    try:
        value = reference_sexpr.parse(text)
    except SexprError as exc:
        raise ParseError(str(exc)) from exc
    return proof_from_sexpr(value)


def test_shared_reading_matches_unshared_reference_on_corpus_and_mutants():
    texts = [entry.text + "\n" for seed in (1, 2, 3) for entry in build_corpus(seed)]
    back_links = 0
    for text in texts:
        want = _outcome(_reference_proof, text)
        assert want[0] == "proof"
        assert _outcome(parse_proof, text) == want
        # a back-link leaf repeats its target's sequent
        nodes = node_map(parse_proof(text))
        for node in nodes.values():
            if isinstance(node.rule, BackLeaf):
                assert node.sequent == nodes[node.rule.target].sequent
                back_links += 1
    assert back_links > 40
    rng = random.Random(23)
    small = [t for t in texts if len(t) < 10000]
    seen = set()
    for _ in range(300):
        text = mutate_document(rng.choice(small), rng)
        want = _outcome(_reference_proof, text)
        seen.add(want[0])
        assert _outcome(parse_proof, text) == want, text
    assert seen == {"proof", "error"}


def _node_fields(root):
    return [(n.id, n.sequent, n.rule, n.vars, len(n.children)) for n in walk(root)]


def test_shared_reading_matches_unshared_reference_on_ground_proofs():
    # numerals are read as chain tokens; these proofs are mostly numerals
    texts = [entry.text + "\n" for seed in (1, 2, 3) for entry in build_corpus(seed)
             if entry.name.startswith("ground_")]
    assert len(texts) >= 15
    # every k to 20, then every fifth: the reference reader takes 5 s on all k <= 40
    texts += [render_proof(prove_ground_atom(Add(numeral(k), numeral(k)), numeral(2 * k)))
              for k in [*range(21), 25, 30, 35, 40]]
    for text in texts:
        assert _node_fields(parse_proof(text)) == _node_fields(_reference_proof(text))


@pytest.mark.parametrize("text, message", [
    # a term of a (rep) rule, then the same list as a formula of the premise
    ("(node :id n1 (seq (eq 0 0)) (rule rep (add h 0) 0 h (s 0) (s 0))"
     " (node :id n2 (seq (add h 0)) (axiom)))", "bad formula (add h 0)"),
    # a formula of the sequent, then the same list as the term of (ref)
    ("(node :id n1 (seq (eq 0 0)) (rule ref (eq 0 0)) (node :id n2 (seq) (axiom)))",
     "bad term (eq 0 0)"),
    # a sequent, then the same list as the formula of (cut)
    ("(node :id n1 (seq (eq 0 0)) (rule cut (seq (eq 0 0)))"
     " (node :id n2 (seq) (axiom)) (node :id n3 (seq) (axiom)))",
     "bad formula (seq (eq 0 0))"),
])
def test_shared_reading_converts_a_list_again_under_another_kind(text, message):
    for read in (parse_proof, _reference_proof):
        with pytest.raises(ParseError) as info:
            read(text)
        assert str(info.value) == message


@pytest.mark.parametrize("aseq", ["(aseq (seq (eq 0 0)))", "(aseq (seq (eq 0 0)) (vars) x)",
                                  "(aseq (seq (eq 0 0)) x)", "(aseq (seq (eq 0 0)) ())",
                                  "(aseq (seq (eq 0 0)) (foo x))",
                                  "(aseq (seq (eq 0 0))\n (s (s (s (s 0)))))"])
def test_an_annotated_sequent_is_a_seq_and_a_vars_list(aseq):
    for read in (parse_proof, _reference_proof):
        with pytest.raises(ParseError) as info:
            read(f"(node :id a\n {aseq} (axiom))")
        assert str(info.value) == f"bad annotated sequent {aseq}".replace("\n", "")


@pytest.mark.parametrize("rule", ["()", "((axiom))", "axiom", "(s (s (s (s 0))))", "(rule)",
                                  "(rule (and) x)"])
def test_a_rule_is_a_list_headed_by_an_atom(rule):
    for read in (parse_proof, _reference_proof):
        with pytest.raises(ParseError) as info:
            read(f"(node :id a (seq (eq 0 0))\n {rule})")
        assert str(info.value) == f"bad rule {rule}"


@pytest.mark.parametrize("text, message", [
    # a node's rule is read before its children
    ("(node :id n1 (seq) (bogus) (node :id n2 (seq) (bogus2)))", "bad rule (bogus)"),
    # the first child is read before the second
    ("(node :id n1 (seq) (rule cut (eq 0 0)) (node :id n2 (seq) (bogus2))"
     " (node :id n3 (seq) (bogus3)))", "bad rule (bogus2)"),
    # a node's premise count is checked after its children are read
    ("(node :id n1 (seq) (rule cut (eq 0 0)) (node :id n2 (seq) (bogus2)))",
     "bad rule (bogus2)"),
    ("(node :id n1 (seq) (rule cut (eq 0 0))"
     " (node :id n2 (seq) (axiom) (node :id n3 (seq) (axiom))))",
     "node n2: (axiom) takes 0 premises, got 1"),
])
def test_proof_reading_reports_the_first_error_in_document_order(text, message):
    with pytest.raises(ParseError) as info:
        parse_proof(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("x", "bad proof node x"),
    ("(s (s (s (s 0))))", "bad proof node (s (s (s (s 0))))"),    # a Chain, not a list
    ("(node :id)", "bad proof node (node :id)"),
    ("(node :id a (seq))", "node a is missing its rule"),
])
def test_a_node_without_its_id_sequent_and_rule_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as info:
        parse_proof(text)
    assert str(info.value) == message


def test_parse_proof_keeps_nothing_alive_after_the_call():
    gc.collect()
    before = len(syntax._TABLE)
    text = ("(node :id n1 (seq (eq probe_u probe_u) (eq probe_u probe_u)) (rule ref (s probe_u))"
            " (node :id n2 (seq (eq probe_u probe_u) (eq probe_u probe_u)"
            " (neq (s probe_u) (s probe_u))) (open)))")
    root = parse_proof(text)
    assert len(syntax._TABLE) > before
    del root
    gc.collect()
    assert len(syntax._TABLE) == before


# --- the rule table ----------------------------------------------------------


def _every_rule_and_leaf():
    rng = random.Random(5)
    rules = [make_rule_instance(rng, name)[1] for name in RULE_NAMES]
    return rules + [AxiomLeaf(), AssumeLeaf(Eq(V(x), Zero())), OpenLeaf(), BackLeaf("n0")]


def test_every_rule_and_leaf_kind_round_trips():
    rules = _every_rule_and_leaf()
    assert {r.name for r in rules} == set(RULE_ARITY)
    for r in rules:
        text = rule_to_sexpr_str(r)
        back = rule_from_sexpr(sexpr.parse(text))
        assert back == r and type(back) is type(r)
        assert rule_to_sexpr_str(back) == text


def test_one_argument_too_many_or_too_few_is_a_bad_rule():
    for r in _every_rule_and_leaf():
        value = sexpr.parse(rule_to_sexpr_str(r))
        shapes = [value + ["x"]]
        if len(value) > (2 if value[0] == "rule" else 1):
            shapes.append(value[:-1])
        for shape in shapes:
            with pytest.raises(ParseError, match=r"^bad rule "):
                rule_from_sexpr(shape)


@pytest.mark.parametrize("rule", ["(rule axiom)", "(and (eq 0 0))", "(rule (x) (eq 0 0))",
                                  "((x) (eq 0 0))", "(rule)", "(back (x))", '(back "n0")', "x"])
def test_malformed_rules_are_parse_errors_in_proofs_and_graphs(rule):
    with pytest.raises(ParseError, match=r"^bad rule "):
        rule_from_sexpr(sexpr.parse(rule))
    with pytest.raises(ParseError, match=r"^bad rule "):
        parse_proof(f"(node :id n0 (seq (eq 0 0)) {rule})")
    with pytest.raises(ParseError, match=r"^bad rule "):
        parse_graph(f"(graph (root n0) (gnode :id n0 (seq (eq 0 0)) {rule} (children)))")


def test_readme_and_module_docstring_name_exactly_the_rules():
    inferences = sorted(name for name, premises in RULE_ARITY.items() if premises)
    leaves = sorted(name for name, premises in RULE_ARITY.items() if not premises)
    assert sorted(re.findall(r"^ +\(rule ([^ <]+)", calculus.__doc__, re.M)) == inferences
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert sorted(re.search(r"Rule names: `([^`]*)`", readme)[1].split()) == inferences
    listed = re.search(r"with leaves (.*?)\.\n", readme, re.S)[1]
    assert sorted(re.findall(r"`\((\w+)", listed)) == leaves
    assert "`(assume f)`" in listed


@pytest.mark.parametrize("leaf", [AxiomLeaf(), AssumeLeaf(Eq(Zero(), Zero())), OpenLeaf(),
                                  BackLeaf("n0")])
def test_a_leaf_has_no_premises(leaf):
    with pytest.raises(ArgMismatch, match=f"^{leaf.name} has no premises$"):
        premises_of(Sequent([Eq(Zero(), Zero())]), leaf)
