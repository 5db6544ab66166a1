import dataclasses
import random
from collections import Counter

import pytest

from cyclarith import (
    Add,
    All,
    AssumeLeaf,
    AxiomLeaf,
    BackLeaf,
    Eq,
    Mode,
    Neq,
    OpenLeaf,
    RavelError,
    RegularProofGraph,
    System,
    V,
    Var,
    Zero,
    expand_graph,
    graph_of,
    induction_rule_via_assumptions,
    induction_schema_proof,
    parse_graph,
    prefix_equal,
    ravel,
    render_graph,
    unravel,
    validate,
    walk,
)

from cyclarith.calculus import node_map, parse_proof
from cyclarith.cli import build_corpus
from cyclarith.sexpr import SexprError
from cyclarith.syntax import ParseError
from cyclarith.transform import GRAPH

import reference_sexpr
from conftest import backlinks, graph_with, mutate_document, rebuild, retarget, schema

x, y = Var("x"), Var("y")
SN0 = Mode(System.SN, 0)


def test_graph_of_folds_back_links():
    p = schema()
    g = graph_of(p)
    assert g.root == "n0"
    # the back leaf becomes an edge, not a node
    assert "n4" not in g.nodes
    assert len(g.nodes) == len(node_map(p)) - 1
    assert "n0" in g.nodes["n3"].children


def test_graph_render_parse_round_trip(cyclic_corpus):
    for name, proof, _mode in cyclic_corpus[:12]:
        g = graph_of(proof)
        txt = render_graph(g)
        g2 = parse_graph(txt)
        assert render_graph(g2) == txt, name


def test_graph_constructor_checks_children():
    p = schema()
    g = graph_of(p)
    n0 = g.nodes["n0"]
    bad = dict(g.nodes)
    bad["n0"] = dataclasses.replace(n0, children=("zzz",) + n0.children[1:])
    with pytest.raises(ValueError):
        RegularProofGraph("n0", bad)


def test_unravel_depths():
    p = schema()
    t0 = unravel(p, 0)
    assert isinstance(t0.rule, OpenLeaf)
    assert len(list(walk(t0))) == 1
    t5 = unravel(p, 5)
    t10 = unravel(p, 10)
    assert len(list(walk(t5))) < len(list(walk(t10)))
    # deeper unravelings extend shallower ones
    assert prefix_equal(t0, t5)
    assert prefix_equal(t5, t10)
    assert prefix_equal(t10, t5)


def test_unravel_frontier_is_open():
    p = schema()
    t = unravel(p, 4)
    kinds = {type(n.rule).__name__ for n in walk(t)}
    assert "OpenLeaf" in kinds
    assert "BackLeaf" not in kinds


def test_prefix_equal_distinguishes():
    p = schema()
    q = induction_schema_proof(Eq(Add(V(x), Zero()), V(x)), x, 0)
    assert not prefix_equal(unravel(p, 6), unravel(q, 6))


def test_expand_graph_matches_unravel():
    p = schema()
    g = graph_of(p)
    from cyclarith import render_proof

    for d in [1, 5, 9]:
        assert render_proof(expand_graph(g, d)) == render_proof(unravel(p, d))


def test_ravel_round_trip(cyclic_corpus):
    for name, proof, mode in cyclic_corpus[:20]:
        g = graph_of(proof)
        back = ravel(g, mode)
        rep = validate(back, mode)
        assert rep.valid, (name, rep.violations[:2])
        # same shape up to back-leaf naming: ravel rebuilds those leaves
        orig_inner = set(node_map(proof)) - set(backlinks(proof))
        back_inner = set(node_map(back)) - set(backlinks(back))
        assert back_inner == orig_inner, name
        assert sorted(backlinks(back).values()) == sorted(backlinks(proof).values()), name


def test_ravel_rejects_bad_step():
    p = schema()
    g = graph_of(p)
    n3 = g.nodes["n3"]
    bad = dict(g.nodes)
    bad["n3"] = dataclasses.replace(n3, sequent=n3.sequent.add(Eq(Zero(), Zero())))
    with pytest.raises(RavelError):
        ravel(RegularProofGraph("n0", bad), SN0)


def test_unravel_prefixes_across_depths(cyclic_corpus):
    for name, proof, _mode in cyclic_corpus[:8]:
        ts = [unravel(proof, d) for d in (3, 7, 12)]
        assert prefix_equal(ts[0], ts[1]), name
        assert prefix_equal(ts[1], ts[2]), name


def test_ravel_rejects_fake_axiom_leaf():
    g = graph_with(graph_of(schema()), "a.t3", rule=AxiomLeaf(), children=())
    with pytest.raises(RavelError) as info:
        ravel(g, SN0)
    v = info.value.violation
    assert (v.node_id, v.tag) == ("a.t3", "AxiomLeaf")
    assert str(info.value).startswith("AxiomLeaf at a.t3: not an axiom: ")


def test_ravel_rejects_undeclared_assumption():
    commute = All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x))))
    proof, mode = induction_rule_via_assumptions(commute, x, 0)
    g = graph_of(proof)
    assert validate(ravel(g, mode), mode).valid
    bare = Mode(mode.system, mode.level)
    with pytest.raises(RavelError) as info:
        ravel(g, bare)
    assert info.value.violation.tag == "AssumeLeaf"
    assert isinstance(node_map(proof)[info.value.violation.node_id].rule, AssumeLeaf)


def test_unravel_rejects_back_links_to_no_inference():
    p = schema()
    for target in ("zz", "n4"):
        with pytest.raises(ValueError, match=f"unknown child {target}"):
            unravel(retarget(p, "n4", target), 5)


def _mutant(proof, rng):
    """proof with one node other than a back leaf changed in its sequent,
    rule (made a leaf, subtree pruned) or annotation; back-links keep
    their targets, since those are ancestors of the leaf."""
    spot = rng.choice([n for n in walk(proof) if not isinstance(n.rule, BackLeaf)])
    kind = rng.choice(("sequent", "rule", "vars"))
    if kind == "sequent":
        new = dataclasses.replace(spot, sequent=spot.sequent.add(Neq(Zero(), Zero())))
    elif kind == "rule":
        first = spot.sequent.formulas[:1] or (Eq(Zero(), Zero()),)
        leaf = rng.choice((AxiomLeaf(), AssumeLeaf(first[0]), OpenLeaf()))
        new = dataclasses.replace(spot, rule=leaf, children=())
    else:
        vs = rng.choice((None, frozenset(), spot.vars | {x}, spot.vars - {x}, frozenset({y})))
        new = dataclasses.replace(spot, vars=vs)
    return kind, rebuild(proof, lambda n: new if n.id == spot.id else n)


def test_ravel_raises_exactly_when_validate_rejects(cyclic_corpus):
    rng = random.Random(4)
    outcomes = Counter()
    for name, proof, mode in cyclic_corpus:
        for _ in range(6):
            kind, m = _mutant(proof, rng)
            invalid = not validate(m, mode).valid
            try:
                ravel(graph_of(m), mode)
                raised = False
            except RavelError:
                raised = True
            assert raised == invalid, (name, kind, render_graph(graph_of(m)))
            outcomes[kind, raised] += 1
    # every kind of mutation is seen rejected, and some mutants stay valid
    assert all(outcomes[k, True] for k in ("sequent", "rule", "vars"))
    assert sum(n for (_, raised), n in outcomes.items() if not raised) > 0


def _graph_outcome(read, text):
    try:
        return ("graph", render_graph(read(text)))
    except (ParseError, SexprError) as exc:
        return (type(exc).__name__, str(exc))


def _reference_graph(text):
    """parse_graph over the recursive reference reader, whose lists are
    never shared."""
    return GRAPH.read(reference_sexpr.parse(text))


def test_shared_graph_reading_matches_unshared_reference_on_corpus_and_mutants():
    texts = [render_graph(graph_of(parse_proof(entry.text))) + "\n"
             for seed in (1, 2, 3) for entry in build_corpus(seed) if entry.kind == "cyclic"]
    for text in texts:
        want = _graph_outcome(_reference_graph, text)
        assert want[0] == "graph"
        assert _graph_outcome(parse_graph, text) == want
    rng = random.Random(29)
    small = [t for t in texts if len(t) < 10000]
    seen = set()
    for _ in range(300):
        text = mutate_document(rng.choice(small), rng)
        want = _graph_outcome(_reference_graph, text)
        seen.add(want[0])
        assert _graph_outcome(parse_graph, text) == want, text
    assert seen == {"graph", "ParseError", "SexprError"}


def test_shared_graph_reading_converts_a_list_again_under_another_kind():
    # a formula of a sequent, then the same list as the term of (ref)
    text = ("(graph (root a) (gnode :id a (seq (eq 0 0)) (rule ref (eq 0 0)) (children b))"
            " (gnode :id b (seq (eq 0 0)) (axiom) (children)))")
    for read in (parse_graph, _reference_graph):
        with pytest.raises(ParseError, match=r"^bad term \(eq 0 0\)$"):
            read(text)


def test_proof_and_graph_read_a_malformed_annotation_alike():
    aseq = "(aseq (seq (eq 0 0)) (vars (x)))"
    messages = set()
    for read, text in ((parse_proof, f"(node :id a {aseq} (axiom))"),
                       (parse_graph, f"(graph (root a) (gnode :id a {aseq} (axiom) (children)))")):
        with pytest.raises(ParseError) as info:
            read(text)
        messages.add(str(info.value))
    assert messages == {"expected a variable, got (x)"}
