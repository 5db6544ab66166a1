import hashlib
import random
import re
import sys

import pytest

from cyclarith import (
    Add,
    All,
    And,
    AndRule,
    AxiomLeaf,
    Eq,
    Ex,
    Le,
    Mode,
    Mul,
    Neq,
    OpenLeaf,
    Or,
    PreError,
    ProofNode,
    RefRule,
    Sequent,
    Succ,
    System,
    V,
    Var,
    Zero,
    check_tree,
    eval_formula,
    forall_cycle_proof,
    induction_rule_proof,
    induction_rule_via_assumptions,
    induction_schema_proof,
    negate,
    numeral,
    omega_truncation,
    prove_ground_atom,
    step_from_assumption,
    substitute,
    tautology,
    two_loops_proof,
    validate,
    walk,
)
from cyclarith.builders import _grow, _plug, _redex, build_corpus
from cyclarith.calculus import node_map
from cyclarith.semantics import TV

from conftest import random_pi1, random_quantifier_free

x, y = Var("x"), Var("y")
SN0 = Mode(System.SN, 0)


def test_tautology_atom_is_single_axiom():
    t = tautology(Sequent(), Eq(V(x), V(y)))
    assert len(list(walk(t))) == 1
    assert t.sequent == Sequent([Eq(V(x), V(y)), Neq(V(x), V(y))])
    assert check_tree(t) == []


def test_tautology_root_sequent():
    gam = Sequent([Eq(Zero(), Zero())])
    phi = Or(Eq(V(x), Zero()), Neq(V(x), Zero()))
    t = tautology(gam, phi)
    assert t.sequent == gam.add(negate(phi)).add(phi)
    assert check_tree(t) == []


def test_tautology_universal():
    t = tautology(Sequent(), All(y, Eq(V(y), V(y))))
    names = [type(n.rule).__name__ for n in walk(t)]
    # eigenvariable introduction, then the same variable as witness
    assert names == ["AllRule", "ExRule", "WeakRule", "AxiomLeaf"]
    assert check_tree(t) == []


def test_tautology_random_depth4():
    rng = random.Random(12)
    for _ in range(60):
        phi = random_quantifier_free(rng, 4, [x, y])
        t = tautology(Sequent(), phi)
        assert check_tree(t) == []
    for _ in range(25):
        phi = random_pi1(rng, x)
        t = tautology(Sequent(), phi)
        assert check_tree(t) == []


def test_tautology_rejects_sugar():
    with pytest.raises(PreError):
        tautology(Sequent(), Le(V(x), V(y)))


def test_ground_atom_special_shapes():
    g1 = prove_ground_atom(Zero(), Zero())
    assert [type(n.rule).__name__ for n in walk(g1)] == ["RefRule", "AxiomLeaf"]
    assert g1.sequent == Sequent([Eq(Zero(), Zero())])
    g2 = prove_ground_atom(Succ(Zero()), Zero())
    assert len(list(walk(g2))) == 1
    assert g2.sequent == Sequent([Neq(Succ(Zero()), Zero())])


def test_ground_atom_polarity():
    g = prove_ground_atom(Add(numeral(1), numeral(1)), numeral(2))
    assert g.sequent == Sequent([Eq(Add(numeral(1), numeral(1)), numeral(2))])
    assert check_tree(g) == []
    d = prove_ground_atom(numeral(3), numeral(5))
    assert d.sequent == Sequent([Neq(numeral(3), numeral(5))])
    assert check_tree(d) == []


def test_ground_atom_random():
    rng = random.Random(77)
    for _ in range(60):
        a, b = rng.randrange(6), rng.randrange(6)
        t = rng.choice(
            [
                Add(numeral(a), numeral(b)),
                Mul(numeral(a), numeral(b)),
                Succ(Add(numeral(a), numeral(b))),
            ]
        )
        u = numeral(rng.randrange(12))
        g = prove_ground_atom(t, u)
        assert check_tree(g) == []
        want = Eq if eval_formula(Eq(t, u), {}, 64) is TV.TRUE else Neq
        assert g.sequent == Sequent([want(t, u)])


def test_ground_atom_rejects_open_terms():
    with pytest.raises(PreError):
        prove_ground_atom(V(x), Zero())


def test_schema_proof_shape():
    phi = All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x))))
    p = induction_schema_proof(phi, x, 0)
    assert isinstance(p, ProofNode)
    root = p
    psi = Ex(x, negate(Or(negate(phi), substitute(phi, x, Succ(V(x))))))
    # root carries the conclusion, its induction dual, and the zero instance
    assert root.sequent.count(phi) == 1
    assert root.sequent.count(negate(substitute(phi, x, Zero()))) == 1
    assert len(root.sequent.formulas) == 3
    assert root.vars == frozenset([x])
    assert validate(p, SN0).valid


def test_schema_proof_levels():
    z, w = Var("z"), Var("w")
    pi2 = All(y, Ex(z, Eq(Add(V(x), V(y)), Add(V(y), V(z)))))
    assert validate(induction_schema_proof(pi2, x, 1), Mode(System.SN, 1)).valid
    pi3 = All(y, Ex(z, All(w, Eq(Add(V(x), V(w)), Add(V(w), V(x))))))
    assert validate(induction_schema_proof(pi3, x, 2), Mode(System.SN, 2)).valid


def test_schema_proof_rejects_wrong_class():
    sig = Ex(y, Eq(V(x), V(y)))
    with pytest.raises(PreError):
        induction_schema_proof(sig, x, 0)  # Sigma_1 is not Pi_1
    with pytest.raises(PreError):
        induction_schema_proof(Eq(V(y), V(y)), x, 0)  # x not free


def test_rule_proof_assembly():
    phi = Eq(Add(Zero(), V(x)), V(x))
    proof, mode = induction_rule_via_assumptions(phi, x, 0)
    assert mode.system is System.SPI
    assert substitute(phi, x, Zero()) in mode.assumptions
    rep = validate(proof, mode)
    assert rep.valid
    assert proof.sequent == Sequent([phi])


def test_rule_proof_rejects_bad_subproofs():
    phi = Eq(Add(Zero(), V(x)), V(x))
    base = prove_ground_atom(Add(Zero(), Zero()), Zero())
    wrong_base = prove_ground_atom(Add(Zero(), numeral(1)), numeral(1))
    step, _hyp = step_from_assumption(phi, x)
    with pytest.raises(PreError):
        induction_rule_proof(wrong_base, step, phi, x, 0)


def test_step_from_assumption():
    phi = Eq(Add(Zero(), V(x)), V(x))
    step, hyp = step_from_assumption(phi, x)
    assert hyp == All(x, Or(negate(phi), substitute(phi, x, Succ(V(x)))))
    assert step.sequent == Sequent([negate(phi), substitute(phi, x, Succ(V(x)))])
    assert check_tree(step, assumptions={hyp}) == []


def test_two_loops():
    p, mode = two_loops_proof()
    rep = validate(p, mode)
    assert rep.valid
    assert rep.stats.backlinks == 2
    assert len(rep.stats.cycle_lengths) == 2


def test_forall_cycle():
    p, mode = forall_cycle_proof()
    rep = validate(p, mode)
    assert rep.valid
    # the cycle passes through a universal unpacking
    rules = {type(node_map(p)[i].rule).__name__ for i in ["f0", "f1", "f2", "f3"]}
    assert "AllRule" in rules and "CaseRule" in rules


def test_omega_truncation_spine():
    phi = Eq(Add(Zero(), V(x)), V(x))
    stages = [prove_ground_atom(Add(Zero(), numeral(k)), numeral(k)) for k in range(3)]
    om = omega_truncation(stages, Sequent(), phi, x)
    cases = [n for n in walk(om) if type(n.rule).__name__ == "CaseRule"]
    opens = [n for n in walk(om) if isinstance(n.rule, OpenLeaf)]
    assert len(cases) == 3
    assert len(opens) == 1
    assert opens[0].sequent == Sequent([substitute(phi, x, Succ(Succ(Succ(V(x)))))])
    # the only tree issue is the deliberate open frontier
    issues = check_tree(om)
    assert [i.node_id for i in issues] == [opens[0].id]


def test_omega_truncation_empty():
    phi = Eq(Add(Zero(), V(x)), V(x))
    om = omega_truncation([], Sequent(), phi, x)
    assert isinstance(om.rule, OpenLeaf)
    assert om.sequent == Sequent([phi])


def test_omega_truncation_rejects_free_x_in_gamma():
    phi = Eq(Add(Zero(), V(x)), V(x))
    with pytest.raises(PreError):
        omega_truncation([], Sequent([Eq(V(x), Zero())]), phi, x)


def _closed(rng, depth):
    """A closed term over 0, s, add and mul, nested up to depth."""
    k = rng.randrange(4) if depth > 0 else 0
    if k == 0:
        return numeral(rng.randrange(7))
    if k == 1:
        return Succ(_closed(rng, depth - 1))
    return (Add if k == 2 else Mul)(_closed(rng, depth - 1), _closed(rng, depth - 1))


def test_ground_atom_sequents_have_constant_width():
    from cyclarith.builders import GROUND_WIDTH
    from cyclarith.semantics import eval_term

    rng = random.Random(4242)
    widest = {Eq: 0, Neq: 0}
    seen = {Eq: 0, Neq: 0}
    while min(seen.values()) < 150:
        t = _closed(rng, 3)
        a = eval_term(t, {})
        if a > 40:
            continue
        if rng.random() < 0.5:
            # an equation more often than chance gives one
            u = numeral(a) if rng.random() < 0.5 else Add(numeral(a), Zero())
        else:
            u = _closed(rng, 2)
        if eval_term(u, {}) > 40:
            continue
        kind = Eq if eval_term(u, {}) == a else Neq
        g = prove_ground_atom(t, u)
        assert g.sequent == Sequent([kind(t, u)]), (t.sx, u.sx)
        assert check_tree(g) == [], (t.sx, u.sx)
        width = max(len(n.sequent) for n in walk(g))
        assert width <= GROUND_WIDTH, (t.sx, u.sx, width)
        widest[kind] = max(widest[kind], width)
        seen[kind] += 1
    # the bound is reached, so it is the constant and not a loose guess
    assert widest[Eq] == GROUND_WIDTH
    assert widest[Neq] <= GROUND_WIDTH


def test_ground_proof_size_grows_quadratically():
    from cyclarith import render_proof

    def size(k):
        return len(render_proof(prove_ground_atom(Add(numeral(k), numeral(k)), numeral(2 * k))))

    # doubling k doubles both the node count and each sequent's size: 4x,
    # where sequents that keep every spent equation give about 6.75x
    assert size(40) <= 4.5 * size(20)


def test_ground_atom_weakens_only_spent_formulas():
    # 0 != 1 needs every formula it introduces, 0+0 = 0 drops two
    d = prove_ground_atom(Zero(), numeral(1))
    assert [type(n.rule).__name__ for n in walk(d)] == ["RefRule", "RepRule", "AxiomLeaf"]
    g = prove_ground_atom(Add(Zero(), Zero()), Zero())
    assert [type(n.rule).__name__ for n in walk(g)] == \
        ["RefRule", "Add0Rule", "RepRule", "WeakRule", "AxiomLeaf"]
    assert check_tree(g) == []


def test_deep_ground_proof_builds_and_validates_under_the_default_limit():
    # k+k = 2k at k=1200 in memory only: the file would be quadratic in k
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        goal = Eq(Add(numeral(1200), numeral(1200)), numeral(2400))
        proof = prove_ground_atom(goal.left, goal.right)
        assert proof.sequent == Sequent([goal])
        assert validate(proof, Mode(System.SN, 0), plain=True).valid
    finally:
        sys.setrecursionlimit(limit)


def _recursive_redex(t):
    """The recursive innermost-leftmost search that `_redex` replaced, with
    the same paths: (path, redex) or None."""
    if isinstance(t, Succ):
        hit = _recursive_redex(t.base)
        return hit and ((0,) + hit[0], hit[1])
    if isinstance(t, (Add, Mul)):
        for i, sub in ((0, t.left), (1, t.right)):
            hit = _recursive_redex(sub)
            if hit:
                return (i,) + hit[0], hit[1]
        if isinstance(t.right, (Zero, Succ)):
            return (), t
    return None


def test_redex_and_plug_match_the_recursive_search_on_random_terms():
    rng = random.Random(909)
    hole = V(Var("$0"))
    rewrites = 0
    for _ in range(300):
        t = _closed(rng, 3)
        for _ in range(20):
            hit = _redex(t)
            want = _recursive_redex(t)
            assert (hit and hit[:2]) == want, t.sx
            if hit is None:
                break
            path, src, dst, _ = hit
            pat = _plug(t, path, hole)
            assert substitute(pat, hole.var, src) is t
            t = _plug(t, path, dst)
            rewrites += 1
    assert rewrites > 2000


def test_ground_atom_of_a_deep_add_nest_needs_no_recursion():
    # (add 0 (add 0 ... (s 0))), 300 deep: each rewrite walks the nest
    t = Succ(Zero())
    for _ in range(300):
        t = Add(Zero(), t)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        proof = prove_ground_atom(t, numeral(1))
        assert proof.sequent == Sequent([Eq(t, numeral(1))])
        assert validate(proof, Mode(System.SN, 0), plain=True).valid
    finally:
        sys.setrecursionlimit(limit)


def test_grow_derives_each_sequent_from_the_goal():
    goal = Sequent([Eq(Zero(), Zero())])
    proof = _grow(goal, ("r0", RefRule(Zero()), ("r1", AxiomLeaf())))
    assert [(n.id, n.sequent) for n in walk(proof)] == \
        [("r0", goal), ("r1", goal.add(Neq(Zero(), Zero())))]
    assert check_tree(proof) == []


def test_grow_rejects_a_sub_proof_of_another_sequent():
    zero, one = Eq(Zero(), Zero()), Eq(numeral(1), numeral(1))
    sub = prove_ground_atom(Zero(), Zero())
    want = f"sub-proof g0 concludes {Sequent([zero]).sx}, wanted {Sequent([one]).sx}"
    with pytest.raises(PreError, match=re.escape(want)):
        _grow(Sequent([And(zero, one)]), ("w0", AndRule(And(zero, one)), sub, sub))


def test_grow_rejects_an_axiom_leaf_that_closes_nothing():
    with pytest.raises(PreError, match="a0 is not an axiom"):
        _grow(Sequent([Eq(V(x), Zero())]), ("a0", AxiomLeaf()))


def test_grow_rejects_a_spec_with_the_wrong_number_of_subs():
    goal = Sequent([Eq(Zero(), Zero())])
    with pytest.raises(PreError, match="has 1 premises, the spec gives 0"):
        _grow(goal, ("r0", RefRule(Zero())))
    with pytest.raises(PreError, match="has 0 premises, the spec gives 1"):
        _grow(goal.add(Neq(Zero(), Zero())), ("a0", AxiomLeaf(), ("a1", AxiomLeaf())))


def test_rule_proof_rejects_a_step_proof_of_another_sequent():
    phi = Eq(Add(Zero(), V(x)), V(x))
    base = prove_ground_atom(Add(Zero(), Zero()), Zero())
    wrong_step, _hyp = step_from_assumption(Eq(Add(V(x), Zero()), V(x)), x)
    with pytest.raises(PreError, match="sub-proof s.h0 concludes"):
        induction_rule_proof(base, wrong_step, phi, x, 0)


def test_omega_truncation_rejects_a_stage_of_another_sequent():
    phi = Eq(Add(Zero(), V(x)), V(x))
    stages = [prove_ground_atom(Add(Zero(), numeral(k)), numeral(k)) for k in (0, 2, 2)]
    with pytest.raises(PreError, match="sub-proof k1.g0 concludes"):
        omega_truncation(stages, Sequent(), phi, x)


def test_tautology_of_a_deep_formula_needs_no_recursion():
    phi = Eq(V(x), V(y))
    for i in range(1500):
        phi = (And if i % 2 else Or)(phi, Neq(V(x), numeral(i % 3)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        proof = tautology(Sequent(), phi)
        assert proof.sequent == Sequent([phi, negate(phi)])
        assert check_tree(proof) == []
    finally:
        sys.setrecursionlimit(limit)


def test_omega_truncation_of_many_stages_needs_no_recursion():
    phi = Eq(V(x), V(x))
    stages = [prove_ground_atom(numeral(k), numeral(k)) for k in range(1200)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        om = omega_truncation(stages, Sequent(), phi, x)
        assert [i.node_id for i in check_tree(om)] == ["o1200"]
    finally:
        sys.setrecursionlimit(limit)


# sha256 of build_corpus(seed), the corpora the benchmark is built from: a
# builder change that moves them must update these and say why.
CORPUS_SHA256 = {
    1: "7aecc81ab7aa83194787caa7f72c322f493f77702184d4a82b335e11e9c90383",
    2: "85ebc6471c3057d3f67c21f5f547b0133480d19561f3d2d96a8c654cf7e2e0f1",
    3: "45c47245ba203a5660612a8c3b2f9d8f47f4c083b7b8943ad086720ac2a5b37a",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_SHA256))
def test_corpus_is_pinned(seed):
    h = hashlib.sha256()
    for e in build_corpus(seed):
        h.update(f"{e.name}\n{e.kind} {e.system} {e.level}\n".encode())
        for f in e.assume:
            h.update((f.sx + "\n").encode())
        h.update((e.text + "\n").encode())
    assert h.hexdigest() == CORPUS_SHA256[seed]
