"""Shared generators and fixtures for the test suite.

All randomness is seeded random.Random instances so failures reproduce.
Var(...) is the binder-level identifier; V(...) is its term occurrence.
"""

import dataclasses
import random
import re

import pytest

from cyclarith import (
    Add,
    Add0Rule,
    AddSRule,
    All,
    AllLe,
    AllRule,
    And,
    AndRule,
    BackLeaf,
    CaseRule,
    CutRule,
    Eq,
    Ex,
    ExLe,
    ExRule,
    Le,
    Mode,
    Mul,
    Mult0Rule,
    MultSRule,
    NLe,
    Neq,
    Or,
    OrRule,
    RegularProofGraph,
    PredRule,
    RefRule,
    RepRule,
    Sequent,
    Succ,
    System,
    TV,
    V,
    Var,
    WeakRule,
    Zero,
    all_assignments,
    forall_cycle_proof,
    induction_rule_via_assumptions,
    induction_schema_proof,
    is_annotated,
    numeral,
    prove_ground_atom,
    sequent_truth,
    tautology,
    two_loops_proof,
    validate,
    walk,
)
from cyclarith.calculus import fold_tree


VAR_POOL = [Var("x"), Var("y"), Var("z"), Var("w"), Var("u")]


def random_term(rng, depth, vars=VAR_POOL):
    if depth <= 0:
        if rng.random() < 0.5:
            return V(rng.choice(vars))
        return numeral(rng.randrange(3))
    k = rng.randrange(6)
    if k == 0:
        return V(rng.choice(vars))
    if k == 1:
        return numeral(rng.randrange(4))
    if k == 2:
        return Succ(random_term(rng, depth - 1, vars))
    if k == 3:
        return Add(random_term(rng, depth - 1, vars), random_term(rng, depth - 1, vars))
    if k == 4:
        return Mul(random_term(rng, depth - 1, vars), random_term(rng, depth - 1, vars))
    return Zero()


def random_atom(rng, depth, vars=VAR_POOL, core=False):
    t = random_term(rng, depth, vars)
    u = random_term(rng, depth, vars)
    cls = rng.choice([Eq, Neq] if core else [Eq, Neq, Le, NLe])
    return cls(t, u)


def random_formula(rng, depth, vars=VAR_POOL):
    """Full grammar including the bounded-quantifier sugar."""
    if depth <= 0:
        return random_atom(rng, 1, vars)
    k = rng.randrange(8)
    if k == 0:
        return random_atom(rng, depth, vars)
    if k == 1:
        return And(random_formula(rng, depth - 1, vars), random_formula(rng, depth - 1, vars))
    if k == 2:
        return Or(random_formula(rng, depth - 1, vars), random_formula(rng, depth - 1, vars))
    v = rng.choice(vars)
    if k == 3:
        return All(v, random_formula(rng, depth - 1, vars))
    if k == 4:
        return Ex(v, random_formula(rng, depth - 1, vars))
    bound = random_term(rng, 1, [w for w in vars if w != v] or vars)
    if k == 5:
        return AllLe(v, bound, random_formula(rng, depth - 1, vars))
    if k == 6:
        return ExLe(v, bound, random_formula(rng, depth - 1, vars))
    return random_atom(rng, depth, vars)


def random_quantifier_free(rng, depth, vars, core=True):
    if depth <= 0 or rng.random() < 0.4:
        return random_atom(rng, 1, vars, core=core)
    cls = rng.choice([And, Or])
    return cls(
        random_quantifier_free(rng, depth - 1, vars, core=core),
        random_quantifier_free(rng, depth - 1, vars, core=core),
    )


def random_pi1(rng, x):
    """Pi_1 formula of depth <= 3 with x free: universal prefix over a
    quantifier-free matrix."""
    prefix = rng.choice([(), (Var("y"),), (Var("y"), Var("z"))])
    pool = [x] + list(prefix)
    body = random_quantifier_free(rng, 3 - len(prefix), pool)
    # make sure x actually occurs free
    body = And(body, Eq(Add(V(x), Zero()), V(x))) if x not in body.fv else body
    for v in reversed(prefix):
        body = All(v, body)
    assert x in body.fv
    return body


def random_sequent(rng, size, depth=2, vars=VAR_POOL):
    return Sequent([random_formula(rng, depth, vars) for _ in range(size)])


# Rule instance generation. Each maker returns (conclusion, rule) such that
# check_step(conclusion, rule, premises_of(conclusion, rule)) passes. The
# principal formulas are drawn so the conclusion is valid on the sample grid
# {0..4}: (all) bodies come from a pool that is uniformly true or fails
# within the grid, and (ex) witnesses are in-grid numerals or variables.

def _grid_safe_atom(rng, vars, uniform=False):
    # uniform=True restricts to atoms true at every value, needed where a
    # rule quantifies over the sampled point (the (all) premise body)
    y = V(rng.choice(vars))
    c = numeral(rng.randrange(3))
    pool = [
        Eq(Add(y, c), Add(c, y)),
        Eq(Mul(y, c), Mul(c, y)),
        Neq(Succ(y), Zero()),
        Le(y, Add(y, c)),
        NLe(Succ(Add(y, c)), y),
    ]
    if not uniform:
        pool.append(Eq(y, c))
    return rng.choice(pool)


def _grid_safe_formula(rng, vars, depth=1, uniform=False):
    if depth <= 0 or rng.random() < 0.5:
        return _grid_safe_atom(rng, vars, uniform)
    cls = rng.choice([And, Or])
    return cls(
        _grid_safe_formula(rng, vars, depth - 1, uniform),
        _grid_safe_formula(rng, vars, depth - 1, uniform),
    )


def _ctx(rng, vars, size=None):
    n = rng.randrange(3) if size is None else size
    return [_grid_safe_formula(rng, vars) for _ in range(n)]


def make_rule_instance(rng, name):
    vars = VAR_POOL[:3]
    gam = _ctx(rng, vars)
    if name == "and":
        phi = And(_grid_safe_formula(rng, vars), _grid_safe_formula(rng, vars))
        return Sequent(gam + [phi]), AndRule(phi)
    if name == "or":
        phi = Or(_grid_safe_formula(rng, vars), _grid_safe_formula(rng, vars))
        return Sequent(gam + [phi]), OrRule(phi)
    if name == "all":
        v = rng.choice(vars)
        phi = All(v, _grid_safe_formula(rng, [v], uniform=True))
        return Sequent(gam + [phi]), AllRule(phi, Var("z9"))
    if name == "ex":
        v = rng.choice(vars)
        wit = rng.choice([numeral(rng.randrange(3)), V(rng.choice(vars))])
        phi = Ex(v, _grid_safe_formula(rng, [v]))
        return Sequent(gam + [phi]), ExRule(phi, wit)
    if name == "ref":
        return Sequent(gam), RefRule(random_term(rng, 1, vars))
    if name == "rep":
        # replace t0 by t1 inside the frame u0 != u1 at the hole variable
        hole = Var("h")
        t0 = V(rng.choice(vars))
        t1 = Add(t0, Zero())
        u0 = Add(V(hole), numeral(1))
        u1 = Add(numeral(1), V(hole))
        inst = Neq(Add(t0, numeral(1)), Add(numeral(1), t0))
        return Sequent(gam + [Neq(t0, t1), inst]), RepRule(u0, u1, hole, t0, t1)
    if name == "add0":
        return Sequent(gam), Add0Rule(random_term(rng, 1, vars))
    if name == "adds":
        return Sequent(gam), AddSRule(random_term(rng, 1, vars), random_term(rng, 1, vars))
    if name == "mult0":
        return Sequent(gam), Mult0Rule(random_term(rng, 1, vars))
    if name == "mults":
        return Sequent(gam), MultSRule(random_term(rng, 1, vars), random_term(rng, 1, vars))
    if name == "pred":
        t0 = random_term(rng, 1, vars)
        t1 = random_term(rng, 1, vars)
        return Sequent(gam + [Neq(Succ(t0), Succ(t1))]), PredRule(t0, t1)
    if name == "case":
        # one atom varies with the case variable, the rest must not mention
        # it (two independently varying atoms can fake both premises)
        v = rng.choice(vars)
        rest = [w for w in vars if w != v]
        seq = Sequent(_ctx(rng, rest) + [_grid_safe_atom(rng, [v])])
        assert v in seq.fv
        return seq, CaseRule(v)
    if name == "weak":
        extra = _ctx(rng, vars, size=1 + rng.randrange(2))
        return Sequent(gam + extra), WeakRule(Sequent(extra))
    if name == "cut":
        phi = _grid_safe_formula(rng, vars)
        return Sequent(gam + [_grid_safe_atom(rng, vars)]), CutRule(phi)
    raise ValueError(name)


def grid_counterexample(concl, prems):
    """A point of the grid {0..4} at which every premise is true and the
    conclusion false, or None: the local soundness check of a step."""
    fv = sorted(set().union(concl.fv, *[p.fv for p in prems]), key=lambda v: v.name)
    table = {}  # one compile table per rule instance, shared by its grid
    for env in all_assignments(fv, 4):
        if all(sequent_truth(p.formulas, env, 8, table) is TV.TRUE for p in prems):
            if sequent_truth(concl.formulas, env, 8, table) is TV.FALSE:
                return dict(env)
    return None


RULE_NAMES = [
    "and",
    "or",
    "all",
    "ex",
    "ref",
    "rep",
    "add0",
    "adds",
    "mult0",
    "mults",
    "pred",
    "case",
    "weak",
    "cut",
]


# Proof corpus: a mix of annotated cyclic proofs and plain finite trees,
# regenerated deterministically once per session.

def build_proof_corpus(seed=7734):
    rng = random.Random(seed)
    x = Var("x")
    y, z, w = Var("y"), Var("z"), Var("w")
    corpus = []

    for i in range(20):
        phi = random_pi1(rng, x)
        corpus.append((f"pi1_{i:02d}", induction_schema_proof(phi, x, 0), Mode(System.SN, 0)))

    commute = All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x))))
    corpus.append(("sch_n0", induction_schema_proof(commute, x, 0), Mode(System.SN, 0)))
    pi2 = All(y, Ex(z, Eq(Add(V(x), V(y)), Add(V(y), V(z)))))
    corpus.append(("sch_n1", induction_schema_proof(pi2, x, 1), Mode(System.SN, 1)))
    pi3 = All(y, Ex(z, All(w, Eq(Add(V(x), V(w)), Add(V(w), V(x))))))
    corpus.append(("sch_n2", induction_schema_proof(pi3, x, 2), Mode(System.SN, 2)))

    tl, tl_mode = two_loops_proof()
    corpus.append(("two_loops", tl, tl_mode))
    fc, fc_mode = forall_cycle_proof()
    corpus.append(("forall_cycle", fc, fc_mode))
    ira, ira_mode = induction_rule_via_assumptions(Eq(Add(Zero(), V(x)), V(x)), x, 0)
    corpus.append(("ind_rule_assume", ira, ira_mode))

    for i in range(54):
        phi = random_pi1(rng, x)
        n = rng.randrange(3)
        corpus.append((f"extra_{i:02d}", induction_schema_proof(phi, x, n), Mode(System.SN, n)))

    # plain finite trees (tautologies and ground equation proofs)
    for i in range(12):
        phi = random_quantifier_free(rng, 2, VAR_POOL[:3])
        corpus.append((f"taut_{i:02d}", tautology(Sequent(), phi), Mode(System.SN, 0)))
    for i in range(8):
        a = rng.randrange(9)
        b = rng.randrange(9)
        corpus.append(
            (f"ground_{i:02d}", prove_ground_atom(Add(numeral(a), numeral(b)), numeral(a + b)),
             Mode(System.SN, 0)))

    return corpus


@pytest.fixture(scope="session")
def proof_corpus():
    return build_proof_corpus()


@pytest.fixture(scope="session")
def cyclic_corpus(proof_corpus):
    """The annotated entries of the corpus: its cyclic proofs."""
    return [(n, p, m) for n, p, m in proof_corpus if is_annotated(p)]


def check_tree(root, assumptions=()):
    """validate's violations of root in level-0 sn with these assumptions."""
    return list(validate(root, Mode(System.SN, 0, frozenset(assumptions))).violations)


# Proof mutation helpers: single-point changes of a proof tree.

def schema():
    """The cyclic schema proof of x+y = y+x, ids n0..n4 on the cycle and
    its one back leaf n4 aimed at the root n0."""
    x, y = Var("x"), Var("y")
    return induction_schema_proof(All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x)))), x, 0)


def rebuild(root, fn):
    """root with every node n replaced by fn(n), children first, so fn sees
    n with its children already rebuilt; no recursion."""
    return fold_tree(root, lambda n: (n, n.children),
                     lambda n, kids: fn(dataclasses.replace(n, children=kids)))


def retarget(root, leaf_id, target):
    """root with its back leaf leaf_id aimed at target."""
    return rebuild(root, lambda n: dataclasses.replace(n, rule=BackLeaf(target))
                   if n.id == leaf_id else n)


def backlinks(root):
    """Back leaf id -> target id, over the whole tree."""
    return {n.id: n.rule.target for n in walk(root) if isinstance(n.rule, BackLeaf)}


def graph_with(g, gid, **changes):
    """Graph g with node gid changed, keeping only the nodes still reachable."""
    nodes = dict(g.nodes)
    nodes[gid] = dataclasses.replace(nodes[gid], **changes)
    seen, stack = set(), [g.root]
    while stack:
        nid = stack.pop()
        if nid not in seen:
            seen.add(nid)
            stack.extend(nodes[nid].children)
    return RegularProofGraph(g.root, {k: v for k, v in nodes.items() if k in seen})


# Mutations of document texts, for differential tests of the readers.

_DOC_TOKEN = re.compile(r'[()]|"[^"]*"|[^()"\s]+|\s+')
_DOC_PIECES = ["(", ")", '"x"', "x", "0", "(s 0)", "(seq)", "(eq 0 0)", "top", ":id", "(vars x)"]


def mutate_document(text, rng):
    """text with one balanced list put in place of another, so that a list may
    turn up where another kind of value belongs, or with one to three tokens
    deleted, inserted or replaced."""
    tokens = _DOC_TOKEN.findall(text)
    if rng.random() < 0.5:
        spans, stack = [], []
        for i, tok in enumerate(tokens):
            if tok == "(":
                stack.append(i)
            elif tok == ")" and stack:
                spans.append((stack.pop(), i + 1))
        (a0, a1), (b0, b1) = rng.choice(spans), rng.choice(spans)
        if b0 >= a1 or b1 <= a0:
            tokens[a0:a1] = tokens[b0:b1]
            return "".join(tokens)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(tokens))
        roll = rng.randrange(4)
        if roll == 0:
            del tokens[i]
        elif roll == 1:
            tokens.insert(i, rng.choice(_DOC_PIECES))
        elif roll == 2:
            tokens[i] = rng.choice(_DOC_PIECES)
        else:
            tokens.insert(i, tokens[rng.randrange(len(tokens))])
    return "".join(tokens)
