import random
import sys

import pytest

from cyclarith import (
    Add,
    All,
    AllLe,
    And,
    Eq,
    Ex,
    ExLe,
    Le,
    Mode,
    Mul,
    NLe,
    Neq,
    Or,
    Succ,
    System,
    TV,
    V,
    Var,
    Zero,
    all_assignments,
    check_certificate_bounded,
    eval_formula,
    eval_term,
    extract_all,
    numeral,
    parse_formula,
    parse_proof,
    sequent_truth,
    soundness_sample,
    two_loops_proof,
)
from cyclarith.cli import build_corpus
from cyclarith.semantics import _CONSTANT, CLOSURE_DEPTH

import reference_semantics as ref
from conftest import random_formula, random_quantifier_free, random_term

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")


def test_eval_term_fixed():
    env = {x: 3, y: 4}
    assert eval_term(Zero(), env) == 0
    assert eval_term(numeral(7), env) == 7
    assert eval_term(Succ(V(x)), env) == 4
    assert eval_term(Add(V(x), V(y)), env) == 7
    assert eval_term(Mul(Add(V(x), numeral(2)), V(y)), env) == 20
    # unassigned variables default to zero
    assert eval_term(V(z), env) == 0


def _py_term(t, env):
    k = t.sx
    if isinstance(t, Zero):
        return 0
    if isinstance(t, V):
        return env.get(t.var, 0)
    if isinstance(t, Succ):
        return _py_term(t.arg, env) + 1
    if isinstance(t, Add):
        return _py_term(t.left, env) + _py_term(t.right, env)
    if isinstance(t, Mul):
        return _py_term(t.left, env) * _py_term(t.right, env)
    raise AssertionError(k)


def _py_qf(phi, env):
    if isinstance(phi, Eq):
        return _py_term(phi.left, env) == _py_term(phi.right, env)
    if isinstance(phi, Neq):
        return _py_term(phi.left, env) != _py_term(phi.right, env)
    if isinstance(phi, Le):
        return _py_term(phi.left, env) <= _py_term(phi.right, env)
    if isinstance(phi, NLe):
        return _py_term(phi.left, env) > _py_term(phi.right, env)
    if isinstance(phi, And):
        return _py_qf(phi.left, env) and _py_qf(phi.right, env)
    if isinstance(phi, Or):
        return _py_qf(phi.left, env) or _py_qf(phi.right, env)
    raise AssertionError(phi.sx)


def test_eval_term_random_against_python():
    rng = random.Random(31)
    for _ in range(300):
        t = random_term(rng, 3)
        env = {v: rng.randrange(5) for v in t.fv}
        assert eval_term(t, env) == _py_term(t, env)


def _chained_term(rng, depth):
    """A random term whose every level sits under a chain of up to 40
    successors, built one successor at a time."""
    if depth == 0:
        t = random_term(rng, 0)
    else:
        t = rng.choice([Add, Mul])(_chained_term(rng, depth - 1),
                                   _chained_term(rng, depth - 1))
    for _ in range(rng.randrange(41)):
        t = Succ(t)
    return t


def test_eval_term_of_long_chains_against_python():
    rng = random.Random(33)
    for _ in range(200):
        t = _chained_term(rng, rng.randrange(3))
        env = {v: rng.randrange(5) for v in t.fv}
        want = _py_term(t, env)
        assert eval_term(t, env) == want
        # the compiled evaluator reads the chain through _term_code
        assert eval_formula(Eq(t, numeral(want)), env, 4) is TV.TRUE


def test_eval_quantifier_free_random():
    # on quantifier-free formulas the three-valued semantics is classical
    rng = random.Random(32)
    for _ in range(300):
        phi = random_quantifier_free(rng, 3, [x, y, z], core=False)
        env = {v: rng.randrange(4) for v in phi.fv}
        want = TV.TRUE if _py_qf(phi, env) else TV.FALSE
        assert eval_formula(phi, env, 8) == want


def test_atoms():
    assert eval_formula(Eq(Zero(), Zero()), {}, 8) is TV.TRUE
    assert eval_formula(Neq(Succ(Zero()), Zero()), {}, 8) is TV.TRUE
    assert eval_formula(Le(V(x), numeral(3)), {x: 2}, 8) is TV.TRUE
    assert eval_formula(Le(V(x), numeral(3)), {x: 4}, 8) is TV.FALSE
    assert eval_formula(NLe(V(x), numeral(3)), {x: 4}, 8) is TV.TRUE


def test_unbounded_quantifiers_cutoff():
    # a counterexample within the cutoff decides the universal
    assert eval_formula(All(x, Eq(V(x), Zero())), {}, 8) is TV.FALSE
    # a witness within the cutoff decides the existential
    assert eval_formula(Ex(x, Eq(V(x), numeral(5))), {}, 8) is TV.TRUE
    # truth beyond the cutoff is not claimed
    assert eval_formula(All(x, Neq(Succ(V(x)), Zero())), {}, 8) is TV.UNKNOWN
    assert eval_formula(Ex(x, Eq(V(x), numeral(12))), {}, 8) is TV.UNKNOWN
    # raising the cutoff finds the witness
    assert eval_formula(Ex(x, Eq(V(x), numeral(12))), {}, 13) is TV.TRUE
    # no memo carries a verdict over to another cutoff, in a shared table either
    phi = Ex(x, Eq(V(x), numeral(12)))
    assert eval_formula(phi, {}, 8) is TV.UNKNOWN
    table = {}
    assert eval_formula(phi, {}, 8, table) is TV.UNKNOWN
    assert eval_formula(phi, {}, 13, table) is TV.TRUE
    assert sequent_truth([phi], {}, 8, table) is TV.UNKNOWN


def test_bounded_quantifiers_are_exact():
    # bounded quantifiers range over the evaluated bound, not the cutoff
    phi = AllLe(x, numeral(20), Le(V(x), numeral(20)))
    assert eval_formula(phi, {}, 8) is TV.TRUE
    psi = ExLe(x, numeral(20), Eq(V(x), numeral(17)))
    assert eval_formula(psi, {}, 8) is TV.TRUE
    assert eval_formula(ExLe(x, numeral(20), Eq(V(x), numeral(21))), {}, 8) is TV.FALSE


def test_kleene_connectives():
    unk = All(x, Neq(Succ(V(x)), Zero()))  # UNKNOWN at cutoff 8
    tru = Eq(Zero(), Zero())
    fls = Neq(Zero(), Zero())
    assert eval_formula(And(fls, unk), {}, 8) is TV.FALSE
    assert eval_formula(And(unk, fls), {}, 8) is TV.FALSE
    assert eval_formula(And(tru, unk), {}, 8) is TV.UNKNOWN
    assert eval_formula(Or(tru, unk), {}, 8) is TV.TRUE
    assert eval_formula(Or(unk, tru), {}, 8) is TV.TRUE
    assert eval_formula(Or(fls, unk), {}, 8) is TV.UNKNOWN


def test_nested_quantifiers():
    # for every x <= cutoff there is y = x with x = y
    phi = All(x, Ex(y, Eq(V(x), V(y))))
    assert eval_formula(phi, {}, 8) is not TV.FALSE
    # negation flips truth on decided formulas
    assert eval_formula(Ex(x, All(y, Le(V(y), V(x)))), {}, 4) is TV.UNKNOWN


def test_sequent_truth():
    assert sequent_truth([], {}, 8) is TV.FALSE
    assert sequent_truth([Eq(Zero(), numeral(1)), Neq(Zero(), numeral(1))], {}, 8) is TV.TRUE
    assert sequent_truth([Eq(Zero(), numeral(1))], {}, 8) is TV.FALSE
    unk = All(x, Neq(Succ(V(x)), Zero()))
    assert sequent_truth([Eq(Zero(), numeral(1)), unk], {}, 8) is TV.UNKNOWN


def test_all_assignments():
    rows = list(all_assignments([x, y], 2))
    assert len(rows) == 9
    assert {(r[x], r[y]) for r in rows} == {(a, b) for a in range(3) for b in range(3)}
    assert list(all_assignments([], 4)) == [{}]


@pytest.mark.parametrize("variables", [[], [x]])
def test_all_assignments_refuses_a_negative_bound(variables):
    # over no grid point a check of a formula with free variables would hold
    # vacuously; the refusal comes at the call, before any iteration
    with pytest.raises(ValueError, match="negative value bound -1"):
        all_assignments(variables, -1)


def _two_loops_check(cutoff):
    proof, mode = two_loops_proof()
    return check_certificate_bounded(extract_all(proof, mode)[0][1], 3, cutoff)


@pytest.mark.parametrize("check", [
    lambda cutoff: eval_formula(Eq(V(x), V(x)), {}, cutoff),
    lambda cutoff: sequent_truth([Eq(V(x), V(x))], {}, cutoff),
    _two_loops_check,
    lambda cutoff: soundness_sample(two_loops_proof()[0], 3, cutoff),
], ids=["eval_formula", "sequent_truth", "check_certificate_bounded",
        "soundness_sample"])
def test_negative_cutoff_is_refused(check):
    # a scan up to -1 meets no witness and would answer unknown unlooked
    assert check(0) is not None
    with pytest.raises(ValueError, match="negative cutoff -1"):
        check(-1)


# --- differential tests against the reference interpreter ------------------------

FORMULA_KINDS = {Eq, Neq, Le, NLe, And, Or, All, Ex, AllLe, ExLe}


def _nodes(phi):
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        for attr in ("left", "right", "body"):
            sub = getattr(f, attr, None)
            if type(sub) in FORMULA_KINDS:
                stack.append(sub)


def _shadows(phi, bound=frozenset()):
    if type(phi) in (All, Ex, AllLe, ExLe):
        return phi.var in bound or _shadows(phi.body, bound | {phi.var})
    if type(phi) in (And, Or):
        return _shadows(phi.left, bound) or _shadows(phi.right, bound)
    return False


def test_compiled_matches_reference_on_random_formulas():
    rng = random.Random(4242)
    table = {}
    seen, shadowed, unmapped = set(), 0, 0
    for i in range(400):
        phi = random_formula(rng, 3, [x, y, z])
        seen |= {type(f) for f in _nodes(phi)}
        shadowed += _shadows(phi)
        for _ in range(3):
            env = {v: rng.randrange(4) for v in (x, y, z) if rng.random() < 0.6}
            unmapped += bool(phi.fv - env.keys())
            cutoff = rng.randrange(7)
            before = dict(env)
            want = ref.eval_formula(phi, dict(env), cutoff)
            assert eval_formula(phi, env, cutoff) is want, (phi.sx, env, cutoff)
            # a table shared across formulas, assignments and cutoffs
            assert eval_formula(phi, env, cutoff, table) is want, (phi.sx, env, cutoff)
            assert env == before
        if i % 4 == 0:
            seq = [phi, random_formula(rng, 2, [x, y, z])]
            env = {x: rng.randrange(4)}
            cutoff = rng.randrange(7)
            assert sequent_truth(seq, env, cutoff) is ref.sequent_truth(seq, dict(env), cutoff)
    assert seen == FORMULA_KINDS
    assert shadowed > 20 and unmapped > 100


def test_compiled_matches_reference_on_corpus_obligations():
    # every obligation x grid point of `examples --seed 3`, ind_schema_pi3 included
    certs = 0
    for entry in build_corpus(3):
        if entry.kind != "cyclic":
            continue
        mode = Mode(System(entry.system), entry.level, frozenset(entry.assume))
        for _, cert in extract_all(parse_proof(entry.text), mode):
            certs += 1
            table = {}
            want = []
            for ob in cert.obligations:
                fvs = sorted(ob.formula.fv)
                verdicts = set()
                for env in all_assignments(fvs, 3):
                    tv = ref.eval_formula(ob.formula, dict(env), 8)
                    assert eval_formula(ob.formula, env, 8, table) is tv, (entry.name, ob.kind)
                    verdicts.add(tv)
                want.append("false" if TV.FALSE in verdicts else
                            "bounded-true" if verdicts == {TV.TRUE} else "bounded-unknown")
            got = check_certificate_bounded(cert, 3, 8).certificate.obligations
            assert [ob.status for ob in got] == want, entry.name
    assert certs >= 15


QUANTIFIERS = (All, Ex, AllLe, ExLe)


def _shortcut(phi, cutoff, table):
    """How quantifier node phi was compiled at this cutoff: "fold" to a
    constant, or None to a memoised scan."""
    code, _ = table[(phi, cutoff)]
    if code in _CONSTANT.values():
        return "fold"
    assert code.__qualname__ == "_memo.<locals>.code", phi.sx
    return None


def _shaped_formula(rng, vars, depth=2):
    """A formula of a shape the compile step shortcuts: a Pi2 or Sigma2
    prefix over a Delta0 matrix, a binder of w, which vars leaves out, an
    and/or of a universal and an existential, or a bounded quantifier whose
    bound reads 0."""
    def sub(vars):
        if depth and rng.random() < 0.4:
            return _shaped_formula(rng, vars, depth - 1)
        matrix = random_quantifier_free(rng, 2, vars, core=False)
        if rng.random() < 0.3:
            v = rng.choice(vars)
            bound = random_term(rng, 1, [u for u in vars if u != v])
            matrix = rng.choice([AllLe, ExLe])(v, bound, matrix)
        return matrix

    k = rng.randrange(4)
    if k == 0:
        u, v = rng.sample(vars, 2)
        outer, inner = rng.choice([(All, Ex), (Ex, All)])
        return outer(u, inner(v, sub(vars)))
    if k == 1:
        kind = rng.choice(QUANTIFIERS)
        if kind in (All, Ex):
            return kind(w, sub(vars))
        return kind(w, random_term(rng, 1, vars), sub(vars))
    if k == 2:
        u, v = rng.choice(vars), rng.choice(vars)
        parts = [All(u, sub(vars)), Ex(v, sub(vars))]
        rng.shuffle(parts)
        return rng.choice([And, Or])(*parts)
    # unmapped variables read 0, and so does anything times 0
    v = rng.choice(vars)
    rest = [u for u in vars if u != v]
    bound = rng.choice([Zero(), Mul(random_term(rng, 1, rest), Zero()),
                        V(rng.choice(rest))])
    return rng.choice([AllLe, ExLe])(v, bound, sub(vars))


def test_shortcut_shapes_match_reference():
    rng = random.Random(1977)
    table = {}
    fired = {"fold": 0}
    for _ in range(300):
        phi = _shaped_formula(rng, [x, y, z])
        envs = [{v: rng.randrange(3) for v in (x, y, z, w) if rng.random() < 0.5}
                for _ in range(2)]
        for cutoff in range(5):
            for env in envs:
                want = ref.eval_formula(phi, dict(env), cutoff)
                # one table shared across formulas, assignments and cutoffs
                assert eval_formula(phi, env, cutoff, table) is want, (phi.sx, env, cutoff)
        ways = {_shortcut(f, 4, table) for f in _nodes(phi) if type(f) in QUANTIFIERS}
        for way in fired:
            fired[way] += way in ways
    assert fired["fold"] >= 100, fired


def test_corpus_obligations_fold():
    # quantifier nodes counted per certificate, as each bounded check
    # compiles its obligations into one table at the default cutoff
    ways = []
    for seed in (1, 2, 3):
        for entry in build_corpus(seed):
            if entry.kind != "cyclic":
                continue
            mode = Mode(System(entry.system), entry.level, frozenset(entry.assume))
            for _, cert in extract_all(parse_proof(entry.text), mode):
                table = {}
                for ob in cert.obligations:
                    eval_formula(ob.formula, {}, 8, table)
                ways += [_shortcut(phi, 8, table) for phi, _ in table
                         if type(phi) in QUANTIFIERS]
    assert len(ways) == 480
    assert ways.count("fold") >= 120


def test_deep_terms_evaluate_without_recursion():
    deep = numeral(3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert eval_term(Add(deep, V(x)), {x: 2}) == 3002
        assert eval_formula(Eq(Succ(deep), Add(V(x), deep)), {x: 1}, 8) is TV.TRUE
        assert eval_formula(Neq(Mul(deep, V(x)), deep), {}, 8) is TV.TRUE
    finally:
        sys.setrecursionlimit(limit)


def test_deep_open_terms_evaluate_without_recursion():
    depth = 2000
    t = V(x)
    for _ in range(depth):
        t = Add(t, Zero())
    phi = parse_formula("(eq " + "(add " * depth + "x" + " 0)" * depth + " x)")
    assert phi == Eq(t, V(x))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for env in ({}, {x: 3}):
            assert eval_formula(phi, env, 8) is TV.TRUE
        assert eval_formula(Neq(Mul(t, Succ(V(y))), Add(V(x), V(y))), {x: 2, y: 1}, 8) is TV.TRUE
    finally:
        sys.setrecursionlimit(limit)


def _deep_term(rng, depth):
    """An open term with `depth` add/mul levels down its left spine, small
    enough in value for every assignment of x and y into 0..2."""
    t = rng.choice([V(x), V(y), Succ(V(x))])
    for _ in range(depth):
        side = rng.choice([V(y), numeral(rng.randrange(2)), Add(V(x), V(y))])
        if rng.random() < 0.1:
            t = Mul(t, numeral(1))
        else:
            t = Add(side, t) if rng.random() < 0.5 else Add(t, side)
        if rng.random() < 0.2:
            t = Succ(t)
    return t


def test_terms_around_the_closure_depth_match_reference():
    rng = random.Random(31)
    table = {}
    for depth in range(CLOSURE_DEPTH - 2, CLOSURE_DEPTH + 3):
        for _ in range(4):
            t, u = _deep_term(rng, depth), _deep_term(rng, rng.randrange(3))
            for phi in (Eq(t, u), Le(u, t), AllLe(z, u, Le(Add(V(z), u), t))):
                for env in all_assignments([x, y], 2):
                    want = ref.eval_formula(phi, dict(env), 4)
                    assert eval_formula(phi, env, 4) is want, (depth, env)
                    assert eval_formula(phi, env, 4, table) is want, (depth, env)
