import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cyclarith import (
    Add,
    All,
    AllLe,
    And,
    CaptureError,
    DELTA0,
    Eq,
    Ex,
    ExLe,
    Le,
    Mode,
    Mul,
    NLe,
    Neq,
    Or,
    PI,
    ParseError,
    SIGMA,
    Succ,
    System,
    V,
    Var,
    Zero,
    classify,
    desugar,
    iff,
    impl,
    is_in,
    negate,
    numeral,
    parse_formula,
    parse_term,
    substitute,
)
from cyclarith import TV, ZERO, eval_formula, syntax
from cyclarith.calculus import parse_proof, proof_from_sexpr
from cyclarith.sexpr import CHAIN_RUN, SexprError, parse
from cyclarith.derived import FreshVars, fresh_for
from cyclarith.syntax import formula_from_sexpr, term_from_sexpr

import reference_sexpr

import reference_syntax
from conftest import VAR_POOL, random_formula, random_term

x, y, z = Var("x"), Var("y"), Var("z")


def test_term_rendering():
    assert Zero().sx == "0"
    assert V(x).sx == "x"
    assert Succ(Zero()).sx == "(s 0)"
    assert Add(V(x), Mul(V(y), Zero())).sx == "(add x (mul y 0))"
    assert numeral(0) == Zero()
    assert numeral(3).sx == "(s (s (s 0)))"


def test_structural_equality():
    assert Add(V(x), Zero()) == Add(V(x), Zero())
    assert Add(V(x), Zero()) != Add(Zero(), V(x))
    assert Eq(V(x), V(y)) != Neq(V(x), V(y))
    # equality is type-strict even with identical rendering of children
    assert V(x) != x
    assert hash(Add(V(x), Zero())) == hash(Add(V(x), Zero()))


def test_free_vars():
    phi = All(x, Eq(V(x), V(y)))
    assert phi.fv == frozenset([y])
    assert phi.av == frozenset([x, y])
    assert Ex(y, phi).fv == frozenset()
    assert Add(V(x), V(z)).fv == frozenset([x, z])


def test_formula_rendering_and_sugar():
    assert Le(V(x), numeral(1)).sx == "(le x (s 0))"
    assert NLe(V(x), V(y)).sx == "(nle x y)"
    assert AllLe(x, V(y), Eq(V(x), Zero())).sx == "(all<= x y (eq x 0))"
    assert ExLe(x, V(y), Neq(V(x), Zero())).sx == "(ex<= x y (neq x 0))"


def test_parse_round_trip_fixed():
    for src in [
        "(eq (add x 0) x)",
        "(all y (or (neq x y) (ex z (eq z (mul x y)))))",
        "(all<= x (s 0) (le x y))",
        "(and (eq 0 0) (neq (s 0) 0))",
    ]:
        assert parse_formula(src).sx == src


def test_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        t = random_term(rng, 3)
        assert parse_term(t.sx) == t
        phi = random_formula(rng, 3)
        assert parse_formula(phi.sx) == phi


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_term("(plus x y)")
    with pytest.raises(ParseError):
        parse_formula("(eq x)")
    with pytest.raises(ParseError):
        parse_formula("(all 0 (eq x x))")
    # reserved fresh names parse back (rendered proofs must round-trip)
    assert parse_term("$3") == V(Var("$3"))


@pytest.mark.parametrize("read,text,message", [
    (parse_formula, "()", "empty formula"),
    (parse_term, "()", "empty term"),
    (parse_term, "(add 0)", "bad term (add 0)"),
    (parse_term, "(t 0)", "bad term (t 0)"),
    (parse_formula, "(eq (p (s 0)) 0)", "bad term (p (s 0))"),
    (parse_term, "(s 0 0)", "bad term (s 0 0)"),
    (parse_formula, "(all<= x (s x) (eq x 0))", "bound term of all<= mentions x"),
])
def test_parse_error_messages(read, text, message):
    """Each fault is named.  Only (s t) is a successor: another two-item
    list is no term."""
    with pytest.raises(ParseError) as exc:
        read(text)
    assert str(exc.value) == message


def test_top_and_bot_read_as_their_equations():
    assert parse_formula("top") is Eq(Zero(), Zero())
    assert parse_formula("bot") is Neq(Zero(), Zero())
    assert parse_formula("(and top bot)") is And(Eq(Zero(), Zero()), Neq(Zero(), Zero()))


def test_negate_core():
    assert negate(Eq(V(x), V(y))) == Neq(V(x), V(y))
    assert negate(Neq(V(x), V(y))) == Eq(V(x), V(y))
    assert negate(And(Eq(V(x), Zero()), Eq(V(y), Zero()))) == Or(
        Neq(V(x), Zero()), Neq(V(y), Zero())
    )
    assert negate(All(x, Eq(V(x), Zero()))) == Ex(x, Neq(V(x), Zero()))


def test_negate_refuses_a_term():
    for t in (V(x), Zero(), Add(V(x), Zero()), numeral(2)):
        with pytest.raises(TypeError, match="not a formula"):
            negate(t)


def test_negate_sugar():
    assert negate(Le(V(x), V(y))) == NLe(V(x), V(y))
    assert negate(AllLe(x, V(y), Eq(V(x), Zero()))) == ExLe(x, V(y), Neq(V(x), Zero()))


def test_negate_involution_random():
    rng = random.Random(5)
    for _ in range(400):
        phi = random_formula(rng, 4)
        assert negate(negate(phi)) == phi


def test_impl_iff():
    a = Eq(V(x), Zero())
    b = Eq(V(y), Zero())
    assert impl(a, b) == Or(negate(a), b)
    assert iff(a, b) == And(impl(a, b), impl(b, a))


def test_substitute_basic():
    phi = Eq(Add(V(x), V(y)), V(x))
    out = substitute(phi, x, numeral(2))
    assert out.sx == "(eq (add (s (s 0)) y) (s (s 0)))"
    # binder shadows: no substitution under a binder for the same name
    shadowed = All(x, Eq(V(x), V(y)))
    assert substitute(shadowed, x, Zero()) == shadowed


def test_substitute_capture():
    phi = All(y, Eq(V(x), V(y)))
    with pytest.raises(CaptureError):
        substitute(phi, x, V(y))
    # no error when the substituted variable is not free under the binder
    inert = All(y, Eq(V(z), V(y)))
    assert substitute(inert, x, V(y)) == inert


def test_substitute_sugar_bound():
    phi = AllLe(y, V(x), Eq(V(y), V(x)))
    out = substitute(phi, x, numeral(1))
    assert out.sx == "(all<= y (s 0) (eq y (s 0)))"


def test_desugar_atoms():
    assert desugar(Le(V(x), V(y))).sx == "(ex $0 (eq (add $0 x) y))"
    assert desugar(NLe(V(x), V(y))).sx == "(all $0 (neq (add $0 x) y))"


def test_desugar_bounded_quantifiers():
    alle = AllLe(x, V(y), Eq(V(x), Zero()))
    assert desugar(alle).sx == "(all x (or (all $0 (neq (add $0 x) y)) (eq x 0)))"
    exle = ExLe(x, V(y), Eq(V(x), Zero()))
    assert desugar(exle).sx == "(ex x (and (ex $0 (eq (add $0 x) y)) (eq x 0)))"


def test_desugar_idempotent_on_core():
    rng = random.Random(17)
    for _ in range(100):
        phi = random_formula(rng, 3)
        d = desugar(phi)
        assert desugar(d) == d


def test_classify():
    assert classify(Eq(V(x), Zero())) == (DELTA0, 0)
    assert classify(Le(V(x), V(y))) == (DELTA0, 0)
    assert classify(AllLe(x, V(y), Eq(V(x), Zero()))) == (DELTA0, 0)
    assert classify(All(x, Eq(V(x), Zero()))) == (PI, 1)
    assert classify(Ex(x, Eq(V(x), Zero()))) == (SIGMA, 1)
    assert classify(Ex(x, All(y, Eq(V(x), V(y))))) == (SIGMA, 2)
    assert classify(All(x, Ex(y, All(z, Eq(V(x), V(z)))))) == (PI, 3)


def test_is_in_inclusions():
    pi1 = All(x, Eq(V(x), Zero()))
    assert is_in(pi1, PI, 1)
    assert not is_in(pi1, SIGMA, 1)
    assert is_in(pi1, SIGMA, 2)
    assert is_in(pi1, PI, 5)
    d0 = Neq(Succ(V(x)), Zero())
    assert is_in(d0, DELTA0)
    assert is_in(d0, PI, 0) and is_in(d0, SIGMA, 0)


def test_is_in_random_monotone():
    rng = random.Random(23)
    for _ in range(150):
        phi = random_formula(rng, 3)
        kind, n = classify(phi)
        assert is_in(phi, kind, n)
        assert is_in(phi, PI, n + 1) and is_in(phi, SIGMA, n + 1)
        if n > 0:
            assert not (is_in(phi, PI, n - 1) or is_in(phi, SIGMA, n - 1))


def test_fresh_vars():
    # counter starts past the highest reserved name seen, no gap filling
    fr = FreshVars(["$0", "$2"])
    assert fr.take() == Var("$3")
    assert fr.take() == Var("$4")
    fr2 = fresh_for(Eq(V(Var("$0")), V(x)), All(Var("$1"), Eq(V(x), V(x))))
    assert fr2.take() == Var("$2")
    # plain names do not advance the counter
    assert FreshVars(["x", "y"]).take() == Var("$0")


# --- hash-consing -----------------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "$0", "u'"]).map(Var)
_terms = st.recursive(
    st.one_of(st.just(ZERO), _names.map(V)),
    lambda ts: st.one_of(ts.map(Succ), st.builds(Add, ts, ts), st.builds(Mul, ts, ts)),
    max_leaves=8)
_atoms = st.builds(lambda cls, a, b: cls(a, b), st.sampled_from([Eq, Neq, Le, NLe]),
                   _terms, _terms)


def _bigger(fs):
    bounded = st.tuples(st.sampled_from([AllLe, ExLe]), _names, _terms, fs) \
        .filter(lambda a: a[1] not in a[2].av).map(lambda a: a[0](*a[1:]))
    return st.one_of(st.builds(And, fs, fs), st.builds(Or, fs, fs),
                     st.builds(All, _names, fs), st.builds(Ex, _names, fs), bounded)


_formulas = st.recursive(_atoms, _bigger, max_leaves=6)
_hc = settings(max_examples=150, deadline=None, database=None)


@_hc
@given(_terms, _formulas)
def test_reading_a_rendering_returns_the_same_node(t, phi):
    assert term_from_sexpr(parse(t.sx)) is t
    assert formula_from_sexpr(parse(phi.sx)) is phi


@_hc
@given(_terms, _terms, _formulas, _formulas)
def test_identity_is_equality_of_renderings(a, b, phi, psi):
    assert (a is b) == (a.sx == b.sx) == (a == b)
    assert (phi is psi) == (phi.sx == psi.sx) == (phi == psi)


@_hc
@given(_formulas)
def test_negate_involution_is_identity(phi):
    assert negate(negate(phi)) is phi


def _agrees_with_reference(phi, dual_first):
    """negate and desugar return the recursive reference's node, fresh names
    included, whether a formula or its dual is negated first, and again on a
    repeated call."""
    dual = reference_syntax.negate(phi)
    if dual_first:
        assert negate(dual) is phi
    assert negate(phi) is dual and negate(phi) is dual
    assert negate(dual) is phi and negate(negate(phi)) is phi
    for f in (phi, dual):
        want = reference_syntax.desugar(f)
        got = desugar(f)
        assert got is want and got.sx == want.sx
        assert desugar(f) is got and desugar(got) is got


@_hc
@given(_formulas, st.booleans())
def test_negate_and_desugar_agree_with_the_recursive_reference(phi, dual_first):
    _agrees_with_reference(phi, dual_first)


def test_negate_and_desugar_agree_with_the_reference_on_random_formulas():
    rng = random.Random(41)
    for i in range(300):
        _agrees_with_reference(random_formula(rng, 4), i % 2 == 1)


def _same_node_or_capture(run, reference):
    """run() returns reference()'s node, or both raise the same CaptureError."""
    try:
        want = reference()
    except CaptureError as exc:
        with pytest.raises(CaptureError) as got:
            run()
        assert str(got.value) == str(exc)
        return False
    assert run() is want
    return True


def _levels_and_substitution_agree(phi, t, x, s):
    """is_in, classify and substitute, on a formula and on a term, give the
    recursive reference's answers; False when the substitution into phi captures."""
    for kind in (DELTA0, SIGMA, PI):
        for n in range(6):
            assert is_in(phi, kind, n) == reference_syntax.is_in(phi, kind, n)
    assert classify(phi) == reference_syntax.classify(phi)
    assert substitute(t, x, s) is reference_syntax.subst_term(t, x, s)
    return _same_node_or_capture(lambda: substitute(phi, x, s),
                                 lambda: reference_syntax.substitute(phi, x, s))


@_hc
@given(_formulas, _terms, _names, _terms)
def test_levels_and_substitution_agree_with_the_recursive_reference(phi, t, x, s):
    _levels_and_substitution_agree(phi, t, x, s)


def test_levels_and_substitution_agree_with_the_reference_on_random_formulas():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(400):
        phi, t = random_formula(rng, 4), random_term(rng, 3)
        x, s = rng.choice(VAR_POOL), random_term(rng, 2)
        outcomes.add(_levels_and_substitution_agree(phi, t, x, s))
    # both a successful rebuild and a capture were compared
    assert outcomes == {True, False}


@pytest.mark.parametrize("check", [is_in, reference_syntax.is_in])
def test_is_in_outside_its_domain(check):
    t = Add(V(x), Zero())
    for n in (-1, 0, 3):
        assert check(t, DELTA0, n) is False and check(None, DELTA0, n) is False
    for kind in (SIGMA, PI):
        assert check(t, kind, 0) is False
        with pytest.raises(TypeError):
            check(t, kind, 1)
        with pytest.raises(ValueError):
            check(Eq(V(x), V(y)), kind, -1)
    with pytest.raises(ValueError):
        check(Eq(V(x), V(y)), "delta1")


def test_nodes_are_immutable():
    t = Add(V(x), Zero())
    with pytest.raises(AttributeError):
        t.left = Zero()
    assert Add(V(x), Zero()) is t


def test_intern_table_forgets_dropped_classified_formulas():
    gc.collect()
    before = len(syntax._TABLE)
    a, b = Var("probe_a"), Var("probe_b")
    phi = All(a, Ex(b, Or(Eq(Add(V(a), numeral(7)), V(b)),
                          AllLe(Var("probe_c"), V(b), Le(V(a), V(b))))))
    assert classify(phi) == (PI, 2)
    assert is_in(phi, SIGMA, 3) and is_in(phi.body, SIGMA, 1)
    assert len(syntax._TABLE) > before
    del phi
    gc.collect()
    assert len(syntax._TABLE) == before


def test_negated_and_desugared_formulas_die_without_the_collector():
    gc.collect()
    gc.disable()
    try:
        before = len(syntax._TABLE)
        a, b = Var("live_a"), Var("live_b")
        phi = All(a, Or(ExLe(b, V(a), Le(V(b), numeral(3))), Eq(V(a), V(b))))
        dual = negate(phi)
        assert negate(dual) is phi
        assert not desugar(negate(desugar(dual))).sugar
        shown = phi.sx
        # the dual does not keep its formula alive, nor the formula its dual
        del phi
        assert syntax._known_dual(dual) is None
        assert negate(dual).sx == shown
        del dual
        assert len(syntax._TABLE) == before
    finally:
        gc.enable()


def test_deep_conjunction_negates_and_desugars_without_recursion():
    phi, want = Eq(V(x), ZERO), Neq(V(x), ZERO)
    # a chain that ends in sugar is walked all the way down to it
    sugared, core = Le(V(x), V(y)), reference_syntax.desugar(Le(V(x), V(y)))
    for k in range(2000):
        phi = And(Eq(V(x), numeral(k % 3)), phi)
        want = Or(Neq(V(x), numeral(k % 3)), want)
        sugared = And(Eq(V(x), numeral(k % 3)), sugared)
        core = And(Eq(V(x), numeral(k % 3)), core)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert negate(phi) is want
        assert negate(want) is phi
        assert parse_formula(want.sx) is want
        assert desugar(phi) is phi and desugar(want) is want
        assert desugar(sugared) is core
    finally:
        sys.setrecursionlimit(limit)


def test_deep_quantifier_nest_classifies_without_recursion():
    phi = Eq(V(x), V(y))
    for k in range(3000):
        phi = Ex(x, phi) if k % 2 == 0 else All(y, phi)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert classify(phi) == (PI, 3000)
        assert Mode(System.SN, 5).in_restriction(phi) is False
    finally:
        sys.setrecursionlimit(limit)


def _numeral_text(k):
    return "(s " * k + "0" + ")" * k


def test_deep_equation_reads_evaluates_and_renders_without_recursion():
    text = f"(eq (add {_numeral_text(15000)} {_numeral_text(15000)}) {_numeral_text(30000)})"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        phi = parse_formula(text)
        assert eval_formula(phi, {}, 8) is TV.TRUE
        assert phi.sx == text
        del phi
        gc.collect()
    finally:
        sys.setrecursionlimit(limit)


def test_succs_extends_a_live_numeral_and_makes_one_node_per_chain():
    kept = numeral(10)
    t = numeral(20)
    for _ in range(10):
        t = t.arg
    assert t is kept
    gc.collect()
    gc.disable()
    try:
        base = V(Var("succs_probe"))
        before = len(syntax._TABLE)
        ten = syntax._succs(base, 10)
        assert len(syntax._TABLE) == before + 1
        twenty = syntax._succs(base, 20)
        assert len(syntax._TABLE) == before + 2
        # each chain is interned whole and found again while it lives
        assert syntax._succs(base, 20) is twenty
        assert syntax._succs(ten, 10) is twenty
        assert Succ(twenty.arg) is twenty
        assert len(syntax._TABLE) == before + 2
    finally:
        gc.enable()


# --- successor chains -------------------------------------------------------

_HOLE = Var("$hole")
_bases = st.one_of(st.just(ZERO), _names.map(V), st.builds(Add, _terms, _terms),
                   st.builds(Mul, _terms, _terms))


def _chains_are_canonical(t):
    """Every chain in t has a base that is not a successor and depth >= 1."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Succ):
            assert type(t.base) is not Succ and t.depth >= 1, t.sx
            todo.append(t.base)
        elif isinstance(t, (Add, Mul)):
            todo += (t.left, t.right)


@_hc
@given(_bases, st.integers(0, 30), st.integers(0, 30))
def test_every_way_to_build_a_chain_gives_the_same_node(base, j, k):
    want = syntax._succs(base, j + k)
    _chains_are_canonical(want)
    stepwise = base
    for _ in range(j + k):
        stepwise = Succ(stepwise)
    assert stepwise is want
    assert syntax._succs(syntax._succs(base, j), k) is want
    if base is ZERO:
        assert numeral(j + k) is want
    assert parse_term(want.sx) is want
    assert want.sx == "(s " * (j + k) + base.sx + ")" * (j + k)
    down = want
    for _ in range(k):
        match down:
            case Succ(a):
                down = a
    assert down is syntax._succs(base, j)
    # a variable inside a chain, replaced by a chain or by anything else
    assert substitute(syntax._succs(V(_HOLE), j), _HOLE,
                      syntax._succs(base, k)) is want
    inner = substitute(syntax._succs(Add(V(_HOLE), ZERO), k), _HOLE,
                       syntax._succs(base, j))
    assert inner is syntax._succs(Add(syntax._succs(base, j), ZERO), k)
    _chains_are_canonical(inner)


def test_reading_a_deep_equation_adds_a_constant_number_of_entries():
    text = f"(eq (add {_numeral_text(15000)} {_numeral_text(15000)}) {_numeral_text(30000)})"
    gc.collect()
    before = len(syntax._TABLE)
    phi = parse_formula(text)
    # two numerals, the sum and the equation: nothing per level
    assert len(syntax._TABLE) - before <= 4
    assert phi.right.depth == 30000 and phi.left.left.base is ZERO
    del phi
    gc.collect()
    assert len(syntax._TABLE) == before


# --- successor chains read as one value -------------------------------------

_CHAIN_INNER = ["0", "x", "y1", "(add x 0)", "(mul (s 0) y)", "(s (s (s (s x))))"]


def _chain_text(rng):
    """A successor chain 1-50 deep around an atom or a list; now and then
    a bad atom or list inside, an item or a comment after some of its
    closes, or one close too many or too few."""
    depth = rng.randint(1, 50)
    closes = [")"] * depth
    roll = rng.random()
    if roll < 0.02:
        closes.insert(rng.randrange(depth), " z")
    elif roll < 0.03:
        closes.append(")")
    elif roll < 0.04:
        closes.pop()
    elif roll < 0.12:
        closes.insert(rng.randrange(depth), " ;c\n")    # ends the chain token
    inner = rng.choice(["x!", "()"]) if rng.random() < 0.02 else rng.choice(_CHAIN_INNER)
    return "(s " * depth + inner + "".join(closes)


def _term_text(rng):
    roll = rng.random()
    if roll < 0.6:
        return _chain_text(rng)
    if roll < 0.8:
        return f"(add {_chain_text(rng)} {_chain_text(rng)})"
    return rng.choice(["0", "x", f"(mul {_chain_text(rng)} 0)"])


def _formula_text(rng):
    roll = rng.random()
    if roll < 0.02:
        return _chain_text(rng)                     # a chain as a formula
    if roll < 0.04:
        return f"(and {_chain_text(rng)} (eq 0 0))"
    if roll < 0.2:
        return f"(all x (eq {_term_text(rng)} x))"
    head = rng.choice(["eq", "neq", "le", "nle"])
    return f"({head} {_term_text(rng)} {_term_text(rng)})"


def _trailing(rng, text):
    roll = rng.random()
    if roll < 0.03:
        return text + " x"
    if roll < 0.06:
        return text + ")"
    if roll < 0.1:
        return text + " ; c"
    return text


def _proof_text(rng):
    f, g = _formula_text(rng), _formula_text(rng)
    return (f"(node :id n0 (seq {f}) (rule ref {_term_text(rng)})"
            f" (node :id n1 (seq {g} {f}) (axiom)))")


def _outcome_of(read, text):
    try:
        return ("value", read(text))
    except ParseError as exc:
        return ("error", str(exc))


def _by_reference(convert):
    """Read with the recursive reference reader, then convert; a reader
    error is reported as the parse functions report it."""
    def read(text):
        try:
            value = reference_sexpr.parse(text)
        except SexprError as exc:
            raise ParseError(str(exc)) from exc
        return convert(value)
    return read


def test_chains_read_as_the_reference_reader_reads_them():
    rng = random.Random(1515)
    seen = {"value": 0, "error": 0}
    deep = 0
    for _ in range(1000):
        for read, convert, text in (
                (parse_term, term_from_sexpr, _term_text(rng)),
                (parse_formula, formula_from_sexpr, _formula_text(rng)),
                (parse_proof, proof_from_sexpr, _proof_text(rng))):
            text = _trailing(rng, text)
            got = _outcome_of(read, text)
            want = _outcome_of(_by_reference(convert), text)
            if want[0] == "value" and read is not parse_proof:
                assert got[0] == "value" and got[1] is want[1], text
            else:
                assert got == want, text
            seen[want[0]] += 1
            deep += "(s " * CHAIN_RUN in text
    assert min(seen.values()) > 500 and deep > 2000


def test_deep_numeral_equation_reads_in_memory_linear_in_its_text():
    # 200000-deep numerals: the text is 1.6 MB, and the read holds each
    # chain as one token and one value, never a list per successor
    text = f"(eq {_numeral_text(200000)} {_numeral_text(200000)})"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    tracemalloc.start()
    try:
        phi = parse_formula(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(limit)
    assert phi.left is phi.right is numeral(200000)
    assert peak < 3 * len(text), (peak, len(text))
