import random
import sys
from collections import Counter

import pytest

from cyclarith import (
    Add,
    All,
    Eq,
    ExtractionError,
    Mode,
    Neq,
    Or,
    ParseError,
    Sequent,
    Succ,
    System,
    V,
    Var,
    Zero,
    prove_ground_atom,
    annotate_tree,
    certificate_with_theta,
    check_certificate_bounded,
    extract_all,
    extract_certificate,
    forall_cycle_proof,
    induction_rule_proof,
    induction_rule_via_assumptions,
    induction_schema_proof,
    numeral,
    parse_certificate,
    parse_proof,
    render_certificate,
    render_proof,
    soundness_sample,
    step_from_assumption,
    tautology,
    two_loops_proof,
    validate,
    walk,
)
from cyclarith.builders import build_corpus, relabel_proof
from cyclarith.calculus import RULE_ARITY, node_map
from cyclarith.uncycle import BOT, EDGE_TAGS, KINDS, TOP, _digraph, compute_ranks

from conftest import backlinks, retarget

x, y = Var("x"), Var("y")
SN0 = Mode(System.SN, 0)


@pytest.fixture(scope="module")
def schema_cert():
    phi = All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x))))
    return extract_certificate(induction_schema_proof(phi, x, 0), SN0)


@pytest.fixture(scope="module")
def rule_cert():
    proof, mode = induction_rule_via_assumptions(Eq(Add(Zero(), V(x)), V(x)), x, 0)
    return extract_certificate(proof, mode)


def test_schema_cert_structure(schema_cert):
    c = schema_cert
    assert c.root == "n0"
    assert c.m_nodes == ("n0", "n1", "n2", "n3", "n4")
    assert c.c_nodes == ("n0",)
    assert c.b_vars == ()
    assert c.case_vars == (x,)
    assert c.theta.sx == "(all y (eq (add x y) (add y x)))"
    assert c.zeta.sx == "(all<= x z (or (neq x z) (all y (eq (add x y) (add y x)))))"
    assert not c.phi_root_trivial


def test_schema_cert_ranks(schema_cert):
    # longest directed path until the first case-node hit; the case node
    # itself sits at rank zero
    assert schema_cert.ranks == {"n0": 0, "n4": 1, "n3": 2, "n2": 3, "n1": 4}


def test_schema_cert_obligations(schema_cert):
    kinds = Counter(o.kind for o in schema_cert.obligations)
    assert kinds["base"] == 1
    assert kinds["step"] == 1
    assert kinds["root-discharge"] == 1
    # one side-equiv per directed edge of the cycle region, one theta-gamma
    # per node
    assert kinds["side-equiv"] == 5
    assert kinds["theta-gamma"] == 5
    assert set(kinds) <= set(KINDS)
    assert all(o.status == "unchecked" for o in schema_cert.obligations)
    # desugared forms carry no bounded-quantifier sugar
    for o in schema_cert.obligations:
        assert "<=" not in o.desugared.sx


def test_schema_cert_edge_tags(schema_cert):
    assert schema_cert.edge_tags == (
        ("n0", "n1", "H"),
        ("n1", "n2", "D"),
        ("n2", "n3", "F"),
        ("n3", "n4", "B"),
        ("n4", "n0", "link"),
    )
    assert set(EDGE_TAGS.values()) == {"A", "B", "C", "D", "E", "F", "G", "H", "link"}


def test_every_inference_rule_has_an_edge_tag():
    inferences = {name for name, premises in RULE_ARITY.items() if premises}
    assert set(EDGE_TAGS) == inferences | {"back"}


def test_schema_cert_bounded_check(schema_cert):
    chk = check_certificate_bounded(schema_cert, 3, 8)
    assert chk.ok
    assert chk.counterexamples == ()
    statuses = Counter(o.status for o in chk.certificate.obligations)
    assert statuses["false"] == 0
    assert statuses["unchecked"] == 0


def test_rule_cert_values(rule_cert):
    c = rule_cert
    assert c.theta.sx == "(eq (add 0 x) x)"
    assert c.zeta.sx == "(all<= x z (or (neq x z) (eq (add 0 x) x)))"
    assert c.phi_root_trivial
    assert c.phi_root.sx == TOP.sx
    assert c.c_nodes == ("r0",)
    assert c.ranks == {"r0": 0, "r3": 1, "r2": 2, "r1": 3}


def test_rule_cert_bounded_decisive(rule_cert):
    chk = check_certificate_bounded(rule_cert, 3, 8)
    assert chk.ok
    statuses = Counter(o.status for o in chk.certificate.obligations)
    assert statuses["bounded-true"] == 10
    assert statuses["bounded-unknown"] == 1


def test_certificate_round_trip(schema_cert, rule_cert):
    for cert in [schema_cert, rule_cert]:
        txt = render_certificate(cert)
        back = parse_certificate(txt)
        assert render_certificate(back) == txt


def test_round_trip_after_check(rule_cert):
    chk = check_certificate_bounded(rule_cert, 3, 8)
    txt = render_certificate(chk.certificate)
    assert render_certificate(parse_certificate(txt)) == txt


def test_certificate_with_theta_resets(rule_cert):
    chk = check_certificate_bounded(rule_cert, 3, 8)
    swapped = certificate_with_theta(chk.certificate, Eq(V(x), V(x)))
    assert swapped.theta.sx == "(eq x x)"
    assert all(o.status == "unchecked" for o in swapped.obligations)
    # theta is re-threaded through zeta as well
    assert "(eq x x)" in swapped.zeta.sx


def test_theta_mutation_detected(rule_cert):
    # a theta that fails at small values must be flagged by base or step
    bad = certificate_with_theta(rule_cert, Neq(Add(Zero(), V(x)), V(x)))
    chk = check_certificate_bounded(bad, 3, 8)
    assert not chk.ok
    assert any(o.status == "false" for o in chk.certificate.obligations)
    assert chk.counterexamples != ()


def test_extract_multiple_loops():
    tl, tlm = two_loops_proof()
    certs = extract_all(tl, tlm)
    assert [sid for sid, _ in certs] == ["p.r0", "q.r0"]
    thetas = [c.theta.sx for _, c in certs]
    assert thetas == ["(eq (add 0 x) x)", "(eq (add x 0) x)"]
    for _, c in certs:
        assert check_certificate_bounded(c, 3, 8).ok
    # the whole proof has no cycle through its conjunction root
    assert extract_certificate(tl, tlm) is None


def test_eigenvariables_enter_theta():
    fc, fcm = forall_cycle_proof()
    c = extract_certificate(fc, fcm)
    assert c.b_vars == (Var("$0"),)
    assert c.theta.sx == "(all $0 (all y (eq (add x y) (add y x))))"
    assert check_certificate_bounded(c, 3, 8).ok


def test_plain_tree_has_no_certificates():
    t = tautology(Sequent(), Or(Neq(Zero(), Zero()), Eq(Zero(), Zero())))
    ann = annotate_tree(t, frozenset(), SN0)
    assert extract_certificate(ann, SN0) is None
    assert extract_all(ann, SN0) == []


def test_extract_requires_annotation():
    from cyclarith import erase

    phi = All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x))))
    p = induction_schema_proof(phi, x, 0)
    with pytest.raises(ExtractionError):
        extract_certificate(erase(p), SN0)


def test_extraction_refuses_exactly_the_proofs_validate_rejects():
    # extraction judges validity through validate alone: it raises exactly
    # when the report is invalid, and carries that report
    refused = 0
    for seed in (1, 2, 3):
        for entry in build_corpus(seed):
            if entry.kind != "cyclic":
                continue
            proof = parse_proof(entry.text)
            for system in System:
                for level in range(3):
                    mode = Mode(system, level, frozenset(entry.assume))
                    report = validate(proof, mode)
                    try:
                        extract_all(proof, mode)
                    except ExtractionError as exc:
                        assert not report.valid, (seed, entry.name, mode)
                        assert exc.report == report
                        v = report.violations[0]
                        assert str(exc) == f"{v.tag} at {v.node_id}: {v.message}"
                        refused += 1
                    else:
                        assert report.valid, (seed, entry.name, mode)
    assert refused >= 100


def test_extraction_of_a_dangling_back_link_is_refused_with_the_report():
    text = render_proof(induction_schema_proof(All(y, Eq(V(x), V(x))), x, 0))
    assert text.count("(back n0)") == 1
    proof = parse_proof(text.replace("(back n0)", "(back zz)"))
    for extract in (extract_all, extract_certificate):
        with pytest.raises(ExtractionError, match="DanglingTarget at n4: no node with id zz") \
                as got:
            extract(proof, SN0)
        assert got.value.report == validate(proof, SN0)


def test_corpus_extraction_smoke(cyclic_corpus):
    for name, proof, mode in cyclic_corpus[:25]:
        assert validate(proof, mode).valid, name
        for sid, cert in extract_all(proof, mode):
            assert cert.c_nodes, name
            assert cert.theta is not None
            chk = check_certificate_bounded(cert, 2, 6)
            falses = [o for o in chk.certificate.obligations if o.status == "false"]
            assert falses == [], (name, sid)


@pytest.mark.parametrize("text", [
    "(certificate (obligation (kind base)))",
    "(certificate (obligation x))",
    "(certificate (edge-just (a b)))",
    "(certificate (edge-just))",
    "(certificate (note))",
    "(certificate (bogus 1))",
    "(certificate (obligations 1))",
    "(certificate (obligation (kind base) (formula (eq 0 0)) (desugared (eq 0 0)) (bogus 1)))",
])
def test_certificate_reader_rejects_malformed_entries(text):
    with pytest.raises(ParseError, match="bad certificate entry"):
        parse_certificate(text)


def test_certificate_reader_rejects_an_added_entry(rule_cert):
    txt = render_certificate(rule_cert)
    assert txt.endswith(")")
    with pytest.raises(ParseError, match=r"bad certificate entry \(bogus 1\)"):
        parse_certificate(txt[:-1] + "\n  (bogus 1))")


def test_extract_all_matches_extraction_of_each_component(cyclic_corpus):
    # extract_all shares one proof and one edge map across components; each
    # certificate must equal the one extracted from its subtree alone
    seen = 0
    for name, proof, mode in cyclic_corpus:
        try:
            pairs = extract_all(proof, mode)
        except ExtractionError:
            continue
        for nid, cert in pairs:
            alone = extract_certificate(node_map(proof)[nid], mode)
            assert render_certificate(alone) == render_certificate(cert), (name, nid)
            seen += 1
    assert seen >= len(cyclic_corpus)


@pytest.fixture(scope="module")
def examples_seed_1():
    return {e.name: e.text for e in build_corpus(1)}


@pytest.mark.parametrize("name,system,level", [
    ("ind_schema_pi2.cyc", System.SN, 0),
    ("ind_schema_pi3.cyc", System.SN, 0),
    ("ind_schema_pi3.cyc", System.SN, 1),
    ("forall_cycle.cyc", System.SSIGMA, 2),
])
def test_extraction_refuses_a_cycle_that_loses_its_annotation(
        examples_seed_1, name, system, level):
    # called without validate: a (case) whose variable is loose outside the
    # restriction class, or an sSigma (all), breaks the annotation on the cycle
    with pytest.raises(ExtractionError):
        extract_all(parse_proof(examples_seed_1[name]), Mode(system, level))


# --- ranks ----------------------------------------------------------------


def _recursive_ranks(succ, m_nodes, c_nodes):
    """The recursive rank computation compute_ranks replaced, as an oracle."""
    m, c = set(m_nodes), set(c_nodes)
    succ = {u: [v for v in succ[u] if v in m] for u in m}
    memo = {u: 0 for u in c}
    state = {}

    def rk(u):
        if u in memo:
            return memo[u]
        if state.get(u) == 1:
            raise ExtractionError(f"directed cycle through {u} avoids every "
                                  "(case) conclusion")
        state[u] = 1
        best = 0
        for v in succ[u]:
            best = max(best, 1 + (0 if v in c else rk(v)))
        state[u] = 2
        memo[u] = best
        return best

    order = sorted(m)
    for u in order:
        rk(u)
    return {u: memo[u] for u in order}


def test_ranks_of_a_long_chain_need_no_recursion():
    n = 5000
    ids = [f"n{i:05d}" for i in range(n)]
    succ = {u: [v] for u, v in zip(ids, ids[1:])}
    succ[ids[-1]] = [ids[0]]    # the (case) node closes the cycle
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        ranks = compute_ranks(succ, ids, [ids[-1]])
    finally:
        sys.setrecursionlimit(limit)
    assert ranks == {u: n - 1 - i for i, u in enumerate(ids)}


@pytest.mark.parametrize("succ,c_nodes", [
    ({"a": ["b"], "b": ["c"], "c": ["a"]}, []),
    # the cycle b -> c -> d -> b lies below a (case) node a
    ({"a": ["b"], "b": ["c"], "c": ["d", "a"], "d": ["b"]}, ["a"]),
    ({"a": ["e", "b"], "b": ["d"], "c": ["b"], "d": ["c"], "e": []}, []),
    ({"k": ["j"], "j": ["k", "i"], "i": ["i"]}, ["k"]),
])
def test_ranks_name_the_cycle_the_recursive_search_names(succ, c_nodes):
    with pytest.raises(ExtractionError) as want:
        _recursive_ranks(succ, succ, c_nodes)
    with pytest.raises(ExtractionError) as got:
        compute_ranks(succ, succ, c_nodes)
    assert str(got.value) == str(want.value)


def test_ranks_match_the_recursive_search_on_corpus_certificates():
    seen = 0
    for seed in (1, 2, 3):
        for entry in build_corpus(seed):
            if entry.kind != "cyclic":
                continue
            proof = parse_proof(entry.text)
            _, succ, _ = _digraph(proof)
            for system in System:
                for level in range(3):
                    try:
                        pairs = extract_all(proof, Mode(system, level, frozenset(entry.assume)))
                    except ExtractionError:
                        continue
                    for _, cert in pairs:
                        assert cert.ranks == _recursive_ranks(succ, cert.m_nodes, cert.c_nodes)
                        seen += 1
    assert seen >= 100


def test_extraction_of_a_deep_branch_needs_no_recursion(tmp_path):
    # induction on x + K = K + x: the base, a ground proof of 0 + K = K + 0,
    # is a branch hundreds of nodes deep, and the rendered proof is 2.4 MB
    k = 150
    phi = Eq(Add(V(x), numeral(k)), Add(numeral(k), V(x)))
    base = prove_ground_atom(Add(Zero(), numeral(k)), Add(numeral(k), Zero()))
    step, hyp = step_from_assumption(phi, x)
    proof = induction_rule_proof(base, step, phi, x, 0, [hyp])
    text = render_proof(proof)
    assert (text.count("(node "), len(text) // 100_000) == (472, 23)
    mode = Mode(System.SPI, 0, frozenset({hyp}))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        pairs = extract_all(proof, mode)
        checks = [check_certificate_bounded(cert) for _, cert in pairs]
        sampled = soundness_sample(proof)
    finally:
        sys.setrecursionlimit(limit)
    assert [nid for nid, _ in pairs] == ["r0"]
    assert all(c.ok for c in checks)
    assert sampled.ok
    path, assume = tmp_path / "deep.cyc", tmp_path / "deep.assume"
    path.write_text(text + "\n")
    assume.write_text(hyp.sx + "\n")
    from cyclarith.cli import main
    assert main(["uncycle", str(path), "--system", "spi", "--assume", str(assume),
                 "-o", str(tmp_path / "deep.cert")]) == 0


def _judgement(root, mode, prefix=""):
    """validate's verdict and violation tags, and the obligation statuses of
    extract_all and check_certificate_bounded, with prefix taken off every
    node id."""
    def bare(node_id):
        assert node_id.startswith(prefix), node_id
        return node_id[len(prefix):]

    report = validate(root, mode)
    out = [report.verdict, [(bare(v.node_id), v.tag) for v in report.violations]]
    try:
        certs = extract_all(root, mode)
    except ExtractionError as exc:
        return out + [("refused", exc.report == report)]
    for cert_root, cert in certs:
        checked = check_certificate_bounded(cert).certificate
        out.append((bare(cert_root), [(ob.kind, ob.formula, ob.status, tuple(map(bare, ob.about)))
                                      for ob in checked.obligations]))
    return out


def test_relabelling_node_ids_changes_no_verdict_violation_or_obligation():
    rng = random.Random(12)
    proofs = 0
    refused = 0
    for seed in (1, 2, 3):
        for entry in build_corpus(seed):
            if entry.kind != "cyclic":
                continue
            proof = parse_proof(entry.text)
            mode = Mode(System(entry.system), entry.level, frozenset(entry.assume))
            ids = [n.id for n in walk(proof)]
            mutants = [retarget(proof, leaf, target) for leaf in backlinks(proof)
                       for target in (proof.id, leaf, rng.choice(ids), "zz")]
            for root in [proof] + mutants:
                want = _judgement(root, mode)
                assert _judgement(relabel_proof(root, "r."), mode, "r.") == want, entry.name
                proofs += 1
                refused += want[-1][0] == "refused"
    assert proofs > 200 and 100 < refused < proofs


def _renamed(phi, names):
    """phi, or a term, with every variable x, bound or free, renamed to
    names[x.name]."""
    from cyclarith.syntax import _Binary, _Bounded, _Quant, _succs
    if isinstance(phi, V):
        return V(Var(names[phi.var.name]))
    if isinstance(phi, Succ):
        return _succs(_renamed(phi.base, names), phi.depth)
    if isinstance(phi, _Binary):
        return type(phi)(_renamed(phi.left, names), _renamed(phi.right, names))
    if isinstance(phi, _Quant):
        return type(phi)(Var(names[phi.var.name]), _renamed(phi.body, names))
    if isinstance(phi, _Bounded):
        return type(phi)(Var(names[phi.var.name]), _renamed(phi.bound, names),
                         _renamed(phi.body, names))
    return phi


def _rename_proof(root, names):
    """root with every variable renamed by names: in sequents, rule
    arguments and annotations."""
    import dataclasses
    from conftest import rebuild
    rename = {"f": lambda f: _renamed(f, names), "t": lambda t: _renamed(t, names),
              "v": lambda v: Var(names[v.name]), "i": lambda i: i,
              "s": lambda s: Sequent(_renamed(f, names) for f in s)}

    def node(n):
        rule = type(n.rule)(*[rename[k](a) for k, a in zip(n.rule.kinds, n.rule.__dict__.values())])
        return dataclasses.replace(n, sequent=rename["s"](n.sequent), rule=rule,
                                   vars=None if n.vars is None
                                   else frozenset(Var(names[v.name]) for v in n.vars))
    return rebuild(root, node)


def _variables(root, assume):
    """The names of every variable of root and assume, bound ones too."""
    out = {v for f in assume for v in f.av}
    for n in walk(root):
        out |= {v for f in n.sequent for v in f.av} | (n.vars or set())
        for k, a in zip(n.rule.kinds, n.rule.__dict__.values()):
            if k in "ft":
                out |= a.av
            elif k == "v":
                out.add(a)
            elif k == "s":
                out |= {v for f in a for v in f.av}
    return {v.name for v in out}


def _statuses(root, mode):
    """_judgement without the obligations' formulas."""
    out = _judgement(root, mode)
    return out[:2] + [(cert, [(kind, status, about) for kind, _, status, about in obs])
                      if cert != "refused" else (cert, obs) for cert, obs in out[2:]]


def test_renaming_variables_changes_no_verdict_violation_or_obligation():
    """A bijective renaming of every variable of a cyclic proof, bound ones
    included, applied alike to its assumptions, changes no verdict, violation
    tag or obligation status: a permutation of the proof's own names, which
    swaps names a substitution could capture, and a map onto fresh names."""
    rng = random.Random(23)
    renamings = swapped = 0
    for seed in (1, 2, 3):
        for entry in build_corpus(seed):
            if entry.kind != "cyclic":
                continue
            proof = parse_proof(entry.text)
            mode = Mode(System(entry.system), entry.level, frozenset(entry.assume))
            want = _statuses(proof, mode)
            used = sorted(_variables(proof, entry.assume))
            shuffled = used[:]
            rng.shuffle(shuffled)
            for target in (shuffled, used[1:] + used[:1], [f"w{i}" for i in range(len(used))]):
                names = dict(zip(used, target))
                renamed_mode = Mode(mode.system, mode.level,
                                    frozenset(_renamed(f, names) for f in entry.assume))
                got = _statuses(_rename_proof(proof, names), renamed_mode)
                assert got == want, (entry.name, names)
                renamings += 1
                swapped += any(names[a] != a for a in used) and set(target) == set(used)
    assert renamings == 135 and swapped > 50
