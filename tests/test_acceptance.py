"""Acceptance gate: eleven numbered checks, one printed line each.

Run with -s to see the lines; each test also asserts its own result.
"""

import dataclasses
import random
from collections import Counter

import pytest

from cyclarith import (
    Add,
    All,
    Eq,
    Ex,
    Mode,
    Mul,
    Neq,
    PI,
    Sequent,
    Succ,
    System,
    TV,
    V,
    Var,
    Zero,
    all_assignments,
    annotate_tree,
    certificate_with_theta,
    check_certificate_bounded,
    check_step,
    check_tree,
    erase,
    eval_formula,
    eval_term,
    extract_all,
    forall_cycle_proof,
    free_vars,
    graph_of,
    induction_rule_via_assumptions,
    induction_schema_proof,
    is_annotated,
    is_in,
    negate,
    numeral,
    prefix_equal,
    premises_of,
    prove_ground_atom,
    ravel,
    render_formula,
    render_proof,
    sequent_truth,
    two_loops_proof,
    unravel,
    validate,
    walk,
)

from conftest import (RULE_NAMES, backlinks, grid_counterexample, make_rule_instance,
                      random_formula, random_pi1, rebuild, retarget)

x, y = Var("x"), Var("y")
SN0 = Mode(System.SN, 0)


def _line(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")


@pytest.fixture(scope="module")
def rule_instances():
    rng = random.Random(2024)
    table = {}
    for name in RULE_NAMES:
        table[name] = [make_rule_instance(rng, name) for _ in range(200)]
    return table


def test_criterion_1_negation_involution():
    rng = random.Random(101)
    bad = 0
    for _ in range(1000):
        phi = random_formula(rng, 5)
        if negate(negate(phi)) != phi:
            bad += 1
    _line(1, bad == 0, f"negate twice is identity on 1000 formulas ({bad} failures)")
    assert bad == 0


def test_criterion_2_rule_round_trip(rule_instances):
    bad = []
    for name, instances in rule_instances.items():
        for concl, rule in instances:
            prems = premises_of(concl, rule)
            err = check_step(concl, rule, prems)
            if err is not None:
                bad.append((name, err))
    _line(2, not bad, f"premises_of/check_step round trip, 200 instances x {len(rule_instances)} rules")
    assert bad == [], bad[:3]


def test_criterion_3_local_soundness(rule_instances):
    violations = []
    for name, instances in rule_instances.items():
        for concl, rule in instances:
            env = grid_counterexample(concl, premises_of(concl, rule))
            if env is not None:
                violations.append((name, concl.sx, env))
    _line(3, not violations, f"all-True premises never yield a False conclusion on {{0..4}} ({len(violations)} hits)")
    assert violations == [], violations[:3]


def test_criterion_4_annotation_determinism(proof_corpus):
    bad = []
    for name, proof, mode in proof_corpus:
        if is_annotated(proof):
            plain = erase(proof)
            a = annotate_tree(plain, proof.vars, mode)
            b = annotate_tree(plain, proof.vars, mode)
            if render_proof(a) != render_proof(b):
                bad.append((name, "two runs differ"))
            if render_proof(a) != render_proof(proof):
                bad.append((name, "annotate after erase differs"))
        else:
            ann = annotate_tree(proof, frozenset(), mode)
            ann2 = annotate_tree(proof, frozenset(), mode)
            if render_proof(ann) != render_proof(ann2):
                bad.append((name, "two runs differ"))
            if render_proof(erase(ann)) != render_proof(proof):
                bad.append((name, "erase after annotate differs"))
    _line(4, not bad, f"annotation deterministic and invertible on {len(proof_corpus)} corpus proofs")
    assert bad == [], bad[:3]


def _mutants(proof):
    """Three single-point corruptions of the back-link conditions."""

    def blank(n):
        return dataclasses.replace(n, vars=frozenset()) if n.id == "n2" else n

    def alter(n):
        if n.id == "n4":
            return dataclasses.replace(n, sequent=n.sequent.add(Eq(Zero(), Zero())))
        return n

    # the first aims the link above the case node (at its right child)
    return [retarget(proof, "n4", "n1"), rebuild(proof, blank), rebuild(proof, alter)]


def test_criterion_5_schema_proofs_and_mutations():
    rng = random.Random(55)
    undetected = 0
    invalid_originals = 0
    for _ in range(20):
        phi = random_pi1(rng, x)
        proof = induction_schema_proof(phi, x, 0)
        if not validate(proof, SN0).valid:
            invalid_originals += 1
            continue
        for mutant in _mutants(proof):
            if validate(mutant, SN0).valid:
                undetected += 1
    ok = invalid_originals == 0 and undetected == 0
    _line(5, ok, f"20 schema proofs valid, 60/60 single-point mutants rejected ({undetected} missed)")
    assert invalid_originals == 0
    assert undetected == 0


def test_criterion_6_schema_levels():
    z, w = Var("z"), Var("w")
    cases = [
        (All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x)))), 0),
        (All(y, Ex(z, Eq(Add(V(x), V(y)), Add(V(y), V(z))))), 1),
        (All(y, Ex(z, All(w, Eq(Add(V(x), V(w)), Add(V(w), V(x)))))), 2),
    ]
    passed = 0
    for phi, n in cases:
        proof = induction_schema_proof(phi, x, n)
        if validate(proof, Mode(System.SN, n)).valid:
            passed += 1
    _line(6, passed == 3, f"schema proofs validate at levels 0,1,2 ({passed}/3)")
    assert passed == 3


def test_criterion_7_ravel_unravel(cyclic_corpus):
    mismatches = []
    for name, proof, mode in cyclic_corpus:
        g = graph_of(proof)
        back = ravel(g, mode)
        if not validate(back, mode).valid:
            mismatches.append((name, "ravel not valid"))
            continue
        for depth in (5, 10, 20):
            if not prefix_equal(unravel(back, depth), unravel(proof, depth)):
                mismatches.append((name, depth))
    _line(7, not mismatches,
          f"ravel(graph_of) valid and unravel-prefix-equal at depths 5/10/20 on {len(cyclic_corpus)} proofs")
    assert mismatches == [], mismatches[:3]


def _example_proofs():
    rng = random.Random(88)
    z, w = Var("z"), Var("w")
    out = []
    for i in range(20):
        phi = random_pi1(rng, x)
        out.append((f"pi1_{i}", induction_schema_proof(phi, x, 0), SN0))
    out.append(("sch_n0", induction_schema_proof(
        All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x)))), x, 0), SN0))
    out.append(("sch_n1", induction_schema_proof(
        All(y, Ex(z, Eq(Add(V(x), V(y)), Add(V(y), V(z))))), x, 1), Mode(System.SN, 1)))
    out.append(("sch_n2", induction_schema_proof(
        All(y, Ex(z, All(w, Eq(Add(V(x), V(w)), Add(V(w), V(x)))))), x, 2), Mode(System.SN, 2)))
    tl, tlm = two_loops_proof()
    out.append(("two_loops", tl, tlm))
    fc, fcm = forall_cycle_proof()
    out.append(("forall_cycle", fc, fcm))
    ir, irm = induction_rule_via_assumptions(Eq(Add(Zero(), V(x)), V(x)), x, 0)
    out.append(("ind_rule", ir, irm))
    return out


def _theta_mutant(rng, theta):
    """Single edit of the rule invariant (eq (add 0 x) x); most edits break
    it at small values, an occasional side swap keeps it equivalent."""
    lhs, rhs = theta.left, theta.right
    if rng.random() < 0.08:
        return Eq(rhs, lhs), True  # equivalent by symmetry
    op = rng.randrange(5)
    if op == 0:
        return Neq(lhs, rhs), False
    if op == 1:
        return Eq(Succ(lhs), rhs), False
    if op == 2:
        return Eq(lhs, Succ(rhs)), False
    if op == 3:
        return Eq(lhs, Zero()), False
    return Eq(Add(Zero(), Succ(V(x))), V(x)), False


def test_criterion_8_certificates_and_theta_mutation():
    problems = []
    rule_cert = None
    for name, proof, mode in _example_proofs():
        certs = extract_all(proof, mode)
        if not certs and backlinks(proof):
            problems.append((name, "no certificate"))
        for sid, cert in certs:
            n = mode.level
            if not is_in(cert.theta, PI, n + 1):
                problems.append((name, sid, "theta class"))
            if not is_in(cert.zeta, PI, n + 1):
                problems.append((name, sid, "zeta class"))
            if cert.fresh_z in free_vars(cert.theta):
                problems.append((name, sid, "fresh z not fresh"))
            if set(cert.ranks) != set(cert.m_nodes):
                problems.append((name, sid, "rank domain"))
            if any(cert.ranks[c] != 0 for c in cert.c_nodes):
                problems.append((name, sid, "case rank nonzero"))
            if any(r < 1 for nid, r in cert.ranks.items() if nid not in cert.c_nodes):
                problems.append((name, sid, "non-case rank zero"))
            chk = check_certificate_bounded(cert, 3, 8)
            falses = [o.kind for o in chk.certificate.obligations if o.status == "false"]
            if falses:
                problems.append((name, sid, "false obligations", falses))
            if name == "ind_rule":
                rule_cert = cert

    assert rule_cert is not None
    rng = random.Random(808)
    detected = 0
    audited = 0
    for _ in range(50):
        mutated, equivalent = _theta_mutant(rng, rule_cert.theta)
        chk = check_certificate_bounded(certificate_with_theta(rule_cert, mutated), 3, 8)
        if not chk.ok:
            detected += 1
        else:
            # undetected mutants must agree with the original pointwise
            same = all(
                eval_formula(mutated, {x: k}, 64) == eval_formula(rule_cert.theta, {x: k}, 64)
                for k in range(13)
            )
            if equivalent and same:
                audited += 1
            else:
                problems.append(("theta-mutation", render_formula(mutated), "missed"))
    ok = not problems and detected >= 45
    _line(8, ok,
          f"certificates sound on example corpus; theta mutants {detected}/50 detected, {audited} audited equivalent")
    assert problems == [], problems[:3]
    assert detected >= 45, (detected, audited)
    assert detected + audited == 50


def test_criterion_9_mode_separation():
    phi = Eq(Add(Zero(), V(x)), V(x))
    proof, mode = induction_rule_via_assumptions(phi, x, 0)
    rep_pi = validate(proof, mode)
    certs = extract_all(proof, mode)
    trivial = len(certs) == 1 and certs[0][1].phi_root_trivial
    sig_mode = Mode(System.SSIGMA, 0, mode.assumptions)
    re_ann = annotate_tree(erase(proof), frozenset(), sig_mode)
    rep_sig = validate(re_ann, sig_mode)
    ok = rep_pi.valid and trivial and not rep_sig.valid
    _line(9, ok, "rule proof valid in Pi-mode with trivial root formula, invalid in Sigma-0")
    assert rep_pi.valid
    assert trivial
    assert not rep_sig.valid


def _closed_term(rng, depth):
    if depth <= 0:
        return numeral(rng.randrange(7))
    k = rng.randrange(4)
    if k == 0:
        return numeral(rng.randrange(7))
    if k == 1:
        return Succ(_closed_term(rng, depth - 1))
    if k == 2:
        return Add(_closed_term(rng, depth - 1), _closed_term(rng, depth - 1))
    return Mul(_closed_term(rng, depth - 1), _closed_term(rng, depth - 1))


def test_criterion_10_ground_prover():
    rng = random.Random(1010)
    pairs = []
    while len(pairs) < 500:
        t = _closed_term(rng, 3)
        if eval_term(t, {}) > 32:
            continue
        if rng.random() < 0.5:
            u = numeral(rng.randrange(33))
        else:
            u = _closed_term(rng, 2)
            if eval_term(u, {}) > 32:
                continue
        pairs.append((t, u))
    bad = []
    for t, u in pairs:
        proof = prove_ground_atom(t, u)
        if check_tree(proof) != []:
            bad.append((t.sx, u.sx, "tree"))
            continue
        equal = eval_term(t, {}) == eval_term(u, {})
        want = Eq(t, u) if equal else Neq(t, u)
        if proof.sequent != Sequent([want]):
            bad.append((t.sx, u.sx, "root"))
    _line(10, not bad, f"ground prover exact on 500 closed pairs with values <= 32 ({len(bad)} failures)")
    assert bad == [], bad[:3]


def test_criterion_11_sequent_non_falsity(proof_corpus):
    seen = set()
    hits = []
    for name, proof, mode in proof_corpus:
        for node in walk(proof):
            seq = node.sequent
            if seq.sx in seen:
                continue
            seen.add(seq.sx)
            fv = sorted(seq.fv, key=lambda v: v.name)
            for env in all_assignments(fv, 3):
                if sequent_truth(seq.formulas, env, 8) is TV.FALSE:
                    hits.append((name, node.id, dict(env)))
                    break
    _line(11, not hits, f"no corpus sequent is False on {{0..3}} ({len(seen)} distinct sequents)")
    assert hits == [], hits[:3]
