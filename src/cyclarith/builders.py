"""Programmatic proof constructors.

Closed tautologies, ground arithmetic facts, the two canonical cyclic
shapes (induction packaged as a schema instance and induction packaged as
a rule application), a couple of ready-made corpus proofs, finite
truncations of an infinite case cascade, and the seeded examples corpus
built from all of these.

Each proof is written top-down as a spec, (id, rule, *subs), one sub per
premise of the rule: a nested spec, or a finished ProofNode that must
conclude that premise exactly.  _grow derives every sequent of a spec once,
through premises_of, from the goal at its root, and checks each finished
sub-proof and each axiom leaf on the way, so a successful return is correct
by construction; the cyclic builders additionally annotate and validate,
and return the annotated root.  _grow runs on calculus.fold_tree and
tautology builds its spec with one, so no builder recurses once per level of
its input.  The one recursion left is the term generator of _rand_pi1, which
is fixed at depth 1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .annotation import Mode, System, annotate_tree, erase, is_annotated
from .calculus import (Add0Rule, AddSRule, AllRule, AndRule, AssumeLeaf,
                       AxiomLeaf, BackLeaf, CaseRule, CutRule, ExRule,
                       Mult0Rule, MultSRule, OpenLeaf, OrRule, PredRule,
                       ProofNode, RefRule, RepRule, Rule, Sequent, WeakRule,
                       fold_tree, is_axiom, premises_of, render_proof, walk)
from .checker import validate
from .derived import fresh_for
from .semantics import eval_term
from .syntax import (Add, All, AllLe, And, Eq, Ex, ExLe, Formula, Le, Mul,
                     NLe, Neq, Or, PI, Succ, Term, V, Var, ZERO, Zero,
                     _succs, impl, is_in, negate, numeral, substitute)


class PreError(Exception):
    """A constructor precondition failed."""


def _validated(tree: ProofNode, x: Var, mode: Mode, what: str) -> ProofNode:
    """tree annotated from {x} and validated in mode; PreError names each
    violation as node:tag when it is invalid."""
    out = annotate_tree(tree, frozenset({x}), mode)
    report = validate(out, mode)
    if not report.valid:
        raise PreError(f"{what} failed validation: "
                       + "; ".join(f"{v.node_id}:{v.tag}" for v in report.violations))
    return out


def relabel_proof(root: ProofNode, prefix: str) -> ProofNode:
    """Copy with every node id (and back-reference target) prefixed."""
    done: Dict[str, ProofNode] = {}
    for node in reversed(list(walk(root))):  # children before parents
        rule = node.rule
        if isinstance(rule, BackLeaf):
            rule = BackLeaf(prefix + rule.target)
        done[node.id] = ProofNode(prefix + node.id, node.sequent, rule,
                                  tuple(done[c.id] for c in node.children),
                                  node.vars)
    return done[root.id]


def _grow(goal: Sequent, spec: tuple) -> ProofNode:
    """The proof of goal that spec describes: (id, rule, *subs), each sub a
    spec or a finished ProofNode.  Sequents are derived top-down through
    premises_of, each once.  PreError when a finished sub-proof concludes
    another sequent than its premise, an AxiomLeaf closes no axiom, or a
    spec gives another number of subs than its rule has premises."""

    def visit(item):
        seq, sub = item
        if isinstance(sub, ProofNode):
            if sub.sequent != seq:
                raise PreError(f"sub-proof {sub.id} concludes {sub.sequent.sx}, "
                               f"wanted {seq.sx}")
            return sub, ()
        nid, rule, *subs = sub
        if isinstance(rule, AxiomLeaf) and is_axiom(seq) is None:
            raise PreError(f"{nid} is not an axiom: {seq.sx}")
        prems = premises_of(seq, rule) if rule.premises else []
        if len(subs) != len(prems):
            raise PreError(f"{nid}: ({rule.name}) has {len(prems)} premises, "
                           f"the spec gives {len(subs)}")
        return (nid, seq, rule), tuple(zip(prems, subs))

    def build(head, children):
        return head if isinstance(head, ProofNode) else ProofNode(*head, children)

    return fold_tree((goal, spec), visit, build)


def _chain(goal: Sequent, rules: Sequence[Rule], prefix: str) -> ProofNode:
    """A single-branch proof: apply the rules top-down, close with an axiom."""
    seqs = [goal]
    for r in rules:
        [nxt] = premises_of(seqs[-1], r)
        seqs.append(nxt)
    if is_axiom(seqs[-1]) is None:
        raise PreError(f"chain does not end in an axiom: {seqs[-1].sx}")
    node = ProofNode(f"{prefix}{len(rules)}", seqs[-1], AxiomLeaf(), ())
    for i in range(len(rules) - 1, -1, -1):
        node = ProofNode(f"{prefix}{i}", seqs[i], rules[i], (node,))
    return node


# --- closed tautologies ----------------------------------------------------------

def tautology(gamma: Sequent, phi: Formula) -> ProofNode:
    """A finite proof of gamma, phi, negate(phi), by a fold over phi.

    A conjunction and a disjunction split the disjunction, then the
    conjunction, then weaken the stray literal, so each branch is again a
    pure tautology goal; a quantifier eliminates the universal with a fresh
    eigenvariable, taken in preorder, and feeds the same variable back as
    the existential witness.  Ids count up in postorder: both branches of a
    split before its four nodes."""
    counter = itertools.count()
    fresh = fresh_for(phi, *gamma)

    def visit(phi: Formula):
        if isinstance(phi, (Le, NLe, AllLe, ExLe)):
            raise PreError(f"no closing rule for {phi.sx}, desugar first")
        if isinstance(phi, (Eq, Neq)):
            return (AxiomLeaf(),), ()
        bar = negate(phi)
        if isinstance(phi, (And, Or)):
            conj, disj = (phi, bar) if isinstance(phi, And) else (bar, phi)
            return (OrRule(disj), AndRule(conj), WeakRule(Sequent([negate(conj.right)])),
                    WeakRule(Sequent([negate(conj.left)]))), (conj.left, conj.right)
        univ, ext = (phi, bar) if isinstance(phi, All) else (bar, phi)
        z = fresh.take()
        return (AllRule(univ, z), ExRule(ext, V(z)), WeakRule(Sequent([ext]))), \
            (substitute(univ.body, univ.var, V(z)),)

    def build(rules, subs):
        ids = [f"t{next(counter)}" for _ in rules]  # the top rule's last
        if isinstance(rules[0], AxiomLeaf):
            return ids[0], rules[0]
        if isinstance(rules[0], AllRule):
            allr, exr, weak = rules
            return ids[2], allr, (ids[1], exr, (ids[0], weak, subs[0]))
        orr, andr, wl, wr = rules
        return ids[3], orr, (ids[2], andr, (ids[0], wl, subs[0]), (ids[1], wr, subs[1]))

    return _grow(gamma.add(phi, negate(phi)), fold_tree(phi, visit, build))


# --- ground arithmetic facts -----------------------------------------------------

_HOLE = Var("$0")

# The most formulas any sequent of a prove_ground_atom proof holds: the
# goal, t != n, u != u, the disequation being rewritten, the arithmetic
# equation and the rewritten disequation, while u is contracted.
GROUND_WIDTH = 6


def _redex(term: Term) -> Optional[Tuple[Tuple[int, ...], Term, Term, Rule]]:
    """Innermost-leftmost arithmetic redex: (path, redex, contractum, rule).

    A path steps 0 or 1 into the left or right of an addition or a
    multiplication, and 0 through a whole successor chain.  A postorder
    walk with an explicit stack, no recursion: the first addition or
    multiplication it finishes whose right side is 0 or a successor is the
    redex."""
    spine: list = []    # the terms above t, from the top
    steps: list = []    # the step taken below each, so the path to t
    t = term
    while True:
        while True:                         # down the leftmost path
            cls = t.__class__
            if cls is not Succ and cls is not Add and cls is not Mul:
                break
            spine.append(t)
            steps.append(0)
            t = t.base if cls is Succ else t.left
        while True:                         # up to the next right side
            if not spine:
                return None
            t = spine.pop()
            step = steps.pop()
            if t.__class__ is Succ:
                continue
            if not step:
                spine.append(t)
                steps.append(1)
                t = t.right
                break
            l, r = t.left, t.right
            if r.__class__ is Zero or r.__class__ is Succ:
                path = tuple(steps)
                if t.__class__ is Add:
                    if r.__class__ is Zero:
                        return path, t, l, Add0Rule(l)
                    return path, t, Succ(Add(l, r.arg)), AddSRule(l, r.arg)
                if r.__class__ is Zero:
                    return path, t, ZERO, Mult0Rule(l)
                return path, t, Add(Mul(l, r.arg), l), MultSRule(l, r.arg)


def _plug(term: Term, path: Tuple[int, ...], repl: Term) -> Term:
    """term with its subterm at path, a path of _redex, replaced by repl."""
    spine = []
    for step in path:
        spine.append(term)
        term = term.base if isinstance(term, Succ) else term.right if step else term.left
    for t, step in zip(reversed(spine), reversed(path)):
        if isinstance(t, Succ):
            repl = _succs(repl, t.depth)
        else:
            repl = t.__class__(t.left, repl) if step else t.__class__(repl, t.right)
    return repl


def prove_ground_atom(t: Term, u: Term) -> ProofNode:
    """Prove {t=u} or {t!=u} for closed t, u, whichever is true.

    Both sides are rewritten to numerals one redex at a time: the matching
    arithmetic rule contributes the equation, (rep) applies it at the redex
    position. Equalities then close through (ref) and two transfers,
    disequalities descend with (pred) to an ax_s leaf.

    Spent equations are weakened away: after each (rep) a (weak) drops the
    arithmetic equation and the pre-rewrite disequation, and after each
    (pred) one drops its premise, unless a later rule still needs it (the
    goal, and u != u for the closing transfer). Every sequent of the proof
    therefore holds at most GROUND_WIDTH formulas, however large the terms,
    and the rendered proof grows quadratically in the numerals' size, not
    cubically.

    A redex is found and replaced by crossing each successor chain in one
    step, so a rewrite costs the add/mul nesting of the term, not the size
    of its numerals; both walks use explicit stacks, so neither recurses.
    """
    if t.fv or u.fv:
        raise PreError(f"ground atom needs closed terms: {t.sx} / {u.sx}")
    a, b = eval_term(t, {}), eval_term(u, {})
    rules: List[Rule] = []

    def contract(f: Neq, side: int, keep: Optional[Formula] = None) -> Neq:
        while True:
            inner = f.left if side == 0 else f.right
            hit = _redex(inner)
            if hit is None:
                return f
            path, src, dst, arith = hit
            rules.append(arith)  # puts src != dst into the sequent
            pat = _plug(inner, path, V(_HOLE))
            done = _plug(inner, path, dst)
            if side == 0:
                rules.append(RepRule(pat, f.right, _HOLE, src, dst))
                nxt = Neq(done, f.right)
            else:
                rules.append(RepRule(f.left, pat, _HOLE, src, dst))
                nxt = Neq(f.left, done)
            # both premises of (rep) are spent; one copy of src != dst goes
            # even when it coincides with nxt
            spent = [Neq(src, dst)] if f == keep else [f, Neq(src, dst)]
            rules.append(WeakRule(Sequent(spent)))
            f = nxt

    if a == b:
        goal: Formula = Eq(t, u)
        if t == u:
            rules.append(RefRule(t))
        else:
            n = numeral(a)
            rules.append(RefRule(t))
            contract(Neq(t, t), 1)  # t != n
            if u != n:
                rules.append(RefRule(u))
                # u != u stays: the first transfer needs its instance
                contract(Neq(u, u), 1, keep=Neq(u, u))  # u != n
                rules.append(RepRule(V(_HOLE), u, _HOLE, u, n))  # n != u
                if t != n:
                    rules.append(RepRule(t, V(_HOLE), _HOLE, n, u))  # t != u
    else:
        goal = Neq(t, u)
        f = contract(goal, 0, keep=goal)
        f = contract(f, 1, keep=goal)  # now numeral(a) != numeral(b)
        while isinstance(f.left, Succ) and isinstance(f.right, Succ):
            rules.append(PredRule(f.left.arg, f.right.arg))
            if f != goal:
                rules.append(WeakRule(Sequent([f])))
            f = Neq(f.left.arg, f.right.arg)
        if a < b:
            # flip 0 != numeral(b-a) around so ax_s applies
            rules.append(RefRule(ZERO))
            rules.append(RepRule(V(_HOLE), ZERO, _HOLE, ZERO, f.right))
    return _chain(Sequent([goal]), rules, "g")


# --- induction as a cyclic schema ------------------------------------------------

def induction_schema_proof(phi: Formula, x: Var, n: int) -> ProofNode:
    """The cyclic proof of {negate(phi(0)), negate(step), phi(x)}.

    The second member is Ex x (phi and negate(phi(s x))), i.e. the negated
    induction step. Case split on x at the root; the zero branch is a
    tautology, the successor branch instantiates the negated step at x,
    splits the conjunction, and weakens back to the root sequent.
    """
    if not is_in(phi, PI, n + 1):
        raise PreError(f"not in the level-{n + 1} universal class: {phi.sx}")
    if x not in phi.fv:
        raise PreError(f"{x.name} is not free in {phi.sx}")
    phi0 = substitute(phi, x, ZERO)
    phisx = substitute(phi, x, Succ(V(x)))
    psi = Ex(x, And(phi, negate(phisx)))
    sigma0 = relabel_proof(tautology(Sequent([psi]), phi0), "a.")
    sigma1 = relabel_proof(tautology(Sequent([negate(phi0), psi]), phisx), "b.")
    tree = _grow(Sequent([negate(phi0), psi, phi]), (
        "n0", CaseRule(x), sigma0,
        ("n1", ExRule(psi, V(x)),
         ("n2", AndRule(And(phi, negate(phisx))),
          ("n3", WeakRule(Sequent([phisx])), ("n4", BackLeaf("n0"))),
          sigma1))))
    return _validated(tree, x, Mode(System.SN, n), "schema proof")


# --- induction as a rule ---------------------------------------------------------

def induction_rule_proof(base: ProofNode, step: ProofNode,
                         phi: Formula, x: Var, n: int,
                         assumptions: Iterable[Formula] = ()) -> ProofNode:
    """Close {phi} from proofs of {phi(0)} and {negate(phi), phi(s x)}.

    Case split on x, cut phi on the successor branch, weaken the kept side
    back to {phi} and tie it to the root. Once the sub-proofs conclude
    their premises, each is validated on its own, then the assembly is
    annotated from {x} and validated as a whole.
    """
    assumptions = frozenset(assumptions)
    if not is_in(phi, PI, n + 1):
        raise PreError(f"not in the level-{n + 1} universal class: {phi.sx}")
    if x not in phi.fv:
        raise PreError(f"{x.name} is not free in {phi.sx}")
    mode = Mode(System.SPI, n, assumptions)
    phisx = substitute(phi, x, Succ(V(x)))
    tree = _grow(Sequent([phi]), (
        "r0", CaseRule(x), relabel_proof(erase(base), "b."),
        ("r1", CutRule(phi),
         ("r2", WeakRule(Sequent([phisx])), ("r3", BackLeaf("r0"))),
         relabel_proof(erase(step), "s."))))
    for label, sub in (("base", base), ("step", step)):
        checked = sub if is_annotated(sub) else annotate_tree(sub, frozenset(), mode)
        report = validate(checked, mode)
        if not report.valid:
            raise PreError(f"{label} proof invalid: "
                           + "; ".join(v.tag for v in report.violations))
    return _validated(tree, x, mode, "assembled proof")


def step_from_assumption(phi: Formula, x: Var,
                         extra: Iterable[Formula] = ()) -> Tuple[ProofNode, Formula]:
    """Prove {negate(phi), phi(s x)} (plus extras) from the step sentence.

    The sentence is All x (phi -> phi(s x)). Cutting it in, one side weakens
    to an assumption leaf, the other instantiates its negation at x and
    splits into two tautologies. Returns (proof, sentence).
    """
    if phi.fv != frozenset({x}):
        raise PreError(f"step target must close over {x.name} alone: {phi.sx}")
    phisx = substitute(phi, x, Succ(V(x)))
    hyp = All(x, impl(phi, phisx))
    extra = tuple(extra)
    target = Sequent([negate(phi), phisx]).add(*extra)
    nhyp = negate(hyp)
    sub_l = relabel_proof(tautology(Sequent([phisx, nhyp, *extra]), phi), "p.")
    sub_r = relabel_proof(tautology(Sequent([negate(phi), nhyp, *extra]), phisx), "q.")
    tree = _grow(target, (
        "h0", CutRule(hyp),
        ("h1", WeakRule(target), ("h2", AssumeLeaf(hyp))),
        ("h3", ExRule(nhyp, V(x)), ("h4", AndRule(nhyp.body), sub_l, sub_r))))
    return tree, hyp


def induction_rule_via_assumptions(phi: Formula, x: Var,
                                   n: int) -> Tuple[ProofNode, Mode]:
    """Induction rule instance whose sub-proofs lean on two assumed sentences."""
    if phi.fv != frozenset({x}):
        raise PreError(f"target must close over {x.name} alone: {phi.sx}")
    phi0 = substitute(phi, x, ZERO)
    base = ProofNode("z0", Sequent([phi0]), AssumeLeaf(phi0), ())
    step, hyp = step_from_assumption(phi, x)
    assumptions = frozenset({phi0, hyp})
    proof = induction_rule_proof(base, step, phi, x, n, assumptions)
    return proof, Mode(System.SPI, n, assumptions)


# --- ready-made corpus proofs ----------------------------------------------------

def _rule_add_left() -> ProofNode:
    """Induction-rule instance for 0+x = x with hand-rolled sub-proofs."""
    x = Var("x")
    phi = Eq(Add(ZERO, V(x)), V(x))
    base = prove_ground_atom(Add(ZERO, ZERO), ZERO)
    phisx = substitute(phi, x, Succ(V(x)))
    # 0+s(x) = s(0+x) lets (rep) trade the goal for the hypothesis
    step = _chain(Sequent([negate(phi), phisx]), [
        AddSRule(ZERO, V(x)),
        RepRule(Add(ZERO, Succ(V(x))), Succ(V(_HOLE)), _HOLE,
                Add(ZERO, V(x)), V(x)),
    ], "c")
    return induction_rule_proof(base, step, phi, x, 0)


def two_loops_proof() -> Tuple[ProofNode, Mode]:
    """A conjunction of two independently cycling induction instances.

    Left loop proves 0+x = x, right loop proves x+0 = x; each closes its own
    back-link below a shared root conjunction.
    """
    x = Var("x")
    phi1 = Eq(Add(ZERO, V(x)), V(x))
    phi2 = Eq(Add(V(x), ZERO), V(x))
    base = prove_ground_atom(Add(ZERO, ZERO), ZERO)
    phi2sx = substitute(phi2, x, Succ(V(x)))
    step2 = _chain(Sequent([negate(phi2), phi2sx]), [
        Add0Rule(Succ(V(x))),
    ], "c")

    loop1 = _rule_add_left()
    loop2 = induction_rule_proof(base, step2, phi2, x, 0)
    conj = And(phi1, phi2)
    tree = _grow(Sequent([conj]), ("w0", AndRule(conj),
                                   relabel_proof(erase(loop1), "p."),
                                   relabel_proof(erase(loop2), "q.")))
    mode = Mode(System.SN, 0)
    return _validated(tree, x, mode, "two-loop proof"), mode


def forall_cycle_proof() -> Tuple[ProofNode, Mode]:
    """A cycle that passes through a universal quantifier inference.

    Proves {all y (x+y = y+x)} from assumed base and step sentences; the
    cycle instantiates the universal with a fresh eigenvariable, so the
    extracted invariant closes over that variable.
    """
    x, y = Var("x"), Var("y")
    body = Eq(Add(V(x), V(y)), Add(V(y), V(x)))
    a = All(y, body)
    a0 = substitute(a, x, ZERO)
    z = fresh_for(a).take()
    inst = substitute(body, y, V(z))
    step1, hyp = step_from_assumption(a, x)
    step2, _ = step_from_assumption(a, x, extra=[inst])
    # after (all), the branch holds a(s x) and the instance at z
    opened = Sequent([substitute(a, x, Succ(V(x))), inst])
    tree = _grow(Sequent([a]), (
        "f0", CaseRule(x), ("a0", AssumeLeaf(a0)),
        ("f1", CutRule(a),
         ("f2", AllRule(a, z),
          ("f3", CutRule(a),
           ("f4", WeakRule(opened), ("f5", BackLeaf("f0"))),
           relabel_proof(step2, "t."))),
         relabel_proof(step1, "s."))))
    mode = Mode(System.SN, 0, frozenset({a0, hyp}))
    return _validated(tree, x, mode, "eigenvariable loop"), mode


# --- finite truncations of the case cascade --------------------------------------

def omega_truncation(proofs: Sequence[ProofNode], gamma: Sequent, phi: Formula,
                     x: Var) -> ProofNode:
    """Stack len(proofs) case splits on x over gamma, phi.

    Stage k's zero branch is proofs[k] (which must conclude gamma, phi(k));
    the successor branch continues with phi shifted one s deeper. The last
    successor branch stays an open leaf.
    """
    if x in gamma.fv:
        raise PreError(f"{x.name} occurs free in the side sequent {gamma.sx}")
    if proofs and x not in phi.fv:
        raise PreError(f"{x.name} is not free in {phi.sx}")
    spec: tuple = (f"o{len(proofs)}", OpenLeaf())
    for k in range(len(proofs) - 1, -1, -1):
        spec = (f"o{k}", CaseRule(x), relabel_proof(erase(proofs[k]), f"k{k}."), spec)
    return _grow(gamma.add(phi), spec)


# --- the examples corpus ---------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # cyclic | tree | tree-open
    text: str
    system: str = "sn"
    level: int = 0
    assume: Tuple[Formula, ...] = ()


def _rand_pi1(rng: random.Random, x: Var) -> Formula:
    """A small Pi1 formula with x free: universal prefix over a safe matrix."""
    y, z = Var("y"), Var("z")
    prefix = rng.choice([(), (y,), (y, z)])
    pool_vars = [V(x)] + [V(v) for v in prefix]

    def term(depth: int):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return rng.choice(pool_vars) if rng.random() < 0.7 else numeral(rng.randrange(3))
        kind = rng.choice([Add, Mul, Succ])
        if kind is Succ:
            return Succ(term(depth - 1))
        return kind(term(depth - 1), term(depth - 1))

    def atom():
        kind = rng.choice([Eq, Neq])
        return kind(term(1), term(1))

    matrix: Formula = atom()
    for _ in range(rng.randrange(3)):
        matrix = rng.choice([And, Or])(matrix, atom())
    # make sure x actually occurs free
    if x not in matrix.fv:
        matrix = And(matrix, Eq(Add(V(x), ZERO), V(x)))
    phi = matrix
    for v in reversed(prefix):
        phi = All(v, phi)
    return phi


def build_corpus(seed: int = 0) -> List[CorpusEntry]:
    """The `examples` corpus: fixed constructions plus seeded random ones."""
    rng = random.Random(seed)
    x, y = Var("x"), Var("y")
    entries: List[CorpusEntry] = []

    def cyclic(name, proof, mode):
        entries.append(CorpusEntry(name, "cyclic", render_proof(proof),
                                   str(mode.system), mode.level,
                                   tuple(sorted(mode.assumptions, key=lambda f: f.sx))))

    commute = All(y, Eq(Add(V(x), V(y)), Add(V(y), V(x))))
    cyclic("ind_schema_pi1.cyc", induction_schema_proof(commute, x, 0), Mode(System.SN, 0))
    z = Var("z")
    pi2 = All(y, Ex(z, Eq(Add(V(x), V(y)), Add(V(y), V(z)))))
    cyclic("ind_schema_pi2.cyc", induction_schema_proof(pi2, x, 1), Mode(System.SN, 1))
    w = Var("w")
    pi3 = All(y, Ex(z, All(w, Eq(Add(V(x), V(w)), Add(V(w), V(x))))))
    cyclic("ind_schema_pi3.cyc", induction_schema_proof(pi3, x, 2), Mode(System.SN, 2))

    cyclic("ind_rule_add0.cyc", _rule_add_left(), Mode(System.SPI, 0))
    proof, mode = two_loops_proof()
    cyclic("two_loops.cyc", proof, mode)
    proof, mode = forall_cycle_proof()
    cyclic("forall_cycle.cyc", proof, mode)
    proof, mode = induction_rule_via_assumptions(commute, x, 0)
    cyclic("ind_rule_assume.cyc", proof, mode)

    for i in range(8):
        phi = _rand_pi1(rng, x)
        cyclic(f"schema_rand_{i:02d}.cyc", induction_schema_proof(phi, x, 0),
               Mode(System.SN, 0))

    for i in range(6):
        phi = _rand_pi1(rng, x)
        proof = tautology(Sequent([]), phi)
        entries.append(CorpusEntry(f"taut_{i:02d}.prf", "tree", render_proof(proof)))

    for i in range(6):
        a, b = rng.randrange(9), rng.randrange(9)
        t = Add(numeral(a), numeral(b)) if rng.random() < 0.5 else Mul(numeral(a), numeral(b))
        u = numeral(rng.randrange(13))
        proof = prove_ground_atom(t, u)
        entries.append(CorpusEntry(f"ground_{i:02d}.prf", "tree", render_proof(proof)))

    phi = Eq(Add(V(x), ZERO), V(x))
    stages = [prove_ground_atom(Add(numeral(k), ZERO), numeral(k)) for k in range(3)]
    entries.append(CorpusEntry("omega_k3.prf", "tree-open",
                               render_proof(omega_truncation(stages, Sequent([]), phi, x))))
    return entries
