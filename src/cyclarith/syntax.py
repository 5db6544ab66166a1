"""Terms and formulas of first-order arithmetic, in negation normal form.

The language has equations and disequations as dual atoms and no negation
connective: `negate` computes the dual formula syntactically.  The ordering
atom `(le t u)` and its dual `(nle t u)`, and the bounded quantifiers
`(all<= x t f)` / `(ex<= x t f)`, are sugar over the quantifier/equation
core; module `derived` expands them.

Terms and formulas are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): a constructor returns the one live node with its class
and children, looked up in an intern table, so structurally equal nodes are
the same object and `==`/`hash` are identity.  Numerals are the commonest
terms of arithmetic, so a successor chain s^k(t), t not a successor, is one
node: `base` t and `depth` k, interned under (Succ, t, k), one node and one
table entry however long the chain.  `Succ(t)` and `_succs(t, k)` merge a
chain argument into one longer chain, and `arg` is the interned chain one
successor shorter, so a chain still matches and steps as nested successors;
code that walks terms jumps a chain at once through `base` and `depth`.  The
table holds its nodes weakly; a node nothing else refers to is freed, and
with it its dual, once `negate` has built it.  A formula holds its dual
strongly and a dual its formula through a weak reference only, so neither
keeps the pair alive and nodes still die by reference counting, never
waiting for the cycle collector.  Free and all variables (`fv`, `av`) and,
on formulas, whether they hold any sugar (`sugar`) and their least levels in
the arithmetical hierarchy (`sigma`, `pi`) are computed at construction from
the children's, so expanding sugar passes over sugar-free subformulas
without walking them and `is_in` is one comparison.  The canonical
s-expression `sx` is rendered on first use, without recursion, and cached on
the node it was asked of only, so a deep term costs memory linear in its
size.  `sx` is the sort key for sequent normalization.  The reader hands a
numeral over as one value (`sexpr.Chain`), which becomes its node in one
step.  Heads and variables are atoms: quoted text equals no atom (see
sexpr), and `ident_var` takes only a plain `str`, so `"top"`, `("eq" 0 0)`
and `(all "x" ...)` raise ParseError, the one error of every reader
(defined in sexpr, re-exported here).

A document (a proof or a graph) is converted with one memo: a dict that
holds, for each kind of value ("formula" and "term"), a table from the
identity of a list to what it converted to.  A read gives a list that the
document repeats with the same spelling as one object (see sexpr), so a
formula or term the document repeats is found by identity and converted
once, and a hit returns before any set-up of the conversion.  A list is
looked up under the kind it is read as, so one met as a term and again as
a formula is converted, and checked, as each; only successful conversions
are stored, so the first error is the one an unmemoised read raises.  The
memo is made by the call that converts the document and dies with it.

`negate` and `substitute` run once per formula of a step's premises, so
they dispatch on the node's class with identity tests and set lookups, not
on class patterns, and `substitute` returns a formula without the variable
free at once.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Dict

from . import sexpr
from .sexpr import Chain, ParseError


class CaptureError(Exception):
    """Substitution would move a variable of the replacement under a binder."""


_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$'.]*\Z")


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


# --- the intern table -------------------------------------------------------

_set = object.__setattr__   # nodes refuse plain assignment once built


class _Ref(weakref.ref):
    """Weak reference that knows its table key (a plain slot, unlike the
    slower weakref.KeyedRef)."""

    __slots__ = ("key",)


# (class, children...) -> weak reference to the node; a variable is keyed by
# its name.  Children are live nodes held by the key, so equal keys mean
# identical children.
_TABLE: Dict[tuple, _Ref] = {}


def _drop(ref: _Ref) -> None:
    """Weakref callback: forget a node that died, unless already replaced."""
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


def _make(cls, key: tuple, fv: frozenset, av: frozenset):
    """A new node, entered in the table; the caller sets its children."""
    node = object.__new__(cls)
    _set(node, "fv", fv)
    _set(node, "av", av)
    _set(node, "_sx", None)
    ref = _Ref(node, _drop)
    ref.key = key
    _TABLE[key] = ref
    return node


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, sharing an operand's set when the other adds nothing, so that
    most nodes of a deep term allocate no variable set of their own."""
    if not b or a is b:
        return a
    return a | b if a else b


class _Syn:
    """Base for terms and formulas: interned, immutable, rendered lazily."""

    __slots__ = ("fv", "av", "_sx", "__weakref__")

    @property
    def sx(self) -> str:
        s = self._sx
        if s is None:
            s = _render(self)
            _set(self, "_sx", s)
        return s

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return self.sx


def _render(node: _Syn) -> str:
    """Canonical s-expression of node; an explicit stack, no recursion."""
    out = []
    todo: list = [node]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
        elif item._sx is not None:
            out.append(item._sx)
        else:
            item._unfold(out, todo)
    return "".join(out)


_EMPTY = frozenset()


class Term(_Syn):
    __slots__ = ()


class Zero(Term):
    __slots__ = ()
    __match_args__ = ()

    def __new__(cls):
        key = (cls,)
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is None:
            node = _make(cls, key, _EMPTY, _EMPTY)
            _set(node, "_sx", "0")
        return node


class V(Term):
    __slots__ = ("var",)
    __match_args__ = ("var",)

    def __new__(cls, var: Var):
        key = (cls, var.name)
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is None:
            vs = frozenset((var,))
            node = _make(cls, key, vs, vs)
            _set(node, "var", var)
            _set(node, "_sx", var.name)
        return node


class Succ(Term):
    """A whole successor chain: `base` (never a Succ) under `depth` >= 1
    successors, so a numeral is one node however large."""

    __slots__ = ("base", "depth")
    __match_args__ = ("arg",)

    def __new__(cls, arg: Term):
        return _succs(arg, 1)

    @property
    def arg(self) -> Term:
        """The chain one successor shorter."""
        return _succs(self.base, self.depth - 1)

    def _unfold(self, out, todo):
        k = self.depth
        out.append("(s " * k)
        todo.append(")" * k)
        todo.append(self.base)


class _Binary(_Syn):
    """Two children, left and right; rendered `(head left right)`."""

    __slots__ = ()
    __match_args__ = ("left", "right")
    _head = "?"
    _joins = False      # and/or: sugar and levels come from both sides

    def __new__(cls, left, right):
        key = (cls, left, right)
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is None:
            node = _make(cls, key, _union(left.fv, right.fv), _union(left.av, right.av))
            _set(node, "left", left)
            _set(node, "right", right)
            if cls._joins:
                _set(node, "sugar", left.sugar or right.sugar)
                _set(node, "sigma", max(left.sigma, right.sigma))
                _set(node, "pi", max(left.pi, right.pi))
        return node

    def _unfold(self, out, todo):
        out.append(self._head)
        todo += (")", self.right, " ", self.left)


class Add(_Binary, Term):
    __slots__ = ("left", "right")
    _head = "(add "


class Mul(_Binary, Term):
    __slots__ = ("left", "right")
    _head = "(mul "


class Formula(_Syn):
    """`sigma` and `pi` are the least n with the formula in Sigma_n and in
    Pi_n (see `is_in`), fixed at construction: atoms are Delta0, level 0 in
    both; and/or take the greater level of their two sides; an existential
    is Sigma at its body's Sigma level, at least 1, and Pi one level higher,
    dually a universal; a bounded quantifier over a Delta0 body is Delta0,
    and otherwise levelled like its unbounded counterpart."""

    __slots__ = ("_dual",)  # see negate
    sugar = False       # holds le, nle, all<= or ex<=; fixed at construction
    sigma = pi = 0


class Eq(_Binary, Formula):
    __slots__ = ("left", "right")
    _head = "(eq "


class Neq(_Binary, Formula):
    __slots__ = ("left", "right")
    _head = "(neq "


class Le(_Binary, Formula):
    __slots__ = ("left", "right")
    _head = "(le "
    sugar = True


class NLe(_Binary, Formula):
    """Dual of Le; keeps negate an involution on the sugared language."""

    __slots__ = ("left", "right")
    _head = "(nle "
    sugar = True


class And(_Binary, Formula):
    __slots__ = ("left", "right", "sugar", "sigma", "pi")
    _head = "(and "
    _joins = True


class Or(_Binary, Formula):
    __slots__ = ("left", "right", "sugar", "sigma", "pi")
    _head = "(or "
    _joins = True


def _set_levels(node: Formula, exists: bool, body: Formula) -> None:
    """Set the levels of an unbounded quantifier over body (see `Formula`);
    a Delta0 body counts as level 1."""
    if exists:
        n = max(1, body.sigma)
        _set(node, "sigma", n)
        _set(node, "pi", n + 1)
    else:
        n = max(1, body.pi)
        _set(node, "sigma", n + 1)
        _set(node, "pi", n)


class _Quant(Formula):
    """Unbounded quantifier over var; rendered `(head var body)`."""

    __slots__ = ("var", "body", "sugar", "sigma", "pi")
    __match_args__ = ("var", "body")
    _head = "?"
    _exists = False

    def __new__(cls, var: Var, body: Formula):
        key = (cls, var.name, body)
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is None:
            node = _make(cls, key, body.fv - {var}, body.av | {var})
            _set(node, "var", var)
            _set(node, "body", body)
            _set(node, "sugar", body.sugar)
            _set_levels(node, cls._exists, body)
        return node

    def _unfold(self, out, todo):
        out.append(f"{self._head}{self.var.name} ")
        todo += (")", self.body)


class All(_Quant):
    __slots__ = ()
    _head = "(all "


class Ex(_Quant):
    __slots__ = ()
    _head = "(ex "
    _exists = True


class _Bounded(Formula):
    """Bounded quantifier: the variable must not occur in the bound term."""

    __slots__ = ("var", "bound", "body", "sigma", "pi")
    __match_args__ = ("var", "bound", "body")
    _head = "?"
    _exists = False
    sugar = True

    def __new__(cls, var: Var, bound: Term, body: Formula):
        key = (cls, var.name, bound, body)
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is None:
            if var in bound.av:
                raise ValueError(f"bound term of {cls._head[1:-1]} mentions {var.name}")
            node = _make(cls, key, bound.fv | (body.fv - {var}), bound.av | body.av | {var})
            _set(node, "var", var)
            _set(node, "bound", bound)
            _set(node, "body", body)
            if body.sigma:
                _set_levels(node, cls._exists, body)
            else:       # Delta0 over a Delta0 body
                _set(node, "sigma", 0)
                _set(node, "pi", 0)
        return node

    def _unfold(self, out, todo):
        out.append(f"{self._head}{self.var.name} ")
        todo += (")", self.body, " ", self.bound)


class AllLe(_Bounded):
    __slots__ = ()
    _head = "(all<= "


class ExLe(_Bounded):
    __slots__ = ()
    _head = "(ex<= "
    _exists = True


ZERO = Zero()
TOP = Eq(ZERO, ZERO)
BOT = Neq(ZERO, ZERO)


def numeral(k: int) -> Term:
    if k < 0:
        raise ValueError("numerals are non-negative")
    return _succs(ZERO, k)


def _succs(t: Term, k: int) -> Term:
    """t under k successors: a chain under t merges into one node."""
    if not k:
        return t
    if t.__class__ is Succ:
        t, k = t.base, t.depth + k
    key = (Succ, t, k)
    ref = _TABLE.get(key)
    node = ref and ref()
    if node is None:
        node = _make(Succ, key, t.fv, t.av)
        _set(node, "base", t)
        _set(node, "depth", k)
    return node


def _known_dual(phi) -> Formula | None:
    """The memoised dual of phi, if it has one that is alive."""
    try:
        dual = phi._dual
    except AttributeError:
        return None
    return dual() if dual.__class__ is weakref.ref else dual


# each formula class -> the class of its dual
_DUAL = {Eq: Neq, Neq: Eq, Le: NLe, NLe: Le, And: Or, Or: And,
         All: Ex, Ex: All, AllLe: ExLe, ExLe: AllLe}
_ATOMS = frozenset((Eq, Neq, Le, NLe))
_QUANTS = frozenset((All, Ex))
_BOUNDED = frozenset((AllLe, ExLe))


def negate(phi: Formula) -> Formula:
    """The dual formula: atoms flip, connectives and quantifiers swap.

    An explicit stack, no recursion.  A dual once built is memoised on its
    formula, and the formula on its dual through a weak reference only, so
    either is found again by one attribute read and neither keeps the other
    alive through its dual.
    """
    dual = _known_dual(phi)
    if dual is not None:
        return dual
    out: list = []          # duals of the formulas done, in postorder
    todo: list = [phi]      # formulas to negate; (f,) builds f's dual from out
    while todo:
        f = todo.pop()
        if f.__class__ is tuple:
            f = f[0]
            cls = f.__class__
            body = out.pop()
            if cls is And or cls is Or:
                dual = _DUAL[cls](out.pop(), body)
            elif cls in _QUANTS:
                dual = _DUAL[cls](f.var, body)
            else:
                dual = _DUAL[cls](f.var, f.bound, body)
        else:
            dual = _known_dual(f)
            if dual is not None:
                out.append(dual)
                continue
            cls = f.__class__
            if cls in _ATOMS:
                dual = _DUAL[cls](f.left, f.right)
            elif cls is And or cls is Or:
                todo += ((f,), f.right, f.left)
                continue
            elif cls in _DUAL:
                todo += ((f,), f.body)
                continue
            else:
                raise TypeError(f"not a formula: {f!r}")
        _set(f, "_dual", dual)
        _set(dual, "_dual", weakref.ref(f))
        out.append(dual)
    return out[0]


def impl(phi: Formula, psi: Formula) -> Formula:
    return Or(negate(phi), psi)


def iff(phi: Formula, psi: Formula) -> Formula:
    return And(impl(phi, psi), impl(psi, phi))


def substitute(phi: Formula, x: Var, s: Term) -> Formula:
    """Replace free occurrences of x by s in a formula or a term; raise
    CaptureError when a binder of the replacement's variables has x free
    below it.

    An explicit stack, no recursion.  Nodes without x free are kept as they
    are and a successor chain is crossed in one step.  Binders are visited
    in preorder, left to right, so the capture reported is the first a
    recursive walk would meet; the results are built in postorder on `out`.
    A task (node,) rebuilds node from the results of its children.
    """
    if x not in phi.fv:
        return phi
    out: list = []
    todo: list = [phi]
    while todo:
        f = todo.pop()
        if f.__class__ is tuple:
            f = f[0]
            cls = f.__class__
            last = out.pop()
            if cls is Succ:
                last = _succs(last, f.depth)
            elif cls in _QUANTS:
                last = cls(f.var, last)
            elif cls in _BOUNDED:
                last = cls(f.var, out.pop(), last)
            else:
                last = cls(out.pop(), last)
            out.append(last)
        elif x not in f.fv:
            out.append(f)
        else:
            cls = f.__class__
            if cls is V:
                out.append(s)
            elif cls is Succ:
                todo += ((f,), f.base)
            elif cls in _QUANTS or cls in _BOUNDED:
                if f.var in s.av:
                    raise CaptureError(
                        f"substituting {s.sx} for {x.name} captures {f.var.name}")
                todo += ((f,), f.body)
                if cls in _BOUNDED:
                    todo.append(f.bound)
            else:
                todo += ((f,), f.right, f.left)
    return out[0]


# --- arithmetical hierarchy -------------------------------------------------

DELTA0 = "delta0"
SIGMA = "sigma"
PI = "pi"


def is_in(phi: Formula, kind: str, n: int = 0) -> bool:
    """Syntactic membership in Delta0 / Sigma_n / Pi_n.

    Sigma_{n+1} is generated from Pi_n by existential quantifiers and the
    positive connectives, dually for Pi_{n+1}; Sigma_0 = Pi_0 = Delta0.
    Bounded quantifiers preserve Delta0; outside Delta0 they classify like
    their unbounded counterparts.  Each class contains the one below, so
    membership compares n with the least level the formula got at
    construction (see `Formula`).  Delta0 ignores n; a non-formula lies in
    no class, and only level 0 may be asked of it.
    """
    if kind == DELTA0:
        return isinstance(phi, Formula) and not phi.sigma
    if kind not in (SIGMA, PI):
        raise ValueError(f"unknown class kind {kind!r}")
    if n < 0:
        raise ValueError("negative level")
    if not isinstance(phi, Formula):
        if n:
            raise TypeError(f"not a formula: {phi!r}")
        return False
    return (phi.sigma if kind == SIGMA else phi.pi) <= n


# --- parsing ----------------------------------------------------------------

def ident_var(atom) -> Var:
    if atom.__class__ is not str:
        raise ParseError(f"expected a variable, got {sexpr.excerpt(atom)}")
    if not _IDENT_RE.match(atom):
        raise ParseError(f"bad variable name {atom[:80]!r}")
    return Var(atom)


def term_from_sexpr(value, memo: dict = None) -> Term:
    return _from_sexpr(value, False, memo)


def formula_from_sexpr(value, memo: dict = None) -> Formula:
    return _from_sexpr(value, True, memo)


# formula head -> (constructor, length of the list, kinds of its arguments:
# "v" variable, "t" term, "f" formula)
_FORMULA_FORMS = {
    "eq": (Eq, 3, "tt"), "neq": (Neq, 3, "tt"), "le": (Le, 3, "tt"),
    "nle": (NLe, 3, "tt"), "and": (And, 3, "ff"), "or": (Or, 3, "ff"),
    "all": (All, 3, "vf"), "ex": (Ex, 3, "vf"),
    "all<=": (AllLe, 4, "vtf"), "ex<=": (ExLe, 4, "vtf"),
    "imp": (impl, 3, "ff"), "iff": (iff, 3, "ff"), "not": (negate, 2, "f"),
}


def _from_sexpr(value, formula: bool, memo: dict = None):
    """Term or formula of an s-expression value, with an explicit stack.

    Lists are checked in preorder, left to right, so the first error raised
    is the one a recursive descent would raise; nodes are built in postorder
    on `out`.  A task is (is_formula, value) to read, or (None, constructor,
    argument count, successors to wrap the result in, memo table, id of the
    value) to build.  A term's (s ...) lists and the Chain they end in, if
    any, become one successor chain.  memo is a document's memo (see the
    module docstring); without one, a memo lives for this call only.
    """
    if memo is None:
        memo = {}
    formulas = memo.setdefault("formula", {})
    terms = memo.setdefault("term", {})
    node = (formulas if formula else terms).get(id(value))
    if node is not None:
        return node
    out: list = []
    todo: list = [(formula, value)]
    while todo:
        task = todo.pop()
        kind = task[0]
        if kind is None:
            _, make, n, k, seen, key = task
            args = out[-n:]
            del out[-n:]
            try:
                node = make(*args)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
            node = seen[key] = _succs(node, k)
            out.append(node)
            continue
        v = task[1]
        if kind:
            if v.__class__ is str:
                if v == "top":
                    out.append(TOP)
                elif v == "bot":
                    out.append(BOT)
                else:
                    raise ParseError(f"bad formula {v[:80]!r}")
                continue
            node = formulas.get(id(v))
            if node is not None:
                out.append(node)
                continue
            if v == []:
                raise ParseError("empty formula")
            head = v[0] if isinstance(v, list) else None    # else a Chain or text
            form = _FORMULA_FORMS.get(head) if isinstance(head, str) else None
            if form is None or len(v) != form[1]:
                raise ParseError(f"bad formula {sexpr.excerpt(v)}")
            make, _, args = form
            todo.append((None, make, len(args), 0, formulas, id(v)))
            for i in range(len(args), 0, -1):
                if args[i - 1] != "v":
                    todo.append((args[i - 1] == "f", v[i]))
            if args[0] == "v":
                out.append(ident_var(v[1]))
            continue
        key = id(v)
        k = 0       # successors around the term, read as one chain
        node = terms.get(key)
        if node is not None:
            out.append(node)
            continue
        while isinstance(v, list) and len(v) == 2 and v[0] == "s":
            v, k = v[1], k + 1
        if v.__class__ is Chain:
            v, k = v.base, k + v.depth
        if isinstance(v, str):
            node = terms[key] = _succs(ZERO if v == "0" else V(ident_var(v)), k)
            out.append(node)
            continue
        if not v:
            raise ParseError("empty term")
        head = v[0]
        if len(v) != 3 or not (head == "add" or head == "mul"):
            raise ParseError(f"bad term {sexpr.excerpt(v)}")
        todo += ((None, Add if head == "add" else Mul, 2, k, terms, key),
                 (False, v[2]), (False, v[1]))
    return out[0]


def parse_term(text: str) -> Term:
    return term_from_sexpr(sexpr.parse(text))


def parse_formula(text: str) -> Formula:
    return formula_from_sexpr(sexpr.parse(text))
