"""Terms and formulas of first-order arithmetic, in negation normal form.

The language has equations and disequations as dual atoms and no negation
connective: `negate` computes the dual formula syntactically.  The ordering
atom `(le t u)` and its dual `(nle t u)`, and the bounded quantifiers
`(all<= x t f)` / `(ex<= x t f)`, are sugar: `desugar` expands them into the
quantifier/equation core.

Every node caches its canonical s-expression string at construction; it
doubles as the hash key and as the sort key for sequent normalization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Union

from . import sexpr


class ParseError(Exception):
    pass


class CaptureError(Exception):
    """Substitution would move a variable of the replacement under a binder."""


RESERVED_PREFIX = "$"
_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$'.]*\Z")
_RESERVED_RE = re.compile(re.escape(RESERVED_PREFIX) + r"(\d+)\Z")


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


class _Syn:
    """Base for terms and formulas: identity is the canonical rendering."""

    __slots__ = ()
    sx: str

    def __eq__(self, other):
        return type(other) is type(self) and other.sx == self.sx

    def __hash__(self):
        return hash(self.sx)

    def __repr__(self):
        return self.sx


def _seal(obj, sx: str, fv: frozenset, av: frozenset):
    object.__setattr__(obj, "sx", sx)
    object.__setattr__(obj, "fv", fv)
    object.__setattr__(obj, "av", av)


_EMPTY = frozenset()


class Term(_Syn):
    __slots__ = ("sx", "fv", "av")


@dataclass(frozen=True, eq=False, repr=False)
class Zero(Term):
    def __post_init__(self):
        _seal(self, "0", _EMPTY, _EMPTY)


@dataclass(frozen=True, eq=False, repr=False)
class V(Term):
    var: Var

    def __post_init__(self):
        vs = frozenset((self.var,))
        _seal(self, self.var.name, vs, vs)


@dataclass(frozen=True, eq=False, repr=False)
class Succ(Term):
    arg: Term

    def __post_init__(self):
        _seal(self, f"(s {self.arg.sx})", self.arg.fv, self.arg.av)


@dataclass(frozen=True, eq=False, repr=False)
class Add(Term):
    left: Term
    right: Term

    def __post_init__(self):
        _seal(self, f"(add {self.left.sx} {self.right.sx})",
              self.left.fv | self.right.fv, self.left.av | self.right.av)


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Term):
    left: Term
    right: Term

    def __post_init__(self):
        _seal(self, f"(mul {self.left.sx} {self.right.sx})",
              self.left.fv | self.right.fv, self.left.av | self.right.av)


class Formula(_Syn):
    __slots__ = ("sx", "fv", "av")


@dataclass(frozen=True, eq=False, repr=False)
class Eq(Formula):
    left: Term
    right: Term

    def __post_init__(self):
        _seal(self, f"(eq {self.left.sx} {self.right.sx})",
              self.left.fv | self.right.fv, self.left.av | self.right.av)


@dataclass(frozen=True, eq=False, repr=False)
class Neq(Formula):
    left: Term
    right: Term

    def __post_init__(self):
        _seal(self, f"(neq {self.left.sx} {self.right.sx})",
              self.left.fv | self.right.fv, self.left.av | self.right.av)


@dataclass(frozen=True, eq=False, repr=False)
class Le(Formula):
    left: Term
    right: Term

    def __post_init__(self):
        _seal(self, f"(le {self.left.sx} {self.right.sx})",
              self.left.fv | self.right.fv, self.left.av | self.right.av)


@dataclass(frozen=True, eq=False, repr=False)
class NLe(Formula):
    """Dual of Le; keeps negate an involution on the sugared language."""

    left: Term
    right: Term

    def __post_init__(self):
        _seal(self, f"(nle {self.left.sx} {self.right.sx})",
              self.left.fv | self.right.fv, self.left.av | self.right.av)


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        _seal(self, f"(and {self.left.sx} {self.right.sx})",
              self.left.fv | self.right.fv, self.left.av | self.right.av)


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        _seal(self, f"(or {self.left.sx} {self.right.sx})",
              self.left.fv | self.right.fv, self.left.av | self.right.av)


@dataclass(frozen=True, eq=False, repr=False)
class All(Formula):
    var: Var
    body: Formula

    def __post_init__(self):
        _seal(self, f"(all {self.var.name} {self.body.sx})",
              self.body.fv - {self.var}, self.body.av | {self.var})


@dataclass(frozen=True, eq=False, repr=False)
class Ex(Formula):
    var: Var
    body: Formula

    def __post_init__(self):
        _seal(self, f"(ex {self.var.name} {self.body.sx})",
              self.body.fv - {self.var}, self.body.av | {self.var})


@dataclass(frozen=True, eq=False, repr=False)
class AllLe(Formula):
    """Bounded universal: the variable must not occur in the bound term."""

    var: Var
    bound: Term
    body: Formula

    def __post_init__(self):
        if self.var in self.bound.av:
            raise ValueError(f"bound term of all<= mentions {self.var.name}")
        _seal(self, f"(all<= {self.var.name} {self.bound.sx} {self.body.sx})",
              self.bound.fv | (self.body.fv - {self.var}),
              self.bound.av | self.body.av | {self.var})


@dataclass(frozen=True, eq=False, repr=False)
class ExLe(Formula):
    var: Var
    bound: Term
    body: Formula

    def __post_init__(self):
        if self.var in self.bound.av:
            raise ValueError(f"bound term of ex<= mentions {self.var.name}")
        _seal(self, f"(ex<= {self.var.name} {self.bound.sx} {self.body.sx})",
              self.bound.fv | (self.body.fv - {self.var}),
              self.bound.av | self.body.av | {self.var})


ZERO = Zero()
TOP = Eq(ZERO, ZERO)
BOT = Neq(ZERO, ZERO)


def numeral(k: int) -> Term:
    if k < 0:
        raise ValueError("numerals are non-negative")
    t: Term = ZERO
    for _ in range(k):
        t = Succ(t)
    return t


def free_vars(phi: Union[Term, Formula]) -> frozenset:
    return phi.fv


def all_vars(phi: Union[Term, Formula]) -> frozenset:
    return phi.av


def negate(phi: Formula) -> Formula:
    match phi:
        case Eq(l, r):
            return Neq(l, r)
        case Neq(l, r):
            return Eq(l, r)
        case Le(l, r):
            return NLe(l, r)
        case NLe(l, r):
            return Le(l, r)
        case And(l, r):
            return Or(negate(l), negate(r))
        case Or(l, r):
            return And(negate(l), negate(r))
        case All(x, b):
            return Ex(x, negate(b))
        case Ex(x, b):
            return All(x, negate(b))
        case AllLe(x, t, b):
            return ExLe(x, t, negate(b))
        case ExLe(x, t, b):
            return AllLe(x, t, negate(b))
    raise TypeError(f"not a formula: {phi!r}")


def impl(phi: Formula, psi: Formula) -> Formula:
    return Or(negate(phi), psi)


def iff(phi: Formula, psi: Formula) -> Formula:
    return And(impl(phi, psi), impl(psi, phi))


def subst_term(t: Term, x: Var, s: Term) -> Term:
    if x not in t.fv:
        return t
    match t:
        case V(v):
            return s if v == x else t
        case Succ(a):
            return Succ(subst_term(a, x, s))
        case Add(a, b):
            return Add(subst_term(a, x, s), subst_term(b, x, s))
        case Mul(a, b):
            return Mul(subst_term(a, x, s), subst_term(b, x, s))
    return t


def substitute(phi: Formula, x: Var, s: Term) -> Formula:
    """Replace free occurrences of x by s; raise CaptureError on capture."""
    if x not in phi.fv:
        return phi
    match phi:
        case Eq(l, r):
            return Eq(subst_term(l, x, s), subst_term(r, x, s))
        case Neq(l, r):
            return Neq(subst_term(l, x, s), subst_term(r, x, s))
        case Le(l, r):
            return Le(subst_term(l, x, s), subst_term(r, x, s))
        case NLe(l, r):
            return NLe(subst_term(l, x, s), subst_term(r, x, s))
        case And(l, r):
            return And(substitute(l, x, s), substitute(r, x, s))
        case Or(l, r):
            return Or(substitute(l, x, s), substitute(r, x, s))
        case All(y, b):
            if y in s.av:
                raise CaptureError(f"substituting {s.sx} for {x.name} captures {y.name}")
            return All(y, substitute(b, x, s))
        case Ex(y, b):
            if y in s.av:
                raise CaptureError(f"substituting {s.sx} for {x.name} captures {y.name}")
            return Ex(y, substitute(b, x, s))
        case AllLe(y, t, b):
            if y in s.av:
                raise CaptureError(f"substituting {s.sx} for {x.name} captures {y.name}")
            return AllLe(y, subst_term(t, x, s), substitute(b, x, s))
        case ExLe(y, t, b):
            if y in s.av:
                raise CaptureError(f"substituting {s.sx} for {x.name} captures {y.name}")
            return ExLe(y, subst_term(t, x, s), substitute(b, x, s))
    raise TypeError(f"not a formula: {phi!r}")


class FreshVars:
    """Deterministic fresh-name supply over the reserved `$k` namespace."""

    def __init__(self, avoid: Iterable[str] = ()):
        self._used = set(avoid)
        start = 0
        for name in self._used:
            m = _RESERVED_RE.match(name)
            if m:
                start = max(start, int(m.group(1)) + 1)
        self._next = start

    def take(self) -> Var:
        name = f"{RESERVED_PREFIX}{self._next}"
        self._next += 1
        self._used.add(name)
        return Var(name)


def fresh_for(*objs: Union[Term, Formula, Var]) -> FreshVars:
    names = set()
    for obj in objs:
        if isinstance(obj, Var):
            names.add(obj.name)
        else:
            names.update(v.name for v in obj.av)
    return FreshVars(names)


def desugar(phi: Formula) -> Formula:
    """Expand le/nle and the bounded quantifiers into the core language."""
    return _desugar(phi, fresh_for(phi))


def _le_core(left: Term, right: Term, fv: FreshVars) -> Formula:
    z = fv.take()
    return Ex(z, Eq(Add(V(z), left), right))


def _nle_core(left: Term, right: Term, fv: FreshVars) -> Formula:
    z = fv.take()
    return All(z, Neq(Add(V(z), left), right))


def _desugar(phi: Formula, fv: FreshVars) -> Formula:
    match phi:
        case Eq() | Neq():
            return phi
        case Le(l, r):
            return _le_core(l, r, fv)
        case NLe(l, r):
            return _nle_core(l, r, fv)
        case And(l, r):
            return And(_desugar(l, fv), _desugar(r, fv))
        case Or(l, r):
            return Or(_desugar(l, fv), _desugar(r, fv))
        case All(x, b):
            return All(x, _desugar(b, fv))
        case Ex(x, b):
            return Ex(x, _desugar(b, fv))
        case AllLe(x, t, b):
            return All(x, Or(_nle_core(V(x), t, fv), _desugar(b, fv)))
        case ExLe(x, t, b):
            return Ex(x, And(_le_core(V(x), t, fv), _desugar(b, fv)))
    raise TypeError(f"not a formula: {phi!r}")


# --- arithmetical hierarchy -------------------------------------------------

DELTA0 = "delta0"
SIGMA = "sigma"
PI = "pi"


@lru_cache(maxsize=None)
def _is_delta0(phi: Formula) -> bool:
    match phi:
        case Eq() | Neq() | Le() | NLe():
            return True
        case And(l, r) | Or(l, r):
            return _is_delta0(l) and _is_delta0(r)
        case AllLe(_, _, b) | ExLe(_, _, b):
            return _is_delta0(b)
        case _:
            return False


@lru_cache(maxsize=None)
def is_in(phi: Formula, kind: str, n: int = 0) -> bool:
    """Syntactic membership in Delta0 / Sigma_n / Pi_n.

    Sigma_{n+1} is generated from Pi_n by existential quantifiers and the
    positive connectives, dually for Pi_{n+1}; Sigma_0 = Pi_0 = Delta0.
    Bounded quantifiers preserve Delta0; outside Delta0 they classify like
    their unbounded counterparts.
    """
    if kind == DELTA0:
        return _is_delta0(phi)
    if kind not in (SIGMA, PI):
        raise ValueError(f"unknown class kind {kind!r}")
    if n < 0:
        raise ValueError("negative level")
    if n == 0:
        return _is_delta0(phi)
    match phi:
        case Eq() | Neq() | Le() | NLe():
            return True
        case And(l, r) | Or(l, r):
            return is_in(l, kind, n) and is_in(r, kind, n)
        case Ex(_, b):
            if kind == SIGMA:
                return is_in(b, SIGMA, n)
            return is_in(phi, SIGMA, n - 1)
        case All(_, b):
            if kind == PI:
                return is_in(b, PI, n)
            return is_in(phi, PI, n - 1)
        case ExLe(_, _, b):
            if _is_delta0(phi):
                return True
            if kind == SIGMA:
                return is_in(b, SIGMA, n)
            return is_in(phi, SIGMA, n - 1)
        case AllLe(_, _, b):
            if _is_delta0(phi):
                return True
            if kind == PI:
                return is_in(b, PI, n)
            return is_in(phi, PI, n - 1)
    raise TypeError(f"not a formula: {phi!r}")


def _quantifier_depth(phi: Formula) -> int:
    match phi:
        case Eq() | Neq() | Le() | NLe():
            return 0
        case And(l, r) | Or(l, r):
            return max(_quantifier_depth(l), _quantifier_depth(r))
        case All(_, b) | Ex(_, b) | AllLe(_, _, b) | ExLe(_, _, b):
            return 1 + _quantifier_depth(b)
    raise TypeError(f"not a formula: {phi!r}")


def classify(phi: Formula) -> tuple:
    """Minimal (kind, level); reports ("sigma", n) on a Sigma/Pi tie."""
    limit = _quantifier_depth(phi) + 1
    for n in range(limit + 1):
        s = is_in(phi, SIGMA, n)
        p = is_in(phi, PI, n)
        if n == 0 and (s or p):
            return (DELTA0, 0)
        if s:
            return (SIGMA, n)
        if p:
            return (PI, n)
    raise AssertionError(f"unclassifiable formula {phi.sx}")


# --- parsing ----------------------------------------------------------------

def ident_var(atom) -> Var:
    if not isinstance(atom, str) or isinstance(atom, list):
        raise ParseError(f"expected a variable, got {sexpr.render(atom)}")
    if atom == "0" or not _IDENT_RE.match(atom):
        raise ParseError(f"bad variable name {atom!r}")
    return Var(atom)


def term_from_sexpr(value) -> Term:
    if isinstance(value, str):
        if value == "0":
            return ZERO
        return V(ident_var(value))
    if not value:
        raise ParseError("empty term")
    head = value[0]
    if head == "s" and len(value) == 2:
        return Succ(term_from_sexpr(value[1]))
    if head == "add" and len(value) == 3:
        return Add(term_from_sexpr(value[1]), term_from_sexpr(value[2]))
    if head == "mul" and len(value) == 3:
        return Mul(term_from_sexpr(value[1]), term_from_sexpr(value[2]))
    raise ParseError(f"bad term {sexpr.render(value)}")


def formula_from_sexpr(value) -> Formula:
    if isinstance(value, str):
        if value == "top":
            return TOP
        if value == "bot":
            return BOT
        raise ParseError(f"bad formula {value!r}")
    if not value:
        raise ParseError("empty formula")
    head = value[0]
    n = len(value)
    try:
        if head == "eq" and n == 3:
            return Eq(term_from_sexpr(value[1]), term_from_sexpr(value[2]))
        if head == "neq" and n == 3:
            return Neq(term_from_sexpr(value[1]), term_from_sexpr(value[2]))
        if head == "le" and n == 3:
            return Le(term_from_sexpr(value[1]), term_from_sexpr(value[2]))
        if head == "nle" and n == 3:
            return NLe(term_from_sexpr(value[1]), term_from_sexpr(value[2]))
        if head == "and" and n == 3:
            return And(formula_from_sexpr(value[1]), formula_from_sexpr(value[2]))
        if head == "or" and n == 3:
            return Or(formula_from_sexpr(value[1]), formula_from_sexpr(value[2]))
        if head == "all" and n == 3:
            return All(ident_var(value[1]), formula_from_sexpr(value[2]))
        if head == "ex" and n == 3:
            return Ex(ident_var(value[1]), formula_from_sexpr(value[2]))
        if head == "all<=" and n == 4:
            return AllLe(ident_var(value[1]), term_from_sexpr(value[2]),
                         formula_from_sexpr(value[3]))
        if head == "ex<=" and n == 4:
            return ExLe(ident_var(value[1]), term_from_sexpr(value[2]),
                        formula_from_sexpr(value[3]))
        if head == "imp" and n == 3:
            return impl(formula_from_sexpr(value[1]), formula_from_sexpr(value[2]))
        if head == "iff" and n == 3:
            return iff(formula_from_sexpr(value[1]), formula_from_sexpr(value[2]))
        if head == "not" and n == 2:
            return negate(formula_from_sexpr(value[1]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"bad formula {sexpr.render(value)}")


def parse_term(text: str) -> Term:
    try:
        return term_from_sexpr(sexpr.parse(text))
    except sexpr.SexprError as exc:
        raise ParseError(str(exc)) from exc


def parse_formula(text: str) -> Formula:
    try:
        return formula_from_sexpr(sexpr.parse(text))
    except sexpr.SexprError as exc:
        raise ParseError(str(exc)) from exc


def render_term(t: Term) -> str:
    return t.sx


def render_formula(phi: Formula) -> str:
    return phi.sx
