"""The original recursive syntax walks, kept as a test oracle.

`cyclarith.syntax.negate` walks an explicit stack and memoises each dual on
its formula; `desugar` skips subformulas without sugar; `is_in` and
`classify` compare the levels a formula gets at construction; `substitute`
rebuilds on an explicit stack.  These are the plain recursive walks they
replaced, with no memo, no sugar test and no stored levels.  Tests compare
the two: on hash-consed syntax both must return the same node, so the same
rendering and the same fresh `$k` names, the same classification and the
same capture error.  They recurse once per connective, so keep their inputs
shallow.
"""

import itertools

from cyclarith import (DELTA0, PI, SIGMA, Add, All, AllLe, And, CaptureError,
                       Eq, Ex, ExLe, Formula, Le, Mul, NLe, Neq, Or, Succ, V)
from cyclarith.derived import fresh_for
from cyclarith.syntax import _succs


def negate(phi):
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


def desugar(phi):
    return _desugar(phi, fresh_for(phi))


def _le_core(left, right, fv):
    z = fv.take()
    return Ex(z, Eq(Add(V(z), left), right))


def _nle_core(left, right, fv):
    z = fv.take()
    return All(z, Neq(Add(V(z), left), right))


def _desugar(phi, fv):
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


def subst_term(t, x, s):
    if x not in t.fv:
        return t
    match t:
        case V(v):
            return s if v == x else t
        case Succ():
            return _succs(subst_term(t.base, x, s), t.depth)
        case Add(a, b):
            return Add(subst_term(a, x, s), subst_term(b, x, s))
        case Mul(a, b):
            return Mul(subst_term(a, x, s), subst_term(b, x, s))
    return t


def _capture(x, s, y):
    if y in s.av:
        raise CaptureError(f"substituting {s.sx} for {x.name} captures {y.name}")


def substitute(phi, x, s):
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
            _capture(x, s, y)
            return All(y, substitute(b, x, s))
        case Ex(y, b):
            _capture(x, s, y)
            return Ex(y, substitute(b, x, s))
        case AllLe(y, t, b):
            _capture(x, s, y)
            return AllLe(y, subst_term(t, x, s), substitute(b, x, s))
        case ExLe(y, t, b):
            _capture(x, s, y)
            return ExLe(y, subst_term(t, x, s), substitute(b, x, s))
    raise TypeError(f"not a formula: {phi!r}")


def _is_delta0(phi):
    match phi:
        case Eq() | Neq() | Le() | NLe():
            return True
        case And(l, r) | Or(l, r):
            return _is_delta0(l) and _is_delta0(r)
        case AllLe(_, _, b) | ExLe(_, _, b):
            return _is_delta0(b)
    return False


def is_in(phi, kind, n=0):
    if kind == DELTA0:
        return _is_delta0(phi)
    if kind not in (SIGMA, PI):
        raise ValueError(f"unknown class kind {kind!r}")
    if n < 0:
        raise ValueError("negative level")
    if n == 0:
        return _is_delta0(phi)
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    return _is_in(phi, kind, n)


def _is_in(phi, kind, n):
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


def classify(phi):
    for n in itertools.count():
        if is_in(phi, SIGMA, n):
            return (DELTA0, 0) if n == 0 else (SIGMA, n)
        if is_in(phi, PI, n):
            return (PI, n)
