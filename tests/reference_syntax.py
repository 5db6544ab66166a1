"""The original recursive `negate` and `desugar`, kept as a test oracle.

`cyclarith.syntax.negate` walks an explicit stack and memoises each dual on
its formula; `desugar` skips subformulas without sugar.  These are the plain
recursive walks they replaced, with no memo and no sugar test.  Tests
compare the two: on hash-consed syntax both must return the same node, so
the same rendering and the same fresh `$k` names.  They recurse once per
connective, so keep their inputs shallow.
"""

from cyclarith import (Add, All, AllLe, And, Eq, Ex, ExLe, Le, NLe, Neq, Or,
                       V)
from cyclarith.derived import fresh_for


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
