"""Reference interpreter for bounded evaluation: the test oracle.

A direct AST walk with no compilation, folding or memoisation. The
compiled evaluator in cyclarith.semantics must agree with it on every
formula, assignment and cutoff.
"""

from cyclarith import (Add, All, AllLe, And, Eq, Ex, ExLe, Le, Mul, NLe, Neq,
                       Or, Succ, TV, V, Zero)


def t_and(a, b):
    if a is TV.FALSE or b is TV.FALSE:
        return TV.FALSE
    if a is TV.TRUE and b is TV.TRUE:
        return TV.TRUE
    return TV.UNKNOWN


def t_or(a, b):
    if a is TV.TRUE or b is TV.TRUE:
        return TV.TRUE
    if a is TV.FALSE and b is TV.FALSE:
        return TV.FALSE
    return TV.UNKNOWN


def eval_term(t, env):
    match t:
        case Zero():
            return 0
        case V(v):
            return env.get(v, 0)
        case Succ(a):
            return eval_term(a, env) + 1
        case Add(a, b):
            return eval_term(a, env) + eval_term(b, env)
        case Mul(a, b):
            return eval_term(a, env) * eval_term(b, env)
    raise TypeError(f"not a term: {t!r}")


def eval_formula(phi, env, cutoff):
    match phi:
        case Eq(l, r):
            return TV.TRUE if eval_term(l, env) == eval_term(r, env) else TV.FALSE
        case Neq(l, r):
            return TV.TRUE if eval_term(l, env) != eval_term(r, env) else TV.FALSE
        case Le(l, r):
            return TV.TRUE if eval_term(l, env) <= eval_term(r, env) else TV.FALSE
        case NLe(l, r):
            return TV.TRUE if eval_term(l, env) > eval_term(r, env) else TV.FALSE
        case And(l, r):
            a = eval_formula(l, env, cutoff)
            if a is TV.FALSE:
                return TV.FALSE
            return t_and(a, eval_formula(r, env, cutoff))
        case Or(l, r):
            a = eval_formula(l, env, cutoff)
            if a is TV.TRUE:
                return TV.TRUE
            return t_or(a, eval_formula(r, env, cutoff))
        case AllLe(x, t, b):
            out = TV.TRUE
            saved = env.get(x)
            for w in range(eval_term(t, env) + 1):
                env[x] = w
                out = t_and(out, eval_formula(b, env, cutoff))
                if out is TV.FALSE:
                    break
            _restore(env, x, saved)
            return out
        case ExLe(x, t, b):
            out = TV.FALSE
            saved = env.get(x)
            for w in range(eval_term(t, env) + 1):
                env[x] = w
                out = t_or(out, eval_formula(b, env, cutoff))
                if out is TV.TRUE:
                    break
            _restore(env, x, saved)
            return out
        case All(x, b):
            saved = env.get(x)
            out = TV.UNKNOWN
            for w in range(cutoff + 1):
                env[x] = w
                if eval_formula(b, env, cutoff) is TV.FALSE:
                    out = TV.FALSE
                    break
            _restore(env, x, saved)
            return out
        case Ex(x, b):
            saved = env.get(x)
            out = TV.UNKNOWN
            for w in range(cutoff + 1):
                env[x] = w
                if eval_formula(b, env, cutoff) is TV.TRUE:
                    out = TV.TRUE
                    break
            _restore(env, x, saved)
            return out
    raise TypeError(f"not a formula: {phi!r}")


def _restore(env, x, saved):
    if saved is None:
        env.pop(x, None)
    else:
        env[x] = saved


def sequent_truth(formulas, env, cutoff):
    """Disjunctive reading; the empty sequent is FALSE."""
    out = TV.FALSE
    for phi in formulas:
        out = t_or(out, eval_formula(phi, env, cutoff))
        if out is TV.TRUE:
            return out
    return out
