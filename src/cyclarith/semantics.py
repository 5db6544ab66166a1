"""Bounded evaluation over the standard model, three-valued.

Assignments are total: unmapped variables read as 0.  Unbounded quantifiers
are only scanned up to a cutoff, so their value may be UNKNOWN: an
existential is TRUE once a witness at or below the cutoff shows up and never
FALSE; a universal is FALSE once a counterexample shows up and never TRUE.
Bounded quantifiers and atoms are exact, so anything classified Delta0 gets
a decisive answer.  Connectives follow strong Kleene tables.

A formula is evaluated in two steps: it is compiled once into nested
closures (closure code generation, Feeley & Lapalme 1987), which are then
run on the assignment.  Compilation

- folds every closed term, numerals included, into an int constant; terms
  are evaluated with an explicit stack and successor chains with a loop, and
  an open term becomes nested closures for its first `CLOSURE_DEPTH`
  `add`/`mul` levels only, with the iterative evaluator below them, so term
  depth costs no recursion;
- turns each connective into a strong-Kleene closure that short-circuits;
- gives each node its range: the values it can take under any assignment
  and any cutoff >= 0, an over-approximation over the subsets of {TRUE,
  FALSE, UNKNOWN} (abstract interpretation, Cousot & Cousot 1977).  An open
  atom ranges over {TRUE, FALSE}, a closed one is its value; `and` and `or`
  range over their Kleene table applied to every pair of operand values; an
  unbounded `all` can be FALSE if its body can, and UNKNOWN if its body can
  be TRUE or UNKNOWN (dually for `ex`), since its scan meets at least w = 0;
  a bounded quantifier has its body's range, since its bound is at least 0.
  A node whose range is one value compiles to a constant: on the grid,
  `all x (ex y ...)` is UNKNOWN everywhere and is never scanned;
- memoises every quantifier node that does not fold (Michie 1968).  Its
  value is a pure function of the cutoff and of the values of its free
  variables, so it is cached under the key
  `tuple(env.get(v, 0) for v in sorted(phi.fv))`.

Compiled closures, memos included, live in a compile table: a dict from
(formula, cutoff) to the closure and its range.  A caller that evaluates
many formulas or grid points passes one table to every `eval_formula` /
`sequent_truth` call of its loop, so that shared subformulas are compiled
and memoised once; a call without a table makes its own.  Nothing else is
cached, so no memo outlives the table of the call that created it.
"""

from __future__ import annotations

import enum
import itertools
import operator
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, Optional,
                    Sequence, Tuple)

from .syntax import (Add, All, AllLe, And, Eq, Ex, ExLe, Formula, Le, Mul,
                     Neq, NLe, Or, Succ, Term, V, Var, Zero)

DEFAULT_CUTOFF = 8
DEFAULT_VALUE_BOUND = 3


class TV(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __str__(self):
        return self.value


TRUE, FALSE, UNKNOWN = TV.TRUE, TV.FALSE, TV.UNKNOWN

# Compiled code reads a private assignment keyed by variable name.
Env = Dict[str, int]
Code = Callable[[Env], TV]
Entry = Tuple[Code, FrozenSet[TV]]
Table = Dict[tuple, Entry]


def eval_term(t: Term, env: Dict[Var, int]) -> int:
    """Value of t; unmapped variables read as 0.  Iterative in term depth."""
    values = []
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is tuple:          # (operator, successors above it)
            op, k = t
            right = values.pop()
            values.append(op(values.pop(), right) + k)
            continue
        k = 0
        if isinstance(t, Succ):
            t, k = t.base, t.depth
        if isinstance(t, Zero):
            values.append(k)
        elif isinstance(t, V):
            values.append(env.get(t.var, 0) + k)
        elif isinstance(t, (Add, Mul)):
            todo += [(operator.add if isinstance(t, Add) else operator.mul, k),
                     t.right, t.left]
        else:
            raise TypeError(f"not a term: {t!r}")
    return values[0]


# Levels of an open term compiled into nested closures; below this depth a
# closure runs `eval_term`, so a deep term costs no recursion.
CLOSURE_DEPTH = 100


def _term_code(t: Term, depth: int = 0) -> Callable[[Env], int]:
    """Closure computing t; a closed term is folded to its value."""
    if not t.fv:
        value = eval_term(t, {})
        return lambda e: value
    if depth == CLOSURE_DEPTH:
        names = [(v, v.name) for v in t.fv]
        return lambda e: eval_term(t, {v: e.get(name, 0) for v, name in names})
    k = 0
    if isinstance(t, Succ):
        t, k = t.base, t.depth
    if isinstance(t, V):
        name = t.var.name
        return lambda e: e.get(name, 0) + k
    left, right = _term_code(t.left, depth + 1), _term_code(t.right, depth + 1)
    if isinstance(t, Add):
        return lambda e: left(e) + right(e) + k
    if isinstance(t, Mul):
        return lambda e: left(e) * right(e) + k
    raise TypeError(f"not a term: {t!r}")


_COMPARE = {Eq: operator.eq, Neq: operator.ne, Le: operator.le, NLe: operator.gt}


def _compile(phi: Formula, cutoff: int, table: Table) -> Entry:
    """The closure for phi at this cutoff and its range, the values it can
    take; compiled into the table once."""
    entry = table.get((phi, cutoff))
    if entry is not None:
        return entry
    kind = type(phi)
    if kind in _COMPARE:
        test = _COMPARE[kind]
        left, right = _term_code(phi.left), _term_code(phi.right)
        code = lambda e: TRUE if test(left(e), right(e)) else FALSE
        values = frozenset([code({})]) if not phi.fv else _DECIDED
    elif kind in (And, Or):
        left, lvalues = _compile(phi.left, cutoff, table)
        right, rvalues = _compile(phi.right, cutoff, table)
        code = (_and if kind is And else _or)(left, right)
        values = _RANGE_OF[kind][lvalues, rvalues]
    elif kind in (All, Ex, AllLe, ExLe):
        body, values = _compile(phi.body, cutoff, table)
        stop = FALSE if kind in (All, AllLe) else TRUE
        if kind in (All, Ex):
            # every scan meets w = 0, so it sees at least one body value
            values = _RANGE_OF[kind][values]
            code = _memo(_scan(phi.var.name, lambda e: cutoff, body, stop,
                               UNKNOWN), phi)
        else:
            start = TRUE if kind is AllLe else FALSE
            code = _memo(_scan(phi.var.name, _term_code(phi.bound), body, stop,
                               start), phi)
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if len(values) == 1:
        code = _CONSTANT[next(iter(values))]
    entry = table[(phi, cutoff)] = code, values
    return entry


def _and(left: Code, right: Code) -> Code:
    def code(e):
        a = left(e)
        if a is FALSE:
            return FALSE
        b = right(e)
        if b is FALSE:
            return FALSE
        return TRUE if a is TRUE and b is TRUE else UNKNOWN
    return code


def _or(left: Code, right: Code) -> Code:
    def code(e):
        a = left(e)
        if a is TRUE:
            return TRUE
        b = right(e)
        if b is TRUE:
            return TRUE
        return FALSE if a is FALSE and b is FALSE else UNKNOWN
    return code


def _constant(value: TV) -> Code:
    return lambda e: value


# The code of every node whose range is one value.
_CONSTANT = {value: _constant(value) for value in TV}
# Every range: a non-empty set of values.
_RANGES = [frozenset(values) for n in (1, 2, 3)
           for values in itertools.combinations(TV, n)]
_DECIDED = frozenset([TRUE, FALSE])

# An unbounded quantifier's value given one body value: a counterexample
# decides `all` and a witness decides `ex`; any other value leaves it open.
_UNBOUNDED = {All: {TRUE: UNKNOWN, FALSE: FALSE, UNKNOWN: UNKNOWN},
              Ex: {TRUE: TRUE, FALSE: UNKNOWN, UNKNOWN: UNKNOWN}}

# The range of a connective given its operands' ranges, read off the
# connective's own code run on every pair of operand values, and of an
# unbounded quantifier given its body's range.
_RANGE_OF = {
    kind: {(left, right): frozenset(connective(_CONSTANT[a], _CONSTANT[b])({})
                                    for a in left for b in right)
           for left in _RANGES for right in _RANGES}
    for kind, connective in ((And, _and), (Or, _or))}
_RANGE_OF.update(
    (kind, {body: frozenset(step[value] for value in body) for body in _RANGES})
    for kind, step in _UNBOUNDED.items())


def _scan(name: str, limit: Callable[[Env], int], body: Code, stop: TV,
          start: TV) -> Code:
    """Quantifier over name = 0..limit: `stop` decides it at once; otherwise
    the result is `start`, or UNKNOWN once the body was UNKNOWN somewhere."""
    def code(e):
        saved = e.get(name, 0)
        out = start
        for w in range(limit(e) + 1):
            e[name] = w
            value = body(e)
            if value is stop:
                out = stop
                break
            if value is UNKNOWN:
                out = UNKNOWN
        e[name] = saved
        return out
    return code


def _memo(run: Code, phi: Formula) -> Code:
    names = [v.name for v in sorted(phi.fv)]
    cache: Dict[tuple, TV] = {}

    def code(e):
        key = tuple([e.get(n, 0) for n in names])
        value = cache.get(key)
        if value is None:
            value = cache[key] = run(e)
        return value
    return code


def eval_formula(phi: Formula, env: Dict[Var, int], cutoff: int,
                 table: Optional[Table] = None) -> TV:
    """Three-valued value of phi; pass one table to share compiled code.

    A negative cutoff raises ValueError at the call: an unbounded scan over
    no witness at all would answer UNKNOWN without having looked."""
    if cutoff < 0:
        raise ValueError(f"negative cutoff {cutoff}")
    code, _ = _compile(phi, cutoff, {} if table is None else table)
    return code({v.name: value for v, value in env.items()})


def sequent_truth(formulas: Iterable[Formula], env: Dict[Var, int],
                  cutoff: int, table: Optional[Table] = None) -> TV:
    """Disjunctive reading; the empty sequent is FALSE."""
    if table is None:
        table = {}
    out = FALSE
    for phi in formulas:
        value = eval_formula(phi, env, cutoff, table)
        if value is TRUE:
            return TRUE
        if value is UNKNOWN:
            out = UNKNOWN
    return out


def all_assignments(variables: Sequence[Var],
                    bound: int) -> Iterator[Dict[Var, int]]:
    """Every assignment of the given variables into {0..bound}.

    A negative bound raises ValueError at the call: it would give no
    assignment at all, and a check over none holds vacuously."""
    if bound < 0:
        raise ValueError(f"negative value bound {bound}")
    variables = list(variables)
    return (dict(zip(variables, values))
            for values in itertools.product(range(bound + 1), repeat=len(variables)))
