"""Record schemas: the validation report, the induction certificate and the
regular proof graph are each declared once, as a template shaped like the
record (README, File formats), which drives both rendering and reading.  A
record reads and writes the records nested in it through its slots, so it
recurses only as deep as its template.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, NamedTuple

from . import sexpr
from .calculus import (READ_ARG, RENDER_ARG, node_sequent_from_sexpr,
                       node_sequent_to_sexpr_str, rule_from_sexpr, rule_to_sexpr_str)
from .syntax import ParseError

ONE, OPTIONAL, MANY = "", "?", "*"


def _reader(cls, ok, convert):
    def read(value, memo):
        if value.__class__ is not cls or not ok(value):
            raise ValueError(f"bad field {sexpr.excerpt(value)}")
        return convert(value)
    return read


# Each kind's reader and writer; a node sequent (a) is a sequent-annotation pair.
_KINDS = {**{k: (READ_ARG[k], RENDER_ARG[k]) for k in READ_ARG},
          "n": (_reader(str, re.compile(r"(?:0|[1-9][0-9]*)\Z").match, int), str),
          "q": (_reader(sexpr.QuotedString, lambda v: True, str),
                lambda s: sexpr.render(sexpr.QuotedString(s))),
          "r": (rule_from_sexpr, rule_to_sexpr_str),
          "a": (node_sequent_from_sexpr, lambda pair: node_sequent_to_sexpr_str(*pair))}


def fields_of(cls, names: str):
    """The builder and parts of a record whose fields, in order, are the
    attributes names lists of a class built by keyword."""
    names = names.split()
    get = attrgetter(*names)
    return (lambda *values: cls(**dict(zip(names, values))),
            get if len(names) > 1 else lambda obj: (get(obj),))


class Slot(NamedTuple):
    """One place of a record's template."""
    count: str          # ONE, OPTIONAL or MANY
    width: int          # how many of the record's fields one occurrence fills
    matches: Callable   # item -> whether the item can fill this slot
    read: Callable      # item, memo -> the list of fields it fills
    write: Callable     # an iterator -> the text of the fields it takes from it
    name: str


class Record:
    """A record compiled from its template; `sets`, `types` and `invariants`
    are as README's File formats describes them."""

    def __init__(self, template, sets=None, types=None, invariants=()):
        if isinstance(template, str):
            template = sexpr.parse(template)
        head = template[0].rstrip(MANY)
        self.head, self.count = None if head == "_" else head, template[0][len(head):]
        self.build, self.parts = (types or {}).get(head, (None, None))
        self.invariants = invariants
        self.slots = []
        for item in template[1:]:
            if isinstance(item, list):
                r = Record(item, sets, types)
                self.slots.append(Slot(r.count, r.width, r.matches, r.fields, r.text, r.head))
            elif isinstance(item, sexpr.QuotedString):      # an atom as it is
                a = item.rstrip(OPTIONAL)
                self.slots.append(Slot(item[len(a):], 0,
                                       lambda it, a=a: it == a,
                                       lambda it, memo: [], lambda values, a=a: a, a))
            else:
                name = item.rstrip(MANY)
                members = {str(v): v for v in (sets or {}).get(name, ())}
                read, render = _KINDS.get(name) or \
                    (_reader(str, members.__contains__, members.get), str)
                self.slots.append(Slot(item[len(name):], 1, lambda it: True,
                                       lambda it, memo, read=read: [read(it, memo)],
                                       lambda values, render=render: render(next(values)),
                                       name))
        self.width = 1 if self.build else sum(
            slot.width if slot.count == ONE else 1 for slot in self.slots)

    def parse(self, text: str):
        """The record of text."""
        return self.read(sexpr.parse(text))

    def read(self, value):
        """The record of value; a ParseError names the entry at fault."""
        if not self.matches(value):
            raise ParseError(f"expected ({self.head} ...)")
        return self.fields(value, {}, top=True)[0]

    def matches(self, item) -> bool:
        return isinstance(item, list) and (
            self.head is None or len(item) > 0 and item[0] == self.head)

    def fields(self, item, memo, top=False) -> list:
        """The fields item gives the record around it."""
        got, pos, n = [], 0 if self.head is None else 1, len(item)
        try:
            for slot in self.slots:
                if slot.count == ONE:
                    if pos == n or not slot.matches(item[pos]):
                        raise ValueError(f"{self.head} lacks a {slot.name}")
                    got += slot.read(item[pos], memo)
                    pos += 1
                    continue
                each = []   # a repeated record gives its only field or their tuple
                while pos < n and (slot.count == MANY or not each) \
                        and slot.matches(item[pos]):
                    fs = slot.read(item[pos], memo)
                    each.append(fs[0] if len(fs) == 1 else tuple(fs))
                    pos += 1
                got.append(tuple(each) if slot.count == MANY else bool(each))
            if pos < n:
                raise ValueError(f"unexpected field of {self.head}")
            if self.build:
                got = [self.build(*got)]
                for message, holds in self.invariants:
                    if not holds(got[0]):
                        raise ValueError(message)
        except ValueError as exc:
            if not top:
                raise
            raise ParseError(str(exc) if pos == n else     # else name the entry at fault
                             f"bad {self.head} entry {sexpr.excerpt(item[pos])}") from None
        return got

    def render(self, obj) -> str:
        """The text of obj, one entry a line."""
        return self.text(iter((obj,)), "\n  ")

    def text(self, values, sep: str = " ") -> str:
        """The text of the fields this record takes from values."""
        if self.build:
            values = iter(self.parts(next(values)))
        out = [self.head] if self.head else []
        for slot in self.slots:
            if slot.count == ONE:
                out.append(slot.write(values))
                continue
            value = next(values)
            for v in value if slot.count == MANY else (value,) if value else ():
                out.append(slot.write(iter(v if slot.width > 1 else (v,))))
        return "(" + sep.join(out) + ")"
