"""Minimal s-expression reader and writer.

Values are nested Python lists whose leaves are atom strings.  Double-quoted
strings are supported for free-text payloads (violation messages); they parse
to a `QuotedString` so that atoms and strings round-trip unambiguously.

The reader splits the text into tokens with one regular expression and
builds the lists in a single loop with an explicit stack, so its time is
linear in the input and nesting depth costs no recursion.  `;` starts a
comment that runs to the end of the line.

With `share=True` the reader makes equal lists one object: each list, when
it closes, is looked up in a table of the lists read so far, keyed by the
tuple of its items, and a list read before is used in its place.  Items that
are lists hash by identity, so the key costs one tuple per list, and as the
lists below were shared first, equal keys mean equal lists.  The proof and
graph readers use it, so that their converters can memoise on identity.  A
shared value must never be mutated: every place it occurs would change with
it.  A quoted string equals the atom with its text, so the first quoted
string ends sharing for the rest of the read; documents read with sharing
hold none.  The table dies with the read.

A shared read also takes a whole list nested at most `BLOCK_DEPTH` deep that
holds no `"` and no `;` as one block token.  Inside a block every other
character is whitespace or part of an atom, so the block's own tokens are
the ones the plain tokeniser would give.  A per-read memo maps each block's
text to its list: a block seen before costs one dict lookup, and a new one
is read from its inner text, its own blocks through the same memo, and then
looked up in the table of shared lists, so equal lists spaced differently
are still one object.  Proof files repeat each node's sequent in its
premises, so most of their lists are blocks met before.  Blocks never hold
quoted strings, so they stay shared after a quoted string has ended the
sharing of other lists.  The possessive quantifiers of the block pattern
keep a failed attempt on a deeper list from backtracking; that needs
Python 3.11.
"""

from __future__ import annotations

import re
from operator import length_hint


class SexprError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class QuotedString(str):
    """Atom that renders with double quotes."""


class _Shared(list):
    """List made by a shared read; hashed by identity, so that a tuple of a
    list's items can be a key of the table of shared lists."""

    __slots__ = ()
    __hash__ = object.__hash__


# One alternative per token kind; every character of the input either starts a
# token or is whitespace (" \t\r\n"), which no alternative matches.  A lone
# '"' is a string that never closes.
_TOKEN = re.compile(r'[()]|"[^"\\]*(?:\\.[^"\\]*)*"|"|;[^\n]*|[^()" \t\r\n;][^()" \t\r\n]*',
                    re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)

# A list nested at most BLOCK_DEPTH deep with no '"' and no ';' in it, tried
# first by the shared reader's tokeniser.
BLOCK_DEPTH = 8
_BLOCK = r'\([^()";]*+\)'
for _ in range(BLOCK_DEPTH - 1):
    _BLOCK = rf'\([^()";]*+(?:{_BLOCK}[^()";]*+)*+\)'
_SHARED_TOKEN = re.compile(_BLOCK + "|" + _TOKEN.pattern, re.S)


class _Blocks(dict):
    """Block text -> its list, for one shared read.  A block met for the
    first time is read from its inner text, its own blocks through this
    memo, and then goes through `shared`, the read's table of lists."""

    def __init__(self, shared: dict):
        super().__init__()
        self.shared = shared

    def __missing__(self, text: str) -> _Shared:
        items = _Shared(self[t] if t[0] == "(" else t
                        for t in _SHARED_TOKEN.findall(text, 1, len(text) - 1))
        items = self[text] = self.shared.setdefault(tuple(items), items)
        return items


def _error(message: str, text: str, token: re.Pattern, tokens: list,
           rest) -> SexprError:
    """The error at the token just taken from `rest`, an iterator over
    `tokens`, which `token` split text into; the offset is found by scanning
    again, on the error path only."""
    k = len(tokens) - length_hint(rest) - 1
    for i, m in enumerate(token.finditer(text)):
        if i == k:
            return SexprError(message, m.start())
    return SexprError(message, len(text))


def _read(text: str, once: bool, share: bool = False):
    """The values of text, in one pass over its tokens with an explicit
    stack; with once, the single value and nothing but comments after it;
    with share, equal lists made one object (see the module docstring)."""
    token = _SHARED_TOKEN if share else _TOKEN
    tokens = token.findall(text)
    rest = iter(tokens)
    shared: dict = {}      # tuple of a list's items -> the list
    blocks = _Blocks(shared) if share else None
    values: list = []
    stack: list = []       # the lists enclosing `items`
    items = values         # the list that receives the next value
    for tok in rest:
        if tok == "(":
            stack.append(items)
            items = _Shared() if share else []
            continue
        if tok == ")":
            if not stack:
                raise _error("unmatched ')'", text, token, tokens, rest)
            done = items
            if share:
                done = shared.setdefault(tuple(done), done)
            items = stack.pop()
            items.append(done)
        elif tok[0] in '(;"':
            if tok[0] == ";":
                continue
            if tok[0] == "(":
                items.append(blocks[tok])   # a block; shared reads only
            elif len(tok) == 1:
                raise _error("unterminated string", text, token, tokens, rest)
            else:
                body = tok[1:-1]
                if "\\" in body:
                    body = _ESCAPE.sub(r"\1", body)
                items.append(QuotedString(body))
                share = False
        else:
            items.append(tok)
        if once and not stack:
            for tok in rest:
                if tok[0] != ";":
                    raise _error("trailing input after s-expression", text, token, tokens, rest)
            return values[0]
    if stack:
        raise SexprError("unclosed '('", len(text))
    if once:
        raise SexprError("unexpected end of input", len(text))
    return values


def parse(text: str, share: bool = False):
    return _read(text, True, share)


def parse_many(text: str):
    return _read(text, False)


def render(value) -> str:
    if isinstance(value, QuotedString):
        body = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{body}"'
    if isinstance(value, str):
        return value
    return "(" + " ".join(render(v) for v in value) + ")"


def render_pretty(value, indent: int = 0) -> str:
    """Render with one nested list per line; deterministic layout."""
    pad = "  " * indent
    if isinstance(value, str):
        return pad + render(value)
    if not any(isinstance(v, list) for v in value):
        return pad + render(value)
    head = [v for v in value]
    lines = [pad + "("]
    flat_prefix = []
    rest_start = 0
    for v in head:
        if isinstance(v, list):
            break
        flat_prefix.append(render(v))
        rest_start += 1
    if flat_prefix:
        lines[0] = pad + "(" + " ".join(flat_prefix)
    for v in head[rest_start:]:
        lines.append(render_pretty(v, indent + 1))
    lines[-1] += ")"
    return "\n".join(lines)
