"""Minimal s-expression reader and writer.

Values are nested Python lists whose leaves are atom strings and successor
chains (`Chain`, below).  Double-quoted strings are supported for free-text
payloads (violation messages); they parse to a `QuotedString`, which equals
only quoted text with the same characters and never an atom, so a reader
that compares a head, keyword or id with an atom rejects quoted text there.

The reader splits the text into tokens with one regular expression and
builds the lists in a single loop with an explicit stack, so its time is
linear in the input and nesting depth costs no recursion.  `;` starts a
comment that runs to the end of the line.  Every error is a `SexprError`,
a `ParseError` that carries the offset `pos`; the readers built on this
one raise `ParseError` too, so one except clause catches every unreadable
input.

The reader shares lists: each list read through `(` and `)` tokens, when
it closes, is looked up in a table of the lists read so far, keyed by the
tuple of its items, and a list read before is used in its place.  Items
that are lists hash by identity, so the key costs one tuple per list.  The
converters of documents memoise on identity (see syntax).  A value read
must never be mutated: every place it occurs would change with it.  The
table dies with the read.

The reader also takes a whole list nested at most `BLOCK_DEPTH` deep that
holds no `"`, no `;` and no line break as one block token.  Inside a block
every other character is whitespace or part of an atom, so the block's own
tokens are the ones single tokens would give.  A per-read memo maps each
block's text to its list: a block seen before costs one dict lookup, and a
new one is read from its inner text, its own blocks through the same memo.
Blocks skip the table of shared lists, so equal lists spelled differently,
or read once as a block and once through `(` tokens, are equal lists but
not one object.  Proof files repeat each node's sequent in its premises,
with the same spelling, so most of their lists are blocks met before.  A
proof file writes one node per line, so a block attempt at a node, which
holds its children, stops at the end of the node's line instead of
scanning the lines of its children, which their own attempts scan again.
The possessive quantifiers of the block pattern keep a failed attempt on a
deeper list from backtracking; that needs Python 3.11.

Numerals are successor chains, `(s (s ... 0))`, often thousands deep.  The
reader takes a run of at least `CHAIN_RUN` `(s` opens, each followed by
whitespace, the atom after them, if any, and the closes after that as one
chain token, and a run of at least `CHAIN_RUN` closes, such as the one that
ends a chain around a list, `(s (s ... (add x y)))`, as one token too.
These are tried first, so no block starts with such a run, and they are
possessive, so a chain is matched in one pass however deep it is.  A
per-read dict decodes each distinct chain or close-run token once, into
the lists it leaves open, the value it puts in the innermost of them and
the lists it closes after that.  The levels a chain token closes around its
atom are one value, a `Chain` of the atom and the depth, not a list per
successor: a Chain renders as the nested lists it stands for, and one read
makes one Chain per distinct chain, so a Chain equals only itself and the
table of shared lists keys it by identity.  A whole numeral is thus one
token and one value however deep it is.  A partial chain, one around a
list or followed by more items, pushes the lists it leaves open as single
`(` tokens would.  A block's inner text has no chain tokens, since a chain
token can close fewer lists than it opens, so a chain inside a block is
read as its nested lists.  The closes of one token can pass the end of a
value; the error then names the first close too many, as single `)` tokens
would: "unmatched ')'" where no value is complete, and "trailing input
after s-expression" after the value `parse` reads.
"""

from __future__ import annotations

import re
from operator import length_hint


class ParseError(Exception):
    """Text that a reader of this package does not accept."""


class SexprError(ParseError):
    """Text that is no s-expression; `pos` is the offset of the fault."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class QuotedString(str):
    """Free text, rendered with double quotes.  It equals only quoted text
    with the same characters: never an atom, so a quoted head, keyword or
    id matches nothing a reader looks for."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is QuotedString and str.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = str.__hash__


class _Shared(list):
    """List made by the reader; hashed by identity, so that a tuple of a
    list's items can be a key of the table of shared lists."""

    __slots__ = ()
    __hash__ = object.__hash__


# One alternative per single token; every character of the input either starts a
# token or is whitespace (" \t\r\n"), which no alternative matches.  A lone
# '"' is a string that never closes.
_ATOM = r'[^()" \t\r\n;][^()" \t\r\n]*'
_SINGLE = rf'[()]|"[^"\\]*(?:\\.[^"\\]*)*"|"|;[^\n]*|{_ATOM}'
_ESCAPE = re.compile(r"\\(.)", re.S)

# A list nested at most BLOCK_DEPTH deep with no '"', ';' or line break in it.
BLOCK_DEPTH = 8
_BLOCK = r'\([^()";\n]*+\)'
for _ in range(BLOCK_DEPTH - 1):
    _BLOCK = rf'\([^()";\n]*+(?:{_BLOCK}[^()";\n]*+)*+\)'
_BLOCK_TOKEN = re.compile(_BLOCK + "|" + _ATOM)     # the tokens of a block's inner text

# A successor chain: a run of at least CHAIN_RUN "(s" opens, each followed
# by whitespace, an optional atom and the closes after it; and a run of at
# least CHAIN_RUN closes, such as the one after a chain around a list.  The
# read tries them first.  A shorter run reads faster as single tokens, or
# as a block.  The first CHAIN_RUN steps are written out, not counted: a
# pattern that starts with a counted repeat makes the regex engine set up
# the repeat at every character, while `\(s` fails at once where it does
# not match.
CHAIN_RUN = 4
_OPEN = r'\(s[ \t\r\n]++'
_CLOSE = r'[ \t\r\n]*+\)'
_CHAIN = (rf'{_OPEN * CHAIN_RUN}(?:{_OPEN})*+(?:{_ATOM})?+(?:{_CLOSE})*+'
          rf'|\){_CLOSE * (CHAIN_RUN - 1)}(?:{_CLOSE})*+')
_CHAIN_START = re.compile(_OPEN * CHAIN_RUN)    # a chain, not a block like (s x)
_TOKEN = re.compile(_CHAIN + "|" + _BLOCK + "|" + _SINGLE, re.S)


class _Blocks(dict):
    """Block text -> its list, for one read.  A block met for the first
    time is read from its inner text, its own blocks through this memo."""

    def __missing__(self, text: str) -> _Shared:
        tokens = _BLOCK_TOKEN.findall(text, 1, len(text) - 1)
        items = self[text] = _Shared([self[t] if t[0] == "(" else t for t in tokens])
        return items


class Chain:
    """A whole successor chain as one value: `depth` >= 1 successors over
    the atom `base`.  It stands for the nested lists (s (s ... base)) and
    renders as their text.  One read makes one Chain per distinct chain, so
    a Chain equals only itself."""

    __slots__ = ("base", "depth")

    def __init__(self, base: str, depth: int):
        self.base = base
        self.depth = depth

    def __repr__(self):
        return f"Chain({self.base!r}, {self.depth})"


_CHAIN_ATOM = re.compile(rf'[ \t\r\n]*+({_ATOM})?+')


class _Runs(dict):
    """Text of a `)`, close-run or chain token -> (opens, value, closes),
    for one read: the lists the token leaves open, the value it puts in the
    innermost of them (the Chain of the levels it closes around its atom,
    the bare atom if it closes none, None without an atom) and the lists
    it closes after that; None for a block that starts like a chain, such
    as (s x).  Each distinct token is decoded once, and equal chains are
    one Chain."""

    def __init__(self):
        super().__init__()
        self.chains: dict = {}     # (atom, depth) -> its Chain

    def __missing__(self, tok: str) -> tuple | None:
        if tok[0] == "(" and not _CHAIN_START.match(tok):
            self[tok] = None
            return None
        opens, value, closes = 0, None, tok.count(")")
        if tok[0] == "(":
            opens = tok.count("(")
            atom = _CHAIN_ATOM.match(tok, tok.rindex("(") + 2)[1]
            if atom:
                whole = min(opens, closes)
                opens, closes = opens - whole, closes - whole
                value = atom if not whole else \
                    self.chains.setdefault((atom, whole), Chain(atom, whole))
        got = self[tok] = (opens, value, closes)
        return got


def _error(message: str, text: str, tokens: list, rest, closes: int = 0) -> SexprError:
    """The error at the token just taken from `rest`, an iterator over
    `tokens`, the tokens of text; with `closes`, at the closes-th `)` from
    the token's end.  The offset is found by scanning again, on the error
    path only."""
    k = len(tokens) - length_hint(rest) - 1
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == k:
            if not closes:
                return SexprError(message, m.start())
            return SexprError(message, m.start()
                              + [j for j, c in enumerate(m[0]) if c == ")"][-closes])
    return SexprError(message, len(text))


def _scan(text: str, once: bool):
    """The values of text, in one pass over its tokens with an explicit
    stack; with once, the single value and nothing but comments after it."""
    tokens = _TOKEN.findall(text)
    rest = iter(tokens)
    shared: dict = {}      # tuple of a (...) list's items -> the list
    blocks = _Blocks()
    runs = _Runs()
    values: list = []
    stack: list = []       # the lists enclosing `items`
    items = values         # the list that receives the next value
    for tok in rest:
        if tok == "(":
            stack.append(items)
            items = _Shared()
            continue
        if tok[0] in '(;")':
            if tok[0] == ";":
                continue
            if tok[0] == "(" and tok[1] != "s":
                # a block; runs[tok] maps it to None too, but that way a
                # corpus-cyclic bench pass ran 1.3% slower (2 vCPUs, Python 3.11)
                items.append(blocks[tok])
            elif tok[0] == '"':
                if len(tok) == 1:
                    raise _error("unterminated string", text, tokens, rest)
                items.append(QuotedString(_ESCAPE.sub(r"\1", tok[1:-1])))
            elif (run := runs[tok]) is None:    # a block that starts like a chain
                items.append(blocks[tok])
            else:
                # a close, a run of closes, or a chain (see _Runs)
                opens, value, closes = run
                for _ in range(opens):
                    stack.append(items)
                    items = _Shared(("s",))
                if value is not None:
                    items.append(value)
                for i in range(closes):
                    if not stack:   # a close with no list open
                        raise _error("trailing input after s-expression" if values and once
                                     else "unmatched ')'", text, tokens, rest, closes - i)
                    done = items
                    items = stack.pop()
                    items.append(shared.setdefault(tuple(done), done))
        else:
            items.append(tok)
        if once and not stack:
            for tok in rest:
                if tok[0] != ";":
                    raise _error("trailing input after s-expression", text, tokens, rest)
            return values[0]
    if stack:
        raise SexprError("unclosed '('", len(text))
    if once:
        raise SexprError("unexpected end of input", len(text))
    return values


def parse(text: str):
    return _scan(text, True)


def parse_many(text: str):
    return _scan(text, False)


def render(value) -> str:
    """Text of a value; an explicit stack, no recursion.  The stack holds
    values to render and the plain strings between them."""
    out = []
    todo = [value]
    while todo:
        v = todo.pop()
        if isinstance(v, QuotedString):
            body = v.replace("\\", "\\\\").replace('"', '\\"')
            out.append(f'"{body}"')
        elif isinstance(v, str):
            out.append(v)
        elif v.__class__ is Chain:
            out.append(f"{'(s ' * v.depth}{v.base}{')' * v.depth}")
        else:
            out.append("(")
            todo.append(")")
            for i in range(len(v) - 1, -1, -1):
                todo.append(v[i])
                if i:
                    todo.append(" ")
    return "".join(out)


def excerpt(value) -> str:
    """The first 80 characters of render(value): reader errors quote the
    value they reject, and a deep value would fill a line of its own."""
    return render(value)[:80]
