"""The original recursive s-expression reader, kept as a test oracle.

`cyclarith.sexpr` reads with one flat pass over a token list and an explicit
stack; this is the character-level recursive-descent reader it replaced.
Tests compare the two on the same inputs: both must return the same value,
or raise `SexprError` with the same message and offset.  It recurses once
per nesting level, so keep its inputs shallow.
"""

from cyclarith.sexpr import QuotedString, SexprError

_DELIMS = "()\" \t\r\n"


def _skip_ws(text: str, i: int) -> int:
    while i < len(text):
        if text[i] in " \t\r\n":
            i += 1
        elif text[i] == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        else:
            break
    return i


def _read(text: str, i: int):
    i = _skip_ws(text, i)
    if i >= len(text):
        raise SexprError("unexpected end of input", i)
    ch = text[i]
    if ch == "(":
        items = []
        i += 1
        while True:
            i = _skip_ws(text, i)
            if i >= len(text):
                raise SexprError("unclosed '('", i)
            if text[i] == ")":
                return items, i + 1
            item, i = _read(text, i)
            items.append(item)
    if ch == ")":
        raise SexprError("unmatched ')'", i)
    if ch == '"':
        j = i + 1
        out = []
        while j < len(text) and text[j] != '"':
            if text[j] == "\\" and j + 1 < len(text):
                out.append(text[j + 1])
                j += 2
            else:
                out.append(text[j])
                j += 1
        if j >= len(text):
            raise SexprError("unterminated string", i)
        return QuotedString("".join(out)), j + 1
    j = i
    while j < len(text) and text[j] not in _DELIMS:
        j += 1
    return text[i:j], j


def parse(text: str):
    value, i = _read(text, 0)
    i = _skip_ws(text, i)
    if i != len(text):
        raise SexprError("trailing input after s-expression", i)
    return value


def parse_many(text: str):
    values = []
    i = _skip_ws(text, 0)
    while i < len(text):
        value, i = _read(text, i)
        values.append(value)
        i = _skip_ws(text, i)
    return values
