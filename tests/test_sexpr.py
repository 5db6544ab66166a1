import functools
import random
import re
import sys

import pytest

from cyclarith import (Add, ParseError, numeral, parse_formula, parse_proof,
                       parse_sequent, parse_term, prove_ground_atom, render_proof)
from cyclarith.records import parse_report
from cyclarith.transform import parse_aseq
from cyclarith.cli import build_corpus
from cyclarith.sexpr import (_CHAIN_START, _TOKEN, BLOCK_DEPTH, CHAIN_RUN, Chain,
                             QuotedString, SexprError, parse, parse_many, render)
from cyclarith.syntax import term_from_sexpr
from cyclarith.transform import parse_graph
from cyclarith.uncycle import parse_certificate

import reference_sexpr


def test_parse_atom():
    assert parse("abc") == "abc"
    assert parse("0") == "0"
    assert parse("add0") == "add0"


def test_parse_nested():
    assert parse("(a (b c) d)") == ["a", ["b", "c"], "d"]
    assert parse("()") == []
    assert parse("((()))") == [[[]]]


def test_whitespace_and_newlines():
    assert parse("  (a\n\tb  c\r\n)  ") == ["a", "b", "c"]


def test_parse_many():
    assert parse_many("(a) (b c)\n(d)") == [["a"], ["b", "c"], ["d"]]
    assert parse_many("") == []
    assert parse_many("   \n ") == []


def test_quoted_string_atom():
    v = parse('"hello (world)"')
    assert v == QuotedString("hello (world)")
    assert v != "hello (world)" and "hello (world)" != v
    assert isinstance(v, QuotedString)
    assert render(v) == '"hello (world)"'


def test_quote_escapes():
    v = parse(r'"a\"b\\c"')
    assert str(v) == 'a"b\\c'
    assert parse(render(v)) == v


def test_errors():
    with pytest.raises(SexprError):
        parse("(a")
    with pytest.raises(SexprError):
        parse("a)")
    with pytest.raises(SexprError):
        parse("(a) b")
    with pytest.raises(SexprError):
        parse("")
    with pytest.raises(SexprError):
        parse('"unterminated')


def test_render_round_trip():
    src = "(node n1 (seq (eq 0 0)) (rule ref 0) (vars x y))"
    assert render(parse(src)) == src


def _random_sexpr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(["a", "b0", "x_y", "s'", "0", "12"])
    return [_random_sexpr(rng, depth - 1) for _ in range(rng.randrange(4))]


def test_random_round_trips():
    rng = random.Random(42)
    for _ in range(300):
        v = _random_sexpr(rng, 4)
        assert parse(render(v)) == v


# --- differential tests against the recursive reader it replaced ----------


def _nest(chain):
    """The nested lists a Chain stands for, built fresh."""
    value = chain.base
    for _ in range(chain.depth):
        value = ["s", value]
    return value


def _shape(value):
    """Value with atoms and quoted strings told apart, and each Chain
    expanded into its nest, for exact comparison."""
    if isinstance(value, Chain):
        value = _nest(value)
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return ("q" if isinstance(value, QuotedString) else "a", str(value))


def _outcome(read, text):
    try:
        return ("value", _shape(read(text)))
    except SexprError as exc:
        return ("error", str(exc), exc.pos)


def _same_as_reference(text):
    assert _outcome(parse, text) == _outcome(reference_sexpr.parse, text), text
    assert _outcome(parse_many, text) == _outcome(reference_sexpr.parse_many, text), text


def _corpus_texts():
    for seed in (1, 2, 3):
        for entry in build_corpus(seed):
            yield entry.text + "\n"
            if entry.assume:
                yield "".join(f.sx + "\n" for f in entry.assume)


def test_reader_matches_reference_on_corpus():
    texts = list(_corpus_texts())
    assert len(texts) > 60
    for text in texts:
        # the reference reader is slow, so it reads each file once; corpus
        # files hold no quoted strings, so comparing the flat forms, which
        # walk each Chain as its nest, is exact here
        assert '"' not in text
        want = reference_sexpr.parse_many(text)
        assert _flat(parse_many(text)) == _flat(want)
        if len(want) == 1:
            assert _flat(parse(text)) == _flat(want[0])


_ALPHABET = ['(', ')', '"', '\\', ';', ' ', '\n', '\t', '\r', 'a', 'b', '0', 'x', "'",
             '\x0c', 'é']


def test_reader_matches_reference_on_random_inputs():
    rng = random.Random(7)
    for _ in range(20000):
        _same_as_reference("".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(16))))


_PIECES = ["(", ")", '"', '"x y"', '\\', ";c\n", " ", "\n", "atom", "0"]


def _mutants(texts, pieces, token, seed, count):
    """count seeded mutants of texts, each split by the regex token and
    edited one to three times: a token deleted, one of pieces inserted or
    put in a token's place, or a token copied."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        tokens = re.findall(token, text)
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(tokens))
            roll = rng.randrange(4)
            if roll == 0:
                del tokens[i]
            elif roll == 1:
                tokens.insert(i, rng.choice(pieces))
            elif roll == 2:
                tokens[i] = rng.choice(pieces)
            else:
                tokens.insert(i, tokens[rng.randrange(len(tokens))])
        out.append("".join(tokens))
    return out


@functools.cache
def _mutated_corpus_texts():
    texts = [t for t in _corpus_texts() if len(t) < 3000]
    return _mutants(texts, _PIECES, r'[()]|"[^"]*"|[^()"\s]+|\s+', 11, 1000)


def test_reader_matches_reference_on_mutated_corpus_files():
    errors = 0
    for text in _mutated_corpus_texts():
        _same_as_reference(text)
        errors += _outcome(parse, text)[0] == "error"
    assert errors > 300


def test_reader_error_offsets():
    cases = {
        "": ("unexpected end of input", 0),
        "  ; only a comment": ("unexpected end of input", 18),
        "(a (b)": ("unclosed '('", 6),
        "(a) )": ("trailing input after s-expression", 4),
        ")": ("unmatched ')'", 0),
        '(a "b\\"': ("unterminated string", 3),
    }
    for text, (message, pos) in cases.items():
        with pytest.raises(SexprError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at offset {pos})"
        assert info.value.pos == pos
    with pytest.raises(SexprError, match="unmatched"):
        parse_many("(a) )")


# Runs of at least CHAIN_RUN closes, some split by whitespace or a comment.
_CLOSE_RUNS = [")" * 4, ")" * 9, ") ) )\t)", ")\n)  ) )\r\n)", ")) ;c\n))))",
               ")))) ;c\n) ) ) )"]


def test_close_runs_that_pass_the_end_of_a_value_match_reference():
    chain = "(s " * CHAIN_RUN + "0"
    heads = ["", "; c\n",                                  # at the start of the text
             "(a)", "(a (b)) ", "x ", chain + ")" * CHAIN_RUN,   # after a complete value
             "(a (b (c", "((((", f"(f {chain}", f"(f (g {chain})"]  # inside a value
    errors = 0
    for run in _CLOSE_RUNS:
        assert any(t[0] == ")" and len(t) > 1 for t in _TOKEN.findall(run)), run
        for head in heads:
            for text in (head + run, head + run + " (a)", f"({head}{run}"):
                _same_as_reference(text)
                errors += _outcome(parse, text)[0] == "error"
    assert errors > 150
    for read in (parse, parse_many):
        assert _outcome(read, "))))") == ("error", "unmatched ')' (at offset 0)", 0)
    assert _outcome(parse, "(a) ) ) ) )") == \
        ("error", "trailing input after s-expression (at offset 4)", 4)
    assert _outcome(parse_many, "(a)))))") == ("error", "unmatched ')' (at offset 3)", 3)
    assert _outcome(parse, chain + ")" * 6) == \
        ("error", f"trailing input after s-expression (at offset {len(chain) + 4})",
         len(chain) + 4)


def test_reader_is_iterative_in_depth():
    depth = 100000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        value = parse("(" * depth + "x" + ")" * depth)
        for _ in range(depth):
            [value] = value
        assert value == "x"
    finally:
        sys.setrecursionlimit(limit)


def test_render_is_iterative_in_depth():
    depth = 3000
    chain = "(s " * depth + "0" + ")" * depth
    text = f"(foo {chain} \"a \\\"q\\\"\")"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert render(parse(text)) == text
        # error messages render the offending value
        with pytest.raises(ParseError, match=r"^bad formula \(foo \(s \(s"):
            parse_formula(f"(foo {chain} 0)")
        with pytest.raises(ParseError, match=r"^bad rule \(rule bogus \(s \(s"):
            parse_proof(f"(node :id n0 (seq (eq 0 0)) (rule bogus {chain}))")
    finally:
        sys.setrecursionlimit(limit)


# --- unreadable text and quoted text -------------------------------------


@pytest.mark.parametrize("read", [parse, parse_many, parse_term, parse_formula, parse_sequent,
                                  parse_aseq, parse_proof, parse_report, parse_certificate,
                                  parse_graph])
def test_every_reader_raises_parse_error_on_unreadable_text(read):
    with pytest.raises(ParseError) as info:
        read("(x")
    assert isinstance(info.value, SexprError) and info.value.pos == 2
    assert str(info.value) == "unclosed '(' (at offset 2)"


@pytest.mark.parametrize("read, text, message", [
    (parse_formula, '"top"', 'bad formula "top"'),
    (parse_formula, '("eq" 0 0)', 'bad formula ("eq" 0 0)'),
    (parse_formula, '(all "x" (eq x 0))', 'expected a variable, got "x"'),
    (parse_formula, '(eq "0" 0)', 'expected a variable, got "0"'),
    (parse_aseq, '(aseq (seq) (vars "x"))', 'expected a variable, got "x"'),
    (parse_proof, '(node :id "a" (seq (eq 0 0)) (axiom))', 'node id must be an atom, got "a"'),
    (parse_proof, '(node ":id" a (seq (eq 0 0)) (axiom))',
     'bad proof node (node ":id" a (seq (eq 0 0)) (axiom))'),
    (parse_proof, '("node" :id a ("seq" (eq 0 0)) ("axiom"))',
     'bad proof node ("node" :id a ("seq" (eq 0 0)) ("axiom"))'),
])
def test_quoted_text_is_never_an_atom(read, text, message):
    with pytest.raises(ParseError) as info:
        read(text)
    assert str(info.value) == message
    # the same text with the quotes taken off reads
    read(text.replace('"', ""))


def test_quoted_text_equals_only_quoted_text():
    a = QuotedString("a")
    assert a == QuotedString("a") and not a != QuotedString("a")
    assert a != "a" and "a" != a and not a == "a"
    assert a not in ("a", "b") and "a" not in (a,)
    assert {"a": 1}.get(a) is None and {a: 1}.get("a") is None
    assert hash(a) == hash(QuotedString("a"))
    assert a != Chain("a", 1) and Chain("a", 1) != a


# --- shared reading -------------------------------------------------------


def _lists(value):
    """Every list and every Chain in value, outermost first.  A Chain
    stands for its whole nest, whose levels are no objects of their own."""
    out, todo = [], [value]
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            out.append(v)
            todo.extend(v)
        elif isinstance(v, Chain):
            out.append(v)
    return out


def _one_object_per_rendering(value, text, lists=True):
    """Equal Chains of one read are one object.  With lists, so are equal
    lists: true of a text that spells equal lists alike and reads them in
    one form, all as blocks or all through `(` tokens (see sexpr)."""
    by_text = {}
    for v in _lists(value):
        if lists or isinstance(v, Chain):
            key = (isinstance(v, Chain), render(v))
            assert by_text.setdefault(key, v) is v, text


def test_equal_lists_read_as_one_object():
    # by construction, texts whose lists are all read in one form: with a
    # line break after every "(", no block or chain token can start, so
    # every list is read through "(" tokens; a random value rendered on one
    # line is a single block, which spells equal lists alike
    rng = random.Random(7)
    token_texts = [render(_random_sexpr(rng, 5)).replace("(", "(\n") for _ in range(20300)]
    block_texts = [render(_random_sexpr(rng, 5)) for _ in range(300)]
    for texts in (token_texts, block_texts):
        shared_lists = 0
        for text in texts:
            value = parse(text)
            tokens = _TOKEN.findall(text)
            if texts is token_texts:
                assert all(t == "(" for t in tokens if t[0] == "("), text
            else:
                assert len(tokens) == 1, text
            _one_object_per_rendering(value, text)
            lists = _lists(value)
            shared_lists += len(lists) - len({id(v) for v in lists})
        assert shared_lists > 100
    # equal lists read as two different blocks are two objects
    v = parse("((a b)\n(a  b))")
    assert v[0] == v[1] and v[0] is not v[1]


def test_shared_read_keeps_quoted_strings_and_atoms_apart():
    v = parse('(a "a")')
    assert _shape(v) == [("a", "a"), ("q", "a")]
    for text in ('((a) ("a") (a))', '(("a") (a) ("a"))'):
        v = parse(text)
        assert _shape(v) == _shape(reference_sexpr.parse(text))
        assert v[0] is not v[1] and v[1] is not v[2] and v[0] is v[2]
        assert render(v) == text


# --- block tokens of the shared read ---------------------------------------


def _nested(depth, piece="", at=-1):
    """A list nested depth deep, with piece put in at nesting level `at`."""
    text = "x"
    for level in range(depth, 0, -1):
        text = f"(f{level} a{level} {piece if level == at else ''} {text} b)"
    return text


_INNER_PIECES = ["", ";c (a)\n", '"q (x)"', "a;b", "a;(b", ";"]


def test_block_pattern_takes_lists_up_to_the_depth_bound():
    assert BLOCK_DEPTH == 8
    assert _TOKEN.fullmatch(_nested(BLOCK_DEPTH))
    assert _TOKEN.fullmatch("()")
    assert not _TOKEN.fullmatch(_nested(BLOCK_DEPTH + 1))
    for piece in _INNER_PIECES[1:]:
        assert not _TOKEN.fullmatch(_nested(3, piece, 2)), piece


def test_blocks_match_reference_around_the_depth_bound():
    cases = 0
    for depth in (BLOCK_DEPTH - 1, BLOCK_DEPTH, BLOCK_DEPTH + 1):
        for piece in _INNER_PIECES:
            for at in range(1, depth + 1):
                inner = _nested(depth, piece, at)
                plain = _nested(depth)
                for text in (inner, f"(top {plain} {inner} {plain})",
                             f"(top {inner} ({plain}) {plain} ;\n)"):
                    want = _outcome(reference_sexpr.parse, text)
                    assert _outcome(parse, text) == want, text
                    cases += 1
    assert cases > 400


_GROUND_PIECES = ["(s ", "(s", "( s ", "(s\n", ")", "))", " )", "(", "s", "0", " ", ";c\n", '"']


@functools.cache
def _mutated_ground_texts():
    """Mutants of small `k+k = 2k` ground proofs, whose numerals are read as
    chain tokens; `(s ` is one token, so that it can move."""
    texts = [render_proof(prove_ground_atom(Add(numeral(k), numeral(k)), numeral(2 * k)))
             for k in range(1, 4)]
    return _mutants(texts, _GROUND_PIECES, r'\(s\s|[()]|[^()\s]+|\s+', 13, 300)


def test_reader_matches_reference_on_mutated_ground_proofs():
    ground_errors = 0
    for text in _mutated_ground_texts():
        want = _outcome(reference_sexpr.parse, text)
        assert _outcome(parse, text) == want, text
        ground_errors += want[0] == "error"
    assert 100 < ground_errors < 300


def _flat(value):
    """value as a list of "(", ")" and atoms, walked with an explicit stack;
    a Chain is walked as its nest, one level at a time."""
    out, todo = [], [value]
    while todo:
        v = todo.pop()
        if isinstance(v, Chain):
            v = ["s", Chain(v.base, v.depth - 1) if v.depth > 1 else v.base]
        if isinstance(v, list):
            out.append("(")
            todo.append(")")
            todo.extend(reversed(v))
        else:
            out.append(v)
    return out


def test_shared_read_is_iterative_in_depth():
    depth = 20000
    chain = "(eq " + "(s " * depth + "0" + ")" * depth + " 0)"
    nodes = 1002
    gamma = "(seq (eq 0 0))"
    proof = ("".join(f"(node n{i} {gamma} (rule ref 0) " for i in range(nodes - 1))
             + "(node a (seq (eq 0 0) (neq 0 0)) (axiom))" + ")" * (nodes - 1))
    assert "\n" not in proof
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert render(parse(chain)) == chain
        value = parse(proof)
        assert render(value) == proof
        sequents = []
        for _ in range(nodes - 1):
            sequents.append(value[2])
            value = value[-1]
        assert all(seq is sequents[0] for seq in sequents)
    finally:
        sys.setrecursionlimit(limit)


def test_equal_blocks_spaced_differently_read_as_one_object():
    v = parse("((a  b) (a b) ( a\tb\n) (a b ;c\n) (f (a b)) (f ( a b )))")
    assert _shape(v) == _shape(parse("((a b) (a b) (a b) (a b) (f (a b)) (f (a b)))"))
    assert v[0] == v[1] == v[2] == v[3] == v[4][1] and v[4] == v[5]
    # a block text met again is its first list, and lists read through
    # `(` tokens with the same items are one object
    assert v[1] is v[4][1] and v[2] is v[3]
    # lists are still shared after a quoted string, blocks or not
    v = parse('((a b) "q" (a  b) ((a b) "r") ((a b) "r"))')
    assert v[0] == v[2] and v[0] is v[3][0] is v[4][0]
    assert v[3] is v[4]


def test_blocks_end_at_a_line_break_and_split_only_at_reader_whitespace():
    # a list spanning lines is no block
    assert _TOKEN.fullmatch("(a b)") and _TOKEN.fullmatch("(a (b c))")
    assert not _TOKEN.fullmatch("(a\n b)") and not _TOKEN.fullmatch("(a (b\n c))")
    assert _TOKEN.findall("(n (s x)\n  (m (s x)))") == ["(", "n", "(s x)", "(m (s x))", ")"]
    # a block splits at " ", "\t", "\r" only: "\x0b", "\x0c", "\x85" and
    # "\xa0" are whitespace to str.split() but atom characters here
    texts = ["((a\n b) (a b) (f (a b)\n) (f (a b)))",
             "(n :id a (seq (eq 0 0))\n  (n :id b (seq (eq 0 0)) (axiom)))",
             "((a\tb\rc) (a b c) (a\r\tb  c) (f (a\tb\rc)))",
             "((a\x0bb c\x85d \xa0 e\x0c) (a\x0bb c\x85d \xa0 e\x0c) (\x0c) (\x85 \xa0))",
             "(f (x\x0b y) (x\x0b\ty) (x\x0by))"]
    for text in texts:
        _same_as_reference(text)
        _one_object_per_rendering(parse(text), text, lists=False)
    v = [parse(text) for text in texts]
    assert v[0][0] == v[0][1] and v[0][2] == v[0][3]
    assert v[1][4][3] is v[1][3]
    assert v[2][0] == ["a", "b", "c"] == v[2][1] == v[2][2] and v[2][0] is v[2][3][1]
    assert v[3][0] == ["a\x0bb", "c\x85d", "\xa0", "e\x0c"] and v[3][0] is v[3][1]
    assert v[3][2] == ["\x0c"] and v[3][3] == ["\x85", "\xa0"]
    assert v[4][1] == ["x\x0b", "y"] and v[4][1] == v[4][2] and v[4][3] == ["x\x0by"]


# --- chain tokens ----------------------------------------------------------

_CHAIN_OPENS = ["(s ", "(s  ", "(s\t", "(s\n", "(s \r\n ", "( s ", "(s)", "(s )"]
_CHAIN_INNER = ["0", "x", "s", "a;b", "(add x y)", "(s)", "()", '"q (s 0))"', ";c (s 0)\n",
                "", " "]
_CHAIN_SPACE = ["", "", " ", "\t", "\n"]
_CHAIN_TAIL = ["", "", "", "", " ", " x", ")", " )", " (s 0)", " ;c", ";c\n)", '"', "(", "(s "]


def _chain_text(rng):
    """A successor chain with mixed whitespace and an odd open now and then,
    something or nothing inside, a close count off by up to two, and
    sometimes trailing input or an enclosing list."""
    opens = _CHAIN_OPENS if rng.random() < 0.3 else _CHAIN_OPENS[:5]
    pieces = [rng.choice(opens) for _ in range(rng.randrange(1, 10))]
    depth = sum(not piece.endswith(")") for piece in pieces)
    text = "".join(pieces) + rng.choice(_CHAIN_INNER)
    closes = depth + rng.choice((-2, -1, 0, 0, 0, 0, 1, 2))
    text += "".join(rng.choice(_CHAIN_SPACE) + ")" for _ in range(max(0, closes)))
    text += rng.choice(_CHAIN_TAIL)
    if rng.random() < 0.3:
        text = rng.choice(["(f ", "(f ;c\n ", "("]) + text + rng.choice([")", " z)", ""])
    return text


def test_chain_tokens_match_reference():
    rng = random.Random(19)
    seen = {"value": 0, "error": 0}
    long_chains = chain_tokens = 0
    for _ in range(5000):
        text = _chain_text(rng)
        want = _outcome(reference_sexpr.parse, text)
        assert _outcome(parse, text) == want, text
        assert _outcome(parse_many, text) == _outcome(reference_sexpr.parse_many, text), text
        seen[want[0]] += 1
        # a run of CHAIN_RUN opens is a chain token, or lies inside a block
        runs = [t for t in _TOKEN.findall(text) if _CHAIN_START.search(t)]
        long_chains += bool(runs)
        chain_tokens += any(_CHAIN_START.match(t) for t in runs)
        if want[0] == "value":
            _one_object_per_rendering(parse(text), text, lists=False)
    assert min(seen.values()) > 1000 and long_chains > 2500 and chain_tokens > 2400


def test_a_chain_token_and_a_block_read_one_list_as_one_object():
    chain = "(s " * CHAIN_RUN + "0" + ")" * CHAIN_RUN
    # ';' keeps the outer list from being a block, so its chains are tokens
    text = f"(a ;c\n {chain} (b {chain}) ( s {chain}) (s {chain} x) (b (s 0)))"
    assert chain in _TOKEN.findall(text)
    assert _TOKEN.findall(f"(s {chain} x)")[0] == "(s " + chain   # a partial chain
    v = parse(text)
    assert _shape(v) == _shape(reference_sexpr.parse(text))
    # the chain tokens, whole and partial, give one Chain
    assert isinstance(v[1], Chain) and v[1] is v[4][1]
    assert term_from_sexpr(v[1]) is numeral(CHAIN_RUN)
    assert term_from_sexpr(v[5][1]) is numeral(1)
    # inside blocks the chain is a nest, one object, that flattens as the
    # Chain does and converts to the same node
    assert isinstance(v[2][1], list) and v[2][1] is v[3][1] and _flat(v[2][1]) == _flat(v[1])
    assert term_from_sexpr(v[2][1]) is term_from_sexpr(v[1])
    # the block first, then the chain; and chains stay shared after a string
    v = parse(f'(a ;c\n (b {chain}) "q" {chain} (s {chain} x))')
    assert v[3] is v[4][1] and _flat(v[1][1]) == _flat(v[3])
    assert term_from_sexpr(v[1][1]) is term_from_sexpr(v[3])


def test_deep_chains_are_a_few_tokens_and_read_without_recursion():
    depth = 20000
    limit = sys.getrecursionlimit()
    for inner, want in (("0", "0"), ("(add x y)", ["add", "x", "y"])):
        text = "(eq " + "(s " * depth + inner + ")" * depth + " 0)"
        assert len(_TOKEN.findall(text)) <= 10
        for _ in range(depth):
            want = ["s", want]
        want = ["eq", want, "0"]
        sys.setrecursionlimit(1000)
        try:
            assert _flat(parse(text)) == _flat(want)
        finally:
            sys.setrecursionlimit(limit)


def test_a_chain_equals_the_nest_it_stands_for():
    # the comment ends the chain token after three closes
    three = parse("(s (s (s (s (s (s 0))) ;c\n)))")[1][1][1]
    assert isinstance(three, Chain) and (three.base, three.depth) == ("0", 3)
    assert _flat(three) == _flat(["s", ["s", ["s", "0"]]]) == _flat(["s", Chain("0", 2)])
    assert _flat(three) == _flat(Chain("0", 3))
    for other in (["s", ["s", "0"]], ["s", ["s", ["s", "x"]]], ["s", ["s", ["t", "0"]]],
                  ["s", ["s", ["s", "0", "0"]]], Chain("0", 2), Chain("x", 3), "0", None):
        assert _flat(three) != _flat(other)
    assert render(three) == "(s (s (s 0)))"
    assert term_from_sexpr(three) is numeral(3) is term_from_sexpr(["s", ["s", ["s", "0"]]])
