"""The record schemas (cyclarith.records): every report, certificate and
graph reads back as the value it was rendered from, and each reader accepts
exactly the records its renderer writes, entry by entry."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from cyclarith import (
    Add,
    And,
    AndRule,
    AxiomLeaf,
    CaseRule,
    CutRule,
    Eq,
    InductionCertificate,
    Mode,
    Neq,
    Obligation,
    OpenLeaf,
    ParseError,
    RegularProofGraph,
    Sequent,
    Succ,
    System,
    ValidationReport,
    Var,
    V,
    Violation,
    WeakRule,
    ZERO,
    check_certificate_bounded,
    extract_all,
    graph_of,
    is_plain,
    parse_certificate,
    parse_graph,
    parse_proof,
    parse_report,
    render_certificate,
    render_graph,
    render_report,
    validate,
)
from cyclarith import sexpr
from cyclarith.builders import build_corpus
from cyclarith.checker import REPORT, ProofStats
from cyclarith.records import Record, fields_of
from cyclarith.syntax import TOP
from cyclarith.transform import GNode, GRAPH
from cyclarith.uncycle import CERTIFICATE, EDGE_TAGS, KINDS, STATUSES

_VALID = ("(report\n  (verdict valid)\n"
          "  (stats (nodes 3) (backlinks 1) (cycles 2)))")
_CERT = render_certificate(InductionCertificate(
    level=0, system=System.SN, root="r", m_nodes=("r", "s"), phi_root=TOP,
    phi_root_trivial=True, theta=Eq(V(Var("x")), ZERO), zeta=Eq(V(Var("z")), ZERO),
    fresh_z=Var("z"), case_vars=(Var("x"),), b_vars=(), c_nodes=("r",),
    ranks={"r": 0, "s": 1},
    obligations=(Obligation("base", TOP, TOP, "unchecked", ("r",)),),
    edge_tags=(("r", "s", "H"),), notes=("a note",)))


def _entry(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("text,message", [
    (_entry(_VALID, "  (stats", '  (violation (node n0) (tag X) (message "m"))\n  (stats'),
     "a report is valid exactly when it has no violation"),
    (_entry(_VALID, "(verdict valid)", "(verdict invalid)"),
     "a report is valid exactly when it has no violation"),
])
def test_a_report_is_valid_exactly_when_it_has_no_violation(text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_report(text)


@pytest.mark.parametrize("old,new", [
    ("(verdict valid)", "(verdict valid) (verdict valid)"),
    ("(stats", "(stats (nodes 3) (backlinks 1) (cycles 2)) (stats"),
])
def test_a_report_has_one_verdict_and_one_stats(old, new):
    with pytest.raises(ParseError, match=r"^bad report entry \((verdict|stats) "):
        parse_report(_entry(_VALID, old, new))


@pytest.mark.parametrize("old,new", [
    ("(nodes 3)", "(nodes -3)"), ("(backlinks 1)", "(backlinks -1)"),
    ("(cycles 2)", "(cycles 2 -1)"), ("(nodes 3)", "(nodes 03)"),
])
def test_report_counts_are_natural_numbers(old, new):
    with pytest.raises(ParseError, match=r"^bad report entry \(stats "):
        parse_report(_entry(_VALID, old, new))


@pytest.mark.parametrize("old,new", [
    ("(level 0)", "(level 0)\n  (level 0)"), ("(level 0)", "(level -2)"),
])
def test_a_certificate_has_one_natural_level(old, new):
    with pytest.raises(ParseError, match=r"^bad certificate entry \(level "):
        parse_certificate(_entry(_CERT, old, new))


@pytest.mark.parametrize("old,new", [
    ("(status unchecked)", "(status proved-by-magic)"),
    ("(status unchecked)", '(status "unchecked")'),
    ("(kind base)", "(kind basis)"), ("(mode sn)", "(mode sigma)"),
    ("(r s H)", "(r s Z)"),
])
def test_certificate_fields_of_a_closed_set_take_its_members_only(old, new):
    with pytest.raises(ParseError, match=r"^bad certificate entry "):
        parse_certificate(_entry(_CERT, old, new))


@pytest.mark.parametrize("old,new,message", [
    ("(phi-root (eq 0 0) trivial)", "(phi-root (eq 0 0))",
     r"^phi-root is trivial exactly when it is \(eq 0 0\)$"),
    ("(ranks (r 0) (s 1))", "(ranks (r 0))", "^ranks must name exactly the nodes of m$"),
    ("(ranks (r 0) (s 1))", "(ranks (s 1) (r 0))", r"^bad certificate entry \(ranks "),
    ("(ranks (r 0) (s 1))", "(ranks (r 0) (r 0) (s 1))", r"^bad certificate entry \(ranks "),
    ("(root r)", '(root "r")', r"^bad certificate entry \(root "),
    ('(note "a note")', "(note a)", r"^bad certificate entry \(note a\)$"),
    ("(level 0)", "", "^bad certificate entry \\(mode sn\\)$"),
])
def test_certificate_reader_rejects_what_its_renderer_never_writes(old, new, message):
    with pytest.raises(ParseError, match=message):
        parse_certificate(_entry(_CERT, old, new))


def test_readers_name_a_missing_entry_and_a_wrong_head():
    with pytest.raises(ParseError, match=r"^report lacks a stats$"):
        parse_report("(report (verdict valid))")
    with pytest.raises(ParseError, match=r"^expected \(report \.\.\.\)$"):
        parse_report("(certificate)")
    with pytest.raises(ParseError, match=r"^graph lacks a root$"):
        parse_graph("(graph)")
    with pytest.raises(ParseError, match=r"^duplicate node id a$"):
        parse_graph("(graph (root a) (gnode :id a (seq) (axiom) (children))"
                    " (gnode :id a (seq) (axiom) (children)))")


@dataclass(frozen=True)
class _Pair:
    first: int
    second: str


@dataclass(frozen=True)
class _Box:
    only: int


def test_fields_of_binds_fields_by_name_in_the_file_order():
    swapped = Record("(pair (s q) (f n))", types={"pair": fields_of(_Pair, "second first")})
    assert swapped.render(_Pair(3, "x")) == '(pair\n  (s "x")\n  (f 3))'
    assert swapped.parse('(pair (s "x") (f 3))') == _Pair(3, "x")
    box = Record("(box (only n))", types={"box": fields_of(_Box, "only")})
    assert box.render(_Box(7)) == "(box\n  (only 7))"
    assert box.parse("(box (only 7))") == _Box(7)


# --- every record of the examples corpora ---------------------------------------

@pytest.fixture(scope="module")
def corpus_records():
    """The reports, certificates and graphs of `examples --seed 1..3`."""
    reports, certs, graphs = [], [], []
    for seed in (1, 2, 3):
        for entry in build_corpus(seed):
            root = parse_proof(entry.text)
            mode = Mode(System(entry.system), entry.level, frozenset(entry.assume))
            reports.append(validate(root, mode, plain=is_plain(root)))
            if entry.kind != "cyclic":
                continue
            graphs.append(graph_of(root))
            for _, cert in extract_all(root, mode):
                certs += [cert, check_certificate_bounded(cert, 2, 4).certificate]
    return reports, certs, graphs


def test_every_corpus_record_reads_back_as_itself(corpus_records):
    reports, certs, graphs = corpus_records
    assert (len(reports), len(certs), len(graphs)) == (84, 96, 45)
    assert any(not r.valid for r in reports)
    for report in reports:
        assert parse_report(render_report(report, "sexpr")) == report
    for cert in certs:
        assert parse_certificate(render_certificate(cert)) == cert
    for g in graphs:
        assert parse_graph(render_graph(g)) == g


def _mutants(value, rng):
    """value, a record read as plain lists, with one entry, or one item of an
    entry, deleted, doubled, swapped with its successor or replaced by another
    atom of the record."""
    atoms = [a for a in sexpr.render(value).replace("(", " ").replace(")", " ").split()
             if '"' not in a] + ["-1", "007"]
    for _ in range(30):
        out = [list(e) if isinstance(e, list) else e for e in value]
        where = out if rng.random() < 0.4 else rng.choice(
            [e for e in out[1:] if isinstance(e, list) and len(e) > 1])
        i = rng.randrange(1, len(where))
        roll = rng.randrange(4)
        if roll == 0:
            del where[i]
        elif roll == 1:
            where.insert(i, where[i])
        elif roll == 2 and i + 1 < len(where):
            where[i], where[i + 1] = where[i + 1], where[i]
        elif not isinstance(where[i], list):
            where[i] = rng.choice(atoms)
        yield out


@pytest.mark.parametrize("record", ["report", "certificate", "graph"])
def test_a_reader_accepts_a_changed_record_only_as_its_renderer_writes_it(
        corpus_records, record):
    schema, values = {"report": (REPORT, corpus_records[0]),
                      "certificate": (CERTIFICATE, corpus_records[1]),
                      "graph": (GRAPH, corpus_records[2])}[record]
    rng = random.Random(61)
    outcomes = set()
    small = sorted(values, key=lambda v: len(schema.render(v)))[:len(values) // 2]
    for value in rng.sample(small, 12):
        for mutant in _mutants(sexpr.parse(schema.render(value)), rng):
            try:
                back = schema.read(sexpr.parse(sexpr.render(mutant)))
            except ParseError:
                outcomes.add("refused")
                continue
            outcomes.add("read")
            assert sexpr.render(sexpr.parse(schema.render(back))) == sexpr.render(mutant)
    assert outcomes == {"read", "refused"}


# --- generated records --------------------------------------------------------

_ids = st.from_regex(r"[a-z][a-z0-9.~]{0,3}", fullmatch=True)
_vars = st.sampled_from(["x", "y", "z", "$0", "u'"]).map(Var)
_terms = st.recursive(st.one_of(st.just(ZERO), _vars.map(V)),
                      lambda ts: st.one_of(ts.map(Succ), st.builds(Add, ts, ts)),
                      max_leaves=4)
_formulas = st.recursive(
    st.builds(lambda cls, a, b: cls(a, b), st.sampled_from([Eq, Neq]), _terms, _terms),
    lambda fs: st.builds(And, fs, fs), max_leaves=3)
_naturals = st.integers(0, 10 ** 6)
_settings = settings(max_examples=60, deadline=None, database=None)


@st.composite
def _reports(draw):
    violations = draw(st.lists(st.builds(Violation, _ids, _ids, st.text()), max_size=3))
    stats = ProofStats(draw(_naturals), draw(_naturals),
                       tuple(draw(st.lists(_naturals, max_size=3))))
    return ValidationReport("invalid" if violations else "valid", tuple(violations), stats)


@st.composite
def _certificates(draw):
    m = draw(st.lists(_ids, min_size=1, max_size=4, unique=True))
    phi = draw(st.one_of(st.just(TOP), _formulas))
    return InductionCertificate(
        level=draw(_naturals), system=draw(st.sampled_from(list(System))),
        root=draw(_ids), m_nodes=tuple(m), phi_root=phi, phi_root_trivial=phi == TOP,
        theta=draw(_formulas), zeta=draw(_formulas), fresh_z=draw(_vars),
        case_vars=tuple(draw(st.lists(_vars, max_size=2))),
        b_vars=tuple(draw(st.lists(_vars, max_size=2))),
        c_nodes=tuple(draw(st.lists(st.sampled_from(m), max_size=2))),
        ranks={nid: draw(_naturals) for nid in sorted(m)},
        obligations=tuple(draw(st.lists(st.builds(
            Obligation, st.sampled_from(KINDS), _formulas, _formulas,
            st.sampled_from(STATUSES), st.lists(_ids, max_size=2).map(tuple)), max_size=3))),
        edge_tags=tuple(draw(st.lists(st.tuples(
            _ids, _ids, st.sampled_from(sorted(set(EDGE_TAGS.values())))), max_size=3))),
        notes=tuple(draw(st.lists(st.text(), max_size=2))))


@st.composite
def _graphs(draw):
    """A chain of graph nodes, each also pointing at any node: every node is
    reachable, and edges may go back up."""
    ids = draw(st.lists(_ids, min_size=1, max_size=5, unique=True))
    nodes = {}
    for i, nid in enumerate(ids):
        seq = Sequent(draw(st.lists(_formulas, max_size=2)))
        vs = draw(st.one_of(st.none(), st.frozensets(_vars, max_size=2)))
        if i + 1 == len(ids):
            rule, kids = draw(st.sampled_from([AxiomLeaf(), OpenLeaf()])), ()
        else:
            f = draw(_formulas)
            rule = draw(st.sampled_from([WeakRule(Sequent([f])), CutRule(f), AndRule(f),
                                         CaseRule(draw(_vars))]))
            kids = (ids[i + 1],) + tuple(draw(st.sampled_from(ids))
                                         for _ in range(rule.premises - 1))
        nodes[nid] = GNode(nid, seq, vs, rule, kids)
    return RegularProofGraph(ids[0], nodes)


@_settings
@given(_reports())
def test_generated_reports_read_back_as_themselves(report):
    assert parse_report(render_report(report, "sexpr")) == report


@_settings
@given(_certificates())
def test_generated_certificates_read_back_as_themselves(cert):
    assert parse_certificate(render_certificate(cert)) == cert


@_settings
@given(_graphs())
def test_generated_graphs_read_back_as_themselves(g):
    assert parse_graph(render_graph(g)) == g
