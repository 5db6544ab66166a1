import os
import random
import sys

import pytest

from cyclarith import (
    erase,
    graph_of,
    parse_certificate,
    parse_formula,
    parse_proof,
    parse_report,
    render_certificate,
    render_graph,
    render_proof,
)
from cyclarith.builders import build_corpus
from cyclarith.cli import main
from conftest import graph_with, mutate_document


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert main(["examples", str(d), "--seed", "3"]) == 0
    return d


def _run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_examples_manifest(corpus_dir):
    manifest = (corpus_dir / "MANIFEST").read_text().splitlines()
    names = {line.split()[0] for line in manifest}
    files = set(os.listdir(corpus_dir)) - {"MANIFEST"}
    assert names == files
    kinds = {line.split()[1] for line in manifest}
    assert kinds <= {"cyclic", "tree", "tree-open", "assumptions"}


def test_examples_deterministic(tmp_path, corpus_dir):
    d2 = tmp_path / "again"
    assert main(["examples", str(d2), "--seed", "3"]) == 0
    for name in os.listdir(corpus_dir):
        assert (d2 / name).read_text() == (corpus_dir / name).read_text(), name


def test_check_valid(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["check", str(corpus_dir / "ind_schema_pi1.cyc"),
                               "--system", "sn", "--level", "0"])
    assert rc == 0
    assert "verdict: valid" in out


def test_check_sexpr_format_round_trips(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["check", str(corpus_dir / "ind_schema_pi1.cyc"),
                               "--system", "sn", "--level", "0", "--format", "sexpr"])
    assert rc == 0
    assert parse_report(out).verdict == "valid"


def test_check_wrong_system_fails(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["check", str(corpus_dir / "ind_schema_pi1.cyc"),
                               "--system", "ssigma", "--level", "0"])
    assert rc == 1
    assert "invalid" in out


def test_check_plain_tree(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["check", str(corpus_dir / "taut_00.prf")])
    assert rc == 0
    assert "valid" in out


def test_check_open_tree_fails(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["check", str(corpus_dir / "omega_k3.prf")])
    assert rc == 1


def test_check_with_assumptions(capsys, corpus_dir):
    rc, _, _ = _run(capsys, ["check", str(corpus_dir / "ind_rule_assume.cyc"),
                             "--system", "spi", "--level", "0",
                             "--assume", str(corpus_dir / "ind_rule_assume.assume")])
    assert rc == 0
    # without the assumption file the leaves are unjustified
    rc2, _, _ = _run(capsys, ["check", str(corpus_dir / "ind_rule_assume.cyc"),
                              "--system", "spi", "--level", "0"])
    assert rc2 == 1


def test_annotate_round_trip(capsys, tmp_path, corpus_dir):
    # strip annotations, re-annotate, compare bytes
    src = (corpus_dir / "ind_schema_pi1.cyc").read_text()
    from cyclarith import erase

    plain = tmp_path / "plain.prf"
    plain.write_text(render_proof(erase(parse_proof(src))) + "\n")
    out_file = tmp_path / "re.cyc"
    rc = main(["annotate", str(plain), "x", "--system", "sn", "--level", "0",
               "-o", str(out_file)])
    assert rc == 0
    assert out_file.read_text().strip() == src.strip()


def test_annotate_rejects_annotated(capsys, corpus_dir):
    rc, _, err = _run(capsys, ["annotate", str(corpus_dir / "ind_schema_pi1.cyc"), "x",
                               "--system", "sn", "--level", "0"])
    assert rc == 2


def test_annotate_reports_an_all_principal_that_is_no_universal(capsys, tmp_path):
    prf = tmp_path / "all.prf"
    prf.write_text("(node :id n0 (seq (eq x 0) (all y (eq y y))) (rule all (eq x 0) z)\n"
                   "  (node :id n1 (seq (eq x 0)) (axiom)))\n")
    rc, out, err = _run(capsys, ["annotate", str(prf), "x"])
    assert (rc, out) == (1, "")
    assert err == "annotation failed: (all) principal is not universal: (eq x 0)\n"


def test_unravel_then_check(capsys, tmp_path, corpus_dir):
    out_file = tmp_path / "unr.prf"
    rc = main(["unravel", str(corpus_dir / "ind_schema_pi1.cyc"),
               "--depth", "6", "-o", str(out_file)])
    assert rc == 0
    t = parse_proof(out_file.read_text())
    assert render_proof(t).strip() == out_file.read_text().strip()


def test_ravel_graph_round_trip(capsys, tmp_path, corpus_dir):
    # proof -> graph -> proof through files only
    from cyclarith import graph_of, render_graph

    src = parse_proof((corpus_dir / "ind_schema_pi1.cyc").read_text())
    gfile = tmp_path / "g.graph"
    gfile.write_text(render_graph(graph_of(src)) + "\n")
    back = tmp_path / "back.cyc"
    rc = main(["ravel", str(gfile), "--system", "sn", "--level", "0", "-o", str(back)])
    assert rc == 0
    rc2, out, _ = _run(capsys, ["check", str(back), "--system", "sn", "--level", "0"])
    assert rc2 == 0


def test_uncycle_text_output(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["uncycle", str(corpus_dir / "ind_schema_pi1.cyc"),
                               "--system", "sn", "--level", "0"])
    assert rc == 0
    assert "theta" in out
    assert "(all<= x z (or (neq x z) (all y (eq (add x y) (add y x)))))" in out


def test_uncycle_sexpr_round_trips(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["uncycle", str(corpus_dir / "ind_rule_add0.cyc"),
                               "--system", "spi", "--level", "0",
                               "--assume", str(corpus_dir / "ind_rule_assume.assume"),
                               "--format", "sexpr"])
    assert rc == 0
    cert = parse_certificate(out)
    assert render_certificate(cert).strip() == out.strip()


def test_uncycle_multiple_certificates(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["uncycle", str(corpus_dir / "two_loops.cyc"),
                               "--system", "sn", "--level", "0"])
    assert rc == 0
    assert out.count("theta") >= 2


def test_eval(capsys):
    rc, out, _ = _run(capsys, ["eval", "(eq (add x (s 0)) (s x))", "--assign", "x=4"])
    assert rc == 0 and out.strip() == "true"
    rc, out, _ = _run(capsys, ["eval", "(neq 0 0)"])
    assert rc == 0 and out.strip() == "false"
    rc, out, _ = _run(capsys, ["eval", "(all x (le 0 x))", "--cutoff", "4"])
    assert rc == 0 and out.strip() == "unknown"


def test_eval_bad_assignment(capsys):
    # only [0-9]+ is a value: str.isdigit() holds for "²" and "٣", which
    # int() refuses or reads as 3
    for value in ("-1", "²", "٣", "-0", "+1", "1_0", "", " 4"):
        assert _run(capsys, ["eval", "(eq x 0)", "--assign", f"x={value}"]) == \
            (2, "", f"error: bad assignment {f'x={value}'!r}, want name=nat\n")
    assert _run(capsys, ["eval", "(eq x (s (s 0)))", "--assign", "x=002"]) == (0, "true\n", "")


def test_eval_nested_too_deep(capsys):
    rc, out, err = _run(capsys, ["eval", "(" * 25000 + ")" * 25000])
    assert rc == 2
    assert out == ""
    assert err.startswith("parse error: bad formula ((((")


def test_eval_error_message_cuts_a_deep_value(capsys):
    depth = 30000
    rc, out, err = _run(capsys, ["eval", "(foo " + "(s " * depth + "0" + ")" * depth + " 0)"])
    assert rc == 2
    assert out == ""
    assert err.startswith("parse error: bad formula (foo (s (s")
    assert len(err.encode()) < 1024


def test_eval_error_message_cuts_a_long_atom(capsys):
    rc, out, err = _run(capsys, ["eval", "a" * 5000])
    assert (rc, out, err) == (2, "", "parse error: bad formula '" + "a" * 80 + "'\n")
    rc, out, err = _run(capsys, ["eval", "(all 1" + "a" * 5000 + " (eq 0 0))"])
    assert (rc, out, err) == (2, "", "parse error: bad variable name '1" + "a" * 79 + "'\n")


def test_eval_deep_conjunction_and_quantifier_nest(capsys):
    n = 3000
    conj = "(and (eq x x) " * n + "{}" + ")" * n
    assert _run(capsys, ["eval", conj.format("(eq x 0)"), "--assign", "x=0"]) == (0, "true\n", "")
    assert _run(capsys, ["eval", conj.format("(eq x (s 0))"), "--assign", "x=0"]) == \
        (0, "false\n", "")
    nest = "(all y " * n + "{}" + ")" * n
    assert _run(capsys, ["eval", nest.format("(eq y y)")]) == (0, "unknown\n", "")
    assert _run(capsys, ["eval", nest.format("(le (s 0) y)")]) == (0, "false\n", "")


def test_prove_ground(capsys, tmp_path):
    out_file = tmp_path / "g.prf"
    rc = main(["prove-ground", "(eq (add (s 0) (s 0)) (s (s 0)))", "-o", str(out_file)])
    assert rc == 0
    from cyclarith import check_tree

    assert check_tree(parse_proof(out_file.read_text())) == []


def test_prove_ground_polarity_mismatch(capsys):
    rc, _, err = _run(capsys, ["prove-ground", "(eq (s 0) 0)"])
    assert rc == 1
    assert "holds instead" in err


def test_usage_errors(capsys):
    rc, _, _ = _run(capsys, ["check", "/nonexistent/file.prf"])
    assert rc == 2
    rc, _, _ = _run(capsys, ["eval", "(eq 0"])
    assert rc == 2


@pytest.mark.parametrize("cmd", ["check", "ravel", "assume"])
def test_undecodable_input_is_a_usage_error(capsys, tmp_path, corpus_dir, cmd):
    bad = tmp_path / "bad"
    bad.write_bytes(b"(node\n" + b" " * 9000 + b"\xff\xfe(node")
    if cmd == "assume":
        argv = ["check", str(corpus_dir / "ind_rule_assume.cyc"), "--system", "spi",
                "--assume", str(bad)]
    else:
        argv = [cmd, str(bad)]
    rc, _, err = _run(capsys, argv)
    assert rc == 2
    assert err == f"error: cannot read {bad}: not UTF-8 (byte 0xff at offset 9006)\n"


def test_examples_failed_write_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "MANIFEST").mkdir()
    rc, _, err = _run(capsys, ["examples", str(tmp_path)])
    assert rc == 2
    assert err.startswith(f"error: cannot write {tmp_path / 'MANIFEST'}: ")


def _check_argv(corpus_dir, *out):
    return ["check", str(corpus_dir / "ind_schema_pi1.cyc"), "--format", "sexpr", *out]


def test_out_overwrites_a_longer_file_in_place(capsys, tmp_path, corpus_dir):
    out_file = tmp_path / "rep"
    out_file.write_bytes(b"x" * 100_000)
    inode = out_file.stat().st_ino
    assert _run(capsys, _check_argv(corpus_dir, "-o", str(out_file)))[:2] == (0, "")
    _, stdout, _ = _run(capsys, _check_argv(corpus_dir))
    assert out_file.read_bytes() == stdout.encode("utf-8")
    assert out_file.stat().st_ino == inode


def test_out_writes_through_a_symlink(capsys, tmp_path, corpus_dir):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old " * 1000)
    link.symlink_to(target)
    assert _run(capsys, _check_argv(corpus_dir, "-o", str(link)))[0] == 0
    assert link.is_symlink()
    assert target.read_text().startswith("(report")


def test_out_keeps_the_mode_and_creates_with_the_default(capsys, tmp_path, corpus_dir):
    kept, made = tmp_path / "kept", tmp_path / "made"
    kept.write_text("old")
    kept.chmod(0o600)
    umask = os.umask(0o022)
    os.umask(umask)
    for path in (kept, made):
        assert _run(capsys, _check_argv(corpus_dir, "-o", str(path)))[0] == 0
    assert kept.stat().st_mode & 0o777 == 0o600
    assert made.stat().st_mode & 0o777 == 0o666 & ~umask
    assert kept.read_text() == made.read_text()


def test_out_to_dev_null(capsys, corpus_dir):
    assert _run(capsys, _check_argv(corpus_dir, "-o", os.devnull)) == (0, "", "")


@pytest.mark.parametrize("where", [".", "missing/rep"])
def test_out_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, corpus_dir, where):
    out = tmp_path / where
    rc, _, err = _run(capsys, _check_argv(corpus_dir, "-o", str(out)))
    assert rc == 2
    assert err.startswith(f"error: cannot write {out}: ")


def test_main_gives_back_the_callers_recursion_limit(capsys, corpus_dir):
    cyc = str(corpus_dir / "ind_schema_pi1.cyc")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1234)
    try:
        for argv, code in [(["check", cyc], 0),
                           (["check", cyc, "--system", "ssigma"], 1),
                           (["check", "/nonexistent/file.prf"], 2),   # CliError
                           (["eval", "(eq 0"], 2)]:                   # ParseError
            assert _run(capsys, argv)[0] == code, argv
            assert sys.getrecursionlimit() == 1234, argv
        with pytest.raises(SystemExit):
            main(["check"])                                           # bad argv
        assert sys.getrecursionlimit() == 1234
    finally:
        sys.setrecursionlimit(limit)


def test_corpus_files_all_check(capsys, corpus_dir):
    manifest = (corpus_dir / "MANIFEST").read_text().splitlines()
    for line in manifest:
        name, kind, system, level = line.split()
        if kind == "assumptions" or kind == "tree-open":
            continue
        argv = ["check", str(corpus_dir / name), "--system", system, "--level", level]
        stem = name.rsplit(".", 1)[0]
        assume = corpus_dir / (stem + ".assume")
        if assume.exists():
            argv += ["--assume", str(assume)]
        rc, out, err = _run(capsys, argv)
        assert rc == 0, (name, out, err)


def test_eval_deep_equation(capsys):
    num = lambda k: "(s " * k + "0" + ")" * k  # noqa: E731
    rc, out, err = _run(capsys, ["eval", f"(eq (add {num(15000)} {num(15000)}) {num(30000)})"])
    assert (rc, out.strip(), err) == (0, "true", "")


def test_eval_deep_open_equation(capsys):
    text = "(eq " + "(add " * 25000 + "x" + " 0)" * 25000 + " x)"
    rc, out, err = _run(capsys, ["eval", text, "--assign", "x=1"])
    assert (rc, out, err) == (0, "true\n", "")


@pytest.mark.parametrize("target", ["zz", "n4"])
def test_unravel_bad_back_link(capsys, tmp_path, corpus_dir, target):
    # a dangling back-link, and a back leaf n4 that targets itself
    text = (corpus_dir / "ind_schema_pi1.cyc").read_text()
    assert text.count("(back n0)") == 1
    bad = tmp_path / "bad.cyc"
    bad.write_text(text.replace("(back n0)", f"(back {target})"))
    rc, out, err = _run(capsys, ["unravel", str(bad), "--depth", "5"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_ravel_rejects_fake_axiom_leaf(capsys, tmp_path, corpus_dir):
    from cyclarith import AxiomLeaf, graph_of, render_graph

    proof = parse_proof((corpus_dir / "ind_schema_pi1.cyc").read_text())
    g = tmp_path / "g.graph"
    g.write_text(render_graph(graph_with(graph_of(proof), "a.t3",
                                         rule=AxiomLeaf(), children=())) + "\n")
    rc, out, err = _run(capsys, ["ravel", str(g), "--system", "sn", "--level", "0"])
    assert (rc, out) == (1, "")
    assert err.startswith("ravel failed: AxiomLeaf at a.t3: not an axiom: ")


def test_ravel_rejects_undeclared_assumption(capsys, tmp_path, corpus_dir):
    from cyclarith import graph_of, render_graph

    proof = parse_proof((corpus_dir / "ind_rule_assume.cyc").read_text())
    g = tmp_path / "g.graph"
    g.write_text(render_graph(graph_of(proof)) + "\n")
    flags = ["--system", "spi", "--level", "0"]
    rc, out, err = _run(capsys, ["ravel", str(g), *flags])
    assert (rc, out) == (1, "")
    assert err.startswith("ravel failed: AssumeLeaf at ")
    rc, out, _ = _run(capsys, ["ravel", str(g), *flags,
                               "--assume", str(corpus_dir / "ind_rule_assume.assume")])
    assert rc == 0 and out.startswith("(node ")


def test_check_plain_tree_uses_the_validator_leaf_messages(capsys, corpus_dir):
    rc, out, _ = _run(capsys, ["check", str(corpus_dir / "omega_k3.prf"), "--format", "sexpr"])
    assert rc == 1
    report = parse_report(out)
    assert [(v.tag, v.message) for v in report.violations] == \
        [("Tree", "open leaves are not allowed")]


@pytest.mark.parametrize("argv", [
    ["check", "taut_00.prf", "--level", "-1"],
    ["uncycle", "ind_schema_pi1.cyc", "--bound", "-1"],
    ["uncycle", "ind_schema_pi1.cyc", "--cutoff", "-1"],
    ["eval", "(eq x x)", "--cutoff", "-1"],
    ["unravel", "ind_schema_pi1.cyc", "--depth", "-1"],
])
def test_negative_flags_are_usage_errors(capsys, corpus_dir, argv):
    # a negative --bound would evaluate an open obligation at no grid point
    # and call it bounded-true
    if argv[0] != "eval":
        argv = [argv[0], str(corpus_dir / argv[1]), *argv[2:]]
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {argv[-2]} must be >= 0, got -1\n"


def test_parser_is_built_once_and_keeps_no_assumptions(capsys, corpus_dir):
    from cyclarith.cli import _parser

    assert _parser() is _parser()
    proof = str(corpus_dir / "ind_rule_assume.cyc")
    flags = ["--system", "spi", "--level", "0"]
    rc, out, _ = _run(capsys, ["check", proof, *flags,
                               "--assume", str(corpus_dir / "ind_rule_assume.assume")])
    assert (rc, "verdict: valid" in out) == (0, True)
    # the second call must not inherit the first one's --assume
    rc, out, _ = _run(capsys, ["check", proof, *flags])
    assert rc == 1 and "AssumeLeaf at " in out
    assert _parser().parse_args(["check", proof]).assume == []


def _strip_annotation(text, node_id):
    from cyclarith import sexpr

    tree = sexpr.parse(text)
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[2] == node_id:
            assert node[3][0] == "aseq"
            node[3] = node[3][1]
            return sexpr.render(tree)
        stack.extend(node[5:])
    raise AssertionError(node_id)


def _retarget(text, target):
    from cyclarith import sexpr

    tree = sexpr.parse(text)
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[4][0] == "back":
            node[4][1] = target
            return sexpr.render(tree)
        stack.extend(node[5:])
    raise AssertionError("no back leaf")


def _drop_variable(text, node_id):
    from cyclarith import sexpr

    tree = sexpr.parse(text)
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[2] == node_id:
            node[3][2] = node[3][2][:-1]
            return sexpr.render(tree)
        stack.extend(node[5:])
    raise AssertionError(node_id)


@pytest.mark.parametrize("fmt", ["text", "sexpr"])
@pytest.mark.parametrize("name,flags,mutate", [
    ("ind_schema_pi1.cyc", [], lambda t: _strip_annotation(t, "n2")),
    ("ind_schema_pi1.cyc", [], lambda t: _drop_variable(t, "n0")),
    ("ind_schema_pi1.cyc", [], lambda t: _retarget(t, "n2")),
    ("ind_schema_pi1.cyc", [], lambda t: _retarget(t, "zz")),
    ("two_loops.cyc", [], lambda t: _drop_variable(t, "q.r0")),
    ("ind_rule_add0.cyc", ["--system", "spi"], lambda t: _retarget(t, "r1")),
])
def test_uncycle_of_an_invalid_proof_reports_what_check_reports(
        capsys, tmp_path, corpus_dir, fmt, name, flags, mutate):
    bad = tmp_path / "bad.cyc"
    bad.write_text(mutate((corpus_dir / name).read_text()) + "\n")
    flags = [*flags, "--format", fmt]
    check = _run(capsys, ["check", str(bad), *flags])
    uncycle = _run(capsys, ["uncycle", str(bad), *flags])
    assert check[0] == 1
    assert uncycle == (1, "", check[1])


def test_check_partly_annotated_proof_reports_the_unannotated_node(capsys, tmp_path, corpus_dir):
    bad = tmp_path / "partial.cyc"
    bad.write_text(_strip_annotation((corpus_dir / "ind_schema_pi1.cyc").read_text(), "n2"))
    rc, out, _ = _run(capsys, ["check", str(bad), "--format", "sexpr"])
    assert rc == 1
    assert [(v.tag, v.node_id) for v in parse_report(out).violations] == [("Unannotated", "n2")]


def test_check_erased_cyclic_proof_is_judged_as_a_plain_tree(capsys, tmp_path, corpus_dir):
    from cyclarith import erase

    plain = tmp_path / "plain.cyc"
    plain.write_text(render_proof(erase(parse_proof(
        (corpus_dir / "ind_schema_pi1.cyc").read_text()))) + "\n")
    rc, out, _ = _run(capsys, ["check", str(plain)])
    assert rc == 1
    assert "Tree at n4: back leaves are not allowed in a plain proof" in out


def test_ravel_partly_annotated_graph_reports_the_unannotated_node(capsys, tmp_path, corpus_dir):
    from cyclarith import graph_of, render_graph

    proof = parse_proof((corpus_dir / "ind_schema_pi1.cyc").read_text())
    g = tmp_path / "g.graph"
    g.write_text(render_graph(graph_with(graph_of(proof), "n2", vars=None)) + "\n")
    rc, out, err = _run(capsys, ["ravel", str(g)])
    assert (rc, out) == (1, "")
    assert err == "ravel failed: Unannotated at n2: node carries no annotation\n"


def test_ground_ladder_proves_checks_and_annotates(capsys, tmp_path):
    num = lambda k: "(s " * k + "0" + ")" * k  # noqa: E731
    prf, ann = str(tmp_path / "g.prf"), str(tmp_path / "g.cyc")
    for k in range(2, 41):
        goal = f"(eq (add {num(k)} {num(k)}) {num(2 * k)})"
        assert _run(capsys, ["prove-ground", goal, "-o", prf])[0] == 0, k
        for argv in (["check", prf], ["annotate", prf, "-o", ann], ["check", ann]):
            rc, out, err = _run(capsys, argv)
            assert (rc, err) == (0, ""), (k, argv, err)
            assert argv[0] == "annotate" or "verdict: valid" in out, (k, argv, out)
        with open(prf) as f:
            assert f.readline().startswith(f"(node :id g0 (seq {goal}) "), k


def test_subcommands_keep_the_exit_code_contract_on_mutated_files(capsys, tmp_path):
    # every proof file of examples --seed 1, token-mutated, through each
    # subcommand that reads one: the exit code is 0, 1 or 2 and no exception
    # escapes main
    assert main(["examples", str(tmp_path), "--seed", "1"]) == 0
    capsys.readouterr()
    entries = [e for e in build_corpus(1) if e.name.endswith((".cyc", ".prf"))]
    rng = random.Random(5)
    codes = {cmd: set() for cmd in ("check", "unravel", "ravel", "uncycle", "annotate")}
    for i in range(200):
        cmd = list(codes)[i % len(codes)]
        entry = rng.choice(entries)
        text = entry.text
        if cmd == "ravel":
            text = render_graph(graph_of(parse_proof(text)))
        elif cmd == "annotate":
            text = render_proof(erase(parse_proof(text)))
        path = tmp_path / "mutant"
        path.write_text(mutate_document(text, rng), encoding="utf-8")
        argv = [cmd, str(path)] + (["x"] if cmd == "annotate" else []) + ["--system", entry.system, "--level", str(entry.level),
                "-o", str(tmp_path / "out")]
        if entry.assume:
            argv += ["--assume", str(tmp_path / (entry.name.rsplit(".", 1)[0] + ".assume"))]
        argv += {"unravel": ["--depth", "4"], "uncycle": ["--no-check"]}.get(cmd, [])
        rc, _, err = _run(capsys, argv)
        assert rc in (0, 1, 2), (argv, err)
        assert "Traceback" not in err, (argv, err)
        codes[cmd].add(rc)
    assert all(len(seen) >= 2 for seen in codes.values()), codes
    assert set().union(*codes.values()) == {0, 1, 2}, codes


@pytest.mark.parametrize("head, want", [("eq", "true"), ("neq", "false")])
def test_eval_deep_numeral_equation(capsys, head, want):
    num = "(s " * 200000 + "0" + ")" * 200000
    rc, out, err = _run(capsys, ["eval", f"({head} {num} {num})"])
    assert (rc, out, err) == (0, want + "\n", "")


def test_check_refuses_an_open_assumed_formula(capsys, tmp_path):
    # an --assume file may hold an open formula; the leaf check refuses it
    proof, assume = tmp_path / "a.prf", tmp_path / "a.assume"
    proof.write_text("(node :id a (seq (eq x 0)) (assume (eq x 0)))\n")
    assume.write_text("(eq x 0)\n")
    rc, out, _ = _run(capsys, ["check", str(proof), "--assume", str(assume)])
    assert rc == 1
    assert "Tree at a: assumed formula must be a sentence" in out
