"""The library's public names: every name `cyclarith` exports is listed
here, so a move between modules that drops an export fails loudly, and a
new export must be added to the list."""

import types

import cyclarith

EXPORTS = """
    Add Add0Rule AddSRule All AllLe AllRule And AndRule AssumeLeaf AxiomLeaf
    BackLeaf CaptureError CaseRule CutRule DEFAULT_CUTOFF DEFAULT_VALUE_BOUND
    DELTA0 Eq Ex ExLe ExRule ExtractionError Formula InductionCertificate Le
    Mode Mul Mult0Rule MultSRule NLe Neq Obligation OpenLeaf Or OrRule PI
    ParseError PreError PredRule ProofNode RavelError RefRule RegularProofGraph
    RepRule Rule SIGMA Sequent StepError Succ System TV Term V ValidationReport
    Var Violation WeakRule ZERO Zero
    all_assignments annotate_tree certificate_with_theta check_certificate_bounded
    check_step classify desugar erase eval_formula eval_term
    expand_graph extract_all extract_certificate forall_cycle_proof graph_of iff
    impl induction_rule_proof induction_rule_via_assumptions
    induction_schema_proof is_annotated is_axiom is_in negate numeral
    omega_truncation parse_aseq parse_certificate parse_formula parse_graph
    parse_proof parse_report parse_sequent parse_term prefix_equal premises_of
    propagate prove_ground_atom ravel render_certificate render_graph
    render_proof render_report sequent_truth soundness_sample
    step_from_assumption substitute tautology two_loops_proof unravel validate
    walk
""".split()


def test_every_export_resolves():
    missing = [name for name in EXPORTS if not hasattr(cyclarith, name)]
    assert missing == []


def test_exports_are_the_listed_names():
    public = {name for name, value in vars(cyclarith).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(EXPORTS)


def test_syntax_aliases_are_gone():
    # `.fv`, `.sx` and `substitute` are the one way to each
    for name in ("free_vars", "render_formula", "render_term", "subst_term"):
        assert not hasattr(cyclarith.syntax, name)
