"""Proof kernel for cyclic sequent-calculus derivations over arithmetic.

The package splits into a syntax layer (terms, formulas, classification),
a calculus layer (sequents, rules, finite trees), the cyclic machinery
(annotations, validation, graph/tree conversions), certificate extraction,
programmatic proof builders, and a command-line front end.

The trusted core is `sexpr`, `syntax`, `calculus`, `records`, `annotation`
and `checker`: the code that reads a proof, judges it with
`checker.validate` and renders the verdict (`records` declares the report
that `checker` renders, and the certificate and graph besides).  A `valid`
verdict is only as good as this code, so the core is kept small enough to
read whole and imports nothing from outside itself (tests/test_core.py
checks the imports).  The other modules
-- `derived` (sugar expansion, fresh names, classification), `semantics`,
`transform`, `uncycle`, `builders` and `cli` -- build proofs that
`validate` then judges, or report on proofs without judging them, so a
fault in them cannot change what `validate` decides.
"""

from .syntax import (Add, All, AllLe, And, CaptureError, DELTA0, Eq, Ex, ExLe,
                     Formula, Le, Mul, NLe, Neq, Or, PI, ParseError, SIGMA,
                     Succ, Term, V, Var, ZERO, Zero, free_vars, iff, impl,
                     is_in, negate, numeral, parse_formula, parse_term,
                     render_formula, render_term, substitute)
from .derived import classify, desugar
from .semantics import (DEFAULT_CUTOFF, DEFAULT_VALUE_BOUND, TV,
                        all_assignments, eval_formula, eval_term,
                        sequent_truth)
from .calculus import (Add0Rule, AddSRule, AllRule, AndRule, AssumeLeaf,
                       AxiomLeaf, BackLeaf, CaseRule, CutRule, ExRule,
                       Mult0Rule, MultSRule, OpenLeaf, OrRule, PredRule,
                       ProofNode, RefRule, RepRule, Rule, Sequent, StepError,
                       WeakRule, check_step, is_axiom,
                       parse_proof, parse_sequent, premises_of, render_proof,
                       walk)
from .annotation import (Mode, System, annotate_tree, erase, is_annotated,
                         is_plain, parse_aseq, propagate)
from .checker import (ValidationReport, Violation, check_tree, parse_report,
                      render_report, validate)
from .transform import (RavelError, RegularProofGraph, expand_graph, graph_of,
                        parse_graph, prefix_equal, ravel, render_graph,
                        unravel)
from .uncycle import (ExtractionError, InductionCertificate, Obligation,
                      certificate_with_theta, check_certificate_bounded,
                      extract_all, extract_certificate, parse_certificate,
                      render_certificate, soundness_sample)
from .builders import (PreError, forall_cycle_proof, induction_rule_proof,
                       induction_rule_via_assumptions, induction_schema_proof,
                       omega_truncation, prove_ground_atom, step_from_assumption,
                       tautology, two_loops_proof)

__version__ = "0.1.0"
