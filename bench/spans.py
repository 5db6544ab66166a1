"""Spans around the calls into each cyclarith module, for the traced run.

While a Tracer is installed, the names through which the CLI and the kernel
modules call each other's public functions are replaced by wrappers that
record one span per call: [op, id, parent, name, start, end, counts]. A
module that did `from .x import f` holds its own reference to f, so the
wrapper goes into the caller's namespace; `sexpr.parse` is always reached as
a module attribute and is wrapped in sexpr itself. Nothing under src/ is
edited, and the original functions are put back when tracing ends.

The counts of a span are taken after its end time, from the arguments and
the result, so counting is never part of the span's own time.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List


def _nodes(root) -> int:
    """Nodes of a proof tree (a ProofNode, or a CyclicProof via .root)."""
    stack, n = [getattr(root, "root", root)], 0
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def _bytes(args, result):
    return {"bytes": len(args[0])}


def _tree(args, result):
    return {"nodes": _nodes(result)}


def _report(args, result):
    return {"violations": len(result.violations), "nodes": result.stats.nodes}


def _certs(args, result):
    return {"certificates": len(result),
            "obligations": sum(len(cert.obligations) for _, cert in result)}


def _grid_point(args, result):
    return {"grid": 1, "decisive": int(str(result) != "unknown")}


# (module holding the name, attribute, span name, counter)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("sexpr", "parse", "sexpr.parse", _bytes),
    ("sexpr", "parse_many", "sexpr.parse", _bytes),
    ("cli", "parse_formula", "syntax.parse_formula", None),
    ("cli", "parse_proof", "calculus.parse_proof", _tree),
    ("calculus", "proof_from_sexpr", "calculus.proof_from_sexpr", _tree),
    ("cli", "parse_graph", "transform.parse_graph", None),
    ("cli", "render_proof", "calculus.render_proof", None),
    ("cli", "check_tree", "calculus.check_tree", None),
    ("calculus", "check_step", "calculus.check_step", None),
    ("checker", "check_step", "calculus.check_step", None),
    ("transform", "check_step", "calculus.check_step", None),
    ("cli", "annotate_tree", "annotation.annotate_tree", None),
    ("annotation", "propagate", "annotation.propagate", None),
    ("checker", "propagate", "annotation.propagate", None),
    ("transform", "propagate", "annotation.propagate", None),
    ("cli", "is_annotated", "annotation.is_annotated", None),
    ("cli", "validate", "checker.validate", _report),
    ("cli", "render_report", "checker.render_report", None),
    ("cli", "unravel", "transform.unravel", _tree),
    ("cli", "ravel", "transform.ravel", None),
    ("cli", "extract_all", "uncycle.extract_all", _certs),
    ("cli", "check_certificate_bounded", "uncycle.check_certificate_bounded", None),
    ("cli", "render_certificates", "uncycle.render_certificates", None),
    ("uncycle", "eval_formula", "semantics.eval_formula", _grid_point),
    ("cli", "eval_formula", "semantics.eval_formula", None),
    ("cli", "prove_ground_atom", "builders.prove_ground_atom", None),
    ("cli", "build_corpus", "builders.build_corpus", None),
)

PARSE_SPANS = frozenset({"sexpr.parse", "syntax.parse_formula", "calculus.parse_proof",
                         "calculus.proof_from_sexpr", "transform.parse_graph"})

# per-layer metric -> (span name, what to read: "s" summed time, or a count)
LAYER_METRICS = {
    "sexpr.parse_s": ("sexpr.parse", "s"),
    "sexpr.bytes_in": ("sexpr.parse", "bytes"),
    "syntax.parse_formula_s": ("syntax.parse_formula", "s"),
    "calculus.proof_from_sexpr_s": ("calculus.proof_from_sexpr", "s"),
    "calculus.nodes_parsed": ("calculus.proof_from_sexpr", "nodes"),
    "calculus.render_proof_s": ("calculus.render_proof", "s"),
    "calculus.check_tree_s": ("calculus.check_tree", "s"),
    "calculus.check_step_s": ("calculus.check_step", "s"),
    "calculus.check_step_calls": ("calculus.check_step", "calls"),
    "annotation.propagate_s": ("annotation.propagate", "s"),
    "annotation.propagate_calls": ("annotation.propagate", "calls"),
    "checker.validate_s": ("checker.validate", "s"),
    "checker.violations": ("checker.validate", "violations"),
    "transform.unravel_s": ("transform.unravel", "s"),
    "transform.unravel_nodes_out": ("transform.unravel", "nodes"),
    "transform.ravel_s": ("transform.ravel", "s"),
    "uncycle.extract_all_s": ("uncycle.extract_all", "s"),
    "uncycle.certificates": ("uncycle.extract_all", "certificates"),
    "uncycle.obligations": ("uncycle.extract_all", "obligations"),
    "uncycle.check_certificate_bounded_s": ("uncycle.check_certificate_bounded", "s"),
    "semantics.eval_formula_s": ("semantics.eval_formula", "s"),
    "semantics.grid_points": ("semantics.eval_formula", "grid"),
    "builders.prove_ground_atom_s": ("builders.prove_ground_atom", "s"),
}

# counts that must repeat exactly between passes and between runs of one seed
EXACT_COUNTS = ("sexpr.bytes_in", "calculus.nodes_parsed", "calculus.check_step_calls",
                "annotation.propagate_calls", "uncycle.certificates", "uncycle.obligations",
                "semantics.grid_points", "checker.violations")


class Tracer:
    """Collects spans in memory; `op` names the operation now running."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = None
        self.missing: List[str] = []

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [self.op, len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[1])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if count is not None:
                rec[6] = count(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for mod, attr, name, count in TARGETS:
                module = importlib.import_module("cyclarith." + mod)
                fn = getattr(module, attr, None)
                if fn is None:
                    if f"{mod}.{attr}" not in self.missing:
                        self.missing.append(f"{mod}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def totals(spans: List[list]) -> Dict[str, dict]:
    """Per span name: summed time "s", self time "self", "calls", summed counts."""
    by_id = {rec[1]: rec for rec in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[2] in by_id:
            child_time[rec[2]] += rec[5] - rec[4]
    out: Dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for rec in spans:
        row = out[rec[3]]
        dur = rec[5] - rec[4]
        row["s"] += dur
        row["self"] += dur - child_time[rec[1]]
        row["calls"] += 1
        for key, value in (rec[6] or {}).items():
            row[key] += value
    return out


def _parse_time(spans: List[list]) -> float:
    """Time in parse spans, each interval counted once (outermost spans only)."""
    by_id = {rec[1]: rec for rec in spans}
    total = 0.0
    for rec in spans:
        if rec[3] not in PARSE_SPANS:
            continue
        up = by_id.get(rec[2])
        while up is not None and up[3] not in PARSE_SPANS:
            up = by_id.get(up[2])
        if up is None:
            total += rec[5] - rec[4]
    return total


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """The per-layer metrics of one pass; a layer never called reads 0."""
    t = totals(spans)
    got = {metric: float(t[name][key]) for metric, (name, key) in LAYER_METRICS.items()}
    grid = got["semantics.grid_points"]
    got["semantics.decisive_frac"] = t["semantics.eval_formula"]["decisive"] / grid if grid else 0.0
    op_time = t["cli.main"]["s"]
    got["cli.self_s"] = t["cli.main"]["self"]
    got["parse.share"] = _parse_time(spans) / op_time if op_time else 0.0
    got["bounded_check.share"] = \
        t["uncycle.check_certificate_bounded"]["s"] / op_time if op_time else 0.0
    return got


def points(spans: List[list], name: str, key: str) -> List[List[float]]:
    """(count key, seconds) of every span with this name."""
    return [[rec[6][key], rec[5] - rec[4]] for rec in spans
            if rec[3] == name and rec[6] and rec[6].get(key)]


def loglog_slope(pts) -> float:
    """Least-squares slope of log seconds against log size; 0 without spread."""
    pts = [(math.log(x), math.log(y)) for x, y in pts if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
