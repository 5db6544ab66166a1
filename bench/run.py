"""Benchmark of the cyclarith command line, run in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one call to cyclarith.cli.main(argv) with stdout and
stderr captured; outputs go to files through -o. The load is a closed loop
with one client: one process, no threads, the next operation starts when the
previous one returns, as when a user or a CI job checks files one after
another. The seed makes the inputs (see workloads.py); each operation's
answer is judged against a known answer (see oracle.py).

The run repeats passes over the workload's fixed operation list for about
S seconds. With --trace 0 it prints the end-to-end metrics; with --trace 1
it alternates untraced and traced passes and prints the per-layer metrics
from the spans of the traced ones (see spans.py). Human-readable lines come
first; the last line of stdout is one JSON object. Details of the run, and
the spans of a traced run, are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import oracle
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7    # fresh interpreters timed for setup_s
SETUP_REF = 20       # kernel samples taken before and after each of them


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="only build the inputs into DIR (times setup_s)")
    return p.parse_args(argv)


def _probe(args, work: Path) -> float:
    """Time at reference speed of a fresh interpreter that imports cyclarith
    and builds the inputs."""
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(work)]
    ref = [speed.sample() for _ in range(SETUP_REF)]
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    t = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t
    r2 = resource.getrusage(resource.RUSAGE_CHILDREN)
    ref += [speed.sample() for _ in range(SETUP_REF)]
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()[-400:]}")
    user, system = r2.ru_utime - r.ru_utime, r2.ru_stime - r.ru_stime
    return speed.scaled(elapsed, ref, user / (user + system) if user + system else 1.0)


def _run_pass(ops, tracer, key, last=None):
    """One closed-loop pass: per-operation latencies, the reference kernel's
    samples before each operation and after the last (see speed.py), and
    (index, problem) failures. last holds each operation's latency in an
    earlier pass, which sets how many kernel samples go before it."""
    from cyclarith import cli
    lat, ref, cpu, failed = [], [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = [key, i]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # no operation pays for collecting another one's garbage
        ref.append(speed.samples(last[i] if last else 0.0))
        r = resource.getrusage(resource.RUSAGE_SELF)
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # counted as a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - t)
        r2 = resource.getrusage(resource.RUSAGE_SELF)
        cpu.append((r2.ru_utime - r.ru_utime, r2.ru_stime - r.ru_stime))
        problem = oracle.judge(op.expect, code, out.getvalue(), err.getvalue())
        if problem:
            failed.append((i, problem))
    ref.append(speed.samples(0.0))
    return lat, ref, cpu, failed


def _selftest(ops) -> bool:
    """A flipped expectation on the cheapest standalone operation must fail."""
    op = min((o for o in ops if o.standalone), key=lambda o: o.size)
    *_, failed = _run_pass([replace(op, expect=op.expect.flipped())], None, "selftest")
    print(f"oracle self-test: flipped expectation on `{op.kind}` counted as a failure: "
          f"{'yes' if failed else 'NO'}")
    return bool(failed)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _per_op(passes):
    """Each operation's latency at reference speed (see speed.py), as its
    median over the passes."""
    return [_median(lat) for lat in zip(*speed.scale(passes))]


def _end_to_end(ops, passes, setups):
    plain = [p for p in passes if not p["traced"]]
    n, k = len(ops), len(plain)
    per_op = _per_op(plain)
    each = f"each its median of {k} passes, at reference speed"
    return {
        "setup_s": (_median(setups), "s",
                    f"median of n={len(setups)} set-ups in fresh interpreters, at reference speed"),
        "ops_per_s": (n / sum(per_op), "1/s", f"one pass of n={n} ops, {each}"),
        "op_p50_ms": (_median(per_op) * 1e3, "ms", f"median of n={n} ops, {each}"),
        "op_max_ms": (max(per_op) * 1e3, "ms", f"slowest of n={n} ops, {each}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "n=1 process"),
    }


def _per_layer(ops, passes, tracer):
    """Per-layer metrics: times are medians over traced passes, counts from the first."""
    traced = [p for p in passes if p["traced"]]
    by_pass = {p["key"]: [] for p in traced}
    for rec in tracer.spans:
        if isinstance(rec[0], list) and rec[0][0] in by_pass:
            by_pass[rec[0][0]].append(rec)
    rows = [spans.layer_metrics(by_pass[p["key"]]) for p in traced]
    first = rows[0]
    unstable = [c for c in spans.EXACT_COUNTS if any(r[c] != first[c] for r in rows)]
    got = {name: first[name] if _unit(name) in ("count", "bytes")
           else _median([r[name] for r in rows]) for name in first}
    setup = [rec for rec in tracer.spans if rec[0] == "setup"]
    got["builders.build_corpus_s"] = spans.totals(setup)["builders.build_corpus"]["s"]

    pass_spans = [rec for p in traced for rec in by_pass[p["key"]]]
    depth_pts = [[ops[rec[0][1]].depth, rec[5] - rec[4]] for rec in pass_spans
                 if rec[3] == "syntax.parse_formula" and ops[rec[0][1]].kind == "eval"]
    series = {
        "calculus.parse_size_exponent": spans.points(pass_spans, "calculus.parse_proof", "nodes"),
        "checker.validate_size_exponent": spans.points(pass_spans, "checker.validate", "nodes"),
        "syntax.depth_exponent": depth_pts,
    }
    for name, pts in series.items():
        got[name] = spans.loglog_slope(pts)
    plain = [p for p in passes if not p["traced"]]
    got["trace.overhead_ratio"] = sum(_per_op(traced)) / sum(_per_op(plain))

    # self time per module, as a share of operation time
    tot = spans.totals(pass_spans)
    op_time = tot["cli.main"]["s"] or 1.0
    shares = defaultdict(float)
    for name, row in tot.items():
        shares[name.split(".")[0]] += row["self"] / op_time
    # violations found in each mutant
    mutants = [rec[6]["violations"] for rec in pass_spans
               if rec[3] == "checker.validate" and ops[rec[0][1]].kind == "mutant"]
    return got, unstable, series, dict(shares), mutants


PER_LAYER_UNITS = {"_s": "s", "share": "ratio", "_frac": "ratio", "_ratio": "ratio",
                   "_exponent": "slope", "bytes_in": "bytes"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _stress_checks(workload, layer, mutants):
    """Each workload must stress the layers it was chosen for."""
    if workload == "corpus-uncycle":
        return [("bounded check holds most of the operation time",
                 layer["bounded_check.share"] > 0.5)]
    if workload == "ground-ladder":
        return [("parsing holds most of the operation time", layer["parse.share"] > 0.5),
                ("no semantics grid", layer["semantics.grid_points"] == 0)]
    return [("semantics spans are zero", layer["semantics.eval_formula_s"] == 0
             and layer["semantics.grid_points"] == 0),
            (f"each of {len(mutants)} mutant checks found a violation",
             bool(mutants) and min(mutants) >= 1)]


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "cyclarith" / "cli.py").is_file():
        print(f"error: no cyclarith sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed, Path(args.setup_only))
        return 0
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: Path) -> int:
    # The probes build the inputs; the measured process only lists the
    # operations, so its peak memory is that of the operations. A traced run
    # builds them again in process, to trace the builders.
    inputs = work / "inputs"
    setups = [_probe(args, inputs) for _ in range(SETUP_REPEATS)]
    tracer = spans.Tracer() if args.trace else None

    def tracing(on: bool):
        return tracer.installed() if on and tracer else contextlib.nullcontext()

    with tracing(True):
        if tracer:
            tracer.op = "setup"
        ops = workloads.build(args.workload, args.seed, inputs, write=bool(tracer))
    selftest_ok = _selftest(ops)

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        same = [p["wall"] for p in passes if p["traced"] == traced]
        guess = _median(same or [p["wall"] for p in passes])
        need = not same and (traced or not passes)
        # start another pass when it would end nearer the budget than not
        if not need and time.perf_counter() - start + guess / 2 > args.seconds:
            break
        gc.collect()
        gc.freeze()  # the bench's own objects, spans too, stay out of collections
        t = time.perf_counter()
        with tracing(traced):
            lat, ref, cpu, failed = _run_pass(ops, tracer if traced else None, len(passes),
                                         passes[-1]["lat"] if passes else None)
        passes.append({"key": len(passes), "traced": traced, "lat": lat, "ref": ref, "cpu": cpu,
                       "failed": failed,
                       "wall": time.perf_counter() - t})

    attempted = sum(len(p["lat"]) for p in passes)
    failures = [(p["key"], i, ops[i].kind, problem) for p in passes
                for i, problem in p["failed"]]
    e2e = _end_to_end(ops, passes, setups)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(ops)} ops per pass, {len(passes)} passes"
          + (" (untraced and traced alternating)" if tracer else ""))
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<12} {value:12.4f} {unit:<4} ({n})")
    print(f"  {'failed_frac':<12} {len(failures) / attempted:12.4f} {'':<4} "
          f"({len(failures)} of {attempted} attempted)")
    for key, i, kind, problem in failures[:10]:
        print(f"  FAILED pass {key} op {i} ({kind}): {problem}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops_per_pass": len(ops), "passes": passes,
              "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
              "failed": failures, "selftest_ok": selftest_ok}
    if tracer:
        layer, unstable, series, shares, mutants = _per_layer(ops, passes, tracer)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
        print("per-layer metrics (median over traced passes):")
        for name, m in metrics.items():
            print(f"  {name:<38} {m['value']:14.6f} {m['unit']}")
        print("self time by module, share of operation time:")
        for mod, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {mod:<12} {share:7.3f}")
        for what, ok in _stress_checks(args.workload, layer, mutants):
            print(f"stress check, {what}: {'met' if ok else 'NOT MET'}")
        for name in unstable:
            print(f"count {name} does not repeat between passes; make no claim on it")
        if tracer.missing:
            print(f"span targets not found: {', '.join(tracer.missing)}")
        result.update(per_layer=metrics, unstable_counts=unstable, series=series,
                      module_self_share=shares, missing_targets=tracer.missing)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        with gzip.open(stem.with_suffix(".spans.jsonl.gz"), "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["op", "id", "parent", "name", "start", "end", "counts"]) + "\n")
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps({"correct": selftest_ok and not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
