"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/pairs.py PARENT CHANGE [--pairs 10] [--workload NAME ...]
                           [--seed 101]

Each pair runs the benchmark command that `BENCHMARK.json` declares, once in
each checkout, with one seed per pair (`--seed`, `--seed` + 1, ...), on
every workload in turn; the parent goes first in even pairs and the change
in odd ones, so a drift of the host over a pair does not favour either
side.  A run lasts the benchmark's own `run_seconds`, the same on both
sides, and its end-to-end metrics are read from the last line of its
output.  Nothing under `bench/` is changed: each checkout's benchmark runs
as it stands, and only its output is read.

For each workload and end-to-end metric the table gives both medians, the
parent's quartiles and interquartile range (IQR), the pairs the change won
(better by the metric's own direction; a tie is no win), and two verdicts:

- claim: `met` when the change won at least 9 pairs in 10 and its median
  beats the parent's by more than the parent's IQR, else `no`; `n/a` with
  fewer than 10 pairs, which cannot carry a claim;
- bound: `unresolved` when the parent's IQR is wider than the metric's
  `bound` in `BENCHMARK.json` (a fraction of the parent's median), unless
  every run of the change beats every run of the parent; otherwise `ok`
  when the change's median is not worse than the parent's by more than
  the bound, else `WORSE`.

A run that is not `correct` or has failed operations is listed after the
table.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one benchmark run in checkout."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {},
                "error": (done.stderr.strip() or f"exit {done.returncode}")[-400:]}
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdicts(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, the parent's quartiles, wins and the two verdicts of one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    gap = sign * (med_c - med_p)
    if len(parent) < 10:
        claim = "n/a"
    else:
        claim = "met" if wins >= math.ceil(0.9 * len(parent)) and gap > q3 - q1 else "no"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * abs(med_p) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "ok" if -gap <= bound * abs(med_p) else "WORSE"
    return {"parent": med_p, "change": med_c, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "wins": wins, "pairs": len(parent), "claim": claim, "bound": verdict}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs: dict = {w: {"parent": [], "change": []} for w in names}
    for i in range(args.pairs):
        seed = args.seed + i
        for w in names:
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in sides:
                got = run(getattr(args, side), spec["command"], w, seed, seconds)
                got["seed"] = seed
                runs[w][side].append(got)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {w}: " + ", ".join(
                f"{side} ops_per_s {runs[w][side][-1]['metrics'].get('ops_per_s', {}).get('value')}"
                for side in ("parent", "change")), file=sys.stderr, flush=True)
    print(f"{args.pairs} pairs at {seconds:g} s, seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'workload':<15} {'metric':<12} {'parent':>10} {'change':>10} {'q1':>10} "
          f"{'q3':>10} {'IQR':>9} {'wins':>6}  claim  bound")
    bad = []
    for w in names:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                parent = [r["metrics"][name]["value"] for r in runs[w]["parent"]]
                change = [r["metrics"][name]["value"] for r in runs[w]["change"]]
            except KeyError:
                print(f"{w:<15} {name:<12} missing from some run")
                continue
            v = verdicts(parent, change, metric["better"], metric["bound"])
            print(f"{w:<15} {name:<12} {v['parent']:>10.4g} {v['change']:>10.4g} "
                  f"{v['q1']:>10.4g} {v['q3']:>10.4g} {v['iqr']:>9.3g} "
                  f"{v['wins']:>3}/{v['pairs']:<2}  {v['claim']:<5}  {v['bound']}")
        for side in ("parent", "change"):
            bad += [(w, side, r["seed"], r.get("failed"), r.get("error", ""))
                    for r in runs[w][side] if not r.get("correct") or r.get("failed")]
    for w, side, seed, failed, error in bad:
        print(f"{w} {side} seed {seed}: not correct, {failed} failed operations {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
