"""Exact-count check: two traced runs of one seed must give the same counts.

    python3 bench/check_counts.py --workload NAME --seed N [--seconds S]

Runs `bench/run.py --trace 1` twice in fresh interpreters (so string hashing
differs between them) and compares every count in spans.EXACT_COUNTS. A
count that does not repeat is flagged; no claim should rest on it. Exits 1
when any count differs. The two runs' tracing overhead is printed too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spans

RUN = Path(__file__).resolve().parent / "run.py"


def _traced(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1"],
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"traced run failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    first, second = (_traced(args.workload, args.seed, args.seconds) for _ in range(2))
    differ = 0
    for name in spans.EXACT_COUNTS:
        a, b = first[name]["value"], second[name]["value"]
        differ += a != b
        print(f"{name:<28} {a:>14.0f} {b:>14.0f}  {'repeats' if a == b else 'DIFFERS'}")
    for run, got in (("first", first), ("second", second)):
        print(f"tracing overhead, {run} run: traced/untraced pass time "
              f"{got['trace.overhead_ratio']['value']:.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
