"""The verdicts of tools/pairs.py: the claim rule and the bound rule."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr():
    v = pairs.verdicts(PARENT, [p + 10 for p in PARENT], "higher", 0.25)
    assert (v["wins"], v["pairs"], v["iqr"], v["claim"]) == (10, 10, 4.5, "met")
    nine = [p + 10 for p in PARENT[:9]] + [PARENT[9]]  # a tie is no win
    assert pairs.verdicts(PARENT, nine, "higher", 0.25)["claim"] == "met"
    eight = [p + 10 for p in PARENT[:8]] + PARENT[8:]
    assert pairs.verdicts(PARENT, eight, "higher", 0.25)["claim"] == "no"
    small = [p + 1 for p in PARENT]  # every pair won, gap 1 inside the IQR
    assert pairs.verdicts(PARENT, small, "higher", 0.25)["claim"] == "no"


def test_claim_follows_the_metrics_direction():
    faster = [p - 10 for p in PARENT]
    assert pairs.verdicts(PARENT, faster, "lower", 0.25)["claim"] == "met"
    assert pairs.verdicts(PARENT, faster, "higher", 0.25)["claim"] == "no"


def test_fewer_than_ten_pairs_carry_no_claim():
    v = pairs.verdicts(PARENT[:4], [p + 50 for p in PARENT[:4]], "higher", 0.25)
    assert (v["wins"], v["claim"], v["bound"]) == (4, "n/a", "ok")


def test_bound_is_ok_within_it_and_worse_beyond_it():
    assert pairs.verdicts(PARENT, [p - 20 for p in PARENT], "higher", 0.25)["bound"] == "ok"
    assert pairs.verdicts(PARENT, [p - 30 for p in PARENT], "higher", 0.25)["bound"] == "WORSE"
    assert pairs.verdicts(PARENT, [p + 30 for p in PARENT], "lower", 0.25)["bound"] == "WORSE"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    # bound 2 % of a median of 104.5 is 2.09, narrower than the IQR of 4.5
    assert pairs.verdicts(PARENT, list(PARENT), "higher", 0.02)["bound"] == "unresolved"
    assert pairs.verdicts(PARENT, [p - 1 for p in PARENT], "lower", 0.02)["bound"] \
        == "unresolved"
    assert pairs.verdicts(PARENT, [p + 10 for p in PARENT], "higher", 0.02)["bound"] == "ok"
    assert pairs.verdicts(PARENT, [p - 10 for p in PARENT], "lower", 0.02)["bound"] == "ok"
