"""The summary `tools/ab.py` prints for alternating benchmark pairs, on canned
samples: quartiles, pairs won, and the claim rule (at least 9 of every 10
pairs won, and a median gain wider than the parent's interquartile range)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [0.34, 0.33, 0.36, 0.35, 0.34, 0.33, 0.35, 0.34, 0.36, 0.33]


def test_a_clear_gain_meets_the_claim_rule(ab):
    change = [p - 0.03 for p in PARENT]
    s = ab.summarize(PARENT, change, "lower")
    assert s["parent"] == pytest.approx((0.3325, 0.34, 0.35))
    assert s["change"] == pytest.approx((0.3025, 0.31, 0.32))
    assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (10, 0, 10)
    assert s["gain"] == pytest.approx(0.03)
    assert s["claim_holds"]


def test_one_lost_pair_in_ten_still_meets_the_rule_and_two_do_not(ab):
    change = [p - 0.03 for p in PARENT]
    change[0] = PARENT[0] + 0.01
    assert ab.summarize(PARENT, change, "lower")["claim_holds"]
    change[1] = PARENT[1]  # a tie is a win for neither side
    s = ab.summarize(PARENT, change, "lower")
    assert (s["change_wins"], s["parent_wins"]) == (8, 1)
    assert not s["claim_holds"]


def test_a_gain_inside_the_parent_spread_does_not_meet_the_rule(ab):
    # Every pair won, but the median moved less than the parent's IQR.
    change = [p - 0.005 for p in PARENT]
    s = ab.summarize(PARENT, change, "lower")
    assert s["change_wins"] == 10
    assert s["gain"] < s["parent"][2] - s["parent"][0]
    assert not s["claim_holds"]


def test_higher_is_better_metrics_win_upward(ab):
    parent = [100.0, 101.0, 99.0, 100.0]
    s = ab.summarize(parent, [v + 10 for v in parent], "higher")
    assert (s["change_wins"], s["parent_wins"]) == (4, 0)
    assert s["gain"] == pytest.approx(10.0)
    assert s["claim_holds"]
    s = ab.summarize(parent, [v - 10 for v in parent], "higher")
    assert (s["change_wins"], s["parent_wins"]) == (0, 4)
    assert s["gain"] == pytest.approx(-10.0)
    assert not s["claim_holds"]


def test_one_pair_and_mismatched_samples(ab):
    s = ab.summarize([0.3], [0.2], "lower")
    assert s["parent"] == (0.3, 0.3, 0.3)
    assert s["claim_holds"]
    with pytest.raises(ValueError):
        ab.summarize([0.3, 0.2], [0.2], "lower")
    with pytest.raises(ValueError):
        ab.summarize([], [], "lower")


def test_report_lines_name_each_side(ab):
    lines = ab.report_lines("wall_ref_s", "s", ab.summarize(PARENT, [p - 0.03 for p in PARENT], "lower"))
    assert lines[0] == "wall_ref_s (s)"
    assert lines[1].startswith("  parent median 0.34 ")
    assert lines[2].startswith("  change median 0.31 ")
    assert "change 10, parent 0 of 10" in lines[3] and lines[3].endswith("claim holds")


def test_cpu_per_wall_is_the_median_of_each_runs_ratio(ab):
    # One CPU's worth of time reads about 1.0; two workers at once up to 2.0.
    assert ab.cpu_per_wall([0.29, 0.30, 0.31], [0.30, 0.30, 0.31]) == pytest.approx(1.0)
    assert ab.cpu_per_wall([0.36, 0.2, 0.6], [0.2, 0.2, 0.3]) == pytest.approx(1.8)
    with pytest.raises(ValueError):
        ab.cpu_per_wall([0.3], [0.3, 0.3])
