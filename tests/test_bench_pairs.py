"""Tests of tools/bench_pairs.py's summary of paired benchmark runs."""

import importlib.util
from pathlib import Path

import pytest


def load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_summary_counts_wins_and_claims_a_gain_beyond_the_parents_spread():
    # Ten pairs: wall_s lower in 9 (pair 5 ties), setup_s lower in 6,
    # peak_rss_mb higher in every pair, and passed_cell_frac (higher is
    # better) tied throughout.
    parent_wall = [1.00, 1.10, 0.90, 1.05, 0.95, 1.00, 1.20, 0.80, 1.00, 1.00]
    change_wall = [0.70, 0.80, 0.60, 0.75, 0.95, 0.72, 0.81, 0.63, 0.70, 0.69]
    parent_setup = [0.10] * 10
    change_setup = [0.09] * 6 + [0.11] * 4
    pairs = [
        ({"wall_s": pw, "setup_s": ps, "peak_rss_mb": 37.0, "passed_cell_frac": 1.0},
         {"wall_s": cw, "setup_s": cs, "peak_rss_mb": 37.1, "passed_cell_frac": 1.0})
        for pw, cw, ps, cs in zip(parent_wall, change_wall, parent_setup, change_setup)
    ]
    better = {"wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower",
              "passed_cell_frac": "higher"}
    rows = {row["metric"]: row for row in load_tool().summarize(pairs, better)}
    wall = rows["wall_s"]
    assert wall["wins"] == 9
    assert wall["parent"] == (1.0, pytest.approx(0.9625), pytest.approx(1.0375))
    assert wall["change"][0] == pytest.approx(0.71)
    assert wall["gain"]
    assert (rows["setup_s"]["wins"], rows["setup_s"]["gain"]) == (6, False)
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["gain"]) == (0, False)
    assert (rows["passed_cell_frac"]["wins"], rows["passed_cell_frac"]["gain"]) == (0, False)


def test_a_gain_inside_the_parents_spread_is_not_claimed():
    # The change wins every pair, but by less than the distance between
    # the parent's quartiles.
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    pairs = [({"wall_s": p}, {"wall_s": p - 0.5}) for p in parent]
    (row,) = load_tool().summarize(pairs, {"wall_s": "lower"})
    assert row["wins"] == 5
    assert row["parent"] == (3.0, 2.0, 4.0)
    assert not row["gain"]
