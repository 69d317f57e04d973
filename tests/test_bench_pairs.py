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
    bounds = {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1, "passed_cell_frac": 0.01}
    rows = {row["metric"]: row for row in load_tool().summarize(pairs, better, bounds)}
    wall = rows["wall_s"]
    assert wall["wins"] == 9
    assert wall["parent"] == (1.0, pytest.approx(0.9625), pytest.approx(1.0375))
    assert wall["change"][0] == pytest.approx(0.71)
    assert wall["gain"]
    assert (rows["setup_s"]["wins"], rows["setup_s"]["gain"]) == (6, False)
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["gain"]) == (0, False)
    assert (rows["passed_cell_frac"]["wins"], rows["passed_cell_frac"]["gain"]) == (0, False)
    # peak_rss_mb reads 0.3 % higher, inside its 10 % bound; the others
    # did not get worse.
    assert {name: row["verdict"] for name, row in rows.items()} == dict.fromkeys(
        better, "within bound"
    )


def test_a_gain_inside_the_parents_spread_is_not_claimed():
    # The change wins every pair, but by less than the distance between
    # the parent's quartiles.
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    pairs = [({"wall_s": p}, {"wall_s": p - 0.5}) for p in parent]
    (row,) = load_tool().summarize(pairs, {"wall_s": "lower"}, {"wall_s": 0.25})
    assert row["wins"] == 5
    assert row["parent"] == (3.0, 2.0, 4.0)
    assert not row["gain"]


def test_each_metric_gets_a_verdict_against_its_bound():
    # Parent wall_s 1.0 with quartiles 0.99 and 1.01 (a spread of 2 %);
    # a bound of 0.25 lets the change read up to 1.25.
    parent = [0.98, 0.99, 1.0, 1.01, 1.02]
    bounds = {"wall_s": 0.25}

    def verdict(change, parent=parent, direction="lower"):
        pairs = [({"wall_s": p}, {"wall_s": c}) for p, c in zip(parent, change)]
        (row,) = load_tool().summarize(pairs, {"wall_s": direction}, bounds)
        return row["verdict"]

    assert verdict([1.2, 1.21, 1.22, 1.23, 1.24]) == "within bound"
    assert verdict([1.26, 1.27, 1.28, 1.29, 1.3]) == "worse"
    # For a metric where higher is better, a fall is the regression.
    assert verdict([0.7, 0.72, 0.74, 0.76, 0.8], direction="higher") == "worse"
    assert verdict([1.5, 1.6, 1.7, 1.8, 1.9], direction="higher") == "within bound"
    # Parent quartiles 0.7 and 1.3 lie 60 % of the median apart, wider
    # than the bound: no verdict either way from a median near the
    # parent's, or from one far above it.
    wide = [0.5, 0.7, 1.0, 1.3, 1.5]
    assert verdict([1.0, 1.0, 1.0, 1.0, 1.0], parent=wide) == "unresolved"
    assert verdict([2.0, 2.0, 2.0, 2.0, 2.0], parent=wide) == "unresolved"
    # ...unless every change run reads better than every parent run.
    assert verdict([0.3, 0.3, 0.4, 0.4, 0.4], parent=wide) == "within bound"
