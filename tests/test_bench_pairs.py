"""tools/bench_pairs.py: seed lists and the paired summary, on hand-built runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = {"tps": {"better": "higher", "bound": 0.25},
            "ms": {"better": "lower", "bound": 0.25},
            "layer.ms": {"better": "lower"}}


def _runs(metric, parent, change, workload="w"):
    """One run per side and seed, in the shape `main` records them."""
    runs = []
    for seed, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            runs.append({"side": side, "workload": workload, "seed": seed,
                         "output": [{}, {"metrics": {metric: {"value": value}}}]})
    return runs


def _row(metric, parent, change):
    return bench_pairs.summarize(_runs(metric, parent, change), DECLARED)["w"][metric]


def test_seed_list():
    assert bench_pairs.seed_list("1-10") == list(range(1, 11))
    assert bench_pairs.seed_list("3,5,8") == [3, 5, 8]


def test_ties_count_for_neither_side():
    row = _row("ms", [10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 8.0])
    assert row["pairs"] == 4
    assert row["wins"] == 2 and row["wins_share"] == 0.5


def test_gain_shown_needs_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]   # quartiles 101.75 and 107.25
    row = _row("tps", parent, [p + 20.0 for p in parent])
    assert row["wins_share"] == 1.0
    assert (row["parent_q1"], row["parent_q3"]) == (101.75, 107.25)
    assert row["median_gain_exceeds_parent_iqr"] and row["gain_shown"]

    row = _row("tps", parent[:9], [p + 20.0 for p in parent[:9]])
    assert row["wins_share"] == 1.0 and row["median_gain_exceeds_parent_iqr"]
    assert not row["gain_shown"]

    row = _row("tps", parent, [p + 1.0 for p in parent])   # every pair won, by 1
    assert row["wins_share"] == 1.0
    assert not row["median_gain_exceeds_parent_iqr"] and not row["gain_shown"]


@pytest.mark.parametrize("metric, change, within", [
    ("ms", 12.4, True), ("ms", 12.6, False),     # lower is better, parent 10
    ("tps", 7.6, True), ("tps", 7.4, False),     # higher is better, parent 10
])
def test_within_bound_in_the_metrics_direction(metric, change, within):
    row = _row(metric, [10.0] * 3, [change] * 3)
    assert row["within_bound"] is within
    assert row["ratio"] == pytest.approx(change / 10.0)


def test_per_layer_metric_has_no_bound():
    assert "within_bound" not in _row("layer.ms", [2.0, 3.0], [1.0, 2.0])


def test_seed_with_one_side_is_left_out():
    runs = _runs("ms", [10.0, 10.0], [9.0, 9.0])
    runs.append({"side": "parent", "workload": "w", "seed": 7,
                 "output": [{}, {"metrics": {"ms": {"value": 1.0}}}]})
    row = bench_pairs.summarize(runs, DECLARED)["w"]["ms"]
    assert row["pairs"] == 2 and row["parent_min"] == 10.0

    only_parent = bench_pairs.summarize(runs[-1:], DECLARED)
    assert only_parent == {}
