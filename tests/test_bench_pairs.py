from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pair(parent: dict, change: dict) -> dict:
    wrap = lambda values: {"metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    return {"parent": wrap(parent), "change": wrap(change)}


def test_compare_counts_wins_by_each_metrics_direction():
    pairs = [
        _pair({"w/trace0/wall_s": 10.0, "w/trace0/chain_steps_per_s": 5.0},
              {"w/trace0/wall_s": 6.0, "w/trace0/chain_steps_per_s": 5.0}),  # a tie
        _pair({"w/trace0/wall_s": 8.0, "w/trace0/chain_steps_per_s": 4.0},
              {"w/trace0/wall_s": 9.0, "w/trace0/chain_steps_per_s": 6.0}),
        _pair({"w/trace0/wall_s": 12.0, "w/trace0/chain_steps_per_s": 3.0},
              {"w/trace0/wall_s": 7.0, "w/trace0/chain_steps_per_s": 7.0}),
    ]
    out = bench_pairs.compare(pairs, {"wall_s": "lower", "chain_steps_per_s": "higher"})
    assert out["change_won"] == {"w/trace0/wall_s": "2/3", "w/trace0/chain_steps_per_s": "2/3"}
    assert out["median"]["parent"]["w/trace0/wall_s"] == 10.0
    assert out["median"]["change"]["w/trace0/wall_s"] == 7.0
    assert out["ratio_change_over_parent"]["w/trace0/wall_s"] == pytest.approx(0.7)
    assert out["parent_quartiles"]["w/trace0/wall_s"] == [8.0, 12.0]


def test_compare_skips_what_it_cannot_rank_or_divide():
    # a metric BENCHMARK.json does not list gets no win count; a zero parent median no ratio
    pairs = [_pair({"w/trace1/extra": 0.0}, {"w/trace1/extra": 1.0})]
    out = bench_pairs.compare(pairs, {})
    assert out["change_won"] == {} and out["ratio_change_over_parent"] == {}
    assert out["parent_quartiles"]["w/trace1/extra"] == [0.0, 0.0]
