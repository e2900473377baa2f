from __future__ import annotations

import importlib.util
import json
import sys
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


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # 10 of 10 pairs won, by more than the parent's interquartile range (2)
        ([9, 10, 11, 12, 10, 9, 11, 12, 10, 11], [6, 7, 8, 9, 7, 6, 8, 9, 7, 8], "gain"),
        # 9 of 10 pairs won, but by less than the parent's interquartile range
        ([9, 10, 11, 12, 10, 9, 11, 12, 10, 11], [8.5, 9.5, 10.5, 11.5, 9.5, 8.5, 10.5, 11.5,
                                                 9.5, 11.5], "no worse"),
        # the change's median is 30% worse, beyond the 25% bound
        ([10] * 10, [13] * 10, "worse"),
        # the parent's own quartiles lie 60% of its median apart
        ([5, 8, 10, 12, 15, 6, 9, 11, 14, 10], [10] * 10, "unresolved"),
        # 20% worse, inside the bound, and a steady parent
        ([10] * 10, [12] * 10, "no worse"),
    ],
    ids=["gain", "gain-within-spread", "worse", "unresolved", "within-bound"],
)
def test_compare_gives_each_bounded_metric_a_verdict(parent, change, expected):
    pairs = [_pair({"w/trace0/wall_s": p, "w/trace1/run.user_cpu_s": p},
                   {"w/trace0/wall_s": c, "w/trace1/run.user_cpu_s": c})
             for p, c in zip(parent, change)]
    better = {"wall_s": "lower", "run.user_cpu_s": "lower"}
    out = bench_pairs.compare(pairs, better, {"wall_s": 0.25})
    # a per-layer metric has no bound, so it gets no verdict
    assert out["verdict"] == {"w/trace0/wall_s": expected}
    # a metric that is better higher reads its gain the other way round
    flipped = [_pair({"w/trace0/chain_steps_per_s": -p}, {"w/trace0/chain_steps_per_s": -c})
               for p, c in zip(parent, change)]
    out = bench_pairs.compare(flipped, {"chain_steps_per_s": "higher"},
                              {"chain_steps_per_s": 0.25})
    assert out["verdict"] == {"w/trace0/chain_steps_per_s": expected}


def test_main_writes_the_file_then_exits_1_naming_each_failed_run(tmp_path, monkeypatch, capsys):
    # a run that reads correct: false, or has failed cells, fails the script,
    # after every pair's summary is written
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}], "per_layer": []}
    ))
    monkeypatch.setattr(bench_pairs, "git", lambda repo, *args: f"{tmp_path}\n".encode())
    monkeypatch.setattr(bench_pairs, "export", lambda repo, rev, dest: None)
    verdicts = {(0, "parent"): (True, 0), (0, "change"): (False, 0),
                (1, "parent"): (True, 0), (1, "change"): (True, 2)}

    def run_once(tree, seed, seconds):
        correct, failed = verdicts[seed, tree.name]
        summary = {"correct": correct, "attempted": 4, "failed": failed, "run_s": 1.0,
                   "metrics": {"w/trace0/wall_s": {"value": 1.0, "unit": "s"}}}
        return {"cpu": "stub"}, summary

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "a", "--change", "b",
                                      "--pairs", "2", "--first-seed", "0", "--out", str(out)])
    assert bench_pairs.main() == 1
    report = json.loads(out.read_text())
    assert report["seeds"] == [0, 1] and report["all_correct"] is False
    err = capsys.readouterr().err
    assert "pair 0 seed 0 change: correct False, failed 0/4 cells" in err
    assert "pair 1 seed 1 change: correct True, failed 2/4 cells" in err
    assert "parent: correct True, failed" not in err  # the passing runs are not named


def test_main_exits_0_when_every_run_is_correct(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [], "per_layer": []}
    ))
    monkeypatch.setattr(bench_pairs, "git", lambda repo, *args: f"{tmp_path}\n".encode())
    monkeypatch.setattr(bench_pairs, "export", lambda repo, rev, dest: None)
    summary = {"correct": True, "attempted": 4, "failed": 0, "run_s": 1.0, "metrics": {}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, seed, seconds: ({}, dict(summary)))
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "a", "--change", "b",
                                      "--pairs", "1", "--first-seed", "3", "--out", str(out)])
    assert bench_pairs.main() == 0
    assert json.loads(out.read_text())["all_correct"] is True
