from __future__ import annotations

import csv
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from annealed_langevin import DivergenceError, TuningError, cli, plan
from annealed_langevin.cli import build_task, main, resolve_config

BASE = {
    "task": {"kind": "gaussian", "dim": 2, "n": 3},
    "sampling": {"chains": 200, "seed": 0},
}


def _write_cfg(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_resolve_config_materializes_defaults():
    cfg = resolve_config({})
    assert cfg["tuning"]["gamma"] == 0.5
    assert cfg["tuning"]["omega"] == 0.5  # d = 2
    assert cfg["task"]["prior"]["means"] == [[0.0, 0.0], [1.0, 1.0]]
    assert cfg["sampling"]["chains"] == 3000
    wide = resolve_config({"task": {"dim": 10}})
    assert wide["tuning"]["omega"] == 0.8
    assert len(wide["task"]["prior"]["means"][0]) == 10


def test_resolve_config_overrides():
    cfg = resolve_config({}, seed=7, method="linhart", out="elsewhere")
    assert cfg["sampling"]["seed"] == 7
    assert cfg["method"] == "linhart"
    assert cfg["output"]["directory"] == "elsewhere"
    explicit = resolve_config({"tuning": {"omega": 0.6}, "task": {"dim": 10}})
    assert explicit["tuning"]["omega"] == 0.6  # explicit value wins over the d>=10 default


def test_resolve_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="tuning.gama"):
        resolve_config({"tuning": {"gama": 1.0}})
    with pytest.raises(ValueError, match="schema_version"):
        resolve_config({"schema_version": 99})
    with pytest.raises(ValueError, match="kind"):
        resolve_config({"task": {"kind": "weird"}})
    with pytest.raises(ValueError, match="method"):
        resolve_config({"method": "magic"})
    with pytest.raises(ValueError, match="eig_range"):
        resolve_config({"task": {"likelihood": {"random_spd": {"eig_range": [0, 1]}}}})


def test_resolve_config_ignores_unused_eig_range():
    # eig_range is read only when a random SPD likelihood matrix is drawn
    explicit = {"cov": [[1.0, 0.0], [0.0, 1.0]], "random_spd": None}
    cfg = resolve_config({"task": {"likelihood": explicit}})
    assert build_task(cfg, 3, 0).likelihood_cov.tolist() == explicit["cov"]
    unused = {"random_spd": {"eig_range": [0, 1]}}
    cfg = resolve_config({"task": {"kind": "gmm_likelihood", "likelihood": unused}})
    assert build_task(cfg, 3, 0).kind == "gmm_likelihood"


def test_build_task_reproducible_per_cell():
    cfg = resolve_config({})
    a = build_task(cfg, 4, 0)
    b = build_task(cfg, 4, 0)
    c = build_task(cfg, 4, 1)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.likelihood_cov, b.likelihood_cov)
    assert not np.array_equal(a.likelihood_cov, c.likelihood_cov)
    eigs = np.linalg.eigvalsh(a.likelihood_cov)
    assert eigs.min() > 0.02 * 0.99 and eigs.max() < 0.1 * 1.01


def test_main_rejects_bad_config(tmp_path, capsys, monkeypatch):
    path = _write_cfg(tmp_path / "bad.json", {"tuning": {"gama": 1.0}})
    assert main(["tune", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["tune", "--config", missing, "--out", str(tmp_path / "out")]) == 2
    # wrongly typed values are config errors too, not tracebacks
    for i, (command, bad) in enumerate(
        (
            ("sample", {"tuning": {"gamma": None}}),
            ("sample", {"sampling": {"chains": [3]}}),
            ("sample", {"task": "gaussian"}),
            ("sweep", {"schedule": {"beta_min": None}}),
            ("sample", {"task": {"data_seed": [1]}}),
            ("sweep", {"task": {"n": [None, 2]}}),
            ("sample", {"task": {"likelihood": {"random_spd": {"eig_range": None}}}}),
            ("sample", {"output": {"formats": 3}}),
            # array-valued task parameters, a list n outside sweep and bad
            # tuning targets are refused before the output directory exists
            ("tune", {"task": {"kind": "gmm_prior", "prior": {"scales": None}}}),
            ("tune", {"task": {"kind": "gmm_likelihood", "likelihood_mixture": {"weights": None}}}),
            ("tune", {"task": {"likelihood": {"cov": [[1, None], [0, 1]]}}}),
            ("sample", {"task": {"n": [2, 3]}}),
            ("sweep", {"tuning": {"gamma": -1}}),
            # schedule values, a t_floor not below 1/T and no chains are refused there too
            ("sample", {"schedule": {"beta_min": -1}}),
            ("tune", {"tuning": {"T": 200000}}),
            ("sample", {"sampling": {"chains": 0}}),
        )
    ):
        path = _write_cfg(tmp_path / f"typed{i}.json", bad)
        out = tmp_path / f"typed_out{i}"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
    # without --out the directory comes from the config
    monkeypatch.chdir(tmp_path)
    path = _write_cfg(tmp_path / "typed_dir.json", {"output": {"directory": 3}})
    assert main(["sample", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "3").exists()


def test_tune_writes_plans_and_report(tmp_path):
    path = _write_cfg(tmp_path / "cfg.json", BASE)
    out = tmp_path / "run"
    assert main(["tune", "--config", path, "--out", str(out)]) == 0
    plans = {}
    for method in ("geffner", "linhart"):
        rows = _read_csv(out / f"plan_{method}.csv")
        assert len(rows) == 10
        assert list(rows[0].keys()) == ["t", "h", "k", "m", "M", "w2_next", "B"]
        plans[method] = rows
    # step sizes: unweighted method never larger, level by level
    for row_g, row_l in zip(plans["geffner"], plans["linhart"]):
        assert float(row_g["h"]) <= float(row_l["h"])
        assert row_g["t"] == row_l["t"]
    report = json.loads((out / "tune.json").read_text())
    assert report["schema_version"] == 1
    assert report["config"]["tuning"]["omega"] == 0.5  # resolved config embedded
    for method in ("geffner", "linhart"):
        block = report["results"][method]
        assert block["feasible"] is True
        assert block["proxy"] is False
        assert block["total_steps"] == sum(int(r["k"]) for r in plans[method])
        assert block["csv"] == f"plan_{method}.csv"
        assert report["timings"][method] >= 0


def test_tune_single_method(tmp_path):
    path = _write_cfg(tmp_path / "cfg.json", BASE)
    out = tmp_path / "run"
    assert main(["tune", "--config", path, "--out", str(out), "--method", "geffner"]) == 0
    assert (out / "plan_geffner.csv").exists()
    assert not (out / "plan_linhart.csv").exists()
    report = json.loads((out / "tune.json").read_text())
    assert list(report["results"].keys()) == ["geffner"]


def test_tune_infeasible_exit_code(tmp_path):
    cfg = dict(BASE, tuning={"eps_dsm_post": 5.0})
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["tune", "--config", path, "--out", str(out)]) == 1
    report = json.loads((out / "tune.json").read_text())
    for method in ("geffner", "linhart"):
        assert report["results"][method]["feasible"] is False
        assert "level" in report["results"][method]["error"]
    assert not (out / "plan_geffner.csv").exists()


@pytest.mark.parametrize(
    "exc, prefix",
    [
        (TuningError("level 1 (t=0.1): no step size meets the bias budget"), "tuning:"),
        (np.linalg.LinAlgError("composed precision is indefinite"), "numerical:"),
    ],
    ids=["tuning", "numerical"],
)
def test_tune_records_failure_classes(tmp_path, monkeypatch, exc, prefix):
    # a failed plan is a failed cell (exit 1), with the class prefix that
    # sample and sweep rows carry; LinAlgError is a ValueError, not a config error
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "plan", fail)
    path = _write_cfg(tmp_path / "cfg.json", BASE)
    out = tmp_path / "run"
    assert main(["tune", "--config", path, "--out", str(out)]) == 1
    report = json.loads((out / "tune.json").read_text())
    for method in ("geffner", "linhart"):
        assert report["results"][method] == {"feasible": False, "error": f"{prefix} {exc}"}
        assert report["timings"][method] >= 0
    assert not (out / "plan_geffner.csv").exists()


def test_tune_stops_after_plan(tmp_path, monkeypatch):
    # 2^13 joint components exceed the exact reference's cap, but tune never
    # builds the reference, the field or the chains, so it plans both methods
    def fail(*args, **kwargs):
        raise AssertionError("tune must stop after plan")

    for name in ("annealed_sample", "composite_field", "exact_posterior_sample"):
        monkeypatch.setattr(cli, name, fail)
    cfg = {"task": {"kind": "gmm_likelihood", "dim": 2, "n": 13}, "sampling": {"chains": 64}}
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["tune", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "tune.json").read_text())
    for method in ("geffner", "linhart"):
        assert report["results"][method]["feasible"] is True
        rows = _read_csv(out / f"plan_{method}.csv")
        assert report["results"][method]["total_steps"] == sum(int(r["k"]) for r in rows)


def test_tune_mixture_prior_marks_proxy(tmp_path):
    cfg = {
        "task": {"kind": "gmm_prior", "dim": 2, "n": 3},
        "sampling": {"chains": 200, "seed": 0},
    }
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["tune", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "tune.json").read_text())
    assert report["results"]["geffner"]["proxy"] is True


def test_sample_outputs_and_determinism(tmp_path):
    cfg = dict(BASE, output={"formats": ["npy", "csv"]})
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["sample", "--config", path, "--out", str(out_a)]) == 0
    assert main(["sample", "--config", path, "--out", str(out_b)]) == 0
    assert main(["sample", "--config", path, "--out", str(out_c), "--seed", "9"]) == 0
    for method in ("geffner", "linhart"):
        pts_a = np.load(out_a / f"samples_{method}.npy")
        assert pts_a.shape == (200, 2)
        assert np.array_equal(pts_a, np.load(out_b / f"samples_{method}.npy"))
        assert not np.array_equal(pts_a, np.load(out_c / f"samples_{method}.npy"))
        assert (out_a / f"samples_{method}.csv").exists()
    report = json.loads((out_a / "sample.json").read_text())
    methods = report["results"]["methods"]
    for method in ("geffner", "linhart"):
        block = methods[method]
        assert block["status"] == "ok"
        assert block["final_w2"] >= 0.0
        assert block["total_steps"] >= 10
        assert set(block["samples_files"]) == {f"samples_{method}.npy", f"samples_{method}.csv"}
        assert set(report["timings"][method]) == {"tune_s", "sample_s", "evaluate_s"}
    assert report["results"]["seed"] == 0 and report["results"]["n"] == 3


def test_sample_indefinite_composition_is_a_tuning_failure(tmp_path, sched):
    # this task's composed proxy precision has a negative eigenvalue (about
    # -5.4 at time 0, and geffner's levels 0-2 are indefinite too): both
    # methods fail to tune, a failed cell (exit 1), not a config error (exit 2)
    cfg = {
        "task": {
            "kind": "gmm_prior",
            "dim": 4,
            "n": 42,
            "data_seed": 2997,
            "likelihood": {
                "random_spd": {"eig_range": [0.04146958098005517, 24.97923687580033]}
            },
        },
        "sampling": {"chains": 64, "seed": 2997},
    }
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["sample", "--config", path, "--out", str(out)]) == 1
    methods = json.loads((out / "sample.json").read_text())["results"]["methods"]
    resolved = resolve_config(cfg)
    task = build_task(resolved, 42, 2997)
    for method in ("geffner", "linhart"):
        block = methods[method]
        assert block["status"] == "error" and block["error"].startswith("tuning:")
        assert "not positive definite" in block["error"]
        if method == "geffner":  # geffner composes per level and names the level's index
            assert "composed precision[0]" in block["error"]
        assert block.get("total_steps", "") == ""
        with pytest.raises(TuningError):
            plan(task, method, cli._tuning_config(resolved, 42, method), sched)


def test_sample_rejects_n_list(tmp_path, capsys):
    cfg = {"task": {"kind": "gaussian", "dim": 2, "n": [2, 3]}}
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["sample", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_sweep_grid_and_worker_independence(tmp_path):
    cfg = {
        "task": {"kind": "gaussian", "dim": 2, "n": [2, 3]},
        "sampling": {"chains": 150, "seed": 0, "seeds": [0, 1]},
    }
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out_1 = tmp_path / "w1"
    out_2 = tmp_path / "w2"
    assert main(["sweep", "--config", path, "--out", str(out_1)]) == 0
    assert main(["sweep", "--config", path, "--out", str(out_2), "--workers", "2"]) == 0
    cells = _read_csv(out_1 / "sweep_cells.csv")
    assert len(cells) == 8  # 2 n-values x 2 seeds x 2 methods
    assert all(row["status"] == "ok" for row in cells)
    assert {row["method"] for row in cells} == {"geffner", "linhart"}
    # thread count must not change any result
    assert (out_1 / "sweep_cells.csv").read_text() == (out_2 / "sweep_cells.csv").read_text()
    summary = _read_csv(out_1 / "sweep_summary.csv")
    assert len(summary) == 4
    for row in summary:
        assert row["failures"] == "0"
        assert float(row["final_w2_std"]) >= 0.0
    report = json.loads((out_1 / "sweep.json").read_text())
    assert len(report["results"]["cells"]) == 8
    assert report["timings"]["total_s"] > 0


def test_sweep_runs_cells_in_order_in_one_thread(tmp_path, monkeypatch):
    # --workers is accepted but has no effect: every cell is tuned from the
    # calling thread, in (n, seed, method) order
    seeds_of, calls = {}, []

    def recording_build_task(cfg, n, seed):
        task = build_task(cfg, n, seed)
        seeds_of[id(task)] = seed
        return task

    def recording_plan(task, method, *args, **kwargs):
        calls.append((threading.get_ident(), task.n, seeds_of[id(task)], method))
        return plan(task, method, *args, **kwargs)

    monkeypatch.setattr(cli, "build_task", recording_build_task)
    monkeypatch.setattr(cli, "plan", recording_plan)
    cfg = {
        "task": {"kind": "gaussian", "dim": 2, "n": [2, 3]},
        "sampling": {"chains": 50, "seeds": [0, 1, 2]},
    }
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "run"), "--workers", "2"]) == 0
    assert {ident for ident, *_ in calls} == {threading.get_ident()}
    methods = ("geffner", "linhart")
    assert [cell for _, *cell in calls] == [
        [n, seed, method] for n in (2, 3) for seed in (0, 1, 2) for method in methods
    ]


def test_sweep_single_seed_zero_std(tmp_path):
    cfg = {
        "task": {"kind": "gaussian", "dim": 2, "n": [2]},
        "sampling": {"chains": 150, "seed": 5},
    }
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    for row in _read_csv(out / "sweep_summary.csv"):
        assert row["cells"] == "1"
        assert float(row["total_steps_std"]) == 0.0
        assert float(row["final_w2_std"]) == 0.0


def test_sweep_propagates_failures(tmp_path):
    cfg = {
        "task": {"kind": "gaussian", "dim": 2, "n": [2]},
        "tuning": {"eps_dsm_post": 5.0},
        "sampling": {"chains": 150, "seed": 0},
    }
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 1
    cells = _read_csv(out / "sweep_cells.csv")
    assert all(row["status"] == "error" for row in cells)
    assert all(row["error"].startswith("tuning:") for row in cells)
    summary = _read_csv(out / "sweep_summary.csv")
    assert all(row["failures"] == row["cells"] for row in summary)


def test_sweep_isolates_failing_cells(tmp_path, capsys):
    # 2^13 = 8192 joint components exceed the exact reference's cap of 4096
    cfg = {
        "task": {
            "kind": "gmm_likelihood",
            "dim": 2,
            "n": [2, 13],
            "likelihood_mixture": {"cov_scales": [1.5, 0.5]},
        },
        "tuning": {"gamma": 1.0},
        "sampling": {"chains": 64, "seed": 0},
    }
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 1
    cells = _read_csv(out / "sweep_cells.csv")
    assert [(row["n"], row["method"]) for row in cells] == [
        ("2", "geffner"), ("2", "linhart"), ("13", "geffner"), ("13", "linhart")
    ]
    for row in cells:
        if row["n"] == "2":
            assert row["status"] == "ok" and float(row["final_w2"]) >= 0.0
        else:  # refused before tuning, so no Langevin steps were run
            assert row["status"] == "error" and row["error"].startswith("reference:")
            assert "8192 components" in row["error"]
            assert row["total_steps"] == ""
    assert len(_read_csv(out / "sweep_summary.csv")) == 4
    assert len(json.loads((out / "sweep.json").read_text())["results"]["cells"]) == 4
    # a bad tuning target is still a config error, caught before any cell runs
    cfg["tuning"]["gamma"] = -1
    bad_out = tmp_path / "bad"
    bad_path = _write_cfg(tmp_path / "bad.json", cfg)
    assert main(["sweep", "--config", bad_path, "--out", str(bad_out)]) == 2
    assert "gamma" in capsys.readouterr().err
    assert not (bad_out / "sweep_cells.csv").exists()


@pytest.mark.parametrize(
    "target, exc, prefix",
    [
        ("annealed_sample", DivergenceError("chain left the box", 0.5, 3), "divergence:"),
        ("composite_field", np.linalg.LinAlgError("lambda matrix is indefinite"), "numerical:"),
    ],
    ids=["divergence", "numerical"],
)
def test_sweep_records_sampling_failures(tmp_path, monkeypatch, target, exc, prefix):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    cfg = {
        "task": {"kind": "gaussian", "dim": 2, "n": [2, 3]},
        "sampling": {"chains": 50, "seed": 0},
    }
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "run"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 1
    cells = _read_csv(out / "sweep_cells.csv")
    assert len(cells) == 4
    for row in cells:
        assert row["status"] == "error" and row["error"] == f"{prefix} {exc}"
    assert all(row["failures"] == "1" for row in _read_csv(out / "sweep_summary.csv"))
    assert len(json.loads((out / "sweep.json").read_text())["results"]["cells"]) == 4


def test_reference_built_once_per_cell_pair(tmp_path, monkeypatch):
    from annealed_langevin import SampleSet, empirical_w2, exact_posterior_sample

    calls = []

    def counting(task, count, seed):
        calls.append((task.n, seed))
        return exact_posterior_sample(task, count, seed)

    monkeypatch.setattr(cli, "exact_posterior_sample", counting)
    cfg = dict(BASE, output={"formats": ["npy"]})
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "sample"
    assert main(["sample", "--config", path, "--out", str(out)]) == 0
    assert calls == [(3, 0)]
    # the shared reference gives the W2 a fresh reference gives, bit for bit
    report = json.loads((out / "sample.json").read_text())
    task = build_task(resolve_config(cfg), 3, 0)
    fresh = exact_posterior_sample(task, 200, 0)
    for method in ("geffner", "linhart"):
        points = np.load(out / f"samples_{method}.npy")
        expected = empirical_w2(SampleSet(points=points, level=0.0, seed=0), fresh).value
        assert report["results"]["methods"][method]["final_w2"] == expected
    calls.clear()
    sweep = {
        "task": {"kind": "gaussian", "dim": 2, "n": [2, 3]},
        "sampling": {"chains": 100, "seeds": [0, 1]},
    }
    path = _write_cfg(tmp_path / "sweep.json", sweep)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "sweep")]) == 0
    assert sorted(calls) == [(2, 0), (2, 1), (3, 0), (3, 1)]
