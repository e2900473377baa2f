from __future__ import annotations

import csv
import functools
import inspect
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from annealed_langevin import DivergenceError, TuningError, cli, empirical_w2, plan, tasks, theory
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
    # an integral float is an integer; a fractional one is refused (test_main_rejects_bad_config)
    whole = resolve_config({"task": {"dim": 3.0, "n": [2.0, 4]}, "sampling": {"chains": 1e2}})
    assert whole["task"]["dim"] == 3 and whole["task"]["n"] == [2, 4]
    assert whole["sampling"]["chains"] == 100 and isinstance(whole["sampling"]["chains"], int)


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
    with pytest.raises(ValueError, match="task.dim must be an integer, got 2.7"):
        resolve_config({"task": {"dim": 2.7}})
    with pytest.raises(ValueError, match="task.prior.scales must hold numbers, got '0.5'"):
        resolve_config({"task": {"kind": "gmm_prior", "prior": {"scales": ["0.5", 0.5]}}})
    with pytest.raises(ValueError, match="task.prior.weights must hold numbers, got True"):
        resolve_config({"task": {"kind": "gmm_prior", "prior": {"weights": [True, False]}}})
    with pytest.raises(ValueError, match="task.n list must be nonempty"):
        resolve_config({"task": {"n": []}})
    with pytest.raises(ValueError, match="task.dim must be positive"):
        resolve_config({"task": {"dim": 0}})
    with pytest.raises(ValueError, match="task.n must be at least 1"):  # when the cell is built
        build_task(resolve_config({"task": {"n": 0}}), 0, 0)


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
    listed = _write_cfg(tmp_path / "list.json", [BASE])
    assert main(["tune", "--config", listed, "--out", str(tmp_path / "out")]) == 2
    assert "error: config root must be a JSON object" in capsys.readouterr().err
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
            # an unknown output format, and no seeds to sweep, as for an empty task.n list
            ("sample", {"output": {"formats": ["csv", "parquet"]}}),
            ("sweep", {"sampling": {"seeds": []}}),
            # array-valued task parameters, a list n outside sweep and bad
            # tuning targets are refused before the output directory exists
            ("tune", {"task": {"kind": "gmm_prior", "prior": {"scales": None}}}),
            ("tune", {"task": {"kind": "gmm_likelihood", "likelihood_mixture": {"weights": None}}}),
            ("tune", {"task": {"likelihood": {"cov": [[1, None], [0, 1]]}}}),
            ("tune", {"task": {"likelihood": {"cov": 3}}}),
            ("tune", {"task": {"kind": "gmm_likelihood", "likelihood_mixture": {"base_cov": 3}}}),
            ("sample", {"task": {"n": [2, 3]}}),
            ("sweep", {"tuning": {"gamma": -1}}),
            # schedule values, a t_floor not below 1/T and no chains are refused there too
            ("sample", {"schedule": {"beta_min": -1}}),
            ("tune", {"tuning": {"T": 200000}}),
            ("sample", {"sampling": {"chains": 0}}),
            # integer values are refused, not truncated, when they have a
            # fractional part or are booleans
            ("tune", {"task": {"dim": 2.7}}),
            ("tune", {"task": {"dim": True}}),
            ("tune", {"task": {"data_seed": 0.5}}),
            ("tune", {"task": {"n": 3.9}}),
            ("sweep", {"task": {"n": [2, 3.5]}}),
            ("tune", {"tuning": {"T": 4.5}}),
            ("sample", {"sampling": {"chains": 64.8}}),
            ("sample", {"sampling": {"chains": True}}),
            ("sample", {"sampling": {"seed": 1.5}}),
            ("sweep", {"sampling": {"seeds": [1, 2.5]}}),
            # strings and booleans are refused in every numeric field, not
            # parsed or read as 0/1
            ("tune", {"task": {"dim": "3"}}),
            ("tune", {"task": {"n": "4"}}),
            ("sweep", {"task": {"n": [2, "4"]}}),
            ("tune", {"task": {"data_seed": "0"}}),
            ("tune", {"tuning": {"T": " 7 "}}),
            ("tune", {"tuning": {"gamma": "0.5"}}),
            ("tune", {"tuning": {"gamma": True}}),
            ("tune", {"tuning": {"omega": "0.5"}}),
            ("tune", {"tuning": {"eps_dsm_post": False}}),
            ("tune", {"schedule": {"beta_max": "20"}}),
            ("tune", {"schedule": {"beta_min": True}}),
            ("tune", {"task": {"likelihood": {"random_spd": {"eig_range": ["0.02", 0.1]}}}}),
            ("sample", {"sampling": {"chains": "64"}}),
            ("sample", {"sampling": {"seed": "1"}}),
            ("sweep", {"sampling": {"seeds": [1, "2"]}}),
            # and in every array-valued task field, at any depth
            ("tune", {"task": {"kind": "gmm_prior", "prior": {"scales": ["0.5", "0.5"]}}}),
            ("tune", {"task": {"kind": "gmm_prior", "prior": {"weights": [True, False]}}}),
            ("tune", {"task": {"kind": "gmm_prior", "prior": {"means": [["0", 0], [1, 1]]}}}),
            ("tune", {"task": {"likelihood": {"cov": [["1", "0"], ["0", "1"]]}}}),
            ("tune", {"task": {"likelihood": {"cov": [[True, 0], [0, 1]]}}}),
            ("tune", {"task": {"kind": "gmm_likelihood",
                               "likelihood_mixture": {"cov_scales": [1.5, "0.5"]}}}),
            ("tune", {"task": {"kind": "gmm_likelihood",
                               "likelihood_mixture": {"weights": [True, 1]}}}),
            ("tune", {"task": {"kind": "gmm_likelihood",
                               "likelihood_mixture": {"base_cov": [[1, 0], [0, "1"]]}}}),
            # an integer literal beyond the float range
            ("tune", {"tuning": {"gamma": 10**400}}),
            # reports are always JSON, so "json" is no output format
            ("sample", {"output": {"formats": ["json"]}}),
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


def test_unusable_output_directory_is_a_config_error(tmp_path, capsys, monkeypatch):
    # an --out that names a file, or a directory below one, cannot be created:
    # exit 2 before any cell runs, not a traceback
    ran = []
    monkeypatch.setattr(cli, "_run_cell", lambda *args: ran.append(args))
    path = _write_cfg(tmp_path / "cfg.json", {})
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):
        assert main(["tune", "--config", path, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
    assert ran == [] and afile.read_text() == ""


def test_unknown_output_format_names_the_known_ones(tmp_path, capsys):
    path = _write_cfg(tmp_path / "formats.json", {"output": {"formats": ["parquet"]}})
    out = tmp_path / "out"
    assert main(["sample", "--config", path, "--out", str(out)]) == 2
    assert "output.formats must be a list drawn from csv, npy" in capsys.readouterr().err
    assert not out.exists()


def test_sample_writes_csv_samples_by_default(tmp_path):
    # the samples file perfbench reads: the default formats are ["csv"] alone
    assert resolve_config({})["output"]["formats"] == ["csv"]
    path = _write_cfg(tmp_path / "cfg.json", dict(BASE, method="linhart"))
    assert main(["sample", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "sample.json",
        "samples_linhart.csv",
    ]


def test_null_in_likelihood_cov_is_named_non_finite(tmp_path, capsys):
    # a null becomes NaN, which also fails the symmetry test; the error names the entry
    cfg = {"task": {"likelihood": {"cov": [[None, 0], [0, 1]]}}}
    path = _write_cfg(tmp_path / "null.json", cfg)
    out = tmp_path / "out"
    assert main(["tune", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "likelihood_cov has non-finite entries [[0, 0]]" in err and "symmetric" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("kind", ["gaussian", "gmm_prior"])
def test_sample_sets_up_each_method_cell_once(tmp_path, monkeypatch, kind):
    # plan builds a cell's proxy set-up from one per-observation conjugate update
    # and builds its bridge rule; the sampler's field reads both from the plan
    calls = {"update": 0, "setup": 0, "rule": 0}
    update, init, rule = tasks._conjugate_update, theory._ProxySetup.__init__, theory._bridge_rule

    def counted_update(task, x):
        calls["update"] += x.shape[1] == 1  # the reference's joint update conditions on all n
        return update(task, x)

    def counted_init(*args):
        calls["setup"] += 1
        init(*args)

    def counted_rule(proxies):
        calls["rule"] += 1
        return rule(proxies)

    for module in (tasks, theory):
        monkeypatch.setattr(module, "_conjugate_update", counted_update)
    monkeypatch.setattr(theory._ProxySetup, "__init__", counted_init)
    monkeypatch.setattr(theory, "_bridge_rule", counted_rule)
    path = _write_cfg(tmp_path / "cfg.json", dict(BASE, task={"kind": kind, "dim": 2, "n": 3}))
    assert main(["sample", "--config", path, "--out", str(tmp_path / "run")]) == 0
    assert calls == {"update": 2, "setup": 2, "rule": 2}


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
    # --workers is accepted but has no effect: 50 chains x d=2 is below both
    # two-lane gates (the parallel batch and the W2 cap), so every cell is tuned
    # from the calling thread, in (n, seed, method) order
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
        ("exact_posterior_sample", ValueError("joint posterior cannot be built"), "reference:"),
    ],
    ids=["divergence", "numerical", "reference"],
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


class _TwoCpus:
    """Stands in for the os module in cli: two usable CPUs on any machine."""

    @staticmethod
    def sched_getaffinity(pid):
        return {0, 1}


def _force_path(monkeypatch, threaded: bool, serial: bool = False) -> list:
    """Send every sampling cell down one path: one lane, or two lanes that sample at once or, when
    serial, one after the other; returns (thread, n, method, plan) for each plan."""
    monkeypatch.setattr(cli, "os", _TwoCpus)
    monkeypatch.setattr(cli, "_OVERLAP_MIN_BATCH", 0 if threaded and not serial else 10**12)
    # the lane rule reads the W2 solve size from empirical_w2's default cap; a cap of 1 makes
    # every test batch a full-size solve, so a serial batch still takes two lanes
    monkeypatch.setattr(cli, "_CAP", 1 if threaded else 10**12)
    plans = []

    def recording_plan(task, method, *args, **kwargs):
        level_plan = plan(task, method, *args, **kwargs)
        plans.append((threading.get_ident(), task.n, method, level_plan))
        return level_plan

    monkeypatch.setattr(cli, "plan", recording_plan)
    return plans


def _plan_bytes(plans: list) -> list:
    return sorted((n, method, lp.h.tobytes(), lp.k.tobytes()) for _, n, method, lp in plans)


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_threaded_runner_gives_the_sequential_outputs(tmp_path, monkeypatch, command,
                                                      serial=False):
    # the two methods of a cell share nothing but the task and the cached
    # reference, so the helper thread changes no bit and no record's place
    cfg = dict(BASE, output={"formats": ["npy"]})
    if command == "sweep":
        cfg = dict(cfg, task={"kind": "gaussian", "dim": 2, "n": [2, 3]},
                   sampling={"chains": 100, "seeds": [0, 1]})
    path = _write_cfg(tmp_path / "cfg.json", cfg)
    outs, plans = {}, {}
    for threaded in (False, True):
        with monkeypatch.context() as patch:
            plans[threaded] = _force_path(patch, threaded, serial)
            outs[threaded] = tmp_path / f"threaded_{threaded}"
            assert main([command, "--config", path, "--out", str(outs[threaded])]) == 0
    main_thread = threading.get_ident()
    assert {ident for ident, *_ in plans[False]} == {main_thread}
    assert {(ident == main_thread, method) for ident, _, method, _ in plans[True]} == {
        (True, "geffner"), (False, "linhart")
    }
    assert _plan_bytes(plans[True]) == _plan_bytes(plans[False])
    if command == "sweep":
        for name in ("sweep_cells.csv", "sweep_summary.csv"):
            assert (outs[True] / name).read_text() == (outs[False] / name).read_text()
        return
    reports = [json.loads((outs[t] / "sample.json").read_text())["results"] for t in (False, True)]
    assert list(reports[0]["methods"]) == list(reports[1]["methods"]) == ["geffner", "linhart"]
    for method in ("geffner", "linhart"):
        blocks = [report["methods"][method] for report in reports]
        assert blocks[1]["final_w2"] == blocks[0]["final_w2"]
        name = f"samples_{method}.npy"
        assert np.load(outs[True] / name).tobytes() == np.load(outs[False] / name).tobytes()


def test_threaded_runner_evaluates_in_method_order_with_one_reference(tmp_path, monkeypatch,
                                                                      serial=False):
    # the helper samples while the first method samples (or, when serial, once
    # it has sampled), but builds no reference and starts no W2 until the
    # first cell has ended
    import time

    from annealed_langevin import annealed_sample, empirical_w2, exact_posterior_sample

    _force_path(monkeypatch, threaded=True, serial=serial)
    main_thread, events = threading.get_ident(), []

    def slow_first_sample(*args, **kwargs):
        if threading.get_ident() == main_thread:
            time.sleep(0.3)  # the helper would evaluate first if nothing held it
        return annealed_sample(*args, **kwargs)

    def counting_reference(task, count, seed):
        events.append(("reference", task.n, seed))
        return exact_posterior_sample(task, count, seed)

    def recording_w2(a, b):
        first = threading.get_ident() == main_thread
        events.append(("w2 start", first))
        out = empirical_w2(a, b)
        events.append(("w2 end", first))
        return out

    monkeypatch.setattr(cli, "annealed_sample", slow_first_sample)
    monkeypatch.setattr(cli, "exact_posterior_sample", counting_reference)
    monkeypatch.setattr(cli, "empirical_w2", recording_w2)
    sweep = {
        "task": {"kind": "gaussian", "dim": 2, "n": [2, 3]},
        "sampling": {"chains": 60, "seeds": [0, 1]},
    }
    path = _write_cfg(tmp_path / "sweep.json", sweep)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "run")]) == 0
    cell = [("w2 start", True), ("w2 end", True), ("w2 start", False), ("w2 end", False)]
    assert events == [
        event for n in (2, 3) for seed in (0, 1) for event in [("reference", n, seed), *cell]
    ]
    assert [(row["n"], row["seed"], row["method"]) for row in
            _read_csv(tmp_path / "run" / "sweep_cells.csv")] == [
        (str(n), str(seed), method) for n in (2, 3) for seed in (0, 1)
        for method in ("geffner", "linhart")
    ]


@pytest.mark.parametrize("failure", ["tuning", "divergence"])
def test_threaded_runner_records_a_first_method_failure(tmp_path, monkeypatch, failure):
    # a failed first cell is recorded as the sequential runner records it, and
    # the helper's cell, which waits for it to end, still completes
    _force_path(monkeypatch, threaded=True)
    recording_plan, field = cli.plan, cli.composite_field

    def failing_plan(task, method, *args, **kwargs):
        if method == "geffner":
            raise TuningError("level 0: no step size meets the bias budget")
        return recording_plan(task, method, *args, **kwargs)

    def diverging_field(task, method, sched, *plan_setup):
        if method != "geffner":
            return field(task, method, sched, *plan_setup)

        def factory(level, t):
            def diverge(theta, t_arg):
                raise DivergenceError("chain left the box", t_arg, level)

            return diverge

        return factory

    monkeypatch.setattr(cli, "plan", failing_plan)
    if failure == "divergence":
        monkeypatch.setattr(cli, "plan", recording_plan)
        monkeypatch.setattr(cli, "composite_field", diverging_field)
    path = _write_cfg(tmp_path / "cfg.json", BASE)
    out = tmp_path / "run"
    assert main(["sample", "--config", path, "--out", str(out)]) == 1
    methods = json.loads((out / "sample.json").read_text())["results"]["methods"]
    assert list(methods) == ["geffner", "linhart"]
    assert methods["geffner"]["status"] == "error"
    assert methods["geffner"]["error"].startswith(f"{failure}:")
    assert methods["linhart"]["status"] == "ok" and methods["linhart"]["final_w2"] >= 0.0
    assert (out / "samples_linhart.csv").exists() and not (out / "samples_geffner.csv").exists()


def test_threaded_runner_raises_a_helper_error_in_main(tmp_path, monkeypatch):
    # an error no record holds, raised on the helper thread, ends the command
    # as it would in the calling thread: out of main, with nothing written
    _force_path(monkeypatch, threaded=True)
    recording_plan, main_thread = cli.plan, threading.get_ident()

    def broken_plan(task, method, *args, **kwargs):
        if threading.get_ident() != main_thread:
            raise RuntimeError("helper broke")
        return recording_plan(task, method, *args, **kwargs)

    monkeypatch.setattr(cli, "plan", broken_plan)
    path = _write_cfg(tmp_path / "cfg.json", BASE)
    out, threads = tmp_path / "run", threading.active_count()
    with pytest.raises(RuntimeError, match="helper broke"):
        main(["sample", "--config", path, "--out", str(out)])
    assert not (out / "sample.json").exists()
    assert threading.active_count() == threads  # the helper was joined


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_serial_lanes_give_the_sequential_outputs(tmp_path, monkeypatch, command):
    test_threaded_runner_gives_the_sequential_outputs(tmp_path, monkeypatch, command, serial=True)


def test_serial_lanes_evaluate_in_method_order_with_one_reference(tmp_path, monkeypatch):
    test_threaded_runner_evaluates_in_method_order_with_one_reference(tmp_path, monkeypatch,
                                                                      serial=True)


def test_serial_lanes_plan_after_the_previous_sampling_and_overlap_its_w2(tmp_path, monkeypatch):
    # below the parallel batch a cell starts its plan only once the previous
    # cell has sampled, so its span holds no wait; its plan and sampling then
    # run while the previous cell's W2 does
    from annealed_langevin import annealed_sample

    _force_path(monkeypatch, threaded=True, serial=True)
    recording_plan, spans = cli.plan, []

    def timed(name, func, pause=0.0):
        def hook(*args, **kwargs):
            start = time.perf_counter()
            out = func(*args, **kwargs)
            time.sleep(pause)  # a W2 long enough for the next cell to plan and sample within
            spans.append((name, threading.get_ident(), start, time.perf_counter()))
            return out

        return hook

    monkeypatch.setattr(cli, "plan", timed("plan", recording_plan))
    monkeypatch.setattr(cli, "annealed_sample", timed("sample", annealed_sample))
    monkeypatch.setattr(cli, "empirical_w2", timed("w2", cli.empirical_w2, pause=0.3))
    sweep = {
        "task": {"kind": "gaussian", "dim": 2, "n": [2, 3]},
        "sampling": {"chains": 60, "seeds": [0]},
    }
    path = _write_cfg(tmp_path / "sweep.json", sweep)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "run")]) == 0
    lanes: dict = {}
    for name, ident, start, end in spans:
        lanes.setdefault(ident, []).append((name, start, end))
    caller, helper = lanes.pop(threading.get_ident()), *lanes.values()
    assert len(caller) == len(helper) == 6  # cells 0 and 2 on the caller, 1 and 3 on the helper
    cells = [{name: span for name, *span in lane[j:j + 3]}
             for j in (0, 3) for lane in (caller, helper)]
    assert [list(cell) for cell in cells] == [["plan", "sample", "w2"]] * 4
    for before, cell in zip(cells, cells[1:]):
        assert cell["plan"][0] >= before["sample"][1]  # planned once the previous cell sampled
        assert cell["sample"][1] <= before["w2"][1]  # sampled during the previous cell's W2
        assert cell["w2"][0] >= before["w2"][1]  # one W2 at a time, in cell order


class _OneCpu:
    @staticmethod
    def sched_getaffinity(pid):
        return {0}


class _CountOnly:
    """An os without sched_getaffinity, as on macOS and Windows."""

    cpu_count = staticmethod(lambda: 2)


@pytest.mark.parametrize(
    "os_module, command, chains, dim, lanes",
    [
        (_TwoCpus, "tune", 3000, 10, 1),
        (_OneCpu, "sample", 3000, 10, 1),
        (_TwoCpus, "sample", "cap - 1", 2, 1),  # chains below the gate: a short W2
        (_TwoCpus, "sample", "cap", 2, 2),  # serial sampling
        (_CountOnly, "sweep", "cap", 2, 2),
        (_TwoCpus, "sample", 3000, 10, 2),  # parallel sampling
        (_TwoCpus, "sample", 900, 10, 2),  # parallel sampling needs no full-size W2
    ],
    ids=["tune", "one CPU", "short W2", "serial", "serial, cpu_count", "parallel",
         "parallel, short W2"],
)
def test_lane_choice(monkeypatch, os_module, command, chains, dim, lanes):
    # two lanes need two CPUs, a command that samples, and either a batch of
    # _OVERLAP_MIN_BATCH (parallel sampling) or a full-size W2 to hide
    cap = inspect.signature(empirical_w2).parameters["cap"].default
    chains = {"cap - 1": cap - 1, "cap": cap}.get(chains, chains)
    monkeypatch.setattr(cli, "os", os_module)
    cfg = resolve_config({"task": {"dim": dim}, "sampling": {"chains": chains}})
    serial = chains * dim < cli._OVERLAP_MIN_BATCH
    assert cli._lanes(cfg, tune_only=command == "tune") == (lanes, serial)


@pytest.mark.parametrize("failure", ["tuning", "divergence"])
@pytest.mark.parametrize("failing", ["geffner", "linhart"], ids=["caller lane", "helper lane"])
def test_serial_lanes_record_a_failure_in_either_lane(tmp_path, monkeypatch, failure, failing):
    # a cell that fails before or during sampling still lets the next cell
    # plan, and the records keep their places
    _force_path(monkeypatch, threaded=True, serial=True)
    recording_plan, field = cli.plan, cli.composite_field

    def failing_plan(task, method, *args, **kwargs):
        if method == failing and task.n == 2:
            raise TuningError("level 0: no step size meets the bias budget")
        return recording_plan(task, method, *args, **kwargs)

    def diverging_field(task, method, sched, *plan_setup):
        if method != failing or task.n != 2:
            return field(task, method, sched, *plan_setup)
        return lambda level, t: functools.partial(_diverge, level=level)

    if failure == "tuning":
        monkeypatch.setattr(cli, "plan", failing_plan)
    else:
        monkeypatch.setattr(cli, "composite_field", diverging_field)
    sweep = {"task": {"kind": "gaussian", "dim": 2, "n": [2, 3]}, "sampling": {"chains": 60}}
    path = _write_cfg(tmp_path / "sweep.json", sweep)
    out = tmp_path / "run"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 1
    rows = _read_csv(out / "sweep_cells.csv")
    assert [(row["n"], row["method"]) for row in rows] == [
        (n, method) for n in ("2", "3") for method in ("geffner", "linhart")
    ]
    for row in rows:
        if (row["n"], row["method"]) == ("2", failing):
            assert row["status"] == "error" and row["error"].startswith(f"{failure}:")
        else:
            assert row["status"] == "ok" and float(row["final_w2"]) >= 0.0


def _diverge(theta, t_arg, level):
    raise DivergenceError("chain left the box", t_arg, level)


@pytest.mark.parametrize("serial", [False, True], ids=["parallel", "serial"])
@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_an_unrecorded_error_in_either_lane_leaves_no_lane_waiting(tmp_path, monkeypatch, failing,
                                                                   serial):
    # the error leaves main; the other lane ends its cell and starts no other
    plans = _force_path(monkeypatch, threaded=True, serial=serial)
    recording_plan, main_thread, helpers = cli.plan, threading.get_ident(), set()

    def broken_plan(task, method, *args, **kwargs):
        caller = threading.get_ident() == main_thread
        if not caller:
            helpers.add(threading.current_thread())
        if task.n == 3 and caller == (failing == "caller"):
            raise RuntimeError(f"{failing} broke")
        return recording_plan(task, method, *args, **kwargs)

    monkeypatch.setattr(cli, "plan", broken_plan)
    sweep = {"task": {"kind": "gaussian", "dim": 2, "n": [2, 3, 4]}, "sampling": {"chains": 60}}
    path = _write_cfg(tmp_path / "sweep.json", sweep)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match=f"{failing} broke"):
        main(["sweep", "--config", path, "--out", str(out)])
    assert not (out / "sweep.json").exists()
    (helper,) = helpers
    helper.join(timeout=30)
    assert not helper.is_alive()
    if serial or failing == "caller":  # else the caller may start n=4 before the helper fails
        assert {n for _, n, _, _ in plans} <= {2, 3}
