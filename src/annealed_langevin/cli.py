"""Config-driven experiment runner.

Subcommands: tune (emit per-level plans), sample (tune + run annealed Langevin
+ exact-reference W2 evaluation), sweep (grid over observation counts, seeds
and methods with aggregated tables). Reports are CSV for plot-ready tables
and JSON for summaries; every JSON report embeds the fully resolved config.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

from .composite import METHODS, compose_dsm_error, composite_field
from .metrics import empirical_w2
from .sampler import DivergenceError, SampleSet, annealed_sample
from .schedule import Schedule
from .tasks import (
    _COMPONENT_CAP,
    KINDS,
    Task,
    _check_component_cap,
    exact_posterior_sample,
    gaussian_task,
    gmm_likelihood_task,
    gmm_prior_task,
    simulate_observations,
)
from .tuner import LevelPlan, TuningConfig, TuningError, global_bound, plan

__all__ = ["SCHEMA_VERSION", "load_config", "resolve_config", "build_task", "main"]

SCHEMA_VERSION = 1

_PLAN_COLUMNS = ("t", "h", "k", "m", "M", "w2_next", "B")


def _default_config() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "task": {
            "kind": "gaussian",
            "dim": 2,
            "n": 10,
            "data_seed": 0,
            "likelihood": {"cov": None, "random_spd": {"eig_range": [0.02, 0.1]}},
            "prior": {"means": None, "scales": [0.5, 0.5], "weights": [0.5, 0.5]},
            "likelihood_mixture": {
                "base_cov": None,
                "cov_scales": [2.25, 1.0 / 9.0],
                "weights": [0.5, 0.5],
            },
        },
        "method": "both",
        "tuning": {
            "gamma": 0.5,
            "omega": None,
            "eps_dsm_prior": 0.0,
            "eps_dsm_post": 0.0,
            "T": 10,
        },
        "schedule": {"beta_min": 0.1, "beta_max": 20.0, "t_floor": 1e-5},
        "sampling": {"chains": 3000, "seed": 0, "seeds": None},
        "output": {"directory": "runs", "formats": ["csv", "json"]},
    }


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError("config root must be a JSON object")
    return user


def resolve_config(
    user: dict,
    seed: int | None = None,
    method: str | None = None,
    out: str | None = None,
) -> dict:
    """Merge defaults, apply CLI overrides and materialize derived defaults."""
    cfg = _merge(_default_config(), user)
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {cfg['schema_version']!r}")
    if seed is not None:
        cfg["sampling"]["seed"] = int(seed)
    if method is not None:
        cfg["method"] = method
    if out is not None:
        cfg["output"]["directory"] = str(out)
    task = cfg["task"]
    if task["kind"] not in KINDS:
        raise ValueError(f"unknown task kind {task['kind']!r}")
    dim = int(task["dim"])
    if dim < 1:
        raise ValueError("task.dim must be positive")
    if cfg["method"] not in (*METHODS, "both"):
        raise ValueError(f"unknown method {cfg['method']!r}")
    if task["prior"]["means"] is None:
        task["prior"]["means"] = [[0.0] * dim, [1.0] * dim]
    if cfg["tuning"]["omega"] is None:
        cfg["tuning"]["omega"] = 0.8 if dim >= 10 else 0.5
    if cfg["sampling"]["seeds"] is not None:
        cfg["sampling"]["seeds"] = [int(s) for s in cfg["sampling"]["seeds"]]
    return cfg


def _methods(cfg: dict) -> list[str]:
    return list(METHODS) if cfg["method"] == "both" else [cfg["method"]]


def _key_rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _random_spd(dim: int, eig_range: tuple[float, float], rng: np.random.Generator) -> np.ndarray:
    lo, hi = float(eig_range[0]), float(eig_range[1])
    if not 0 < lo <= hi:
        raise ValueError("eig_range must satisfy 0 < low <= high")
    eigs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mat = (q * eigs) @ q.T
    return 0.5 * (mat + mat.T)


def build_task(cfg: dict, n: int, cell_seed: int) -> Task:
    """Instantiate the configured task with fresh data for one (n, seed) cell.

    The likelihood matrix is keyed by (data_seed, cell_seed) and the
    observations by (data_seed, cell_seed, n), so each cell is reproducible
    in isolation.
    """
    task_cfg = cfg["task"]
    kind = task_cfg["kind"]
    dim = int(task_cfg["dim"])
    data_seed = int(task_cfg["data_seed"])
    if n < 1:
        raise ValueError("task.n must be at least 1")
    empty = np.zeros((0, dim))
    if kind == "gmm_likelihood":
        mix = task_cfg["likelihood_mixture"]
        base = None if mix["base_cov"] is None else np.asarray(mix["base_cov"], dtype=float)
        template = gmm_likelihood_task(
            empty, base_cov=base, cov_scales=mix["cov_scales"], weights=mix["weights"], dim=dim
        )
    else:
        like = task_cfg["likelihood"]
        if like["cov"] is not None:
            cov = np.asarray(like["cov"], dtype=float)
        else:
            cov = _random_spd(
                dim, like["random_spd"]["eig_range"], _key_rng(data_seed, cell_seed)
            )
        if kind == "gaussian":
            template = gaussian_task(cov, empty)
        else:
            prior = task_cfg["prior"]
            template = gmm_prior_task(
                cov,
                empty,
                prior_means=np.asarray(prior["means"], dtype=float),
                prior_scales=prior["scales"],
                prior_weights=prior["weights"],
            )
    obs = simulate_observations(template, n, _key_rng(data_seed, cell_seed, n))
    return dataclasses.replace(template, observations=obs)


def _schedule(cfg: dict) -> Schedule:
    block = cfg["schedule"]
    return Schedule(
        beta_min=float(block["beta_min"]),
        beta_max=float(block["beta_max"]),
        t_floor=float(block["t_floor"]),
    )


def _tuning_config(cfg: dict, n: int, method: str) -> TuningConfig:
    tune = cfg["tuning"]
    eps = compose_dsm_error(
        float(tune["eps_dsm_prior"]), float(tune["eps_dsm_post"]), n, method
    )
    return TuningConfig(
        gamma=float(tune["gamma"]),
        omega=float(tune["omega"]),
        eps_dsm=eps,
        T=int(tune["T"]),
    )


def _require_int_n(cfg: dict, command: str) -> int:
    n = cfg["task"]["n"]
    if isinstance(n, list):
        raise ValueError(f"task.n is a list; use the sweep command instead of {command}")
    return int(n)


def _write_plan_csv(path: Path, level_plan: LevelPlan) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PLAN_COLUMNS)
        for p in range(level_plan.T):
            writer.writerow(
                [
                    f"{level_plan.t[p]:.12g}",
                    f"{level_plan.h[p]:.12g}",
                    int(level_plan.k[p]),
                    f"{level_plan.m[p]:.12g}",
                    f"{level_plan.M[p]:.12g}",
                    f"{level_plan.w2_next[p]:.12g}",
                    f"{level_plan.B[p]:.12g}",
                ]
            )


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_tune(cfg: dict, out_dir: Path) -> int:
    n = _require_int_n(cfg, "tune")
    sched = _schedule(cfg)
    task = build_task(cfg, n, int(cfg["sampling"]["seed"]))
    results: dict[str, dict] = {}
    timings: dict[str, float] = {}
    code = 0
    for method in _methods(cfg):
        start = time.perf_counter()
        try:
            level_plan = plan(task, method, _tuning_config(cfg, n, method), sched)
        except TuningError as exc:
            results[method] = {"feasible": False, "error": str(exc)}
            code = 1
        else:
            csv_name = f"plan_{method}.csv"
            _write_plan_csv(out_dir / csv_name, level_plan)
            results[method] = {
                "feasible": True,
                "total_steps": level_plan.total_steps,
                "global_bound": global_bound(level_plan),
                "proxy": level_plan.proxy,
                "csv": csv_name,
            }
        timings[method] = time.perf_counter() - start
    _write_json(
        out_dir / "tune.json",
        {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "results": results,
            "timings": timings,
        },
    )
    return code


def _shared_reference(task: Task, count: int, seed: int) -> Callable[[], SampleSet]:
    """The exact posterior sample of a cell, built on first use and reused by every method."""
    return functools.cache(lambda: exact_posterior_sample(task, count, seed))


def _run_cell(
    cfg: dict,
    tuning: TuningConfig,
    method: str,
    seed: int,
    task: Task,
    sched: Schedule,
    reference: Callable[[], SampleSet],
) -> dict:
    record: dict = {"n": task.n, "seed": seed, "method": method, "status": "ok", "error": ""}
    timing: dict[str, float] = {}
    record["_timings"] = timing
    try:
        _check_component_cap(task, _COMPONENT_CAP)  # decided by the config: fail before tuning
    except ValueError as exc:
        record.update(status="error", error=f"reference: {exc}")
        return record
    start = time.perf_counter()
    try:
        level_plan = plan(task, method, tuning, sched)
        timing["tune_s"] = time.perf_counter() - start
        record["total_steps"] = level_plan.total_steps
        record["global_bound"] = global_bound(level_plan)
        record["proxy"] = level_plan.proxy
        start = time.perf_counter()
        samples = annealed_sample(
            level_plan, composite_field(task, method, sched), int(cfg["sampling"]["chains"]), seed
        )
        timing["sample_s"] = time.perf_counter() - start
        start = time.perf_counter()
        try:
            exact = reference()
        except ValueError as exc:  # the joint mixture cannot be built; not a config error
            record.update(status="error", error=f"reference: {exc}")
        else:
            record["final_w2"] = empirical_w2(samples, exact).value
            record["_samples"] = samples
            timing["evaluate_s"] = time.perf_counter() - start
    except TuningError as exc:
        record.update(status="error", error=f"tuning: {exc}")
    except DivergenceError as exc:
        record.update(status="error", error=f"divergence: {exc}")
    except np.linalg.LinAlgError as exc:
        record.update(status="error", error=f"numerical: {exc}")
    return record


def cmd_sample(cfg: dict, out_dir: Path) -> int:
    n = _require_int_n(cfg, "sample")
    seed = int(cfg["sampling"]["seed"])
    tunings = {method: _tuning_config(cfg, n, method) for method in _methods(cfg)}
    sched = _schedule(cfg)
    task = build_task(cfg, n, seed)
    reference = _shared_reference(task, int(cfg["sampling"]["chains"]), seed)
    formats = list(cfg["output"]["formats"])
    results: dict[str, dict] = {}
    timings: dict[str, dict] = {}
    code = 0
    for method, tuning in tunings.items():
        record = _run_cell(cfg, tuning, method, seed, task, sched, reference)
        timings[method] = record.pop("_timings")
        samples = record.pop("_samples", None)
        if record["status"] != "ok":
            code = 1
        elif samples is not None:
            record["samples_files"] = _dump_points(
                out_dir, f"samples_{method}", samples.points, formats
            )
        record.pop("n", None)
        record.pop("seed", None)
        record.pop("method", None)
        results[method] = record
    _write_json(
        out_dir / "sample.json",
        {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "results": {"seed": seed, "n": n, "methods": results},
            "timings": timings,
        },
    )
    return code


def _dump_points(out_dir: Path, name: str, points: np.ndarray, formats: list[str]) -> list[str]:
    written: list[str] = []
    if "npy" in formats:
        np.save(out_dir / f"{name}.npy", points)
        written.append(f"{name}.npy")
    if "csv" in formats or not written:
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j}" for j in range(points.shape[1])])
            for row in points:
                writer.writerow([f"{value:.12g}" for value in row])
        written.append(path.name)
    return written


def cmd_sweep(cfg: dict, out_dir: Path, workers: int = 1) -> int:
    n_value = cfg["task"]["n"]
    n_list = [int(v) for v in (n_value if isinstance(n_value, list) else [n_value])]
    if not n_list:
        raise ValueError("task.n list must be nonempty")
    seeds = cfg["sampling"]["seeds"] or [int(cfg["sampling"]["seed"])]
    methods = _methods(cfg)
    tunings = {(n, method): _tuning_config(cfg, n, method) for n in n_list for method in methods}
    sched = _schedule(cfg)
    start_all = time.perf_counter()

    def run_pair(pair: tuple[int, int]) -> list[dict]:
        n, seed = pair
        task = build_task(cfg, n, seed)  # shared by both methods within a cell
        reference = _shared_reference(task, int(cfg["sampling"]["chains"]), seed)
        records = []
        for method in methods:
            record = _run_cell(cfg, tunings[n, method], method, seed, task, sched, reference)
            record.pop("_samples", None)
            record.pop("_timings", None)
            records.append(record)
        return records

    pairs = [(n, seed) for n in n_list for seed in seeds]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            record_lists = list(pool.map(run_pair, pairs))
    else:
        record_lists = [run_pair(pair) for pair in pairs]
    records = [record for sub in record_lists for record in sub]

    cell_columns = [
        "n",
        "seed",
        "method",
        "status",
        "total_steps",
        "final_w2",
        "global_bound",
        "proxy",
        "error",
    ]
    with open(out_dir / "sweep_cells.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cell_columns)
        writer.writeheader()
        for record in records:
            writer.writerow({key: record.get(key, "") for key in cell_columns})

    summary_rows = []
    for n in n_list:
        for method in methods:
            cell = [r for r in records if r["n"] == n and r["method"] == method]
            ok = [r for r in cell if r["status"] == "ok"]
            row = {
                "n": n,
                "method": method,
                "cells": len(cell),
                "failures": len(cell) - len(ok),
            }
            for field in ("total_steps", "final_w2"):
                values = np.array([r[field] for r in ok], dtype=float)
                row[f"{field}_mean"] = float(values.mean()) if values.size else ""
                row[f"{field}_std"] = float(values.std()) if values.size else ""
            summary_rows.append(row)
    summary_columns = [
        "n",
        "method",
        "cells",
        "failures",
        "total_steps_mean",
        "total_steps_std",
        "final_w2_mean",
        "final_w2_std",
    ]
    with open(out_dir / "sweep_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=summary_columns)
        writer.writeheader()
        writer.writerows(summary_rows)

    _write_json(
        out_dir / "sweep.json",
        {
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "results": {"cells": records, "summary": summary_rows},
            "timings": {"total_s": time.perf_counter() - start_all},
        },
    )
    return 0 if all(r["status"] == "ok" for r in records) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="annealed-langevin",
        description="Tune and run annealed Langevin samplers for multi-observation posteriors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("tune", "emit per-level step-size/step-count plans"),
        ("sample", "tune, sample and evaluate the final Wasserstein error"),
        ("sweep", "grid over observation counts, seeds and methods"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON run config")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        cmd.add_argument("--seed", type=int, default=None, help="override sampling.seed")
        cmd.add_argument(
            "--method", choices=[*METHODS, "both"], default=None, help="override method"
        )
        cmd.add_argument("--workers", type=int, default=1, help="parallel sweep cells")
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(
            load_config(args.config), seed=args.seed, method=args.method, out=args.out
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg["output"]["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "tune":
            return cmd_tune(cfg, out_dir)
        if args.command == "sample":
            return cmd_sample(cfg, out_dir)
        return cmd_sweep(cfg, out_dir, workers=max(1, args.workers))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
