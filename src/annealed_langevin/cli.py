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
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

from .composite import compose_dsm_error, composite_field
from .metrics import _CAP, empirical_w2
from .sampler import DivergenceError, SampleSet, _keyed_rng, annealed_sample
from .schedule import Schedule, levels
from .tasks import (
    KINDS,
    Task,
    _check_component_cap,
    exact_posterior_sample,
    gaussian_task,
    gmm_likelihood_task,
    gmm_prior_task,
    simulate_observations,
)
from .theory import METHODS
from .tuner import LevelPlan, TuningConfig, TuningError, global_bound, plan

__all__ = ["SCHEMA_VERSION", "load_config", "resolve_config", "build_task", "main"]

SCHEMA_VERSION = 1

_PLAN_COLUMNS = ("t", "h", "k", "m", "M", "w2_next", "B")
_FORMATS = ("csv", "npy")  # reports are always JSON
# chains x dim from which two lanes sample at once (`_lanes`, README CLI)
_OVERLAP_MIN_BATCH = 8192


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
        "output": {"directory": "runs", "formats": ["csv"]},
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


def _int(value, name: str) -> int:
    """value as an int; a string, a boolean or a number with a fractional part is refused."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _float(value, name: str) -> float:
    """value as a finite float; a string or a bool is refused, not parsed (" 7 ") or read as 0/1."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not np.isfinite(float(value)):  # JSON's NaN, Infinity and -Infinity
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _numbers(value, name: str) -> None:
    """Refuse a string, a boolean, NaN or an infinity anywhere in value; a null is left to Task."""
    if isinstance(value, dict):
        for key, entry in value.items():
            _numbers(entry, f"{name}.{key}")
    elif isinstance(value, list):
        for entry in value:
            _numbers(entry, name)
    elif isinstance(value, (bool, str)):
        raise ValueError(f"{name} must hold numbers, got {value!r}")
    elif isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"{name} must hold finite numbers, got {value!r}")


def resolve_config(
    user: dict,
    seed: int | None = None,
    method: str | None = None,
    out: str | None = None,
) -> dict:
    """Merge defaults, apply CLI overrides, materialize derived defaults and convert every value.

    This is the one place that converts config values, so a wrongly typed one
    raises TypeError or ValueError here, before any output is written.
    """
    cfg = _merge(_default_config(), user)
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {cfg['schema_version']!r}")
    if seed is not None:
        cfg["sampling"]["seed"] = seed
    if method is not None:
        cfg["method"] = method
    if out is not None:
        cfg["output"]["directory"] = str(out)
    task = cfg["task"]
    if task["kind"] not in KINDS:
        raise ValueError(f"unknown task kind {task['kind']!r}")
    dim = task["dim"] = _int(task["dim"], "task.dim")
    task["data_seed"] = _int(task["data_seed"], "task.data_seed")
    n = task["n"]
    task["n"] = [_int(v, "task.n") for v in n] if isinstance(n, list) else _int(n, "task.n")
    if task["n"] == []:
        raise ValueError("task.n list must be nonempty")
    like = task["likelihood"]
    if task["kind"] != "gmm_likelihood" and like["cov"] is None:  # only then is it used
        spd, name = like["random_spd"], "task.likelihood.random_spd.eig_range"
        lo, hi = spd["eig_range"] = [_float(v, name) for v in spd["eig_range"]]
        if not 0 < lo <= hi:
            raise ValueError(f"{name} must satisfy 0 < low <= high")
    if dim < 1:
        raise ValueError("task.dim must be positive")
    if cfg["method"] not in (*METHODS, "both"):
        raise ValueError(f"unknown method {cfg['method']!r}")
    if task["prior"]["means"] is None:
        task["prior"]["means"] = [[0.0] * dim, [1.0] * dim]
    for section in ("likelihood", "prior", "likelihood_mixture"):  # the array-valued fields
        _numbers(task[section], f"task.{section}")
    tune, sampling = cfg["tuning"], cfg["sampling"]
    if tune["omega"] is None:
        tune["omega"] = 0.8 if dim >= 10 else 0.5
    for key in ("gamma", "omega", "eps_dsm_prior", "eps_dsm_post"):
        tune[key] = _float(tune[key], f"tuning.{key}")
    tune["T"] = _int(tune["T"], "tuning.T")
    for key in ("beta_min", "beta_max", "t_floor"):
        cfg["schedule"][key] = _float(cfg["schedule"][key], f"schedule.{key}")
    output = cfg["output"]
    if not isinstance(output["directory"], str):
        raise ValueError("output.directory must be a string")
    formats = output["formats"]
    if not isinstance(formats, list) or not all(f in _FORMATS for f in formats):
        raise ValueError(f"output.formats must be a list drawn from {', '.join(_FORMATS)}")
    sampling["chains"] = _int(sampling["chains"], "sampling.chains")
    sampling["seed"] = _int(sampling["seed"], "sampling.seed")
    if sampling["chains"] < 1:
        raise ValueError("sampling.chains must be at least 1")
    if sampling["seeds"] is not None:
        sampling["seeds"] = [_int(s, "sampling.seeds") for s in sampling["seeds"]]
        if not sampling["seeds"]:
            raise ValueError("sampling.seeds list must be nonempty")
    return cfg


def _random_spd(dim: int, eig_range: tuple[float, float], rng: np.random.Generator) -> np.ndarray:
    lo, hi = eig_range
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
    kind, dim, data_seed = task_cfg["kind"], task_cfg["dim"], task_cfg["data_seed"]
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
        cov = like["cov"]  # gaussian_task and gmm_prior_task convert it; Task checks it
        if cov is None:
            cov = _random_spd(
                dim, like["random_spd"]["eig_range"], _keyed_rng(data_seed, cell_seed)
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
    obs = simulate_observations(template, n, _keyed_rng(data_seed, cell_seed, n))
    return dataclasses.replace(template, observations=obs)


def _schedule(cfg: dict) -> Schedule:
    return Schedule(**cfg["schedule"])


def _tuning_config(cfg: dict, n: int, method: str) -> TuningConfig:
    tune = cfg["tuning"]
    eps = compose_dsm_error(tune["eps_dsm_prior"], tune["eps_dsm_post"], n, method)
    return TuningConfig(gamma=tune["gamma"], omega=tune["omega"], eps_dsm=eps, T=tune["T"])


def _grid(cfg: dict, command: str) -> tuple[Schedule, list[tuple[int, Task, dict]]]:
    """The schedule and every (n, seed) cell in run order: its seed, task and per-method tuning.

    `tune` and `sample` have one cell; `sweep` has one per (n, seed). Building
    them all up front raises every config error here, before any output.
    """
    sched = _schedule(cfg)
    levels(sched, cfg["tuning"]["T"])  # refuses a t_floor that is not below 1/T
    n_value = cfg["task"]["n"]
    if isinstance(n_value, list) and command != "sweep":
        raise ValueError(f"task.n is a list; use the sweep command instead of {command}")
    n_list = n_value if isinstance(n_value, list) else [n_value]
    seeds = (command == "sweep" and cfg["sampling"]["seeds"]) or [cfg["sampling"]["seed"]]
    methods = list(METHODS) if cfg["method"] == "both" else [cfg["method"]]
    return sched, [
        (seed, build_task(cfg, n, seed), {m: _tuning_config(cfg, n, m) for m in methods})
        for n in n_list
        for seed in seeds
    ]


def _write_plan_csv(path: Path, level_plan: LevelPlan) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PLAN_COLUMNS)
        for row in zip(*(getattr(level_plan, name) for name in _PLAN_COLUMNS)):
            writer.writerow([v if isinstance(v, np.integer) else f"{v:.12g}" for v in row])


def _write_report(path: Path, cfg: dict, results: dict, timings: dict) -> None:
    report = dict(schema_version=SCHEMA_VERSION, config=cfg, results=results, timings=timings)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_cell(
    cfg: dict,
    tuning: TuningConfig,
    method: str,
    seed: int,
    task: Task,
    sched: Schedule,
    reference: Callable[[], SampleSet],
    stop_after_plan: bool,
    wait: Callable[[], object],
) -> dict:
    """One (n, seed, method) cell: plan, then sample and evaluate unless stop_after_plan.

    A failure is recorded in the returned record, its error prefixed by its
    class. Keys starting with an underscore (timings, plan, samples) are for
    the report writers and never reach a report as they are. Evaluation starts once wait() returns.
    """
    record: dict = {"n": task.n, "seed": seed, "method": method, "status": "ok", "error": ""}
    timing = record["_timings"] = {}
    if not stop_after_plan:
        try:
            _check_component_cap(task)  # decided by the config: fail before tuning
        except ValueError as exc:
            record.update(status="error", error=f"reference: {exc}")
            return record
    start = time.perf_counter()
    try:
        try:
            level_plan = plan(task, method, tuning, sched)
        finally:
            timing["tune_s"] = time.perf_counter() - start
        record["_plan"] = level_plan
        record["total_steps"] = level_plan.total_steps
        record["global_bound"] = global_bound(level_plan)
        record["proxy"] = level_plan.proxy
        if stop_after_plan:
            return record
        start = time.perf_counter()
        field = composite_field(task, method, sched, level_plan)
        samples = annealed_sample(level_plan, field, cfg["sampling"]["chains"], seed)
        timing["sample_s"] = time.perf_counter() - start
        wait()
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


def _lanes(cfg: dict, tune_only: bool) -> tuple[int, bool]:
    """The lane count, and whether sampling is serial: a cell plans once the previous one sampled.

    Below `_OVERLAP_MIN_BATCH` two samplings fight over the interpreter lock, so a second lane
    pays only by hiding a full-size W2 solve: chains at least `empirical_w2`'s cap (README, CLI)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    chains = cfg["sampling"]["chains"]
    serial = chains * cfg["task"]["dim"] < _OVERLAP_MIN_BATCH
    full_w2 = chains >= _CAP
    return 2 if not tune_only and (cpus or 1) >= 2 and (full_w2 or not serial) else 1, serial


def _run(cfg: dict, sched: Schedule, cells: list, tune_only: bool, keep_points: bool) -> list[dict]:
    """Run the method-cells in (n, seed, method) order, alternately on the caller's thread and a
    daemon helper when `_lanes` gives two. A cell plans, samples and evaluates on its own lane and
    evaluates once the previous cell has ended, so cells complete in order, one lane builds each
    reference and one W2 matrix lives at a time."""
    lanes, serial = _lanes(cfg, tune_only)
    chains, runs = cfg["sampling"]["chains"], []
    for seed, task, tunings in cells:  # one exact sample per (n, seed), built on first use
        reference = functools.cache(functools.partial(exact_posterior_sample, task, chains, seed))
        runs += [functools.partial(_run_cell, cfg, tuning, method, seed, task, sched, reference,
                                   tune_only) for method, tuning in tunings.items()]
    sampled = [threading.Event() for _ in range(len(runs) + 1)]  # [i + 1]: cell i sampled or ended
    ended, records, errors = [threading.Event() for _ in sampled], [None] * len(runs), []
    sampled[0].set(), ended[0].set()

    def lane(first: int) -> None:
        for i in range(first, len(runs), lanes):
            try:
                if serial:
                    sampled[i].wait()
                if errors:
                    return
                records[i] = runs[i](lambda: (sampled[i + 1].set(), ended[i].wait()))
            except BaseException as exc:
                # recorded before this cell's events are set: the other lane, whose next cell
                # waits on them, then starts no cell, so no lane waits on one that will not run
                errors.append(exc)
                if first == 0:  # an error here, or Ctrl-C, propagates at once
                    raise
                return  # the helper's is raised again in the caller
            finally:
                sampled[i + 1].set(), ended[i + 1].set()
                runs[i] = None  # a cell pair's reference lives until its last cell ends
            if not keep_points:
                records[i].pop("_samples", None)  # keep no points alive that no report writes

    thread = threading.Thread(target=lane, args=(1,), daemon=True)
    if lanes == 2:
        thread.start()
    lane(0)
    if lanes == 2:
        thread.join()
    if errors:
        raise errors[0]
    return records


def _public(record: dict, *drop: str) -> dict:
    return {k: v for k, v in record.items() if not k.startswith("_") and k not in drop}


def _write_tune(cfg: dict, out_dir: Path, records: list[dict], total_s: float) -> None:
    results: dict[str, dict] = {}
    for record in records:
        method = record["method"]
        if record["status"] != "ok":
            results[method] = {"feasible": False, "error": record["error"]}
            continue
        csv_name = f"plan_{method}.csv"
        _write_plan_csv(out_dir / csv_name, record["_plan"])
        results[method] = {key: record[key] for key in ("total_steps", "global_bound", "proxy")}
        results[method].update(feasible=True, csv=csv_name)
    timings = {record["method"]: record["_timings"]["tune_s"] for record in records}
    _write_report(out_dir / "tune.json", cfg, results, timings)


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


def _write_sample(cfg: dict, out_dir: Path, records: list[dict], total_s: float) -> None:
    methods: dict[str, dict] = {}
    for record in records:
        block = methods[record["method"]] = _public(record, "n", "seed", "method")
        if "_samples" in record:
            name, points = f"samples_{record['method']}", record["_samples"].points
            block["samples_files"] = _dump_points(out_dir, name, points, cfg["output"]["formats"])
    results = {"seed": cfg["sampling"]["seed"], "n": cfg["task"]["n"], "methods": methods}
    timings = {record["method"]: record["_timings"] for record in records}
    _write_report(out_dir / "sample.json", cfg, results, timings)


def _write_sweep(cfg: dict, out_dir: Path, records: list[dict], total_s: float) -> None:
    records = [_public(record) for record in records]
    cell_columns = ["n", "seed", "method", "status", "total_steps", "final_w2", "global_bound",
                    "proxy", "error"]
    with open(out_dir / "sweep_cells.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=cell_columns, restval="", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(records)

    summary_rows = []
    for n, method in dict.fromkeys((r["n"], r["method"]) for r in records):
        cell = [r for r in records if r["n"] == n and r["method"] == method]
        ok = [r for r in cell if r["status"] == "ok"]
        row = {"n": n, "method": method, "cells": len(cell), "failures": len(cell) - len(ok)}
        for field in ("total_steps", "final_w2"):
            values = np.array([r[field] for r in ok], dtype=float)
            row[f"{field}_mean"] = float(values.mean()) if values.size else ""
            row[f"{field}_std"] = float(values.std()) if values.size else ""
        summary_rows.append(row)
    with open(out_dir / "sweep_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0]))
        writer.writeheader()
        writer.writerows(summary_rows)

    results = {"cells": records, "summary": summary_rows}
    _write_report(out_dir / "sweep.json", cfg, results, {"total_s": total_s})


_WRITERS = {"tune": _write_tune, "sample": _write_sample, "sweep": _write_sweep}


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
        cmd.add_argument(  # the thread count follows from the batch and the CPUs (`_run`)
            "--workers", type=int, default=1, help="accepted for old commands; has no effect"
        )
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(
            load_config(args.config), seed=args.seed, method=args.method, out=args.out
        )
        sched, cells = _grid(cfg, args.command)
        out_dir = Path(cfg["output"]["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)  # last: nothing is written before this
    except (OSError, ValueError, TypeError, OverflowError) as exc:  # wrong type or range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tune_only, keep_points = args.command == "tune", args.command == "sample"
    start = time.perf_counter()
    records = _run(cfg, sched, cells, tune_only=tune_only, keep_points=keep_points)
    _WRITERS[args.command](cfg, out_dir, records, time.perf_counter() - start)
    return 0 if all(record["status"] == "ok" for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
