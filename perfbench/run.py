"""Benchmark: time and work to a gamma-accurate posterior sample.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. Each workload writes JSON configs from the seed
and runs the annealed-langevin CLI on them, every command in a fresh
interpreter (worker.py). A round is one fixed set of commands; a run does
whole rounds and starts another only while the rounds so far say it will end
within --seconds, so every run does at least one round. Every cell's output is
checked against the independent reference (reference.py, checks.py).

--trace 0 prints the end-to-end metrics. --trace 1 runs the round's first
command once untraced, then the round with every layer wrapped, and prints the
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_gaussian_plans, check_samples
from reference import gaussian_posterior, gmm_likelihood_posterior, gmm_prior_posterior

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
METHODS = ("geffner", "linhart")
BLAS_THREADS = 1  # the sweep's two pool threads already fill both cores
SETUP_SAMPLES = 7  # set-up times per run: probes plus the round's commands
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its commands do

WORKLOADS = {
    # Affine composite field: the ULA update (noise draw, update, guard)
    # does most of the work and the mixture kernel none.
    "gaussian_d10": {"command": "sample", "kind": "gaussian", "dim": 10, "n": 30,
                     "chains": 3000, "datasets": 3},
    # Mixture-kernel field evaluation is >= 95% of every step.
    "gmm_prior_d2": {"command": "sample", "kind": "gmm_prior", "dim": 2, "n": 5,
                     "chains": 1500, "datasets": 6},
    # Many short cells: per-cell fixed costs, the 2^n-component exact
    # reference, W2, report writing, the thread pool, small-batch steps.
    # gamma 1 keeps cells short (about 170 steps), so many fit in a run.
    "gmm_likelihood_sweep": {"command": "sweep", "kind": "gmm_likelihood", "dim": 2,
                             "n": [4, 8, 12], "chains": 256, "seeds": 8, "workers": 2,
                             "gamma": 1.0},
}
GMM_LIKELIHOOD_SCALES = [1.5, 0.5]
PRIOR = {"means": [[0.0, 0.0], [1.0, 1.0]], "scales": [0.5, 0.5], "weights": [0.5, 0.5]}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def gamma(name: str) -> float:
    return WORKLOADS[name].get("gamma", 0.5)


def random_cov(rng: np.random.Generator, dim: int) -> list[list[float]]:
    """SPD likelihood covariance, eigenvalues log-uniform in [0.02, 0.1], random axes."""
    eigs = np.exp(rng.uniform(np.log(0.02), np.log(0.1), size=dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = (q * eigs) @ q.T
    return (0.5 * (cov + cov.T)).tolist()


def round_configs(name: str, seed: int) -> list[dict]:
    """The CLI configs of one round, one per command, all drawn from the seed."""
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    common = {"tuning": {"gamma": gamma(name), "T": 10}}
    if spec["command"] == "sweep":
        task = {"kind": spec["kind"], "dim": spec["dim"], "n": spec["n"],
                "data_seed": int(rng.integers(2**31)),
                "likelihood_mixture": {"base_cov": np.diag(np.linspace(0.6, 1.4, spec["dim"])).tolist(),
                                       "cov_scales": GMM_LIKELIHOOD_SCALES, "weights": [0.5, 0.5]}}
        seeds = [int(s) for s in rng.choice(2**31, size=spec["seeds"], replace=False)]
        return [{**common, "task": task, "sampling": {"chains": spec["chains"], "seeds": seeds}}]
    configs = []
    for _ in range(spec["datasets"]):
        task = {"kind": spec["kind"], "dim": spec["dim"], "n": spec["n"],
                "data_seed": int(rng.integers(2**31)),
                "likelihood": {"cov": random_cov(rng, spec["dim"])}}
        if spec["kind"] == "gmm_prior":
            task["prior"] = PRIOR
        sampling = {"chains": spec["chains"], "seed": int(rng.integers(2**31))}
        configs.append({**common, "task": task, "sampling": sampling})
    return configs


def cli_command(name: str) -> list[str]:
    spec = WORKLOADS[name]
    if spec["command"] == "sweep":
        return ["sweep", "--workers", str(spec["workers"])]
    return [spec["command"]]


def run_process(proc_dir: Path, command: list[str], config: dict, mode: str, trace: bool,
                timeout: float = RUN_LIMIT_S) -> dict:
    """Run one CLI command in a fresh worker interpreter; return its record."""
    proc_dir.mkdir(parents=True)
    out_dir = proc_dir / "out"
    config = {**config, "output": {"directory": str(out_dir)}}
    config_path = proc_dir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    cli_args = [*command, "--config", str(config_path)]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(proc_dir), mode,
            "1" if trace else "0", "--", *cli_args]
    spawn = now()
    proc = subprocess.run(argv, env=env, cwd=proc_dir, capture_output=True, text=True,
                          timeout=timeout)
    exited = now()
    if proc.returncode != 0 or not (proc_dir / "result.json").exists():
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads((proc_dir / "result.json").read_text(encoding="utf-8"))
    if result["first_cell"] is None or (mode == "run" and result["exit_code"] not in (0, 1)):
        raise RuntimeError(f"CLI exit code {result['exit_code']}: {proc.stderr.strip()[-2000:]}")
    result.update(spawn=spawn, exited=exited, config=config, dir=proc_dir)
    return result


def posterior_for(kind: str, arrays, i: int):
    obs, cov = arrays[f"{i}.observations"], arrays[f"{i}.likelihood_cov"]
    if kind == "gaussian":
        return gaussian_posterior(cov, obs)
    if kind == "gmm_prior":
        return gmm_prior_posterior(cov, obs, arrays[f"{i}.prior_means"],
                                   arrays[f"{i}.prior_scales"], arrays[f"{i}.prior_weights"])
    return gmm_likelihood_posterior(cov, obs, arrays[f"{i}.likelihood_cov_scales"],
                                    arrays[f"{i}.likelihood_weights"])


def report_records(proc: dict) -> list[dict]:
    out_dir = Path(proc["config"]["output"]["directory"])
    if "seeds" in proc["config"]["sampling"]:
        return json.loads((out_dir / "sweep.json").read_text())["results"]["cells"]
    report = json.loads((out_dir / "sample.json").read_text())
    n, seed = report["results"]["n"], report["results"]["seed"]
    return [{**rec, "n": n, "seed": seed, "method": method}
            for method, rec in report["results"]["methods"].items()]


def check_process(proc: dict, seed: int) -> tuple[int, int, list[str]]:
    """Check every cell of one command; returns (attempted, failed, faults found)."""
    records = report_records(proc)
    cells = {(c["n"], c["seed"], c["method"]): (i, c) for i, c in enumerate(proc["cells"])}
    arrays = np.load(proc["dir"] / "cells.npz")
    task_cfg, gamma_ = proc["config"]["task"], proc["config"]["tuning"]["gamma"]
    faults: list[str] = []
    failed = 0
    posteriors: dict = {}
    plans: dict = {}
    for rec in records:
        key = (rec["n"], rec["seed"], rec["method"])
        where = f"n={key[0]} seed={key[1]} {key[2]}"
        if rec["status"] != "ok":
            failed += 1
            continue
        if key not in cells:
            faults.append(f"{where}: no samples captured")
            continue
        i, cell = cells[key]
        if rec["total_steps"] != cell["total_steps"]:
            faults.append(f"{where}: report total_steps disagrees with the plan")
        given = task_cfg.get("likelihood", {}).get("cov") or task_cfg.get("likelihood_mixture", {}).get("base_cov")
        if not np.allclose(arrays[f"{i}.likelihood_cov"], given, rtol=1e-12, atol=0):
            faults.append(f"{where}: task covariance differs from the config")
        if key[:2] not in posteriors:
            posteriors[key[:2]] = posterior_for(cell["kind"], arrays, i)
        points = arrays[f"{i}.points"]
        rng = np.random.default_rng([seed, *key[:2], METHODS.index(key[2])])
        faults += [f"{where}: {msg}" for msg in check_samples(points, posteriors[key[:2]], gamma_, rng)]
        if "samples_files" in rec:
            written = np.loadtxt(proc["dir"] / "out" / f"samples_{key[2]}.csv", delimiter=",",
                                 skiprows=1, ndmin=2)
            if written.shape != points.shape or not np.allclose(written, points, rtol=1e-10, atol=1e-12):
                faults.append(f"{where}: samples file differs from the sampler output")
        plans[key] = (arrays[f"{i}.h"], rec["global_bound"])
    if task_cfg["kind"] == "gaussian":
        for n, cell_seed in {k[:2] for k in plans}:
            pair = {m: plans.get((n, cell_seed, m)) for m in METHODS}
            if None in pair.values():
                continue
            found = check_gaussian_plans(pair["geffner"][0], pair["linhart"][0],
                                         {m: p[1] for m, p in pair.items()}, gamma_)
            faults += [f"n={n} seed={cell_seed}: {msg}" for msg in found]
    return len(records), failed, faults


def interval_union(spans: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the spans, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in spans):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def end_to_end(probes: list[dict], rounds: list[list[dict]]) -> dict:
    procs = [p for r in rounds for p in r]
    cells = [c for p in procs for c in p["cells"]]
    chain_steps = sum(c["chains"] * c["total_steps"] for c in cells)
    metrics = {
        "setup_s": (statistics.median(p["first_cell"] - p["spawn"] for p in probes + procs), "s"),
        "wall_s": (statistics.median(sum(p["end"] - p["first_cell"] for p in r) for r in rounds), "s"),
    }
    for method in METHODS:
        # A run's cells are different problems (data sets, n); their median
        # jumps between groups of similar cells, their mean does not.
        metrics[f"cell_s.{method}"] = (
            statistics.fmean(c["end"] - c["start"] for c in cells if c["method"] == method), "s")
    metrics["chain_steps_per_s"] = (chain_steps / sum(c["sample_s"] for c in cells), "chain-steps/s")
    for method in METHODS:
        metrics[f"total_steps.{method}"] = (
            sum(c["total_steps"] for p in rounds[0] for c in p["cells"] if c["method"] == method),
            "steps")
    metrics["peak_rss_mb"] = (
        statistics.median(max(p["rusage"]["maxrss_kb"] for p in r) / 1024.0 for r in rounds), "MB")
    return metrics


def per_layer(name: str, plain: dict, rounds: list[list[dict]]) -> dict:
    """Layer metrics per round, averaged over the traced rounds."""
    workers = WORKLOADS[name].get("workers", 1)
    per_round = []
    for procs in rounds:
        L: dict = {}
        for p in procs:
            for key, value in p["layers"].items():
                L[key] = L.get(key, 0.0) + value
        g = L.get
        busy = sum(c["end"] - c["start"] for p in procs for c in p["cells"])
        walls = [p["end"] - p["first_cell"] for p in procs]
        uncovered = sum(
            (p["end"] - p["first_cell"])
            - interval_union([(c["start"], c["end"]) for c in p["cells"]] + p["build_task_spans"],
                             p["first_cell"], p["end"])
            for p in procs)
        field_s = g("field_s.geffner", 0.0) + g("field_s.linhart", 0.0)
        per_round.append({
            "cli.build_task_s": (sum(b - a for p in procs for a, b in p["build_task_spans"]), "s"),
            "cli.report_s": (uncovered, "s"),
            "cli.sweep_busy_ratio": (busy / (sum(walls) * workers), "ratio"),
            "tuner.plan_s": (g("plan_s", 0.0), "s"),
            "tuner.plan_calls": (g("plan_calls", 0.0), "count"),
            "theory.bridge_s": (g("bridge_s", 0.0), "s"),
            "composite.setup_s": (g("setup_s", 0.0), "s"),
            "composite.setup_calls": (g("setup_calls", 0.0), "count"),
            "composite.field_s.geffner": (g("field_s.geffner", 0.0), "s"),
            "composite.field_s.linhart": (g("field_s.linhart", 0.0), "s"),
            "composite.field_calls": (g("field_calls", 0.0), "count"),
            "composite.field_ns_per_chain": (1e9 * field_s / max(g("field_chains", 0.0), 1.0), "ns"),
            "composite.minor_faults_per_eval": (g("field_faults", 0.0) / max(g("field_calls", 0.0), 1.0), "faults"),
            "sampler.ula_s": (g("ula_s", 0.0), "s"),
            "sampler.update_s": (g("update_s", 0.0), "s"),
            "sampler.update_ns_per_chain_step": (1e9 * g("update_s", 0.0) / max(g("chain_steps", 0.0), 1.0), "ns"),
            "sampler.minor_faults_per_step": (g("update_faults", 0.0) / max(g("steps", 0.0), 1.0), "faults"),
            "tasks.reference_s": (g("reference_s", 0.0), "s"),
            "tasks.reference_calls": (g("reference_calls", 0.0), "count"),
            "tasks.joint_components": (g("joint_count", 0.0), "count"),
            "metrics.w2_s": (g("w2_s", 0.0), "s"),
            "metrics.w2_points": (g("w2_count", 0.0), "count"),
            "run.user_cpu_s": (sum(p["rusage"]["user_s"] for p in procs), "s"),
            "run.sys_cpu_s": (sum(p["rusage"]["sys_s"] for p in procs), "s"),
            "run.minor_faults": (sum(p["rusage"]["minor_faults"] for p in procs), "count"),
            "trace.overhead_s": ((procs[0]["exited"] - procs[0]["spawn"])
                                 - (plain["exited"] - plain["spawn"]), "s"),
        })
    return {key: (statistics.fmean(r[key][0] for r in per_round), unit)
            for key, (_, unit) in per_round[0].items()}


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    import scipy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    configs = round_configs(name, seed)
    counter = itertools.count()
    deadline = now() + RUN_LIMIT_S
    attempted = failed = 0
    faults: list[str] = []

    def process(config: dict, mode: str, traced: bool) -> dict:
        nonlocal attempted, failed
        proc = run_process(run_dir / f"p{next(counter)}", cli_command(name), config, mode, traced,
                           timeout=max(deadline - now(), 1.0))
        if mode == "run":
            a, f, found = check_process(proc, seed)
            attempted, failed = attempted + a, failed + f
            faults.extend(found)
        shutil.rmtree(proc["dir"])
        return proc

    probes = [] if trace else [process(configs[0], "probe", False)
                               for _ in range(max(2, SETUP_SAMPLES - len(configs)))]
    plain = process(configs[0], "run", False) if trace else None
    rounds: list[list[dict]] = []
    start = now()
    while True:
        rounds.append([process(config, "run", trace) for config in configs])
        elapsed = now() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    steps = [[(c["method"], c["total_steps"]) for p in r for c in p["cells"]] for r in rounds]
    if any(s != steps[0] for s in steps):
        faults.append("rounds with identical inputs planned different step counts")
    metrics = per_layer(name, plain, rounds) if trace else end_to_end(probes, rounds)
    return {"correct": not faults, "attempted": attempted, "failed": failed,
            "metrics": metrics, "faults": faults}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "annealed_langevin" / "cli.py").is_file():
        print(f"error: no annealed_langevin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info = machine()
    print("# machine " + json.dumps(info))
    RUNS.mkdir(exist_ok=True)
    jobs = [(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all" \
        else [(args.workload, bool(args.trace))]
    results = {}
    for name, trace in jobs:
        run_dir = RUNS / f"{name}-seed{args.seed}-trace{int(trace)}-{os.getpid()}"
        try:
            result = run_workload(name, args.seed, args.seconds, trace, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        for key, (value, unit) in result["metrics"].items():
            print(f"{name} {key} {value:.6g} {unit}")
        print(f"{name} cells attempted {result['attempted']} failed {result['failed']}"
              f" correct {result['correct']}")
        for fault in result["faults"]:
            print(f"{name} FAULT {fault}", file=sys.stderr)
        results[f"{name}/trace{int(trace)}"] = {**result, "machine": info, "seed": args.seed}
    (RUNS / f"{args.workload}-trace{args.trace if args.workload != 'all' else 'both'}.json").write_text(
        json.dumps(results, indent=1), encoding="utf-8")
    prefix = (lambda job: job + "/") if args.workload == "all" else (lambda job: "")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {prefix(job) + k: {"value": v, "unit": u}
                    for job, r in results.items() for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
