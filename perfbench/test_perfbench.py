"""Tests of the benchmark itself: its reference, its checks and its sweep runs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from checks import check_gaussian_plans, check_samples
from reference import gaussian_posterior, gmm_likelihood_posterior, gmm_prior_posterior

sys.path.insert(0, str(run.ROOT / "src"))
from annealed_langevin import cli  # noqa: E402
from annealed_langevin.composite import composite_field  # noqa: E402
from annealed_langevin.sampler import annealed_sample  # noqa: E402
from annealed_langevin.tasks import joint_posterior_mixture  # noqa: E402
from annealed_langevin.tuner import plan  # noqa: E402

GAMMA = 0.5


def _task(kind: str, dim: int, n: int, seed: int, **task):
    user = {"task": {"kind": kind, "dim": dim, "n": n, "data_seed": seed, **task}}
    if kind == "gmm_likelihood":
        user["task"]["likelihood_mixture"] = {"cov_scales": run.GMM_LIKELIHOOD_SCALES}
    cfg = cli.resolve_config(user)
    return cfg, cli.build_task(cfg, n, seed)


def _independent(task):
    if task.kind == "gaussian":
        return gaussian_posterior(task.likelihood_cov, task.observations)
    if task.kind == "gmm_prior":
        return gmm_prior_posterior(task.likelihood_cov, task.observations, task.prior_means,
                                   task.prior_scales, task.prior_weights)
    return gmm_likelihood_posterior(task.likelihood_cov, task.observations,
                                    task.likelihood_cov_scales, task.likelihood_weights)


@pytest.mark.parametrize("kind,dim,n", [("gaussian", 10, 30), ("gmm_prior", 2, 30),
                                        ("gmm_likelihood", 2, 8), ("gmm_likelihood", 3, 5)])
def test_reference_matches_package_posterior(kind, dim, n):
    _, task = _task(kind, dim, n, seed=3)
    ours, theirs = _independent(task), joint_posterior_mixture(task)
    mean, cov = theirs.moments()
    np.testing.assert_allclose(ours.mean(), mean, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(ours.cov(), cov, rtol=1e-8, atol=1e-10)


def test_reference_draws_match_its_moments():
    _, task = _task("gmm_likelihood", 2, 6, seed=1)
    post = _independent(task)
    draws = post.sample(200_000, np.random.default_rng(0))
    np.testing.assert_allclose(draws.mean(axis=0), post.mean(), atol=5e-3)
    np.testing.assert_allclose(np.cov(draws.T), post.cov(), atol=5e-3)


def _sampler_output(kind, dim, n, method, chains=1024, **task):
    cfg, task = _task(kind, dim, n, seed=2, **task)
    sched = cli._schedule(cfg)
    lp = plan(task, method, cli._tuning_config(cfg, n, method), sched)
    return task, lp, annealed_sample(lp, composite_field(task, method, sched), chains, 5).points


@pytest.mark.parametrize("kind,dim,n,task", [
    ("gaussian", 2, 1, {"likelihood": {"cov": np.eye(2).tolist()}}),
    ("gmm_likelihood", 2, 2, {}),
])
def test_checks_accept_sampler_output_and_reject_faults(kind, dim, n, task):
    # Broad posteriors, so that a doubled spread costs more than gamma in W2.
    task, _, points = _sampler_output(kind, dim, n, "linhart", **task)
    post = _independent(task)
    assert np.sqrt(np.trace(post.cov())) > GAMMA
    assert check_samples(points, post, GAMMA, np.random.default_rng(0)) == []
    shifted = points + 1.0
    assert check_samples(shifted, post, GAMMA, np.random.default_rng(0))
    centre = points.mean(axis=0)
    doubled = centre + 2.0 * (points - centre)
    assert check_samples(doubled, post, GAMMA, np.random.default_rng(0))


def test_plan_check_rejects_swapped_step_sizes():
    cfg, task = _task("gaussian", 10, 30, seed=4)
    sched = cli._schedule(cfg)
    plans = {m: plan(task, m, cli._tuning_config(cfg, 30, m), sched) for m in run.METHODS}
    hg, hl = plans["geffner"].h, plans["linhart"].h
    assert np.any(hg < hl)
    bounds = {m: 0.49 for m in run.METHODS}
    assert check_gaussian_plans(hg, hl, bounds, GAMMA) == []
    assert check_gaussian_plans(hl, hg, bounds, GAMMA)
    assert check_gaussian_plans(hg, hl, {"geffner": 0.49, "linhart": 0.51}, GAMMA)


def _small_sweep(tmp_path: Path, workers: int) -> tuple[dict, str]:
    config = run.round_configs("gmm_likelihood_sweep", seed=7)[0]
    config["task"]["n"] = [3, 6]
    config["sampling"] = {"chains": 64, "seeds": config["sampling"]["seeds"][:2]}
    proc = run.run_process(tmp_path / f"w{workers}", ["sweep", "--workers", str(workers)],
                           config, "run", False)
    return proc, (proc["dir"] / "out" / "sweep_cells.csv").read_text()


def test_sweep_cells_identical_with_one_and_two_workers(tmp_path):
    one, table_one = _small_sweep(tmp_path, 1)
    two, table_two = _small_sweep(tmp_path, 2)
    assert table_one == table_two
    key = lambda c: (c["n"], c["seed"], c["method"])  # noqa: E731
    order_one = {key(c): i for i, c in enumerate(one["cells"])}
    order_two = {key(c): i for i, c in enumerate(two["cells"])}
    assert order_one.keys() == order_two.keys() and len(order_one) == 8
    a1, a2 = np.load(one["dir"] / "cells.npz"), np.load(two["dir"] / "cells.npz")
    for k, i in order_one.items():
        np.testing.assert_array_equal(a1[f"{i}.points"], a2[f"{order_two[k]}.points"])
    attempted, failed, faults = run.check_process(two, seed=7)
    assert (attempted, failed, faults) == (8, 0, [])


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gaussian_d10",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
