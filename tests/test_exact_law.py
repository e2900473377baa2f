"""The closed-form law of the annealed sampler on gaussian tasks (exact_law.py)."""

from __future__ import annotations

import numpy as np
import pytest

from annealed_langevin import (
    TuningConfig,
    annealed_sample,
    composite_field,
    gaussian_proxies,
    levels,
    plan,
    proxy_bridge,
)
from conftest import make_gaussian_task
from exact_law import exact_law


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_exact_law_equals_step_by_step_recursion(method, sched):
    # k <= 5 steps per level, each mean' = (I - hP) mean + h P mu and
    # cov' = (I - hP) cov (I - hP)' + 2h I, against the closed form
    rng = np.random.default_rng(11)
    task = make_gaussian_task(3, 3, 5, lo=0.1, hi=1.0)
    times = levels(sched, 6)[:-1]
    bridges = proxy_bridge(*gaussian_proxies(task), method, times, sched)
    precs = [np.linalg.inv(b.cov) for b in bridges]
    eigs = [np.linalg.eigvalsh(prec) for prec in precs]
    h = np.array([rng.uniform(0.05, 0.95) * 2.0 / (e[0] + e[-1]) for e in eigs])
    k = rng.integers(1, 6, size=len(times))
    laws = exact_law(bridges, h, k)
    mean, cov = np.zeros(task.dim), np.eye(task.dim)
    for p in range(len(times) - 1, -1, -1):
        step = np.eye(task.dim) - h[p] * precs[p]
        for _ in range(k[p]):
            mean = step @ mean + h[p] * precs[p] @ bridges[p].mean
            cov = step @ cov @ step.T + 2.0 * h[p] * np.eye(task.dim)
        np.testing.assert_allclose(laws[p].mean, mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(laws[p].cov, cov, rtol=1e-10, atol=1e-12)


# deterministic: the Philox streams fix every draw, so this bound is not a flaky tail event
_MAX_STANDARD_ERRORS = 4.0


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_exact_law_matches_sampler_moments(method, sched):
    # one d=10, n=30 cell: the sample mean and covariance of annealed_sample's
    # chains against the exact law, in Monte Carlo standard errors
    count = 2000
    task = make_gaussian_task(0, 10, 30)
    lp = plan(task, method, TuningConfig(gamma=0.5, omega=0.8), sched)
    law = exact_law(proxy_bridge(*gaussian_proxies(task), method, lp.t, sched), lp.h, lp.k)[0]
    points = annealed_sample(lp, composite_field(task, method, sched), count, seed=7).points
    var = np.diag(law.cov)
    mean_z = (points.mean(axis=0) - law.mean) / np.sqrt(var / count)
    # Var of one covariance estimate: (C_ii C_jj + C_ij^2) / count for Gaussian draws
    cov_se = np.sqrt((np.outer(var, var) + law.cov**2) / count)
    cov_z = (np.cov(points, rowvar=False) - law.cov) / cov_se
    assert np.abs(mean_z).max() < _MAX_STANDARD_ERRORS
    assert np.abs(cov_z).max() < _MAX_STANDARD_ERRORS
