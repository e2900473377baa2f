"""Exact accuracy grid: the sampler's exact Gaussian law against the tuner's bound.

On gaussian tasks the law of annealed_sample is known in closed form
(exact_law.py), so the final error is exact, whatever the step count, and
no Monte Carlo estimator limits how small a gamma can be checked. Every
cell asserts exact W2(final law, bridge at t_0) <= global_bound <= gamma and
prints the exact W2 to the posterior too (add -s to see the lines).
"""

from __future__ import annotations

import numpy as np
import pytest

from annealed_langevin import (
    GaussianDist,
    TuningConfig,
    gaussian_proxies,
    gaussian_w2,
    global_bound,
    levels,
    plan,
    posterior_moments,
    proxy_bridge,
)
from conftest import make_gaussian_task
from exact_law import exact_law

T = 10


@pytest.mark.parametrize("method", ["geffner", "linhart"])
@pytest.mark.parametrize("d, n", [(2, 5), (10, 30), (50, 1000)])
def test_exact_w2_within_global_bound(d, n, method, sched):
    task = make_gaussian_task(0, d, n)
    mean, cov, _ = posterior_moments(task, None)
    posterior = GaussianDist(mean, cov)
    # one bridge per level for every plan of the task: the plans share the level grid
    bridges = proxy_bridge(*gaussian_proxies(task), method, levels(sched, T)[:-1], sched)
    for omega in (0.5, 0.8):
        for gamma in (0.5, 0.2 * np.sqrt(np.trace(cov))):
            lp = plan(task, method, TuningConfig(gamma=gamma, omega=omega, T=T), sched)
            law = exact_law(bridges, lp.h, lp.k)[0]
            w2, bound = gaussian_w2(law, bridges[0]), global_bound(lp)
            print(
                f"[exact] d={d} n={n} {method} omega={omega} gamma={gamma:.4f}: "
                f"W2(law, bridge t_0)={w2:.3e} bound={bound:.3e} ratio={w2 / bound:.3f} "
                f"W2(law, posterior)={gaussian_w2(law, posterior):.3e} steps={lp.total_steps}"
            )
            assert w2 <= bound <= gamma
