from __future__ import annotations

import numpy as np
import pytest

from annealed_langevin import (
    DivergenceError,
    SampleSet,
    TuningConfig,
    annealed_sample,
    composite_field,
    empirical_w2,
    plan,
    ula_chain,
)
from conftest import make_gaussian_task


def _standard_normal_score(theta, t):
    return -theta


def _start(count=64, dim=2, seed=0, offset=0.0):
    rng = np.random.default_rng(seed)
    return SampleSet(points=rng.standard_normal((count, dim)) + offset, level=1.0, seed=seed)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(points=np.zeros(3), level=0.5, seed=0)  # not 2-D
    with pytest.raises(ValueError):
        SampleSet(points=np.zeros((0, 2)), level=0.5, seed=0)
    with pytest.raises(ValueError):
        SampleSet(points=np.array([[np.nan, 0.0]]), level=0.5, seed=0)
    ok = SampleSet(points=np.zeros((4, 3)), level=0.5, seed=1)
    assert (ok.count, ok.dim) == (4, 3)


def test_ula_chain_argument_validation():
    start = _start()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ula_chain(_standard_normal_score, start, h=0.0, k=5, t=0.5, rng=rng)
    with pytest.raises(ValueError):
        ula_chain(_standard_normal_score, start, h=0.1, k=-1, t=0.5, rng=rng)
    with pytest.raises(ValueError, match="score output shape does not match the batch"):
        ula_chain(lambda x, t: x[:, :1], start, h=0.1, k=1, t=0.5, rng=rng)


def test_ula_chain_zero_steps_is_identity():
    start = _start()
    out = ula_chain(_standard_normal_score, start, h=0.1, k=0, t=0.5, rng=np.random.default_rng(0))
    assert out is start


def test_ula_chain_accounts_steps():
    start = _start()
    out = ula_chain(_standard_normal_score, start, h=0.1, k=7, t=0.5, rng=np.random.default_rng(0))
    assert out.steps_used == 7
    again = ula_chain(_standard_normal_score, out, h=0.1, k=5, t=0.4, rng=np.random.default_rng(1))
    assert again.steps_used == 12
    assert again.level == 0.4


def test_ula_chain_divergence_guard():
    start = _start(offset=10.0)
    with pytest.raises(DivergenceError) as err:
        ula_chain(lambda th, t: 50.0 * th, start, h=0.5, k=200, t=0.7, rng=np.random.default_rng(0))
    assert err.value.level == 0.7
    assert err.value.step >= 0
    with pytest.raises(DivergenceError, match="non-finite"):
        ula_chain(lambda th, t: th * np.nan, start, h=0.1, k=2, t=0.7, rng=np.random.default_rng(0))


def test_ula_chain_stationary_variance_matches_bias_formula():
    # discretized Ornstein-Uhlenbeck chain: stationary variance 2/(2 - h)
    h = 0.1
    count = 2048
    start = SampleSet(points=np.zeros((count, 1)), level=0.5, seed=0)
    out = ula_chain(_standard_normal_score, start, h=h, k=600, t=0.5, rng=np.random.default_rng(3))
    var = out.points.var()
    expected = 2.0 / (2.0 - h)
    se = np.sqrt(2.0 / (count - 1)) * expected
    assert abs(var - expected) < 4.0 * se


def test_ula_chain_error_decreases_with_step_count():
    # same admissible h, more steps: closer to the target within MC noise
    rng_ref = np.random.default_rng(99)
    target = rng_ref.standard_normal((512, 2))
    ref = SampleSet(points=target, level=0.0, seed=99)
    start = _start(count=512, dim=2, seed=1, offset=6.0)
    short = ula_chain(_standard_normal_score, start, h=0.2, k=3, t=0.5, rng=np.random.default_rng(7))
    long = ula_chain(_standard_normal_score, start, h=0.2, k=300, t=0.5, rng=np.random.default_rng(7))
    w_short = empirical_w2(short, ref).value
    w_long = empirical_w2(long, ref).value
    assert w_long < w_short


def test_annealed_sample_deterministic_and_counts_steps(sched):
    task = make_gaussian_task(seed=0, dim=2, n=4)
    cfg = TuningConfig(gamma=0.5, omega=0.5)
    lp = plan(task, "linhart", cfg, sched)
    factory = composite_field(task, "linhart", sched)
    a = annealed_sample(lp, factory, count=128, seed=11)
    b = annealed_sample(lp, factory, count=128, seed=11)
    c = annealed_sample(lp, factory, count=128, seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.steps_used == lp.total_steps
    assert a.level == pytest.approx(float(lp.t[0]))
    assert a.count == 128 and a.dim == 2


def test_annealed_sample_rejects_bad_count(sched):
    task = make_gaussian_task(seed=0, dim=2, n=4)
    lp = plan(task, "linhart", TuningConfig(gamma=0.5, omega=0.5), sched)
    factory = composite_field(task, "linhart", sched)
    with pytest.raises(ValueError):
        annealed_sample(lp, factory, count=0, seed=0)
