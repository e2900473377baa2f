from __future__ import annotations

import numpy as np
import pytest

from annealed_langevin import Schedule, alpha, levels, v


def test_alpha_endpoint_values(sched):
    assert alpha(sched, 0.0) == pytest.approx(1.0, abs=0.0)
    # exp(-(0.1 + 19.9 / 2)) with the default coefficients
    assert alpha(sched, 1.0) == pytest.approx(4.3185749060341275e-05, rel=1e-12)
    assert alpha(sched, 0.5) == pytest.approx(0.07906381245316069, rel=1e-12)


def test_v_complements_alpha(sched):
    ts = np.linspace(0.0, 1.0, 17)
    assert np.allclose(v(sched, ts) + alpha(sched, ts), 1.0, rtol=0, atol=1e-15)


def test_alpha_strictly_decreasing_on_grid(sched):
    ts = np.linspace(0.0, 1.0, 100)
    vals = alpha(sched, ts)
    assert np.all(np.diff(vals) < 0)
    # finite-difference slope is negative everywhere on the grid
    slopes = np.diff(vals) / np.diff(ts)
    assert slopes.max() < 0


def test_alpha_accepts_arrays(sched):
    ts = np.array([0.0, 0.25, 1.0])
    out = alpha(sched, ts)
    assert out.shape == (3,)
    assert out[0] == 1.0


def test_levels_grid_shape(sched):
    times = levels(sched, 10)
    assert times.shape == (11,)
    assert times[0] == pytest.approx(1e-5, abs=0.0)
    assert times[-1] == 1.0
    assert np.all(np.diff(times) > 0)
    # interior points sit on the uniform grid p / T
    assert np.allclose(times[1:], np.arange(1, 11) / 10.0, rtol=0, atol=1e-15)


def test_levels_single_level(sched):
    times = levels(sched, 1)
    assert times.shape == (2,)
    assert times[0] == pytest.approx(1e-5, abs=0.0)


def test_levels_rejects_bad_T(sched):
    with pytest.raises(ValueError):
        levels(sched, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        levels(Schedule(t_floor=0.2), 10)  # t_0 = 0.2 would repeat t_1 = 0.2


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(beta_min=-1.0)
    with pytest.raises(ValueError):
        Schedule(beta_min=5.0, beta_max=1.0)
    with pytest.raises(ValueError):
        Schedule(t_floor=0.0)
    for t in (-0.1, 1.5, [0.5, 1.5]):
        with pytest.raises(ValueError, match=r"time must lie in \[0, 1\]"):
            alpha(Schedule(), t)
