"""Variance-preserving forward-diffusion coefficients and the annealing-level grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Schedule", "alpha", "v", "levels"]


@dataclass(frozen=True)
class Schedule:
    """Linear-rate variance-preserving noising process on t in [0, 1].

    The instantaneous rate is beta(s) = beta_min + s * (beta_max - beta_min),
    so the retained signal fraction alpha(t) decays from 1 at t=0 to
    exp(-(beta_min + beta_max) / 2) at t=1 (about 4.3e-5 with the defaults).
    t_floor is the smallest time the level grid may use; sampling never
    evaluates coefficients below it.
    """

    beta_min: float = 0.1
    beta_max: float = 20.0
    t_floor: float = 1e-5

    def __post_init__(self) -> None:
        if not 0.0 < self.beta_min <= self.beta_max < np.inf:
            raise ValueError("need 0 < beta_min <= beta_max < inf")
        if not 0.0 < self.t_floor < 1.0:
            raise ValueError("t_floor must lie in (0, 1)")


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("time must lie in [0, 1]")
    return t


def alpha(s: Schedule, t):
    """Retained signal fraction alpha(t) = exp(-integral of beta), in (0, 1]."""
    t = _check_time(t)
    out = np.exp(-(s.beta_min * t + 0.5 * (s.beta_max - s.beta_min) * t * t))
    return float(out) if out.ndim == 0 else out


def v(s: Schedule, t):
    """Accumulated noise variance v(t) = 1 - alpha(t), in [0, 1)."""
    out = 1.0 - alpha(s, t)
    return out


def levels(s: Schedule, T: int) -> np.ndarray:
    """Uniform grid of T+1 annealing times t_0 < ... < t_T = 1 with t_0 = t_floor."""
    if T < 1:
        raise ValueError("need at least one annealing level")
    times = np.maximum(np.arange(T + 1, dtype=float) / T, s.t_floor)
    times[0] = s.t_floor
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("level times must be strictly increasing: t_floor must lie below 1/T")
    return times
