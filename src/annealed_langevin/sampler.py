"""Batched unadjusted Langevin chains and the annealed driver that links them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SampleSet", "DivergenceError", "ula_chain", "annealed_sample"]

# Abort threshold: any coordinate beyond this means the plan is mis-tuned,
# not that the chain needs more steps.
_DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """A chain left the admissible region or a score returned non-finite values."""

    def __init__(self, message: str, level: float, step: int) -> None:
        super().__init__(f"{message} (level t={level:g}, step {step})")
        self.level = level
        self.step = step


@dataclass(frozen=True)
class SampleSet:
    """A batch of parameter vectors targeting the density at one annealing time."""

    points: np.ndarray  # (count, dim)
    level: float
    seed: int
    steps_used: int = 0

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must be a (count, dim) matrix with count >= 1")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", points)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def ula_chain(
    score: Callable[[np.ndarray, float], np.ndarray],
    start: SampleSet,
    h: float,
    k: int,
    t: float,
    rng: np.random.Generator,
) -> SampleSet:
    """Run k unadjusted Langevin steps x += h * score(x, t) + sqrt(2h) * z on every chain.

    No clipping, no Metropolis correction, no taming. k=0 returns the start
    unchanged. Raises DivergenceError if a score output is non-finite or a
    coordinate exceeds 1e6 in magnitude.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if k < 0:
        raise ValueError("step count must be >= 0")
    if k == 0:
        return start
    pts = np.array(start.points, dtype=float)
    noise_scale = np.sqrt(2.0 * h)
    step, noise = np.empty_like(pts), np.empty_like(pts)  # reused by every step
    for j in range(k):
        drift = score(pts, t)
        if drift.shape != pts.shape:
            raise ValueError("score output shape does not match the batch")
        if not np.isfinite(drift).all():
            raise DivergenceError("non-finite score output", level=t, step=j)
        pts += np.multiply(drift, h, out=step)
        rng.standard_normal(out=noise)
        pts += np.multiply(noise, noise_scale, out=noise)
        # max propagates NaN, which fails the comparison too, so one pass catches both
        if not np.abs(pts, out=step).max() <= _DIVERGENCE_LIMIT:
            raise DivergenceError("chain coordinate exceeded 1e6", level=t, step=j)
    return SampleSet(points=pts, level=t, seed=start.seed, steps_used=start.steps_used + k)


def _keyed_rng(*key: int) -> np.random.Generator:
    """The counter-based (Philox) stream keyed by a tuple of integers; (seed,) keys as seed does."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def annealed_sample(
    plan,
    score_factory: Callable[[int, float], Callable[[np.ndarray, float], np.ndarray]],
    count: int,
    seed: int,
) -> SampleSet:
    """Chain ULA runs across all plan levels, from the Gaussian start at t=1 down to t_0.

    score_factory(p, t_p) must return the score field of the level-p bridging
    density. The output is a pure function of (plan, score fields, count, seed).
    """
    if count < 1:
        raise ValueError("need at least one chain")
    T = plan.t.size
    dim = plan.dim
    # one stream per (seed, level), full noise matrices per step: chain partitioning changes nothing
    init_rng = _keyed_rng(seed, T)
    pts = init_rng.standard_normal((count, dim))
    current = SampleSet(points=pts, level=1.0, seed=seed, steps_used=0)
    for p in range(T - 1, -1, -1):
        t_p = float(plan.t[p])
        current = ula_chain(
            score_factory(p, t_p),
            current,
            h=float(plan.h[p]),
            k=int(plan.k[p]),
            t=t_p,
            rng=_keyed_rng(seed, p),
        )
    return current
