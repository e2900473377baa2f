"""Empirical 2-Wasserstein distances between sample sets.

The estimator solves the squared-Euclidean assignment problem exactly
(Jonker-Volgenant via scipy), after subsampling both sets to a common size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .sampler import SampleSet

__all__ = ["W2Report", "empirical_w2"]


@dataclass(frozen=True)
class W2Report:
    """Distance estimate plus the inputs needed to reproduce it."""

    value: float
    method: str
    sizes: tuple[int, int]
    subsample_seed: int | None = None

    def __post_init__(self) -> None:
        if not self.value >= 0:
            raise ValueError("distance must be nonnegative")


def _subsample(side: SampleSet, target: int, subsample_seed: int) -> np.ndarray:
    if side.count == target:
        return side.points
    # keyed by the side's own identity so argument order cannot matter
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((subsample_seed, side.seed, side.count)))
    )
    idx = rng.choice(side.count, size=target, replace=False)
    return side.points[np.sort(idx)]


def empirical_w2(
    a: SampleSet, b: SampleSet, cap: int = 1024, subsample_seed: int = 0
) -> W2Report:
    """Exact assignment-based W2 between two point sets with uniform weights.

    Sets larger than cap (or of unequal sizes) are first subsampled to the
    common size min(cap, count_a, count_b); the seed is recorded in the
    report only when subsampling actually happened.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if cap < 1:
        raise ValueError("cap must be positive")
    target = min(cap, a.count, b.count)
    used_subsample = a.count > target or b.count > target
    pa = _subsample(a, target, subsample_seed)
    pb = _subsample(b, target, subsample_seed)
    cost = cdist(pa, pb, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    matched = np.sort(cost[rows, cols])  # order-independent sum keeps symmetry exact
    value = math.sqrt(max(float(matched.sum()) / target, 0.0))
    return W2Report(
        value=value,
        method="exact_assignment",
        sizes=(a.count, b.count),
        subsample_seed=subsample_seed if used_subsample else None,
    )
