"""Empirical 2-Wasserstein distances between sample sets.

The estimator solves the squared-Euclidean assignment problem exactly
(Jonker-Volgenant via scipy), after subsampling both sets to a common size.
The solver starts from near-optimal duals: the Kantorovich potential of the
optimal transport map between Gaussian fits of the two sets (Knott & Smith
1984), which moves every assignment's total by one constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .sampler import SampleSet, _keyed_rng
from .theory import _psd_sqrt

__all__ = ["W2Report", "empirical_w2"]

_CAP = 1024  # empirical_w2's default subsample size


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
    rng = _keyed_rng(subsample_seed, side.seed, side.count)
    idx = rng.choice(side.count, size=target, replace=False)
    return side.points[np.sort(idx)]


def _gaussian_potential(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Kantorovich potential at pa's points of the Brenier map between Gaussian fits of pa and pb.

    With means m, biased covariances S and z = a - m_a, the map is
    a -> m_b + A z, A = S_a^-1/2 (S_a^1/2 S_b S_a^1/2)^1/2 S_a^-1/2, and the
    squared-distance potential is u(a) = z'(I - A)z + 2 (m_a - m_b)'z,
    centred at m_a so that far from the origin nothing cancels. A degenerate
    fit only makes u less useful: any u leaves the assignment exact.
    """
    mean_a, mean_b = pa.mean(axis=0), pb.mean(axis=0)
    za, zb = pa - mean_a, pb - mean_b
    root = _psd_sqrt(za.T @ za / len(pa))
    inv_root = np.linalg.pinv(root, hermitian=True)
    transport = inv_root @ _psd_sqrt(root @ (zb.T @ zb / len(pb)) @ root) @ inv_root
    return np.einsum("ij,ij->i", za @ (np.eye(pa.shape[1]) - transport), za) + za @ (
        2.0 * (mean_a - mean_b)
    )


def empirical_w2(
    a: SampleSet, b: SampleSet, cap: int = _CAP, subsample_seed: int = 0
) -> W2Report:
    """Exact assignment-based W2 between two point sets with uniform weights.

    Sets larger than cap (or of unequal sizes) are first subsampled to the
    common size min(cap, count_a, count_b); the seed is recorded in the
    report only when subsampling actually happened.

    The assignment is solved on the cost c_ij - u_i - v_j, where u is the
    Gaussian fits' transport potential (`_gaussian_potential`) and v_j is the
    column minimum of c_ij - u_i (u's c-transform). Every permutation's total
    shifts by the same constant, sum(u) + sum(v), so the optimal assignment is
    the plain cost's; the solver just starts near it. The matched costs are
    then computed afresh, block by block, and summed in sorted order.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if cap < 1:
        raise ValueError("cap must be positive")
    target = min(cap, a.count, b.count)
    used_subsample = a.count > target or b.count > target
    pa = _subsample(a, target, subsample_seed)
    pb = _subsample(b, target, subsample_seed)
    reduced = cdist(pa, pb, "sqeuclidean")
    # reduced in place, so no second matrix is held while the solver runs
    reduced -= _gaussian_potential(pa, pb)[:, None]
    reduced -= reduced.min(axis=0)
    rows, cols = linear_sum_assignment(reduced)
    del reduced
    matched = np.sort(np.concatenate([  # 64 pairs a call, bit for bit the full matrix's entries
        cdist(pa[rows[i:i + 64]], pb[cols[i:i + 64]], "sqeuclidean").diagonal()
        for i in range(0, target, 64)
    ]))  # sorted: the sum keeps symmetry exact
    value = math.sqrt(max(float(matched.sum()) / target, 0.0))
    return W2Report(
        value=value,
        method="exact_assignment",
        sizes=(a.count, b.count),
        subsample_seed=subsample_seed if used_subsample else None,
    )
