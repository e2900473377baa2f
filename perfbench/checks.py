"""Correctness checks of one cell's output against the independent reference.

Each check returns a list of failure messages; an empty list means the cell
passed. The thresholds are properties of the method, not stored outputs.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from reference import Mixture

# Points per side of the exact-assignment W2 estimate.
W2_POINTS = 1024
# Standard errors of slack on the sample mean.
MEAN_SIGMAS = 4.0


def w2_exact_assignment(a: np.ndarray, b: np.ndarray) -> float:
    """W2 between two equal-size point sets with uniform weights."""
    cost = cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum() / a.shape[0]))


def check_samples(
    points: np.ndarray, posterior: Mixture, gamma: float, rng: np.random.Generator
) -> list[str]:
    """W2 to reference draws and the mean; returns the failures.

    The method promises W2 <= gamma and nothing tighter: a spread error that
    stays under gamma in W2 (as on narrow posteriors) is within the contract.
    """
    failures = []
    if not np.isfinite(points).all():
        return ["non-finite samples"]
    size = min(W2_POINTS, points.shape[0])
    w2 = w2_exact_assignment(points[:size], posterior.sample(size, rng))
    if not w2 <= gamma:
        failures.append(f"W2 to the reference {w2:.4f} > gamma {gamma}")
    mean_err = float(np.linalg.norm(points.mean(axis=0) - posterior.mean()))
    mean_tol = gamma + MEAN_SIGMAS * np.sqrt(np.trace(posterior.cov()) / points.shape[0])
    if not mean_err <= mean_tol:
        failures.append(f"mean off by {mean_err:.4f} > {mean_tol:.4f}")
    return failures


def check_gaussian_plans(h_geffner, h_linhart, bounds: dict, gamma: float) -> list[str]:
    """The paper's Gaussian-case properties: certified bound and step-size order."""
    failures = [
        f"{method} global_bound {b:.4f} > gamma {gamma}"
        for method, b in bounds.items()
        if not b <= gamma
    ]
    hg, hl = np.asarray(h_geffner), np.asarray(h_linhart)
    if hg.shape != hl.shape:
        failures.append("geffner and linhart plans have different level counts")
    elif np.any(hg > hl):
        levels = np.flatnonzero(hg > hl).tolist()
        failures.append(f"h_geffner > h_linhart at levels {levels}")
    return failures
