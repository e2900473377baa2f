"""Closed-form Gaussian bridging distributions and their Langevin-relevant constants.

Builds every bridging Gaussian from moment-matched proxies composed by one
precision rule (exact on the gaussian task kind), and provides the exact
scalar log-concavity/smoothness constants of the Gaussian bridges, their
geffner-minus-linhart gap, and the analytic 2-Wasserstein distance between
Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .composite import _check_method
from .schedule import Schedule, alpha as schedule_alpha, v as schedule_v
from .tasks import GaussianDist, Task, _spd_inverse, gaussian_proxies

__all__ = [
    "BridgingConstants",
    "bridging_moments",
    "compose_gaussians",
    "proxy_bridge",
    "gaussian_constants",
    "constant_gap",
    "gaussian_w2",
]

_EIG_CLAMP = 1e-12
_COMMUTE_TOL = 1e-10


@dataclass(frozen=True)
class BridgingConstants:
    """Two-sided Hessian bounds m*I <= -hessian(log pi_t) <= M*I at one level."""

    t: float
    m: float
    M: float
    method: str

    def __post_init__(self) -> None:
        _check_method(self.method)
        if not self.M > 0:
            raise ValueError("smoothness constant must be positive")
        if self.m > self.M:
            raise ValueError("log-concavity constant cannot exceed smoothness constant")


def bridging_moments(task: Task, method: str, t: float, s: Schedule) -> GaussianDist:
    """Exact mean/covariance of the level-t bridging density for a gaussian task.

    linhart bridges are the diffused multi-observation posterior; geffner
    bridges are the precision-reweighted product of diffused individual
    posteriors against the diffused prior. Both are proxy_bridge over the
    task's proxies, which are exact on this kind.
    """
    _check_method(method)
    if task.kind != "gaussian":
        raise NotImplementedError("analytic bridging moments require the gaussian task kind")
    return proxy_bridge(*gaussian_proxies(task), method, t, s)


def compose_gaussians(
    prior_proxy: GaussianDist, post_means: np.ndarray, post_covs: np.ndarray
) -> GaussianDist:
    """Gaussian with precision sum(P_i) + (1-n)*P_prior and the matching mean.

    This is the product-of-Gaussians normalization of prior^(1-n) * prod_i
    posterior_i, for posterior means (n, d) and covariances (n, d, d); a
    non-positive-definite composed precision is an error.
    """
    n, d = len(post_means), prior_proxy.dim
    if n < 1:
        raise ValueError("need at least one posterior proxy")
    if post_means.shape != (n, d) or post_covs.shape != (n, d, d):
        raise ValueError("proxy dimensions disagree")
    means = np.concatenate([prior_proxy.mean[None, :], post_means])
    covs = np.concatenate([prior_proxy.cov[None, :, :], post_covs])
    precs = _spd_inverse(covs, "proxy covariance")
    weights = np.concatenate([[1.0 - n], np.ones(n)])
    precision = np.einsum("k,kij->ij", weights, precs)
    rhs = np.einsum("k,kij,kj->i", weights, precs, means)
    cov = _spd_inverse(precision, "composed precision")
    return GaussianDist(mean=cov @ rhs, cov=cov)


def proxy_bridge(
    prior_proxy: GaussianDist,
    post_means: np.ndarray,
    post_covs: np.ndarray,
    method: str,
    t: float,
    s: Schedule,
) -> GaussianDist:
    """Level-t bridging Gaussian built from moment-matched proxies (see gaussian_proxies).

    geffner composes the proxies diffused to level t; linhart composes the
    time-0 proxies first and diffuses the result.
    """
    _check_method(method)
    a = schedule_alpha(s, t)
    root_a, noise = math.sqrt(a), (1.0 - a) * np.eye(prior_proxy.dim)
    if method == "linhart":
        composed = compose_gaussians(prior_proxy, post_means, post_covs)
        return GaussianDist(mean=root_a * composed.mean, cov=a * composed.cov + noise)
    prior_t = GaussianDist(mean=root_a * prior_proxy.mean, cov=a * prior_proxy.cov + noise)
    return compose_gaussians(prior_t, root_a * post_means, a * post_covs + noise)


def gaussian_constants(
    sigma_min: float, sigma_max: float, n: int, t: float, method: str, s: Schedule
) -> BridgingConstants:
    """Exact scalar (m, M) for gaussian-task bridges from the likelihood eigenvalue range."""
    _check_method(method)
    if not 0 < sigma_min <= sigma_max:
        raise ValueError("need 0 < sigma_min <= sigma_max")
    if n < 1:
        raise ValueError("need at least one observation")
    v = schedule_v(s, t)
    m0 = (n + sigma_max) / sigma_max
    big_m0 = (n + sigma_min) / sigma_min
    if method == "linhart":
        big_m = big_m0 * sigma_min / (sigma_min + n * v)
        m = m0 * sigma_max / (sigma_max + n * v)
    else:
        big_m = big_m0 * sigma_min / (sigma_min + v) + (1 - n) * v / (sigma_min + v)
        m = m0 * sigma_max / (sigma_max + v) + (1 - n) * v / (sigma_max + v)
    return BridgingConstants(t=t, m=m, M=big_m, method=method)


def constant_gap(sigma: float, n: int, t: float, s: Schedule) -> float:
    """Exact geffner-minus-linhart difference of the scalar constants at one eigenvalue.

    M_geffner = M_linhart + gap(sigma_min) and m_geffner = m_linhart +
    gap(sigma_max).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n < 1:
        raise ValueError("need at least one observation")
    a = schedule_alpha(s, t)
    v = 1.0 - a
    return n * (n - 1) * a * v / ((sigma + v) * (sigma + n * v))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, q = eigh(mat)
    w = np.clip(w, _EIG_CLAMP, None)
    return (q * np.sqrt(w)) @ q.T


def gaussian_w2(a: GaussianDist, b: GaussianDist) -> float:
    """Analytic 2-Wasserstein distance between two Gaussians.

    Commuting covariances (commutator Frobenius norm < 1e-10) take the cheap
    Frobenius-of-square-roots path; otherwise the general Bures term is used.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    shift = float(np.sum((a.mean - b.mean) ** 2))
    commutator = a.cov @ b.cov - b.cov @ a.cov
    if np.linalg.norm(commutator, "fro") < _COMMUTE_TOL:
        diff = _psd_sqrt(a.cov) - _psd_sqrt(b.cov)
        bures = float(np.sum(diff * diff))
    else:
        root = _psd_sqrt(a.cov)
        cross = _psd_sqrt(root @ b.cov @ root)
        bures = float(np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    return math.sqrt(max(shift + bures, 0.0))
