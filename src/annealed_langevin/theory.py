"""Closed-form Gaussian bridging distributions and their Langevin-relevant constants.

Provides exact bridging moments for the gaussian task kind, Gaussian-proxy
bridges for everything else, the exact scalar log-concavity/smoothness
constants of the Gaussian bridges and their geffner-minus-linhart gap, and
the analytic 2-Wasserstein distance between Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .composite import _check_method, diffuse_covariance
from .schedule import Schedule, alpha as schedule_alpha, v as schedule_v
from .tasks import GaussianDist, Task

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


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _spd_inverse(mat: np.ndarray, label: str) -> np.ndarray:
    try:
        factor = cho_factor(mat, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{label} is not positive definite") from exc
    return _symmetrize(cho_solve(factor, np.eye(mat.shape[0])))


def bridging_moments(task: Task, method: str, t: float, s: Schedule) -> GaussianDist:
    """Exact mean/covariance of the level-t bridging density for a gaussian task.

    linhart bridges are the diffused multi-observation posterior; geffner
    bridges are the precision-reweighted product of diffused individual
    posteriors against the diffused prior.
    """
    _check_method(method)
    if task.kind != "gaussian":
        raise NotImplementedError("analytic bridging moments require the gaussian task kind")
    if task.n < 1:
        raise ValueError("need at least one observation")
    n, d = task.n, task.dim
    sigma = task.likelihood_cov
    eye = np.eye(d)
    a = schedule_alpha(s, t)
    v = 1.0 - a
    x_sum = task.observations.sum(axis=0)
    if method == "linhart":
        post_n = np.linalg.solve(n * eye + sigma, sigma)  # (n*inv(Sigma)+I)^{-1}
        cov = a * post_n + v * eye
        mean = math.sqrt(a) * np.linalg.solve(n * eye + sigma, x_sum)
        return GaussianDist(mean=mean, cov=_symmetrize(cov))
    post_1 = np.linalg.solve(eye + sigma, sigma)  # single-observation posterior cov
    diffused = a * post_1 + v * eye
    precision = (1 - n) * eye + n * _spd_inverse(diffused, "diffused posterior covariance")
    cov = _spd_inverse(precision, "bridge precision")
    lifted = np.linalg.solve(diffused, np.linalg.solve(eye + sigma, x_sum))
    mean = math.sqrt(a) * cov @ lifted
    return GaussianDist(mean=mean, cov=cov)


def compose_gaussians(
    prior_proxy: GaussianDist, post_proxies: Sequence[GaussianDist]
) -> GaussianDist:
    """Gaussian with precision sum(P_i) + (1-n)*P_prior and the matching mean.

    This is the product-of-Gaussians normalization of prior^(1-n) * prod_i
    posterior_i; a non-positive-definite composed precision is an error.
    """
    n = len(post_proxies)
    if n < 1:
        raise ValueError("need at least one posterior proxy")
    d = prior_proxy.dim
    if any(p.dim != d for p in post_proxies):
        raise ValueError("proxy dimensions disagree")
    prior_prec = _spd_inverse(prior_proxy.cov, "prior proxy covariance")
    precision = (1 - n) * prior_prec
    rhs = (1 - n) * prior_prec @ prior_proxy.mean
    for proxy in post_proxies:
        prec = _spd_inverse(proxy.cov, "posterior proxy covariance")
        precision += prec
        rhs += prec @ proxy.mean
    try:
        factor = cho_factor(precision, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("composed precision is not positive definite") from exc
    cov = _symmetrize(cho_solve(factor, np.eye(d)))
    return GaussianDist(mean=cho_solve(factor, rhs), cov=cov)


def proxy_bridge(
    prior_proxy: GaussianDist,
    post_proxies: Sequence[GaussianDist],
    method: str,
    t: float,
    s: Schedule,
) -> GaussianDist:
    """Level-t bridging Gaussian built from moment-matched proxies.

    geffner reweights the diffused proxies at level t; linhart composes the
    time-0 proxies first and diffuses the result.
    """
    _check_method(method)
    n = len(post_proxies)
    if n < 1:
        raise ValueError("need at least one posterior proxy")
    d = prior_proxy.dim
    if any(p.dim != d for p in post_proxies):
        raise ValueError("proxy dimensions disagree")
    a = schedule_alpha(s, t)
    if method == "linhart":
        composed = compose_gaussians(prior_proxy, post_proxies)
        cov = a * composed.cov + (1.0 - a) * np.eye(d)
        return GaussianDist(mean=math.sqrt(a) * composed.mean, cov=_symmetrize(cov))
    root_a = math.sqrt(a)
    prior_prec = _spd_inverse(diffuse_covariance(prior_proxy.cov, t, s), "diffused prior proxy")
    precision = (1 - n) * prior_prec
    rhs = (1 - n) * prior_prec @ (root_a * prior_proxy.mean)
    for proxy in post_proxies:
        prec = _spd_inverse(diffuse_covariance(proxy.cov, t, s), "diffused posterior proxy")
        precision += prec
        rhs += prec @ (root_a * proxy.mean)
    try:
        factor = cho_factor(precision, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"bridge precision is not positive definite at t={t:g}") from exc
    cov = _symmetrize(cho_solve(factor, np.eye(d)))
    return GaussianDist(mean=cho_solve(factor, rhs), cov=cov)


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
