"""Closed-form Gaussian bridging distributions and their Langevin-relevant constants.

Builds every bridging Gaussian from moment-matched proxies by one rule, the
weighted product of diffused Gaussians (exact on a one-component task), and
provides the exact scalar log-concavity/smoothness constants of the Gaussian
bridges, their geffner-minus-linhart gap, and the analytic 2-Wasserstein
distance between Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .schedule import Schedule, alpha as schedule_alpha, v as schedule_v
from .tasks import GaussianDist, Task, _as_spd, _spd_inverse, gaussian_proxies

__all__ = [
    "METHODS",
    "BridgingConstants",
    "bridging_moments",
    "proxy_bridge",
    "gaussian_constants",
    "constant_gap",
    "gaussian_w2",
]

METHODS = ("geffner", "linhart")

_EIG_CLAMP = 1e-12
_COMMUTE_TOL = 1e-10


def _check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return method


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
    """Exact mean/covariance of the level-t bridging density for a one-component task.

    linhart bridges are the diffused multi-observation posterior; geffner
    bridges are the precision-reweighted product of diffused individual
    posteriors against the diffused prior. Both are proxy_bridge over the
    task's proxies, which are exact when prior and likelihood are Gaussian.
    """
    if not task.one_component:
        raise NotImplementedError("analytic bridging moments require a one-component task")
    return proxy_bridge(*gaussian_proxies(task), method, [t], s)[0]


class _DiffusedProduct:
    """prior^(1-n) * prod_i posterior_i over n+1 Gaussians N(mu_i, C_i), prior first, diffused.

    Diffusion to alpha maps N(mu, C) to N(sqrt(a) mu, a C + (1-a) I), which keeps the
    eigenvectors of C = Q diag(lam) Q'. So the Gaussians (whose covariances the caller has
    checked SPD) are eigendecomposed once, here, equal covariances once between them, and at
    any alpha the product's precision sum_i w_i Q_i diag(g_i) Q_i', with w = (1-n, 1, ..., 1)
    and g_i = 1/(a lam_i + 1 - a), and its precision-weighted mean are each one product over
    the stacked eigenbases.
    """

    def __init__(self, means: np.ndarray, covs: np.ndarray) -> None:
        count, d = means.shape
        first: dict[bytes, int] = {}  # the first Gaussian with each covariance, in order
        firsts = [first.setdefault(cov.tobytes(), i) for i, cov in enumerate(covs)]
        keep = list(first.values())
        group = np.searchsorted(keep, firsts)
        weights = np.concatenate([[2.0 - count], np.ones(count - 1)])
        weighted_means = np.zeros((len(keep), d))
        np.add.at(weighted_means, group, weights[:, None] * means)
        self.eigvals, vecs = np.linalg.eigh(covs[keep])
        # flat over (distinct covariance, eigenvalue), like the columns of the basis
        self.weights = np.repeat(np.bincount(group, weights), d)
        self.rotated = np.einsum("ikj,ik->ij", vecs, weighted_means).ravel()  # Q' sum w mu
        self.basis = vecs.transpose(1, 0, 2).reshape(d, -1)  # [Q_0 Q_1 ...]

    def __call__(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Precisions (T, d, d) and precision-weighted means (T, d) at each of the alphas."""
        a = np.atleast_1d(alphas)[:, None, None]
        g = (1.0 / (a * self.eigvals + 1.0 - a)).reshape(len(a), -1)  # (T, distinct * d)
        lins = np.sqrt(a[:, 0]) * ((g * self.rotated) @ self.basis.T)
        # one (d, distinct * d) temporary at a time, not one per alpha
        precs = np.array([(self.basis * w) @ self.basis.T for w in g * self.weights])
        return 0.5 * (precs + np.swapaxes(precs, -1, -2)), lins


def _bridge_rule(
    prior_proxy: GaussianDist, post_means: np.ndarray, post_covs: np.ndarray, method: str
) -> _DiffusedProduct:
    """The product whose value at alpha_t is the method's level-t bridge: geffner's n+1 proxies,
    each diffused, or linhart's time-0 composition (alpha = 1), which must be definite, alone."""
    _check_method(method)
    n, d = len(post_means), prior_proxy.dim
    if n < 1 or np.shape(post_means)[1:] != (d,) or np.shape(post_covs) != (n, d, d):
        raise ValueError("need one or more posterior proxies of the prior's dimension")
    means = np.concatenate([prior_proxy.mean[None], post_means])
    covs = _as_spd(np.concatenate([prior_proxy.cov[None], post_covs]), "proxy covariance")
    rule = _DiffusedProduct(means, covs)
    if method == "linhart":
        (prec,), (lin,) = rule(1.0)
        cov = _spd_inverse(prec, "composed precision")
        rule = _DiffusedProduct((cov @ lin)[None], cov[None])
    return rule


def _bridges(proxies: tuple, method: str, times, s: Schedule) -> tuple[np.ndarray, list]:
    """The bridges' precisions (T, d, d) and the bridges at each of the times (see proxy_bridge)."""
    precs, lins = _bridge_rule(*proxies, method)(schedule_alpha(s, times))
    covs = _spd_inverse(precs, "composed precision")
    return precs, [GaussianDist(mean=cov @ lin, cov=cov) for cov, lin in zip(covs, lins)]


def proxy_bridge(
    prior_proxy: GaussianDist,
    post_means: np.ndarray,
    post_covs: np.ndarray,
    method: str,
    times: np.ndarray | list[float],
    s: Schedule,
) -> list[GaussianDist]:
    """Bridging Gaussians at each of the times, from moment-matched proxies (see gaussian_proxies).

    linhart diffuses the time-0 composition to each time; geffner composes the proxies diffused
    to each time, and a failed composition names the index of its time (_bridge_rule)."""
    return _bridges((prior_proxy, post_means, post_covs), method, times, s)[1]


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

    Commuting covariances (commutator Frobenius norm < 1e-10 |A|_F |B|_F) take the cheap
    Frobenius-of-square-roots path; otherwise the general Bures term is used.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    shift = float(np.sum((a.mean - b.mean) ** 2))
    commutator = a.cov @ b.cov - b.cov @ a.cov
    scale = np.linalg.norm(a.cov, "fro") * np.linalg.norm(b.cov, "fro")
    if np.linalg.norm(commutator, "fro") < _COMMUTE_TOL * scale:
        diff = _psd_sqrt(a.cov) - _psd_sqrt(b.cov)
        bures = float(np.sum(diff * diff))
    else:
        root = _psd_sqrt(a.cov)
        cross = _psd_sqrt(root @ b.cov @ root)
        bures = float(np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    return math.sqrt(max(shift + bures, 0.0))
