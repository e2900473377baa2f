"""Closed-form Gaussian bridging distributions and their Langevin-relevant constants.

Builds every bridging Gaussian from one set-up of the moment-matched proxies
(exact on a one-component task): geffner's composition of the diffused proxies, or
linhart's time-0 composition of them, diffused. Also gives the exact scalar
log-concavity/smoothness constants of the Gaussian bridges, their
geffner-minus-linhart gap, and the analytic 2-Wasserstein distance between Gaussians.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .schedule import Schedule, alpha as schedule_alpha, v as schedule_v
from .tasks import GaussianDist, Task, _as_spd, _conjugate_update, _diffuse, _proxies
from .tasks import _spd_inverse, _symmetric_inverse, gaussian_proxies

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


class _ProxySetup:
    """The n+1 moment-matched proxies of one task, prior first, set up once per method.

    Each posterior covariance is checked SPD (the prior's is, as a GaussianDist) and equal ones
    are grouped. linhart also inverts each distinct one once (precs) and composes them at time 0
    (compose): P_c = (1-n) P_0 + sum_i P_i and its precision-weighted mean."""

    def __init__(self, prior: GaussianDist, post_means, post_covs, method: str, update=None):
        self.method, self.update = _check_method(method), update
        post_covs = _as_spd(post_covs, "post_covs")
        n, d = len(post_covs), prior.dim
        if n < 1 or np.shape(post_means) != (n, d) or post_covs.shape != (n, d, d):
            got = f"{np.shape(post_means)} and {post_covs.shape}"
            raise ValueError(f"need posterior means (n, {d}) and covs (n, {d}, {d}), n > 0: {got}")
        covs = np.concatenate([prior.cov[None], post_covs])
        first: dict[bytes, int] = {}  # the first proxy with each covariance, in order
        firsts = [first.setdefault(cov.tobytes(), i) for i, cov in enumerate(covs)]
        keep = list(first.values())
        weights = np.concatenate([[1.0 - n], np.ones(n)])
        self.n, self.group, self.covs = n, np.searchsorted(keep, firsts), covs[keep]
        self.weights = np.bincount(self.group, weights)  # each distinct covariance's total
        self.weighted_means = np.zeros((len(keep), d))  # and its sum of w_i mu_i
        means = np.concatenate([prior.mean[None], post_means])
        np.add.at(self.weighted_means, self.group, weights[:, None] * means)
        if method == "linhart":  # geffner composes the diffused proxies, not these
            self.precs = _symmetric_inverse(self.covs)
            self.composed_prec, self.composed_lin = self.compose(self.precs)

    def compose(self, precs: np.ndarray, root=1.0) -> tuple[np.ndarray, np.ndarray]:
        """The product prior^(1-n) prod_i posterior_i of Gaussians with the distinct covariances'
        precisions precs (G, d, d) and the proxies' means times root: its precision
        sum_g w_g P_g and its precision-weighted mean root sum_g P_g m_g (m_g: sum of w_i mu_i)."""
        lin = np.einsum("gij,gj->i", precs, self.weighted_means)
        return np.tensordot(self.weights, precs, 1), root * lin

    @classmethod
    def of_task(cls, task: Task, method: str) -> _ProxySetup:
        """The task's set-up, keeping the posteriors' _conjugate_update output as update."""
        update = _conjugate_update(task, task.observations[:, None])
        return cls(*_proxies(task, update), method, update)

    @functools.cached_property
    def rule(self):
        """_bridge_rule, built on first use (not by CompositeSpec: linhart's may be indefinite)."""
        return _bridge_rule(self)


def _bridge_rule(proxies: _ProxySetup):
    """alphas -> the method's bridges' precisions (T, d, d) and precision-weighted means (T, d).

    Both rules take the same two steps, diffusion (tasks._diffuse, one d x d inverse per
    covariance and alpha) and composition (_ProxySetup.compose), in the two orders. linhart
    composes, then diffuses: the set-up's time-0 composition, which must be definite, is
    diffused to each alpha. geffner diffuses, then composes: each distinct proxy covariance is
    diffused to the alpha, inverted, and composed, one alpha at a time to bound the memory.
    """
    if proxies.method == "linhart":
        cov = _spd_inverse(proxies.composed_prec, "composed precision")
        mean = cov @ proxies.composed_lin

        def diffused(alphas) -> tuple[np.ndarray, np.ndarray]:
            root, covs = _diffuse(cov, np.atleast_1d(alphas)[:, None, None])
            precs = _symmetric_inverse(covs)
            return precs, root[:, 0] * (precs @ mean)

        return diffused

    def composed(alphas) -> tuple[np.ndarray, np.ndarray]:
        diffused = (_diffuse(proxies.covs, a) for a in np.atleast_1d(alphas))  # lazily
        precs, lins = zip(*(proxies.compose(_symmetric_inverse(c), root) for root, c in diffused))
        return np.array(precs), np.array(lins)

    return composed


def _bridges(proxies: _ProxySetup, times, s: Schedule) -> tuple[np.ndarray, list]:
    """The bridges' precisions (T, d, d) and the bridges at each of the times (see proxy_bridge)."""
    precs, lins = proxies.rule(schedule_alpha(s, times))
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
    to each time, and a failed composition names the index of its time (_bridges)."""
    return _bridges(_ProxySetup(prior_proxy, post_means, post_covs, method), times, s)[1]


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
