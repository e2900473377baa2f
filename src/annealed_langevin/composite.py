"""Composite score fields aggregating per-observation posterior scores and the prior score.

Two aggregation methods are implemented:

- ``geffner``: (1-n) * prior_score + sum_i posterior_score_i.
- ``linhart``: Lambda_t^{-1} (sum_i Sigma_{t,i}^{-1} posterior_score_i
  + (1-n) Sigma_{t,lambda}^{-1} prior_score), where Sigma_{t,i} is the
  covariance of the Gaussian backward kernel induced by the time-0
  covariance proxy C_i (precision C_i^{-1} + (alpha_t/v_t) I) and
  Lambda_t = sum_i Sigma_{t,i}^{-1} + (1-n) Sigma_{t,lambda}^{-1}.

With exact Gaussian proxies the linhart field reproduces the score of the
diffused multi-observation posterior exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .schedule import Schedule, alpha as schedule_alpha
from .tasks import (
    ScoreField,
    Task,
    _as_spd,
    _conjugate_update,
    _diffuse_stacked,
    _mixture_scores,
    _spd_inverse,
    gaussian_proxies,
    prior_dist,
)

__all__ = [
    "METHODS",
    "CompositeSpec",
    "spec_for_task",
    "lambda_matrix",
    "geffner_score",
    "linhart_score",
    "compose_dsm_error",
    "composite_field",
]

METHODS = ("geffner", "linhart")


def _check_method(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return method


@dataclass(frozen=True)
class CompositeSpec:
    """Aggregation method plus the covariance proxies the linhart weights need.

    post_covs and prior_cov are time-0 covariances; the time-t weight
    matrices are the backward-kernel covariances they induce, with precision
    C^{-1} + (alpha_t/v_t) I (SPD for every t in (0, 1]).
    """

    method: str
    n: int
    post_covs: np.ndarray  # (n, d, d)
    prior_cov: np.ndarray  # (d, d)
    sched: Schedule

    def __post_init__(self) -> None:
        _check_method(self.method)
        if self.n < 1:
            raise ValueError("need at least one observation")
        post = np.asarray(self.post_covs, dtype=float)
        if post.ndim != 3 or post.shape[0] != self.n:
            raise ValueError("post_covs must be (n, d, d)")
        for i in range(self.n):
            _as_spd(post[i], f"post_covs[{i}]")
        prior = _as_spd(self.prior_cov, "prior_cov")
        if prior.shape != post.shape[1:]:
            raise ValueError("prior_cov dimension disagrees with post_covs")
        object.__setattr__(self, "post_covs", post)
        object.__setattr__(self, "prior_cov", prior)


def spec_for_task(task: Task, method: str, s: Schedule) -> CompositeSpec:
    """Build a CompositeSpec with exact moment-matched covariances as proxies."""
    prior, _, post_covs = gaussian_proxies(task)
    return CompositeSpec(
        method=method, n=task.n, post_covs=post_covs, prior_cov=prior.cov, sched=s
    )


def _level_weights(spec: CompositeSpec, t: float):
    """Linhart weights at level t: (post_prec, prior_prec, Lambda_t, Cholesky factor of Lambda_t).

    The precisions are the backward-kernel ones, C^{-1} + (alpha_t/v_t) I, of
    every proxy, and Lambda_t = sum_i Sigma_{t,i}^{-1} + (1-n) Sigma_{t,lambda}^{-1}.
    Singular or indefinite Lambda_t surfaces as a linear-algebra error; no
    regularization is applied.
    """
    a = schedule_alpha(spec.sched, t)
    noise = 1.0 - a
    if noise <= 0:
        raise ValueError("backward-kernel weights need t > 0")
    shrink = (a / noise) * np.eye(spec.prior_cov.shape[0])
    post_prec = _spd_inverse(spec.post_covs, "post_covs") + shrink
    prior_prec = _spd_inverse(spec.prior_cov, "prior_cov") + shrink
    lam = post_prec.sum(axis=0) + (1 - spec.n) * prior_prec
    try:
        lam_factor = cho_factor(lam, lower=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"lambda matrix is not positive definite at t={t:g}"
        ) from exc
    return post_prec, prior_prec, lam, lam_factor


def lambda_matrix(spec: CompositeSpec, t: float) -> np.ndarray:
    """Lambda_t = sum_i Sigma_{t,i}^{-1} + (1-n) Sigma_{t,lambda}^{-1}; must be SPD."""
    return _level_weights(spec, t)[2]


def _aggregate(
    method: str, prior_score: np.ndarray, post_scores: np.ndarray, weights
) -> np.ndarray:
    """The composite score from the prior score (N, d) and the posterior scores (n, N, d).

    weights is _level_weights' output for linhart and unused by geffner.
    """
    n = post_scores.shape[0]
    if method == "geffner":
        return (1 - n) * prior_score + post_scores.sum(axis=0)
    post_prec, prior_prec, _, lam_factor = weights
    inner = np.einsum("nij,nkj->ki", post_prec, post_scores)
    inner += (1 - n) * (prior_score @ prior_prec)
    return cho_solve(lam_factor, inner.T).T


def _compose(
    method: str,
    spec: CompositeSpec,
    prior_score: ScoreField,
    post_scores: Sequence[ScoreField],
    theta: np.ndarray,
    t: float,
) -> np.ndarray:
    """Evaluate the fields at theta and aggregate them as composite_field's fields do."""
    if len(post_scores) != spec.n:
        raise ValueError(f"expected {spec.n} posterior score fields, got {len(post_scores)}")
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[-1]
    prior = np.asarray(prior_score(theta, t), dtype=float).reshape(-1, d)
    posts = np.array([np.asarray(f(theta, t), dtype=float).reshape(-1, d) for f in post_scores])
    weights = _level_weights(spec, t) if method == "linhart" else None
    return _aggregate(method, prior, posts, weights).reshape(theta.shape)


def geffner_score(
    spec: CompositeSpec,
    prior_score: ScoreField,
    post_scores: Sequence[ScoreField],
    theta: np.ndarray,
    t: float,
) -> np.ndarray:
    """(1-n) * prior score + sum of per-observation posterior scores."""
    return _compose("geffner", spec, prior_score, post_scores, theta, t)


def linhart_score(
    spec: CompositeSpec,
    prior_score: ScoreField,
    post_scores: Sequence[ScoreField],
    theta: np.ndarray,
    t: float,
) -> np.ndarray:
    """Precision-weighted aggregation normalized by Lambda_t (see _level_weights)."""
    return _compose("linhart", spec, prior_score, post_scores, theta, t)


def compose_dsm_error(eps_prior: float, eps_post: float, n: int, method: str) -> float:
    """L2 error bound of the composite score given per-field score-error bounds.

    The same (n-1) * eps_prior + n * eps_post value is returned for both
    methods; for linhart it is a conservative stand-in (its mixing weights
    are contractions for the proxies built here).
    """
    _check_method(method)
    if eps_prior < 0 or eps_post < 0:
        raise ValueError("error bounds must be nonnegative")
    if n < 1:
        raise ValueError("need at least one observation")
    return (n - 1) * eps_prior + n * eps_post


# ---------------------------------------------------------------------------
# Fast per-level fields for the sampler


def _affine_probe(field: Callable[[np.ndarray, float], np.ndarray], t: float, d: int):
    """Collapse an affine score field to theta @ M + b via basis probes."""
    b = field(np.zeros((1, d)), t)[0]
    M = (field(np.eye(d), t) - b).T

    def affine(theta: np.ndarray, t_arg: float) -> np.ndarray:
        return theta @ M + b

    return affine


def composite_field(task: Task, method: str, s: Schedule):
    """Level-score factory for annealed sampling: (level_index, t) -> ScoreField.

    Per level, mixture parameters and linhart weight factorizations are
    precomputed once; the gaussian kind additionally collapses to an affine
    map so each Langevin step is a single matrix multiply.
    """
    _check_method(method)
    if task.n < 1:
        raise ValueError("need at least one observation")
    base_post = _conjugate_update(task, task.observations, 1)
    base_prior = prior_dist(task)._params() if task.kind == "gmm_prior" else None
    spec = spec_for_task(task, method, s) if method == "linhart" else None

    def factory(level_index: int, t: float) -> ScoreField:
        post_params = _diffuse_stacked(*base_post, t, s)
        prior_params = None if base_prior is None else _diffuse_stacked(*base_prior, t, s)
        weights = None if spec is None else _level_weights(spec, t)

        def field(theta: np.ndarray, t_arg: float) -> np.ndarray:
            scores, _ = _mixture_scores(*post_params, theta)  # (n, N, d)
            if prior_params is None:
                pscore = -theta  # the standard normal prior diffuses to itself
            else:
                pscore = _mixture_scores(*prior_params, theta)[0][0]
            return _aggregate(method, pscore, scores, weights)

        if task.kind == "gaussian":
            return _affine_probe(field, t, task.dim)
        return field

    return factory
