"""Composite score fields aggregating per-observation posterior scores and the prior score.

Two aggregation methods are implemented:

- ``geffner``: (1-n) * prior_score + sum_i posterior_score_i.
- ``linhart``: Lambda_t^{-1} (sum_i Sigma_{t,i}^{-1} posterior_score_i
  + (1-n) Sigma_{t,lambda}^{-1} prior_score), where Sigma_{t,i} is the
  covariance of the Gaussian backward kernel induced by the time-0
  covariance proxy C_i (precision C_i^{-1} + (alpha_t/v_t) I) and
  Lambda_t = sum_i Sigma_{t,i}^{-1} + (1-n) Sigma_{t,lambda}^{-1}.

With exact Gaussian proxies the linhart field reproduces the score of the
diffused multi-observation posterior exactly. On a one-component task either
aggregation is the score of the method's bridging Gaussian (theory.proxy_bridge).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .schedule import Schedule, alpha as schedule_alpha
from .tasks import (
    ScoreField,
    Task,
    _kernel_score,
    _mixture_kernel,
    prior_dist,
)
from .theory import CompositeSpec, _check_method
from .tuner import LevelPlan

__all__ = [
    "spec_for_task",
    "geffner_score",
    "linhart_score",
    "compose_dsm_error",
    "composite_field",
]


def spec_for_task(task: Task, method: str, s: Schedule) -> CompositeSpec:
    """The task's exact moment-matched proxies, set up for method on s (CompositeSpec.of_task)."""
    return CompositeSpec.of_task(task, method, s)


def _level_weights(proxies: CompositeSpec, times) -> tuple:
    """The rule's weights at each level time: the composite score is s_0 W_0 + sum_i s_i W_i.

    Scores are row vectors. geffner has W_0 = (1-n) I and W_i = I. linhart,
    with the backward-kernel precisions P_{t,i} = P_i + (alpha_t/v_t) I and
    Lambda_t = P_c + (alpha_t/v_t) I, has W_0 = (1-n) P_{t,0} Lambda_t^{-1} and
    W_i = P_{t,i} Lambda_t^{-1} (P, Lambda symmetric: Lambda^-1 P s' = (s P Lambda^-1)'),
    one product per distinct covariance and time. Returns W_0 (L, d, d) and the W_i
    (L, n, d, d) for the L times. The Cholesky factor of each Lambda_t (one per time: scipy
    has no batched one) is the check: an indefinite Lambda_t is a linear-algebra error, and
    nothing is regularized.
    """
    n, d = proxies.n, proxies.covs.shape[-1]
    L = len(times)
    if proxies.method == "geffner":
        eye = np.eye(d)
        return np.broadcast_to((1 - n) * eye, (L, d, d)), np.broadcast_to(eye, (L, n, d, d))
    a = schedule_alpha(proxies.sched, np.asarray(times, dtype=float))
    noise = 1.0 - a
    if np.any(noise <= 0):
        raise ValueError("backward-kernel weights need t > 0")
    shrink = (a / noise)[:, None, None] * np.eye(d)
    inverses = np.empty((L, d, d))
    for t, lam, inverse in zip(times, proxies.composed_prec + shrink, inverses):
        try:
            inverse[...] = cho_solve(cho_factor(lam, lower=True), np.eye(d))
        except np.linalg.LinAlgError as exc:
            message = f"lambda matrix is not positive definite at t={t:g}"
            raise np.linalg.LinAlgError(message) from exc
    weights = ((proxies.precs + shrink[:, None]) @ inverses[:, None])[:, proxies.group]
    return (1 - n) * weights[:, 0], weights[:, 1:]  # prior first


def _compose(
    method: str,
    spec: CompositeSpec,
    prior_score: ScoreField,
    post_scores: Sequence[ScoreField],
    theta: np.ndarray,
    t: float,
) -> np.ndarray:
    """Evaluate the fields at theta and aggregate them with the rule's _level_weights."""
    if spec.method != method:
        raise ValueError(f"{method}_score needs a {method} spec, got {spec.method!r}")
    if len(post_scores) != spec.n:
        raise ValueError(f"expected {spec.n} posterior score fields, got {len(post_scores)}")
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[-1]
    prior = np.asarray(prior_score(theta, t), dtype=float).reshape(-1, d)
    posts = np.array([np.asarray(f(theta, t), dtype=float).reshape(-1, d) for f in post_scores])
    [prior_weight], [post_weights] = _level_weights(spec, [t])
    out = prior @ prior_weight + np.matmul(posts, post_weights).sum(axis=0)
    return out.reshape(theta.shape)


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


def composite_field(
    task: Task,
    method: str,
    s: Schedule,
    plan: LevelPlan | None = None,
):
    """Level-score factory for annealed sampling: (level_index, t) -> ScoreField.

    Both branches read one proxy set-up: the plan's (LevelPlan.setup), which must be set up for
    this method and schedule, else the task's own (CompositeSpec.of_task). On a one-component
    task each level's field is the score lin_t - theta P_t of the method's bridge, from the
    set-up's bridge rule at the level's alpha: one matrix product per step. On a mixture each
    level's field is one mixture kernel (tasks._mixture_kernel) over the posteriors weighted by
    the W_i and the prior by W_0 (_level_weights). Given a plan, the factory's first call sets
    up every plan level (LevelPlan.t) in one batched pass and hands each level (p, t[p]) out
    once; any other (p, t) is set up alone, through the same call with one alpha, to the same
    bits. A mixture field evaluates into buffers its kernel owns and returns a view of them.
    """
    setup = CompositeSpec.of_task(task, method, s) if plan is None else plan.setup
    if setup is None or (setup.method, setup.sched) != (method, s):
        got = setup and f"{setup.method} on {setup.sched}"
        raise ValueError(f"the plan's set-up is {got}, not {method} on {s}")
    times = None if plan is None else plan.t
    if task.one_component:
        def bridge_factory(level_index: int, t: float) -> ScoreField:
            (prec,), (lin,) = setup.rule(schedule_alpha(setup.sched, t))
            return lambda theta, t_arg: lin - theta @ prec

        return bridge_factory
    base_prior = prior_dist(task)._params()

    def kernels(level_times) -> list:
        prior_weights, post_weights = _level_weights(setup, level_times)
        stacks = [(setup.update, post_weights), (base_prior, prior_weights[:, None])]
        return _mixture_kernel(stacks, schedule_alpha(s, np.asarray(level_times, dtype=float)))

    planned: dict = {}  # (p, times[p]) -> that level's kernel, until it is handed out

    def factory(level_index: int, t: float) -> ScoreField:
        nonlocal times
        if times is not None:
            planned.update(zip(enumerate(np.asarray(times, dtype=float).tolist()), kernels(times)))
            times = None
        kernel = planned.pop((level_index, t), None) or kernels([t])[0]
        return lambda theta, t_arg: _kernel_score(kernel, theta.T)[0].T

    return factory
