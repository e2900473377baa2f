"""Analytic inference problems with exact diffused scores and exact posterior sampling.

Three task kinds are supported:

- ``gaussian``: standard normal prior, Gaussian likelihood N(x; theta, Sigma).
- ``gmm_prior``: two-component Gaussian-mixture prior, Gaussian likelihood.
- ``gmm_likelihood``: standard normal prior, two-component mixture likelihood
  whose components share a base covariance up to scalar variance multipliers.

Every per-observation posterior is a finite Gaussian mixture, so diffused
scores, moments and ground-truth joint samples are all available in closed
form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from .sampler import SampleSet
from .schedule import Schedule, alpha as schedule_alpha

__all__ = [
    "KINDS",
    "ScoreField",
    "GaussianDist",
    "GaussianMixture",
    "Task",
    "gaussian_task",
    "gmm_prior_task",
    "gmm_likelihood_task",
    "simulate_observations",
    "prior_dist",
    "prior_score",
    "prior_log_density",
    "individual_posterior_score",
    "posterior_log_density",
    "posterior_mixture",
    "posterior_moments",
    "gaussian_proxies",
    "joint_posterior_mixture",
    "exact_posterior_sample",
]

KINDS = ("gaussian", "gmm_prior", "gmm_likelihood")

# A score field maps (theta batch, time) to gradients of the same shape.
ScoreField = Callable[[np.ndarray, float], np.ndarray]

_LOG_2PI = math.log(2.0 * math.pi)
_COMPONENT_CAP = 4096  # largest joint posterior the exact reference enumerates


def _as_spd(cov: np.ndarray, name: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive definite") from exc
    return cov


def _spd_inverse(mats: np.ndarray, label: str) -> np.ndarray:
    """Inverse of one SPD matrix (d, d) or of a stack (..., d, d), symmetrized."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{label} is not positive definite") from exc
    inv = np.linalg.inv(mats)
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _moments(
    weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched (means (n, d), covariances (n, d, d)) of n mixtures sharing covs.

    weights: (n, K), means: (n, K, d), covs: (K, d, d); law of total covariance.
    """
    mean = np.einsum("nk,nkd->nd", weights, means)
    centered = means - mean[:, None, :]
    cov = np.einsum("nk,kij->nij", weights, covs)
    cov = cov + np.einsum("nk,nki,nkj->nij", weights, centered, centered)
    return mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))


@dataclass(frozen=True)
class GaussianDist:
    """Mean vector and SPD covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        cov = _as_spd(self.cov, "cov")
        if cov.shape[0] != mean.size:
            raise ValueError("mean and cov dimensions disagree")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def _params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This distribution as a stack of one one-component mixture, for _mixture_scores."""
        return np.zeros((1, 1)), self.mean[None, None, :], self.cov[None, :, :]

    def log_pdf(self, theta: np.ndarray) -> np.ndarray:
        return _evaluate(self._params(), theta)[1]

    def score(self, theta: np.ndarray) -> np.ndarray:
        return _evaluate(self._params(), theta)[0]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        chol = np.linalg.cholesky(self.cov)
        return self.mean + rng.standard_normal((count, self.dim)) @ chol.T


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture: weights (K,), means (K, d), covariances (K, d, d)."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covs, dtype=float)
        if w.ndim != 1 or means.ndim != 2 or covs.ndim != 3:
            raise ValueError("expected weights (K,), means (K, d), covs (K, d, d)")
        if not (w.size == means.shape[0] == covs.shape[0]):
            raise ValueError("component counts disagree")
        if np.any(w < 0.0) or not math.isclose(float(w.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        for k in range(covs.shape[0]):
            _as_spd(covs[k], f"covs[{k}]")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def component_count(self) -> int:
        return self.weights.size

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Moment-matched (mean, covariance) by the law of total covariance."""
        mean, cov = _moments(self.weights[None, :], self.means[None, :, :], self.covs)
        return mean[0], cov[0]

    def _params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.log(self.weights)[None, :], self.means[None, :, :], self.covs

    def log_pdf(self, theta: np.ndarray) -> np.ndarray:
        return _evaluate(self._params(), theta)[1]

    def score(self, theta: np.ndarray) -> np.ndarray:
        return _evaluate(self._params(), theta)[0]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        choice = rng.choice(self.component_count, size=count, p=self.weights)
        z = rng.standard_normal((count, self.dim))
        out = np.empty((count, self.dim))
        for k in range(self.component_count):
            mask = choice == k
            if mask.any():
                chol = np.linalg.cholesky(self.covs[k])
                out[mask] = self.means[k] + z[mask] @ chol.T
        return out


@dataclass(frozen=True)
class Task:
    """One inference problem: prior, likelihood and the conditioning observations."""

    kind: str
    dim: int
    observations: np.ndarray  # (n, dim)
    likelihood_cov: np.ndarray  # (dim, dim) base covariance
    prior_means: np.ndarray | None = None  # (K, dim), gmm_prior only
    prior_scales: np.ndarray | None = None  # (K,) component std devs, gmm_prior only
    prior_weights: np.ndarray | None = None  # (K,), gmm_prior only
    likelihood_cov_scales: np.ndarray | None = None  # (K,) variance factors, gmm_likelihood only
    likelihood_weights: np.ndarray | None = None  # (K,), gmm_likelihood only

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2 or obs.shape[1] != self.dim:
            raise ValueError("observations must be an (n, dim) matrix")
        cov = _as_spd(self.likelihood_cov, "likelihood_cov")
        if cov.shape[0] != self.dim:
            raise ValueError("likelihood_cov dimension disagrees with dim")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "likelihood_cov", cov)
        if self.kind == "gmm_prior":
            means = np.asarray(self.prior_means, dtype=float)
            scales = np.asarray(self.prior_scales, dtype=float)
            weights = _checked_weights(self.prior_weights)
            if means.ndim != 2 or means.shape[1] != self.dim:
                raise ValueError("prior_means must be (K, dim)")
            if scales.shape != (means.shape[0],) or np.any(scales <= 0):
                raise ValueError("prior_scales must be K positive values")
            if weights.size != means.shape[0]:
                raise ValueError("prior component counts disagree")
            object.__setattr__(self, "prior_means", means)
            object.__setattr__(self, "prior_scales", scales)
            object.__setattr__(self, "prior_weights", weights)
        if self.kind == "gmm_likelihood":
            scales = np.asarray(self.likelihood_cov_scales, dtype=float)
            weights = _checked_weights(self.likelihood_weights)
            if scales.ndim != 1 or np.any(scales <= 0):
                raise ValueError("likelihood_cov_scales must be positive")
            if weights.size != scales.size:
                raise ValueError("likelihood component counts disagree")
            object.__setattr__(self, "likelihood_cov_scales", scales)
            object.__setattr__(self, "likelihood_weights", weights)

    @property
    def n(self) -> int:
        return self.observations.shape[0]


def _checked_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or np.any(w < 0) or not math.isclose(float(w.sum()), 1.0, abs_tol=1e-9):
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    return w


def gaussian_task(likelihood_cov: np.ndarray, observations: np.ndarray) -> Task:
    """Standard normal prior with likelihood N(x; theta, likelihood_cov)."""
    cov = np.asarray(likelihood_cov, dtype=float)
    return Task(kind="gaussian", dim=cov.shape[0], observations=observations, likelihood_cov=cov)


def gmm_prior_task(
    likelihood_cov: np.ndarray,
    observations: np.ndarray,
    prior_means: np.ndarray = ((0.0, 0.0), (1.0, 1.0)),
    prior_scales=(0.5, 0.5),
    prior_weights=(0.5, 0.5),
) -> Task:
    """Gaussian-mixture prior (isotropic components) with a Gaussian likelihood."""
    cov = np.asarray(likelihood_cov, dtype=float)
    return Task(
        kind="gmm_prior",
        dim=cov.shape[0],
        observations=observations,
        likelihood_cov=cov,
        prior_means=prior_means,
        prior_scales=prior_scales,
        prior_weights=prior_weights,
    )


def gmm_likelihood_task(
    observations: np.ndarray,
    base_cov: np.ndarray | None = None,
    cov_scales=(2.25, 1.0 / 9.0),
    weights=(0.5, 0.5),
    dim: int = 10,
) -> Task:
    """Standard normal prior with a two-component scaled-covariance mixture likelihood.

    The default base covariance is diagonal with entries linearly spaced
    between 0.6 and 1.4.
    """
    if base_cov is None:
        base_cov = np.diag(np.linspace(0.6, 1.4, dim))
    cov = np.asarray(base_cov, dtype=float)
    return Task(
        kind="gmm_likelihood",
        dim=cov.shape[0],
        observations=observations,
        likelihood_cov=cov,
        likelihood_cov_scales=cov_scales,
        likelihood_weights=weights,
    )


def prior_dist(task: Task) -> GaussianDist | GaussianMixture:
    """The prior as an explicit distribution object."""
    if task.kind == "gmm_prior":
        eye = np.eye(task.dim)
        covs = np.array([s * s * eye for s in task.prior_scales])
        return GaussianMixture(task.prior_weights, task.prior_means, covs)
    return GaussianDist(np.zeros(task.dim), np.eye(task.dim))


def simulate_observations(task: Task, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw theta* from the prior, then count i.i.d. observations from the likelihood."""
    if count < 1:
        raise ValueError("need at least one observation")
    theta_star = prior_dist(task).sample(1, rng)[0]
    if task.kind == "gmm_likelihood":
        choice = rng.choice(task.likelihood_cov_scales.size, size=count, p=task.likelihood_weights)
        chols = [np.linalg.cholesky(s * task.likelihood_cov) for s in task.likelihood_cov_scales]
        z = rng.standard_normal((count, task.dim))
        return np.array([theta_star + chols[k] @ z[i] for i, k in enumerate(choice)])
    chol = np.linalg.cholesky(task.likelihood_cov)
    return theta_star + rng.standard_normal((count, task.dim)) @ chol.T


# ---------------------------------------------------------------------------
# Per-observation posterior mixtures (time 0)


def _check_index(task: Task, i: int) -> int:
    if not 0 <= i < task.n:
        raise ValueError(f"observation index {i} out of range for n={task.n}")
    return i


def _conjugate_update(
    task: Task, x: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior of sum_k w_k N(mu_k, s_k^2 I) under N(x; theta, L_k / n), for each row of x.

    Every kind is this one conjugate update. gaussian: a single component
    (w, mu, s^2, L) = (1, 0, 1, Sigma). gmm_prior: the prior's components,
    each with L_k = Sigma. gmm_likelihood: the likelihood's components, each
    with mu_k = 0, s_k^2 = 1 and L_k = c_k Sigma. Component k of the
    posterior has covariance s^2 (L + s^2 I)^{-1} L, mean
    (L + s^2 I)^{-1} (L mu + s^2 x) and log weight
    log w + log N(x; mu, L + s^2 I). n > 1 with x the observation mean gives
    the joint posterior when the likelihood is a single Gaussian.

    Returns normalized log weights (rows, K), means (rows, K, d) and
    covariances (K, d, d); the covariances do not depend on x.
    """
    d = task.dim
    sigma = task.likelihood_cov / n
    if task.kind == "gmm_prior":
        weights, prior_means = task.prior_weights, task.prior_means
        prior_vars, like_covs = task.prior_scales**2, [sigma] * weights.size
    elif task.kind == "gmm_likelihood":
        weights = task.likelihood_weights
        prior_means, prior_vars = np.zeros((weights.size, d)), np.ones(weights.size)
        like_covs = [c * sigma for c in task.likelihood_cov_scales]
    else:
        weights, prior_means = np.ones(1), np.zeros((1, d))
        prior_vars, like_covs = np.ones(1), [sigma]
    eye = np.eye(d)
    log_w = np.empty((x.shape[0], weights.size))
    means = np.empty((x.shape[0], weights.size, d))
    covs = np.empty((weights.size, d, d))
    for k, like in enumerate(like_covs):
        s2 = float(prior_vars[k])
        factor = cho_factor(like + s2 * eye, lower=True)
        cov = s2 * cho_solve(factor, like)
        covs[k] = 0.5 * (cov + cov.T)
        means[:, k] = cho_solve(factor, (like @ prior_means[k] + s2 * x).T).T
        delta = x - prior_means[k]
        quad = np.sum(delta * cho_solve(factor, delta.T).T, axis=1)
        logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
        log_w[:, k] = np.log(weights[k]) - 0.5 * (quad + logdet + d * _LOG_2PI)
    return log_w - logsumexp(log_w, axis=1, keepdims=True), means, covs


def _observation_params(task: Task, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _check_index(task, i)
    return _conjugate_update(task, task.observations[i : i + 1], 1)


def posterior_mixture(task: Task, i: int) -> GaussianMixture:
    """Exact mixture decomposition of the single-observation posterior p(theta | x_i)."""
    log_w, means, covs = _observation_params(task, i)
    return GaussianMixture(np.exp(log_w[0]), means[0], covs)


def posterior_moments(
    task: Task, i: int | None = None
) -> tuple[np.ndarray, np.ndarray, GaussianMixture]:
    """Exact moments (and mixture decomposition) of p(theta | x_i), or of the joint.

    i=None requests the multi-observation posterior, which is only available
    in closed single-Gaussian form for the gaussian kind; other kinds raise
    (sample the joint with exact_posterior_sample instead).
    """
    if i is None and task.kind != "gaussian":
        raise NotImplementedError(
            "joint moments are only closed-form for the gaussian kind; "
            "use exact_posterior_sample"
        )
    mixture = joint_posterior_mixture(task) if i is None else posterior_mixture(task, i)
    mean, cov = mixture.moments()
    return mean, cov, mixture


def gaussian_proxies(task: Task) -> tuple[GaussianDist, np.ndarray, np.ndarray]:
    """Moment-matched Gaussians of the prior and of every single-observation posterior.

    Returns the prior proxy and the posterior proxies' means (n, d) and
    covariances (n, d, d). On the gaussian kind they are the exact densities.
    """
    prior = prior_dist(task)
    if isinstance(prior, GaussianMixture):
        prior = GaussianDist(*prior.moments())
    log_w, means, covs = _conjugate_update(task, task.observations, 1)
    return (prior, *_moments(np.exp(log_w), means, covs))


def _check_component_cap(task: Task, component_cap: int) -> None:
    """Refuse a joint posterior of more than component_cap components (K^n for gmm_likelihood)."""
    if task.kind == "gmm_likelihood":
        total = task.likelihood_weights.size**task.n
        if total > component_cap:
            raise ValueError(
                f"joint posterior needs {total} components, above the cap {component_cap}"
            )


def joint_posterior_mixture(task: Task, component_cap: int = _COMPONENT_CAP) -> GaussianMixture:
    """Exact finite-mixture form of p(theta | x_{1:n}).

    gaussian: one component. gmm_prior: one component per prior component
    (the Gaussian likelihood product collapses to a single kernel).
    gmm_likelihood: one component per assignment of a likelihood component to
    each observation; refuses above component_cap.
    """
    if task.n < 1:
        raise ValueError("need at least one observation")
    _check_component_cap(task, component_cap)
    n = task.n
    if task.kind != "gmm_likelihood":
        # prod_i N(x_i; theta, Sigma) is proportional to N(x_bar; theta, Sigma / n)
        x_bar = task.observations.sum(axis=0) / n
        log_w, means, covs = _conjugate_update(task, x_bar[None, :], n)
        return GaussianMixture(np.exp(log_w[0]), means[0], covs)
    d = task.dim
    eye = np.eye(d)
    sigma = task.likelihood_cov
    # gmm_likelihood: enumerate component assignments
    K = task.likelihood_weights.size
    total = K**n
    precisions = np.empty((K, d, d))
    logdets = np.empty(K)
    for k in range(K):
        sig_k = float(task.likelihood_cov_scales[k]) * sigma
        factor = cho_factor(sig_k, lower=True)
        precisions[k] = cho_solve(factor, eye)
        logdets[k] = 2.0 * np.sum(np.log(np.diag(factor[0])))
    # per (observation, component): precision-weighted data and quadratic forms
    px = np.einsum("kij,nj->nki", precisions, task.observations)
    quad = np.einsum("ni,nki->nk", task.observations, px)
    log_wk = np.log(task.likelihood_weights)
    combos = list(itertools.product(range(K), repeat=n))
    means = np.empty((total, d))
    covs = np.empty((total, d, d))
    log_w = np.empty(total)
    idx = np.arange(n)
    for c, combo in enumerate(combos):
        combo = np.asarray(combo)
        lam = eye + precisions[combo].sum(axis=0)
        b = px[idx, combo].sum(axis=0)
        factor = cho_factor(lam, lower=True)
        cov = cho_solve(factor, eye)
        covs[c] = 0.5 * (cov + cov.T)
        means[c] = cho_solve(factor, b)
        logdet_lam = 2.0 * np.sum(np.log(np.diag(factor[0])))
        log_z = (
            -0.5 * (n * d * _LOG_2PI + logdets[combo].sum() + quad[idx, combo].sum())
            - 0.5 * logdet_lam
            + 0.5 * float(b @ means[c])
        )
        log_w[c] = log_wk[combo].sum() + log_z
    weights = np.exp(log_w - logsumexp(log_w))
    return GaussianMixture(weights / weights.sum(), means, covs)


def exact_posterior_sample(
    task: Task, count: int, seed: int, component_cap: int = _COMPONENT_CAP
) -> SampleSet:
    """I.i.d. ground-truth draws from p(theta | x_{1:n}), reproducible per seed."""
    if count < 1:
        raise ValueError("need at least one sample")
    mixture = joint_posterior_mixture(task, component_cap=component_cap)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    points = mixture.sample(count, rng)
    return SampleSet(points=points, level=0.0, seed=seed, steps_used=0)


# ---------------------------------------------------------------------------
# Diffused scores and log densities


def _check_theta(task: Task, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != task.dim:
        raise ValueError("theta dimension disagrees with the task")
    return theta


def _diffuse_stacked(
    log_w: np.ndarray, means: np.ndarray, covs: np.ndarray, t: float, s: Schedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push stacked mixture parameters through the forward diffusion to time t."""
    a = schedule_alpha(s, t)
    d = means.shape[-1]
    return log_w, np.sqrt(a) * means, a * covs + (1.0 - a) * np.eye(d)


def _mixture_scores(
    log_w: np.ndarray, means: np.ndarray, covs: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and log densities of n mixtures sharing component covariances.

    log_w: (n, K), means: (n, K, d), covs: (K, d, d), theta: (N, d).
    Returns (scores (n, N, d), log_pdf (n, N)).
    """
    n, K = log_w.shape
    N, d = theta.shape
    eye = np.eye(d)
    comp_logpdf = np.empty((K, n, N))
    comp_score = np.empty((K, n, N, d))
    for k in range(K):
        factor = cho_factor(covs[k], lower=True)
        logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
        prec = cho_solve(factor, eye)
        prec = 0.5 * (prec + prec.T)
        delta = theta[None, :, :] - means[:, k, None, :]  # (n, N, d)
        sol = delta @ prec
        comp_logpdf[k] = -0.5 * (np.einsum("nad,nad->na", delta, sol) + logdet + d * _LOG_2PI)
        comp_score[k] = -sol
    logits = comp_logpdf + log_w.T[:, :, None]  # (K, n, N)
    log_pdf = logsumexp(logits, axis=0)
    resp = np.exp(logits - log_pdf[None, :, :])
    scores = np.einsum("kna,knad->nad", resp, comp_score)
    return scores, log_pdf


def _evaluate(
    params: tuple[np.ndarray, np.ndarray, np.ndarray], theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Score and log density at theta (..., d) of the first of the stacked mixtures."""
    theta = np.asarray(theta, dtype=float)
    scores, log_pdf = _mixture_scores(*params, theta.reshape(-1, theta.shape[-1]))
    return scores[0].reshape(theta.shape), log_pdf[0].reshape(theta.shape[:-1])


def _diffused(task: Task, params, theta: np.ndarray, t: float, s: Schedule):
    """Diffuse stacked time-0 mixture parameters to time t, then evaluate at theta."""
    return _evaluate(_diffuse_stacked(*params, t, s), _check_theta(task, theta))


def prior_score(task: Task, theta: np.ndarray, t: float, s: Schedule) -> np.ndarray:
    """Exact score of the diffused prior at time t."""
    return _diffused(task, prior_dist(task)._params(), theta, t, s)[0]


def prior_log_density(task: Task, theta: np.ndarray, t: float, s: Schedule) -> np.ndarray:
    """Log density of the diffused prior (finite-difference oracle target)."""
    return _diffused(task, prior_dist(task)._params(), theta, t, s)[1]


def individual_posterior_score(
    task: Task, i: int, theta: np.ndarray, t: float, s: Schedule
) -> np.ndarray:
    """Exact score of the diffused single-observation posterior p_t(theta | x_i)."""
    return _diffused(task, _observation_params(task, i), theta, t, s)[0]


def posterior_log_density(
    task: Task, i: int, theta: np.ndarray, t: float, s: Schedule
) -> np.ndarray:
    """Log density of the diffused single-observation posterior at time t."""
    return _diffused(task, _observation_params(task, i), theta, t, s)[1]
