"""Analytic inference problems with exact diffused scores and exact posterior sampling.

Every task is one conjugate model: a prior sum_k w_k N(mu_k, s_k^2 I) and a
likelihood sum_j pi_j N(x; theta, c_j Sigma), conditioned on n observations.
Three named families are built from it:

- ``gaussian``: standard normal prior, Gaussian likelihood N(x; theta, Sigma).
- ``gmm_prior``: Gaussian-mixture prior (isotropic components), Gaussian likelihood.
- ``gmm_likelihood``: standard normal prior, a mixture likelihood whose
  components share a base covariance up to scalar variance multipliers.

Every per-observation posterior is a finite Gaussian mixture, so diffused
scores, moments and ground-truth joint samples are all available in closed
form. The family name is a label: every computation reads the model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .sampler import SampleSet, _keyed_rng
from .schedule import Schedule, alpha as schedule_alpha

__all__ = [
    "KINDS",
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

# A score field maps (theta batch, time) to gradients of the same shape: a fresh array, or a
# view of buffers the field owns that stays valid until its next call.
ScoreField = Callable[[np.ndarray, float], np.ndarray]

_LOG_2PI = math.log(2.0 * math.pi)
_COMPONENT_CAP = 4096  # largest joint posterior the exact reference enumerates


def _as_spd(cov: np.ndarray, name: str) -> np.ndarray:
    """cov as floats, checked to be SPD: one matrix (d, d), or each of a stack (..., d, d)."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.isfinite(cov).all():  # first: a NaN also fails the symmetry test below
        raise ValueError(f"{name} has non-finite entries {np.argwhere(~np.isfinite(cov)).tolist()}")
    symmetric = np.isclose(cov, np.swapaxes(cov, -1, -2), rtol=1e-10, atol=1e-12).all((-2, -1))
    try:
        if symmetric.all():
            np.linalg.cholesky(cov)
            return cov
    except np.linalg.LinAlgError:
        pass
    for idx in np.ndindex(cov.shape[:-2]):  # a check failed: name the first failing matrix
        where = name + "".join(f"[{i}]" for i in idx)
        if not symmetric[idx]:
            raise ValueError(f"{where} is not symmetric")
        try:
            np.linalg.cholesky(cov[idx])
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"{where} is not positive definite") from exc
    return cov


def _symmetric_inverse(mats: np.ndarray) -> np.ndarray:
    """Inverse of one SPD matrix (d, d) or of a stack (..., d, d) already checked, symmetrized."""
    inv = np.linalg.inv(mats)
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _spd_inverse(mats: np.ndarray, label: str) -> np.ndarray:
    """Inverse of one SPD matrix (d, d) or of a stack (..., d, d), checked and symmetrized."""
    return _symmetric_inverse(_as_spd(mats, label))


def _diffuse(covs: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion to alpha a, N(mu, C) -> N(sqrt(a) mu, a C + (1 - a) I), as (sqrt(a), covs)."""
    return np.sqrt(a), a * covs + (1.0 - a) * np.eye(covs.shape[-1])


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
        if cov.shape != (mean.size, mean.size):
            raise ValueError("mean and cov dimensions disagree")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mean, self.cov

    def _params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This distribution as a stack of one one-component mixture, for _mixture_kernel."""
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
        w = _checked_weights(self.weights)
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covs, dtype=float)
        if means.ndim != 2 or covs.ndim != 3:
            raise ValueError("expected weights (K,), means (K, d), covs (K, d, d)")
        if not (w.size == means.shape[0] == covs.shape[0]):
            raise ValueError("component counts disagree")
        _as_spd(covs, "covs")
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
        chols = np.linalg.cholesky(self.covs)[choice]
        return self.means[choice] + (chols @ z[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class Task:
    """One inference problem: the conjugate model and the conditioning observations.

    Every component field defaults to one standard component (prior_means
    None is zeros((1, dim))); kind names the family and must fit the model.
    """

    kind: str
    dim: int
    observations: np.ndarray  # (n, dim)
    likelihood_cov: np.ndarray  # (dim, dim) base covariance Sigma
    prior_means: np.ndarray | None = None  # (K, dim)
    prior_scales: np.ndarray = (1.0,)  # (K,) component std devs
    prior_weights: np.ndarray = (1.0,)  # (K,)
    likelihood_cov_scales: np.ndarray = (1.0,)  # (J,) variance factors c_j
    likelihood_weights: np.ndarray = (1.0,)  # (J,)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2 or obs.shape[1] != self.dim:
            raise ValueError("observations must be an (n, dim) matrix")
        cov = _as_spd(self.likelihood_cov, "likelihood_cov")
        if cov.shape != (self.dim, self.dim):
            raise ValueError("likelihood_cov dimension disagrees with dim")
        means = np.zeros((1, self.dim)) if self.prior_means is None else self.prior_means
        means = np.asarray(means, dtype=float)
        scales = np.asarray(self.prior_scales, dtype=float)
        weights = _checked_weights(self.prior_weights)
        if means.ndim != 2 or means.shape[1] != self.dim:
            raise ValueError("prior_means must be (K, dim)")
        if scales.shape != (means.shape[0],) or np.any(scales <= 0):
            raise ValueError("prior_scales must be K positive values")
        if weights.size != means.shape[0]:
            raise ValueError("prior component counts disagree")
        cov_scales = np.asarray(self.likelihood_cov_scales, dtype=float)
        like_weights = _checked_weights(self.likelihood_weights)
        if cov_scales.ndim != 1 or np.any(cov_scales <= 0):
            raise ValueError("likelihood_cov_scales must be positive")
        if like_weights.size != cov_scales.size:
            raise ValueError("likelihood component counts disagree")
        K, J = weights.size, like_weights.size
        if (K > 1 and self.kind != "gmm_prior") or (J > 1 and self.kind != "gmm_likelihood"):
            raise ValueError(
                f"a {self.kind} task cannot have {K} prior and {J} likelihood components"
            )
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "likelihood_cov", cov)
        object.__setattr__(self, "prior_means", means)
        object.__setattr__(self, "prior_scales", scales)
        object.__setattr__(self, "prior_weights", weights)
        object.__setattr__(self, "likelihood_cov_scales", cov_scales)
        object.__setattr__(self, "likelihood_weights", like_weights)

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @property
    def one_component(self) -> bool:
        """One component on each side: every posterior and bridge is exactly Gaussian."""
        return self.prior_weights.size == 1 == self.likelihood_weights.size


def _checked_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or np.any(w < 0) or not math.isclose(float(w.sum()), 1.0, abs_tol=1e-9):
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    return w


def _matrix(cov) -> np.ndarray:
    """cov as a float matrix, so its dimension can be read; Task checks the rest."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2:
        raise ValueError("likelihood_cov must be a square matrix")
    return cov


def gaussian_task(likelihood_cov: np.ndarray, observations: np.ndarray) -> Task:
    """Standard normal prior with likelihood N(x; theta, likelihood_cov)."""
    cov = _matrix(likelihood_cov)
    return Task(kind="gaussian", dim=cov.shape[0], observations=observations, likelihood_cov=cov)


def gmm_prior_task(
    likelihood_cov: np.ndarray,
    observations: np.ndarray,
    prior_means: np.ndarray = ((0.0, 0.0), (1.0, 1.0)),
    prior_scales=(0.5, 0.5),
    prior_weights=(0.5, 0.5),
) -> Task:
    """Gaussian-mixture prior (isotropic components) with a Gaussian likelihood."""
    cov = _matrix(likelihood_cov)
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
    cov = _matrix(base_cov)
    return Task(
        kind="gmm_likelihood",
        dim=cov.shape[0],
        observations=observations,
        likelihood_cov=cov,
        likelihood_cov_scales=cov_scales,
        likelihood_weights=weights,
    )


def _distribution(weights, means, covs) -> GaussianDist | GaussianMixture:
    """A GaussianDist for one component (its draws make no component choice), else the mixture."""
    if weights.size == 1:
        return GaussianDist(means[0], covs[0])
    return GaussianMixture(weights, means, covs)


def prior_dist(task: Task) -> GaussianDist | GaussianMixture:
    """The prior as an explicit distribution object."""
    covs = (task.prior_scales**2)[:, None, None] * np.eye(task.dim)
    return _distribution(task.prior_weights, task.prior_means, covs)


def simulate_observations(task: Task, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw theta* from the prior, then count i.i.d. observations from the likelihood."""
    if count < 1:
        raise ValueError("need at least one observation")
    theta_star = prior_dist(task).sample(1, rng)[0]
    covs = task.likelihood_cov_scales[:, None, None] * task.likelihood_cov
    noise = _distribution(task.likelihood_weights, np.zeros(covs.shape[:2]), covs)
    return theta_star + noise.sample(count, rng)


# ---------------------------------------------------------------------------
# Per-observation posterior mixtures (time 0)


def _conjugate_update(task: Task, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posteriors of r problems, each conditioned on its m observations: x is (r, m, d).

    The task's model is a prior sum_k w_k N(mu_k, s_k^2 I) with a likelihood
    sum_j pi_j N(x; theta, c_j Sigma). Component (k, a) pairs
    prior component k with an assignment a of likelihood components to the m
    observations, k-major with the assignments in lexicographic order. Given
    a, prod_i N(x_i; theta, c_{a_i} Sigma) is proportional to
    exp(theta' Sigma^-1 y_a - S_a theta' Sigma^-1 theta / 2), where
    S_a = sum_i 1/c_{a_i} and y_a = sum_i x_i / c_{a_i}. So the component has
    precision A = S_a Sigma^-1 + I / s_k^2, mean A^-1 (Sigma^-1 y_a + mu_k / s_k^2)
    and log weight log w_k + sum_i log pi_{a_i} plus its log evidence.

    Returns normalized log weights (r, K J^m), means (r, K J^m, d) and
    covariances (K J^m, d, d); the covariances do not depend on x.
    """
    r, m, d = x.shape
    if r * m == 0:  # a task without observations reaches here from every posterior path
        raise ValueError("need at least one observation")
    log_w, mu, s2 = np.log(task.prior_weights), task.prior_means, task.prior_scales**2
    log_pi, c = np.log(task.likelihood_weights), task.likelihood_cov_scales
    # (J^m, m), lexicographic: the base-J digits of 0 .. J^m - 1 (J^m = 1 when J = 1)
    assign = np.arange(c.size**m)[:, None] // c.size ** np.arange(m - 1, -1, -1) % c.size
    inv_c = 1.0 / c[assign]
    sigma_inv = _spd_inverse(task.likelihood_cov, "likelihood_cov")
    prec = inv_c.sum(axis=1)[:, None, None] * sigma_inv + np.eye(d) / s2[:, None, None, None]
    prec = prec.reshape(-1, d, d)  # (K J^m, d, d), k-major
    covs = _spd_inverse(prec, "posterior precision")
    lin = (inv_c @ x @ sigma_inv)[:, None] + (mu / s2[:, None])[:, None, :]  # (r, K, J^m, d)
    lin = lin.reshape(r, -1, d)
    means = np.einsum("cij,rcj->rci", covs, lin)
    # log evidence, up to the terms every component of a row shares:
    # -d log s_k - |mu_k|^2 / (2 s_k^2) - sum_i (d log c_{a_i} + x_i' Sigma^-1 x_i / c_{a_i}) / 2
    # - log det A / 2 + lin' mean / 2
    quad = np.einsum("rmi,ij,rmj->rm", x, sigma_inv, x)
    per_a = (log_pi - 0.5 * d * np.log(c))[assign].sum(axis=1) - 0.5 * quad @ inv_c.T  # (r, J^m)
    per_k = log_w - 0.5 * (d * np.log(s2) + np.sum(mu * mu, axis=1) / s2)  # (K,)
    log_post = (per_k[:, None] + per_a[:, None, :]).reshape(r, -1)
    log_post += 0.5 * (np.sum(lin * means, axis=-1) - np.linalg.slogdet(prec)[1])
    return log_post - logsumexp(log_post, axis=1, keepdims=True), means, covs


def _observation_params(task: Task, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not 0 <= i < task.n:
        raise ValueError(f"observation index {i} out of range for n={task.n}")
    return _conjugate_update(task, task.observations[i : i + 1, None])


def posterior_mixture(task: Task, i: int) -> GaussianMixture:
    """Exact mixture decomposition of the single-observation posterior p(theta | x_i)."""
    log_w, means, covs = _observation_params(task, i)
    return GaussianMixture(np.exp(log_w[0]), means[0], covs)


def posterior_moments(
    task: Task, i: int | None = None
) -> tuple[np.ndarray, np.ndarray, GaussianMixture]:
    """Exact moments (and mixture decomposition) of p(theta | x_i), or of the joint (i=None).

    The joint is the finite mixture joint_posterior_mixture, so it refuses
    above _COMPONENT_CAP components.
    """
    mixture = joint_posterior_mixture(task) if i is None else posterior_mixture(task, i)
    mean, cov = mixture.moments()
    return mean, cov, mixture


def gaussian_proxies(task: Task) -> tuple[GaussianDist, np.ndarray, np.ndarray]:
    """Moment-matched Gaussians of the prior and of every single-observation posterior.

    Returns the prior proxy and the posterior proxies' means (n, d) and
    covariances (n, d, d). On a one-component task they are the exact densities.
    """
    return _proxies(task, _conjugate_update(task, task.observations[:, None]))


def _proxies(task: Task, update) -> tuple[GaussianDist, np.ndarray, np.ndarray]:
    """gaussian_proxies from the posteriors' _conjugate_update output (the caller's)."""
    prior = GaussianDist(*prior_dist(task).moments())
    log_w, means, covs = update
    return (prior, *_moments(np.exp(log_w), means, covs))


def _check_component_cap(task: Task) -> None:
    """Refuse a joint posterior of more than _COMPONENT_CAP components (K J^n)."""
    total = task.prior_weights.size * task.likelihood_weights.size**task.n
    if total > _COMPONENT_CAP:
        raise ValueError(
            f"joint posterior needs {total} components, above the cap {_COMPONENT_CAP}"
        )


def joint_posterior_mixture(task: Task) -> GaussianMixture:
    """Exact finite-mixture form of p(theta | x_{1:n}): the conjugate update of all n observations.

    One component per prior component and assignment of a likelihood
    component to each observation (K J^n), in _conjugate_update's order;
    refuses above _COMPONENT_CAP.
    """
    _check_component_cap(task)
    log_w, means, covs = _conjugate_update(task, task.observations[None])
    return GaussianMixture(np.exp(log_w[0]), means[0], covs)


def exact_posterior_sample(task: Task, count: int, seed: int) -> SampleSet:
    """I.i.d. ground-truth draws from p(theta | x_{1:n}), reproducible per seed."""
    if count < 1:
        raise ValueError("need at least one sample")
    mixture = joint_posterior_mixture(task)
    points = mixture.sample(count, _keyed_rng(seed))
    return SampleSet(points=points, level=0.0, seed=seed, steps_used=0)


# ---------------------------------------------------------------------------
# Diffused scores and log densities


class _Kernel:
    """One level's mixture kernel (see _mixture_kernel), with the buffers _kernel_score fills.

    The buffers are allocated on the first evaluation and again only when the batch size
    changes; each evaluation's outputs are views of them, valid until the next evaluation.
    """

    def __init__(self, rows: np.ndarray, groups: list[tuple[int, int]], folded: np.ndarray):
        self.rows, self.groups, self.folded = rows, groups, folded
        self._buffers: tuple | None = None

    def buffers(self, d: int, N: int) -> tuple:
        """The features (1, theta, vec(theta theta')), logits, folded product, a (d, N) term
        and each group's shift and normalizer (the ones a one-component group keeps)."""
        if self._buffers is None or self._buffers[0].shape[1] != N:
            feats = np.empty((1 + d + d * d, N))
            feats[0] = 1.0
            norms = [(np.empty((n, N)), np.ones((n, N))) for _, n in self.groups]
            out = np.empty((len(self.folded), N))
            self._buffers = (feats, np.empty((len(self.rows), N)), out, np.empty((d, N)), norms)
        return self._buffers


def _mixture_kernel(stacks, alphas) -> list[_Kernel]:
    """Set up, once, stacks of mixtures diffused to each alpha, each mixture's score weighted.

    stacks holds ((log_w (n, K), means (n, K, d), covs (K, d, d)), W (L, n, d, d)) pairs: n
    time-0 mixtures sharing component covariances, and per alpha (L of them) the matrix W_i
    that multiplies the (row-vector) score of mixture i, each mixture diffused to a by
    _diffuse. Per stack, one batched Cholesky (the SPD check and the
    log-determinants) and one batched inverse over every alpha give the precisions P_k.
    Component j, mixture i's component k, gets the logit row [c_ik, b_ik, -vec(P_k)/2], with
    b_ik = P_k mu_ik and c_ik = log w_ik - mu_ik' P_k mu_ik / 2 - log det C_k / 2 - (d/2) log 2 pi,
    and the folded column [b_ik W_i, vec(P_k W_i)]. Returns one _Kernel per alpha: the logit
    rows (J, 1 + d + d^2), each stack's (K, n) group (its rows k-major) and the folded
    (d + d^2, J) matrix. Each equals a one-alpha call's to the bit.
    """
    alphas = np.asarray(alphas, dtype=float)
    L = alphas.size
    a = alphas.reshape(L, 1, 1, 1)
    rows, groups, folded = [], [], []
    for (log_w, means, covs), weights in stacks:
        n, K, d = means.shape
        root, covs = _diffuse(covs, a)  # (L, K, d, d)
        means = root * means  # (L, n, K, d)
        logdet = 2.0 * np.log(np.diagonal(np.linalg.cholesky(covs), axis1=-2, axis2=-1)).sum(-1)
        precs = _symmetric_inverse(covs)
        lin = np.einsum("lkij,lnkj->lkni", precs, means)
        quad = np.einsum("lkni,lnki->lkn", lin, means)
        const = log_w.T - 0.5 * (quad + (logdet + d * _LOG_2PI)[:, :, None])
        half_precs = np.broadcast_to(-0.5 * precs.reshape(L, K, 1, d * d), (L, K, n, d * d))
        row = np.concatenate([const[..., None], lin, half_precs], axis=3)
        rows.append(row.reshape(L, K * n, -1))
        groups.append((K, n))
        c = np.einsum("lkni,lnij->lknj", lin, weights).reshape(L, -1, d)
        m = np.einsum("lkab,lnbc->lknac", precs, weights).reshape(L, -1, d * d)
        folded.append(np.concatenate([c, m], axis=2))
    rows, folded = np.concatenate(rows, axis=1), np.concatenate(folded, axis=1)
    folded = np.ascontiguousarray(folded.transpose(0, 2, 1))
    return [_Kernel(r, groups, f) for r, f in zip(rows, folded)]


def _kernel_score(
    kernel: _Kernel, theta_t: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The score sum_j r_j(theta) (c_j - theta M_j) (d, N) of a _Kernel at theta_t (d, N).

    A row [c, b, -vec(P)/2] has the logit c + b theta - theta' P theta / 2, so every logit
    comes from one product with the features (1, theta, vec(theta theta')). The softmax
    runs over the K components of each of a group's n mixtures, after shifting the logits
    by their maximum, so a point far from every component still gets finite values; a group
    of one-component mixtures (K = 1) takes responsibility 1 directly, its shift the logit
    and its normalizer 1. The responsibilities R (J, N) give C' R and M' R in one product
    with the folded matrix, and theta is contracted with M' R. Also returns, per group, the
    shift and the normalizer (n, N), whose shift + log(normalizer) is each mixture's log
    density. Every output is a view of the kernel's buffers, valid until its next evaluation.
    """
    d, N = theta_t.shape
    feats, resp, out, term, norms = kernel.buffers(d, N)
    feats[1 : d + 1] = theta_t
    theta_t = feats[1 : d + 1]
    np.multiply(theta_t[:, None], theta_t[None], out=feats[d + 1 :].reshape(d, d, N))
    np.matmul(kernel.rows, feats, out=resp)
    start = 0
    for (K, n), (top, total) in zip(kernel.groups, norms):
        logits = resp[start : start + K * n].reshape(K, n, N)
        start += K * n
        if K == 1:  # total stays the ones it was allocated as
            top[...] = logits[0]
            logits.fill(1.0)
            continue
        functools.reduce(functools.partial(np.maximum, out=top), logits)  # max over k
        logits -= top
        np.exp(logits, out=logits)
        functools.reduce(functools.partial(np.add, out=total), logits)  # sum over k, in order
        logits /= total
    np.matmul(kernel.folded, resp, out=out)
    score = out[:d]
    score -= np.einsum("abn,an->bn", out[d:].reshape(d, d, N), theta_t, out=term)
    return score, norms


def _evaluate(
    params: tuple[np.ndarray, np.ndarray, np.ndarray], theta: np.ndarray, a: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Score and log density at theta (..., d) of a stack of one mixture, diffused to alpha a."""
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[-1]
    [kernel] = _mixture_kernel([(params, np.eye(d)[None, None])], [a])
    score, [(top, total)] = _kernel_score(kernel, theta.reshape(-1, d).T)
    return score.T.reshape(theta.shape), (top + np.log(total)).reshape(theta.shape[:-1])


def _diffused(task: Task, params, theta: np.ndarray, t: float, s: Schedule):
    """Diffuse time-0 mixture parameters (a stack of one) to time t, then evaluate at theta."""
    if np.shape(theta)[-1] != task.dim:
        raise ValueError("theta dimension disagrees with the task")
    return _evaluate(params, theta, schedule_alpha(s, t))


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
