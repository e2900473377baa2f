"""Exact joint posteriors of the three task kinds, written from the model alone.

This module uses numpy and scipy only and imports nothing from the package
under test, so the benchmark's correctness checks do not share code with it.

Models (theta in R^d, observations x_1..x_n):

- gaussian: theta ~ N(0, I), x_i ~ N(theta, Sigma). The joint posterior is
  Gaussian with precision I + n Sigma^-1 and mean
  (I + n Sigma^-1)^-1 Sigma^-1 sum_i x_i.
- gmm_prior: theta ~ sum_k w_k N(mu_k, s_k^2 I), x_i ~ N(theta, Sigma). The
  joint posterior has one component per prior component.
- gmm_likelihood: theta ~ N(0, I), x_i ~ sum_j pi_j N(theta, c_j Sigma). The
  joint posterior has one component per assignment of a likelihood component
  to every observation, K^n in all; they are enumerated as one array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp


@dataclass(frozen=True)
class Mixture:
    """Gaussian mixture: weights (C,), means (C, d), covariances (C, d, d)."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def cov(self) -> np.ndarray:
        centred = self.means - self.mean()
        within = np.einsum("c,cij->ij", self.weights, self.covs)
        return within + np.einsum("c,ci,cj->ij", self.weights, centred, centred)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.weights.size, size=count, p=self.weights)
        z = rng.standard_normal((count, self.means.shape[1]))
        chols = np.linalg.cholesky(self.covs)  # (C, d, d)
        return self.means[comp] + np.einsum("nij,nj->ni", chols[comp], z)


def _normalised(log_w: np.ndarray) -> np.ndarray:
    w = np.exp(log_w - logsumexp(log_w))
    return w / w.sum()


def gaussian_posterior(cov: np.ndarray, obs: np.ndarray) -> Mixture:
    n, d = obs.shape
    cov_inv = np.linalg.inv(cov)
    post_cov = np.linalg.inv(np.eye(d) + n * cov_inv)
    post_cov = 0.5 * (post_cov + post_cov.T)
    mean = post_cov @ cov_inv @ obs.sum(axis=0)
    return Mixture(np.ones(1), mean[None, :], post_cov[None, :, :])


def gmm_prior_posterior(
    cov: np.ndarray,
    obs: np.ndarray,
    prior_means: np.ndarray,
    prior_scales: np.ndarray,
    prior_weights: np.ndarray,
) -> Mixture:
    n, d = obs.shape
    eye = np.eye(d)
    cov_inv = np.linalg.inv(cov)
    x_bar = obs.mean(axis=0)
    means, covs, log_w = [], [], []
    for mu, s, w in zip(prior_means, prior_scales, prior_weights):
        prec = eye / s**2 + n * cov_inv
        post_cov = np.linalg.inv(prec)
        covs.append(0.5 * (post_cov + post_cov.T))
        means.append(post_cov @ (mu / s**2 + cov_inv @ obs.sum(axis=0)))
        # evidence of component k up to factors shared by all components:
        # x_bar ~ N(mu_k, s_k^2 I + Sigma / n)
        marg = s**2 * eye + cov / n
        delta = x_bar - mu
        _, logdet = np.linalg.slogdet(marg)
        log_w.append(np.log(w) - 0.5 * (logdet + delta @ np.linalg.solve(marg, delta)))
    return Mixture(_normalised(np.array(log_w)), np.array(means), np.array(covs))


def gmm_likelihood_posterior(
    base_cov: np.ndarray,
    obs: np.ndarray,
    cov_scales: np.ndarray,
    weights: np.ndarray,
    component_cap: int = 4096,
) -> Mixture:
    """All K^n assignment components at once, in the eigenbasis of base_cov.

    With x_i ~ N(theta, c_a Sigma) every assignment a gives a posterior whose
    precision I + (sum_i 1/c_{a_i}) Sigma^-1 is diagonal in Sigma's eigenbasis.
    """
    n, d = obs.shape
    K = len(cov_scales)
    if K**n > component_cap:
        raise ValueError(f"{K**n} components exceed the cap {component_cap}")
    lam, U = np.linalg.eigh(base_cov)
    y = obs @ U  # observations in the eigenbasis, (n, d)
    assign = np.array(list(itertools.product(range(K), repeat=n)))  # (C, n)
    inv_c = 1.0 / np.asarray(cov_scales, dtype=float)[assign]  # (C, n)
    prec = 1.0 + inv_c.sum(axis=1)[:, None] / lam[None, :]  # (C, d)
    b = (inv_c @ y) / lam[None, :]  # (C, d)
    means = b / prec
    # log evidence of each assignment: Gaussian integral over theta
    c = np.asarray(cov_scales, dtype=float)[assign]
    quad = np.einsum("cn,nj->c", inv_c, (y * y) / lam[None, :])
    logdet_like = d * np.log(c).sum(axis=1) + n * np.log(lam).sum()
    log_z = (
        -0.5 * (n * d * np.log(2 * np.pi) + logdet_like + quad)
        - 0.5 * np.log(prec).sum(axis=1)
        + 0.5 * np.sum(b * means, axis=1)
    )
    log_w = np.log(np.asarray(weights, dtype=float))[assign].sum(axis=1) + log_z
    covs = np.einsum("ij,cj,kj->cik", U, 1.0 / prec, U)
    return Mixture(_normalised(log_w), means @ U.T, covs)
