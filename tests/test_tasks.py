from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from annealed_langevin import (
    KINDS,
    GaussianDist,
    GaussianMixture,
    Task,
    exact_posterior_sample,
    gaussian_task,
    gmm_likelihood_task,
    gmm_prior_task,
    individual_posterior_score,
    joint_posterior_mixture,
    posterior_log_density,
    posterior_mixture,
    posterior_moments,
    prior_dist,
    prior_log_density,
    prior_score,
    simulate_observations,
)
from conftest import fd_grad, t_for_v


def test_gaussian_single_posterior_oracle():
    # prior N(0, I), likelihood N(x; theta, I), x = (2, 0): posterior N((1, 0), I/2)
    task = gaussian_task(np.eye(2), np.array([[2.0, 0.0]]))
    mean, cov, mixture = posterior_moments(task, 0)
    assert mean == pytest.approx([1.0, 0.0], abs=1e-14)
    assert cov == pytest.approx(0.5 * np.eye(2), abs=1e-14)
    assert mixture.component_count == 1


def test_gaussian_joint_posterior_oracle():
    # 1-D, unit likelihood variance, x = {1, 3}: precision 3, mean 4/3
    task = gaussian_task(np.array([[1.0]]), np.array([[1.0], [3.0]]))
    mean, cov, _ = posterior_moments(task, None)
    assert mean == pytest.approx([4.0 / 3.0], abs=1e-14)
    assert cov == pytest.approx(np.array([[1.0 / 3.0]]), abs=1e-14)


def test_gmm_prior_posterior_oracle():
    # 1-D symmetric setup: x halfway between the prior component means
    task = gmm_prior_task(
        np.array([[0.25]]),
        np.array([[0.5]]),
        prior_means=((0.0,), (1.0,)),
        prior_scales=(0.5, 0.5),
        prior_weights=(0.5, 0.5),
    )
    mixture = posterior_mixture(task, 0)
    assert mixture.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    assert mixture.means.ravel() == pytest.approx([0.25, 0.75], abs=1e-14)
    assert mixture.covs.ravel() == pytest.approx([0.125, 0.125], abs=1e-14)


def test_mixture_moments_match_sampling():
    rng = np.random.default_rng(3)
    mix = GaussianMixture(
        np.array([0.3, 0.7]),
        np.array([[0.0, 0.0], [2.0, -1.0]]),
        np.array([np.eye(2) * 0.5, np.eye(2) * 2.0]),
    )
    mean, cov = mix.moments()
    draws = mix.sample(200_000, rng)
    assert draws.mean(axis=0) == pytest.approx(mean, abs=0.02)
    assert np.cov(draws.T) == pytest.approx(cov, abs=0.05)


def test_joint_component_counts():
    obs2 = np.zeros((2, 2))
    assert joint_posterior_mixture(gaussian_task(np.eye(2), obs2)).component_count == 1
    assert joint_posterior_mixture(gmm_prior_task(np.eye(2), obs2)).component_count == 2
    obs = np.zeros((3, 10))
    assert joint_posterior_mixture(gmm_likelihood_task(obs)).component_count == 8


def test_joint_component_cap():
    obs = np.zeros((13, 10))  # 2^13 = 8192 assignments
    with pytest.raises(ValueError, match="cap"):
        joint_posterior_mixture(gmm_likelihood_task(obs))


def test_gmm_likelihood_joint_matches_grid_quadrature():
    # 1-D case small enough to integrate the unnormalized posterior directly
    obs = np.array([[0.4], [-1.1]])
    task = gmm_likelihood_task(obs, base_cov=np.array([[1.0]]), dim=1)
    joint = joint_posterior_mixture(task)
    grid = np.linspace(-6, 6, 4001)[:, None]
    prior = GaussianDist(np.zeros(1), np.eye(1))
    log_unnorm = prior.log_pdf(grid).astype(float)
    for i in range(task.n):
        comps = [
            GaussianDist(obs[i], s * task.likelihood_cov)
            for s in task.likelihood_cov_scales
        ]
        pdf = sum(w * np.exp(c.log_pdf(grid)) for w, c in zip(task.likelihood_weights, comps))
        log_unnorm += np.log(pdf)
    pdf_grid = np.exp(log_unnorm)
    pdf_grid /= np.trapezoid(pdf_grid, grid.ravel())
    assert np.exp(joint.log_pdf(grid)) == pytest.approx(pdf_grid, abs=1e-6)


def test_simulate_observations_reproducible():
    task = gaussian_task(np.eye(3) * 0.1, np.zeros((0, 3)))
    a = simulate_observations(task, 5, np.random.default_rng(11))
    b = simulate_observations(task, 5, np.random.default_rng(11))
    c = simulate_observations(task, 5, np.random.default_rng(12))
    assert a.shape == (5, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_exact_posterior_sample_moments_and_determinism():
    task = gaussian_task(np.eye(2) * 0.5, np.array([[1.0, 2.0], [3.0, 0.0], [2.0, 1.0]]))
    mean, cov, _ = posterior_moments(task, None)
    out = exact_posterior_sample(task, 40_000, seed=5)
    assert out.level == 0.0
    assert np.array_equal(out.points, exact_posterior_sample(task, 40_000, seed=5).points)
    assert out.points.mean(axis=0) == pytest.approx(mean, abs=0.01)
    assert np.cov(out.points.T) == pytest.approx(cov, abs=0.01)


def test_standard_normal_prior_score_is_time_invariant(sched):
    # alpha * I + (1 - alpha) * I = I, so the diffused prior stays N(0, I)
    task = gaussian_task(np.eye(2), np.zeros((1, 2)))
    theta = np.random.default_rng(0).standard_normal((7, 2))
    for t in (1e-5, 0.3, 1.0):
        assert prior_score(task, theta, t, sched) == pytest.approx(-theta, abs=1e-12)


def test_prior_score_matches_log_density_gradient(sched):
    task = gmm_prior_task(np.eye(2) * 0.2, np.zeros((1, 2)))
    rng = np.random.default_rng(8)
    for _ in range(10):
        theta = rng.standard_normal(2) * 1.5
        t = float(rng.uniform(0.05, 1.0))
        grad = fd_grad(lambda p: prior_log_density(task, p, t, sched), theta)
        score = prior_score(task, theta, t, sched)
        assert score == pytest.approx(grad, rel=1e-5, abs=1e-8)


def test_individual_score_matches_log_density_gradient(sched):
    rng = np.random.default_rng(21)
    tasks = [
        gaussian_task(np.eye(2) * 0.3, rng.standard_normal((3, 2))),
        gmm_prior_task(np.eye(2) * 0.3, rng.standard_normal((3, 2))),
        gmm_likelihood_task(rng.standard_normal((3, 2)), base_cov=np.eye(2), dim=2),
    ]
    for task in tasks:
        for _ in range(8):
            i = int(rng.integers(task.n))
            theta = rng.standard_normal(2) * 1.5
            t = float(rng.uniform(0.05, 1.0))
            grad = fd_grad(lambda p: posterior_log_density(task, i, p, t, sched), theta)
            score = individual_posterior_score(task, i, theta, t, sched)
            assert score == pytest.approx(grad, rel=1e-5, abs=1e-8)


def test_gaussian_individual_score_closed_form(sched):
    # independently recompute -(alpha C + v I)^{-1} (theta - sqrt(alpha) mu)
    task = gaussian_task(np.eye(2) * 0.4, np.array([[1.0, -2.0], [0.3, 0.8]]))
    t = t_for_v(sched, 0.3)
    a = 1.0 - 0.3
    for i in range(task.n):
        mu, cov, _ = posterior_moments(task, i)
        diffused_cov = a * cov + 0.3 * np.eye(2)
        theta = np.array([0.7, -0.1])
        expected = -np.linalg.inv(diffused_cov) @ (theta - np.sqrt(a) * mu)
        got = individual_posterior_score(task, i, theta, t, sched)
        assert got == pytest.approx(expected, rel=1e-10)


def test_prior_dist_kinds():
    gauss = gaussian_task(np.eye(2), np.zeros((1, 2)))
    assert isinstance(prior_dist(gauss), GaussianDist)
    mix = gmm_prior_task(np.eye(2), np.zeros((1, 2)))
    prior = prior_dist(mix)
    assert isinstance(prior, GaussianMixture)
    assert prior.component_count == 2


def test_task_validation():
    with pytest.raises(ValueError, match="kind"):
        Task(kind="other", dim=2, observations=np.zeros((1, 2)), likelihood_cov=np.eye(2))
    with pytest.raises(ValueError):
        gaussian_task(np.eye(2), np.zeros((1, 3)))  # observation dim mismatch
    with pytest.raises(ValueError):
        gaussian_task(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((1, 2)))  # not SPD
    with pytest.raises(ValueError, match="weights"):
        gmm_prior_task(np.eye(2), np.zeros((1, 2)), prior_weights=(0.7, 0.7))
    with pytest.raises(ValueError, match="out of range"):
        posterior_mixture(gaussian_task(np.eye(2), np.zeros((1, 2))), 1)


def test_observation_count_property():
    task = gaussian_task(np.eye(2), np.zeros((4, 2)))
    assert task.n == 4
    template = gaussian_task(np.eye(2), np.zeros((0, 2)))
    assert template.n == 0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    d=st.integers(1, 6),
    n=st.integers(1, 8),
    log10_cond=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_posterior_mixture_matches_precision_form_bayes(kind, d, n, log10_cond, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = 10.0 ** (rng.uniform(-1.5, 0.0) + log10_cond * np.linspace(0.0, 1.0, d))
    sigma = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
    obs = 2.0 * rng.standard_normal((n, d))
    w = rng.uniform(0.1, 0.9)
    eye = np.eye(d)
    # (weight, prior mean, prior cov, likelihood cov) of each component
    if kind == "gaussian":
        task = gaussian_task(sigma, obs)
        comps = [(1.0, np.zeros(d), eye, sigma)]
    elif kind == "gmm_prior":
        means, scales = rng.standard_normal((2, d)), rng.uniform(0.3, 2.0, 2)
        task = gmm_prior_task(sigma, obs, means, scales, (w, 1.0 - w))
        comps = [(wk, means[k], scales[k] ** 2 * eye, sigma) for k, wk in enumerate((w, 1.0 - w))]
    else:
        scales = rng.uniform(0.2, 3.0, 2)
        task = gmm_likelihood_task(obs, base_cov=sigma, cov_scales=scales, weights=(w, 1.0 - w))
        comps = [(wk, np.zeros(d), eye, scales[k] * sigma) for k, wk in enumerate((w, 1.0 - w))]
    for i in range(n):
        x = obs[i]
        log_w, means, covs = [], [], []
        for wk, mu, prior_cov, like_cov in comps:
            prior_prec, like_prec = np.linalg.inv(prior_cov), np.linalg.inv(like_cov)
            cov = np.linalg.inv(prior_prec + like_prec)
            covs.append(cov)
            means.append(cov @ (prior_prec @ mu + like_prec @ x))
            log_w.append(np.log(wk) + multivariate_normal(mu, prior_cov + like_cov).logpdf(x))
        weights = np.exp(np.array(log_w) - logsumexp(log_w))
        got = posterior_mixture(task, i)
        np.testing.assert_allclose(got.weights, weights, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(got.means, np.array(means), rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(got.covs, np.array(covs), rtol=1e-10, atol=1e-10)
        if kind == "gmm_likelihood":
            single = joint_posterior_mixture(dataclasses.replace(task, observations=obs[i : i + 1]))
            np.testing.assert_allclose(single.weights, got.weights, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(single.means, got.means, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(single.covs, got.covs, rtol=1e-10, atol=1e-10)
