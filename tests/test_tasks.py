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
    METHODS,
    GaussianDist,
    GaussianMixture,
    Schedule,
    Task,
    TuningConfig,
    alpha,
    annealed_sample,
    bridging_moments,
    composite_field,
    exact_posterior_sample,
    gaussian_task,
    gmm_likelihood_task,
    gmm_prior_task,
    individual_posterior_score,
    joint_posterior_mixture,
    plan,
    posterior_log_density,
    posterior_mixture,
    posterior_moments,
    prior_dist,
    prior_log_density,
    prior_score,
    simulate_observations,
)
from annealed_langevin import tasks, theory
from conftest import fd_grad, rand_spd, t_for_v


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


@pytest.mark.parametrize("kind", ["gmm_prior", "gmm_likelihood"])
def test_joint_moments_of_mixture_tasks(kind):
    rng = np.random.default_rng([KINDS.index(kind), 4])
    cov, obs = rand_spd(rng, 2, 0.1, 0.5), rng.standard_normal((4, 2))
    task = gmm_prior_task(cov, obs) if kind == "gmm_prior" else gmm_likelihood_task(obs, cov)
    mean, cov_post, mixture = posterior_moments(task, None)
    joint = joint_posterior_mixture(task)
    assert mixture.component_count == joint.component_count > 1
    for got, expected in zip((mean, cov_post), joint.moments()):
        np.testing.assert_array_equal(got, expected)
    # the draws' mean and covariance, within 5 Monte Carlo standard errors
    draws = exact_posterior_sample(task, 200_000, seed=7).points
    count = len(draws)
    centered = draws - mean
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * draws.std(axis=0) / np.sqrt(count))
    products = centered[:, :, None] * centered[:, None, :]
    error = np.abs(products.mean(axis=0) - cov_post)
    assert np.all(error < 5 * products.std(axis=0) / np.sqrt(count))


def test_one_component_mixture_tasks_are_the_gaussian_task(sched):
    # a mixture task with one component on each side is the gaussian model: it
    # gets the same exact plan, field, samples, reference draws and moments
    rng = np.random.default_rng(21)
    d = 3
    cov, obs = rand_spd(rng, d, 0.05, 0.2), rng.standard_normal((6, d))
    gaussian = gaussian_task(cov, obs)
    others = [
        gmm_prior_task(
            cov, obs, prior_means=np.zeros((1, d)), prior_scales=(1.0,), prior_weights=(1.0,)
        ),
        gmm_likelihood_task(obs, base_cov=cov, cov_scales=(1.0,), weights=(1.0,)),
    ]
    cfg = TuningConfig(gamma=0.5, omega=0.5, T=5)
    for method in METHODS:
        expected = plan(gaussian, method, cfg, sched)
        points = annealed_sample(expected, composite_field(gaussian, method, sched), 64, 3).points
        for task in others:
            lp = plan(task, method, cfg, sched)
            assert not lp.proxy
            np.testing.assert_array_equal(lp.h, expected.h)
            np.testing.assert_array_equal(lp.k, expected.k)
            got = annealed_sample(lp, composite_field(task, method, sched), 64, 3).points
            np.testing.assert_array_equal(got, points)
            bridge, exact = (bridging_moments(t, method, 0.5, sched) for t in (task, gaussian))
            np.testing.assert_array_equal(bridge.mean, exact.mean)
            np.testing.assert_array_equal(bridge.cov, exact.cov)
    with pytest.raises(NotImplementedError, match="one-component"):
        bridging_moments(gmm_prior_task(cov[:2, :2], obs[:, :2]), "linhart", 0.5, sched)
    reference = exact_posterior_sample(gaussian, 100, seed=4).points
    mean, cov_post, _ = posterior_moments(gaussian, None)
    for task in others:
        np.testing.assert_array_equal(exact_posterior_sample(task, 100, seed=4).points, reference)
        got_mean, got_cov, _ = posterior_moments(task, None)
        np.testing.assert_array_equal(got_mean, mean)
        np.testing.assert_array_equal(got_cov, cov_post)


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
    pdf_grid /= np.sum(0.5 * (pdf_grid[1:] + pdf_grid[:-1]) * np.diff(grid.ravel()))  # trapezoid
    assert np.exp(joint.log_pdf(grid)) == pytest.approx(pdf_grid, abs=1e-6)


def _assert_joint_matches_model(task: Task, theta: np.ndarray) -> None:
    # log joint(theta) - [log prior(theta) + sum_i log lik(x_i | theta)] is the
    # log evidence, the same at every theta; the model terms come from scipy.stats
    d, count = task.dim, len(theta)
    log_model = logsumexp(
        [
            np.log(w) + multivariate_normal(mu, s * s * np.eye(d)).logpdf(theta).reshape(count)
            for w, mu, s in zip(task.prior_weights, task.prior_means, task.prior_scales)
        ],
        axis=0,
    )
    weights, scales = task.likelihood_weights, task.likelihood_cov_scales
    for x in task.observations:
        per_component = [
            np.log(w) + multivariate_normal(x, c * task.likelihood_cov).logpdf(theta).reshape(count)
            for w, c in zip(weights, scales)
        ]
        log_model = log_model + logsumexp(per_component, axis=0)
    gap = joint_posterior_mixture(task).log_pdf(theta) - log_model
    assert np.ptp(gap) < 1e-9


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("K", [2, 3])
def test_gmm_likelihood_joint_matches_model_density(K, d, n):
    rng = np.random.default_rng([K, d, n])
    a = rng.standard_normal((d, d))
    base = a @ a.T / d + 0.2 * np.eye(d)
    scales = rng.uniform(0.2, 3.0, size=K)
    weights = rng.dirichlet(np.ones(K))
    obs = 1.5 * rng.standard_normal((n, d))
    task = gmm_likelihood_task(obs, base_cov=base, cov_scales=scales, weights=weights)
    _assert_joint_matches_model(task, rng.standard_normal((50, d)))


@pytest.mark.parametrize("n", [1, 3, 6, 100])
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("kind", ["gaussian", "gmm_prior"])
def test_joint_matches_model_density(kind, d, n):
    # the kinds with one likelihood component, conditioned on all n observations
    rng = np.random.default_rng([KINDS.index(kind), d, n])
    a = rng.standard_normal((d, d))
    cov = a @ a.T / d + 0.2 * np.eye(d)
    obs = 1.5 * rng.standard_normal((n, d))
    if kind == "gaussian":
        task = gaussian_task(cov, obs)
    else:
        task = gmm_prior_task(
            cov,
            obs,
            prior_means=1.5 * rng.standard_normal((3, d)),
            prior_scales=rng.uniform(0.3, 1.5, size=3),
            prior_weights=rng.dirichlet(np.ones(3)),
        )
    _assert_joint_matches_model(task, rng.standard_normal((50, d)))


@pytest.mark.parametrize("weights", [[1.0], [0.3, 0.0, 0.7], [0.2, 0.5, 0.3]])
def test_mixture_sample_matches_component_loop(weights):
    rng = np.random.default_rng(len(weights))
    K, d, count = len(weights), 3, 500
    a = rng.standard_normal((K, d, d))
    covs = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(d)
    means = 3.0 * rng.standard_normal((K, d))
    draws = GaussianMixture(np.array(weights), means, covs).sample(count, _philox(11))
    gen = _philox(11)  # the sampler's draws in order: components, then the normals
    choice = gen.choice(K, size=count, p=weights)
    z = gen.standard_normal((count, d))
    expected = np.full((count, d), np.nan)
    for k in range(K):
        mask = choice == k
        expected[mask] = means[k] + z[mask] @ np.linalg.cholesky(covs[k]).T
    assert set(choice) == {k for k, w in enumerate(weights) if w > 0}
    # equal up to rounding: 1e-15 relative to the largest draw
    np.testing.assert_allclose(draws, expected, rtol=0, atol=1e-15 * np.abs(expected).max())


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


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
    prior = prior_dist(task)  # the time-0 prior, a GaussianMixture here
    assert isinstance(prior, GaussianMixture)
    rng = np.random.default_rng(8)
    for _ in range(10):
        theta = rng.standard_normal(2) * 1.5
        t = float(rng.uniform(0.05, 1.0))
        grad = fd_grad(lambda p: prior_log_density(task, p, t, sched), theta)
        score = prior_score(task, theta, t, sched)
        assert score == pytest.approx(grad, rel=1e-5, abs=1e-8)
        assert prior.score(theta) == pytest.approx(fd_grad(prior.log_pdf, theta), rel=1e-5,
                                                   abs=1e-8)


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
    # the distribution follows the component count, not the family name
    one = gmm_prior_task(np.eye(2), np.zeros((1, 2)), ((0.5, 0.5),), (2.0,), (1.0,))
    prior = prior_dist(one)
    assert isinstance(prior, GaussianDist)
    assert prior.mean == pytest.approx([0.5, 0.5]) and prior.cov == pytest.approx(4.0 * np.eye(2))


def test_task_holds_the_full_model():
    # each side defaults to one standard component, whatever the family
    task = Task(kind="gaussian", dim=3, observations=np.zeros((2, 3)), likelihood_cov=np.eye(3))
    np.testing.assert_array_equal(task.prior_means, np.zeros((1, 3)))
    for name in ("prior_scales", "prior_weights", "likelihood_cov_scales", "likelihood_weights"):
        np.testing.assert_array_equal(getattr(task, name), [1.0])
    assert task.one_component
    likelihood = gmm_likelihood_task(np.zeros((2, 3)), dim=3)
    np.testing.assert_array_equal(likelihood.prior_means, np.zeros((1, 3)))
    assert not likelihood.one_component
    prior = gmm_prior_task(np.eye(2), np.zeros((1, 2)))
    np.testing.assert_array_equal(prior.likelihood_cov_scales, [1.0])
    assert not prior.one_component


_TWO_PRIOR = {"prior_means": np.zeros((2, 2)), "prior_scales": (1, 1), "prior_weights": (0.5, 0.5)}
_TWO_LIKELIHOOD = {"likelihood_cov_scales": (1, 2), "likelihood_weights": (0.5, 0.5)}


@pytest.mark.parametrize(
    "kind, fields",
    [
        ("gaussian", _TWO_PRIOR),
        ("gaussian", _TWO_LIKELIHOOD),
        ("gmm_prior", _TWO_LIKELIHOOD),
        ("gmm_likelihood", _TWO_PRIOR),
    ],
)
def test_task_kind_must_fit_its_model(kind, fields):
    with pytest.raises(ValueError, match=f"a {kind} task cannot have"):
        Task(kind=kind, dim=2, observations=np.zeros((1, 2)), likelihood_cov=np.eye(2), **fields)


def test_task_validation():
    with pytest.raises(ValueError, match="kind"):
        Task(kind="other", dim=2, observations=np.zeros((1, 2)), likelihood_cov=np.eye(2))
    with pytest.raises(ValueError, match="prior_scales"):
        gmm_prior_task(np.eye(2), np.zeros((1, 2)), prior_scales=(0.5, -0.5))
    with pytest.raises(ValueError, match="likelihood component counts"):
        gmm_likelihood_task(np.zeros((1, 2)), dim=2, cov_scales=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="weights"):
        GaussianMixture(np.array([0.7, 0.7]), np.zeros((2, 2)), np.array([np.eye(2)] * 2))
    with pytest.raises(ValueError):
        gaussian_task(np.eye(2), np.zeros((1, 3)))  # observation dim mismatch
    with pytest.raises(ValueError):
        gaussian_task(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((1, 2)))  # not SPD
    with pytest.raises(ValueError, match="weights"):
        gmm_prior_task(np.eye(2), np.zeros((1, 2)), prior_weights=(0.7, 0.7))
    with pytest.raises(ValueError, match="out of range"):
        posterior_mixture(gaussian_task(np.eye(2), np.zeros((1, 2))), 1)
    with pytest.raises(ValueError, match="likelihood_cov dimension disagrees with dim"):
        Task(kind="gaussian", dim=3, observations=np.zeros((1, 3)), likelihood_cov=np.eye(2))
    with pytest.raises(ValueError, match=r"prior_means must be \(K, dim\)"):
        gmm_prior_task(np.eye(2), np.zeros((1, 2)), prior_means=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="prior component counts disagree"):
        gmm_prior_task(np.eye(2), np.zeros((1, 2)), prior_weights=(0.2, 0.3, 0.5))
    with pytest.raises(ValueError, match="likelihood_cov_scales must be positive"):
        gmm_likelihood_task(np.zeros((1, 2)), dim=2, cov_scales=(1.0, -1.0))
    with pytest.raises(ValueError, match="mean must be a vector"):
        GaussianDist(np.zeros((1, 2)), np.eye(2))
    with pytest.raises(ValueError, match="mean and cov dimensions disagree"):
        GaussianDist(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError, match="cov must be a square matrix"):
        GaussianDist(np.zeros(2), np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"expected weights \(K,\), means \(K, d\)"):
        GaussianMixture(np.array([1.0]), np.zeros(2), np.eye(2)[None])
    with pytest.raises(ValueError, match="component counts disagree"):
        GaussianMixture(np.array([0.5, 0.5]), np.zeros((3, 2)), np.array([np.eye(2)] * 3))
    task = gaussian_task(np.eye(2), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="need at least one observation"):
        simulate_observations(task, 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="need at least one sample"):
        exact_posterior_sample(task, 0, 0)
    with pytest.raises(ValueError, match="theta dimension disagrees with the task"):
        prior_score(task, np.zeros((1, 3)), 0.5, Schedule())


def test_observation_count_property():
    task = gaussian_task(np.eye(2), np.zeros((4, 2)))
    assert task.n == 4
    template = gaussian_task(np.eye(2), np.zeros((0, 2)))
    assert template.n == 0


def _random_task(kind: str, d: int, n: int, log10_cond: float, rng: np.random.Generator):
    """A random task whose SPD likelihood matrix has condition number 10**log10_cond, and the
    (weight, prior mean, prior cov, likelihood cov) of each of its components."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = 10.0 ** (rng.uniform(-1.5, 0.0) + log10_cond * np.linspace(0.0, 1.0, d))
    sigma = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
    obs = 2.0 * rng.standard_normal((n, d))
    w = rng.uniform(0.1, 0.9)
    eye = np.eye(d)
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
    return task, comps


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    d=st.integers(1, 6),
    n=st.integers(1, 8),
    log10_cond=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_posterior_mixture_matches_precision_form_bayes(kind, d, n, log10_cond, seed):
    task, comps = _random_task(kind, d, n, log10_cond, np.random.default_rng(seed))
    obs = task.observations
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


def _mixture_reference(log_w, means, covs, theta):
    """Scores (n, N, d) and log densities (n, N) of stacked mixtures, one component at a time."""
    (n, K), d = log_w.shape, theta.shape[1]
    logits = np.empty((K, n, len(theta)))
    comp_scores = np.empty((K, n, len(theta), d))
    for k in range(K):
        logdet = np.linalg.slogdet(covs[k])[1]
        for i in range(n):
            delta = theta - means[i, k]
            sol = np.linalg.solve(covs[k], delta.T).T
            quad = np.sum(delta * sol, axis=1)
            logits[k, i] = log_w[i, k] - 0.5 * (quad + logdet + d * np.log(2.0 * np.pi))
            comp_scores[k, i] = -sol
    log_pdf = logsumexp(logits, axis=0)
    resp = np.exp(logits - log_pdf)
    return np.einsum("kia,kiad->iad", resp, comp_scores), log_pdf, logits


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 4),
    n=st.integers(1, 6),
    d=st.integers(1, 5),
    log10_cond=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_kernel_matches_component_loop(K, n, d, log10_cond, seed):
    rng = np.random.default_rng(seed)
    covs = np.empty((K, d, d))
    for k in range(K):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        spread = rng.permutation(np.linspace(0.0, 1.0, d))
        eigs = 10.0 ** (rng.uniform(-1.5, 0.0) + log10_cond * spread)
        covs[k] = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
    chols = np.linalg.cholesky(covs)
    means = 2.0 * rng.standard_normal((n, K, d))
    log_w = rng.standard_normal((n, K))
    log_w -= logsumexp(log_w, axis=1, keepdims=True)
    # the n mixtures weighted by random W_i, then mixture 0 again as a second group, by W_0
    weights = rng.standard_normal((n + 1, d, d))
    stacks = [
        ((log_w, means, covs), weights[None, 1:]),
        ((log_w[:1], means[:1], covs), weights[None, :1]),
    ]
    [kernel] = tasks._mixture_kernel(stacks, [1.0])

    def within(radius, i, k, count):  # points at Mahalanobis distance radius from mean (i, k)
        z = rng.standard_normal((count, d))
        z *= (radius / np.linalg.norm(z, axis=1))[:, None]
        return means[i, k] + z @ chols[k].T

    near = np.concatenate(
        [within(r, rng.integers(n), rng.integers(K), 1) for r in rng.uniform(0.0, 10.0, 24)]
    )
    # far tail: 40 sigma or more from every mean, where each component's density underflows
    far = within(40.0, 0, 0, 4)
    for _ in range(200):
        offsets = far[:, None, None, :] - means[None]  # (N, n, K, d)
        maha2 = np.einsum("aikd,kde,aike->aik", offsets, np.linalg.inv(covs), offsets)
        if maha2.min() >= 1600.0:
            break
        far = means[0, 0] + 1.2 * (far - means[0, 0])
    for theta in (near, far):
        ref_scores, ref_log_pdf, logits = _mixture_reference(log_w, means, covs, theta)
        ref = np.einsum("iad,ide->ae", ref_scores, weights[1:]) + ref_scores[0] @ weights[0]
        score, norms = tasks._kernel_score(kernel, np.ascontiguousarray(theta.T))
        assert score.shape == (d, len(theta)) and np.isfinite(score).all()
        for (top, total), expected in zip(norms, (ref_log_pdf, ref_log_pdf[:1])):
            log_pdf = top + np.log(total)
            assert log_pdf.shape == expected.shape and np.isfinite(log_pdf).all()
            np.testing.assert_allclose(log_pdf, expected, rtol=1e-9)
        # each term s_i W_i is exact to rounding; their sum may cancel
        scale = np.abs(ref_scores).max() * np.abs(weights).max() * (n + 1) * d
        np.testing.assert_allclose(score.T, ref, rtol=1e-9, atol=1e-9 * scale)
    assert logits.max() < -745.0  # exp of every far-tail component log density is 0


def test_one_component_group_equals_an_explicit_softmax_to_the_bit(sched):
    # a group of one-component mixtures takes responsibility 1 without a softmax; at finite
    # theta that is bitwise what the shifted softmax gives, and the log density (shift plus
    # log of the normalizer 1) is unchanged
    task = gmm_likelihood_task(np.zeros((3, 2)), np.eye(2), cov_scales=(1.5, 0.5))
    theta = 3.0 * np.random.default_rng(5).standard_normal((40, 2))
    for t in (1e-5, 0.3, 0.9):
        a = alpha(sched, t)
        [kernel] = tasks._mixture_kernel([(prior_dist(task)._params(), np.eye(2)[None, None])], [a])
        theta_t = np.ascontiguousarray(theta.T)
        feats = np.concatenate([np.ones((1, 40)), theta_t, np.einsum("an,bn->abn", theta_t, theta_t)
                                .reshape(4, 40)])
        logits = kernel.rows @ feats  # (1, N): one mixture of one component
        top = logits.max(axis=0, keepdims=True)
        exp = np.exp(logits - top)
        total = exp.sum(axis=0, keepdims=True)
        out = kernel.folded @ (exp / total)
        score = out[:2] - np.einsum("abn,an->bn", out[2:].reshape(2, 2, -1), theta_t)
        assert prior_score(task, theta, t, sched).tobytes() == score.T.tobytes()
        log_pdf = (top + np.log(total))[0]
        assert prior_log_density(task, theta, t, sched).tobytes() == log_pdf.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        tasks.gaussian_proxies,
        lambda task: bridging_moments(task, "linhart", 0.5, Schedule()),
        lambda task: theory.CompositeSpec.of_task(task, "geffner", Schedule()),
        joint_posterior_mixture,
        lambda task: posterior_moments(task, None),
        lambda task: composite_field(task, "geffner", Schedule()),
        lambda task: plan(task, "geffner", TuningConfig(gamma=0.5, omega=0.5), Schedule()),
    ],
    ids=["gaussian_proxies", "bridging_moments", "of_task", "joint", "posterior_moments", "field",
         "plan"],
)
def test_a_task_without_observations_is_refused_by_name(call):
    task = gaussian_task(np.eye(2) * 0.1, np.zeros((0, 2)))
    with pytest.raises(ValueError, match="need at least one observation"):
        call(task)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    d=st.integers(1, 5),
    n=st.integers(1, 6),
    log10_cond=st.floats(0.0, 3.0),
    t=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scores_match_log_density_gradients_on_random_tasks(sched, kind, d, n, log10_cond, t, seed):
    # the analytic scores are the gradients of the analytic log densities on
    # random SPD likelihoods with condition number up to 1e3, at random times
    rng = np.random.default_rng(seed)
    task, _ = _random_task(kind, d, n, log10_cond, rng)
    for theta in 1.5 * rng.standard_normal((3, d)):
        grad = fd_grad(lambda p: prior_log_density(task, p, t, sched), theta)
        assert prior_score(task, theta, t, sched) == pytest.approx(grad, rel=1e-5, abs=1e-8)
        i = int(rng.integers(n))
        grad = fd_grad(lambda p: posterior_log_density(task, i, p, t, sched), theta)
        score = individual_posterior_score(task, i, theta, t, sched)
        assert score == pytest.approx(grad, rel=1e-5, abs=1e-8)
