from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from annealed_langevin import (
    BridgingConstants,
    GaussianDist,
    Schedule,
    alpha,
    bridging_moments,
    constant_gap,
    gaussian_constants,
    gaussian_proxies,
    gaussian_task,
    gaussian_w2,
    gmm_likelihood_task,
    gmm_prior_task,
    levels,
    posterior_moments,
    proxy_bridge,
)
from conftest import make_gaussian_task, rand_spd, t_for_v

SIGMAS = (0.5, 1.0, 2.0, 5.0)
NS = tuple(range(1, 21))
T_POINTS = np.linspace(0.02, 0.99, 20)


def test_scalar_constants_oracle(sched):
    # sigma in [1, 2], n = 2, evaluated where the accumulated noise is 1/2
    t = t_for_v(sched, 0.5)
    lin = gaussian_constants(1.0, 2.0, 2, t, "linhart", sched)
    assert lin.m == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert lin.M == pytest.approx(3.0 / 2.0, rel=1e-12)
    gef = gaussian_constants(1.0, 2.0, 2, t, "geffner", sched)
    assert gef.m == pytest.approx(1.4, rel=1e-12)
    assert gef.M == pytest.approx(5.0 / 3.0, rel=1e-12)
    with pytest.raises(ValueError, match="need 0 < sigma_min <= sigma_max"):
        gaussian_constants(2.0, 1.0, 2, t, "linhart", sched)
    with pytest.raises(ValueError, match="need at least one observation"):
        gaussian_constants(1.0, 2.0, 0, t, "geffner", sched)


def test_constant_gap_oracle(sched):
    # alpha = v = 1/2: gap = n(n-1) a v / ((sigma + v)(sigma + n v)) = 1/6
    t = t_for_v(sched, 0.5)
    assert constant_gap(1.0, 2, t, sched) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert constant_gap(1.0, 1, t, sched) == 0.0
    with pytest.raises(ValueError):
        constant_gap(0.0, 2, t, sched)
    with pytest.raises(ValueError, match="need at least one observation"):
        constant_gap(1.0, 0, t, sched)


def test_constant_gap_identities_on_grid(sched):
    # M_geffner - M_linhart = gap(sigma_min), m_geffner - m_linhart = gap(sigma_max)
    for n in NS:
        for t in T_POINTS:
            t = float(t)
            for s_min, s_max in ((0.5, 2.0), (1.0, 1.0), (2.0, 5.0)):
                gef = gaussian_constants(s_min, s_max, n, t, "geffner", sched)
                lin = gaussian_constants(s_min, s_max, n, t, "linhart", sched)
                assert abs(gef.M - lin.M - constant_gap(s_min, n, t, sched)) < 1e-10
                assert abs(gef.m - lin.m - constant_gap(s_max, n, t, sched)) < 1e-10


def test_condition_ratio_ordering_on_grid(sched):
    # m/M (which drives the step size) is never better for the unweighted method
    for sig in SIGMAS:
        for n in NS:
            for t in T_POINTS:
                gef = gaussian_constants(sig, 2.0 * sig, n, float(t), "geffner", sched)
                lin = gaussian_constants(sig, 2.0 * sig, n, float(t), "linhart", sched)
                assert gef.m / gef.M <= lin.m / lin.M + 1e-12


def test_unweighted_lower_constant_at_least_one(sched):
    for sig in SIGMAS:
        for n in NS:
            for t in T_POINTS:
                gef = gaussian_constants(sig, sig, n, float(t), "geffner", sched)
                assert gef.m >= 1.0 - 1e-12


def _independent_bridge(task, method, t, s):
    """(mean, cov) of a gaussian task's level-t bridge from explicit inverses."""
    n, d = task.n, task.dim
    eye = np.eye(d)
    a = alpha(s, t)
    like_prec = np.linalg.inv(task.likelihood_cov)
    x_sum = task.observations.sum(axis=0)
    if method == "linhart":
        # diffuse the exact joint posterior
        joint_cov = np.linalg.inv(eye + n * like_prec)
        return np.sqrt(a) * joint_cov @ like_prec @ x_sum, a * joint_cov + (1.0 - a) * eye
    # reweighted product of diffused per-observation posteriors against the
    # standard normal prior, which diffuses to itself
    post_cov = np.linalg.inv(eye + like_prec)
    diffused_prec = np.linalg.inv(a * post_cov + (1.0 - a) * eye)
    prec = (1 - n) * eye + n * diffused_prec
    rhs = diffused_prec @ (np.sqrt(a) * post_cov @ like_prec @ x_sum)
    return np.linalg.solve(prec, rhs), np.linalg.inv(prec)


def _assert_bridge_matches(got, task, method, t, s):
    mean, cov = _independent_bridge(task, method, t, s)
    np.testing.assert_allclose(got.cov, cov, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(got.mean, mean, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(1, 50),
    log10_cond=st.floats(0.0, 3.0),
    t=st.floats(Schedule().t_floor, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_bridging_moments_against_independent_formulas(sched, d, n, log10_cond, t, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = 10.0 ** (rng.uniform(-1.5, 0.0) + log10_cond * np.linspace(0.0, 1.0, d))
    cov = (q * eigs) @ q.T
    task = gaussian_task(0.5 * (cov + cov.T), 2.0 * rng.standard_normal((n, d)))
    for method in ("geffner", "linhart"):
        _assert_bridge_matches(bridging_moments(task, method, t, sched), task, method, t, sched)


def test_unweighted_bridge_precision_eigenvalues_at_least_one(sched):
    rng = np.random.default_rng(6)
    for _ in range(5):
        task = gaussian_task(rand_spd(rng, 3, 0.1, 3.0), rng.standard_normal((6, 3)))
        for t in (1e-5, 0.25, 0.75, 1.0):
            gef = bridging_moments(task, "geffner", t, sched)
            eigs = np.linalg.eigvalsh(np.linalg.inv(gef.cov))
            assert eigs.min() >= 1.0 - 1e-10


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_proxy_bridge_reproduces_exact_gaussian_bridges(method, sched):
    rng = np.random.default_rng(7)
    task = gaussian_task(rand_spd(rng, 2, 0.2, 1.2), rng.standard_normal((5, 2)))
    prior = GaussianDist(np.zeros(2), np.eye(2))
    moments = [posterior_moments(task, i) for i in range(task.n)]
    means = np.array([mean for mean, _, _ in moments])
    covs = np.array([cov for _, cov, _ in moments])
    times = (1e-5, 0.4, 1.0)
    bridges = proxy_bridge(prior, means, covs, method, times, sched)
    assert len(bridges) == len(times)
    for t, via_proxy in zip(times, bridges):
        _assert_bridge_matches(via_proxy, task, method, t, sched)


def test_linhart_composition_precision_arithmetic(sched):
    # at t = 0 (alpha = 1) the linhart bridge is the time-0 composition itself:
    # two unit-variance posteriors and a variance-2 prior in 1-D give
    # precision 1 + 1 - 1/2 = 3/2, mean = cov * (sum of precision-weighted means)
    prior = GaussianDist(np.zeros(1), np.array([[2.0]]))
    means, covs = np.array([[1.0], [3.0]]), np.ones((2, 1, 1))
    (out,) = proxy_bridge(prior, means, covs, "linhart", [0.0], sched)
    assert out.cov == pytest.approx(np.array([[2.0 / 3.0]]), abs=1e-14)
    assert out.mean == pytest.approx([8.0 / 3.0], abs=1e-14)


def test_linhart_composition_rejects_indefinite(sched):
    prior = GaussianDist(np.zeros(1), np.array([[0.01]]))  # dominant negative weight
    with pytest.raises(ValueError, match="composed precision is not positive definite"):
        proxy_bridge(prior, np.zeros((2, 1)), np.ones((2, 1, 1)), "linhart", [0.5], sched)


def test_indefinite_geffner_level_names_its_time_index(sched):
    # the same proxies: indefinite at time 0, but diffusion pulls every proxy
    # toward N(0, I), so at t = 0.5 the composition is positive definite again
    prior = GaussianDist(np.zeros(1), np.array([[0.01]]))
    with pytest.raises(ValueError, match=r"composed precision\[1\] is not positive definite"):
        proxy_bridge(prior, np.zeros((2, 1)), np.ones((2, 1, 1)), "geffner", [0.5, 1e-5], sched)


def _dense_product(gaussians, a):
    """(mean, cov) of prior^(1-n) * prod_i posterior_i over the Gaussians (prior first)
    diffused to alpha a, from plain inverses of each a C_i + (1-a) I."""
    eye, n = np.eye(len(gaussians[0][0])), len(gaussians) - 1
    precs = [np.linalg.inv(a * cov + (1.0 - a) * eye) for _, cov in gaussians]
    weights = [1.0 - n] + [1.0] * n
    prec = sum(w * p for w, p in zip(weights, precs))
    lin = sum(w * p @ (np.sqrt(a) * mean) for w, p, (mean, _) in zip(weights, precs, gaussians))
    cov = np.linalg.inv(prec)
    return cov @ lin, cov


@pytest.mark.parametrize("method", ["geffner", "linhart"])
@pytest.mark.parametrize("kind", ["gmm_prior", "gmm_likelihood"])
def test_proxy_bridge_matches_dense_formula_on_mixture_proxies(kind, method, sched):
    # a mixture's posterior proxies differ in their eigenvectors, unlike a
    # gaussian task's, so this catches eigenvectors mixed up across proxies,
    # and equal covariances with different means must still each count
    rng = np.random.default_rng(21)
    obs = rng.standard_normal((4, 3))
    if kind == "gmm_prior":
        task = gmm_prior_task(rand_spd(rng, 3, 0.2, 1.0), obs, prior_means=((0, 0, 0), (1, 1, -1)))
    else:
        task = gmm_likelihood_task(obs, base_cov=rand_spd(rng, 3, 0.3, 1.0), dim=3)
    prior, means, covs = gaussian_proxies(task)
    commutator = covs[0] @ covs[1] - covs[1] @ covs[0]
    assert np.linalg.norm(commutator) > 1e-3 * np.linalg.norm(covs[0]) * np.linalg.norm(covs[1])
    # and a fifth proxy that shares the first one's covariance, not its mean
    means, covs = np.concatenate([means, means[:1] + 0.3]), np.concatenate([covs, covs[:1]])
    gaussians = [(prior.mean, prior.cov)] + list(zip(means, covs))
    composed_mean, composed_cov = _dense_product(gaussians, 1.0)
    times = (sched.t_floor, 0.5, 1.0)
    for t, got in zip(times, proxy_bridge(prior, means, covs, method, times, sched)):
        a = alpha(sched, t)
        if method == "geffner":  # diffuse each proxy, then compose
            mean, cov = _dense_product(gaussians, a)
        else:  # compose at time 0, then diffuse the composition
            mean, cov = np.sqrt(a) * composed_mean, a * composed_cov + (1.0 - a) * np.eye(3)
        np.testing.assert_allclose(got.cov, cov, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.mean, mean, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("distinct", [False, True])
def test_geffner_bridges_at_scale_allocate_no_per_level_stacks(distinct, sched):
    # geffner diffuses, inverts and composes the n+1 proxies one level at a
    # time: no (n, levels, d, d) stack of diffused covariances or their
    # inverses, which alone would be 8 * 1000 * 11 * 50^2 bytes (210 MiB); numpy
    # reports its buffers to tracemalloc, so the peak is deterministic. A
    # gaussian task's posterior proxies share one covariance; scaled apart,
    # they are n distinct ones
    task = make_gaussian_task(0, 50, 1000)
    prior, means, covs = gaussian_proxies(task)
    if distinct:
        covs = covs * (1.0 + np.linspace(0.0, 0.1, task.n))[:, None, None]
    tracemalloc.start()
    try:
        proxy_bridge(prior, means, covs, "geffner", levels(sched, 10), sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20


def test_gaussian_w2_oracles():
    a = GaussianDist(np.zeros(2), np.eye(2))
    assert gaussian_w2(a, a) == pytest.approx(0.0, abs=1e-12)
    shifted = GaussianDist(np.array([1.0, 0.0]), np.eye(2))
    assert gaussian_w2(a, shifted) == pytest.approx(1.0, rel=1e-12)
    stretched = GaussianDist(np.zeros(2), np.diag([4.0, 1.0]))
    assert gaussian_w2(a, stretched) == pytest.approx(1.0, rel=1e-12)
    both = GaussianDist(np.array([1.0, 0.0]), np.diag([4.0, 1.0]))
    assert gaussian_w2(a, both) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError, match="dimension mismatch"):
        gaussian_w2(a, GaussianDist(np.zeros(3), np.eye(3)))


def test_gaussian_w2_symmetry_and_general_formula():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = GaussianDist(rng.standard_normal(3), rand_spd(rng, 3, 0.2, 3.0))
        b = GaussianDist(rng.standard_normal(3), rand_spd(rng, 3, 0.2, 3.0))
        w = gaussian_w2(a, b)
        assert w == pytest.approx(gaussian_w2(b, a), rel=1e-10)
        # independent reference via scipy matrix square roots
        root = np.real(sqrtm(a.cov))
        cross = np.real(sqrtm(root @ b.cov @ root))
        ref2 = float(
            np.sum((a.mean - b.mean) ** 2)
            + np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross)
        )
        assert w == pytest.approx(np.sqrt(max(ref2, 0.0)), rel=1e-8)


def test_gaussian_w2_commuting_path_agrees_with_general():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = GaussianDist(np.zeros(3), (q * np.array([0.5, 1.0, 2.0])) @ q.T)
    b = GaussianDist(np.ones(3), (q * np.array([1.5, 0.7, 3.0])) @ q.T)
    w = gaussian_w2(a, b)  # shares an eigenbasis: commuting fast path
    root = np.real(sqrtm(a.cov))
    cross = np.real(sqrtm(root @ b.cov @ root))
    ref2 = float(np.sum((a.mean - b.mean) ** 2) + np.trace(a.cov) + np.trace(b.cov) - 2 * np.trace(cross))
    assert w == pytest.approx(np.sqrt(ref2), rel=1e-8)


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_gaussian_w2_commuting_test_is_relative_to_scale(scale):
    # at scale 1e-6 these covariances' commutator is 1.7e-11, below an
    # absolute 1e-10, yet they do not commute: the cheap path would be 3% high
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    a = GaussianDist(np.zeros(2), scale * np.diag([1.0, 4.0]))
    b = GaussianDist(np.zeros(2), scale * (rot * [1.0, 9.0]) @ rot.T)
    root = np.real(sqrtm(a.cov))
    bures = np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(np.real(sqrtm(root @ b.cov @ root)))
    assert gaussian_w2(a, b) == pytest.approx(np.sqrt(bures), rel=1e-8)


def test_consecutive_bridge_distance_orderings(sched):
    # near t=1 the unweighted bridges drift apart faster; near t=0 the
    # weighted ones do (they must close the gap to the exact posterior)
    grid = levels(sched, 10)
    rng = np.random.default_rng(1)
    for sig in (0.5, 2.0):
        for n in (5, 10):
            task = gaussian_task(np.eye(3) * sig, rng.standard_normal((n, 3)) * 1.5)
            w2 = {}
            for method in ("geffner", "linhart"):
                b = [bridging_moments(task, method, float(t), sched) for t in grid]
                w2[method] = [gaussian_w2(b[p], b[p + 1]) for p in range(len(grid) - 1)]
            last = len(grid) - 2
            assert w2["geffner"][last] >= w2["linhart"][last]
            assert w2["geffner"][1] <= w2["linhart"][1]


def test_bridging_constants_validation():
    with pytest.raises(ValueError):
        BridgingConstants(t=0.5, m=2.0, M=1.0, method="geffner")
    with pytest.raises(ValueError):
        BridgingConstants(t=0.5, m=-1.0, M=0.0, method="geffner")
    BridgingConstants(t=0.5, m=-0.5, M=1.0, method="geffner")  # m <= 0 is allowed
