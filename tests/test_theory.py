from __future__ import annotations

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
    compose_gaussians,
    constant_gap,
    gaussian_constants,
    gaussian_task,
    gaussian_w2,
    levels,
    posterior_moments,
    proxy_bridge,
)
from conftest import rand_spd, t_for_v

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


def test_constant_gap_oracle(sched):
    # alpha = v = 1/2: gap = n(n-1) a v / ((sigma + v)(sigma + n v)) = 1/6
    t = t_for_v(sched, 0.5)
    assert constant_gap(1.0, 2, t, sched) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert constant_gap(1.0, 1, t, sched) == 0.0
    with pytest.raises(ValueError):
        constant_gap(0.0, 2, t, sched)


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


def test_compose_gaussians_precision_arithmetic():
    # two unit-variance posteriors and a variance-2 prior in 1-D:
    # precision 1 + 1 - 1/2 = 3/2, mean = cov * (sum of precision-weighted means)
    prior = GaussianDist(np.zeros(1), np.array([[2.0]]))
    out = compose_gaussians(prior, np.array([[1.0], [3.0]]), np.ones((2, 1, 1)))
    assert out.cov == pytest.approx(np.array([[2.0 / 3.0]]), abs=1e-14)
    assert out.mean == pytest.approx([8.0 / 3.0], abs=1e-14)


def test_compose_gaussians_rejects_indefinite():
    prior = GaussianDist(np.zeros(1), np.array([[0.01]]))  # dominant negative weight
    with pytest.raises(ValueError, match="not positive definite"):
        compose_gaussians(prior, np.zeros((2, 1)), np.ones((2, 1, 1)))


def test_gaussian_w2_oracles():
    a = GaussianDist(np.zeros(2), np.eye(2))
    assert gaussian_w2(a, a) == pytest.approx(0.0, abs=1e-12)
    shifted = GaussianDist(np.array([1.0, 0.0]), np.eye(2))
    assert gaussian_w2(a, shifted) == pytest.approx(1.0, rel=1e-12)
    stretched = GaussianDist(np.zeros(2), np.diag([4.0, 1.0]))
    assert gaussian_w2(a, stretched) == pytest.approx(1.0, rel=1e-12)
    both = GaussianDist(np.array([1.0, 0.0]), np.diag([4.0, 1.0]))
    assert gaussian_w2(a, both) == pytest.approx(np.sqrt(2.0), rel=1e-12)


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
