from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealed_langevin import (
    KINDS,
    GaussianDist,
    GaussianMixture,
    LevelPlan,
    TuningConfig,
    TuningError,
    bias_term,
    choose_step,
    choose_steps,
    gaussian_constants,
    gaussian_proxies,
    gaussian_task,
    global_bound,
    gmm_likelihood_task,
    gmm_prior_task,
    plan,
    posterior_moments,
    prior_dist,
    simulate_observations,
)
from annealed_langevin import theory
from conftest import make_gaussian_task, rand_spd

CFG = TuningConfig(gamma=0.5, omega=0.5)


def test_choose_step_oracle():
    # bias cap (0.25 * m / (1.65 M))^2 / d with m=4/3, M=3/2, d=2
    h = choose_step(4.0 / 3.0, 1.5, CFG, 2)
    assert h == pytest.approx(0.009069369338729611, rel=1e-12)
    h_g = choose_step(1.4, 5.0 / 3.0, CFG, 2)
    assert h_g == pytest.approx(0.008099173553719006, rel=1e-12)
    assert h_g < h  # worse conditioning, smaller step


def test_choose_step_stability_cap_binds():
    big = TuningConfig(gamma=100.0, omega=0.5)
    h = choose_step(1.0, 1.0, big, 1)
    assert h == np.nextafter(1.0, 0.0)  # one ulp below 2/(m+M)
    assert h < 2.0 / (1.0 + 1.0)


def test_choose_step_infeasibility():
    with pytest.raises(TuningError, match="not positive"):
        choose_step(0.0, 1.0, CFG, 2)
    with pytest.raises(TuningError, match="infeasible"):
        choose_step(1.0, 1.0, TuningConfig(gamma=0.5, omega=0.5, eps_dsm=1.0), 2)
    with pytest.raises(ValueError):
        choose_step(2.0, 1.0, CFG, 2)  # m > M
    with pytest.raises(ValueError, match="dimension must be positive"):
        choose_step(1.0, 1.0, CFG, 0)


def test_choose_steps_oracle():
    k = choose_steps(4.0 / 3.0, 0.009069369338729611, 0.3, CFG)
    assert k == 96
    assert choose_steps(1.0, 0.5, 0.0, CFG) >= 1
    with pytest.raises(ValueError):
        choose_steps(1.0, 1.5, 0.3, CFG)  # m*h >= 1
    with pytest.raises(ValueError, match="w2_next must be nonnegative"):
        choose_steps(1.0, 0.5, -0.1, CFG)


def test_bias_term_oracle():
    assert bias_term(1.0, 1.0, 0.01, 2, 0.0) == pytest.approx(0.23334523779156066, rel=1e-12)
    assert bias_term(2.0, 2.0, 0.0, 2, 0.1) == pytest.approx(0.05, rel=1e-14)
    with pytest.raises(ValueError):
        bias_term(0.0, 1.0, 0.01, 2, 0.0)
    for h, d, eps in ((-0.01, 2, 0.0), (0.01, 0, 0.0), (0.01, 2, -0.1)):
        with pytest.raises(ValueError, match=re.escape("need h >= 0, eps >= 0, d >= 1")):
            bias_term(1.0, 1.0, h, d, eps)


def test_tuning_config_validation():
    with pytest.raises(ValueError):
        TuningConfig(gamma=0.0, omega=0.5)
    with pytest.raises(ValueError):
        TuningConfig(gamma=0.5, omega=1.0)
    with pytest.raises(ValueError):
        TuningConfig(gamma=0.5, omega=0.5, eps_dsm=-0.1)
    with pytest.raises(ValueError):
        TuningConfig(gamma=0.5, omega=0.5, T=0)


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_plan_per_level_budgets(method, sched):
    task = make_gaussian_task(seed=0, dim=2, n=5)
    lp = plan(task, method, CFG, sched)
    assert lp.T == 10
    assert lp.t.shape == lp.h.shape == lp.k.shape == (10,)
    assert np.all(np.diff(lp.t) > 0) and 0 < lp.t[0] < lp.t[-1] < 1
    assert not lp.proxy
    # bias budget and contraction budget hold at every level
    assert np.all(lp.B <= CFG.omega * CFG.gamma * (1 + 1e-9))
    contraction = (1.0 - lp.m * lp.h) ** lp.k
    assert np.all(contraction * (CFG.gamma + lp.w2_next) <= (1 - CFG.omega) * CFG.gamma + 1e-12)
    assert lp.total_steps == int(lp.k.sum())
    assert global_bound(lp) <= CFG.gamma


def test_plan_step_size_ordering(sched):
    for seed in range(3):
        task = make_gaussian_task(seed=seed, dim=3, n=8)
        h_g = plan(task, "geffner", CFG, sched).h
        h_l = plan(task, "linhart", CFG, sched).h
        assert np.all(h_g <= h_l)


def test_plan_single_observation_methods_agree(sched):
    task = make_gaussian_task(seed=1, dim=2, n=1)
    lp_g = plan(task, "geffner", CFG, sched)
    lp_l = plan(task, "linhart", CFG, sched)
    assert lp_g.h == pytest.approx(lp_l.h, rel=1e-12)
    assert np.array_equal(lp_g.k, lp_l.k)


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_plan_omega_monotonicity(method, sched):
    # a larger bias budget gives weakly larger steps everywhere; step counts
    # drop wherever the bias cap (not the stability cap) picked h, since a
    # stability-capped level cannot trade budget for step size
    task = make_gaussian_task(seed=2, dim=2, n=6)
    plans = [
        plan(task, method, TuningConfig(gamma=0.5, omega=w), sched)
        for w in (0.3, 0.5, 0.8)
    ]
    for lo, hi in zip(plans, plans[1:]):
        assert np.all(hi.h >= lo.h)
        bias_capped = hi.h < np.nextafter(2.0 / (hi.m + hi.M), 0.0)
        assert np.all(hi.k[bias_capped] <= lo.k[bias_capped])
        assert hi.total_steps <= lo.total_steps


def test_plan_infeasible_reports_level(sched):
    task = make_gaussian_task(seed=0, dim=2, n=5)
    bad = TuningConfig(gamma=0.5, omega=0.5, eps_dsm=10.0)
    with pytest.raises(TuningError, match="level"):
        plan(task, "geffner", bad, sched)


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_plan_mixture_prior_uses_proxies(method, sched):
    rng = np.random.default_rng(3)
    task = gmm_prior_task(np.eye(2) * 0.05, rng.standard_normal((4, 2)))
    lp = plan(task, method, CFG, sched)
    assert lp.proxy
    assert lp.total_steps >= lp.T


def test_linhart_plan_composes_the_proxies_once(sched, monkeypatch):
    # linhart's bridges all diffuse one time-0 composition, whatever T is: the
    # proxy set-up inverts each distinct covariance once (a gaussian task's n
    # equal posterior covariances are one), and the bridge rule is called once,
    # over the levels only, with no eigendecomposition. Distinct proxies (a
    # gmm_prior task's) change none of that but the number of inverses
    rng = np.random.default_rng(2)
    distinct = gmm_prior_task(np.eye(2) * 0.05, rng.standard_normal((30, 2)))
    for task, inverted in ((make_gaussian_task(seed=2, dim=10, n=30), 2), (distinct, 31)):
        calls, setups, eighs = [], [], []
        rule, eigh = theory._bridge_rule, np.linalg.eigh

        def counted_rule(proxies):
            setups.append(len(proxies.precs))
            product = rule(proxies)

            def counted(alphas):
                calls.append(np.atleast_1d(alphas).size)
                return product(alphas)

            return counted

        def counted_eigh(*args):
            eighs.append(args)
            return eigh(*args)

        monkeypatch.setattr(theory, "_bridge_rule", counted_rule)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        lp = plan(task, "linhart", TuningConfig(gamma=0.5, omega=0.5, T=10), sched)
        monkeypatch.undo()
        assert lp.T == 10 and calls == [11] and setups == [inverted] and eighs == []


def test_gaussian_proxy_moments():
    task = gaussian_task(np.eye(2) * 0.5, np.array([[1.0, 0.0], [0.0, 1.0]]))
    prior, means, covs = gaussian_proxies(task)
    assert prior.mean == pytest.approx(np.zeros(2), abs=0.0)
    assert prior.cov == pytest.approx(np.eye(2), abs=0.0)
    assert means.shape == (2, 2) and covs.shape == (2, 2, 2)
    for i in range(task.n):
        mean, cov, _ = posterior_moments(task, i)
        assert means[i] == pytest.approx(mean, abs=0.0)
        assert covs[i] == pytest.approx(cov, abs=0.0)


def test_gaussian_proxy_mixture_prior_matches_moments():
    rng = np.random.default_rng(4)
    task = gmm_prior_task(np.eye(2) * 0.1, rng.standard_normal((2, 2)))
    prior = prior_dist(task)
    assert isinstance(prior, GaussianMixture)
    mean, cov = prior.moments()
    prox, means, covs = gaussian_proxies(task)
    assert isinstance(prox, GaussianDist)
    assert prox.mean == pytest.approx(mean, abs=1e-14)
    assert prox.cov == pytest.approx(cov, abs=1e-14)
    # the posterior proxies are the moments of the two-component posteriors
    for i in range(task.n):
        mean, cov, mixture = posterior_moments(task, i)
        assert mixture.component_count == 2
        assert means[i] == pytest.approx(mean, abs=1e-14)
        assert covs[i] == pytest.approx(cov, abs=1e-14)


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_plan_constants_match_gaussian_closed_form(method, sched):
    # on the gaussian kind the proxy bridges are exact, so the plan's (m, M)
    # are the closed-form constants at the likelihood's extreme eigenvalues
    rng = np.random.default_rng(11)
    for d, n in ((1, 1), (2, 5), (3, 30), (6, 12), (10, 50)):
        cov = rand_spd(rng, d, 0.02, 20.0)
        task = gaussian_task(cov, rng.standard_normal((n, d)))
        lp = plan(task, method, CFG, sched)
        eigs = np.linalg.eigvalsh(cov)
        for p, t in enumerate(lp.t):
            ref = gaussian_constants(eigs[0], eigs[-1], n, float(t), method, sched)
            assert lp.m[p] == pytest.approx(ref.m, rel=1e-10)
            assert lp.M[p] == pytest.approx(ref.M, rel=1e-10)


def test_global_bound_matches_hand_rolled_recursion(sched):
    task = make_gaussian_task(seed=5, dim=2, n=4)
    lp = plan(task, "linhart", CFG, sched)
    # independent recursion: descend levels, contracting then adding bias
    bound = 0.0
    for p in range(lp.T - 1, -1, -1):
        start = bound + float(lp.w2_next[p])
        bound = (1.0 - lp.m[p] * lp.h[p]) ** lp.k[p] * start + float(lp.B[p])
    assert global_bound(lp) == pytest.approx(bound, rel=1e-9)


def test_level_plan_validation():
    base = dict(
        method="geffner",
        dim=2,
        gamma=0.5,
        omega=0.5,
        t=np.array([0.5]),
        h=np.array([0.1]),
        k=np.array([3]),
        m=np.array([1.0]),
        M=np.array([1.0]),
        w2_next=np.array([0.1]),
        B=np.array([0.2]),
    )
    LevelPlan(**base)
    for field_name, value, message in (
        ("h", np.array([1.5]), "need 0 < h < 2/(m+M) at every level"),
        ("k", np.array([0]), "need k >= 1 at every level"),
        ("B", np.array([0.3]), "bias term exceeds omega*gamma"),
        ("t", np.array([1.5]), "level times must increase strictly within (0, 1)"),
        ("w2_next", np.array([-0.1]), "w2_next must be nonnegative"),
        ("dim", 0, "dim must be positive"),
        ("gamma", 0.0, "invalid gamma/omega"),
        ("omega", 1.0, "invalid gamma/omega"),
        ("t", np.array([]), "need at least one level"),
        ("m", np.array([1.0, 1.0]), "m shape disagrees with t"),
        ("k", np.array([3.0]), "k must be integers, one per level"),
        ("m", np.array([2.0]), "need 0 < m <= M at every level"),
    ):
        bad = dict(base, **{field_name: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            LevelPlan(**bad)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    method=st.sampled_from(["geffner", "linhart"]),
    d=st.integers(1, 6),
    n=st.integers(1, 30),
    log10_cond=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_certifies_or_raises_tuning_error(sched, kind, method, d, n, log10_cond, seed):
    # on any valid task, plan either meets gamma or says why with TuningError
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = 10.0 ** (rng.uniform(-2.0, 0.0) + log10_cond * np.linspace(0.0, 1.0, d))
    sigma = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
    empty = np.zeros((0, d))
    if kind == "gaussian":
        template = gaussian_task(sigma, empty)
    elif kind == "gmm_prior":
        w = rng.uniform(0.1, 0.9)
        template = gmm_prior_task(
            sigma, empty, 1.5 * rng.standard_normal((2, d)), rng.uniform(0.3, 1.0, 2), (w, 1 - w)
        )
    else:
        w = rng.uniform(0.1, 0.9)
        template = gmm_likelihood_task(
            empty, base_cov=sigma, cov_scales=rng.uniform(0.2, 3.0, 2), weights=(w, 1 - w)
        )
    task = dataclasses.replace(
        template, observations=simulate_observations(template, n, rng)
    )
    try:
        level_plan = plan(task, method, CFG, sched)
    except TuningError:
        return
    assert isinstance(level_plan, LevelPlan)
    assert global_bound(level_plan) <= CFG.gamma
