from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealed_langevin import (
    CompositeSpec,
    GaussianMixture,
    Schedule,
    TuningConfig,
    alpha,
    compose_dsm_error,
    composite_field,
    gaussian_task,
    geffner_score,
    gmm_likelihood_task,
    gmm_prior_task,
    individual_posterior_score,
    levels,
    linhart_score,
    plan,
    posterior_moments,
    prior_score,
    simulate_observations,
    spec_for_task,
)
from annealed_langevin import composite, tasks, theory
from annealed_langevin.cli import build_task, resolve_config
from annealed_langevin.tasks import GaussianDist
from conftest import rand_spd


def _joint_diffused_score(task, theta, t, s):
    """Independent reference: diffuse the exact joint posterior, then take its score."""
    mean, cov, _ = posterior_moments(task, None)
    a = alpha(s, t)
    diffused = GaussianDist(np.sqrt(a) * mean, a * cov + (1.0 - a) * np.eye(task.dim))
    return diffused.score(theta)


def test_spec_validation(sched):
    good = np.eye(2)[None, :, :]
    with pytest.raises(ValueError):
        CompositeSpec("nope", 1, good, np.eye(2), sched)
    with pytest.raises(ValueError):
        CompositeSpec("geffner", 0, good, np.eye(2), sched)
    with pytest.raises(ValueError):
        CompositeSpec("geffner", 1, good, np.eye(3), sched)
    # the weights come from the spec's method, so a spec of the other rule is refused
    spec = CompositeSpec("linhart", 1, good, np.eye(2), sched)
    with pytest.raises(ValueError, match="needs a geffner spec"):
        geffner_score(spec, lambda th, t: -th, [lambda th, t: -th], np.zeros((1, 2)), 0.5)
    with pytest.raises(ValueError, match="expected 1 posterior score fields, got 2"):
        linhart_score(spec, lambda th, t: -th, [lambda th, t: -th] * 2, np.zeros((1, 2)), 0.5)


def test_weight_matrices_need_positive_time(sched):
    task = gaussian_task(np.eye(2) * 0.5, np.zeros((2, 2)))
    spec = spec_for_task(task, "linhart", sched)
    posts = [lambda th, t: -th] * task.n
    with pytest.raises(ValueError, match="t > 0"):
        linhart_score(spec, lambda th, t: -th, posts, np.zeros((1, 2)), 0.0)


def test_linhart_score_identity_design(sched):
    # when every proxy has covariance v/(v - alpha) I, every backward-kernel
    # precision and Lambda_t are I, so linhart is the unnormalised weighted sum
    t = 0.5
    a = alpha(sched, t)
    v_t = 1.0 - a
    c = v_t / (v_t - a)
    n = 4
    spec = CompositeSpec(
        "linhart", n, np.tile(c * np.eye(2), (n, 1, 1)), c * np.eye(2), sched
    )
    theta = np.random.default_rng(3).standard_normal((5, 2))
    prior = lambda th, t: -th
    posts = [lambda th, t, i=i: (i + 1.0) * th for i in range(n)]
    expected = (1 - n) * (-theta) + (1 + 2 + 3 + 4) * theta
    assert linhart_score(spec, prior, posts, theta, t) == pytest.approx(expected, abs=1e-12)


def test_linhart_score_rejects_indefinite(sched):
    # huge prior precision with (1 - n) < 0 drives Lambda_t indefinite
    n = 3
    spec = CompositeSpec(
        "linhart", n, np.tile(np.eye(2) * 10.0, (n, 1, 1)), np.eye(2) * 1e-4, sched
    )
    posts = [lambda th, t: -th] * n
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        linhart_score(spec, lambda th, t: -th, posts, np.zeros((1, 2)), 0.9)


@pytest.mark.parametrize("seed", range(6))
def test_linhart_score_matches_solved_precision_weighting(seed, sched):
    # the folded weight matrices give Lambda_t^{-1} (sum_i P_{t,i} s_i + (1-n) P_{t,0} s_0)
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    prior_cov = rand_spd(rng, d, 2.0, 5.0)  # weak prior precision keeps Lambda_t SPD
    post_covs = np.array([rand_spd(rng, d, 0.05, 1.0) for _ in range(n)])
    spec = CompositeSpec("linhart", n, post_covs, prior_cov, sched)
    maps = rng.standard_normal((n + 1, d, d))
    offsets = rng.standard_normal((n + 1, d))
    fields = [lambda th, t, i=i: th @ maps[i] + offsets[i] for i in range(n + 1)]
    theta = rng.standard_normal((7, d))
    for t in (0.01, 0.3, 0.9):
        a = alpha(sched, t)
        shrink = a / (1.0 - a) * np.eye(d)
        precs = [np.linalg.inv(c) + shrink for c in (prior_cov, *post_covs)]
        lam = sum(precs[1:]) + (1 - n) * precs[0]
        scores = [f(theta, t) for f in fields]
        inner = sum(s @ p for s, p in zip(scores[1:], precs[1:])) + (1 - n) * scores[0] @ precs[0]
        expected = np.linalg.solve(lam, inner.T).T
        got = linhart_score(spec, fields[0], fields[1:], theta, t)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.integers(1, 40),
    log10_lo=st.floats(-2.0, 0.5),
    log10_cond=st.floats(0.0, 3.0),
    t=st.floats(1e-5, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_lambda_is_spd_on_gaussian_tasks(sched, d, n, log10_lo, log10_cond, t, seed):
    # exact proxies compose to the joint posterior precision, so Lambda_t is
    # SPD and _level_weights' Cholesky, which raises on an indefinite one,
    # succeeds; the folded weights then sum to Lambda_t Lambda_t^-1 = I
    rng = np.random.default_rng(seed)
    lo = 10.0**log10_lo
    task = gaussian_task(rand_spd(rng, d, lo, lo * 10.0**log10_cond), rng.standard_normal((n, d)))
    spec = spec_for_task(task, "linhart", sched)
    [prior_weight], [post_weight] = composite._level_weights(spec.proxies, sched, [t])
    total = prior_weight + post_weight.reshape(n, d, d).sum(axis=0)
    np.testing.assert_allclose(total, np.eye(d), rtol=0, atol=1e-10)


@pytest.mark.parametrize("flaw", ["asymmetric", "indefinite"])
def test_stacked_covariance_checks_reach_the_last_matrix(flaw, sched):
    covs = np.tile(np.eye(2), (4, 1, 1))
    covs[-1] = [[1.0, 0.5], [0.0, 1.0]] if flaw == "asymmetric" else [[1.0, 2.0], [2.0, 1.0]]
    message = "symmetric" if flaw == "asymmetric" else "positive definite"
    with pytest.raises(ValueError, match=rf"covs\[3\] is not {message}"):
        GaussianMixture(np.full(4, 0.25), np.zeros((4, 2)), covs)
    with pytest.raises(ValueError, match=rf"post_covs\[3\] is not {message}"):
        CompositeSpec("linhart", 4, covs, np.eye(2), sched)


@pytest.mark.parametrize("method", ["geffner", "linhart"])
@pytest.mark.parametrize("kind", ["gaussian", "gmm_prior"])
def test_field_setup_runs_once_per_task(method, kind, sched, monkeypatch):
    # one conjugate update feeds one proxy set-up, which both branches read; for
    # linhart it inverts each distinct covariance once (a gaussian task's n equal
    # posterior covariances are one matrix), for geffner, which composes the diffused
    # proxies instead, none. A gaussian field's bridge rule is built once, not per
    # level: linhart inverts the time-0 composition once, geffner inverts the
    # diffused proxies per level with no check, and neither eigendecomposes. A
    # mixture field does no eigendecomposition, and each level sets up one kernel
    rng = np.random.default_rng(5)
    make = gaussian_task if kind == "gaussian" else gmm_prior_task
    task = make(rand_spd(rng, 2, 0.2, 1.0), rng.standard_normal((6, 2)))
    calls = {"update": 0, "eigh": 0, "bridge_inverse": 0, "kernel": 0}
    inverted = []

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    init = theory._ProxySetup.__init__

    def setup(proxies, *args):
        init(proxies, *args)
        inverted.append(len(getattr(proxies, "precs", ())))

    update = counted("update", tasks._conjugate_update)
    monkeypatch.setattr(tasks, "_conjugate_update", update)
    monkeypatch.setattr(theory, "_conjugate_update", update)
    monkeypatch.setattr(theory._ProxySetup, "__init__", setup)
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(theory, "_spd_inverse", counted("bridge_inverse", theory._spd_inverse))
    monkeypatch.setattr(composite, "_mixture_kernel", counted("kernel", composite._mixture_kernel))
    factory = composite_field(task, method, sched)
    for p, t in enumerate(levels(sched, 10)[:-1]):
        factory(p, float(t))(rng.standard_normal((3, 2)), float(t))
    if kind == "gaussian":
        expected = dict(eigh=0, bridge_inverse=int(method == "linhart"), kernel=0)
    else:
        expected = dict(eigh=0, bridge_inverse=0, kernel=10)
    assert calls == {"update": 1, **expected}
    distinct = 2 if kind == "gaussian" else task.n + 1
    assert inverted == [distinct if method == "linhart" else 0]


@pytest.mark.parametrize("method", ["geffner", "linhart"])
@pytest.mark.parametrize("kind", ["gaussian", "gmm_prior", "gmm_likelihood"])
def test_field_on_the_plan_setup_equals_the_field_that_sets_itself_up(kind, method, sched):
    # the sampler's field reads the plan's set-up; the three-argument call builds
    # its own, and every level's scores agree to the bit
    task = build_task(resolve_config({"task": {"kind": kind, "dim": 2, "n": 5}}), 5, 3)
    lp = plan(task, method, TuningConfig(gamma=0.5, omega=0.5, T=10), sched)
    planned = composite_field(task, method, sched, lp.setup)
    alone = composite_field(task, method, sched)
    theta = np.random.default_rng(6).standard_normal((16, 2))
    for p, t in enumerate(lp.t.tolist()):
        assert planned(p, t)(theta, t).tobytes() == alone(p, t)(theta, t).tobytes()


def _mixture_plan(kind, method, sched):
    cfg = {"task": {"kind": kind, "dim": 2, "n": 5}}
    if kind == "gmm_likelihood":  # the benchmark's variance scales
        cfg["task"]["likelihood_mixture"] = {"cov_scales": [1.5, 0.5]}
    task = build_task(resolve_config(cfg), 5, 3)
    return task, plan(task, method, TuningConfig(gamma=0.5, omega=0.5, T=10), sched)


@pytest.mark.parametrize("method", ["geffner", "linhart"])
@pytest.mark.parametrize("kind", ["gmm_prior", "gmm_likelihood"])
def test_batched_level_setup_equals_one_level_setups_to_the_bit(kind, method, sched, monkeypatch):
    # every plan level's weights, logit rows and folded matrix from the one batched set-up equal
    # a one-level build's; so do the planned field's scores at every level, at a time that is
    # no plan level, and at a plan level asked for a second time
    task, lp = _mixture_plan(kind, method, sched)
    setup, prior = lp.setup, tasks.prior_dist(task)._params()

    def kernels(times):
        prior_weights, post_weights = composite._level_weights(setup, sched, times)
        stacks = [(setup.update, post_weights), (prior, prior_weights[:, None])]
        return prior_weights, post_weights, tasks._mixture_kernel(stacks, alpha(sched, times))

    batched = kernels(lp.t)
    for p, t in enumerate(lp.t.tolist()):
        (prior_w,), (post_w,), (kernel,) = kernels(np.array([t]))
        assert prior_w.tobytes() == batched[0][p].tobytes()
        assert post_w.tobytes() == batched[1][p].tobytes()
        for name in ("rows", "folded"):
            assert getattr(kernel, name).tobytes() == getattr(batched[2][p], name).tobytes()
        assert kernel.groups == batched[2][p].groups

    calls, build = [], composite._mixture_kernel
    monkeypatch.setattr(composite, "_mixture_kernel", lambda *a: calls.append(1) or build(*a))
    planned = composite_field(task, method, sched, setup, lp.t)
    alone = composite_field(task, method, sched, setup)
    theta = np.random.default_rng(6).standard_normal((16, 2))
    off_plan = [(0, 0.37), (3, float(lp.t[4]))]  # asked before levels 0 and 3 are handed out
    for p, t in off_plan + [(p, float(lp.t[p])) for p in range(lp.T - 1, -1, -1)]:
        assert planned(p, t)(theta, t).tobytes() == alone(p, t)(theta, t).tobytes()
    # the planned factory's one pass, and one set-up per level off the plan on either factory
    assert len(calls) == 1 + 2 * len(off_plan) + lp.T
    p, t = lp.T - 1, float(lp.t[lp.T - 1])  # a plan level asked for again is set up alone
    assert planned(p, t)(theta, t).tobytes() == alone(p, t)(theta, t).tobytes()


@pytest.mark.parametrize("kind", ["gmm_prior", "gmm_likelihood"])
def test_field_buffers_give_the_bytes_of_fresh_fields(kind, sched):
    # a field writes into buffers it owns: evaluated at a second batch, and at a second batch
    # size, it gives what a fresh field gives, and its output holds until its next call
    task, lp = _mixture_plan(kind, "linhart", sched)
    p, t = 2, float(lp.t[2])

    def fresh(theta):
        return composite_field(task, "linhart", sched, lp.setup, lp.t)(p, t)(theta, t).copy()

    rng = np.random.default_rng(8)
    batches = [rng.standard_normal((size, 2)) for size in (32, 32, 5)]
    field = composite_field(task, "linhart", sched, lp.setup, lp.t)(p, t)
    for theta in batches + batches[:1]:
        out = field(theta, t)
        held = out.copy()
        assert out.shape == theta.shape and out.tobytes() == fresh(theta).tobytes()
        assert out.tobytes() == held.tobytes()  # other fields' calls leave it as it was


def test_gaussian_consistency_linhart_equals_joint(sched):
    # with exact covariance proxies the weighted composite reproduces the
    # diffused multi-observation posterior score
    rng = np.random.default_rng(42)
    for n in (1, 2, 5):
        cov = rand_spd(rng, 3, 0.2, 2.0)
        task = gaussian_task(cov, rng.standard_normal((n, 3)))
        spec = spec_for_task(task, "linhart", sched)
        prior = lambda th, t: prior_score(task, th, t, sched)
        posts = [
            (lambda th, t, i=i: individual_posterior_score(task, i, th, t, sched))
            for i in range(n)
        ]
        for _ in range(20):
            theta = rng.standard_normal((4, 3)) * 2.0
            t = float(rng.uniform(1e-5, 1.0))
            got = linhart_score(spec, prior, posts, theta, t)
            ref = _joint_diffused_score(task, theta, t, sched)
            assert got == pytest.approx(ref, abs=1e-8)


def test_unweighted_composite_formula(sched):
    # (1 - n) * prior + sum of per-observation fields, checked literally
    n = 3
    spec = CompositeSpec("geffner", n, np.tile(np.eye(2), (n, 1, 1)), np.eye(2), sched)
    theta = np.random.default_rng(0).standard_normal((5, 2))
    prior = lambda th, t: -th
    posts = [lambda th, t, i=i: (i + 1.0) * th for i in range(n)]
    got = geffner_score(spec, prior, posts, theta, 0.5)
    expected = (1 - n) * (-theta) + (1 + 2 + 3) * theta
    assert got == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_composite_scores_linear_in_fields(method, sched):
    rng = np.random.default_rng(9)
    n = 3
    # tight per-observation proxies and a loose prior keep the mixing matrix SPD
    spec = CompositeSpec(
        method,
        n,
        np.array([rand_spd(rng, 2, 0.2, 0.4) for _ in range(n)]),
        np.eye(2),
        sched,
    )
    compose = geffner_score if method == "geffner" else linhart_score
    mats_a = [rng.standard_normal((2, 2)) for _ in range(n + 1)]
    mats_b = [rng.standard_normal((2, 2)) for _ in range(n + 1)]

    def fields(mats):
        prior = lambda th, t: th @ mats[0]
        posts = [lambda th, t, m=m: th @ m for m in mats[1:]]
        return prior, posts

    theta = rng.standard_normal((6, 2))
    t = 0.4
    pa, sa = fields(mats_a)
    pb, sb = fields(mats_b)
    psum, ssum = fields([ma + mb for ma, mb in zip(mats_a, mats_b)])
    left = compose(spec, psum, ssum, theta, t)
    right = compose(spec, pa, sa, theta, t) + compose(spec, pb, sb, theta, t)
    assert left == pytest.approx(right, abs=1e-12)


def test_compose_dsm_error_oracle():
    # (n - 1) * 0.1 + n * 0.2 with n = 3
    assert compose_dsm_error(0.1, 0.2, 3, "geffner") == pytest.approx(0.8, abs=1e-15)
    assert compose_dsm_error(0.1, 0.2, 3, "linhart") == pytest.approx(0.8, abs=1e-15)
    assert compose_dsm_error(0.0, 0.0, 5, "geffner") == 0.0
    with pytest.raises(ValueError):
        compose_dsm_error(-0.1, 0.2, 3, "geffner")
    with pytest.raises(ValueError):
        compose_dsm_error(0.1, 0.2, 0, "geffner")
    with pytest.raises(ValueError):
        compose_dsm_error(0.1, 0.2, 3, "other")


# d=10, n=30 with likelihood eigenvalues in [0.02, 0.1] is the benchmark's gaussian cell;
# its scores reach 2,600 at t=1e-5, so its bound is scaled by the largest score
@pytest.mark.parametrize(
    "method, d, n, lo, scaled",
    [pytest.param(m, 2, 4, 0.2, False, id=m) for m in ("geffner", "linhart")]
    + [pytest.param(m, 10, 30, 0.02, True, id=f"{m}-d10-n30") for m in ("geffner", "linhart")],
)
def test_field_factory_matches_direct_composition_gaussian(method, d, n, lo, scaled, sched):
    # the gaussian field is built from the bridge, so this is the check that the
    # mixture-kernel aggregation of the exact scores gives that same field
    rng = np.random.default_rng(4)
    task = gaussian_task(rand_spd(rng, d, lo, 5.0 * lo), rng.standard_normal((n, d)))
    spec = spec_for_task(task, method, sched)
    factory = composite_field(task, method, sched)
    prior = lambda th, t: prior_score(task, th, t, sched)
    posts = [
        (lambda th, t, i=i: individual_posterior_score(task, i, th, t, sched))
        for i in range(task.n)
    ]
    compose = geffner_score if method == "geffner" else linhart_score
    for t in (1e-5, 0.3, 0.9):
        field = factory(0, t)
        theta = rng.standard_normal((8, d)) * 1.5
        ref = compose(spec, prior, posts, theta, t)
        atol = 1e-9 * max(1.0, np.abs(ref).max()) if scaled else 1e-9
        assert field(theta, t) == pytest.approx(ref, abs=atol)


@pytest.mark.parametrize(
    "kind, d, n",  # n=1: the prior weight (1 - n) is zero
    [
        pytest.param(kind, d, n, id=f"{kind}-d{d}-n{n}")
        for kind in ("gmm_prior", "gmm_likelihood")
        for d in (2, 5)
        for n in (1, 5, 30)
    ],
)
@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_field_factory_matches_direct_composition_mixture(method, kind, d, n, sched):
    # the folded field, sum_j r_j (c_j - theta M_j), against the rule applied to
    # the per-observation posterior scores and the prior score
    rng = np.random.default_rng(14)
    if kind == "gmm_prior":
        means = np.zeros((2, d))
        means[1] = 1.0
        task = gmm_prior_task(rand_spd(rng, d, 0.05, 0.2), np.zeros((1, d)), prior_means=means)
    else:
        task = gmm_likelihood_task(np.zeros((1, d)), np.eye(d), cov_scales=(1.5, 0.5))
    task = dataclasses.replace(task, observations=simulate_observations(task, n, rng))
    spec = spec_for_task(task, method, sched)
    factory = composite_field(task, method, sched)
    prior = lambda th, t: prior_score(task, th, t, sched)
    posts = [
        (lambda th, t, i=i: individual_posterior_score(task, i, th, t, sched))
        for i in range(task.n)
    ]
    compose = geffner_score if method == "geffner" else linhart_score
    for t in (1e-3, 0.05, 0.5):
        field = factory(0, t)
        theta = rng.standard_normal((16, d)) + 0.5
        ref = compose(spec, prior, posts, theta, t)
        assert field(theta, t) == pytest.approx(ref, abs=1e-10 * np.abs(ref).max())


def test_methods_constant():
    from annealed_langevin import METHODS

    assert METHODS == ("geffner", "linhart")
