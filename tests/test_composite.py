from __future__ import annotations

import numpy as np
import pytest

from annealed_langevin import (
    CompositeSpec,
    Schedule,
    alpha,
    compose_dsm_error,
    composite_field,
    gaussian_task,
    geffner_score,
    gmm_prior_task,
    individual_posterior_score,
    lambda_matrix,
    linhart_score,
    posterior_moments,
    prior_score,
    spec_for_task,
)
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


def test_weight_matrices_need_positive_time(sched):
    task = gaussian_task(np.eye(2) * 0.5, np.zeros((2, 2)))
    spec = spec_for_task(task, "linhart", sched)
    with pytest.raises(ValueError, match="t > 0"):
        lambda_matrix(spec, 0.0)


def test_lambda_matrix_identity_design(sched):
    # when every proxy has covariance v/(v - alpha) I the mixing matrix is I
    t = 0.5
    a = alpha(sched, t)
    v_t = 1.0 - a
    c = v_t / (v_t - a)
    n = 4
    spec = CompositeSpec(
        "linhart", n, np.tile(c * np.eye(2), (n, 1, 1)), c * np.eye(2), sched
    )
    assert lambda_matrix(spec, t) == pytest.approx(np.eye(2), abs=1e-12)


def test_lambda_matrix_rejects_indefinite(sched):
    # huge prior precision with (1 - n) < 0 drives the combination indefinite
    n = 3
    spec = CompositeSpec(
        "linhart", n, np.tile(np.eye(2) * 10.0, (n, 1, 1)), np.eye(2) * 1e-4, sched
    )
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lambda_matrix(spec, 0.9)


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


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_field_factory_matches_direct_composition_gaussian(method, sched):
    rng = np.random.default_rng(4)
    task = gaussian_task(rand_spd(rng, 2, 0.2, 1.0), rng.standard_normal((4, 2)))
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
        theta = rng.standard_normal((8, 2)) * 1.5
        assert field(theta, t) == pytest.approx(compose(spec, prior, posts, theta, t), abs=1e-9)


@pytest.mark.parametrize("method", ["geffner", "linhart"])
def test_field_factory_matches_direct_composition_mixture(method, sched):
    rng = np.random.default_rng(14)
    task = gmm_prior_task(np.eye(2) * 0.1, rng.standard_normal((3, 2)))
    spec = spec_for_task(task, method, sched)
    factory = composite_field(task, method, sched)
    prior = lambda th, t: prior_score(task, th, t, sched)
    posts = [
        (lambda th, t, i=i: individual_posterior_score(task, i, th, t, sched))
        for i in range(task.n)
    ]
    compose = geffner_score if method == "geffner" else linhart_score
    for t in (0.05, 0.5):
        field = factory(0, t)
        theta = rng.standard_normal((6, 2))
        assert field(theta, t) == pytest.approx(compose(spec, prior, posts, theta, t), abs=1e-9)


def test_methods_constant():
    from annealed_langevin import METHODS

    assert METHODS == ("geffner", "linhart")
