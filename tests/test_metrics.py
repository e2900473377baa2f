from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from annealed_langevin import metrics
from annealed_langevin import (
    GaussianDist,
    SampleSet,
    W2Report,
    empirical_w2,
    gaussian_w2,
)
from conftest import rand_spd


def _pts(array, seed=0):
    return SampleSet(points=np.asarray(array, dtype=float), level=0.0, seed=seed)


def _gauss_draws(dist: GaussianDist, count: int, seed: int) -> SampleSet:
    rng = np.random.default_rng(seed)
    return _pts(dist.sample(count, rng), seed=seed)


def _oracle_w2(a: np.ndarray, b: np.ndarray) -> float:
    """W2 from the plain squared-distance assignment, with a sorted matched-cost sum."""
    cost = cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(np.sort(cost[rows, cols]).sum() / len(a)))


def _geometry_pair(geometry: str, count: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, d))
    b = rng.standard_normal((count, d)) + 0.5
    if geometry == "identical":  # a degenerate fit: zero covariance
        a = np.tile(a[0], (count, 1))
    elif geometry == "far":  # both clouds about 1e3 from the origin
        offset = 1e3 * rng.standard_normal(d) / np.sqrt(d)
        a, b = a + offset, b + offset
    elif geometry == "overdispersed":  # the sampler's typical miss: too wide, same centre
        a, b = 1.3 * a, b - 0.5
    elif geometry == "bimodal":  # two modes against one Gaussian fit
        a[:, 0] += np.where(rng.random(count) < 0.5, -3.0, 3.0)
    return a, b


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(["gaussian", "identical", "far", "overdispersed", "bimodal"]),
    count=st.integers(1, 256),
    d=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
@example(geometry="gaussian", count=1, d=3, seed=0)
@example(geometry="gaussian", count=4, d=10, seed=1)
@example(geometry="identical", count=64, d=2, seed=2)
@example(geometry="far", count=200, d=5, seed=3)
@example(geometry="overdispersed", count=256, d=2, seed=4)
@example(geometry="bimodal", count=256, d=2, seed=5)
def test_potential_start_keeps_the_exact_assignment(geometry, count, d, seed):
    # the Gaussian fits' potential only shifts every assignment's total by one
    # constant, so any geometry, degenerate fits included, gives the plain
    # solve's value; under -W error a divide or invalid-value warning fails too
    a, b = _geometry_pair(geometry, count, d, seed)
    got = empirical_w2(_pts(a, seed=1), _pts(b, seed=2)).value
    assert got == pytest.approx(_oracle_w2(a, b), rel=1e-12, abs=0.0)


def test_potential_start_is_bitwise_at_the_benchmark_shape():
    # 1024 points in d=2, the sampler's set wider than the reference
    rng = np.random.default_rng(11)
    a = 1.3 * rng.standard_normal((1024, 2))
    b = rng.standard_normal((1024, 2))
    assert empirical_w2(_pts(a, seed=1), _pts(b, seed=2)).value == _oracle_w2(a, b)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 17, 50])
@pytest.mark.parametrize("count", [1, 64, 1000])
def test_blockwise_matched_costs_are_the_full_matrix_entries(monkeypatch, count, d):
    # the matched costs are read with cdist on 64 pairs at a time, with a
    # ragged last block; the distance is bit for bit the full matrix's read
    solved = []

    def recording_solver(cost):
        rows, cols = linear_sum_assignment(cost)
        solved.append((rows, cols))
        return rows, cols

    monkeypatch.setattr(metrics, "linear_sum_assignment", recording_solver)
    rng = np.random.default_rng(count * 100 + d)
    a, b = rng.standard_normal((count, d)), 3.0 * rng.standard_normal((count, d)) + 1.0
    got = empirical_w2(_pts(a, seed=1), _pts(b, seed=2)).value
    (rows, cols), = solved
    matched = np.sort(cdist(a, b, "sqeuclidean")[rows, cols])
    assert got == math.sqrt(max(float(matched.sum()) / count, 0.0))


def test_single_point_oracle():
    # one point each: W2 is the plain Euclidean distance, here a 3-4-5 triangle
    report = empirical_w2(_pts([[0.0, 0.0]]), _pts([[3.0, 4.0]]))
    assert report.value == pytest.approx(5.0, abs=1e-14)
    assert report.method == "exact_assignment"
    assert report.sizes == (1, 1)
    assert report.subsample_seed is None  # nothing was subsampled


def test_matching_ignores_input_order():
    a = _pts([[0.0, 0.0], [1.0, 0.0]])
    b = _pts([[1.0, 0.0], [0.0, 0.0]])
    assert empirical_w2(a, b).value == pytest.approx(0.0, abs=0.0)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 3))
    other = rng.standard_normal((40, 3))
    base = empirical_w2(_pts(pts), _pts(other)).value
    shuffled = _pts(pts[rng.permutation(40)])
    assert empirical_w2(shuffled, _pts(other)).value == pytest.approx(base, rel=1e-12)


def test_two_point_assignment_oracle():
    # optimal matching pairs nearest points: sqrt((1 + 1) / 2) = 1
    a = _pts([[0.0, 0.0], [10.0, 0.0]])
    b = _pts([[0.0, 1.0], [10.0, -1.0]])
    assert empirical_w2(a, b).value == pytest.approx(1.0, rel=1e-12)


def test_symmetry_exact_with_subsampling():
    rng = np.random.default_rng(5)
    a = _pts(rng.standard_normal((300, 2)), seed=1)
    b = _pts(rng.standard_normal((257, 2)) + 0.3, seed=2)
    fwd = empirical_w2(a, b, cap=128)
    bwd = empirical_w2(b, a, cap=128)
    assert fwd.value == bwd.value  # bitwise, sorted matched costs
    assert fwd.subsample_seed == 0
    assert fwd.sizes == (300, 257) and bwd.sizes == (257, 300)


def test_subsample_seed_changes_estimate_not_scale():
    rng = np.random.default_rng(6)
    a = _pts(rng.standard_normal((400, 2)), seed=3)
    b = _pts(rng.standard_normal((400, 2)) + 1.0, seed=4)
    v0 = empirical_w2(a, b, cap=64, subsample_seed=0).value
    v1 = empirical_w2(a, b, cap=64, subsample_seed=1).value
    assert v0 != v1
    assert abs(v0 - v1) < 0.5 * v0


def test_triangle_inequality_on_small_sets():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = _pts(rng.standard_normal((48, 2)))
        b = _pts(rng.standard_normal((48, 2)) + rng.normal(size=2))
        c = _pts(rng.standard_normal((48, 2)) - rng.normal(size=2))
        ab = empirical_w2(a, b).value
        bc = empirical_w2(b, c).value
        ac = empirical_w2(a, c).value
        assert ac <= ab + bc + 1e-9


def test_empirical_matches_gaussian_closed_form():
    rng = np.random.default_rng(8)
    for pair_seed in range(3):
        cov_a = rand_spd(rng, 2, 0.5, 2.0)
        cov_b = rand_spd(rng, 2, 0.5, 2.0)
        da = GaussianDist(rng.standard_normal(2), cov_a)
        db = GaussianDist(rng.standard_normal(2) + 2.0, cov_b)
        exact = gaussian_w2(da, db)
        est = empirical_w2(
            _gauss_draws(da, 2048, 10 + pair_seed), _gauss_draws(db, 2048, 90 + pair_seed)
        ).value
        assert est == pytest.approx(exact, rel=0.07)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        empirical_w2(_pts([[0.0, 0.0]]), _pts([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        empirical_w2(_pts([[0.0, 0.0]]), _pts([[1.0, 2.0]]), cap=0)


def test_report_validation():
    with pytest.raises(ValueError):
        W2Report(value=-1.0, method="exact_assignment", sizes=(1, 1))

