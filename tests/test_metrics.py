from __future__ import annotations

import numpy as np
import pytest

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

