"""Tests for brick algebra, isonormal sampling, and the entropy integral."""

import numpy as np
import pytest

from silt import (Brick, CovarianceOracle, FiniteCompact,
                  NotPositiveSemidefiniteError, brick_contains,
                  canonical_metric, coordinate_sup_profile, covering_brick,
                  dudley_estimate, isonormal_sample, minkowski_cover,
                  project_cover, rare_spike_weight, spike_gram, spike_grid)


def spike_skeleton(n_levels=6, n_points=5):
    w = rare_spike_weight(n_levels)
    coords = w.coordinate_values(np.arange(1.0, n_points + 1)).T  # f_1..f_n_points
    return w, FiniteCompact(points=coords, basis_label=w.basis_label)


# ---------------------------------------------------------------------------
# containment and covers
# ---------------------------------------------------------------------------

def test_contains_zero_vector():
    b = Brick(basis_label="e", eps_seq=np.array([0.5, 0.1, 0.0]))
    assert brick_contains(np.zeros(3), b)
    assert brick_contains(np.zeros(1), b)


def test_contains_boundary_non_strict():
    b = Brick(basis_label="e", eps_seq=np.array([0.5, 0.1]))
    assert brick_contains([0.5, 0.1], b)
    assert not brick_contains([0.5, 0.1 + 1e-9], b)


def test_contains_basis_mismatch():
    b = Brick(basis_label="e", eps_seq=np.array([0.5]))
    with pytest.raises(ValueError, match="basis mismatch"):
        brick_contains([0.1, 0.1], b)


def test_covering_brick_single_point_boundary():
    x = np.array([0.3, -0.7, 0.0])
    b = covering_brick(FiniteCompact(points=x[None]))
    np.testing.assert_array_equal(b.eps_seq, [0.3, 0.7, 0.0])
    assert brick_contains(x, b)


def test_covering_brick_hand_example():
    b = covering_brick(FiniteCompact(points=np.array([[1.0, 0.0], [0.0, 2.0]])))
    np.testing.assert_array_equal(b.eps_seq, [1.0, 2.0])


def test_covering_brick_contains_sample():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(1000, 6)) * rng.uniform(0.1, 2.0, size=6)
    b = covering_brick(FiniteCompact(points=pts))
    assert all(brick_contains(x, b) for x in pts)


def test_covering_brick_empty_rejected():
    with pytest.raises(ValueError):
        FiniteCompact(points=np.zeros((0, 3)))


def test_minkowski_zero_shift_identity():
    b = Brick(basis_label="e", eps_seq=np.array([1.0, 1.0]))
    np.testing.assert_array_equal(minkowski_cover(b, [0.0, 0.0]).eps_seq, b.eps_seq)


def test_minkowski_hand_example():
    b = Brick(basis_label="e", eps_seq=np.array([1.0, 1.0]))
    np.testing.assert_array_equal(minkowski_cover(b, [1.0, 0.0]).eps_seq, [2.0, 1.0])


def test_minkowski_segment_containment_sampled():
    rng = np.random.default_rng(7)
    eps = rng.uniform(0.0, 1.5, size=5)
    b = Brick(basis_label="e", eps_seq=eps)
    h = rng.normal(size=5)
    cover = minkowski_cover(b, h)
    x = rng.uniform(-1, 1, size=(2000, 5)) * eps
    t = rng.uniform(-1, 1, size=(2000, 1))
    assert all(brick_contains(v, cover) for v in x + t * h)


def test_project_cover_noop_and_hand_example():
    b = Brick(basis_label="e", eps_seq=np.array([3.0, 2.0, 1.0]))
    np.testing.assert_array_equal(project_cover(b, []).eps_seq, b.eps_seq)
    np.testing.assert_array_equal(project_cover(b, [0]).eps_seq, [0.0, 2.0, 1.0])


def test_project_cover_contains_projected_points():
    rng = np.random.default_rng(9)
    eps = np.array([1.0, 0.5, 2.0, 0.2])
    b = Brick(basis_label="e", eps_seq=eps)
    cover = project_cover(b, [1, 3])
    x = rng.uniform(-1, 1, size=(500, 4)) * eps
    x[:, [1, 3]] = 0.0
    assert all(brick_contains(v, cover) for v in x)


def test_project_cover_index_out_of_range():
    b = Brick(basis_label="e", eps_seq=np.array([1.0]))
    with pytest.raises(ValueError):
        project_cover(b, [3])


def test_brick_validation():
    with pytest.raises(ValueError):
        Brick(basis_label="e", eps_seq=np.array([-0.1]))


# ---------------------------------------------------------------------------
# isonormal sampling
# ---------------------------------------------------------------------------

def test_isonormal_single_point_variance():
    u = np.array([[0.8, -0.6, 0.3]])
    sample = isonormal_sample(FiniteCompact(points=u).gram(), 10_000, seed=2)
    var = sample.draws.var(ddof=1)
    assert abs(var - 1.09) <= 0.05 * 1.09  # ||u||^2 = 0.64 + 0.36 + 0.09


def test_isonormal_coincident_points_correlated():
    pts = np.array([[1.0, 0.5], [1.0, 0.5]])
    sample = isonormal_sample(FiniteCompact(points=pts).gram(), 5000, seed=3)
    corr = np.corrcoef(sample.draws.T)[0, 1]
    assert corr >= 0.999


def test_isonormal_empirical_covariance_frobenius():
    _, sk = spike_skeleton()
    sample = isonormal_sample(sk.gram(), 10_000, seed=3)
    G = spike_gram(6)[:5, :5]
    rel = np.linalg.norm(sample.empirical_covariance() - G) / np.linalg.norm(G)
    assert rel <= 0.05


def test_isonormal_canonical_metric_identity():
    # testable core of the embedding hypothesis: increment variances equal
    # squared canonical distances
    _, sk = spike_skeleton()
    sample = isonormal_sample(sk.gram(), 10_000, seed=3)
    dist = canonical_metric(spike_gram(6)[:5, :5])
    for i in range(5):
        for j in range(i + 1, 5):
            sq = (sample.draws[:, i] - sample.draws[:, j]) ** 2
            stderr = sq.std(ddof=1) / np.sqrt(sq.size)
            assert abs(sq.mean() - dist[i, j] ** 2) <= 5 * stderr


def test_isonormal_deterministic_and_validated():
    _, sk = spike_skeleton()
    a = isonormal_sample(sk.gram(), 100, seed=8)
    b = isonormal_sample(sk.gram(), 100, seed=8)
    assert np.array_equal(a.draws, b.draws)
    with pytest.raises(ValueError):
        isonormal_sample(sk.gram(), 1, seed=8)


def test_isonormal_rejects_indefinite_oracle():
    broken = CovarianceOracle(
        evaluator=lambda pts: np.where(np.eye(len(pts), dtype=bool), 0.1, -1.0))
    with pytest.raises((NotPositiveSemidefiniteError, ValueError)):
        isonormal_sample(broken.gram(np.array([[0.0, 0.0], [1.0, 0.0]])), 100, seed=1)
    with pytest.raises(NotPositiveSemidefiniteError):
        isonormal_sample(np.where(np.eye(2, dtype=bool), 0.1, -1.0), 100, seed=1)
    with pytest.raises(ValueError, match="square and symmetric"):
        isonormal_sample(np.eye(3)[:2], 100, seed=1)


def test_isonormal_oracle_route_matches_gram():
    _, sk = spike_skeleton()
    oracle = CovarianceOracle(evaluator=lambda pts: pts @ pts.T)
    sample = isonormal_sample(oracle.gram(sk.points), 500, seed=4)
    direct = isonormal_sample(sk.gram(), 500, seed=4)
    np.testing.assert_allclose(sample.draws, direct.draws, atol=1e-12)


# ---------------------------------------------------------------------------
# entropy integral
# ---------------------------------------------------------------------------

def test_dudley_single_point_zero():
    assert dudley_estimate(np.zeros((1, 1))) == 0.0


@pytest.mark.parametrize("d", [1.0, 0.37])
def test_dudley_two_points(d):
    metric = np.array([[0.0, d], [d, 0.0]])
    assert dudley_estimate(metric) == pytest.approx(d * np.sqrt(np.log(2)), rel=1e-12)


def test_dudley_validation():
    with pytest.raises(ValueError, match="symmetric"):
        dudley_estimate(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="zero diagonal"):
        dudley_estimate(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        dudley_estimate(np.zeros((2, 3)))


def test_dudley_spike_skeleton_finite_and_monotone_under_truncation():
    w = rare_spike_weight(30)
    ts = spike_grid(30, points_per_segment=3)
    coords = w.coordinate_values(ts).T
    full_metric = canonical_metric(coords @ coords.T)
    values = []
    for frac in (0.25, 0.5, 0.75, 1.0):
        m = max(2, int(len(ts) * frac))
        values.append(dudley_estimate(full_metric[:m, :m]))
    assert all(np.isfinite(values))
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# cross-module consistency
# ---------------------------------------------------------------------------

def test_weight_coordinates_lie_in_sup_covering_brick():
    # the profile sups define exactly the covering brick of the grid coordinates
    w = rare_spike_weight(15)
    grid = spike_grid(15)
    prof = coordinate_sup_profile(w, grid)
    coords = w.coordinate_values(grid).T
    cover = covering_brick(FiniteCompact(points=coords, basis_label=w.basis_label))
    np.testing.assert_allclose(cover.eps_seq**2, prof.sup_squares, atol=1e-14)
    assert all(brick_contains(x, cover) for x in coords)


def test_isonormal_sample_shape_validation():
    from silt import IsonormalSample
    with pytest.raises(ValueError):
        IsonormalSample(draws=np.zeros((10, 2)), gram=np.eye(3))
