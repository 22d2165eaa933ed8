"""Tests for planar path generation."""

import numpy as np
import pytest

from silt import sample_path, sample_path_points
from silt.path_sim import _jump_counter


def test_start_point_and_shape():
    p = sample_path(1024, seed=7)
    assert p.points.shape == (1025, 2)
    np.testing.assert_array_equal(p.points[0], [0.0, 0.0])


def test_reproducibility_bit_identical():
    a = sample_path(256, seed=12345)
    b = sample_path(256, seed=12345)
    assert np.array_equal(a.points, b.points)
    c = sample_path(256, seed=12346)
    assert not np.array_equal(a.points, c.points)


def test_streams_differ_and_batch_matches_single():
    batch = sample_path_points(64, seed=5, streams=range(4))
    assert np.array_equal(sample_path_points(64, seed=5, streams=np.arange(4)), batch)
    for i in range(4):
        single = sample_path(64, seed=5, stream=i)
        assert np.array_equal(batch[i], single.points)
    assert not np.array_equal(batch[0], batch[1])


@pytest.mark.parametrize("stream", [-1, 0, 1, 2**63, 2**64 - 1, 2**64 + 3, 2**127 + 11,
                                    2**128 + 5])
def test_stream_counter_is_the_jumped_state(stream):
    # the seed contract defines path i by Philox(key=seed).jumped(i)
    jumped = np.random.Philox(key=5).jumped(stream)
    built = np.random.Philox(key=5, counter=_jump_counter(stream))
    for name in ("counter", "key"):
        assert np.array_equal(jumped.state["state"][name], built.state["state"][name])
    steps = np.random.Generator(jumped).standard_normal((16, 2)) * np.sqrt(1 / 16)
    points = sample_path_points(16, seed=5, streams=[stream])[0]
    assert np.array_equal(points[1:], np.cumsum(steps, axis=0))


def test_terminal_norm_and_coordinate_means():
    # ensemble statistics of w(1): E||w(1)||^2 = 2, coordinate means ~ 0
    n_paths = 10_000
    ends = np.empty((n_paths, 2))
    for i in range(n_paths):
        rng = np.random.Generator(np.random.Philox(key=42).jumped(i))
        ends[i] = rng.standard_normal((4096, 2)).sum(axis=0) * np.sqrt(1 / 4096)
    nrm2 = (ends**2).sum(axis=1)
    stderr = nrm2.std(ddof=1) / np.sqrt(n_paths)
    assert abs(nrm2.mean() - 2.0) <= 3 * stderr
    assert np.all(np.abs(ends.mean(axis=0)) <= 4 / np.sqrt(n_paths))


def test_quadratic_variation():
    # chi-square concentration: QV ~ chi2_n / n, sd = sqrt(2/n) ~ 2.2% at n=4096
    p = sample_path(4096, seed=7)
    qv = (np.diff(p.points, axis=0) ** 2).sum(axis=0)
    assert np.all(np.abs(qv - 1.0) < 0.05)


def test_increment_independence():
    n_paths = 10_000
    pairs = np.empty((n_paths, 2))
    for i in range(n_paths):
        rng = np.random.Generator(np.random.Philox(key=99).jumped(i))
        inc = rng.standard_normal((8, 2)) * np.sqrt(1 / 8)
        pairs[i] = [inc[1, 0], inc[5, 0]]
    corr = np.corrcoef(pairs.T)[0, 1]
    assert abs(corr) <= 4 / np.sqrt(n_paths)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        sample_path(0, seed=1)
    with pytest.raises(ValueError):
        sample_path(16, seed=-1)
    with pytest.raises(ValueError):
        sample_path(16, seed=2**64)


def test_path_points_read_only():
    p = sample_path(16, seed=1)
    with pytest.raises(ValueError):
        p.points[0, 0] = 1.0
