"""Tests for the simplex functionals, renormalization, and Monte Carlo layer."""

import itertools
import math
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from conftest import brute_force_simplex, lattice_mean_double

import silt
import silt.slt_core as slt_core
from silt import (EnsembleConfig, PlanarPath, RadialParameterMap, ScalarWeight,
                  cauchy_diagnostic, double_mean, dynkin_renormalize,
                  ensemble_renormalized, rare_spike_weight, renorm_double_mean, sample_path,
                  sample_path_points, simplex_functional, simplex_levels)
from silt.slt_core import RENORM_DOUBLE_LIMIT, STRIP_ROWS, MCStats

UNIT = ScalarWeight.constant(1.0)
ZERO = ScalarWeight.constant(0.0)


# ---------------------------------------------------------------------------
# kernel values of the sweep
# ---------------------------------------------------------------------------

def _pair_kernel(ys, epsilon):
    """g_eps(y) for each row y, from paths whose only node pair is (0, y): n = 2."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    pts = np.zeros((len(ys), 3, 2))
    pts[:, 1] = ys
    levels = simplex_levels(pts, np.ones((len(ys), 1, 2)), [epsilon], 2)
    return 4.0 * levels[:, 0, 0, 1]  # undo the grid weight (1/n)^2


def test_kernel_peak_value():
    assert _pair_kernel((0.0, 0.0), 0.5)[0] == pytest.approx(1 / np.pi, rel=1e-14)


def test_kernel_hand_value():
    assert _pair_kernel((1.0, 1.0), 1.0)[0] == pytest.approx(np.exp(-1) / (2 * np.pi), rel=1e-14)


@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_kernel_normalization(eps):
    # polar reduction: integral over the plane of the kernel = 1
    val, _ = integrate.quad(lambda r: r / eps * np.exp(-r * r / (2 * eps)), 0, 40 * np.sqrt(eps))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_kernel_bound():
    rng = np.random.default_rng(0)
    ys = rng.normal(size=(1000, 2))
    vals = _pair_kernel(ys, 0.3)
    assert np.all(vals <= 1 / (2 * np.pi * 0.3))
    assert _pair_kernel((0.0, 0.0), 0.3)[0] == 1 / (2 * np.pi * 0.3)


def test_kernel_epsilon_validation():
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="epsilon"):
            _pair_kernel((0.0, 0.0), eps)


# ---------------------------------------------------------------------------
# simplex functionals
# ---------------------------------------------------------------------------

def test_degenerate_path_counts_pairs():
    # all nodes at the origin: value = C(n,2) (1/n^2) / (2 pi eps)
    n, eps = 32, 0.7
    pts = np.zeros((n + 1, 2))
    p = PlanarPath(n_steps=n, points=pts)
    est = simplex_functional(p, UNIT, eps, 2)
    expected = (n * (n - 1) / 2) / n**2 / (2 * np.pi * eps)
    assert est.value == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.5 / (2 * np.pi * eps), rel=0.05)


def test_k1_is_unit_riemann_sum():
    p = sample_path(128, seed=2)
    est = simplex_functional(p, UNIT, 0.3, 1)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_three_node_hand_computation():
    pts = np.array([[0.0, 0.0], [0.3, -0.4], [1.0, 0.5]])
    p = PlanarPath(n_steps=2, points=pts)
    # nodes {0, 1}: single ordered pair (0, 1), weight 1/4
    eps = 0.8
    d = pts[1] - pts[0]
    hand = 0.25 * np.exp(-(d @ d) / (2 * eps)) / (2 * np.pi * eps)
    est = simplex_functional(p, UNIT, eps, 2)
    assert est.value == pytest.approx(hand, rel=1e-13)


@pytest.mark.parametrize("n,k", [(16, 2), (16, 3), (48, 2), (48, 3)])
def test_oracle_equivalence(n, k):
    rho = ScalarWeight(evaluator=lambda u: 1.0 + 0.5 * np.sin(u[:, 0]) + 0.25 * u[:, 1] ** 2)
    for stream in range(5):
        p = sample_path(n, seed=31, stream=stream)
        vals = rho.values(p.points[:n])
        oracle = brute_force_simplex(p.points, vals, 0.4, k)
        est = simplex_functional(p, rho, 0.4, k)
        assert abs(est.value - oracle) <= 1e-12 * abs(oracle)


def _dense_levels(points, rho, eps, k):
    """Levels 2..k from the dense float64 pair matrix U = triu(K, 1):
    level 2 = rho^T U 1 / n^2, level 3 = rho^T U U 1 / n^3."""
    n = len(points) - 1
    diff = points[None, :n] - points[:n, None]
    sq = np.sum(diff * diff, axis=-1)
    U = np.triu(np.exp(-sq / (2.0 * eps)) / (2.0 * np.pi * eps), 1)
    vec, levels = np.ones(n), []
    for level in range(2, k + 1):
        vec = U @ vec
        levels.append(rho @ vec / n**level)
    return np.stack(levels, axis=-1)  # (M, k - 1)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [STRIP_ROWS - 1, STRIP_ROWS, STRIP_ROWS + 1, 3 * STRIP_ROWS + 5])
def test_strip_edges_match_dense_oracle(n, k):
    pts = sample_path_points(n, 13, [0])
    rho = 0.5 + np.random.default_rng(n).random((1, 3, n))
    eps = [0.3, 0.05]
    levels = simplex_levels(pts, rho, eps, k)
    for e, epsilon in enumerate(eps):
        oracle = _dense_levels(pts[0], rho[0], epsilon, k)
        np.testing.assert_allclose(levels[0, :, e, 1:], oracle, rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [STRIP_ROWS - 1, STRIP_ROWS + 1, 3 * STRIP_ROWS + 5])
def test_signed_weight_rows_match_dense_oracle(n, k):
    # mixed signs cancel, so the rounding is bounded by the oracle of |rho|
    pts = sample_path_points(n, 17, [0])
    rho = np.random.default_rng(n).normal(size=(1, 3, n))
    eps = [0.3, 0.05]
    levels = simplex_levels(pts, rho, eps, k)
    for e, epsilon in enumerate(eps):
        oracle = _dense_levels(pts[0], rho[0], epsilon, k)
        scale = _dense_levels(pts[0], np.abs(rho[0]), epsilon, k)
        assert np.all(np.abs(levels[0, :, e, 1:] - oracle) <= 1e-12 * scale)


def _excursion_points(n, streams):
    """Paths whose nodes n - 64..n - 33 (block 1 of the reversed path) are moved
    3 to the right: at eps = 2e-4 the sweep skips that block against the
    others, at eps = 0.3 it skips none."""
    pts = sample_path_points(n, 13, streams)
    pts[:, n - 2 * STRIP_ROWS:n - STRIP_ROWS, 0] += 3.0
    return pts


def _kernel_counts(points, eps, dtype):
    """Kernel values the sweep evaluates for one path at each scale, by a direct call."""
    n, eps = len(points) - 1, np.asarray(eps, dtype=float)
    count = np.zeros(len(eps), dtype=np.int64)
    X = np.empty((len(eps), n))
    assert slt_core._SWEEP[np.dtype(dtype)](n, len(eps), 2, points, -0.5 / eps, X, count) == 0
    return count


def _live_pair_count(points, epsilon, dtype):
    """Pairs of the head squares plus those of every (strip, later block) pair
    whose bounding boxes are not beyond the exp floor at ``epsilon``."""
    n = len(points) - 1
    reversed_nodes = points[n - 1::-1]
    blocks = [reversed_nodes[lo:lo + STRIP_ROWS] for lo in range(0, n, STRIP_ROWS)]
    floor = dtype(math.log(float(np.finfo(dtype).tiny)) + 1.0)
    count = sum(len(b) * (len(b) - 1) // 2 for b in blocks)
    for strip, block in itertools.combinations(blocks, 2):
        gap = (np.maximum(block.min(axis=0) - strip.max(axis=0), 0.0)
               + np.maximum(strip.min(axis=0) - block.max(axis=0), 0.0))
        if not dtype(-0.5 / epsilon * (gap[0] * gap[0] + gap[1] * gap[1])) < floor:
            count += len(strip) * len(block)
    return count


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("M", [1, 3, 30])
def test_weights_meet_chain_sums_in_sequential_order(M, k, dtype):
    # the CSV bytes rest on this order: level l of weight m at scale e is
    # sum_j rho[m, n-1-j] X[q, j], q = e (k-1) + l - 2, summed from j = 0 up in
    # float64; a reordered or blocked sum (BLAS) moves the last bits
    n, eps = 3 * STRIP_ROWS + 5, np.array([0.3, 0.05])
    pts = sample_path_points(n, 13, [0])
    rho = np.random.default_rng(M * k).normal(size=(1, M, n))
    if M > 1:  # one row NaN at one node, one row zero, the others plain
        rho[0, 0] = 0.0
        rho[0, M - 1, 7] = np.nan
    levels = simplex_levels(pts, rho, eps, k, dtype)
    X = np.empty((len(eps) * (k - 1), n))
    assert slt_core._SWEEP[np.dtype(dtype)](n, len(eps), k, pts[0], -0.5 / eps, X,
                                            np.zeros(len(eps), dtype=np.int64)) == 0
    expected = np.empty((M, len(eps), k - 1))
    for m in range(M):
        for q in range(len(eps) * (k - 1)):
            s = 0.0
            for j in range(n):
                s += rho[0, m, n - 1 - j] * X[q, j]
            e, l = divmod(q, k - 1)
            expected[m, e, l] = s * ((1.0 / n) ** (l + 2) / (2.0 * np.pi * eps[e]) ** (l + 1))
    np.testing.assert_array_equal(levels[0, :, :, 1:], expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_kernel_counts_follow_the_block_rule(dtype):
    # a prune that never fired would pass every test of the levels
    n, eps = 3 * STRIP_ROWS + 5, [0.3, 2e-4]
    pts = _excursion_points(n, [0])[0]
    count = _kernel_counts(pts, eps, dtype)
    assert count[0] == n * (n - 1) // 2 == _live_pair_count(pts, eps[0], dtype)
    assert count[1] == _live_pair_count(pts, eps[1], dtype) < n * (n - 1) // 2


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-4)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_skipped_blocks_match_dense_oracle(k, dtype, rtol):
    # blocks skipped at eps = 2e-4 are swept at 0.3; float32's rtol is that of
    # test_underflowing_kernel_matches_dense_oracle
    n, eps = 3 * STRIP_ROWS + 5, [0.3, 2e-4]
    pts = _excursion_points(n, [0])
    count = _kernel_counts(pts[0], eps, dtype)
    assert count[1] < count[0] == n * (n - 1) // 2
    rho = 0.5 + np.random.default_rng(n).random((1, 3, n))
    levels = simplex_levels(pts, rho, eps, k, dtype)
    for e, epsilon in enumerate(eps):
        oracle = _dense_levels(pts[0], rho[0], epsilon, k)
        np.testing.assert_allclose(levels[0, :, e, 1:], oracle, rtol=rtol, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_scales_do_not_change_each_other(k, dtype):
    # each scale's levels are bit for bit those of a sweep at that scale alone,
    # also where the sweep skips blocks at one scale and not at the other
    n = 3 * STRIP_ROWS + 5
    rho = 0.5 + np.random.default_rng(n).random((2, 3, n))
    for pts, eps in [(sample_path_points(n, 13, [0, 1]), [0.3, 0.05]),
                     (_excursion_points(n, [0, 1]), [0.3, 2e-4])]:
        joint = simplex_levels(pts, rho, eps, k, dtype)
        for e, epsilon in enumerate(eps):
            alone = simplex_levels(pts, rho, [epsilon], k, dtype)
            assert np.array_equal(joint[:, :, e], alone[:, :, 0])


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-4)])
def test_underflowing_kernel_matches_dense_oracle(dtype, rtol):
    # at eps = 2e-4 the far pairs' kernel exponents lie below the sweep's
    # floor (one above the log of the smallest normal number) in both dtypes;
    # float32 rounds exponents of up to ~50 at the near pairs, hence its rtol
    n, eps = 3 * STRIP_ROWS + 5, [0.3, 2e-4]
    pts = sample_path_points(n, 13, [0])
    diff = pts[0, None, :n] - pts[0, :n, None]
    reach = np.max(np.sum(diff * diff, axis=-1))
    assert reach / (2.0 * eps[1]) > 1.0 - np.log(np.finfo(np.float64).tiny)
    rho = 0.5 + np.random.default_rng(n).random((1, 3, n))
    levels = simplex_levels(pts, rho, eps, 3, dtype)
    for e, epsilon in enumerate(eps):
        oracle = _dense_levels(pts[0], rho[0], epsilon, 3)
        np.testing.assert_allclose(levels[0, :, e, 1:], oracle, rtol=rtol, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_nan_node_reaches_levels(dtype):
    # a NaN node must spoil the pair sums it enters, never vanish in the exp
    # floor or in a skipped block.  In the second case node 0 alone makes up
    # the reversed path's last block, so it enters no head square; moved 100
    # away, as on the NaN-free path, that block is skipped at every scale
    for n, node, eps in [(3 * STRIP_ROWS + 5, 10, [0.3, 0.05]),
                         (3 * STRIP_ROWS + 1, 0, [0.3, 2e-4])]:
        pts = sample_path_points(n, 13, [0, 1])
        pts[0, node] = np.nan
        if node == 0:
            pts[1, node] += 100.0
            count = _kernel_counts(pts[1], eps, dtype)
            assert count[1] <= count[0] == n * (n - 1) // 2 - (n - 1)
        rho = 0.5 + np.random.default_rng(n).random((2, 1, n))
        levels = simplex_levels(pts, rho, eps, 3, dtype)
        assert np.all(np.isnan(levels[0, :, :, 1:]))
        assert np.all(np.isfinite(levels[0, :, :, 0])) and np.all(np.isfinite(levels[1]))


def test_translated_path_matches_dense_oracle():
    # the sweep forms each exponent from the coordinate differences, so an
    # offset of 1e3 from the origin costs no digits; a Gram form on raw
    # coordinates would lose about six digits of every exponent to it
    n, eps = 3 * STRIP_ROWS + 5, [0.3, 0.05]
    pts = sample_path_points(n, 13, [0]) + np.array([1e3, -1e3])
    rho = 0.5 + np.random.default_rng(n).random((1, 3, n))
    levels = simplex_levels(pts, rho, eps, 3)
    for e, epsilon in enumerate(eps):
        oracle = _dense_levels(pts[0], rho[0], epsilon, 3)
        np.testing.assert_allclose(levels[0, :, e, 1:], oracle, rtol=1e-12, atol=0)


@mock.patch.object(slt_core, "BATCH_PATHS", 2)
def test_hilbert_levels_independent_of_workers():
    n = 3 * STRIP_ROWS + 5
    weight = rare_spike_weight(3).compose(RadialParameterMap(t_max=3.0))
    runs = [ensemble_renormalized(EnsembleConfig(n_paths=8, n_steps=n, seed=4, workers=w),
                                  [0.2], 3, weight)
            for w in (1, 2)]
    assert runs[0].levels.shape == (8, 3, 1, 3)
    assert np.array_equal(runs[0].levels, runs[1].levels)


def test_float32_levels_within_1e7_of_float64():
    # unit weight at the pinned grid size; float32 rounds the kernel values and
    # every level's 32-row strip products
    kw = dict(eps_list=[0.1, 0.02], k=3, rho=UNIT)
    a, b = (ensemble_renormalized(EnsembleConfig(n_paths=2, n_steps=4096, seed=5, workers=1,
                                                 dtype=dt), **kw).levels
            for dt in ("float32", "float64"))
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-7


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(0.02, 0.3), data=st.data(), k=st.integers(2, 4), m=st.integers(1, 4),
       stream=st.integers(0, 2**16), offset=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_float32_levels_within_1e7_of_float64_on_resolved_grids(eps, data, k, m, stream, offset):
    # the bound holds on grids with n >= 10 / eps wherever the path lies, for
    # positive weights: at most 3.3e-8 over 400 draws, and 6.3e-8 over 4,500
    # draws within ten steps of 10 / eps at k = 4 (see README)
    n = data.draw(st.integers(math.ceil(10 / eps), 1024), label="n")
    pts = sample_path_points(n, 11, [stream]) + np.array(offset)
    rho = 0.5 + np.random.default_rng(stream).random((1, m, n))
    a, b = (simplex_levels(pts, rho, [eps], k, dt) for dt in (np.float32, np.float64))
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-7


def test_float32_levels_within_1e7_of_float64_on_a_smallest_grid():
    # a draw of the property above with n = ceil(10 / eps) at k = 4, seed 11:
    # float32 Gram-form exponents put level 4 at 1.3e-7 from float64, the
    # float64 difference form at 2.3e-8
    eps, n, stream = 0.25912253997571666, 39, 3323
    pts = sample_path_points(n, 11, [stream])
    rho = 0.5 + np.random.default_rng(stream).random((1, 2, n))
    a, b = (simplex_levels(pts, rho, [eps], 4, dt) for dt in (np.float32, np.float64))
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-7


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0), n=st.integers(2, 48),
       k=st.integers(1, 3), stream=st.integers(0, 2**16))
def test_linearity_in_weight(a, b, n, k, stream):
    # nonnegative parts, so that a * va + b * vb bounds the rounding of every term
    p = sample_path(n, seed=8, stream=stream)
    f = ScalarWeight(evaluator=lambda u: 1.0 + 0.5 * np.sin(u[:, 0]))
    g = ScalarWeight(evaluator=lambda u: u[:, 1] ** 2)
    combo = ScalarWeight(evaluator=lambda u: a * (1.0 + 0.5 * np.sin(u[:, 0])) + b * u[:, 1] ** 2)
    va, vb, vc = (simplex_functional(p, w, 0.3, k).value for w in (f, g, combo))
    assert abs(vc - (a * va + b * vb)) <= 1e-12 * (abs(a * va) + abs(b * vb)) + 1e-290


def test_simplex_validation_and_guard():
    p = sample_path(64, seed=8)
    with pytest.raises(ValueError):
        simplex_functional(p, UNIT, 0.3, 0)
    with pytest.raises(ValueError):
        simplex_functional(p, UNIT, 0.0, 2)


def test_simplex_functional_refuses_a_weight_of_several_coordinates():
    p = sample_path(16, seed=8)
    spike = rare_spike_weight(4).compose(RadialParameterMap(t_max=4.0))
    with pytest.raises(ValueError, match="one weight coordinate, got 4"):
        simplex_functional(p, spike, 0.3, 2)


# ---------------------------------------------------------------------------
# renormalization
# ---------------------------------------------------------------------------

def test_renormalize_k1_identity():
    assert dynkin_renormalize([3.7], 0.25) == pytest.approx(3.7, rel=0, abs=0)


def test_renormalize_k3_hand_expansion():
    # at eps = e^(-2 pi) the log factor is -1; binomials 1, 2, 1
    eps = np.exp(-2 * np.pi)
    t = [1.5, -0.5, 2.0]
    assert dynkin_renormalize(t, eps) == pytest.approx(t[2] - 2 * t[1] + t[0], rel=1e-12)


def test_renormalize_eps_one_kills_lower_terms():
    t = [9.0, 7.0, 5.0, 3.0]
    assert dynkin_renormalize(t, 1.0) == 3.0


def test_renormalize_length_mismatch():
    with pytest.raises(ValueError):
        dynkin_renormalize([1.0, 2.0], 0.5, k=3)


@settings(max_examples=50, deadline=None)
@given(c=st.floats(-10.0, 10.0), eps=st.floats(1e-6, 1.0), k=st.integers(1, 8))
def test_renormalize_constant_levels(c, eps, k):
    # binomial theorem: sum_l C(k-1, l-1) L^(k-l) c = c (1 + L)^(k-1), L = ln(eps) / 2 pi
    log_fac = np.log(eps) / (2 * np.pi)
    scale = abs(c) * (1 + abs(log_fac)) ** (k - 1)
    got = dynkin_renormalize([c] * k, eps)
    assert abs(got - c * (1 + log_fac) ** (k - 1)) <= 1e-12 * scale + 1e-290


def test_renormalize_vectorized():
    t = np.arange(12.0).reshape(4, 3)
    out = dynkin_renormalize(t, 0.5)
    assert out.shape == (4,)
    assert out[1] == pytest.approx(dynkin_renormalize(t[1], 0.5))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_double_mean_against_quadrature():
    # independent oracle: direct 2-D quadrature over the ordered triangle
    for eps in (0.1, 0.05, 0.02, 0.01):
        quad, _ = integrate.dblquad(
            lambda t2, t1: 1.0 / (2 * np.pi * (t2 - t1 + eps)),
            0, 1, lambda t1: t1, lambda t1: 1.0, epsabs=1e-12, epsrel=1e-12)
        assert double_mean(eps) == pytest.approx(quad, abs=1e-9)
    assert double_mean(0.01) == pytest.approx(0.5827094925604, abs=1e-9)
    assert renorm_double_mean(0.01) == pytest.approx(-0.1502261062889, abs=1e-9)


def test_renorm_double_mean_limit():
    assert abs(renorm_double_mean(1e-6) - RENORM_DOUBLE_LIMIT) < 1e-4


def test_closed_form_validation():
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError):
            double_mean(eps)


# ---------------------------------------------------------------------------
# Monte Carlo layer
# ---------------------------------------------------------------------------

def test_zero_weight_statistics_exact():
    stats = ensemble_renormalized(EnsembleConfig(n_paths=50, n_steps=64, seed=1),
                                  [0.2], 2, ZERO).stats()
    assert stats.mean == 0.0
    assert stats.variance == 0.0
    assert stats.abs_moments == {1: 0.0, 2: 0.0, 4: 0.0}


def test_estimate_matches_oracle_two_seeds():
    oracle = renorm_double_mean(0.1)
    for seed in (123, 124):
        cfg = EnsembleConfig(n_paths=2000, n_steps=1024, seed=seed)
        stats = ensemble_renormalized(cfg, [0.1], 2, UNIT).stats()
        assert stats.mean < 0  # the renormalized double functional has negative mean
        assert abs(stats.mean - oracle) <= 3 * stats.stderr
    a, b = (ensemble_renormalized(EnsembleConfig(n_paths=200, n_steps=256, seed=seed),
                                  [0.1], 2, UNIT).stats() for seed in (123, 124))
    assert a.mean != b.mean


def test_estimate_matches_exact_lattice_mean():
    # the discrete estimator's exact mean separates Monte Carlo error from
    # discretization bias
    n = 512
    stats = ensemble_renormalized(EnsembleConfig(n_paths=3000, n_steps=n, seed=55),
                                  [0.1], 2, UNIT).stats()
    lattice = lattice_mean_double(n, 0.1) + np.log(0.1) / (2 * np.pi)
    assert abs(stats.mean - lattice) <= 3 * stats.stderr


def grid_level_means(n, epsilon, k):
    """Exact means E[T_hat(eps, l)], l = 1..k, of the unit-weight grid functional.

    Increments over disjoint cells are independent, so a node pair at gap d
    has kernel mean h(d) = 1/(2 pi (eps + d/n)) and an ordered tuple the
    product over its gaps.  With c_l the (l-1)-fold convolution of h over gaps
    d >= 1 and n - D tuples of span D, E[T_hat(eps, l)] = n^-l sum_D (n - D) c_l(D).
    """
    d = np.arange(n)
    h = np.zeros(n)
    h[1:] = 1.0 / (2.0 * np.pi * (epsilon + d[1:] / n))
    c = np.zeros(n)
    c[0] = 1.0
    means = []
    for level in range(1, k + 1):
        if level > 1:
            c = np.convolve(c, h)[:n]
        means.append(float(np.sum((n - d) * c) / n**level))
    return means


@pytest.mark.parametrize("n,eps", [(9, 0.3), (12, 0.05)])
def test_grid_level_means_match_tuple_sum(n, eps):
    def h(d):
        return 1.0 / (2.0 * math.pi * (eps + d / n))

    brute = []
    for level in range(1, 5):
        total = 0.0
        for tup in itertools.combinations(range(n), level):
            total += math.prod(h(b - a) for a, b in zip(tup, tup[1:]))
        brute.append(total / n**level)
    np.testing.assert_allclose(grid_level_means(n, eps, 4), brute, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n,eps", [(1024, 0.1), (1024, 0.02), (4096, 0.005)])
def test_grid_double_mean_sits_one_over_4pi_n_eps_below_continuum(n, eps):
    grid = grid_level_means(n, eps, 2)[1]
    assert grid == pytest.approx(lattice_mean_double(n, eps), rel=1e-13)
    gap = double_mean(eps) - grid
    assert gap * 4.0 * np.pi * n * eps == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("k,n,eps", [(3, 200, 0.05), (4, 128, 0.1)])
def test_higher_levels_match_grid_exact_means(k, n, eps):
    cfg = EnsembleConfig(n_paths=3000, n_steps=n, seed=31, workers=1, dtype="float64")
    result = ensemble_renormalized(cfg, [eps], k, UNIT)
    exact = grid_level_means(n, eps, k)
    for level in range(2, k + 1):
        stats = result.level_stats(level)
        assert abs(stats.mean - exact[level - 1]) <= 3 * stats.stderr


def test_mcstats_invariants():
    stats = ensemble_renormalized(EnsembleConfig(n_paths=500, n_steps=128, seed=4),
                                  [0.2], 2, UNIT).stats()
    assert stats.stderr == pytest.approx(np.sqrt(stats.variance / 500), rel=1e-12)
    assert stats.abs_moments[2] >= stats.mean**2
    with pytest.raises(ValueError):
        MCStats.from_samples([1.0])


def test_mcstats_rejects_moments_that_overflow():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"moments of 2 samples are not finite .* 1e\+200"):
            MCStats.from_samples([1e200, -1e200])
    assert caught == []  # no numpy overflow warning ahead of the error


def test_mcstats_equal_samples_have_zero_variance():
    values = np.full(1000, 0.1)
    assert values.var(ddof=1) > 0  # the rounded mean is off by an ulp
    stats = MCStats.from_samples(values)
    assert stats.variance == 0.0 and stats.stderr == 0.0


def test_estimate_validation():
    with pytest.raises(ValueError):
        ensemble_renormalized(EnsembleConfig(n_paths=1, n_steps=64, seed=1),
                              [0.2], 2, UNIT).stats()


@mock.patch.object(slt_core, "BATCH_PATHS", 16)
def test_workers_do_not_change_output():
    kw = dict(eps_list=[0.2, 0.1], k=2, rho=UNIT)
    serial = ensemble_renormalized(
        EnsembleConfig(n_paths=70, n_steps=128, seed=9, workers=1), **kw)
    parallel = ensemble_renormalized(
        EnsembleConfig(n_paths=70, n_steps=128, seed=9, workers=3), **kw)
    assert np.array_equal(serial.renormalized, parallel.renormalized)
    assert np.array_equal(serial.levels, parallel.levels)


@pytest.mark.parametrize("n_steps, rho, size", [
    (1024, rare_spike_weight(30).compose(RadialParameterMap(t_max=30.0)), 16),
    (4096, UNIT, 32)])
def test_batches_are_sized_by_the_byte_budget(n_steps, rho, size, monkeypatch):
    # 32 paths of 30 weight rows at n = 1024 take 8.9 MB, over the 6 MiB budget
    ranges, sample = [], slt_core.sample_path_points

    def spy(n, seed, streams):
        ranges.append(streams)
        return sample(n, seed, streams)

    monkeypatch.setattr(slt_core, "sample_path_points", spy)
    ensemble_renormalized(EnsembleConfig(n_paths=64, n_steps=n_steps, seed=1, workers=2),
                          [0.1], 1, rho)
    assert sorted(ranges, key=lambda r: r.start) == [range(lo, lo + size)
                                                     for lo in range(0, 64, size)]


@mock.patch.object(slt_core, "BATCH_BYTES", 1 << 20)
def test_batch_memory_stays_within_the_budget():
    # one path at a time: 8 whole paths at n = 2**14 peaked at 5.7 MiB
    cfg = EnsembleConfig(n_paths=8, n_steps=2**14, seed=1, workers=1)
    tracemalloc.start()
    try:
        ensemble_renormalized(cfg, [0.01], 2, UNIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("workers", [1, 2])
@mock.patch.object(slt_core, "BATCH_PATHS", 2)
def test_sweep_runs_on_one_blas_thread_and_restores(workers, monkeypatch):
    controls = slt_core._openblas_thread_controls()
    before = [get() for get, _ in controls]
    sweep = slt_core.simplex_levels

    def spy(*args, **kwargs):
        # raised inside a worker thread, this reaches the caller through the pool
        counts = [get() for get, _ in controls]
        if counts != [1] * len(controls):
            raise AssertionError(f"sweep ran with BLAS thread counts {counts}")
        return sweep(*args, **kwargs)

    monkeypatch.setattr(slt_core, "simplex_levels", spy)
    cfg = EnsembleConfig(n_paths=4, n_steps=64, seed=1, workers=workers)
    ensemble_renormalized(cfg, [0.2], 2, UNIT)
    assert [get() for get, _ in controls] == before


@mock.patch.object(slt_core, "BATCH_PATHS", 1)
def test_parallel_ensemble_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("the ensemble forked a process")

    kw = dict(eps_list=[0.2, 0.1], k=3,
              rho=rare_spike_weight(4).compose(RadialParameterMap(t_max=4.0)))
    serial = ensemble_renormalized(
        EnsembleConfig(n_paths=12, n_steps=64, seed=3, workers=1), **kw)
    monkeypatch.setattr(os, "fork", no_fork)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches inside each batch
    try:
        parallel = [ensemble_renormalized(
            EnsembleConfig(n_paths=12, n_steps=64, seed=3, workers=workers), **kw)
            for workers in (2, 5)]
    finally:
        sys.setswitchinterval(interval)
    for result in parallel:
        assert np.array_equal(serial.levels, result.levels)


@pytest.mark.parametrize("workers", [1, 2])
@mock.patch.object(slt_core, "BATCH_PATHS", 2)
def test_failing_batch_cancels_the_queued_ones(workers):
    calls, lock, error = [], threading.Lock(), RuntimeError("weight failed")

    def failing(pts):
        with lock:
            calls.append(len(pts))
            if len(calls) == 1:
                raise error
        return np.ones(len(pts))

    cfg = EnsembleConfig(n_paths=200, n_steps=64, seed=1, workers=workers)
    with pytest.raises(RuntimeError) as info:
        ensemble_renormalized(cfg, [0.2], 2, ScalarWeight(evaluator=failing))
    assert info.value is error
    assert 1 <= len(calls) <= workers


def test_blas_guard_without_openblas_is_noop(monkeypatch):
    cfg = EnsembleConfig(n_paths=4, n_steps=64, seed=1, workers=1)
    guarded = ensemble_renormalized(cfg, [0.2], 2, UNIT)
    monkeypatch.setattr(slt_core, "_openblas_thread_controls", lambda: ())
    plain = ensemble_renormalized(cfg, [0.2], 2, UNIT)
    assert np.array_equal(guarded.levels, plain.levels)


def test_warm_cache_load_starts_no_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    slt_core._load_sweep()  # builds into the empty cache

    def no_process(*args, **kwargs):
        raise AssertionError("a warm cache started the compiler")

    monkeypatch.setattr(subprocess, "run", no_process)
    warm = slt_core._load_sweep()
    assert (tmp_path / "silt").stat().st_mode & 0o777 == 0o700
    assert [p.suffix for p in (tmp_path / "silt").iterdir()] == [".so"]
    pts, rho = sample_path_points(40, 2, [0]), np.ones((1, 1, 40))
    expected = simplex_levels(pts, rho, [0.3], 3)
    monkeypatch.setattr(slt_core, "_SWEEP", warm)
    assert np.array_equal(simplex_levels(pts, rho, [0.3], 3), expected)


def test_new_build_removes_superseded_builds(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    source = Path(slt_core._SWEEP_SOURCE).read_text()
    for copy in ("first", "second"):  # two sources that differ only by a comment
        path = tmp_path / f"{copy}.c"
        path.write_text(f"/* {copy} copy */\n{source}")
        monkeypatch.setattr(slt_core, "_SWEEP_SOURCE", str(path))
        slt_core._load_sweep()
    [build] = (tmp_path / "silt").glob("*.so")
    other_cpu = build.with_name(build.name.rsplit("-", 1)[0] + "-00000000.so")
    other_cpu.write_bytes(b"")  # another machine's build of this source
    slt_core._load_sweep()
    assert sorted((tmp_path / "silt").iterdir()) == sorted([build, other_cpu])


def test_kernel_compiles_without_warnings(tmp_path):
    cmd = [slt_core.COMPILER, *slt_core._SWEEP_FLAGS, "-Wall", "-Wextra",
           os.path.abspath(slt_core._SWEEP_SOURCE), "-o", str(tmp_path / "sweep.so"),
           *slt_core._SWEEP_LIBS]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_package_build_ships_the_kernel_source(tmp_path):
    # simplex_levels compiles _sweep.c at import, so a built package must carry it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copy(os.path.join(root, "pyproject.toml"), tmp_path)
    shutil.copytree(os.path.join(root, "src", "silt"), tmp_path / "src" / "silt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()",
                           "build_py", "--build-lib", str(tmp_path / "build")],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "build" / "silt" / "_sweep.c").is_file()


def test_nonfinite_weight_names_first_bad_path():
    n, bad = 64, 5
    node = sample_path_points(n, 3, [bad])[0, 10]

    def spiky(pts):
        out = np.ones(len(pts))
        out[np.all(pts == node, axis=1)] = np.nan
        return out

    cfg = EnsembleConfig(n_paths=8, n_steps=n, seed=3, workers=1)
    with pytest.raises(ValueError, match=f"non-finite functional value at path {bad} "):
        ensemble_renormalized(cfg, [0.2], 2, ScalarWeight(evaluator=spiky))


@settings(max_examples=15, deadline=None)
@given(n_paths=st.integers(2, 40), n=st.integers(1, 48), k=st.integers(1, 3),
       batch_size=st.integers(1, 48), batch_bytes=st.integers(0, 50_000),
       workers=st.sampled_from([1, 2]))
def test_batch_size_does_not_change_output(n_paths, n, k, batch_size, batch_bytes, workers):
    kw = dict(eps_list=[0.2, 0.1], k=k, rho=UNIT)
    with mock.patch.object(slt_core, "BATCH_PATHS", batch_size), \
            mock.patch.object(slt_core, "BATCH_BYTES", batch_bytes):
        a = ensemble_renormalized(EnsembleConfig(n_paths=n_paths, n_steps=n, seed=9,
                                                 workers=workers), **kw)
    with mock.patch.object(slt_core, "BATCH_PATHS", n_paths):
        b = ensemble_renormalized(EnsembleConfig(n_paths=n_paths, n_steps=n, seed=9, workers=1),
                                  **kw)
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.renormalized, b.renormalized)


def test_float32_close_to_float64():
    kw = dict(eps_list=[0.1], k=2, rho=UNIT)
    a = ensemble_renormalized(EnsembleConfig(n_paths=20, n_steps=256, seed=3, dtype="float32"), **kw)
    b = ensemble_renormalized(EnsembleConfig(n_paths=20, n_steps=256, seed=3, dtype="float64"), **kw)
    np.testing.assert_allclose(a.levels, b.levels, rtol=1e-5)


def test_resolution_warning():
    with pytest.warns(RuntimeWarning, match="under-resolve"):
        ensemble_renormalized(EnsembleConfig(n_paths=4, n_steps=16, seed=1),
                              [0.001], 2, UNIT)


def test_ensemble_scaling_linearity():
    # constant weights scale the whole pipeline exactly (dyadic constant)
    cfg = EnsembleConfig(n_paths=30, n_steps=64, seed=12)
    base = ensemble_renormalized(cfg, [0.2], 2, UNIT)
    scaled = ensemble_renormalized(cfg, [0.2], 2, ScalarWeight.constant(0.25))
    assert np.array_equal(scaled.renormalized, 0.25 * base.renormalized)


# ---------------------------------------------------------------------------
# coupled Cauchy diagnostic
# ---------------------------------------------------------------------------

def test_cauchy_identical_levels_zero():
    cfg = EnsembleConfig(n_paths=20, n_steps=64, seed=6)
    rows = cauchy_diagnostic(cfg, [0.2, 0.2], 2, UNIT)
    assert rows[0].mean_sq_diff == 0.0


def test_cauchy_zero_weight_zero():
    cfg = EnsembleConfig(n_paths=20, n_steps=64, seed=6)
    rows = cauchy_diagnostic(cfg, [0.2, 0.1, 0.05], 2, ZERO)
    assert all(r.mean_sq_diff == 0.0 for r in rows)


def test_cauchy_validation():
    cfg = EnsembleConfig(n_paths=20, n_steps=64, seed=6)
    with pytest.raises(ValueError):
        cauchy_diagnostic(cfg, [0.2], 2, UNIT)
    with pytest.raises(ValueError):
        cauchy_diagnostic(cfg, [0.1, 0.2], 2, UNIT)


def test_cauchy_rows_structure():
    cfg = EnsembleConfig(n_paths=50, n_steps=128, seed=6)
    rows = cauchy_diagnostic(cfg, [0.2, 0.1, 0.05], 2, UNIT)
    assert len(rows) == 2
    assert rows[0].eps_high == 0.2 and rows[0].eps_low == 0.1
    assert all(r.mean_sq_diff >= 0 for r in rows)


def test_cauchy_gap_is_the_hilbert_norm_over_all_coordinates():
    cfg = EnsembleConfig(n_paths=30, n_steps=64, seed=6)
    rho = rare_spike_weight(4).compose(RadialParameterMap(t_max=4.0))
    eps = [0.2, 0.1, 0.05]
    rows = cauchy_diagnostic(cfg, eps, 2, rho)
    V = ensemble_renormalized(cfg, eps, 2, rho).renormalized  # (paths, M, scales)
    for j, row in enumerate(rows):
        gaps = np.mean((V[:, :, j] - V[:, :, j + 1]) ** 2, axis=0)  # per coordinate
        assert row.mean_sq_diff == pytest.approx(gaps.sum(), rel=1e-12)
        assert row.mean_sq_diff > gaps[0]


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

def test_simplex_estimate_validation():
    from silt import SimplexEstimate
    with pytest.raises(ValueError):
        SimplexEstimate(value=np.inf)
    with pytest.raises(ValueError):
        simplex_functional(sample_path(8, seed=1), UNIT, 0.1, 0)
    with pytest.raises(ValueError):
        simplex_functional(sample_path(8, seed=1), UNIT, 0.0, 2)


def test_simplex_levels_validation():
    from silt import simplex_levels
    pts = sample_path(8, seed=1).points[None]
    good = np.ones((1, 1, 8))
    with pytest.raises(ValueError):
        simplex_levels(pts, np.ones((1, 1, 7)), [0.1], 2)
    with pytest.raises(ValueError):
        simplex_levels(pts, good, [0.0], 2)
    with pytest.raises(ValueError):
        simplex_levels(pts, good, [0.1], 0)
    with pytest.raises(ValueError, match="at least 2 nodes"):  # a one-node path: n = 0
        simplex_levels(np.zeros((1, 1, 2)), np.ones((1, 1, 0)), [0.1], 2)


@pytest.mark.parametrize("eps,k,level", [(1e-320, 2, 2), (1e-160, 3, 3), (1e-30, 12, 12)])
def test_simplex_levels_refuses_level_factors_out_of_float_range(eps, k, level):
    # the factor (1/n)^l / (2 pi eps)^(l-1) overflows on 4 steps, and 1e-320 overflows -1/(2 eps)
    pts = sample_path_points(4, 1, [0])
    with pytest.raises(ValueError, match=f"level {level} at eps={eps!r} is out of float range"):
        simplex_levels(pts, np.ones((1, 1, 4)), [0.1, eps], k)


def test_dynkin_epsilon_validation():
    with pytest.raises(ValueError):
        dynkin_renormalize([1.0, 2.0], 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_eps_rejected_by_every_route(bad):
    with pytest.raises(ValueError, match="finite and > 0"):
        dynkin_renormalize([1.0, 2.0], bad)
    with pytest.raises(ValueError, match="finite and > 0"):
        double_mean(bad)
    with pytest.raises(ValueError, match="finite and > 0"):
        simplex_functional(sample_path(8, seed=1), UNIT, bad, 2)
    pts = sample_path_points(8, 1, [0])
    with pytest.raises(ValueError, match="finite and > 0"):
        simplex_levels(pts, np.ones((1, 1, 8)), [0.1, bad], 2)
    cfg = EnsembleConfig(n_paths=2, n_steps=8, seed=1, workers=1)
    with pytest.raises(ValueError, match="finite and > 0"):
        ensemble_renormalized(cfg, [0.1, bad], 2, UNIT)


def test_empty_eps_list_rejected():
    pts = sample_path_points(8, 1, [0])
    with pytest.raises(ValueError, match="epsilon values must be a nonempty list"):
        simplex_levels(pts, np.ones((1, 1, 8)), [], 2)
    cfg = EnsembleConfig(n_paths=2, n_steps=8, seed=1, workers=1)
    with pytest.raises(ValueError, match="epsilon values must be a nonempty list"):
        ensemble_renormalized(cfg, [], 2, UNIT)
