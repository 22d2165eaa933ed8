"""Tests for the simplex functionals, renormalization, and Monte Carlo layer."""

import numpy as np
import pytest
from scipy import integrate

from conftest import brute_force_simplex, lattice_mean_double

import silt
import silt.slt_core as slt_core
from silt import (EnsembleConfig, PlanarPath, RadialParameterMap, ScalarWeight,
                  cauchy_diagnostic, double_mean, dynkin_renormalize,
                  ensemble_renormalized, estimate_renormalized, gauss_kernel,
                  rare_spike_weight, renorm_double_mean, sample_path,
                  sample_path_points, simplex_functional, simplex_levels)
from silt.slt_core import RENORM_DOUBLE_LIMIT, STRIP_ROWS, MCStats

UNIT = ScalarWeight.constant(1.0)
ZERO = ScalarWeight.constant(0.0)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_peak_value():
    assert gauss_kernel((0.0, 0.0), 0.5) == pytest.approx(1 / np.pi, rel=1e-14)


def test_kernel_hand_value():
    assert gauss_kernel((1.0, 1.0), 1.0) == pytest.approx(np.exp(-1) / (2 * np.pi), rel=1e-14)


@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_kernel_normalization(eps):
    # polar reduction: integral over the plane of the kernel = 1
    val, _ = integrate.quad(lambda r: r / eps * np.exp(-r * r / (2 * eps)), 0, 40 * np.sqrt(eps))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_kernel_bound():
    rng = np.random.default_rng(0)
    ys = rng.normal(size=(1000, 2))
    vals = gauss_kernel(ys, 0.3)
    assert np.all(vals <= 1 / (2 * np.pi * 0.3))
    assert gauss_kernel((0.0, 0.0), 0.3) == 1 / (2 * np.pi * 0.3)


def test_kernel_epsilon_validation():
    with pytest.raises(ValueError):
        gauss_kernel((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        gauss_kernel((0.0, 0.0), -1.0)


# ---------------------------------------------------------------------------
# simplex functionals
# ---------------------------------------------------------------------------

def test_degenerate_path_counts_pairs():
    # all nodes at the origin: value = C(n,2) (1/n^2) / (2 pi eps)
    n, eps = 32, 0.7
    pts = np.zeros((n + 1, 2))
    p = PlanarPath(n_steps=n, points=pts, seed=0)
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
    p = PlanarPath(n_steps=2, points=pts, seed=0)
    # nodes {0, 1}: single ordered pair (0, 1), weight 1/4
    eps = 0.8
    d = pts[1] - pts[0]
    hand = 0.25 * np.exp(-(d @ d) / (2 * eps)) / (2 * np.pi * eps)
    est = simplex_functional(p, UNIT, eps, 2)
    assert est.value == pytest.approx(hand, rel=1e-13)


@pytest.mark.parametrize("n,k", [(16, 2), (16, 3), (48, 2), (48, 3)])
def test_oracle_equivalence(n, k):
    rho = ScalarWeight.from_function(lambda u: 1.0 + 0.5 * np.sin(u[:, 0]) + 0.25 * u[:, 1] ** 2)
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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [STRIP_ROWS - 1, STRIP_ROWS, STRIP_ROWS + 1, 3 * STRIP_ROWS + 5])
def test_strip_edges_match_dense_oracle(n, k):
    pts = sample_path_points(n, 13, [0])
    rho = 0.5 + np.random.default_rng(n).random((1, 3, n))
    eps = [0.3, 0.05]
    levels = simplex_levels(pts, rho, eps, k)
    for e, epsilon in enumerate(eps):
        oracle = _dense_levels(pts[0], rho[0], epsilon, k)
        np.testing.assert_allclose(levels[0, :, e, 1:], oracle, rtol=1e-12, atol=0)


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


def test_hilbert_levels_independent_of_workers():
    n = 3 * STRIP_ROWS + 5
    weight = rare_spike_weight(3).compose(RadialParameterMap(t_max=3.0))
    runs = [ensemble_renormalized(EnsembleConfig(n_paths=8, n_steps=n, seed=4, workers=w,
                                                 batch_size=2), [0.2], 3, weight)
            for w in (1, 2)]
    assert runs[0].levels.shape == (8, 3, 1, 3)
    assert np.array_equal(runs[0].levels, runs[1].levels)


def test_float32_levels_within_1e7_of_float64():
    # unit weight at the pinned grid size; float32 rounds only the kernel values
    kw = dict(eps_list=[0.1, 0.02], k=3, rho=UNIT)
    a, b = (ensemble_renormalized(EnsembleConfig(n_paths=2, n_steps=4096, seed=5, workers=1,
                                                 dtype=dt), **kw).levels
            for dt in ("float32", "float64"))
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-7


def test_linearity_in_weight():
    p = sample_path(64, seed=8)
    a = ScalarWeight.from_function(lambda u: np.cos(u[:, 0]))
    b = ScalarWeight.from_function(lambda u: u[:, 1])
    combo = ScalarWeight.from_function(lambda u: 2.0 * np.cos(u[:, 0]) - 3.0 * u[:, 1])
    va = simplex_functional(p, a, 0.3, 2).value
    vb = simplex_functional(p, b, 0.3, 2).value
    vc = simplex_functional(p, combo, 0.3, 2).value
    assert vc == pytest.approx(2 * va - 3 * vb, rel=1e-12, abs=1e-15)


def test_simplex_validation_and_guard():
    p = sample_path(64, seed=8)
    with pytest.raises(ValueError):
        simplex_functional(p, UNIT, 0.3, 0)
    with pytest.raises(ValueError):
        simplex_functional(p, UNIT, 0.0, 2)
    with pytest.raises(ValueError):
        simplex_functional(p, UNIT, 0.3, 2, mode="exact", max_exact_cost=100)


def test_mc_mode_agrees_with_exact():
    p = sample_path(48, seed=17)
    exact = simplex_functional(p, UNIT, 0.5, 4, mode="exact").value
    mc = simplex_functional(p, UNIT, 0.5, 4, mode="mc", mc_samples=200_000, mc_seed=3)
    assert mc.stderr is not None and mc.stderr > 0
    assert abs(mc.value - exact) <= 4 * mc.stderr


def test_auto_mode_uses_mc_for_high_k():
    p = sample_path(32, seed=17)
    est = simplex_functional(p, UNIT, 0.5, 5, mc_samples=20_000)
    assert est.stderr is not None


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
    stats = estimate_renormalized(50, 64, 0.2, 2, ZERO, seed=1)
    assert stats.mean == 0.0
    assert stats.variance == 0.0
    assert stats.abs_moments == {1: 0.0, 2: 0.0, 4: 0.0}


def test_estimate_matches_oracle_two_seeds():
    oracle = renorm_double_mean(0.1)
    for seed in (123, 124):
        stats = estimate_renormalized(2000, 1024, 0.1, 2, UNIT, seed=seed)
        assert stats.mean < 0  # the renormalized double functional has negative mean
        assert abs(stats.mean - oracle) <= 3 * stats.stderr
    a = estimate_renormalized(200, 256, 0.1, 2, UNIT, seed=123)
    b = estimate_renormalized(200, 256, 0.1, 2, UNIT, seed=124)
    assert a.mean != b.mean


def test_estimate_matches_exact_lattice_mean():
    # the discrete estimator's exact mean separates Monte Carlo error from
    # discretization bias
    n = 512
    stats = estimate_renormalized(3000, n, 0.1, 2, UNIT, seed=55)
    lattice = lattice_mean_double(n, 0.1) + np.log(0.1) / (2 * np.pi)
    assert abs(stats.mean - lattice) <= 3 * stats.stderr


def test_mcstats_invariants():
    stats = estimate_renormalized(500, 128, 0.2, 2, UNIT, seed=4)
    assert stats.stderr == pytest.approx(np.sqrt(stats.variance / stats.n_paths), rel=1e-12)
    assert stats.abs_moments[2] >= stats.mean**2
    with pytest.raises(ValueError):
        MCStats.from_samples([1.0])


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_renormalized(1, 64, 0.2, 2, UNIT, seed=1)


def test_workers_do_not_change_output():
    kw = dict(eps_list=[0.2, 0.1], k=2, rho=UNIT)
    serial = ensemble_renormalized(
        EnsembleConfig(n_paths=70, n_steps=128, seed=9, workers=1, batch_size=16), **kw)
    parallel = ensemble_renormalized(
        EnsembleConfig(n_paths=70, n_steps=128, seed=9, workers=3, batch_size=16), **kw)
    assert np.array_equal(serial.renormalized, parallel.renormalized)
    assert np.array_equal(serial.levels, parallel.levels)


def test_workers_env_var(monkeypatch):
    monkeypatch.setenv("SILT_WORKERS", "5")
    assert EnsembleConfig(n_paths=4, n_steps=8, seed=1).resolved_workers() == 5
    monkeypatch.delenv("SILT_WORKERS")
    assert EnsembleConfig(n_paths=4, n_steps=8, seed=1, workers=2).resolved_workers() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_runs_on_one_blas_thread_and_restores(workers, monkeypatch):
    controls = slt_core._openblas_thread_controls()
    before = [get() for get, _ in controls]
    sweep = slt_core.simplex_levels

    def spy(*args, **kwargs):
        # raised inside a forked worker, this reaches the caller through the pool
        counts = [get() for get, _ in controls]
        if counts != [1] * len(controls):
            raise AssertionError(f"sweep ran with BLAS thread counts {counts}")
        return sweep(*args, **kwargs)

    monkeypatch.setattr(slt_core, "simplex_levels", spy)
    cfg = EnsembleConfig(n_paths=4, n_steps=64, seed=1, workers=workers, batch_size=2)
    ensemble_renormalized(cfg, [0.2], 2, UNIT)
    assert [get() for get, _ in controls] == before


def test_blas_guard_without_openblas_is_noop(monkeypatch):
    cfg = EnsembleConfig(n_paths=4, n_steps=64, seed=1, workers=1)
    guarded = ensemble_renormalized(cfg, [0.2], 2, UNIT)
    monkeypatch.setattr(slt_core, "_openblas_thread_controls", lambda: ())
    plain = ensemble_renormalized(cfg, [0.2], 2, UNIT)
    assert np.array_equal(guarded.levels, plain.levels)


def test_nonfinite_weight_names_first_bad_path():
    n, bad = 64, 5
    node = sample_path_points(n, 3, [bad])[0, 10]

    def spiky(pts):
        out = np.ones(len(pts))
        out[np.all(pts == node, axis=1)] = np.nan
        return out

    cfg = EnsembleConfig(n_paths=8, n_steps=n, seed=3, workers=1)
    with pytest.raises(ValueError, match=f"non-finite functional value at path {bad} "):
        ensemble_renormalized(cfg, [0.2], 2, ScalarWeight.from_function(spiky))


def test_batch_size_does_not_change_output():
    kw = dict(eps_list=[0.2], k=2, rho=UNIT)
    a = ensemble_renormalized(EnsembleConfig(n_paths=40, n_steps=64, seed=9, batch_size=7), **kw)
    b = ensemble_renormalized(EnsembleConfig(n_paths=40, n_steps=64, seed=9, batch_size=40), **kw)
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


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

def test_simplex_estimate_validation():
    from silt import SimplexEstimate
    with pytest.raises(ValueError):
        SimplexEstimate(value=np.inf, k=2, epsilon=0.1, n_steps=8)
    with pytest.raises(ValueError):
        SimplexEstimate(value=0.0, k=0, epsilon=0.1, n_steps=8)
    with pytest.raises(ValueError):
        SimplexEstimate(value=0.0, k=2, epsilon=0.0, n_steps=8)


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


def test_dynkin_epsilon_validation():
    with pytest.raises(ValueError):
        dynkin_renormalize([1.0, 2.0], 0.0)
