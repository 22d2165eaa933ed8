"""Tests for scalar, Jacobian-induced, and Hilbert-valued weights."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import exp1

import silt
from silt import (EnsembleConfig, HilbertSltResult, HilbertWeight,
                  RadialParameterMap, ScalarWeight,
                  SingularityError, coordinate_sup_profile, ensemble_renormalized,
                  jacobian_weight, occupation_density_field,
                  occupation_kernel, rare_spike_weight,
                  sample_path_points, spike_gram, spike_grid)
from silt.image import affine_map, builtin_maps
from silt.weights import _exp1


def const_coords_weight(values):
    values = np.asarray(values, dtype=float)
    return HilbertWeight(evaluator=lambda pts: np.repeat(values[:, None], len(pts), axis=1),
                         sup_norms=np.abs(values), basis_label="test")


def spike_table(N):
    """Dense (N, N) table of the spike chain's closed-form coordinates; row n - 1 is f_n."""
    n = np.arange(1, N + 1, dtype=float)
    a = n ** (-5 / 6)
    c = n ** (-2 / 3) - a * a
    L = np.zeros((N, N))
    L[:, 0] = a
    order = 1 + np.argsort(-c[1:], kind="stable")  # levels 2..N by decreasing pivot
    L[order, np.arange(1, N)] = np.sqrt(c[order])
    return L


# ---------------------------------------------------------------------------
# scalar weights
# ---------------------------------------------------------------------------

def test_scalar_weight_sup_norm_enforced():
    w = ScalarWeight(evaluator=lambda u: u[:, 0], sup_norm=0.5)
    w.values(np.array([[0.3, 0.0]]))
    with pytest.raises(ValueError, match="sup_norm"):
        w.values(np.array([[0.9, 0.0]]))


def test_scalar_weight_is_the_one_coordinate_hilbert_weight():
    w = ScalarWeight(evaluator=lambda u: u[:, 0] - u[:, 1], sup_norm=2.0, name="diff")
    pts = np.array([[0.5, 0.25], [1.0, -0.5], [0.0, 1.5]])
    assert isinstance(w, HilbertWeight) and w.n_coords == 1
    coords = w.coordinate_values(pts)
    assert coords.shape == (1, 3)
    assert np.array_equal(coords[0], w.values(pts))
    shifted = w.compose(lambda u: u + 1.0)
    assert np.array_equal(shifted.coordinate_values(pts), w.coordinate_values(pts + 1.0))
    with pytest.raises(ValueError, match="weight diff coordinate 0 exceeded its declared sup_norm"):
        w.values(np.array([[3.0, 0.0]]))


def test_weights_compare_by_identity():
    a = rare_spike_weight(3)
    b = HilbertWeight(evaluator=a.evaluator, sup_norms=a.sup_norms.copy(),
                      basis_label=a.basis_label)
    assert (a == b) is False and (a == a) is True
    one = ScalarWeight.constant(1.0)
    assert (one == ScalarWeight.constant(1.0)) is False and (one == one) is True


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_weights_refuse_a_nan_or_negative_sup(bad):
    with pytest.raises(ValueError, match=r"sup_norms\[0\] is (nan|-1); a sup must be >= 0"):
        ScalarWeight(evaluator=lambda u: u[:, 0], sup_norm=bad)
    with pytest.raises(ValueError, match=r"sup_norms\[1\] is (nan|-1); a sup must be >= 0"):
        HilbertWeight(evaluator=lambda u: np.zeros((2, len(u))), sup_norms=[1.0, bad],
                      basis_label="bad")
    assert ScalarWeight(evaluator=lambda u: u[:, 0], sup_norm=np.inf).values(
        np.array([[1e9, 0.0]]))[0] == 1e9


# ---------------------------------------------------------------------------
# square-summability profile
# ---------------------------------------------------------------------------

def test_profile_constant_coordinates():
    w = const_coords_weight([3.0, -2.0, 0.5])
    grid = np.zeros((4, 2))
    prof = coordinate_sup_profile(w, grid)
    np.testing.assert_allclose(prof.sup_squares, [9.0, 4.0, 0.25])
    np.testing.assert_allclose(prof.partial_sums, [9.0, 13.0, 13.25])


def test_profile_gaussian_coordinate_sup_at_origin():
    w = HilbertWeight(evaluator=lambda u: np.exp(-np.sum(u * u, axis=-1))[None, :],
                      sup_norms=[np.inf], basis_label="g")
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -0.5]])
    prof = coordinate_sup_profile(w, grid)
    assert prof.sup_squares[0] == 1.0


def test_profile_empty_grid_rejected():
    w = const_coords_weight([1.0])
    with pytest.raises(ValueError):
        coordinate_sup_profile(w, np.zeros((0, 2)))


def test_profile_partial_sums_nondecreasing():
    w = rare_spike_weight(20)
    prof = coordinate_sup_profile(w, spike_grid(20))
    assert np.all(np.diff(prof.partial_sums) >= 0)


# ---------------------------------------------------------------------------
# rare-spike chain weight
# ---------------------------------------------------------------------------

def test_spike_gram_closed_forms():
    G = spike_gram(10)
    n = np.arange(1, 11, dtype=float)
    np.testing.assert_allclose(np.diag(G), n ** (-2 / 3), rtol=1e-14)
    assert G[1, 2] == pytest.approx(6 ** (-5 / 6), rel=1e-14)  # = 0.2246677


def test_spike_gram_positive_definite():
    eigs = np.linalg.eigvalsh(spike_gram(50))
    assert eigs[0] > 0


@pytest.mark.parametrize("N", [2, 3, 30, 400])
def test_spike_coordinates_reproduce_norms(N):
    # closed-form basis: f_n = a_n e_0 + sqrt(c_n) e_rank(n), pivots largest first
    L = rare_spike_weight(N).coordinate_values(np.arange(1.0, N + 1)).T
    n = np.arange(1, N + 1, dtype=float)
    norms = (L**2).sum(axis=1)
    np.testing.assert_allclose(norms, n ** (-2 / 3), atol=1e-10)
    np.testing.assert_allclose(L @ L.T, spike_gram(N), atol=1e-12)
    np.testing.assert_array_equal(L[:, 0], n ** (-5 / 6))
    assert np.all(np.count_nonzero(L[:, 1:], axis=1) == np.r_[0, np.ones(N - 1)])
    assert np.all(np.count_nonzero(L[:, 1:], axis=0) == 1)
    pivots = L[:, 1:].sum(axis=0)  # the one nonzero entry of each column j >= 1
    assert np.all(pivots > 0) and np.all(np.diff(pivots) < 0)


def test_spike_interpolation_endpoint_values():
    w = rare_spike_weight(8)
    vals = w.coordinate_values(np.arange(1.0, 9.0))
    assert np.array_equal(vals.T, spike_table(8))
    assert np.all(np.count_nonzero(w.coordinate_values(spike_grid(8)), axis=0) <= 3)
    assert np.array_equal(w.sup_norms, np.max(np.abs(spike_table(8)), axis=0))


def test_spike_weight_keeps_no_dense_table():
    # at N = 4000 a dense (N, N) float64 table alone is 128 MB
    tracemalloc.start()
    try:
        w = rare_spike_weight(4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert w.coordinate_values(np.array([1.5, 3999.25])).shape == (4000, 2)


def test_spike_lipschitz_bound():
    # within each segment the increment is bounded by 2 ||f_n|| |t1 - t2|
    w = rare_spike_weight(25)
    rng = np.random.default_rng(0)
    for _ in range(200):
        n0 = int(rng.integers(1, 25))
        t1, t2 = np.sort(rng.uniform(n0, n0 + 1, size=2))
        v = w.coordinate_values(np.array([t1, t2]))
        lhs = np.linalg.norm(v[:, 0] - v[:, 1])
        assert lhs <= 2 * n0 ** (-1 / 3) * (t2 - t1) + 1e-12


def test_spike_profile_matches_closed_form():
    # pivoted orthonormalization sorts the Schur diagonal: profile equals the
    # descending sort of {1} with m^(-2/3) - m^(-5/3), m >= 2
    N = 50
    w = rare_spike_weight(N)
    prof = coordinate_sup_profile(w, spike_grid(N))
    m = np.arange(2, N + 1, dtype=float)
    predicted = np.sort(np.r_[1.0, m ** (-2 / 3) - m ** (-5 / 3)])[::-1]
    np.testing.assert_allclose(prof.sup_squares, predicted, atol=1e-10)
    assert np.all(np.diff(prof.sup_squares) <= 1e-15)


def test_spike_parameter_domain_validation():
    w = rare_spike_weight(5)
    with pytest.raises(ValueError):
        w.coordinate_values(np.array([0.5]))
    with pytest.raises(ValueError):
        rare_spike_weight(1)


def test_spike_coordinates_evaluated_together_match_the_interpolation_formula():
    # coordinate_values evaluates the composed spike coordinates in one pass;
    # each value is (1 - frac) L[base - 1, m] + frac L[base, m], bit for bit,
    # with L the dense closed-form table
    N = 7
    w = rare_spike_weight(N).compose(RadialParameterMap(t_max=float(N)))
    pts = np.random.default_rng(3).normal(scale=3.0, size=(500, 2))
    vals = w.coordinate_values(pts)
    t = RadialParameterMap(t_max=float(N))(pts)
    base = np.clip(np.floor(t).astype(int), 1, N - 1)
    frac = t - base
    L = spike_table(N)
    for m in range(N):
        assert np.array_equal(vals[m], (1.0 - frac) * L[base - 1, m] + frac * L[base, m])


def test_spike_coordinates_evaluated_together_keep_their_checks():
    w = rare_spike_weight(5)
    with pytest.raises(ValueError, match=r"must lie in \[1, 5\]"):
        w.compose(RadialParameterMap(t_max=9.0)).coordinate_values(np.array([[6.0, 0.0]]))
    sups = w.sup_norms.copy()
    sups[2] *= 0.5
    low = HilbertWeight(evaluator=w.evaluator, sup_norms=sups, basis_label="low-sup")
    with pytest.raises(ValueError,
                       match="weight low-sup coordinate 2 exceeded its declared sup_norm"):
        low.compose(RadialParameterMap(t_max=5.0)).coordinate_values(
            np.c_[spike_grid(5) - 1.0, np.zeros(spike_grid(5).size)])
    short = HilbertWeight(evaluator=w.evaluator, sup_norms=w.sup_norms[:4], basis_label="short")
    with pytest.raises(ValueError, match=r"short evaluated to shape \(5, 3\), expected \(4, 3\)"):
        short.coordinate_values(np.array([1.0, 2.0, 3.0]))


def test_radial_parameter_map():
    m = RadialParameterMap(t_max=10.0)
    np.testing.assert_allclose(m(np.array([[3.0, 4.0]])), [6.0])
    np.testing.assert_allclose(m(np.array([[30.0, 40.0]])), [10.0])


def test_radial_parameter_map_is_the_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    pts = rng.choice([-1.0, 1.0], (4000, 2)) * 10.0 ** rng.uniform(-300, 150, (4000, 2))
    norms = np.linalg.norm(pts, axis=-1)
    assert np.array_equal(RadialParameterMap(t_max=np.inf)(pts), 1.0 + norms)
    assert np.array_equal(RadialParameterMap(t_max=50.0)(pts), np.minimum(1.0 + norms, 50.0))


# ---------------------------------------------------------------------------
# coupled Hilbert-valued estimation
# ---------------------------------------------------------------------------

def test_hilbert_unit_first_coordinate_reduces_to_scalar():
    cfg = EnsembleConfig(n_paths=40, n_steps=64, seed=21)
    w = const_coords_weight([1.0, 0.0, 0.0])
    res = HilbertSltResult.from_ensemble(ensemble_renormalized(cfg, [0.2], 2, w), 0)
    unit = ScalarWeight.constant(1.0)
    assert np.array_equal(unit.values(np.zeros((3, 2))), np.ones(3))
    scalar = ensemble_renormalized(cfg, [0.2], 2, unit).stats()
    assert res.coord_stats[0].mean == pytest.approx(scalar.mean, rel=1e-13)
    for m in (1, 2):
        assert res.coord_stats[m].mean == 0.0
        assert res.coord_stats[m].variance == 0.0


def test_hilbert_constant_coordinates_scale_exactly():
    # dyadic constants scale every floating-point operation exactly
    cfg = EnsembleConfig(n_paths=30, n_steps=64, seed=22)
    w = const_coords_weight([1.0, 0.5, 0.25])
    res = HilbertSltResult.from_ensemble(ensemble_renormalized(cfg, [0.2], 2, w), 0)
    assert res.coord_stats[1].mean == 0.5 * res.coord_stats[0].mean
    assert res.coord_stats[2].mean == 0.25 * res.coord_stats[0].mean


def test_hilbert_zero_weight_all_zero():
    cfg = EnsembleConfig(n_paths=20, n_steps=64, seed=23)
    w = const_coords_weight([0.0, 0.0])
    res = HilbertSltResult.from_ensemble(ensemble_renormalized(cfg, [0.2], 2, w), 0)
    assert all(s.mean == 0.0 and s.variance == 0.0 for s in res.coord_stats)
    assert np.all(res.norm_sq_partial == 0.0)


def test_hilbert_norm_partial_sums_nondecreasing_and_plateau():
    # composed spike weight: far coordinates never see the path, so the
    # squared-norm profile converges with a final increment of zero
    cfg = EnsembleConfig(n_paths=60, n_steps=128, seed=24)
    n_levels = 12
    w = rare_spike_weight(n_levels).compose(RadialParameterMap(t_max=float(n_levels)))
    res = HilbertSltResult.from_ensemble(ensemble_renormalized(cfg, [0.1], 2, w), 0)
    inc = np.diff(res.norm_sq_partial)
    assert np.all(inc >= 0)
    assert res.norm_sq_partial[-1] > 0
    final_inc = res.norm_sq_partial[-1] - res.norm_sq_partial[-2]
    assert final_inc <= max(res.coord_stats[-1].stderr, 1e-30)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_hilbert_spike_levels_match_each_coordinate_alone(dtype):
    # non-constant coordinates: the coupled levels of each coordinate equal a scalar
    # ensemble of that coordinate alone, up to the summation order of the level products
    n_levels = 6
    w = rare_spike_weight(n_levels).compose(RadialParameterMap(t_max=float(n_levels)))
    cfg = EnsembleConfig(n_paths=8, n_steps=200, seed=26, workers=1, dtype=dtype)
    nodes = sample_path_points(200, 26, range(8))[:, :200].reshape(-1, 2)
    assert np.sum(np.ptp(w.coordinate_values(nodes), axis=1) > 0.5) == 3
    coupled = ensemble_renormalized(cfg, [0.2, 0.1], 3, w).levels
    scale = np.abs(coupled).max()  # measured worst deviation: 6.9e-17 of it
    for m in range(n_levels):
        alone = ScalarWeight(evaluator=lambda pts, m=m: w.coordinate_values(pts)[m])
        single = ensemble_renormalized(cfg, [0.2, 0.1], 3, alone).levels[:, 0]
        np.testing.assert_allclose(coupled[:, m], single, rtol=0, atol=1e-15 * scale)


# ---------------------------------------------------------------------------
# Jacobian-induced weights
# ---------------------------------------------------------------------------

def test_jacobian_weight_identity():
    w = jacobian_weight(builtin_maps()["identity"], 2)
    np.testing.assert_allclose(w.values(np.random.default_rng(1).normal(size=(10, 2))), 1.0)


@pytest.mark.parametrize("k,expected", [(2, 0.25), (3, 1 / 16)])
def test_jacobian_weight_scaling(k, expected):
    w = jacobian_weight(builtin_maps()["scale2"], k)
    np.testing.assert_allclose(w.values(np.zeros((3, 2))), expected, rtol=1e-14)


def test_jacobian_weight_singularity_named():
    bad = affine_map(np.eye(2), name="fake")
    object.__setattr__(bad, "jac_det", lambda u: np.where(np.atleast_2d(u)[:, 0] > 1, 0.0, 1.0))
    w = jacobian_weight(bad, 2)
    w.values(np.zeros((2, 2)))
    with pytest.raises(SingularityError) as exc:
        w.values(np.array([[0.0, 0.0], [2.0, 3.0]]))
    assert "2" in str(exc.value)


def test_jacobian_weight_needs_k_ge_2():
    with pytest.raises(ValueError):
        jacobian_weight(builtin_maps()["identity"], 1)


# ---------------------------------------------------------------------------
# occupation-density field
# ---------------------------------------------------------------------------

def test_occupation_kernel_matches_exponential_integral():
    # substitution s = ||u||^2/(2t) turns the time integral into E1(||u||^2/2)/(2 pi)
    # up to r2 = 100, where the kernel is 6e-25: far below any absolute quadrature tolerance
    for r2 in (1e-8, 0.25, 1.0, 2.0, 4.0, 36.0, 64.0, 100.0):
        u = np.array([[np.sqrt(r2), 0.0]])
        assert occupation_kernel(u)[0] == pytest.approx(exp1(r2 / 2) / (2 * np.pi), rel=1e-12)
    assert occupation_kernel(np.array([[np.sqrt(2.0), 0.0]]))[0] == pytest.approx(0.0349160, abs=1e-6)


def test_exp1_matches_reference_on_both_branches():
    # series for x <= 1, continued fraction above; dense on [1e-10, 700] and
    # around the branch point, with the reference E1 as oracle
    x = np.concatenate([np.geomspace(1e-10, 700.0, 200_001), np.linspace(0.99, 1.01, 2_001),
                        [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 700.0]])
    np.testing.assert_allclose(_exp1(x), exp1(x), rtol=1e-14, atol=0)


def test_exp1_underflows_where_the_reference_does():
    # past x = 708 e^-x is subnormal and E1 reaches 0 near x = 738.5; subnormal
    # values are compared to 1e-14 of the smallest normal number
    x = np.linspace(700.0, 800.0, 100_001)
    got, want = _exp1(x), exp1(x)
    assert np.array_equal(got == 0.0, want == 0.0) and np.any(want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.finfo(float).tiny)
    assert np.isnan(_exp1(np.array([np.nan]))[0]) and _exp1(np.array([np.inf]))[0] == 0.0


def test_occupation_kernel_decreasing_along_rays():
    near = occupation_kernel(np.array([[0.5, 0.0]]))[0]
    far = occupation_kernel(np.array([[1.0, 0.0]]))[0]
    assert near > far


def test_occupation_kernel_rejects_origin():
    with pytest.raises(ValueError):
        occupation_kernel(np.array([[0.0, 0.0]]))


def test_occupation_field_validation():
    with pytest.raises(ValueError):
        occupation_density_field([(0.0, 0.0), (1.0, 0.0)], 200, seed=1)
    with pytest.raises(ValueError):
        occupation_density_field([(1.0, 0.0)], 99, seed=1)


def test_occupation_covariance_gram_structure():
    grid = [(0.5, 0.0), (0.0, 0.7), (-0.6, 0.2), (0.3, -0.5), (-0.2, -0.4)]
    field = occupation_density_field(grid, 400, seed=11)
    C = field.oracle.gram(field.grid)
    np.testing.assert_allclose(C, C.T, atol=1e-15)
    assert np.linalg.eigvalsh(C)[0] >= -1e-8
    # every entry is exp(-|u|^2 - |v|^2) times the mean of f(u - z) f(v - z) over the
    # shared draws, pair by pair; and the oracle on a pair agrees with the matrix
    g = np.asarray(grid)
    for i, u in enumerate(g):
        for j, v in enumerate(g):
            pair = np.mean(occupation_kernel(u - field._z) * occupation_kernel(v - field._z))
            assert C[i, j] == pytest.approx(np.exp(-u @ u - v @ v) * pair, rel=1e-12)
    assert field.oracle.gram(g[:2])[0, 1] == pytest.approx(C[0, 1], rel=1e-12)


def test_occupation_field_deterministic():
    a = occupation_density_field([(0.4, 0.1)], 300, seed=5)
    b = occupation_density_field([(0.4, 0.1)], 300, seed=5)
    uv = np.array([[0.4, 0.1], [-0.3, 0.2]])
    assert np.array_equal(a.oracle.gram(uv), b.oracle.gram(uv))


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------

def test_covariance_oracle_gram_validation():
    from silt import CovarianceOracle

    ok = CovarianceOracle(evaluator=lambda pts: pts @ pts.T)
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])
    G = ok.gram(pts)
    np.testing.assert_allclose(G, [[1.0, 0.0], [0.0, 4.0]])

    neg_diag = CovarianceOracle(evaluator=lambda pts: np.full((len(pts), len(pts)), -1.0))
    with pytest.raises(ValueError, match="diagonal"):
        neg_diag.gram(pts)

    bad_minor = CovarianceOracle(
        evaluator=lambda pts: np.where(np.eye(len(pts), dtype=bool), 0.1, 5.0))
    with pytest.raises(ValueError, match="minor"):
        bad_minor.gram(pts)

    asymmetric = CovarianceOracle(evaluator=lambda pts: np.triu(pts @ pts.T + 1.0))
    with pytest.raises(ValueError, match="asymmetric"):
        asymmetric.gram(pts)

    wrong_shape = CovarianceOracle(evaluator=lambda pts: np.eye(len(pts) + 1))
    with pytest.raises(ValueError, match="shape"):
        wrong_shape.gram(pts)


def test_occupation_covariance_diagonal_consistent():
    # the diagonal is exp(-2 |u|^2) times the mean of f(u - z)^2 over the shared draws
    field = occupation_density_field([(0.5, 0.2)], 150, seed=2)
    u = np.array([0.5, 0.2])
    f = occupation_kernel(u - field._z)
    direct = np.exp(-2.0 * float(u @ u)) * np.mean(f * f)
    assert field.oracle.gram(field.grid)[0, 0] == pytest.approx(direct, rel=1e-12)
