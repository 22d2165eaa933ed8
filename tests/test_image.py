"""Tests for image-path functionals and the delta-family check."""

import numpy as np
import pytest

from silt import (ConfigError, EnsembleConfig, PlanarPath, ScalarWeight,
                  SingularityError, affine_map, builtin_maps, bump_function,
                  delta_family_check, estimate_renormalized, image_slt,
                  jacobian_weight, perturbation_map, sample_path,
                  simplex_functional)

MAPS = builtin_maps()


# ---------------------------------------------------------------------------
# adapted kernel, through the image route of image_slt: a path with n nodes
# 0..n-1 and k = n holds one ordered tuple, weighted (1/n)^k
# ---------------------------------------------------------------------------

def _path(*pts):
    pts = np.array(pts, dtype=float)
    return PlanarPath(n_steps=len(pts) - 1, points=pts, seed=0)


def _kernel(y, eps):
    return np.exp(-(y @ y) / (2 * eps)) / (2 * np.pi * eps)


def test_image_kernel_identity_is_kernel_product():
    v = np.array([[0.0, 0.0], [0.4, -0.1], [0.1, 0.3], [9.0, 9.0]])
    val = image_slt(_path(*v), MAPS["identity"], 0.7, 3).value_image * 3**3
    expected = _kernel(v[1] - v[0], 0.7) * _kernel(v[2] - v[1], 0.7)
    assert val == pytest.approx(expected, rel=1e-12)


def test_image_kernel_scaling_at_origin():
    eps = 0.4
    val = image_slt(_path((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)), MAPS["scale2"], eps, 2)
    assert val.value_image * 2**2 == pytest.approx(1 / (8 * np.pi * eps), rel=1e-12)


def test_image_kernel_scaling_hand_value():
    # image points (0, 0), (2, 0) under scale2 are the path nodes (0, 0), (1, 0)
    val = image_slt(_path((0.0, 0.0), (1.0, 0.0), (5.0, 5.0)), MAPS["scale2"], 1.0, 2)
    assert val.value_image * 2**2 == pytest.approx(np.exp(-0.5) / (8 * np.pi), rel=1e-12)


def test_image_kernel_validation():
    p = sample_path(16, seed=1)
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="epsilon"):
            image_slt(p, MAPS["identity"], eps, 2)


def test_image_kernel_singularity():
    bad = affine_map(np.eye(2), name="broken")
    object.__setattr__(bad, "jac_det", lambda u: np.zeros(np.atleast_2d(u).shape[0]))
    with pytest.raises(SingularityError):
        image_slt(sample_path(16, seed=1), bad, 1.0, 2)


# ---------------------------------------------------------------------------
# substitution identity
# ---------------------------------------------------------------------------

def test_image_identity_map_residual_zero():
    p = sample_path(64, seed=40)
    check = image_slt(p, MAPS["identity"], 0.5, 2)
    unweighted = simplex_functional(p, ScalarWeight.constant(1.0), 0.5, 2)
    assert check.residual == 0.0
    assert check.value_image == pytest.approx(unweighted.value, rel=1e-14)


def test_image_scaling_quarter_identity():
    p = sample_path(64, seed=41)
    check = image_slt(p, MAPS["scale2"], 0.3, 2)
    unweighted = simplex_functional(p, ScalarWeight.constant(1.0), 0.3, 2)
    assert check.value_weighted == pytest.approx(0.25 * unweighted.value, rel=1e-13)
    assert check.residual <= 1e-12


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("k", [2, 3])
def test_image_identity_all_builtins(name, k):
    for stream in range(3):
        p = sample_path(48, seed=42, stream=stream)
        check = image_slt(p, MAPS[name], 0.4, k)
        assert check.residual <= 1e-10


def test_diffeo_roundtrip_invariant():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(1000, 2)) * 2.0
    for name, F in MAPS.items():
        assert np.max(np.linalg.norm(F.forward(F.inverse(pts)) - pts, axis=1)) <= 1e-9, name


def test_shear_map_values():
    # the builtin shear is affine with b != 0: u A^T + b, (v - b) A^-T, det A
    A, b = np.array([[1.2, 0.3], [-0.2, 0.8]]), np.array([0.1, -0.2])
    F = MAPS["shear"]
    pts = np.random.default_rng(5).normal(size=(20, 2))
    np.testing.assert_allclose(F.forward(pts), pts @ A.T + b, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(F.inverse(pts), (pts - b) @ np.linalg.inv(A).T,
                               rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(F.jac_det(pts), np.full(20, 1.2 * 0.8 + 0.3 * 0.2), rtol=1e-14)
    assert F.det_lower_bound == pytest.approx(1.02, rel=1e-14)


def test_perturbation_inverse_converges_near_alpha_one():
    # the fixed point contracts at rate alpha: it needs 803 steps at 0.97 and 2,340 at 0.99 here
    pts = np.random.default_rng(6).normal(size=(1000, 2)) * 2.0
    for alpha in (0.0, 0.97, 0.99):
        F = perturbation_map(alpha)
        u = F.inverse(pts)
        assert np.max(np.linalg.norm(F.forward(u) - pts, axis=1)) <= 1e-12, alpha


def test_perturbation_jacobian_consistency():
    # analytic determinant vs central finite differences
    F = MAPS["swirl"]
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(50, 2))
    h = 1e-6
    for u in pts:
        J = np.empty((2, 2))
        for c in range(2):
            d = np.zeros(2)
            d[c] = h
            J[:, c] = (F.forward(u + d)[0] - F.forward(u - d)[0]) / (2 * h)
        assert np.linalg.det(J) == pytest.approx(float(F.jac_det(u[None])[0]), abs=1e-8)


def test_perturbation_alpha_validation():
    with pytest.raises(ValueError):
        perturbation_map(1.0)


# ---------------------------------------------------------------------------
# renormalized image estimates: the Jacobian-weighted renormalized estimate
# ---------------------------------------------------------------------------

def test_renorm_image_identity_equals_unit_weight():
    stats = estimate_renormalized(30, 64, 0.2, 2, jacobian_weight(MAPS["identity"], 2), seed=50)
    base = estimate_renormalized(30, 64, 0.2, 2, ScalarWeight.constant(1.0), seed=50)
    assert stats.mean == base.mean
    assert stats.variance == base.variance


def test_renorm_image_scaling_matches_quarter_oracle():
    from silt import renorm_double_mean

    stats = estimate_renormalized(1500, 512, 0.1, 2, jacobian_weight(MAPS["scale2"], 2), seed=51)
    oracle = 0.25 * renorm_double_mean(0.1)
    assert abs(stats.mean - oracle) <= 3 * stats.stderr


# ---------------------------------------------------------------------------
# delta-family convergence
# ---------------------------------------------------------------------------

V = np.array([0.3, -0.1])


def constant_phi(c):
    return lambda v: np.full(np.atleast_2d(v).shape[0], c)


@pytest.mark.parametrize("name", ["identity", "shear"])
def test_delta_constant_exact(name):
    rows = delta_family_check(constant_phi(2.5), V, MAPS[name], [0.1, 0.01, 0.001])
    for r in rows:
        assert r.deviation <= 1e-6


def test_delta_constant_exact_k3():
    rows = delta_family_check(constant_phi(1.5), V, MAPS["shear"], [0.1, 0.01],
                              k=3, n_nodes=21)
    for r in rows:
        assert r.deviation <= 1e-6


def test_delta_bump_strictly_decreasing():
    phi = bump_function(center=V, radius=1.5)
    rows = delta_family_check(phi, V, MAPS["shear"], [0.1, 0.01, 0.001])
    devs = [r.deviation for r in rows]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.05 * rows[2].target
    assert rows[0].target == pytest.approx(np.exp(-1))


def test_delta_bump_nonlinear_map():
    phi = bump_function(center=V, radius=1.5)
    rows = delta_family_check(phi, V, MAPS["swirl"], [0.1, 0.01])
    assert rows[0].deviation > rows[1].deviation


def test_delta_bump_k3_converges():
    phi = bump_function(center=V, radius=1.5)
    rows = delta_family_check(phi, V, MAPS["shear"], [0.05, 0.005], k=3, n_nodes=21)
    assert rows[0].deviation > rows[1].deviation
    assert rows[1].deviation <= 0.05 * rows[1].target


def _nested_delta_k3(phi, v_k, F, epsilon_levels, n_nodes):
    """The k = 3 delta-family sum as a literal loop over the outer nodes.

    Every (outer, inner) node pair is evaluated on its own, phi on each planar
    block of the stacked image points; no factorisation over pair sums.
    """
    nodes, wts = np.polynomial.hermite.hermgauss(n_nodes)
    c = F.inverse(np.asarray(v_k, dtype=float)[None, :])[0]
    N1, N2 = np.meshgrid(nodes, nodes, indexing="ij")
    planar = np.stack([N1.ravel(), N2.ravel()], axis=1)
    pw = np.outer(wts, wts).ravel()
    values = []
    for eps in epsilon_levels:
        scale = np.sqrt(2.0 * eps)
        u2 = c[None, :] + scale * planar
        det2 = np.abs(F.jac_det(u2))
        value = 0.0
        for idx in range(u2.shape[0]):
            u1 = u2[idx][None, :] + scale * planar
            det1 = np.abs(F.jac_det(u1))
            v = np.hstack([F.forward(u1), np.tile(F.forward(u2[idx][None, :]), (u1.shape[0], 1))])
            integrand = phi(v[:, :2]) * phi(v[:, 2:])
            value += pw[idx] * np.sum(pw * integrand * det2[idx] / det1) / np.pi
        values.append(value / np.pi)
    return values


@pytest.mark.parametrize("n_nodes", [21, 41])
@pytest.mark.parametrize("name", ["swirl", "shear"])
def test_delta_k3_matches_nested_sum(name, n_nodes):
    for phi in (bump_function(center=V, radius=1.5), constant_phi(2.5)):
        rows = delta_family_check(phi, V, MAPS[name], [0.1, 0.01], k=3, n_nodes=n_nodes)
        expected = _nested_delta_k3(phi, V, MAPS[name], [0.1, 0.01], n_nodes)
        np.testing.assert_allclose([r.value for r in rows], expected, rtol=1e-13, atol=0)
        assert all(r.target == phi(V[None, :])[0] ** 2 for r in rows)


def test_delta_truncation_config_error():
    with pytest.raises(ConfigError, match="truncation"):
        delta_family_check(constant_phi(1.0), V, MAPS["identity"], [0.1], n_nodes=5)


def test_delta_k_validation():
    with pytest.raises(ValueError):
        delta_family_check(constant_phi(1.0), V, MAPS["identity"], [0.1], k=4)


def test_cauchy_diagnostic_with_jacobian_weight():
    # coupled scale ladder under a bounded-determinant map weight
    from silt import cauchy_diagnostic

    cfg = EnsembleConfig(n_paths=80, n_steps=256, seed=60)
    rho = jacobian_weight(MAPS["swirl"], 2)
    rows = cauchy_diagnostic(cfg, [0.2, 0.1, 0.05], 2, rho)
    assert len(rows) == 2
    assert all(np.isfinite(r.mean_sq_diff) and r.mean_sq_diff >= 0 for r in rows)


def test_image_slt_rejects_k1():
    p = sample_path(16, seed=1)
    with pytest.raises(ValueError):
        image_slt(p, MAPS["identity"], 0.5, 1)


def test_delta_check_epsilon_validation():
    for eps_levels in ([0.1, 0.0], [np.nan], [np.inf], []):
        with pytest.raises(ValueError, match="epsilon values must be a nonempty list"):
            delta_family_check(constant_phi(1.0), V, MAPS["identity"], eps_levels)
