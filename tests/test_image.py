"""Tests for image-path functionals and the delta-family check."""

import math

import numpy as np
import pytest

from silt import (Diffeomorphism, EnsembleConfig, PlanarPath,
                  ScalarWeight, SingularityError, affine_map, builtin_maps, bump_function,
                  delta_family_check, ensemble_renormalized, image_slt,
                  jacobian_weight, perturbation_map, sample_path,
                  simplex_functional)

MAPS = builtin_maps()


# ---------------------------------------------------------------------------
# adapted kernel, through the image route of image_slt: a path with n nodes
# 0..n-1 and k = n holds one ordered tuple, weighted (1/n)^k
# ---------------------------------------------------------------------------

def _path(*pts):
    pts = np.array(pts, dtype=float)
    return PlanarPath(n_steps=len(pts) - 1, points=pts)


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
    cfg = EnsembleConfig(n_paths=30, n_steps=64, seed=50)
    stats = ensemble_renormalized(cfg, [0.2], 2, jacobian_weight(MAPS["identity"], 2)).stats()
    base = ensemble_renormalized(cfg, [0.2], 2, ScalarWeight.constant(1.0)).stats()
    assert stats.mean == base.mean
    assert stats.variance == base.variance


def test_renorm_image_scaling_matches_quarter_oracle():
    from silt import renorm_double_mean

    cfg = EnsembleConfig(n_paths=1500, n_steps=512, seed=51)
    stats = ensemble_renormalized(cfg, [0.1], 2, jacobian_weight(MAPS["scale2"], 2)).stats()
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



# ---------------------------------------------------------------------------
# bit-for-bit references: the earlier numpy path of shift/forward/inverse, the
# bump and the k = 3 block loop, kept literally (np.stack, two shifts per
# fixed-point step, a reduce over the length-2 axis, column_stack/repeat/tile
# and |det F'| at every inner point)
# ---------------------------------------------------------------------------

def _reference_swirl(alpha):
    steps = 500 if alpha == 0 else max(
        500, math.ceil(math.log(1e-12 / (alpha * math.sqrt(2))) / math.log(alpha)))

    def shift(u):
        return np.stack([np.sin(u[:, 1]), np.cos(u[:, 0])], axis=1)

    def forward(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return u + alpha * shift(u)

    def inverse(v):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        u = v
        for _ in range(steps):
            u = v - alpha * shift(u)
            if np.max(np.linalg.norm(forward(u) - v, axis=1)) <= 1e-12:
                return u
        raise RuntimeError("fixed-point inversion failed to reach the residual tolerance")

    def jac_det(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return 1.0 + alpha**2 * np.sin(u[:, 0]) * np.cos(u[:, 1])

    return Diffeomorphism(forward=forward, inverse=inverse, jac_det=jac_det,
                          det_lower_bound=1.0 - alpha**2)


def _reference_bump(center, radius):
    center = np.asarray(center, dtype=float)
    radius = float(radius)

    def bump(v):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        r2 = np.sum((v - center) ** 2, axis=1) / radius**2
        out = np.zeros(v.shape[0])
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    return bump


def _reference_delta(phi, v_k, F, epsilon_levels, k, n_nodes):
    nodes, wts = np.polynomial.hermite.hermgauss(int(n_nodes))
    v_k = np.asarray(v_k, dtype=float)
    c = F.inverse(v_k[None, :])[0]
    N1, N2 = np.meshgrid(nodes, nodes, indexing="ij")
    planar = np.stack([N1.ravel(), N2.ravel()], axis=1)
    pw = np.outer(wts, wts).ravel()
    if k == 3:
        sums, pair = np.unique(np.add.outer(nodes, nodes), return_inverse=True)
        m = sums.size
        G = np.zeros((nodes.size, m))
        np.add.at(G, (np.arange(nodes.size)[:, None], pair.reshape(nodes.size, nodes.size)), wts)
    values = []
    for eps in epsilon_levels:
        scale = math.sqrt(2.0 * eps)
        u = c[None, :] + scale * planar
        if k == 2:
            value = float(np.sum(pw * phi(F.forward(u))) / math.pi)
        else:
            outer = pw * phi(F.forward(u)) * np.abs(F.jac_det(u))
            GH = np.zeros((nodes.size, m))
            for lo in range(0, m, 16):
                xs = sums[lo : lo + 16]
                u1 = c[None, :] + scale * np.column_stack([np.repeat(xs, m), np.tile(sums, xs.size)])
                h = phi(F.forward(u1)) / np.abs(F.jac_det(u1))
                GH += G[:, lo : lo + xs.size] @ h.reshape(xs.size, m)
            inner = GH @ G.T
            value = float(np.sum(outer * inner.ravel()) / math.pi**2)
        values.append(value)
    return values


@pytest.mark.parametrize("n_nodes", [21, 41])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", ["swirl", "shear", "identity"])
def test_delta_matches_reference_bits(name, k, n_nodes):
    reference_map = _reference_swirl(0.2) if name == "swirl" else MAPS[name]
    rows = delta_family_check(bump_function(center=V, radius=1.5), V, MAPS[name],
                              [0.1, 0.01], k=k, n_nodes=n_nodes)
    expected = _reference_delta(_reference_bump(V, 1.5), V, reference_map, [0.1, 0.01],
                                k, n_nodes)
    np.testing.assert_array_equal([r.value for r in rows], expected)


@pytest.mark.parametrize("alpha", [0.2, 0.97])
def test_perturbation_map_matches_reference_bits(alpha):
    pts = np.random.default_rng(6).normal(size=(1000, 2)) * 2.0
    F, reference = perturbation_map(alpha), _reference_swirl(alpha)
    np.testing.assert_array_equal(F.inverse(pts), reference.inverse(pts))
    np.testing.assert_array_equal(F.forward(pts), reference.forward(pts))
    np.testing.assert_array_equal(bump_function(V, 1.5)(pts), _reference_bump(V, 1.5)(pts))


def test_delta_k3_jacobian_only_where_phi_nonzero():
    swirl, received = MAPS["swirl"], []

    def jac_det(u):
        received.append(len(u))
        return swirl.jac_det(u)

    F = Diffeomorphism(swirl.forward, swirl.inverse, jac_det, swirl.det_lower_bound)
    phi = bump_function(center=V, radius=1.5)
    delta_family_check(phi, V, F, [0.1], k=3, n_nodes=41)

    # the inner points: every pair of distinct Hermite node sums, about c
    nodes = np.polynomial.hermite.hermgauss(41)[0]
    sums = np.unique(np.add.outer(nodes, nodes))
    X, Y = np.meshgrid(sums, sums, indexing="ij")
    c = swirl.inverse(V[None, :])[0]
    inner = c[None, :] + math.sqrt(2 * 0.1) * np.stack([X.ravel(), Y.ravel()], axis=1)
    live = np.count_nonzero(phi(swirl.forward(inner)))
    assert 0 < live < 0.2 * inner.shape[0]
    assert sum(received) == 41**2 + live


def test_bump_maps_nan_to_nan_and_infinity_to_zero():
    phi = bump_function(center=V, radius=1.5)
    out = phi(np.array([[np.nan, 0.0], [0.3, np.nan], [np.inf, 0.0],
                        [-np.inf, np.inf], V, [9.0, 9.0]]))
    assert np.isnan(out[:2]).all()
    np.testing.assert_array_equal(out[2:], [0.0, 0.0, np.exp(-1), 0.0])


@pytest.mark.parametrize("k", [2, 3])
def test_delta_nan_phi_raises(k):
    # a shear whose image is NaN away from the bump's support: phi is NaN there
    shear = MAPS["shear"]

    def forward(u):
        v = shear.forward(u)
        v[np.linalg.norm(v - V, axis=1) > 2.0] = np.nan
        return v

    F = Diffeomorphism(forward, shear.inverse, shear.jac_det, shear.det_lower_bound)
    with pytest.raises(ValueError, match=r"epsilon=0\.1 is not finite"):
        delta_family_check(bump_function(center=V, radius=1.5), V, F, [0.1, 0.01], k=k)


def test_delta_truncation_config_error():
    with pytest.raises(ValueError, match="truncation"):
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
