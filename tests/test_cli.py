"""Tests for configuration parsing, orchestration, and bit-stable emission."""

import json

import numpy as np
import pytest

from silt import ConfigError, ExperimentConfig, parse_config, run_experiment
from silt.cli import CSV_COLUMNS, config_to_json, main, _parse_weight_flag


def small_converge(tmp_path, name="run", **over):
    base = dict(subcommand="converge", k=2, eps_list=(0.2, 0.1), n_paths=40,
                n_steps=128, seed=9, weight_spec={"kind": "constant", "value": 1.0},
                output_path=str(tmp_path / name))
    base.update(over)
    return ExperimentConfig(**base).validate()


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_minimal_config_fills_defaults():
    cfg = parse_config('{"subcommand": "converge"}')
    assert cfg.n_steps == 4096
    assert cfg.n_paths == 10_000
    assert cfg.eps_list == (0.1, 0.05, 0.02)
    assert cfg.weight_spec == {"kind": "constant", "value": 1.0}


def test_parse_rejects_non_decreasing_eps():
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config('{"subcommand": "converge", "eps_list": [0.1, 0.1]}')


def test_validation_collects_all_violations():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"subcommand": "nope", "k": 0, "eps_list": [], "n_paths": 1}')
    text = "; ".join(exc.value.violations)
    assert len(exc.value.violations) >= 4
    assert "subcommand" in text and "k must be" in text
    assert "eps_list" in text and "n_paths" in text


def test_parse_rejects_unknown_fields_and_bad_json():
    with pytest.raises(ConfigError, match="unknown config fields"):
        parse_config('{"subcommand": "converge", "bogus": 1}')
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config("{}")


def test_config_round_trip():
    cfg = ExperimentConfig(subcommand="brick-check", k=2, eps_list=(0.3, 0.1),
                           n_paths=100, n_steps=64, seed=5,
                           weight_spec={"kind": "rare-spike", "n_levels": 10})
    again = parse_config(config_to_json(cfg))
    assert again == cfg


def test_weight_subcommand_compatibility():
    with pytest.raises(ConfigError, match="supports weight kinds"):
        ExperimentConfig(subcommand="hilbert",
                         weight_spec={"kind": "constant", "value": 1.0}).validate()


def test_weight_flag_parsing():
    assert _parse_weight_flag("const:2.5") == {"kind": "constant", "value": 2.5}
    assert _parse_weight_flag("jacobian:swirl") == {"kind": "jacobian", "map": "swirl"}
    assert _parse_weight_flag("rare-spike:12") == {"kind": "rare-spike", "n_levels": 12}
    assert _parse_weight_flag("occupation:500") == {"kind": "occupation", "mc_samples": 500}
    with pytest.raises(ConfigError):
        _parse_weight_flag("mystery:1")


def test_resolution_warning_on_validate():
    with pytest.warns(RuntimeWarning, match="under-resolve"):
        ExperimentConfig(subcommand="converge", n_steps=16, eps_list=(0.001,),
                         n_paths=10).validate()


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def test_converge_rows_carry_oracle_deviation(tmp_path):
    result = run_experiment(small_converge(tmp_path))
    assert len(result.rows) == 2
    for row, eps in zip(result.rows, (0.2, 0.1)):
        assert row.epsilon == eps
        assert row.oracle is not None
        assert row.dev_stderr == pytest.approx(abs(row.mean - row.oracle) / row.stderr)
    with open(result.csv_path) as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == CSV_COLUMNS


def test_converge_no_oracle_for_k3(tmp_path):
    result = run_experiment(small_converge(tmp_path, k=3, n_steps=64))
    assert all(row.oracle is None and row.dev_stderr is None for row in result.rows)


def test_byte_identical_reruns(tmp_path):
    cfg = small_converge(tmp_path, name="det")
    run_experiment(cfg)
    first_csv = open(cfg.output_path + ".csv", "rb").read()
    first_json = open(cfg.output_path + ".json", "rb").read()
    run_experiment(cfg)
    assert open(cfg.output_path + ".csv", "rb").read() == first_csv
    assert open(cfg.output_path + ".json", "rb").read() == first_json


def test_sidecar_carries_config_and_version(tmp_path):
    cfg = small_converge(tmp_path, name="sidecar")
    result = run_experiment(cfg)
    sidecar = json.load(open(result.sidecar_path))
    assert sidecar["version"]
    assert sidecar["config"]["subcommand"] == "converge"
    assert sidecar["config"]["seed"] == 9
    assert "timings" not in sidecar


def test_timings_flag_fills_wall_time(tmp_path):
    cfg = small_converge(tmp_path, name="timed", timings=True)
    result = run_experiment(cfg)
    assert all(row.wall_time_s is not None and row.wall_time_s >= 0 for row in result.rows)
    sidecar = json.load(open(result.sidecar_path))
    assert "timings" in sidecar


def test_wall_time_empty_by_default(tmp_path):
    result = run_experiment(small_converge(tmp_path, name="untimed"))
    with open(result.csv_path) as fh:
        lines = fh.read().splitlines()
    assert all(line.endswith(",") for line in lines[1:])  # wall_time_s column empty


def test_brick_check_rows(tmp_path):
    cfg = ExperimentConfig(subcommand="brick-check", n_paths=50, n_steps=64,
                           eps_list=(0.1,), seed=3,
                           weight_spec={"kind": "rare-spike", "n_levels": 8},
                           output_path=str(tmp_path / "bc")).validate()
    result = run_experiment(cfg)
    assert len(result.rows) == 9  # one per coordinate plus the summary
    for m, row in enumerate(result.rows[:-1], start=1):
        assert row.epsilon == m
        assert row.oracle == pytest.approx(row.mean, abs=1e-10)
    assert result.rows[-1].mean == pytest.approx(result.extras["dudley"])
    assert result.extras["contained"]


def test_brick_check_occupation(tmp_path):
    cfg = ExperimentConfig(subcommand="brick-check", n_paths=400, n_steps=16,
                           eps_list=(0.1,), seed=3,
                           weight_spec={"kind": "occupation", "mc_samples": 150},
                           output_path=str(tmp_path / "oc")).validate()
    result = run_experiment(cfg)
    assert np.isfinite(result.rows[-1].mean)
    assert result.extras["frobenius_rel"] < 0.5


def test_hilbert_rows(tmp_path):
    cfg = ExperimentConfig(subcommand="hilbert", k=2, eps_list=(0.2,), n_paths=30,
                           n_steps=64, seed=7,
                           weight_spec={"kind": "rare-spike", "n_levels": 5},
                           output_path=str(tmp_path / "hb")).validate()
    result = run_experiment(cfg)
    assert len(result.rows) == 6  # five coordinates plus the norm summary
    summary = result.rows[-1]
    assert summary.mean >= 0


def test_image_check_rows(tmp_path):
    cfg = ExperimentConfig(subcommand="image-check", k=2, eps_list=(0.2, 0.1),
                           n_paths=40, n_steps=64, seed=7,
                           weight_spec={"kind": "jacobian", "map": "scale2"},
                           output_path=str(tmp_path / "ic")).validate()
    result = run_experiment(cfg)
    assert result.rows[0].oracle is not None  # constant-Jacobian closed form
    assert result.extras["max_residual"] <= 1e-10


def test_lemma_delta_rows(tmp_path):
    cfg = ExperimentConfig(subcommand="lemma-delta", k=2, eps_list=(0.1, 0.01),
                           n_paths=2, n_steps=1, seed=7,
                           weight_spec={"kind": "jacobian", "map": "shear"},
                           output_path=str(tmp_path / "ld")).validate()
    result = run_experiment(cfg)
    devs = [abs(r.mean - r.oracle) for r in result.rows]
    assert devs[0] > devs[1]


def test_upstream_errors_carry_context(tmp_path, monkeypatch):
    cfg = small_converge(tmp_path, name="boom")
    import silt.cli as cli_mod

    def explode(_cfg):
        raise ValueError("inner failure")

    monkeypatch.setitem(cli_mod._PIPELINES, "converge", explode)
    with pytest.raises(RuntimeError, match=r"converge run failed \(eps_list=\[0\.2, 0\.1\]\)"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# command line entry point
# ---------------------------------------------------------------------------

def test_main_success_and_files(tmp_path, capsys):
    out = str(tmp_path / "cli_run")
    code = main(["--subcommand", "converge", "--k", "2", "--eps", "0.2", "0.1",
                 "--paths", "30", "--steps", "64", "--seed", "4", "--out", out])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "cli_run.csv").exists()
    assert (tmp_path / "cli_run.json").exists()


def test_main_config_file_overrides_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "subcommand": "converge", "eps_list": [0.3, 0.2], "n_paths": 20,
        "n_steps": 32, "seed": 11, "output_path": str(tmp_path / "from_file"),
    }))
    code = main(["--subcommand", "brick-check", "--config", str(cfg_path)])
    assert code == 0
    sidecar = json.load(open(tmp_path / "from_file.json"))
    assert sidecar["config"]["subcommand"] == "converge"
    assert sidecar["config"]["n_paths"] == 20


def test_main_reports_all_violations(capsys):
    code = main(["--subcommand", "converge", "--k", "0", "--eps", "0.1", "0.2"])
    assert code == 2
    out = capsys.readouterr().out
    assert "config error" in out
    assert "k must be" in out and "strictly decreasing" in out


@pytest.mark.parametrize("subcommand,weight", [("hilbert", "rare-spike:abc"),
                                               ("brick-check", "occupation:x"),
                                               ("converge", "const:x")])
def test_main_reports_unparsable_weight_numbers(subcommand, weight, capsys):
    code = main(["--subcommand", subcommand, "--weight", weight, "--k", "0"])
    assert code == 2
    out = capsys.readouterr().out
    assert repr(weight.partition(":")[2]) in out
    assert "k must be" in out  # collected with the other violations


def test_main_reports_non_integer_workers_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SILT_WORKERS", "two")
    code = main(["--subcommand", "converge", "--eps", "0.2", "--paths", "4",
                 "--steps", "32", "--out", str(tmp_path / "w")])
    assert code == 2
    assert "config error: SILT_WORKERS must be an integer, got 'two'" in capsys.readouterr().out


def test_pipeline_config_error_is_not_rewrapped(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "subcommand": "lemma-delta", "eps_list": [0.1], "n_paths": 2, "n_steps": 1,
        "quad_nodes": 5, "weight_spec": {"kind": "jacobian", "map": "shear"},
        "output_path": str(tmp_path / "ld"),
    }))
    with pytest.raises(ConfigError, match="truncation radius too small"):
        run_experiment(parse_config(cfg_path.read_text()))
    assert main(["--config", str(cfg_path)]) == 2
    assert "config error: truncation radius too small" in capsys.readouterr().out


def test_resolution_warning_fires_once_per_cli_run(tmp_path, recwarn):
    code = main(["--subcommand", "converge", "--eps", "0.001", "--paths", "4",
                 "--steps", "16", "--out", str(tmp_path / "coarse")])
    assert code == 0
    warned = [w for w in recwarn if "under-resolve" in str(w.message)]
    assert len(warned) == 1
    assert warned[0].filename == __file__


def test_hilbert_multiple_eps_levels(tmp_path):
    cfg = ExperimentConfig(subcommand="hilbert", k=2, eps_list=(0.2, 0.1), n_paths=20,
                           n_steps=64, seed=7,
                           weight_spec={"kind": "rare-spike", "n_levels": 4},
                           output_path=str(tmp_path / "hb2")).validate()
    result = run_experiment(cfg)
    assert len(result.rows) == 2 * 5  # (4 coords + summary) per scale
