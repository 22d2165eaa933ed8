"""Tests for configuration parsing, orchestration, and bit-stable emission."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from silt import (ConfigError, EnsembleConfig, ExperimentConfig, ResultRow, builtin_maps,
                  image_slt, parse_config, run_experiment, sample_path)
from silt.cli import (CSV_COLUMNS, SUBCOMMANDS, WEIGHT_KINDS, _PIPELINES, build_parser,
                      _flags_config, main, _parse_weight_flag)


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


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_parse_rejects_non_finite_eps(entry):
    with pytest.raises(ConfigError, match="finite and > 0") as exc:
        parse_config(f'{{"subcommand": "converge", "eps_list": [0.1, {entry}], "k": 0}}')
    assert len(exc.value.violations) == 2  # collected with the k violation


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
    with pytest.raises(ConfigError, match="not valid JSON: Exceeds the limit"):
        parse_config('{"subcommand": "converge", "k": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config("{}")


def test_config_round_trip(tmp_path):
    # the config block of a run's sidecar parses back to the config that made the run
    cfg = ExperimentConfig(subcommand="brick-check", k=2, eps_list=(0.3, 0.1),
                           n_paths=100, n_steps=64, seed=5,
                           weight_spec={"kind": "rare-spike", "n_levels": 10},
                           output_path=str(tmp_path / "round"))
    sidecar = json.loads(Path(run_experiment(cfg).sidecar_path).read_text())
    assert parse_config(json.dumps(sidecar["config"])) == cfg


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


def test_flag_defaults_are_the_config_defaults():
    flags = vars(build_parser().parse_args(["--subcommand", "converge"]))
    assert flags == {"subcommand": "converge"}
    assert _flags_config(flags) == ExperimentConfig(subcommand="converge")


def test_given_flags_reach_their_config_fields():
    argv = ["--subcommand", "hilbert", "--k", "3", "--eps", "0.2", "0.1", "--paths", "7",
            "--steps", "64", "--seed", "5", "--weight", "rare-spike:4", "--out", "x",
            "--workers", "2", "--dtype", "float64", "--timings"]
    cfg = _flags_config(vars(build_parser().parse_args(argv)))
    assert cfg == ExperimentConfig(subcommand="hilbert", k=3, eps_list=(0.2, 0.1), n_paths=7,
                                   n_steps=64, seed=5, output_path="x", workers=2,
                                   dtype="float64", timings=True,
                                   weight_spec={"kind": "rare-spike", "n_levels": 4})


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_rejects_worker_flags_below_one(workers, tmp_path, capsys):
    code = main(["--subcommand", "converge", "--eps", "0.2", "--paths", "4", "--steps", "32",
                 "--workers", workers, "--k", "0", "--out", str(tmp_path / "w")])
    assert code == 2
    out = capsys.readouterr().out
    assert f"config error: workers must be >= 1, got {workers}" in out
    assert "k must be" in out  # collected with the other violations
    with pytest.raises(ValueError, match="workers must be >= 1"):
        EnsembleConfig(n_paths=4, n_steps=8, seed=1, workers=int(workers))


def test_main_collects_bad_flag_values_as_config_errors(tmp_path, capsys):
    code = main(["--subcommand", "converge", "--k", "x", "--paths", "1e4", "--dtype", "float16",
                 "--eps", "0.1", "abc", "--out", str(tmp_path / "f")])
    assert code == 2
    assert capsys.readouterr().out.splitlines() == [
        "config error: k must be an integer, got 'x'",
        "config error: n_paths must be an integer, got '1e4'",
        "config error: eps_list must be a list of numbers, got (0.1, 'abc')",
        "config error: dtype must be float32 or float64, got 'float16'",
    ]
    assert not os.listdir(tmp_path)


def test_main_reports_an_unknown_subcommand_flag(tmp_path, capsys):
    assert main(["--subcommand", "foo", "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().out == "config error: unknown subcommand 'foo'\n"


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("kind", sorted(WEIGHT_KINDS))
def test_each_pipeline_pair_runs_and_every_other_pair_is_refused(subcommand, kind, tmp_path):
    weight = {"constant": {"value": 1.0}, "jacobian": {"map": "shear"},
              "rare-spike": {"n_levels": 4}, "occupation": {"mc_samples": 100}}[kind]
    cfg = ExperimentConfig(subcommand=subcommand, eps_list=(0.2,), n_paths=4, n_steps=16,
                           weight_spec={"kind": kind, **weight}, output_path=str(tmp_path / "p"))
    if (subcommand, kind) in _PIPELINES:
        assert run_experiment(cfg.validate()).rows
    else:
        with pytest.raises(ConfigError) as refused:
            cfg.validate()
        assert refused.value.violations == [
            f"subcommand {subcommand!r} supports weight kinds "
            f"{tuple(w for s, w in _PIPELINES if s == subcommand)}, got {kind!r}"]


@pytest.mark.parametrize("name", ["k", "n_paths", "n_steps", "seed", "workers"])
def test_main_rejects_json_booleans_for_integer_fields(name, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"subcommand": "converge", "eps_list": [0.2], "n_paths": 4,
                                    "n_steps": 32, "output_path": str(tmp_path / "b"),
                                    name: True}))
    assert main(["--config", str(cfg_path)]) == 2
    assert f"config error: {name} must be an integer" in capsys.readouterr().out
    assert not os.path.exists(tmp_path / "b.csv")


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


@pytest.mark.parametrize("subcommand,spec", [
    ("converge", {"kind": "constant", "value": 1.0}),
    ("hilbert", {"kind": "rare-spike", "n_levels": 4}),
    ("brick-check", {"kind": "rare-spike", "n_levels": 4}),
    ("brick-check", {"kind": "occupation", "mc_samples": 150}),
    ("image-check", {"kind": "jacobian", "map": "shear"}),
    ("lemma-delta", {"kind": "jacobian", "map": "shear"}),
], ids=["converge", "hilbert", "brick-spike", "brick-occupation", "image-check", "lemma-delta"])
def test_every_row_names_its_run(subcommand, spec, tmp_path):
    cfg = ExperimentConfig(subcommand=subcommand, k=3, eps_list=(0.2, 0.1), n_paths=6,
                           n_steps=16, seed=41, weight_spec=spec,
                           output_path=str(tmp_path / "run")).validate()
    result = run_experiment(cfg)
    with open(result.csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [f.name for f in dataclasses.fields(ResultRow)]
    assert len(rows) == len(result.rows) > 0
    for row in rows:
        named = dict(zip(header, row))
        assert [named[f] for f in ("subcommand", "k", "n_paths", "n_steps", "seed")] == \
            [subcommand, "3", "6", "16", "41"]


def test_converge_no_oracle_for_k3(tmp_path):
    result = run_experiment(small_converge(tmp_path, k=3, n_steps=64))
    assert all(row.oracle is None and row.dev_stderr is None for row in result.rows)


def test_byte_identical_reruns(tmp_path):
    cfg = small_converge(tmp_path, name="det")
    run_experiment(cfg)
    first_csv = Path(cfg.output_path + ".csv").read_bytes()
    first_json = Path(cfg.output_path + ".json").read_bytes()
    run_experiment(cfg)
    assert Path(cfg.output_path + ".csv").read_bytes() == first_csv
    assert Path(cfg.output_path + ".json").read_bytes() == first_json


def test_sidecar_carries_config_and_version(tmp_path):
    cfg = small_converge(tmp_path, name="sidecar")
    result = run_experiment(cfg)
    sidecar = json.loads(Path(result.sidecar_path).read_text())
    assert sidecar["version"]
    assert sidecar["config"]["subcommand"] == "converge"
    assert sidecar["config"]["seed"] == 9
    assert "timings" not in sidecar


def test_timings_flag_fills_wall_time(tmp_path):
    cfg = small_converge(tmp_path, name="timed", timings=True)
    result = run_experiment(cfg)
    assert all(row.wall_time_s is not None and row.wall_time_s >= 0 for row in result.rows)
    sidecar = json.loads(Path(result.sidecar_path).read_text())
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


@pytest.mark.parametrize("subcommand,spec,spied", [
    ("brick-check", {"kind": "rare-spike", "n_levels": 8}, "canonical_metric"),
    ("brick-check", {"kind": "occupation", "mc_samples": 150}, "isonormal_sample"),
    ("lemma-delta", {"kind": "jacobian", "map": "shear"}, "delta_family_check"),
])
def test_diagnostics_run_on_one_blas_thread_and_restore(subcommand, spec, spied, tmp_path,
                                                         monkeypatch):
    import silt.cli as cli
    from silt.slt_core import _openblas_thread_controls

    controls, seen = _openblas_thread_controls(), []
    original = getattr(cli, spied)

    def spy(*args, **kwargs):
        seen.append([get() for get, _ in controls])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, spied, spy)
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    try:
        cfg = ExperimentConfig(subcommand=subcommand, n_paths=50, n_steps=16,
                               eps_list=(0.1,), seed=3, weight_spec=spec,
                               output_path=str(tmp_path / "blas")).validate()
        run_experiment(cfg)
        assert seen == [[1] * len(controls)]
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


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


def test_image_check_samples_its_residual_paths_in_one_call(tmp_path, monkeypatch):
    import silt.cli as cli

    calls, original = [], cli.sample_path_points

    def spy(n_steps, seed, streams):
        calls.append(list(streams))
        return original(n_steps, seed, calls[-1])

    monkeypatch.setattr(cli, "sample_path_points", spy)
    cfg = ExperimentConfig(subcommand="image-check", k=2, eps_list=(0.2,), n_paths=8,
                           n_steps=32, seed=7, weight_spec={"kind": "jacobian", "map": "swirl"},
                           output_path=str(tmp_path / "ic")).validate()
    result = run_experiment(cfg)
    assert calls == [list(range(16))]
    F = builtin_maps()["swirl"]
    expected = max(image_slt(sample_path(32, 7, stream=i), F, 0.2, 2).residual for i in range(16))
    assert result.extras["max_residual"] == expected


@pytest.mark.parametrize("value", ["0.1", "0.3"])
def test_exact_constant_run_reports_no_deviation(value, tmp_path):
    out = str(tmp_path / "const")
    assert main(["--subcommand", "converge", "--k", "1", "--weight", f"const:{value}",
                 "--paths", "1000", "--steps", "640", "--eps", "0.1", "--seed", "7",
                 "--out", out]) == 0
    with open(out + ".csv", newline="") as fh:
        [row] = csv.DictReader(fh)
    assert (row["stderr"], row["oracle"], row["dev_stderr"]) == ("0.0", value, "")


def test_lemma_delta_rows(tmp_path):
    cfg = ExperimentConfig(subcommand="lemma-delta", k=2, eps_list=(0.1, 0.01),
                           n_paths=2, n_steps=1, seed=7,
                           weight_spec={"kind": "jacobian", "map": "shear"},
                           output_path=str(tmp_path / "ld")).validate()
    result = run_experiment(cfg)
    devs = [abs(r.mean - r.oracle) for r in result.rows]
    assert devs[0] > devs[1]


def test_lemma_delta_k_problem_listed_with_the_others(tmp_path):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(subcommand="lemma-delta", k=4, n_paths=1,
                         weight_spec={"kind": "jacobian", "map": "shear"},
                         output_path=str(tmp_path / "ld")).validate()
    assert info.value.violations == ["lemma-delta supports k = 2 or 3",
                                     "n_paths must be >= 2, got 1"]


def test_upstream_errors_carry_context(tmp_path, monkeypatch):
    cfg = small_converge(tmp_path, name="boom")
    import silt.cli as cli_mod

    def explode(_cfg):
        raise ValueError("inner failure")

    monkeypatch.setitem(cli_mod._PIPELINES, ("converge", "constant"), explode)
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
    sidecar = json.loads((tmp_path / "from_file.json").read_text())
    assert sidecar["config"]["subcommand"] == "converge"
    assert sidecar["config"]["n_paths"] == 20


def test_main_reports_all_violations(capsys):
    code = main(["--subcommand", "converge", "--k", "0", "--eps", "0.1", "0.2"])
    assert code == 2
    out = capsys.readouterr().out
    assert "config error" in out
    assert "k must be" in out and "strictly decreasing" in out


@pytest.mark.parametrize("eps", [["inf"], ["0.1", "nan"]])
def test_main_rejects_non_finite_eps_before_running(eps, tmp_path, capsys):
    code = main(["--subcommand", "converge", "--eps", *eps, "--paths", "4", "--steps", "32",
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert "config error: eps_list entries must be finite and > 0" in capsys.readouterr().out
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("weight", ["const:inf", "const:nan", "const:-1e400"])
def test_main_rejects_non_finite_constant_weight_before_running(weight, tmp_path, capsys):
    code = main(["--subcommand", "converge", "--weight", weight, "--eps", "0.2", "--paths", "4",
                 "--steps", "32", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "config error: constant weight needs a numeric 'value' that is finite" in \
        capsys.readouterr().out
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("subcommand,weight", [("hilbert", "rare-spike:abc"),
                                               ("brick-check", "occupation:x"),
                                               ("converge", "const:x")])
def test_main_reports_unparsable_weight_numbers(subcommand, weight, capsys):
    code = main(["--subcommand", subcommand, "--weight", weight, "--k", "0"])
    assert code == 2
    out = capsys.readouterr().out
    assert repr(weight.partition(":")[2]) in out
    assert "k must be" in out  # collected with the other violations


@pytest.mark.parametrize("k,weight", [("2", "const:1e200"), ("3", "const:1e300")])
def test_main_fails_runs_whose_moments_overflow(k, weight, tmp_path, capsys):
    # the moments reach inf and dev_stderr would read 0.0, a false match to the oracle
    code = main(["--subcommand", "converge", "--k", k, "--weight", weight, "--eps", "0.1",
                 "--paths", "4", "--steps", "64", "--workers", "1", "--out", str(tmp_path / "r")])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("error: converge run failed") and "not finite" in out
    assert not os.listdir(tmp_path)


def test_main_reads_config_files_as_json_bytes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"subcommand": "converge", "seed": 1\xff}')
    assert main(["--config", str(cfg_path)]) == 2
    assert capsys.readouterr().out.startswith("config error: configuration is not valid JSON")
    cfg_path.write_text(json.dumps({"subcommand": "brick-check", "output_path": str(tmp_path / "u"),
                                    "weight_spec": {"kind": "rare-spike", "n_levels": 5}}),
                        encoding="utf-16")  # with a byte order mark
    assert main(["--config", str(cfg_path)]) == 0
    assert (tmp_path / "u.csv").exists()


def test_main_fails_scales_whose_normalisation_overflows(tmp_path, capsys):
    with pytest.warns(RuntimeWarning, match="under-resolve"):
        code = main(["--subcommand", "converge", "--eps", "1e-320", "--paths", "2",
                     "--steps", "4", "--out", str(tmp_path / "r")])
    assert code == 1
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("error: converge run failed")
    assert "level 2 at eps=1e-320 is out of float range" in line
    assert not os.listdir(tmp_path)


def test_resolution_warning_quotes_a_subnormal_scale_as_given(tmp_path, capsys):
    # formatted with :g, 1e-320 read 9.99989e-321, unlike the error line below it
    with pytest.warns(RuntimeWarning, match=r"exceeds eps/10 for eps=1e-320; ") as caught:
        main(["--subcommand", "converge", "--eps", "1e-320", "--paths", "2", "--steps", "4",
              "--out", str(tmp_path / "r")])
    assert len(caught) == 1
    assert "eps=1e-320" in capsys.readouterr().out


@pytest.mark.parametrize("failure", ["output", "pipeline"])
def test_main_reports_run_failures_on_one_line(failure, tmp_path, monkeypatch, capsys):
    import silt.cli as cli_mod

    out = str(tmp_path / "run")
    if failure == "output":
        (tmp_path / "run.csv").mkdir()  # the CSV cannot be opened for writing
    else:
        def explode(_cfg):
            raise ValueError("inner failure")

        monkeypatch.setitem(cli_mod._PIPELINES, ("brick-check", "rare-spike"), explode)
    assert main(["--subcommand", "brick-check", "--weight", "rare-spike:5", "--out", out]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("error: ") and printed.count("\n") == 1
    assert (out + ".csv" if failure == "output" else "brick-check run failed") in printed


def test_missing_compiler_fails_the_run_not_the_import(tmp_path, monkeypatch, capsys):
    import silt.slt_core as slt_core

    compiler = str(tmp_path / "no-such-gcc")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(slt_core, "COMPILER", compiler)
    with pytest.raises(RuntimeError) as failed:
        slt_core._load_sweep()
    monkeypatch.setattr(slt_core, "_SWEEP", failed.value)
    code = main(["--subcommand", "converge", "--eps", "0.2", "--paths", "4", "--steps", "64",
                 "--workers", "1", "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("error: converge run failed") and captured.out.count("\n") == 1
    assert compiler in captured.out
    assert "Traceback" not in captured.err


def test_main_rejects_missing_output_directory_before_running(tmp_path, monkeypatch, capsys):
    import silt.cli as cli_mod

    runs = []
    monkeypatch.setitem(cli_mod._PIPELINES, ("converge", "constant"), runs.append)
    out = tmp_path / "no-such-dir" / "x"
    assert main(["--subcommand", "converge", "--eps", "0.2", "--paths", "4",
                 "--steps", "32", "--out", str(out)]) == 2
    assert capsys.readouterr().out == (f"config error: output directory "
                                       f"{str(out.parent)!r} does not exist\n")
    assert runs == []


def test_resolution_warning_fires_once_per_cli_run(tmp_path, recwarn):
    code = main(["--subcommand", "converge", "--eps", "0.001", "--paths", "4",
                 "--steps", "16", "--out", str(tmp_path / "coarse")])
    assert code == 0
    warned = [w for w in recwarn if "under-resolve" in str(w.message)]
    assert len(warned) == 1
    assert warned[0].filename == __file__


def test_no_resolution_warning_for_runs_that_sample_no_path(tmp_path, recwarn):
    # lemma-delta and brick-check sample no path, so a coarse grid does not concern them
    for subcommand, weight in (("lemma-delta", "jacobian:swirl"), ("brick-check", "rare-spike:5")):
        code = main(["--subcommand", subcommand, "--weight", weight, "--eps", "0.01", "0.001",
                     "--steps", "16", "--paths", "4", "--out", str(tmp_path / subcommand)])
        assert code == 0
    assert [str(w.message) for w in recwarn if "under-resolve" in str(w.message)] == []


def test_hilbert_multiple_eps_levels(tmp_path):
    cfg = ExperimentConfig(subcommand="hilbert", k=2, eps_list=(0.2, 0.1), n_paths=20,
                           n_steps=64, seed=7,
                           weight_spec={"kind": "rare-spike", "n_levels": 4},
                           output_path=str(tmp_path / "hb2")).validate()
    result = run_experiment(cfg)
    assert len(result.rows) == 2 * 5  # (4 coords + summary) per scale


@pytest.mark.parametrize("fields,message", [
    ({"seed": "abc"}, "seed must be an integer"),
    ({"k": "x"}, "k must be an integer"),
    ({"n_paths": None}, "n_paths must be an integer"),
    ({"workers": 2.0}, "workers must be an integer, got 2.0"),
    ({"eps_list": ["a"]}, "eps_list must be a list of numbers"),
    ({"k": "x", "weight_spec": {"kind": "jacobian", "map": "swirl"}}, "k must be an integer"),
    ({"subcommand": "image-check", "k": 1, "weight_spec": {"kind": "jacobian", "map": "swirl"}},
     "jacobian weight needs k >= 2"),
    ({"weight_spec": {"kind": "jacobian", "map": ["swirl"]}}, "jacobian weight needs a builtin"),
    ({"subcommand": "lemma-delta", "quad_nodes": 0, "weight_spec": {"kind": "jacobian", "map": "shear"}},
     "unknown config fields: ['quad_nodes']"),
    ({"subcommand": "lemma-delta", "k": 1, "weight_spec": {"kind": "jacobian", "map": "shear"}},
     "lemma-delta supports k = 2 or 3"),
    ({"subcommand": "lemma-delta", "k": 4, "weight_spec": {"kind": "jacobian", "map": "shear"}},
     "lemma-delta supports k = 2 or 3"),
    ({"subcommand": "brick-check",
      "weight_spec": {"kind": "occupation", "mc_samples": 150, "grid": [[0, 0], [1, 0]]}},
     "unknown weight_spec fields for occupation: ['grid']"),
    # JSON booleans, which Python would read as 0 and 1
    ({"eps_list": [True]}, "eps_list must be a list of numbers"),
    ({"weight_spec": {"kind": "constant", "value": True}}, "constant weight needs a numeric 'value'"),
    # fractional counts, which int() would truncate, and values int() cannot convert
    ({"subcommand": "hilbert", "weight_spec": {"kind": "rare-spike", "n_levels": 5.9}},
     "rare-spike weight needs an integer n_levels >= 2, got 5.9"),
    ({"subcommand": "brick-check", "weight_spec": {"kind": "occupation", "mc_samples": 150.5}},
     "occupation weight needs an integer mc_samples >= 100, got 150.5"),
    ({"k": float("inf")}, "k must be an integer, got inf"),
    ({"weight_spec": {"kind": "constant", "value": float("nan")}},
     "constant weight needs a numeric 'value' that is finite, got nan"),
    # JSON strings, which float() would convert
    ({"eps_list": ["0.2", "0.1"]}, "eps_list must be a list of numbers"),
    ({"weight_spec": {"kind": "constant", "value": "2"}},
     "constant weight needs a numeric 'value' that is finite, got '2'"),
    # a text or integer timings, which would still fill in wall times
    ({"timings": "false"}, "timings must be true or false, got 'false'"),
    ({"timings": 1}, "timings must be true or false, got 1"),
    # weight fields the kind does not read
    ({"subcommand": "brick-check",
      "weight_spec": {"kind": "occupation", "mc_samples": 500, "gird": [[0.5, 0.0]]}},
     "unknown weight_spec fields for occupation: ['gird']"),
    ({"weight_spec": {"kind": "constant", "value": 2.0, "map": "shear", "typo": 1}},
     "unknown weight_spec fields for constant: ['map', 'typo']"),
    ({"weight_spec": {"kind": ["constant"], "value": 1.0}}, "unknown weight kind ['constant']"),
    # a directory, which would leave the hidden files out/.csv and out/.json
    ({"output_path": "out/"}, "output_path must end in a file name, got 'out/'"),
], ids=["seed", "k", "n_paths", "workers-float", "eps_list", "k-with-jacobian",
        "image-check-k1", "map-list", "quad-nodes", "lemma-delta-k1", "lemma-delta-k4",
        "grid-origin", "eps_list-bool", "constant-value-bool",
        "n_levels-float", "mc_samples-float", "k-inf", "constant-value-nan",
        "eps_list-text", "constant-value-text", "timings-text",
        "timings-int", "occupation-field-typo", "constant-extra-fields", "kind-list",
        "output-path-dir"])
def test_main_reports_malformed_config_fields(fields, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"subcommand": "converge",
                                    "output_path": str(tmp_path / "bad"), **fields}))
    assert main(["--config", str(cfg_path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"config error: {message}") and out.count("config error") == 1


def test_python_m_silt_runs_without_runpy_warning(tmp_path):
    import silt

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(silt.__file__)))
    proc = subprocess.run([sys.executable, "-m", "silt", "--subcommand", "brick-check",
                           "--weight", "rare-spike:5"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "found in sys.modules" not in proc.stderr
    assert (tmp_path / "silt_results.csv").exists()


def test_python_m_silt_warns_once_outside_the_package(tmp_path):
    import silt

    package = os.path.dirname(os.path.abspath(silt.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package), PYTHONWARNINGS="default")
    proc = subprocess.run([sys.executable, "-m", "silt", "--subcommand", "converge",
                           "--eps", "0.001", "--paths", "4", "--steps", "16"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    [warned] = [line for line in proc.stderr.splitlines() if "RuntimeWarning" in line]
    where = warned.split(": RuntimeWarning")[0].rsplit(":", 1)[0]
    assert "under-resolve" in warned
    assert not os.path.abspath(os.path.join(tmp_path, where)).startswith(package + os.sep)


def test_no_subcommand_loads_scipy(tmp_path):
    # every subcommand in a fresh interpreter, brick-check occupation included
    import silt

    script = """
import sys
from silt.cli import SUBCOMMANDS, main
runs = [("converge", "const:1"), ("hilbert", "rare-spike:4"), ("brick-check", "rare-spike:4"),
        ("brick-check", "occupation:100"), ("image-check", "jacobian:swirl"),
        ("lemma-delta", "jacobian:swirl")]
assert {sub for sub, _ in runs} == set(SUBCOMMANDS)
for i, (sub, weight) in enumerate(runs):
    assert main(["--subcommand", sub, "--weight", weight, "--eps", "0.2", "--k", "2",
                 "--paths", "4", "--steps", "32", "--out", f"run{i}"]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(silt.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# one coupled ensemble per multi-scale run
# ---------------------------------------------------------------------------

_COUPLED_RUNS = {
    "hilbert": dict(k=3, weight_spec={"kind": "rare-spike", "n_levels": 10}),
    "image-check": dict(k=2, weight_spec={"kind": "jacobian", "map": "swirl"}),
}


def _coupled_run(tmp_path, subcommand, eps_list, workers):
    name = f"{subcommand}-{len(eps_list)}-{eps_list[0]}-{workers}"
    cfg = ExperimentConfig(subcommand=subcommand, eps_list=eps_list, n_paths=64,
                           n_steps=128, seed=21, workers=workers,
                           output_path=str(tmp_path / name), **_COUPLED_RUNS[subcommand])
    return run_experiment(cfg.validate()).rows


#: largest relative gap between a row field at 0.1 of a (0.2, 0.1) run, where
#: the sweep derives 0.1 from 0.2 as the square of its kernel values, and the
#: same field of a run at 0.1 alone; measured 8.0e-8 (hilbert) and 1.7e-8
#: (image-check), both float32
DERIVED_ROW_RTOL = 3e-7


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("subcommand", sorted(_COUPLED_RUNS))
def test_multi_scale_rows_equal_single_scale_rows(subcommand, workers, tmp_path):
    # the rows of a direct scale are byte for byte those of a run at that scale
    # alone: 0.2 always, 0.07 too; those of 0.1 = 0.2 / 2 lie within DERIVED_ROW_RTOL
    first = _coupled_run(tmp_path, subcommand, (0.2,), workers)
    cut = 1 if subcommand == "image-check" else len(first)  # the rows at 0.2
    for second in (0.1, 0.07):
        both = _coupled_run(tmp_path, subcommand, (0.2, second), workers)
        alone = _coupled_run(tmp_path, subcommand, (second,), workers)
        if subcommand == "image-check":
            # one Monte Carlo row per scale, then the residual row at the last scale
            expected = [first[0], alone[0], alone[-1]]
        else:
            expected = first + alone
        fields = [[row.as_csv_fields() for row in rows] for rows in (both, expected)]
        assert len(fields[0]) == len(fields[1])
        assert fields[0][:cut] == fields[1][:cut]
        if second == 0.07:
            assert fields[0][cut:] == fields[1][cut:]
            continue
        assert fields[0][cut:] != fields[1][cut:]
        for row, other in zip(both[cut:], expected[cut:]):
            for name in CSV_COLUMNS:
                a, b = getattr(row, name), getattr(other, name)
                if isinstance(b, float) and name != "wall_time_s":
                    assert a == pytest.approx(b, rel=DERIVED_ROW_RTOL, abs=0), name
                else:
                    assert a == b, name


@pytest.mark.parametrize("subcommand", sorted(_COUPLED_RUNS))
def test_multi_scale_run_samples_each_path_once(subcommand, tmp_path, monkeypatch):
    import silt.slt_core as slt_core

    sampled = []
    original = slt_core.sample_path_points

    def counting(n_steps, seed, streams):
        streams = list(streams)
        sampled.extend(streams)
        return original(n_steps, seed, streams)

    monkeypatch.setattr(slt_core, "sample_path_points", counting)
    _coupled_run(tmp_path, subcommand, (0.2, 0.1), 1)
    assert sorted(sampled) == list(range(64))
