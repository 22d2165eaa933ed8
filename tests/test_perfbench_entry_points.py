"""The silt names the benchmark harness in ``perfbench/`` builds and traces through.

The harness sets up every workload with ``workloads.build_op`` and
``workloads.build_weights``, installs ``spans.Tracer``, which rebinds public
silt functions and methods by name, and judges each run with
``workloads.check_result``.  These tests fail when one of those names goes or
a workload's output fails its check.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import silt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_builds_its_op_and_weights(workload, tmp_path):
    op = workloads.build_op(workload, seed=1, workers=1, out_dir=str(tmp_path))
    assert op
    pts = np.array([[0.5, 0.0], [0.0, 0.5]])
    for _, cfg in op:
        weight = workloads.build_weights(cfg)
        if isinstance(weight, silt.HilbertWeight):
            assert weight.coordinate_values(pts).shape == (weight.n_coords, 2)
        else:
            assert weight.oracle.gram(weight.grid).shape == (1, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_passes_the_benchmark_output_checks(workload, tmp_path):
    # the checks behind the benchmark's outputs_incorrect, on the extras run_experiment returns
    for label, cfg in workloads.build_op(workload, 1, 2, str(tmp_path)):
        assert workloads.check_result(label, silt.run_experiment(cfg)) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_ensemble_splits_evenly_over_two_workers(workload, tmp_path, monkeypatch):
    # the benchmark runs two workers; an odd batch count would leave one the extra batch
    batches, sample = [], silt.slt_core.sample_path_points

    def spy(n, seed, streams):
        batches.append(streams)
        return sample(n, seed, streams)

    monkeypatch.setattr(silt.slt_core, "sample_path_points", spy)
    counts = {}
    for label, cfg in workloads.build_op(workload, 1, 2, str(tmp_path)):
        batches.clear()
        silt.run_experiment(cfg)
        counts[label] = len(batches)
    assert any(counts.values())  # every workload sweeps at least one ensemble
    assert all(count % 2 == 0 for count in counts.values()), counts


def test_span_tracer_installs_and_uninstalls():
    spans = _load("spans")
    originals = (silt.slt_core.simplex_levels, silt.image.image_slt,
                 silt.ScalarWeight.__dict__["values"],
                 silt.HilbertWeight.__dict__["coordinate_values"])
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert silt.slt_core.simplex_levels is not originals[0]
        assert silt.image.image_slt is not originals[1]
    finally:
        tracer.uninstall()
    assert (silt.slt_core.simplex_levels, silt.image.image_slt,
            silt.ScalarWeight.__dict__["values"],
            silt.HilbertWeight.__dict__["coordinate_values"]) == originals
