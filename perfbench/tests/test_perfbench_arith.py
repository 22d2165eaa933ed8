"""Self-tests of the benchmark's own arithmetic: pair counts, self times, tail rank.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import silt  # noqa: E402
import silt.slt_core  # noqa: E402
from run import tail  # noqa: E402
from spans import Tracer, pair_evals, self_times  # noqa: E402


def literal_counts(n, k, n_eps, M):
    """Kernel evaluations and weight products of the chain recursion, one at a time."""
    evals = products = 0
    for _level in range(2, k + 1):
        for _e in range(n_eps):
            for j in range(n):
                for _i in range(j):
                    evals += 1
                    products += M
    return evals, products


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("n_eps", [1, 2])
def test_pair_formulas_match_a_literal_loop(n, k, M, n_eps):
    evals, products = literal_counts(n, k, n_eps, M)
    assert pair_evals(n, k, n_eps) == evals
    assert pair_evals(n, k, n_eps) * M == products


class _CountingNumpy:
    """numpy with ``exp`` counting the elements it evaluates."""

    def __init__(self):
        self.exp_elements = 0

    def exp(self, x, *args, **kwargs):
        self.exp_elements += np.size(x)
        return np.exp(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("M", [1, 3])
def test_traced_counts_match_the_kernel_evaluations_made(monkeypatch, k, M):
    B, n, eps = 2, 7, [0.3, 0.1]
    points = np.stack([silt.sample_path(n, 5, stream=b).points for b in range(B)])
    rho_rows = np.ones((B, M, n))
    counting = _CountingNumpy()
    monkeypatch.setattr(silt.slt_core, "np", counting)
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        silt.simplex_levels(points, rho_rows, eps, k)
    finally:
        tracer.uninstall()
    evals, products = literal_counts(n, k, len(eps), M)
    assert counting.exp_elements == B * evals
    assert tracer.counts[0]["pair_evals"] == B * evals
    assert tracer.counts[0]["pair_weight_products"] == B * products
    assert silt.simplex_levels is silt.slt_core.__dict__["simplex_levels"]


def span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0, None),   # 0
        span("a", 1.0, 4.0, 0),          # 1
        span("b", 5.0, 9.0, 0),          # 2
        span("c", 6.0, 7.0, 2),          # 3: grandchild, charged to b only
        span("a", 7.5, 8.0, 2),          # 4: same name at another depth adds up
    ]
    out = self_times(spans)
    assert out == pytest.approx({"root": 3.0, "a": 3.5, "b": 2.5, "c": 1.0})
    assert sum(out.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_or_overhanging_children_once():
    spans = [
        span("root", 0.0, 10.0, None),
        span("x", 1.0, 4.0, 0),
        span("x", 3.0, 6.0, 0),    # overlaps the first child by 1
        span("y", 9.0, 12.0, 0),   # runs past the parent's end
    ]
    assert self_times(spans)["root"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tail_is_the_highest_rank_with_ten_samples_above():
    value, pct, above = tail(list(range(25)))
    assert (value, above) == (14, 10)
    assert pct == pytest.approx(60.0)
    value, pct, above = tail([3.0, 1.0, 2.0])
    assert (value, pct, above) == (3.0, 100.0, 0)
