"""Span tracing installed from outside silt, and the per-layer arithmetic.

``Tracer.install`` rebinds the public functions the pipelines call (in every
silt module that imported them) and a few methods, so that each call records
a span ``[name, start, end, parent, op]`` in memory.  Counters record the work
done at the same boundaries.  Nothing inside silt changes; ``uninstall``
puts the originals back.  Spans land in one process only, so a traced op must
run with ``workers=1``.
"""

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np


def pair_evals(n_steps, k, n_eps):
    """Kernel evaluations ``simplex_levels`` makes for one path.

    Each of the levels 2..k sweeps every node pair i < j once per scale.
    """
    return n_eps * (k - 1) * n_steps * (n_steps - 1) // 2


def self_times(spans):
    """Self time per span name: each span's duration minus what its children cover.

    ``spans`` are ``(name, start, end, parent_index, op)`` records; the covered
    part is the union of the direct children's intervals, clipped to the span.
    """
    children = defaultdict(list)
    for record in spans:
        if record[3] is not None:
            children[record[3]].append((record[1], record[2]))
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


class _CountedMap:
    """A diffeomorphism callable that counts its calls and mapped points."""

    def __init__(self, tracer, fn):
        self._tracer, self._fn = tracer, fn

    def __call__(self, pts):
        self._tracer.add("map_calls", 1)
        self._tracer.add("map_points", np.atleast_2d(pts).shape[0])
        return self._fn(pts)


class Tracer:
    """In-memory spans and counters of the traced ops of one run, keyed by op."""

    def __init__(self):
        self.spans = defaultdict(list)  # op -> records; parents index the same list
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._stack = []
        self._restore = []

    def add(self, key, amount):
        self.counts[self.op][key] += amount

    def parent_name(self, record):
        return None if record[3] is None else self.spans[record[4]][record[3]][0]

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body, nested under the innermost open span."""
        spans = self.spans[self.op]
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(spans))
        spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter=None):
        """``fn`` recording a span per call; ``counter(tracer, record, bound_args, result)``."""
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, record, signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def _rebind_everywhere(self, module_name, attr, replacement_for):
        original = getattr(sys.modules[module_name], attr)
        replacement = replacement_for(original)
        for name, module in list(sys.modules.items()):
            if (name == "silt" or name.startswith("silt.")) and \
                    getattr(module, attr, None) is original:
                setattr(module, attr, replacement)
                self._restore.append((module, attr, original))

    def install(self):
        """Wrap silt's layer boundaries; every silt module must already be imported."""
        functions = [
            ("silt.cli", "run_experiment", "cli.run_experiment", _count_emit),
            ("silt.slt_core", "ensemble_renormalized", "slt_core.ensemble_renormalized", None),
            ("silt.slt_core", "simplex_levels", "slt_core.simplex_levels", _count_pairs),
            ("silt.slt_core", "dynkin_renormalize", "slt_core.dynkin_renormalize", None),
            ("silt.path_sim", "sample_path_points", "path_sim.sample_path_points",
             _count_path_batch),
            ("silt.path_sim", "sample_path", "path_sim.sample_path", _count_one_path),
            ("silt.weights", "occupation_kernel", "weights.occupation_kernel",
             _count_occupation),
            ("silt.brick", "isonormal_sample", "brick.isonormal_sample", None),
            ("silt.brick", "dudley_estimate", "brick.dudley_estimate", None),
            ("silt.image", "delta_family_check", "image.delta_family_check", None),
            ("silt.image", "image_slt", "image.image_slt", None),
        ]
        for module_name, attr, span, counter in functions:
            self._rebind_everywhere(module_name, attr,
                                    lambda fn, s=span, c=counter: self.wrap(s, fn, c))
        self._rebind_everywhere("silt.image", "builtin_maps", self._counted_maps)

        weights = sys.modules["silt.weights"]
        methods = [
            (weights.ScalarWeight, "values", "weights.eval", _count_eval),
            (weights.HilbertWeight, "coordinate_values", "weights.eval", _count_eval),
            (weights.CovarianceOracle, "gram", "weights.CovarianceOracle.gram", None),
        ]
        for cls, attr, span, counter in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(span, original, counter))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _counted_maps(self, builtin_maps):
        image = sys.modules["silt.image"]

        @functools.wraps(builtin_maps)
        def counted():
            return {name: image.Diffeomorphism(
                        forward=_CountedMap(self, F.forward),
                        inverse=_CountedMap(self, F.inverse),
                        jac_det=_CountedMap(self, F.jac_det),
                        det_lower_bound=F.det_lower_bound, name=F.name)
                    for name, F in builtin_maps().items()}
        return counted

    # -- per-layer metrics of one traced op -------------------------------

    def layer_metrics(self, op):
        """Self time per layer and the work counters of one traced op."""
        selft = self_times(self.spans[op])
        total = sum(selft.values())
        counts = self.counts[op]
        sweep_s = selft.get("slt_core.simplex_levels", 0.0)
        metrics = {f"{name}.self_s": selft.get(name, 0.0) for name in LAYER_SPANS}
        metrics.update({
            "slt_core.simplex_levels.pair_evals": counts["pair_evals"],
            "slt_core.simplex_levels.pair_weight_products": counts["pair_weight_products"],
            "slt_core.simplex_levels.pair_evals_per_s":
                counts["pair_evals"] / sweep_s if sweep_s > 0 else 0.0,
            "slt_core.simplex_levels.self_frac": sweep_s / total if total > 0 else 0.0,
            "path_sim.paths": counts["paths"],
            "weights.eval.points": counts["weight_points"],
            "weights.occupation_kernel.points": counts["occupation_points"],
            "image.map_calls": counts["map_calls"],
            "image.map_points": counts["map_points"],
            "cli.emit_bytes": counts["emit_bytes"],
        })
        return metrics, selft, total


#: spans whose self time is reported as ``<name>.self_s``
LAYER_SPANS = (
    "cli.run_experiment",
    "slt_core.ensemble_renormalized",
    "slt_core.simplex_levels",
    "slt_core.dynkin_renormalize",
    "path_sim.sample_path_points",
    "weights.eval",
    "weights.occupation_kernel",
    "weights.CovarianceOracle.gram",
    "brick.isonormal_sample",
    "brick.dudley_estimate",
    "image.delta_family_check",
    "image.image_slt",
)


# -- counters: (tracer, span record, bound arguments, result) ---------------

def _count_pairs(tracer, record, args, result):
    B, n_nodes, _ = np.shape(args["points"])
    M = np.shape(args["rho_rows"])[1]
    pairs = B * pair_evals(n_nodes - 1, int(args["k"]), len(args["eps_list"]))
    tracer.add("pair_evals", pairs)
    tracer.add("pair_weight_products", pairs * M)


def _count_path_batch(tracer, record, args, result):
    tracer.add("paths", len(result))


def _count_one_path(tracer, record, args, result):
    tracer.add("paths", 1)


def _count_eval(tracer, record, args, result):
    # HilbertWeight.coordinate_values evaluates through ScalarWeight.values:
    # count the points once, at the outermost evaluation
    if tracer.parent_name(record) != "weights.eval":
        tracer.add("weight_points", np.size(result))


def _count_occupation(tracer, record, args, result):
    tracer.add("occupation_points", np.atleast_2d(np.asarray(args["points"])).shape[0])


def _count_emit(tracer, record, args, result):
    tracer.add("emit_bytes", os.path.getsize(result.csv_path)
               + os.path.getsize(result.sidecar_path))
