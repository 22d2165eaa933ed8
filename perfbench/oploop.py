"""Runs the ops of one workload in a fresh interpreter and prints raw samples as JSON.

``run.py`` starts this script; its modes are

* ``probe``: import silt, validate the op's configs, construct their weights,
  print ``ready`` and exit (the set-up time is taken by the parent);
* ``timed``: one untimed warm-up op, then ops at ``workers=2`` for the
  given seconds (at least three ops);
* ``trace``: one warm-up op, then repeated triples of an untraced
  ``workers=2`` op, an untraced ``workers=1`` op and a traced ``workers=1``
  op for the given seconds (at least one triple).

Every op's output is checked and its CSVs hashed; the last line printed is
one JSON object.
"""

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path

import workloads

WORKERS = 2
MAX_FAILED_OPS = 3
MIN_OPS = 3


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, once reaped
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class OpRunner:
    """Runs ops in a closed loop (one at a time) and checks every output."""

    def __init__(self, workload, seed, out_dir):
        from silt import cli

        self.cli = cli
        self.ops = {w: workloads.build_op(workload, seed, w, out_dir) for w in (1, WORKERS)}
        self.reference = None  # CSV digests of the first op
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, workers, around=None):
        """One op; returns (wall_s, cpu_s, ok).  ``around`` wraps the op's calls."""
        self.attempted += 1
        problems, digests = [], {}
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with around() if around else contextlib.nullcontext():
                results = [(label, self.cli.run_experiment(cfg))
                           for label, cfg in self.ops[workers]]
        except Exception as exc:  # an op that raises is counted, not fatal
            results = []
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        for label, result in results:
            problems += [f"{label}: {p}" for p in workloads.check_result(label, result)]
            digests[label] = hashlib.sha256(Path(result.csv_path).read_bytes()).hexdigest()
        if results:
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                problems.append("CSV bytes differ from the first op of the run")
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        return wall, cpu, not problems

    def exhausted(self):
        return self.failed >= MAX_FAILED_OPS

    def summary(self):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20], "csv_sha256": self.reference,
                "maxrss_kb": {"op_loop": own, "largest_worker": kids}}


def probe(workload, seed, out_dir):
    for _, cfg in workloads.build_op(workload, seed, WORKERS, out_dir):
        workloads.build_weights(cfg)
    print("ready", flush=True)


def timed(runner, seconds):
    warm_wall, warm_cpu, _ = runner.run(WORKERS)
    walls, cpus = [], []
    start = time.perf_counter()
    # start an op only if it is expected to end within the run (median op so far)
    while len(walls) < MIN_OPS or \
            time.perf_counter() - start + statistics.median(walls) <= seconds:
        if runner.exhausted():
            break
        wall, cpu, ok = runner.run(WORKERS)
        if ok:
            walls.append(wall)
            cpus.append(cpu)
    return {"warmup_wall_s": warm_wall, "warmup_cpu_s": warm_cpu,
            "wall_s": walls, "cpu_s": cpus, **runner.summary()}


def traced(runner, seconds, trace_path):
    from spans import Tracer

    runner.run(WORKERS)
    tracer = Tracer()
    reps = []
    start = time.perf_counter()
    # at least one triple; another only if it is expected to end within the run
    while not reps or time.perf_counter() - start + rep_s <= seconds:
        if runner.exhausted():
            break
        rep_start = time.perf_counter()
        wall2, _, ok2 = runner.run(WORKERS)
        wall1, _, ok1 = runner.run(1)
        tracer.op = len(tracer.spans)  # a fresh op id, also after a failed op
        tracer.install()
        try:
            wall_t, _, ok_t = runner.run(1, around=lambda: tracer.span("bench.op"))
        finally:
            tracer.uninstall()
        if ok2 and ok1 and ok_t:
            metrics, selft, total = tracer.layer_metrics(tracer.op)
            reps.append({"wall_workers2_s": wall2, "wall_workers1_s": wall1,
                         "wall_traced_s": wall_t, "layers": metrics,
                         "self_s": selft, "traced_self_total_s": total})
        rep_s = time.perf_counter() - rep_start
    Path(trace_path).write_text(json.dumps(
        {"spans": [s for op in sorted(tracer.spans) for s in tracer.spans[op]],
         "counts": {op: dict(c) for op, c in tracer.counts.items()}}))
    return {"reps": reps, "trace_file": str(trace_path), **runner.summary()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "timed", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    if args.mode == "probe":
        probe(args.workload, args.seed, args.out_dir)
        return
    runner = OpRunner(args.workload, args.seed, args.out_dir)
    if args.mode == "timed":
        result = timed(runner, args.seconds)
    else:
        result = traced(runner, args.seconds,
                        Path(args.out_dir) / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
