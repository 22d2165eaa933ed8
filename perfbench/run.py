"""silt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload converge --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout (silt is imported from ``src/``).
With ``--trace 0`` the last line of output holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics; the lines above it
are a readable table.  A result file with the environment and the raw samples
goes to ``perfbench/_out/``.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
SETUP_PROBES = 5
OP_LOOP_TIMEOUT_S = 150
TAIL_BEYOND = 10
#: printed with the end-to-end metrics but not in BENCHMARK.json (see README.md)
PRINTED_ONLY_UNITS = {"wall_s_tail": "s", "failed_fraction": "ratio"}


def tail(samples, beyond=TAIL_BEYOND):
    """Highest order statistic with at least ``beyond`` samples above it.

    Returns (value, percentile, samples above); with ``beyond`` or fewer
    samples no such statistic exists and the maximum is returned instead.
    """
    ordered = sorted(samples)
    idx = len(ordered) - 1 - beyond if len(ordered) > beyond else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _op_loop_cmd(mode, args):
    return [sys.executable, str(HERE / "oploop.py"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out-dir", str(OUT_DIR)]


def setup_time(args):
    """Seconds from starting a fresh interpreter until it can call the first op."""
    t0 = time.perf_counter()
    with subprocess.Popen(_op_loop_cmd("probe", args), stdout=subprocess.PIPE,
                          env=_child_env(), cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.wait(timeout=OP_LOOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_op_loop(mode, args):
    # own process group, so that a timeout also stops the op loop's pool workers
    with subprocess.Popen(_op_loop_cmd(mode, args), stdout=subprocess.PIPE, env=_child_env(),
                          cwd=ROOT, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=OP_LOOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"op loop exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def environment(seed):
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or "unknown", "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed,
           "blas": _blas_info(numpy), "git_commit": _git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(l.split(":", 1)[1].strip() for l in fh
                                    if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env[f"L{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


def _blas_info(numpy):
    """The BLAS numpy links and the thread count in effect."""
    import ctypes

    info = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS") if k in os.environ}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(raw, setups, paths_per_op):
    walls = raw["wall_s"]
    if not walls:
        raise RuntimeError("no op completed its checks")
    wall = statistics.median(walls)
    # against the op right after it, which most likely ran at the same machine speed
    cold_excess = max(0.0, raw["warmup_wall_s"] - walls[0])
    rss = raw["maxrss_kb"]
    tail_value, tail_pct, tail_above = tail(walls)
    metrics = {
        "paths_per_s": paths_per_op / wall,
        "wall_s": wall,
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(raw["cpu_s"]),
        "peak_rss_mb": (rss["op_loop"] + rss["largest_worker"]) / 1024.0,
        "setup_s": statistics.median(setups) + cold_excess,
        "failed_fraction": raw["failed"] / raw["attempted"],
    }
    notes = {
        "paths_per_s": f"{paths_per_op} Monte Carlo paths per op / median wall",
        "wall_s": f"median of {len(walls)} ops",
        "wall_s_tail": (f"p{tail_pct:.0f} of {len(walls)} ops, {tail_above} above"
                        + ("" if tail_above >= TAIL_BEYOND else
                           f"; no percentile has {TAIL_BEYOND} above, maximum shown")),
        "cpu_s": "median user+sys per op, op loop plus pool workers",
        "peak_rss_mb": "op loop peak + largest pool worker peak",
        "setup_s": (f"median of {len(setups)} fresh-interpreter probes "
                    f"{statistics.median(setups):.3f} s + warm-up op excess over the next op "
                    f"{cold_excess:.3f} s"),
        "failed_fraction": f"{raw['failed']} of {raw['attempted']} ops",
    }
    return metrics, notes


def per_layer(raw):
    reps = raw["reps"]
    if not reps:
        raise RuntimeError("no traced op completed its checks")
    def med(key):
        return statistics.median(r[key] for r in reps)

    metrics = {name: statistics.median(r["layers"][name] for r in reps)
               for name in reps[0]["layers"]}
    metrics["slt_core.pool.scaling_efficiency"] = (
        med("wall_workers1_s") / (2.0 * med("wall_workers2_s")))
    metrics["trace.overhead_frac"] = med("wall_traced_s") / med("wall_workers1_s") - 1.0
    total = statistics.median(r["traced_self_total_s"] for r in reps)
    names = sorted({n for r in reps for n in r["self_s"]})
    shares = {n: statistics.median(r["self_s"].get(n, 0.0) for r in reps) for n in names}
    notes = {"reps": len(reps), "traced_self_total_s": total, "self_s": shares}
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="silt benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "silt" / "__init__.py").is_file():
        print(f"silt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS or args.seed < 0 or args.seconds < 1:
        print(f"workload must be one of {workloads.WORKLOADS}; seed >= 0; seconds >= 1",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        raw = run_op_loop("trace", args)
        values, notes = per_layer(raw)
        declared = spec["per_layer"]
    else:
        setups = [setup_time(args) for _ in range(SETUP_PROBES)]
        raw = run_op_loop("timed", args)
        values, notes = end_to_end(raw, setups, workloads.mc_paths(args.workload))
        declared = spec["end_to_end"]

    print(f"silt benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    if args.trace:
        total = notes["traced_self_total_s"]
        print(f"  traced self time per layer, median of {notes['reps']} traced ops "
              f"({total:.3f} s per op):")
        for name, s in sorted(notes["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<34} {s:10.4f} s  {100 * s / total:6.2f} %")
    for name, value in values.items():
        unit = next((m["unit"] for m in declared if m["name"] == name),
                    PRINTED_ONLY_UNITS.get(name, ""))
        print(f"  {name:<44} {value:14.6g} {unit:<6} {notes.get(name, '')}")
    if raw["problems"]:
        print("  problems:", *raw["problems"], sep="\n    ")
    print(f"  csv sha256: {raw['csv_sha256']}")

    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "result": result,
              "all_metrics": values, "notes": notes, "raw": raw}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
