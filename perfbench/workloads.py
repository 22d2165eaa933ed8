"""Workload definitions: the configs one op runs, and the checks on its output.

A workload turns the benchmark seed into a list of ``ExperimentConfig``s; one
op runs them in order through ``silt.cli.run_experiment``.  The benchmark
seed only picks the config seed, so the program never sees it directly.

Path counts are a multiple of 64: the ensemble pool hands out 32-path batches,
so 64 paths split evenly over the two workers (with 32 paths or fewer the run
is silently serial).  Sizes are chosen so that a 20-second run holds at least
five ops of every workload.
"""

import hashlib
import math

import numpy as np

WORKLOADS = ("converge", "small-eps", "hilbert", "diagnostics")

PATHS = 64

#: a converge row fails when its mean is further than this many stderr from
#: the closed-form oracle (the lattice bias at the sizes below is far smaller)
DEV_STDERR_LIMIT = 5.0

#: rare-spike profile rows against their closed form, and the image-identity residual
EXACT_TOL = 1e-10


def config_seed(workload, seed):
    """The program's seed for one benchmark seed: a fixed hash, distinct per workload."""
    digest = hashlib.sha256(f"{workload}:{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def op_specs(workload):
    """(label, ExperimentConfig fields) for every call of one op, seed and workers excluded."""
    if workload == "converge":
        # the pinned acceptance shape (10^4 paths) with fewer paths
        return [("converge", dict(subcommand="converge", k=2, eps_list=(0.1, 0.05, 0.02),
                                  n_paths=PATHS, n_steps=4096,
                                  weight_spec={"kind": "constant", "value": 1.0}))]
    if workload == "small-eps":
        # n = 4096 is the smallest power of two with n >= 10 / eps at eps = 0.0025
        return [("small-eps", dict(subcommand="converge", k=2, eps_list=(0.005, 0.0025),
                                   n_paths=PATHS, n_steps=4096,
                                   weight_spec={"kind": "constant", "value": 1.0}))]
    if workload == "hilbert":
        return [("hilbert", dict(subcommand="hilbert", k=3, eps_list=(0.05,),
                                 n_paths=PATHS, n_steps=1024,
                                 weight_spec={"kind": "rare-spike", "n_levels": 30}))]
    if workload == "diagnostics":
        swirl = {"kind": "jacobian", "map": "swirl"}
        return [
            ("brick-occupation", dict(subcommand="brick-check", n_paths=PATHS, n_steps=1024,
                                      weight_spec={"kind": "occupation", "mc_samples": 500})),
            ("brick-spike", dict(subcommand="brick-check", n_paths=PATHS, n_steps=1024,
                                 weight_spec={"kind": "rare-spike", "n_levels": 50})),
            ("lemma-delta", dict(subcommand="lemma-delta", k=3, eps_list=(0.1, 0.01),
                                 n_paths=PATHS, n_steps=1024, weight_spec=swirl)),
            ("image-check", dict(subcommand="image-check", k=2, eps_list=(0.1, 0.05),
                                 n_paths=PATHS, n_steps=1024, weight_spec=swirl)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def mc_paths(workload):
    """Monte Carlo paths one op completes: paths times ensemble sweeps.

    converge and hilbert sweep all their scales in one ensemble; image-check
    runs one ensemble per scale; the other diagnostics sample no ensemble.
    """
    total = 0
    for _, spec in op_specs(workload):
        if spec["subcommand"] == "converge":
            total += spec["n_paths"]
        elif spec["subcommand"] in ("hilbert", "image-check"):
            total += spec["n_paths"] * len(spec["eps_list"])
    return total


def build_op(workload, seed, workers, out_dir):
    """The validated configs of one op, in call order."""
    from silt.cli import ExperimentConfig

    cfg_seed = config_seed(workload, seed)
    return [(label, ExperimentConfig(seed=cfg_seed, workers=workers,
                                     output_path=f"{out_dir}/{workload}-{label}",
                                     **spec).validate())
            for label, spec in op_specs(workload)]


def build_weights(cfg):
    """Construct the weight a run of ``cfg`` evaluates, through silt's public API."""
    import silt

    spec = cfg.weight_spec
    if spec["kind"] == "constant":
        return silt.ScalarWeight.constant(float(spec["value"]))
    if spec["kind"] == "jacobian":
        return silt.jacobian_weight(silt.builtin_maps()[spec["map"]], max(cfg.k, 2))
    if spec["kind"] == "rare-spike":
        n = int(spec["n_levels"])
        return silt.rare_spike_weight(n).compose(silt.RadialParameterMap(t_max=float(n)))
    return silt.occupation_density_field(np.array([[0.5, 0.0]]), int(spec["mc_samples"]),
                                         cfg.seed)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------

def _finite(value):
    return value is not None and math.isfinite(float(value))


def _row_problems(result, fields):
    problems = []
    for i, row in enumerate(result.rows):
        for name in fields:
            value = getattr(row, name)
            if value is not None and not _finite(value):
                problems.append(f"row {i} {name} = {value} is not finite")
    return problems


def check_result(label, result):
    """Problems with one run_experiment result, judged by the call's label."""
    sub = result.config.subcommand
    problems = _row_problems(result, ("mean", "stderr", "m1", "m2", "m4", "oracle",
                                      "dev_stderr"))
    if sub == "converge":
        for row in result.rows:
            if not _finite(row.dev_stderr):
                problems.append(f"eps={row.epsilon}: no finite dev_stderr")
            elif row.dev_stderr > DEV_STDERR_LIMIT:
                problems.append(f"eps={row.epsilon}: mean {row.mean} is {row.dev_stderr:.2f} "
                                f"stderr from the oracle {row.oracle}")
    elif sub == "hilbert":
        for eps, res in result.extras["results"].items():
            partial = np.asarray(res.norm_sq_partial)
            if not np.all(np.isfinite(partial)):
                problems.append(f"eps={eps}: norm_sq_partial is not finite")
            elif np.any(np.diff(partial) < 0):
                problems.append(f"eps={eps}: norm_sq_partial decreases")
    elif label == "brick-spike":
        profile_rows = [r for r in result.rows if r.oracle is not None]
        worst = max(abs(r.mean - r.oracle) for r in profile_rows)
        if not worst <= EXACT_TOL:
            problems.append(f"rare-spike profile is {worst:.3g} from its oracle column")
        if not result.extras["contained"]:
            problems.append("the covering brick does not contain the skeleton")
    elif sub == "lemma-delta":
        deviations = [r.deviation for r in result.extras["table"]]
        if any(b >= a for a, b in zip(deviations, deviations[1:])):
            problems.append(f"lemma-delta deviations do not decrease: {deviations}")
    elif sub == "image-check":
        residual = result.extras["max_residual"]
        if not residual <= EXACT_TOL:
            problems.append(f"image identity residual {residual:.3g} exceeds {EXACT_TOL:g}")
    return problems
