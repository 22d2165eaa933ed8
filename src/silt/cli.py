"""Experiment configuration, orchestration, and bit-stable result emission.

Results are written as a CSV table with a fixed column order plus a JSON
sidecar carrying the full configuration and the library version.  All
randomness flows from the single config seed through the documented splitting
rule (path i reads ``Philox(key=seed).jumped(i)``); identical configs produce
byte-identical files.  Wall-clock timings are opt-in (``--timings``) because
they are the one quantity that cannot be reproducible.
"""

import argparse
import csv
import io
import json
import time
from dataclasses import dataclass, asdict, field

import numpy as np

from . import __version__
from .exceptions import ConfigError
from .slt_core import (EnsembleConfig, check_resolution, ensemble_renormalized,
                       renorm_double_mean, resolution_warning_once)
from .weights import (RadialParameterMap, ScalarWeight, coordinate_sup_profile,
                      hilbert_slt, jacobian_weight, occupation_density_field,
                      rare_spike_weight)
from .brick import (FiniteCompact, brick_contains, canonical_metric,
                    covering_brick, dudley_estimate, isonormal_sample)
from .image import builtin_maps, bump_function, delta_family_check, image_slt

SUBCOMMANDS = ("converge", "hilbert", "brick-check", "image-check", "lemma-delta")
WEIGHT_KINDS = ("constant", "jacobian", "rare-spike", "occupation")

CSV_COLUMNS = ("subcommand", "k", "epsilon", "mean", "stderr", "m1", "m2", "m4",
               "oracle", "dev_stderr", "n_paths", "n_steps", "seed", "wall_time_s")

_DEFAULT_OCCUPATION_GRID = ((0.5, 0.0), (0.0, 0.7), (-0.6, 0.2), (0.3, -0.5), (-0.2, -0.4))
_DELTA_POINT = (0.3, -0.1)
_DELTA_RADIUS = 1.5


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: subcommand, sizes, scales, weight, and output location."""

    subcommand: str
    k: int = 2
    eps_list: tuple = (0.1, 0.05, 0.02)
    n_paths: int = 10_000
    n_steps: int = 4096
    seed: int = 2024
    weight_spec: dict = field(default_factory=lambda: {"kind": "constant", "value": 1.0})
    output_path: str = "silt_results"
    workers: int | None = None
    dtype: str = "float32"
    quad_nodes: int = 41
    timings: bool = False

    def validate(self):
        """Collect every violation; raise ConfigError listing all of them."""
        problems = []
        if self.subcommand not in SUBCOMMANDS:
            problems.append(f"unknown subcommand {self.subcommand!r}")
        if self.k < 1:
            problems.append(f"k must be >= 1, got {self.k}")
        eps = tuple(float(e) for e in self.eps_list)
        if len(eps) == 0:
            problems.append("eps_list must be nonempty")
        elif any(e <= 0 for e in eps):
            problems.append("eps_list entries must be > 0")
        elif any(b >= a for a, b in zip(eps, eps[1:])):
            problems.append("eps_list not strictly decreasing")
        if self.n_paths < 2:
            problems.append(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 1:
            problems.append(f"n_steps must be >= 1, got {self.n_steps}")
        if not (0 <= int(self.seed) < 2**64):
            problems.append("seed must be an unsigned 64-bit integer")
        if self.dtype not in ("float32", "float64"):
            problems.append(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not self.output_path:
            problems.append("output_path must be nonempty")
        problems += self._validate_weight()
        if problems:
            raise ConfigError(problems)
        if eps:
            check_resolution(self.n_steps, eps)
        return self

    def _validate_weight(self):
        spec = self.weight_spec
        problems = []
        kind = spec.get("kind")
        if kind not in WEIGHT_KINDS:
            return [f"unknown weight kind {kind!r}"]
        if kind == "constant" and _spec_number(spec, "value", float) is None:
            problems.append(f"constant weight needs a numeric 'value', got {spec.get('value')!r}")
        if kind == "jacobian":
            if spec.get("map") not in builtin_maps():
                problems.append(f"jacobian weight needs a builtin 'map', one of "
                                f"{sorted(builtin_maps())}")
            if self.k < 2 and self.subcommand == "converge":
                problems.append("jacobian weight needs k >= 2")
        if kind == "rare-spike" and (_spec_number(spec, "n_levels", int) or 0) < 2:
            problems.append(f"rare-spike weight needs an integer n_levels >= 2, "
                            f"got {spec.get('n_levels')!r}")
        if kind == "occupation" and (_spec_number(spec, "mc_samples", int) or 0) < 100:
            problems.append(f"occupation weight needs an integer mc_samples >= 100, "
                            f"got {spec.get('mc_samples')!r}")
        allowed = {
            "converge": ("constant", "jacobian"),
            "hilbert": ("rare-spike",),
            "brick-check": ("rare-spike", "occupation"),
            "image-check": ("jacobian",),
            "lemma-delta": ("jacobian",),
        }.get(self.subcommand)
        if allowed and kind not in allowed:
            problems.append(f"subcommand {self.subcommand!r} supports weight kinds "
                            f"{allowed}, got {kind!r}")
        return problems

    def ensemble(self) -> EnsembleConfig:
        return EnsembleConfig(n_paths=self.n_paths, n_steps=self.n_steps,
                              seed=self.seed, workers=self.workers, dtype=self.dtype)


def _spec_number(spec, key, kind):
    """``kind(spec[key])``, or None when the entry is missing or does not convert."""
    try:
        return kind(spec[key])
    except (KeyError, TypeError, ValueError):
        return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"configuration is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a JSON object"])
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError([f"unknown config fields: {unknown}"])
    if "subcommand" not in raw:
        raise ConfigError(["missing required field 'subcommand'"])
    if "eps_list" in raw:
        raw["eps_list"] = tuple(raw["eps_list"])
    return ExperimentConfig(**raw).validate()


def config_to_json(cfg: ExperimentConfig) -> str:
    d = asdict(cfg)
    d["eps_list"] = list(cfg.eps_list)
    return json.dumps(d, sort_keys=True, indent=2)


@dataclass
class ResultRow:
    """One CSV row; oracle fields stay empty exactly when no closed form applies."""

    subcommand: str
    k: int | None = None
    epsilon: float | None = None
    mean: float | None = None
    stderr: float | None = None
    m1: float | None = None
    m2: float | None = None
    m4: float | None = None
    oracle: float | None = None
    dev_stderr: float | None = None
    n_paths: int | None = None
    n_steps: int | None = None
    seed: int | None = None
    wall_time_s: float | None = None

    def as_csv_fields(self):
        out = []
        for name in CSV_COLUMNS:
            v = getattr(self, name)
            if v is None:
                out.append("")
            elif isinstance(v, str):
                out.append(v)
            elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                out.append(str(int(v)))
            else:
                out.append(repr(float(v)))
        return out


@dataclass
class RunResult:
    config: ExperimentConfig
    rows: list
    extras: dict
    csv_path: str
    sidecar_path: str


def _stats_row(cfg, stats, epsilon, oracle=None):
    dev = None
    if oracle is not None and stats.stderr > 0:
        dev = abs(stats.mean - oracle) / stats.stderr
    return ResultRow(subcommand=cfg.subcommand, k=cfg.k, epsilon=epsilon,
                     mean=stats.mean, stderr=stats.stderr,
                     m1=stats.abs_moments[1], m2=stats.abs_moments[2],
                     m4=stats.abs_moments[4], oracle=oracle, dev_stderr=dev,
                     n_paths=cfg.n_paths, n_steps=cfg.n_steps, seed=cfg.seed)


def _scalar_weight(cfg):
    spec = cfg.weight_spec
    if spec["kind"] == "constant":
        return ScalarWeight.constant(float(spec["value"]))
    return jacobian_weight(builtin_maps()[spec["map"]], cfg.k)


def _constant_weight_value(cfg):
    """The constant c when the configured weight is constant, else None."""
    spec = cfg.weight_spec
    if spec["kind"] == "constant":
        return float(spec["value"])
    if spec["kind"] == "jacobian":
        F = builtin_maps()[spec["map"]]
        det = np.abs(F.jac_det(np.array([[0.0, 0.0], [0.7, -0.3]])))
        if np.ptp(det) == 0.0:  # affine maps: constant Jacobian
            return float(det[0]) ** (-(cfg.k - 1))
    return None


def _renorm_oracle(cfg, epsilon):
    c = _constant_weight_value(cfg)
    if c is None:
        return None
    if cfg.k == 1:
        return c
    if cfg.k == 2:
        return c * renorm_double_mean(epsilon)
    return None


def _run_converge(cfg):
    rho = _scalar_weight(cfg)
    result = ensemble_renormalized(cfg.ensemble(), cfg.eps_list, cfg.k, rho)
    rows, level_stats = [], {}
    for e, eps in enumerate(cfg.eps_list):
        stats = result.stats(eps_index=e)
        rows.append(_stats_row(cfg, stats, eps, oracle=_renorm_oracle(cfg, eps)))
        level_stats[eps] = [result.level_stats(l, eps_index=e) for l in range(1, cfg.k + 1)]
    return rows, {"level_stats": level_stats, "ensemble": result}


def _run_hilbert(cfg):
    n_levels = int(cfg.weight_spec["n_levels"])
    weight = rare_spike_weight(n_levels).compose(RadialParameterMap(t_max=float(n_levels)))
    rows, summaries = [], {}
    for eps in cfg.eps_list:
        res = hilbert_slt(cfg.ensemble(), weight, eps, cfg.k)
        for stats in res.coord_stats:
            rows.append(_stats_row(cfg, stats, eps))
        rows.append(ResultRow(subcommand=cfg.subcommand, k=cfg.k, epsilon=eps,
                              mean=float(res.norm_sq_partial[-1]),
                              n_paths=cfg.n_paths, n_steps=cfg.n_steps, seed=cfg.seed))
        summaries[eps] = res
    return rows, {"results": summaries, "tail_bound": weight.tail_bound}


def _run_brick_check(cfg):
    if cfg.weight_spec["kind"] == "rare-spike":
        return _brick_check_spike(cfg)
    return _brick_check_occupation(cfg)


def _brick_check_spike(cfg):
    n_levels = int(cfg.weight_spec["n_levels"])
    weight = rare_spike_weight(n_levels)
    grid = weight.default_grid()
    profile = coordinate_sup_profile(weight, grid)

    coords = weight.coordinate_values(grid).T
    skeleton = FiniteCompact(points=coords, basis_label=weight.basis_label)
    cover = covering_brick(skeleton)
    contained = all(brick_contains(x, cover) for x in coords)

    # closed-form profile prediction: largest-pivot order of the Schur diagonal
    n = np.arange(1, n_levels + 1, dtype=float)
    predicted = np.sort(np.r_[1.0, (n[1:] ** (-2.0 / 3.0) - n[1:] ** (-5.0 / 3.0))])[::-1]

    rows = []
    for m in range(n_levels):
        rows.append(ResultRow(subcommand=cfg.subcommand, k=cfg.k, epsilon=float(m + 1),
                              mean=float(profile.sup_squares[m]),
                              oracle=float(predicted[m]),
                              n_paths=cfg.n_paths, n_steps=cfg.n_steps, seed=cfg.seed))
    metric = canonical_metric(coords @ coords.T)
    dudley = dudley_estimate(skeleton, metric)
    rows.append(ResultRow(subcommand=cfg.subcommand, k=cfg.k, mean=dudley,
                          n_paths=cfg.n_paths, n_steps=cfg.n_steps, seed=cfg.seed))
    extras = {"profile": profile, "contained": contained, "dudley": dudley,
              "weight": weight}
    return rows, extras


def _brick_check_occupation(cfg):
    spec = cfg.weight_spec
    grid = np.asarray(spec.get("grid", _DEFAULT_OCCUPATION_GRID), dtype=float)
    field_ = occupation_density_field(grid, int(spec["mc_samples"]), cfg.seed)
    G = field_.covariance_matrix()
    sample = isonormal_sample(grid, max(cfg.n_paths, 2), cfg.seed + 1,
                              oracle=field_.oracle)
    metric = canonical_metric(G)
    dudley = dudley_estimate(FiniteCompact(points=grid), metric)
    emp = sample.empirical_covariance()
    frob = float(np.linalg.norm(emp - G) / np.linalg.norm(G))
    rows = [ResultRow(subcommand=cfg.subcommand, k=cfg.k, mean=dudley,
                      stderr=frob, n_paths=cfg.n_paths, n_steps=cfg.n_steps,
                      seed=cfg.seed)]
    extras = {"gram": G, "sample": sample, "dudley": dudley, "frobenius_rel": frob,
              "field": field_}
    return rows, extras


def _run_image_check(cfg):
    from .image import renorm_image
    from .path_sim import sample_path

    F = builtin_maps()[cfg.weight_spec["map"]]
    rows = []
    for eps in cfg.eps_list:
        stats = renorm_image(cfg.ensemble(), F, eps, cfg.k)
        rows.append(_stats_row(cfg, stats, eps, oracle=_renorm_oracle(cfg, eps)))
    residuals = []
    for i in range(16):
        path = sample_path(min(cfg.n_steps, 512), cfg.seed, stream=i)
        residuals.append(image_slt(path, F, cfg.eps_list[-1], cfg.k).residual)
    rows.append(ResultRow(subcommand=cfg.subcommand, k=cfg.k,
                          mean=float(np.max(residuals)),
                          n_paths=cfg.n_paths, n_steps=cfg.n_steps, seed=cfg.seed))
    return rows, {"max_residual": float(np.max(residuals))}


def _run_lemma_delta(cfg):
    F = builtin_maps()[cfg.weight_spec["map"]]
    phi = bump_function(center=_DELTA_POINT, radius=_DELTA_RADIUS)
    table = delta_family_check(phi, np.asarray(_DELTA_POINT), F, cfg.eps_list,
                               k=min(cfg.k, 3) if cfg.k >= 2 else 2,
                               n_nodes=cfg.quad_nodes)
    rows = [ResultRow(subcommand=cfg.subcommand, k=cfg.k, epsilon=r.epsilon,
                      mean=r.value, oracle=r.target,
                      n_paths=cfg.n_paths, n_steps=cfg.n_steps, seed=cfg.seed)
            for r in table]
    return rows, {"table": table}


_PIPELINES = {
    "converge": _run_converge,
    "hilbert": _run_hilbert,
    "brick-check": _run_brick_check,
    "image-check": _run_image_check,
    "lemma-delta": _run_lemma_delta,
}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Dispatch a validated config, write the CSV table and JSON sidecar.

    Identical configs yield byte-identical files (timings are opt-in and
    excluded by default precisely to keep that contract).  A ConfigError
    raised by a pipeline propagates unchanged; any other failure is re-raised
    as a RuntimeError naming the subcommand and scales.  The resolution
    warning fires at most once per call.
    """
    with resolution_warning_once():
        cfg.validate()
        t0 = time.perf_counter()
        try:
            rows, extras = _PIPELINES[cfg.subcommand](cfg)
        except ConfigError:
            raise
        except Exception as exc:
            raise RuntimeError(
                f"{cfg.subcommand} run failed (eps_list={list(cfg.eps_list)}): {exc}"
            ) from exc
    wall = time.perf_counter() - t0
    if cfg.timings:
        for row in rows:
            row.wall_time_s = wall

    csv_path = cfg.output_path + ".csv"
    sidecar_path = cfg.output_path + ".json"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_fields())
    with open(csv_path, "w", newline="") as fh:
        fh.write(buf.getvalue())

    sidecar = {"config": json.loads(config_to_json(cfg)), "version": __version__}
    if cfg.timings:
        sidecar["timings"] = {"wall_time_s": wall}
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return RunResult(config=cfg, rows=rows, extras=extras,
                     csv_path=csv_path, sidecar_path=sidecar_path)


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------

def _flag_number(arg, kind, default):
    """``kind(arg)``, ``default`` for an empty ``arg``; text that does not convert
    is kept as is, for ``validate`` to report with the other violations."""
    if not arg:
        return default
    try:
        return kind(arg)
    except ValueError:
        return arg


def _parse_weight_flag(text):
    kind, _, arg = text.partition(":")
    if kind == "const":
        return {"kind": "constant", "value": _flag_number(arg, float, 1.0)}
    if kind in ("jac", "jacobian"):
        return {"kind": "jacobian", "map": arg or "identity"}
    if kind == "rare-spike":
        return {"kind": "rare-spike", "n_levels": _flag_number(arg, int, 30)}
    if kind == "occupation":
        return {"kind": "occupation", "mc_samples": _flag_number(arg, int, 2000)}
    raise ConfigError([f"cannot parse weight spec {text!r}; use const:C, jacobian:MAP, "
                       "rare-spike:N or occupation:SAMPLES"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="silt",
        description="Renormalized self-intersection local time experiments "
                    "for planar Brownian motion.",
    )
    parser.add_argument("--subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.05, 0.02],
                        help="decreasing kernel scales")
    parser.add_argument("--paths", type=int, default=10_000, dest="n_paths")
    parser.add_argument("--steps", type=int, default=4096, dest="n_steps")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--weight", type=str, default="const:1.0",
                        help="const:C | jacobian:MAP | rare-spike:N | occupation:SAMPLES")
    parser.add_argument("--out", type=str, default="silt_results", dest="output_path")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    parser.add_argument("--timings", action="store_true",
                        help="record wall times (breaks byte-identical reruns)")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file; overrides all flags")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with resolution_warning_once():
            if args.config:
                with open(args.config) as fh:
                    cfg = parse_config(fh.read())
            else:
                if not args.subcommand:
                    raise ConfigError(["--subcommand is required (or use --config)"])
                cfg = ExperimentConfig(
                    subcommand=args.subcommand, k=args.k, eps_list=tuple(args.eps),
                    n_paths=args.n_paths, n_steps=args.n_steps, seed=args.seed,
                    weight_spec=_parse_weight_flag(args.weight),
                    output_path=args.output_path, workers=args.workers,
                    dtype=args.dtype, timings=args.timings,
                ).validate()
            result = run_experiment(cfg)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}")
        return 2
    print(f"wrote {result.csv_path} ({len(result.rows)} rows) and {result.sidecar_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
