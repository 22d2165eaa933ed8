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
import os
import time
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from . import __version__
from .exceptions import ConfigError
from .slt_core import EnsembleConfig, _one_blas_thread, ensemble_renormalized, renorm_double_mean
from .path_sim import PlanarPath, sample_path_points
from .weights import (HilbertSltResult, RadialParameterMap, ScalarWeight,
                      coordinate_sup_profile, jacobian_weight, occupation_density_field,
                      rare_spike_weight, spike_grid)
from .brick import (FiniteCompact, brick_contains, canonical_metric,
                    covering_brick, dudley_estimate, isonormal_sample)
from .image import builtin_maps, bump_function, delta_family_check, image_slt

SUBCOMMANDS = ("converge", "hilbert", "brick-check", "image-check", "lemma-delta")
#: each weight kind and the ``weight_spec`` fields it reads besides ``kind``
WEIGHT_KINDS = {"constant": ("value",), "jacobian": ("map",), "rare-spike": ("n_levels",),
                "occupation": ("mc_samples",)}

_OCCUPATION_GRID = ((0.5, 0.0), (0.0, 0.7), (-0.6, 0.2), (0.3, -0.5), (-0.2, -0.4))
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
    timings: bool = False

    def validate(self):
        """Collect every violation; raise ConfigError listing all of them."""
        problems = []
        if self.subcommand not in SUBCOMMANDS:
            problems.append(f"unknown subcommand {self.subcommand!r}")
        given = vars(self)
        ints = {}
        optional = ("workers",) if self.workers is not None else ()  # null: one per CPU
        for name in ("k", "n_paths", "n_steps", "seed") + optional:
            value = _spec_number(given, name, int)
            if value is None:
                problems.append(f"{name} must be an integer, got {given[name]!r}")
            else:
                ints[name] = value
        if ints.get("workers", 1) < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        if ints.get("k", 1) < 1:
            problems.append(f"k must be >= 1, got {self.k}")
        elif self.subcommand == "lemma-delta" and ints.get("k", 2) not in (2, 3):
            problems.append("lemma-delta supports k = 2 or 3")
        entries = self.eps_list if isinstance(self.eps_list, (list, tuple)) else (None,)
        eps = tuple(_spec_number(entries, i, float) for i in range(len(entries)))
        if len(eps) == 0:
            problems.append("eps_list must be nonempty")
        elif None in eps:
            problems.append(f"eps_list must be a list of numbers, got {self.eps_list!r}")
        elif not all(0 < e < np.inf for e in eps):
            problems.append(f"eps_list entries must be finite and > 0, got {list(eps)}")
        elif any(b >= a for a, b in zip(eps, eps[1:])):
            problems.append("eps_list not strictly decreasing")
        if ints.get("n_paths", 2) < 2:
            problems.append(f"n_paths must be >= 2, got {self.n_paths}")
        if ints.get("n_steps", 1) < 1:
            problems.append(f"n_steps must be >= 1, got {self.n_steps}")
        if not (0 <= ints.get("seed", 0) < 2**64):
            problems.append("seed must be an unsigned 64-bit integer")
        if not isinstance(self.timings, bool):
            problems.append(f"timings must be true or false, got {self.timings!r}")
        if self.dtype not in ("float32", "float64"):
            problems.append(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not self.output_path or not isinstance(self.output_path, str):
            problems.append(f"output_path must be a nonempty string, got {self.output_path!r}")
        elif not os.path.basename(self.output_path):
            problems.append(f"output_path must end in a file name, got {self.output_path!r}")
        elif not os.path.isdir(folder := os.path.dirname(self.output_path) or "."):
            problems.append(f"output directory {folder!r} does not exist")
        if not isinstance(self.weight_spec, dict):
            problems.append(f"weight_spec must be an object, got {self.weight_spec!r}")
        elif self.subcommand in SUBCOMMANDS:
            problems += self._validate_weight(ints.get("k"))
        if problems:
            raise ConfigError(problems)
        return self

    def _validate_weight(self, k):
        """Weight problems; ``k`` is the validated multiplicity, None when invalid."""
        spec = self.weight_spec
        problems = []
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in WEIGHT_KINDS:
            return [f"unknown weight kind {kind!r}"]
        unknown = sorted(set(spec) - {"kind", *WEIGHT_KINDS[kind]}, key=str)
        if unknown:
            problems.append(f"unknown weight_spec fields for {kind}: {unknown}")
        value = _spec_number(spec, "value", float)
        if kind == "constant" and (value is None or not np.isfinite(value)):
            problems.append(f"constant weight needs a numeric 'value' that is finite, "
                            f"got {spec.get('value')!r}")
        if kind == "jacobian":
            maps = sorted(builtin_maps())
            if spec.get("map") not in maps:
                problems.append(f"jacobian weight needs a builtin 'map', one of {maps}")
            if k is not None and k < 2 and self.subcommand in ("converge", "image-check"):
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


def _non_numeric(value):
    """Whether ``value`` is, or is a list or tuple that holds at any depth, a boolean or a string.

    Python reads a JSON ``true`` as 1 and float() reads the JSON string "2" as 2.0.
    """
    if isinstance(value, (list, tuple)):
        return any(_non_numeric(v) for v in value)
    return isinstance(value, (bool, np.bool_, str))


def _spec_number(spec, key, kind):
    """``kind(spec[key])``, or None when the entry is missing, a boolean, a string or
    does not convert; an ``int`` entry must already be an integer (5.9 and 2.0 give None)."""
    try:
        value = spec[key]
        number = None if _non_numeric(value) else kind(value)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if kind is int and (number != value or isinstance(value, float)):
        return None
    return number


def parse_config(text: str | bytes) -> ExperimentConfig:
    """Parse and validate a JSON configuration document: a str, or bytes in UTF-8, -16 or -32."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError, or an integer too long
        raise ConfigError([f"configuration is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a JSON object"])
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError([f"unknown config fields: {unknown}"])
    if "subcommand" not in raw:
        raise ConfigError(["missing required field 'subcommand'"])
    if isinstance(raw.get("eps_list"), list):
        raw["eps_list"] = tuple(raw["eps_list"])
    return ExperimentConfig(**raw).validate()


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


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class RunResult:
    config: ExperimentConfig
    rows: list
    extras: dict
    csv_path: str
    sidecar_path: str


def _row(cfg, **values):
    """A row of ``cfg``'s run: its subcommand, k, n_paths, n_steps and seed, plus ``values``."""
    return ResultRow(subcommand=cfg.subcommand, k=cfg.k, n_paths=cfg.n_paths,
                     n_steps=cfg.n_steps, seed=cfg.seed, **values)


def _stats_row(cfg, stats, epsilon, oracle=None):
    dev = None
    if oracle is not None and stats.stderr > 0:
        dev = abs(stats.mean - oracle) / stats.stderr
    return _row(cfg, epsilon=epsilon, mean=stats.mean, stderr=stats.stderr,
                m1=stats.abs_moments[1], m2=stats.abs_moments[2],
                m4=stats.abs_moments[4], oracle=oracle, dev_stderr=dev)


def _scalar_weight(cfg):
    spec = cfg.weight_spec
    if spec["kind"] == "constant":
        return ScalarWeight.constant(float(spec["value"]))
    return jacobian_weight(builtin_maps()[spec["map"]], cfg.k)


def _renorm_oracle(k, probe, epsilon):
    """Closed-form mean of the renormalized functional of a constant weight c:
    c at k = 1 and c * renorm_double_mean(eps) at k = 2.  ``probe`` holds the
    weight's values at two points; unequal values (or k > 2) give None."""
    if np.ptp(probe) != 0.0 or k > 2:
        return None
    c = float(probe[0])
    return c if k == 1 else c * renorm_double_mean(epsilon)


def _run_converge(cfg):
    rho = _scalar_weight(cfg)
    probe = rho.values([[0.0, 0.0], [0.7, -0.3]])  # equal for constants and affine Jacobians
    result = ensemble_renormalized(cfg.ensemble(), cfg.eps_list, cfg.k, rho)
    rows, level_stats = [], {}
    for e, eps in enumerate(cfg.eps_list):
        stats = result.stats(eps_index=e)
        rows.append(_stats_row(cfg, stats, eps, oracle=_renorm_oracle(cfg.k, probe, eps)))
        level_stats[eps] = [result.level_stats(l, eps_index=e) for l in range(1, cfg.k + 1)]
    return rows, {"level_stats": level_stats}


def _run_hilbert(cfg):
    n_levels = int(cfg.weight_spec["n_levels"])
    weight = rare_spike_weight(n_levels).compose(RadialParameterMap(t_max=float(n_levels)))
    ensemble = ensemble_renormalized(cfg.ensemble(), cfg.eps_list, cfg.k, weight)
    rows, summaries = [], {}
    for e, eps in enumerate(cfg.eps_list):
        res = HilbertSltResult.from_ensemble(ensemble, e)
        for stats in res.coord_stats:
            rows.append(_stats_row(cfg, stats, eps))
        rows.append(_row(cfg, epsilon=eps, mean=float(res.norm_sq_partial[-1])))
        summaries[eps] = res
    return rows, {"results": summaries}


def _run_brick_check(cfg):
    if cfg.weight_spec["kind"] == "rare-spike":
        return _brick_check_spike(cfg)
    return _brick_check_occupation(cfg)


def _brick_check_spike(cfg):
    n_levels = int(cfg.weight_spec["n_levels"])
    weight = rare_spike_weight(n_levels)
    grid = spike_grid(n_levels)
    profile = coordinate_sup_profile(weight, grid)

    coords = weight.coordinate_values(grid).T
    skeleton = FiniteCompact(points=coords, basis_label=weight.basis_label)
    cover = covering_brick(skeleton)
    contained = all(brick_contains(x, cover) for x in coords)

    # closed-form profile prediction: largest-pivot order of the Schur diagonal
    n = np.arange(1, n_levels + 1, dtype=float)
    predicted = np.sort(np.r_[1.0, (n[1:] ** (-2.0 / 3.0) - n[1:] ** (-5.0 / 3.0))])[::-1]

    rows = [_row(cfg, epsilon=float(m + 1), mean=float(profile.sup_squares[m]),
                 oracle=float(predicted[m]))
            for m in range(n_levels)]
    dudley = dudley_estimate(canonical_metric(skeleton.gram()))
    rows.append(_row(cfg, mean=dudley))
    return rows, {"contained": contained, "dudley": dudley}


def _brick_check_occupation(cfg):
    field_ = occupation_density_field(_OCCUPATION_GRID, int(cfg.weight_spec["mc_samples"]),
                                      cfg.seed)
    sample = isonormal_sample(field_.oracle.gram(field_.grid), cfg.n_paths, cfg.seed + 1)
    G = sample.gram
    dudley = dudley_estimate(canonical_metric(G))
    emp = sample.empirical_covariance()
    frob = float(np.linalg.norm(emp - G) / np.linalg.norm(G))
    return [_row(cfg, mean=dudley, stderr=frob)], {"dudley": dudley, "frobenius_rel": frob}


def _run_image_check(cfg):
    # the renormalized image functional is the Jacobian-weighted one
    rows, _ = _run_converge(cfg)
    F = builtin_maps()[cfg.weight_spec["map"]]
    n = min(cfg.n_steps, 512)
    residuals = [image_slt(PlanarPath(n_steps=n, points=points), F, cfg.eps_list[-1],
                           cfg.k).residual
                 for points in sample_path_points(n, cfg.seed, range(16))]
    rows.append(_row(cfg, mean=float(np.max(residuals))))
    return rows, {"max_residual": float(np.max(residuals))}


def _run_lemma_delta(cfg):
    F = builtin_maps()[cfg.weight_spec["map"]]
    phi = bump_function(center=_DELTA_POINT, radius=_DELTA_RADIUS)
    table = delta_family_check(phi, np.asarray(_DELTA_POINT), F, cfg.eps_list, k=cfg.k)
    rows = [_row(cfg, epsilon=r.epsilon, mean=r.value, oracle=r.target) for r in table]
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
    excluded by default precisely to keep that contract).  A failure in the
    pipeline is re-raised as a RuntimeError naming the subcommand and scales.
    A grid too coarse for the smallest scale warns once per call, from the one
    ensemble that ``converge``, ``hilbert`` and ``image-check`` sweep.  The
    pipeline runs with OpenBLAS on one thread (restored afterwards): a second
    BLAS thread only doubled the CPU time of the diagnostics' matrix products.
    """
    cfg.validate()
    t0 = time.perf_counter()
    try:
        with _one_blas_thread():
            rows, extras = _PIPELINES[cfg.subcommand](cfg)
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

    sidecar = {"config": asdict(cfg), "version": __version__}
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
    """Flag parser; a flag that is not given stays out of the namespace, so every
    default comes from ``ExperimentConfig``."""
    parser = argparse.ArgumentParser(
        prog="silt",
        description="Renormalized self-intersection local time experiments "
                    "for planar Brownian motion.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--k", type=int)
    parser.add_argument("--eps", type=float, nargs="+", dest="eps_list",
                        help="decreasing kernel scales")
    parser.add_argument("--paths", type=int, dest="n_paths")
    parser.add_argument("--steps", type=int, dest="n_steps")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--weight", type=str, dest="weight_spec",
                        help="const:C | jacobian:MAP | rare-spike:N | occupation:SAMPLES")
    parser.add_argument("--out", type=str, dest="output_path")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--dtype", choices=("float32", "float64"))
    parser.add_argument("--timings", action="store_true",
                        help="record wall times (breaks byte-identical reruns)")
    parser.add_argument("--config", type=str,
                        help="JSON config file; overrides all flags")
    return parser


def _flags_config(flags: dict) -> ExperimentConfig:
    """The (unvalidated) config of the given flags, ``vars`` of a ``build_parser`` namespace."""
    flags = dict(flags)
    if "subcommand" not in flags:
        raise ConfigError(["--subcommand is required (or use --config)"])
    if "eps_list" in flags:
        flags["eps_list"] = tuple(flags["eps_list"])
    if "weight_spec" in flags:
        flags["weight_spec"] = _parse_weight_flag(flags["weight_spec"])
    return ExperimentConfig(**flags)


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    try:
        if "config" in flags:
            with open(flags["config"], "rb") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = _flags_config(flags).validate()
        result = run_experiment(cfg)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}")
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    print(f"wrote {result.csv_path} ({len(result.rows)} rows) and {result.sidecar_path}")
    return 0
