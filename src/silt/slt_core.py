"""Grid functionals of planar Wiener paths and their Dynkin renormalization.

The k-fold approximating functional of a path w with weight rho is the grid
Riemann sum over strictly ordered node tuples i_1 < ... < i_k drawn from the
cell left-endpoints {0, ..., n-1}:

    T_hat(eps, k) = (1/n)^k * sum rho(w_{i_1}) * prod_j g_eps(w_{i_{j+1}} - w_{i_j}),

with g_eps the planar Gaussian kernel of scale eps.  For k = 1 the empty
product is 1 and T_hat is the left Riemann sum of rho along the path.  The
Dynkin renormalization combines the levels l = 1..k with binomial weights and
powers of (ln eps)/(2 pi); its eps -> 0 mean for k = 2 and unit weight is
-1/(2 pi).

Equal nodes are excluded (strict ordering); including them would shift results
by O(1/n) and is rejected for determinism.

The chain structure of the integrand makes all levels l <= k computable in
O(k n^2) by the forward recursion S_{l+1}(j) = sum_{i<j} S_l(i) K_ij, which
produces exactly the same sums as literal nested loops.
"""

import contextvars
import ctypes
import functools
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import multiprocessing
import numpy as np

from .exceptions import ConfigError
from .path_sim import PlanarPath, sample_path_points

TWO_PI = 2.0 * np.pi

#: Node rows per strip of the kernel sweep in ``simplex_levels``.
STRIP_ROWS = 32

#: eps -> 0 limit of the mean renormalized double functional with unit weight.
RENORM_DOUBLE_LIMIT = -1.0 / TWO_PI


def gauss_kernel(y, epsilon):
    """Planar Gaussian kernel (1/(2 pi eps)) exp(-||y||^2 / (2 eps)).

    ``y`` is a planar point or an array of shape (..., 2); returns a scalar or
    an array of the leading shape.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    y = np.asarray(y, dtype=float)
    sq = np.sum(y * y, axis=-1)
    return np.exp(-sq / (2.0 * epsilon)) / (TWO_PI * epsilon)


def double_mean(epsilon):
    """Exact mean of the unit-weight double functional, (1/2pi)[(1+e)ln((1+e)/e) - 1].

    Verified against direct 2-D quadrature of the ordered-simplex integral of
    1/(2 pi (t2 - t1 + eps)).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return ((1.0 + epsilon) * np.log((1.0 + epsilon) / epsilon) - 1.0) / TWO_PI


def renorm_double_mean(epsilon):
    """Exact mean of the renormalized double functional: double_mean + ln(eps)/(2 pi)."""
    return double_mean(epsilon) + np.log(epsilon) / TWO_PI


@dataclass(frozen=True)
class SimplexEstimate:
    """Value of one grid simplex functional."""

    value: float
    k: int
    epsilon: float
    n_steps: int
    stderr: float | None = None  # set only in tuple-sampling mode

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not np.isfinite(self.value):
            raise ValueError("value must be finite")


@dataclass(frozen=True)
class MCStats:
    """Monte Carlo summary of a sample of per-path functional values."""

    mean: float
    variance: float
    stderr: float
    abs_moments: dict
    n_paths: int

    @classmethod
    def from_samples(cls, values):
        values = np.asarray(values, dtype=float)
        n = values.size
        if n < 2:
            raise ValueError(f"need at least 2 samples for a variance, got {n}")
        mean = float(values.mean())
        variance = float(values.var(ddof=1))
        a = np.abs(values)
        moments = {1: float(a.mean()), 2: float((a * a).mean()), 4: float((a**4).mean())}
        return cls(mean=mean, variance=variance, stderr=math.sqrt(variance / n),
                   abs_moments=moments, n_paths=n)


def _as_weight_rows(rho, pts):
    """Weight values at path nodes 0..n-1 for a batch: (B, M, n)."""
    B, n_nodes, _ = pts.shape
    n = n_nodes - 1
    flat = pts[:, :n, :].reshape(B * n, 2)
    coords = rho.coordinate_values(flat) if hasattr(rho, "coordinate_values") else None
    if coords is not None:
        M = coords.shape[0]
        return coords.reshape(M, B, n).transpose(1, 0, 2)
    vals = rho.values(flat)
    return np.asarray(vals, dtype=float).reshape(B, 1, n)


def simplex_levels(points, rho_rows, eps_list, k, dtype=np.float64):
    """All simplex functionals T_hat(eps, l), l = 1..k, for a batch of paths.

    Parameters
    ----------
    points : (B, n+1, 2) array of path nodes.
    rho_rows : (B, M, n) weight values at nodes 0..n-1 (M weights share the
        kernel work; Hilbert coordinates are coupled this way).
    eps_list : sequence of kernel scales, evaluated jointly.
    k : highest multiplicity.
    dtype : np.float32 or np.float64 for pair distances and kernel values.
        The level sums S_l are float64 and their products with kernel values
        are float64 BLAS products; in float32 only the kernel values and the
        per-row kernel sums of the last level (pairwise summation) are
        rounded.  Levels agree with float64 to about 1e-8 relative per entry
        (measured at n = 4096, k = 3; tested to 1e-7).

    The sweep takes, path by path, strips of ``STRIP_ROWS`` node rows
    i in [i0, i0 + R) against every column j >= i0, masks the pairs j <= i,
    and adds the strip's share of S_{l+1}(j) = sum_{i<j} S_l(i) K_ij as a
    matrix product, for every level from the same kernel values.  No pair is
    skipped or approximated, except that kernel values below e times the
    smallest normal number of ``dtype`` (3.2e-38 in float32) are raised to
    it.  Subnormal exp results cost about ten times a normal one on x86, and
    their share moves with the path's shape, and so would the sweep time.
    Values that small lie far below the rounding of the sums they enter;
    the benchmark's CSV outputs are byte-identical with and without the
    floor.

    Returns
    -------
    (B, M, n_eps, k) array.  Entry [b, m, e, l-1] is the level-l sum for path
    b, weight m, scale eps_list[e].
    """
    points = np.asarray(points, dtype=float)
    B, n_nodes, _ = points.shape
    n = n_nodes - 1
    eps = np.asarray(eps_list, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("all epsilon values must be > 0")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rho_rows = np.asarray(rho_rows, dtype=float)
    if rho_rows.shape[0] != B or rho_rows.shape[2] != n:
        raise ValueError(f"rho_rows must have shape (B, M, {n})")
    M = rho_rows.shape[1]
    E = len(eps)

    out = np.empty((B, M, E, k))
    level1 = rho_rows.sum(axis=2) / n  # (B, M)
    out[:, :, :, 0] = level1[:, :, None]
    if k == 1:
        return out

    dt = np.dtype(dtype)
    X = points[:, :n, 0].astype(dt)
    Y = points[:, :n, 1].astype(dt)
    cneg = (-0.5 / eps).astype(dt)
    # exponents are raised to this floor, so that exp never returns a
    # subnormal number: on x86 those cost about ten times a normal exp
    exp_floor = (np.log(np.finfo(dt).tiny) + 1.0).astype(dt)
    upper = np.triu(np.ones((STRIP_ROWS, STRIP_ROWS), dtype=dt), 1)
    # flat scratch, sliced per strip to stay contiguous
    fdx = np.empty(STRIP_ROWS * n, dtype=dt)
    fK = np.empty(E * STRIP_ROWS * n, dtype=dt)

    for b in range(B):
        # S[l - 1] holds the partial sums S_l(e, m, j) of path b for levels
        # l < k; level 1 is rho itself.  When strip [i0, i1) is done, S_l is
        # final on columns j < i1, so one pass over the strips serves every
        # level and each strip's kernel values are computed once.
        S = np.zeros((k - 1, E, M, n))
        S[0] = rho_rows[b]
        last = np.zeros((E, M))  # level-k sum
        # scales whose exponent can reach the floor: the path's bounding-box
        # diagonal bounds every pair distance
        span = (X[b].max() - X[b].min()) ** 2 + (Y[b].max() - Y[b].min()) ** 2
        low = np.flatnonzero(cneg * span < exp_floor)
        for i0 in range(0, n, STRIP_ROWS):
            i1 = min(i0 + STRIP_ROWS, n)
            r, w = i1 - i0, n - i0
            # strip of pairs (i, j), i in [i0, i1), j in [i0, n)
            dx = fdx[: r * w].reshape(r, w)
            K = fK[: E * r * w].reshape(E, r, w)
            dy = K[0]  # scratch until the kernel values overwrite it
            np.subtract(X[b, None, i0:], X[b, i0:i1, None], out=dx)
            np.subtract(Y[b, None, i0:], Y[b, i0:i1, None], out=dy)
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            np.add(dx, dy, out=dx)  # dx = squared pair distances
            np.multiply(dx[None], cneg[:, None, None], out=K)
            if low.size:
                reach = dx.max()
                for e in low:
                    if cneg[e] * reach < exp_floor:
                        np.maximum(K[e], exp_floor, out=K[e])
            np.exp(K, out=K)
            K[:, :, :r] *= upper[:r, :r]  # keep j > i only
            if k > 2:
                K64 = K.astype(np.float64, copy=False)
                for l in range(1, k - 1):
                    S[l, :, :, i0:] += S[l - 1, :, :, i0:i1] @ K64
            rowsum = K.sum(axis=2)  # (E, r)
            last += (S[k - 2, :, :, i0:i1] @ rowsum[:, :, None])[:, :, 0]
        for level in range(2, k):
            out[b, :, :, level - 1] = S[level - 1].sum(axis=2).T
        out[b, :, :, k - 1] = last.T
    for level in range(2, k + 1):
        out[:, :, :, level - 1] *= (1.0 / n) ** level / (TWO_PI * eps) ** (level - 1)
    return out


def _brute_tuple_value(points, rho_vals, epsilon, idx):
    term = rho_vals[idx[0]]
    for a, b in zip(idx[:-1], idx[1:]):
        term = term * gauss_kernel(points[b] - points[a], epsilon)
    return term


def _simplex_mc(points, rho_vals, epsilon, k, n_samples, seed):
    """Uniform sampling of strictly ordered node tuples.

    The estimate is count * mean(g) * (1/n)^k with count = C(n, k), which
    converges to the simplex-volume factor 1/k! as n grows.
    """
    n = len(points) - 1
    rng = np.random.Generator(np.random.Philox(key=seed))
    samples = np.empty((n_samples, k), dtype=np.int64)
    filled = 0
    while filled < n_samples:
        block = rng.integers(0, n, size=(2 * (n_samples - filled), k))
        block.sort(axis=1)
        ok = np.all(np.diff(block, axis=1) > 0, axis=1)
        block = block[ok][: n_samples - filled]
        samples[filled : filled + block.shape[0]] = block
        filled += block.shape[0]
    vals = rho_vals[samples[:, 0]].astype(float)
    for j in range(k - 1):
        diff = points[samples[:, j + 1]] - points[samples[:, j]]
        vals *= gauss_kernel(diff, epsilon)
    scale = math.comb(n, k) / n**k
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) * scale
    return mean * scale, stderr


def simplex_functional(path: PlanarPath, rho, epsilon, k, mode="auto",
                       mc_samples=100_000, mc_seed=0,
                       max_exact_cost=10**12) -> SimplexEstimate:
    """Grid simplex functional of one path for weight rho at multiplicity k.

    ``mode`` is "exact" (full ordered-tuple sum, evaluated by the O(k n^2)
    chain recursion), "mc" (uniform ordered-tuple sampling with its own
    stderr), or "auto" (exact for k <= 3, mc for k >= 4).  Exact mode refuses
    jobs whose nominal tuple cost n^k exceeds ``max_exact_cost``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if k <= 3 else "mc"
    n = path.n_steps
    if mode == "exact" and k > 1 and float(n) ** k > max_exact_cost:
        raise ValueError(
            f"exact mode refused: n^k = {float(n)**k:.3g} exceeds budget {max_exact_cost:.3g}; "
            "request mode='mc' or raise max_exact_cost"
        )
    rho_vals = np.asarray(rho.values(path.points[:n]), dtype=float)
    if mode == "mc":
        if k == 1:
            value, stderr = float(rho_vals.mean()), 0.0
        else:
            value, stderr = _simplex_mc(path.points, rho_vals, epsilon, k, mc_samples, mc_seed)
        return SimplexEstimate(value=value, k=k, epsilon=float(epsilon),
                               n_steps=n, stderr=stderr)
    levels = simplex_levels(path.points[None], rho_vals[None, None, :], [epsilon], k)
    return SimplexEstimate(value=float(levels[0, 0, 0, k - 1]), k=k,
                           epsilon=float(epsilon), n_steps=n)


def dynkin_renormalize(t_values, epsilon, k=None):
    """Renormalized combination sum_l C(k-1, l-1) (ln(eps)/(2 pi))^(k-l) T_l.

    ``t_values`` holds the level sums T_1..T_k along its last axis (a plain
    length-k sequence for one path, or any (..., k) array); ``k`` defaults to
    that length and is validated against it.
    """
    t = np.asarray(t_values, dtype=float)
    if t.ndim == 0:
        t = t[None]
    if k is None:
        k = t.shape[-1]
    if t.shape[-1] != k:
        raise ValueError(f"expected {k} level values, got {t.shape[-1]}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    logfac = np.log(epsilon) / TWO_PI
    coeffs = np.array([math.comb(k - 1, l - 1) * logfac ** (k - l) for l in range(1, k + 1)])
    out = t @ coeffs
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# ensemble runner
# ---------------------------------------------------------------------------

WORKERS_ENV_VAR = "SILT_WORKERS"


@dataclass(frozen=True)
class EnsembleConfig:
    """Shape of a Monte Carlo ensemble run.

    ``workers`` defaults to the SILT_WORKERS environment variable, then the
    machine CPU count; the worker count never affects numeric output (paths
    are keyed by index and reduced in fixed order).  ``dtype`` selects the
    kernel-sweep precision ("float32" or "float64"); per-path level sums at
    both precisions agree to about 1e-8 relative (tested to 1e-7), far below
    Monte Carlo resolution.
    """

    n_paths: int
    n_steps: int
    seed: int
    workers: int | None = None
    batch_size: int = 32
    dtype: str = "float32"
    resolution_warn_ratio: float = 10.0

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")

    def resolved_workers(self):
        if self.workers is not None:
            return max(1, int(self.workers))
        env = os.environ.get(WORKERS_ENV_VAR)
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise ConfigError([f"{WORKERS_ENV_VAR} must be an integer, "
                                   f"got {env!r}"]) from None
        return os.cpu_count() or 1


@dataclass(frozen=True)
class EnsembleResult:
    """Per-path functional values for a coupled ensemble.

    ``levels`` has shape (n_paths, M, n_eps, k): raw simplex sums per level.
    ``renormalized`` has shape (n_paths, M, n_eps).
    """

    eps_list: np.ndarray
    k: int
    levels: np.ndarray
    renormalized: np.ndarray
    config: EnsembleConfig

    def stats(self, weight_index=0, eps_index=0) -> MCStats:
        return MCStats.from_samples(self.renormalized[:, weight_index, eps_index])

    def level_stats(self, level, weight_index=0, eps_index=0) -> MCStats:
        return MCStats.from_samples(self.levels[:, weight_index, eps_index, level - 1])


# Inside ``resolution_warning_once``: a one-item list, True once the warning fired.
_RESOLUTION_WARNED = contextvars.ContextVar("silt_resolution_warned", default=None)


@contextmanager
def resolution_warning_once():
    """Let ``check_resolution`` warn at most once inside the block.

    Nested blocks share the outermost one, so a CLI run that validates its
    config twice and then runs ensembles warns once.
    """
    if _RESOLUTION_WARNED.get() is not None:
        yield
        return
    token = _RESOLUTION_WARNED.set([False])
    try:
        yield
    finally:
        _RESOLUTION_WARNED.reset(token)


def _outside_stacklevel():
    """``stacklevel`` at which the caller's warning names the first frame outside silt."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "silt":
        frame, level = frame.f_back, level + 1
    return level


def check_resolution(n_steps, eps_list, ratio=10.0):
    """Warn when the grid under-resolves the kernel scale (1/n > min(eps)/ratio).

    The warning names the first calling line outside silt.
    """
    smallest = float(np.min(eps_list))
    if 1.0 / n_steps <= smallest / ratio:
        return
    warned = _RESOLUTION_WARNED.get()
    if warned is not None:
        if warned[0]:
            return
        warned[0] = True
    warnings.warn(
        f"grid spacing 1/{n_steps} exceeds eps/{ratio:g} for eps={smallest:g}; "
        "the Riemann sum may under-resolve the kernel",
        RuntimeWarning,
        stacklevel=_outside_stacklevel(),
    )


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS this process has loaded.

    Empty where none is loaded or the loaded libraries cannot be listed (no
    ``/proc/self/maps``), which makes ``_one_blas_thread`` a no-op.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the previous counts.

    Workers forked inside the block inherit the setting.  They already fill
    the cores, so a multi-threaded BLAS in each of them would oversubscribe
    the machine.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


_POOL_JOB = None


def _pool_worker(path_range):
    cfg, eps, k, rho, dtype = _POOL_JOB
    lo, hi = path_range
    pts = sample_path_points(cfg.n_steps, cfg.seed, range(lo, hi))
    rows = _as_weight_rows(rho, pts)
    return lo, simplex_levels(pts, rows, eps, k, dtype=dtype)


def ensemble_renormalized(cfg: EnsembleConfig, eps_list, k, rho) -> EnsembleResult:
    """Coupled ensemble of renormalized functionals over a list of kernel scales.

    Every path is evaluated at all scales (and all Hilbert coordinates of
    ``rho``, when it has them) on shared kernel sweeps, so cross-scale and
    cross-coordinate differences are coupled estimates.  Deterministic given
    the config seed, independently of workers and batch size.  Raises
    ValueError naming the first path whose level sums are not finite.
    """
    eps = np.asarray(eps_list, dtype=float)
    if eps.ndim == 0:
        eps = eps[None]
    if np.any(eps <= 0):
        raise ValueError("all epsilon values must be > 0")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_resolution(cfg.n_steps, eps, cfg.resolution_warn_ratio)
    dtype = np.float32 if cfg.dtype == "float32" else np.float64

    ranges = [(lo, min(lo + cfg.batch_size, cfg.n_paths))
              for lo in range(0, cfg.n_paths, cfg.batch_size)]
    workers = cfg.resolved_workers()

    levels = None

    def _store(lo, block):
        nonlocal levels
        if levels is None:
            M = block.shape[1]
            levels = np.empty((cfg.n_paths, M, len(eps), k))
        levels[lo : lo + block.shape[0]] = block

    global _POOL_JOB
    _POOL_JOB = (cfg, eps, k, rho, dtype)
    forked = workers > 1 and len(ranges) > 1 and "fork" in multiprocessing.get_all_start_methods()
    # forked workers inherit the one-thread setting and never change it
    with _one_blas_thread():
        try:
            if forked:
                ctx = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                    for lo, block in pool.map(_pool_worker, ranges):
                        _store(lo, block)
            else:
                for rng in ranges:
                    _store(*_pool_worker(rng))
        finally:
            _POOL_JOB = None

    finite = np.isfinite(levels).reshape(cfg.n_paths, -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite functional value at path {int(np.argmin(finite))} "
                         f"(seed {cfg.seed}); check the weight")
    renorm = np.empty((cfg.n_paths, levels.shape[1], len(eps)))
    for e, epsilon in enumerate(eps):
        renorm[:, :, e] = dynkin_renormalize(levels[:, :, e, :], epsilon, k)
    return EnsembleResult(eps_list=eps, k=k, levels=levels, renormalized=renorm, config=cfg)


def estimate_renormalized(n_paths, n_steps, epsilon, k, rho, seed,
                          workers=None, dtype="float32") -> MCStats:
    """Monte Carlo estimate of the renormalized k-fold functional for weight rho.

    Runs the per-path pipeline (sample path -> level sums l = 1..k ->
    renormalize) over ``n_paths`` independent substreams of ``seed`` and
    aggregates mean, variance, stderr and absolute moments p in {1, 2, 4}.
    """
    cfg = EnsembleConfig(n_paths=n_paths, n_steps=n_steps, seed=seed,
                         workers=workers, dtype=dtype)
    result = ensemble_renormalized(cfg, [epsilon], k, rho)
    return result.stats()


@dataclass(frozen=True)
class CauchyRow:
    """Coupled mean-square gap between two consecutive kernel scales."""

    eps_high: float
    eps_low: float
    mean_sq_diff: float
    n_paths: int


def cauchy_diagnostic(cfg: EnsembleConfig, eps_levels, k, rho):
    """Coupled L2 gaps E[(V(eps_j) - V(eps_{j+1}))^2] along a decreasing scale ladder.

    All levels reuse the same path ensemble, so the rows estimate the Cauchy
    gaps of the renormalized family directly.  Requires at least two levels,
    nonincreasing; repeated levels give exactly zero rows.
    """
    eps = np.asarray(eps_levels, dtype=float)
    if eps.size < 2:
        raise ValueError(f"need at least 2 epsilon levels, got {eps.size}")
    if np.any(np.diff(eps) > 0):
        raise ValueError("epsilon levels must be nonincreasing")
    result = ensemble_renormalized(cfg, eps, k, rho)
    rows = []
    for j in range(eps.size - 1):
        diff = result.renormalized[:, 0, j] - result.renormalized[:, 0, j + 1]
        rows.append(CauchyRow(eps_high=float(eps[j]), eps_low=float(eps[j + 1]),
                              mean_sq_diff=float(np.mean(diff * diff)),
                              n_paths=cfg.n_paths))
    return rows
