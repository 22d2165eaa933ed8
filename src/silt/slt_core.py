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

The weight enters each chain once, at its first node: level l is rho^T U^(l-1) 1
with U = triu(K, 1).  On the time-reversed path U^(l-1) 1 is the weight-free
recursion X_{l+1}(j) = sum_{i<j} X_l(i) K_ij, X_1 = 1, so all levels l <= k cost
O(k n^2) for any number of weights, with the sums of literal nested loops.
"""

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


def double_mean(epsilon):
    """Exact mean of the unit-weight double functional, (1/2pi)[(1+e)ln((1+e)/e) - 1].

    Verified against direct 2-D quadrature of the ordered-simplex integral of
    1/(2 pi (t2 - t1 + eps)).
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
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

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and > 0")
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
    B, n = pts.shape[0], pts.shape[1] - 1
    flat = pts[:, :n, :].reshape(B * n, 2)
    if hasattr(rho, "coordinate_values"):
        return rho.coordinate_values(flat).reshape(-1, B, n).transpose(1, 0, 2)
    return np.asarray(rho.values(flat), dtype=float).reshape(B, 1, n)


def simplex_levels(points, rho_rows, eps_list, k, dtype=np.float64):
    """All simplex functionals T_hat(eps, l), l = 1..k, for a batch of paths.

    Parameters
    ----------
    points : (B, n+1, 2) array of path nodes.
    rho_rows : (B, M, n) weight values at nodes 0..n-1 (M weights share the
        kernel work; Hilbert coordinates are coupled this way).
    eps_list : sequence of kernel scales, evaluated jointly.
    k : highest multiplicity.
    dtype : np.float32 or np.float64 for kernel exponents and values and the
        32-row strip products, which the float64 chain sums X_l accumulate.
        float32 rounds the strip-centred coordinates and exponents, the kernel
        values and those products.  On grids with n >= 10 / eps, levels of
        positive weights agree with float64 to about 1e-8 relative per entry
        at any offset of the path (tested to 1e-7 at offsets up to 1e3).

    The sweep runs on the time-reversed path with unit weight (see the module
    docstring) and takes, path by path, strips of ``STRIP_ROWS`` node rows i
    against every column j >= i.  One matrix product gives every scale's
    exponents -(a_i + a_j - 2 q_i.q_j) / (2 eps), with q = w - h, a = |q|^2 and
    h the centre of the strip rows' bounding box; the sweep masks the pairs
    j <= i and adds the strip's share of X_{l+1}(j) = sum_{i<j} X_l(i) K_ij to
    X, but contracts its share of X_k with the reversed weights at once.  No
    pair is skipped or approximated, except that kernel values below e times
    the smallest normal number of ``dtype`` (3.2e-38 in float32) are raised to
    it, as subnormal exp results cost about ten times a normal one on x86;
    values that small lie far below the sums' rounding.

    Returns
    -------
    (B, M, n_eps, k) array.  Entry [b, m, e, l-1] is the level-l sum for path
    b, weight m, scale eps_list[e].
    """
    points = np.asarray(points, dtype=float)
    B, n = points.shape[0], points.shape[1] - 1
    eps = np.asarray(eps_list, dtype=float)
    if not np.all((eps > 0) & np.isfinite(eps)):
        raise ValueError(f"all epsilon values must be finite and > 0, got {eps}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rho_rows = np.asarray(rho_rows, dtype=float)
    if rho_rows.shape[0] != B or rho_rows.shape[2] != n:
        raise ValueError(f"rho_rows must have shape (B, M, {n})")
    M = rho_rows.shape[1]
    E = len(eps)

    out = np.empty((B, M, E, k))
    out[:, :, :, 0] = rho_rows.sum(axis=2)[:, :, None] / n
    if k == 1:
        return out

    dt = np.dtype(dtype)
    cneg = -0.5 / eps
    # the exponent products pair rows q_x, q_y, 1, 1, a (times coef[e]) with columns
    # q_x, q_y, a, a, 1; coef[e, 3] carries what rounding cneg to dtype drops
    coef = np.stack([-2 * cneg, -2 * cneg, cneg, cneg - cneg.astype(dt), cneg], axis=1)
    # exponents are raised to this floor, reached beyond squared distance floor_reach
    exp_floor = (np.log(np.finfo(dt).tiny) + 1.0).astype(dt)
    floor_reach = [float(exp_floor / c) for c in cneg]
    upper = np.triu(np.ones((STRIP_ROWS, STRIP_ROWS), dtype=dt), 1)
    ones, starts = np.ones(n), np.arange(0, n, STRIP_ROWS)
    Q, G = np.ones((5, n)), np.empty((5, n), dtype=dt)  # a strip's columns; G in dtype
    fK = np.empty(E * STRIP_ROWS * n, dtype=dt)  # flat scratch, sliced per strip

    for b in range(B):
        # X[l - 1, e, j]: kernel products summed over the reversed path's chains
        # i_1 < ... < i_l = j, final on columns j < i1 once strip [i0, i1) is done
        X = np.zeros((k - 1, E, n))
        X[0] = 1.0
        rrev, last = np.ascontiguousarray(rho_rows[b, :, ::-1]), np.zeros((E, 1, M))
        # strip s centres its coordinates on centres[s], or the Gram form would
        # lose digits to the path's offset; A holds every strip's row factors
        xy = np.ascontiguousarray(points[b, n - 1::-1].T)
        centres = (np.minimum.reduceat(xy, starts, 1) + np.maximum.reduceat(xy, starts, 1)) / 2
        qi = xy - np.repeat(centres, STRIP_ROWS, axis=1)[:, :n]
        ai = np.einsum("dj,dj->j", qi, qi)
        radii = np.sqrt(np.maximum.reduceat(ai, starts))  # of the strips' rows
        A = (coef[:, None] * np.stack([*qi, ones, ones, ai], axis=1)).astype(dt)
        for s, i0 in enumerate(starts):
            i1 = min(i0 + STRIP_ROWS, n)
            r, w = i1 - i0, n - i0
            # strip of pairs (i, j), i in [i0, i1), j in [i0, n)
            q, g = Q[:, :w], G[:, :w]
            np.subtract(xy[:, i0:], centres[:, s, None], out=q[:2])
            np.einsum("dj,dj->j", q[:2], q[:2], out=q[2])
            q[3] = q[2]
            np.copyto(g, q)
            K = fK[: E * r * w].reshape(E, r, w)
            np.matmul(A[:, i0:i1].reshape(E * r, 5), g, out=K.reshape(E * r, w))
            reach = (radii[s] + math.sqrt(q[2].max())) ** 2  # >= every |q_j - q_i|^2
            for e in range(E):
                if reach > floor_reach[e]:
                    np.maximum(K[e], exp_floor, out=K[e])
            np.exp(K, out=K)
            K[:, :, :r] *= upper[:r, :r]  # keep j > i only
            # every hop is a dtype product over the strip's rows, summed in float64
            for l in range(1, k - 1):
                X[l, :, i0:] += (X[l - 1, :, None, i0:i1].astype(dt) @ K)[:, 0]
            hop = X[k - 2, :, None, i0:i1].astype(dt) @ K
            # one product per scale, as a product over all scales could round differently
            last += np.matmul(hop, rrev[:, i0:].T, dtype=np.float64)
        out[b, :, :, 1 : k - 1] = np.einsum("mj,lej->mel", rrev, X[1:])
        out[b, :, :, k - 1] = last[:, 0].T
    for level in range(2, k + 1):
        out[:, :, :, level - 1] *= (1.0 / n) ** level / (TWO_PI * eps) ** (level - 1)
    return out


def simplex_functional(path: PlanarPath, rho, epsilon, k) -> SimplexEstimate:
    """Grid simplex functional of one path for weight rho at multiplicity k.

    The full ordered-tuple sum, evaluated in float64 by the O(k n^2) chain
    recursion of ``simplex_levels``.
    """
    n = path.n_steps
    rho_vals = np.asarray(rho.values(path.points[:n]), dtype=float)
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
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
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

    ``workers`` defaults to SILT_WORKERS, then the CPU count; it never affects
    numeric output (paths are keyed by index and reduced in fixed order).
    ``dtype`` ("float32" or "float64") is the precision of the sweep's centred
    coordinates, exponents and kernel values, and of every level's 32-row strip
    products; on grids with n >= 10 / eps, level sums at both agree to about
    1e-8 relative at any path offset (tested to 1e-7; see simplex_levels).
    """

    n_paths: int
    n_steps: int
    seed: int
    workers: int | None = None
    batch_size: int = 32
    dtype: str = "float32"

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")

    def resolved_workers(self):
        if self.workers is not None:
            return int(self.workers)
        env = os.environ.get(WORKERS_ENV_VAR)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigError([f"{WORKERS_ENV_VAR} must be an integer, "
                                   f"got {env!r}"]) from None
            if workers < 1:
                raise ConfigError([f"{WORKERS_ENV_VAR} must be >= 1, got {env!r}"])
            return workers
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


def _outside_stacklevel():
    """``stacklevel`` at which the caller's warning names the first frame outside silt."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "silt":
        frame, level = frame.f_back, level + 1
    return level


def check_resolution(n_steps, eps_list):
    """Warn when the grid under-resolves the kernel scale (1/n > min(eps)/10).

    The warning names the first calling line outside silt.
    """
    smallest = float(np.min(eps_list))
    if 1.0 / n_steps <= smallest / 10.0:
        return
    warnings.warn(
        f"grid spacing 1/{n_steps} exceeds eps/10 for eps={smallest:g}; "
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
    if not np.all((eps > 0) & np.isfinite(eps)):
        raise ValueError(f"all epsilon values must be finite and > 0, got {eps}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_resolution(cfg.n_steps, eps)
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
