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

That recursion is one C kernel, ``_sweep.c``, which forms each kernel exponent
from a float64 squared distance, exponentiates it with glibc's vector math
library (libmvec) and feeds it to every level in the same pass.  It takes no
weight: ``simplex_levels`` applies the weights by ``einsum``, summed in path
order, not by BLAS.  Importing this module builds the kernel with ``COMPILER``
(gcc) for this CPU, or loads the build cached for this source, flags and CPU in
the first usable per-user directory of $XDG_CACHE_HOME/silt, ~/.cache/silt and
<tempdir>/silt-<uid>, and then removes the builds there of any other source or
flags.  A failed build leaves the import working; ``simplex_levels`` then
raises a RuntimeError that names the command and the tail of its stderr.
"""

import ctypes
import functools
import hashlib
import math
import os
import platform
import shlex
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .path_sim import PlanarPath, sample_path_points

TWO_PI = 2.0 * np.pi

#: Node rows per strip of the kernel sweep in ``simplex_levels``; ``_sweep.c``
#: takes it as the macro STRIP.
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


def _scales(eps_list):
    """``eps_list`` as a 1-D float array; ValueError unless nonempty, finite and > 0."""
    eps = np.asarray(eps_list, dtype=float)
    if eps.ndim != 1 or eps.size == 0 or not np.all((eps > 0) & np.isfinite(eps)):
        raise ValueError(f"epsilon values must be a nonempty list, all finite and > 0, "
                         f"got {eps_list!r}")
    return eps


@dataclass(frozen=True)
class SimplexEstimate:
    """Value of one grid simplex functional."""

    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("value must be finite")


@dataclass(frozen=True)
class MCStats:
    """Monte Carlo summary of a sample of per-path functional values."""

    mean: float
    variance: float
    stderr: float
    abs_moments: dict

    @classmethod
    def from_samples(cls, values):
        """Stats of ``values``; ValueError for under 2 samples or a moment that is not finite.

        Equal values get variance 0: ``var`` reads the ulp their mean rounds off them as spread.
        """
        values = np.asarray(values, dtype=float)
        n = values.size
        if n < 2:
            raise ValueError(f"need at least 2 samples for a variance, got {n}")
        with np.errstate(over="ignore"):  # an overflow fails the finite check below
            mean = float(values.mean())
            variance = float(values.var(ddof=1)) if np.ptp(values) != 0 else 0.0
            a = np.abs(values)
            moments = {1: float(a.mean()), 2: float((a * a).mean()), 4: float((a**4).mean())}
        if not np.isfinite([mean, variance, *moments.values()]).all():
            raise ValueError(f"moments of {n} samples are not finite (largest |value| "
                             f"{a.max():g})")
        return cls(mean=mean, variance=variance, stderr=math.sqrt(variance / n),
                   abs_moments=moments)


def _as_weight_rows(rho, pts):
    """Weight values at path nodes 0..n-1 for a batch: (B, M, n)."""
    B, n = pts.shape[0], pts.shape[1] - 1
    flat = pts[:, :n, :].reshape(B * n, 2)
    return rho.coordinate_values(flat).reshape(-1, B, n).transpose(1, 0, 2)


#: C compiler that builds the kernel sweep ``_sweep.c`` at import
COMPILER = "gcc"
_SWEEP_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
# IEEE semantics stay on (no -ffast-math): a NaN must reach the level sums
_SWEEP_FLAGS = ("-O3", "-march=native", "-fno-math-errno", "-fno-trapping-math",
                "-fopenmp-simd", "-shared", "-fPIC", f"-DSTRIP={STRIP_ROWS}")
_SWEEP_LIBS = ("-lmvec", "-lm")


def _cache_dirs():
    """Per-user directories for the compiled sweep, in the order they are tried."""
    bases = [os.environ.get("XDG_CACHE_HOME", ""), os.path.expanduser("~/.cache")]
    dirs = [os.path.join(base, "silt") for base in bases if os.path.isabs(base)]
    return dirs + [os.path.join(tempfile.gettempdir(), f"silt-{os.getuid()}")]


def _private_dir(path):
    """Whether ``path`` is, or now is made, a directory this user owns and no one else writes."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return False
    return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _cpu_flags():
    """The CPU's feature flags, which ``-march=native`` compiles for."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line for line in fh if line.startswith("flags")), "")
    except OSError:
        return platform.machine()


def _build_sweep(lib_path):
    """Compile the sweep into a temporary file beside ``lib_path``, then move it there."""
    tmp, cmd = None, [COMPILER]
    try:
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(lib_path))
        os.close(fd)
        cmd = [COMPILER, *_SWEEP_FLAGS, _SWEEP_SOURCE, "-o", tmp, *_SWEEP_LIBS]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            os.replace(tmp, lib_path)
            return
    except OSError as exc:
        raise RuntimeError(f"cannot build the kernel sweep: {shlex.join(cmd)}: {exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
    raise RuntimeError(f"building the kernel sweep failed (exit {proc.returncode}): "
                       f"{shlex.join(cmd)}: {tail}")


def _load_sweep():
    """{dtype: compiled sweep}, built into the cache first unless a build for this
    source, these flags and this CPU is there; a cache hit starts no process.

    Builds are named sweep-<hash of source and flags>-<hash of CPU flags>.so.
    Once this one is loaded, the builds of any other source or flags in its
    directory are removed; other CPUs' builds of this source stay, since a
    home directory can be shared between machines.

    Raises RuntimeError naming a failed build command and the tail of its stderr.
    """
    try:
        with open(_SWEEP_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        raise RuntimeError(f"cannot read the kernel sweep source: {exc}") from None
    build = hashlib.sha256(b"\0".join([source, " ".join(_SWEEP_FLAGS + _SWEEP_LIBS).encode()]))
    cpu = hashlib.sha256(_cpu_flags().encode())
    prefix = f"sweep-{build.hexdigest()[:16]}-"
    dirs = _cache_dirs()
    cache = next((d for d in dirs if _private_dir(d)), None)
    if cache is None:
        raise RuntimeError(f"no private cache directory for the kernel sweep among {dirs}")
    lib_path = os.path.join(cache, f"{prefix}{cpu.hexdigest()[:8]}.so")
    if not os.path.exists(lib_path):
        _build_sweep(lib_path)
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError as exc:
        raise RuntimeError(f"cannot load the kernel sweep: {exc}") from None
    for name in os.listdir(cache):
        if name.startswith("sweep-") and name.endswith(".so") and not name.startswith(prefix):
            with suppress(OSError):  # another process may have removed it first
                os.unlink(os.path.join(cache, name))
    sweeps = {}
    for dtype, name in ((np.float32, "sweep_float"), (np.float64, "sweep_double")):
        fn = getattr(lib, name)
        fn.argtypes = [ctypes.c_ssize_t] * 3 + [
            np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")] * 3 + [
            np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")]
        fn.restype = ctypes.c_int
        sweeps[np.dtype(dtype)] = fn
    return sweeps


try:
    _SWEEP = _load_sweep()
except RuntimeError as exc:
    _SWEEP = exc  # raised by simplex_levels, so that the import itself succeeds


def simplex_levels(points, rho_rows, eps_list, k, dtype=np.float64):
    """All simplex functionals T_hat(eps, l), l = 1..k, for a batch of paths.

    Parameters
    ----------
    points : (B, n+1, 2) array of path nodes.
    rho_rows : (B, M, n) weight values at nodes 0..n-1 (M weights share the
        kernel work; Hilbert coordinates are coupled this way).
    eps_list : sequence of kernel scales, evaluated jointly.
    k : highest multiplicity.
    dtype : np.float32 or np.float64 for the kernel values and their sums over
        a strip's 32 rows, which the float64 chain sums X_l accumulate.  Each
        exponent is formed in float64 and then cast, so float32 rounds it once,
        wherever the path lies.  On grids with n >= 10 / eps, levels of
        positive weights agree with float64 to about 1e-8 relative per entry
        (tested to 1e-7 at offsets up to 1e3; see README).

    The sweep is the compiled kernel of the module docstring.  It runs on the
    time-reversed path with unit weight and takes, path by path, strips of
    ``STRIP_ROWS`` node rows i against the columns j > i, in one pass per
    strip and scale: the exponent -|w_i - w_j|^2 / (2 eps) as a float64
    product of the squared difference, cast to ``dtype``, then exp, then the
    strip's share of X_{l+1}(j) = sum_{i<j} X_l(i) K_ij for every level.  The
    strip's own 32 x 32 head square goes first, level by level, as level l+1
    reads level l at the strip's rows.  Levels 2..k meet the reversed weights
    in numpy, by ``einsum``, summed over j in path order (BLAS would move the
    last bits).  Exponents below one above the log of the smallest normal
    number of ``dtype`` are raised to it (kernel values of 3.2e-38 in
    float32): libmvec's vector exp falls back to scalar code for inputs whose
    result underflows, which made an unfloored float32 sweep up to 12 times as
    slow at eps = 1e-3.  Values that small lie far below the sums' rounding,
    so the sweep skips them a block at a time: at each scale, a 32-column
    block is skipped for a strip when the exponent formed from the squared
    distance between the two node blocks' bounding boxes falls below that
    floor, as then every pair in it would take the floor value.  No other pair
    is skipped or approximated, and each scale's levels are bit for bit those
    of a sweep at that scale alone.  A NaN in the points or weights reaches
    the levels it touches.  Raises ValueError for a path of fewer than two
    nodes (n = 0) or a scale at which -1/(2 eps) or a level's factor
    (1/n)^l / (2 pi eps)^(l-1) is not a finite nonzero float, and RuntimeError
    when the kernel could not be built.

    Returns
    -------
    (B, M, n_eps, k) array.  Entry [b, m, e, l-1] is the level-l sum for path
    b, weight m, scale eps_list[e].
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 2:
        raise ValueError(f"points must have shape (B, n+1, 2), got {points.shape}")
    B, n = points.shape[0], points.shape[1] - 1
    if n < 1:
        raise ValueError(f"a path needs at least 2 nodes, got points of shape {points.shape}")
    eps = _scales(eps_list)
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rho_rows = np.asarray(rho_rows, dtype=float)
    if rho_rows.ndim != 3 or rho_rows.shape[0] != B or rho_rows.shape[2] != n:
        raise ValueError(f"rho_rows must have shape (B, M, {n})")
    M = rho_rows.shape[1]
    E = len(eps)

    out = np.empty((B, M, E, k))
    out[:, :, :, 0] = rho_rows.sum(axis=2)[:, :, None] / n
    if k == 1:
        return out

    with np.errstate(all="ignore"):  # a factor out of float range is reported below
        cneg = -0.5 / eps
        factors = np.array([(1.0 / n) ** l / (TWO_PI * eps) ** (l - 1) for l in range(2, k + 1)])
    bad = np.argwhere(~(np.isfinite(cneg) & np.isfinite(factors) & (factors != 0)))
    if bad.size:
        raise ValueError(f"level {bad[0, 0] + 2} at eps={float(eps[bad[0, 1]])!r} is out of "
                         f"float range: -1/(2 eps) or (1/n)^l / (2 pi eps)^(l-1) at n={n} is "
                         "not a finite nonzero number")
    if isinstance(_SWEEP, RuntimeError):
        raise RuntimeError(*_SWEEP.args)
    sweep, points = _SWEEP[np.dtype(dtype)], np.ascontiguousarray(points)
    kernel_values = np.zeros(E, dtype=np.int64)  # per scale, summed over the batch
    X = np.empty((E * (k - 1), n))  # one path's chain sums: a batch's would weigh on memory
    for b in range(B):
        if sweep(n, E, k, points[b], cneg, X, kernel_values) != 0:
            raise MemoryError("no scratch memory for the kernel sweep")
        out[b, :, :, 1:] = np.einsum("mj,qj->mq", rho_rows[b, :, ::-1], X).reshape(M, E, k - 1)
    out[:, :, :, 1:] *= factors.T
    return out


def simplex_functional(path: PlanarPath, rho, epsilon, k) -> SimplexEstimate:
    """Grid simplex functional of one path for weight rho at multiplicity k.

    The full ordered-tuple sum, evaluated in float64 by the O(k n^2) chain
    recursion of ``simplex_levels``.  ``rho`` must have one coordinate.
    """
    if rho.n_coords != 1:
        raise ValueError(f"simplex_functional needs one weight coordinate, got {rho.n_coords}")
    pts = path.points[None]
    levels = simplex_levels(pts, _as_weight_rows(rho, pts), [epsilon], k)
    return SimplexEstimate(value=float(levels[0, 0, 0, k - 1]))


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

#: Most paths per batch of ``ensemble_renormalized``, the unit of work of a worker thread.
BATCH_PATHS = 32

#: Bytes a batch's points and weight rows may take, 8 * n_steps * (M + 4) per path
#: of M weight coordinates: two coordinate rows of sampled points, two of the flat
#: copy in ``_as_weight_rows`` and the M weight rows.  ``ensemble_renormalized``
#: halves ``BATCH_PATHS`` until a batch fits or holds one path, so a batch of
#: the default cap stays a power of two, at most 32.
BATCH_BYTES = 6 << 20


@dataclass(frozen=True)
class EnsembleConfig:
    """Shape of a Monte Carlo ensemble run.

    ``workers`` is the number of threads that sweep batches of paths in this
    process (None: the CPU count), each batch at most ``BATCH_PATHS`` paths
    and halved to fit ``BATCH_BYTES``; neither affects numeric output (paths
    are keyed by index and reduced in fixed order).
    ``dtype`` ("float32" or "float64") is the precision of the sweep's kernel
    values and of their sums over a strip's 32 rows; exponents are formed in
    float64 and cast to it.  On grids with n >= 10 / eps, level sums at both
    agree to about 1e-8 relative at any path offset (tested to 1e-7; see
    simplex_levels).
    """

    n_paths: int
    n_steps: int
    seed: int
    workers: int | None = None
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


@dataclass(frozen=True)
class EnsembleResult:
    """Per-path functional values for a coupled ensemble.

    ``levels`` has shape (n_paths, M, n_eps, k): raw simplex sums per level,
    scales in the order of the caller's ``eps_list``.
    ``renormalized`` has shape (n_paths, M, n_eps).
    """

    levels: np.ndarray
    renormalized: np.ndarray

    def stats(self, weight_index=0, eps_index=0) -> MCStats:
        return MCStats.from_samples(self.renormalized[:, weight_index, eps_index])

    def level_stats(self, level, weight_index=0, eps_index=0) -> MCStats:
        return MCStats.from_samples(self.levels[:, weight_index, eps_index, level - 1])


def _outside_stacklevel():
    """``stacklevel`` at which the caller's warning names the first frame outside silt."""
    frame, level = sys._getframe(1), 1
    # by module spec, not __name__: ``python -m silt`` runs silt/__main__.py as __main__
    while frame is not None and \
            getattr(frame.f_globals.get("__spec__"), "name", "").partition(".")[0] == "silt":
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

    The setting is process-wide, so the ensemble's worker threads share it.
    They already fill the cores, so a multi-threaded BLAS under a weight
    function or a diagnostic product would oversubscribe the machine.
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


def ensemble_renormalized(cfg: EnsembleConfig, eps_list, k, rho) -> EnsembleResult:
    """Coupled ensemble of renormalized functionals over a list of kernel scales.

    Every path is evaluated at all scales (and all Hilbert coordinates of
    ``rho``, when it has them) on shared kernel sweeps, so cross-scale and
    cross-coordinate differences are coupled estimates.  Batches run on
    ``cfg.workers`` threads of this process (by default one per CPU), which
    overlap in the compiled sweep: its ctypes call releases the GIL.  A batch
    holds ``BATCH_PATHS`` paths, halved while its points and weight rows
    would exceed ``BATCH_BYTES``, so a worker's memory stays bounded on fine
    grids and with many weight coordinates.  Deterministic given the config
    seed, independently of workers and batch size.  A batch that raises (or
    an interrupt) cancels the batches not yet started, and the error reaches
    the caller once the running ones have finished.  Raises ValueError naming the first path whose level
    sums are not finite.
    """
    eps = _scales(eps_list)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_resolution(cfg.n_steps, eps)

    size, path_bytes = BATCH_PATHS, 8 * cfg.n_steps * (rho.n_coords + 4)
    while size > 1 and size * path_bytes > BATCH_BYTES:
        size //= 2
    ranges = [(lo, min(lo + size, cfg.n_paths)) for lo in range(0, cfg.n_paths, size)]

    failed = threading.Event()

    def batch(path_range):
        if failed.is_set():  # never stored: the caller meets the earlier failure first
            return None
        try:
            pts = sample_path_points(cfg.n_steps, cfg.seed, range(*path_range))
            return simplex_levels(pts, _as_weight_rows(rho, pts), eps, k, dtype=cfg.dtype)
        except BaseException:
            failed.set()  # a thread takes its next batch before the caller can cancel it
            raise

    levels = np.empty((cfg.n_paths, rho.n_coords, len(eps), k))
    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=cfg.workers or os.cpu_count() or 1)
        try:
            for (lo, hi), block in zip(ranges, pool.map(batch, ranges)):
                levels[lo:hi] = block
        finally:
            pool.shutdown(cancel_futures=True)

    finite = np.isfinite(levels).reshape(cfg.n_paths, -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite functional value at path {int(np.argmin(finite))} "
                         f"(seed {cfg.seed}); check the weight")
    renorm = np.empty((cfg.n_paths, levels.shape[1], len(eps)))
    for e, epsilon in enumerate(eps):
        renorm[:, :, e] = dynkin_renormalize(levels[:, :, e, :], epsilon, k)
    return EnsembleResult(levels=levels, renormalized=renorm)


@dataclass(frozen=True)
class CauchyRow:
    """Coupled mean-square gap between two consecutive kernel scales."""

    eps_high: float
    eps_low: float
    mean_sq_diff: float


def cauchy_diagnostic(cfg: EnsembleConfig, eps_levels, k, rho):
    """Coupled L2 gaps E||V(eps_j) - V(eps_{j+1})||^2 along a decreasing scale ladder.

    For a weight of M coordinates the squared gap is the Hilbert norm, the
    sum over m of (V_m(eps_j) - V_m(eps_{j+1}))^2, taken per path before the
    path mean (for a scalar weight, the one term).  All levels reuse the same
    path ensemble, so the rows estimate the Cauchy gaps of the renormalized
    family directly.  Requires at least two levels, nonincreasing; repeated
    levels give exactly zero rows.
    """
    eps = np.asarray(eps_levels, dtype=float)
    if eps.size < 2:
        raise ValueError(f"need at least 2 epsilon levels, got {eps.size}")
    if np.any(np.diff(eps) > 0):
        raise ValueError("epsilon levels must be nonincreasing")
    result = ensemble_renormalized(cfg, eps, k, rho)
    rows = []
    for j in range(eps.size - 1):
        diff = result.renormalized[:, :, j] - result.renormalized[:, :, j + 1]
        rows.append(CauchyRow(eps_high=float(eps[j]), eps_low=float(eps[j + 1]),
                              mean_sq_diff=float(np.mean(np.sum(diff * diff, axis=1)))))
    return rows
