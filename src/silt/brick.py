"""Covering-brick algebra, isonormal sampling, and entropy-integral estimation.

A brick is the compact set {x : |(x, e_k)| <= eps_k for all k} for a labeled
orthonormal basis and a square-summable width sequence.  Only a finite width
prefix is stored, and all operations here reduce to prefix arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NotPositiveSemidefiniteError

#: Radii on the geometric grid of ``dudley_estimate``.
DUDLEY_LEVELS = 32


@dataclass(frozen=True)
class Brick:
    """Finite-prefix brick: nonnegative half-widths in a labeled basis."""

    basis_label: str
    eps_seq: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps_seq, dtype=float)
        if np.any(eps < 0):
            raise ValueError("brick widths must be nonnegative")
        object.__setattr__(self, "eps_seq", eps)
        eps.setflags(write=False)


@dataclass(frozen=True)
class FiniteCompact:
    """Finite skeleton of a compact set: coordinate vectors in a labeled basis."""

    points: np.ndarray
    basis_label: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("point set must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    def gram(self):
        return self.points @ self.points.T


@dataclass(frozen=True)
class IsonormalSample:
    """Joint Gaussian draws, one column per index point, with covariance ``gram``."""

    draws: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        if self.draws.shape[1] != self.gram.shape[0]:
            raise ValueError("draws must have one column per row of the Gram matrix")

    def empirical_covariance(self):
        return self.draws.T @ self.draws / self.draws.shape[0]


def _check_basis(vec_len, brick, what):
    if vec_len > brick.eps_seq.shape[0]:
        raise ValueError(
            f"basis mismatch: {what} has {vec_len} coordinates but the brick "
            f"stores only {brick.eps_seq.shape[0]} widths"
        )


def brick_contains(x, brick: Brick) -> bool:
    """Whether |x_k| <= eps_k for every stored coordinate (non-strict).

    ``x`` must be expressed in the brick's basis with at most as many
    coordinates as stored widths; missing trailing coordinates are zero.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    _check_basis(x.shape[0], brick, "vector")
    return bool(np.all(np.abs(x) <= brick.eps_seq[: x.shape[0]]))


def covering_brick(points: FiniteCompact) -> Brick:
    """Smallest axis brick containing a finite point set: widths max_k |x_k|."""
    widths = np.max(np.abs(points.points), axis=0)
    return Brick(basis_label=points.basis_label, eps_seq=widths)


def minkowski_cover(brick: Brick, h) -> Brick:
    """Brick covering {x + t h : x in brick, |t| <= 1}: widths eps_k + |h_k|."""
    h = np.asarray(h, dtype=float).reshape(-1)
    _check_basis(h.shape[0], brick, "shift")
    widths = brick.eps_seq.copy()
    widths[: h.shape[0]] += np.abs(h)
    return Brick(basis_label=brick.basis_label, eps_seq=widths)


def project_cover(brick: Brick, drop_indices) -> Brick:
    """Brick covering the image under the projection that kills the given coordinates."""
    drop = np.asarray(sorted(set(int(i) for i in drop_indices)), dtype=int)
    if drop.size and (drop.min() < 0 or drop.max() >= brick.eps_seq.shape[0]):
        raise ValueError("drop index outside the stored width range")
    widths = brick.eps_seq.copy()
    widths[drop] = 0.0
    return Brick(basis_label=brick.basis_label, eps_seq=widths)


# ---------------------------------------------------------------------------
# isonormal sampling
# ---------------------------------------------------------------------------

def isonormal_sample(gram, n_samples, seed) -> IsonormalSample:
    """Centered Gaussian draws over a finite index set with covariance ``gram``.

    ``gram`` is the Gram matrix of the index points, e.g. ``FiniteCompact.gram()``
    of coordinate vectors or ``CovarianceOracle.gram(points)`` of a random field.
    It is factored symmetrically; if the factorization fails, a diagonal jitter
    of 1e-10 * trace / M is added once.  An eigenvalue below -1e-6 * trace
    signals a broken covariance and raises.  The sample keeps the symmetrized
    Gram it was drawn with (without the jitter).
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    G = np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or \
            not np.allclose(G, G.T, atol=1e-10 * max(1.0, np.abs(G).max())):
        raise ValueError("Gram matrix must be square and symmetric")
    G = 0.5 * (G + G.T)
    M = G.shape[0]
    trace = float(np.trace(G))
    eigs = np.linalg.eigvalsh(G)
    if eigs[0] < -1e-6 * max(trace, 1e-300):
        raise NotPositiveSemidefiniteError(
            f"Gram matrix has eigenvalue {eigs[0]:.3e} below -1e-6 * trace; "
            "the covariance oracle looks broken"
        )
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * trace / M
        L = np.linalg.cholesky(G + jitter * np.eye(M))
    rng = np.random.Generator(np.random.Philox(key=seed))
    Z = rng.standard_normal((int(n_samples), M))
    return IsonormalSample(draws=Z @ L.T, gram=G)


def canonical_metric(gram) -> np.ndarray:
    """Pairwise distances d(u, v) = sqrt(G_uu + G_vv - 2 G_uv) from a Gram matrix."""
    G = np.asarray(gram, dtype=float)
    d = np.diag(G)
    sq = d[:, None] + d[None, :] - 2.0 * G
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


# ---------------------------------------------------------------------------
# entropy integral
# ---------------------------------------------------------------------------

def _greedy_covering_number(dist, radius):
    n = dist.shape[0]
    covered = np.zeros(n, dtype=bool)
    count = 0
    for i in range(n):
        if not covered[i]:
            count += 1
            covered |= dist[i] <= radius
    return count


def dudley_estimate(metric) -> float:
    """Upper Riemann estimate of the entropy integral int sqrt(ln H_eps) d eps.

    Covering numbers H_eps come from a greedy net with centers restricted to
    the point set (first uncovered point in input order, closed balls) -- a
    2-approximation of the minimal net, so the value is an upper-bound
    estimate.  The radius grid is geometric, ``DUDLEY_LEVELS`` radii from the
    set diameter down to the smallest positive pairwise distance; the
    remaining strip [0, d_min) contributes d_min * sqrt(ln #distinct points)
    exactly.  ``metric`` is the square table of pairwise distances.
    """
    dist = np.asarray(metric, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"metric table must be square, got shape {dist.shape}")
    n = dist.shape[0]
    if not np.allclose(dist, dist.T, atol=1e-12 * max(1.0, np.abs(dist).max())):
        raise ValueError("metric table must be symmetric")
    if np.any(np.abs(np.diag(dist)) > 1e-12):
        raise ValueError("metric table must have a zero diagonal")
    off = dist[np.triu_indices(n, 1)]
    off = off[off > 0]
    if off.size == 0:
        return 0.0
    diameter, d_min = float(off.max()), float(off.min())
    total = 0.0
    if diameter > d_min * (1 + 1e-12):
        grid = np.geomspace(diameter, d_min, DUDLEY_LEVELS)
        for hi, lo in zip(grid[:-1], grid[1:]):
            H = _greedy_covering_number(dist, lo)
            total += math.sqrt(math.log(H)) * (hi - lo)
    n_distinct = _greedy_covering_number(dist, d_min * (1 - 1e-12))
    total += math.sqrt(math.log(n_distinct)) * d_min
    return total
