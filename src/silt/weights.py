"""Weight functions: one Hilbert-valued weight type, with scalar weights its M = 1 case.

A weight is one evaluator of its M coordinates u -> (rho(u), e_m) in a
labeled orthonormal basis and a declared sup bound per coordinate.  A scalar
weight is the case M = 1.  The square-summability profile of the
coordinate sups decides whether the weight's range fits in a covering brick
(see the brick module).

Two concrete random-field weights are provided: a piecewise-linear chain of
independent rare-spike variables (unbounded sup, vanishing norms; its
coordinates are a closed form with at most three nonzero per point) and a
Gaussian-displaced occupation-density field with a log-singular kernel, the
closed form E1(|u|^2 / 2) / (2 pi).

Evaluators are plain callables, and the builtin ones are closures, so weights
are not picklable; the ensemble runs them on threads of one process.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SingularityError
from .slt_core import MCStats


# ---------------------------------------------------------------------------
# weight containers
# ---------------------------------------------------------------------------

def _checked(values, sups, name):
    """``values`` (M, m) after checking |values[i]| <= ``sups[i]``; ``inf`` declares no bound."""
    if values.size == 0:
        return values
    worst = np.maximum(np.max(values, axis=-1), -np.min(values, axis=-1))  # no |values| copy
    over = worst > sups * (1 + 1e-12) + 1e-300
    if over.any():
        i = int(np.argmax(over))
        raise ValueError(f"weight {name or '<anonymous>'} coordinate {i} exceeded its declared "
                         f"sup_norm {sups[i]:g} (observed {worst[i]:g})")
    return values


@dataclass(frozen=True)
class RadialParameterMap:
    """Planar adapter t(u) = min(1 + ||u||, t_max) for parameter-domain weights."""

    t_max: float

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        # bit for bit np.linalg.norm(pts, axis=-1), whose 2-term add.reduce is this sum
        return np.minimum(1.0 + np.sqrt(x * x + y * y), self.t_max)


@dataclass(frozen=True, eq=False)
class HilbertWeight:
    """Hilbert-valued weight: one evaluator for its M coordinates in a labeled basis.

    ``evaluator`` maps an (m, d) array of points to the (M, m) array of
    coordinate values; ``sup_norms`` holds the M declared bounds on their
    absolute values (``inf`` declares none; NaN or a negative bound is
    refused), checked on every evaluation.  Weights compare by identity.
    """

    evaluator: object
    sup_norms: np.ndarray
    basis_label: str

    def __post_init__(self):
        sups = np.array(self.sup_norms, dtype=float).reshape(-1)
        if sups.size < 1:
            raise ValueError("a Hilbert weight needs at least one coordinate")
        bad = ~(sups >= 0)  # NaN or negative
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"sup_norms[{i}] is {sups[i]:g}; a sup must be >= 0 (inf: no bound)")
        sups.setflags(write=False)
        object.__setattr__(self, "sup_norms", sups)

    @property
    def n_coords(self):
        return self.sup_norms.size

    def coordinate_values(self, pts):
        """Matrix of coordinate values on a point set, shape (M, len(pts))."""
        pts = np.asarray(pts, dtype=float)
        vals = np.asarray(self.evaluator(pts), dtype=float)
        if vals.shape != (self.n_coords, len(pts)):
            raise ValueError(f"Hilbert weight {self.basis_label} evaluated to shape "
                             f"{vals.shape}, expected {(self.n_coords, len(pts))}")
        return _checked(vals, self.sup_norms, self.basis_label)

    def compose(self, param_map):
        """Weight with its coordinates precomposed with ``param_map`` (new domain)."""
        inner = self.evaluator
        return HilbertWeight(evaluator=lambda pts: inner(param_map(pts)),
                             sup_norms=self.sup_norms, basis_label=self.basis_label)


class ScalarWeight(HilbertWeight):
    """Real-valued weight: the Hilbert weight of one coordinate.

    ``evaluator`` maps an (m, d) array of points to an (m,) array; ``sup_norm``
    is its declared bound (None declares none) and ``name`` its basis label.
    """

    def __init__(self, evaluator, sup_norm=None, name=""):
        super().__init__(evaluator=lambda pts: np.asarray(evaluator(pts))[None],
                         sup_norms=math.inf if sup_norm is None else sup_norm,
                         basis_label=name)

    def values(self, pts):
        """Values on a point set, shape (len(pts),)."""
        return self.coordinate_values(pts)[0]

    @staticmethod
    def constant(c):
        value = float(c)
        return ScalarWeight(evaluator=lambda pts: np.full(np.asarray(pts).shape[0], value),
                            sup_norm=abs(value), name=f"const({c:g})")


@dataclass(frozen=True)
class CovarianceOracle:
    """Gram oracle of a random field: points (m, d) -> (m, m) matrix of (rho(u), rho(v))."""

    evaluator: object

    def gram(self, points):
        """Gram matrix on a point set; validated symmetric with nonnegative
        diagonal and 2x2 principal minors (up to jitter tolerance)."""
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        G = np.asarray(self.evaluator(points), dtype=float)
        if G.shape != (n, n):
            raise ValueError(f"covariance oracle produced shape {G.shape}, expected {(n, n)}")
        scale = max(np.abs(G).max(), 1e-300)
        tol = 1e-8 * scale
        if np.any(np.abs(G - G.T) > tol):
            raise ValueError("covariance oracle produced an asymmetric Gram matrix")
        if np.any(np.diag(G) < -tol):
            raise ValueError("covariance oracle produced a negative diagonal entry")
        d = np.diag(G)
        minors = np.outer(d, d) - G * G
        if np.any(minors < -tol * scale):
            raise ValueError("covariance oracle violated a 2x2 principal minor bound")
        return G


# ---------------------------------------------------------------------------
# square-summability profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupProfile:
    """Per-coordinate grid sups s_m = max (rho, e_m)^2 and their partial sums."""

    sup_squares: np.ndarray
    partial_sums: np.ndarray


def coordinate_sup_profile(weight: HilbertWeight, grid) -> SupProfile:
    """Square-summability profile of a Hilbert weight on a finite grid.

    Returns the squared coordinate sups over the grid and their
    (nondecreasing) partial sums.  The grid stands in for the full domain, so
    the sups are lower bounds on the sups over it.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    vals = weight.coordinate_values(grid)
    sup_sq = np.max(vals * vals, axis=1)
    return SupProfile(sup_squares=sup_sq, partial_sums=np.cumsum(sup_sq))


# ---------------------------------------------------------------------------
# coupled Hilbert-valued estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertSltResult:
    """Per-coordinate Monte Carlo stats plus the truncated squared-norm profile.

    ``norm_sq_partial[j]`` is the sample mean of sum_{m<=j+1} V_m^2 over the
    shared path ensemble (V_m the renormalized functional of coordinate m);
    it is nondecreasing in j by construction.
    """

    coord_stats: tuple
    norm_sq_partial: np.ndarray

    @classmethod
    def from_ensemble(cls, result, eps_index):
        """The result at the scale numbered ``eps_index`` of a coupled ensemble."""
        per_path = result.renormalized[:, :, eps_index]  # (n_paths, M)
        stats = tuple(MCStats.from_samples(per_path[:, m]) for m in range(per_path.shape[1]))
        partial = np.mean(np.cumsum(per_path * per_path, axis=1), axis=0)
        return cls(coord_stats=stats, norm_sq_partial=partial)


# ---------------------------------------------------------------------------
# Jacobian-induced weights
# ---------------------------------------------------------------------------

def jacobian_weight(diffeo, k) -> ScalarWeight:
    """Weight u -> 1/|det F'(u)|^(k-1) induced by a diffeomorphism F.

    Requires k >= 2 (k = 1 would be the trivial unit weight).  The declared
    sup is det_lower_bound^(1-k).  Evaluating at a point with vanishing
    determinant raises SingularityError naming the point.
    """
    if k < 2:
        raise ValueError(f"jacobian weight needs k >= 2, got {k}")

    def evaluator(pts):
        pts = np.asarray(pts, dtype=float)
        det = np.abs(np.asarray(diffeo.jac_det(pts), dtype=float))
        bad = det == 0.0
        if np.any(bad):
            raise SingularityError(pts[np.argmax(bad)])
        return det ** (-(k - 1))

    return ScalarWeight(evaluator=evaluator, sup_norm=float(diffeo.det_lower_bound) ** (1 - k),
                        name=f"jacobian({diffeo.name}, k={k})")


# ---------------------------------------------------------------------------
# rare-spike chain weight
# ---------------------------------------------------------------------------

def spike_gram(n_levels) -> np.ndarray:
    """Closed-form Gram matrix of the rare-spike family.

    Level n takes value n^(1/6) with probability 1/n, else 0, independently
    across levels, so (f_n, f_n) = n^(-2/3) and (f_n, f_m) = n^(-5/6) m^(-5/6)
    for n != m.
    """
    n = np.arange(1, n_levels + 1, dtype=float)
    a = n ** (-5.0 / 6.0)
    G = np.outer(a, a)
    np.fill_diagonal(G, n ** (-2.0 / 3.0))
    return G


def spike_grid(n_levels, points_per_segment=8) -> np.ndarray:
    """Uniform grid on [1, n_levels], ``points_per_segment`` steps per segment [n, n+1]."""
    return np.linspace(1.0, n_levels, (n_levels - 1) * points_per_segment + 1)


def rare_spike_weight(n_levels) -> HilbertWeight:
    """Hilbert weight over the parameter domain [1, n_levels] from the spike chain.

    The value at parameter t in [n, n+1] interpolates the n-th and (n+1)-th
    spike variables linearly; norms decay like n^(-1/3), while the pointwise
    sup of the family is infinite.  The spike variables are neither centered
    nor orthogonal.  Their Gram matrix is a a^T + diag(c), a_n = n^(-5/6),
    c_n = n^(-2/3) - a_n^2 (c_1 = 0), and Gram-Schmidt with the largest pivot
    first has a closed form: the first pivot f_1 (norm 1, a_1 = 1) leaves the
    Schur complement diag(c) exactly, in floating point too, as each
    off-diagonal entry is a_n a_m - a_n a_m.  So f_n has coordinate a_n on
    basis vector 0 and, for n >= 2, sqrt(c_n) on basis vector j, the rank of
    c_n in decreasing c_2, ..., c_N (from 1).  A point of [n, n+1] thus has at
    most three nonzero coordinates, and the evaluator fills just those from
    the three length-N vectors a, sqrt(c) and the basis index.
    """
    if n_levels < 2:
        raise ValueError(f"n_levels must be >= 2, got {n_levels}")
    n = np.arange(1, n_levels + 1, dtype=float)
    a = n ** (-5.0 / 6.0)
    c = n ** (-2.0 / 3.0) - a * a
    s = np.sqrt(c)
    col = np.zeros(n_levels, dtype=np.intp)  # basis vector of sqrt(c_n); 0 for level 1
    col[1 + np.argsort(-c[1:], kind="stable")] = np.arange(1, n_levels)

    def evaluator(ts):
        """Every coordinate of the chain, interpolated linearly on [1, N]."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if np.any(ts < 1.0 - 1e-12) or np.any(ts > n_levels + 1e-12):
            raise ValueError(f"parameter values must lie in [1, {n_levels}]")
        lo = np.clip(np.floor(ts).astype(np.intp), 1, n_levels - 1) - 1
        frac = ts - (lo + 1)
        at = np.arange(ts.size)
        out = np.zeros((n_levels, ts.size))
        out[0] = (1.0 - frac) * a[lo] + frac * a[lo + 1]
        out[col[lo], at] += (1.0 - frac) * s[lo]
        out[col[lo + 1], at] += frac * s[lo + 1]
        return out

    sups = np.empty(n_levels)
    sups[col] = s
    sups[0] = a[0]
    return HilbertWeight(evaluator=evaluator, sup_norms=sups, basis_label=f"spike-gs-{n_levels}")


# ---------------------------------------------------------------------------
# occupation-density field
# ---------------------------------------------------------------------------

def _exp1(x):
    """Exponential integral E1(x) = integral over s > x of e^-s / s, on an array of x > 0.

    For x <= 1 the power series -gamma - ln x - sum_k (-x)^k / (k k!) over 25
    terms; for x > 1 the continued fraction
    e^-x / (x + 1 - 1^2 / (x + 3 - 2^2 / (x + 5 - ...))), evaluated backward
    over 100 terms.  Within 3e-15 relative of a reference E1 on [1e-10, 700];
    beyond, e^-x goes subnormal and then the value underflows to 0.  NaN stays
    NaN.
    """
    out = np.empty_like(x)
    small = x <= 1.0
    xs = x[small]
    term, series = np.ones_like(xs), np.zeros_like(xs)
    for k in range(1, 26):
        term *= -xs / k
        series += term / k
    out[small] = -np.euler_gamma - np.log(xs) - series
    xl = x[~small]
    d = xl + 201.0
    for j in range(99, -1, -1):
        d = xl + (2 * j + 1) - (j + 1) ** 2 / d
    out[~small] = np.exp(-xl) / d
    return out


def occupation_kernel(points) -> np.ndarray:
    """Mean occupation density of planar Brownian motion over [0, 1].

    f(u) = integral over t in (0, 1] of the centered Gaussian density of scale
    t at u, which the substitution s = |u|^2 / (2t) turns into the closed form
    E1(|u|^2 / 2) / (2 pi), one value per row of ``points`` (E1 by ``_exp1``, within
    3e-15 relative for |u| up to about 37; the value underflows to 0 near
    |u| = 38).  Diverges logarithmically at the origin, which is rejected.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r2 = np.sum(pts * pts, axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("occupation kernel is +inf at the origin; exclude it")
    return _exp1(0.5 * r2) / (2.0 * math.pi)


@dataclass(frozen=True)
class OccupationField:
    """Gaussian-displaced occupation field rho1(u) = exp(-||u||^2) f(u - xi).

    The displacement xi is standard Gaussian; the covariance
    E rho1(u) rho1(v) = exp(-||u||^2 - ||v||^2) E[f(u - z) f(v - z)] is
    estimated by Monte Carlo over the shared, seeded draws of xi in ``_z``, so
    the oracle is symmetric by construction and deterministic given the seed.
    """

    grid: np.ndarray
    _z: np.ndarray = field(repr=False)

    def _gram(self, points):
        """Monte Carlo Gram matrix E rho1(u) rho1(v) over the shared draws, for all pairs."""
        pts = np.asarray(points, dtype=float)
        shifted = (pts[:, None, :] - self._z[None, :, :]).reshape(-1, 2)
        F = occupation_kernel(shifted).reshape(pts.shape[0], -1)  # f(p - z), per point p
        env = np.exp(-np.sum(pts * pts, axis=1))
        return np.outer(env, env) * (F @ F.T) / len(self._z)

    @property
    def oracle(self) -> CovarianceOracle:
        return CovarianceOracle(evaluator=self._gram)


def occupation_density_field(grid, mc_samples, seed) -> OccupationField:
    """Occupation field with its covariance oracle on a finite planar grid.

    The grid must exclude the origin (where the kernel diverges);
    ``mc_samples`` of at least 100 displacement draws are required.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if np.any(np.sum(grid * grid, axis=1) == 0.0):
        raise ValueError("grid must exclude the origin")
    if mc_samples < 100:
        raise ValueError(f"mc_samples must be >= 100, got {mc_samples}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((int(mc_samples), 2))
    return OccupationField(grid=grid, _z=z)
