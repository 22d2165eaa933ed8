"""Functionals of diffeomorphism images of planar Wiener paths.

For a planar diffeomorphism F (bounded, with bounded nonsingular derivative),
the delta family adapted to F is

    kF_eps(v_1, ..., v_k) = |det F'(F^-1(v_1))|^(1-k) *
                            prod_i g_eps(F^-1(v_{i+1}) - F^-1(v_i)),

which turns the k-fold simplex functional of the image path F(w) into the
Jacobian-weighted functional of w itself: both are the same algebraic
expression after the substitution u = F^-1(v).  ``image_slt`` evaluates both
routes numerically (the image route goes through the actual forward and
inverse maps) and reports their relative residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from .path_sim import PlanarPath
from .slt_core import _as_weight_rows, _scales, simplex_levels
from .weights import jacobian_weight


@dataclass(frozen=True)
class Diffeomorphism:
    """Planar map with inverse and Jacobian-determinant evaluators.

    All three callables are vectorized over (m, 2) arrays; ``jac_det`` returns
    (m,).  ``det_lower_bound`` declares a positive lower bound for |det F'| on
    the working region.
    """

    forward: object
    inverse: object
    jac_det: object
    det_lower_bound: float
    name: str = ""

    def __post_init__(self):
        if self.det_lower_bound <= 0:
            raise ValueError("det_lower_bound must be > 0")


# ---------------------------------------------------------------------------
# builtin family: affine maps and bounded perturbations of the identity
# ---------------------------------------------------------------------------

def affine_map(A, b=(0.0, 0.0), name="affine") -> Diffeomorphism:
    """Affine diffeomorphism u -> A u + b with det A != 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    det = float(np.linalg.det(A))
    if det == 0.0:
        raise ValueError("affine map must have a nonsingular matrix")
    A_inv = np.linalg.inv(A)
    return Diffeomorphism(
        forward=lambda u: np.atleast_2d(np.asarray(u, dtype=float)) @ A.T + b,
        inverse=lambda v: (np.atleast_2d(np.asarray(v, dtype=float)) - b) @ A_inv.T,
        jac_det=lambda u: np.full(np.atleast_2d(u).shape[0], det),
        det_lower_bound=abs(det),
        name=name,
    )


def perturbation_map(alpha=0.2, name="swirl") -> Diffeomorphism:
    """Bounded smooth perturbation u + alpha (sin u_2, cos u_1) of the identity.

    det F' = 1 + alpha^2 sin(u_1) cos(u_2) >= 1 - alpha^2 > 0 for |alpha| < 1,
    so the map is a global diffeomorphism.  The inverse iterates the fixed
    point u = v - alpha s(u) to a 1e-12 forward residual.  The iteration
    contracts at rate alpha from an error of at most alpha sqrt(2); its step
    cap is what that rate needs to reach 1e-12, and at least 500.  Each step
    evaluates s once: alpha s(u) gives both the residual u + alpha s(u) - v of
    the current iterate and the next iterate v - alpha s(u).
    """
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    steps = 500 if alpha == 0 else max(
        500, math.ceil(math.log(1e-12 / (alpha * math.sqrt(2))) / math.log(alpha)))

    def shift(u):
        s = np.empty(u.shape)
        np.sin(u[:, 1], out=s[:, 0])
        np.cos(u[:, 0], out=s[:, 1])
        return s

    def forward(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return u + alpha * shift(u)

    def inverse(v):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        u = v - alpha * shift(v)
        for _ in range(steps):
            s = alpha * shift(u)
            r = u + s - v
            # sqrt is monotone: the largest norm is the root of the largest square
            if math.sqrt(np.max(r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1])) <= 1e-12:
                return u
            u = v - s
        raise RuntimeError("fixed-point inversion failed to reach the residual tolerance")

    def jac_det(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return 1.0 + alpha**2 * np.sin(u[:, 0]) * np.cos(u[:, 1])

    return Diffeomorphism(forward=forward, inverse=inverse, jac_det=jac_det,
                          det_lower_bound=1.0 - alpha**2, name=name)


def builtin_maps() -> dict:
    """The builtin diffeomorphism family used by the CLI and the test suite."""
    return {
        "identity": affine_map(np.eye(2), name="identity"),
        "scale2": affine_map(2.0 * np.eye(2), name="scale2"),
        "shear": affine_map([[1.2, 0.3], [-0.2, 0.8]], b=[0.1, -0.2], name="shear"),
        "swirl": perturbation_map(0.2, name="swirl"),
    }


# ---------------------------------------------------------------------------
# the substitution identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageIdentity:
    """Both evaluation routes of the image functional and their relative residual."""

    value_image: float
    value_weighted: float
    residual: float


def image_slt(path: PlanarPath, F: Diffeomorphism, epsilon, k) -> ImageIdentity:
    """Image-path functional evaluated both ways.

    Route (a) sweeps the roundtrip nodes F^-1(F(w)) with the Jacobian weight;
    route (b) sweeps the original nodes w with the same weight.  Both routes
    are swept in one batched call, as two paths.  Neither sweeps the image
    path F(w) itself, so the residual measures only how closely the numeric
    inverse map undoes the forward map (plus rounding), not the image
    construction.
    """
    if k < 2:
        raise ValueError(f"image functional needs k >= 2, got {k}")
    routes = np.stack([F.inverse(F.forward(path.points)), path.points])
    levels = simplex_levels(routes, _as_weight_rows(jacobian_weight(F, k), routes), [epsilon], k)
    val_a, val_b = (float(v) for v in levels[:, 0, 0, k - 1])

    denom = max(abs(val_a), abs(val_b))
    residual = 0.0 if denom == 0.0 else abs(val_a - val_b) / denom
    return ImageIdentity(value_image=val_a, value_weighted=val_b, residual=residual)


# ---------------------------------------------------------------------------
# delta-family convergence check
# ---------------------------------------------------------------------------

def bump_function(center=(0.0, 0.0), radius=1.5):
    """Smooth compactly supported planar bump, value exp(-1) at the center.

    A planar test function: it takes points of shape (m, 2).
    ``delta_family_check`` builds the k-point integrand as the product of
    its values at the free points.  A point with a NaN coordinate maps to
    NaN; a point at infinity lies outside the support and maps to 0.
    """
    center = np.asarray(center, dtype=float)
    radius = float(radius)

    def bump(v):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        d = v - center
        r2 = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) / radius**2
        out = np.zeros(v.shape[0])
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        out[np.isnan(r2)] = np.nan
        return out

    return bump


@dataclass(frozen=True)
class DeltaRow:
    """One scale of the delta-family check: quadrature value vs the point limit."""

    epsilon: float
    value: float
    target: float
    deviation: float


#: Rows of distinct x pair sums per block of the k = 3 grid in
#: ``delta_family_check``: small blocks keep its peak memory flat.
_PAIR_SUM_ROWS = 16


def delta_family_check(phi, v_k, F: Diffeomorphism, epsilon_levels, k=2, n_nodes=41):
    """Convergence table of integral(phi * kF_eps) toward phi at the collapsed point.

    ``phi`` is a planar test function, vectorized over (m, 2) points.  The
    integrand of the k-point functional is the product of ``phi`` over the
    k - 1 free points, so the target is phi(v_k)^(k-1).

    The integral over the free points is taken in pre-image coordinates, where
    each kernel factor is a Gaussian of scale sqrt(eps); tensor Gauss-Hermite
    nodes adapted to that scale evaluate it.  The Gaussian mass outside the
    node radius must stay below 1e-8 (per factor), else the node count is
    rejected with a ValueError.

    At k = 2 the integrand is evaluated at n_nodes^2 points per scale.  At
    k = 3 the outer point is u2 = c + s (x_a, y_b) and the inner point
    u1 = c + s (x_a + x_a', y_b + y_b'), so the sum factorises into
    phi(F(u2)) |det F'(u2)| times h(u1) = phi(F(u1)) / |det F'(u1)|, and h is
    evaluated once per pair of distinct node sums: (distinct pair sums)^2
    points per scale, 841^2 at 41 nodes against 41^4 for the nested sum.
    |det F'(u1)| is evaluated only where phi(F(u1)) != 0, so a NaN
    determinant where phi vanishes does not reach the value.

    A scale whose value is not finite (a NaN phi value, or a zero
    determinant where phi does not vanish) raises a ValueError naming it.
    """
    if k not in (2, 3):
        raise ValueError("delta-family check supports k = 2 or 3 only")
    eps_levels = _scales(epsilon_levels)
    nodes, wts = np.polynomial.hermite.hermgauss(int(n_nodes))
    x_max = float(np.max(np.abs(nodes)))
    mass_out = math.exp(-x_max * x_max)  # exact planar Gaussian tail at the node radius
    if mass_out > 1e-8:
        raise ValueError(
            f"truncation radius too small: {n_nodes} nodes leave Gaussian mass "
            f"{mass_out:.2e} outside (tolerance 1.0e-08); increase n_nodes"
        )
    v_k = np.asarray(v_k, dtype=float)
    c = F.inverse(v_k[None, :])[0]
    target = float(phi(v_k[None, :])[0]) ** (k - 1)

    # planar tensor nodes and weights for one Gaussian factor
    N1, N2 = np.meshgrid(nodes, nodes, indexing="ij")
    planar = np.stack([N1.ravel(), N2.ravel()], axis=1)
    pw = np.outer(wts, wts).ravel()
    if k == 3:
        # G[a, s]: weight of the inner nodes a' with x_a + x_a' = sums[s]
        sums, pair = np.unique(np.add.outer(nodes, nodes), return_inverse=True)
        m = sums.size
        G = np.zeros((nodes.size, m))
        np.add.at(G, (np.arange(nodes.size)[:, None], pair.reshape(nodes.size, nodes.size)), wts)
        block = np.empty((_PAIR_SUM_ROWS, m, 2))  # inner points of one block, reused

    rows = []
    for eps in eps_levels:
        scale = math.sqrt(2.0 * eps)
        u = c[None, :] + scale * planar
        if k == 2:
            value = float(np.sum(pw * phi(F.forward(u))) / math.pi)
        else:
            outer = pw * phi(F.forward(u)) * np.abs(F.jac_det(u))
            axis0, axis1 = c[0] + scale * sums, c[1] + scale * sums
            GH = np.zeros((nodes.size, m))
            for lo in range(0, m, _PAIR_SUM_ROWS):
                nb = min(_PAIR_SUM_ROWS, m - lo)
                block[:nb, :, 0] = axis0[lo : lo + nb, None]
                block[:nb, :, 1] = axis1
                u1 = block[:nb].reshape(-1, 2)
                # a copy: phi's array is not ours to divide in place
                h = np.array(phi(F.forward(u1)), dtype=float)
                live = h != 0  # NaN != 0, so a NaN h is still divided
                if live.any():
                    h[live] /= np.abs(F.jac_det(u1[live]))
                GH += G[:, lo : lo + nb] @ h.reshape(nb, m)
            inner = GH @ G.T                                  # [a, b]: sum over a', b'
            value = float(np.sum(outer * inner.ravel()) / math.pi**2)
        if not math.isfinite(value):
            raise ValueError(f"delta-family value at epsilon={float(eps)!r} is not finite "
                             f"({value})")
        rows.append(DeltaRow(epsilon=float(eps), value=value, target=target,
                             deviation=abs(value - target)))
    return rows
