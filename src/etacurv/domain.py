"""Convex computational domains: balls, ellipses, ellipsoids.

Each shape is the sublevel set of the implicit function
phi(x) = sum_i (x_i / a_i)^2 - 1 (phi < 0 inside).  phi is quadratic
along every line, so the grid's boundary crossings along the axes come in
closed form (DomainShape.axis_distance).  Boundary curvature analysis
works through the level-set shape operator P H P / |grad phi| restricted
to the tangent plane, so the same code covers every shape kind; the
classical conic formulas appear only in the tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import in_gamma_k


#: the semiaxes a DomainShape accepts: within this range (x / a)^2 and the
#: boundary curvatures ~ 1/a stay normal floats, so boundary points computed
#: by boundary_point lie on the boundary to roundoff
SEMIAXIS_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class DomainShape:
    """Centered convex domain in R^n given by n >= 2 semiaxes; kind is
    derived.

    ball:      all semiaxes equal (any n)
    ellipse:   two distinct semiaxes (n = 2)
    ellipsoid: three or more semiaxes, not all equal (n >= 3)
    """

    semiaxes: tuple

    def __post_init__(self):
        axes = tuple(float(a) for a in self.semiaxes)
        if len(axes) < 2:
            raise ValueError(f"a domain needs n >= 2 semiaxes, got {len(axes)}")
        if not all(0.0 < a < np.inf for a in axes):
            raise ValueError(f"semiaxes must be finite and > 0, got {axes}")
        lo, hi = SEMIAXIS_RANGE
        if not all(lo <= a <= hi for a in axes):
            raise ValueError(f"semiaxes must lie in [{lo:g}, {hi:g}], got {axes}")
        object.__setattr__(self, "semiaxes", axes)

    @property
    def n(self):
        return len(self.semiaxes)

    @property
    def kind(self):
        axes = self.semiaxes
        if all(a == axes[0] for a in axes):
            return "ball"
        return "ellipse" if len(axes) == 2 else "ellipsoid"

    @property
    def r0(self):
        if self.kind != "ball":
            raise ValueError("r0 is defined only for balls")
        return self.semiaxes[0]

    def implicit(self, x):
        """phi(x) = sum (x_i/a_i)^2 - 1; negative inside, zero on the boundary."""
        x = np.asarray(x, dtype=float)
        a = np.asarray(self.semiaxes)
        return np.sum((x / a) ** 2, axis=-1) - 1.0

    def implicit_gradient(self, x):
        x = np.asarray(x, dtype=float)
        a = np.asarray(self.semiaxes)
        return 2.0 * x / a ** 2

    def implicit_hessian(self):
        a = np.asarray(self.semiaxes)
        return np.diag(2.0 / a ** 2)

    def axis_distance(self, x, axis, sign):
        """Distance t > 0 from interior points x (..., n) to the boundary
        along sign * e_axis, axis and sign broadcasting over x's leading
        axes: the positive root a sqrt(R) - sign x_axis of phi's quadratic
        along the line, R = 1 - sum over the other axes of (x_i / a_i)^2,
        as -a^2 phi(x) / (a sqrt(R) + |x_axis|) where it would cancel."""
        x = np.asarray(x, dtype=float)
        on = np.arange(self.n) == np.asarray(axis)[..., None]
        rest = 1.0 - np.sum(np.where(on, 0.0, (x / self.semiaxes) ** 2), axis=-1)
        xs, a = np.sum(on * x, axis=-1), np.sum(on * self.semiaxes, axis=-1)
        far = a * np.sqrt(rest) + np.abs(xs)
        return np.where(sign * xs > 0.0, -a ** 2 * self.implicit(x) / far, far)

    def boundary_point(self, direction):
        """Radial projection: the unique t > 0 with t*direction on the boundary."""
        d = np.asarray(direction, dtype=float)
        s = np.sum((d / np.asarray(self.semiaxes)) ** 2, axis=-1)
        if np.any(s <= 0.0):
            raise ValueError("direction must be nonzero")
        return d / np.sqrt(s)[..., None]

    def sample_interior(self, rng, m):
        """m points uniform in the open interior (linear image of the unit ball)."""
        n = self.n
        v = rng.normal(size=(m, n))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        rad = rng.uniform(0.0, 1.0, m) ** (1.0 / n)
        return v * rad[:, None] * np.asarray(self.semiaxes)


def sample_boundary(shape, rng, m):
    v = rng.normal(size=(m, shape.n))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return shape.boundary_point(v)


def boundary_curvatures(shape, point):
    """Principal curvatures of the boundary at boundary points, inward-positive.

    Eigenvalues of the level-set shape operator: with P the projector onto the
    tangent plane of phi = 0, the operator is P . Hess(phi) . P / |grad phi|,
    diagonalized in an orthonormal tangent basis.  Batched over leading axes:
    points (..., n) give curvatures (..., n-1).  The tangent basis at a unit
    normal nu is columns 2..n of its Householder reflector
    H = I - v v^T / (1 + s nu_1), v = nu + s e_1, s = sign(nu_1) (1 where
    nu_1 = 0), whose first column is -s nu (Golub & Van Loan, Matrix
    Computations, sec. 5.1.2); s keeps 1 + s nu_1 >= 1 from cancelling.
    """
    x = np.asarray(point, dtype=float)
    phi = shape.implicit(x)
    if np.any(np.abs(phi) > 1e-8):
        worst = float(np.ravel(phi)[np.argmax(np.abs(phi))])
        raise ValueError(f"point is not on the boundary (implicit value {worst:g})")
    g = shape.implicit_gradient(x)
    gn = np.linalg.norm(g, axis=-1)
    nhat = g / gn[..., None]
    s = np.where(nhat[..., :1] < 0.0, -1.0, 1.0)
    v = np.concatenate([nhat[..., :1] + s, nhat[..., 1:]], axis=-1)
    w = v[..., 1:] / (1.0 + s * nhat[..., :1])
    # orthonormal tangent columns: H's without its first
    T = np.eye(shape.n)[:, 1:] - v[..., :, None] * w[..., None, :]
    W = np.swapaxes(T, -1, -2) @ shape.implicit_hessian() @ T / gn[..., None, None]
    return np.linalg.eigvalsh(W)


_K_GRID = 2.0 ** np.arange(21)


def check_two_convex(shape, samples=2048):
    """Smallest K on the grid {1, 2, 4, ..., 2^20} such that every sampled
    boundary point has (kappa^b, K) in Gamma_2: the existence theorem's
    condition on the boundary principal curvatures kappa^b (arXiv
    2202.05003; the cone condition of Caffarelli, Nirenberg & Spruck, Acta
    Math. 155, 1985).  For K > 0 it holds wherever all kappa^b > 0, so every
    ellipsoid passes at K = 1; in 2D it is exactly kappa^b > 0.  The points
    are drawn by sample_boundary at a fixed seed.  Returns (ok, K); K = 0
    when not ok."""
    pts = sample_boundary(shape, np.random.default_rng(0), samples)
    kb = boundary_curvatures(shape, pts)
    for K in _K_GRID:
        aug = np.concatenate([kb, np.full((kb.shape[0], 1), K)], axis=1)
        if bool(np.all(in_gamma_k(aug, 2))):
            return True, float(K)
    return False, 0.0
