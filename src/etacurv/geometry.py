"""Pointwise geometry of a graph u over R^n and the linearized operator data.

A point state is the pair (p, r) = (Du, D^2 u) at one point.  With
w = sqrt(1 + |p|^2) the graph has upward unit normal nu = (-p, 1)/w and its
curvature matrix (symmetric, eigenvalues = principal curvatures kappa) is

    A = (1/w) * gamma_up . r . gamma_up,
    gamma_up[i,k]  = delta_ik - p_i p_k / (w (1 + w)),
    gamma_down[i,j] = delta_ij + p_i p_j / (1 + w),

gamma_down being the matrix square root of the induced metric
g = I + p p^T and gamma_up its inverse.  The prescribed quantity is
K_eta = f(kappa) = prod_i (sigma_1(kappa) - kappa_i).

The solver linearizes K_eta^{1/n} in u; the pieces it needs are

    F   = dK_eta/dA    (a polynomial in A: sigma_1 I - A for n = 2,
                        sigma_1^2 I - A^2 for n = 3),
    G2  = dK_eta/dr    = (1/w) gamma_up . F . gamma_up   (Hessian-slot coefficients),
    Gs  = explicit dK_eta/dp at frozen A-entries           (gradient-slot coefficients),

all computed here, batched over leading axes where useful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import cones
from .cones import NotAdmissible


@dataclass
class PointState:
    """Gradient and Hessian of a scalar function at one point."""

    p: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        n = self.p.shape[0]
        if self.r.shape != (n, n):
            raise ValueError(f"Hessian shape {self.r.shape} does not match gradient length {n}")
        scale = max(1.0, float(np.abs(self.r).max()))
        if np.abs(self.r - self.r.T).max() > 1e-14 * scale:
            raise ValueError("Hessian must be symmetric to 1e-14 relative")
        # symmetrize exactly so eigh sees a symmetric matrix
        self.r = 0.5 * (self.r + self.r.T)


@dataclass
class PointGeometry:
    """Geometry of the graph at one point; f-dependent fields are None when
    the state is not admissible (cone margin <= 0)."""

    w: float
    nu: np.ndarray
    gamma_up: np.ndarray
    gamma_down: np.ndarray
    A: np.ndarray
    kappa: np.ndarray
    eigvecs: np.ndarray
    K_eta: float
    margin: float
    admissible: bool
    f_i: np.ndarray | None
    F: np.ndarray | None
    G2: np.ndarray | None
    Gs: np.ndarray | None


@dataclass
class BatchGeometry:
    """Same data as PointGeometry for a stack of states (leading axis N).

    f-dependent arrays are computed unconditionally; rows with
    admissible == False contain meaningless values there and must be masked
    by the caller.  This is what lets a Newton line search probe trial
    states cheaply.
    """

    w: np.ndarray
    nu: np.ndarray
    gamma_up: np.ndarray
    gamma_down: np.ndarray
    A: np.ndarray
    kappa: np.ndarray
    K_eta: np.ndarray
    margin: np.ndarray
    admissible: np.ndarray
    f_i: np.ndarray | None = None
    F: np.ndarray | None = None
    G2: np.ndarray | None = None
    Gs: np.ndarray | None = None


def gamma_factors(p):
    """w, gamma_up, gamma_down for gradients p (batched over leading axes)."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    w = np.sqrt(1.0 + np.sum(p * p, axis=-1))
    outer = p[..., :, None] * p[..., None, :]
    eye = np.eye(n)
    gamma_up = eye - outer / (w * (1.0 + w))[..., None, None]
    gamma_down = eye + outer / (1.0 + w)[..., None, None]
    return w, gamma_up, gamma_down


def _eigenvalues(A):
    """Ascending eigenvalues of symmetric matrices A (..., n, n).

    n = 2 uses the closed form kappa = m -+ hypot((a - c)/2, b) with
    m = (a + c)/2; larger n calls LAPACK, because near the triple root of
    a 3D cap the trigonometric closed form loses ~5e-13, more than the
    line search's 1e-12 margin floor.
    """
    if A.shape[-1] != 2:
        return np.linalg.eigvalsh(A)
    a, b, c = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
    m = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    return np.stack([m - rad, m + rad], axis=-1)


def batch_geometry(p, r, coeffs=True):
    """Vectorized geometry for stacks of states p (..., n), r (..., n, n)."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    w, gu, gd = gamma_factors(p)
    A = gu @ r @ gu / w[..., None, None]
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    kappa = _eigenvalues(A)
    lam = kappa.sum(axis=-1, keepdims=True) - kappa
    margin = lam.min(axis=-1)
    K_eta = np.prod(lam, axis=-1)
    nu = np.concatenate([-p, np.ones(p.shape[:-1] + (1,))], axis=-1) / w[..., None]

    geom = BatchGeometry(
        w=w, nu=nu, gamma_up=gu, gamma_down=gd, A=A, kappa=kappa,
        K_eta=K_eta, margin=margin, admissible=margin > 0.0,
    )
    if coeffs:
        add_coefficients(geom, p)
    return geom


def add_coefficients(geom, p):
    """Fill in f_i, F, G2 and Gs of a plain BatchGeometry of gradients p.

    batch_geometry(p, r) is batch_geometry(p, r, coeffs=False) completed by
    this, so a caller holding the plain geometry of a state pays only for
    the coefficient block.

    K_eta = chi(s) with chi(x) = prod_j (x - kappa_j) = sum_m a_m x^m the
    characteristic polynomial of A and s = sigma_1, so F = dK_eta/dA is a
    polynomial in A and needs no eigenvectors:

        f_i = sum_{k=1}^{n-1} d_k (s^k - kappa_i^k),
        F   = sum_{k=1}^{n-1} d_k (s^k I - A^k),

    d_{n-1} = 1, d_{n-2} = a_{n-1} + s = 0 and d_k = a_{k+1} + s d_{k+1}
    (Horner's rule for (chi(s) - chi(x)) / (s - x)).  So n = 2 gives
    F = s I - A and n = 3 gives F = s^2 I - A^2.
    """
    p = np.asarray(p, dtype=float)
    w, gu, A, kappa = geom.w, geom.gamma_up, geom.A, geom.kappa
    n = kappa.shape[-1]
    e = cones.sigma_all(kappa)
    s = e[..., 1]
    powers = [A]
    for _ in range(n - 2):
        powers.append(powers[-1] @ A)

    def term(k):
        return (s[..., None] ** k - kappa ** k,
                s[..., None, None] ** k * np.eye(n) - powers[k - 1])

    f_i, F = term(n - 1)
    d = np.zeros_like(s)
    for k in range(n - 3, 0, -1):
        d = (-1.0) ** (n - k - 1) * e[..., n - k - 1] + s * d
        fk, Fk = term(k)
        f_i = f_i + d[..., None] * fk
        F = F + d[..., None, None] * Fk
    G2 = gu @ F @ gu / w[..., None, None]

    # gradient-slot coefficients (exact dK_eta/dp at fixed r; checked
    # against central differences on random states):
    #   Gs = -(p/w^2) sum_i f_i kappa_i - (2/w) gamma_up . F . A . p,
    # F . A being symmetric because F is a polynomial in A
    fk = np.sum(f_i * kappa, axis=-1)
    FAp = F @ (A @ p[..., None])
    Gs = (-(p / (w * w)[..., None]) * fk[..., None]
          - (2.0 / w)[..., None] * (gu @ FAp)[..., 0])

    geom.f_i, geom.F, geom.G2, geom.Gs = f_i, F, G2, Gs
    return geom


def geometry_at(state: PointState) -> PointGeometry:
    """Full pointwise geometry.  Never raises on non-admissible states; the
    admissible flag is cleared and f-dependent fields come back None."""
    g = batch_geometry(state.p[None], state.r[None])
    ok = bool(g.admissible[0])
    return PointGeometry(
        w=float(g.w[0]), nu=g.nu[0], gamma_up=g.gamma_up[0], gamma_down=g.gamma_down[0],
        A=g.A[0], kappa=g.kappa[0], eigvecs=np.linalg.eigh(g.A[0])[1],
        K_eta=float(g.K_eta[0]), margin=float(g.margin[0]), admissible=ok,
        f_i=g.f_i[0] if ok else None,
        F=g.F[0] if ok else None,
        G2=g.G2[0] if ok else None,
        Gs=g.Gs[0] if ok else None,
    )


def spectral_grad(A, fgrad, eigvecs):
    """Matrix derivative F = B diag(fgrad) B^T from eigenvector columns B.

    fgrad holds df/dkappa_i in the same (ascending) order as the
    eigenvalues that produced eigvecs.
    """
    B = np.asarray(eigvecs, dtype=float)
    fg = np.asarray(fgrad, dtype=float)
    return np.einsum("...is,...s,...js->...ij", B, fg, B)


def curvature_value(p, r):
    """K_eta = f(kappa(A(p, r))), evaluated regardless of admissibility.

    Convenience for finite-difference oracles.
    """
    g = batch_geometry(np.asarray(p, dtype=float), np.asarray(r, dtype=float), coeffs=False)
    out = g.K_eta
    return float(out) if np.ndim(out) == 0 else out


def G_hessian_coeffs(state: PointState):
    """Derivative of K_eta with respect to the Hessian entries:
    G2 = (1/w) gamma_up . F . gamma_up.  Positive definite on admissible
    states (this is the ellipticity of the linearized operator)."""
    g = batch_geometry(state.p[None], state.r[None])
    if not g.admissible[0]:
        raise NotAdmissible(
            f"state outside the admissible cone (margin {float(g.margin[0]):.3e})",
            margin=float(g.margin[0]),
        )
    return g.G2[0]


def G_gradient_coeffs(state: PointState):
    """Explicit derivative of K_eta with respect to the gradient entries,
    holding the Hessian fixed (the curvature matrix still varies through
    w and gamma_up)."""
    g = batch_geometry(state.p[None], state.r[None])
    if not g.admissible[0]:
        raise NotAdmissible(
            f"state outside the admissible cone (margin {float(g.margin[0]):.3e})",
            margin=float(g.margin[0]),
        )
    return g.Gs[0]


def _proj_sqrt(p):
    """Symmetric square root of I - p p^T / (1 + |p|^2).

    The matrix has eigenvalue 1/w^2 along p and 1 across, so the root is
    I - (1 - 1/w) phat phat^T.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    p2 = float(p @ p)
    if p2 == 0.0:
        return np.eye(n)
    w = np.sqrt(1.0 + p2)
    phat = p / np.sqrt(p2)
    return np.eye(n) - (1.0 - 1.0 / w) * np.outer(phat, phat)


def lambda_rp(r, p):
    """Eigenvalues (ascending) of (I - p p^T/(1+|p|^2)) . r.

    The product is similar to the symmetric matrix S r S with S the root of
    the projector factor, so the spectrum is real; we compute it from the
    symmetric form.
    """
    r = np.asarray(r, dtype=float)
    S = _proj_sqrt(p)
    return np.linalg.eigvalsh(S @ r @ S)


def sk_rp(r, p, k):
    """S_k(r, p) = sigma_k(lambda(r, p))."""
    return cones.sigma(lambda_rp(r, p), k)


def ilt_coefficient(r, p, k, i):
    """Diagonal sensitivity of S_k(r, p): exact d S_k / d r_ii (0-based i).

    S_k is affine in each diagonal entry of r, and the coefficient is
    ((1 + |p^(i)|^2)/(1 + |p|^2)) * S_{k-1}(r^(i), p^(i)) where ^(i) deletes
    row/column i of r and zeroes entry i of p.
    """
    r = np.asarray(r, dtype=float)
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"index must lie in 0..{n - 1}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    p_i = p.copy()
    p_i[i] = 0.0
    r_i = r.copy()
    r_i[i, :] = 0.0
    r_i[:, i] = 0.0
    factor = (1.0 + float(p_i @ p_i)) / (1.0 + float(p @ p))
    # the deleted row/col leaves a zero eigenvalue behind; sigma_{k-1} of the
    # reduced spectrum equals sigma_{k-1} of the full zero-padded one
    lam = lambda_rp(r_i, p_i)
    return factor * cones.sigma(lam, k - 1)


def eta_eigen(state: PointState):
    """Eigenvalues (ascending) of eta = H g - h relative to the metric g.

    Computed along an independent route: the shape operator's spectrum comes
    from the generalized symmetric problem h v = kappa g v with g = I + pp^T
    and h = r/w, then lambda(eta) = H - kappa with H = sum kappa.  Agrees
    with sigma_1(kappa(A)) - kappa(A) from the gamma-factor route.
    """
    p, r = state.p, state.r
    n = p.shape[0]
    w = float(np.sqrt(1.0 + p @ p))
    g = np.eye(n) + np.outer(p, p)
    h = r / w
    kap = scipy.linalg.eigh(h, g, eigvals_only=True)
    lam = kap.sum() - kap
    return np.sort(lam)


def cap_state(x, R):
    """Analytic (p, r) of the lower-sphere profile u = -sqrt(R^2 - |x|^2) + const.

    Every principal curvature equals 1/R, so K_eta = ((n-1)/R)^n.
    """
    x = np.asarray(x, dtype=float)
    s2 = R * R - float(x @ x)
    if s2 <= 0.0:
        raise ValueError("point outside the sphere of radius R")
    s = np.sqrt(s2)
    p = x / s
    r = np.eye(x.shape[0]) / s + np.outer(x, x) / s**3
    return PointState(p=p, r=r)
