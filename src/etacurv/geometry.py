"""Geometry of a graph u over R^n and the linearized operator data.

A state is the pair (p, r) = (Du, D^2 u) at one point.  With
w = sqrt(1 + |p|^2) the graph's curvature matrix (symmetric, eigenvalues =
principal curvatures kappa) is

    A = (1/w) * gamma_up . r . gamma_up,
    gamma_up[i,k]  = delta_ik - p_i p_k / (w (1 + w)),

gamma_up being the inverse matrix square root of the induced metric
g = I + p p^T.  The prescribed quantity is
K_eta = f(kappa) = prod_i (sigma_1(kappa) - kappa_i).

The solver linearizes K_eta^{1/n} in u; the pieces it needs are

    F   = dK_eta/dA    (a polynomial in A: sigma_1 I - A for n = 2,
                        sigma_1^2 I - A^2 for n = 3),
    G2  = dK_eta/dr    = (1/w) gamma_up . F . gamma_up   (Hessian-slot coefficients),
    Gs  = explicit dK_eta/dp at frozen A-entries           (gradient-slot coefficients),

all computed by batch_geometry over stacks of states; the point-wise
routines below are independent oracles for it.

The principal curvatures come in closed form for n = 2 and 3.  For n = 3
the trigonometric formula gives only the isolated eigenvalue of A's
traceless part, which stays well conditioned where the other two meet (the
cap's triple root); those are deflated, by the 2x2 form on the plane across
its eigenvector.  Both agree with LAPACK's eigvalsh to 1e-14 * max |A_ij|
(measured 1.7e-15 over the 41,022 curvature matrices of a 3D cap solve at
h = 1/24); n >= 4 calls eigvalsh.  A curvature matrix with a NaN or inf
entry gives a NaN margin in every n, so the state fails the cone test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import cones


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
class BatchGeometry:
    """Geometry of a stack of states (leading axis N).

    f-dependent arrays are computed unconditionally; rows with margin <= 0
    (outside the cone) contain meaningless values there and must be masked
    by the caller.  This is what lets a Newton line search probe trial
    states cheaply.
    """

    w: np.ndarray
    gamma_up: np.ndarray
    A: np.ndarray
    kappa: np.ndarray
    K_eta: np.ndarray
    margin: np.ndarray
    f_i: np.ndarray | None = None
    F: np.ndarray | None = None
    G2: np.ndarray | None = None
    Gs: np.ndarray | None = None

    @property
    def cone_scale(self):
        """1 + |sigma_1(kappa)|: the curvature scale that cone margins are
        held against, so one tolerance serves flat and curved states."""
        return 1.0 + np.abs(self.kappa.sum(axis=-1))


def gamma_factors(p):
    """w and gamma_up for gradients p (batched over leading axes)."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    w = np.sqrt(1.0 + np.sum(p * p, axis=-1))
    outer = p[..., :, None] * p[..., None, :]
    gamma_up = np.eye(n) - outer / (w * (1.0 + w))[..., None, None]
    return w, gamma_up


def _eigenvalues(A):
    """Ascending eigenvalues of symmetric matrices A (..., n, n), read from
    the upper triangle for n = 2 and 3.

    n = 2 uses the closed form kappa = m -+ hypot((a - c)/2, b) with
    m = (a + c)/2, n = 3 the deflated closed form of _eigenvalues3, and
    n >= 4 LAPACK's eigvalsh.  A NaN entry gives NaN eigenvalues in every
    n, and so does an inf for n >= 3 (for n = 2 at least sigma_1 is NaN),
    so such a state fails every margin test: eigvalsh alone would raise
    LinAlgError, or return finite values for one NaN on the diagonal.
    """
    n = A.shape[-1]
    if n == 2:
        a, b, c = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
        m = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        return np.stack([m - rad, m + rad], axis=-1)
    if n == 3:
        with np.errstate(invalid="ignore"):
            return _eigenvalues3(A)
    bad = ~np.isfinite(A).all(axis=(-2, -1))
    if not bad.any():
        return np.linalg.eigvalsh(A)
    kappa = np.linalg.eigvalsh(np.where(bad[..., None, None], 0.0, A))
    kappa[bad] = np.nan
    return kappa


_UPPER3 = (np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2]))
_TINY = np.finfo(float).tiny


def _eigenvalues3(A):
    """Ascending eigenvalues of symmetric 3x3 matrices A (..., 3, 3).

    On the traceless part D = A - (tr A/3) I, the trigonometric closed
    form (O. K. Smith, CACM 4, 1961) gives only the isolated eigenvalue
    lam: the largest when det D >= 0, else the smallest.  Its gap to the
    other two is at least half the spread of the three, so it stays well
    conditioned where they coincide, which is where the formula's own
    values for them lose accuracy (up to 7.9e-9 * max |kappa| on the
    curvature matrices of a 3D cap solve, near the triple root).  They are deflated instead:
    adj(D - lam I) = (mu_1 - lam)(mu_2 - lam) v v^T, its columns being the
    cross products of rows of D - lam I, gives lam's eigenprojector v v^T,
    and D restricted to the plane across v has eigenvalues m -+ rad with
    m = (tr D - lam)/2 and rad = |D - m I - (lam - m) v v^T|_F / sqrt(2),
    the 2x2 hypot form written without a basis of the plane.

    A and D are each scaled by a power of two, exactly, to a largest
    |entry| in [1/2, 1), so no finite A overflows or underflows.  A NaN or
    inf entry gives three NaN eigenvalues.
    """
    S = np.ascontiguousarray(np.moveaxis(A[..., _UPPER3[0], _UPPER3[1]], -1, 0))
    e0 = np.frexp(np.abs(S).max(axis=0))[1]
    S = np.ldexp(S, -e0)
    # twice: where D is as small as the rounding of tr A/3, one pass
    # leaves a trace comparable to D itself
    q0 = (S[0] + S[3] + S[5]) / 3.0
    S[[0, 3, 5]] -= q0
    q1 = (S[0] + S[3] + S[5]) / 3.0
    S[[0, 3, 5]] -= q1
    e1 = np.frexp(np.abs(S).max(axis=0))[1]
    a, b, c, d, e, f = np.ldexp(S, -e1)

    # D != 0 has p >= 0.2 after scaling; D = 0 keeps r finite and lam = 0
    p = np.sqrt((a * a + d * d + f * f + 2.0 * (b * b + c * c + e * e)) / 6.0)
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    pc = np.maximum(p, 0.1)
    r = np.minimum(np.abs(det) / (2.0 * pc * pc * pc), 1.0)
    lam = np.copysign(2.0 * p * np.cos(np.arccos(r) / 3.0), det)

    # the trace of adj(D - lam I) is >= gap^2 >= 1/16 and normalizes it to
    # v v^T (D = 0 keeps the tiny floor); E has eigenvalues -+ rad and 0
    am, dm, fm = a - lam, d - lam, f - lam
    c00, c11, c22 = dm * fm - e * e, am * fm - c * c, am * dm - b * b
    c01, c02, c12 = c * e - b * fm, b * e - c * dm, b * c - am * e
    m = 0.5 * (a + d + f - lam)
    w = (lam - m) / np.maximum(c00 + c11 + c22, _TINY)
    e00, e11, e22 = a - m - w * c00, d - m - w * c11, f - m - w * c22
    e01, e02, e12 = b - w * c01, c - w * c02, e - w * c12
    rad = np.sqrt(0.5 * (e00 * e00 + e11 * e11 + e22 * e22)
                  + e01 * e01 + e02 * e02 + e12 * e12)

    # lam lies beyond the pair, below it where lam < 0
    mu = np.array([np.minimum(lam, m - rad), m + np.copysign(rad, lam),
                   np.maximum(lam, m + rad)])
    kappa = np.ldexp(q0 + (q1 + np.ldexp(mu, e1)), e0)
    return np.ascontiguousarray(np.moveaxis(kappa, 0, -1))


def batch_geometry(p, r, coeffs=True):
    """Vectorized geometry for stacks of states p (..., n), r (..., n, n)."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    w, gu = gamma_factors(p)
    A = gu @ r @ gu / w[..., None, None]
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    kappa = _eigenvalues(A)
    lam = kappa.sum(axis=-1, keepdims=True) - kappa
    margin = lam.min(axis=-1)
    K_eta = np.prod(lam, axis=-1)

    geom = BatchGeometry(
        w=w, gamma_up=gu, A=A, kappa=kappa,
        K_eta=K_eta, margin=margin,
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


def spectral_grad(A, fgrad, eigvecs):
    """Matrix derivative F = B diag(fgrad) B^T from eigenvector columns B.

    fgrad holds df/dkappa_i in the same (ascending) order as the
    eigenvalues that produced eigvecs.
    """
    B = np.asarray(eigvecs, dtype=float)
    fg = np.asarray(fgrad, dtype=float)
    return np.einsum("...is,...s,...js->...ij", B, fg, B)


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
