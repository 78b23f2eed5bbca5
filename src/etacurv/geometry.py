"""Geometry of a graph u over R^n and the linearized operator data.

A state is the pair (p, r) = (Du, D^2 u) at one point.  With
w = sqrt(1 + |p|^2) the graph's curvature matrix (symmetric, eigenvalues =
principal curvatures kappa) is

    A = (1/w) * gamma_up . r . gamma_up,
    gamma_up[i,k]  = delta_ik - c p_i p_k,   c = 1 / (w (1 + w)),

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

batch_geometry works entry by entry on rows, the layout Grid.ops() @ u
produces: a symmetric n x n matrix is held as its n(n+1)/2 upper-triangle
entries in slot order (grid._hessian_slots: i <= j, row-major) and a vector
as its n entries, each entry one row over every state of the stack.  The
conjugation by gamma_up comes in closed form, with q = X p,

    gamma_up . X . gamma_up = X - c (p q^T + q p^T) + c^2 (p . q) p p^T,

symmetric by construction, for X = r (A) and X = F (G2).  Every step but
the eigenvalues for n >= 4 is an elementwise product or a sum over rows:
the solve makes no BLAS call in this layer and builds no (N, n, n) array.
The (..., n, n) matrices A, gamma_up, F and G2 that checks and tests read
are built from the rows when asked for.

The principal curvatures come in closed form for n = 2 and 3, fed the rows
directly.  For n = 3 the trigonometric formula gives only the isolated
eigenvalue of A's traceless part, which stays well conditioned where the
other two meet (the cap's triple root); those are deflated, by the 2x2
form on the plane across its eigenvector.  Both agree with LAPACK's
eigvalsh to 1e-14 * max |A_ij| (measured 2.2e-15 over the 32,909 curvature
matrices of a 3D cap solve at h = 1/24); n >= 4 calls eigvalsh.  A
curvature matrix with a NaN or inf entry gives a NaN margin in every n, so
the state fails the cone test.

No step calls a numpy loop whose last bits depend on the CPU's SIMD
features: the n = 3 formula's cosine is a Newton root of a cubic, not
cos(arccos(.)), and the powers of sigma_1 are np.float_power, the C
library's pow.  So the geometry of a state is the same with and without
numpy's AVX-512 loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones
from .grid import slot_index, symmetric


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


def _rows(x):
    """The view of x (..., k) as rows (k, ...)."""
    return x.transpose((x.ndim - 1,) + tuple(range(x.ndim - 1)))


def _columns(x):
    """The view of rows x (k, ...) as (..., k), the inverse of _rows."""
    return x.transpose(tuple(range(1, x.ndim)) + (0,))


def _matrices(rows):
    """(..., n, n) symmetric matrices of upper-triangle rows, or None."""
    return None if rows is None else symmetric(_columns(rows))


@dataclass
class BatchGeometry:
    """Geometry of a stack of states of leading shape (...).  Rows that
    fail cone_test hold meaningless K_eta and coefficients: callers mask
    them.

    p, a, f, g2 and gs are rows (see the module docstring): the gradient,
    the upper triangles of A, F and G2, and Gs.  f, g2 and gs are None
    until add_coefficients fills them in.  kappa is (..., n), ascending.
    The properties gamma_up, A, F, G2 (..., n, n), Gs and f_i (..., n)
    are built from the rows when read (None before add_coefficients).
    """

    p: np.ndarray
    w: np.ndarray
    a: np.ndarray
    kappa: np.ndarray
    sigma_1: np.ndarray
    K_eta: np.ndarray
    margin: np.ndarray
    f: np.ndarray | None = None
    g2: np.ndarray | None = None
    gs: np.ndarray | None = None

    @property
    def gamma_up(self):
        return gamma_factors(_columns(self.p))[1]

    @property
    def A(self):
        return _matrices(self.a)

    @property
    def F(self):
        return _matrices(self.f)

    @property
    def G2(self):
        return _matrices(self.g2)

    @property
    def Gs(self):
        return None if self.gs is None else _columns(self.gs)

    @property
    def f_i(self):
        """dK_eta/dkappa_i (..., n), F's eigenvalues: the polynomial F is of
        A, taken at kappa."""
        if self.f is None:
            return None
        n = self.kappa.shape[-1]
        s = self.sigma_1[..., None]
        f_i = s ** (n - 1) - self.kappa ** (n - 1)
        for k, d in _horner(self.kappa, self.sigma_1):
            f_i = f_i + d[..., None] * (s ** k - self.kappa ** k)
        return f_i

    @property
    def cone_scale(self):
        """1 + |sigma_1(kappa)|: the curvature scale that cone margins are
        held against, so one tolerance serves flat and curved states."""
        return 1.0 + np.abs(self.sigma_1)

    def cone_test(self, floor):
        """(passed, worst), the cone test of every check: whether margin >=
        floor * cone_scale at every node (a NaN margin fails), and worst()
        = (node, raw margin) at the worst node, argmin margin / cone_scale,
        found only when called."""
        scale = self.cone_scale

        def worst():
            node = int(np.argmin(self.margin / scale))
            return node, float(self.margin[node])
        return bool(np.all(self.margin >= floor * scale)), worst


def gamma_factors(p):
    """w and gamma_up for gradients p (batched over leading axes)."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    w = np.sqrt(1.0 + np.sum(p * p, axis=-1))
    outer = p[..., :, None] * p[..., None, :]
    gamma_up = np.eye(n) - outer / (w * (1.0 + w))[..., None, None]
    return w, gamma_up


def _dot(a, b):
    """Row of a . b for vectors given by rows."""
    return np.einsum("i...,i...->...", a, b)


def _matvec(X, v):
    """Rows of X v for a symmetric X given by its rows and a vector v."""
    return np.einsum("ij...,j...->i...", X[slot_index(len(v))[2]], v)


def _conjugate(X, p, c, w):
    """Rows of gamma_up . X . gamma_up / w for symmetric X given by its rows
    and gradient rows p, in the closed form of the module docstring,
    written as (X - (c p z^T + z c p^T)) / w with z = q - (c/2)(p . q) p."""
    i, j, _ = slot_index(len(p))
    q = _matvec(X, p)
    z = q - (0.5 * c * _dot(p, q)) * p
    cp = c * p
    return (X - (cp[i] * z[j] + z[i] * cp[j])) / w


def _eigenvalues(S, n):
    """Ascending eigenvalue rows (n, ...) of symmetric n x n matrices given
    by their upper-triangle rows S (n(n+1)/2, ...).

    n = 2 uses the closed form kappa = m -+ hypot((a - c)/2, b) with
    m = (a + c)/2, n = 3 the deflated closed form of _eigenvalues3, and
    n >= 4 LAPACK's eigvalsh.  A NaN entry gives NaN eigenvalues in every
    n, and so does an inf for n >= 3 (for n = 2 at least sigma_1 is NaN),
    so such a state fails every margin test: eigvalsh alone would raise
    LinAlgError, or return finite values for one NaN on the diagonal.
    """
    if n == 2:
        a, b, c = S
        m = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        return np.stack([m - rad, m + rad])
    if n == 3:
        with np.errstate(invalid="ignore"):
            return _eigenvalues3(S)
    A = _matrices(S)
    bad = ~np.isfinite(A).all(axis=(-2, -1))
    kappa = np.linalg.eigvalsh(np.where(bad[..., None, None], 0.0, A))
    kappa[bad] = np.nan
    return _rows(kappa)


_TINY = np.finfo(float).tiny


def _eigenvalues3(S):
    """Ascending eigenvalue rows (3, ...) of symmetric 3x3 matrices given by
    their upper-triangle rows S (6, ...).

    On the traceless part D = A - (tr A/3) I, the trigonometric closed
    form (O. K. Smith, CACM 4, 1961) gives only the isolated eigenvalue
    lam = +-2 p cos(arccos(r)/3): the largest when det D >= 0, else the
    smallest.  Its cosine is taken as the root of 4t^3 - 3t = r that it
    is, by Newton steps of arithmetic alone, so the routine calls only
    sqrt, frexp, ldexp and copysign: no transcendental function, whose
    last bits would depend on which SIMD loop numpy dispatches.  lam's gap
    to the other two is at least half the spread of the three, so it
    stays well conditioned where they coincide, which is where the
    formula's own values for them lose accuracy (up to 7.9e-9 * max
    |kappa| on the curvature matrices of a 3D cap solve, near the triple
    root).  They are deflated instead:
    adj(D - lam I) = (mu_1 - lam)(mu_2 - lam) v v^T, its columns being the
    cross products of rows of D - lam I, gives lam's eigenprojector v v^T,
    and D restricted to the plane across v has eigenvalues m -+ rad with
    m = (tr D - lam)/2 and rad = |D - m I - (lam - m) v v^T|_F / sqrt(2),
    the 2x2 hypot form written without a basis of the plane.

    A and D are each scaled by a power of two, exactly, to a largest
    |entry| in [1/2, 1), so no finite A overflows or underflows.  A NaN or
    inf entry gives three NaN eigenvalues.
    """
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
    # t = cos(arccos(r)/3), the largest root of g(t) = 4t^3 - 3t - r, lies in
    # [sqrt(3)/2, 1], where g' >= 6 and g'' > 0: Newton from t = 1 falls to
    # it monotonically, in exact arithmetic within 1e-23 after 5 steps at
    # r = 0, its slowest; the last two leave it to rounding
    t = np.ones_like(r)
    for _ in range(7):
        t -= (t * (4.0 * t * t - 3.0) - r) / (12.0 * t * t - 3.0)
    lam = np.copysign(2.0 * p * t, det)

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
    return np.ldexp(q0 + (q1 + np.ldexp(mu, e1)), e0)


def batch_geometry(p, r, coeffs=True):
    """Geometry of stacks of states of one leading shape (...): gradients
    p (..., n) and Hessians r, as symmetric matrices (..., n, n) or as their
    upper-triangle entries (..., n(n+1)/2) in slot order.  A matrix is read
    as 0.5 (r + r^T), what its quadratic form sees."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    n = p.shape[-1]
    if r.shape[-1] == n:  # n(n+1)/2 > n: a matrix
        i, j, _ = slot_index(n)
        r = 0.5 * (r[..., i, j] + r[..., j, i])
    p, r = _rows(p), _rows(r)
    # a state that overflows (a stored u of 1e300, say) gets inf and NaN
    # curvatures, which fail every margin test: that is its report, and
    # numpy's floating-point warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.sqrt(1.0 + _dot(p, p))
        A = _conjugate(r, p, 1.0 / (w * (1.0 + w)), w)
        kappa = _eigenvalues(A, n)
        s = sum(kappa[1:], kappa[0])
        lam = s - kappa
        geom = BatchGeometry(p=p, w=w, a=A, kappa=_columns(kappa),
                             sigma_1=s, K_eta=lam.prod(axis=0),
                             margin=lam.min(axis=0))
    if coeffs:
        add_coefficients(geom)
    return geom


def _horner(kappa, s):
    """[(k, d_k)] for k = n-3 down to 1, the terms of F = sum_k d_k (s^k I
    - A^k) past d_{n-1} = 1 and d_{n-2} = 0 (see add_coefficients)."""
    n = kappa.shape[-1]
    terms = []
    if n >= 4:
        e = cones.sigma_all(kappa)
        d = np.zeros_like(s)
        for k in range(n - 3, 0, -1):
            d = (-1.0) ** (n - k - 1) * e[..., n - k - 1] + s * d
            terms.append((k, d))
    return terms


def add_coefficients(geom):
    """Fill in the rows f, g2 and gs (F, G2 and Gs) of a plain
    BatchGeometry.

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
    F = s I - A and n = 3 gives F = s^2 I - A^2.  The powers of A are
    products of commuting symmetric matrices, so their upper rows suffice.
    """
    p, w, A, s = geom.p, geom.w, geom.a, geom.sigma_1
    n = len(p)
    i, j, slot = slot_index(n)
    diag = np.diagonal(slot)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [A]
        for _ in range(n - 2):
            powers.append(np.einsum("kl...,kl...->k...",
                                    powers[-1][slot[i]], A[slot[j]]))

        def term(k):
            t = -powers[k - 1]
            t[diag] += np.float_power(s, k)
            return t
        F = term(n - 1)
        for k, d in _horner(geom.kappa, s):
            F += d * term(k)
        c = 1.0 / (w * (1.0 + w))
        G2 = _conjugate(F, p, c, w)

        # gradient-slot coefficients (exact dK_eta/dp at fixed r; checked
        # against central differences on random states):
        #   Gs = -(p/w^2) sum_i f_i kappa_i - (2/w) gamma_up . F . A . p,
        # F . A being symmetric because F is a polynomial in A, and
        # sum_i f_i kappa_i = n K_eta, as K_eta is homogeneous of degree n
        y = _matvec(F, _matvec(A, p))
        Gs = (-(n * geom.K_eta / (w * w)) * p
              - (2.0 / w) * (y - (c * _dot(p, y)) * p))

    geom.f, geom.g2, geom.gs = F, G2, Gs
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
