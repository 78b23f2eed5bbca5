"""Elementary symmetric polynomials, Garding cones, and the curvature product f.

For a vector kappa in R^n, define the complementary sums

    lambda_i = sum_{j != i} kappa_j = sigma_1(kappa) - kappa_i

and the curvature function

    f(kappa) = lambda_1 * lambda_2 * ... * lambda_n.

f is the quantity prescribed by the solver: for a graph with principal
curvatures kappa it equals det(g^{-1} eta) where eta = H g - h.  Its natural
domain is the open convex cone

    Gamma = { kappa : lambda_i > 0 for every i },

on which f > 0, all partial derivatives f_i are positive, f^{1/n} is concave,
and f vanishes on the boundary.  Gamma sits between the Garding cones:
Gamma_2 contains Gamma contains Gamma_n (the positive orthant).

The Maclaurin and interpolation constants on Gamma_k (maclaurin_c0,
interp_c0) are sharp closed forms, valid for every n >= 2: each is the
ratio of its inequality at kappa = (1, ..., 1).

All functions accept plain sequences or numpy arrays; batched inputs stack
vectors along leading axes.
"""

from __future__ import annotations

import math

import numpy as np


class NotAdmissible(ValueError):
    """A grid state's curvature vector lies outside the admissible cone."""

    def __init__(self, msg, margin=None, node=None):
        super().__init__(msg)
        self.margin = margin
        self.node = node


def sigma_all(kappa):
    """All elementary symmetric polynomials sigma_0..sigma_n of kappa.

    Expanding-product recurrence: multiplies out prod_i (1 + kappa_i t) one
    factor at a time, so integer inputs give exact integer outputs up to
    float rounding.  Batched over leading axes; returns shape (..., n+1).
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    e = np.zeros(kappa.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        e[..., 1 : i + 2] = e[..., 1 : i + 2] + kappa[..., i : i + 1] * e[..., 0 : i + 1]
    return e


def sigma(kappa, k):
    """sigma_k(kappa); k = 0 gives 1, k = n the full product."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    out = sigma_all(kappa)[..., k]
    return float(out) if out.ndim == 0 else out


def sigma_reduced(kappa, k, i):
    """sigma_k of kappa with entry i deleted (0-based index)."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if not 0 <= i < n:
        raise ValueError(f"entry index must lie in 0..{n - 1}, got {i}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in 0..{n - 1}, got {k}")
    return sigma(np.delete(kappa, i, axis=-1), k)


def in_gamma_k(kappa, k):
    """Membership in the Garding cone Gamma_k: sigma_1..sigma_k all positive."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    s = sigma_all(kappa)
    ok = np.all(s[..., 1 : k + 1] > 0.0, axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def lambda_of(kappa):
    """Complementary sums lambda_i = sigma_1(kappa) - kappa_i."""
    kappa = np.asarray(kappa, dtype=float)
    return kappa.sum(axis=-1, keepdims=True) - kappa


def complementary_products(lam):
    """P_m = prod_{l != m} lam_l via prefix/suffix products (no division).

    Stable at zero entries of lam; batched over leading axes.
    """
    lam = np.asarray(lam, dtype=float)
    pref = np.ones_like(lam)
    suff = np.ones_like(lam)
    pref[..., 1:] = np.cumprod(lam[..., :-1], axis=-1)
    suff[..., :-1] = np.cumprod(lam[..., :0:-1], axis=-1)[..., ::-1]
    return pref * suff


def f_value(kappa):
    """f(kappa) = prod_i lambda_i, evaluated anywhere (negative or zero off
    the cone)."""
    out = np.prod(lambda_of(kappa), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def f_grad(kappa):
    """Partial derivatives f_i = d f / d kappa_i = sum_m P_m - P_i.

    Positive on the open cone; the same algebra is evaluated anywhere.
    """
    P = complementary_products(lambda_of(kappa))
    return P.sum(axis=-1, keepdims=True) - P


def f_normalized(kappa):
    """f^{1/n}, clamped to 0 off the cone (degree-1 homogeneous)."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    return np.maximum(f_value(kappa), 0.0) ** (1.0 / n)


def maclaurin_c0(n, k):
    """Sharp constant in sigma_1 >= c0 sigma_k^{1/k} on Gamma_k: n / binom(n,k)^{1/k}."""
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return n * math.comb(n, k) ** (-1.0 / k)


def interp_c0(n, k):
    """Sharp constant in sigma_{k-1} >= c0 sigma_k^{1-1/(k-1)} sigma_1^{1/(k-1)} on Gamma_k.

    c0 = binom(n,k-1) / (binom(n,k)^{(k-2)/(k-1)} n^{1/(k-1)}).  Proof, with
    S_j = sigma_j / binom(n, j) (Hardy, Littlewood & Polya, Inequalities,
    2.22; Lin & Trudinger, Bull. Austral. Math. Soc. 50 (1994)):
      Newton's S_j^2 >= S_{j-1} S_{j+1} makes S_j / S_{j-1} non-increasing
      for j <= k on Gamma_k, where S_1..S_k > 0;
      so S_{k-1} / S_1 >= (S_k / S_{k-1})^{k-2}, i.e. S_{k-1}^{k-1} >= S_1 S_k^{k-2};
      equality holds at kappa = (1, ..., 1).
    """
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in 2..{n}, got {k}")
    return math.comb(n, k - 1) / (
        math.comb(n, k) ** ((k - 2) / (k - 1)) * n ** (1.0 / (k - 1)))


def delta0(n):
    """Share constant: kappa_j < 0 inside Gamma forces f_j >= delta0 * sum_i f_i.

    delta0 = 1/(n(n-1)) is a safe bound, not the sharp one: over 10^6 cone
    samples with a negative entry, the smallest share f_j / sum_i f_i at a
    kappa_j < 0 was 0.4000, 0.2727, 0.2106 and 0.1725 for n = 3, 4, 5, 6.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return 1.0 / (n * (n - 1))


def sample_gamma(rng, size, n, lam_range=(0.05, 3.0)):
    """Draw kappa vectors exactly in Gamma by sampling lambda > 0 and inverting.

    kappa_i = sigma_1(lambda)/(n-1) - lambda_i maps any positive lambda back
    to a cone point.
    """
    lam = rng.uniform(lam_range[0], lam_range[1], size=(size, n))
    return lam.sum(axis=-1, keepdims=True) / (n - 1) - lam


def sample_gamma_k(rng, size, n, k, box=(-1.0, 3.0), max_tries=200):
    """Rejection-sample kappa in the Garding cone Gamma_k from a box."""
    out = np.empty((0, n))
    for _ in range(max_tries):
        cand = rng.uniform(box[0], box[1], size=(4 * size, n))
        s = sigma_all(cand)
        keep = np.all(s[:, 1 : k + 1] > 0.0, axis=-1)
        out = np.concatenate([out, cand[keep]])
        if out.shape[0] >= size:
            return out[:size]
    raise RuntimeError(f"rejection sampling for Gamma_{k} in R^{n} stalled")
