"""Radial reference solver on balls: the ODE reduction by its first integral.

For u = U(|x|) the graph curvatures collapse to

    kappa_r = U'' / (1 + U'^2)^{3/2},        multiplicity 1,
    kappa_t = U' / (r sqrt(1 + U'^2)),       multiplicity n - 1,

and the curvature product factorizes,

    f = (n-1) kappa_t * (kappa_r + (n-2) kappa_t)^{n-1}.

With s = U'/sqrt(1 + U'^2) = r kappa_t and q = r^{n-2} s, the second
factor is r^{2-n} q', so f = psi reads q^{1/(n-1)} q' = r^{n-1}
(psi/(n-1))^{1/(n-1)}, and from q(0) = 0

    q^{n/(n-1)} = n/(n-1) * int_0^r t^{n-1} (psi/(n-1))^{1/(n-1)} dt.

psi stands for psi_eps, with psi_eps^{1/(n-1)} = psi^{1/(n-1)} + eps.  So
U' is a quadrature of psi and U = -int_r^{r0} U' a second one, both
composite Simpson: there is nothing to step or shoot, and the formula
holds where u is C^{1,1} and not C^2, such as the edge of a flat core
where psi vanishes around the center, the regularity that is sharp for
degenerate data (Guan, Trudinger & Wang, Acta Math. 182, 1999).  u''
comes from the closed-form inversion of the curvature relation for
kappa_r.  psi must read position only (x1-xn, r): it is evaluated once,
in one batched call on the x1 axis, and `shoot` refuses a psi that reads
z, nu or w; the acceptance tests' quadric graphs check such psi in
closed form.  This module is the independent accuracy oracle for the
grid solver, so it shares no discretization machinery with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import EvalEnv, beyond_position, evaluate


class BracketFailure(Exception):
    """No center value in [-10 r0, 0] gives u(r0) = 0: the rise
    u(r0) - u(0) is negative or above 10 r0."""

    def __init__(self, msg, endpoints):
        super().__init__(f"{msg}; bracket endpoint residuals {endpoints}")
        self.endpoints = endpoints


class NegativePsi(ValueError):
    """psi evaluated negative on the x1 axis."""


class StiffnessFailure(Exception):
    """The graph turns vertical before r0, or a value is non-finite."""


@dataclass
class RadialProfile:
    """Radial solution sampled at uniform radii including both endpoints."""

    r: np.ndarray
    u: np.ndarray
    up: np.ndarray
    upp: np.ndarray
    n: int
    richardson_error: float | None = None

    @property
    def center_value(self):
        return float(self.u[0])

    def value(self, rq):
        """Linear interpolation; sampling is dense enough that the
        interpolation error is negligible next to solver tolerances."""
        return np.interp(np.abs(rq), self.r, self.u)

    def curvatures(self):
        """(kappa_r, kappa_t) per sample, as `radial_curvatures` gives them."""
        r, up, upp = self.r, self.up, self.upp
        kr, kt = upp.copy(), upp.copy()  # u'(0) = 0 limit at r = 0
        out = r > 0.0
        wt = np.sqrt(1.0 + up[out] * up[out])
        # float_power rounds as the scalar ** in radial_curvatures does; ** on
        # an array may take a SIMD pow that differs in the last bit
        kr[out] = upp[out] / np.float_power(wt, 3)
        kt[out] = up[out] / (r[out] * wt)
        return kr, kt


def radial_curvatures(r, up, upp, n):
    """Principal curvature vector (kappa_r, kappa_t * (n-1 times))."""
    if r > 0.0:
        wt = np.sqrt(1.0 + up * up)
        kr = upp / wt ** 3
        kt = up / (r * wt)
    else:
        kr = kt = upp  # u'(0) = 0 limit
    out = np.full(n, kt)
    out[0] = kr
    return out


def _sine(r, p, n):
    """s = u'/sqrt(1 + u'^2) at every 2nd of the 4m + 1 uniform radii r,
    from p = psi_eps^{1/(n-1)} at all of them: the first integral, its
    integral by composite Simpson from the center.  StiffnessFailure where
    s is not below 1, the graph vertical or a value non-finite."""
    with np.errstate(over="ignore"):  # an overflow to inf is vertical
        f = r ** (n - 1) * p
        cells = (r[1] / 3.0) * (f[:-2:2] + 4.0 * f[1::2] + f[2::2])
        integral = np.concatenate(([0.0], np.cumsum(cells)))
        q = (n / (n - 1) ** (n / (n - 1)) * integral) ** ((n - 1) / n)
    rs = r[::2]
    s = np.divide(q, rs ** (n - 2), out=np.zeros_like(q), where=rs > 0.0)
    bad = np.flatnonzero(~(s < 1.0))
    if bad.size:
        k = bad[0]
        raise StiffnessFailure(
            f"the graph turns vertical before r0: u'/sqrt(1 + u'^2) = "
            f"{s[k]:g} at r = {rs[k]:g}")
    return s


def _slope(s):
    """u' from s = u'/sqrt(1 + u'^2) < 1."""
    return s / np.sqrt((1.0 - s) * (1.0 + s))


def _rise(s, r):
    """u - u(0) at every 2nd of the radii r where s is given, by composite
    Simpson on u'."""
    up = _slope(s)
    cells = (r[1] / 3.0) * (up[:-2:2] + 4.0 * up[1::2] + up[2::2])
    return np.concatenate(([0.0], np.cumsum(cells)))


def _second_derivative(r, s, p, n):
    """u'' where s = u'/sqrt(1 + u'^2) and p = psi_eps^{1/(n-1)}: the
    curvature relation inverted for kappa_r, (n-1) kappa_t (kappa_r +
    (n-2) kappa_t)^{n-1} = psi_eps with kappa_t = s/r.  At r = 0 every
    curvature equals u'', so ((n-1) u'')^n = psi_eps; where s and p both
    vanish (a flat core) u'' is 0, and where only s does it is inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(p > 0.0, p * (r / ((n - 1) * s)) ** (1.0 / (n - 1)), 0.0)
        kr = np.where(r > 0.0, eta - (n - 2) * s / r,
                      p ** ((n - 1) / n) / (n - 1))
    return kr / ((1.0 - s) * (1.0 + s)) ** 1.5


def shoot(psi, r0, n, steps=4096, eps=0.0):
    """Solve the radial Dirichlet problem for a psi of position only.

    psi is sampled once at spacing r0 / (8 steps).  The profile takes u'
    at spacing r0 / (2 steps) from every 2nd sample and u at the steps + 1
    nodes; all samples give the rise at 2 steps, and the two rises the
    Richardson estimate of Simpson's 4th order.  NegativePsi names the
    first negative sample by radius; ValueError when psi reads z, nu or w.
    """
    if r0 <= 0.0 or steps < 1:
        raise ValueError("need r0 > 0 and steps >= 1")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps:g}")
    beyond = beyond_position(psi)
    if beyond:
        raise ValueError("the radial oracle needs a psi of position only "
                         f"(x1-xn, r); psi reads {', '.join(beyond)}")
    m = 8 * steps
    r = r0 * (np.arange(m + 1) / m)  # every 2nd radius is the coarse one's
    x = np.zeros((m + 1, n))
    x[:, 0] = r
    v = evaluate(psi, EvalEnv.from_gradient(x, 0.0, np.zeros_like(x)))
    neg = np.flatnonzero(v < 0.0)
    if neg.size:
        raise NegativePsi(f"psi must be nonnegative, got {v[neg[0]]:g}")
    p = v ** (1.0 / (n - 1)) + eps
    fine = _rise(_sine(r, p, n), r[::2])[-1]
    s = _sine(r[::2], p[::2], n)
    rise = _rise(s, r[::4])
    a, deepest = -rise[-1], -10.0 * r0
    if a < deepest or a > 0.0:
        raise BracketFailure("u(r0) does not change sign",
                             (deepest + rise[-1], rise[-1]))
    rn, sn = r[::8], s[::2]
    upp = _second_derivative(rn, sn, p[::8], n)
    bad = np.flatnonzero(~np.isfinite(upp))
    if bad.size:
        k = bad[0]
        raise StiffnessFailure(f"u'' = {upp[k]:g} at r = {rn[k]:g}")
    u = a + rise
    return RadialProfile(r=rn, u=u, up=_slope(sn), upp=upp, n=n,
                         richardson_error=float(abs(fine - rise[-1]) / 15.0))


def dump_profile(profile, header_extra=()):
    lines = [
        f"# radial profile n={profile.n} samples={len(profile.r)}",
        f"# center u(0)={profile.center_value:.17g}",
    ]
    if profile.richardson_error is not None:
        lines.append(f"# richardson step-halving estimate={profile.richardson_error:.17g}")
    lines.extend(f"# {extra}" for extra in header_extra)
    lines.append("# r u up upp kappa_r kappa_t")
    rows = np.column_stack((profile.r, profile.u, profile.up, profile.upp,
                            *profile.curvatures()))
    fmt = " ".join(["%.17g"] * rows.shape[1])
    lines.extend(fmt % tuple(row) for row in rows.tolist())
    return "\n".join(lines) + "\n"
