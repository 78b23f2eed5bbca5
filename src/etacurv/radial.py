"""Radial reference solver on balls: ODE reduction plus shooting.

For u = U(|x|) the graph curvatures collapse to

    kappa_r = U'' / (1 + U'^2)^{3/2},        multiplicity 1,
    kappa_t = U' / (r sqrt(1 + U'^2)),       multiplicity n - 1,

and the curvature product factorizes,

    f = (n-1) kappa_t * (kappa_r + (n-2) kappa_t)^{n-1},

so the prescribed-curvature relation f = psi inverts in closed form for
kappa_r.  Shooting integrates U'' with classical fourth-order steps from
the center and bisects the center value until U(r0) vanishes.  This module
is the independent accuracy oracle for the grid solver, so it shares no
discretization machinery with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import POSITION, DomainError, EvalEnv, evaluate, variables


class BracketFailure(Exception):
    """No sign change of u(r0) over the center-value bracket."""

    def __init__(self, msg, endpoints):
        super().__init__(f"{msg}; bracket endpoint residuals {endpoints}")
        self.endpoints = endpoints


class StiffnessFailure(Exception):
    """Integration blew up (non-finite state or runaway second derivative)."""


class DegenerateTangential(Exception):
    """kappa_t <= 0 met positive psi: no admissible second derivative exists."""


@dataclass
class RadialProfile:
    """Shot solution sampled at uniform radii including both endpoints."""

    r: np.ndarray
    u: np.ndarray
    up: np.ndarray
    upp: np.ndarray
    n: int
    boundary_residual: float
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


def regularize_value(psi_value, eps, n):
    """(psi^{1/(n-1)} + eps)^{n-1}; identity at eps = 0."""
    if psi_value < 0.0:
        raise ValueError(f"psi must be nonnegative, got {psi_value:g}")
    if eps == 0.0:
        return psi_value
    return (psi_value ** (1.0 / (n - 1)) + eps) ** (n - 1)


def _psi_at(psi, r, u, up, n):
    """psi evaluated on the x1 axis with the radial normal."""
    x = np.zeros(n)
    x[0] = r
    p = np.zeros(n)
    p[0] = up
    return float(evaluate(psi, EvalEnv.from_gradient(x, u, p)))


def _invert(val, r, up, n):
    """u'' from the regularized psi value val at radius r and slope up."""
    if r <= 0.0:
        # center limit: all curvatures equal upp, f = ((n-1) upp)^n
        return val ** (1.0 / n) / (n - 1)
    wt = math.sqrt(1.0 + up * up)
    kt = up / (r * wt)
    if kt <= 0.0:
        if val > 0.0:
            raise DegenerateTangential(
                f"kappa_t = {kt:g} at r = {r:g} but psi = {val:g} > 0")
        return 0.0
    kr = (val / ((n - 1) * kt)) ** (1.0 / (n - 1)) - (n - 2) * kt
    try:
        return kr * wt ** 3
    except OverflowError:  # numpy's ** gives inf here, which callers report
        return kr * math.inf


def radial_rhs(r, u, up, psi, n, eps=0.0):
    """u'' from the reduced curvature relation at radius r."""
    return _invert(regularize_value(_psi_at(psi, r, u, up, n), eps, n), r, up, n)


def _position_table(psi, n, dr, rows):
    """psi at k dr, k dr + dr/2 and k dr + dr in row k < rows, the abscissae
    of RK4 step k formed as `_integrate` forms them, from one batched
    evaluate.  Row 0 also holds the series start's 0 and dr, row 1 its 2 dr.

    None when psi reads z, nu or w, or when the batch meets a domain error:
    evaluating per stage then raises it, or an earlier failure, where the
    integration first reaches it.
    """
    if not variables(psi) <= POSITION:
        return None
    rk = np.arange(rows) * dr
    x = np.zeros((rows, 3, n))
    x[..., 0] = np.stack([rk, rk + 0.5 * dr, rk + dr], axis=1)
    try:
        return evaluate(psi, EvalEnv.from_gradient(x, 0.0, np.zeros_like(x))).tolist()
    except DomainError:
        return None


def _series_start(psi_eps, a, n, dr):
    """State (u, u') at the first node, bridging the r = 0 singularity.

    Non-degenerate center (psi_eps(0) > 0): quadratic series from
    upp(0) = psi^{1/n}/(n-1).  Degenerate center: local power-law
    u = a + c r^m fitted to psi ~ K r^q near 0.
    """
    p0 = psi_eps(0, 0, 0.0, a, 0.0)
    if p0 > 0.0:
        upp0 = p0 ** (1.0 / n) / (n - 1)
        return a + 0.5 * upp0 * dr * dr, upp0 * dr
    p1 = psi_eps(0, 2, dr, a, 0.0)
    p2 = psi_eps(1, 2, 2.0 * dr, a, 0.0)
    if p1 <= 0.0:
        return a, 0.0  # psi flat at zero: profile starts flat
    q = np.log(p2 / p1) / np.log(2.0)
    K = p1 / dr ** q
    m = 2.0 + q / n
    c = (K / ((n - 1) * (m + n - 3) ** (n - 1))) ** (1.0 / n) / m
    return float(a + c * dr ** m), float(c * m * dr ** (m - 1))


def _integrate(psi, a, r0, n, steps, eps, record=False):
    """Fixed-step RK4 for (u, u') from the center; returns u(r0) or arrays.

    psi comes from `_position_table` when it has one, else from one
    evaluate per stage; either way it is regularized in integration order.
    """
    dr = r0 / steps
    half = 0.5 * dr
    table = _position_table(psi, n, dr, max(steps, 2))

    def psi_eps(k, s, r, u, up):
        """Regularized psi at abscissa s of table row k, which is radius r."""
        v = _psi_at(psi, r, u, up, n) if table is None else table[k][s]
        return regularize_value(v, eps, n)

    def rhs(k, s, r, u, up):
        upp = _invert(psi_eps(k, s, r, u, up), r, up, n)
        if not math.isfinite(upp) or abs(upp) > 1e12:
            raise StiffnessFailure(f"u'' = {upp:g} at r = {r:g}")
        return upp

    u, up = _series_start(psi_eps, a, n, dr)
    if record:
        rs, us, ups = [0.0, dr], [a, u], [0.0, up]
        upps = [_invert(psi_eps(0, 0, 0.0, a, 0.0), 0.0, 0.0, n),
                _invert(psi_eps(0, 2, dr, u, up), dr, up, n)]

    for k in range(1, steps):
        r = k * dr
        p1 = rhs(k, 0, r, u, up)
        u2, up2 = u + half * up, up + half * p1
        p2 = rhs(k, 1, r + half, u2, up2)
        u3, up3 = u + half * up2, up + half * p2
        p3 = rhs(k, 1, r + half, u3, up3)
        u4, up4 = u + dr * up3, up + dr * p3
        p4 = rhs(k, 2, r + dr, u4, up4)
        u, up = (u + (dr / 6.0) * (up + 2.0 * up2 + 2.0 * up3 + up4),
                 up + (dr / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4))
        if not (math.isfinite(u) and math.isfinite(up)):
            raise StiffnessFailure(f"state diverged near r = {r + dr:g}")
        if record:
            rs.append(r + dr)
            us.append(u)
            ups.append(up)
            upps.append(_invert(psi_eps(k, 2, r + dr, u, up), r + dr, up, n))
    if record:
        return (np.array(rs), np.array(us), np.array(ups), np.array(upps))
    return u


def shoot(psi, r0, n, tol=1e-10, steps=4096, eps=0.0, max_bisect=200):
    """Solve the radial Dirichlet problem by searching the center value
    a = u(0) in [-10 r0, 0] until |u(r0)| <= tol.

    When psi does not read z the equation for u' never sees u, so
    u(r0; a) = a + rise with a fixed rise: one integration determines the
    shot.  Otherwise u(r0; a) is monotone in a for psi_z >= 0 (deeper caps
    see no larger psi) and a bracketed secant/bisection search runs on it.
    """
    if r0 <= 0.0 or tol <= 0.0 or steps < 1:
        raise ValueError("need r0 > 0, tol > 0 and steps >= 1")
    lo, hi = -10.0 * r0, 0.0

    if "z" not in variables(psi):
        rise = _integrate(psi, 0.0, r0, n, steps, eps)
        a = -rise
        if a < lo or a > hi:
            raise BracketFailure("u(r0) does not change sign",
                                 (lo + rise, rise))
    else:
        f_lo = _integrate(psi, lo, r0, n, steps, eps)
        f_hi = _integrate(psi, hi, r0, n, steps, eps)
        if f_lo > 0.0 or f_hi < 0.0:
            raise BracketFailure("u(r0) does not change sign", (f_lo, f_hi))
        a, fa = hi, f_hi
        for _ in range(max_bisect):
            if abs(fa) <= tol:
                break
            # secant proposal, clipped into the bracket; bisection fallback
            prop = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else None
            mid = 0.5 * (lo + hi)
            a = prop if prop is not None and lo < prop < hi else mid
            fa = _integrate(psi, a, r0, n, steps, eps)
            if fa < 0.0:
                lo, f_lo = a, fa
            else:
                hi, f_hi = a, fa
        else:
            raise BracketFailure(f"no center value met |u(r0)| <= {tol:g}",
                                 (f_lo, f_hi))
    rs, us, ups, upps = _integrate(psi, a, r0, n, steps, eps, record=True)
    fine = _integrate(psi, a, r0, n, 2 * steps, eps)
    richardson = abs(fine - us[-1]) / 15.0  # classical 4th-order extrapolation
    return RadialProfile(r=rs, u=us, up=ups, upp=upps, n=n,
                         boundary_residual=float(abs(us[-1])),
                         richardson_error=float(richardson))


def dump_profile(profile, header_extra=()):
    lines = [
        f"# radial profile n={profile.n} samples={len(profile.r)}",
        f"# center u(0)={profile.center_value:.17g}",
        f"# boundary residual={profile.boundary_residual:.17g}",
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
