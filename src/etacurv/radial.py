"""Radial reference solver on balls: ODE reduction plus shooting.

For u = U(|x|) the graph curvatures collapse to

    kappa_r = U'' / (1 + U'^2)^{3/2},        multiplicity 1,
    kappa_t = U' / (r sqrt(1 + U'^2)),       multiplicity n - 1,

and the curvature product factorizes,

    f = (n-1) kappa_t * (kappa_r + (n-2) kappa_t)^{n-1},

so the prescribed-curvature relation f = psi inverts in closed form for
kappa_r.  psi must read position only (x1-xn, r): it is evaluated once
per integration, in one batched call on the x1 axis, and U' then never
sees U, so shooting needs no search.  Classical fourth-order steps from
the center give the rise U(r0) - U(0), and the center value is minus the
rise; a second integration at 2 `steps` gives the Richardson estimate.
`shoot` refuses a psi that reads z, nu or w; the acceptance tests'
quadric graphs check such psi in closed form.  This module is the
independent accuracy oracle for the grid solver, so it shares no
discretization machinery with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expr import EvalEnv, beyond_position, evaluate


class BracketFailure(Exception):
    """No center value in [-10 r0, 0] gives u(r0) = 0: the rise
    u(r0) - u(0) is negative or above 10 r0."""

    def __init__(self, msg, endpoints):
        super().__init__(f"{msg}; bracket endpoint residuals {endpoints}")
        self.endpoints = endpoints


class NegativePsi(ValueError):
    """psi evaluated negative along the integration."""


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
        raise NegativePsi(f"psi must be nonnegative, got {psi_value:g}")
    if eps == 0.0:
        return psi_value
    return (psi_value ** (1.0 / (n - 1)) + eps) ** (n - 1)


#: |u''| above this, or a non-finite u'', ends an RK4 stage as stiff
STIFF = 1e12


def _slope(v, r, up, n, eps, limit=STIFF):
    """u'' at radius r and slope up, where psi takes the value v.

    v is regularized by eps, and the curvature relation is inverted for
    kappa_r in closed form.  |u''| > limit is a StiffnessFailure; limit
    None records u'' unchecked.
    """
    # regularize_value, inlined: this runs at every RK4 stage
    if v < 0.0:
        raise NegativePsi(f"psi must be nonnegative, got {v:g}")
    if eps != 0.0:
        v = (v ** (1.0 / (n - 1)) + eps) ** (n - 1)
    if r <= 0.0:
        # center limit: all curvatures equal upp, f = ((n-1) upp)^n
        upp = v ** (1.0 / n) / (n - 1)
    else:
        wt = math.sqrt(1.0 + up * up)
        kt = up / (r * wt)
        if kt <= 0.0:
            if v > 0.0:
                raise DegenerateTangential(
                    f"kappa_t = {kt:g} at r = {r:g} but psi = {v:g} > 0")
            upp = 0.0
        else:
            kr = (v / ((n - 1) * kt)) ** (1.0 / (n - 1)) - (n - 2) * kt
            try:
                upp = kr * wt ** 3
            except OverflowError:  # numpy's ** gives inf here, reported stiff
                upp = kr * math.inf
    if limit is not None and not abs(upp) <= limit:
        raise StiffnessFailure(f"u'' = {upp:g} at r = {r:g}")
    return upp


def _position_table(psi, n, dr, rows):
    """psi at k dr, k dr + dr/2 and k dr + dr in row k < rows, the abscissae
    of RK4 step k formed as `_integrate` forms them, from one batched
    evaluate.  Row 0 also holds the series start's 0 and dr, row 1 its 2 dr.
    A domain error anywhere in the batch is raised here.
    """
    rk = np.arange(rows) * dr
    x = np.zeros((rows, 3, n))
    x[..., 0] = np.stack([rk, rk + 0.5 * dr, rk + dr], axis=1)
    return evaluate(psi, EvalEnv.from_gradient(x, 0.0, np.zeros_like(x))).tolist()


def _series_start(table, n, dr, eps):
    """u'(dr) and the offset u(dr) - u(0), bridging the r = 0 singularity.

    Non-degenerate center (psi_eps(0) > 0): quadratic series from
    upp(0) = psi^{1/n}/(n-1).  Degenerate center: local power-law
    u = a + c r^m fitted to psi ~ K r^q near 0.  A flat psi gives the
    offset -0.0, so that u(dr) = a + offset is a itself, signed zero too.
    """
    p0 = regularize_value(table[0][0], eps, n)
    if p0 > 0.0:
        upp0 = p0 ** (1.0 / n) / (n - 1)
        return upp0 * dr, 0.5 * upp0 * dr * dr
    p1 = regularize_value(table[0][2], eps, n)
    p2 = regularize_value(table[1][2], eps, n)
    if p1 <= 0.0:
        return 0.0, -0.0  # psi flat at zero: profile starts flat
    q = np.log(p2 / p1) / np.log(2.0)
    K = p1 / dr ** q
    m = 2.0 + q / n
    c = (K / ((n - 1) * (m + n - 3) ** (n - 1))) ** (1.0 / n) / m
    return float(c * m * dr ** (m - 1)), float(c * dr ** m)


class _Shot(NamedTuple):
    """One RK4 pass from u(0) = a: u(r0), the position table it read, u' at
    every node, and the u increment of every step, the series start's
    offset first."""

    end: float
    table: list
    up: list
    du: list


def _integrate(psi, a, r0, n, steps, eps):
    """Fixed-step RK4 for (u, u') from the center at u(0) = a.

    u' never sees u, so the pass serves every center value: u there is the
    running sum of the same increments.
    """
    dr = r0 / steps
    half = 0.5 * dr
    table = _position_table(psi, n, dr, max(steps, 2))
    up, offset = _series_start(table, n, dr, eps)
    u = a + offset
    ups, dus = [0.0, up], [offset]
    for k in range(1, steps):
        v0, vh, v1 = table[k]
        r = k * dr
        p1 = _slope(v0, r, up, n, eps)
        up2 = up + half * p1
        p2 = _slope(vh, r + half, up2, n, eps)
        up3 = up + half * p2
        p3 = _slope(vh, r + half, up3, n, eps)
        up4 = up + dr * p3
        p4 = _slope(v1, r + dr, up4, n, eps)
        du = (dr / 6.0) * (up + 2.0 * up2 + 2.0 * up3 + up4)
        u, up = u + du, up + (dr / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        if not (math.isfinite(u) and math.isfinite(up)):
            raise StiffnessFailure(f"state diverged near r = {r + dr:g}")
        ups.append(up)
        dus.append(du)
    return _Shot(u, table, ups, dus)


def _profile(a, shot, r0, n, eps):
    """The profile of `shot` moved to u(0) = a, with u'' recorded at every
    node in the state reached there (unchecked for stiffness)."""
    steps = len(shot.du)
    dr = r0 / steps
    rs = [0.0] + [k * dr + dr for k in range(steps)]
    us = list(itertools.accumulate(shot.du, initial=a))
    upps = [_slope(shot.table[0][0], 0.0, 0.0, n, eps, None)]
    for j in range(1, steps + 1):
        upps.append(_slope(shot.table[j - 1][2], rs[j], shot.up[j], n, eps,
                           None))
    return np.array(rs), np.array(us), np.array(shot.up), np.array(upps)


def shoot(psi, r0, n, steps=4096, eps=0.0):
    """Solve the radial Dirichlet problem for a psi of position only.

    The equation for u' never sees u, so u(r0; a) = a + rise with a fixed
    rise: one integration from a = 0 determines the shot, and its
    increments summed from a = -rise are the profile.  One more
    integration, at 2 steps, gives the Richardson estimate.  ValueError
    when psi reads z, nu or w.
    """
    if r0 <= 0.0 or steps < 1:
        raise ValueError("need r0 > 0 and steps >= 1")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps:g}")
    beyond = beyond_position(psi)
    if beyond:
        raise ValueError("the radial oracle needs a psi of position only "
                         f"(x1-xn, r); psi reads {', '.join(beyond)}")
    shot = _integrate(psi, 0.0, r0, n, steps, eps)
    a, deepest = -shot.end, -10.0 * r0
    if a < deepest or a > 0.0:
        raise BracketFailure("u(r0) does not change sign",
                             (deepest + shot.end, shot.end))
    rs, us, ups, upps = _profile(a, shot, r0, n, eps)
    fine = _integrate(psi, a, r0, n, 2 * steps, eps).end
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
