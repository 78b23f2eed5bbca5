"""Radial reduction and the shooting reference solver."""

import math

import numpy as np
import pytest

from etacurv import radial
from etacurv.expr import POSITION, DomainError, EvalEnv, evaluate, parse, variables
from etacurv.geometry import batch_geometry
from etacurv.radial import (
    BracketFailure,
    DegenerateTangential,
    NegativePsi,
    RadialProfile,
    StiffnessFailure,
    dump_profile,
    radial_curvatures,
    shoot,
)

EXACT_CAP = np.sqrt(0.75) - 1.0  # unit-sphere cap center value over r0 = 0.5


def test_radial_curvatures_sphere():
    # u = -sqrt(1 - r^2): up = r/sqrt(1-r^2), upp = (1-r^2)^{-3/2}; kappa = 1
    for r in (0.1, 0.3, 0.45):
        up = r / np.sqrt(1 - r * r)
        upp = (1 - r * r) ** -1.5
        np.testing.assert_allclose(radial_curvatures(r, up, upp, 3), 1.0, rtol=1e-13)


def test_radial_curvatures_center_limit():
    np.testing.assert_allclose(radial_curvatures(0.0, 0.0, 2.0, 4), 2.0)


def test_radial_curvatures_match_graph_geometry():
    # on the x1 axis a radial function has Hessian diag(upp, up/r, ...)
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        r = rng.uniform(0.05, 1.0)
        up = rng.uniform(0.01, 2.0)
        upp = rng.uniform(-1.0, 3.0)
        p = np.zeros(n)
        p[0] = up
        hess = np.eye(n) * (up / r)
        hess[0, 0] = upp
        kappa_graph = np.sort(
            batch_geometry(p[None], hess[None], coeffs=False).kappa[0])
        kappa_rad = np.sort(radial_curvatures(r, up, upp, n))
        np.testing.assert_allclose(kappa_rad, kappa_graph, atol=1e-10)


def slope(r, u, up, text, n):
    """u'' from psi evaluated at the state, as at an RK4 stage without a table."""
    return radial._slope(parse(text), None, 0, r, u, up, n, 0.0)


def test_slope_sphere_cap_closed_form():
    for r in (0.05, 0.2, 0.4):
        u = -np.sqrt(1 - r * r) + np.sqrt(0.75)
        up = r / np.sqrt(1 - r * r)
        upp = (1 - r * r) ** -1.5
        assert slope(r, u, up, "1", 2) == pytest.approx(upp, rel=1e-12)
    for r in (0.1, 0.3):
        up = r / np.sqrt(1 - r * r)
        upp = (1 - r * r) ** -1.5
        assert slope(r, 0.0, up, "8", 3) == pytest.approx(upp, rel=1e-12)


def test_slope_center_and_degenerate():
    # center: ((n-1) upp)^n = psi
    assert slope(0.0, -0.1, 0.0, "8", 3) == pytest.approx(1.0, rel=1e-14)
    assert slope(0.0, -0.1, 0.0, "r^2", 2) == 0.0
    with pytest.raises(DegenerateTangential):
        slope(0.3, 0.0, -0.1, "1", 2)
    assert slope(0.3, 0.0, -0.1, "0", 2) == 0.0


def test_shoot_unit_cap_n2():
    prof = shoot(parse("1"), 0.5, 2, tol=1e-10, steps=1024)
    assert abs(prof.center_value - EXACT_CAP) <= 1e-8
    assert prof.boundary_residual <= 1e-10
    cap = -np.sqrt(1.0 - prof.r ** 2) + 1.0 + prof.center_value
    assert np.abs(prof.u - cap).max() <= 1e-9
    assert prof.up[0] == 0.0


def test_shoot_unit_cap_n3():
    prof = shoot(parse("8"), 0.5, 3, tol=1e-10, steps=1024)
    assert abs(prof.center_value - EXACT_CAP) <= 1e-8
    kr, kt = prof.curvatures()
    assert np.abs(kr - 1.0).max() <= 1e-6
    assert np.abs(kt[1:] - 1.0).max() <= 1e-6


def test_shoot_degenerate_regression_fixture():
    # frozen from a steps = r0/8192 run (richardson estimate 1.4e-15)
    prof = shoot(parse("r^2"), 0.5, 2, tol=1e-10, steps=2048)
    assert abs(prof.center_value - (-0.029663078022451)) <= 5e-12
    assert prof.richardson_error <= 1e-9
    # admissibility along the profile: both curvature families nonnegative
    kr, kt = prof.curvatures()
    assert kr.min() >= 0.0 and kt.min() >= 0.0


def test_shoot_self_convergence():
    # step halving moves u(0) by no more than 16x the coarse richardson bound
    coarse = shoot(parse("r^2"), 0.5, 2, tol=1e-10, steps=512)
    fine = shoot(parse("r^2"), 0.5, 2, tol=1e-10, steps=1024)
    assert abs(coarse.center_value - fine.center_value) <= 16.0 * coarse.richardson_error


def test_shoot_regularized_center():
    # eps > 0 removes the degenerate center; profile starts strictly convex
    prof = shoot(parse("r^2"), 0.5, 2, tol=1e-10, steps=1024, eps=1e-2)
    assert prof.upp[0] > 0.0
    assert prof.center_value < -0.029663078022451  # more curvature, deeper cap


def test_shoot_z_dependent():
    prof = shoot(parse("exp(z)"), 0.5, 2, tol=1e-9, steps=512)
    assert prof.boundary_residual <= 1e-9
    assert EXACT_CAP * 1.5 < prof.center_value < 0.0  # shallower than psi = 1


@pytest.mark.parametrize("text, center, grid_min", [
    ("1 + z", -0.126574, -0.126536),
    ("1 - z", -0.141985, -0.141953),
])
def test_shoot_bracket_grows_from_shallow_end(text, center, grid_min):
    # a center of -10 r0 meets psi < 0 (1 + z) or a stiff profile (1 - z):
    # the bracket grows from the shallow end and treats such centers as deep
    prof = shoot(parse(text), 0.5, 2, steps=256)
    assert prof.boundary_residual <= 1e-10
    assert prof.center_value == pytest.approx(center, abs=1e-6)
    # grid_min: the minimum of the grid solve at h = 1/32
    assert abs(prof.center_value - grid_min) <= 1e-4


def test_shoot_failures():
    with pytest.raises(StiffnessFailure):
        shoot(parse("1000000"), 0.5, 2, steps=256)
    with pytest.raises(BracketFailure):
        shoot(parse("exp(z)"), 0.5, 2, tol=1e-14, steps=64, max_bisect=2)
    with pytest.raises(ValueError):
        shoot(parse("1"), -0.5, 2)


def test_shoot_overflowing_slope_is_stiff():
    # u'(dr) ~ 1e148: (1 + u'^2)^{3/2} overflows to inf, as in numpy arithmetic
    with pytest.raises(StiffnessFailure, match="u'' = inf"):
        shoot(parse("1e300"), 0.5, 2, steps=256)


def assert_same_profile(p, q):
    for name in ("r", "u", "up", "upp"):
        np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
    assert p.boundary_residual == q.boundary_residual
    assert p.richardson_error == q.richardson_error


@pytest.mark.parametrize("text, reads_more, n, eps", [
    ("r^2", "r^2 + 0*nu1", 2, 1e-5),
    ("exp(-x1) + r^3", "exp(-x1) + r^3 + 0*w", 3, 1e-3),
])
def test_position_table_matches_per_stage_psi(text, reads_more, n, eps):
    # the second psi reads nu or w, so it is evaluated at every RK4 stage
    tabulated = shoot(parse(text), 0.5, n, steps=512, eps=eps)
    per_stage = shoot(parse(reads_more), 0.5, n, steps=512, eps=eps)
    assert_same_profile(tabulated, per_stage)


def count_evaluate_calls(monkeypatch, psi, steps):
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    real = radial.evaluate
    with monkeypatch.context() as m:
        m.setattr(radial, "evaluate", spy)
        shoot(parse(psi), 0.5, 2, tol=1e-9, steps=steps)
    return len(calls)


def test_position_only_psi_evaluates_once_per_integration(monkeypatch):
    coarse = count_evaluate_calls(monkeypatch, "exp(-x1) + r^2", 256)
    fine = count_evaluate_calls(monkeypatch, "exp(-x1) + r^2", 1024)
    assert coarse == fine == 2  # the profile's pass and the step-halved one
    # psi reading nu is evaluated at every stage, but the profile is summed
    # from the rise's increments: 3 at the series start and 4 x 255 stages,
    # u'' at the 257 nodes, then 3 + 4 x 511 at half the step
    assert count_evaluate_calls(monkeypatch, "r^2 + 0*nu1", 256) == 3327
    # psi reading z: the accepted shot is the profile, so one integration
    # (1 + 4 x 255 evaluations) fewer than the 9,449 of integrating it again
    assert count_evaluate_calls(monkeypatch, "exp(z)", 256) == 9449 - 1021


def test_position_table_keeps_integration_order_errors():
    with pytest.raises(DomainError, match="sqrt of a negative value"):
        shoot(parse("sqrt(0.3 - x1)"), 0.5, 2, steps=256)
    # the first negative value met along the integration is the one reported
    with pytest.raises(ValueError) as info:
        shoot(parse("1 - 4*x1"), 0.5, 2, steps=256)
    assert str(info.value) == "psi must be nonnegative, got -0.00390625"
    # psi turns negative before the integration reaches the sqrt's domain edge
    with pytest.raises(ValueError, match="psi must be nonnegative"):
        shoot(parse("sqrt(0.3 - x1) - 0.5"), 0.5, 2, steps=256)


@pytest.mark.parametrize("text, n", [("1", 2), ("8", 3), ("r^2", 2)])
def test_curvatures_match_pointwise(text, n):
    prof = shoot(parse(text), 0.5, n, steps=256)
    kr, kt = prof.curvatures()
    for i in range(len(prof.r)):
        k = radial_curvatures(prof.r[i], prof.up[i], prof.upp[i], n)
        assert (kr[i], kt[i]) == (k[0], k[-1])


def test_dump_profile_format():
    prof = shoot(parse("1"), 0.5, 2, tol=1e-8, steps=128)
    text = dump_profile(prof, header_extra=["psi = 1"])
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == 129
    assert len(body[0].split()) == 6
    assert any("richardson" in ln for ln in lines)
    assert any("psi = 1" in ln for ln in lines)
    first = body[0].split()
    assert float(first[0]) == 0.0


def test_profile_value_interpolation():
    prof = shoot(parse("1"), 0.5, 2, tol=1e-9, steps=512)
    rq = np.array([0.0, 0.123, 0.5])
    want = -np.sqrt(1.0 - rq ** 2) + 1.0 + prof.center_value
    np.testing.assert_allclose(prof.value(rq), want, atol=1e-6)
    # symmetric in the argument
    assert prof.value(-0.123) == prof.value(0.123)


# The three-integration shooting of the earlier release, kept verbatim (names
# prefixed) as the reference the single-pass `shoot` must reproduce bitwise:
# a rise at `steps`, the recorded profile integrated again from a = -rise,
# and the step-halved rise.

def _ref_regularize_value(psi_value, eps, n):
    """(psi^{1/(n-1)} + eps)^{n-1}; identity at eps = 0."""
    if psi_value < 0.0:
        raise NegativePsi(f"psi must be nonnegative, got {psi_value:g}")
    if eps == 0.0:
        return psi_value
    return (psi_value ** (1.0 / (n - 1)) + eps) ** (n - 1)


def _ref_psi_at(psi, r, u, up, n):
    """psi evaluated on the x1 axis with the radial normal."""
    x = np.zeros(n)
    x[0] = r
    p = np.zeros(n)
    p[0] = up
    return float(evaluate(psi, EvalEnv.from_gradient(x, u, p)))


def _ref_invert(val, r, up, n):
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


def _ref_position_table(psi, n, dr, rows):
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


def _ref_series_start(psi_eps, a, n, dr):
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


def _ref_integrate(psi, a, r0, n, steps, eps, record=False):
    """Fixed-step RK4 for (u, u') from the center; returns u(r0) or arrays.

    psi comes from `_position_table` when it has one, else from one
    evaluate per stage; either way it is regularized in integration order.
    """
    dr = r0 / steps
    half = 0.5 * dr
    table = _ref_position_table(psi, n, dr, max(steps, 2))

    def psi_eps(k, s, r, u, up):
        """Regularized psi at abscissa s of table row k, which is radius r."""
        v = _ref_psi_at(psi, r, u, up, n) if table is None else table[k][s]
        return _ref_regularize_value(v, eps, n)

    def rhs(k, s, r, u, up):
        upp = _ref_invert(psi_eps(k, s, r, u, up), r, up, n)
        if not math.isfinite(upp) or abs(upp) > 1e12:
            raise StiffnessFailure(f"u'' = {upp:g} at r = {r:g}")
        return upp

    u, up = _ref_series_start(psi_eps, a, n, dr)
    if record:
        rs, us, ups = [0.0, dr], [a, u], [0.0, up]
        upps = [_ref_invert(psi_eps(0, 0, 0.0, a, 0.0), 0.0, 0.0, n),
                _ref_invert(psi_eps(0, 2, dr, u, up), dr, up, n)]

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
            upps.append(_ref_invert(psi_eps(k, 2, r + dr, u, up), r + dr, up, n))
    if record:
        return (np.array(rs), np.array(us), np.array(ups), np.array(upps))
    return u


def reference_shoot(psi, r0, n, tol=1e-10, steps=4096, eps=0.0, max_bisect=200):
    """Solve the radial Dirichlet problem by searching the center value
    a = u(0) in [-10 r0, 0] until |u(r0)| <= tol.

    When psi does not read z the equation for u' never sees u, so
    u(r0; a) = a + rise with a fixed rise: one integration determines the
    shot.  Otherwise u(r0; a) is monotone in a for psi_z >= 0 (deeper caps
    see no larger psi) and a bracketed secant/bisection search runs on it.
    Its lower end starts at -r0 and doubles downward while u(r0) > 0 there;
    a trial center below 0 whose integration meets psi < 0 or stiffness is
    too deep, u(r0) = -inf.
    """
    if r0 <= 0.0 or not 0.0 < tol < math.inf or steps < 1:
        raise ValueError("need r0 > 0, finite tol > 0 and steps >= 1")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps:g}")
    deepest = -10.0 * r0

    if "z" not in variables(psi):
        rise = _ref_integrate(psi, 0.0, r0, n, steps, eps)
        a = -rise
        if a < deepest or a > 0.0:
            raise BracketFailure("u(r0) does not change sign",
                                 (deepest + rise, rise))
    else:
        def shot(a):
            try:
                return _ref_integrate(psi, a, r0, n, steps, eps)
            except (NegativePsi, StiffnessFailure):
                return -math.inf

        hi, f_hi = 0.0, _ref_integrate(psi, 0.0, r0, n, steps, eps)
        lo, f_lo = -r0, shot(-r0)
        while f_lo > 0.0 and lo > deepest:
            hi, f_hi = lo, f_lo
            lo = max(2.0 * lo, deepest)
            f_lo = shot(lo)
        if f_lo > 0.0 or f_hi < 0.0:
            raise BracketFailure("u(r0) does not change sign", (f_lo, f_hi))
        a, fa = hi, f_hi
        for _ in range(max_bisect):
            if abs(fa) <= tol:
                break
            # secant proposal, clipped into the bracket; bisection fallback
            # (a too-deep lo proposes hi itself)
            prop = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else None
            mid = 0.5 * (lo + hi)
            a = prop if prop is not None and lo < prop < hi else mid
            fa = shot(a)
            if fa < 0.0:
                lo, f_lo = a, fa
            else:
                hi, f_hi = a, fa
        else:
            raise BracketFailure(f"no center value met |u(r0)| <= {tol:g}",
                                 (f_lo, f_hi))
    rs, us, ups, upps = _ref_integrate(psi, a, r0, n, steps, eps, record=True)
    fine = _ref_integrate(psi, a, r0, n, 2 * steps, eps)
    richardson = abs(fine - us[-1]) / 15.0  # classical 4th-order extrapolation
    return RadialProfile(r=rs, u=us, up=ups, upp=upps, n=n,
                         boundary_residual=float(abs(us[-1])),
                         richardson_error=float(richardson))


def shot_outcome(fn, text, n, eps, steps):
    try:
        return fn(parse(text), 0.5, n, steps=steps, eps=eps)
    except (ValueError, DomainError, StiffnessFailure, DegenerateTangential,
            BracketFailure) as exc:  # the class and message must match too
        return type(exc), str(exc)


# at 12 steps dr = 1/24 is inexact, so k dr + dr, the radius of node k + 1,
# differs from (k + 1) dr at some nodes
@pytest.mark.parametrize("steps", [1, 2, 12, 256])
@pytest.mark.parametrize("text, n, eps", [
    ("1", 2, 0.0),
    ("8", 3, 0.0),
    ("r^2", 2, 1e-5),
    ("exp(-x1) + r^3", 3, 1e-3),
    ("r^2 + 0*nu1", 2, 0.0),
    ("1 + z", 2, 0.0),
    ("(1 + z) * nu3", 2, 0.0),
    ("2 * w", 3, 0.0),
    ("0", 2, 0.0),
    ("max(r^2 - 1/16, 0)", 2, 0.0),
])
def test_shoot_matches_three_pass_reference_bitwise(text, n, eps, steps):
    got = shot_outcome(shoot, text, n, eps, steps)
    want = shot_outcome(reference_shoot, text, n, eps, steps)
    if isinstance(want, tuple):
        assert got == want
        return
    for name in ("r", "u", "up", "upp"):
        # tobytes: the sign of a zero counts
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.boundary_residual.hex() == want.boundary_residual.hex()
    assert got.richardson_error.hex() == want.richardson_error.hex()
    if text == "0":
        # the rise is 0.0, so the center is -0.0 and the flat start keeps it
        assert math.copysign(1.0, got.u[0]) == math.copysign(1.0, got.u[1]) == -1.0
