"""Radial reduction and the shooting reference solver."""

import math
import warnings

import numpy as np
import pytest

from etacurv import radial
from etacurv.expr import DomainError, EvalEnv, beyond_position, evaluate, parse
from etacurv.geometry import batch_geometry
from etacurv.radial import (
    BracketFailure,
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


def slope(r, up, text, n):
    """u'' at radius r and slope up from psi evaluated there on the x1 axis,
    by the inversion the profile's nodes take."""
    x = np.zeros(n)
    x[0] = r
    env = EvalEnv.from_gradient(x, 0.0, np.zeros(n))
    p = float(evaluate(parse(text), env)) ** (1.0 / (n - 1))
    s = up / math.sqrt(1.0 + up * up)
    return float(radial._second_derivative(*map(np.array, (r, s, p)), n))


def test_slope_sphere_cap_closed_form():
    for r in (0.05, 0.2, 0.4):
        up = r / np.sqrt(1 - r * r)
        upp = (1 - r * r) ** -1.5
        assert slope(r, up, "1", 2) == pytest.approx(upp, rel=1e-12)
    for r in (0.1, 0.3):
        up = r / np.sqrt(1 - r * r)
        upp = (1 - r * r) ** -1.5
        assert slope(r, up, "8", 3) == pytest.approx(upp, rel=1e-12)
        assert slope(r, up, "81", 4) == pytest.approx(upp, rel=1e-12)


def test_slope_center_and_degenerate():
    # center: ((n-1) upp)^n = psi
    assert slope(0.0, 0.0, "8", 3) == pytest.approx(1.0, rel=1e-14)
    assert slope(0.0, 0.0, "r^2", 2) == 0.0
    # a flat core, where psi and u' both vanish, stays flat; where only u'
    # does, u'' is unbounded
    assert slope(0.3, 0.0, "0", 2) == slope(0.3, 0.0, "0", 4) == 0.0
    assert slope(0.3, 0.0, "1", 2) == math.inf


def test_shoot_unit_cap_n2():
    prof = shoot(parse("1"), 0.5, 2, steps=1024)
    assert abs(prof.center_value - EXACT_CAP) <= 1e-8
    cap = -np.sqrt(1.0 - prof.r ** 2) + 1.0 + prof.center_value
    assert np.abs(prof.u - cap).max() <= 1e-9
    assert prof.up[0] == 0.0


def test_shoot_unit_cap_n3():
    prof = shoot(parse("8"), 0.5, 3, steps=1024)
    assert abs(prof.center_value - EXACT_CAP) <= 1e-8
    kr, kt = prof.curvatures()
    assert np.abs(kr - 1.0).max() <= 1e-6
    assert np.abs(kt[1:] - 1.0).max() <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shoot_closed_form_caps(n):
    # psi = (n-1)^n: the unit-sphere cap; Simpson is exact on r^{n-1} psi,
    # so only the second quadrature and roundoff leave an error
    prof = shoot(parse(str((n - 1) ** n)), 0.5, n)
    assert len(prof.r) == 4097 and prof.r[-1] == 0.5
    cap = np.sqrt(0.75) - np.sqrt(1.0 - prof.r ** 2)
    assert np.abs(prof.u - cap).max() <= 1e-14
    assert np.abs(prof.upp - (1.0 - prof.r ** 2) ** -1.5).max() <= 1e-12
    assert prof.richardson_error <= 1e-15


def test_shoot_degenerate_n4_small_eps():
    # psi_eps(0) = 1e-15 while psi_eps(r) grows like r^2: the first integral
    # needs no start at the center, where a series start once failed
    prof = shoot(parse("r^2"), 0.5, 4, eps=1e-5)
    assert abs(prof.center_value - (-0.0210501052039565)) <= 1e-14
    assert prof.richardson_error <= 1e-13
    kr, kt = prof.curvatures()
    assert kr.min() >= 0.0 and kt.min() >= 0.0


def test_shoot_degenerate_regression_fixture():
    # frozen from a steps = r0/8192 run (richardson estimate 1.4e-15)
    prof = shoot(parse("r^2"), 0.5, 2, steps=2048)
    assert abs(prof.center_value - (-0.029663078022451)) <= 5e-12
    assert prof.richardson_error <= 1e-9
    # admissibility along the profile: both curvature families nonnegative
    kr, kt = prof.curvatures()
    assert kr.min() >= 0.0 and kt.min() >= 0.0


def test_shoot_self_convergence():
    # step halving moves u(0) by no more than 16x the coarse richardson bound
    coarse = shoot(parse("r^2"), 0.5, 2, steps=512)
    fine = shoot(parse("r^2"), 0.5, 2, steps=1024)
    assert abs(coarse.center_value - fine.center_value) <= 16.0 * coarse.richardson_error


def test_shoot_regularized_center():
    # eps > 0 removes the degenerate center; profile starts strictly convex
    prof = shoot(parse("r^2"), 0.5, 2, steps=1024, eps=1e-2)
    assert prof.upp[0] > 0.0
    assert prof.center_value < -0.029663078022451  # more curvature, deeper cap


def test_shoot_failures():
    with pytest.raises(StiffnessFailure):
        shoot(parse("1000000"), 0.5, 2, steps=256)
    with pytest.raises(ValueError):
        shoot(parse("1"), -0.5, 2)
    # psi reading z, nu or w is refused; the acceptance tests' quadric graphs
    # check such psi in closed form
    with pytest.raises(ValueError, match="psi reads z$"):
        shoot(parse("exp(z)"), 0.5, 2, steps=64)


def test_shoot_overflowing_slope_is_stiff():
    # u'/sqrt(1 + u'^2) = 1e150 r: the graph is vertical at the first sample
    with pytest.raises(StiffnessFailure, match="turns vertical before r0"):
        shoot(parse("1e300"), 0.5, 2, steps=256)
    # r psi overflows to inf further out, silently: the first sample fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessFailure, match="at r = 0.0078125$"):
            shoot(parse("1.7e308"), 0.5, 2, steps=16)


def count_evaluate_calls(monkeypatch, psi, steps):
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    real = radial.evaluate
    with monkeypatch.context() as m:
        m.setattr(radial, "evaluate", spy)
        shoot(parse(psi), 0.5, 2, steps=steps)
    return len(calls)


def test_position_only_psi_evaluates_once_per_integration(monkeypatch):
    coarse = count_evaluate_calls(monkeypatch, "exp(-x1) + r^2", 256)
    fine = count_evaluate_calls(monkeypatch, "exp(-x1) + r^2", 1024)
    # one batch serves the profile and the step-halved rise
    assert coarse == fine == 1


def test_position_table_keeps_integration_order_errors():
    with pytest.raises(DomainError, match="sqrt of a negative value"):
        shoot(parse("sqrt(0.3 - x1)"), 0.5, 2, steps=256)
    # the first negative sample by radius is the one reported: psi is
    # sampled at spacing 0.5 / (8 * 256), so at 0.25 + 1/4096 first
    with pytest.raises(NegativePsi) as info:
        shoot(parse("1 - 4*x1"), 0.5, 2, steps=256)
    assert str(info.value) == "psi must be nonnegative, got -0.000976562"
    # the batch meets the sqrt's domain edge before psi's signs are read, so
    # its domain error wins over the negative psi at smaller radii
    with pytest.raises(DomainError, match="sqrt of a negative value"):
        shoot(parse("sqrt(0.3 - x1) - 0.5"), 0.5, 2, steps=256)


@pytest.mark.parametrize("text, n", [("1", 2), ("8", 3), ("r^2", 2)])
def test_curvatures_match_pointwise(text, n):
    prof = shoot(parse(text), 0.5, n, steps=256)
    kr, kt = prof.curvatures()
    for i in range(len(prof.r)):
        k = radial_curvatures(prof.r[i], prof.up[i], prof.upp[i], n)
        assert (kr[i], kt[i]) == (k[0], k[-1])


def test_dump_profile_format():
    prof = shoot(parse("1"), 0.5, 2, steps=128)
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
    prof = shoot(parse("1"), 0.5, 2, steps=512)
    rq = np.array([0.0, 0.123, 0.5])
    want = -np.sqrt(1.0 - rq ** 2) + 1.0 + prof.center_value
    np.testing.assert_allclose(prof.value(rq), want, atol=1e-6)
    # symmetric in the argument
    assert prof.value(-0.123) == prof.value(0.123)


# The three-integration RK4 shooting of an earlier release (names
# prefixed), which refuses a psi reading z, nu or w in place of its
# per-stage evaluation and center-value search: an independent check of the
# quadrature `shoot`.  A rise at `steps`, the recorded profile integrated
# again from a = -rise, and the step-halved rise.

class DegenerateTangential(Exception):
    """kappa_t <= 0 met positive psi: no admissible second derivative exists."""


def _ref_regularize_value(psi_value, eps, n):
    """(psi^{1/(n-1)} + eps)^{n-1}; identity at eps = 0."""
    if psi_value < 0.0:
        raise NegativePsi(f"psi must be nonnegative, got {psi_value:g}")
    if eps == 0.0:
        return psi_value
    return (psi_value ** (1.0 / (n - 1)) + eps) ** (n - 1)


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
    """
    rk = np.arange(rows) * dr
    x = np.zeros((rows, 3, n))
    x[..., 0] = np.stack([rk, rk + 0.5 * dr, rk + dr], axis=1)
    return evaluate(psi, EvalEnv.from_gradient(x, 0.0, np.zeros_like(x))).tolist()


def _ref_series_start(psi_eps, a, n, dr):
    """State (u, u') at the first node, bridging the r = 0 singularity.

    Non-degenerate center (psi_eps(0) > 0): quadratic series from
    upp(0) = psi^{1/n}/(n-1).  Degenerate center: local power-law
    u = a + c r^m fitted to psi ~ K r^q near 0.
    """
    p0 = psi_eps(0, 0)
    if p0 > 0.0:
        upp0 = p0 ** (1.0 / n) / (n - 1)
        return a + 0.5 * upp0 * dr * dr, upp0 * dr
    p1 = psi_eps(0, 2)
    p2 = psi_eps(1, 2)
    if p1 <= 0.0:
        return a, 0.0  # psi flat at zero: profile starts flat
    q = np.log(p2 / p1) / np.log(2.0)
    K = p1 / dr ** q
    m = 2.0 + q / n
    c = (K / ((n - 1) * (m + n - 3) ** (n - 1))) ** (1.0 / n) / m
    return float(a + c * dr ** m), float(c * m * dr ** (m - 1))


def _ref_integrate(psi, a, r0, n, steps, eps, record=False):
    """Fixed-step RK4 for (u, u') from the center; returns u(r0) or arrays.

    psi comes from `_position_table`, regularized in integration order.
    """
    dr = r0 / steps
    half = 0.5 * dr
    table = _ref_position_table(psi, n, dr, max(steps, 2))

    def psi_eps(k, s):
        """Regularized psi at abscissa s of table row k."""
        return _ref_regularize_value(table[k][s], eps, n)

    def rhs(k, s, r, up):
        upp = _ref_invert(psi_eps(k, s), r, up, n)
        if not math.isfinite(upp) or abs(upp) > 1e12:
            raise StiffnessFailure(f"u'' = {upp:g} at r = {r:g}")
        return upp

    u, up = _ref_series_start(psi_eps, a, n, dr)
    if record:
        rs, us, ups = [0.0, dr], [a, u], [0.0, up]
        upps = [_ref_invert(psi_eps(0, 0), 0.0, 0.0, n),
                _ref_invert(psi_eps(0, 2), dr, up, n)]

    for k in range(1, steps):
        r = k * dr
        p1 = rhs(k, 0, r, up)
        up2 = up + half * p1
        p2 = rhs(k, 1, r + half, up2)
        up3 = up + half * p2
        p3 = rhs(k, 1, r + half, up3)
        up4 = up + dr * p3
        p4 = rhs(k, 2, r + dr, up4)
        u, up = (u + (dr / 6.0) * (up + 2.0 * up2 + 2.0 * up3 + up4),
                 up + (dr / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4))
        if not (math.isfinite(u) and math.isfinite(up)):
            raise StiffnessFailure(f"state diverged near r = {r + dr:g}")
        if record:
            rs.append(r + dr)
            us.append(u)
            ups.append(up)
            upps.append(_ref_invert(psi_eps(k, 2), r + dr, up, n))
    if record:
        return (np.array(rs), np.array(us), np.array(ups), np.array(upps))
    return u


def reference_shoot(psi, r0, n, steps=4096, eps=0.0):
    """Solve the radial Dirichlet problem for a psi of position only.

    The equation for u' never sees u, so u(r0; a) = a + rise with a fixed
    rise: one integration determines the shot.
    """
    if r0 <= 0.0 or steps < 1:
        raise ValueError("need r0 > 0 and steps >= 1")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps:g}")
    beyond = beyond_position(psi)
    if beyond:
        raise ValueError("the radial oracle needs a psi of position only "
                         f"(x1-xn, r); psi reads {', '.join(beyond)}")
    deepest = -10.0 * r0
    rise = _ref_integrate(psi, 0.0, r0, n, steps, eps)
    a = -rise
    if a < deepest or a > 0.0:
        raise BracketFailure("u(r0) does not change sign",
                             (deepest + rise, rise))
    rs, us, ups, upps = _ref_integrate(psi, a, r0, n, steps, eps, record=True)
    fine = _ref_integrate(psi, a, r0, n, 2 * steps, eps)
    richardson = abs(fine - us[-1]) / 15.0  # classical 4th-order extrapolation
    return RadialProfile(r=rs, u=us, up=ups, upp=upps, n=n,
                         richardson_error=float(richardson))


def shot_outcome(fn, text, n, eps, steps):
    try:
        return fn(parse(text), 0.5, n, steps=steps, eps=eps)
    except (ValueError, DomainError, StiffnessFailure, DegenerateTangential,
            BracketFailure) as exc:  # the class and message must match too
        return type(exc), str(exc)


#: the flat-core example's center, from the closed form 1/(1 + u'^2) =
#: 1 - (r^2 - a^2)^2/2 for r >= a = 1/4, integrated to roundoff
FLAT_CORE_CENTER = -0.014791712501454276


# at 12 steps dr = 1/24 is inexact, so k dr + dr, the reference's radius of
# node k + 1, differs from (k + 1) dr at some nodes.  The test keeps its
# name, and so its ids, from when `shoot` was this reference and matched it
# bit for bit; the refused cases still match it exactly.
@pytest.mark.parametrize("steps", [1, 2, 12, 256])
@pytest.mark.parametrize("text, n, eps", [
    ("1", 2, 0.0),
    ("8", 3, 0.0),
    ("r^2", 2, 1e-5),
    ("exp(-x1) + r^3", 3, 1e-3),
    # refused: these read nu, z or w
    ("r^2 + 0*nu1", 2, 0.0),
    ("1 + z", 2, 0.0),
    ("(1 + z) * nu3", 2, 0.0),
    ("2 * w", 3, 0.0),
    ("0", 2, 0.0),
    ("max(r^2 - 1/16, 0)", 2, 0.0),
    ("1 - 4*x1", 2, 0.0),
])
def test_shoot_matches_three_pass_reference_bitwise(text, n, eps, steps):
    got = shot_outcome(shoot, text, n, eps, steps)
    want = shot_outcome(reference_shoot, text, n, eps, steps)
    if text == "max(r^2 - 1/16, 0)":
        # RK4's series start meets kappa_t = 0 at the core's edge; the first
        # integral passes it and is checked against the closed form: u' is
        # exact, as Simpson is on the piecewise cubic r psi, and u(0) is
        # within twice the error its Richardson estimate predicts
        assert want[0] is DegenerateTangential
        core = np.maximum(got.r ** 2 - 1 / 16, 0.0)
        np.testing.assert_allclose(1.0 / (1.0 + got.up ** 2),
                                   1.0 - core ** 2 / 2.0, rtol=0, atol=1e-15)
        # u'' = sqrt(2) r / (1 - core^2/2)^{3/2} outside the core and 0 in
        # it, the kink included (measured within 3.4e-16)
        upp = np.where(core > 0.0, math.sqrt(2.0) * got.r, 0.0)
        upp /= (1.0 - core ** 2 / 2.0) ** 1.5
        np.testing.assert_allclose(got.upp, upp, rtol=0, atol=2e-15)
        gap = abs(got.center_value - FLAT_CORE_CENTER)
        assert gap <= 32.0 * got.richardson_error + 1e-15
        return
    if text == "1 - 4*x1":
        # both refuse the first negative value they sample; the quadrature
        # samples 4 times as densely, so it meets a smaller one
        assert (got[0], want[0]) == (NegativePsi, NegativePsi)
        assert got[1] == f"psi must be nonnegative, got {-1 / (4 * steps):g}"
        return
    if isinstance(want, tuple):
        assert got == want
        return
    np.testing.assert_allclose(got.r, want.r, rtol=0, atol=1e-16)
    # Simpson's error is far below RK4's, so the gap in each field is RK4's
    # error, which its own change under step halving measures: the gap is
    # 0.13-1.56 times that change (1.0-1.2 from 12 steps up) in u, u' and u''
    half = reference_shoot(parse(text), 0.5, n, steps=2 * steps, eps=eps)
    for field in ("u", "up", "upp"):
        ref = getattr(want, field)
        change = np.abs(ref - getattr(half, field)[::2]).max()
        gap = np.abs(getattr(got, field) - ref).max()
        assert gap <= 2.0 * change + 1e-15, field
