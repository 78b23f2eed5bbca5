"""Radial reduction and the shooting reference solver."""

import numpy as np
import pytest

from etacurv import radial
from etacurv.expr import DomainError, parse
from etacurv.geometry import batch_geometry
from etacurv.radial import (
    BracketFailure,
    DegenerateTangential,
    RadialProfile,
    StiffnessFailure,
    dump_profile,
    radial_curvatures,
    radial_rhs,
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


def test_radial_rhs_sphere_cap_closed_form():
    psi = parse("1")
    for r in (0.05, 0.2, 0.4):
        u = -np.sqrt(1 - r * r) + np.sqrt(0.75)
        up = r / np.sqrt(1 - r * r)
        upp = (1 - r * r) ** -1.5
        assert radial_rhs(r, u, up, psi, 2) == pytest.approx(upp, rel=1e-12)
    psi8 = parse("8")
    for r in (0.1, 0.3):
        up = r / np.sqrt(1 - r * r)
        upp = (1 - r * r) ** -1.5
        assert radial_rhs(r, 0.0, up, psi8, 3) == pytest.approx(upp, rel=1e-12)


def test_radial_rhs_center_and_degenerate():
    # center: ((n-1) upp)^n = psi
    assert radial_rhs(0.0, -0.1, 0.0, parse("8"), 3) == pytest.approx(1.0, rel=1e-14)
    assert radial_rhs(0.0, -0.1, 0.0, parse("r^2"), 2) == 0.0
    with pytest.raises(DegenerateTangential):
        radial_rhs(0.3, 0.0, -0.1, parse("1"), 2)
    assert radial_rhs(0.3, 0.0, -0.1, parse("0"), 2) == 0.0


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
    assert coarse == fine == 3  # rise, recorded profile, step-halved rise
    # psi reading z is evaluated at every stage
    assert count_evaluate_calls(monkeypatch, "exp(z)", 256) > 4 * 255


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
