"""Domain shapes: implicit geometry, boundary curvatures, 2-convexity."""

import numpy as np
import pytest

from etacurv.domain import (
    DomainShape,
    boundary_curvatures,
    check_two_convex,
    sample_boundary,
)


def test_kinds_and_validation():
    assert DomainShape((0.5, 0.5)).kind == "ball"
    assert DomainShape((0.5, 0.5)).r0 == 0.5
    assert DomainShape((1.0, 0.5)).kind == "ellipse"
    assert DomainShape((1.0, 1.0, 0.5)).kind == "ellipsoid"
    assert DomainShape((0.7, 0.7, 0.7)).kind == "ball"
    with pytest.raises(ValueError):
        DomainShape((1.0, -0.5))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            DomainShape((0.5, bad))
    # outside this scale the boundary points do not round-trip
    for bad in (1e-300, 1e300):
        with pytest.raises(ValueError, match=r"lie in \[1e-100, 1e\+100\]"):
            DomainShape((bad, bad))
    with pytest.raises(ValueError, match="n >= 2"):
        DomainShape((1.0,))
    assert DomainShape((1.0, 0.8, 0.6, 0.5)).kind == "ellipsoid"
    assert DomainShape((0.5,) * 5).kind == "ball"
    with pytest.raises(ValueError):
        DomainShape((1.0, 0.5)).r0


def test_implicit():
    sh = DomainShape((1.0, 0.5))
    assert sh.implicit([0.0, 0.0]) == -1.0
    assert sh.implicit([1.0, 0.0]) == 0.0
    assert sh.implicit([0.5, 0.2]) < 0.0
    assert not sh.implicit([0.0, 0.6]) < 0.0
    vals = sh.implicit(np.array([[0.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 3.0])


def test_boundary_point_projection():
    sh = DomainShape((1.0, 1.0, 0.5))
    rng = np.random.default_rng(5)
    d = rng.normal(size=(40, 3))
    q = sh.boundary_point(d)
    np.testing.assert_allclose(sh.implicit(q), 0.0, atol=1e-14)
    # stays on the ray
    cross = np.linalg.norm(np.cross(q, d), axis=-1)
    assert np.all(cross <= 1e-12 * np.linalg.norm(d, axis=-1) * np.linalg.norm(q, axis=-1))


def test_sample_interior_inside():
    for axes in [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0, 0.5)]:
        sh = DomainShape(axes)
        x = sh.sample_interior(np.random.default_rng(0), 500)
        assert x.shape == (500, sh.n)
        assert np.all(sh.implicit(x) < 0.0)


def test_ball_curvature_is_inverse_radius():
    sh = DomainShape((0.5, 0.5))
    for q in sample_boundary(sh, np.random.default_rng(1), 20):
        np.testing.assert_allclose(boundary_curvatures(sh, q), [2.0], rtol=1e-12)
    sh3 = DomainShape((0.25, 0.25, 0.25))
    for q in sample_boundary(sh3, np.random.default_rng(2), 10):
        np.testing.assert_allclose(boundary_curvatures(sh3, q), [4.0, 4.0], rtol=1e-12)


def test_ellipse_vertex_curvatures():
    sh = DomainShape((1.0, 0.5))
    np.testing.assert_allclose(boundary_curvatures(sh, [1.0, 0.0]), [4.0], rtol=1e-12)
    np.testing.assert_allclose(boundary_curvatures(sh, [0.0, 0.5]), [0.5], rtol=1e-12)


def test_ellipse_curvature_matches_parametrization():
    # kappa(t) = a b / (a^2 sin^2 t + b^2 cos^2 t)^{3/2}
    a, b = 1.3, 0.6
    sh = DomainShape((a, b))
    for t in np.linspace(0.1, 2 * np.pi, 17):
        q = np.array([a * np.cos(t), b * np.sin(t)])
        want = a * b / (a ** 2 * np.sin(t) ** 2 + b ** 2 * np.cos(t) ** 2) ** 1.5
        np.testing.assert_allclose(boundary_curvatures(sh, q), [want], rtol=1e-10)


def test_ellipse_curvature_batch_matches_parametrization():
    # one call on every point of the parametrization oracle above
    a, b = 1.3, 0.6
    sh = DomainShape((a, b))
    t = np.linspace(0.1, 2 * np.pi, 17)
    q = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
    want = a * b / (a ** 2 * np.sin(t) ** 2 + b ** 2 * np.cos(t) ** 2) ** 1.5
    got = boundary_curvatures(sh, q)
    assert got.shape == (17, 1)
    np.testing.assert_allclose(got, want[:, None], rtol=1e-10)


def _ellipsoid_shape_operator(a, b, c, th, ph):
    """Principal curvatures from the fundamental forms of the standard chart."""
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    Xt = np.array([a * ct * cp, b * ct * sp, -c * st])
    Xp = np.array([-a * st * sp, b * st * cp, 0.0])
    Xtt = np.array([-a * st * cp, -b * st * sp, -c * ct])
    Xtp = np.array([-a * ct * sp, b * ct * cp, 0.0])
    Xpp = np.array([-a * st * cp, -b * st * sp, 0.0])
    nrm = np.cross(Xt, Xp)
    nrm /= np.linalg.norm(nrm)
    if nrm @ np.array([a * st * cp, b * st * sp, c * ct]) > 0:
        nrm = -nrm  # inward
    I = np.array([[Xt @ Xt, Xt @ Xp], [Xt @ Xp, Xp @ Xp]])
    II = np.array([[Xtt @ nrm, Xtp @ nrm], [Xtp @ nrm, Xpp @ nrm]])
    return np.sort(np.linalg.eigvals(np.linalg.solve(I, II)).real)


def test_ellipsoid_pole_and_random_points():
    a, b, c = 1.0, 1.0, 0.5
    sh = DomainShape((a, b, c))
    np.testing.assert_allclose(
        boundary_curvatures(sh, [0.0, 0.0, 0.5]), [0.5, 0.5], rtol=1e-12
    )
    rng = np.random.default_rng(9)
    for _ in range(12):
        th = rng.uniform(0.2, np.pi - 0.2)
        ph = rng.uniform(0.0, 2 * np.pi)
        q = np.array([a * np.sin(th) * np.cos(ph), b * np.sin(th) * np.sin(ph), c * np.cos(th)])
        want = _ellipsoid_shape_operator(a, b, c, th, ph)
        got = np.sort(boundary_curvatures(sh, q))
        np.testing.assert_allclose(got, want, rtol=1e-8)


def test_curvature_rejects_off_boundary_points():
    sh = DomainShape((0.5, 0.5))
    with pytest.raises(ValueError):
        boundary_curvatures(sh, [0.3, 0.0])


def test_ellipsoid_curvature_batch_matches_chart():
    # one call on every point of the chart oracle above
    a, b, c = 1.0, 1.0, 0.5
    sh = DomainShape((a, b, c))
    rng = np.random.default_rng(9)
    th = rng.uniform(0.2, np.pi - 0.2, 12)
    ph = rng.uniform(0.0, 2 * np.pi, 12)
    q = np.stack([a * np.sin(th) * np.cos(ph), b * np.sin(th) * np.sin(ph),
                  c * np.cos(th)], axis=-1)
    want = np.stack([_ellipsoid_shape_operator(a, b, c, *tp)
                     for tp in zip(th, ph)])
    got = boundary_curvatures(sh, q)
    assert got.shape == (12, 2)
    np.testing.assert_allclose(np.sort(got, axis=-1), want, rtol=1e-8)


def test_curvature_batch_rejects_one_off_boundary_point():
    sh = DomainShape((1.0, 1.0, 0.5))
    q = sample_boundary(sh, np.random.default_rng(3), 64)
    q[17] *= 0.9
    with pytest.raises(ValueError, match="not on the boundary"):
        boundary_curvatures(sh, q)


def test_check_two_convex():
    ok, K = check_two_convex(DomainShape((0.5, 0.5)))
    assert ok and K == 1.0
    ok, K = check_two_convex(DomainShape((1.0, 0.5)))
    assert ok and K == 1.0
    ok, K = check_two_convex(DomainShape((1.0, 1.0, 0.5)))
    assert ok and K == 1.0  # all curvatures positive, grid minimum suffices
    ok, K = check_two_convex(DomainShape((1.0, 0.8, 0.6, 0.5)))
    assert ok and K == 1.0  # so is every ellipsoid's, in any dimension


@pytest.mark.parametrize("axes", [
    (0.5, 0.5), (0.5,) * 3, (0.5,) * 4, (1.0, 0.5), (1.0, 0.8, 0.6),
    (1.0, 0.8, 0.6, 0.5), (1e-90, 2e-90), (1e-90, 1e-90, 3e-90)])
def test_curvatures_match_an_svd_tangent_basis(axes):
    # the Householder tangent basis gives the curvatures of the trailing
    # right singular vectors of the unit normals, at sampled points and
    # where the normal is +-e_1 or has nu_1 = 0
    sh = DomainShape(axes)
    n = sh.n
    q = sample_boundary(sh, np.random.default_rng(0), 512)
    q = np.concatenate([q, np.diag(sh.semiaxes), -np.diag(sh.semiaxes)])
    g = sh.implicit_gradient(q)
    gn = np.linalg.norm(g, axis=-1)
    vh = np.linalg.svd((g / gn[:, None])[:, None, :], full_matrices=True)[2]
    T = np.swapaxes(vh[:, 1:, :], -1, -2)
    want = np.linalg.eigvalsh(np.swapaxes(T, -1, -2) @ sh.implicit_hessian()
                              @ T / gn[:, None, None])
    got = boundary_curvatures(sh, q)
    assert got.shape == (len(q), n - 1)
    np.testing.assert_allclose(got, want, rtol=1e-14 * n, atol=0.0)
    assert check_two_convex(sh) == (True, 1.0)
