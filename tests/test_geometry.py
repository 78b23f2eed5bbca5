import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from etacurv import cones, geometry
from etacurv.domain import DomainShape
from etacurv.geometry import PointState
from etacurv.grid import symmetric
from etacurv.solver import ProblemSpec, continuation_solve


def eta_eigen(state):
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


GEOMETRY_FIELDS = ("w", "gamma_up", "A", "kappa", "K_eta", "margin",
                   "f_i", "F", "G2", "Gs")


def geo_at(p, r, coeffs=True):
    """batch_geometry of the single state (p, r), without the batch axis."""
    g = geometry.batch_geometry(np.asarray(p)[None], np.asarray(r)[None], coeffs)
    return SimpleNamespace(**{k: getattr(g, k)[0] for k in GEOMETRY_FIELDS
                              if getattr(g, k) is not None})


def gamma_down(p):
    """Square root of the metric I + p p^T, the inverse of gamma_up."""
    w = np.sqrt(1.0 + np.sum(p * p, axis=-1))
    return np.eye(p.shape[-1]) + p[..., :, None] * p[..., None, :] / (1.0 + w)[..., None, None]


def random_admissible_state(rng, n, p_scale=1.5):
    """Build (p, r) whose curvature matrix has a prescribed Gamma spectrum."""
    kappa = cones.sample_gamma(rng, 1, n)[0]
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = Q @ np.diag(kappa) @ Q.T
    p = rng.normal(size=n)
    p *= rng.uniform(0, p_scale) / max(1e-12, np.linalg.norm(p))
    w, _ = geometry.gamma_factors(p)
    gd = gamma_down(p)
    r = w * gd @ A @ gd
    return PointState(p=p, r=0.5 * (r + r.T))


def test_point_state_symmetry_check():
    r = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        PointState(p=np.zeros(2), r=r)
    with pytest.raises(ValueError):
        PointState(p=np.zeros(2), r=np.eye(3))


def test_gamma_factors_invert_the_metric_root():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(50, 3)) * 2.0
    w, gu = geometry.gamma_factors(p)
    np.testing.assert_allclose(w, np.sqrt(1.0 + np.sum(p * p, axis=-1)), rtol=1e-15)
    np.testing.assert_allclose(gu @ gamma_down(p), np.broadcast_to(np.eye(3), gu.shape),
                               atol=1e-14)


def test_flat_state():
    g = geo_at(np.zeros(2), np.zeros((2, 2)))
    assert g.w == 1.0
    assert np.array_equal(g.A, np.zeros((2, 2)))
    assert g.K_eta == 0.0
    assert g.margin == 0.0
    assert not g.margin > 0.0  # boundary of the cone, not strictly inside


def test_identity_hessian_zero_gradient():
    n = 3
    g = geo_at(np.zeros(n), np.eye(n))
    assert np.allclose(g.kappa, 1.0, atol=1e-15)
    assert g.K_eta == pytest.approx((n - 1) ** n, rel=1e-14)
    assert g.margin > 0.0
    # umbilic point: every P_m = (n-1)^(n-1), so f_i = (n-1) P_m = (n-1)^n
    assert np.allclose(g.G2, (n - 1) ** n * np.eye(n), atol=1e-12)
    # gradient coefficients vanish by symmetry at p = 0
    assert np.allclose(g.Gs, 0.0, atol=1e-14)


def test_tilted_state_derived_values():
    # p = (1, 0), r = I: gamma_up = diag(1/sqrt(2), 1), A = diag(1/(2 sqrt 2), 1/sqrt 2)
    g = geo_at(np.array([1.0, 0.0]), np.eye(2))
    assert g.w == pytest.approx(np.sqrt(2), rel=1e-15)
    assert g.gamma_up[0, 0] == pytest.approx(1 / np.sqrt(2), rel=1e-14)
    assert g.gamma_up[0, 1] == 0.0
    assert np.allclose(np.sort(g.kappa), [1 / (2 * np.sqrt(2)), 1 / np.sqrt(2)], rtol=1e-14)
    assert g.K_eta == pytest.approx(0.25, rel=1e-13)
    # n = 2 closed form: K_eta = det(r)/w^4, so dK/dp = -4 p det(r)/w^6
    assert np.allclose(g.Gs, [-0.5, 0.0], atol=1e-13)


def test_sphere_cap_curvatures():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        for _ in range(25):
            R = rng.uniform(0.4, 3.0)
            x = rng.normal(size=n)
            x *= rng.uniform(0.0, 0.9) * R / np.linalg.norm(x)
            st = geometry.cap_state(x, R)
            g = geo_at(st.p, st.r)
            assert np.abs(g.kappa - 1.0 / R).max() < 1e-12
            assert g.K_eta == pytest.approx(((n - 1) / R) ** n, rel=1e-11)


def test_spectral_grad_diag_and_fd():
    # A = I: every kappa = 1, F = (n-1)^(n-1) * n/(n-1)... for f = prod lambda:
    # f_i = sum_m P_m - P_i with all lambda = n-1
    n = 3
    g = geo_at(np.zeros(n), np.eye(n))
    assert np.allclose(g.F, 8.0 * np.eye(3), atol=1e-12)  # lambda = 2,2,2: f_i = 2*4

    rng = np.random.default_rng(14)
    for n in (2, 3, 4):
        st = random_admissible_state(rng, n)
        g = geo_at(st.p, st.r)
        t = 1e-6
        for i in range(n):
            for j in range(i, n):
                E = np.zeros((n, n))
                E[i, j] = E[j, i] = 1.0
                # F is the matrix gradient of kappa -> f at A, so a symmetric
                # two-entry bump moves f by 2 F_ij (or F_ii on the diagonal)
                fd = (cones.f_value(np.linalg.eigvalsh(g.A + t * E))
                      - cones.f_value(np.linalg.eigvalsh(g.A - t * E))) / (2 * t)
                want = (2 - (i == j)) * g.F[i, j]
                assert abs(fd - want) <= 1e-6 * max(1.0, abs(want))


def _rotated(rng, kappa):
    """Symmetric matrices Q diag(kappa) Q^T, one random rotation per row."""
    m, n = kappa.shape
    Q = np.linalg.qr(rng.normal(size=(m, n, n)))[0]
    return Q @ (kappa[:, :, None] * np.swapaxes(Q, -1, -2))


def _cap3d_curvature_matrices(monkeypatch):
    """Every curvature matrix batch_geometry takes eigenvalues of in the
    3D cap solve at h = 1/24: Newton iterates and line-search trials of
    both levels."""
    seen = []
    eigenvalues = geometry._eigenvalues

    def record(S, n):
        seen.append(symmetric(np.moveaxis(S, 0, -1)))
        return eigenvalues(S, n)

    monkeypatch.setattr(geometry, "_eigenvalues", record)
    spec = ProblemSpec(n=3, shape=DomainShape((0.5,) * 3), psi="8", h=1 / 24)
    continuation_solve(spec)
    monkeypatch.undo()
    return np.concatenate(seen)


def _closed_form_cases_3x3(rng, m, monkeypatch):
    """Symmetric 3x3 stacks where the closed form is hardest."""
    cases = []
    for split in (1e-8, 1e-12):
        for side in (-1.0, 1.0):
            # a near-double pair below (side 1) or above (-1) the third
            kappa = rng.normal(size=(m, 3))
            kappa[:, 1] = kappa[:, 0] * (1.0 + split * rng.normal(size=m))
            kappa[:, 2] = kappa[:, 0] + side * rng.uniform(0.1, 2.0, size=m)
            cases.append(_rotated(rng, kappa))
    for split in (0.0, 1e-12, 1e-6):
        # rotated near-triple roots: split 0 leaves only the rotation's
        # roundoff, which must not disorder the output (1 row in ~4000)
        kappa = 3.0 * (1.0 + split * rng.normal(size=(5 * m, 3)))
        cases.append(_rotated(rng, kappa))
    orders = [np.diag(d) for v in ((-1.0, 0.5, 2.0), (1.0, 1.0, 2.0), (-1.0, 2.0, 2.0))
              for d in itertools.permutations(v)]
    cases.append(np.array([3.0 * np.eye(3), np.zeros((3, 3))] + orders))
    cases += [scale * cases[k] for scale in (1e150, 1e-150) for k in (0, 1, 4)]
    cases.append(_cap3d_curvature_matrices(monkeypatch))
    return cases


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_eigenvalues_match_lapack(n, monkeypatch):
    rng = np.random.default_rng(25)
    m = 4000
    r = rng.normal(size=(m, n, n)) * 10.0 ** rng.uniform(-8, 8, size=(m, 1, 1))
    r = 0.5 * (r + np.swapaxes(r, -1, -2))
    if n == 2:
        kappa = rng.normal(size=(m, 2))
        kappa[: m // 2, 1] = kappa[: m // 2, 0] * (1.0 + 1e-12 * rng.normal(size=m // 2))
        cases = [_rotated(rng, kappa), np.array([
            np.eye(2), np.zeros((2, 2)), [[1.0, 0.0], [0.0, -1.0]],
            [[0.0, 1e-300], [1e-300, 0.0]], [[1e8, 1.0], [1.0, 1e8]]])]
    else:
        cases = _closed_form_cases_3x3(rng, m, monkeypatch)
    for A in [r] + cases:
        # p = 0: the curvature matrix is the (symmetrized) Hessian itself;
        # K_eta overflows on the matrices scaled by 1e150
        with np.errstate(over="ignore"):
            g = geometry.batch_geometry(np.zeros(A.shape[:-1]), A, coeffs=False)
        ref = np.linalg.eigvalsh(g.A)
        # the largest entry bounds the 2-norm from below, without underflow
        norm = np.abs(g.A).max(axis=(1, 2))
        assert np.all(np.abs(g.kappa - ref).max(axis=1) <= 1e-14 * norm)
        assert np.all(np.diff(g.kappa, axis=1) >= 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nonfinite_curvature_matrix_fails_the_margin(n):
    # a NaN or inf entry anywhere: every margin test fails, no LinAlgError
    rng = np.random.default_rng(27)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    values = (np.nan, np.inf, -np.inf)
    A = rng.normal(size=(len(upper) * len(values) + 1, n, n))
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    for k, ((i, j), value) in enumerate(itertools.product(upper, values)):
        A[k, i, j] = A[k, j, i] = value
    # inf - inf and 0 * inf on the way are the point, not an accident
    with np.errstate(invalid="ignore"):
        g = geometry.batch_geometry(np.zeros((len(A), n)), A, coeffs=False)
        i, j = np.array(upper).T
        kappa = geometry._eigenvalues(A[:-1, i, j].T, n).T
    assert np.isnan(g.margin[:-1]).all() and np.isnan(g.K_eta[:-1]).all()
    assert np.allclose(g.kappa[-1], np.linalg.eigvalsh(A[-1]), rtol=0, atol=1e-14)
    if n >= 3:
        assert np.isnan(kappa).all()
    else:  # hypot(inf, nan) is inf: NaN entries only
        assert np.isnan(kappa[~np.isinf(A[:-1]).any(axis=(1, 2))]).all()


def _independent_geometry(p, r):
    """A, kappa, K_eta and margin of states (p, r) by another route than
    batch_geometry's: gamma_up r gamma_up / w by einsum, then eigvalsh."""
    n = p.shape[-1]
    w = np.sqrt(1.0 + np.einsum("...i,...i->...", p, p))
    gu = np.eye(n) - (np.einsum("...i,...j->...ij", p, p)
                      / (w * (1.0 + w))[..., None, None])
    A = np.einsum("...ik,...kl,...lj->...ij", gu, r, gu) / w[..., None, None]
    kappa = np.linalg.eigvalsh(A)
    lam = kappa.sum(axis=-1, keepdims=True) - kappa
    return A, kappa, lam.prod(axis=-1), lam.min(axis=-1)


def _kernel_cases(rng, lead, n):
    """(p, r) stacks of leading shape lead: slopes |p| from 1e-3 to 1e3
    with random symmetric Hessians; curvature matrices near a triple root
    (|p| <= 2: past that r's entries grow like w^3 and any route loses the
    split); a flat slope p = 0."""
    m = int(np.prod(lead, dtype=int))
    direction = rng.normal(size=(m, n))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    p = direction * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    r = rng.normal(size=(m, n, n))
    cases = [(p, 0.5 * (r + np.swapaxes(r, -1, -2)))]
    kappa = 2.0 * (1.0 + 1e-9 * rng.normal(size=(m, n)))
    p = direction * rng.uniform(0.0, 2.0, size=(m, 1))
    w = np.sqrt(1.0 + np.sum(p * p, axis=-1))
    gd = gamma_down(p)
    r = w[:, None, None] * gd @ _rotated(rng, kappa) @ gd
    cases.append((p, 0.5 * (r + np.swapaxes(r, -1, -2))))
    cases.append((np.zeros((m, n)), cases[0][1]))
    return [(p.reshape(lead + (n,)), r.reshape(lead + (n, n))) for p, r in cases]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("lead", [(), (5,), (2, 5)])
def test_kernel_matches_independent_reference(n, lead):
    # the entrywise kernel against einsum and LAPACK, on every leading
    # shape the checks pass, with r given as matrices or as slot entries
    rng = np.random.default_rng([36, n, len(lead)])
    upper = tuple(np.array([(i, j) for i in range(n) for j in range(i, n)]).T)
    for p, r in _kernel_cases(rng, lead, n):
        g = geometry.batch_geometry(p, r)
        rows = geometry.batch_geometry(p, r[(...,) + upper])
        for name in ("A", "kappa", "K_eta", "margin", "F", "G2", "Gs"):
            got, want = getattr(g, name), getattr(rows, name)
            assert got.shape == want.shape and np.array_equal(got, want), name
        A, kappa, K_eta, margin = _independent_geometry(p, r)
        assert g.A.shape == A.shape and g.kappa.shape == kappa.shape
        assert g.K_eta.shape == g.margin.shape == lead
        scale = np.abs(A).max(axis=(-2, -1))
        assert np.all(np.abs(g.A - A).max(axis=(-2, -1)) <= 1e-13 * scale)
        assert np.all(np.abs(g.kappa - kappa).max(axis=-1) <= 1e-13 * scale)
        assert np.all(np.abs(g.margin - margin) <= 1e-13 * scale)
        assert np.all(np.abs(g.K_eta - K_eta) <= 1e-13 * (n * scale) ** n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_nonfinite_state_fails_quietly(n, capfd):
    # a NaN or inf anywhere in p or r: NaN margin, a failed cone test,
    # coefficients too, and not a word on stderr
    rng = np.random.default_rng(37)
    states = []
    for value in (np.nan, np.inf, -np.inf):
        for k in range(n):
            p, r = rng.normal(size=n), np.eye(n)
            p[k] = value
            states.append((p, r))
        for i, j in [(i, j) for i in range(n) for j in range(i, n)]:
            p, r = rng.normal(size=n), np.eye(n)
            r[i, j] = r[j, i] = value
            states.append((p, r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, r in states:
            g = geometry.batch_geometry(p[None], r[None])
            assert np.isnan(g.margin).all()
            assert not g.cone_test(-np.inf)[0]
    assert capfd.readouterr().err == ""


def test_polynomial_F_matches_spectral_grad():
    rng = np.random.default_rng(26)
    for n in (2, 3, 4, 5, 6):
        m = 600
        kappa = rng.uniform(-2.0, 3.0, size=(m, n))
        # near-repeated and exactly repeated curvatures in the first rows
        kappa[:200, 1:] = kappa[:200, :1] * (1.0 + 1e-9 * rng.normal(size=(200, n - 1)))
        kappa[200:250] = kappa[200:250, :1]
        A = _rotated(rng, kappa)
        A = 0.5 * (A + np.swapaxes(A, -1, -2))
        p = rng.normal(size=(m, n))
        w, _ = geometry.gamma_factors(p)
        gd = gamma_down(p)
        r = w[:, None, None] * gd @ A @ gd
        g = geometry.batch_geometry(p, 0.5 * (r + np.swapaxes(r, -1, -2)))
        inside = g.margin > 0.0
        assert inside.any() and not inside.all()
        kap, B = np.linalg.eigh(g.A)
        F = geometry.spectral_grad(g.A, cones.f_grad(kap), B)
        scale = 1.0 + np.abs(F).max(axis=(1, 2))
        assert np.all(np.abs(g.F - F).max(axis=(1, 2)) <= 1e-12 * scale)
        f_i = cones.f_grad(g.kappa)
        assert np.all(np.abs(g.f_i - f_i).max(axis=1) <= 1e-12 * scale)


def test_hessian_coeffs_fd_and_ellipticity():
    rng = np.random.default_rng(15)
    for n in (2, 3, 4):
        for _ in range(30):
            st = random_admissible_state(rng, n)
            G2 = geo_at(st.p, st.r).G2
            assert np.linalg.eigvalsh(G2).min() > 0  # ellipticity
            t = 1e-6
            for i in range(n):
                for j in range(i, n):
                    E = np.zeros((n, n))
                    E[i, j] = E[j, i] = 1.0
                    fd = (geo_at(st.p, st.r + t * E, coeffs=False).K_eta
                          - geo_at(st.p, st.r - t * E, coeffs=False).K_eta) / (2 * t)
                    want = (2 - (i == j)) * G2[i, j]
                    assert abs(fd - want) <= 2e-6 * max(1.0, abs(want))


def test_gradient_coeffs_fd():
    rng = np.random.default_rng(16)
    for n in (2, 3, 4):
        for _ in range(40):
            st = random_admissible_state(rng, n)
            Gs = geo_at(st.p, st.r).Gs
            t = 1e-6
            fd = np.array([
                (geo_at(st.p + t * e, st.r, coeffs=False).K_eta
                 - geo_at(st.p - t * e, st.r, coeffs=False).K_eta) / (2 * t)
                for e in np.eye(n)
            ])
            assert np.abs(fd - Gs).max() <= 2e-6 * max(1.0, np.abs(Gs).max())


def test_coeff_ops_raise_outside_cone():
    # the geometry never raises: outside the cone its margin is negative
    g = geo_at(np.zeros(2), np.diag([1.0, -1.0]))
    assert not g.margin > 0.0 and g.margin < 0


def test_euler_identity():
    # f homogeneous of degree n: sum_i f_i kappa_i = n f
    rng = np.random.default_rng(17)
    for n in (2, 3, 5):
        st = random_admissible_state(rng, n)
        g = geo_at(st.p, st.r)
        assert float(g.f_i @ g.kappa) == pytest.approx(n * g.K_eta, rel=1e-11)


def test_trace_identities():
    rng = np.random.default_rng(18)
    for n in (2, 3, 4, 6):
        st = random_admissible_state(rng, n)
        g = geo_at(st.p, st.r)
        lam = cones.lambda_of(g.kappa)
        P = cones.complementary_products(lam)
        Fhat = geometry.spectral_grad(None, P, np.linalg.eigh(g.A)[1])
        scale = 1.0 + np.abs(Fhat).max()
        assert np.abs(g.F - (np.trace(Fhat) * np.eye(n) - Fhat)).max() <= 1e-10 * scale
        lam_eta = eta_eigen(st)
        assert abs(np.trace(g.F) - (n - 1) * cones.sigma(lam_eta, n - 1)) <= 1e-10 * scale


def test_eta_eigen_cross_route():
    rng = np.random.default_rng(19)
    for n in (2, 3, 5):
        for _ in range(20):
            st = random_admissible_state(rng, n)
            g = geo_at(st.p, st.r)
            lam_eta = eta_eigen(st)
            lam_a = np.sort(cones.lambda_of(g.kappa))
            assert np.abs(lam_eta - lam_a).max() <= 1e-10 * (1 + np.abs(lam_a).max())
    # identity-Hessian spot value
    st = PointState(p=np.zeros(3), r=np.eye(3))
    assert np.allclose(eta_eigen(st), [2.0, 2.0, 2.0], atol=1e-14)


def test_rotation_equivariance():
    rng = np.random.default_rng(20)
    for n in (2, 3, 4):
        st = random_admissible_state(rng, n)
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        rot = PointState(p=Q.T @ st.p, r=Q.T @ st.r @ Q)
        g1 = geo_at(st.p, st.r)
        g2 = geo_at(rot.p, rot.r)
        assert np.abs(np.sort(g1.kappa) - np.sort(g2.kappa)).max() <= 1e-10


def test_homogeneity_in_r():
    # K_eta(t r, p) = t^n K_eta(r, p)
    rng = np.random.default_rng(22)
    for n in (2, 3):
        st = random_admissible_state(rng, n)
        for t in (0.5, 2.0, 7.0):
            v = geo_at(st.p, t * st.r, coeffs=False).K_eta
            assert v == pytest.approx(t ** n * geo_at(st.p, st.r, coeffs=False).K_eta,
                                      rel=1e-10)


def test_lambda_rp():
    assert np.allclose(geometry.lambda_rp(np.eye(3), np.array([1.0, 0, 0])),
                       [0.5, 1.0, 1.0], atol=1e-14)
    # p = 0 reduces to plain eigenvalues
    r = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(geometry.lambda_rp(r, np.zeros(2)), np.linalg.eigvalsh(r), atol=1e-13)


def test_lambda_rp_projection_bound():
    # spectrum of the projected matrix stays in Gamma_k and sigma_j drops by
    # at most the factor 1 + |p|^2
    rng = np.random.default_rng(23)
    for n in (3, 4):
        for k in range(1, n):
            for _ in range(50):
                ev = cones.sample_gamma_k(rng, 1, n, k + 1)[0]
                Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
                r = Q @ np.diag(ev) @ Q.T
                p = rng.normal(size=n)
                s_rp = cones.sigma_all(geometry.lambda_rp(r, p))
                s_r = cones.sigma_all(np.linalg.eigvalsh(r))
                w2 = 1 + p @ p
                for j in range(1, k + 1):
                    assert s_rp[j] > 0
                    assert s_rp[j] >= s_r[j] / w2 - 1e-10 * abs(s_r[j])


def test_ilt_coefficient():
    # identity case: d S_1 / d r_00 at p = 0 is 1
    assert geometry.ilt_coefficient(2 * np.eye(3), np.zeros(3), 1, 0) == pytest.approx(1.0)
    # hand-expanded n = 2 case: S_2(r, p) = det(r)/(1+|p|^2); d/d r_11 = r_00/2 at p=(1,0)
    r = np.array([[1.7, 0.3], [0.3, 0.9]])
    c = geometry.ilt_coefficient(r, np.array([1.0, 0.0]), 2, 1)
    assert c == pytest.approx(r[0, 0] / 2, rel=1e-13)


def test_ilt_coefficient_fd():
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        for _ in range(40):
            r = rng.normal(size=(n, n))
            r = 0.5 * (r + r.T)
            p = rng.normal(size=n)
            k = int(rng.integers(1, n + 1))
            i = int(rng.integers(0, n))
            c = geometry.ilt_coefficient(r, p, k, i)
            t = 1e-5
            E = np.zeros((n, n))
            E[i, i] = 1.0
            fd = (geometry.sk_rp(r + t * E, p, k) - geometry.sk_rp(r - t * E, p, k)) / (2 * t)
            assert abs(fd - c) <= 1e-7 * max(1.0, abs(c))
