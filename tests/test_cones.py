import math

import numpy as np
import pytest

from etacurv import cones


def test_sigma_values():
    assert cones.sigma([1, 2, 3], 2) == 11.0
    assert cones.sigma([1, 2, 3], 0) == 1.0
    assert cones.sigma([1, 2, 3], 3) == 6.0
    assert cones.sigma([2.0, -1.0], 1) == 1.0


def test_sigma_k_range():
    with pytest.raises(ValueError):
        cones.sigma([1, 2, 3], 4)
    with pytest.raises(ValueError):
        cones.sigma([1, 2, 3], -1)


def test_sigma_batch_matches_scalar():
    rng = np.random.default_rng(3)
    K = rng.normal(size=(40, 5))
    s = cones.sigma_all(K)
    for row, srow in zip(K, s):
        for k in range(6):
            assert abs(cones.sigma(row, k) - srow[k]) <= 1e-12 * max(1.0, abs(srow[k]))


def test_sigma_reduced():
    assert cones.sigma_reduced([1, 2, 3], 2, 0) == 6.0
    assert cones.sigma_reduced([1, 2, 3], 1, 2) == 3.0
    with pytest.raises(ValueError):
        cones.sigma_reduced([1, 2, 3], 3, 0)


def test_sigma_identities_random():
    # sum_i sigma_{k-1;i} = (n-k+1) sigma_{k-1}; sum_i sigma_{k-1;i} kappa_i = k sigma_k
    rng = np.random.default_rng(42)
    for n in range(2, 7):
        for _ in range(60):
            kappa = rng.uniform(-2, 2, size=n)
            s = cones.sigma_all(kappa)
            for k in range(1, n + 1):
                red = np.array([cones.sigma_reduced(kappa, k - 1, i) for i in range(n)])
                lhs1 = red.sum()
                lhs2 = red @ kappa
                scale = 1.0 + np.abs(s).max()
                assert abs(lhs1 - (n - k + 1) * s[k - 1]) <= 1e-12 * scale
                assert abs(lhs2 - k * s[k]) <= 1e-12 * scale


def test_gamma_k_membership():
    assert cones.in_gamma_k([1, 2, 3], 3)
    assert not cones.in_gamma_k([-1, 2, 2], 2)  # sigma_2 = 0 exactly
    assert cones.in_gamma_k([-1, 2, 2.5], 2)


def test_lambda_and_margin():
    assert np.array_equal(cones.lambda_of([1, 2, 3]), [5.0, 4.0, 3.0])
    # the cone margin is min_i lambda_i, positive exactly on Gamma
    assert cones.lambda_of([-1, 2, 2]).min() == 1.0   # lambda = (4, 1, 1)
    assert cones.lambda_of([-2, 1, 0.5]).min() < 0.0  # lambda = (1.5, -1.5, -1)
    assert cones.lambda_of([3, 0, 0]).min() == 0.0    # boundary


def test_f_values():
    assert cones.f_value([2, 2, 2]) == 64.0
    assert cones.f_value([1, 1]) == 1.0
    assert cones.f_value([1, 2, 3]) == 60.0
    assert cones.f_value([3, 0, 0]) == 0.0  # closure boundary
    # evaluation works anywhere; one negative factor here
    assert cones.f_value([3.0, 0.0, -0.1]) < 0


def test_f_grad_frozen_values():
    assert np.allclose(cones.f_grad([2, 2, 2]), [32, 32, 32], rtol=0, atol=0)
    assert np.allclose(cones.f_grad([1, 2, 3]), [35, 32, 27], rtol=0, atol=0)
    assert np.allclose(cones.f_grad([-1, 2, 2]), [8, 5, 5], rtol=0, atol=0)


def test_f_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        K = cones.sample_gamma(rng, 25, n)
        for kappa in K:
            g = cones.f_grad(kappa)
            t = 1e-6
            fd = np.array([
                (cones.f_value(kappa + t * e)
                 - cones.f_value(kappa - t * e)) / (2 * t)
                for e in np.eye(n)
            ])
            assert np.abs(fd - g).max() <= 1e-6 * max(1.0, np.abs(g).max())


def test_f_positivity_and_monotonicity_in_cone():
    rng = np.random.default_rng(9)
    for n in range(2, 7):
        K = cones.sample_gamma(rng, 200, n)
        for kappa in K:
            assert cones.f_value(kappa) > 0
            assert np.all(cones.f_grad(kappa) > 0)


def test_f_normalized():
    assert cones.f_normalized([2, 2, 2]) == pytest.approx(4.0, abs=1e-15)
    assert cones.f_normalized([3, 0, 0]) == 0.0
    assert cones.f_normalized([1, 2, 3]) == pytest.approx(60.0 ** (1 / 3), rel=1e-15)


def test_f_root_concavity_midpoint():
    # f^{1/n} concave: midpoint value >= mean of endpoint values (cone is convex)
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 6):
        A = cones.sample_gamma(rng, 100, n)
        B = cones.sample_gamma(rng, 100, n)
        for a, b in zip(A, B):
            mid = cones.f_normalized(0.5 * (a + b))
            avg = 0.5 * (cones.f_normalized(a) + cones.f_normalized(b))
            assert mid - avg >= -1e-12 * max(1.0, abs(mid))


def test_homogeneity_and_unbounded_growth():
    rng = np.random.default_rng(21)
    for n in (2, 3, 5):
        kappa = cones.sample_gamma(rng, 1, n)[0]
        f0 = cones.f_value(kappa)
        assert cones.f_value(2.0 * kappa) == pytest.approx(2.0 ** n * f0, rel=1e-13)
        # growth along the last axis direction
        prev = f0
        for R in (1.0, 10.0, 100.0):
            shifted = kappa.copy()
            shifted[-1] += R
            cur = cones.f_value(shifted)
            assert cur > prev
            prev = cur


def test_negative_entry_gradient_share():
    # inside Gamma with kappa_j < 0, f_j takes at least 1/(n(n-1)) of sum f_i
    rng = np.random.default_rng(33)
    for n in (3, 4, 6):
        K = cones.sample_gamma(rng, 400, n)
        hit = 0
        for kappa in K:
            neg = np.where(kappa < 0)[0]
            if neg.size == 0:
                continue
            hit += 1
            g = cones.f_grad(kappa)
            for j in neg:
                assert g[j] >= cones.delta0(n) * g.sum()
        assert hit > 20


def test_constant_tables():
    # both constants are sharp: each equals its ratio at kappa = (1, ..., 1)
    for n in range(2, 10):
        s = cones.sigma_all(np.ones(n))
        for k in range(2, n + 1):
            diag_interp = s[k - 1] / (s[k] ** (1 - 1 / (k - 1)) * s[1] ** (1 / (k - 1)))
            assert cones.interp_c0(n, k) == pytest.approx(diag_interp, rel=1e-14)
            diag_maclaurin = s[1] / s[k] ** (1 / k)
            assert cones.maclaurin_c0(n, k) == pytest.approx(diag_maclaurin, rel=1e-14)
    assert cones.maclaurin_c0(3, 2) == pytest.approx(np.sqrt(3), rel=1e-15)
    assert cones.maclaurin_c0(3, 3) == pytest.approx(3.0, rel=1e-15)
    assert cones.interp_c0(3, 3) == pytest.approx(np.sqrt(3), rel=1e-15)
    for n, k in ((2, 1), (3, 0), (3, 4), (9, 10)):
        with pytest.raises(ValueError):
            cones.interp_c0(n, k)
    for n, k in ((3, 0), (3, 4)):
        with pytest.raises(ValueError):
            cones.maclaurin_c0(n, k)


def test_interp_inequality_on_fresh_samples():
    rng = np.random.default_rng(2024)
    for n in (3, 4, 6, 8):
        for k in range(2, n + 1):
            K = cones.sample_gamma_k(rng, 400, n, k)
            s = cones.sigma_all(K)
            c0 = cones.interp_c0(n, k)
            lhs = s[:, k - 1]
            rhs = c0 * s[:, k] ** (1 - 1 / (k - 1)) * s[:, 1] ** (1 / (k - 1))
            assert np.all(lhs >= rhs * (1 - 1e-12))


def test_maclaurin_on_fresh_samples():
    rng = np.random.default_rng(77)
    for n in (2, 4, 6):
        for k in range(2, n + 1):
            K = cones.sample_gamma_k(rng, 400, n, k)
            s = cones.sigma_all(K)
            c0 = cones.maclaurin_c0(n, k)
            assert np.all(s[:, 1] >= c0 * s[:, k] ** (1.0 / k) * (1 - 1e-12))


def test_product_form_equivalence():
    rng = np.random.default_rng(8)
    for n in (2, 3, 6):
        K = rng.normal(size=(100, n)) * 2
        for kappa in K:
            direct = float(np.prod(np.sum(kappa) - kappa))
            assert cones.f_value(kappa) == pytest.approx(
                direct, rel=1e-14, abs=1e-14)
