"""Newton solver: residual/Jacobian correctness, damping, continuation."""

import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from etacurv import geometry, solver
from etacurv.cones import NotAdmissible
from etacurv.domain import DomainShape
from etacurv.geometry import batch_geometry
from etacurv.grid import all_derivatives, build_grid
from etacurv.solver import (
    LinearSolveFailure,
    NegativePsi,
    NewtonParams,
    ProblemSpec,
    SolverFailure,
    cap_function,
    continuation_solve,
    effective_schedule,
    initial_guess,
    jacobian,
    newton_solve,
    regularize_psi,
    residual,
    write_solution,
)

DISK = DomainShape(semiaxes=(0.5, 0.5))
BALL = DomainShape(semiaxes=(0.5, 0.5, 0.5))


def exact_cap(grid, R=1.0):
    r0 = grid.shape.r0
    rad2 = np.sum(grid.pos**2, axis=1)
    return -np.sqrt(R * R - rad2) + np.sqrt(R * R - r0 * r0)


# ---------------------------------------------------------------- psi_eps


def test_regularize_examples():
    assert regularize_psi(0.0, 0.1, 3) == pytest.approx(0.01, rel=1e-15)
    assert regularize_psi(1.0, 0.0, 2) == 1.0
    assert regularize_psi(1.0, 0.0, 3) == 1.0
    assert regularize_psi(1.0, 0.1, 2) == pytest.approx(1.1, rel=1e-15)


def test_regularize_positive_floor():
    vals = np.linspace(0.0, 2.0, 50)
    for n in (2, 3):
        out = regularize_psi(vals, 1e-3, n)
        assert np.all(out >= (1e-3) ** (n - 1) * (1 - 1e-12))
        assert np.allclose(regularize_psi(vals, 0.0, n), vals)


def test_regularize_negative_raises():
    with pytest.raises(NegativePsi):
        regularize_psi(np.array([0.5, -1e-8]), 0.1, 2)


# ---------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(n=4, shape=DISK, psi="1", h=0.1)
    with pytest.raises(ValueError):
        ProblemSpec(n=3, shape=DISK, psi="1", h=0.1)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, shape=DISK, psi="1", h=0.1, eps_schedule=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        ProblemSpec(n=2, shape=DISK, psi="1", h=0.1, eps_schedule=(1e-2, -1e-3))
    with pytest.raises(ValueError):
        ProblemSpec(n=2, shape=DISK, psi="1", h=0.1, eps_schedule=())
    with pytest.raises(ValueError):
        ProblemSpec(n=2, shape=DISK, psi="1", h=0.1,
                    newton=NewtonParams(tol_residual=0.0))


# ---------------------------------------------------------------- residual


def test_residual_cap_discretization_error():
    # exact sphere-cap values solve the continuum problem; what is left is
    # stencil truncation, first order at the boundary-cut nodes
    for h, bound in ((1 / 16, None), (1 / 32, None)):
        grid = build_grid(DISK, h)
        spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
        res = residual(spec, grid, exact_cap(grid), 0.0)
        assert np.abs(res).max() <= 2.0 * h


def test_residual_sign_for_steep_cap():
    # a cap strictly more curved than the data is a subsolution: G >= psi
    grid = build_grid(DISK, 1 / 16)
    spec = ProblemSpec(n=2, shape=DISK, psi="0.01", h=1 / 16)
    res = residual(spec, grid, cap_function(grid, 1.0), 0.0)
    assert res.min() > 0.0


def test_residual_finite_with_eps():
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 8)
    res = residual(spec, grid, cap_function(grid, 0.525), 1e-2)
    assert np.all(np.isfinite(res))


def test_residual_nonadmissible_reports_node():
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8)
    with pytest.raises(NotAdmissible) as exc:
        residual(spec, grid, np.zeros(grid.size), 0.0)
    assert exc.value.node is not None
    assert exc.value.margin <= 0.0


# ---------------------------------------------------------------- jacobian


def _operators(grid):
    """(Dx, D2): the (m, m) slot blocks of the stacked operator, read in its
    documented order (Hessian entries i <= j row-major, then the gradient)."""
    ops, n, m = grid.ops(), grid.n, grid.size
    hess = [(i, j) for i in range(n) for j in range(i, n)]
    blocks = [ops[k * m:(k + 1) * m] for k in range(len(hess) + n)]
    return blocks[len(hess):], dict(zip(hess, blocks))


def _perturbed_state(grid, scale=0.01):
    x = grid.pos
    bump = (grid.shape.r0**2 - np.sum(x**2, axis=1)) * np.sin(
        3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
    return cap_function(grid, 0.7 * 2 * grid.shape.r0) + scale * bump


@pytest.mark.parametrize(
    "shape,n,h,psi,eps",
    [
        (DISK, 2, 1 / 8, "1", 0.0),
        (DISK, 2, 1 / 8, "1 + x1^2/2 + exp(z)/4 + nu1^2/8", 0.0),
        (DISK, 2, 1 / 8, "r^2", 1e-2),
        (BALL, 3, 1 / 5, "8 + x2^2 + exp(z)/2 + nu2^2/4", 1e-1),
    ],
)
def test_jacobian_directional_fd(shape, n, h, psi, eps):
    grid = build_grid(shape, h)
    spec = ProblemSpec(n=n, shape=shape, psi=psi, h=h)
    u = _perturbed_state(grid)
    J = jacobian(spec, grid, u, eps)
    rng = np.random.default_rng(55)
    t = 1e-6
    for _ in range(5):
        delta = rng.standard_normal(grid.size)
        delta /= np.abs(delta).max()
        fd = (residual(spec, grid, u + t * delta, eps)
              - residual(spec, grid, u - t * delta, eps)) / (2 * t)
        jd = J @ delta
        assert np.linalg.norm(fd - jd) / np.linalg.norm(jd) <= 1e-5


def test_jacobian_random_admissible_states():
    # the acceptance-level oracle at a smaller budget: many random states
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="1 + exp(z)/4 + nu2^2/8", h=1 / 8)
    rng = np.random.default_rng(7121)
    t = 1e-6
    for trial in range(20):
        u = _perturbed_state(grid, scale=0.002 * rng.uniform(0.1, 1.0))
        J = jacobian(spec, grid, u, 1e-3)
        delta = rng.standard_normal(grid.size)
        delta /= np.abs(delta).max()
        fd = (residual(spec, grid, u + t * delta, 1e-3)
              - residual(spec, grid, u - t * delta, 1e-3)) / (2 * t)
        jd = J @ delta
        assert np.linalg.norm(fd - jd) / np.linalg.norm(jd) <= 1e-5


def test_jacobian_z_term_is_pure_diagonal():
    # identical geometry, psi differing only through z: the Jacobians differ
    # by exactly the diagonal d(psi_eps^{1/n})/dz term
    grid = build_grid(DISK, 1 / 8)
    u = _perturbed_state(grid)
    eps = 0.05
    spec_a = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8)
    spec_b = ProblemSpec(n=2, shape=DISK, psi="1 - z", h=1 / 8)
    Ja = jacobian(spec_a, grid, u, eps)
    Jb = jacobian(spec_b, grid, u, eps)
    diff = (Jb - Ja).toarray()
    p, _ = all_derivatives(grid, u)
    psi_vals = 1.0 - u
    droot = 0.5 * (psi_vals + eps) ** (-0.5) * (-1.0)
    expect = np.diag(-droot)
    assert np.abs(diff - expect).max() <= 1e-12 * np.abs(expect).max()


def test_jacobian_rowsum_matches_laplacian_at_identity_state():
    # at p = 0, r = I (n = 3) the Hessian coefficients collapse to 8*delta_ij,
    # so the Jacobian row is (1/3)G^(-2/3)*8 times the Laplacian row
    h = 0.25
    grid = build_grid(BALL, h)
    spec = ProblemSpec(n=3, shape=BALL, psi="1", h=h)
    u = 0.5 * (np.sum(grid.pos**2, axis=1) - BALL.r0**2)
    center = int(np.argmin(np.sum(grid.pos**2, axis=1)))
    assert np.linalg.norm(grid.pos[center]) == 0.0
    J = jacobian(spec, grid, u, 0.0).toarray()
    _, D2 = _operators(grid)
    lap = sum(D2[(i, i)].toarray() for i in range(3))
    alpha = (1.0 / 3.0) * 8.0 ** (1.0 / 3.0 - 1.0)
    assert np.abs(J[center] - alpha * 8.0 * lap[center]).max() <= 1e-10


def test_jacobian_gs_block_matters_on_sloped_state():
    # on a sloped state the gradient-stencil term sum_s diag(alpha G^s_s) Dx[s]
    # is far above the directional-difference tolerance, so the check catches
    # a Jacobian that drops it
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8)
    u = _perturbed_state(grid)
    J = jacobian(spec, grid, u, 0.0)
    delta = np.random.default_rng(200).standard_normal(grid.size)
    delta /= np.abs(delta).max()
    t = 1e-6
    fd = (residual(spec, grid, u + t * delta, 0.0)
          - residual(spec, grid, u - t * delta, 0.0)) / (2 * t)
    jd = J @ delta
    tol = 1e-5 * np.linalg.norm(jd)
    assert np.linalg.norm(fd - jd) <= tol

    geo = batch_geometry(*all_derivatives(grid, u))
    alpha = 0.5 * geo.K_eta ** (-0.5)
    Dx, _ = _operators(grid)
    gs = sum(alpha * geo.Gs[:, s] * (Dx[s] @ delta) for s in range(2))
    assert np.linalg.norm(gs) >= 100.0 * tol
    assert np.linalg.norm(fd - (jd - gs)) >= 100.0 * tol


def test_add_coefficients_completes_plain_geometry():
    for shape, h in ((DISK, 1 / 8), (BALL, 1 / 5)):
        grid = build_grid(shape, h)
        p, r = all_derivatives(grid, _perturbed_state(grid))
        full = batch_geometry(p, r, coeffs=True)
        plain = batch_geometry(p, r, coeffs=False)
        assert plain.G2 is None
        geometry.add_coefficients(plain, p)
        for name in ("f_i", "F", "G2", "Gs"):
            assert np.array_equal(getattr(plain, name), getattr(full, name))


def test_jacobian_with_carried_state_equals_fresh():
    cases = ((DISK, 2, 1 / 8, "1 + x1^2/2 + exp(z)/4 + nu1^2/8", 0.0),
             (BALL, 3, 1 / 5, "8 + x2^2 + exp(z)/2 + nu2^2/4", 1e-1))
    for shape, n, h, psi, eps in cases:
        grid = build_grid(shape, h)
        spec = ProblemSpec(n=n, shape=shape, psi=psi, h=h)
        u = _perturbed_state(grid)
        _, _, state = solver._residual_and_margin(spec, grid, u, eps)
        carried = jacobian(spec, grid, u, eps, state)
        fresh = jacobian(spec, grid, u, eps)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(carried, attr), getattr(fresh, attr))


def _csr_sum_jacobian(spec, grid, u, eps):
    """Reference J: the operators' row-weighted sum by CSR additions."""
    p, _, geo = solver._residual_and_margin(spec, grid, u, eps)[2]
    geometry.add_coefficients(geo, p)
    n, m = spec.n, grid.size
    Dx, D2 = _operators(grid)
    alpha = (1.0 / n) * geo.K_eta ** (1.0 / n - 1.0)
    _, dz, dp = solver._psi_eps_root(spec, grid, u, p, eps, derivs=True)
    J = scipy.sparse.csr_matrix((m, m))
    for i in range(n):
        for j in range(i, n):
            wgt = alpha * geo.G2[:, i, j] * (1.0 if i == j else 2.0)
            J = J + scipy.sparse.diags(wgt) @ D2[(i, j)]
    for s in range(n):
        wgt = -dp[:, s] + alpha * geo.Gs[:, s]
        J = J + scipy.sparse.diags(wgt) @ Dx[s]
    return (J - scipy.sparse.diags(dz)).tocsr()


def _newton_step(spec, grid, u, eps):
    """u + s du for the largest s in {1, 1/2, ...} that stays admissible."""
    J = jacobian(spec, grid, u, eps)
    du = scipy.sparse.linalg.spsolve(J.tocsc(), -residual(spec, grid, u, eps))
    s = 1.0
    while True:
        try:
            residual(spec, grid, u + s * du, eps)
            return u + s * du
        except NotAdmissible:
            s *= 0.5


def test_jacobian_fixed_pattern_equals_csr_sum():
    cases = ((DISK, 2, 1 / 16, "1 + x1^2/2 + exp(z)/4 + nu1^2/8", 1e-2),
             (BALL, 3, 1 / 6, "8 + x2^2 + exp(z)/2 + nu2^2/4", 1e-1))
    for shape, n, h, psi, eps in cases:
        grid = build_grid(shape, h)
        spec = ProblemSpec(n=n, shape=shape, psi=psi, h=h)
        u0 = initial_guess(spec, grid)
        u1 = _newton_step(spec, grid, u0, eps)
        assert np.abs(u1 - u0).max() > 0.0
        pattern = None
        for u in (u0, u1):
            J = jacobian(spec, grid, u, eps)
            ref = _csr_sum_jacobian(spec, grid, u, eps)
            # same values bit for bit; J also keeps the entries that cancel
            assert np.array_equal(J.toarray(), ref.toarray())
            assert J.nnz >= ref.nnz
            if pattern is None:
                pattern = J.indices, J.indptr
            assert np.array_equal(J.indices, pattern[0])
            assert np.array_equal(J.indptr, pattern[1])


# ---------------------------------------------------------------- newton


def test_newton_computes_one_geometry_per_trial(monkeypatch):
    # the start residual and each line-search trial compute the geometry;
    # the Jacobian of an accepted trial reuses it
    grid = build_grid(DISK, 1 / 32)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 32)
    geo_calls, jac_calls = [], []
    real_geo, real_jac = solver.batch_geometry, solver.jacobian

    def spy_geo(*args, **kwargs):
        geo_calls.append(kwargs.get("coeffs", True))
        return real_geo(*args, **kwargs)

    def spy_jac(*args, **kwargs):
        jac_calls.append(args[4] if len(args) > 4 else kwargs.get("state"))
        return real_jac(*args, **kwargs)

    monkeypatch.setattr(solver, "batch_geometry", spy_geo)
    monkeypatch.setattr(solver, "jacobian", spy_jac)
    _, hist = newton_solve(spec, grid, cap_function(grid, 0.6), 0.0)
    steps = [row[2] for row in hist[1:]]
    trials = sum(1 + round(-np.log2(s)) for s in steps)
    assert trials > len(steps)  # some trial steps were rejected
    assert len(jac_calls) == len(steps)
    assert all(state is not None for state in jac_calls)
    assert len(geo_calls) == 1 + trials
    assert not any(geo_calls)  # the coefficients are added, never recomputed




def test_newton_cap_fixture():
    h = 1 / 32
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    u, hist = newton_solve(spec, grid, cap_function(grid, 1.2), 0.0)
    iters = len(hist) - 1
    assert iters <= 12
    assert hist[-1][0] <= 1e-10
    assert np.abs(u - exact_cap(grid)).max() <= 8e-3
    # merit monotonicity: accepted 2-norms strictly decrease
    two = [row[1] for row in hist]
    assert all(b < a for a, b in zip(two, two[1:]))
    # admissibility margin positive at every accepted iterate
    assert all(row[3] > 0.0 for row in hist)


def test_newton_quadratic_convergence():
    h = 1 / 32
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    _, hist = newton_solve(spec, grid, cap_function(grid, 1.2), 0.0)
    two = [row[1] for row in hist]
    checked = 0
    for a, b in zip(two, two[1:]):
        if a <= 1e-3:
            assert b <= max(10.0 * a * a, 1e-12)
            checked += 1
    assert checked >= 1


def test_newton_warm_start_single_iteration():
    h = 1 / 16
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    u, _ = newton_solve(spec, grid, cap_function(grid, 1.2), 0.0)
    u2, hist2 = newton_solve(spec, grid, u, 0.0)
    assert len(hist2) - 1 == 1
    assert hist2[-1][2] == 1.0
    assert np.abs(u2 - u).max() <= 1e-10


def test_newton_nonadmissible_start():
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8)
    with pytest.raises(NotAdmissible):
        newton_solve(spec, grid, np.zeros(grid.size), 0.0)


def test_newton_eps_zero_needs_positive_psi():
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 8)
    with pytest.raises(SolverFailure, match="eps = 0 requires psi > 0"):
        newton_solve(spec, grid, cap_function(grid, 0.525), 0.0)


def test_newton_z_dependent_psi_converges():
    h = 1 / 16
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1 + exp(z)/4", h=h)
    u, hist = newton_solve(spec, grid, cap_function(grid, 0.6), 1e-2)
    assert hist[-1][0] <= 1e-10


def _counting_splu(monkeypatch):
    calls = []
    real = scipy.sparse.linalg.splu

    def counting(A, *args, **kwargs):
        calls.append(A.nnz)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    return calls


def test_continuation_reuses_factorization(monkeypatch):
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 32)
    calls = _counting_splu(monkeypatch)
    u, report = continuation_solve(spec)
    iters = [st.iterations for st in report.stages]
    assert len(calls) < sum(iters)
    assert sum(st.factorizations for st in report.stages) == len(calls)
    assert sum(st.krylov_iters for st in report.stages) > 0

    # the same solve with every reuse declined factorizes at every iteration
    monkeypatch.setattr(solver._Factorization, "reuse",
                        lambda self, J, res: None)
    calls.clear()
    u_direct, direct = continuation_solve(spec)
    assert [st.iterations for st in direct.stages] == iters
    assert len(calls) == sum(iters)
    assert len(set(calls)) == 1  # J's pattern does not depend on the iterate
    assert all(st.krylov_iters == 0 for st in direct.stages)
    assert np.abs(u - u_direct).max() <= 1e-12


def test_newton_refactors_when_stale_lu_misses_contract():
    h = 1 / 32
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    u0 = cap_function(grid, 1.2)
    J0 = jacobian(spec, grid, u0, 0.0)
    res0 = residual(spec, grid, u0, 0.0)
    noise = np.random.default_rng(3).uniform(-1.0, 1.0, grid.size)
    bad = J0 + scipy.sparse.diags(10.0 * abs(J0).max() * noise)
    held = solver._Factorization(grid)
    stale = held.lu = held.factorize(bad)
    assert solver._linear_residual(J0, held.reuse(J0, res0), res0)[1]

    u, hist = newton_solve(spec, grid, u0, 0.0, held)
    u_ref, hist_ref = newton_solve(spec, grid, u0, 0.0)
    assert held.lu is not stale
    assert held.factorizations >= 1
    assert len(hist) == len(hist_ref)
    assert np.abs(u - u_ref).max() <= 1e-12


def test_nested_dissection_cuts_fill_and_meets_contract():
    h = 1 / 12
    grid = build_grid(BALL, h)
    spec = ProblemSpec(n=3, shape=BALL, psi="8", h=h)
    u0 = initial_guess(spec, grid)
    J = jacobian(spec, grid, u0, 0.1)
    res = residual(spec, grid, u0, 0.1)
    held = solver._Factorization(grid)
    held.lu = held.factorize(J)
    assert held.lu.nnz < scipy.sparse.linalg.splu(J.tocsc()).nnz
    assert not solver._linear_residual(J, held.apply(-res), res)[1]


def test_newton_corrupted_factorization_raises(monkeypatch):
    h = 1 / 16
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    real = scipy.sparse.linalg.splu

    def corrupted(A, *args, **kwargs):
        shift = scipy.sparse.diags(np.full(A.shape[0], 1e-3 * abs(A).max()))
        return real((A + shift).tocsc(), *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", corrupted)
    with pytest.raises(LinearSolveFailure, match="1e-12 contract"):
        newton_solve(spec, grid, cap_function(grid, 1.2), 0.0)


# ---------------------------------------------------------------- guess


def test_initial_guess_first_dominating_cap():
    grid = build_grid(DISK, 1 / 16)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16)
    np.testing.assert_array_equal(initial_guess(spec, grid),
                                  cap_function(grid, 0.525))


def test_initial_guess_n3():
    grid = build_grid(BALL, 1 / 8)
    spec = ProblemSpec(n=3, shape=BALL, psi="8", h=1 / 8)
    np.testing.assert_array_equal(initial_guess(spec, grid),
                                  cap_function(grid, 0.525))


def test_initial_guess_fallback_warns():
    # the warning is a line of text for SolveReport.warnings, not a Python
    # warning
    grid = build_grid(DISK, 1 / 16)
    spec = ProblemSpec(n=2, shape=DISK, psi="1000", h=1 / 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u0 = initial_guess(spec, grid)
    np.testing.assert_array_equal(u0, cap_function(grid, 0.525))
    assert solver._auto_cap(spec, grid) == (
        0.525, "no cap dominates psi; starting from the steepest cap")


def test_initial_guess_subsolution_sampled_verbatim():
    grid = build_grid(DISK, 1 / 16)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16,
                       subsolution="x1^2 + x2^2 - 0.25")
    u0 = initial_guess(spec, grid)
    expect = np.sum(grid.pos**2, axis=1) - 0.25
    np.testing.assert_allclose(u0, expect, atol=1e-15)


def test_initial_guess_rejects_bad_subsolution():
    grid = build_grid(DISK, 1 / 16)
    # far too shallow to dominate psi = 1
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16,
                       subsolution="-sqrt(4 - r^2) + sqrt(3.75)")
    with pytest.raises(ValueError):
        initial_guess(spec, grid)


def test_initial_guess_rejects_z_dependence():
    grid = build_grid(DISK, 1 / 16)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16, subsolution="z")
    with pytest.raises(ValueError):
        initial_guess(spec, grid)


# ---------------------------------------------------------------- schedule


def test_effective_schedule_keeps_zero_for_positive_psi():
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8,
                       eps_schedule=(1e-1, 1e-2, 1e-3, 0.0))
    assert effective_schedule(spec, grid) == ((1e-1, 1e-2, 1e-3, 0.0), None)


def test_effective_schedule_replaces_zero_when_psi_vanishes():
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 8,
                       eps_schedule=(1e-1, 1e-2, 1e-3, 1e-4, 0.0))
    sched, note = effective_schedule(spec, grid)
    assert sched == (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    assert note.endswith("final stage runs at eps=1e-05 instead of 0")


# ---------------------------------------------------------------- continuation


def test_continuation_cap():
    h = 1 / 32
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h,
                       eps_schedule=(1e-1, 1e-2, 1e-3, 0.0))
    u, report = continuation_solve(spec)
    grid = build_grid(DISK, h)
    assert np.abs(u - exact_cap(grid)).max() <= 8e-3
    assert len(report.stages) == 4
    assert report.final.eps == 0.0
    for st in report.stages:
        assert st.residual_norms[-1] <= 1e-10
        assert st.min_margin > 0.0
    assert report.warnings == []


def test_continuation_reports_eps_replacement():
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the report is the one channel
        _, report = continuation_solve(spec)
    assert report.final.eps == 1e-5
    assert len(report.warnings) == 1
    assert report.warnings[0].endswith("final stage runs at eps=1e-05 instead of 0")


def test_continuation_degenerate_metrics_settle():
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 32)
    u, report = continuation_solve(spec)
    assert report.final.eps == 1e-5 and len(report.warnings) == 1
    a, b = report.stages[-2], report.stages[-1]
    assert abs(b.sup_d2u - a.sup_d2u) / a.sup_d2u < 0.10
    assert abs(b.sup_du - a.sup_du) / a.sup_du < 0.05
    assert abs(b.sup_u - a.sup_u) / a.sup_u < 0.05


def test_continuation_n3_center_value():
    spec = ProblemSpec(n=3, shape=BALL, psi="8", h=1 / 8)
    u, report = continuation_solve(spec)
    grid = build_grid(BALL, 1 / 8)
    center = int(np.argmin(np.sum(grid.pos**2, axis=1)))
    assert abs(u[center] - (np.sqrt(0.75) - 1.0)) <= 5e-3


def test_continuation_propagates_negative_psi():
    spec = ProblemSpec(n=2, shape=DISK, psi="-1", h=1 / 8)
    with pytest.raises(NegativePsi):
        continuation_solve(spec)


# ---------------------------------------------------------------- output


def test_write_solution_computes_state_once(monkeypatch, tmp_path):
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16)
    grid = build_grid(DISK, 1 / 16)
    u = exact_cap(grid)
    calls = []
    real_derivs, real_geo = solver.all_derivatives, solver.batch_geometry

    def spy_derivs(*args, **kwargs):
        calls.append("derivs")
        return real_derivs(*args, **kwargs)

    def spy_geo(*args, **kwargs):
        calls.append("geo")
        return real_geo(*args, **kwargs)

    monkeypatch.setattr(solver, "all_derivatives", spy_derivs)
    monkeypatch.setattr(solver, "batch_geometry", spy_geo)
    text = write_solution(tmp_path / "a.dat", spec, grid, u)
    assert calls == ["derivs", "geo"]
    # the residual column is the residual of u
    body = [ln.split() for ln in text.splitlines() if not ln.startswith("#")]
    res = np.array([float(row[-1]) for row in body])
    assert np.array_equal(res, residual(spec, grid, u, 0.0))


def test_write_solution_roundtrip(tmp_path):
    h = 1 / 16
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h,
                       eps_schedule=(1e-1, 0.0))
    u, report = continuation_solve(spec)
    grid = build_grid(DISK, h)
    f1 = tmp_path / "a.dat"
    f2 = tmp_path / "b.dat"
    t1 = write_solution(f1, spec, grid, u, report, config_echo=("psi = 1",))
    t2 = write_solution(f2, spec, grid, u, report, config_echo=("psi = 1",))
    assert t1 == t2
    assert f1.read_text() == f2.read_text()
    lines = t1.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == grid.size
    assert any("psi = 1" in ln for ln in header)
    # n=2 columns: x1 x2 u du1 du2 d2u11 d2u12 d2u22 k1 k2 Keta residual
    assert all(len(ln.split()) == 12 for ln in body)
    vals = np.array([ln.split() for ln in body], dtype=float)
    np.testing.assert_allclose(vals[:, 2], u, rtol=0, atol=0)
