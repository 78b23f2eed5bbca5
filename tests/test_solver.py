"""Newton solver: residual/Jacobian correctness, damping, continuation."""

import os
import re
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from etacurv import cli, decimal17, geometry, grid as grid_module, solver
from etacurv.certify import standard_certificates
from etacurv.cones import NotAdmissible
from etacurv.domain import DomainShape
from etacurv.geometry import batch_geometry
from etacurv.grid import all_derivatives, build_grid, coarse_level
from etacurv.radial import shoot
from etacurv.solver import (
    LinearSolveFailure,
    NegativePsi,
    ProblemSpec,
    SolverFailure,
    Stagnation,
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
BALL4 = DomainShape(semiaxes=(0.5,) * 4)


def eps_path(report):
    """The eps path of a nested solve, coarsest level first: each level's
    stages before the next finer level's join, then the finest's stages."""
    levels = report.levels[::-1]
    joins = [finer.stages[0].eps for finer in levels[1:]] + [-1.0]
    return [st.eps for level, join in zip(levels, joins)
            for st in level.stages if st.eps > join]


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
        ProblemSpec(n=1, shape=DISK, psi="1", h=0.1)
    with pytest.raises(ValueError):
        ProblemSpec(n=3, shape=DISK, psi="1", h=0.1)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, shape=DISK, psi="1", h=0.1, eps_schedule=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        ProblemSpec(n=2, shape=DISK, psi="1", h=0.1, eps_schedule=(1e-2, -1e-3))
    with pytest.raises(ValueError):
        ProblemSpec(n=2, shape=DISK, psi="1", h=0.1, eps_schedule=())


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



# ---------------------------------------------------------------- _evaluate


def test_evaluate_below_floor_skips_psi(monkeypatch):
    # the cap of radius 0.525 scaled by 1e-13 is inside the cone (margin
    # about 1.9e-13), but not by CONE_FLOOR (1 + sigma_1): the floor test
    # fails before psi
    grid = build_grid(DISK, 1 / 16)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16)
    cap = cap_function(grid, 0.525)
    u = 1e-13 * cap
    psi_calls = []
    real_evaluate = solver.evaluate

    def spy(*args, **kwargs):
        psi_calls.append(1)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(solver, "evaluate", spy)
    res, (p, r, geo, psi), _ = solver._evaluate(spec, grid, u, 0.0)
    assert res is None and psi is None and psi_calls == []
    assert geo.margin.min() > 0.0
    assert np.array_equal(p, all_derivatives(grid, u)[0])
    # the unscaled cap passes, in a trial's evaluation and in residual
    # alike, evaluating psi once each
    trial, _, _ = solver._evaluate(spec, grid, cap, 0.0)
    assert len(psi_calls) == 1
    assert np.array_equal(residual(spec, grid, cap, 0.0), trial)
    assert len(psi_calls) == 2


def test_evaluate_strict_names_worst_node():
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8)
    u = cap_function(grid, 0.525)
    u[int(np.argmin(np.sum(grid.pos**2, axis=1)))] += 0.05  # a spike
    geo = batch_geometry(*all_derivatives(grid, u), coeffs=False)
    worst = int(np.argmin(geo.margin / geo.cone_scale))
    assert geo.margin[worst] <= 0.0
    with pytest.raises(NotAdmissible) as exc:
        solver._admissible(spec, grid, u, 0.0)
    assert exc.value.node == worst
    assert exc.value.margin == float(geo.margin[worst])


def test_start_inside_the_cone_but_below_its_floor_is_rejected():
    # the start is held to the line search's floor: a margin in (0,
    # CONE_FLOOR (1 + |sigma_1|)) passed the start's old test, margin > 0
    grid = build_grid(DISK, 1 / 16)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16)
    u = 1e-13 * cap_function(grid, 0.525)
    geo = batch_geometry(*all_derivatives(grid, u), coeffs=False)
    with pytest.raises(NotAdmissible) as exc:
        newton_solve(spec, grid, u, 0.0)
    node = exc.value.node
    assert 0.0 < exc.value.margin == float(geo.margin[node])
    assert exc.value.margin < solver.CONE_FLOOR * geo.cone_scale[node]


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
        # n = 4 runs the inner loop of F = dK_eta/dA's Horner evaluation
        (BALL4, 4, 1 / 6, "81 + x2^2 + exp(z)/2 + nu5^2/4", 1e-1),
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
        geometry.add_coefficients(plain)
        for name in ("f_i", "F", "G2", "Gs"):
            assert np.array_equal(getattr(plain, name), getattr(full, name))


def test_jacobian_with_carried_state_equals_fresh(monkeypatch):
    # a carried state is used as given: no second derivative product,
    # geometry or cone test
    cases = ((DISK, 2, 1 / 8, "1 + x1^2/2 + exp(z)/4 + nu1^2/8", 0.0),
             (BALL, 3, 1 / 5, "8 + x2^2 + exp(z)/2 + nu2^2/4", 1e-1))
    for shape, n, h, psi, eps in cases:
        grid = build_grid(shape, h)
        spec = ProblemSpec(n=n, shape=shape, psi=psi, h=h)
        u = _perturbed_state(grid)
        res, state, _ = solver._evaluate(spec, grid, u, eps)
        assert res is not None
        with monkeypatch.context() as m:
            m.setattr(solver, "all_derivatives", None)
            m.setattr(solver, "batch_geometry", None)
            carried = jacobian(spec, grid, u, eps, state)
        fresh = jacobian(spec, grid, u, eps)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(carried, attr),
                                  getattr(fresh, attr))


def _csr_sum_jacobian(spec, grid, u, eps):
    """Reference J: the operators' row-weighted sum by CSR additions."""
    p, _, geo, _ = solver._evaluate(spec, grid, u, eps)[1]
    geometry.add_coefficients(geo)
    n, m = spec.n, grid.size
    Dx, D2 = _operators(grid)
    alpha = (1.0 / n) * np.float_power(geo.K_eta, 1.0 / n - 1.0)
    dz, dp = solver._psi_eps_derivs(spec, grid, u, p, eps)
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


def test_jacobian_equals_csr_sum():
    # the 4D ball at h = 1/4 leaves mixed stencils empty
    cases = ((DISK, 2, 1 / 16, "1 + x1^2/2 + exp(z)/4 + nu1^2/8", 1e-2),
             (BALL, 3, 1 / 6, "8 + x2^2 + exp(z)/2 + nu2^2/4", 1e-1),
             (DISK, 2, 1 / 16, "r^2", 1e-2),
             (BALL4, 4, 1 / 4, "81 + x2^2 + exp(z)/2 + nu3^2/4", 1e-1))
    for shape, n, h, psi, eps in cases:
        grid = build_grid(shape, h)
        spec = ProblemSpec(n=n, shape=shape, psi=psi, h=h)
        if n == 4:
            assert grid.mixed_dropped
        u0 = initial_guess(spec, grid)
        u1 = _newton_step(spec, grid, u0, eps)
        assert np.abs(u1 - u0).max() > 0.0
        for u in (u0, u1):
            J = jacobian(spec, grid, u, eps)
            ref = _csr_sum_jacobian(spec, grid, u, eps)
            # the same stored entries, each with the same value bit for bit
            assert J.nnz == ref.nnz
            J.sort_indices()
            ref.sort_indices()
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(J, attr), getattr(ref, attr))


def test_jacobian_skips_psi_duals_for_psi_of_position(monkeypatch):
    # a psi of x alone has derivatives in z and p that vanish identically:
    # the Jacobian takes zero rows for them and evaluates no dual numbers
    calls = []
    real = solver.eval_with_derivs

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "eval_with_derivs", spy)
    grid = build_grid(DISK, 1 / 16)
    for psi, expected in (("1 + r^2", 0), ("1 + r^2 + z^2", 1)):
        spec = ProblemSpec(n=2, shape=DISK, psi=psi, h=1 / 16)
        calls.clear()
        jacobian(spec, grid, initial_guess(spec, grid), 1e-2)
        assert len(calls) == expected, psi


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
    _, stage = newton_solve(spec, grid, cap_function(grid, 0.6), 0.0)
    steps = stage.step_lengths
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
    u, stage = newton_solve(spec, grid, cap_function(grid, 1.2), 0.0)
    assert stage.iterations <= 12
    assert stage.residual_norms[-1] <= 1e-10
    assert np.abs(u - exact_cap(grid)).max() <= 8e-3
    # merit monotonicity: accepted 2-norms strictly decrease
    two = stage.residual_2norms
    assert all(b < a for a, b in zip(two, two[1:]))
    # admissibility margin positive at every accepted iterate
    assert all(m > 0.0 for m in stage.margins)


def test_newton_quadratic_convergence():
    h = 1 / 32
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    _, stage = newton_solve(spec, grid, cap_function(grid, 1.2), 0.0)
    two, norms = stage.residual_2norms, stage.residual_norms
    floor = solver.STOP_FLOOR * solver.TOL_RESIDUAL
    checked = floored = 0
    for k, (a, b) in enumerate(zip(two, two[1:])):
        if stage.linear_targets[k] == floor:
            # the equation's target is the stop floor, not the forcing
            # term: this step is inexact on purpose, solved only as far as
            # the stop test ||F||_inf <= TOL_RESIDUAL can use
            assert norms[k + 1] <= solver.TOL_RESIDUAL
            assert stage.linear_residuals[k] <= floor
            floored += 1
        else:
            # the last step here whose ||F|| <= 1e-3 is the floored one,
            # so every forcing-target step is held to the quadratic bound
            assert b <= max(10.0 * a * a, 1e-12)
            checked += 1
    assert checked >= 1 and floored == 1


def test_newton_warm_start_single_iteration():
    h = 1 / 16
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    u, _ = newton_solve(spec, grid, cap_function(grid, 1.2), 0.0)
    u2, stage = newton_solve(spec, grid, u, 0.0)
    assert stage.iterations == 1
    assert stage.step_lengths[-1] == 1.0
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
    u, stage = newton_solve(spec, grid, cap_function(grid, 0.6), 1e-2)
    assert stage.residual_norms[-1] <= 1e-10


def _counting_splu(monkeypatch):
    calls = []
    real = scipy.sparse.linalg.splu

    def counting(A, *args, **kwargs):
        calls.append(A.shape)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    return calls


def _omega(J, du, res):
    """The backward error of du as a solution of J du = -res."""
    return solver._backward_error(np.abs(J @ du + res).max(),
                                  abs(J).sum(axis=1).max(), du, res)


@pytest.mark.parametrize("shape, psi, h", [
    (DISK, "1", 1 / 64), (BALL, "8", 1 / 24), (BALL4, "81", 1 / 12)])
def test_jacobian_norm_sums_the_rows_in_place(shape, psi, h):
    # norm_inf sums |J.data| row by row without building abs(J): bitwise
    # the old abs(J).sum(axis=1).max(), row for row, and read back for the
    # same J
    grid = build_grid(shape, h)
    spec = ProblemSpec(n=shape.n, shape=shape, psi=psi, h=h)
    J = jacobian(spec, grid, cap_function(grid, 0.6), 0.0)
    sums = np.asarray(abs(J).sum(axis=1)).ravel()
    np.testing.assert_array_equal(
        np.add.reduceat(np.abs(J.data), J.indptr[:-1]), sums)
    held = solver._Factorization(grid)
    norm = held.norm_inf(J)
    assert norm == sums.max()
    assert held.norm_inf(J) is norm
    assert held.norm_inf(J.copy()) == norm


def test_jacobian_norm_reads_an_empty_row_as_zero():
    # np.add.reduceat over every row's start would give an empty first row
    # the next row's first value, and raise IndexError at an empty last row
    J = scipy.sparse.csr_matrix(np.array([[0.0, 0.0, 0.0],
                                          [-2.0, 0.5, 0.0],
                                          [0.0, 0.0, 0.0]]))
    assert list(np.diff(J.indptr)) == [0, 2, 0]
    assert solver._Factorization(None).norm_inf(J) == 2.5
    empty = scipy.sparse.csr_matrix((2, 2))
    assert solver._Factorization(None).norm_inf(empty) == 0.0


def test_continuation_reuses_factorization(monkeypatch):
    # h = 1/32 is solved on two levels, h = 1/16 below it; counted over
    # both, the solve factorizes less often than it iterates
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 32)
    calls = _counting_splu(monkeypatch)
    u, report = continuation_solve(spec)
    stages = [st for level in report.levels for st in level.stages]
    iters = [st.iterations for st in stages]
    assert len(report.levels) == 2
    assert len(calls) < sum(iters)
    assert sum(st.factorizations for st in stages) == len(calls)
    assert sum(st.refinements for st in stages) > 0

    # the same solve with every reuse declined factorizes at every
    # iteration: the h = 1/32 level, which holds the two-grid, factorizes
    # A_c and then, as the fresh two-grid declines too, J (a fallback);
    # the coarsest level, which holds the LU, factorizes J
    monkeypatch.setattr(solver._Factorization, "reuse",
                        lambda self, J, res, target=0.0: None)
    calls.clear()
    u_direct, direct = continuation_solve(spec)
    fine, coarsest = direct.levels
    stages = fine.stages + coarsest.stages
    assert [st.iterations for st in stages] == iters
    fine_iters = sum(st.iterations for st in fine.stages)
    assert sum(st.fallbacks for st in fine.stages) == fine_iters
    assert sum(st.factorizations for st in stages) == len(calls)
    # each factorized once an iteration of its level, counted by shape: the
    # fine J's, and the 193-node coarse grid's, which the fine level's A_c
    # and the coarsest level's J share
    assert Counter(calls) == {(793, 793): fine_iters, (193, 193): sum(iters)}
    assert all(st.refinements == 0 for st in stages)
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
    assert _omega(J0, held.apply(-res0), res0) > solver.OMEGA_MAX
    assert held.reuse(J0, res0) is None

    u, stage = newton_solve(spec, grid, u0, 0.0, held)
    u_ref, stage_ref = newton_solve(spec, grid, u0, 0.0)
    assert held.lu is not stale
    assert held.factorizations >= 1
    assert stage.iterations == stage_ref.iterations
    assert np.abs(u - u_ref).max() <= 1e-12


def test_refinement_on_held_lu_meets_contract_or_declines():
    h = 1 / 32
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)

    def equation(R):
        u = cap_function(grid, R)
        return jacobian(spec, grid, u, 0.0), residual(spec, grid, u, 0.0)

    J, res = equation(1.2)
    held = solver._Factorization(grid)
    held.lu = held.factorize(J)
    direct = held.apply(-res)
    # GCR on an LU of a nearby Jacobian meets the contract without a new
    # one, and so it does on one of a far Jacobian
    for R, steps in ((1.19, 4), (0.6, 22)):
        held = solver._Factorization(grid)
        held.lu = held.factorize(equation(R)[0])
        du, reached = held.solve(J, res)
        assert reached == np.abs(J @ du + res).max()
        assert (held.factorizations, held.refinements) == (0, steps)
        assert _omega(J, du, res) <= solver.OMEGA_MAX
        assert np.abs(du - direct).max() <= 1e-10 * np.abs(direct).max()
    # a noisy LU stalls: GCR would need about 800 steps
    noise = np.random.default_rng(3).uniform(-1.0, 1.0, grid.size)
    held = solver._Factorization(grid)
    held.lu = held.factorize(J + scipy.sparse.diags(
        10.0 * abs(J).max() * noise))
    assert held.reuse(J, res) is None
    assert held.refinements == 1


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
    assert _omega(J, held.apply(-res), res) <= solver.OMEGA_MAX


def test_newton_corrupted_factorization_raises(monkeypatch):
    h = 1 / 16
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    real = scipy.sparse.linalg.splu

    def corrupted(A, *args, **kwargs):
        shift = scipy.sparse.diags(np.full(A.shape[0], 1e-3 * abs(A).max()))
        return real((A + shift).tocsc(), *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", corrupted)
    with pytest.raises(LinearSolveFailure, match="backward error .* exceeds"):
        newton_solve(spec, grid, cap_function(grid, 1.2), 0.0)


def test_backward_error_contract_holds_on_fine_single_level_mesh(monkeypatch):
    # J's condition number grows like h^-2, so the old relative-residual
    # contract ||J du + r||_2 <= 1e-12 ||r||_2 rejected the backward-stable
    # direct solves of this mesh; the normwise backward error does not
    monkeypatch.setattr(solver, "coarse_level", lambda grid, min_nodes: None)
    h = 1 / 80
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    grid = build_grid(DISK, h)
    u, report = continuation_solve(spec, grid)
    assert report.warnings == [] and report.levels == [report]
    assert np.abs(u - exact_cap(grid)).max() <= 1e-5
    u0 = cap_function(grid, 0.525)
    J, res = jacobian(spec, grid, u0, 0.0), residual(spec, grid, u0, 0.0)
    held = solver._Factorization(grid)
    held.lu = held.factorize(J)
    du = held.apply(-res)
    assert _omega(J, du, res) <= solver.OMEGA_MAX
    assert np.linalg.norm(J @ du + res) > 1e-12 * np.linalg.norm(res)


def test_refinement_declines_at_the_first_sweep_that_contracts_too_little(
        monkeypatch):
    # GCR on a held LU goes on while each step cuts omega below
    # CONTRACTION times the last: an LU of the cap at radius 0.9, 3 or 0.6
    # meets the contract for J at 1.2, a noisy one declines after one step
    # past the first, and a held inverse that returns NaN or inf declines
    # at the first
    h = 1 / 32
    grid = build_grid(DISK, h)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)

    def equation(R):
        u = cap_function(grid, R)
        return jacobian(spec, grid, u, 0.0), residual(spec, grid, u, 0.0)

    omegas = []
    real = solver._backward_error

    def recording(*args):
        omegas.append(real(*args))
        return omegas[-1]

    monkeypatch.setattr(solver, "_backward_error", recording)
    J, res = equation(1.2)
    noise = np.random.default_rng(3).uniform(-1.0, 1.0, grid.size)
    bad = J + scipy.sparse.diags(10.0 * abs(J).max() * noise)
    for stale, sweeps in ((equation(0.9)[0], 10), (equation(3.0)[0], 10),
                          (equation(0.6)[0], 22), (bad, None)):
        held = solver._Factorization(grid)
        held.lu = held.factorize(stale)
        omegas.clear()
        solved = held.reuse(J, res)
        ratios = [b / a for a, b in zip(omegas, omegas[1:])]
        if sweeps is None:
            assert solved is None and held.refinements == 1
            assert not ratios[-1] < solver.CONTRACTION
            continue
        du, reached = solved
        assert reached == np.abs(J @ du + res).max()
        assert held.refinements == sweeps == len(ratios)
        assert all(r < solver.CONTRACTION for r in ratios)
        assert omegas[-1] <= solver.OMEGA_MAX
        assert _omega(J, du, res) <= solver.OMEGA_MAX
    for value in (np.nan, np.inf):
        held = solver._Factorization(grid)
        held.lu = held.factorize(J)
        held.apply = lambda b, value=value: np.full_like(b, value)
        assert held.reuse(J, res) is None
        assert held.refinements == 0


# ---------------------------------------------------------------- two-grid


def _level_holder(h):
    """(grid, spec, holder) of the 3D cap problem at spacing h, with the
    holder a nested level gets: the 2h level below it."""
    grid = build_grid(BALL, h)
    spec = ProblemSpec(n=3, shape=BALL, psi="8", h=h)
    return grid, spec, solver._Factorization(
        grid, coarse_level(grid, solver.COARSEST_NODES))


def test_two_grid_meets_contract_on_3d_cap_jacobians():
    # the cycle's contraction does not depend on h: about the same number
    # of cycles on two meshes, one factorization each, of the coarse
    # operator only
    cycles = []
    for h in (1 / 16, 1 / 24):
        grid, spec, held = _level_holder(h)
        u = exact_cap(grid)
        J, res = jacobian(spec, grid, u, 0.0), residual(spec, grid, u, 0.0)
        du, _ = held.solve(J, res)
        assert held.inverse == "two-grid"
        assert (held.factorizations, held.fallbacks) == (1, 0)
        assert held.lu.shape[0] == coarse_level(grid, 0).grid.size
        assert _omega(J, du, res) <= solver.OMEGA_MAX
        cycles.append(held.refinements)
    assert 0 < max(cycles) < 60
    assert abs(cycles[0] - cycles[1]) <= 5


def test_nested_levels_build_each_order_and_transfer_once(monkeypatch):
    # the 3D cap at h = 1/24 solves on three levels: the two finer hold the
    # two-grid and never factorize J, so the finest grid's nested-dissection
    # order is never computed, the h = 1/12 grid's only for the Galerkin
    # operator above it, and the coarsest grid's serves both its own LU and
    # the Galerkin operator of h = 1/12; one coarse_level builds both
    # transfers of each level pair
    dissected, levels = [], []
    real_order, real_level = grid_module.nested_dissection, solver.coarse_level

    def order(grid):
        dissected.append(grid.h)
        return real_order(grid)

    def level(fine, min_nodes):
        built = real_level(fine, min_nodes)
        if built is not None:
            levels.append((built.grid.h, fine.h))
        return built

    monkeypatch.setattr(grid_module, "nested_dissection", order)
    monkeypatch.setattr(solver, "coarse_level", level)
    h = 1 / 24
    _, report = continuation_solve(ProblemSpec(n=3, shape=BALL, psi="8", h=h))
    _, middle, coarsest = report.levels
    for level in (report, middle):
        assert level.final.inverse == "two-grid" and level.final.fallbacks == 0
    assert coarsest.final.inverse == "lu"
    assert coarsest.final.factorizations > 0
    assert dissected == [4 * h, 2 * h]
    assert levels == [(2 * h, h), (4 * h, 2 * h)]


@pytest.mark.parametrize("fault", ["sign", "singular"])
def test_broken_two_grid_falls_back_to_fine_lu(monkeypatch, fault):
    # a coarse LU of the negated operator sends every cycle's correction
    # the wrong way, and a singular one cannot be factorized: each fresh
    # two-grid declines, J is factorized, and the solve still meets the
    # contract and finds the solution of the working two-grid
    h = 1 / 16
    spec = ProblemSpec(n=3, shape=BALL, psi="8", h=h)
    u_ref, ref = continuation_solve(spec)
    real = solver._Factorization.factorize

    def broken(self, A, perm=None):
        if perm is None:  # J, not the two-grid's coarse operator
            return real(self, A)
        if fault == "singular":
            raise RuntimeError("Factor is exactly singular")
        return real(self, -A, perm)

    monkeypatch.setattr(solver._Factorization, "factorize", broken)
    u, report = continuation_solve(spec)
    stage = report.final
    assert ref.final.inverse == "two-grid" and ref.final.fallbacks == 0
    assert stage.fallbacks >= 1 and stage.inverse == "lu"
    assert stage.residual_norms[-1] <= solver.TOL_RESIDUAL
    assert stage.iterations == ref.final.iterations
    assert np.abs(u - u_ref).max() <= 1e-12
    assert report.levels[1].final.fallbacks == 0


def test_three_dimensional_cap_nests_down_to_93_nodes(monkeypatch):
    # the 3D cap at h = 1/24 (7,123 nodes) solves on three levels, down to
    # h = 1/6 (93 nodes; h = 1/3 would have 19): the h = 1/12 level (895)
    # starts prolonged and holds the two-grid over h = 1/6 with no fallback
    # to an LU of its own J; each two-grid level builds P^T once, not once
    # a cycle
    transposes = []
    real = scipy.sparse.csr_matrix.transpose

    def counting(self, *args, **kwargs):
        transposes.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "transpose", counting)
    h = 1 / 24
    _, report = continuation_solve(ProblemSpec(n=3, shape=BALL, psi="8", h=h))
    levels = report.levels
    sizes = [build_grid(BALL, h * 2 ** k).size for k in range(4)]
    assert sizes == [7123, 895, 93, 19]
    assert sizes[2] >= solver.COARSEST_NODES > sizes[3]
    assert len(levels) == 3
    middle = levels[1]
    assert [st.start for st in middle.stages] == ["prolonged"]
    assert middle.final.inverse == "two-grid"
    assert (middle.final.iterations, middle.final.factorizations,
            middle.final.fallbacks) == (3, 1, 0)
    assert levels[2].final.inverse == "lu"
    assert sum(st.refinements for level in levels[:2]
               for st in level.stages) > len(transposes)
    # the level pairs' P, finest first, as the solve builds them before
    # any level solves: (m_fine, m_coarse)
    assert transposes == [(sizes[0], sizes[1]), (sizes[1], sizes[2])]


def test_two_dimensional_levels_hold_the_two_grid():
    # in 2D as in 3D every level with a 2h level below it holds the
    # two-grid, whose A_c on about N/4 nodes fills far less than the fine
    # LU (32,854 against 174,163 nonzeros at h = 1/64), and only the
    # coarsest holds an LU of its own J: h = 1/64, 1/32 and 1/16 here
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 64)
    _, report = continuation_solve(spec)
    levels = report.levels
    assert [len(level.stages) for level in levels] == [1, 1, 1]
    assert [level.final.inverse for level in levels] == [
        "two-grid", "two-grid", "lu"]
    assert all(level.final.fallbacks == 0 for level in levels)


def test_two_grid_steps_do_not_grow_as_the_mesh_is_refined(monkeypatch):
    # mesh independence: on the 2D cap at h = 1/64, 1/128 and 1/256 every
    # level above the coarsest holds the two-grid with no fallback, and no
    # Newton equation of the finest level takes more than 6 GCR steps past
    # its first (2 to 6 measured on each mesh)
    steps = []
    real = solver._Factorization.solve

    def counting(self, J, res, target=0.0):
        before = self.refinements
        solved = real(self, J, res, target)
        steps.append((self.grid.h, self.refinements - before))
        return solved

    monkeypatch.setattr(solver._Factorization, "solve", counting)
    for h in (1 / 64, 1 / 128, 1 / 256):
        steps.clear()
        _, report = continuation_solve(
            ProblemSpec(n=2, shape=DISK, psi="1", h=h))
        levels = report.levels
        for level in levels[:-1]:
            assert level.final.inverse == "two-grid"
            assert level.final.fallbacks == 0
        assert levels[-1].final.inverse == "lu"
        finest = [k for level_h, k in steps if level_h == h]
        assert len(finest) == report.final.iterations
        assert max(finest) <= 6


# ---------------------------------------------------------------- forcing


@pytest.mark.parametrize("n, psi, h", [(2, "1", 1 / 64), (3, "8", 1 / 24)])
def test_newton_equations_meet_their_forcing_targets(monkeypatch, n, psi, h):
    # every Newton equation k carries the target tau_k = max(min(1/10,
    # FORCING ||F_k||) ||F_k||, STOP_FLOOR TOL_RESIDUAL) and its du reaches
    # it, or the backward error OMEGA_MAX comes first; the reports list them
    # in the order solved, coarsest level first
    calls = []
    real = solver._Factorization.solve

    def recording(self, J, res, target=0.0):
        du, reached = real(self, J, res, target)
        calls.append((target, float(np.abs(J @ du + res).max()),
                      _omega(J, du, res)))
        return du, reached

    monkeypatch.setattr(solver._Factorization, "solve", recording)
    shape = DomainShape((0.5,) * n)
    _, report = continuation_solve(ProblemSpec(n=n, shape=shape, psi=psi, h=h))
    stages = [st for level in report.levels[::-1] for st in level.stages]
    targets = [t for st in stages for t in st.linear_targets]
    reached = [r for st in stages for r in st.linear_residuals]
    assert targets == [t for t, _, _ in calls]
    assert reached == [r for _, r, _ in calls]
    for st in stages:
        assert (len(st.linear_targets) == len(st.linear_residuals)
                == st.iterations)
        for norm, target in zip(st.residual_norms, st.linear_targets):
            assert target == max(min(0.1, solver.FORCING * norm) * norm,
                                 solver.STOP_FLOOR * solver.TOL_RESIDUAL)
    assert all(r <= t or omega <= solver.OMEGA_MAX for t, r, omega in calls)
    # the forcing ends some equations early: not every one is solved to 64u
    assert any(omega > solver.OMEGA_MAX for _, _, omega in calls)


# the 3D cap at h = 1/24 takes 9 finest-level GCR steps on the two-grid
# with the forcing target floored at STOP_FLOOR TOL_RESIDUAL: the bound is
# that count plus 2
@pytest.mark.parametrize("n, psi, h, schedule, iterations, cycles", [
    (2, "1", 1 / 64, None, [3, 3, 8], None),
    (3, "8", 1 / 24, None, [3, 3, 6], 11),
    (3, "8", 1 / 40, None, [3, 3, 3, 6], None),
    (2, "r^2", 1 / 64, (1e-1, 1e-2, 1e-3, 1e-4, 0.0), [7, 7, 16], None),
])
def test_inexact_newton_keeps_iteration_counts(n, psi, h, schedule,
                                               iterations, cycles):
    # a looser forcing would save linear sweeps at the cost of Newton
    # iterations; the per-level counts, finest first, are those of Newton
    # with every equation solved to omega <= OMEGA_MAX
    shape = DomainShape((0.5,) * n)
    spec = ProblemSpec(n=n, shape=shape, psi=psi, h=h, eps_schedule=schedule)
    _, report = continuation_solve(spec)
    levels = report.levels
    assert [sum(st.iterations for st in level.stages)
            for level in levels] == iterations
    if cycles is not None:
        assert sum(st.refinements for st in report.stages) <= cycles
    # on the caps, the per-level (factorizations, GCR steps) pin which
    # held inverses are kept and which declined
    counts = {(2, "1", 1 / 64): [(1, 9), (1, 8), (2, 42)],
              (3, "8", 1 / 24): [(1, 9), (1, 9), (1, 22)]}.get((n, psi, h))
    if counts is not None:
        assert [(sum(st.factorizations for st in level.stages),
                 sum(st.refinements for st in level.stages))
                for level in levels] == counts


def test_last_newton_equation_stops_at_the_floor():
    # the equation that ends a stage is solved to STOP_FLOOR TOL_RESIDUAL,
    # not to its far smaller forcing target, and the stop test still
    # holds: on every level and stage of the 3D cap at h = 1/24
    spec = ProblemSpec(n=3, shape=BALL, psi="8", h=1 / 24)
    _, report = continuation_solve(spec)
    floor = solver.STOP_FLOOR * solver.TOL_RESIDUAL
    stages = [st for level in report.levels for st in level.stages]
    assert len(stages) == 3
    for st in stages:
        norm = st.residual_norms[-2]
        assert min(0.1, solver.FORCING * norm) * norm < floor / 100
        assert st.linear_targets[-1] == floor
        assert st.residual_norms[-1] <= solver.TOL_RESIDUAL


def test_floor_cuts_the_sweeps_of_a_creeping_stage():
    # psi = 1e-300 at h = 1/16 falls back to the ladder, whose eps = 0
    # stage creeps by halved steps for 27 iterations on an LU factorized
    # before it; its equations took 276 GCR steps to the forcing targets
    # alone, 122 floored at STOP_FLOOR TOL_RESIDUAL, 55 with GCR in place
    # of stationary refinement, and 19 once the eps before it stop at
    # STAGE_TOL.  The bound allows 2 more steps for other last bits
    _, report = continuation_solve(
        ProblemSpec(n=2, shape=DISK, psi="1e-300", h=1 / 16))
    last = report.final
    assert (last.eps, last.iterations, last.factorizations) == (0.0, 27, 0)
    assert last.refinements <= 19 + 2


def test_two_grid_serves_a_warm_start_from_the_steep_cap():
    # at the automatic cap's Jacobian the cycle contracts omega by only
    # ~0.65 per cycle, just under CONTRACTION, and the first equations'
    # targets are loose: no fallback to a fine LU
    grid, spec, held = _level_holder(1 / 16)
    _, stage = newton_solve(spec, grid, initial_guess(spec, grid), 0.0, held)
    assert stage.residual_norms[-1] <= solver.TOL_RESIDUAL
    assert (stage.inverse, stage.fallbacks) == ("two-grid", 0)


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
    assert effective_schedule(spec, grid)[1] == [
        "no cap dominates psi; starting from the steepest cap"]


def test_cap_note_judges_the_first_eps_run():
    # psi > 0 with no explicit schedule runs eps = 0 first: the steepest
    # cap's curvature product 1/0.525^2 = 3.628... dominates psi = 3.6,
    # though not psi_eps at LADDER's first eps 0.1, and not psi = 3.7
    grid = build_grid(DISK, 1 / 32)
    for psi, notes in (("3.6", []), ("3.7", [
            "no cap dominates psi; starting from the steepest cap"])):
        spec = ProblemSpec(n=2, shape=DISK, psi=psi, h=1 / 32)
        schedules, found = effective_schedule(spec, grid)
        assert schedules[0] == (0.0,)
        assert found == notes


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
    # the default picks the one direct eps = 0 stage, falling back to the
    # ladder; an explicit schedule is kept as written
    grid = build_grid(DISK, 1 / 8)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8)
    assert spec.eps_schedule is None
    assert effective_schedule(spec, grid) == (((0.0,), solver.LADDER), [])
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8,
                       eps_schedule=(1e-1, 1e-2, 1e-3, 0.0))
    assert effective_schedule(spec, grid) == (((1e-1, 1e-2, 1e-3, 0.0),), [])


def test_effective_schedule_replaces_zero_when_psi_vanishes():
    # the default runs the ladder, guarded; so does the explicit ladder
    grid = build_grid(DISK, 1 / 8)
    for sched in (None, solver.LADDER):
        spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 8,
                           eps_schedule=sched)
        got, notes = effective_schedule(spec, grid)
        assert got == ((1e-1, 1e-2, 1e-3, 1e-4, 1e-5),)
        [note] = notes
        assert note.endswith("final stage runs at eps=1e-05 instead of 0")


def test_psi_evaluated_once_at_rest_per_solve(tmp_path, monkeypatch):
    # one rest-state evaluation of psi plans the eps path: none for the
    # automatic cap, one per solve, with or without u0, and one per verify
    at_rest = []
    real = solver.evaluate

    def spy(e, env):
        if np.all(env.z == 0.0) and np.all(env.w == 1.0):
            at_rest.append(e)
        return real(e, env)

    monkeypatch.setattr(solver, "evaluate", spy)
    grid = build_grid(DISK, 1 / 16)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16)
    u0 = initial_guess(spec, grid)
    assert at_rest == []
    u, report = continuation_solve(spec, grid, u0)
    assert at_rest == [spec.psi]
    continuation_solve(spec, grid)
    assert at_rest == [spec.psi] * 2
    path = tmp_path / "cap.dat"
    write_solution(path, spec, grid, u, report)
    cfg = cli.Config({"n": 2, "domain.kind": "ball", "domain.r0": 0.5,
                      "psi": "1", "h": 1 / 16})
    assert cli.cmd_verify(str(path), cfg) == 0
    assert len(at_rest) == 3


# ---------------------------------------------------------------- continuation


def test_continuation_cap():
    # the h = 1/16 level walks the whole schedule, and h = 1/32 joins it at
    # the last eps but one, from prolonged starts
    h = 1 / 32
    schedule = (1e-1, 1e-2, 1e-3, 0.0)
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h, eps_schedule=schedule)
    u, report = continuation_solve(spec)
    grid = build_grid(DISK, h)
    assert np.abs(u - exact_cap(grid)).max() <= 8e-3
    assert [st.eps for st in report.stages] == [1e-3, 0.0]
    assert [st.start for st in report.stages] == ["prolonged"] * 2
    _, coarse = report.levels
    assert [st.eps for st in coarse.stages] == list(schedule)
    for st in report.stages + coarse.stages:
        tol = solver.TOL_RESIDUAL if st.eps == 0.0 else solver.STAGE_TOL
        assert st.tol == tol and st.residual_norms[-1] <= tol
        assert st.min_margin > 0.0
    assert report.warnings == []


@pytest.mark.parametrize("n, psi, h", [(2, "1", 1 / 32), (2, "1", 1 / 64),
                                     (3, "8", 1 / 16)])
def test_default_schedule_solves_caps_in_one_stage(n, psi, h):
    # psi > 0: one eps = 0 stage, as accurate as the ladder's solve
    shape = DomainShape((0.5,) * n)
    grid = build_grid(shape, h)
    (u, report), (u_ladder, ladder) = (
        continuation_solve(ProblemSpec(n=n, shape=shape, psi=psi, h=h,
                                       eps_schedule=sched), grid)
        for sched in (None, solver.LADDER))
    assert [st.eps for st in report.stages] == [0.0]
    assert report.warnings == []
    # with a coarse level the ladder's finest mesh joins it for its tail
    finest = [st.eps for st in ladder.stages]
    assert eps_path(ladder) == list(solver.LADDER)
    assert len(finest) >= 2 and finest == list(solver.LADDER[-len(finest):])
    if ladder.levels == [ladder]:
        assert finest == list(solver.LADDER)
    err, err_ladder = (np.abs(v - exact_cap(grid)).max() for v in (u, u_ladder))
    assert err == pytest.approx(err_ladder, rel=1e-3)


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


def test_continuation_derives_each_geometry_once(monkeypatch):
    # every stencil derivative product of a solve feeds one geometry: the
    # stage report and the eps = 0 guard read the evaluations Newton made
    calls = {"derivs": 0, "geo": 0}
    real_derivs, real_geo = solver.all_derivatives, solver.batch_geometry

    def spy_derivs(*args, **kwargs):
        calls["derivs"] += 1
        return real_derivs(*args, **kwargs)

    def spy_geo(*args, **kwargs):
        calls["geo"] += 1
        return real_geo(*args, **kwargs)

    monkeypatch.setattr(solver, "all_derivatives", spy_derivs)
    monkeypatch.setattr(solver, "batch_geometry", spy_geo)
    continuation_solve(ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16))
    assert calls["geo"] > 1
    assert calls["derivs"] == calls["geo"]


def test_failed_stage_carries_partial_report():
    # psi = 1e-300 stagnates at eps = 0; the failure carries the record of
    # its stage, whose counts the automatic solve's fallback note prints
    spec = ProblemSpec(n=2, shape=DISK, psi="1e-300", h=1 / 16,
                       eps_schedule=(0.0,))
    with pytest.raises(Stagnation) as info:
        continuation_solve(spec)
    stage = info.value.stage
    assert stage.eps == 0.0 and stage.iterations > 0
    assert len(stage.residual_norms) == stage.iterations + 1
    assert str(info.value).endswith("(continuation stage eps=0)")
    _, report = continuation_solve(
        ProblemSpec(n=2, shape=DISK, psi="1e-300", h=1 / 16))
    note = re.search(r"failed after (\d+) Newton iterations and (\d+) "
                     r"factorizations", report.warnings[0])
    assert note is not None
    assert (stage.iterations, stage.factorizations) == tuple(
        int(g) for g in note.groups())


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


def test_3d_cap_solves_with_lattice_nodes_on_the_boundary():
    # at h = 1/14 the nodes (2, 3, 6) h lie on the sphere up to roundoff;
    # kept, their arms of length ~1e-16 h stalled the line search at
    # eps = 0.1
    h = 1 / 14
    spec = ProblemSpec(n=3, shape=BALL, psi="8", h=h)
    grid = build_grid(BALL, h)
    u, report = continuation_solve(spec, grid)
    assert report.final.residual_norms[-1] <= solver.TOL_RESIDUAL
    assert np.abs(u - exact_cap(grid)).max() <= 2e-4


# ---------------------------------------------------------------- nested iteration


@pytest.mark.parametrize("n, psi, h", [(2, "1", 1 / 64), (3, "8", 1 / 16)])
def test_nested_solve_matches_single_level_newton(n, psi, h):
    # the coarse level only moves the start: the solution is the one plain
    # Newton finds from the same cap, to well below the discretization error
    shape = DomainShape((0.5,) * n)
    grid = build_grid(shape, h)
    spec = ProblemSpec(n=n, shape=shape, psi=psi, h=h)
    u0 = initial_guess(spec, grid)
    u, report = continuation_solve(spec, grid, u0)
    u_plain, plain = newton_solve(spec, grid, u0, 0.0)
    assert len(report.levels) > 1
    assert [st.start for st in report.stages] == ["prolonged"]
    assert report.stages[0].iterations < plain.iterations
    assert np.abs(u - u_plain).max() <= 1e-9


def test_solve_report_carries_coarse_counts():
    # the 2h level is the solve of the 2h problem from the injected cap:
    # its report holds that solve's stages, counts, 4h level and solution
    h = 1 / 64
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    u, report = continuation_solve(spec, build_grid(DISK, h))
    spec_2h = ProblemSpec(n=2, shape=DISK, psi="1", h=2 * h)
    grid_2h = build_grid(DISK, 2 * h)
    u_2h, alone = continuation_solve(spec_2h, grid_2h)
    coarse = report.levels[1]
    assert len(report.levels[1:]) == len(alone.levels) == 2
    for mine, theirs in zip(report.levels[1:], alone.levels):
        assert [(st.eps, st.iterations, st.factorizations, st.refinements,
                 st.lu_fill, st.start) for st in mine.stages] == [
            (st.eps, st.iterations, st.factorizations, st.refinements,
             st.lu_fill, st.start) for st in theirs.stages]
    assert coarse.error_estimate == alone.error_estimate is not None
    assert alone.levels[1].error_estimate is None
    assert coarse.stages[0].factorizations >= 1
    assert coarse.stages[0].refinements > 0
    # the estimate compares the two solutions on the shared nodes
    shared = coarse_level(build_grid(DISK, h), 0).shared
    assert report.error_estimate == np.abs(u[shared] - u_2h).max() / 3.0


def test_prolonged_start_outside_cone_falls_back_to_warm(monkeypatch):
    # psi = r^2 is flat at the center: at small eps the prolonged start
    # leaves the cone there, and that stage starts from the previous one
    h = 1 / 64
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=h)
    grid = build_grid(DISK, h)
    solved, real = {}, solver._solve_level

    def keep_2h(spec, grid, *args):
        report, level_solved = real(spec, grid, *args)
        if grid.h == 2 * h:
            solved.update(level_solved)
        return report, level_solved

    monkeypatch.setattr(solver, "_solve_level", keep_2h)
    _, report = continuation_solve(spec, grid)
    starts = [st.start for st in report.stages]
    assert starts[0] == "prolonged" and "warm" in starts
    for st in report.stages:
        assert (st.rejected_margin is None) == (st.start == "prolonged")
        assert st.margins[0] > 0.0 and st.residual_norms[-1] <= st.tol
    assert [st.tol for st in report.stages] == (
        [solver.STAGE_TOL] * (len(starts) - 1) + [solver.TOL_RESIDUAL])
    # the rejected start is that stage's 2h solution, prolonged, as the
    # 2h level of the nested solve handed it up
    k = starts.index("warm")
    eps = report.stages[k].eps
    level = coarse_level(grid, solver.COARSEST_NODES)
    with pytest.raises(NotAdmissible) as info:
        residual(spec, grid, level.prolong(solved[eps]), eps)
    assert info.value.margin == report.stages[k].rejected_margin < 0.0


_WALK, _NEWTON = solver._walk, solver.newton_solve


def _walk_every_stage(spec, grid, u0, schedule, level, coarse, factorization):
    # every eps of the schedule on this level, each from its prolonged
    # start where that passes the cone test: the walk before the join scan,
    # as one-eps walks, which have no scan; each stops at the tolerance its
    # eps has in the whole schedule, STAGE_TOL but for the last
    u, stages, solved = u0, [], {}
    for eps in schedule:
        tol = solver.TOL_RESIDUAL if eps == schedule[-1] else solver.STAGE_TOL
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "newton_solve",
                       lambda *args: _NEWTON(*args[:5], tol=tol))
            u, [stage], _ = _WALK(spec, grid, u, (eps,), level, coarse,
                                  factorization)
        stages.append(stage)
        solved[eps] = u
    return u, stages, solved


@pytest.mark.parametrize("h, finest", [(1 / 64, [1e-3, 1e-4, 1e-5]),
                                       (1 / 128, [1e-4, 1e-5])])
def test_finer_meshes_join_the_eps_path_at_the_last_admissible_start(
        monkeypatch, h, finest):
    # psi = r^2: the finest mesh runs the schedule's tail from the last eps
    # whose prolonged start is admissible, the coarsest level all of it
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=h)
    grid = build_grid(DISK, h)
    schedule = list(effective_schedule(spec, grid)[0][0])
    u, report = continuation_solve(spec, grid)
    assert [st.eps for st in report.stages] == finest
    assert report.stages[0].start == "prolonged"
    assert eps_path(report) == schedule
    assert [st.eps for st in report.levels[-1].stages] == schedule
    # the stages from the join on are those of the walk that runs every eps
    # on every level; the join stage holds a fresh inverse where that walk
    # holds an earlier stage's, a roundoff difference (0 here, measured)
    monkeypatch.setattr(solver, "_walk", _walk_every_stage)
    u_every, every = continuation_solve(spec, grid)
    assert [st.eps for st in every.stages] == schedule
    assert ([(st.eps, st.start, st.iterations, st.tol)
             for st in report.stages]
            == [(st.eps, st.start, st.iterations, st.tol)
                for st in every.stages[-len(finest):]])
    assert np.abs(u - u_every).max() <= 1e-12


def test_only_each_levels_last_eps_solves_to_the_final_tolerance():
    # psi = r^2 down LADDER at h = 1/64: every eps that only starts the
    # next one stops at STAGE_TOL, one quadratic Newton step short of
    # TOL_RESIDUAL, and each level's last eps at TOL_RESIDUAL; the
    # per-level iterations, finest first, were [9, 10, 20] with every
    # stage at TOL_RESIDUAL, and the axis gap to radial.shoot is unchanged
    h = 1 / 64
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=h,
                       eps_schedule=solver.LADDER)
    grid = build_grid(DISK, h)
    u, report = continuation_solve(spec, grid)
    assert solver.STAGE_TOL == 1e-5
    levels = report.levels
    for level in levels:
        *early, last = level.stages
        for st in early:
            assert st.tol == solver.STAGE_TOL
            assert st.residual_norms[-1] <= solver.STAGE_TOL
        assert (last.eps, last.tol) == (1e-5, solver.TOL_RESIDUAL)
        assert last.residual_norms[-1] <= solver.TOL_RESIDUAL
    assert ([[st.iterations for st in level.stages] for level in levels]
            == [[2, 2, 3], [2, 2, 3], [7, 2, 2, 2, 3]])
    prof = shoot(spec.psi, 0.5, 2, eps=report.final.eps)
    axis = np.flatnonzero(grid.pos[:, 1] == 0.0)
    gap = np.abs(u[axis] - prof.value(grid.pos[axis, 0])).max()
    assert f"{gap:.4e}" == "2.0924e-05"


def test_explicit_ladder_keeps_two_fine_stages_and_estimate_evidence():
    # the cap's prolonged starts all pass the cone test, so each finer mesh
    # joins at the last eps but one: estimate_evidence still has two stages,
    # and only the coarsest level, h = 1/16, walks the whole ladder
    h = 1 / 64
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h,
                       eps_schedule=solver.LADDER)
    grid = build_grid(DISK, h)
    u0 = initial_guess(spec, grid)
    u, report = continuation_solve(spec, grid, u0)
    assert [st.eps for st in report.stages] == [1e-4, 0.0]
    assert [st.start for st in report.stages] == ["prolonged"] * 2
    _, middle, coarsest = report.levels
    assert [st.eps for st in middle.stages] == [1e-4, 0.0]
    assert [st.start for st in middle.stages] == ["prolonged"] * 2
    assert [st.eps for st in coarsest.stages] == list(solver.LADDER)
    certs = standard_certificates(u, u0, grid, report)
    assert [c.name for c in certs][-1] == "estimate_evidence"
    assert all(c.passed for c in certs) and report.warnings == []


def _count_evaluations(monkeypatch):
    # every evaluation, and those that must pass the cone test, which in a
    # solve are the stage starts
    calls = {"all": 0, "cone": 0}
    real_evaluate, real_admissible = solver._evaluate, solver._admissible

    def spy_evaluate(*args):
        calls["all"] += 1
        return real_evaluate(*args)

    def spy_admissible(*args):
        calls["cone"] += 1
        return real_admissible(*args)

    monkeypatch.setattr(solver, "_evaluate", spy_evaluate)
    monkeypatch.setattr(solver, "_admissible", spy_admissible)
    return calls


@pytest.mark.parametrize("n, psi, h, evaluations", [(2, "1", 1 / 64, 22),
                                                    (3, "8", 1 / 16, 13)])
def test_one_eps_schedule_makes_no_join_scan(monkeypatch, n, psi, h,
                                             evaluations):
    # (0,) has no eps before its last: one cone test of each level's start,
    # on three levels in 2D and two in 3D, and the evaluation count of the
    # walk before the join scan
    calls = _count_evaluations(monkeypatch)
    shape = DomainShape((0.5,) * n)
    _, report = continuation_solve(ProblemSpec(n=n, shape=shape, psi=psi, h=h),
                                   build_grid(shape, h))
    assert len(report.levels) == {2: 3, 3: 2}[n]
    assert calls == {"all": evaluations, "cone": len(report.levels)}


def test_join_scan_evaluates_each_start_once(monkeypatch):
    # a start the scan rejected is not tried again at its stage: one cone
    # test per stage start, and one more per rejected prolonged start
    calls = _count_evaluations(monkeypatch)
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 128)
    _, report = continuation_solve(spec, build_grid(DISK, 1 / 128))
    stages = [st for level in report.levels for st in level.stages]
    assert any(st.rejected_margin is not None for st in stages)
    assert calls["cone"] == sum(1 + (st.rejected_margin is not None)
                                for st in stages)


def _fail_newton(monkeypatch, fails):
    # newton_solve forced to stagnate on each grid whose h fails; returns
    # the real one
    real = solver.newton_solve

    def newton(spec, grid, u0, eps, factorization=None,
               tol=solver.TOL_RESIDUAL):
        if fails(grid.h):
            exc = Stagnation("forced")
            exc.stage = solver.StageReport(eps, tol)
            raise exc
        return real(spec, grid, u0, eps, factorization, tol)

    monkeypatch.setattr(solver, "newton_solve", newton)
    return real


def test_coarse_failure_falls_back_to_single_level(monkeypatch):
    # a coarse level that fails, here down both schedules, costs one
    # warning line, and the solve takes the single-level one's warm start
    # and iterations; the level keeps its two-grid over the failed coarse
    # level, where the single-level solve holds an LU of J, so the two
    # solutions agree to roundoff, not bitwise
    h = 1 / 64
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    grid = build_grid(DISK, h)
    real = _fail_newton(monkeypatch, lambda level_h: level_h != h)
    u, report = continuation_solve(spec, grid)
    assert report.warnings == [
        "coarse level h=0.03125 failed (forced (continuation stage eps=0.1)); "
        "solving without coarse starts"]
    assert report.levels == [report] and report.error_estimate is None
    assert [st.start for st in report.stages] == ["warm"]
    monkeypatch.setattr(solver, "newton_solve", real)
    monkeypatch.setattr(solver, "coarse_level", lambda grid, min_nodes: None)
    u_single, single = continuation_solve(spec, grid)
    assert np.abs(u - u_single).max() <= 1e-12
    assert report.final.inverse == "two-grid" and single.final.inverse == "lu"
    assert single.warnings == []
    assert ([st.iterations for st in report.stages]
            == [st.iterations for st in single.stages])


def test_failed_middle_level_keeps_the_levels_below_it(monkeypatch, tmp_path):
    # levels 1/64, 1/32 and 1/16 with Newton failing on 1/32 only: the 1/16
    # level stays in report.levels and in the report file, behind its own
    # prefix, and the finest level goes on without coarse starts
    h = 1 / 64
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h)
    _fail_newton(monkeypatch, lambda level_h: level_h == 2 * h)
    _, report = continuation_solve(spec, build_grid(DISK, h))
    assert [lv.h for lv in report.levels] == [1 / 64, 1 / 16]
    assert report.warnings == [
        "coarse level h=0.03125 failed (forced (continuation stage eps=0.1)); "
        "solving without coarse starts"]
    assert report.error_estimate is None
    assert [st.start for st in report.stages] == ["warm"]
    lines = cli._write_report(tmp_path / "report.txt", report, []).splitlines()
    assert any(ln.startswith("coarse h=0.0625 stage eps=") for ln in lines)
    assert not any(ln.startswith("coarse h=0.03125 ") for ln in lines)


# ---------------------------------------------------------------- output


def test_write_solution_computes_state_once(monkeypatch, tmp_path):
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16)
    grid = build_grid(DISK, 1 / 16)
    u, report = continuation_solve(spec, grid)
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
    assert write_solution(tmp_path / "a.dat", spec, grid, u, report) is None
    assert calls == ["derivs", "geo"]
    # the residual column is the residual of u at the report's final eps
    text = (tmp_path / "a.dat").read_text()
    body = [ln.split() for ln in text.splitlines() if not ln.startswith("#")]
    res = np.array([float(row[-1]) for row in body])
    assert np.array_equal(res, residual(spec, grid, u, report.final.eps))


def test_write_solution_writes_the_table_in_blocks(monkeypatch, tmp_path):
    # blocks of 5 values end inside the rows of 12; the file holds each
    # block as it came, and each value as '%.17g' writes it
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 8)
    u, report = continuation_solve(spec)
    grid = build_grid(DISK, 1 / 8)
    blocks = []
    encode = decimal17.encode_table

    def spy(table):
        for block in encode(table):
            blocks.append(block)
            yield block

    monkeypatch.setattr(decimal17, "BLOCK", 5)
    monkeypatch.setattr(decimal17, "encode_table", spy)
    path = tmp_path / "a.dat"
    assert write_solution(path, spec, grid, u, report) is None
    assert len(blocks) == -(-grid.size * 12 // 5)
    body = [ln for ln in path.read_text().splitlines(keepends=True)
            if not ln.startswith("#")]
    assert "".join(body) == "".join(blocks)
    fmt = " ".join(["%.17g"] * 12) + "\n"
    assert body == [fmt % tuple(map(float, ln.split())) for ln in body]
    assert np.array_equal([float(ln.split()[2]) for ln in body], u)


def test_write_solution_roundtrip(tmp_path):
    h = 1 / 16
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=h,
                       eps_schedule=(1e-1, 0.0))
    u, report = continuation_solve(spec)
    grid = build_grid(DISK, h)
    f1 = tmp_path / "a.dat"
    f2 = tmp_path / "b.dat"
    write_solution(f1, spec, grid, u, report, config_echo=("psi = 1",))
    write_solution(f2, spec, grid, u, report, config_echo=("psi = 1",))
    t1 = f1.read_text()
    assert t1 == f2.read_text()
    lines = t1.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(body) == grid.size
    assert any("psi = 1" in ln for ln in header)
    # n=2 columns: x1 x2 u du1 du2 d2u11 d2u12 d2u22 k1 k2 Keta residual
    assert all(len(ln.split()) == 12 for ln in body)
    vals = np.array([ln.split() for ln in body], dtype=float)
    np.testing.assert_allclose(vals[:, 2], u, rtol=0, atol=0)


# ---------------------------------------------------------------- reproducibility

_SOLVE_HASHES = """
import hashlib
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from etacurv.domain import DomainShape
from etacurv.solver import ProblemSpec, continuation_solve
print(" ".join(sorted(k for k, on in __cpu_features__.items() if on)))
for n, h, psi in ((2, 1 / 32, "1"), (3, 1 / 8, "8"), (2, 1 / 32, "1 + nu1^3")):
    spec = ProblemSpec(n=n, shape=DomainShape((0.5,) * n), psi=psi, h=h)
    u, _ = continuation_solve(spec)
    print(hashlib.sha256(u.tobytes()).hexdigest())
"""


def test_solutions_bitwise_equal_on_either_numpy_simd_path():
    # the 2D and 3D caps (the 3D one reaches _eigenvalues3) and a psi
    # reading nu through an integer power, each solved in a process with
    # numpy's AVX-512 loops and in one without: u is the same to the bit.
    # Those loops round x ** a (a outside {-1, 0, 1/2, 1, 2}), arccos, exp
    # and log differently; this setting turns them off in numpy 2.x
    simd_off = "AVX512_SPR AVX512_ICL X86_V4"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(solver.__file__)))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": simd_off}):
        proc = subprocess.run([sys.executable, "-c", _SOLVE_HASHES],
                              env=dict(env, **extra), capture_output=True,
                              text=True, check=False)
        if extra and proc.returncode != 0:
            pytest.skip(f"this numpy rejects NPY_DISABLE_CPU_FEATURES="
                        f"{simd_off!r}: {proc.stderr.strip()[-300:]}")
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split("\n"))
    (features, *on), (features_off, *off) = runs
    if features == features_off:
        pytest.skip("NPY_DISABLE_CPU_FEATURES turned off no CPU feature here")
    assert on == off
