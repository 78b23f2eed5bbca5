"""Discrete residual, sparse Jacobian, damped Newton, and continuation.

The discrete problem at each interior node is the n-th root normalized
equation

    G(D^2 u, Du)^{1/n} = psi_eps(x, u, Du)^{1/n},

with (Du, D^2u) from the grid stencils and G the curvature product of the
graph.  The n-th root exploits the concavity of f^{1/n} on the admissible
cone, which keeps Newton steps well behaved as psi degenerates.  The
continuation drives eps down a schedule, warm-starting each stage.  A
trailing eps = 0 is replaced by a small positive eps, which stands in as
the C^{1,1} approximation, when psi vanishes somewhere on the grid at the
rest state u = 0, Du = 0; a psi that vanishes only along the iterates
ends the eps = 0 stage with a SolverFailure before its first step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .certify import check_subsolution
from .cones import NotAdmissible
from .domain import check_two_convex
from .expr import EvalEnv, check_dimension, eval_with_derivs, evaluate, parse
from .geometry import add_coefficients, batch_geometry
from .grid import all_derivatives, build_grid, nested_dissection

#: A grid function is a plain float vector, one value per interior node in
#: the grid's lexicographic node order; the boundary value is implicitly 0.
GridFunction = np.ndarray


class NegativePsi(ValueError):
    """psi evaluated negative at a node; the equation requires psi >= 0."""


class SolverFailure(Exception):
    """Base for Newton failures; carries the iteration history."""

    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = history or []


class Stagnation(SolverFailure):
    """Backtracking could not find an acceptable step."""


class LinearSolveFailure(SolverFailure):
    """The sparse factorization failed or lost too much accuracy."""


class MaxIterations(SolverFailure):
    """Newton did not meet the residual tolerance in the allowed iterations."""


class NoInitialGuess(Exception):
    """Automatic initial data exists only for balls; provide a subsolution."""


@dataclass
class NewtonParams:
    tol_residual: float = 1e-10
    max_iter: int = 40
    min_step: float = 1.0 / 1024.0


@dataclass
class ProblemSpec:
    """Full description of one Dirichlet problem.

    psi, psi_lower and subsolution are expression trees (see expr.parse);
    strings are parsed on construction for convenience.
    """

    n: int
    shape: object
    psi: object
    h: float
    psi_lower: object = None
    subsolution: object = None
    eps_schedule: tuple = (1e-1, 1e-2, 1e-3, 1e-4, 0.0)
    newton: NewtonParams = field(default_factory=NewtonParams)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.shape.n != self.n:
            raise ValueError("shape dimension does not match n")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be finite and > 0, got {self.h:g}")
        for name in ("psi", "psi_lower", "subsolution"):
            v = getattr(self, name)
            if isinstance(v, str):
                v = parse(v)
                object.__setattr__(self, name, v)
            if v is not None:
                check_dimension(v, self.n)
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched:
            raise ValueError("eps schedule must not be empty")
        if not all(0.0 <= e < np.inf for e in sched):
            raise ValueError("eps schedule entries must be finite and >= 0")
        if any(a <= b for a, b in zip(sched, sched[1:])):
            raise ValueError("eps schedule must be strictly decreasing")
        self.eps_schedule = sched
        nt = self.newton
        if not 0.0 < nt.tol_residual < np.inf:
            raise ValueError("tol_residual must be finite and > 0")
        if not 0.0 < nt.min_step <= 1.0:
            raise ValueError("min_step must lie in (0, 1]")
        if nt.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class StageReport:
    eps: float
    iterations: int
    residual_norms: list
    step_lengths: list
    min_margin: float
    sup_u: float
    sup_du: float
    sup_d2u: float
    #: sparse LU factorizations and GMRES iterations spent in this stage
    factorizations: int
    krylov_iters: int
    #: L+U nonzeros of the factorization held at the end of the stage
    lu_fill: int


@dataclass
class SolveReport:
    stages: list
    certificates: list = field(default_factory=list)
    #: one line of text per condition the solve worked around
    warnings: list = field(default_factory=list)

    @property
    def final(self):
        return self.stages[-1]

    def summary(self):
        s = self.final
        return (f"eps={s.eps:g} iters={s.iterations} "
                f"res={s.residual_norms[-1]:.3e} margin={s.min_margin:.3e} "
                f"sup|u|={s.sup_u:.6g} sup|Du|={s.sup_du:.6g} sup|D2u|={s.sup_d2u:.6g}")


def regularize_psi(psi_value, eps, n):
    """psi_eps = (psi^{1/(n-1)} + eps)^{n-1}; strictly positive for eps > 0."""
    v = np.asarray(psi_value, dtype=float)
    if np.any(v < 0.0):
        raise NegativePsi(f"psi must be nonnegative, worst value {v.min():g}")
    if eps == 0.0:
        return v + 0.0
    q = n - 1.0
    return (v ** (1.0 / q) + eps) ** q


def _psi_env(grid, u, p):
    return EvalEnv.from_gradient(grid.pos, np.asarray(u, dtype=float), p)


def _psi_eps_root(spec, grid, u, p, eps, derivs=False):
    """psi_eps^{1/n} and, optionally, its z- and p-derivatives at all nodes.

    Chain rule through t = psi^{1/(n-1)}:
        psi_eps^{1/n} = (t + eps)^{(n-1)/n},
        d/d(z or p)   = (1/n) (t + eps)^{-1/n} t^{2-n} psi_{z or p} ... for n = 2, 3
    with the degenerate convention 0 * unbounded = 0 where psi_z itself
    vanishes (psi touching 0 forces a flat slope there or a kink we clamp).
    """
    n = spec.n
    env = _psi_env(grid, u, p)
    if not derivs:
        val = np.asarray(evaluate(spec.psi, env), dtype=float)
        return regularize_psi(val, eps, n) ** (1.0 / n)
    val, dz, dp = eval_with_derivs(spec.psi, env)
    val = np.asarray(val, dtype=float)
    if np.any(val < 0.0):
        raise NegativePsi(f"psi must be nonnegative, worst value {val.min():g}")
    q = n - 1.0
    t = val ** (1.0 / q)
    root = (t + eps) ** (q / n)
    # d(root)/d(psi) = (q/n)(t+eps)^{-1/n} * (1/q) t^{1-q} = (1/n)(t+eps)^{-1/n} t^{2-n}
    base = np.maximum(t + eps, 1e-300) ** (-1.0 / n)
    tpow = np.maximum(t, 1e-300) ** (2.0 - n)
    chain = base * tpow / n
    droot_dz = np.where(dz == 0.0, 0.0, chain * dz)
    droot_dp = np.where(dp == 0.0, 0.0, chain[..., None] * dp)
    return root, droot_dz, droot_dp


def _state(grid, u):
    """(p, r, geo): stencil derivatives and plain geometry of an iterate;
    never raises on bad cones."""
    p, r = all_derivatives(grid, u)
    return p, r, batch_geometry(p, r, coeffs=False)


def _check_admissible(geo):
    """Raise NotAdmissible at the worst node when any node's curvature
    vector leaves the cone."""
    if not np.all(geo.admissible):
        worst = int(np.argmin(geo.margin))
        raise NotAdmissible(
            f"iterate leaves the admissible cone at node {worst} "
            f"(margin {geo.margin[worst]:.3e})",
            margin=float(geo.margin[worst]), node=worst)


def _residual_and_margin(spec, grid, u, eps):
    """residual(), the minimum cone margin, and the (p, r, geo) state both
    were computed from."""
    state = _state(grid, u)
    p, _, geo = state
    _check_admissible(geo)
    res = geo.K_eta ** (1.0 / spec.n) - _psi_eps_root(spec, grid, u, p, eps)
    return res, float(geo.margin.min()), state


def residual(spec, grid, u, eps):
    """Normalized residual G^{1/n} - psi_eps^{1/n} per node.

    Raises NotAdmissible (with the worst node) when any node's curvature
    vector leaves the cone.
    """
    return _residual_and_margin(spec, grid, u, eps)[0]


def _try_residual(spec, grid, u, eps, floor):
    """(ok, res, min_margin, state): ok demands margin >= floor * (1 + sigma_1)
    node-wise; res is None when not ok; state is the (p, r, geo) of u."""
    state = _state(grid, u)
    p, _, geo = state
    need = floor * geo.cone_scale
    if not np.all(geo.margin >= need):
        return False, None, float(geo.margin.min()), state
    res = geo.K_eta ** (1.0 / spec.n) - _psi_eps_root(spec, grid, u, p, eps)
    return True, res, float(geo.margin.min()), state


def jacobian(spec, grid, u, eps, state=None):
    """Sparse derivative of the normalized residual in CSR form.

    Row q chains (1/n) G^{1/n-1} through the Hessian stencils (G^{ij}) and
    gradient stencils (G^s), minus the psi_eps^{1/n} derivatives on the
    gradient stencils and the diagonal.  state is the (p, r, geo) of u that
    a residual evaluation returned; only the geometry's coefficient block
    is then added to it.  Without one, the state is computed here.  J is
    assembled on the grid's fixed union pattern (Grid.ops_pattern), so its
    sparsity does not depend on u.
    """
    p, _, geo = _state(grid, u) if state is None else state
    _check_admissible(geo)
    add_coefficients(geo, p)
    n = spec.n
    alpha = (1.0 / n) * geo.K_eta ** (1.0 / n - 1.0)
    _, droot_dz, droot_dp = _psi_eps_root(spec, grid, u, p, eps, derivs=True)
    return grid.ops_pattern().assemble(alpha[:, None, None] * geo.G2,
                                       alpha[:, None] * geo.Gs - droot_dp,
                                       -droot_dz)


class _Factorization:
    """The most recent sparse LU of a Newton Jacobian, kept for reuse.

    One holder lives for a whole continuation_solve call, across Newton
    iterations and eps stages; it also counts the factorizations and the
    GMRES iterations spent on the Newton equations.  Every factorization
    is of P J P^T, P the grid's nested-dissection order: SuperLU is asked
    for no column ordering of its own and keeps its partial row pivoting.
    """

    def __init__(self, grid):
        self.perm = nested_dissection(grid)
        self.lu = None
        self.factorizations = 0
        self.krylov_iters = 0
        self._last = None  # (lu, rhs, x) of the latest triangular solve

    def factorize(self, J):
        """SuperLU of J in the held order; not kept or counted."""
        p = self.perm
        return scipy.sparse.linalg.splu(J[p][:, p].tocsc(),
                                        permc_spec="NATURAL")

    def apply(self, b):
        """x with J_lu x = b for the Jacobian J_lu the held LU factorizes.

        scipy's gmres applies the preconditioner to its right-hand side to
        set its inner tolerance, right after x0 was solved from that same
        b; a repeat of the latest b is answered without a second solve.
        """
        last = self._last
        if last is not None and last[0] is self.lu and np.array_equal(last[1], b):
            return last[2].copy()
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm])
        self._last = (self.lu, b.copy(), x.copy())
        return x

    def reuse(self, J, res):
        """A candidate for du from one GMRES(20) cycle on J du = -res,
        preconditioned by the held LU and started at its direct solve;
        None when no LU is held."""
        if self.lu is None:
            return None

        def count(_):
            self.krylov_iters += 1

        # rtol at roundoff, not an inexact-Newton forcing term: an accepted
        # du equals the direct solve's up to rounding.  dtype is given so
        # that LinearOperator does not spend a solve probing it.
        M = scipy.sparse.linalg.LinearOperator(J.shape, matvec=self.apply,
                                               dtype=float)
        du, _ = scipy.sparse.linalg.gmres(
            J, -res, x0=self.apply(-res), rtol=1e-15, atol=0.0,
            restart=20, maxiter=1, M=M, callback=count,
            callback_type="pr_norm")
        return du

    def solve(self, J, res, history):
        """du with ||J du + res||_2 <= 1e-12 ||res||_2.

        The reused-LU candidate is kept only when its true residual meets
        that contract; otherwise J is factorized afresh and solved
        directly, and a direct solve that misses the contract raises
        LinearSolveFailure.
        """
        du = self.reuse(J, res)
        if du is not None and not _linear_residual(J, du, res)[1]:
            return du
        try:
            self.lu = self.factorize(J)
            du = self.apply(-res)
        except RuntimeError as exc:
            raise LinearSolveFailure(f"sparse factorization failed: {exc}",
                                     history) from exc
        self.factorizations += 1
        lin, misses = _linear_residual(J, du, res)
        if misses:
            raise LinearSolveFailure(
                f"linear solve residual {lin:.3e} exceeds the 1e-12 contract",
                history)
        return du


def _linear_residual(J, du, res):
    """(||J du + res||_2, whether it misses the 1e-12 contract)."""
    lin = np.linalg.norm(J @ du + res)
    misses = not np.isfinite(lin) or lin > 1e-12 * max(np.linalg.norm(res), 1e-300)
    return lin, misses


def newton_solve(spec, grid, u0, eps, factorization=None):
    """Damped Newton from an admissible start; returns (u, history).

    history rows: (inf-norm, 2-norm, step, min margin), the start plus one
    per accepted iterate.  Backtracking accepts the first s in {1, 1/2, ...}
    with (a) node-wise admissibility margin >= 1e-12 (1 + sigma_1) and
    (b) 2-norm decreased by the factor (1 - s/4) or inf-norm already at the
    stopping tolerance.   A warm start at the solution therefore costs one
    iteration at step 1, not a stagnation report.  At eps = 0 a psi that
    is not positive at every node of u0 raises SolverFailure.

    Each Newton equation J du = -res is solved to the true-residual
    contract ||J du + res||_2 <= 1e-12 ||res||_2.  The last sparse LU is
    reused as a GMRES preconditioner; J is factorized afresh only when
    that misses the contract.  factorization is the _Factorization holder
    shared along a continuation; a fresh one is made when None.
    """
    nt = spec.newton
    if factorization is None:
        factorization = _Factorization(grid)
    u = np.asarray(u0, dtype=float).copy()
    if eps == 0.0:
        p0, _ = all_derivatives(grid, u)
        psi0 = np.asarray(evaluate(spec.psi, _psi_env(grid, u, p0)), dtype=float)
        if float(psi0.min()) <= 0.0:
            raise SolverFailure(
                f"eps = 0 requires psi > 0 on the grid (min {psi0.min():g})")
    # raises NotAdmissible on a bad start
    res, margin0, state = _residual_and_margin(spec, grid, u, eps)
    margin_floor = 1e-12
    history = [(float(np.abs(res).max()), float(np.linalg.norm(res)), 0.0,
                margin0)]
    for _ in range(nt.max_iter):
        J = jacobian(spec, grid, u, eps, state)
        du = factorization.solve(J, res, history)
        norm0 = history[-1][1]
        s = 1.0
        while s >= nt.min_step:
            trial = u + s * du
            ok, trial_res, margin, trial_state = _try_residual(
                spec, grid, trial, eps, margin_floor)
            if ok and (np.linalg.norm(trial_res) <= (1.0 - s / 4.0) * norm0
                       or np.abs(trial_res).max() <= nt.tol_residual):
                u, res, state = trial, trial_res, trial_state
                history.append((float(np.abs(res).max()),
                                float(np.linalg.norm(res)), s, margin))
                break
            s *= 0.5
        else:
            raise Stagnation(
                f"no step >= {nt.min_step:g} acceptable (eps={eps:g})", history)
        if history[-1][0] <= nt.tol_residual:
            return u, history
    raise MaxIterations(
        f"residual {history[-1][0]:.3e} > {nt.tol_residual:g} "
        f"after {nt.max_iter} iterations", history)


_CAP_MULTIPLIERS = (1.05, 1.1, 1.2, 1.5, 2.0, 4.0)


def cap_function(grid, R):
    """Sphere-cap grid samples u = -sqrt(R^2 - |x|^2) + sqrt(R^2 - r0^2)."""
    r0 = grid.shape.r0
    rad2 = np.sum(grid.pos ** 2, axis=1)
    return -np.sqrt(R * R - rad2) + np.sqrt(R * R - r0 * r0)


def initial_guess(spec, grid):
    """Starting iterate: the provided subsolution, else the automatic sphere
    cap of _auto_cap on a ball.  ValueError when the subsolution reads
    more than position or fails its certificate."""
    if spec.subsolution is not None:
        cert = check_subsolution(spec.subsolution, spec)
        if not cert.passed:
            raise ValueError(f"provided subsolution fails its certificate: {cert.line()}")
        env = EvalEnv.from_gradient(grid.pos, np.zeros(grid.size),
                                    np.zeros_like(grid.pos))
        return np.asarray(evaluate(spec.subsolution, env), dtype=float)
    if grid.shape.kind != "ball":
        raise NoInitialGuess(
            "automatic caps exist only on balls; provide a subsolution")
    return cap_function(grid, _auto_cap(spec, grid)[0])


def _auto_cap(spec, grid):
    """(R, note): the automatic cap's radius R, the smallest multiple of r0
    whose curvature product ((n-1)/R)^n dominates the sampled psi_eps at the
    first eps, with note None; if no multiple does, the steepest cap
    (R = 1.05 r0) with a line of text saying so."""
    r0 = grid.shape.r0
    env = _psi_env(grid, np.zeros(grid.size), np.zeros_like(grid.pos))
    psi_max = float(regularize_psi(
        np.asarray(evaluate(spec.psi, env), dtype=float), spec.eps_schedule[0],
        spec.n).max())
    for mult in _CAP_MULTIPLIERS:
        R = mult * r0
        if ((spec.n - 1) / R) ** spec.n >= psi_max:
            return R, None
    return (_CAP_MULTIPLIERS[0] * r0,
            "no cap dominates psi; starting from the steepest cap")


def _stage_metrics(grid, u):
    p, r = all_derivatives(grid, u)
    sup_u = float(np.abs(u).max())
    sup_du = float(np.linalg.norm(p, axis=1).max())
    sup_d2u = float(np.abs(np.linalg.eigvalsh(r)).max())
    return sup_u, sup_du, sup_d2u


def continuation_solve(spec, grid=None, u0=None):
    """Solve down the eps schedule, warm-starting each stage.

    Returns (u, SolveReport); certificates are attached by the caller
    (the command layer runs the verify suite on the result).
    """
    ok, _ = check_two_convex(spec.shape)
    if not ok:
        raise ValueError("domain fails the 2-convexity check")
    if grid is None:
        grid = build_grid(spec.shape, spec.h)
    schedule, eps_note = effective_schedule(spec, grid)
    cap_note = None
    if spec.subsolution is None and grid.shape.kind == "ball":
        cap_note = _auto_cap(spec, grid)[1]
    notes = [text for text in (cap_note, eps_note, _dropped_stencils_note(grid))
             if text is not None]
    u = initial_guess(spec, grid) if u0 is None else np.asarray(u0, dtype=float)
    stages = []
    factorization = _Factorization(grid)
    for eps in schedule:
        done = factorization.factorizations, factorization.krylov_iters
        try:
            u, history = newton_solve(spec, grid, u, eps, factorization)
        except SolverFailure as exc:
            raise type(exc)(f"{exc} (continuation stage eps={eps:g})",
                            exc.history) from exc
        sup_u, sup_du, sup_d2u = _stage_metrics(grid, u)
        stages.append(StageReport(
            eps=eps, iterations=len(history) - 1,
            residual_norms=[h[0] for h in history],
            step_lengths=[h[2] for h in history[1:]],
            min_margin=history[-1][3],
            sup_u=sup_u, sup_du=sup_du, sup_d2u=sup_d2u,
            factorizations=factorization.factorizations - done[0],
            krylov_iters=factorization.krylov_iters - done[1],
            lu_fill=int(factorization.lu.nnz)))
    return u, SolveReport(stages=stages, warnings=notes)


def _dropped_stencils_note(grid):
    """Text naming the mixed-derivative stencils the grid's operators set
    to zero for want of usable nodes; None when there are none."""
    k = len(grid.mixed_dropped)
    if k == 0:
        return None
    return f"mixed-derivative stencils set to zero for want of usable nodes: {k}"


def effective_schedule(spec, grid):
    """(schedule, note): the problem's schedule with the degenerate guard
    applied, and a line of text saying so or None.  A trailing 0 is
    replaced by 1e-5 whenever psi is not strictly positive on the grid at
    the rest state u = 0, Du = 0; only there is psi checked."""
    note = None
    schedule = list(spec.eps_schedule)
    if schedule[-1] == 0.0:
        env = _psi_env(grid, np.zeros(grid.size), np.zeros_like(grid.pos))
        psi_min = float(np.asarray(evaluate(spec.psi, env), dtype=float).min())
        if psi_min < 0.0:
            raise NegativePsi(f"psi must be nonnegative, worst value {psi_min:g}")
        if psi_min <= 0.0:
            last = 1e-5 if len(schedule) == 1 else min(1e-5, schedule[-2] / 10.0)
            schedule[-1] = last
            note = (f"psi vanishes on the grid (min {psi_min:g}); "
                    f"final stage runs at eps={last:g} instead of 0")
    return tuple(schedule), note


def write_solution(path, spec, grid, u, report=None, config_echo=()):
    """Columnar solution file with a self-describing '#' header.

    Full 17-significant-digit decimals: identical configs reproduce the
    file bitwise.
    """
    n = spec.n
    eps = spec.eps_schedule[-1] if report is None else report.final.eps
    res, _, (p, r, geo) = _residual_and_margin(spec, grid, u, eps)
    cols = ["x1", "x2", "x3"][:n] + ["u"] + [f"du{s+1}" for s in range(n)]
    cols += [f"d2u{i+1}{j+1}" for i in range(n) for j in range(i, n)]
    cols += [f"kappa{i+1}" for i in range(n)] + ["Keta", "residual"]
    lines = [f"# etacurv solution n={n} nodes={grid.size} h={grid.h:.17g}"]
    lines += [f"# {line}" for line in config_echo]
    if report is not None:
        lines.append(f"# {report.summary()}")
    lines.append("# " + " ".join(cols))
    table = np.column_stack(
        (grid.pos, u, p, *(r[:, i, j] for i in range(n) for j in range(i, n)),
         geo.kappa, geo.K_eta, res))
    fmt = " ".join(["%.17g"] * len(cols))
    lines.extend(fmt % tuple(row) for row in table.tolist())
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
