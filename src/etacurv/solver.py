"""Discrete residual, sparse Jacobian, damped Newton, and continuation.

The discrete problem at each interior node is the n-th root normalized
equation

    G(D^2 u, Du)^{1/n} = psi_eps(x, u, Du)^{1/n},

with (Du, D^2u) from the grid stencils and G the curvature product of the
graph.  The n-th root exploits the concavity of f^{1/n} on the admissible
cone, which keeps Newton steps well behaved as psi degenerates.  The
continuation drives eps down a schedule, warm-starting each stage.

Nested iteration: continuation_solve first solves the same problem on the
2h lattice, recursively down to a level of at least COARSEST_NODES nodes.
The eps path is walked on the coarsest level only; each finer level joins
it at the last eps but one or earlier, the last eps whose coarse solution,
prolonged by grid.prolongation, lies in the cone, and starts that stage
there.  A later stage starts from its prolonged coarse solution too
whenever that lies in the cone.  Newton's iteration count does not depend
on h (mesh independence), so a fine mesh needs neither the early eps nor
more than the last few steps of each stage.  The two solutions give the
Richardson error estimate max |u_h - u_2h| / 3 of
SolveReport.error_estimate.

Each iterate is evaluated once, by _evaluate: stencil derivatives, plain
geometry, the cone test, psi and the residual; its Jacobian and its
StageReport reuse that state.  Each Newton equation J du = -F is solved
inexactly, only as accurately as the Newton step needs: to the forcing
target ||J du + F||_inf <= eta ||F||_inf, eta = min(1/10, FORCING ||F||_inf),
which keeps Newton's local quadratic convergence (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 19, 1982), or to a normwise backward error
of at most OMEGA_MAX, whichever comes first.  It is solved by iterative
refinement on the approximate inverse held from an earlier Jacobian while
each sweep cuts omega below CONTRACTION times the last, else on one built
afresh (_Factorization): a nested-dissection LU of J, or on a level of
n >= 3 with a 2h level below it a two-grid cycle, whose only
factorization is of the Galerkin coarse operator.  A fresh two-grid that
does not converge falls back to the LU of J, and a direct solve with a
fresh LU is held to OMEGA_MAX itself.

effective_schedule plans the eps path once per solve, from one evaluation
of psi at the rest state u = 0, Du = 0: the schedules to try in order from
the same start, each only if the one before failed.  Where psi > 0 there
the equation is non-degenerate: one eps = 0 stage, then LADDER.  Where psi
vanishes there, LADDER with its trailing 0 replaced by a small eps, which
stands in as the C^{1,1} approximation; a psi that vanishes only along the
iterates ends the eps = 0 stage with a SolverFailure before its first step.
Every level of a nested solve runs this one plan, from its join on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg

from .certify import check_subsolution
from .cones import NotAdmissible
from .domain import check_two_convex
from .expr import EvalEnv, check_dimension, eval_with_derivs, evaluate, parse
from .geometry import _eigenvalues, add_coefficients, batch_geometry
from .grid import (
    all_derivatives,
    build_grid,
    check_lattice,
    coarse_grid,
    interpolation,
    nested_dissection,
    prolongation,
)

#: A grid function is a plain float vector, one value per interior node in
#: the grid's lexicographic node order; the boundary value is implicitly 0.
GridFunction = np.ndarray


class NegativePsi(ValueError):
    """psi evaluated negative at a node; the equation requires psi >= 0."""


class SolverFailure(Exception):
    """Base for Newton failures; newton_solve attaches the partial
    StageReport of the failed stage as stage, whose eps the message names."""

    stage = None

    def __str__(self):
        if self.stage is None:
            return super().__str__()
        return f"{super().__str__()} (continuation stage eps={self.stage.eps:g})"


class Stagnation(SolverFailure):
    """Backtracking could not find an acceptable step."""


class LinearSolveFailure(SolverFailure):
    """The sparse factorization failed or lost too much accuracy."""


class MaxIterations(SolverFailure):
    """Newton did not meet the residual tolerance in the allowed iterations."""


class NoInitialGuess(Exception):
    """Automatic initial data exists only for balls; provide a subsolution."""


#: the eps continuation run where psi vanishes at the rest state, and
#: rerun when a direct eps = 0 stage fails
LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 0.0)

#: Newton stops once the max-norm residual is at most TOL_RESIDUAL; a stage
#: gets MAX_ITER iterations, and the line search no step below MIN_STEP
TOL_RESIDUAL = 1e-10
MAX_ITER = 40
MIN_STEP = 1.0 / 1024.0

#: the normwise backward error at which refinement stops whatever the
#: forcing target, and the one a direct solve must meet: 64 unit roundoffs,
#: a bound that does not tighten as J's conditioning grows
OMEGA_MAX = 64.0 * np.finfo(float).eps / 2.0

#: the forcing of the inexact Newton equations: equation k is solved to
#: ||J du + F_k||_inf <= min(1/10, FORCING ||F_k||_inf) ||F_k||_inf, a
#: forcing term O(||F_k||) that keeps Newton's local convergence quadratic
FORCING = 1e-2

#: iterative refinement keeps the held inverse while each sweep cuts the
#: backward error omega below CONTRACTION times the last; omega <= 1, so
#: at most 92 sweeps reach OMEGA_MAX
CONTRACTION = 0.7

#: the two-grid cycle of a level of n >= 3 with a 2h level below it: this
#: many damped-Jacobi sweeps before and after the coarse correction, with
#: this weight
SMOOTHING_SWEEPS = 2
SMOOTHING_WEIGHT = 0.7

#: radius of the automatic cap over r0: the steepest cap over the ball
_AUTO_CAP = 1.05

#: continuation_solve nests a 2h level below a mesh only if that level has
#: at least this many nodes: the 2D disk of radius 1/2 gets none at
#: h = 1/32 (193 nodes at 1/16), the 3D ball one at h = 1/16 (251 at 1/8)
COARSEST_NODES = 200


@dataclass
class ProblemSpec:
    """Full description of one Dirichlet problem: dimension, domain, psi
    and lattice spacing, with an optional lower bound for psi, starting
    subsolution and eps schedule.  How Newton solves it is fixed by the
    module constants TOL_RESIDUAL, MAX_ITER and MIN_STEP.

    psi, psi_lower and subsolution are expression trees (see expr.parse);
    strings are parsed on construction for convenience.  eps_schedule None
    lets continuation_solve choose the schedule (see effective_schedule).
    """

    n: int
    shape: object
    psi: object
    h: float
    psi_lower: object = None
    subsolution: object = None
    eps_schedule: tuple | None = None

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"dimension must be an integer >= 2, got {self.n!r}")
        if self.shape.n != self.n:
            raise ValueError("shape dimension does not match n")
        check_lattice(self.shape, self.h)
        for name in ("psi", "psi_lower", "subsolution"):
            v = getattr(self, name)
            if isinstance(v, str):
                v = parse(v)
                object.__setattr__(self, name, v)
            if v is not None:
                check_dimension(v, self.n)
        if self.eps_schedule is not None:
            sched = tuple(float(e) for e in self.eps_schedule)
            if not sched:
                raise ValueError("eps schedule must not be empty")
            if not all(0.0 <= e < np.inf for e in sched):
                raise ValueError("eps schedule entries must be finite and >= 0")
            if any(a <= b for a, b in zip(sched, sched[1:])):
                raise ValueError("eps schedule must be strictly decreasing")
            self.eps_schedule = sched


@dataclass
class StageReport:
    """One Newton stage as newton_solve evaluated it: the start's and each
    accepted iterate's residual inf- and 2-norm and minimum cone margin,
    each accepted step, and the last iterate's sup norms of u, Du, D^2u."""

    eps: float
    residual_norms: list = field(default_factory=list)
    residual_2norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    sup_u: float = 0.0
    sup_du: float = 0.0
    sup_d2u: float = 0.0
    #: the approximate inverse held at the end of the stage: "lu", a sparse
    #: LU of J, or "two-grid", the cycle of a level of n >= 3 with a 2h
    #: level below it
    inverse: str = "lu"
    #: sparse LU factorizations (of J or of a two-grid's coarse operator),
    #: refinement sweeps or cycles on the held inverse, and fallbacks from a
    #: fresh two-grid that declined to a fine LU, spent in this stage
    factorizations: int = 0
    refinements: int = 0
    fallbacks: int = 0
    #: L+U nonzeros of the LU held at the end of the stage (a two-grid's
    #: is that of its coarse operator)
    lu_fill: int = 0
    #: per Newton equation J du = -F_k, its forcing target tau_k =
    #: min(1/10, FORCING ||F_k||_inf) ||F_k||_inf and the ||J du + F_k||_inf
    #: its du reached
    linear_targets: list = field(default_factory=list)
    linear_residuals: list = field(default_factory=list)
    #: "prolonged" when Newton started from the coarse level's solution of
    #: this stage, "warm" when from the previous stage's (or the initial) u
    start: str = "warm"
    #: minimum cone margin of a prolonged start the cone test rejected
    rejected_margin: float | None = None

    @property
    def iterations(self):
        return len(self.step_lengths)

    @property
    def min_margin(self):
        return self.margins[-1]

    def record(self, res, geo):
        """Append the norms of res and the minimum margin of geo."""
        self.residual_norms.append(float(np.abs(res).max()))
        self.residual_2norms.append(float(np.linalg.norm(res)))
        self.margins.append(float(geo.margin.min()))


@dataclass
class SolveReport:
    """The stages of the requested mesh, one per eps from the join on (see
    continuation_solve), and below them the SolveReport of the 2h level
    whose solutions started them (None without one)."""

    stages: list
    certificates: list = field(default_factory=list)
    #: one line of text per condition the solve worked around
    warnings: list = field(default_factory=list)
    coarse: SolveReport | None = None
    #: max |u_h - u_2h| / 3 over the nodes both meshes share: the Richardson
    #: estimate of a second-order discretization error; None without coarse
    error_estimate: float | None = None

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


def _psi_eps_derivs(spec, grid, u, p, eps):
    """(d/dz, d/dp) of psi_eps^{1/n} at all nodes of an iterate whose
    residual was evaluated, so psi >= 0 there.

    Chain rule through t = psi^{1/(n-1)}:
        psi_eps^{1/n} = (t + eps)^{(n-1)/n},
        d/d(z or p)   = (1/n) (t + eps)^{-1/n} t^{2-n} psi_{z or p}
    with the degenerate convention 0 * unbounded = 0 where psi_z itself
    vanishes (psi touching 0 forces a flat slope there or a kink we clamp).
    """
    n = spec.n
    val, dz, dp = eval_with_derivs(spec.psi, _psi_env(grid, u, p))
    t = np.asarray(val, dtype=float) ** (1.0 / (n - 1.0))
    # for n >= 4 the clamped t^{2-n} overflows at psi = 0; the where drops it
    base = np.maximum(t + eps, 1e-300) ** (-1.0 / n)
    with np.errstate(over="ignore", invalid="ignore"):
        chain = base * np.maximum(t, 1e-300) ** (2.0 - n) / n
        return (np.where(dz == 0.0, 0.0, chain * dz),
                np.where(dp == 0.0, 0.0, chain[..., None] * dp))


def _evaluate(spec, grid, u, eps, floor=None):
    """(res, (p, r, geo, psi)): the normalized residual of u and the stencil
    derivatives, plain geometry and psi values it was computed from.

    floor None demands margin > 0 at every node and raises NotAdmissible
    at the worst node otherwise.  A float floor is the line search's test,
    margin >= floor * (1 + |sigma_1|) node-wise; where it fails, res and
    psi are None and psi is not evaluated.
    """
    p, r = all_derivatives(grid, u)
    geo = batch_geometry(p, r, coeffs=False)
    if floor is None:
        if not np.all(geo.margin > 0.0):
            worst = int(np.argmin(geo.margin))
            raise NotAdmissible(
                f"iterate leaves the admissible cone at node {worst} "
                f"(margin {geo.margin[worst]:.3e})",
                margin=float(geo.margin[worst]), node=worst)
    elif not np.all(geo.margin >= floor * geo.cone_scale):
        return None, (p, r, geo, None)
    n = spec.n
    psi = np.asarray(evaluate(spec.psi, _psi_env(grid, u, p)), dtype=float)
    res = geo.K_eta ** (1.0 / n) - regularize_psi(psi, eps, n) ** (1.0 / n)
    return res, (p, r, geo, psi)


def residual(spec, grid, u, eps):
    """Normalized residual G^{1/n} - psi_eps^{1/n} per node.

    Raises NotAdmissible (with the worst node) when any node's curvature
    vector leaves the cone.
    """
    return _evaluate(spec, grid, u, eps)[0]


def jacobian(spec, grid, u, eps, state=None):
    """Sparse derivative of the normalized residual in CSR form.

    Row q chains (1/n) G^{1/n-1} through the Hessian stencils (G^{ij}) and
    gradient stencils (G^s), minus the psi_eps^{1/n} derivatives on the
    gradient stencils and the diagonal.  state is the (p, r, geo, psi) of u
    that an admissible _evaluate returned, used as given: only the geometry's
    coefficient block is added to it.  Without one, u is evaluated here
    (NotAdmissible off the cone).  J is assembled on the grid's fixed union
    pattern (Grid.ops_pattern), so its sparsity does not depend on u.
    """
    p, _, geo, _ = _evaluate(spec, grid, u, eps)[1] if state is None else state
    add_coefficients(geo, p)
    n = spec.n
    alpha = (1.0 / n) * geo.K_eta ** (1.0 / n - 1.0)
    droot_dz, droot_dp = _psi_eps_derivs(spec, grid, u, p, eps)
    return grid.ops_pattern().assemble(alpha[:, None, None] * geo.G2,
                                       alpha[:, None] * geo.Gs - droot_dp,
                                       -droot_dz)


class _Factorization:
    """The approximate inverse of a Newton Jacobian held for reuse: a
    sparse LU of J, or on a level of n >= 3 with a 2h level below it a
    two-grid cycle (_two_grid).

    One holder lives for a whole continuation_solve call, across Newton
    iterations and eps stages; it also counts the sparse factorizations
    (of J or of the cycle's coarse operator), the refinement sweeps, and
    the fallbacks from a two-grid to a fine LU.  Every factorization is of
    Q A Q^T, Q the nested-dissection order of A's grid: SuperLU is asked
    for no column ordering of its own and keeps its partial row pivoting.
    """

    def __init__(self, grid, coarse=None):
        self.perm = nested_dissection(grid)
        #: (P, coarse nested-dissection order) where the level holds a
        #: two-grid, else None
        self.transfer = None
        # not every n: a 2D nested-dissection LU fills only O(N log N),
        # so 2D keeps the fine LU
        if grid.n >= 3 and coarse is not None:
            self.transfer = (interpolation(coarse, grid),
                             nested_dissection(coarse))
        self.lu = None
        #: (J, SMOOTHING_WEIGHT / diag J) of the cycle that self.lu, A_c's
        #: LU, serves; None when self.lu is an LU of J
        self.smoother = None
        self.factorizations = 0
        self.refinements = 0
        self.fallbacks = 0

    @property
    def inverse(self):
        """The held kind: "two-grid" or "lu"."""
        return "lu" if self.smoother is None else "two-grid"

    def factorize(self, A, perm=None):
        """SuperLU of A in the order perm (default the grid's); not kept
        or counted."""
        p = self.perm if perm is None else perm
        return scipy.sparse.linalg.splu(A[p][:, p].tocsc(),
                                        permc_spec="NATURAL")

    def apply(self, b):
        """M b for the held approximate inverse M: J_lu^{-1} b for the
        Jacobian J_lu the held LU factorizes, else one two-grid cycle."""
        if self.smoother is not None:
            return self._cycle(b)
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm])
        return x

    def _two_grid(self, J, res, target):
        """Hold the two-grid cycle of J and refine on it to target (reuse):
        A_c = P^T J P, P the multilinear interpolation from the 2h level,
        factorized in the coarse grid's nested-dissection order.  None
        when A_c's factorization fails or the refinement declines."""
        P, perm_c = self.transfer
        try:
            lu = self.factorize((P.T @ (J @ P)).tocsr(), perm_c)
        except RuntimeError:
            return None
        self.factorizations += 1
        self.lu, self.smoother = lu, (J, SMOOTHING_WEIGHT / J.diagonal())
        return self.reuse(J, res, target)

    def _cycle(self, b):
        """x ~ J^{-1} b from x = 0: SMOOTHING_SWEEPS damped-Jacobi sweeps,
        the Galerkin coarse correction x += P A_c^{-1} P^T (b - J x), and
        SMOOTHING_SWEEPS more sweeps (Trottenberg, Oosterlee & Schuller,
        Multigrid, 2001, ch. 2)."""
        (J, weight), (P, perm_c) = self.smoother, self.transfer
        x = weight * b  # the first sweep, from x = 0
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += weight * (b - J @ x)
        r = P.T @ (b - J @ x)
        e = np.empty_like(r)
        e[perm_c] = self.lu.solve(r[perm_c])
        x += P @ e
        for _ in range(SMOOTHING_SWEEPS):
            x += weight * (b - J @ x)
        return x

    def reuse(self, J, res, target=0.0):
        """du with ||J du + res||_inf <= target or omega <= OMEGA_MAX,
        whichever it reaches first, as a solution of J du = -res, by
        iterative refinement on the held approximate inverse M:
        du = M(-res), then sweeps du <- du - M(J du + res).  None when
        nothing is held, and at the first sweep whose omega is not below
        CONTRACTION times the last, so a NaN or inf omega declines at once
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12).
        The default target 0 asks for omega <= OMEGA_MAX."""
        if self.lu is None:
            return None
        norm_J = abs(J).sum(axis=1).max()
        du, last = self.apply(-res), np.inf
        while True:
            lin = J @ du + res
            omega = _backward_error(lin, norm_J, du, res)
            if np.abs(lin).max() <= target or omega <= OMEGA_MAX:
                return du
            if not omega < CONTRACTION * last:
                return None
            du, last = du - self.apply(lin), omega
            self.refinements += 1

    def solve(self, J, res, target=0.0):
        """du as a solution of J du = -res with ||J du + res||_inf <= target
        or normwise backward error omega <= OMEGA_MAX (see _backward_error);
        the default target 0 asks for omega <= OMEGA_MAX.

        Refinement on the held inverse is tried first (reuse).  When a
        sweep does not cut omega below CONTRACTION times the last, it
        declines, and the level's inverse is built afresh from J: a two-grid
        is refined on again, and an LU of J is solved directly.  When a
        fresh two-grid declines too, J is factorized and solved directly
        (a fallback).  A direct solve is held to omega <= OMEGA_MAX
        whatever the target, and one that misses it raises
        LinearSolveFailure (newton_solve attaches its stage).
        """
        du = self.reuse(J, res, target)
        if du is None and self.transfer is not None:
            du = self._two_grid(J, res, target)
            if du is None:
                self.fallbacks += 1
        if du is not None:
            return du
        try:
            self.lu, self.smoother = self.factorize(J), None
            du = self.apply(-res)
        except RuntimeError as exc:
            raise LinearSolveFailure(
                f"sparse factorization failed: {exc}") from exc
        self.factorizations += 1
        omega = _backward_error(J @ du + res, abs(J).sum(axis=1).max(), du, res)
        if not omega <= OMEGA_MAX:
            raise LinearSolveFailure(
                f"linear solve backward error {omega:.3e} exceeds the "
                f"contract omega <= 64u = {OMEGA_MAX:.3g}")
        return du


def _backward_error(lin, norm_J, du, res):
    """The Rigal-Gaches normwise backward error omega of du as a solution
    of J du = -res, from lin = J du + res and norm_J = ||J||_inf:

        omega = ||J du + res||_inf / (||J||_inf ||du||_inf + ||res||_inf),

    the smallest relative perturbation of J and res that du solves exactly
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm. 7.1)."""
    lin = np.abs(lin).max()
    scale = norm_J * np.abs(du).max() + np.abs(res).max()
    return float(lin / scale if scale > 0.0 else lin)


def newton_solve(spec, grid, u0, eps, factorization=None):
    """Damped Newton from an admissible start; returns (u, StageReport).

    The stage ends once the inf-norm residual is at most TOL_RESIDUAL,
    within MAX_ITER iterations.  Backtracking accepts the first s in
    {1, 1/2, ..., MIN_STEP} with (a) node-wise admissibility margin
    >= 1e-12 (1 + sigma_1) and (b) 2-norm decreased by the factor (1 - s/4)
    or inf-norm already at TOL_RESIDUAL.  A warm start at the solution
    therefore costs one iteration at step 1, not a stagnation report.  At
    eps = 0 a psi that is not positive at every node of the (admissible)
    start raises SolverFailure; every SolverFailure carries the partial
    report as exc.stage.

    Newton equation k, J du = -res, is solved inexactly: to the target
    tau_k = eta_k ||res||_inf, with the forcing term eta_k = min(1/10,
    FORCING ||res||_inf) that keeps the local convergence quadratic
    (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996), or to a normwise
    backward error ||J du + res||_inf / (||J||_inf ||du||_inf + ||res||_inf)
    of at most OMEGA_MAX = 64u, u the unit roundoff, whichever comes first;
    a direct solve with a fresh LU is held to OMEGA_MAX.  The stop test
    ||res||_inf <= TOL_RESIDUAL does not depend on the forcing.  Iterative
    refinement on the held approximate inverse (an LU or a two-grid cycle)
    is tried first; a new one is built from J at the first sweep that
    does not cut omega below CONTRACTION times the last.  factorization is
    the _Factorization holder shared along a continuation; a fresh one,
    which holds LUs only, is made when None.
    """
    if factorization is None:
        factorization = _Factorization(grid)
    done = (factorization.factorizations, factorization.refinements,
            factorization.fallbacks)
    stage = StageReport(eps)
    u = np.asarray(u0, dtype=float).copy()
    # raises NotAdmissible on a bad start
    res, state = _evaluate(spec, grid, u, eps)
    stage.record(res, state[2])
    try:
        if eps == 0.0 and float(state[3].min()) <= 0.0:
            raise SolverFailure(
                f"eps = 0 requires psi > 0 on the grid (min {state[3].min():g})")
        for _ in range(MAX_ITER):
            J = jacobian(spec, grid, u, eps, state)
            norm_inf = stage.residual_norms[-1]
            target = min(0.1, FORCING * norm_inf) * norm_inf
            du = factorization.solve(J, res, target)
            stage.linear_targets.append(target)
            stage.linear_residuals.append(float(np.abs(J @ du + res).max()))
            norm0 = stage.residual_2norms[-1]
            s = 1.0
            while s >= MIN_STEP:
                trial = u + s * du
                trial_res, trial_state = _evaluate(spec, grid, trial, eps,
                                                   floor=1e-12)
                if trial_res is not None and (
                        np.linalg.norm(trial_res) <= (1.0 - s / 4.0) * norm0
                        or np.abs(trial_res).max() <= TOL_RESIDUAL):
                    u, res, state = trial, trial_res, trial_state
                    stage.record(res, state[2])
                    stage.step_lengths.append(s)
                    break
                s *= 0.5
            else:
                raise Stagnation(
                    f"no step >= {MIN_STEP:g} acceptable (eps={eps:g})")
            if stage.residual_norms[-1] <= TOL_RESIDUAL:
                return u, stage
        raise MaxIterations(
            f"residual {stage.residual_norms[-1]:.3e} > {TOL_RESIDUAL:g} "
            f"after {MAX_ITER} iterations")
    except SolverFailure as exc:
        exc.stage = stage
        raise
    finally:
        p, r = state[:2]
        stage.sup_u = float(np.abs(u).max())
        stage.sup_du = float(np.linalg.norm(p, axis=1).max())
        stage.sup_d2u = float(np.abs(_eigenvalues(r)).max())
        stage.factorizations = factorization.factorizations - done[0]
        stage.refinements = factorization.refinements - done[1]
        stage.fallbacks = factorization.fallbacks - done[2]
        stage.inverse = factorization.inverse
        stage.lu_fill = int(getattr(factorization.lu, "nnz", 0))


def cap_function(grid, R):
    """Sphere-cap grid samples u = -sqrt(R^2 - |x|^2) + sqrt(R^2 - r0^2)."""
    r0 = grid.shape.r0
    rad2 = np.sum(grid.pos ** 2, axis=1)
    return -np.sqrt(R * R - rad2) + np.sqrt(R * R - r0 * r0)


def initial_guess(spec, grid):
    """Starting iterate: the provided subsolution, else the automatic sphere
    cap of radius _AUTO_CAP r0, the steepest cap, on a ball.  ValueError
    when the subsolution reads more than position or fails its
    certificate."""
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
    return cap_function(grid, _AUTO_CAP * grid.shape.r0)


def continuation_solve(spec, grid=None, u0=None):
    """(u, SolveReport): the schedules of effective_schedule run in order
    from u0 (default initial_guess), each with a fresh factorization, until
    one completes.  A failed schedule adds a warning line; the last one's
    SolverFailure propagates.  The caller attaches the certificates.

    Nested iteration: the same problem is first solved on the 2h lattice,
    recursively while that lattice has at least COARSEST_NODES nodes, from
    u0 injected onto it and with the same schedules.  A level with a coarse
    level starts its schedule at the join: the last eps but one, or failing
    that the eps before it and so on, whose solution on the next coarser
    level, prolonged, passes the cone test.  The eps before the join run on
    the coarser levels only, and the last two always run on every level.
    Each later stage starts from its prolonged coarse solution when that
    passes the cone test, else warm from the previous stage.  Without a
    join the whole schedule runs from u0, warm where the prolonged start
    fails.  A coarse level that fails adds a warning line and the solve
    goes on without coarse starts.  Only the requested mesh's stages, from
    its join on, are in report.stages; the coarse levels are in
    report.coarse, the coarsest with every eps of the schedule.
    """
    ok, _ = check_two_convex(spec.shape)
    if not ok:
        raise ValueError("domain fails the 2-convexity check")
    if grid is None:
        grid = build_grid(spec.shape, spec.h)
    schedules, notes = effective_schedule(spec, grid)
    u0 = initial_guess(spec, grid) if u0 is None else np.asarray(u0, dtype=float)
    u, report, _ = _solve_level(spec, grid, u0, schedules, notes)
    return u, report


def _solve_level(spec, grid, u0, schedules, notes):
    """(u, SolveReport, solved) on grid, solved mapping each eps that this
    level ran, from its join on, of the schedule that completed to its
    solution; see continuation_solve."""
    coarse = coarse_grid(grid, COARSEST_NODES)
    starts, sub = {}, None
    if coarse is not None:
        shared = grid.rows_at(2 * coarse.idx)
        try:
            u_c, sub, solved_c = _solve_level(replace(spec, h=coarse.h), coarse,
                                              u0[shared], schedules,
                                              _dropped_notes(coarse))
        except SolverFailure as exc:
            notes.append(f"coarse level h={coarse.h:g} failed ({exc}); "
                         "solving without coarse starts")
        else:
            P = prolongation(coarse, grid)
            starts = {eps: P @ v for eps, v in solved_c.items()}
    for k, schedule in enumerate(schedules):
        factorization = _Factorization(grid, coarse)
        try:
            u, stages, solved = _walk(spec, grid, u0, schedule, starts,
                                      factorization)
        except SolverFailure as exc:
            if k + 1 == len(schedules):
                raise
            tried, then = (", ".join(f"{eps:g}" for eps in s)
                           for s in (schedule, schedules[k + 1]))
            notes.append(
                f"direct eps = {tried} solve failed after "
                f"{exc.stage.iterations} Newton iterations and "
                f"{exc.stage.factorizations} factorizations ({exc}); "
                f"rerunning down eps = {then}")
            continue
        report = SolveReport(stages=stages, warnings=notes, coarse=sub)
        if sub is not None:
            report.error_estimate = float(np.abs(u[shared] - u_c).max()) / 3.0
        return u, report, solved


def _walk(spec, grid, u0, schedule, starts, factorization):
    """(u, stages, solved) down schedule on grid from its join; starts
    maps each eps the coarse level solved to its prolonged solution.

    The join scan tries those starts from the last eps but one back toward
    the first; the first that passes the cone test starts the join stage,
    and the eps before it run on the coarse levels only.  The last two eps
    always run here, so estimate_evidence can compare them.  Without a join
    the whole schedule runs from u0.  A stage whose prolonged start the
    scan rejected starts warm with that margin, so no start is evaluated
    twice."""
    rejected = {}
    for j in range(len(schedule) - 2, -1, -1):
        eps = schedule[j]
        if eps not in starts:
            continue
        try:
            u, stage = _prolonged(spec, grid, starts[eps], eps, factorization)
        except NotAdmissible as exc:
            rejected[eps] = exc.margin
        else:
            stages, solved = [stage], {eps: u}
            break
    else:
        j, u, stages, solved = -1, u0, [], {}
    for eps in schedule[j + 1:]:
        u, stage = _stage(spec, grid, starts.get(eps), u, eps, factorization,
                          rejected.get(eps))
        stages.append(stage)
        solved[eps] = u
    return u, stages, solved


def _prolonged(spec, grid, start, eps, factorization):
    """newton_solve from a prolonged coarse solution; its first evaluation
    raises NotAdmissible, before any work, when start fails the cone test."""
    u, stage = newton_solve(spec, grid, start, eps, factorization)
    stage.start = "prolonged"
    return u, stage


def _stage(spec, grid, prolonged, warm, eps, factorization, rejected=None):
    """newton_solve from the prolonged coarse solution when there is one
    and it passes the cone test, else from warm; rejected is the margin of
    a prolonged start already found outside the cone, not tried again."""
    if prolonged is not None and rejected is None:
        try:
            return _prolonged(spec, grid, prolonged, eps, factorization)
        except NotAdmissible as exc:
            rejected = exc.margin
    u, stage = newton_solve(spec, grid, warm, eps, factorization)
    stage.rejected_margin = rejected
    return u, stage


def effective_schedule(spec, grid):
    """(schedules, notes): the eps schedules continuation_solve tries in
    order, and its warning lines: no cap dominates psi_eps at the first eps
    run, that of the first schedule (a wider cap's curvature product is
    smaller still), the eps replacement, the dropped mixed stencils.

    psi is evaluated, and checked, only on the grid at the rest state.  An
    explicit schedule is the one schedule; without one, (0,) then LADDER
    where psi > 0 there, else LADDER.  Where psi is not positive there a
    trailing 0 is replaced by a small eps; all schedules end at one eps."""
    n = spec.n
    env = _psi_env(grid, np.zeros(grid.size), np.zeros_like(grid.pos))
    psi = np.asarray(evaluate(spec.psi, env), dtype=float)
    psi_min = float(psi.min())
    if psi_min < 0.0:
        raise NegativePsi(f"psi must be nonnegative, worst value {psi_min:g}")
    notes = []
    schedule = spec.eps_schedule or LADDER
    if psi_min > 0.0:
        schedules = (((0.0,), LADDER) if spec.eps_schedule is None
                     else (schedule,))
    elif schedule[-1] == 0.0:
        last = 1e-5 if len(schedule) == 1 else min(1e-5, schedule[-2] / 10.0)
        schedules = (schedule[:-1] + (last,),)
        notes.append(f"psi vanishes on the grid (min {psi_min:g}); "
                     f"final stage runs at eps={last:g} instead of 0")
    else:
        schedules = (schedule,)
    if spec.subsolution is None and grid.shape.kind == "ball":
        cap = (n - 1) / (_AUTO_CAP * grid.shape.r0)
        first = regularize_psi(psi, schedules[0][0], n)
        if not cap ** n >= float(first.max()):
            notes.insert(
                0, "no cap dominates psi; starting from the steepest cap")
    return schedules, notes + _dropped_notes(grid)


def _dropped_notes(grid):
    """The warning line for grid's empty mixed stencils, if it has any."""
    dropped = len(grid.mixed_dropped)
    return ([f"mixed-derivative stencils set to zero for want of usable "
             f"nodes: {dropped}"] if dropped else [])


def write_solution(path, spec, grid, u, report, config_echo=()):
    """Columnar solution file with a '#' header echoing report's summary.

    Full 17-significant-digit decimals: identical configs reproduce the
    file bitwise.  The residual column is taken at the report's final eps.
    """
    n = spec.n
    res, (p, r, geo, _) = _evaluate(spec, grid, u, report.final.eps)
    cols = [f"x{i+1}" for i in range(n)] + ["u"] + [f"du{s+1}" for s in range(n)]
    cols += [f"d2u{i+1}{j+1}" for i in range(n) for j in range(i, n)]
    cols += [f"kappa{i+1}" for i in range(n)] + ["Keta", "residual"]
    lines = [f"# etacurv solution n={n} nodes={grid.size} h={grid.h:.17g}"]
    lines += [f"# {line}" for line in config_echo]
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
