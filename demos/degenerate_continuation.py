#!/usr/bin/env python3
"""Continuation trace on a degenerate right-hand side.

psi = r^2 vanishes at the origin, so the equation loses uniform
ellipticity there and the solution is only C^{1,1}.  The solver handles
this by replacing psi with (psi^{1/(n-1)} + eps)^{n-1} and walking eps
down a schedule, warm-starting each stage.  The walk runs on the coarsest
level, h = 1/16; the h = 1/32 and h = 1/64 meshes each join it at the
last eps but one or earlier, from the first prolonged coarse solution
inside the cone.

This script prints the per-stage trace of that eps path, each row with
the spacing it ran at (iteration counts, final residuals and the stop
tolerance each stage ran to, cone margins, derivative sup norms): an eps
that only starts the next one stops at solver.STAGE_TOL, and each
level's last eps at solver.TOL_RESIDUAL.  It then cross-checks the
grid solution against an independent oracle: the radial reduction,
solved by its first integral at the same final regularization.  The two
discretizations share no code beyond the expression evaluator, so
agreement at the discretization scale is strong evidence both are right.
"""

import numpy as np

from etacurv.certify import standard_certificates
from etacurv.domain import DomainShape
from etacurv.grid import build_grid
from etacurv.radial import shoot
from etacurv.solver import ProblemSpec, continuation_solve, initial_guess

H = 1.0 / 64.0
SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)


def main():
    spec = ProblemSpec(n=2, shape=DomainShape((0.5, 0.5)), psi="r^2", h=H,
                       eps_schedule=SCHEDULE)
    grid = build_grid(spec.shape, spec.h)
    u0 = initial_guess(spec, grid)
    u, report = continuation_solve(spec, grid, u0)

    # the levels, coarsest first, and each one's stages before the finer
    # level joins the eps path
    levels = report.levels[::-1]
    joins = [finer.stages[0].eps for finer in levels[1:]] + [-1.0]
    path = [(level.h, s) for level, join in zip(levels, joins)
            for s in level.stages if s.eps > join]

    print("continuation on psi = r^2 (degenerate at the origin), h = 1/64")
    print(f"{'h':>6} {'eps':>8} {'iters':>6} {'start':>9} {'residual':>10} "
          f"{'tol':>7} {'margin':>10} {'sup|Du|':>9} {'sup|D2u|':>9}")
    for h, s in path:
        print(f"{f'1/{round(1 / h)}':>6} {s.eps:8.0e} {s.iterations:6d} "
              f"{s.start:>9} {s.residual_norms[-1]:10.2e} {s.tol:7.0e} "
              f"{s.min_margin:10.3e} {s.sup_du:9.5f} {s.sup_d2u:9.5f}")

    # independent oracle: the radial reduction at the same eps
    prof = shoot(spec.psi, 0.5, 2, steps=4096, eps=SCHEDULE[-1])
    axis = np.where(grid.pos[:, 1] == 0.0)[0]
    gap = np.abs(u[axis] - np.interp(np.abs(grid.pos[axis, 0]),
                                     prof.r, prof.u)).max()
    print(f"\nradial oracle u(0) = {prof.center_value:.12f}")
    center = int(np.argmin(np.sum(grid.pos ** 2, axis=-1)))
    print(f"grid solution u(0) = {u[center]:.12f}")
    print(f"axis L_inf gap     = {gap:.3e}  (5 h^2 = {5 * H * H:.3e})")

    print()
    for cert in standard_certificates(u, u0, grid, report):
        print("certificate " + cert.line())


if __name__ == "__main__":
    main()
