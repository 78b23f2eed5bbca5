"""Solver suite for the Dirichlet problem of prescribed eta-curvature graphs.

The equation: find u on a convex domain Omega, u = 0 on the boundary, whose
graph has K_eta = prod_i (sum_{j != i} kappa_j) equal to a prescribed
psi(x, u, nu) >= 0.  Degenerate right-hand sides are handled by solving a
strictly positive regularization and continuing eps -> 0.
"""
