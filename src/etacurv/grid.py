"""Masked Cartesian finite-difference grids with boundary-fitted stencils.

The lattice {i*h} is clipped to a convex shape's open interior.  Nodes whose
2n axis neighbors are all interior are "regular" and get central
second-order stencils.  Nodes next to the boundary are "irregular": the
distance to the boundary crossing along each blocked arm is found by
bisection on the shape's implicit function, and the three-point
unequal-arm (Shortley-Weller) formulas take over for u_s and u_ss.  Mixed
derivatives use the centered four-corner cross when all corners are
interior and otherwise fall back to a one-sided quadrant stencil built
from interior nodes only.

Neighbors are found in a dense lookup array over the lattice's bounding
box, and every stencil is built by array operations over all nodes at once.

Every stencil lives in one stacked CSR operator, Grid.ops(), of shape
(k*m, m) with k = n(n+1)/2 + n: row slot * m + q applies derivative `slot`
at node q (slot order: _hessian_slots).  Dirichlet data is identically
zero, so boundary samples drop out of it.  all_derivatives is one product
with it; fd_derivatives reads one node's k rows and also accepts a
boundary callable, so consistency tests can feed the true trace of a
polynomial.  OpsPattern.assemble sums its slot blocks scaled row-wise by
coefficients shaped like (D^2u, Du, u): the solver's Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .geometry import PointState


def _hessian_slots(n):
    """(i, j) of the stacked operator's first n(n+1)/2 slots: the Hessian
    entries i <= j, row-major.  The n gradient slots d/dx_s follow them.
    This is the one definition of the slot order; every reader uses it."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def _unstack(d, n):
    """(p, r): gradient (..., n) and symmetric Hessian (..., n, n) from
    derivative values d of shape (k, ...) in slot order."""
    hess = _hessian_slots(n)
    r = np.empty(d.shape[1:] + (n, n))
    for k, (i, j) in enumerate(hess):
        r[..., i, j] = r[..., j, i] = d[k]
    return np.ascontiguousarray(np.moveaxis(d[len(hess):], 0, -1)), r


@dataclass
class OpsPattern:
    """Union sparsity pattern of the stacked operator's slot blocks and the
    identity, for sums of row-scaled blocks.

    For every nonzero stack entry, then every diagonal entry of the
    identity (as if stacked as rows k*m .. k*m + m - 1), the pattern holds
    its value, its stack row (slot * m + node) and its position in the
    union's CSR data array.
    """

    n: int
    shape: tuple
    indices: np.ndarray
    indptr: np.ndarray
    gather: np.ndarray
    vals: np.ndarray
    target: np.ndarray

    def assemble(self, hess, grad, diag):
        """CSR sum_{i,j} diag(hess[:, i, j]) D_ij + sum_s diag(grad[:, s]) D_s
        + diag(diag), the linearization in (D^2u, Du, u).

        hess (m, n, n), grad (m, n) and diag (m,) are shaped like the
        derivatives they multiply; hess is read on i <= j, each mixed entry
        counted twice, since D_ij = D_ji.  One gather-multiply and one
        bincount, which adds each position's terms in stack order, as a
        chain of CSR additions would.  The pattern is the union's whatever
        the coefficients: entries that come out exactly zero are kept.
        """
        weights = np.concatenate(
            [[hess[:, i, j] * (1.0 if i == j else 2.0)
              for i, j in _hessian_slots(self.n)], grad.T, diag[None]])
        terms = weights.ravel()[self.gather] * self.vals
        data = np.bincount(self.target, weights=terms, minlength=len(self.indices))
        return scipy.sparse.csr_matrix((data, self.indices, self.indptr),
                                       shape=self.shape)


@dataclass
class Grid:
    shape: object
    h: float
    idx: np.ndarray          # (m, n) lattice indices, lexicographically sorted
    pos: np.ndarray          # (m, n) coordinates = idx * h
    cls: np.ndarray          # (m,) 0 = interior-regular, 1 = interior-irregular
    nb: np.ndarray           # (m, n, 2) neighbor row for (+, -) arm, -1 = boundary
    theta: np.ndarray        # (m, n, 2) arm length / h, in (0, 1]; 1 where neighbor interior
    lookup: np.ndarray       # lattice bounding box padded by one layer: row, -1 outside
    _ops: scipy.sparse.csr_matrix | None = field(default=None, repr=False)
    _dropped: list | None = field(default=None, repr=False)
    _pattern: OpsPattern | None = field(default=None, repr=False)

    @property
    def n(self):
        return self.idx.shape[1]

    @property
    def size(self):
        return self.idx.shape[0]

    def rows_at(self, keys):
        """Rows of the lattice keys (..., n); -1 where a key names no interior node."""
        keys = np.asarray(keys, dtype=np.int64)
        # the box is symmetric about key 0, whose entry sits at its center
        box = np.array(self.lookup.shape)
        local = keys + (box - 1) // 2
        inbox = ((local >= 0) & (local < box)).all(axis=-1)
        # clipped so no key wraps; a clipped key's row is masked out
        flat = np.ravel_multi_index(np.moveaxis(local, -1, 0), box, mode="clip")
        return np.where(inbox, self.lookup.ravel()[flat], -1)

    def ops(self):
        """The stacked stencil operator, CSR (k*m, m) with k = n(n+1)/2 + n:
        row slot * m + q applies the slot's derivative at node q (slot
        order: _hessian_slots).  Built on first use and kept."""
        if self._ops is None:
            self._ops, self._dropped = _build_ops(self)
        return self._ops

    @property
    def mixed_dropped(self):
        """(node, i, j) of each mixed stencil that ops() leaves empty for
        want of usable nodes; builds ops() on first use."""
        self.ops()
        return list(self._dropped)

    def ops_pattern(self):
        """The OpsPattern of ops(), built on first use and kept."""
        if self._pattern is None:
            self._pattern = _build_pattern(self)
        return self._pattern


def build_grid(shape, h):
    """Clip the spacing-h lattice to the shape and precompute arm geometry."""
    if h <= 0.0:
        raise ValueError("spacing must be positive")
    n = shape.n
    half = [int(np.floor(a / h)) for a in shape.semiaxes]
    mesh = np.meshgrid(*[np.arange(-k, k + 1) for k in half], indexing="ij")
    idx_all = np.stack([m.ravel() for m in mesh], axis=-1)
    pos_all = idx_all * h
    inside = shape.implicit(pos_all) < 0.0
    idx = np.ascontiguousarray(idx_all[inside])   # meshgrid order = lexicographic
    pos = np.ascontiguousarray(pos_all[inside])
    m = idx.shape[0]  # >= 1: every shape is centred, so the origin is interior

    lookup = np.full([2 * k + 3 for k in half], -1, dtype=np.int64)
    lookup[(slice(1, -1),) * n][inside.reshape(mesh[0].shape)] = np.arange(m)
    grid = Grid(shape=shape, h=float(h), idx=idx, pos=pos, cls=None, nb=None,
                theta=np.ones((m, n, 2)), lookup=lookup)
    unit = np.eye(n, dtype=np.int64)
    arms = np.stack([unit, -unit], axis=1)  # arms[s, t]: the (+, -) step along s
    grid.nb = grid.rows_at(idx[:, None, None, :] + arms)
    cross = np.argwhere(grid.nb < 0)  # (q, s, t), in node-major order
    if len(cross):
        cross = np.column_stack([cross, 1 - 2 * cross[:, 2]])  # the arm's sign
        theta_cross = _bisect_arms(shape, pos, h, cross)
        grid.theta[cross[:, 0], cross[:, 1], cross[:, 2]] = theta_cross
    grid.cls = (grid.nb < 0).any(axis=(1, 2)).astype(np.uint8)
    return grid


def _bisect_arms(shape, pos, h, cross):
    """Arm fractions theta in (0, 1]: phi(x + theta*sign*h*e_s) = 0 to 1e-12."""
    x0 = pos[cross[:, 0]]
    step = np.zeros_like(x0)
    step[np.arange(len(cross)), cross[:, 1]] = cross[:, 3] * h
    phi_end = shape.implicit(x0 + step)
    # interior start guarantees phi(0) < 0 <= phi(1)
    lo = np.zeros(len(cross))
    hi = np.ones(len(cross))
    exact = phi_end == 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        neg = shape.implicit(x0 + mid[:, None] * step) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    out = 0.5 * (lo + hi)
    out[exact] = 1.0
    return out


def _arm_coeffs(hp, hm):
    """Three-point derivative weights for samples u(+hp), u(-hm), u(0).

    Lagrange differentiation through the three points; exact for quadratics,
    reduces to the central formulas when hp = hm.  Works elementwise on arrays.
    """
    s = hp + hm
    d1 = (hm / (hp * s), -hp / (hm * s), (hp - hm) / (hp * hm))
    d2 = (2.0 / (hp * s), 2.0 / (hm * s), -2.0 / (hp * hm))
    return d1, d2


def _build_ops(grid):
    """(ops, dropped): Shortley-Weller axis stencils and mixed stencils, as
    the stacked CSR operator, each stencil in its slot's block of rows; and
    the (node, i, j) of the mixed stencils left empty.

    Axis s: the arms' entries where the neighbor is interior (boundary
    samples are zero and drop out) plus the diagonal, stored even where it
    is exactly 0.  Mixed (i, j): the centered four-corner cross where all
    corners are interior; else the first quadrant, toward the domain center
    first, whose three offset nodes are interior; else the node is dropped
    and its row stays empty.
    """
    m, n, h = grid.size, grid.n, grid.h
    q = np.arange(m)
    hess = _hessian_slots(n)
    slot = {pair: k for k, pair in enumerate(hess)}
    rows, cols, vals, dropped = [], [], [], []
    for s in range(n):
        d1, d2 = _arm_coeffs(grid.theta[:, s, 0] * h, grid.theta[:, s, 1] * h)
        arm = [grid.nb[:, s, t] >= 0 for t in (0, 1)]
        nodes = np.concatenate([q[arm[0]], q[arm[1]], q])
        nbrs = np.concatenate([grid.nb[arm[0], s, 0], grid.nb[arm[1], s, 1], q])
        for k, d in ((len(hess) + s, d1), (slot[s, s], d2)):
            rows.append(k * m + nodes)
            cols.append(nbrs)
            vals.append(np.concatenate([d[0][arm[0]], d[1][arm[1]], d[2]]))

    unit = np.eye(n, dtype=np.int64)
    for i, j in hess:
        if i == j:
            continue

        def rows_at(nodes, di, dj):
            step = np.multiply.outer(di, unit[i]) + np.multiply.outer(dj, unit[j])
            return grid.rows_at(grid.idx[nodes] + step)

        def add(nodes, stencil, c):  # stencil rows (4, k), weights c * (1, -1, -1, 1)
            rows.append(slot[i, j] * m + np.repeat(nodes, 4))
            cols.append(stencil.T.ravel())
            vals.append(np.multiply.outer(c, [1.0, -1.0, -1.0, 1.0]).ravel())

        corners = np.stack([rows_at(q, 1, 1), rows_at(q, 1, -1),
                            rows_at(q, -1, 1), rows_at(q, -1, -1)])
        full = (corners >= 0).all(axis=0)
        add(q[full], corners[:, full], np.full(int(full.sum()), 1.0 / (4.0 * h * h)))
        left = q[~full]
        free = np.ones(len(left), dtype=bool)  # left nodes still without a stencil
        si0 = np.where(grid.pos[left, i] > 0, -1, 1)
        sj0 = np.where(grid.pos[left, j] > 0, -1, 1)
        for si, sj in ((si0, sj0), (si0, -sj0), (-si0, sj0), (-si0, -sj0)):
            stencil = np.stack([rows_at(left, si, sj), rows_at(left, si, 0),
                                rows_at(left, 0, sj), left])
            use = free & (stencil >= 0).all(axis=0)
            free &= ~use
            add(left[use], stencil[:, use], 1.0 / (si[use] * sj[use] * h * h))
        dropped.extend((k, i, j) for k in left[free].tolist())
    # no (row, col) repeats, so CSR conversion only sorts each row's columns
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=((len(hess) + n) * m, m)), dropped


def _build_pattern(grid):
    stack = grid.ops().tocoo()
    m = grid.size
    keep = stack.data != 0.0  # stored zeros add nothing to any sum
    eye = np.arange(m)
    rows = np.concatenate([stack.row[keep], stack.shape[0] + eye]).astype(np.int64)
    cols = np.concatenate([stack.col[keep], eye]).astype(np.int64)
    # int64: the keys node * m + col pass 2**31 once m > 46,340 nodes
    keys, target = np.unique(rows % m * m + cols, return_inverse=True)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // m, minlength=m), out=indptr[1:])
    return OpsPattern(
        n=grid.n, shape=(m, m), indices=(keys % m).astype(np.int32),
        indptr=indptr, gather=rows,
        vals=np.concatenate([stack.data[keep], np.ones(m)]), target=target)


#: nested dissection stops splitting parts of at most this many nodes
_DISSECTION_LEAF = 32


def nested_dissection(grid):
    """Fill-reducing elimination order of the interior nodes (George 1973).

    Each part is split on the median lattice plane of its widest axis: the
    nodes below the plane come first, then those above it, then the plane
    itself.  Every stencil couples nodes at most one lattice step apart per
    axis, so the plane separates the two sides exactly.  Parts of at most
    _DISSECTION_LEAF nodes keep the lexicographic order.  Returns perm with
    perm[k] the node eliminated k-th.
    """
    idx = grid.idx
    order = []

    def dissect(nodes):
        if len(nodes) <= _DISSECTION_LEAF:
            order.append(nodes)
            return
        sub = idx[nodes]
        axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        coord = sub[:, axis]
        plane = np.sort(coord)[len(coord) // 2]
        dissect(nodes[coord < plane])
        dissect(nodes[coord > plane])
        order.append(nodes[coord == plane])

    dissect(np.arange(grid.size))
    return np.concatenate(order)


def all_derivatives(grid, u):
    """Gradient (m, n) and Hessian (m, n, n) of a grid function: one product
    with the stacked operator."""
    d = grid.ops() @ np.asarray(u, dtype=float)
    return _unstack(d.reshape(-1, grid.size), grid.n)


def fd_derivatives(grid, u, node, boundary=None):
    """PointState (Du, D^2u) at one interior node, from its k rows of ops().

    boundary(x) supplies Dirichlet samples at arm crossings (default 0,
    the problem's boundary condition, which the operators omit): each
    blocked arm adds its Shortley-Weller weight times the sample.  Mixed
    terms never need boundary samples: they use interior-only stencils by
    construction.
    """
    u = np.asarray(u, dtype=float)
    ops = grid.ops()
    m, n, h = grid.size, grid.n, grid.h
    q = int(node)
    p, r = _unstack(ops[np.arange(ops.shape[0] // m) * m + q] @ u, n)
    if boundary is not None:
        for s in range(n):
            d1, d2 = _arm_coeffs(grid.theta[q, s, 0] * h, grid.theta[q, s, 1] * h)
            for t in np.flatnonzero(grid.nb[q, s] < 0):
                xc = grid.pos[q].copy()
                xc[s] += (1 - 2 * t) * grid.theta[q, s, t] * h
                sample = float(boundary(xc))
                p[s] += d1[t] * sample
                r[s, s] += d2[t] * sample
    return PointState(p=p, r=r)
