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

Dirichlet data is identically zero, so boundary samples drop out of the
assembled sparse operators, the one source of stencils; fd_derivatives
reads one node's row of them and additionally accepts an explicit boundary
callable so consistency tests can feed the true trace of a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .geometry import PointState


class EmptyGrid(Exception):
    """The spacing admits no interior lattice node."""


@dataclass
class GridOps:
    """Per-grid sparse stencil operators acting on interior-node vectors.

    Dx[s] applies d/dx_s; D2[(i, j)] (i <= j) applies d^2/dx_i dx_j.
    Boundary samples are omitted (zero Dirichlet data).
    """

    Dx: list
    D2: dict


@dataclass
class OpsPattern:
    """Union sparsity pattern of a grid's operators, for row-weighted sums.

    The operators are stacked in the order D2[(i, j)] (i <= j, row-major),
    Dx[0..n-1], then the identity.  For every stacked entry the pattern
    holds its value, the flat index (operator * m + row) of its weight and
    its slot in the union's CSR data array.
    """

    shape: tuple
    indices: np.ndarray
    indptr: np.ndarray
    gather: np.ndarray
    vals: np.ndarray
    slot: np.ndarray

    def assemble(self, weights):
        """CSR sum_k diag(weights[k]) op_k for weights of shape (n_ops, m).

        One gather-multiply and one bincount; bincount adds each slot's
        terms in operator order, as a chain of CSR additions would.  The
        pattern is the union's whatever the weights: entries that come out
        exactly zero are kept.
        """
        terms = weights.ravel()[self.gather] * self.vals
        data = np.bincount(self.slot, weights=terms, minlength=len(self.indices))
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
    mixed_dropped: list = field(default_factory=list)  # (node, i, j) with no usable stencil
    _ops: GridOps | None = field(default=None, repr=False)
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
        if self._ops is None:
            self._ops = _build_ops(self)
        return self._ops

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
    m = idx.shape[0]
    if m == 0:
        raise EmptyGrid(f"no interior lattice node at spacing h={h:g}")

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


def _stencil_matrix(m, rows, cols, vals):
    """CSR (m, m) from per-entry lists of arrays; no (row, col) repeats."""
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m))


def _build_ops(grid):
    """Shortley-Weller axis stencils and mixed stencils, as CSR operators.

    Axis s: the arms' entries where the neighbor is interior (boundary
    samples are zero and drop out) plus the diagonal, stored even where it
    is exactly 0.  Mixed (i, j): the centered four-corner cross where all
    corners are interior; else the first quadrant, toward the domain center
    first, whose three offset nodes are interior; else the node goes to
    grid.mixed_dropped and its row stays empty.
    """
    m, n, h = grid.size, grid.n, grid.h
    q = np.arange(m)
    Dx = []
    D2 = {}
    for s in range(n):
        d1, d2 = _arm_coeffs(grid.theta[:, s, 0] * h, grid.theta[:, s, 1] * h)
        arm = [grid.nb[:, s, t] >= 0 for t in (0, 1)]
        rows = [q[arm[0]], q[arm[1]], q]
        cols = [grid.nb[arm[0], s, 0], grid.nb[arm[1], s, 1], q]
        Dx.append(_stencil_matrix(m, rows, cols, [d1[0][arm[0]], d1[1][arm[1]], d1[2]]))
        D2[(s, s)] = _stencil_matrix(m, rows, cols, [d2[0][arm[0]], d2[1][arm[1]], d2[2]])

    unit = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            rows, cols, vals = [], [], []

            def rows_at(nodes, di, dj):
                step = np.multiply.outer(di, unit[i]) + np.multiply.outer(dj, unit[j])
                return grid.rows_at(grid.idx[nodes] + step)

            def add(nodes, stencil, c):  # stencil rows (4, k), weights c * (1, -1, -1, 1)
                rows.append(np.repeat(nodes, 4))
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
            D2[(i, j)] = _stencil_matrix(m, rows, cols, vals)
            grid.mixed_dropped.extend((k, i, j) for k in left[free].tolist())
    return GridOps(Dx=Dx, D2=D2)


def _build_pattern(grid):
    ops = grid.ops()
    m, n = grid.size, grid.n
    stack = [ops.D2[(i, j)] for i in range(n) for j in range(i, n)]
    stack += list(ops.Dx) + [scipy.sparse.identity(m, format="csr")]
    rows, cols, vals, which = [], [], [], []
    for k, op in enumerate(stack):
        coo = op.tocoo()
        keep = coo.data != 0.0  # stored zeros add nothing to any sum
        rows.append(coo.row[keep])
        cols.append(coo.col[keep])
        vals.append(coo.data[keep])
        which.append(np.full(int(keep.sum()), k))
    # int64: the keys row * m + col pass 2**31 once m > 46,340 nodes
    rows = np.concatenate(rows).astype(np.int64)
    cols = np.concatenate(cols).astype(np.int64)
    keys, slot = np.unique(rows * m + cols, return_inverse=True)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // m, minlength=m), out=indptr[1:])
    return OpsPattern(
        shape=(m, m), indices=(keys % m).astype(np.int32), indptr=indptr,
        gather=np.concatenate(which) * m + rows, vals=np.concatenate(vals),
        slot=slot)


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
    """Gradient (m, n) and Hessian (m, n, n) of a grid function, vectorized."""
    u = np.asarray(u, dtype=float)
    ops = grid.ops()
    m, n = grid.size, grid.n
    p = np.empty((m, n))
    r = np.empty((m, n, n))
    for s in range(n):
        p[:, s] = ops.Dx[s] @ u
        r[:, s, s] = ops.D2[(s, s)] @ u
    for i in range(n):
        for j in range(i + 1, n):
            mixed = ops.D2[(i, j)] @ u
            r[:, i, j] = mixed
            r[:, j, i] = mixed
    return p, r


def fd_derivatives(grid, u, node, boundary=None):
    """PointState (Du, D^2u) at one interior node, from its row of ops().

    boundary(x) supplies Dirichlet samples at arm crossings (default 0,
    the problem's boundary condition, which the operators omit): each
    blocked arm adds its Shortley-Weller weight times the sample.  Mixed
    terms never need boundary samples: they use interior-only stencils by
    construction.
    """
    u = np.asarray(u, dtype=float)
    ops = grid.ops()
    n, h = grid.n, grid.h
    q = int(node)

    def row(op):  # indptr slices: no per-call matrix slicing
        lo, hi = op.indptr[q], op.indptr[q + 1]
        return op.data[lo:hi] @ u[op.indices[lo:hi]]

    p = np.array([row(D) for D in ops.Dx])
    r = np.empty((n, n))
    for (i, j), D in ops.D2.items():
        r[i, j] = r[j, i] = row(D)
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
