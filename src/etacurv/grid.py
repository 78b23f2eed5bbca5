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

Dirichlet data is identically zero, so boundary samples drop out of the
assembled sparse operators; fd_derivatives additionally accepts an
explicit boundary callable so consistency tests can feed the true trace
of a polynomial.
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
    index_of: dict
    mixed_dropped: list = field(default_factory=list)  # (node, i, j) with no usable stencil
    _ops: GridOps | None = field(default=None, repr=False)
    _pattern: OpsPattern | None = field(default=None, repr=False)

    @property
    def n(self):
        return self.idx.shape[1]

    @property
    def size(self):
        return self.idx.shape[0]

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
    ranges = [np.arange(-int(np.floor(a / h)), int(np.floor(a / h)) + 1)
              for a in shape.semiaxes]
    mesh = np.meshgrid(*ranges, indexing="ij")
    idx_all = np.stack([m.ravel() for m in mesh], axis=-1)
    pos_all = idx_all * h
    inside = shape.implicit(pos_all) < 0.0
    idx = np.ascontiguousarray(idx_all[inside])   # meshgrid order = lexicographic
    pos = np.ascontiguousarray(pos_all[inside])
    m = idx.shape[0]
    if m == 0:
        raise EmptyGrid(f"no interior lattice node at spacing h={h:g}")

    index_of = {tuple(row): q for q, row in enumerate(idx)}
    nb = np.full((m, n, 2), -1, dtype=np.int64)
    theta = np.ones((m, n, 2))
    cross = []  # rows (q, s, t, sign) needing a bisected arm length
    for q in range(m):
        base = idx[q]
        for s in range(n):
            for t, sign in ((0, 1), (1, -1)):
                key = list(base)
                key[s] += sign
                row = index_of.get(tuple(key))
                if row is not None:
                    nb[q, s, t] = row
                else:
                    cross.append((q, s, t, sign))
    if cross:
        cross = np.asarray(cross, dtype=np.int64)
        theta_cross = _bisect_arms(shape, pos, h, cross)
        theta[cross[:, 0], cross[:, 1], cross[:, 2]] = theta_cross
    cls = (nb < 0).any(axis=(1, 2)).astype(np.uint8)
    return Grid(shape=shape, h=float(h), idx=idx, pos=pos, cls=cls,
                nb=nb, theta=theta, index_of=index_of)


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
    reduces to the central formulas when hp = hm.
    """
    s = hp + hm
    d1 = (hm / (hp * s), -hp / (hm * s), (hp - hm) / (hp * hm))
    d2 = (2.0 / (hp * s), 2.0 / (hm * s), -2.0 / (hp * hm))
    return d1, d2


def _mixed_stencil(grid, q, i, j):
    """Stencil for u_ij at node q as (rows, coefs, includes_center).

    Preference: centered 4-corner cross; else the first quadrant (toward the
    domain center first) whose three offset nodes are interior; else None.
    """
    h = grid.h
    base = grid.idx[q]

    def row_at(di, dj):
        key = list(base)
        key[i] += di
        key[j] += dj
        return grid.index_of.get(tuple(key))

    corners = [row_at(1, 1), row_at(1, -1), row_at(-1, 1), row_at(-1, -1)]
    if all(r is not None for r in corners):
        c = 1.0 / (4.0 * h * h)
        return corners, [c, -c, -c, c]

    si0 = -1 if grid.pos[q, i] > 0 else 1
    sj0 = -1 if grid.pos[q, j] > 0 else 1
    for si, sj in ((si0, sj0), (si0, -sj0), (-si0, sj0), (-si0, -sj0)):
        corner, arm_i, arm_j = row_at(si, sj), row_at(si, 0), row_at(0, sj)
        if corner is not None and arm_i is not None and arm_j is not None:
            c = 1.0 / (si * sj * h * h)
            return [corner, arm_i, arm_j, q], [c, -c, -c, c]
    return None, None


def _build_ops(grid):
    m, n, h = grid.size, grid.n, grid.h
    Dx = []
    D2 = {}
    for s in range(n):
        rows1, cols1, vals1 = [], [], []
        rows2, cols2, vals2 = [], [], []
        for q in range(m):
            hp = grid.theta[q, s, 0] * h
            hm = grid.theta[q, s, 1] * h
            d1, d2 = _arm_coeffs(hp, hm)
            for arm, (c1, c2) in zip((0, 1), zip(d1[:2], d2[:2])):
                r = grid.nb[q, s, arm]
                if r >= 0:  # boundary samples are zero and drop out
                    rows1.append(q); cols1.append(r); vals1.append(c1)
                    rows2.append(q); cols2.append(r); vals2.append(c2)
            rows1.append(q); cols1.append(q); vals1.append(d1[2])
            rows2.append(q); cols2.append(q); vals2.append(d2[2])
        Dx.append(scipy.sparse.csr_matrix(
            (vals1, (rows1, cols1)), shape=(m, m)))
        D2[(s, s)] = scipy.sparse.csr_matrix(
            (vals2, (rows2, cols2)), shape=(m, m))
    for i in range(n):
        for j in range(i + 1, n):
            rows, cols, vals = [], [], []
            for q in range(m):
                stencil_rows, coefs = _mixed_stencil(grid, q, i, j)
                if stencil_rows is None:
                    grid.mixed_dropped.append((q, i, j))
                    continue
                for r, c in zip(stencil_rows, coefs):
                    rows.append(q); cols.append(r); vals.append(c)
            D2[(i, j)] = scipy.sparse.csr_matrix(
                (vals, (rows, cols)), shape=(m, m))
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
    """PointState (Du, D^2u) at one interior node.

    boundary(x) supplies Dirichlet samples at arm crossings (default 0,
    the problem's boundary condition).  Mixed terms never need boundary
    samples: they use interior-only stencils by construction.
    """
    u = np.asarray(u, dtype=float)
    n, h = grid.n, grid.h
    q = int(node)
    p = np.empty(n)
    r = np.empty((n, n))
    for s in range(n):
        hp = grid.theta[q, s, 0] * h
        hm = grid.theta[q, s, 1] * h
        d1, d2 = _arm_coeffs(hp, hm)
        samples = []
        for arm, sign in ((0, 1.0), (1, -1.0)):
            rr = grid.nb[q, s, arm]
            if rr >= 0:
                samples.append(u[rr])
            elif boundary is None:
                samples.append(0.0)
            else:
                xc = grid.pos[q].copy()
                xc[s] += sign * grid.theta[q, s, arm] * h
                samples.append(float(boundary(xc)))
        up, um, u0 = samples[0], samples[1], u[q]
        p[s] = d1[0] * up + d1[1] * um + d1[2] * u0
        r[s, s] = d2[0] * up + d2[1] * um + d2[2] * u0
    for i in range(n):
        for j in range(i + 1, n):
            stencil_rows, coefs = _mixed_stencil(grid, q, i, j)
            if stencil_rows is None:
                val = 0.0
            else:
                val = sum(c * u[rr] for rr, c in zip(stencil_rows, coefs))
            r[i, j] = val
            r[j, i] = val
    return PointState(p=p, r=r)


def dump_grid(grid):
    """Debug text: one node per line, '#'-prefixed header."""
    n = grid.n
    cols = ["i", "j", "k"][:n] + ["x1", "x2", "x3"][:n] + ["class"]
    for s in range(n):
        cols += [f"theta+{s + 1}", f"theta-{s + 1}"]
    lines = [
        f"# grid over {grid.shape.kind} semiaxes={grid.shape.semiaxes} h={grid.h:.17g}",
        f"# nodes={grid.size}",
        "# " + " ".join(cols),
    ]
    names = ("regular", "irregular")
    for q in range(grid.size):
        parts = [str(v) for v in grid.idx[q]]
        parts += [f"{v:.17g}" for v in grid.pos[q]]
        parts.append(names[grid.cls[q]])
        for s in range(n):
            parts += [f"{grid.theta[q, s, 0]:.17g}", f"{grid.theta[q, s, 1]:.17g}"]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
