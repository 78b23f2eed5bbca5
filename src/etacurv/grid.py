"""Masked Cartesian finite-difference grids with boundary-fitted stencils.

The lattice {i*h} is clipped to a convex shape's open interior, less the
nodes within roundoff of its boundary (INTERIOR_MARGIN).  Nodes whose
2n axis neighbors are all interior are "regular" and get central
second-order stencils.  Nodes next to the boundary are "irregular": the
distance to the boundary crossing along each blocked arm comes in closed
form from the shape (DomainShape.axis_distance), and the three-point
unequal-arm (Shortley-Weller) formulas take over for u_s and u_ss.  Mixed
derivatives use the centered four-corner cross when all corners are
interior and otherwise fall back to a one-sided quadrant stencil built
from interior nodes only.

Neighbors are found in a dense lookup array over the lattice's bounding
box, padded by one layer.  Every stencil couples nodes at most one lattice
step apart per axis, so a node's neighbor at offset d is one flat index,
lookup.ravel()[flat + d . steps], with no bounds check (Grid.neighbor_rows).
Every stencil is built by array operations over all nodes at once.

Every stencil lives in one stacked CSR operator, Grid.ops(), of shape
(K*m, m) with K = n(n+1)/2 + n + 1: row slot * m + q applies derivative
`slot` at node q (slot order: _hessian_slots, then the gradient), and the
last slot is the identity, the u term of a linearization in (D^2u, Du, u).
Dirichlet data is identically zero, so boundary samples drop out of it.
all_derivatives is one product with it, and its values stay in those slot
rows.  The solver's Jacobian is one product with it too: each slot's rows
scaled by a weight row and the slots summed (solver.jacobian).

coarse_level builds the 2h grid below a grid and both transfers between
them as one CoarseLevel, reading coarse cell corners at flat offsets too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse


def _hessian_slots(n):
    """(i, j) of the stacked operator's first n(n+1)/2 slots: the Hessian
    entries i <= j, row-major.  The n gradient slots d/dx_s follow them.
    This is the one definition of the slot order; every reader uses it."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@functools.cache
def slot_index(n):
    """(rows, cols, slot): the row i and column j of each Hessian slot, and
    slot[i, j] the slot of entry (i, j) of a symmetric n x n matrix, which
    is that of (j, i).  Read-only, built once per n."""
    rows, cols = np.array(_hessian_slots(n)).reshape(-1, 2).T
    slot = np.empty((n, n), dtype=np.intp)
    slot[rows, cols] = slot[cols, rows] = np.arange(len(rows))
    for a in (rows, cols, slot):
        a.flags.writeable = False
    return rows, cols, slot


def symmetric(entries):
    """Symmetric matrices (..., n, n) from their upper-triangle entries
    (..., n(n+1)/2) in slot order (n^2 < 2 n(n+1)/2 < (n+1)^2)."""
    n = int(np.sqrt(2 * entries.shape[-1]))
    return entries[..., slot_index(n)[2]]


def _unstack(d, n):
    """(p, hess): gradient (..., n) and Hessian entries (..., n(n+1)/2) in
    slot order, views of derivative values d of shape (slots, ...) in slot
    order, with the slot axis moved last; a trailing identity slot is
    left out."""
    k = len(_hessian_slots(n))
    return np.moveaxis(d[k:k + n], 0, -1), np.moveaxis(d[:k], 0, -1)


@dataclass
class Grid:
    shape: object
    h: float
    idx: np.ndarray          # (m, n) lattice indices, lexicographically sorted
    pos: np.ndarray          # (m, n) coordinates = idx * h
    nb: np.ndarray           # (m, n, 2) neighbor row for (+, -) arm, -1 = boundary
    theta: np.ndarray        # (m, n, 2) arm length / h, in (0, 1]; 1 where neighbor interior
    lookup: np.ndarray       # lattice bounding box padded by one layer: row, -1 outside
    flat: np.ndarray         # (m,) each node's index into lookup.ravel()
    _order: np.ndarray | None = field(default=None, repr=False)
    _ops: scipy.sparse.csr_matrix | None = field(default=None, repr=False)
    _dropped: list | None = field(default=None, repr=False)

    @property
    def n(self):
        return self.idx.shape[1]

    @property
    def size(self):
        return self.idx.shape[0]

    @property
    def steps(self):
        """(n,) flat index offset of one lattice step along each axis."""
        return np.array(self.lookup.strides) // self.lookup.itemsize

    def neighbor_rows(self, nodes, offset):
        """Rows of the lattice keys idx[nodes] + d, -1 where a key names no
        interior node, for the flat offset = d . steps of a lattice offset d
        with every |d_k| <= 1 (an int, or an array broadcasting with nodes).
        The padding layer holds every such key, so none is checked."""
        return self.lookup.ravel()[self.flat[nodes] + offset]

    def dissection(self):
        """nested_dissection(self), computed on first use and kept."""
        if self._order is None:
            self._order = nested_dissection(self)
        return self._order

    def ops(self):
        """The stacked stencil operator, CSR (K*m, m) with K = n(n+1)/2 +
        n + 1: row slot * m + q applies the slot's derivative at node q
        (slot order: _hessian_slots, then the gradient), and the last slot
        is the identity.  Built on first use and kept."""
        if self._ops is None:
            self._ops, self._dropped = _build_ops(self)
        return self._ops

    @property
    def mixed_dropped(self):
        """(node, i, j) of each mixed stencil that ops() leaves empty for
        want of usable nodes; builds ops() on first use."""
        self.ops()
        return list(self._dropped)


#: most points the padded bounding box of a lattice may hold: build_grid
#: allocates several arrays of that size, and far fewer nodes already
#: exhaust the sparse LU
MAX_LATTICE = 2 ** 24

#: most dimensions a lattice may have: its box holds at least 3 points an axis
MAX_DIM = max(k for k in range(64) if 3 ** k <= MAX_LATTICE)


def _half_counts(shape, h):
    """floor(a / h) of the rounded quotient for each semiaxis a, as floats,
    inf where the quotient overflows: the lattice's indices along that
    axis run from -floor(a / h) to floor(a / h)."""
    return [float(np.floor(float(a) / float(h))) for a in shape.semiaxes]


def check_lattice(shape, h):
    """ValueError unless h > 0 is finite and the spacing-h lattice's padded
    bounding box over shape, as build_grid counts it, has at most
    MAX_LATTICE points; counted in floating point, so nothing of that size
    is allocated."""
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h:g}")
    points = 1.0  # Python floats overflow to inf, not a warning
    for k in _half_counts(shape, h):
        points *= 2.0 * k + 3.0
    if not points <= MAX_LATTICE:
        raise ValueError(
            f"h = {h:g} is too fine for semiaxes "
            f"{', '.join(f'{a:g}' for a in shape.semiaxes)}: the lattice box "
            f"would hold {points:.3g} points, more than {MAX_LATTICE}")


#: build_grid keeps a lattice node only where the shape's (dimensionless)
#: implicit function is below -INTERIOR_MARGIN: a node within roundoff of
#: the boundary would get an arm theta ~ 1e-16, and the Shortley-Weller
#: weights grow like theta^-2.  Every kept node has phi < 0, so its arms'
#: closed-form distances are > 0.  The same margin at every spacing keeps
#: the coarse nodes exactly the even fine nodes.
INTERIOR_MARGIN = 1e-12


def build_grid(shape, h):
    """Clip the spacing-h lattice to the shape and precompute arm geometry."""
    check_lattice(shape, h)
    n = shape.n
    half = [int(k) for k in _half_counts(shape, h)]
    mesh = np.meshgrid(*[np.arange(-k, k + 1) for k in half], indexing="ij")
    idx_all = np.stack([m.ravel() for m in mesh], axis=-1)
    pos_all = idx_all * h
    inside = shape.implicit(pos_all) < -INTERIOR_MARGIN
    idx = np.ascontiguousarray(idx_all[inside])   # meshgrid order = lexicographic
    pos = np.ascontiguousarray(pos_all[inside])
    m = idx.shape[0]  # >= 1: every shape is centred, so the origin is interior

    lookup = np.full([2 * k + 3 for k in half], -1, dtype=np.int64)
    lookup[(slice(1, -1),) * n][inside.reshape(mesh[0].shape)] = np.arange(m)
    grid = Grid(shape=shape, h=float(h), idx=idx, pos=pos, nb=None,
                theta=np.ones((m, n, 2)), lookup=lookup,
                flat=np.flatnonzero(lookup >= 0))  # raveled in node order
    steps = grid.steps
    arms = np.stack([steps, -steps], axis=1)  # arms[s, t]: the (+, -) step along s
    grid.nb = grid.neighbor_rows(np.arange(m)[:, None, None], arms)
    q, s, t = np.nonzero(grid.nb < 0)
    # the crossing lies past a neighbor dropped by INTERIOR_MARGIN (phi < 0
    # there): that arm is a full step
    grid.theta[q, s, t] = np.minimum(
        shape.axis_distance(pos[q], s, 1 - 2 * t) / h, 1.0)
    return grid


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
    the stacked CSR operator, each stencil in its slot's block of rows, then
    the identity's; and the (node, i, j) of the mixed stencils left empty.

    Axis s: the arms' entries where the neighbor is interior (boundary
    samples are zero and drop out) plus the diagonal, stored even where it
    is exactly 0.  Mixed (i, j): the centered four-corner cross where all
    corners are interior; else the first quadrant, toward the domain center
    first, whose three offset nodes are interior; else the node is dropped
    and its row stays empty.

    Each slot's block is built as (m, 4) tables of columns, -1 where
    absent, and weights, with every row's columns ascending: rows follow
    the lattice order, so a node's neighbors sort by their offsets along i,
    then j.  The CSR arrays are the tables' masked ravels; nothing is
    sorted.
    """
    m, n, h = grid.size, grid.n, grid.h
    q = np.arange(m)
    hess = _hessian_slots(n)
    slots = len(hess) + n
    # axis stencils leave the fourth column empty; int32 holds every row
    # (m <= MAX_LATTICE = 2**24) and halves the largest table
    cols = np.full((slots, m, 4), -1, dtype=np.int32)
    vals, dropped = np.zeros((slots, m, 4)), []
    for s in range(n):
        d1, d2 = _arm_coeffs(grid.theta[:, s, 0] * h, grid.theta[:, s, 1] * h)
        for k, d in ((len(hess) + s, d1), (hess.index((s, s)), d2)):
            # ascending: the - arm, the node, the + arm
            for c, t in enumerate((1, 2, 0)):
                cols[k, :, c] = grid.nb[:, s, t] if t < 2 else q
                vals[k, :, c] = d[t]

    steps = grid.steps
    for k, (i, j) in enumerate(hess):
        if i == j:
            continue

        def square(nodes, ends_i, ends_j):
            """(4, len(nodes)) rows at the corners (a, b), a in ends_i and
            b in ends_j, of a lattice square off each node; with each pair
            of ends ascending, the rows ascend too."""
            return np.stack([grid.neighbor_rows(nodes, a * steps[i] + b * steps[j])
                             for a in ends_i for b in ends_j])

        # the cross and each quadrant are the corners of a square, weighed
        # +scale at its low-low and high-high corners and -scale at the
        # other two: (1, -1, -1, 1) * scale in ascending columns
        scale = np.full(m, 1.0 / (4.0 * h * h))
        cross = square(q, (-1, 1), (-1, 1))
        full = (cross >= 0).all(axis=0)
        cols[k] = np.where(full, cross, -1).T
        left = q[~full]
        scale[left] = 1.0 / (h * h)
        free = np.ones(len(left), dtype=bool)  # left nodes still without a stencil
        si0 = np.where(grid.pos[left, i] > 0, -1, 1)
        sj0 = np.where(grid.pos[left, j] > 0, -1, 1)
        for si, sj in ((si0, sj0), (si0, -sj0), (-si0, sj0), (-si0, -sj0)):
            stencil = square(left, (np.minimum(si, 0), np.maximum(si, 0)),
                             (np.minimum(sj, 0), np.maximum(sj, 0)))
            use = free & (stencil >= 0).all(axis=0)
            free &= ~use
            cols[k, left[use]] = stencil[:, use].T
        dropped.extend((node, i, j) for node in left[free].tolist())
        vals[k] = np.multiply.outer(scale, [1.0, -1.0, -1.0, 1.0])

    # the CSR arrays are filled one slot's block at a time, so the build's
    # peak holds no index array over all the tables; the identity slot's
    # m entries follow the tables'
    nnz = np.count_nonzero(cols >= 0)
    indptr = np.zeros((slots + 1) * m + 1, dtype=np.int64)
    data, indices = np.empty(nnz + m), np.empty(nnz + m, dtype=np.int32)
    start = 0
    for k in range(slots):
        entries = np.flatnonzero(cols[k] >= 0)
        end = start + len(entries)
        indptr[k * m + 1:(k + 1) * m + 1] = np.bincount(entries // 4, minlength=m)
        data[start:end] = vals[k].ravel()[entries]
        indices[start:end] = cols[k].ravel()[entries]
        start = end
    indptr[slots * m + 1:] = 1
    np.cumsum(indptr, out=indptr)
    data[nnz:], indices[nnz:] = 1.0, q
    return scipy.sparse.csr_matrix((data, indices, indptr),
                                   shape=((slots + 1) * m, m)), dropped


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

    The parts wait on an explicit stack, each with whether it is a plane
    to emit as it stands, pushed so that they pop below, above, plane.
    """
    idx = grid.idx
    order, stack = [], [(np.arange(grid.size), False)]
    while stack:
        nodes, plane_part = stack.pop()
        if plane_part or len(nodes) <= _DISSECTION_LEAF:
            order.append(nodes)
            continue
        sub = idx[nodes]
        axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        coord = sub[:, axis]
        plane = np.sort(coord)[len(coord) // 2]
        stack += [(nodes[coord == plane], True), (nodes[coord > plane], False),
                  (nodes[coord < plane], False)]
    return np.concatenate(order)


@dataclass
class CoarseLevel:
    """The spacing-2h grid below a fine grid and both transfers between
    them, built by coarse_level from the fine grid alone.

    Each fine node x takes the multilinear weights of the corners y of its
    coarse cell, 0 at a corner that is no interior node.  interpolation is
    P, the sparse (m_fine, m_coarse) matrix of them, not renormalized, so a
    corner outside the interior carries the Dirichlet 0: the two-grid
    cycle's transfer; restriction is P^T as its own CSR matrix.  prolong(v)
    blends, with the weights renormalized, the quadratic Taylor expansions
    v(y) + Dv(y).(x - y) + (x - y).D^2v(y).(x - y) / 2, with Dv, D^2v from
    grid.ops() (so v = 0 on the boundary enters through the Shortley-Weller
    arms), without a matrix: term t adds weight[t] v(y) + coef[:, t] .
    (D^2v(y), Dv(y)) in slot order to fine row node[t], for y coarse row
    col[t].  Under both, a fine node that is a coarse node gets its value.
    """

    grid: Grid
    shared: np.ndarray       # (m_coarse,) fine row of each coarse node
    interpolation: scipy.sparse.csr_matrix
    restriction: scipy.sparse.csr_matrix
    node: np.ndarray
    col: np.ndarray
    weight: np.ndarray
    coef: np.ndarray

    def prolong(self, v):
        """The fine grid function prolonged from the coarse one v."""
        v = np.asarray(v, dtype=float)
        d = (self.grid.ops() @ v).reshape(-1, self.grid.size)[:-1]
        terms = self.weight * v.take(self.col)
        terms += np.einsum("st,st->t", self.coef, d.take(self.col, axis=1))
        return np.bincount(self.node, weights=terms,
                           minlength=self.interpolation.shape[0])


def coarse_level(fine, min_nodes):
    """The CoarseLevel below fine, or None when its grid would have fewer
    than min_nodes nodes.

    The lattice is centered at index 0 and k (2h) == (2k) h in floating
    point, so the coarse nodes are the fine nodes whose indices are all
    even, in the same order: shared.  A fine node's cell corners lo + c,
    lo = idx // 2 and c in {0, 1}^n, are read at flat offsets in the coarse
    lookup with no mask: per axis they lie in [-ceil(half / 2), floor(half
    / 2) + 1] for the fine half-count half, and the coarse half-count is
    floor(half / 2), as a / (2h) == (a / h) / 2 exactly.  The weights,
    2^-(odd indices) at the corners with c = 0 along every even axis, are
    rows of a table indexed by the node's odd axes.  Every node has an
    interior corner of nonzero weight, the one toward the center, since the
    shape's implicit function grows with each |x_i|.
    """
    shared = np.flatnonzero((fine.idx % 2 == 0).all(axis=1))
    if len(shared) < min_nodes:
        return None
    coarse = build_grid(fine.shape, 2.0 * fine.h)
    n = fine.n
    lo = fine.idx // 2
    corner = np.array(list(itertools.product((0, 1), repeat=n)))
    center = (np.array(coarse.lookup.shape) - 1) // 2
    base = (lo + center) @ coarse.steps
    rows = coarse.lookup.ravel()[base[:, None] + corner @ coarse.steps]
    bits = 1 << np.arange(n - 1, -1, -1)  # corner number = corner @ bits
    cells = np.arange(2 ** n)
    table = np.where((cells & ~cells[:, None]) == 0,
                     0.5 ** (corner.sum(axis=1)[:, None]), 0.0)
    w = table[(fine.idx & 1) @ bits] * (rows >= 0)

    # a row's corners ascend in product order, and so do their coarse rows:
    # the CSR arrays are the weights' nonzeros in order
    terms = np.flatnonzero(w)
    col, vals = rows.ravel()[terms], w.ravel()[terms]
    indptr = np.zeros(fine.size + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(w, axis=1), out=indptr[1:])
    P = scipy.sparse.csr_matrix((vals, col, indptr),
                                shape=(fine.size, coarse.size))

    node = terms >> n  # w has 2^n columns
    wt = vals / w.sum(axis=1)[node]
    # offsets x - y, one row per axis
    d = (np.take(fine.idx.T, node, axis=1)
         - 2 * np.take(coarse.idx.T, col, axis=1)) * fine.h
    coef = np.empty((len(_hessian_slots(n)) + n, len(terms)))
    for k, (i, j) in enumerate(_hessian_slots(n)):
        np.multiply(wt * d[i], d[j] * (0.5 if i == j else 1.0), out=coef[k])
    np.multiply(wt, d, out=coef[k + 1:])
    return CoarseLevel(grid=coarse, shared=shared, interpolation=P,
                       restriction=P.T.tocsr(), node=node, col=col, weight=wt,
                       coef=coef)


def all_derivatives(grid, u):
    """Gradient (m, n) and Hessian entries (m, n(n+1)/2), in slot order, of
    a grid function: one product with the stacked operator, of which both
    are views with the node axis first; each entry's values over the nodes
    are one contiguous row."""
    d = grid.ops() @ np.asarray(u, dtype=float)
    return _unstack(d.reshape(-1, grid.size), grid.n)
