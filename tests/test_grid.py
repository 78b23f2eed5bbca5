"""Grid construction, arm geometry, and stencil consistency."""

import gc
import itertools
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.sparse

from etacurv import grid as grid_module
from etacurv.domain import DomainShape
from etacurv.geometry import PointState, batch_geometry
from etacurv.grid import (
    _arm_coeffs,
    _hessian_slots,
    _unstack,
    all_derivatives,
    INTERIOR_MARGIN,
    MAX_LATTICE,
    build_grid,
    check_lattice,
    coarse_level,
    nested_dissection,
    symmetric,
)

DISK = DomainShape((0.5, 0.5))


def rows_at(grid, keys):
    """Rows of the lattice keys (..., n) in grid, -1 where a key names no
    interior node: a dictionary lookup, the reference for the grid's own
    reads of its lookup box."""
    row = {key: q for q, key in enumerate(map(tuple, grid.idx.tolist()))}
    keys = np.asarray(keys, dtype=np.int64)
    flat = keys.reshape(-1, grid.n).tolist()
    return np.array([row.get(tuple(key), -1) for key in flat],
                    dtype=np.int64).reshape(keys.shape[:-1])


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
    p, hess = _unstack(ops[np.arange(ops.shape[0] // m) * m + q] @ u, n)
    p, r = p.copy(), symmetric(hess)
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


def reference_grid(shape, h):
    """Per-node reference of build_grid and Grid.ops(): a dict of index
    tuples for neighbor lookup and a Python loop over nodes for every
    stencil.  Returns (grid fields, Dx, D2) with the same arithmetic for
    each weight, so the batched builder must match it bitwise."""
    n = shape.n
    ranges = [np.arange(-int(np.floor(a / h)), int(np.floor(a / h)) + 1)
              for a in shape.semiaxes]
    mesh = np.meshgrid(*ranges, indexing="ij")
    idx_all = np.stack([m.ravel() for m in mesh], axis=-1)
    pos_all = idx_all * h
    inside = shape.implicit(pos_all) < -INTERIOR_MARGIN
    idx = np.ascontiguousarray(idx_all[inside])
    pos = np.ascontiguousarray(pos_all[inside])
    m = idx.shape[0]

    index_of = {tuple(row): q for q, row in enumerate(idx)}
    nb = np.full((m, n, 2), -1, dtype=np.int64)
    theta = np.ones((m, n, 2))
    for q in range(m):
        for s in range(n):
            for t, sign in ((0, 1), (1, -1)):
                key = list(idx[q])
                key[s] += sign
                row = index_of.get(tuple(key))
                if row is not None:
                    nb[q, s, t] = row
                else:
                    theta[q, s, t] = min(
                        float(shape.axis_distance(pos[q], s, sign)) / h, 1.0)

    def mixed_stencil(q, i, j):
        def row_at(di, dj):
            key = list(idx[q])
            key[i] += di
            key[j] += dj
            return index_of.get(tuple(key))

        corners = [row_at(1, 1), row_at(1, -1), row_at(-1, 1), row_at(-1, -1)]
        if all(r is not None for r in corners):
            c = 1.0 / (4.0 * h * h)
            return corners, [c, -c, -c, c]
        si0 = -1 if pos[q, i] > 0 else 1
        sj0 = -1 if pos[q, j] > 0 else 1
        for si, sj in ((si0, sj0), (si0, -sj0), (-si0, sj0), (-si0, -sj0)):
            corner, arm_i, arm_j = row_at(si, sj), row_at(si, 0), row_at(0, sj)
            if corner is not None and arm_i is not None and arm_j is not None:
                c = 1.0 / (si * sj * h * h)
                return [corner, arm_i, arm_j, q], [c, -c, -c, c]
        return None, None

    Dx, D2, dropped = [], {}, []
    for s in range(n):
        rows1, cols1, vals1 = [], [], []
        rows2, cols2, vals2 = [], [], []
        for q in range(m):
            d1, d2 = _arm_coeffs(theta[q, s, 0] * h, theta[q, s, 1] * h)
            for arm in (0, 1):
                r = nb[q, s, arm]
                if r >= 0:
                    rows1.append(q); cols1.append(r); vals1.append(d1[arm])
                    rows2.append(q); cols2.append(r); vals2.append(d2[arm])
            rows1.append(q); cols1.append(q); vals1.append(d1[2])
            rows2.append(q); cols2.append(q); vals2.append(d2[2])
        Dx.append(scipy.sparse.csr_matrix((vals1, (rows1, cols1)), shape=(m, m)))
        D2[(s, s)] = scipy.sparse.csr_matrix((vals2, (rows2, cols2)), shape=(m, m))
    for i in range(n):
        for j in range(i + 1, n):
            rows, cols, vals = [], [], []
            for q in range(m):
                stencil_rows, coefs = mixed_stencil(q, i, j)
                if stencil_rows is None:
                    dropped.append((q, i, j))
                    continue
                for r, c in zip(stencil_rows, coefs):
                    rows.append(q); cols.append(r); vals.append(c)
            D2[(i, j)] = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))
    fields = dict(idx=idx, pos=pos, nb=nb, theta=theta, mixed_dropped=dropped)
    return fields, Dx, D2


REFERENCE_CASES = [
    (DISK, 1 / 10),
    (DISK, 1 / 64),
    (DomainShape((0.5, 0.3)), 1 / 32),
    (DomainShape((1.0, 0.5)), 0.13),
    (DomainShape((0.5, 0.5, 0.5)), 1 / 12),
    (DomainShape((0.5, 0.4, 0.3)), 1 / 16),   # 8 dropped mixed stencils
    (DomainShape((0.6, 0.5, 0.4)), 0.17),     # 18 dropped mixed stencils
    # 6,265 nodes, 624 dropped mixed stencils; the flat offsets of a
    # neighbor lookup take a different stride on each of the four axes
    (DomainShape((0.5,) * 4), 1 / 12),
    (DISK, 0.6),                              # one node
]


def slot_blocks(g):
    """The stacked operator's (m, m) slot blocks, in slot order."""
    ops, m = g.ops(), g.size
    return [ops[k * m:(k + 1) * m] for k in range(ops.shape[0] // m)]


def test_grid_matches_per_node_reference():
    for shape, h in REFERENCE_CASES:
        case = f"{shape.semiaxes} h={h:g}"
        g = build_grid(shape, h)
        n, m = g.n, g.size
        fields, Dx, D2 = reference_grid(shape, h)
        for name in ("idx", "pos", "nb", "theta"):
            got, want = getattr(g, name), fields[name]
            assert got.dtype == want.dtype, (case, name)
            np.testing.assert_array_equal(got, want, err_msg=f"{case} {name}")
        # slot order: Hessian entries i <= j row-major, then the gradient,
        # then the identity
        hess = [(i, j) for i in range(n) for j in range(i, n)]
        assert g.ops().shape == ((len(hess) + n + 1) * m, m), case
        assert g.mixed_dropped == fields["mixed_dropped"], case
        eye = scipy.sparse.eye(m, format="csr")
        for got, want in zip(slot_blocks(g), [D2[k] for k in hess] + Dx + [eye],
                             strict=True):
            # equal arrays, stored zeros included (Dx's diagonal at regular nodes)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (case, name)

        # the stacked product equals the reference operators applied one by one
        u = np.sin(1.0 + g.pos @ np.arange(1.0, n + 1.0))
        p, r = all_derivatives(g, u)
        p_ref = np.column_stack([D @ u for D in Dx])
        r_ref = np.empty((m, n, n))
        for (i, j), D in D2.items():
            r_ref[:, i, j] = r_ref[:, j, i] = D @ u
        assert p.tobytes() == p_ref.tobytes(), case
        assert symmetric(r).tobytes() == r_ref.tobytes(), case
        for q in range(m):
            st = fd_derivatives(g, u, q)
            assert st.p.tobytes() == p[q].tobytes(), (case, q)
            assert st.r.tobytes() == symmetric(r[q]).tobytes(), (case, q)


def test_mixed_dropped_before_ops():
    # the dropped stencils are known without building the operator first
    shape, h = DomainShape((0.5, 0.4, 0.3)), 1 / 16
    g = build_grid(shape, h)
    assert g._ops is None
    dropped = reference_grid(shape, h)[0]["mixed_dropped"]
    assert len(dropped) == 8
    assert g.mixed_dropped == dropped
    with pytest.raises(AttributeError):
        g.mixed_dropped = []


def test_nine_node_disk():
    g = build_grid(DISK, 0.25)
    assert g.size == 9
    want = {(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)}
    assert {tuple(row) for row in g.idx} == want
    # lexicographic ordering by index
    assert [tuple(row) for row in g.idx] == sorted(want)
    center, edge, corner = rows_at(g, [(0, 0), (1, 0), (1, 1)])
    assert (g.nb[center] >= 0).all()  # all four neighbors interior
    assert (g.nb[edge] < 0).any()
    # +x arm of (0.25, 0) hits the circle at exactly one full step
    assert g.theta[edge, 0, 0] == 1.0
    assert g.nb[edge, 0, 0] == -1
    np.testing.assert_allclose(g.theta[corner, 0, 0], np.sqrt(3.0) - 1.0, atol=1e-12)


def test_single_node_grid():
    g = build_grid(DISK, 0.6)
    assert g.size == 1
    np.testing.assert_allclose(g.theta[0, :, :], 0.5 / 0.6, atol=1e-12)
    # stencils stay usable: u_ss < 0 for the hat function value 1
    st = fd_derivatives(g, np.array([1.0]), 0)
    assert st.r[0, 0] < 0 and st.r[1, 1] < 0
    assert st.r[0, 1] == 0.0  # no quadrant available, documented zero fallback
    assert g.mixed_dropped == [] or g.mixed_dropped == [(0, 0, 1)]


def test_theta_crossings_lie_on_boundary():
    for shape, h in [(DISK, 1.0 / 12), (DomainShape((1.0, 0.5)), 0.1),
                     (DomainShape((0.6, 0.5, 0.4)), 0.17)]:
        g = build_grid(shape, h)
        for q in range(g.size):
            for s in range(g.n):
                for arm, sign in ((0, 1.0), (1, -1.0)):
                    if g.nb[q, s, arm] >= 0:
                        assert g.theta[q, s, arm] == 1.0
                        continue
                    x = g.pos[q].copy()
                    x[s] += sign * g.theta[q, s, arm] * h
                    assert abs(shape.implicit(x)) <= 1e-10
                    assert 0.0 < g.theta[q, s, arm] <= 1.0


def test_theta_matches_the_root_to_roundoff():
    # every blocked arm against the root of phi(x + t sign e_s) = 0 worked in
    # 50-digit decimals from the same float node and semiaxes: the closed
    # form is good to a few ulps, where bisection on phi stalled at the
    # noise of phi itself (1.85e-14 on the h = 1/64 ball)
    for shape, h in REFERENCE_CASES + [(DomainShape((0.5,) * 3), 1 / 64)]:
        g = build_grid(shape, h)
        a = [Decimal(v) for v in shape.semiaxes]
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            for q, s, t in np.argwhere(g.nb < 0):
                x = [Decimal(v) for v in g.pos[q].tolist()]
                rest = 1 - sum((x[i] / a[i]) ** 2 for i in range(g.n) if i != s)
                root = (a[s] * rest.sqrt() - (1 - 2 * int(t)) * x[s]) / Decimal(h)
                theta = g.theta[q, s, t]
                assert 0.0 < theta <= 1.0
                err = Decimal(float(theta)) - min(root, Decimal(1))
                worst = max(worst, abs(float(err)))
        assert worst <= 2e-15, (shape.semiaxes, h, worst)


def test_grid_reflection_symmetry():
    g = build_grid(DomainShape((1.0, 0.5)), 0.13)
    nodes = {tuple(row) for row in g.idx}
    assert {(-i, j) for i, j in nodes} == nodes
    assert {(i, -j) for i, j in nodes} == nodes


def test_quadratic_exactness_regular_nodes():
    # centered stencils never reference boundary data at regular nodes
    g = build_grid(DISK, 1.0 / 12)
    x, y = g.pos[:, 0], g.pos[:, 1]
    u = 0.3 + 0.7 * x - 1.1 * y + 2.0 * x * x + 0.9 * x * y - 1.3 * y * y
    p, r = all_derivatives(g, u)
    reg = (g.nb >= 0).all(axis=(1, 2))
    assert reg.sum() > 20
    np.testing.assert_allclose(p[reg, 0], (0.7 + 4.0 * x + 0.9 * y)[reg], atol=1e-11)
    np.testing.assert_allclose(p[reg, 1], (-1.1 + 0.9 * x - 2.6 * y)[reg], atol=1e-11)
    r = symmetric(r)
    np.testing.assert_allclose(r[reg, 0, 0], 4.0, atol=1e-10)
    np.testing.assert_allclose(r[reg, 1, 1], -2.6, atol=1e-10)
    np.testing.assert_allclose(r[reg, 0, 1], 0.9, atol=1e-10)


def test_quadratic_exactness_with_boundary_trace():
    # with the true trace supplied, irregular nodes are exact too
    coeff = dict(c=0.3, gx=0.7, gy=-1.1, axx=2.0, axy=0.9, ayy=-1.3)

    def f(x):
        return (coeff["c"] + coeff["gx"] * x[0] + coeff["gy"] * x[1]
                + coeff["axx"] * x[0] ** 2 + coeff["axy"] * x[0] * x[1]
                + coeff["ayy"] * x[1] ** 2)

    g = build_grid(DISK, 1.0 / 12)
    u = np.array([f(x) for x in g.pos])
    for q in range(g.size):
        st = fd_derivatives(g, u, q, boundary=f)
        x, y = g.pos[q]
        np.testing.assert_allclose(st.p, [0.7 + 4.0 * x + 0.9 * y, -1.1 + 0.9 * x - 2.6 * y],
                                   atol=1e-9)
        np.testing.assert_allclose(st.r, [[4.0, 0.9], [0.9, -2.6]], atol=1e-8)


def test_linear_exactness_3d_all_nodes():
    g = build_grid(DomainShape((0.5, 0.5, 0.5)), 0.2)

    def f(x):
        return 0.2 - 0.4 * x[0] + 0.9 * x[1] + 0.6 * x[2]

    u = np.array([f(x) for x in g.pos])
    for q in range(g.size):
        st = fd_derivatives(g, u, q, boundary=f)
        np.testing.assert_allclose(st.p, [-0.4, 0.9, 0.6], atol=1e-11)
        np.testing.assert_allclose(st.r, 0.0, atol=1e-9)


def test_cap_curvature_convergence():
    # graph curvatures of the unit-sphere cap recovered to O(h) in the sup norm
    g = build_grid(DISK, 1.0 / 64)
    rad2 = np.sum(g.pos ** 2, axis=1)
    u = -np.sqrt(1.0 - rad2) + np.sqrt(0.75)
    p, r = all_derivatives(g, u)
    worst = 0.0
    for q in range(g.size):
        st = fd_derivatives(g, u, q)
        kappa = batch_geometry(st.p[None], st.r[None], coeffs=False).kappa[0]
        worst = max(worst, np.abs(kappa - 1.0).max())
    assert worst <= 5.0 / 64
    # vectorized and pointwise Hessians agree
    q = g.size // 2
    st = fd_derivatives(g, u, q)
    np.testing.assert_allclose(st.r, symmetric(r[q]), atol=1e-12)


def test_empty_grid_never_fires_for_centered_shapes():
    g = build_grid(DISK, 5.0)
    assert g.size == 1  # the origin survives any spacing


ORDERING_CASES = [
    (DISK, 1 / 32),
    (DomainShape((0.5, 0.5, 0.5)), 1 / 12),
    (DomainShape((0.5, 0.3)), 1 / 32),
]


@pytest.mark.parametrize("shape,h", ORDERING_CASES)
def test_nested_dissection_is_deterministic_permutation(shape, h):
    g = build_grid(shape, h)
    perm = nested_dissection(g)
    np.testing.assert_array_equal(np.sort(perm), np.arange(g.size))
    np.testing.assert_array_equal(nested_dissection(g), perm)
    np.testing.assert_array_equal(nested_dissection(build_grid(shape, h)), perm)


def _recursive_dissection(grid):
    """nested_dissection's order as the recursion that defines it."""
    order = []

    def dissect(nodes):
        if len(nodes) <= grid_module._DISSECTION_LEAF:
            order.append(nodes)
            return
        sub = grid.idx[nodes]
        coord = sub[:, int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))]
        plane = np.sort(coord)[len(coord) // 2]
        dissect(nodes[coord < plane])
        dissect(nodes[coord > plane])
        order.append(nodes[coord == plane])

    dissect(np.arange(grid.size))
    return np.concatenate(order)


@pytest.mark.parametrize("shape,h", ORDERING_CASES + REFERENCE_CASES
                         + [(DomainShape((0.5, 0.5, 0.5)), 1 / 24)])
def test_nested_dissection_matches_the_recursion(shape, h):
    g = build_grid(shape, h)
    np.testing.assert_array_equal(nested_dissection(g),
                                  _recursive_dissection(g))


def test_nested_dissection_leaves_no_cyclic_garbage():
    # the parts wait on an explicit stack, not in a function that calls
    # itself through its closure cell: the order is freed by reference
    # counting, and a collection finds nothing unreachable
    g = build_grid(DomainShape((0.5, 0.5, 0.5)), 1 / 24)
    gc.collect()
    gc.disable()
    try:
        nested_dissection(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("shape,h", ORDERING_CASES)
def test_nested_dissection_top_separator_splits_operators(shape, h):
    g = build_grid(shape, h)
    perm = nested_dissection(g)
    # the top-level split: median plane of the widest lattice axis
    axis = int(np.argmax(g.idx.max(axis=0) - g.idx.min(axis=0)))
    coord = g.idx[:, axis]
    plane = np.sort(coord)[g.size // 2]
    left, right = np.flatnonzero(coord < plane), np.flatnonzero(coord > plane)
    nl, nr = len(left), len(right)
    assert nl > 0 and nr > 0
    assert set(perm[:nl]) == set(left)
    assert set(perm[nl:nl + nr]) == set(right)
    assert np.all(coord[perm[nl + nr:]] == plane)

    A = sum(abs(D) for D in slot_blocks(g))
    B = scipy.sparse.csr_matrix(A[perm][:, perm])
    B.eliminate_zeros()
    assert B[:nl, nl:nl + nr].nnz == 0
    assert B[nl:nl + nr, :nl].nnz == 0
    # both sides do couple to the separator, so the check is not vacuous
    assert B[:nl, nl + nr:].nnz > 0 and B[nl:nl + nr, nl + nr:].nnz > 0


# ---------------------------------------------------------------- coarse levels

SHAPES_2H = [(DISK, 1 / 64), (DomainShape((0.5, 0.3)), 1 / 64),
             (DomainShape((0.5,) * 3), 1 / 24),
             (DomainShape((0.5, 0.4, 0.3)), 1 / 24)]


@pytest.mark.parametrize("shape, h", SHAPES_2H)
def test_coarse_grid_nodes_are_the_even_fine_nodes(shape, h):
    fine = build_grid(shape, h)
    level = coarse_level(fine, 200)
    coarse = level.grid
    assert coarse.h == 2 * h
    even = (fine.idx % 2 == 0).all(axis=1)
    shared = rows_at(fine, 2 * coarse.idx)
    assert np.array_equal(np.sort(shared), np.flatnonzero(even))
    assert np.array_equal(level.shared, shared)  # in coarse-node order
    assert np.array_equal(coarse.pos, fine.pos[shared])  # bitwise
    assert coarse_level(fine, coarse.size + 1) is None


@pytest.mark.parametrize("shape, h", SHAPES_2H)
def test_prolongation_exact_on_quadratics_vanishing_on_boundary(shape, h):
    # the Taylor expansions are exact on quadratics, and the coarse stencils
    # too where the quadratic vanishes on the boundary (u = 0 there)
    fine = build_grid(shape, h)
    level = coarse_level(fine, 200)
    coarse = level.grid
    uc = shape.implicit(coarse.pos)
    assert np.abs(level.prolong(uc) - shape.implicit(fine.pos)).max() <= 1e-14
    # a fine node that is a coarse node takes its value bitwise
    shared = rows_at(fine, 2 * coarse.idx)
    v = np.random.default_rng(1).standard_normal(coarse.size)
    assert np.array_equal(level.prolong(v)[shared], v)


@pytest.mark.parametrize("shape, h", SHAPES_2H)
def test_interpolation_is_multilinear_with_zero_outside(shape, h):
    # each fine node takes its coarse cell's corner values with the
    # multilinear weights; a corner outside the interior contributes the
    # Dirichlet 0, so the weights are not renormalized
    fine = build_grid(shape, h)
    level = coarse_level(fine, 200)
    coarse, P = level.grid, level.interpolation
    assert P.shape == (fine.size, coarse.size)
    weight = P @ np.ones(coarse.size)
    full = weight == 1.0
    assert weight.max() == 1.0 and (~full).any() and weight.min() > 0.0

    def f(x):  # multilinear
        return 1.0 + x[:, 0] - 2.0 * x[:, 1] + 3.0 * x[:, 0] * x[:, -1]

    assert np.abs(P @ f(coarse.pos) - f(fine.pos))[full].max() <= 1e-15
    # a fine node that is a coarse node takes its value bitwise
    shared = rows_at(fine, 2 * coarse.idx)
    v = np.random.default_rng(1).standard_normal(coarse.size)
    assert np.array_equal((P @ v)[shared], v)


def _csr_bytes(A):
    return [(a.dtype, a.tobytes()) for a in (A.indptr, A.indices, A.data)]


def _reference_corners(fine, coarse):
    """(rows, w): the coarse rows (m_fine, 2^n) of the corners lo + c of
    each fine node's coarse cell, lo = idx // 2 and c in {0, 1}^n in
    product order, by rows_at, and the products of the per-axis
    multilinear factors, 0 at a corner that is no interior node."""
    lo = fine.idx // 2
    frac = (fine.idx - 2 * lo) / 2.0
    corner = np.array(list(itertools.product((0, 1), repeat=fine.n)))
    rows = rows_at(coarse, lo[:, None, :] + corner)
    factors = np.where(corner == 1, frac[:, None, :], 1.0 - frac[:, None, :])
    return rows, np.prod(factors, axis=-1) * (rows >= 0)


def _reference_interpolation(fine, coarse):
    rows, w = _reference_corners(fine, coarse)
    keep = w != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return scipy.sparse.csr_matrix((w[keep], rows[keep], indptr),
                                   shape=(fine.size, coarse.size))


def _ids(cases):
    """Case ids "shape<k>-<h>-None", the trailing field the coarse grid's
    shape: None, the fine grid's own, the only one coarse_level builds."""
    return [f"shape{k}-{h}-None" for k, (_, h) in enumerate(cases)]


TRANSFER_CASES = [
    *SHAPES_2H,
    # an odd half-count, 5 nodes a side: the outer fine nodes sit in coarse
    # cells with corners outside the interior
    (DISK, 1 / 10),
]


@pytest.mark.parametrize("shape, h", TRANSFER_CASES, ids=_ids(TRANSFER_CASES))
def test_transfers_from_shared_corner_weights_match_separate_builds(shape, h):
    # both transfers of a level come from one set of corner weights: they
    # equal the transfers built from the reference corners, bitwise
    fine = build_grid(shape, h)
    level = coarse_level(fine, 0)
    coarse = level.grid
    rows, w = _reference_corners(fine, coarse)
    total = w.sum(axis=1)
    assert (total > 0.0).all()
    P = _reference_interpolation(fine, coarse)
    assert _csr_bytes(level.interpolation) == _csr_bytes(P)
    assert _csr_bytes(level.restriction) == _csr_bytes(P.T.tocsr())
    # the prolongation's terms: the interior corners' weights renormalized,
    # and the Taylor coefficients of the offsets x - y in slot order
    node, c = np.nonzero(w)
    col = rows[node, c]
    wt = w[node, c] / total[node]
    d = (fine.idx[node] - 2 * coarse.idx[col]) * h
    coef = [wt * d[:, i] * d[:, j] * (0.5 if i == j else 1.0)
            for i, j in _hessian_slots(fine.n)]
    coef += [wt * d[:, s] for s in range(fine.n)]
    for got, want in ((level.node, node), (level.col, col),
                      (level.weight, wt), (level.coef, np.array(coef))):
        assert got.tobytes() == want.tobytes()


LOOKUP_CASES = [
    # half-counts floor(a / h) per axis: odd, even, and both
    (DISK, 1 / 10), (DISK, 1 / 16),
    (DomainShape((0.5, 0.35)), 1 / 20),
    (DomainShape((0.5, 0.35)), 1 / 26),
    (DomainShape((0.5,) * 3), 1 / 14),
    (DomainShape((0.5,) * 3), 1 / 24),
    (DomainShape((0.5, 0.4, 0.3)), 1 / 13),
    (DomainShape((0.5, 0.4, 0.3)), 1 / 24),
]


@pytest.mark.parametrize("shape, h", LOOKUP_CASES, ids=_ids(LOOKUP_CASES))
def test_corner_lookup_at_flat_offsets_matches_masked_rows_at(shape, h):
    # the coarse lookup box holds every corner of every fine node's coarse
    # cell: the flat-offset read gives the rows of the lattice keys lo + c
    # that the reference lookup gives, and the table of weights the product
    # of the per-axis multilinear factors, bitwise
    fine = build_grid(shape, h)
    level = coarse_level(fine, 0)
    rows, _ = _reference_corners(fine, level.grid)
    assert (rows < 0).any()
    assert _csr_bytes(level.interpolation) == \
        _csr_bytes(_reference_interpolation(fine, level.grid))


@pytest.mark.parametrize("shape, h", [
    # balls in 2, 3 and 4 dimensions, the ellipse and the ellipsoid; the
    # half-counts floor(a / h) run odd, even and mixed
    (DISK, 1 / 64), (DISK, 1 / 10),
    (DomainShape((0.5,) * 3), 1 / 24), (DomainShape((0.5,) * 3), 1 / 14),
    (DomainShape((0.5,) * 4), 1 / 8), (DomainShape((0.5,) * 4), 1 / 10),
    (DomainShape((0.5, 0.35)), 1 / 64), (DomainShape((0.5, 0.35)), 1 / 26),
    (DomainShape((0.5, 0.4, 0.3)), 1 / 24),
    (DomainShape((0.5, 0.4, 0.3)), 1 / 13),
])
def test_every_fine_node_has_an_interior_corner_toward_the_center(shape, h):
    # the corner of a fine node's coarse cell toward the center, idx / 2
    # rounded toward 0, is interior and weighs 2^-(odd indices) > 0: no fine
    # node is left without a corner, and the flat-offset read of the
    # corners, which tests no bound, matches the reference lookup bitwise
    fine = build_grid(shape, h)
    level = coarse_level(fine, 0)
    coarse, P = level.grid, level.interpolation
    toward = rows_at(coarse, np.fix(fine.idx / 2).astype(np.int64))
    assert (toward >= 0).all()
    odd = (fine.idx % 2 != 0).sum(axis=1)
    assert np.array_equal(P[np.arange(fine.size), toward].A1, 0.5 ** odd)
    assert np.diff(P.indptr).min() >= 1
    assert _csr_bytes(P) == _csr_bytes(_reference_interpolation(fine, coarse))
    assert np.array_equal(level.shared, rows_at(fine, 2 * coarse.idx))


def test_nodes_within_roundoff_of_the_boundary_are_dropped():
    # 2^2 + 3^2 + 6^2 = 7^2: at h = 1/14 the node (2, 3, 6) h lies on the
    # sphere of radius 1/2, where implicit evaluates to -1.1e-16; kept, it
    # gave its neighbors arms of length ~1e-16 h
    ball = DomainShape((0.5,) * 3)
    h = 1 / 14
    on_sphere = np.array([2, 3, 6])
    assert -INTERIOR_MARGIN < ball.implicit(on_sphere * h) < 0.0
    grid = build_grid(ball, h)
    assert rows_at(grid, on_sphere) == -1
    assert ball.implicit(grid.pos).max() < -INTERIOR_MARGIN
    assert grid.theta.min() > 0.1
    # the arm toward the dropped node ends at it, up to roundoff
    q = rows_at(grid, on_sphere - [0, 0, 1])
    assert grid.nb[q, 2, 0] == -1 and grid.theta[q, 2, 0] == 1.0


def test_check_lattice_refuses_before_building():
    # counted in floating point: neither lattice is allocated
    for shape, h in ((DISK, 1e-300), (DomainShape((1e50, 1e50)), 1 / 16),
                     (DISK, 1e-5)):
        with pytest.raises(ValueError, match="too fine"):
            check_lattice(shape, h)
        with pytest.raises(ValueError, match="too fine"):
            build_grid(shape, h)
    for h in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and > 0"):
            build_grid(DISK, h)
    # the limit is on the padded box, (2 * 0.5 / h + 3)^2 points on the disk
    assert (2 * 1024 + 3) ** 2 <= MAX_LATTICE < (2 * 2048 + 3) ** 2
    check_lattice(DISK, 1 / 2048)
    with pytest.raises(ValueError, match="too fine"):
        check_lattice(DISK, 1 / 4096)


def test_check_lattice_counts_the_box_build_grid_allocates(monkeypatch):
    # 0.5 / 0.1 rounds to 5.0, while 0.5 // 0.1 is 4.0: the box is 13 x 13
    # points, not 11 x 11; a limit of the true count passes, one below fails
    shape = DomainShape((0.5, 0.5))
    assert build_grid(shape, 0.1).lookup.size == 169
    monkeypatch.setattr(grid_module, "MAX_LATTICE", 169)
    check_lattice(shape, 0.1)
    monkeypatch.setattr(grid_module, "MAX_LATTICE", 168)
    with pytest.raises(ValueError, match="would hold 169 points"):
        check_lattice(shape, 0.1)
    # a quotient that overflows to inf is refused without an exception of
    # its own
    with pytest.raises(ValueError, match="would hold inf points"):
        check_lattice(DomainShape((1e100, 1e100)), 1e-300)
