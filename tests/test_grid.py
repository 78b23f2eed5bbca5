"""Grid construction, arm geometry, and stencil consistency."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse

from etacurv.domain import DomainShape
from etacurv.geometry import batch_geometry
from etacurv.grid import (
    _arm_coeffs,
    _bisect_arms,
    _build_pattern,
    all_derivatives,
    build_grid,
    fd_derivatives,
    nested_dissection,
)

DISK = DomainShape((0.5, 0.5))


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
    inside = shape.implicit(pos_all) < 0.0
    idx = np.ascontiguousarray(idx_all[inside])
    pos = np.ascontiguousarray(pos_all[inside])
    m = idx.shape[0]

    index_of = {tuple(row): q for q, row in enumerate(idx)}
    nb = np.full((m, n, 2), -1, dtype=np.int64)
    theta = np.ones((m, n, 2))
    cross = []
    for q in range(m):
        for s in range(n):
            for t, sign in ((0, 1), (1, -1)):
                key = list(idx[q])
                key[s] += sign
                row = index_of.get(tuple(key))
                if row is not None:
                    nb[q, s, t] = row
                else:
                    cross.append((q, s, t, sign))
    if cross:
        cross = np.asarray(cross, dtype=np.int64)
        theta[cross[:, 0], cross[:, 1], cross[:, 2]] = _bisect_arms(shape, pos, h, cross)
    cls = (nb < 0).any(axis=(1, 2)).astype(np.uint8)

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
    fields = dict(idx=idx, pos=pos, nb=nb, theta=theta, cls=cls, mixed_dropped=dropped)
    return fields, Dx, D2


REFERENCE_CASES = [
    (DISK, 1 / 10),
    (DISK, 1 / 64),
    (DomainShape((0.5, 0.3)), 1 / 32),
    (DomainShape((1.0, 0.5)), 0.13),
    (DomainShape((0.5, 0.5, 0.5)), 1 / 12),
    (DomainShape((0.5, 0.4, 0.3)), 1 / 16),   # 8 dropped mixed stencils
    (DomainShape((0.6, 0.5, 0.4)), 0.17),     # 18 dropped mixed stencils
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
        for name in ("idx", "pos", "nb", "theta", "cls"):
            got, want = getattr(g, name), fields[name]
            assert got.dtype == want.dtype, (case, name)
            np.testing.assert_array_equal(got, want, err_msg=f"{case} {name}")
        # slot order: Hessian entries i <= j row-major, then the gradient
        hess = [(i, j) for i in range(n) for j in range(i, n)]
        assert g.ops().shape == ((len(hess) + n) * m, m), case
        assert g.mixed_dropped == fields["mixed_dropped"], case
        for got, want in zip(slot_blocks(g), [D2[k] for k in hess] + Dx):
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
        assert p.tobytes() == p_ref.tobytes() and r.tobytes() == r_ref.tobytes(), case
        for q in range(m):
            st = fd_derivatives(g, u, q)
            assert st.p.tobytes() == p[q].tobytes(), (case, q)
            assert st.r.tobytes() == r[q].tobytes(), (case, q)


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


def test_rows_at_outside_the_box():
    for shape, h in [(DISK, 0.25), (DomainShape((0.6, 0.5, 0.4)), 0.17)]:
        g = build_grid(shape, h)
        np.testing.assert_array_equal(g.rows_at(g.idx), np.arange(g.size))
        pad = (np.array(g.lookup.shape) - 1) // 2  # keys -pad..pad span the box
        for s in range(g.n):
            # the padding layer, then keys past the box that a plain index
            # would wrap around to the far side
            for key in (pad[s], -pad[s], pad[s] + 1, -pad[s] - 1, 2**40, -2**40):
                keys = np.stack([np.zeros(g.n, dtype=np.int64), g.idx[0]])
                keys[:, s] = key
                np.testing.assert_array_equal(g.rows_at(keys), [-1, -1])


def test_nine_node_disk():
    g = build_grid(DISK, 0.25)
    assert g.size == 9
    want = {(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)}
    assert {tuple(row) for row in g.idx} == want
    # lexicographic ordering by index
    assert [tuple(row) for row in g.idx] == sorted(want)
    center, edge, corner = g.rows_at([(0, 0), (1, 0), (1, 1)])
    assert g.cls[center] == 0  # all four neighbors interior
    assert g.cls[edge] == 1
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
    reg = g.cls == 0
    assert reg.sum() > 20
    np.testing.assert_allclose(p[reg, 0], (0.7 + 4.0 * x + 0.9 * y)[reg], atol=1e-11)
    np.testing.assert_allclose(p[reg, 1], (-1.1 + 0.9 * x - 2.6 * y)[reg], atol=1e-11)
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
    np.testing.assert_allclose(st.r, r[q], atol=1e-12)


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


def test_ops_pattern_past_int32_keys():
    # the pattern keys node * m + col pass 2**31 once m > 46,340 nodes;
    # int32 operator indices must not wrap them
    m = 50_000
    d2 = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m),
                            format="csr")
    dx = scipy.sparse.eye(m, k=1, format="csr")
    stack = scipy.sparse.vstack([d2, dx], format="csr")  # n = 1: D_11, then D_1
    assert stack.indices.dtype == np.int32
    pattern = _build_pattern(SimpleNamespace(ops=lambda: stack, size=m, n=1))
    w = np.random.default_rng(7).standard_normal((3, m))
    J = pattern.assemble(w[0][:, None, None], w[1][:, None], w[2])
    diag = scipy.sparse.diags
    ref = diag(w[0]) @ d2 + diag(w[1]) @ dx + diag(w[2])
    assert J.shape == (m, m)
    assert J.nnz == 3 * m - 2
    assert abs(J - ref).max() == 0.0
