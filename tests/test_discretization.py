import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh
from test_fibers import CASES, SETTINGS, operators

from grushinlab import discretization, geometry
from grushinlab.coefficients import CoefficientField, GrusinParameters
from grushinlab.discretization import (
    _conductances,
    _kept_x1,
    _starts,
    assemble,
    build_grid,
    face_conductance,
    form_value,
    segment_quadratic,
)
from grushinlab.geometry import MetricGraph, stencil_offsets

EUCLID_1D = GrusinParameters(1, 0)


def test_build_grid_basics():
    g = build_grid(EUCLID_1D, 1.0, 3)
    assert np.allclose(g.axis(0), [-1.0, 0.0, 1.0])
    assert g.spacings == (1.0,)
    g2 = build_grid(EUCLID_1D, 8.0, 257)
    assert g2.spacings[0] == pytest.approx(1.0 / 16.0)
    assert g2.axis(0)[128] == 0.0  # origin is a node, exactly
    p2 = GrusinParameters(1, 1)
    g3 = build_grid(p2, 8.0, 257)
    assert g3.n_nodes == 257**2 == 66049


def test_build_grid_rejects_even_counts():
    with pytest.raises(ValueError, match="odd"):
        build_grid(EUCLID_1D, 1.0, 4)


def test_flat_index_rejects_a_point_off_the_grid():
    g = build_grid(GrusinParameters(1, 1), 4.0, 9)  # h = 1
    # within half a cell of the edge node (4, 0): snaps to it
    flat, snap = g.flat_index([4.4, 0.0])
    assert g.coords([flat])[0].tolist() == [4.0, 0.0] and snap == pytest.approx(0.4)
    # past half a cell, the nearest index lies off the grid: no clamp to the edge
    for point, axis in (([50.0, 0.0], 0), ([0.0, -4.6], 1)):
        with pytest.raises(ValueError, match=f"off the grid on axis {axis}"):
            g.flat_index(point)


def test_face_conductance_uniform_medium():
    cf = CoefficientField(EUCLID_1D)
    h = 0.1
    assert face_conductance(cf, 0, [0.35], h) == pytest.approx(1.0 / h**2, rel=1e-12)


def test_face_conductance_strong_degeneracy_straddling_zero():
    # delta = 3/4: the c^{-1} integral over a segment containing 0 diverges
    p = GrusinParameters(1, 0, 0.75, 0.75)
    cf = CoefficientField(p)
    assert face_conductance(cf, 0, [-0.004], 0.01) == 0.0
    # the boundary case delta = 1/2 diverges logarithmically: also zero
    phalf = GrusinParameters(1, 0, 0.5, 0.5)
    assert face_conductance(CoefficientField(phalf), 0, [-0.004], 0.01) == 0.0


@pytest.mark.parametrize("start", [-0.5, -0.3], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("delta", [0.25, 0.45, 0.49, 0.499, 0.4999, 0.49999])
def test_straddling_face_conductance_is_exact_to_rounding_below_the_threshold(delta, start):
    # c1 = |x1|^(2 delta) when delta1p = delta1, so the mean of 1/c1 over the
    # face [x, x + h] that straddles 0 is (a^e + b^e) / (e h), a = -x, b = x + h,
    # e = 1 - 2 delta; its conductance tends to 0 as delta rises to 1/2
    h = 0.02
    x = start * h
    e = 1.0 - 2.0 * delta
    mean = ((-x) ** e + (x + h) ** e) / (e * h)
    got = face_conductance(CoefficientField(GrusinParameters(1, 0, delta, delta)), 0, [x], h)
    assert got == pytest.approx(1.0 / (h * h * mean), rel=1e-14, abs=0.0)


def test_face_conductance_weak_degeneracy_quadrature_oracle():
    p = GrusinParameters(1, 0, 0.25, 0.5)
    cf = CoefficientField(p)
    h = 0.01
    got = face_conductance(cf, 0, [0.0], h)
    integral, _ = quad(lambda s: s**-0.5 * (1 + s * s) ** -0.25, 0, h, points=[0.0])
    assert got == pytest.approx(1.0 / (h * integral), rel=1e-9)


def test_face_conductance_block2_uses_x1_value():
    p = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0)
    cf = CoefficientField(p)
    # along the x2 axis, the coefficient x1^2 is constant on the segment
    g = face_conductance(cf, 1, [0.5, 0.2], 0.1)
    assert g == pytest.approx(0.25 / 0.01, rel=1e-12)
    assert face_conductance(cf, 1, [0.0, 0.2], 0.1) == 0.0


def test_assemble_textbook_tridiagonal():
    g = build_grid(EUCLID_1D, 1.0, 3)
    op = assemble(g, CoefficientField(EUCLID_1D))
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(op.matrix.toarray(), expected)


@pytest.mark.parametrize(
    "params,extents,counts",
    [
        (EUCLID_1D, 2.0, 41),
        (GrusinParameters(1, 1, 0.25, 0.25, 1.0, 1.0), (2.0, 2.0), (21, 21)),
        (GrusinParameters(1, 1, 0.75, 0.0, 0.5, 0.5), (2.0, 2.0), (21, 21)),
    ],
)
def test_neumann_zero_row_sums_sign_structure_psd(params, extents, counts):
    g = build_grid(params, extents, counts)
    op = assemble(g, CoefficientField(params))
    A = op.matrix
    assert np.abs(A @ np.ones(op.n_nodes)).max() < 1e-10
    off = A - sp.diags(A.diagonal())
    assert off.nnz == 0 or off.data.max() <= 0.0
    lam_min = eigsh(A, k=1, which="SA", return_eigenvectors=False)[0]
    assert lam_min >= -1e-10


def test_form_value_constant_and_coordinate():
    g = build_grid(EUCLID_1D, 1.0, 201)
    op = assemble(g, CoefficientField(EUCLID_1D))
    assert form_value(op, np.ones(op.n_nodes)) == 0.0
    x = g.axis(0)
    assert form_value(op, x) == pytest.approx(2.0, rel=1e-12)  # integral of 1 over [-1, 1]


def test_form_value_richardson_second_order():
    # smooth compactly supported u, non-degenerate c: O(h^2) convergence
    p = GrusinParameters(1, 0, 0.25, 0.25)
    cf = CoefficientField(p)
    u_fn = lambda x: np.exp(-1.0 / np.maximum(1 - ((x - 1.2) / 0.6) ** 2, 1e-300)) * (
        np.abs(x - 1.2) < 0.6
    )
    du_exact, _ = quad(
        lambda x: (np.sqrt(x) * (1 + x * x) ** 0.0)
        * (u_fn(x + 1e-6) - u_fn(x - 1e-6)) ** 2
        / 4e-12,
        0.4,
        2.0,
        limit=200,
    )
    errs = []
    for count in (401, 801, 1601):
        g = build_grid(p, 3.0, count)
        op = assemble(g, cf)
        errs.append(abs(form_value(op, u_fn(g.axis(0))) - du_exact))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) > 1.6, f"expected ~2nd order, got rates {rate} (errors {errs})"


def test_strong_degeneracy_block_diagonal():
    # delta1 = 3/4 (n = 1): no coupling across x1 = 0 in the sparsity pattern
    p = GrusinParameters(1, 1, 0.75, 0.75, 0.5, 0.5)
    g = build_grid(p, (1.0, 1.0), (11, 11))
    op = assemble(g, CoefficientField(p))
    coo = op.matrix.tocoo()
    x = op.coords()[:, 0]
    crossing = x[coo.row] * x[coo.col] < 0
    assert not np.any(crossing)


def test_weak_degeneracy_stays_coupled():
    p = GrusinParameters(1, 1, 0.25, 0.25, 0.5, 0.5)
    g = build_grid(p, (1.0, 1.0), (11, 11))
    op = assemble(g, CoefficientField(p))
    ncomp, _ = connected_components(op.matrix, directed=False)
    assert ncomp == 1


def test_dichotomy_exactly_at_half():
    for d1, separated in [(0.49, False), (0.5, True), (0.51, True)]:
        p = GrusinParameters(1, 0, d1, d1)
        g = build_grid(p, 1.0, 21)
        op = assemble(g, CoefficientField(p))
        ncomp, _ = connected_components(op.matrix, directed=False)
        assert (ncomp > 1) == separated


def test_indicator_form_value_bounded_under_refinement():
    # delta1 >= 1/2: the half-space indicator (smoothly attained) has bounded
    # form value as h -> 0 since the faces at 0 carry zero conductance
    p = GrusinParameters(1, 0, 0.6, 0.6)
    vals = []
    for count in (101, 201, 401):
        g = build_grid(p, 1.0, count)
        op = assemble(g, CoefficientField(p))
        u = (op.coords()[:, 0] > 0).astype(float)
        vals.append(form_value(op, u))
    # structurally zero (the faces at 0 are dead); only matvec roundoff remains
    assert max(abs(v) for v in vals) < 1e-10


def test_dirichlet_origin_eliminates_plane_and_dominates():
    p = GrusinParameters(1, 1, 0.25, 0.25)
    g = build_grid(p, (1.0, 1.0), (15, 15))
    opn = assemble(g, CoefficientField(p))
    opd = assemble(g, CoefficientField(p), "dirichlet_origin")
    assert opd.n_nodes == opn.n_nodes - 15
    assert np.all(np.abs(opd.coords()[:, 0]) > 0)
    lam_n = np.linalg.eigvalsh(opn.matrix.toarray())[:10]
    lam_d = np.linalg.eigvalsh(opd.matrix.toarray())[:10]
    assert np.all(lam_d >= lam_n - 1e-10)


def test_node_index_rejects_a_node_the_boundary_removed():
    p = GrusinParameters(1, 1)
    op = assemble(build_grid(p, 1.0, 33), CoefficientField(p), "dirichlet_origin")
    row = op.node_index([0.5, 1.0])
    assert op.coords()[row].tolist() == [0.5, 1.0]
    # the x1 = 0 plane is eliminated: no silent move to the nearest kept node
    with pytest.raises(ValueError, match=r"\[0\.0, 1\.0\] resolves to a node the "
                                         r"'dirichlet_origin' boundary removed"):
        op.node_index([0.0, 1.0])
    half = assemble(build_grid(EUCLID_1D, 1.0, 9), CoefficientField(EUCLID_1D),
                    "half_line_positive")
    assert half.node_index([0.0]) == 0
    with pytest.raises(ValueError, match="'half_line_positive' boundary removed"):
        half.node_index([-0.25])


def test_half_line_restriction_conserves():
    p = GrusinParameters(1, 0, 0.25, 0.25)
    g = build_grid(p, 1.0, 41)
    op = assemble(g, CoefficientField(p), "half_line_positive")
    assert np.all(op.coords()[:, 0] >= 0)
    assert np.abs(op.matrix @ np.ones(op.n_nodes)).max() < 1e-10


def test_assembled_matches_single_face_conductance():
    p = GrusinParameters(1, 1, 0.3, 0.1, 0.8, 0.2)
    cf = CoefficientField(p)
    g = build_grid(p, (1.0, 1.0), (9, 9))
    op = assemble(g, cf)
    # check a handful of off-diagonal entries against the scalar routine
    pts = g.coords()
    idx = np.arange(g.n_nodes).reshape(g.counts)
    for (i0, i1), axis in [((2, 3), 0), ((4, 4), 1), ((6, 1), 0)]:
        i = idx[i0, i1]
        j = idx[i0 + 1, i1] if axis == 0 else idx[i0, i1 + 1]
        expected = face_conductance(cf, axis, pts[i], g.spacings[axis])
        assert -op.matrix[i, j] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_starts_are_every_node_whose_offset_neighbour_is_on_the_grid(data):
    # brute force over every node p, in C order; offsets up to one past the axis
    counts = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    off = np.array([data.draw(st.integers(-c - 1, c + 1)) for c in counts], dtype=np.int64)
    want = [np.ravel_multi_index(p, counts) for p in np.ndindex(*counts)
            if all(0 <= a + o < c for a, o, c in zip(p, off, counts))]
    got = _starts(counts, off)
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("counts, off, want", [
    ((), (), [0]),  # no x2 axes (m = 0): the one x2 node
    ((), np.zeros(0, dtype=np.int64), [0]),
    ((5,), (0,), [0, 1, 2, 3, 4]),
    ((5,), (2,), [0, 1, 2]),
    ((5,), (-2,), [2, 3, 4]),
    ((5,), (5,), []),
    ((3, 4), (1, -1), [1, 2, 3, 5, 6, 7]),
    ((3, 4), (0, 1), [0, 1, 2, 4, 5, 6, 8, 9, 10]),
    ((2, 2, 3), (-1, 0, 2), [6, 9]),
])
def test_starts_of_fixed_grids(counts, off, want):
    assert _starts(counts, off).tolist() == want


def _coo_reference(op):
    """(A1, A) for ``op``'s grid, coefficients and boundary, built as COO
    triples of the whole matrix and converted by scipy: every live face's
    off-diagonal entry, mirrored, plus the diagonal summed face by face; the
    x1 faces repeated over the x2 nodes for A."""
    grid, coeffs, boundary = op.grid, op.coeffs, op.boundary
    n = grid.params.n
    x1_counts, x2_counts = grid.counts[:n], grid.counts[n:]
    n2 = int(np.prod(x2_counts))
    qa, qb, r2 = segment_quadratic(grid, np.zeros(n, dtype=np.int64))
    kept1 = np.nonzero(_kept_x1(grid, boundary, r2).ravel())[0]
    n1 = kept1.size
    new_index = -np.ones(r2.size, dtype=np.int64)
    new_index[kept1] = np.arange(n1)
    rows, cols, vals, diag = [], [], [], np.zeros(n1)
    for axis in range(n):
        off = np.eye(n, dtype=np.int64)[axis]
        gf = _conductances(coeffs, 1, grid.spacings[axis], *segment_quadratic(grid, off)).ravel()
        i = _starts(x1_counts, off)
        j = i + int(np.prod(x1_counts[axis + 1:]))
        live = gf > 0.0
        i, j, gf = i[live], j[live], gf[live]
        ki, kj = new_index[i], new_index[j]
        both = (ki >= 0) & (kj >= 0)
        np.add.at(diag, ki[both], gf[both])
        np.add.at(diag, kj[both], gf[both])
        rows.append(ki[both])
        cols.append(kj[both])
        vals.append(-gf[both])
        if boundary == "dirichlet_origin":
            into_i = (ki >= 0) & (kj < 0)
            into_j = (kj >= 0) & (ki < 0)
            np.add.at(diag, ki[into_i], gf[into_i])
            np.add.at(diag, kj[into_j], gf[into_j])
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))

    def symmetric(rows, cols, vals, diag):
        d = np.arange(diag.size)
        return sp.coo_matrix((np.concatenate([vals, vals, diag]),
                              (np.concatenate([rows, cols, d]), np.concatenate([cols, rows, d]))),
                             shape=(diag.size,) * 2).tocsr()

    A1 = symmetric(rows, cols, vals, diag)
    g2 = [_conductances(coeffs, 2, grid.spacings[n + j], *(q.ravel()[kept1] for q in (qa, qb, r2)))
          for j in range(grid.params.m)]
    x2 = np.arange(n2)
    rows, cols = [(rows[:, None] * n2 + x2).ravel()], [(cols[:, None] * n2 + x2).ravel()]
    vals = [np.repeat(vals, n2)]
    full = np.broadcast_to(diag[:, None], (n1, n2))
    for j, g in enumerate(g2):
        lo = _starts(x2_counts, np.eye(len(g2), dtype=np.int64)[j])
        hi = lo + int(np.prod(x2_counts[j + 1:]))
        live = np.nonzero(g > 0.0)[0]
        rows.append((live[:, None] * n2 + lo).ravel())
        cols.append((live[:, None] * n2 + hi).ravel())
        vals.append(np.repeat(-g[live], lo.size))
        full = full + np.outer(g, np.isin(x2, lo)) + np.outer(g, np.isin(x2, hi))
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    return A1, symmetric(rows, cols, vals, full.ravel())


def _graph_coo_reference(mg):
    """``mg``'s edge matrix from COO triples of every edge, converted by
    scipy; the compact per-offset edges are repeated over the x2 starts."""
    grid = mg.grid
    n2 = int(np.prod(grid.counts[grid.params.n:]))
    rows, cols, vals = [], [], []
    for off in stencil_offsets(grid.dim, mg.stencil_order):
        if np.all(np.abs(off) < grid.counts):
            x1, x2, w, step, _ = mg._edge_weights(off)
            rows.append((x1[:, None] * n2 + x2).ravel())
            cols.append(rows[-1] + step)
            vals.append(np.repeat(w, x2.size))
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    return sp.coo_matrix((vals, (rows, cols)), shape=(grid.n_nodes,) * 2).tocsr()


def _assert_same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), part
    # canonical as scipy computes it for a fresh matrix of the same arrays
    assert sp.csr_matrix((got.data, got.indices, got.indptr), shape=got.shape).has_canonical_format


def _stores_every_diagonal(M):
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    return np.array_equal(np.unique(rows[M.indices == rows]), np.arange(M.shape[0]))


def _blocked(mp, rows):
    """Make every ``_csr`` call under the monkeypatch ``mp`` fill ``rows``
    x1 rows per block."""
    real = discretization._csr

    def blocked(shape, slots):
        cells = discretization._CSR_CELLS
        discretization._CSR_CELLS = rows * shape[1] * len(slots)
        try:
            return real(shape, slots)
        finally:
            discretization._CSR_CELLS = cells
    mp.setattr(discretization, "_csr", blocked)
    mp.setattr(geometry, "_csr", blocked)


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data())
def test_csr_equals_the_coo_assembly_bit_for_bit(n, m, boundary, data):
    # in blocks of 1 to 3 x1 rows, or at the default size (one block on these
    # grids): block boundaries fall among the rows written alone, the ends
    # of the x1 range, dead faces (delta1 = 0.75) that cut slots and, for
    # n = 2 and dirichlet_origin, the neighbours of the eliminated node,
    # whose steps differ from the slot's first
    rows = data.draw(st.sampled_from([None, 1, 2, 3]))
    with pytest.MonkeyPatch.context() as mp:
        if rows:
            _blocked(mp, rows)
        op = data.draw(operators(n, m, boundary))
        mg = MetricGraph(op.grid, op.coeffs, data.draw(st.sampled_from([1, 2, 3])))
    A1, A = _coo_reference(op)
    _assert_same_csr(op.fiber[0], A1)
    _assert_same_csr(op.matrix, A)
    assert _stores_every_diagonal(op.fiber[0]) and _stores_every_diagonal(op.matrix)
    _assert_same_csr(mg.edge_matrix, _graph_coo_reference(mg))


@pytest.mark.parametrize("n, m, counts", [(1, 1, (129, 129)), (2, 1, (33, 33, 9)),
                                          (1, 2, (65, 17, 17))])
def test_csr_of_grids_larger_than_one_block_equals_the_coo_assembly(n, m, counts):
    # dead faces at x1 = 0 and the origin's x1 node eliminated, at the
    # default block size: two or more blocks per matrix
    params = GrusinParameters(n, m, 0.75, 0.75, 1.0, 1.0)
    grid = build_grid(params, 1.0, counts)
    op = assemble(grid, CoefficientField(params), "dirichlet_origin")
    n1, n2 = op.fiber_shape
    assert n1 > discretization._CSR_CELLS // (n2 * (2 * (n + m) + 1))
    A1, A = _coo_reference(op)
    _assert_same_csr(op.fiber[0], A1)
    _assert_same_csr(op.matrix, A)
    mg = MetricGraph(grid, op.coeffs, 2)
    _assert_same_csr(mg.edge_matrix, _graph_coo_reference(mg))


@pytest.mark.parametrize("n, m", [(1, 0), (1, 1), (2, 1)])
def test_isolated_rows_store_an_explicit_zero_diagonal(n, m):
    # delta1 >= 1/2: every x1 face of the origin's x1 node has conductance 0,
    # and with delta2 = 1 so has every x2 face there
    params = GrusinParameters(n, m, 0.75, 0.75, 1.0, 1.0)
    op = assemble(build_grid(params, 1.0, 5), CoefficientField(params))
    for M in (op.fiber[0], op.matrix):
        lengths = np.diff(M.indptr)
        isolated = np.nonzero(lengths == 1)[0]
        assert isolated.size > 0 and _stores_every_diagonal(M)
        assert np.array_equal(M.indices[M.indptr[isolated]], isolated)
        assert np.all(M.data[M.indptr[isolated]] == 0.0)


def test_builders_peak_memory_stays_within_two_and_a_half_outputs():
    # c10's level-0 grid; the traced peak of each build, over the bytes of the
    # CSR it returns (a whole-matrix COO build peaks at 3.5x and 3.8x)
    params = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0)
    grid = build_grid(params, 8.0, 257)
    coeffs = CoefficientField(params)
    for build, matrix in ((lambda: assemble(grid, coeffs), lambda op: op.matrix),
                          (lambda: MetricGraph(grid, coeffs, 2), lambda mg: mg.edge_matrix)):
        tracemalloc.start()
        try:
            M = matrix(build())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)
