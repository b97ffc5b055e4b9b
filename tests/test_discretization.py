import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from grushinlab.coefficients import CoefficientField, GrusinParameters
from grushinlab.discretization import (
    assemble,
    build_grid,
    face_conductance,
    form_value,
)

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
