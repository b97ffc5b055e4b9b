"""Property tests of the factored exact spectrum (``dense_eig``) against a
dense eigendecomposition oracle built here, and of the Chebyshev heat series
of a decay stage's candidate diagonal (the Krylov method) against both, on
small grids in every boundary mode."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from grushinlab import discretization, evolution
from grushinlab.coefficients import CoefficientField, GrusinParameters
from grushinlab.discretization import (
    BOUNDARY_MODES,
    CapacityError,
    FiberSpectrum,
    _along_x2,
    _fiber_eigh,
    _mode_diagonals,
    assemble,
    build_grid,
    face_conductance,
)
from grushinlab.evolution import (
    _candidate_diagonal,
    apply_semigroup,
    ondiagonal_decay,
)

SHAPES = [(1, 0), (1, 1), (1, 2), (2, 1)]
CASES = [(n, m, b) for n, m in SHAPES for b in BOUNDARY_MODES
         if n == 1 or not b.startswith("half_line")]
DELTA1 = [0.0, 0.25, 0.5, 0.75]
TIMES = st.floats(-4.0, 2.0).map(lambda e: 10.0**e)
TOLERANCE = 1e-8  # the heat series' absolute error per diagonal entry
SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)


@st.composite
def operators(draw, n, m, boundary, deltas=DELTA1):
    delta1 = draw(st.sampled_from(deltas))
    delta2 = draw(st.sampled_from([0.0, 1.0])) if m else 0.0
    dim = n + m
    counts = tuple(draw(st.sampled_from([3, 5, 7])) for _ in range(dim))
    extents = tuple(draw(st.sampled_from([1.0, 2.0, 3.0])) for _ in range(dim))
    params = GrusinParameters(n, m, delta1, delta1, delta2, 0.5 * delta2)
    return assemble(build_grid(params, extents, counts), CoefficientField(params), boundary)


def _oracle(op):
    return np.linalg.eigh(op.matrix.toarray())


def _semigroup(lam, Phi, t):
    return (Phi * np.exp(-t * lam)) @ Phi.T


def _tolerance(op, t):
    # eigh's eigenvalues carry an absolute error of order eps * ||A||, which
    # exp(-t lam) turns into eps * t * ||A||; below t ||A|| = 1 this is 1e-12
    return 1e-12 * max(1.0, t * abs(op.matrix).sum(axis=1).max())


def _factored_matrix(op, t):
    spec = op.dense_eig()
    return np.stack([spec.apply(e, t) for e in np.eye(op.n_nodes)], axis=1)


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data(), t=TIMES)
def test_factored_spectrum_matches_dense_oracle(n, m, boundary, data, t):
    op = data.draw(operators(n, m, boundary))
    lam, Phi = _oracle(op)
    spec = op.dense_eig()
    tol = _tolerance(op, t)
    factored = np.sort(np.concatenate([b[1].ravel() for b in spec.blocks]))
    assert np.abs(factored - lam).max() <= 1e-12 * max(1.0, np.abs(lam).max())

    S = _factored_matrix(op, t)
    oracle = _semigroup(lam, Phi, t)
    assert np.abs(S - oracle).max() <= tol
    assert np.abs(S - S.T).max() <= 1e-12
    assert np.abs(spec.diagonal([t])[0] - np.diag(oracle)).max() <= tol
    rows = np.arange(0, op.n_nodes, 3)
    assert np.abs(spec.block(rows, [t])[0] - oracle[np.ix_(rows, rows)]).max() <= tol
    if boundary != "dirichlet_origin":
        assert np.abs(S.sum(axis=0) - 1.0).max() <= tol


def _fibers(op):
    """Per-mode fiber diagonals (n2, n1) and the shared off-diagonal of an n = 1 operator."""
    return _mode_diagonals(op), op.fiber[0].diagonal(1)


def _eigh_sizes(monkeypatch):
    """Record the size of every tridiagonal eigensolve the factorization makes."""
    sizes = []
    stevd = discretization._stevd

    def spy(d, e):
        sizes.append(d.size)
        return stevd(d, e)

    monkeypatch.setattr(discretization, "_stevd", spy)
    return sizes


@pytest.mark.parametrize("delta1, count", [(0.0, 3), (0.0, 65), (0.25, 65)])
def test_fiber_factorizations_are_stevd_bit_for_bit(delta1, count, monkeypatch):
    # the LAPACK routine is named, so the bytes do not rest on scipy's choice
    # for lapack_driver="auto": every solve is eigh_tridiagonal's with
    # lapack_driver="stevd", byte for byte, on a split fiber (delta1 = 0; at
    # 3 nodes its odd half has 1 node), a whole one, and 1- and 2-node ones
    p = GrusinParameters(1, 0, delta1, delta1)
    op = assemble(build_grid(p, 2.0, count), CoefficientField(p))
    D, e = _fibers(op)
    h = count // 2
    coupling = e[:h].copy()
    coupling[-1] *= np.sqrt(2.0)
    for d, off in ((D[0], e), (D[0][:h + 1], coupling), (D[0][:h], e[:h - 1]),
                   (D[0][:1], e[:0]), (D[0][:2], e[:1])):
        want = eigh_tridiagonal(d, off, lapack_driver="stevd")
        got = discretization._stevd(d, off)
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))
    for d, off in ((D[0], e), (D[0][:1], e[:0]), (D[0][:2], e[:1])):
        Phi, ref_Phi = np.empty((d.size, d.size)), np.empty((d.size, d.size))
        lam = _fiber_eigh(d, off, Phi)
        with monkeypatch.context() as mp:
            mp.setattr(discretization, "_stevd",
                       lambda d, e: eigh_tridiagonal(d, e, lapack_driver="stevd"))
            ref_lam = _fiber_eigh(d, off, ref_Phi)
        assert lam.tobytes() == ref_lam.tobytes() and Phi.tobytes() == ref_Phi.tobytes()


@pytest.mark.parametrize("n, m, boundary", [c for c in CASES
                                            if c[0] == 1 and c[2] == "neumann_truncation"])
@SETTINGS
@given(data=st.data())
def test_delta1_zero_fibers_are_exact_palindromes(n, m, boundary, data):
    # the premise of the parity split: for delta1 = 0 every coefficient and
    # every face integral is the same on both sides of x1 = 0, bit for bit
    op = data.draw(operators(n, m, boundary, deltas=[0.0]))
    D, e = _fibers(op)
    assert np.array_equal(D, D[:, ::-1]) and np.array_equal(e, e[::-1])


@pytest.mark.parametrize("delta1", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("floor_radius", [None, 0.5])
def test_asymmetric_fibers_are_factored_whole(delta1, floor_radius):
    # each x1 face is integrated from its own start, so for delta1 > 0 the
    # mirror faces round differently and the fiber is not split: its
    # eigenpairs are those of one plain eigh_tridiagonal, byte for byte
    p = GrusinParameters(1, 0, delta1, delta1)
    coeffs = CoefficientField(p) if floor_radius is None else CoefficientField(p, floor_radius)
    op = assemble(build_grid(p, 4.0, 201), coeffs)
    D, e = _fibers(op)
    assert not np.array_equal(D[0], D[0, ::-1])
    for rows, lam, Phi in op.dense_eig().blocks:
        plain_lam, plain_Phi = eigh_tridiagonal(D[0, rows], e[rows[:-1]])
        assert np.array_equal(lam[0], plain_lam) and np.array_equal(Phi[0], plain_Phi)


@pytest.mark.parametrize("count", [3, 5, 65, 1025])
def test_split_fiber_eigenpairs_match_dense_oracle(count, monkeypatch):
    # c14's fiber at 1,025 nodes: c = 1 on [-8, 8]
    p = GrusinParameters(1, 0)
    op = assemble(build_grid(p, 8.0, count), CoefficientField(p))
    D, e = _fibers(op)
    d = D[0]
    sizes = _eigh_sizes(monkeypatch)
    Phi = np.empty((count, count))
    lam = _fiber_eigh(d, e, Phi)
    assert sizes == [count // 2 + 1, count // 2]  # the even half, then the odd half
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    dense = np.linalg.eigvalsh(T)
    bound = 1e-12 * max(1.0, np.abs(dense).max())
    assert np.abs(np.sort(lam) - dense).max() <= bound
    assert np.abs(T @ Phi - Phi * lam).max() <= bound
    assert np.abs(Phi.T @ Phi - np.eye(count)).max() <= 1e-12


@pytest.mark.parametrize("shape, counts", [((1, 0), 65), ((1, 1), (33, 9))])
@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0])
def test_split_spectrum_matches_dense_oracle(shape, counts, t, monkeypatch):
    p = GrusinParameters(*shape, 0.0, 0.0, 1.0, 0.5)
    op = assemble(build_grid(p, 3.0, counts), CoefficientField(p))
    sizes = _eigh_sizes(monkeypatch)
    spec = op.dense_eig()
    diagonal = spec.diagonal([t])[0]  # reads, so factors, every component
    n1, n2 = op.fiber_shape
    assert sizes == [n1 // 2 + 1, n1 // 2] * n2  # every fiber was split
    lam, Phi = _oracle(op)
    oracle = _semigroup(lam, Phi, t)
    tol = _tolerance(op, t)
    v = np.random.default_rng(op.n_nodes).normal(size=op.n_nodes)
    assert np.abs(spec.apply(v, t) - oracle @ v).max() <= tol * np.abs(v).sum()
    assert np.abs(diagonal - np.diag(oracle)).max() <= tol
    rows = np.arange(1, op.n_nodes, 2)
    assert np.abs(spec.block(rows, [t])[0] - oracle[np.ix_(rows, rows)]).max() <= tol


@pytest.mark.parametrize("m, counts", [(0, 41), (1, (41, 5))])
def test_a_one_sided_start_factors_one_component(m, counts, monkeypatch):
    # delta1 = 1/2 cuts both faces at x1 = 0: the half-lines x1 < 0 and
    # x1 > 0 and the origin are three components of A1, and a start on
    # x1 > 0 is zero on the other two, so apply factors its own half only
    p = GrusinParameters(1, m, 0.5, 0.5, 1.0 if m else 0.0, 0.5 if m else 0.0)
    op = assemble(build_grid(p, 2.0, counts), CoefficientField(p))
    factored = []

    def spy(d, e, Phi):
        factored.append(d.size)
        return _fiber_eigh(d, e, Phi)

    monkeypatch.setattr(discretization, "_fiber_eigh", spy)
    spec = op.dense_eig()
    n1, n2 = op.fiber_shape
    assert len(spec.components) == 3 and factored == []
    positive = op.coords()[:, 0] > 0.0
    spec.apply(np.where(positive, 1.0, 0.0), 0.1)
    assert factored == [n1 // 2] * n2
    spec.block(np.nonzero(positive)[0][::3], [0.1])  # the same component: no new factor
    assert factored == [n1 // 2] * n2
    spec.diagonal([0.1])  # every component
    assert sorted(factored) == sorted([n1 // 2] * 2 * n2 + [1] * n2)


@pytest.mark.parametrize("m, counts", [(0, 41), (1, (41, 5)), (2, (9, 5, 3))])
@pytest.mark.parametrize("rows", [[], np.array([], dtype=int)])
def test_an_empty_block_is_empty(m, counts, rows):
    p = GrusinParameters(1, m, 0.25, 0.25)
    spec = assemble(build_grid(p, 2.0, counts), CoefficientField(p)).dense_eig()
    assert np.array_equal(spec.block(rows, [0.1, 0.2]), np.zeros((2, 0, 0)))


def _eager_apply(spec, v, t):
    """exp(-tA) v with every component factored and applied, zero input or not."""
    W = _along_x2(spec._grid(v), spec.cosines).reshape(spec.n1, -1)
    out = np.empty_like(W)
    for rows, lam, Phi in spec.blocks:
        coef = (W[rows].T[:, None, :] @ Phi)[:, 0, :] * np.exp(-t * lam)
        out[rows] = (Phi @ coef[:, :, None])[:, :, 0].T
    return _along_x2(spec._grid(out), [C.T for C in spec.cosines]).ravel()


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data(), t=TIMES)
def test_lazy_spectrum_equals_the_eager_one_bit_for_bit(n, m, boundary, data, t):
    # np.array_equal counts +0 and -0 as one
    op = data.draw(operators(n, m, boundary))
    eager = FiberSpectrum(op)
    assert eager.blocks  # factors every component before any read
    x1 = op.coords()[:, 0]
    v = np.random.default_rng(op.n_nodes).normal(size=op.n_nodes)
    for side in (x1 < 0.0, x1 > 0.0, x1 >= 0.0, np.ones_like(x1, dtype=bool)):
        start = np.where(side, v, 0.0)
        assert np.array_equal(FiberSpectrum(op).apply(start, t), _eager_apply(eager, start, t))
        rows = np.nonzero(side)[0]
        assert np.array_equal(FiberSpectrum(op).block(rows, [t]), eager.block(rows, [t]))
    assert np.array_equal(FiberSpectrum(op).diagonal([t, 2 * t]), eager.diagonal([t, 2 * t]))


def _face_by_face(op):
    """The operator of ``op``'s grid, coefficients and boundary, assembled
    face by face over the whole grid with the scalar face_conductance:
    (dense matrix, kept flat indices)."""
    grid, boundary = op.grid, op.boundary
    x = grid.coords()
    x1 = x[:, :grid.params.n]
    keep = {"neumann_truncation": np.ones(grid.n_nodes, dtype=bool),
            "dirichlet_origin": (x1 * x1).sum(axis=1) > 0.0,
            "half_line_positive": x[:, 0] >= 0.0}[boundary]
    kept = np.nonzero(keep)[0]
    row = -np.ones(grid.n_nodes, dtype=int)
    row[kept] = np.arange(kept.size)
    A = np.zeros((kept.size, kept.size))
    index = np.arange(grid.n_nodes).reshape(grid.counts)
    for axis, h in enumerate(grid.spacings):
        lo = np.take(index, np.arange(grid.counts[axis] - 1), axis).ravel()
        for i in lo:
            j = i + index.strides[axis] // index.itemsize
            g = face_conductance(op.coeffs, axis, x[i], h)
            a, b = row[i], row[j]
            if a >= 0 and b >= 0:
                A[[a, b], [a, b]] += g
                A[[a, b], [b, a]] -= g
            elif boundary == "dirichlet_origin" and max(a, b) >= 0:
                A[max(a, b), max(a, b)] += g    # the face into the eliminated node
    return A, kept


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data())
def test_kronecker_sum_identity(n, m, boundary, data):
    # the operator assembled from its Kronecker factors equals the one
    # assembled face by face on the whole grid
    op = data.draw(operators(n, m, boundary))
    A, kept = _face_by_face(op)
    M = op.matrix.toarray()
    assert np.array_equal(op.kept, kept)
    assert np.array_equal(M != 0.0, A != 0.0)
    assert np.all(np.abs(M - A) <= 1e-12 * np.abs(A))


# for n = 2 the Dirichlet mode removes the only node that separates
@pytest.mark.parametrize("n, m, boundary",
                         [(n, m, b) for n, m, b in CASES if b == "neumann_truncation"
                          or (n == 1 and b == "dirichlet_origin")])
@SETTINGS
@given(data=st.data(), t=TIMES)
def test_strong_degeneracy_cross_kernel_is_exactly_zero(n, m, boundary, data, t):
    op = data.draw(operators(n, m, boundary, deltas=[0.5, 0.75]))
    # delta1 >= 1/2 cuts every face touching x1 = 0: for n = 1 the half-lines
    # and the origin separate, for n = 2 the origin separates from the rest
    x1 = op.coords()[:, :n]
    part = np.sign(x1[:, 0]) if n == 1 else (np.abs(x1).sum(axis=1) > 0.0)
    sources = np.union1d(np.arange(0, op.n_nodes, 4), np.nonzero(part == 0)[0])
    for j in sources:
        e = np.zeros(op.n_nodes)
        e[j] = 1.0
        col = apply_semigroup(op, e, t)
        cross = col[part != part[j]]
        assert cross.size and np.all(cross == 0.0)


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data(), t=TIMES, s=TIMES)
def test_semigroup_property(n, m, boundary, data, t, s):
    op = data.draw(operators(n, m, boundary))
    v = np.random.default_rng(op.n_nodes).normal(size=op.n_nodes)
    spec = op.dense_eig()
    both = spec.apply(spec.apply(v, s), t)
    assert np.abs(both - spec.apply(v, t + s)).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data())
def test_size_predicate(n, m, boundary, data):
    # every read takes the factored spectrum: past the ceiling it raises
    op = data.draw(operators(n, m, boundary))
    n1, n2 = op.fiber_shape
    stored = n2 * n1 * n1
    tight = math.isqrt(stored - 1) + 1       # smallest ceiling that fits
    v = np.ones(op.n_nodes)
    with pytest.MonkeyPatch.context() as mp:  # hypothesis runs many examples per test call
        mp.setattr(discretization, "MAX_EXACT_DIMENSION", tight)
        apply_semigroup(op, v, 0.1)
        mp.setattr(discretization, "MAX_EXACT_DIMENSION", tight - 1)
        with pytest.raises(CapacityError, match=f"{stored} floats > {tight - 1}\\^2"):
            apply_semigroup(op, v, 0.1)


def test_cached_spectrum_keeps_the_storage_ceiling(monkeypatch):
    p = GrusinParameters(1, 1)
    op = assemble(build_grid(p, 1.0, 33), CoefficientField(p))
    spec = op.dense_eig()
    assert op.dense_eig() is spec
    # 33 fibers of 33 nodes store 35,937 floats, over a ceiling of 10^2
    monkeypatch.setattr(discretization, "MAX_EXACT_DIMENSION", 10)
    with pytest.raises(CapacityError, match="35937 floats > 10"):
        op.dense_eig()


def test_size_rule_on_one_dimensional_and_square_grids(monkeypatch):
    # a read past the ceiling raises, naming the floats, and runs no series
    monkeypatch.setattr(evolution, "_chebyshev_terms", None)
    p1 = GrusinParameters(1, 0)
    op = assemble(build_grid(p1, 8.0, 4499), CoefficientField(p1))
    assert op.dense_eig().n1 == 4499
    op = assemble(build_grid(p1, 8.0, 4501), CoefficientField(p1))
    with pytest.raises(CapacityError, match="stores 20259001 floats > 4500\\^2"):
        apply_semigroup(op, np.eye(op.n_nodes)[0], 0.1)
    p2 = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0)
    op = assemble(build_grid(p2, 6.0, 129), CoefficientField(p2))
    assert op.fiber_shape == (129, 129)
    assert op.dense_eig().n1 == 129
    # m = 1 at the real ceiling: 271 fibers of 271 nodes fit, 273 of 273 do not
    # (dense_eig factors no component, so each costs its assembly only)
    op = assemble(build_grid(p2, 6.0, 271), CoefficientField(p2))
    assert op.dense_eig().n1 == 271  # 19,902,511 floats
    op = assemble(build_grid(p2, 6.0, 273), CoefficientField(p2))
    with pytest.raises(CapacityError, match="stores 20346417 floats > 4500\\^2"):
        op.dense_eig()


def _oracle_diagonal(op, times):
    """exp(-tA)_jj per time and row, by the dense oracle."""
    lam, Phi = _oracle(op)
    return np.stack([np.diag(_semigroup(lam, Phi, s)) for s in times])


# the proven bound of an entry of the candidate diagonal, with 1e-12 for
# the rounding of the oracle and of the recurrence
KRYLOV_ERROR = TOLERANCE + 1e-12


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data(), t=TIMES)
def test_krylov_matches_factored_spectrum(n, m, boundary, data, t):
    # one series per candidate serves every time; the sup is taken over
    # K_t(x; x) = diagonal entry / node weight, by either method
    op = data.draw(operators(n, m, boundary))
    times = [t / 4.0, t / 2.0, t]
    cands = np.arange(0, op.n_nodes, 2)
    oracle = _oracle_diagonal(op, times)[:, cands].max(axis=1) / op.node_weight
    sup = ondiagonal_decay(op, times, candidates=cands, tolerance=TOLERANCE).sup_diag
    assert np.abs(sup - oracle).max() <= KRYLOV_ERROR / op.node_weight
    exact = ondiagonal_decay(op, times, candidates=cands).sup_diag
    assert np.abs(exact - oracle).max() <= _tolerance(op, t) / op.node_weight


@pytest.mark.parametrize("n, m, boundary", [c for c in CASES if c[1] >= 1])
@SETTINGS
@given(data=st.data(), t=TIMES)
def test_krylov_diagonal_at_a_mid_line_candidate_is_folded(n, m, boundary, data, t):
    # a unit start on the x2 mid-line equals its x2 reflection, so its series
    # runs on one row per mirror pair, and its twin one x2 node off the line
    # on every row; both entries must meet the proven bound
    op = data.draw(operators(n, m, boundary))
    n1, n2 = op.fiber_shape
    row = (n1 // 2) * n2 + (n2 - 1) // 2
    places = []
    support_order = evolution._support_order

    def spy(*args):
        order, pos, reach = support_order(*args)
        places.append(order.size)
        return order, pos, reach
    times = [t / 2.0, t]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_support_order", spy)
        diag = _candidate_diagonal(op, [row, row + 1], times, TOLERANCE)
    assert places == [n1 * (n2 + 1) // 2, n1 * n2]
    assert np.abs(diag - _oracle_diagonal(op, times)[:, [row, row + 1]]).max() <= KRYLOV_ERROR


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data(), t=TIMES)
def test_krylov_error_within_the_proven_bound(n, m, boundary, data, t):
    # a loose tolerance cuts the series early, and every entry, each start
    # folded or not, must still lie within it of the oracle
    op = data.draw(operators(n, m, boundary))
    rows = np.arange(0, op.n_nodes, 4)
    tol = 1e-4
    err = np.abs(_candidate_diagonal(op, rows, [t], tol) - _oracle_diagonal(op, [t])[:, rows])
    assert err.max() <= tol + 1e-12


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data(), t=TIMES)
def test_krylov_one_pass_equals_single_time_calls(n, m, boundary, data, t):
    op = data.draw(operators(n, m, boundary))
    times = [t / 100.0, t / 3.0, t]
    rows = np.arange(op.n_nodes // 2, op.n_nodes, 3)
    diag = _candidate_diagonal(op, rows, times, TOLERANCE)
    for s, d in zip(times, diag):
        assert np.abs(d - _candidate_diagonal(op, rows, [s], TOLERANCE)[0]).max() <= 1e-13
    assert np.abs(diag - _oracle_diagonal(op, times)[:, rows]).max() <= KRYLOV_ERROR


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data(), t=TIMES)
def test_krylov_diagonal_matches_dense_oracle(n, m, boundary, data, t):
    # each entry is (exp(-tA) e_j)_j, whose error the tail bounds by tolerance
    op = data.draw(operators(n, m, boundary))
    times = np.array([t / 10.0, t])
    rows = np.arange(1, op.n_nodes, 2)
    diag = _candidate_diagonal(op, rows, times, TOLERANCE)
    assert np.abs(diag - _oracle_diagonal(op, times)[:, rows]).max() <= KRYLOV_ERROR
