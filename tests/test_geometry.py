import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from grushinlab.coefficients import CoefficientField, GrusinParameters, derive_exponents
from grushinlab.discretization import build_grid
from grushinlab.geometry import (
    MetricGraph,
    ball_volume,
    ball_volume_closed_form,
    closed_form_distance,
    delta_distance,
    doubling_exponent,
    stencil_offsets,
)
from grushinlab.quadrature import segment_integrals

CLASSICAL = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0)
EUCLID_2D = GrusinParameters(1, 1)
POWER_HALF = GrusinParameters(1, 0, 0.5, 0.5)


def _distances_from(mg, point):
    """Graph distances from the grid node nearest to ``point``."""
    return mg.distances_from_nodes(mg.grid.flat_index(point)[0])


def test_stencil_offsets_counts():
    assert stencil_offsets(1, 2).tolist() == [[1]]
    offs2 = stencil_offsets(2, 2)
    assert len(offs2) == 8  # 16 neighbours counting both signs
    assert len(stencil_offsets(2, 1)) == 4  # 8 neighbours
    norms = np.abs(offs2).max(axis=1)
    assert norms.max() == 2
    for v in offs2:
        assert np.gcd.reduce(np.abs(v)) == 1


def test_delta_distance_zero_separation():
    assert delta_distance(CLASSICAL, [1.0, 5.0], [-2.0, 5.0]) == 0.0
    assert delta_distance(CLASSICAL, [0.0, 0.0], [0.0, 0.0]) == 0.0


def test_delta_distance_branch_agreement_on_switching_surface():
    # |x2 - y2| = (|x1| + |y1|)^(rho, rhop): both branches must agree there
    rng = np.random.default_rng(7)
    for _ in range(1000):
        params = GrusinParameters(
            1, 1,
            delta1=rng.uniform(0, 0.9), delta1p=rng.uniform(0, 0.9),
            delta2=rng.uniform(0, 2.0), delta2p=rng.uniform(0, 2.0),
        )
        e = derive_exponents(params)
        s = float(np.exp(rng.uniform(-3, 3)))
        from grushinlab.coefficients import piecewise_power

        u = piecewise_power(s, e.rho, e.rhop)
        small = u / piecewise_power(s, params.delta2, params.delta2p)
        large = piecewise_power(u, 1 - e.gamma, 1 - e.gammap)
        assert small == pytest.approx(large, rel=1e-12)


def test_delta_distance_examples():
    # rho = 2, gamma = 1/2 at the switching surface: both branches give 1
    assert delta_distance(CLASSICAL, [0.5, 0.0], [0.5, 1.0]) == pytest.approx(1.0)
    # large branch: Delta = |y2|^(1/2) = 2
    assert delta_distance(CLASSICAL, [0.0, 0.0], [0.0, 4.0]) == pytest.approx(2.0)


def test_closed_form_distance_basics():
    assert closed_form_distance(CLASSICAL, [0.3, 1.0], [0.3, 1.0]) == 0.0
    # all deltas zero: block l1 combination
    assert closed_form_distance(EUCLID_2D, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(7.0)
    # removable 0/0 at x1 = y1 = 0
    assert closed_form_distance(CLASSICAL, [0.0, 0.0], [0.0, 0.0]) == 0.0
    # n=1, m=0 worked example: |x-y| / sqrt(|x|+|y|)
    got = closed_form_distance(POWER_HALF, [0.25], [1.0])
    assert got == pytest.approx(0.75 / np.sqrt(1.25), rel=1e-12)


def test_closed_form_distance_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(200):
        params = GrusinParameters(
            2, 1,
            delta1=rng.uniform(0, 0.9), delta1p=rng.uniform(0, 0.9),
            delta2=rng.uniform(0, 2.0), delta2p=rng.uniform(0, 2.0),
        )
        x = rng.normal(size=3) * 3
        y = rng.normal(size=3) * 3
        assert closed_form_distance(params, x, y) == closed_form_distance(params, y, x)


def test_closed_forms_reject_a_point_of_the_wrong_dimension():
    # CLASSICAL lives on R^1 x R^1: every point has two coordinates
    for bad in ([1.5], [1.5, -2.0, 0.0], [[1.5, -2.0]]):
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            closed_form_distance(CLASSICAL, bad, [0.0, 0.0])
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            closed_form_distance(CLASSICAL, [0.0, 0.0], bad)
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            ball_volume_closed_form(CLASSICAL, bad, 0.5)


def test_numerical_distance_source_is_zero_and_euclidean_band():
    g = build_grid(EUCLID_2D, 2.0, 65)
    d = _distances_from(MetricGraph(g, CoefficientField(EUCLID_2D), 2), [0.0, 0.0])
    assert d[g.flat_index([0.0, 0.0])[0]] == 0.0
    assert np.isfinite(d).all()
    pts = g.coords()
    eu = np.linalg.norm(pts, axis=1)
    mask = eu > 0.25
    ratio = d[mask] / eu[mask]
    # order-2 stencil metrication stays below the 9% worst case
    assert ratio.min() >= 1.0 - 1e-9
    assert ratio.max() < 1.09


def test_numerical_distance_pure_power_quadrature_oracle():
    # d(0; x) for c = |s| matches the integral of s^{-1/2}: 2 sqrt(x)
    g = build_grid(POWER_HALF, 2.0, 513)
    d = _distances_from(MetricGraph(g, CoefficientField(POWER_HALF), 2), [0.0])
    for x in (0.25, 0.5, 1.0, 2.0):
        oracle, _ = quad(lambda s: s**-0.5, 0, x, points=[0.0])
        assert d[g.flat_index([x])[0]] == pytest.approx(oracle, rel=0.02)


def test_numerical_distance_snaps_source():
    g = build_grid(EUCLID_2D, 1.0, 11)
    flat, _ = g.flat_index([0.03, -0.07])
    assert g.coords([flat])[0].tolist() == [0.0, 0.0]
    d = MetricGraph(g, CoefficientField(EUCLID_2D), 1).distances_from_nodes(flat)
    assert d[flat] == 0.0


def test_distances_from_nodes_is_one_flat_array_and_needs_a_source():
    g = build_grid(EUCLID_2D, 1.0, 11)
    mg = MetricGraph(g, CoefficientField(EUCLID_2D), 2)
    one = mg.distances_from_nodes(60)
    assert one.shape == (g.n_nodes,)
    assert np.array_equal(mg.distances_from_nodes([60]), one)
    with pytest.raises(ValueError, match="at least one source node"):
        mg.distances_from_nodes([])


@pytest.mark.parametrize("nodes", [840, [0, 840, 1680]])
def test_distances_up_to_the_limit_are_exact(nodes):
    # past the limit +inf, up to it (a value equal to it included) the
    # unlimited distances bit for bit
    g = build_grid(CLASSICAL, (2.0, 2.0), (41, 41))
    mg = MetricGraph(g, CoefficientField(CLASSICAL), 2)
    full = mg.distances_from_nodes(nodes)
    limit = float(np.median(full))
    cut = mg.distances_from_nodes(nodes, limit=limit)
    near = full <= limit
    assert np.any(full == limit) and np.any(~near)
    assert cut[near].tobytes() == full[near].tobytes()
    assert np.all(np.isinf(cut[~near]))


def test_monotone_refinement_in_stencil_order():
    g = build_grid(CLASSICAL, (2.0, 2.0), (41, 41))
    cf = CoefficientField(CLASSICAL)
    d1, d2, d3 = (_distances_from(MetricGraph(g, cf, k), [0.0, 0.0]) for k in (1, 2, 3))
    assert np.all(d2 <= d1 + 1e-12)
    assert np.all(d3 <= d2 + 1e-12)


def test_equivalence_band_numerical_vs_closed_form():
    g = build_grid(CLASSICAL, (3.0, 3.0), (97, 97))
    mg = MetricGraph(g, CoefficientField(CLASSICAL), 2)
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(12):
        src = rng.uniform(-1.5, 1.5, size=2)
        flat, _ = g.flat_index(src)
        d = mg.distances_from_nodes(flat)
        for _ in range(9):
            tgt = rng.uniform(-1.5, 1.5, size=2)
            dn = d[g.flat_index(tgt)[0]]
            dc = closed_form_distance(CLASSICAL, g.coords([flat])[0], tgt)
            if dc > 0.05:
                ratios.append(dn / dc)
    ratios = np.asarray(ratios)
    band = max(ratios.max(), 1.0 / ratios.min())
    assert np.isfinite(band) and band < 6.0  # constants are fitted, not asserted


def test_triangle_inequality_along_edges():
    g = build_grid(CLASSICAL, (2.0, 2.0), (33, 33))
    mg = MetricGraph(g, CoefficientField(CLASSICAL), 2)
    d = _distances_from(mg, [0.5, -0.5])
    coo = mg.edge_matrix.tocoo()
    lhs = d[coo.row]
    rhs = d[coo.col] + coo.data
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    assert np.all(lhs[finite] <= rhs[finite] * (1 + 1e-12))
    assert np.all(d[coo.col][finite] <= d[coo.row][finite] + coo.data[finite] * (1 + 1e-12))


def _edge_oracle(grid, coeffs, order):
    """Edge matrix and dropped-edge count from one scalar quadrature per
    segment of the whole grid."""
    n = grid.params.n
    h = np.asarray(grid.spacings)
    pts = grid.coords()
    index = np.arange(grid.n_nodes).reshape(grid.counts)
    rows, cols, vals, dropped = [], [], [], 0
    for off in stencil_offsets(grid.dim, order):
        v = off * h
        w1, w2 = float(v[:n] @ v[:n]), float(v[n:] @ v[n:])
        sing = max(coeffs.singular_exponent(1) if w1 else 0.0,
                   coeffs.singular_exponent(2) if w2 else 0.0)

        def f(r):
            with np.errstate(divide="ignore"):
                return np.sqrt((w1 / coeffs.block(1, r) if w1 else 0.0)
                               + (w2 / coeffs.block(2, r) if w2 else 0.0))

        for start in np.ndindex(*grid.counts):
            end = np.asarray(start) + off
            if np.any(end < 0) or np.any(end >= grid.counts):
                continue
            i, j = index[start], index[tuple(end)]
            x1 = pts[i, :n]
            w = float(segment_integrals(w1, 2.0 * (x1 @ v[:n]), x1 @ x1, f, sing))
            if np.isfinite(w):
                rows.append(i)
                cols.append(j)
                vals.append(w)
            else:
                dropped += 1
    E = sp.coo_matrix((vals, (rows, cols)), shape=(grid.n_nodes,) * 2).tocsr()
    return E, dropped


@pytest.mark.parametrize("delta1", [0.0, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("n, m", [(1, 0), (1, 1), (1, 2), (2, 1)])
def test_edge_weights_match_per_segment_oracle(n, m, delta1):
    # the graph integrates once per x1 start; the oracle once per edge
    params = GrusinParameters(n, m, delta1, 0.5 * delta1, 1.0, 0.5)
    grid = build_grid(params, [1.0, 2.0, 1.5][: n + m], [5, 3, 3][: n + m])
    coeffs = CoefficientField(params)
    mg = MetricGraph(grid, coeffs, 2)
    E, dropped = _edge_oracle(grid, coeffs, 2)
    assert mg.dropped_edges == dropped
    got = mg.edge_matrix
    got.sort_indices()
    E.sort_indices()
    assert np.array_equal(got.indptr, E.indptr) and np.array_equal(got.indices, E.indices)
    assert np.all(np.abs(got.data - E.data) <= 1e-12 * np.abs(E.data))


def test_dropped_edges_reported():
    # delta2 = 1: x2-direction edges touching the line x1 = 0 are divergent
    g = build_grid(CLASSICAL, (1.0, 1.0), (21, 21))
    mg = MetricGraph(g, CoefficientField(CLASSICAL), 1)
    assert mg.dropped_edges > 0


def test_offsets_longer_than_an_axis_add_no_edges():
    coeffs = CoefficientField(CLASSICAL)
    # on 3 x 3 nodes every offset that order 3 adds to order 2 has a component 3
    grid = build_grid(CLASSICAL, 1.0, 3)
    g2, g3 = MetricGraph(grid, coeffs, 2), MetricGraph(grid, coeffs, 3)
    assert g3.dropped_edges == g2.dropped_edges
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(g3.edge_matrix, part), getattr(g2.edge_matrix, part))
    # on 3 x 9 nodes the order-4 offsets that fit along x2 keep their edges
    grid = build_grid(CLASSICAL, (1.0, 4.0), (3, 9))
    mg = MetricGraph(grid, coeffs, 4)
    E, dropped = _edge_oracle(grid, coeffs, 4)
    assert mg.dropped_edges == dropped
    got = mg.edge_matrix
    got.sort_indices()
    E.sort_indices()
    assert np.array_equal(got.indptr, E.indptr) and np.array_equal(got.indices, E.indices)
    assert np.all(np.abs(got.data - E.data) <= 1e-12 * np.abs(E.data))


def test_ball_volume_counting_and_floor():
    g = build_grid(EUCLID_2D, 1.0, 41)
    d = _distances_from(MetricGraph(g, CoefficientField(EUCLID_2D), 2), [0.0, 0.0])
    w = g.node_weight
    assert ball_volume(d, 1e-9, w) == w  # single-cell floor
    # Euclidean disc area within the lattice-counting error
    assert ball_volume(d, 0.8, w) == pytest.approx(np.pi * 0.64, rel=0.05)
    vols = [ball_volume(d, r, w) for r in (1e-9, 0.3, 0.8)]
    assert vols[0] == w and vols[2] > w
    assert np.all(np.diff(vols) >= 0)


def test_ball_volume_closed_form_regimes():
    e = derive_exponents(CLASSICAL)
    # at the origin the crossover radius is 0: always the r^(D, Dp) regime
    assert ball_volume_closed_form(CLASSICAL, [0.0, 0.0], 0.5) == pytest.approx(0.5**e.D)
    assert ball_volume_closed_form(CLASSICAL, [0.0, 0.0], 2.0) == pytest.approx(2.0**e.Dp)
    # off the origin with r below |x1|^(1-delta1): r^(n+m) |x1|^beta
    assert ball_volume_closed_form(CLASSICAL, [2.0, 0.0], 0.5) == pytest.approx(0.5**2 * 2.0)
    # the two regimes agree at the crossover
    lo = ball_volume_closed_form(CLASSICAL, [0.5, 0.0], 0.5 - 1e-12)
    hi = ball_volume_closed_form(CLASSICAL, [0.5, 0.0], 0.5 + 1e-12)
    assert lo == pytest.approx(hi, rel=1e-9)


def test_volume_slopes_both_regimes():
    g = build_grid(CLASSICAL, (4.0, 10.0), (129, 1281))
    mg = MetricGraph(g, CoefficientField(CLASSICAL), 2)
    e = derive_exponents(CLASSICAL)
    origin = _distances_from(mg, [0.0, 0.0])
    radii = np.geomspace(0.5, 5.0, 9)
    vols = [ball_volume(origin, r, g.node_weight) for r in radii]
    slope = np.polyfit(np.log(radii), np.log(vols), 1)[0]
    assert slope == pytest.approx(e.D, rel=0.10)
    off = _distances_from(mg, [1.0, 0.0])
    radii2 = np.geomspace(0.1, 1.0, 9)
    vols2 = [ball_volume(off, r, g.node_weight) for r in radii2]
    slope2 = np.polyfit(np.log(radii2), np.log(vols2), 1)[0]
    assert slope2 == pytest.approx(2.0, rel=0.10)


def test_doubling_exponent_validation_and_euclidean():
    g = build_grid(GrusinParameters(1, 0), 30.0, 12001)
    d = _distances_from(MetricGraph(g, CoefficientField(GrusinParameters(1, 0)), 2), [0.0])
    radii = 0.02 * 2.0 ** np.arange(8)
    vols = [ball_volume(d, r, g.node_weight) for r in radii]
    assert doubling_exponent(radii, vols) == pytest.approx(1.0, abs=0.15)
    with pytest.raises(ValueError, match="at least 8"):
        doubling_exponent(radii[:4], vols[:4])
    geometric = np.geomspace(0.02, 1.0, 8)
    with pytest.raises(ValueError, match="factor-2"):
        doubling_exponent(geometric, [ball_volume(d, r, g.node_weight) for r in geometric])


def test_doubling_exponent_respects_dimension_bound():
    params = GrusinParameters(1, 0, 0.5, 0.0)
    g = build_grid(params, 24.0, 49153)
    d = _distances_from(MetricGraph(g, CoefficientField(params), 2), [0.0])
    radii = 0.1 * 2.0 ** np.arange(8)
    vols = [ball_volume(d, r, g.node_weight) for r in radii]
    e = derive_exponents(params)
    assert doubling_exponent(radii, vols) <= e.doubling_dim + 0.3
