import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import dger
from scipy.special import ive, kve
from test_fibers import CASES

from grushinlab.coefficients import CoefficientField, GrusinParameters
from grushinlab.config import ConfigError, ExperimentConfig
from grushinlab.discretization import FiberSpectrum, assemble, build_grid
from grushinlab import discretization, evolution
from grushinlab.evolution import (
    CapacityError,
    apply_semigroup,
    fit_loglog_slope,
    gaussian_upper_check,
    heat_kernel,
    kernel_comparison,
    ondiagonal_decay,
    separation_check,
)
from grushinlab.experiments import (_admissible_times, _decay_candidates, acceptance_manifest,
                                   run_experiment)
from grushinlab.geometry import MetricGraph, ball_volume
from grushinlab.multipliers import bump
from grushinlab.wave import cosine_propagator

TOLERANCE = 1e-8  # the heat series' absolute error per diagonal entry


def _op_1d(params=GrusinParameters(1, 0), L=8.0, count=513, boundary="neumann_truncation"):
    g = build_grid(params, L, count)
    return assemble(g, CoefficientField(params), boundary)


def test_apply_t0_identity_and_negative_time():
    op = _op_1d(count=65)
    v = np.sin(op.coords()[:, 0])
    assert np.array_equal(apply_semigroup(op, v, 0.0), v)
    with pytest.raises(ValueError):
        apply_semigroup(op, v, -0.1)


def test_constant_vector_is_invariant():
    op = _op_1d(count=129)
    one = np.ones(op.n_nodes)
    for t in (0.01, 0.5, 3.0):
        out = apply_semigroup(op, one, t)
        assert np.abs(out - 1.0).max() < 1e-10


def test_free_space_gauss_kernel_oracle():
    # c = 1, t = 0.1, L = 8, h = 1/64: sup error below 1e-3 while the
    # boundary mass is negligible
    op = _op_1d(count=1025)
    t = 0.1
    ks = heat_kernel(op, op.node_index([0.0]), t)
    x = op.coords()[:, 0]
    oracle = (4 * np.pi * t) ** -0.5 * np.exp(-(x**2) / (4 * t))
    assert np.abs(ks.values - oracle).max() < 1e-3


def test_kernel_slice_invariants():
    params = GrusinParameters(1, 1, 0.25, 0.25, 0.5, 0.5)
    g = build_grid(params, (2.0, 2.0), (21, 21))
    op = assemble(g, CoefficientField(params))
    ks = heat_kernel(op, op.node_index([0.5, -0.3]), 0.2)
    assert ks.values.min() >= -1e-12
    assert ks.mass() == pytest.approx(1.0, abs=1e-10)
    # symmetry K_t(x; y) = K_t(y; x)
    other = heat_kernel(op, int(np.argmax(ks.values > ks.values.mean())), 0.2)
    assert ks.values[other.source_index] == pytest.approx(other.values[ks.source_index], abs=1e-10)


def test_semigroup_property_and_contractivity():
    op = _op_1d(GrusinParameters(1, 0, 0.5, 0.0), count=257)
    rng = np.random.default_rng(17)
    v = rng.normal(size=op.n_nodes)
    for t1, t2 in [(0.05, 0.2), (0.3, 0.7)]:
        once = apply_semigroup(op, v, t1 + t2)
        twice = apply_semigroup(op, apply_semigroup(op, v, t1), t2)
        assert np.abs(once - twice).max() < 1e-10
        assert np.linalg.norm(once) <= np.linalg.norm(v) + 1e-12


def test_submarkov_property():
    op = _op_1d(GrusinParameters(1, 0, 0.25, 0.25), count=257)
    x = op.coords()[:, 0]
    v = np.clip(1.0 - np.abs(x) / 2.0, 0.0, 1.0)
    for t in (0.1, 1.0):
        out = apply_semigroup(op, v, t)
        assert out.min() >= -1e-10
        assert out.max() <= 1.0 + 1e-10


def _mass_deviation(op, times, sources):
    """max over sources and times of |1 - sum_x w K_t(x; y)|."""
    return max(abs(1.0 - heat_kernel(op, op.node_index(src), t).mass())
               for src in sources for t in times)


def test_column_mass_is_conserved():
    params = GrusinParameters(1, 1, 0.25, 0.25, 1.0, 1.0)
    g = build_grid(params, (4.0, 4.0), (41, 41))
    op = assemble(g, CoefficientField(params))
    sources = [[0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]]
    times = [0.05, 0.2, 1.0]
    assert _mass_deviation(op, times, sources) <= 1e-10


def test_conservation_broken_by_dirichlet_origin():
    params = GrusinParameters(1, 0, 0.25, 0.25)
    g = build_grid(params, 4.0, 257)
    opd = assemble(g, CoefficientField(params), "dirichlet_origin")
    dev = _mass_deviation(opd, [1.0], [[0.5]])
    assert dev > 1e-3  # mass is killed at the origin for delta1 < 1/2


def test_capacity_guard(monkeypatch):
    op = _op_1d(count=513)
    v = np.ones(op.n_nodes)
    monkeypatch.setattr(discretization, "MAX_EXACT_DIMENSION", 100)
    with pytest.raises(CapacityError, match="stores 263169 floats > 100\\^2"):
        apply_semigroup(op, v, 0.1)


def test_too_short_heat_series_raises_capacity_error(monkeypatch):
    op = _op_1d(count=129)
    monkeypatch.setattr(evolution, "_heat_series_length", lambda z, tol: 5)
    with pytest.raises(CapacityError, match="heat series tail .* K_max = 5"):
        ondiagonal_decay(op, [0.5, 1.0], candidates=[op.node_index([0.0])], tolerance=TOLERANCE)


def test_ondiagonal_decay_euclidean_slope():
    op = _op_1d(count=1025, L=10.0)
    res = ondiagonal_decay(op, np.geomspace(0.02, 0.2, 6))
    assert fit_loglog_slope(res.times, res.sup_diag) == pytest.approx(-0.5, abs=0.05)


def test_admission_refuses_contaminated_times():
    _, refused = _admissible_times("knobs.stages[0].times", [0.01, 0.1, 10.0, 40.0], 4.0)
    assert 40.0 in refused and 10.0 in refused
    assert 0.01 not in refused


def test_admission_without_a_distance_admits_every_time_sorted():
    admitted, refused = _admissible_times("knobs.stages[0].times", [40.0, 0.01, 1.0], None)
    assert admitted.tolist() == [0.01, 1.0, 40.0] and refused == ()


def test_ondiagonal_decay_krylov_needs_candidates():
    op = _op_1d(count=513)
    with pytest.raises(ValueError, match="candidate"):
        ondiagonal_decay(op, [0.1, 0.2], tolerance=TOLERANCE)
    j = op.node_index([0.0])
    res = ondiagonal_decay(op, np.geomspace(0.05, 0.2, 4), candidates=[j], tolerance=TOLERANCE)
    assert fit_loglog_slope(res.times, res.sup_diag) == pytest.approx(-0.5, abs=0.05)


def test_positive_definiteness_on_boxes():
    # K_t(X;Y)^2 <= K_t(X;X) K_t(Y;Y) with the max over node boxes
    params = GrusinParameters(1, 1, 0.25, 0.25, 0.5, 0.5)
    g = build_grid(params, (2.0, 2.0), (21, 21))
    op = assemble(g, CoefficientField(params))
    lam, Phi = np.linalg.eigh(op.matrix.toarray())
    t = 0.3
    E = (Phi * np.exp(-t * lam)) @ Phi.T / op.node_weight
    coords = op.coords()
    rng = np.random.default_rng(2)
    for _ in range(20):
        cx = rng.uniform(-1.5, 1.5, size=2)
        cy = rng.uniform(-1.5, 1.5, size=2)
        X = np.nonzero(np.abs(coords - cx).max(axis=1) < 0.25)[0]
        Y = np.nonzero(np.abs(coords - cy).max(axis=1) < 0.25)[0]
        kxy = E[np.ix_(X, Y)].max()
        kxx = E[np.ix_(X, X)].max()
        kyy = E[np.ix_(Y, Y)].max()
        assert kxy**2 <= kxx * kyy * (1 + 1e-10)


def test_dirichlet_dominated_by_neumann():
    params = GrusinParameters(1, 0, 0.25, 0.25)
    g = build_grid(params, 4.0, 257)
    opn = assemble(g, CoefficientField(params))
    opd = assemble(g, CoefficientField(params), "dirichlet_origin")
    xs_n = opn.coords()[:, 0]
    common = np.nonzero(np.abs(xs_n) > 0)[0]
    for t in (0.05, 0.5, 2.0):
        kn = heat_kernel(opn, opn.node_index([1.0]), t)
        kd = heat_kernel(opd, opd.node_index([1.0]), t)
        assert np.all(kd.values <= kn.values[common] + 1e-10)


def _separation_levels(params, counts=(101, 201, 401)):
    """(gap, cross values) of each grid's separation check, source [1.0]."""
    cf = CoefficientField(params)
    out = []
    for count in counts:
        g = build_grid(params, 4.0, count)
        opd = assemble(g, cf, "dirichlet_origin")
        out.append(separation_check(assemble(g, cf), opd, 1.0, [opd.node_index([1.0])]))
    return out


def test_separation_strongly_degenerate():
    levels = _separation_levels(GrusinParameters(1, 0, 0.75, 0.75))
    gaps = [gap for gap, _ in levels]
    assert all(np.all(cross == 0.0) and cross.size for _, cross in levels)  # exactly zero
    assert max(gaps) <= 1e-12  # Dirichlet = Neumann here
    assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))


def test_separation_weakly_degenerate():
    levels = _separation_levels(GrusinParameters(1, 0, 0.25, 0.25))
    assert all(cross.min() > 0.0 for _, cross in levels)
    assert min(gap for gap, _ in levels) > 1e-3  # gap stays bounded away from zero


def test_separation_without_cross_nodes_raises_named_error():
    raw = {"experiment": "separation", "params": {"n": 1, "m": 0, "delta1": 0.25, "delta1p": 0.25},
           "grid": {"extents": 4.0, "counts": 41}, "method": {"kind": "exact_eigendecomposition"},
           "knobs": {"refinements": 1, "sources": [[1.0], [0.0]]}}
    # a source on x1 = 0 has no Dirichlet node
    with pytest.raises(ValueError, match="'dirichlet_origin' boundary removed"):
        run_experiment(ExperimentConfig.from_dict(raw))
    # without a source, no node lies across x1 = 0 from one
    raw["knobs"]["sources"] = []
    with pytest.raises(ConfigError, match=r"knobs\.sources: must not be empty"):
        run_experiment(ExperimentConfig.from_dict(raw))


def test_separation_with_mismatched_grids_raises_named_error():
    params = GrusinParameters(1, 0, 0.25, 0.25)
    cf = CoefficientField(params)
    neumann = assemble(build_grid(params, 4.0, 41), cf)
    dirichlet = assemble(build_grid(params, 4.0, 21), cf, "dirichlet_origin")
    with pytest.raises(ValueError, match="grid"):
        separation_check(neumann, dirichlet, 1.0, [dirichlet.node_index([1.0])])


def test_boundary_convention_at_half():
    params = GrusinParameters(1, 0, 0.5, 0.5)
    g = build_grid(params, 4.0, 101)
    op = assemble(g, CoefficientField(params))
    k = heat_kernel(op, op.node_index([1.0]), 1.0)
    xs = op.coords()[:, 0]
    assert np.abs(k.values[xs < 0]).max() == 0.0


def test_kernel_comparison_identical_coefficients_control():
    params = GrusinParameters(1, 0)
    g = build_grid(params, 4.0, 257)
    cf = CoefficientField(params)
    op1 = assemble(g, cf)
    op2 = assemble(g, CoefficientField(params, floor_radius=0.5))  # c == 1 anyway
    rows = np.nonzero(op1.coords()[:, 0] > 1.0)[0]
    rep = kernel_comparison(op1, op2, rows, rho=1.0, times=[0.05, 0.1])
    assert rep.sup_diff.max() < 1e-10


def test_kernel_comparison_decay_slope():
    params = GrusinParameters(1, 0, 0.5, 0.0)
    g = build_grid(params, 6.0, 769)
    cf = CoefficientField(params)
    frozen = CoefficientField(params, floor_radius=0.5)
    op_true = assemble(g, cf)
    op_frozen = assemble(g, frozen)
    coords = op_true.coords()[:, 0]
    rows = np.nonzero((coords >= 1.0) & (coords <= 2.0))[0]
    mg = MetricGraph(g, frozen, 2)
    u_nodes = np.nonzero(np.abs(g.coords()[:, 0]) <= 0.5)[0]
    rho = float(mg.distances_from_nodes(u_nodes)[op_true.kept][rows].min())
    times = np.geomspace(rho**2 / 64, rho**2 / 8, 6)
    rep = kernel_comparison(op_true, op_frozen, rows, rho, times)
    assert rep.slope_vs_exponent <= -0.8
    assert np.all(np.diff(rep.sup_diff) > 0)  # smaller t, smaller difference


def test_kernel_comparison_one_time_equals_its_slot_in_many():
    # each time's block is its own product of the factors, so a call at the
    # largest time alone gives the bits of that time in a call at all of them
    params = GrusinParameters(1, 0, 0.5, 0.0)
    g = build_grid(params, 6.0, 193)
    op_true = assemble(g, CoefficientField(params))
    op_frozen = assemble(g, CoefficientField(params, floor_radius=0.5))
    x = op_true.coords()[:, 0]
    rows = np.nonzero((x >= 1.0) & (x <= 2.0))[0]
    times = 1.0 / (4.0 * np.geomspace(16.0, 2.0, 8))
    every = kernel_comparison(op_true, op_frozen, rows, 1.0, times)
    last = kernel_comparison(op_true, op_frozen, rows, 1.0, times[-1:])
    assert last.sup_diff[0] == every.sup_diff[-1]
    assert last.reference[0] == every.reference[-1]


def test_compare_reads_one_time_on_refined_levels(monkeypatch):
    # level 0 reports the whole curve; the refined level gives only the
    # prefactor at the largest time, so it reads that time alone
    calls = []
    block = FiberSpectrum.block

    def spy(self, rows, times):
        calls.append((self.n1, len(times)))
        return block(self, rows, times)

    monkeypatch.setattr(FiberSpectrum, "block", spy)
    raw = next(e for e in acceptance_manifest() if e["name"] == "c11_compare")
    raw = dict(raw, grid={"extents": 6.0, "counts": 97}, knobs=dict(raw["knobs"], control=False))
    rep = run_experiment(ExperimentConfig.from_dict(raw))
    assert calls == [(97, 8), (97, 8), (193, 1), (193, 1)]  # frozen, then true, per level
    assert len(rep["csv"]["compare.csv"]["rows"]) == 8
    assert "prefactor_level1" in rep["fitted"]


def test_gaussian_upper_and_lower_constants_euclidean():
    op = _op_1d(count=513, L=8.0)
    g = op.grid
    mg = MetricGraph(g, op.coeffs, 2)
    sources = [op.node_index([0.0]), op.node_index([1.0])]
    dists = {j: mg.distances_from_nodes(op.kept[j]) for j in sources}
    times = [0.05, 0.2]
    rep = gaussian_upper_check(op, dists, times, epsilon=0.1)
    # on the diagonal K_t(x;x) |B(x, sqrt t)| = (4 pi t)^{-1/2} * 2 sqrt(t) = pi^{-1/2}
    assert rep.constant == pytest.approx(np.pi**-0.5, rel=0.1)
    assert rep.argmax is not None
    b = rep.lower
    assert b == pytest.approx(np.pi**-0.5, rel=0.1)
    assert b <= rep.constant * (1 + 1e-12)
    # the lower constant read off the upper check's columns is, bit for bit,
    # the one recomputed from fresh columns
    recomputed = min(
        float(heat_kernel(op, j, t).values[j]
              * ball_volume(d, float(np.sqrt(t)), op.node_weight))
        for j, d in dists.items() for t in times)
    assert b == recomputed


def test_far_field_kernel_below_gaussian_tail():
    # at d^2/(4t) = 25 the kernel sits far below 1e-9 times the volume prefactor
    op = _op_1d(GrusinParameters(1, 0, 0.5, 0.0), count=2049, L=8.0)
    mg = MetricGraph(op.grid, op.coeffs, 2)
    j = op.node_index([-2.0])
    d = mg.distances_from_nodes(op.kept[j])
    t = 0.02
    target = np.sqrt(4 * t * 25.0)
    dists = d[op.kept]
    i = int(np.argmin(np.abs(dists - target)))
    assert dists[i] ** 2 / (4 * t) == pytest.approx(25.0, rel=0.1)
    ks = heat_kernel(op, j, t)
    prefactor = 1.0 / np.sqrt(
        ball_volume(d, np.sqrt(t), op.node_weight)
        * ball_volume(mg.distances_from_nodes(op.kept[i]), np.sqrt(t), op.node_weight)
    )
    assert abs(ks.values[i]) < 1e-9 * prefactor


def test_fit_loglog_slope():
    x = np.geomspace(1, 10, 5)
    assert fit_loglog_slope(x, 3.0 * x**-1.5) == pytest.approx(-1.5)


@pytest.mark.parametrize("n, m", [(1, 2), (2, 1), (2, 0)])
def test_degeneracy_line_candidates_in_every_dimension(n, m):
    # the line runs along the first x2 axis through x1 = 0, plus one control
    # row at [h, 0, ...]; with m = 0 the set {x1 = 0} is the origin alone
    stage = {"label": "line", "extents": 4.0, "counts": 9, "times": [0.1, 0.2],
             "slope": -1.0, "tol": 10.0, "candidates": "degeneracy_line"}
    cfg = ExperimentConfig.from_dict({
        "experiment": "decay", "params": {"n": n, "m": m, "delta1": 0.25, "delta1p": 0.25},
        "method": {"kind": "exact_eigendecomposition"}, "knobs": {"stages": [stage]}})
    op = assemble(build_grid(cfg.params, 4.0, 9), CoefficientField(cfg.params))
    got = op.coords()[_decay_candidates(op, "degeneracy_line", "knobs.stages[0].candidates")]
    line = [[0.0] * n + [x2] + [0.0] * (m - 1) for x2 in (0.0, 1.0, -1.0, 2.0)] if m else [[0.0] * n]
    expected = line + [[1.0] + [0.0] * (n + m - 1)]
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, expected))
    assert run_experiment(cfg)["fitted"]["line_slope"] < 0.0


def test_degeneracy_line_points_that_share_a_node_are_a_config_error():
    # x2 spacing 2: the line's points (0, 1) and (0, -1) snap to the origin's node
    params = GrusinParameters(1, 1, delta2=1.0, delta2p=1.0)
    op = assemble(build_grid(params, 8.0, [257, 9]), CoefficientField(params))
    with pytest.raises(ConfigError, match=r"knobs.stages\[0\].candidates\[1\]: point \[0.0, 1.0\] "
                                          r"resolves to the node of knobs.stages\[0\].candidates\[0\]"):
        _decay_candidates(op, "degeneracy_line", "knobs.stages[0].candidates")


def _plain_terms(op, lam, v, count):
    """T_k(x) v, k < count, by the plain recurrence over every row, on
    (4/lam) A - 2I with its exact zeros pruned: the oracle of the ordered one."""
    old = (4.0 / lam) * op.matrix - 2.0 * sp.identity(op.n_nodes, format="csr")
    terms = [v, 0.5 * (old @ v)]
    while len(terms) < count:
        terms.append(old @ terms[-1] - terms[-2])
    return terms[:count]


def _plain_sum(terms, coef):
    """sum_k coef[:, k] T_k by one rank-1 dger update per term over every row."""
    acc = np.outer(coef[:, 0], terms[0])
    for t_k, c in zip(terms[1:], coef.T[1:]):
        dger(1.0, t_k, c, a=acc.T, overwrite_a=True)
    return acc


def _same_bits(a, b):
    """a and b bit for bit, with +0 and -0 counted as one (x + 0.0 maps -0 to
    +0 and keeps every other float): the sign of a zero shows in no norm."""
    return (a + 0.0).tobytes() == (b + 0.0).tobytes()


def _mirror(op):
    """The x2 reflection of the operator rows: a * n2 + i2 -> a * n2 + n2 - 1 - i2."""
    return np.arange(op.n_nodes).reshape(op.fiber_shape)[:, ::-1].ravel()


def _folded_terms(op, lam, v, count):
    """The plain recurrence with each term's mirror rows (x2 index past the
    mid-line) overwritten by their representatives' values: the oracle of a
    mirror-symmetric start, which the folded recurrence computes once per
    mirror pair."""
    old = (4.0 / lam) * op.matrix - 2.0 * sp.identity(op.n_nodes, format="csr")
    mirror = _mirror(op)
    n2 = op.fiber_shape[1]
    past = np.arange(op.n_nodes) % n2 > (n2 - 1) // 2

    def fold(t):
        t[past] = t[mirror[past]]
        return t
    terms = [fold(v.copy()), fold(0.5 * (old @ v))]
    while len(terms) < count:
        terms.append(fold(old @ terms[-1] - terms[-2]))
    return terms[:count]


def _symmetric(op, a):
    """Whether every row of a equals its x2 reflection exactly."""
    return np.array_equal(a, a[..., _mirror(op)])


def _ordered_terms(op, lam, v, count):
    """The ordered recurrence's terms for v, in row order."""
    pos, _, terms = evolution._chebyshev_terms(op, lam, v, count)
    return [t_k[pos] for t_k in terms]


def _unit(op, row):
    e = np.zeros(op.n_nodes)
    e[row] = 1.0
    return e


# (params, boundary, what the case must contain)
TWO_X_CASES = {
    # rows with (4/lam) A_ii == 2 exactly: the subtracted form prunes those entries
    "neumann": (GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0), "neumann_truncation",
                lambda A, old: old.nnz < A.nnz),
    # the x1 = 0 column of 129 nodes eliminated
    "dirichlet": (GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0), "dirichlet_origin",
                  lambda A, old: A.shape[0] == 128 * 129),
    # rows whose every face is dead, with a stored 0.0 diagonal
    "isolated": (GrusinParameters(1, 1, 0.75, 0.75, 1.0, 1.0), "neumann_truncation",
                 lambda A, old: bool(np.any(np.diff(A.indptr) == 1))),
}


@pytest.mark.parametrize("case", TWO_X_CASES)
def test_two_x_equals_the_subtracted_form_bit_for_bit(case):
    params, boundary, holds = TWO_X_CASES[case]
    op = assemble(build_grid(params, 8.0, 129), CoefficientField(params), boundary)
    A = op.matrix
    arrays = [a.copy() for a in (A.data, A.indices, A.indptr)]
    lam = evolution.estimate_lambda_max(op)
    old = (4.0 / lam) * A - 2.0 * sp.identity(op.n_nodes, format="csr")
    assert holds(A, old)
    v = np.random.default_rng(7).standard_normal(op.n_nodes)
    got = _ordered_terms(op, lam, v, 40)
    want = _plain_terms(op, lam, v, 40)
    assert len(got) == 40
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, (A.data, A.indices, A.indptr)))

    # a unit start off the mid-line with one term, so the traced peak is
    # that of ordering the rows and building the unfolded 2x, which happens
    # before the terms are iterated; the subtracted form peaks at about 2.4x
    # A's bytes
    e = _unit(op, 0)
    assert not _symmetric(op, e)
    evolution._chebyshev_terms(op, lam, e, 1)
    tracemalloc.start()
    try:
        evolution._chebyshev_terms(op, lam, e, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_two_x_needs_every_diagonal_stored():
    params, boundary, _ = TWO_X_CASES["isolated"]
    op = assemble(build_grid(params, 8.0, 33), CoefficientField(params), boundary)
    pruned = op.matrix.copy()
    pruned.eliminate_zeros()  # drops the isolated rows' 0.0 diagonals
    rows = np.arange(op.n_nodes, dtype=np.int32)
    with pytest.raises(ValueError, match="diagonal"):
        evolution._two_x(dataclasses.replace(op, matrix=pruned), 2.0, rows, rows)


def _ordering_grid(n, m, boundary, delta1):
    """A grid of 9 x1 nodes (7 x2 nodes per x2 axis) in every (n, m, boundary) case."""
    params = GrusinParameters(n, m, delta1, delta1, 1.0 if m else 0.0, 0.5 if m else 0.0)
    counts = (9,) * n + (7,) * m
    return assemble(build_grid(params, (2.0,) * (n + m), counts), CoefficientField(params),
                    boundary)


def _starts(op, rng):
    """Start vectors: a corner row on the boundary with an interior row, the
    last row alone, nothing at all; the zeros past each support hold -0."""
    x1 = op.coords()[:, 0]
    starts = []
    for rows in ([0, int(np.argmin(np.abs(x1 - 0.5)))], [op.n_nodes - 1], []):
        v = np.where(rng.random(op.n_nodes) < 0.5, -0.0, 0.0)
        v[rows] = rng.standard_normal(len(rows))
        starts.append(v)
    return starts


def _coefficients(rng, count):
    """Random coefficient rows with +0 and -0 entries, and one of zeros only
    (a velocity row at t = 0)."""
    coef = rng.standard_normal((3, count))
    coef[rng.random(coef.shape) < 0.2] = 0.0
    coef[rng.random(coef.shape) < 0.1] = -0.0
    coef[2] = -0.0 * coef[2]
    return coef


@pytest.mark.parametrize("delta1", [0.0, 0.75])  # 0.75: isolated rows and an unreachable half
@pytest.mark.parametrize("n, m, boundary", CASES)
def test_ordered_recurrence_equals_the_plain_one_bit_for_bit(n, m, boundary, delta1):
    op = _ordering_grid(n, m, boundary, delta1)
    lam = evolution.estimate_lambda_max(op)
    rng = np.random.default_rng(op.n_nodes)
    starts = _starts(op, rng)
    for count in (1, 2, 5, 40):
        coef = _coefficients(rng, count)
        for v in starts:  # the empty start is mirror-symmetric and folds
            want = (_folded_terms if _symmetric(op, v) else _plain_terms)(op, lam, v, count)
            got = _ordered_terms(op, lam, v, count)
            assert all(_same_bits(g, w) for g, w in zip(got, want))
            assert _same_bits(evolution._chebyshev_sum(op, lam, v, coef), _plain_sum(want, coef))


@pytest.mark.parametrize("delta1", [0.0, 0.75])
@pytest.mark.parametrize("n, m, boundary", [c for c in CASES if c[1] >= 1])
def test_assembled_operator_is_exactly_mirror_symmetric_in_x2(n, m, boundary, delta1):
    # the premise of folding a mirror-symmetric start: A reflected in x2,
    # rows and columns, is A byte for byte, and a node and its mirror share
    # their x1 coordinates and negate their x2 ones exactly
    op = _ordering_grid(n, m, boundary, delta1)
    mirror = _mirror(op)
    A = op.matrix.toarray()
    assert A[np.ix_(mirror, mirror)].tobytes() == A.tobytes()
    x = op.coords()
    assert x[mirror, :n].tobytes() == x[:, :n].tobytes()
    assert np.array_equal(x[mirror, n:], -x[:, n:])


def _hops(op, rows):
    """The hop distance of every row from ``rows`` over A's stored pattern,
    by breadth-first sweeps of the dense pattern (inf: never reached)."""
    pattern = op.matrix.toarray() != 0
    hops = np.full(op.n_nodes, np.inf)
    front = np.isin(np.arange(op.n_nodes), rows)
    k = 0
    while front.any():
        hops[front] = k
        front = pattern[front].any(axis=0) & np.isinf(hops)
        k += 1
    return hops


@pytest.mark.parametrize("delta1", [0.0, 0.75])
@pytest.mark.parametrize("n, m, boundary", CASES)
def test_support_order_sorts_the_places_by_hops_and_gives_mirrors_one_place(n, m, boundary,
                                                                            delta1):
    # starts on two corners of the first x1 node and two of the last: one
    # equals its x2 reflection and folds, the other has the same support but
    # one value off its mirror's and does not (with m = 0 every start is its
    # own reflection); with 3 terms the hops past 2 go last, and with as
    # many terms as rows none does but the rows never reached: those that
    # delta1 = 0.75 cuts off between the starts' two components, in row order
    op = _ordering_grid(n, m, boundary, delta1)
    n1, n2 = op.fiber_shape
    mirror = _mirror(op)
    rows = np.unique([0, mirror[0], op.n_nodes - 1, mirror[-1]])
    symmetric = np.zeros(op.n_nodes)
    symmetric[rows] = 1.0
    lopsided = symmetric.copy()
    lopsided[0] = 2.0
    assert _symmetric(op, symmetric) and _symmetric(op, lopsided) == (m == 0)
    if boundary == "neumann_truncation":
        assert np.isinf(_hops(op, rows)).any() == (delta1 == 0.75)
    for v, count in itertools.product((symmetric, lopsided), (3, op.n_nodes)):
        fold = _symmetric(op, v)
        order, pos, reach = evolution._support_order(op, v, count)
        half = (n2 + 1) // 2 if fold else n2
        kept = np.arange(op.n_nodes).reshape(n1, n2)[:, :half].ravel()
        hops = _hops(op, rows)
        hops[hops > count - 1] = np.inf
        assert np.array_equal(evolution._hops(op.matrix, v, count),
                              np.where(np.isinf(hops), count, hops))
        hops = hops[kept]
        assert pos.dtype == np.int32 and pos.shape == (op.n_nodes,)
        assert np.array_equal(pos[order], np.arange(kept.size))
        assert np.array_equal(order, kept[np.lexsort((kept, hops))])
        assert np.array_equal(reach, [np.count_nonzero(hops <= k) for k in range(count)])
        if fold:
            assert np.array_equal(pos[mirror], pos)


def test_ordered_sum_reads_no_stale_memory():
    # every buffer the recurrence reads past its reach must be zeroed: dirty
    # the freed blocks of each size it allocates, then repeat the call.  A
    # start at the centre is mirror-symmetric and folds; its twin one x2
    # node off the mid-line does not
    params = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 0.5)
    op = assemble(build_grid(params, 4.0, 33), CoefficientField(params))
    lam = evolution.estimate_lambda_max(op)
    rng = np.random.default_rng(3)
    coef = _coefficients(rng, 30)
    for row, oracle in ((op.n_nodes // 2, _folded_terms), (op.n_nodes // 2 + 1, _plain_terms)):
        v = np.zeros(op.n_nodes)
        v[row] = 1.0
        first = evolution._chebyshev_sum(op, lam, v, coef)
        for n in range(1, op.n_nodes + 1, 7):
            junk = [np.full(n, np.nan) for _ in range(8)]
            del junk
        second = evolution._chebyshev_sum(op, lam, v, coef)
        assert first.tobytes() == second.tobytes()
        assert _same_bits(first, _plain_sum(oracle(op, lam, v, 30), coef))
        assert _symmetric(op, first) == (oracle is _folded_terms)


def test_head_matvec_equals_the_sliced_product_bit_for_bit():
    op = _ordering_grid(1, 1, "neumann_truncation", 0.25)
    M = op.matrix
    x = np.random.default_rng(5).standard_normal(op.n_nodes)
    for n in (0, 1, op.n_nodes // 3, op.n_nodes):
        assert evolution._head_matvec(M, x, n).tobytes() == (M[:n] @ x).tobytes()


def test_head_matvec_refuses_what_it_cannot_read():
    # the kernel reads raw buffers: a head past the last row, an x of
    # another length, or an x that is not a vector is refused before it runs
    op = _ordering_grid(1, 1, "neumann_truncation", 0.25)
    M = op.matrix
    x = np.random.default_rng(5).standard_normal(op.n_nodes)
    block = np.stack([x, x, x], axis=1)
    for m, y, n in ((M, x, op.n_nodes + 1), (M, x, -1), (M, x[1:], 1), (M[:-1], x, op.n_nodes),
                    (M, block, 1)):
        with pytest.raises(ValueError, match="head of"):
            evolution._head_matvec(m, y, n)


@pytest.mark.parametrize("counts", [129, 257])
def test_finite_speed_terms_touch_the_rows_they_reach(monkeypatch, counts):
    # a count with no timing noise: the share of N x K row operations that
    # the terms compute.  c10's bumps at (1, 0) are mirror-symmetric, so
    # their terms run on one row per mirror pair: c10_speed_classical 0.331
    # at 129^2 and 0.317 at 257^2, c10_speed_constant 0.063 and 0.049; a
    # bump one x2 node off the mid-line touches every row it reaches: 0.655
    # and 0.630 for the classical one, 0.124 and 0.097 for the constant one
    reaches = []
    support_order = evolution._support_order

    def spy(*args):
        order, pos, reach = support_order(*args)
        reaches.append(reach)
        return order, pos, reach
    monkeypatch.setattr(evolution, "_support_order", spy)
    for name, share, twin in (("c10_speed_classical", 0.335, 0.66),
                              ("c10_speed_constant", 0.065, 0.125)):
        entry = next(e for e in acceptance_manifest() if e["name"] == name)
        cfg = ExperimentConfig.from_dict({**entry, "grid": {**entry["grid"], "counts": counts}})
        grid = cfg.grid()
        op = assemble(grid, CoefficientField(cfg.params))
        knobs = cfg.knobs
        center = np.asarray(knobs["bump_center"], dtype=float)
        for shift, bound in ((0.0, share), (grid.spacings[1], twin)):
            v = bump(grid, center + [0.0, shift], [knobs["bump_width"]] * grid.dim).ravel()
            assert _symmetric(op, v) == (shift == 0.0)
            reaches.clear()
            cosine_propagator(op, v, knobs["times"])
            [reach] = reaches
            assert reach.sum() / (op.n_nodes * reach.size) <= bound
    if counts == 129:  # a vector with full support touches every row of every term
        n1, n2 = op.fiber_shape
        for v, rows in ((np.ones(op.n_nodes), n1 * (n2 + 1) // 2),
                        (np.arange(1.0, op.n_nodes + 1.0), op.n_nodes)):
            reaches.clear()
            cosine_propagator(op, v, knobs["times"])
            assert reaches[0].sum() == rows * reaches[0].size


# the flush-to-zero tests read SSE's MXCSR, which only x86-64 has
x86_64 = pytest.mark.skipif(not evolution._FLUSHES, reason="flushes on x86-64 Linux only")
TINY = np.finfo(float).tiny  # 2^-1022, the smallest normal float


def _underflow_case():
    """A heat-type sum whose plain IEEE result holds subnormal entries: a
    unit start on the degeneracy line of c2 = |x1|^6, where the x2
    couplings are orders of magnitude below Lambda, as next to c10's line at
    513^2.  N = 2193 is small enough that BLAS runs each daxpy and dger on
    the calling thread, whose mode the flush sets."""
    params = GrusinParameters(1, 1, 0.0, 0.0, 3.0, 3.0)
    op = assemble(build_grid(params, (4.0, 16.0), (17, 129)), CoefficientField(params))
    v = np.zeros(op.n_nodes)
    v[op.node_index([0.0, 0.0])] = 1.0
    coef = np.vstack([np.ones(60), np.random.default_rng(0).standard_normal(60)])
    return op, evolution.estimate_lambda_max(op), v, coef


def _subnormals(a):
    return int(np.count_nonzero((a != 0.0) & (np.abs(a) < TINY)))


def _mxcsr_control():
    """MXCSR's control bits (rounding, masks, FTZ, DAZ), not its sticky flags."""
    env = evolution._FenvT()
    assert evolution._libm().fegetenv(env) == 0
    return env.mxcsr & 0xFFC0


@x86_64
def test_flushed_sum_has_no_subnormal_entry(monkeypatch):
    op, lam, v, coef = _underflow_case()
    flushed = evolution._chebyshev_sum(op, lam, v, coef)
    monkeypatch.setattr(evolution, "_FLUSHES", False)
    ieee = evolution._chebyshev_sum(op, lam, v, coef)
    assert _subnormals(ieee) > 0
    assert _subnormals(flushed) == 0
    # every entry at or above 2^-1022 is unchanged, each subnormal one is 0
    assert _same_bits(flushed, np.where(np.abs(ieee) < TINY, 0.0, ieee))


@x86_64
def test_flushed_ordered_sum_equals_the_plain_one_under_the_same_mode():
    op, lam, v, coef = _underflow_case()
    # the unit start on the degeneracy line folds; its twin one x2 node off
    # the mid-line does not
    twin = np.roll(v, 1)
    for start, oracle in ((v, _folded_terms), (twin, _plain_terms)):
        with evolution._flush_subnormals():
            want = _plain_sum(oracle(op, lam, start, coef.shape[1]), coef)
        assert _same_bits(evolution._chebyshev_sum(op, lam, start, coef), want)
    # the candidate diagonal: one series per candidate, read at its own row;
    # the candidate on the mid-line folds, the one off it does not
    rows = np.asarray([op.node_index([0.0, 0.0]), op.node_index([0.5, 2.0])])
    times = np.asarray([0.01, 0.02])
    coef = evolution._heat_coefficients(lam, times, TOLERANCE)
    want = np.empty((times.size, rows.size))
    for i, (row, oracle) in enumerate(zip(rows, (_folded_terms, _plain_terms))):
        e = _unit(op, row)
        assert _symmetric(op, e) == (oracle is _folded_terms)
        with evolution._flush_subnormals():
            moments = [t_k[row] for t_k in oracle(op, lam, e, coef.shape[1])]
        want[:, i] = coef @ np.array(moments)
    assert _same_bits(evolution._candidate_diagonal(op, rows, times, TOLERANCE), want)


@x86_64
def test_flush_restores_the_mode_after_a_return_and_after_an_exception(monkeypatch):
    op, lam, v, coef = _underflow_case()
    before = _mxcsr_control()
    assert before & evolution._FTZ_DAZ == 0
    with evolution._flush_subnormals():
        assert _mxcsr_control() == before | evolution._FTZ_DAZ
        assert np.float64(TINY) * 0.5 == 0.0
    evolution._chebyshev_sum(op, lam, v, coef)
    assert _mxcsr_control() == before
    assert np.float64(TINY) * 0.5 > 0.0

    def failing(*args, **kwargs):
        raise FloatingPointError("inside the loop")
    monkeypatch.setattr(evolution, "daxpy", failing)
    with pytest.raises(FloatingPointError):
        evolution._chebyshev_sum(op, lam, v, coef)
    assert _mxcsr_control() == before
    monkeypatch.setattr(evolution, "_head_matvec", failing)
    with pytest.raises(FloatingPointError):
        evolution._candidate_diagonal(op, [0, 1], np.asarray([0.01]), TOLERANCE)
    assert _mxcsr_control() == before
    assert np.float64(TINY) * 0.5 > 0.0


def test_flush_is_a_no_op_elsewhere(monkeypatch):
    # what any host other than x86-64 Linux runs: IEEE gradual underflow
    monkeypatch.setattr(evolution, "_FLUSHES", False)
    monkeypatch.setattr(evolution, "_libm", None)  # never loaded
    with evolution._flush_subnormals():
        assert np.float64(TINY) * 0.5 == TINY / 2.0 > 0.0
    op, lam, v, coef = _underflow_case()
    assert _subnormals(evolution._chebyshev_sum(op, lam, v, coef)) > 0


def _power_kernel(a, t, x, y):
    """Continuum heat kernel K_t(x, y) of d/dx |x|^a d/dx on the line, a < 2.

    With b = 2 - a, X = |x|^b is (b^2 / 2) times a squared Bessel process of
    index nu = 1/b - 1 run to s = b^2 t / 2, so on the half-line
    K_t(x, y) = (1/2s) (Y/X)^(nu/2) e^(-(X+Y)/2s) I_(+-|nu|)(sqrt(XY)/s) b y^(b-1)
    (Revuz & Yor, ch. XI): the reflecting kernel takes -|nu| for a < 1, the
    killed one +|nu|, and both take +|nu| for a >= 1, where 0 is never
    reached.  The line's kernel is (K_refl + sgn(xy) K_kill) / 2, so for
    a >= 1 the cross term is exactly 0; for a < 1 it is written through
    I_-nu - I_nu = (2/pi) sin(nu pi) K_nu, which cancels nothing.  The
    scaled ive = I e^-z and kve = K e^z fold e^+-z into the exponent,
    -(X+Y)/2s +- z = -(sqrt X -+ sqrt Y)^2 / 2s.
    """
    b = 2.0 - a
    nu = 1.0 / b - 1.0
    s = b * b * t / 2.0
    X, Y = abs(x) ** b, abs(y) ** b
    z = np.sqrt(X * Y) / s
    pref = (Y / X) ** (nu / 2.0) / (2.0 * s) * b * abs(y) ** (b - 1.0)
    if x * y > 0:
        bessel = 0.5 * (ive(-abs(nu), z) + ive(abs(nu), z)) if a < 1.0 else ive(abs(nu), z)
        return pref * np.exp(-(np.sqrt(X) - np.sqrt(Y)) ** 2 / (2.0 * s)) * bessel
    if a >= 1.0:
        return 0.0
    bessel = np.sin(abs(nu) * np.pi) / np.pi * kve(abs(nu), z)
    return pref * np.exp(-(np.sqrt(X) + np.sqrt(Y)) ** 2 / (2.0 * s)) * bessel


def test_power_kernel_at_a_zero_is_the_free_space_gaussian():
    # c14's grid and time; the helper's rounding is scipy's ive (about 4e-14)
    t = 0.1
    x = build_grid(GrusinParameters(1, 0), 8.0, 1025).coords()[:, 0]
    x = x[x != 0.0]
    for y in (0.5, -0.5, 1.0):
        gauss = (4 * np.pi * t) ** -0.5 * np.exp(-((x - y) ** 2) / (4 * t))
        helper = np.array([_power_kernel(0.0, t, xi, y) for xi in x])
        assert np.abs(helper / gauss - 1.0).max() <= 5e-14


@pytest.mark.parametrize("delta", [0.25, 0.75])
def test_power_coefficient_kernel_converges_to_the_continuum_dichotomy(delta):
    # c = |x|^(2 delta), c07's source x = 1 and points y = -0.5 (across
    # x1 = 0) and y = 0.5, t = 0.1, h = 0.02, 0.01, 0.005
    params = GrusinParameters(1, 0, delta, delta)
    t, a = 0.1, 2.0 * delta
    cross, same = [], []
    for count in (401, 801, 1601):
        op = assemble(build_grid(params, 4.0, count), CoefficientField(params))
        ks = heat_kernel(op, op.node_index([1.0]), t)
        cross.append(ks.values[op.node_index([-0.5])])
        same.append(ks.values[op.node_index([0.5])])
        if delta >= 0.5:
            # strong degeneracy: the discrete cross kernel is exactly zero
            assert np.all(ks.values[op.coords()[:, 0] < 0.0] == 0.0)

    def orders(values, exact):
        err = np.abs(np.asarray(values) / exact - 1.0)
        return err, np.log2(err[:-1] / err[1:])

    err, order = orders(same, _power_kernel(a, t, 1.0, 0.5))
    assert err[-1] < 5e-5 and np.all(order > 1.9)  # second order
    exact_cross = _power_kernel(a, t, 1.0, -0.5)
    if delta >= 0.5:
        assert exact_cross == 0.0 and cross == [0.0, 0.0, 0.0]
    else:
        assert exact_cross > 0.0
        err, order = orders(cross, exact_cross)
        assert err[-1] < 6e-3 and np.all(order > 1.9)


# the dichotomy as delta1 rises to 1/2 (delta1' = delta1): the finest level's
# bound on the cross kernel's relative error, measured 1.0e-5, 1.0e-3,
# 1.2e-2, 0.20 and 0.81 on 1,601 nodes (the error of the straddling face
# tends to 1 at the threshold, where the continuum's conductance vanishes)
_SWEEP_FINEST_ERROR = {0.25: 2e-5, 0.4: 2e-3, 0.45: 2e-2, 0.49: 0.3, 0.499: 0.9}


def test_cross_kernel_falls_to_exactly_zero_at_the_dichotomys_threshold():
    # c07's 1-D setup: Neumann box of extent 4, source x = 1, point y = -0.5
    # across x1 = 0, t = 1, h = 0.02, 0.01, 0.005
    t, x, y = 1.0, 1.0, -0.5
    deltas = sorted(_SWEEP_FINEST_ERROR) + [0.5, 0.75]
    exact, cross = [], []  # per delta: the continuum's cross kernel, the discrete per level
    for delta in deltas:
        params = GrusinParameters(1, 0, delta, delta)
        exact.append(_power_kernel(2.0 * delta, t, x, y))
        levels = []
        for count in (401, 801, 1601):
            op = assemble(build_grid(params, 4.0, count), CoefficientField(params))
            levels.append(heat_kernel(op, op.node_index([x]), t).values[op.node_index([y])])
        cross.append(levels)
    below = len(_SWEEP_FINEST_ERROR)
    finest = [levels[-1] for levels in cross]
    # strictly decreasing below 1/2, in the continuum and on the finest grid ...
    assert np.all(np.diff(exact[:below]) < 0) and np.all(np.diff(finest[:below]) < 0)
    assert finest[below - 1] > 0.0
    # ... and exactly 0 from 1/2 on, on every level
    assert exact[below:] == [0.0, 0.0] and cross[below:] == [[0.0] * 3] * 2
    for delta, want, levels in zip(deltas, exact, cross[:below]):
        err = np.abs(np.asarray(levels) / want - 1.0)
        assert err[-1] <= _SWEEP_FINEST_ERROR[delta], (delta, err)
        if delta >= 0.4:  # at 0.25 the error sits near 1e-5 and stops shrinking
            assert np.all(np.diff(err) < 0), (delta, err)
