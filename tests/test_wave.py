import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_fibers import CASES, SETTINGS, operators

from grushinlab import wave
from grushinlab.coefficients import CoefficientField, GrusinParameters
from grushinlab.config import ExperimentConfig
from grushinlab.discretization import BOUNDARY_MODES, CapacityError, assemble, build_grid
from grushinlab.experiments import _support_box_distance, acceptance_manifest, run_experiment
from grushinlab.geometry import MetricGraph
from grushinlab.multipliers import bump
from grushinlab.wave import (
    cosine_propagator,
    davies_gaffney_check,
    estimate_lambda_max,
    finite_speed_check,
)



def _bump(x, center, width):
    u = (x - center) / width
    out = np.zeros_like(x)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


# per (n, m): a small grid whose dense spectrum is cheap
LAMBDA_GRIDS = {(1, 0): (1.0, 201), (1, 1): ((1.0, 1.0), (31, 31)),
                (2, 1): ((1.0, 1.0, 1.0), (11, 11, 11))}


@pytest.mark.parametrize("delta1", [0.0, 0.25, 0.75])
@pytest.mark.parametrize("n, m, boundary", [
    (n, m, b) for n, m in LAMBDA_GRIDS for b in BOUNDARY_MODES
    if n == 1 or not b.startswith("half_line")])
def test_lambda_max_close_to_true(n, m, boundary, delta1):
    p = GrusinParameters(n, m, delta1, delta1, 1.0 if m else 0.0)
    extents, counts = LAMBDA_GRIDS[(n, m)]
    op = assemble(build_grid(p, extents, counts), CoefficientField(p), boundary)
    # the premise of the Gershgorin bound 2 max A_ii: off-diagonals <= 0 and
    # row sums >= 0, the latter up to the rounding of the summed diagonal
    diag = op.matrix.diagonal()
    assert (op.matrix - np.diag(diag)).max() <= 0.0
    assert np.all(np.asarray(op.matrix.sum(axis=1)).ravel() >= -1e-14 * diag)
    lam = np.linalg.eigvalsh(op.matrix.toarray())[-1]
    est = estimate_lambda_max(op)
    assert lam <= est <= 1.2 * lam


# t in [-5, 5]; every call also asks for t = 0
WAVE_TIMES = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3).map(lambda ts: [0.0] + ts)


@pytest.mark.parametrize("n, m, boundary", CASES)
@SETTINGS
@given(data=st.data(), times=WAVE_TIMES)
def test_propagator_matches_dense_oracle(n, m, boundary, data, times):
    op = data.draw(operators(n, m, boundary))
    lam, Phi = np.linalg.eigh(op.matrix.toarray())
    root = np.sqrt(np.clip(lam, 0.0, None))
    bound = estimate_lambda_max(op) or 1.0
    v = np.random.default_rng(op.n_nodes).normal(size=op.n_nodes)
    starts = [v]
    if m:  # symmetrized in x2, which the recurrence folds
        mirror = np.arange(op.n_nodes).reshape(op.fiber_shape)[:, ::-1].ravel()
        starts.append(v + v[mirror])
    for v in starts:
        c = Phi.T @ v
        state = cosine_propagator(op, v, times)
        assert np.array_equal(state.current[0], v) and not state.velocity[0].any()
        scale = np.abs(v).max()
        # energy identity: E(t) = w |u_t|^2 + w u.Au is w sum lam c^2 at every t
        energy = op.node_weight * float(lam @ c**2)
        energy_scale = op.node_weight * bound * float(v @ v)
        for t, u, vel, drift in zip(times, state.current, state.velocity, state.energy_drift):
            assert np.abs(u - Phi @ (np.cos(t * root) * c)).max() <= 1e-12 * scale
            assert np.abs(vel - Phi @ (-root * np.sin(t * root) * c)).max() <= 1e-12 * scale * np.sqrt(bound)
            e_t = op.node_weight * (vel @ vel + u @ (op.matrix @ u))
            assert abs(e_t - energy) <= 1e-12 * energy_scale
            assert drift <= 1e-12


def test_multi_time_call_equals_single_time_calls():
    p = GrusinParameters(1, 1, 0.25, 0.25, 1.0, 0.5)
    op = assemble(build_grid(p, (2.0, 2.0), (33, 33)), CoefficientField(p))
    v = np.random.default_rng(7).normal(size=op.n_nodes)
    times = [2.0, -0.3, 0.0, 1.1]
    both = cosine_propagator(op, v, times)
    for k, t in enumerate(times):
        one = cosine_propagator(op, v, [t])
        # the single call cuts its series earlier: the sums differ by rounding
        assert np.abs(one.current[0] - both.current[k]).max() <= 1e-13 * np.abs(v).max()
        assert np.abs(one.velocity[0] - both.velocity[k]).max() <= 1e-13 * np.abs(v).max()
        assert abs(one.energy_drift[0] - both.energy_drift[k]) <= 1e-13


def _leapfrog(op, v, t, steps):
    # independent oracle: u_{k+1} = 2 u_k - u_{k-1} - dt^2 A u_k, second order in dt
    dt = t / steps
    u_prev, u = v, v - 0.5 * dt * dt * (op.matrix @ v)
    for _ in range(steps - 1):
        u_prev, u = u, 2.0 * u - u_prev - dt * dt * (op.matrix @ u)
    return u


def test_leapfrog_converges_to_the_series_at_second_order():
    p = GrusinParameters(1, 0, 0.25, 0.25)
    op = assemble(build_grid(p, 2.0, 129), CoefficientField(p))
    v = _bump(op.coords()[:, 0], 0.3, 0.8)
    t = 1.5
    exact = cosine_propagator(op, v, [t]).current[0]
    cfl_steps = int(np.ceil(t * np.sqrt(estimate_lambda_max(op)) / 2.0))
    errors = [np.abs(_leapfrog(op, v, t, s) - exact).max() for s in (4 * cfl_steps, 8 * cfl_steps)]
    assert 3.5 <= errors[0] / errors[1] <= 4.5


@pytest.mark.parametrize("fault", ["half_lambda", "cut_at_1e-4"])
def test_a_wrong_interval_or_truncation_is_caught(monkeypatch, fault):
    # half the Gershgorin bound leaves the top of the spectrum outside
    # [-1, 1], where T_k grows geometrically; a cut at 1e-4 drops live terms
    if fault == "half_lambda":
        gershgorin = wave.estimate_lambda_max
        monkeypatch.setattr(wave, "estimate_lambda_max", lambda op: 0.5 * gershgorin(op))
    else:
        monkeypatch.setattr(wave, "COEFFICIENT_CUT", 1e-4)
    p = GrusinParameters(1, 0)
    op = assemble(build_grid(p, 4.0, 257), CoefficientField(p))
    x = op.coords()[:, 0]
    v = _bump(x, 0.0, 0.5)
    try:
        [(_, drift)] = finite_speed_check(op, np.abs(x), v, [2.0], 0.1)
    except CapacityError:
        return
    assert not drift <= 1e-6  # a NaN drift is caught too


def test_series_that_does_not_decay_raises_named_error(monkeypatch):
    monkeypatch.setattr(wave, "COEFFICIENT_CUT", 0.0)
    p = GrusinParameters(1, 0)
    op = assemble(build_grid(p, 1.0, 33), CoefficientField(p))
    with pytest.raises(CapacityError, match="K_max"):
        cosine_propagator(op, np.ones(op.n_nodes), [0.5])


def test_cosine_identity_and_even_time():
    p = GrusinParameters(1, 0)
    op = assemble(build_grid(p, 2.0, 257), CoefficientField(p))
    v = _bump(op.coords()[:, 0], 0.0, 0.5)
    state = cosine_propagator(op, v, [0.0, 0.7, -0.7])
    assert np.array_equal(state.current[0], v)
    assert np.array_equal(state.current[1], state.current[2])
    assert np.array_equal(state.velocity[1], -state.velocity[2])


def test_dalembert_splitting():
    # constant coefficients: the bump splits into two half bumps at speed 1
    p = GrusinParameters(1, 0)
    g = build_grid(p, 4.0, 2049)
    op = assemble(g, CoefficientField(p))
    x = g.axis(0)
    v = _bump(x, 0.0, 0.5)
    u = cosine_propagator(op, v, [1.0]).current[0]
    oracle = 0.5 * (_bump(x, 1.0, 0.5) + _bump(x, -1.0, 0.5))
    assert np.abs(u - oracle).max() < 1e-2


def test_energy_drift_small():
    p = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0)
    g = build_grid(p, (2.0, 2.0), (65, 65))
    op = assemble(g, CoefficientField(p))
    coords = op.coords()
    v = _bump(coords[:, 0], 0.8, 0.4) * _bump(coords[:, 1], 0.0, 0.4)
    [(_, drift)] = finite_speed_check(op, np.zeros(op.n_nodes), v, [5.0], 0.1)
    assert drift < 1e-6


def test_trig_doubling_identity():
    # 2 cos(t sqrt A)^2 - I = cos(2t sqrt A), exact up to rounding
    p = GrusinParameters(1, 0, 0.25, 0.25)
    g = build_grid(p, 4.0, 513)
    op = assemble(g, CoefficientField(p))
    rng = np.random.default_rng(4)
    v = _bump(g.axis(0), 0.5, 0.8) * (1.0 + 0.1 * rng.normal(size=op.n_nodes))
    t = 0.6
    once, rhs = cosine_propagator(op, v, [t, 2 * t]).current
    twice = cosine_propagator(op, once, [t]).current[0]
    lhs = 2.0 * twice - v  # cos a cos b = (cos(a+b) + cos(a-b)) / 2 with a = b = t
    assert np.abs(lhs - rhs).max() < 1e-10


def test_finite_speed_zero_time_and_leakage():
    p = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0)
    g = build_grid(p, (4.0, 4.0), (257, 257))
    cf = CoefficientField(p)
    op = assemble(g, cf)
    coords = op.coords()
    v = _bump(coords[:, 0], 1.0, 0.6) * _bump(coords[:, 1], 0.0, 0.6)
    support = np.nonzero(v > 0)[0]
    mg = MetricGraph(g, cf, 2)
    d = mg.distances_from_nodes(op.kept[support])[op.kept]
    zero, (leak, _) = finite_speed_check(op, d, v, [0.0, 1.0], 0.1)
    assert zero == (0.0, 0.0)
    assert leak < 1e-6


def test_finite_speed_is_even_in_time():
    p = GrusinParameters(1, 0)
    g = build_grid(p, 4.0, 257)
    op = assemble(g, CoefficientField(p))
    x = g.axis(0)
    v = _bump(x, 0.0, 0.5)
    support = np.nonzero(v > 0)[0]
    d = np.abs(x - x[support][None].T).min(axis=0)
    fwd, bwd = finite_speed_check(op, d, v, [1.0, -1.0], 0.1)
    assert fwd[0] < 1e-6
    assert bwd == fwd
    assert finite_speed_check(op, d, v, [-1.0], 0.1) == [fwd]


def test_energy_drift_does_not_follow_the_accumulator_layout(monkeypatch):
    # the same values in a Fortran-ordered accumulator: a reduction that
    # follows the memory layout would change the drift's bits
    p = GrusinParameters(1, 0)
    g = build_grid(p, 4.0, 257)
    op = assemble(g, CoefficientField(p))
    v = _bump(g.axis(0), 0.0, 0.5)
    times = [1.0, -1.0, 0.5]
    want = cosine_propagator(op, v, times).energy_drift
    ordered = wave._chebyshev_sum
    monkeypatch.setattr(wave, "_chebyshev_sum", lambda *a: np.asfortranarray(ordered(*a)))
    got = cosine_propagator(op, v, times)
    assert got.current.flags.f_contiguous or got.velocity.flags.f_contiguous
    assert got.energy_drift.tobytes() == want.tobytes()


@pytest.mark.parametrize("counts", [(257, 257), (513, 513)])
def test_support_box_distance_is_nearest_support_node(counts):
    # the c10_speed_constant grids and bump
    p = GrusinParameters(1, 1)
    g = build_grid(p, (8.0, 8.0), counts)
    op = assemble(g, CoefficientField(p))
    pts = op.coords()
    v = bump(g, [1.0, 0.0], [0.6, 0.6]).ravel()[op.kept]
    support = np.nonzero(v > 0)[0]
    d = _support_box_distance(g, pts, support)
    # brute force over a subsample of every 7th node, plus the support
    # and its neighbourhood, where the clamp is most often partial
    rows = np.union1d(np.arange(0, op.n_nodes, 7),
                      np.nonzero(np.abs(pts - [1.0, 0.0]).max(axis=1) < 1.0)[0])
    brute = np.array([np.linalg.norm(pts[r] - pts[support], axis=1).min() for r in rows])
    assert np.array_equal(d[rows], brute)
    assert np.all(d[support] == 0.0)


def test_support_box_distance_rejects_a_support_that_is_not_a_box():
    p = GrusinParameters(1, 1)
    g = build_grid(p, (2.0, 2.0), (17, 17))
    pts = assemble(g, CoefficientField(p)).coords()
    disc = np.nonzero(np.linalg.norm(pts, axis=1) < 1.0)[0]
    with pytest.raises(ValueError, match="bounding box"):
        _support_box_distance(g, pts, disc)


def test_finite_speed_leakage_decreases_under_refinement():
    p = GrusinParameters(1, 0)
    cf = CoefficientField(p)
    leaks = []
    for count in (257, 513):
        g = build_grid(p, 4.0, count)
        op = assemble(g, cf)
        x = g.axis(0)
        v = _bump(x, 0.0, 0.5)
        support = np.nonzero(v > 0)[0]
        d = np.abs(x - x[support][None].T).min(axis=0)  # exact Euclidean oracle
        leaks.append(finite_speed_check(op, d, v, [1.0], 0.1)[0][0])
    assert leaks[1] <= leaks[0]
    assert leaks[1] < 1e-6


def test_finite_speed_holds_one_large_structure_at_a_time():
    # c10_speed_classical at one level of 129^2 nodes: the traced peak is the
    # metric graph with the transpose its undirected Dijkstra copies, or the
    # operator with 2x and the (2 times x state, velocity) accumulator, never
    # both, plus six node vectors (bump, distances, recurrence vectors)
    entry = next(e for e in acceptance_manifest() if e["name"] == "c10_speed_classical")
    cfg = ExperimentConfig.from_dict({**entry, "grid": {**entry["grid"], "counts": 129},
                                      "knobs": {**entry["knobs"], "refinements": 1}})
    run_experiment(cfg)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid, coeffs = cfg.grid(), CoefficientField(cfg.params)
    graph, A = MetricGraph(grid, coeffs, 2).edge_matrix, assemble(grid, coeffs).matrix
    nbytes = [M.data.nbytes + M.indices.nbytes + M.indptr.nbytes for M in (graph, A)]
    vector = 8 * A.shape[0]
    # measured: 3.5 MB against this bound of 4.0 MB; with the graph alive
    # beside the operator the run peaks at 4.7 MB
    assert peak <= max(2 * nbytes[0], 2 * nbytes[1] + 4 * vector) + 6 * vector


def test_davies_gaffney_margins():
    p = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0)
    g = build_grid(p, (4.0, 4.0), (65, 65))
    cf = CoefficientField(p)
    op = assemble(g, cf)
    coords = op.coords()
    rows_a = np.nonzero(np.abs(coords - [-2.0, 0.0]).max(axis=1) < 0.4)[0]
    rows_b = np.nonzero(np.abs(coords - [2.0, 0.0]).max(axis=1) < 0.4)[0]
    mg = MetricGraph(g, cf, 2)
    dist = mg.distances_from_nodes(op.kept[rows_a])[op.kept]
    dab = float(dist[rows_b].min())
    times = dab**2 / (4.0 * np.array([4.0, 9.0, 16.0]))
    margins = davies_gaffney_check(op, dab, rows_a, rows_b, times, epsilon=0.2)
    assert len(margins) == len(times) and max(margins) < 0.0
    # A = B is rejected
    with pytest.raises(ValueError, match="disjoint"):
        davies_gaffney_check(op, 0.0, rows_a, rows_a, [0.1], 0.2)


def test_davies_gaffney_trivial_bound_same_set_distance_zero():
    p = GrusinParameters(1, 0)
    g = build_grid(p, 2.0, 129)
    op = assemble(g, CoefficientField(p))
    x = op.coords()[:, 0]
    rows_a = np.nonzero((x > -1.0) & (x < -0.5))[0]
    rows_b = np.nonzero((x > 0.5) & (x < 1.0))[0]
    # with d = 0 the bound is |<1_A, S_t 1_B>| <= ||1_A|| ||1_B||, always true
    [margin] = davies_gaffney_check(op, 0.0, rows_a, rows_b, [0.3], 0.2)
    assert margin <= 0.0
