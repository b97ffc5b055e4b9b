import tracemalloc
from functools import reduce

import numpy as np
import pytest

from scipy.linalg import eigh

from grushinlab import experiments, multipliers
from grushinlab.coefficients import CoefficientField, GrusinParameters, derive_exponents
from grushinlab.config import ExperimentConfig
from grushinlab.discretization import assemble, build_grid, form_value
from grushinlab.experiments import acceptance_manifest, run_experiment
from grushinlab.multipliers import (
    f1,
    f2,
    hardy_check,
    nash_check,
    operator_inequality_checks,
    random_bump_ensemble,
    vf_volume,
)
from grushinlab.quadrature import gauss_legendre_01

CLASSICAL = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0)
EUCLID_2D = GrusinParameters(1, 1)


def _symbol(spec, p):
    """F(p) = F1(|p1|^2) + F2(|p2|^2) for a frequency vector p."""
    p, n = np.asarray(p, dtype=float), spec.n
    return f1(spec, p[:n] @ p[:n]) + f2(spec, p[n:] @ p[n:])


def test_multiplier_value_examples():
    spec = CLASSICAL
    assert _symbol(spec, [0.0, 0.0]) == 0.0
    # alpha = alphap = 1/2 branch: F2 = |p2|, so F(0, 4) = 4
    assert _symbol(spec, [0.0, 4.0]) == pytest.approx(4.0)
    # all deltas zero: the Laplacian symbol |p|^2
    assert _symbol(EUCLID_2D, [3.0, 4.0]) == pytest.approx(25.0)


def test_multiplier_monotone_and_zero_at_zero():
    spec = GrusinParameters(1, 1, 0.5, 0.25, 1.5, 0.5)
    L = np.geomspace(1e-8, 1e8, 60)
    assert np.all(np.diff(f1(spec, L)) > 0)
    assert np.all(np.diff(f2(spec, L)) > 0)
    assert f1(spec, 0.0) == 0.0 and f2(spec, 0.0) == 0.0


def test_multiplier_branches():
    # local-dominant branch (delta1 >= delta1p): L^(1-delta1p) (1+L)^-(delta1-delta1p)
    spec = GrusinParameters(1, 0, 0.5, 0.25)
    assert _symbol(spec, [2.0]) == pytest.approx(4.0**0.75 * 5.0**-0.25)
    # global-dominant branch is the sum of two powers
    spec = GrusinParameters(1, 0, 0.25, 0.5)
    assert _symbol(spec, [2.0]) == pytest.approx(4.0**0.75 + 4.0**0.5)
    assert f1(spec, 4.0) == pytest.approx(4.0**0.75 + 4.0**0.5)


def test_vf_volume_euclidean_balls():
    # all deltas zero: the sublevel set is the Euclidean ball of radius r
    assert vf_volume(EUCLID_2D, 2.0) == pytest.approx(np.pi * 4.0, rel=1e-6)
    three = GrusinParameters(2, 1)
    assert vf_volume(three, 1.0) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-6)
    one = GrusinParameters(1, 0)
    assert vf_volume(one, 3.0) == pytest.approx(6.0, rel=1e-9)


def test_vf_volume_monotone_and_scale():
    spec = CLASSICAL
    rs = np.geomspace(0.01, 100.0, 25)
    vols = np.array([vf_volume(spec, r) for r in rs])
    assert np.all(np.diff(vols) > 0)
    # F = |p1|^2 + |p2| is homogeneous under p -> (s p1, s^2 p2), so V_F(r) is
    # r^D with D = 3 times the area of {p1^2 + |p2| < 1}, which is 8/3
    assert vf_volume(spec, 2.0) == pytest.approx(8.0 * vf_volume(spec, 1.0), rel=1e-6)
    assert vf_volume(spec, 1.0) == pytest.approx(8.0 / 3.0, rel=1e-6)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 0), (2, 1), (1, 2), (3, 0)])
def test_vf_volume_of_radii_equals_scalar_calls_bit_for_bit(n, m):
    from grushinlab.multipliers import _sublevel_radius, _unit_ball_volume

    spec = GrusinParameters(n, m, 0.5, 0.25, 1.5, 0.5)
    radii = np.geomspace(1e-4, 1e4, 33)
    scalar = [vf_volume(spec, float(r)) for r in radii]
    assert all(type(v) is float for v in scalar)
    vols = vf_volume(spec, radii)
    assert vols.shape == radii.shape
    assert vols.tobytes() == np.array(scalar).tobytes()
    assert vf_volume(spec, radii.reshape(1, 33)).tobytes() == vols.tobytes()
    if m == 0:
        # the block-1 ball in Python's float power, which numpy's vectorized
        # power can miss by an ulp (n = 3)
        q1 = [float(_sublevel_radius(lambda L: f1(spec, L), r * r)[0]) for r in radii]
        assert scalar == [_unit_ball_volume(n) * q**n for q in q1]
    with pytest.raises(ValueError, match="radius"):
        vf_volume(spec, np.array([1.0, 0.0]))


def test_vf_volume_block_product_sandwich():
    # the sum-sublevel measure sits between the product of block balls at
    # budget r^2/2 and the full product of block balls at budget r^2
    from grushinlab.multipliers import _sublevel_radius, _unit_ball_volume

    spec = CLASSICAL
    n, m = CLASSICAL.n, CLASSICAL.m
    for r in (0.1, 1.0, 10.0):
        def block_product(budget):
            q1 = float(_sublevel_radius(lambda L: f1(spec, L), budget)[0])
            q2 = float(_sublevel_radius(lambda L: f2(spec, L), budget)[0])
            return _unit_ball_volume(n) * q1**n * _unit_ball_volume(m) * q2**m

        v = vf_volume(spec, r)
        assert block_product(r * r / 2.0) <= v * (1 + 1e-9)
        assert v <= block_product(r * r) * (1 + 1e-9)


def test_vf_volume_two_scale_slopes():
    # small-r slope -> Dp, large-r slope -> D, both within 5%
    params = GrusinParameters(1, 1, 0.0, 0.0, 1.0, 0.0)  # D = 3, Dp = 2
    e = derive_exponents(params)
    spec = params
    for r0, expect in [(1e-3, e.Dp), (1e3, e.D)]:
        v0, v1 = vf_volume(spec, r0), vf_volume(spec, 1.3 * r0)
        slope = np.log(v1 / v0) / np.log(1.3)
        assert slope == pytest.approx(expect, rel=0.05)


def _sublevel_radius_loop(f, budget):
    """The bracket doubling and bisection with no early exit: every element
    is evaluated in every pass, up to 600 doublings, then 80 bisection steps."""
    budget = np.atleast_1d(np.asarray(budget, dtype=float))
    hi = np.ones_like(budget)
    pos = budget > 0.0
    for _ in range(600):
        grow = pos & (np.asarray(f(hi * hi), dtype=float) <= budget) & (hi < 1e150)
        if not grow.any():
            break
        hi[grow] *= 2.0
    lo = np.zeros_like(budget)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = np.asarray(f(mid * mid), dtype=float) <= budget
        lo[below] = mid[below]
        hi[~below] = mid[~below]
    out = 0.5 * (lo + hi)
    out[~pos] = 0.0
    return out


def test_vf_volume_equals_the_plain_loop_on_the_manifest_calls(monkeypatch):
    # c12_nash_full's display and slope radii, c12_nash_half_line's display radii
    calls = []
    monkeypatch.setattr(experiments, "vf_volume",
                        lambda params, r: calls.append((params, np.array(r))) or vf_volume(params, r))
    for raw in acceptance_manifest():
        if raw["name"] in ("c12_nash_full", "c12_nash_half_line"):
            run_experiment(ExperimentConfig.from_dict(raw))
    assert len(calls) == 3
    fast = [vf_volume(params, r).tobytes() for params, r in calls]
    monkeypatch.setattr(multipliers, "_sublevel_radius", _sublevel_radius_loop)
    assert [vf_volume(params, r).tobytes() for params, r in calls] == fast


@pytest.mark.parametrize("params", [CLASSICAL, GrusinParameters(1, 1, 0.0, 0.0, 1.0, 0.0),
                                    GrusinParameters(1, 1, 0.5, 0.25, 1.5, 0.5)])
def test_sublevel_radius_equals_the_plain_loop_bit_for_bit(params):
    from grushinlab.multipliers import _sublevel_radius

    edges = np.array([0.0, -0.0, -1.0, np.nan, 1e300, np.inf, 5e-324, 1e-300, 1.0, 1e10])
    # vf_volume's (radii, 256) block-2 budgets at c12's display radii
    radii = np.geomspace(0.3, 60.0, 30)
    s = _sublevel_radius_loop(lambda L: f1(params, L), radii**2)[:, None] * gauss_legendre_01(256)[0]
    block = (radii**2)[:, None] - f1(params, s * s)
    for f in (f1, f2):
        for budget in (edges, block, radii**2):
            fast = _sublevel_radius(lambda L: f(params, L), budget)
            assert fast.shape == np.atleast_1d(budget).shape
            assert fast.tobytes() == _sublevel_radius_loop(lambda L: f(params, L), budget).tobytes()


def test_parseval_identity_constant_coefficients():
    # c = 1: the discrete form h(phi) matches sum |p|^2 |phat|^2 within O(h^2)
    g = build_grid(EUCLID_2D, (2.0, 2.0), (65, 65))
    op = assemble(g, CoefficientField(EUCLID_2D))
    members = random_bump_ensemble(g, 12, seed=123)
    rep = nash_check(op, members, r_grid=np.geomspace(0.5, 40.0, 25))
    assert rep.parseval_gap < 1e-10
    assert np.all(np.abs(rep.ratios - 1.0) < 0.05)
    assert rep.worst_margin >= 0.0


def test_nash_classical_grusin_margin_and_stability():
    g = build_grid(CLASSICAL, (2.0, 2.0), (65, 65))
    op = assemble(g, CoefficientField(CLASSICAL))
    members = random_bump_ensemble(g, 40, seed=7)
    rep = nash_check(op, members, r_grid=np.geomspace(0.3, 60.0, 30))
    assert rep.fitted_constant > 0
    assert rep.worst_margin >= 0.0
    # fitted constant moves by < 25% when the ensemble doubles
    members2 = [np.concatenate(pair) for pair in zip(members, random_bump_ensemble(g, 40, seed=8))]
    rep2 = nash_check(op, members2, r_grid=np.geomspace(0.3, 60.0, 30))
    assert rep2.fitted_constant <= rep.fitted_constant + 1e-12
    assert rep2.fitted_constant >= rep.fitted_constant / 1.25


def test_nash_display_rows():
    g = build_grid(CLASSICAL, (2.0, 2.0), (65, 65))
    op = assemble(g, CoefficientField(CLASSICAL))
    members = random_bump_ensemble(g, 10, seed=7)
    r_grid = np.geomspace(0.3, 60.0, 30)
    rep = nash_check(op, members, r_grid=r_grid)
    r, lhs, rhs, margin = rep.display.T
    assert rep.display.shape == (len(r_grid), 4)
    assert np.array_equal(r, rep.r_grid)
    # lhs is ||phi||_2^2 of the min-ratio member, the same for every r
    worst = _member(members, int(np.argmin(rep.ratios))).ravel()
    assert np.all(lhs == lhs[0])
    assert lhs[0] == pytest.approx(g.node_weight * (worst @ worst), rel=1e-10)
    assert np.array_equal(margin, rhs - lhs)
    assert margin.min() >= rep.worst_margin


def _member(stacks, k):
    """Member k of an ensemble on the grid: the outer product of its rows."""
    return reduce(np.multiply.outer, [p[k] for p in stacks])


def _bump_loop(grid, centers, widths):
    """The product bump built axis by axis on the full grid, one profile
    multiplied in per axis: the oracle of ``bump``'s outer product."""
    centers = grid.as_point(centers)
    out = np.ones(grid.counts)
    for i in range(grid.dim):
        u = (grid.axis(i) - centers[i]) / widths[i]
        prof = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        prof[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        shape = [1] * grid.dim
        shape[i] = grid.counts[i]
        out = out * prof.reshape(shape)
    return out


def _ensemble_loop(grid, n_members, seed, positive_axis0=False):
    """Full-grid ensemble members drawn one scalar at a time: width, then
    center, axis by axis, member by member."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n_members):
        centers, widths = [], []
        for i, (wmin, wmax) in enumerate(multipliers._bump_widths(grid, positive_axis0)):
            inner = 0.75 * grid.extents[i]
            width = np.exp(rng.uniform(np.log(wmin), np.log(wmax)))
            if positive_axis0 and i == 0:
                center = rng.uniform(width * 1.05, inner - width)
            else:
                center = rng.uniform(-(inner - width), inner - width)
            centers.append(center)
            widths.append(width)
        members.append(_bump_loop(grid, centers, widths))
    return members


def _transform_pieces(grid):
    """The member map phi -> (||phi||_2^2, ||phi||_1, f(phi)) through the
    unitary-convention n-dimensional DFT of the full-grid member."""
    w, d, params = grid.node_weight, grid.dim, grid.params
    dp = 1.0
    Ls = []
    for i in range(d):
        freqs = 2.0 * np.pi * np.fft.fftfreq(grid.counts[i], d=grid.spacings[i])
        shape = [1] * d
        shape[i] = grid.counts[i]
        Ls.append((freqs**2).reshape(shape))
        dp *= 2.0 * np.pi / (grid.counts[i] * grid.spacings[i])
    fvals = f1(params, sum(Ls[: params.n]))
    if params.m > 0:
        fvals = fvals + f2(params, sum(Ls[params.n :]))
    measure = dp / (2.0 * np.pi) ** d

    def pieces(member):
        fhat2 = measure * np.abs(w * np.fft.fftn(member)) ** 2
        return float(np.sum(fhat2)), float(w * np.abs(member).sum()), float(np.sum(fvals * fhat2))
    return pieces


def _even_reflect_axis0(member):
    """phi(x) -> phi(|x|) along axis 0 for arrays on symmetric odd grids."""
    out = member.copy()
    half = (member.shape[0] - 1) // 2
    out[:half] = out[half:][1:][::-1]
    return out


def _full_grid_pieces(op, members):
    """(sum fhat2, ||phi||_1, f(phi), h(phi), ||phi||_2^2) of each full-grid
    member: the n-dimensional DFT, and the assembled matrix's quadratic form
    (``form_value``) on the kept nodes."""
    transform = _transform_pieces(op.grid)
    rows = []
    for member in members:
        kept = member.ravel()[op.kept]
        if op.boundary == "half_line_positive":
            spectral = [x / 2.0 for x in transform(_even_reflect_axis0(member))]
        else:
            spectral = list(transform(member))
        rows.append(spectral + [form_value(op, kept), op.grid.node_weight * (kept @ kept)])
    return np.array(rows).T


def _full_grid_nash(op, members, r_grid):
    """The Nash report from the full-grid pieces: (ratios, worst margin,
    display, parseval gap)."""
    l2, l1, f_form, h_form, direct = _full_grid_pieces(op, members)
    ratios = h_form / f_form
    a_fit = ratios.min()
    r = np.sort(np.asarray(r_grid, dtype=float))
    factor = 4.0 if op.boundary == "half_line_positive" else 1.0
    vols = vf_volume(op.grid.params, r)
    rhs = h_form[:, None] / (a_fit * r**2) + factor * (2.0 * np.pi) ** (-op.grid.dim) * vols * l1[:, None] ** 2
    k = int(np.argmin(ratios))
    display = np.column_stack([r, np.full_like(r, l2[k]), rhs[k], rhs[k] - l2[k]])
    return ratios, (rhs - l2[:, None]).min(), display, (np.abs(l2 - direct) / direct).max()


# (params, extents, counts, boundary): every block shape the pieces factor
ORACLE_CASES = [
    (GrusinParameters(1, 1, 0.5, 0.25, 1.5, 0.5), (2.0, 2.0), (41, 41), "neumann_truncation"),
    (GrusinParameters(1, 1, 0.25, 0.0, 1.0, 1.0), (2.0, 2.0), (41, 41), "dirichlet_origin"),
    (GrusinParameters(1, 0, 0.75, 0.75), 4.0, 129, "half_line_positive"),
    (GrusinParameters(2, 0, 0.5, 0.25), (2.0, 1.5), (37, 41), "neumann_truncation"),
    (GrusinParameters(1, 2, 0.25, 0.5, 1.0, 0.5), (2.0, 2.0, 1.5), (37, 41, 35),
     "neumann_truncation"),
]


def _oracle_case(params, extents, counts, boundary, members=7):
    g = build_grid(params, extents, counts)
    op = assemble(g, CoefficientField(params), boundary)
    half = boundary == "half_line_positive"
    return op, random_bump_ensemble(g, members, seed=5, positive_axis0=half), \
        _ensemble_loop(g, members, seed=5, positive_axis0=half)


@pytest.mark.parametrize("params, extents, counts, boundary", ORACLE_CASES)
def test_ensemble_members_equal_the_full_grid_bumps_bit_for_bit(params, extents, counts, boundary):
    op, stacks, full = _oracle_case(params, extents, counts, boundary)
    assert [p.shape for p in stacks] == [(7, c) for c in op.grid.counts]
    for k, member in enumerate(full):
        assert _member(stacks, k).tobytes() == member.tobytes()


@pytest.mark.parametrize("params, extents, counts, boundary", ORACLE_CASES)
def test_tensor_pieces_match_the_full_grid_oracle(params, extents, counts, boundary):
    op, stacks, full = _oracle_case(params, extents, counts, boundary)
    pieces = np.array(multipliers._member_pieces(op, stacks))
    ref = _full_grid_pieces(op, full)
    assert (np.abs(pieces - ref) <= 1e-13 * np.abs(ref)).all()
    r_grid = np.geomspace(0.3, 60.0, 9)[::-1]
    rep = nash_check(op, stacks, r_grid)
    ratios, worst, display, gap = _full_grid_nash(op, full, r_grid)
    assert np.abs(rep.ratios - ratios).max() <= 1e-13 * ratios.max()
    assert abs(rep.worst_margin - worst) <= 1e-13 * abs(worst)
    assert np.abs(rep.display - display).max() <= 1e-13 * np.abs(display).max()
    # the gap is itself relative (rounding residue, about 1e-15)
    assert abs(rep.parseval_gap - gap) <= 1e-13


def test_bump_is_the_outer_product_of_its_profiles_bit_for_bit():
    for params, extents, counts, centers, widths in [
            (CLASSICAL, (4.0, 4.0), (257, 257), [1.0, 0.0], [0.6, 0.6]),
            (GrusinParameters(1, 0), 3.0, 101, [0.5], [1]),
            (GrusinParameters(2, 1), (2.0, 1.0, 3.0), (41, 21, 61), [0.1, -0.2, 1.0], [0.5, 0.3, 2])]:
        g = build_grid(params, extents, counts)
        profiles = [multipliers._bump_profiles(g.axis(i), [centers[i]], [widths[i]])[0]
                    for i in range(g.dim)]
        b = multipliers.bump(g, centers, widths)
        assert b.shape == g.counts
        assert b.tobytes() == reduce(np.multiply.outer, profiles).tobytes()
        assert b.tobytes() == _bump_loop(g, centers, widths).tobytes()


@pytest.mark.parametrize("params, extents, counts, boundary", [
    (CLASSICAL, (2.0, 2.0), (41, 41), "neumann_truncation"),
    (GrusinParameters(1, 2, 0.25, 0.5, 1.0, 0.5), (2.0, 2.0, 1.5), (37, 41, 35),
     "neumann_truncation"),
    (GrusinParameters(1, 0, 0.75, 0.75), 4.0, 65, "half_line_positive")])
def test_nash_symbol_is_evaluated_once_per_call(monkeypatch, params, extents, counts, boundary):
    g = build_grid(params, extents, counts)
    op = assemble(g, CoefficientField(params), boundary)
    members = random_bump_ensemble(g, 6, seed=5, positive_axis0=boundary != "neumann_truncation")
    r_grid = np.geomspace(0.3, 60.0, 7)
    rep = nash_check(op, members, r_grid)
    # given V_F, nash_check solves none; f1 and f2 each run once, on the
    # block frequencies, whatever the ensemble's size
    vols = vf_volume(params, rep.r_grid)
    calls = []
    monkeypatch.setattr(multipliers, "vf_volume", lambda *args: calls.append("vf_volume"))
    monkeypatch.setattr(multipliers, "f1", lambda *args: calls.append("f1") or f1(*args))
    monkeypatch.setattr(multipliers, "f2", lambda *args: calls.append("f2") or f2(*args))
    again = nash_check(op, members, r_grid, vols)
    assert again.display.tobytes() == rep.display.tobytes()
    assert again.ratios.tobytes() == rep.ratios.tobytes()
    assert calls == ["f1"] + ["f2"] * (params.m > 0)


def test_both_nash_seeds_read_one_vf_solve(monkeypatch):
    # c12_nash_full solves V_F on its r_grid once, and once for its slopes
    from grushinlab import experiments

    shapes = []
    solve = multipliers.vf_volume
    for module in (multipliers, experiments):
        monkeypatch.setattr(module, "vf_volume",
                            lambda params, r: shapes.append(np.shape(r)) or solve(params, r))
    raw = next(raw for raw in acceptance_manifest() if raw["name"] == "c12_nash_full")
    assert run_experiment(ExperimentConfig.from_dict(raw))["passed"]
    assert shapes == [(30,), (2, 2)]


def test_nash_half_line_factor_four():
    # n = 1, delta in [1/2, 1): Neumann multiplier via even reflection
    params = GrusinParameters(1, 0, 0.75, 0.75)
    g = build_grid(params, 4.0, 513)
    op = assemble(g, CoefficientField(params), "half_line_positive")
    members = random_bump_ensemble(g, 30, seed=21, positive_axis0=True)
    rep = nash_check(op, members, r_grid=np.geomspace(0.2, 50.0, 30))
    assert rep.fitted_constant > 0
    assert rep.worst_margin >= 0.0


@pytest.mark.parametrize("bad, named", [(np.nan, "member 2 is not finite"),
                                        (np.inf, "member 2 is not finite"),
                                        (None, "degenerate ensemble member 2")])
def test_nash_rejects_a_member_that_is_not_finite_or_zero(bad, named):
    g = build_grid(CLASSICAL, (2.0, 2.0), (65, 65))
    op = assemble(g, CoefficientField(CLASSICAL))
    members = random_bump_ensemble(g, 4, seed=7)
    # member 2's x2 factor; a non-finite member 3 is found first either way
    if bad is None:
        members[1][2] = 0.0
    else:
        members[1][2, 60] = bad
        members[0][3, 5] = bad
    with pytest.raises(ValueError, match=named):
        nash_check(op, members, r_grid=[0.5, 5.0])


def test_bump_ensemble_respects_box_and_resolution():
    g = build_grid(EUCLID_2D, (2.0, 2.0), (65, 65))
    members = random_bump_ensemble(g, 5, seed=1)
    # every member vanishes on the box boundary: each of its factors at both ends
    for i, p in enumerate(members):
        assert p.shape == (5, g.counts[i])
        assert p[:, 0].max() == 0.0 and p[:, -1].max() == 0.0
        assert (p[:, 1:-1].max(axis=1) > 0.0).all()
    half = random_bump_ensemble(g, 5, seed=1, positive_axis0=True)[0]
    assert half[:, : (g.counts[0] + 1) // 2].max() == 0.0  # supports in x_0 > 0
    tiny = build_grid(EUCLID_2D, (1.0, 1.0), (5, 5))
    with pytest.raises(ValueError, match="resolution"):
        random_bump_ensemble(tiny, 1, seed=0)


def test_hardy_classical_constants():
    lam, a = hardy_check(3, 1.0, fraction=0.0, count=10)
    assert a == 0.25
    assert lam >= 0.0
    lam_half, _ = hardy_check(3, 1.0, fraction=0.5, count=12)
    assert lam_half >= -1e-8
    lam_over, _ = hardy_check(3, 1.0, fraction=4.0, count=12)
    assert lam_over < 0.0


def _dense_hardy(n, count, gamma=1.0):
    """The unfolded staggered Dirichlet L^gamma over [-1, 1]^n, dense (the
    Laplacian as a sum of np.kron terms, its power by eigh), and
    |x|^(-2 gamma) at its count^n nodes."""
    h = 2.0 / count
    axis = (np.arange(count) + 0.5) * h - 1.0
    lap1 = (2.0 * np.eye(count) - np.eye(count, k=1) - np.eye(count, k=-1)) / (h * h)
    L = sum(np.kron(np.kron(np.eye(count**i), lap1), np.eye(count ** (n - 1 - i)))
            for i in range(n))
    if gamma != 1.0:
        lam, Q = np.linalg.eigh(L)
        L = (Q * lam**gamma) @ Q.T
    r2 = sum(x**2 for x in np.meshgrid(*([axis] * n), indexing="ij")).ravel()
    return L, r2 ** (-gamma)


def _dense_hardy_lambda_min(n, count, fraction):
    """Reference lambda_min of the unfolded classical operator."""
    L, V = _dense_hardy(n, count)
    return np.linalg.eigvalsh(L - fraction * (n - 2) ** 2 / 4.0 * np.diag(V))[0]


@pytest.mark.parametrize("n, gamma, count, fraction", [
    (3, 1.0, 8, 0.0), (3, 1.0, 8, 0.5), (3, 1.0, 8, 4.0), (2, 0.5, 10, 0.5)])
def test_hardy_lowest_eigenvector_is_even_in_every_coordinate(n, gamma, count, fraction):
    # the fold's premise, on the unfolded operator: Perron-Frobenius makes the
    # lowest eigenvector simple and positive, so each reflection fixes it
    L, V = _dense_hardy(n, count, gamma)
    a = hardy_check(n, gamma, fraction, count=count)[1]
    lam, Q = np.linalg.eigh(L - fraction * a * np.diag(V))
    v = Q[:, 0].reshape((count,) * n)
    assert lam[1] - lam[0] > 1e-3 * abs(lam[0]) + 1e-3
    assert np.all(np.abs(v) > 0.0) and abs(v.sum()) == np.abs(v).sum()
    for axis in range(n):
        assert np.abs(v - np.flip(v, axis)).max() <= 1e-10


@pytest.mark.parametrize("count", [8, 10])
def test_hardy_fractional_octant_matches_the_unfolded_dense_power(count):
    # the octant L^gamma and its coarse fit against the unfolded count^2 ones
    Lc, Vc = _dense_hardy(2, 8, 0.5)
    a_ref = eigh(Lc, np.diag(Vc), eigvals_only=True)[0]
    L, V = _dense_hardy(2, count, 0.5)
    for fraction in (0.5, 1.5):
        lam, a = hardy_check(2, 0.5, fraction, count=count)
        assert abs(a - a_ref) <= 1e-12 * a_ref
        ref = np.linalg.eigvalsh(L - fraction * a_ref * np.diag(V))[0]
        assert abs(lam - ref) <= 1e-10 * abs(ref)


def test_c13_hardy_solves_on_one_octant(monkeypatch):
    # the acceptance entry's n = 3, count = 14 operator has 7^3 rows, not 14^3
    shapes = []
    solve = multipliers.eigsh
    monkeypatch.setattr(multipliers, "eigsh", lambda M, **kw: shapes.append(M.shape) or solve(M, **kw))
    raw = next(raw for raw in acceptance_manifest() if raw["name"] == "c13_hardy")
    assert run_experiment(ExperimentConfig.from_dict(raw))["passed"]
    assert shapes == [(343, 343)] * 2


@pytest.mark.parametrize("n, count", [(3, 6), (3, 8), (3, 10), (4, 6)])
def test_hardy_sparse_lambda_min_matches_dense_oracle(n, count):
    for fraction in (0.0, 0.5, 4.0):
        lam, a = hardy_check(n, 1.0, fraction, count=count)
        assert a == (n - 2) ** 2 / 4.0
        ref = _dense_hardy_lambda_min(n, count, fraction)
        assert abs(lam - ref) <= 1e-10 * abs(ref)
        assert hardy_check(n, 1.0, fraction, count=count)[0] == lam


def test_hardy_refinement_over_and_under_the_constant():
    counts = (10, 14, 20)
    over = [hardy_check(3, 1.0, 4.0, count=c)[0] for c in counts]
    assert over[0] > over[1] > over[2]
    assert min(hardy_check(3, 1.0, 0.5, count=c)[0] for c in counts) >= -1e-8


def test_hardy_fractional_fitted_constant():
    lam, a = hardy_check(2, 0.5, fraction=0.5, count=20, coarse_count=10)
    assert a > 0.0
    assert lam >= -1e-8
    # reference values from a dense eigvalsh of the same operator
    assert lam == pytest.approx(1.0884483038681907, rel=1e-12)
    assert a == pytest.approx(0.5753938845186024, rel=1e-12)


def test_hardy_validation():
    with pytest.raises(ValueError, match="gamma"):
        hardy_check(2, 1.0, fraction=0.5)  # n = 2, gamma = 1 not allowed
    with pytest.raises(ValueError, match="fraction"):
        hardy_check(3, 1.0, fraction=-1.0)
    with pytest.raises(ValueError, match="even"):
        hardy_check(4, 1.0, fraction=0.5, count=5)  # node at the origin
    with pytest.raises(ValueError, match="even"):
        hardy_check(2, 0.5, fraction=0.5, coarse_count=9)
    with pytest.raises(ValueError, match="count must be at least 4"):
        hardy_check(3, 1.0, fraction=0.5, count=2)  # a one-node octant


def test_operator_inequalities_random_pairs():
    res = operator_inequality_checks(trials=200, dim=20, gamma=0.3, seed=11)
    assert res["resolvent_power"] >= -1e-10
    assert res["root_sum"][1] >= -1e-10
    assert res["root_sum"][2] >= -1e-10


def test_operator_inequalities_equal_pair_is_zero():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(8, 8))
    B = G @ G.T / 8
    from grushinlab.multipliers import _matrix_fun, _psd_eigh

    phi = lambda lam: lam * (1.0 + lam) ** (-0.3)
    diff = _matrix_fun(*_psd_eigh(B), phi) - _matrix_fun(*_psd_eigh(B), phi)
    assert np.abs(diff).max() == 0.0


def test_operator_inequalities_guards():
    with pytest.raises(ValueError, match="dim"):
        operator_inequality_checks(10, 100, 0.5)
    with pytest.raises(ValueError, match="gamma"):
        operator_inequality_checks(10, 10, 1.5)
    # each message is led by the argument's name (dim = 0 was an IndexError)
    for trials, dim, named in [(0, 10, "trials must be a positive integer"),
                               (2.5, 10, "trials must be a positive integer"),
                               (10, 0, "dim must be a positive integer"),
                               (10, 51, "dim must lie in 1..50")]:
        with pytest.raises(ValueError, match=named):
            operator_inequality_checks(trials, dim, 0.5)


def _trial_loop_reference(trials, dim, gamma, seed):
    """The operator-inequality checks one trial at a time, one eigh per matrix."""
    rng = np.random.default_rng(seed)

    def rand_psd():
        G = rng.normal(size=(dim, dim))
        return (G @ G.T) / dim

    def matrix_funs(M, *fns):
        lam, Q = np.linalg.eigh(M)
        lam = np.clip(lam, 0.0, None)
        return [(Q * fn(lam)) @ Q.T for fn in fns]

    worst_res, worst_root = np.inf, {1: np.inf, 2: np.inf}
    fns = [lambda lam: lam * (1.0 + lam) ** (-gamma)]
    fns += [lambda lam, k=k: lam ** (0.5**k) for k in (1, 2)]
    for _ in range(trials):
        B = rand_psd()
        A = B + rand_psd()
        f_A, f_B, f_AB = (matrix_funs(X, *fns) for X in (A, B, A + B))
        worst_res = min(worst_res, float(np.linalg.eigvalsh(f_A[0] - f_B[0])[0]))
        for k in (1, 2):
            rhs = 2.0 ** (-1.0 + 2.0 ** (-k)) * (f_A[k] + f_B[k])
            worst_root[k] = min(worst_root[k], float(np.linalg.eigvalsh(f_AB[k] - rhs)[0]))
    return {"resolvent_power": worst_res, "root_sum": worst_root}


# (trials, dim, gamma, seed): small stacks and their remainders, then
# c13_operator_inequalities' config at its seed and two more
TRIAL_CASES = [(trials, dim, gamma, 1000 * dim + trials)
               for dim, gamma in [(3, 0.0), (20, 0.3), (50, 1.0)]
               for trials in [1, 19, 20, 21, 45, 200]]
TRIAL_CASES += [(1000, 20, 0.3, seed) for seed in (1302, 1303, 1304)]


@pytest.mark.parametrize("trials, dim, gamma, seed", TRIAL_CASES)
def test_stacked_trials_equal_the_trial_loop_bit_for_bit(trials, dim, gamma, seed):
    # the loop runs eigvalsh on every trial, so it is also the unscreened oracle
    res = operator_inequality_checks(trials, dim, gamma, seed)
    # repr round-trips a float exactly, so equal reprs are equal bits and types
    assert repr(res) == repr(_trial_loop_reference(trials, dim, gamma, seed))


def test_the_cholesky_screen_skips_most_eigvalsh_calls(monkeypatch):
    # c13's config: 50 stacks of 20 trials, 3 inequalities each
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda D: calls.append(len(D)) or eigvalsh(D))
    operator_inequality_checks(1000, 20, 0.3, 1302)
    assert 3 <= len(calls) <= 20  # the first stack runs all three
    assert calls == [20] * len(calls)


def test_operator_inequalities_peak_memory_stays_small():
    operator_inequality_checks(21, 20, 0.3)  # warm up numpy's caches outside the trace
    tracemalloc.start()
    try:
        operator_inequality_checks(1000, 20, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # stacks of 20 peak at about 2.3 MB, one stack of all 1,000 trials at 74 MB
    assert peak <= 4e6
