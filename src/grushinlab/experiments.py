"""Experiment implementations behind the CLI and the acceptance suite.

Each runner, and each decay stage, is a generator split by one bare
``yield``: its plan checks every knob value, resolves every config point and
admits every time, so every ConfigError is raised before it; its solve fills
in the report's named checks (each with its bound and pass flag), fitted
constants and CSV tables.  Its keyword-only parameters are its knobs, each
set by some manifest entry (a value no entry changes is a constant beside
its code): ``config.bind`` checks ``cfg.knobs`` and every nested spec (decay
stage, radius grid, ``vf_params``) against a signature, so an unknown or
missing knob, or a value not of its default's kind (``config.typed``: a
bool, a number, a list), is a ConfigError naming it; so is a value outside
a knob's enumerated choices (``_one_of``), a value a computation's own
argument check refuses (``_check_knobs``, ``_resolve``), or a time, width
or radius that is not a positive number (``_positive``).  ``plan_experiment`` picks
the runner from ``_RUNNERS`` by experiment kind and ``knobs.task`` and plans
it in the report frame (config echo and hash, derived exponents, timings,
the pass flag).  The acceptance manifest at the bottom freezes every
tolerance of the verification suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict

import numpy as np

from .coefficients import CoefficientField, GrusinParameters, _as_int, _count, derive_exponents
from .config import ConfigError, ExperimentConfig, bind, build, typed
from .discretization import BOUNDARY_MODES, CapacityError, assemble, build_grid
from .evolution import (
    fit_loglog_slope,
    gaussian_upper_check,
    heat_kernel,
    kernel_comparison,
    ondiagonal_decay,
    separation_check,
)
from .geometry import (MetricGraph, _doubling_radii, ball_volume, ball_volume_closed_form,
                       closed_form_distance, doubling_exponent)
from .multipliers import (
    _bump_widths,
    _ensemble_args,
    _hardy_args,
    _inequality_args,
    bump,
    hardy_check,
    nash_check,
    operator_inequality_checks,
    random_bump_ensemble,
    vf_volume,
)
from .reporting import all_passed, check
from .wave import davies_gaffney_check, finite_speed_check

__all__ = ["plan_experiment", "run_experiment", "acceptance_manifest"]


def _one_of(path: str, value, choices):
    """A ConfigError naming ``path`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{path}: {value!r} is not one of {list(choices)}")


def _check_knobs(check, **knobs):
    """Run a computation's argument ``check`` first: its ValueError names
    ``knobs.<name>``.  Returns what the check returns."""
    try:
        return check(**knobs)
    except ValueError as err:
        raise ConfigError(f"knobs.{err}") from err


# Sources, targets, times or radii of one run: ten times the manifest's
# largest such count (11 targets).  c04 at 100 sources and 100 targets
# plans 20,000 closed-form distances and runs 200 Dijkstra passes, about 3 s.
MAX_POINTS = 100


def _counts(**counts) -> list[int]:
    """Each count as an int in 1..MAX_POINTS (work guard), in order; a
    ConfigError naming ``knobs.<name>`` for any other value."""
    return [_check_knobs(_count, name=name, value=value, ceiling=MAX_POINTS, guard="work")
            for name, value in counts.items()]


def _pair(path: str, value):
    """The two numbers of a pair knob ([lo, hi], a list of numbers by its
    default); any other length is a ConfigError naming ``path``."""
    if len(value) != 2:
        raise ConfigError(f"{path}: {value!r} must be a list of two numbers")
    return value


def _positive(path: str, value, like=None) -> None:
    """A ConfigError naming ``path`` (``path[i]`` in a list) for a value
    that is not positive: a width, a radius, or a time (a kernel needs
    t > 0).  A value that no default types is typed by ``like`` first
    (``config.typed``: 1.0 for a number, [1.0] for a list of them)."""
    typed(path, value, like)
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _positive(f"{path}[{i}]", v, like[0] if like else None)
    elif not value > 0:
        raise ConfigError(f"{path}: {value!r} must be positive")


def _resolve(path: str, lookup, *args):
    """``lookup(*args)``: ``op.node_index`` or ``grid.flat_index`` of a point,
    a computation's check of its arguments, or ``op.dense_eig``'s storage
    ceiling; a ValueError or CapacityError is a ConfigError naming ``path``."""
    try:
        return lookup(*args)
    except (ValueError, CapacityError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _resolve_all(path: str, lookup, points) -> list:
    """``_resolve`` for each point of the list at ``path``; a point that
    resolves to the node of an earlier one is a ConfigError naming it: the
    two would run as one."""
    nodes = []
    for i, point in enumerate(points):
        node = _resolve(f"{path}[{i}]", lookup, point)
        if node in nodes:
            raise ConfigError(f"{path}[{i}]: point {np.asarray(point, dtype=float).tolist()} "
                              f"resolves to the node of {path}[{nodes.index(node)}]")
        nodes.append(node)
    return nodes


def _geomspace(*, lo, hi, n):
    """A radius spec {"lo", "hi", "n"}: n radii spaced geometrically from lo
    to hi, both positive."""
    _positive("lo", lo, 1.0)
    _positive("hi", hi, 1.0)
    return np.geomspace(lo, hi, _as_int("n", n, positive=True))


# Nodes of a refinement ladder's finest level: four times c10's finest
# (513^2), so one more refinement of c10 (1025^2 nodes) fits.
MAX_LEVEL_NODES = 4 * 513**2


def _ladder(cfg: ExperimentConfig, refinements) -> int:
    """``knobs.refinements``, the number of ``_levels``, as an int; a
    ConfigError naming it unless it is a positive integer whose finest level
    holds at most MAX_LEVEL_NODES nodes (work guard), counted from the
    config alone.  An axis of c nodes has (c - 1) 2^(refinements - 1) + 1
    there; every axis has c >= 3, so past a shift of the ceiling's bit
    length one axis alone holds more than the ceiling, and the shift stops
    there."""
    count = _check_knobs(_as_int, name="refinements", value=refinements, positive=True)
    shift = min(count - 1, MAX_LEVEL_NODES.bit_length())
    counts = cfg.grid().counts
    if math.prod(((c - 1) << shift) + 1 for c in counts) > MAX_LEVEL_NODES:
        raise ConfigError(f"knobs.refinements: the finest of {refinements!r} levels of the grid "
                          f"of {counts} nodes holds more than {MAX_LEVEL_NODES} nodes (work guard)")
    return count


def _levels(cfg: ExperimentConfig, count: int):
    """The configured grid, then each of ``count - 1`` refinements, each
    halving every spacing of the one before."""
    counts = cfg.grid_counts
    for _ in range(count):
        yield cfg.grid(counts)
        counts = tuple(2 * (c - 1) + 1 for c in counts)


def _boundary_nodes(grid):
    edge = np.ones(grid.counts, dtype=bool)
    edge[(slice(1, -1),) * grid.dim] = False
    return np.flatnonzero(edge)


def _spread_sources(op, n, rng):
    coords = op.coords()
    lim = np.asarray(op.grid.extents) * 0.6  # the central 60% of each axis
    inside = np.nonzero(np.all(np.abs(coords) <= lim, axis=1))[0]
    pick = rng.choice(inside, size=min(n, inside.size), replace=False)
    return np.sort(pick)


def _report_skeleton(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "name": cfg.name,
        "config": cfg.to_dict(),
        "config_hash": cfg.hash(),
        "derived_exponents": asdict(derive_exponents(cfg.params)),
        "checks": [],
        "fitted": {},
        "csv": {},
        "timings": {},
    }


# ----------------------------------------------------------------- conservation


def run_conservation(cfg: ExperimentConfig, rep: dict, *, times=(0.01, 0.05, 0.25, 1.0, 4.0),
                     n_sources=10, bound=1e-8):
    (n_sources,) = _counts(n_sources=n_sources)
    _positive("knobs.times", times)
    op = assemble(cfg.grid(), CoefficientField(cfg.params))
    _resolve("grid", op.dense_eig)
    yield
    rng = np.random.default_rng(cfg.seed)
    sources = _spread_sources(op, n_sources, rng)
    rows = []
    worst = 0.0
    for j in sources:
        for t in times:
            ks = heat_kernel(op, int(j), float(t))
            dev = abs(1.0 - ks.mass())
            worst = max(worst, dev)
            rows.append([int(j), t, dev])
    rep["csv"]["conservation.csv"] = {"columns": ["source_row", "t", "mass_deviation"], "rows": rows}
    rep["checks"].append(check("mass_deviation_max", worst, "<=", bound))
    rep["fitted"]["mass_deviation_max"] = worst


# ------------------------------------------------------------------------ decay


def _decay_candidates(op, spec, path):
    """The rows a decay stage takes its sup over (None: all), one per point."""
    grid = op.grid
    if spec == "all":
        if not (op.matrix.diagonal() > 0.0).any():
            raise ConfigError(f"{path}: 'all' takes the sup over the rows that are not "
                              "isolated cells, and this operator has none")
        return None
    if spec == "degeneracy_line":
        # the sup lives on the degeneracy set {x1 = 0}, sampled along the first
        # x2 axis; one near-set control row ([h, 0, ...]) is kept, far
        # off-set rows would only drag the boundary guard down
        n, m = grid.params.n, grid.params.m
        spec = [[0.0] * grid.dim]
        if m:
            spec += [[0.0] * n + [x2] + [0.0] * (m - 1) for x2 in (1.0, -1.0, 2.0)
                     if abs(x2) <= 0.5 * grid.extents[n]]
        spec.append([grid.spacings[0]] + [0.0] * (grid.dim - 1))
    return sorted(_resolve_all(path, op.node_index, spec))


_GUARD_LEVEL = 1e-6


def _admissible_times(path: str, times, boundary_distance: float | None):
    """The sorted times whose boundary tail exp(-boundary_distance^2 / (4t))
    is at most _GUARD_LEVEL (all, without a distance) and the refused rest;
    a ConfigError naming ``path`` if fewer than two are admitted, or naming
    ``path[i]`` if times[i] repeats an earlier time (the fit would count it twice)."""
    for i, t in enumerate(times):
        if t in times[:i]:
            raise ConfigError(f"{path}[{i}]: {t!r} repeats {path}[{list(times).index(t)}]")
    times = np.asarray(sorted(float(t) for t in times))
    d2 = np.inf if boundary_distance is None else boundary_distance**2
    ok = np.exp(-d2 / (4.0 * times)) <= _GUARD_LEVEL
    if ok.sum() < 2:
        raise ConfigError(f"{path}: need at least two admissible times for a slope fit")
    return times[ok], tuple(times[~ok])


def run_decay(cfg: ExperimentConfig, rep: dict, *, stages):
    typed("knobs.stages", stages, [{}])  # required, so no default types it
    coeffs = CoefficientField(cfg.params)
    runs = [bind(_decay_stage, f"knobs.stages[{k}]", stage, cfg, rep, coeffs, k)()
            for k, stage in enumerate(stages)]
    for run in runs:  # every stage plans before any stage solves
        next(run)
    yield
    rep["csv"]["decay.csv"] = {"columns": ["t", "sup_diag", "slope", "stage"], "rows": []}
    while runs:  # each stage is dropped once solved, and its operator and spectrum with it
        next(runs.pop(0), None)


def _guard_distance(op, coeffs, rows, path: str) -> float:
    """The metric distance from ``rows`` (None: the origin's row) to the grid's boundary."""
    if rows is None:
        rows = [_resolve(path, op.node_index, [0.0] * op.grid.dim)]
    d = MetricGraph(op.grid, coeffs, 2).distances_from_nodes(op.kept[np.asarray(rows)])
    return float(d[_boundary_nodes(op.grid)].min())


def _decay_stage(cfg: ExperimentConfig, rep: dict, coeffs, k: int, *, extents, counts, times,
                 slope, tol, boundary="neumann_truncation", candidates="all", guard=False,
                 label=None):
    """Stage k of a decay run.  Its plan checks the stage, builds its operator,
    resolves its candidates and admits its times; its solve adds its decay.csv
    rows, or raises CapacityError for a sup at or below the series tolerance."""
    path = f"knobs.stages[{k}]"
    _one_of(f"{path}.boundary", boundary, BOUNDARY_MODES)
    _positive(f"{path}.times", times, [1.0])
    for name, value in (("slope", slope), ("tol", tol)):  # required, so no default types them
        typed(f"{path}.{name}", value, 1.0)
    if isinstance(candidates, str):
        _one_of(f"{path}.candidates", candidates, ("all", "degeneracy_line"))
    else:
        typed(f"{path}.candidates", candidates, [[0.0]])
    tolerance = cfg.method.tolerance if cfg.method.kind == "krylov_exponential" else None
    if candidates == "all" and tolerance is not None:
        raise ConfigError(f"{path}.candidates: 'all' reads the whole diagonal, which the "
                          "'krylov_exponential' method does not give; list the candidate points")
    label = f"stage{k}" if label is None else label
    if not isinstance(label, str):
        raise ConfigError(f"{path}.label: {label!r} is not a string")
    grid = build(build_grid, path, {"extents": extents, "counts": counts}, cfg.params)
    op = assemble(grid, coeffs, boundary)
    if tolerance is None:
        _resolve(path, op.dense_eig)
    cands = _decay_candidates(op, candidates, f"{path}.candidates")
    bdist = _guard_distance(op, coeffs, cands, f"{path}.guard") if guard else None
    times, refused = _admissible_times(f"{path}.times", times, bdist)
    yield
    res = ondiagonal_decay(op, times, candidates=cands, tolerance=tolerance)
    # a log-log fit needs every sup above its error: the series tolerance on
    # the diagonal entries, over the node weight, or zero for the spectrum
    floor = tolerance or 0.0
    for t, sup in zip(res.times, res.sup_diag):
        if sup <= floor / op.node_weight:
            raise CapacityError(f"{path}.times: at t = {t:g} the sup {sup:.3g} is at or below "
                                f"the tolerance {floor:g} over the node weight")
    fitted = fit_loglog_slope(res.times, res.sup_diag)
    rep["fitted"][f"{label}_slope"] = fitted
    if refused:
        rep["fitted"][f"{label}_refused_times"] = list(refused)
    rep["checks"].append(check(f"{label}_slope", fitted, "within", slope, tol))
    rep["csv"]["decay.csv"]["rows"] += [[t, s, fitted, label]
                                        for t, s in zip(res.times, res.sup_diag)]


# --------------------------------------------------------------------- distance


_BOX_FRACTION = 0.5  # points drawn within the grid's box snap to a node of every level


def run_distance(cfg: ExperimentConfig, rep: dict, *, n_sources=10, n_targets=10,
                 stencil_order=2, min_closed=0.1, stability_factor=1.25):
    n_sources, n_targets = _counts(n_sources=n_sources, n_targets=n_targets)
    stencil_order = _check_knobs(_as_int, name="stencil_order", value=stencil_order, positive=True)
    rng = np.random.default_rng(cfg.seed)
    lim = np.asarray(cfg.grid().extents) * _BOX_FRACTION
    sources = rng.uniform(-lim, lim, size=(n_sources, cfg.params.dim))
    targets = rng.uniform(-lim, lim, size=(n_targets, cfg.params.dim))
    levels = []  # per level: its grid, and per source its node, point and (target, d_closed) pairs
    for level, grid in enumerate(_levels(cfg, 2)):
        nodes = [grid.flat_index(src)[0] for src in sources]
        snaps = [(flat, p, [(tgt, dc) for tgt in targets
                            if (dc := closed_form_distance(cfg.params, p, tgt)) >= min_closed])
                 for flat, p in zip(nodes, grid.coords(nodes))]
        if not any(pairs for *_, pairs in snaps):
            raise ConfigError(f"knobs.min_closed: no pair of level {level} lies at a closed-form "
                              f"distance of at least {min_closed}")
        levels.append((grid, snaps))
    yield
    coeffs = CoefficientField(cfg.params)
    bands = []
    for level, (grid, snaps) in enumerate(levels):
        graph = MetricGraph(grid, coeffs, stencil_order)
        rows = []
        ratios = []
        for flat, snapped, pairs in snaps:
            d = graph.distances_from_nodes(flat)
            for tgt, dc in pairs:
                dn = float(d[grid.flat_index(tgt)[0]])
                ratios.append(dn / dc)
                rows.append(list(snapped) + list(tgt) + [dc, dn, dn / dc])
        ratios = np.asarray(ratios)
        band = float(max(ratios.max(), 1.0 / ratios.min()))
        bands.append(band)
        dim = cfg.params.dim
        cols = [f"x{i}" for i in range(dim)] + [f"y{i}" for i in range(dim)] + [
            "d_closed", "d_numeric", "ratio"]
        rep["csv"][f"distance_level{level}.csv"] = {"columns": cols, "rows": rows}
        rep["fitted"][f"band_level{level}"] = band
    rep["checks"].append(check("band_finite", bands[0], "<", float("inf")))
    rep["checks"].append(check("band_refinement_stability", bands[1], "band_ratio", bands[0],
                               stability_factor))


# ----------------------------------------------------------------------- volume


def _volumes(rep: dict, name: str, cfg: ExperimentConfig, graph, center, node: int, radii):
    """Ball volumes around ``node`` of ``graph``, the node of the point
    ``center``, counted over the sorted ``radii``, written to CSV ``name``
    beside the closed form at ``center``; returns (radii, volumes)."""
    grid = graph.grid
    radii = np.sort(np.asarray(radii, dtype=float))
    d = graph.distances_from_nodes(node, limit=radii[-1])
    vols = np.array([ball_volume(d, r, grid.node_weight) for r in radii])
    rep["csv"][name] = {
        "columns": ["r", "volume_numeric", "volume_closed"],
        "rows": [[r, v, ball_volume_closed_form(cfg.params, center, float(r))]
                 for r, v in zip(radii, vols)],
    }
    return radii, vols


def run_volume_slopes(cfg: ExperimentConfig, rep: dict, *,
                      origin_radii={"lo": 0.5, "hi": 5.0, "n": 9}, off_center=None,
                      off_radii={"lo": 0.1, "hi": 1.0, "n": 9}, tol=0.1):
    dim = cfg.params.dim
    grid = cfg.grid()
    origin = [0.0] * dim
    off_center = [1.0] + [0.0] * (dim - 1) if off_center is None else off_center
    runs = [("origin", origin, grid.flat_index(origin)[0],
             build(_geomspace, "knobs.origin_radii", origin_radii), derive_exponents(cfg.params).D),
            ("offcenter", off_center, _resolve("knobs.off_center", grid.flat_index, off_center)[0],
             build(_geomspace, "knobs.off_radii", off_radii), dim)]
    yield
    graph = MetricGraph(grid, CoefficientField(cfg.params), 2)
    for tag, center, node, radii, expected in runs:
        slope = fit_loglog_slope(*_volumes(rep, f"volume_{tag}.csv", cfg, graph, center, node,
                                           radii))
        rep["fitted"][f"{tag}_slope"] = slope
        rep["checks"].append(check(f"{tag}_slope", slope, "within", expected, tol * expected))


def run_doubling(cfg: ExperimentConfig, rep: dict, *, r0=0.1, n_radii=8, centers=([0.0], [5.0]),
                 slack=0.3):
    _positive("knobs.r0", r0)
    (n_radii,) = _counts(n_radii=n_radii)
    radii = _resolve("knobs.n_radii", _doubling_radii, r0 * 2.0 ** np.arange(n_radii))
    grid = cfg.grid()
    nodes = _resolve_all("knobs.centers", lambda center: grid.flat_index(center)[0], centers)
    yield
    graph = MetricGraph(grid, CoefficientField(cfg.params), 2)
    bound = derive_exponents(cfg.params).doubling_dim + slack
    worst = -np.inf
    for center, node in zip(centers, nodes):
        tag = "_".join(f"{c:g}" for c in center)
        expo = doubling_exponent(*_volumes(rep, f"volume_doubling_{tag}.csv", cfg, graph,
                                           center, node, radii))
        worst = max(worst, expo)
        rep["fitted"][f"doubling_exponent_{tag}"] = expo
    rep["checks"].append(check("doubling_exponent_max", worst, "<=", bound))


# ------------------------------------------------------------------ heat kernel


def run_heat_kernel(cfg: ExperimentConfig, rep: dict, *, source=None, t=0.1, mass_tol=1e-8,
                    symmetry_point=None, symmetry_tol=1e-8, oracle=None, oracle_tol=1e-3):
    _one_of("knobs.oracle", oracle, (None, "gauss_free_space"))
    if oracle and cfg.params != GrusinParameters():
        raise ConfigError(f"knobs.oracle: {oracle!r} is the kernel of the 1-D free space "
                          f"(n = 1, m = 0, every delta 0), not of params {asdict(cfg.params)}")
    _positive("knobs.t", t)
    source = [0.0] * cfg.params.dim if source is None else source
    op = assemble(cfg.grid(), CoefficientField(cfg.params))
    _resolve("grid", op.dense_eig)
    j = _resolve("knobs.source", op.node_index, source)
    j2 = None if symmetry_point is None else _resolve("knobs.symmetry_point", op.node_index,
                                                      symmetry_point)
    if j2 == j:
        raise ConfigError(f"knobs.symmetry_point: {list(symmetry_point)} resolves to the "
                          f"source's node, so the symmetry check would test nothing")
    yield
    ks = heat_kernel(op, j, t)
    coords = op.coords()
    rows = [list(coords[i]) + [ks.values[i]] for i in range(op.n_nodes)]
    cols = [f"x{i}" for i in range(cfg.params.dim)] + ["kernel"]
    rep["csv"]["heat_kernel.csv"] = {"columns": cols, "rows": rows}
    rep["checks"].append(check("mass_deviation", abs(1.0 - ks.mass()), "<=", mass_tol))
    rep["checks"].append(check("min_value", float(ks.values.min()), ">=", -1e-12))
    if symmetry_point is not None:
        ks2 = heat_kernel(op, j2, t)
        gap = abs(ks.values[ks2.source_index] - ks2.values[ks.source_index])
        rep["checks"].append(check("symmetry_gap", gap, "<=", symmetry_tol))
    if oracle == "gauss_free_space":
        x = coords[:, 0]
        exact = (4 * np.pi * t) ** -0.5 * np.exp(-(x**2) / (4 * t))
        err = float(np.abs(ks.values - exact).max())
        rep["fitted"]["free_space_sup_error"] = err
        rep["checks"].append(check("free_space_sup_error", err, "<", oracle_tol))


# ------------------------------------------------------------------- separation


def run_separation(cfg: ExperimentConfig, rep: dict, *, refinements=3, t=1.0,
                   sources=([1.0], [-0.5]), strong_gap_bound=1e-12, weak_gap_min=1e-3):
    refinements = _ladder(cfg, refinements)
    _positive("knobs.t", t)
    if cfg.params.n != 1:
        raise ConfigError(f"params.n: separation compares the half-spaces x1 >= 0 and x1 <= 0, "
                          f"so it needs n = 1, got {cfg.params.n}")
    coeffs = CoefficientField(cfg.params)
    ops = [assemble(grid, coeffs, "dirichlet_origin") for grid in _levels(cfg, refinements)]
    rows = [_resolve_all("knobs.sources", op_d.node_index, sources) for op_d in ops]
    _resolve("grid", assemble(ops[-1].grid, coeffs).dense_eig)  # the largest spectrum read
    yield
    counts, gaps, cross = [], [], []
    for k in range(refinements):
        op_d, ops[k] = ops[k], None  # the level before is dropped, with its spectrum
        gap, values = separation_check(assemble(op_d.grid, coeffs), op_d, t, rows[k])
        counts.append(op_d.grid.counts[0])
        gaps.append(gap)
        cross.append(values)
    cross = np.concatenate(cross)
    # the closed interval: delta1 >= 1/2 counts as strongly degenerate
    strong = cfg.params.delta1 >= 0.5
    extreme = float(np.abs(cross).max()) if strong else float(cross.min())
    rep["csv"]["separation.csv"] = {
        "columns": ["refinement", "count_axis0", "cross_kernel_extreme", "dirichlet_gap"],
        "rows": [[lvl, c, extreme, gap] for lvl, (c, gap) in enumerate(zip(counts, gaps))],
    }
    rep["fitted"]["cross_kernel_extreme"] = extreme
    rep["fitted"]["dirichlet_gaps"] = gaps
    if strong:
        rep["checks"].append(check("cross_kernel_exactly_zero", abs(extreme), "<=", 0.0))
        rep["checks"].append(check("dirichlet_gap_final", gaps[-1], "<=", strong_gap_bound))
        nonincreasing = all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
        rep["checks"].append(check("dirichlet_gap_nonincreasing", 1.0 if nonincreasing else 0.0, ">=", 1.0))
    else:
        rep["checks"].append(check("cross_kernel_min", extreme, ">", 0.0))
        rep["checks"].append(check("dirichlet_gap_lower", min(gaps), ">=", weak_gap_min))


# ---------------------------------------------------------------------- compare


def _region_rows(grid, lo, hi):
    """Nodes of ``grid`` (all kept) with lo <= |x1| <= hi."""
    x1 = np.linalg.norm(grid.coords()[:, : grid.params.n], axis=1)
    return np.nonzero((x1 >= lo) & (x1 <= hi))[0]


def run_compare(cfg: ExperimentConfig, rep: dict, *, r_cut=1.0, region=(1.0, 2.0),
                exponent_range=(2.0, 16.0), n_times=8, slope_bound=-0.8, stability_factor=2.0,
                control=True, control_tol=1e-10):
    (n_times,) = _counts(n_times=n_times)
    _positive("knobs.exponent_range", _pair("knobs.exponent_range", exponent_range))
    lo, hi = _pair("knobs.region", region)
    if lo <= r_cut / 2.0:
        raise ConfigError(f"knobs.region: {list(region)} must stay outside the modified set "
                          f"|x1| <= r_cut / 2 = {r_cut / 2.0}")
    if _region_rows(cfg.grid(), lo, hi).size == 0:
        raise ConfigError(f"knobs.region: no grid node has |x1| in {list(region)}")
    coeffs = CoefficientField(cfg.params)
    *_, finest = _levels(cfg, 2)
    _resolve("grid", assemble(finest, coeffs).dense_eig)  # the largest spectrum read
    _positive("knobs.r_cut", r_cut)
    if n_times < 2:
        raise ConfigError(f"knobs.n_times: {n_times} must be at least 2 for a slope fit")
    if not exponent_range[0] < exponent_range[1]:
        raise ConfigError(f"knobs.exponent_range: {list(exponent_range)} must be increasing")
    yield
    frozen = CoefficientField(cfg.params, floor_radius=r_cut / 2.0)

    prefactors = []
    for level, grid in enumerate(_levels(cfg, 2)):
        op_true = assemble(grid, coeffs)
        op_frozen = assemble(grid, frozen)
        region_rows = _region_rows(grid, lo, hi)
        graph = MetricGraph(grid, frozen, 2)
        d = graph.distances_from_nodes(_region_rows(grid, 0.0, r_cut / 2.0))
        rho = float(d[op_true.kept][region_rows].min())
        times = rho**2 / (4.0 * np.geomspace(exponent_range[1], exponent_range[0], n_times))
        # anchor the fitted prefactor at the largest time, where the
        # difference is well above discretization noise; only level 0
        # reports the whole curve, so finer levels read that time alone
        res = kernel_comparison(op_true, op_frozen, region_rows, rho,
                                times if level == 0 else times[-1:])
        pref = float(res.sup_diff[-1] / res.reference[-1])
        prefactors.append(pref)
        if level == 0:
            rep["csv"]["compare.csv"] = {
                "columns": ["t", "sup_diff", "reference", "rho"],
                "rows": [[t, s, r, rho] for t, s, r in zip(res.times, res.sup_diff, res.reference)],
            }
            rep["fitted"]["rho"] = rho
            rep["fitted"]["slope_vs_exponent"] = res.slope_vs_exponent
            rep["checks"].append(
                check("slope_vs_exponent", res.slope_vs_exponent, "<=", slope_bound))
        rep["fitted"][f"prefactor_level{level}"] = pref
    rep["checks"].append(
        check("prefactor_refinement_stability", prefactors[1], "band_ratio", prefactors[0],
              stability_factor)
    )
    if control:
        params0 = GrusinParameters(cfg.params.n, cfg.params.m)
        c0 = CoefficientField(params0)
        grid0 = build_grid(params0, cfg.grid_extents, cfg.grid_counts)
        op_a = assemble(grid0, c0)
        op_b = assemble(grid0, CoefficientField(params0, floor_radius=r_cut / 2.0))
        res0 = kernel_comparison(op_a, op_b, _region_rows(grid0, lo, hi), rho=1.0,
                                 times=[0.05, 0.2])
        rep["fitted"]["control_sup_diff"] = float(res0.sup_diff.max())
        rep["checks"].append(
            check("identical_coefficients_control", float(res0.sup_diff.max()), "<=", control_tol)
        )


# ------------------------------------------------------------------------- wave


_DRIFT_BOUND = 1e-6  # the relative energy drift a leapfrog run may show


def run_finite_speed(cfg: ExperimentConfig, rep: dict, *, bump_center=None, bump_width=0.6,
                     times=(1.0, 2.0), epsilon=0.1, metric="graph", refinements=2,
                     leak_bound=1e-6):
    _one_of("knobs.metric", metric, ("graph", "euclidean"))
    refinements = _ladder(cfg, refinements)
    _positive("knobs.bump_width", bump_width)
    center = [1.0] + [0.0] * (cfg.params.dim - 1) if bump_center is None else bump_center
    for grid in _levels(cfg, refinements):  # a plan holds no bump: each level makes its own
        if not _resolve("knobs.bump_center", bump, grid, center, [bump_width] * grid.dim).any():
            raise ConfigError(f"knobs.bump_center: the bump at {list(center)} has no support "
                              f"node on the grid of {grid.counts} nodes")
    _positive("knobs.epsilon", epsilon)
    yield
    coeffs = CoefficientField(cfg.params)
    leak_by_level = []
    rows = []
    for level, grid in enumerate(_levels(cfg, refinements)):
        # Stages, one large structure at a time: the bump and its support;
        # the distances, whose metric graph (with the transpose its undirected
        # Dijkstra copies) is dropped as soon as they are out; then the
        # operator, which propagates the wave.  The Neumann operator keeps
        # every grid node in grid order, so the grid's bump and distances are
        # the operator's.
        v = bump(grid, center, [bump_width] * grid.dim).ravel()
        support = np.nonzero(v > 0)[0]
        if metric == "euclidean":
            d = _support_box_distance(grid, grid.coords(), support)
        else:  # no cone of finite_speed_check reaches past its largest threshold
            cone = (1.0 + epsilon) * max(abs(t) for t in times) + 4.0 * max(grid.spacings)
            d = MetricGraph(grid, coeffs, 2).distances_from_nodes(support, limit=cone)
        results = finite_speed_check(assemble(grid, coeffs), d, v, times, epsilon)
        rows += [[t, leak, drift, level] for t, (leak, drift) in zip(times, results)]
        leak_by_level.append(max(leak for leak, _ in results))
    rep["csv"]["wave.csv"] = {
        "columns": ["t", "leaked_fraction", "energy_drift", "refinement"], "rows": rows}
    rep["fitted"]["leak_by_level"] = leak_by_level
    rep["checks"].append(check("leaked_fraction_finest", leak_by_level[-1], "<", leak_bound))
    if len(leak_by_level) > 1:
        rep["checks"].append(
            check("leak_decreases_under_refinement", leak_by_level[-1], "<=", leak_by_level[0]))
    drift_max = max(r[2] for r in rows)
    rep["checks"].append(check("energy_drift", drift_max, "<", _DRIFT_BOUND))


# (center_a, center_b, halfwidth): the disjoint sets |x1 - center| <= halfwidth
_DG_PAIRS = ((-2.5, 1.5, 0.5), (-1.5, 1.5, 0.4), (-3.0, 3.0, 0.5), (1.2, 3.2, 0.3))


def run_davies_gaffney(cfg: ExperimentConfig, rep: dict, *, epsilon=0.2,
                       exponent_targets=(4.0, 9.0, 16.0, 25.0, 36.0), min_samples=20):
    _positive("knobs.exponent_targets", exponent_targets)  # d^2 / (4t): a positive time
    coeffs = CoefficientField(cfg.params)
    grid = cfg.grid()
    op = assemble(grid, coeffs)
    _resolve("grid", op.dense_eig)
    coords = op.coords()[:, 0]
    sets = {(c, w): np.nonzero(np.abs(coords - c) <= w)[0] for *cs, w in _DG_PAIRS for c in cs}
    for (c, w), nodes in sets.items():
        if not nodes.size:
            raise ConfigError(f"grid: the Davies-Gaffney set |x1 - c| <= {w} at c = {c} holds "
                              f"no node of the grid of {grid.counts} nodes")
    _positive("knobs.epsilon", epsilon)
    yield
    graph = MetricGraph(grid, coeffs, 2)
    rows = []
    for center_a, center_b, w in _DG_PAIRS:
        rows_a, rows_b = sets[center_a, w], sets[center_b, w]
        dab = float(graph.distances_from_nodes(op.kept[rows_a])[op.kept[rows_b]].min())
        times = [dab**2 / (4.0 * s) for s in exponent_targets]
        margins = davies_gaffney_check(op, dab, rows_a, rows_b, times, epsilon)
        rows += [[center_a, center_b, dab, s, t, m]
                 for s, t, m in zip(exponent_targets, times, margins)]
    rep["csv"]["davies_gaffney.csv"] = {
        "columns": ["center_a", "center_b", "d_ab", "exponent_target", "t", "log_margin"],
        "rows": rows,
    }
    worst = max(row[-1] for row in rows)
    samples = len(rows)
    rep["fitted"]["worst_margin"] = worst
    rep["fitted"]["samples"] = samples
    rep["checks"].append(check("worst_margin", worst, "<", 0.0))
    rep["checks"].append(check("sample_count", samples, ">=", min_samples))


def _support_box_distance(grid, pts, support) -> np.ndarray:
    """Euclidean distance from each node in ``pts`` to the nearest node of
    ``support``, for a support that is every grid node of its bounding box
    [lo, hi] (a product-form bump's is): the nearest one is the clamp of x
    into the box, at distance ||max(lo - x, 0) + max(x - hi, 0)||."""
    sup = pts[support]
    lo, hi = sup.min(axis=0), sup.max(axis=0)
    box_nodes = np.prod([np.count_nonzero((ax >= a) & (ax <= b))
                         for ax, a, b in zip(grid.axes(), lo, hi)])
    if box_nodes != support.size:
        raise ValueError(
            f"the bump support has {support.size} nodes but its bounding box has "
            f"{box_nodes}, so the box distance is not the distance to the support")
    return np.linalg.norm(np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0), axis=1)


# --------------------------------------------------------- gaussian bound checks


_GAUSSIAN_SOURCES = ([0.0, 0.0], [0.0, 1.5], [0.0, -3.0], [1.0, 0.0], [2.0, 1.0], [-1.5, -1.0],
                     [0.5, 0.5], [3.0, 0.0])


def run_gaussian_bounds(cfg: ExperimentConfig, rep: dict, *, epsilon=0.1, times=(0.1, 0.2, 0.4),
                        stability_factor=2.0):
    _positive("knobs.times", times)
    coeffs = CoefficientField(cfg.params)
    levels = []  # per level: its operator and the rows of the sources
    for level, grid in enumerate(_levels(cfg, 2)):
        op = assemble(grid, coeffs)
        _resolve("grid", op.dense_eig)
        try:
            levels.append((op, sorted(_resolve_all("sources", op.node_index, _GAUSSIAN_SOURCES))))
        except ConfigError as err:
            raise ConfigError(f"grid: level {level} of {grid.counts} nodes cannot hold the "
                              f"Gaussian-bound {err}") from err
    _positive("knobs.epsilon", epsilon)
    yield
    uppers, lowers = [], []
    for level in range(2):
        (op, rows), levels[level] = levels[level], None  # the level before is dropped
        graph = MetricGraph(op.grid, coeffs, 2)
        dists = {j: graph.distances_from_nodes(op.kept[j]) for j in rows}
        upper = gaussian_upper_check(op, dists, times, epsilon)
        uppers.append(upper.constant)
        lowers.append(upper.lower)
        rep["fitted"][f"upper_constant_level{level}"] = upper.constant
        rep["fitted"][f"lower_constant_level{level}"] = upper.lower
        if level == 0:
            rep["fitted"]["upper_argmax"] = list(upper.argmax)
            rep["fitted"]["upper_samples"] = upper.samples
    rep["csv"]["gaussian_bounds.csv"] = {
        "columns": ["level", "upper_constant", "lower_constant"],
        "rows": [[k, a, b] for k, (a, b) in enumerate(zip(uppers, lowers))],
    }
    rep["checks"].append(check("upper_constant_finite", uppers[0], "<", float("inf")))
    rep["checks"].append(check("upper_stability", uppers[1], "band_ratio", uppers[0],
                               stability_factor))
    rep["checks"].append(check("lower_constant_positive", min(lowers), ">", 0.0))
    rep["checks"].append(check("lower_stability", lowers[1], "band_ratio", lowers[0],
                               stability_factor))
    rep["checks"].append(check("lower_below_upper", min(lowers), "<=", max(uppers)))


# ------------------------------------------------------------------------- nash


def run_nash(cfg: ExperimentConfig, rep: dict, *, half_line=False, ensemble=200,
             r_grid={"lo": 0.3, "hi": 60.0, "n": 30}, stability_factor=1.25, vf_slopes=True,
             vf_params={"n": 1, "m": 1, "delta2": 1.0}):
    ensemble = _check_knobs(_ensemble_args, ensemble=ensemble)
    radii = build(_geomspace, "knobs.r_grid", r_grid)
    if vf_slopes:
        vf = build(GrusinParameters, "knobs.vf_params", vf_params)
    grid = cfg.grid()
    _resolve("grid", _bump_widths, grid, half_line)
    yield
    coeffs = CoefficientField(cfg.params)
    op = assemble(grid, coeffs, "half_line_positive" if half_line else "neumann_truncation")
    vols = vf_volume(cfg.params, np.sort(radii))  # both seeds read one solve
    repA, repB = (
        nash_check(op, random_bump_ensemble(grid, ensemble, seed, positive_axis0=half_line), radii,
                   vols)
        for seed in (cfg.seed, cfg.seed + 1))
    rep["csv"]["nash_ratios.csv"] = {
        "columns": ["trial", "ratio"],
        "rows": [[k, r] for k, r in enumerate(repA.ratios)],
    }
    rep["csv"]["nash_margins.csv"] = {"columns": ["r", "lhs", "rhs", "margin"],
                                       "rows": repA.display.tolist()}
    rep["fitted"]["constant_seedA"] = repA.fitted_constant
    rep["fitted"]["constant_seedB"] = repB.fitted_constant
    rep["fitted"]["worst_margin"] = repA.worst_margin
    rep["fitted"]["parseval_gap"] = repA.parseval_gap
    rep["checks"].append(check("fitted_constant_positive", repA.fitted_constant, ">", 0.0))
    rep["checks"].append(check("fitted_constant_stability", repB.fitted_constant, "band_ratio",
                               repA.fitted_constant, stability_factor))
    rep["checks"].append(check("nash_margin", repA.worst_margin, ">=", 0.0))
    if vf_slopes:
        ve = derive_exponents(vf)
        r0 = np.array([1e-3, 1e3])
        v0, v1 = vf_volume(vf, np.stack([r0, 1.3 * r0])).tolist()
        for a, b, expect, label in zip(v0, v1, (ve.Dp, ve.D), ("vf_slope_small", "vf_slope_large")):
            slope = np.log(b / a) / np.log(1.3)
            rep["fitted"][label] = slope
            rep["checks"].append(check(label, slope, "within", expect, 0.05 * expect))


def run_hardy(cfg: ExperimentConfig, rep: dict, *, n=3, gamma=1.0, count=14, fraction_ok=0.5,
              fraction_fail=4.0):
    _check_knobs(_hardy_args, n=n, gamma=gamma, count=count, fraction_ok=fraction_ok,
                 fraction_fail=fraction_fail)
    yield
    lam_ok, a_used = hardy_check(n, gamma, fraction_ok, count=count)
    lam_fail, _ = hardy_check(n, gamma, fraction_fail, count=count)
    rep["fitted"]["hardy_constant"] = a_used
    rep["fitted"]["lambda_min_half"] = lam_ok
    rep["fitted"]["lambda_min_over"] = lam_fail
    rep["csv"]["hardy.csv"] = {
        "columns": ["fraction", "lambda_min"],
        "rows": [[fraction_ok, lam_ok], [fraction_fail, lam_fail]],
    }
    rep["checks"].append(check("half_constant_psd", lam_ok, ">=", -1e-8))
    rep["checks"].append(check("over_constant_fails", lam_fail, "<", 0.0))


def run_operator_inequalities(cfg: ExperimentConfig, rep: dict, *, trials=1000, dim=20,
                              gamma=0.3, violation_bound=-1e-10):
    _check_knobs(_inequality_args, trials=trials, dim=dim, gamma=gamma)
    yield
    res = operator_inequality_checks(trials, dim, gamma, cfg.seed)
    rep["fitted"]["resolvent_power_worst"] = res["resolvent_power"]
    rep["fitted"]["root_sum_worst"] = {str(k): v for k, v in res["root_sum"].items()}
    rep["csv"]["operator_inequalities.csv"] = {
        "columns": ["inequality", "worst_violation"],
        "rows": [["resolvent_power", res["resolvent_power"]],
                 ["root_sum_1", res["root_sum"][1]],
                 ["root_sum_2", res["root_sum"][2]]],
    }
    rep["checks"].append(check("resolvent_power", res["resolvent_power"], ">=", violation_bound))
    rep["checks"].append(check("root_sum_1", res["root_sum"][1], ">=", violation_bound))
    rep["checks"].append(check("root_sum_2", res["root_sum"][2], ">=", violation_bound))


# --------------------------------------------------------------------- dispatch


# experiment kind -> knobs.task -> runner.  A config without knobs.task runs
# its kind's first entry; the key None is the run that takes no task.
_RUNNERS = {
    "conservation": {None: run_conservation},
    "decay": {None: run_decay},
    "distance": {None: run_distance},
    "volume": {"slopes": run_volume_slopes, "doubling": run_doubling},
    "heat_kernel": {None: run_heat_kernel, "gaussian_bounds": run_gaussian_bounds},
    "separation": {None: run_separation},
    "compare": {None: run_compare},
    "wave": {"finite_speed": run_finite_speed, "davies_gaffney": run_davies_gaffney},
    "nash": {"nash": run_nash, "hardy": run_hardy,
             "operator_inequalities": run_operator_inequalities},
}


def plan_experiment(cfg: ExperimentConfig):
    """Bind the other knobs of the config's (experiment, knobs.task) runner and
    run it to its ``yield``: every ConfigError is raised here.  Returns the
    report and its solve, which resumes the runner and sets the total time
    (plan and solve) and the pass flag."""
    t0 = time.time()
    _one_of("experiment", cfg.experiment, list(_RUNNERS))
    if cfg.method.kind == "krylov_exponential" and cfg.experiment != "decay":
        raise ConfigError(f"method.kind: 'krylov_exponential' gives only a decay stage's "
                          f"candidate diagonal, not a {cfg.experiment!r} run")
    tasks = _RUNNERS[cfg.experiment]
    knobs = dict(cfg.knobs)
    task = knobs.pop("task", next(iter(tasks)))
    if task not in list(tasks):  # a list in place of a task name is refused, not hashed
        valid = [t for t in tasks if t is not None]
        raise ConfigError(f"knobs.task: {task!r} is not a task of {cfg.experiment!r}; "
                          f"leave it out or use one of {valid}")
    rep = _report_skeleton(cfg)
    steps = bind(tasks[task], "knobs", knobs, cfg, rep)()
    next(steps)
    planned = time.time() - t0

    def solve() -> None:
        t1 = time.time()
        next(steps, None)
        rep["timings"]["total_s"] = planned + time.time() - t1
        rep["passed"] = all_passed(rep["checks"])
    return rep, solve


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Plan, then solve, the config's run; returns its report."""
    rep, solve = plan_experiment(cfg)
    solve()
    return rep


# ----------------------------------------------------------- acceptance configs


def acceptance_manifest() -> list[dict]:
    """The frozen verification suite: every criterion with its tolerance."""
    classical = {"n": 1, "m": 1, "delta2": 1.0, "delta2p": 1.0}
    one_d_half = {"n": 1, "m": 0, "delta1": 0.5}
    return [
        {
            "name": "c01_conservation_1d", "experiment": "conservation", "seed": 101,
            "params": {"n": 1, "m": 0, "delta1": 0.25, "delta1p": 0.25},
            "grid": {"extents": 6.0, "counts": 601},
            "method": {"kind": "exact_eigendecomposition"},
            "knobs": {"bound": 1e-8, "times": [0.01, 0.05, 0.25, 1.0, 4.0], "n_sources": 10},
        },
        {
            "name": "c01_conservation_2d", "experiment": "conservation", "seed": 102,
            "params": classical,
            "grid": {"extents": 6.0, "counts": 45},
            "method": {"kind": "exact_eigendecomposition"},
            "knobs": {"bound": 1e-8, "times": [0.01, 0.05, 0.25, 1.0, 4.0], "n_sources": 10},
        },
        {
            "name": "c02_decay_classical", "experiment": "decay", "seed": 201,
            "params": classical,
            "method": {"kind": "krylov_exponential", "tolerance": 1e-6},
            "knobs": {"stages": [{
                "label": "small_t", "extents": 8.0, "counts": 257,
                "times": [float(t) for t in np.geomspace(0.045, 0.45, 8)],
                "candidates": "degeneracy_line", "guard": True,
                "slope": -1.5, "tol": 0.15,
            }]},
        },
        {
            "name": "c02_decay_control", "experiment": "decay", "seed": 202,
            "params": {"n": 1, "m": 1},
            "method": {"kind": "krylov_exponential", "tolerance": 1e-6},
            "knobs": {"stages": [{
                "label": "euclidean", "extents": 8.0, "counts": 129,
                "times": [float(t) for t in np.geomspace(0.1, 1.0, 8)],
                "candidates": [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]], "guard": True,
                "slope": -1.0, "tol": 0.05,
            }]},
        },
        {
            "name": "c03_decay_1d", "experiment": "decay", "seed": 301,
            "params": one_d_half,
            "method": {"kind": "exact_eigendecomposition"},
            "knobs": {"stages": [
                {"label": "small_t", "extents": 8.0, "counts": 8193,
                 "boundary": "half_line_positive",
                 "times": [float(t) for t in np.geomspace(0.1, 1.0, 8)], "slope": -1.0, "tol": 0.1,
                 "guard": True},
                {"label": "large_t", "extents": 150.0, "counts": 4001,
                 "boundary": "half_line_positive",
                 "times": [float(t) for t in np.geomspace(10.0, 100.0, 8)], "slope": -0.5, "tol": 0.1,
                 "guard": True},
            ]},
        },
        {
            "name": "c04_distance", "experiment": "distance", "seed": 401,
            "params": classical,
            "grid": {"extents": 4.0, "counts": 65},
            "knobs": {"n_sources": 10, "n_targets": 11, "stencil_order": 2,
                      "min_closed": 0.1, "stability_factor": 1.25},
        },
        {
            "name": "c05_volume_slopes", "experiment": "volume", "seed": 501,
            "params": classical,
            "grid": {"extents": [4.0, 10.0], "counts": [129, 1281]},
            "knobs": {"task": "slopes", "tol": 0.10,
                      "origin_radii": {"lo": 0.5, "hi": 5.0, "n": 9},
                      "off_center": [1.0, 0.0],
                      "off_radii": {"lo": 0.1, "hi": 1.0, "n": 9}},
        },
        {
            "name": "c06_doubling", "experiment": "volume", "seed": 601,
            "params": one_d_half,
            "grid": {"extents": 24.0, "counts": 49153},
            "knobs": {"task": "doubling", "r0": 0.1, "n_radii": 8,
                      "centers": [[0.0], [5.0]], "slack": 0.3},
        },
        {
            "name": "c07_separation_strong", "experiment": "separation", "seed": 701,
            "params": {"n": 1, "m": 0, "delta1": 0.75, "delta1p": 0.75},
            "grid": {"extents": 4.0, "counts": 201},
            "method": {"kind": "exact_eigendecomposition"},
            "knobs": {"refinements": 3, "t": 1.0, "sources": [[1.0], [-0.5]],
                      "strong_gap_bound": 1e-12},
        },
        {
            "name": "c07_separation_weak", "experiment": "separation", "seed": 702,
            "params": {"n": 1, "m": 0, "delta1": 0.25, "delta1p": 0.25},
            "grid": {"extents": 4.0, "counts": 201},
            "method": {"kind": "exact_eigendecomposition"},
            "knobs": {"refinements": 3, "t": 1.0, "sources": [[1.0], [-0.5]],
                      "weak_gap_min": 1e-3},
        },
        {
            "name": "c08_gaussian_bounds", "experiment": "heat_kernel", "seed": 801,
            "params": classical,
            "grid": {"extents": 6.0, "counts": 65},
            "method": {"kind": "auto", "tolerance": 1e-7},
            "knobs": {"task": "gaussian_bounds", "epsilon": 0.1,
                      "times": [0.1, 0.2, 0.4], "stability_factor": 2.0},
        },
        {
            "name": "c09_davies_gaffney", "experiment": "wave", "seed": 901,
            "params": one_d_half,
            "grid": {"extents": 8.0, "counts": 2049},
            "method": {"kind": "exact_eigendecomposition"},
            "knobs": {"task": "davies_gaffney", "epsilon": 0.2,
                      "exponent_targets": [4.0, 9.0, 16.0, 25.0, 36.0],
                      "min_samples": 20},
        },
        {
            "name": "c10_speed_classical", "experiment": "wave", "seed": 1001,
            "params": classical,
            "grid": {"extents": 8.0, "counts": 257},
            "knobs": {"task": "finite_speed", "bump_center": [1.0, 0.0], "bump_width": 0.6,
                      "times": [1.0, 2.0], "epsilon": 0.1, "metric": "graph",
                      "refinements": 2, "leak_bound": 1e-6},
        },
        {
            "name": "c10_speed_constant", "experiment": "wave", "seed": 1002,
            "params": {"n": 1, "m": 1},
            "grid": {"extents": 8.0, "counts": 257},
            "knobs": {"task": "finite_speed", "bump_center": [1.0, 0.0], "bump_width": 0.6,
                      "times": [1.0, 2.0], "epsilon": 0.1, "metric": "euclidean",
                      "refinements": 2, "leak_bound": 1e-6},
        },
        {
            "name": "c11_compare", "experiment": "compare", "seed": 1101,
            "params": {"n": 1, "m": 0, "delta1": 0.5},
            "grid": {"extents": 6.0, "counts": 769},
            "method": {"kind": "exact_eigendecomposition"},
            "knobs": {"r_cut": 1.0, "region": [1.0, 2.0], "exponent_range": [2.0, 16.0],
                      "n_times": 8, "slope_bound": -0.8, "control": True,
                      "control_tol": 1e-10, "stability_factor": 2.0},
        },
        {
            "name": "c12_nash_full", "experiment": "nash", "seed": 1201,
            "params": classical,
            "grid": {"extents": 2.0, "counts": 65},
            "knobs": {"task": "nash", "ensemble": 200,
                      "r_grid": {"lo": 0.3, "hi": 60.0, "n": 30},
                      "stability_factor": 1.25, "vf_slopes": True,
                      "vf_params": {"n": 1, "m": 1, "delta2": 1.0}},
        },
        {
            "name": "c12_nash_half_line", "experiment": "nash", "seed": 1202,
            "params": {"n": 1, "m": 0, "delta1": 0.75, "delta1p": 0.75},
            "grid": {"extents": 4.0, "counts": 513},
            "knobs": {"task": "nash", "half_line": True, "ensemble": 200,
                      "r_grid": {"lo": 0.2, "hi": 50.0, "n": 30},
                      "stability_factor": 1.25, "vf_slopes": False},
        },
        {
            "name": "c13_hardy", "experiment": "nash", "seed": 1301,
            "params": {"n": 3, "m": 0},
            "knobs": {"task": "hardy", "n": 3, "gamma": 1.0, "count": 14,
                      "fraction_ok": 0.5, "fraction_fail": 4.0},
        },
        {
            "name": "c13_operator_inequalities", "experiment": "nash", "seed": 1302,
            "params": {"n": 1, "m": 0},
            "knobs": {"task": "operator_inequalities", "trials": 1000, "dim": 20,
                      "gamma": 0.3, "violation_bound": -1e-10},
        },
        {
            "name": "c14_free_space_oracle", "experiment": "heat_kernel", "seed": 1401,
            "params": {"n": 1, "m": 0},
            "grid": {"extents": 8.0, "counts": 1025},
            "method": {"kind": "exact_eigendecomposition"},
            "knobs": {"source": [0.0], "t": 0.1, "oracle": "gauss_free_space",
                      "oracle_tol": 1e-3, "mass_tol": 1e-8,
                      "symmetry_point": [0.5], "symmetry_tol": 1e-8},
        },
    ]
