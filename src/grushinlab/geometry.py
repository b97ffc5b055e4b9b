"""Quasi-distance, geodesic distances, ball volumes and doubling.

Two routes to the control distance of the degenerate metric C^{-1}:

* the closed two-scale formula
      D(x; y) = |x1 - y1| / (|x1| + |y1|)^(delta1, delta1p)  +  Delta(x; y)
  where Delta switches between |x2 - y2| / (|x1| + |y1|)^(delta2, delta2p)
  and |x2 - y2|^(1 - gamma, 1 - gammap) on the surface
  |x2 - y2| = (|x1| + |y1|)^(rho, rhop), on which the branches agree;

* shortest paths on the grid graph whose edges are all coprime
  integer offsets with max-norm <= stencil_order, weighted by the metric
  length of the straight segment, integral of
  sqrt(sum_k c_k^{-1} dx_k^2), evaluated with singularity-aware quadrature.
  The integrand depends on |x1| only, so each offset's weights are
  integrated once per x1 start and shared by every x2 start.

The two are equivalent up to constants; the experiments fit the constant
band and test its stability under refinement.  Points are plain coordinate
arrays of length n + m, and a geodesic distance is a flat array with one
value per grid node (``MetricGraph.distances_from_nodes``).  A ball volume
is counted in cells below a distance threshold (``ball_volume``) or read
from the closed-form two-regime volume law with unit constants
(``ball_volume_closed_form``); the doubling exponent takes arrays of radii
and volumes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .coefficients import CoefficientField, GrusinParameters, derive_exponents, piecewise_power
from .discretization import Grid, _csr, _starts, segment_quadratic
from .quadrature import segment_integrals

__all__ = [
    "MetricGraph",
    "delta_distance",
    "closed_form_distance",
    "ball_volume",
    "ball_volume_closed_form",
    "doubling_exponent",
    "stencil_offsets",
]


def _blocks(params: GrusinParameters, p) -> tuple[np.ndarray, np.ndarray]:
    """The (x1, x2) blocks of a point of R^n x R^m."""
    p = np.asarray(p, dtype=float)
    if p.shape != (params.dim,):
        raise ValueError(f"expected {params.dim} coordinates")
    return p[: params.n], p[params.n :]


def delta_distance(params: GrusinParameters, x, y) -> float:
    """Block-2 part of the quasi-distance (the switching formula)."""
    x1, x2 = _blocks(params, x)
    y1, y2 = _blocks(params, y)
    u = float(np.linalg.norm(x2 - y2))
    if u == 0.0:
        return 0.0
    e = derive_exponents(params)
    s = float(np.linalg.norm(x1) + np.linalg.norm(y1))
    if u <= piecewise_power(s, e.rho, e.rhop):
        return u / piecewise_power(s, params.delta2, params.delta2p)
    return piecewise_power(u, 1.0 - e.gamma, 1.0 - e.gammap)


def closed_form_distance(params: GrusinParameters, x, y) -> float:
    """Two-scale closed-form quasi-distance; symmetric, zero iff x == y."""
    x1, _ = _blocks(params, x)
    y1, _ = _blocks(params, y)
    du = float(np.linalg.norm(x1 - y1))
    if du == 0.0:
        first = 0.0
    else:
        s = float(np.linalg.norm(x1) + np.linalg.norm(y1))
        first = du / piecewise_power(s, params.delta1, params.delta1p)
    return first + delta_distance(params, x, y)


def stencil_offsets(dim: int, order: int) -> np.ndarray:
    """Coprime integer offsets with max-norm <= order, one per +/- pair."""
    if order < 1:
        raise ValueError("stencil order must be >= 1")
    offs = []
    for off in np.ndindex(*([2 * order + 1] * dim)):
        v = np.array(off) - order
        if not v.any():
            continue
        if math.gcd(*(abs(int(k)) for k in v)) != 1:
            continue
        # keep one representative of each +/- pair
        if v[v != 0][0] < 0:
            continue
        offs.append(v)
    return np.array(offs, dtype=np.int64)


class MetricGraph:
    """Weighted node graph of a grid under the degenerate metric.

    Building the graph is the expensive part (one quadrature sweep over the
    x1 starts per stencil offset); each offset's edges are then one slot of
    the CSR edge matrix, which ``_csr`` writes a block of x1 rows at a time.
    Dijkstra runs from any non-empty set of source nodes afterwards.
    """

    def __init__(self, grid: Grid, coeffs: CoefficientField, stencil_order: int = 2):
        if coeffs.params != grid.params:
            raise ValueError("grid and coefficient field disagree on parameters")
        self.grid = grid
        self.coeffs = coeffs
        self.stencil_order = int(stencil_order)
        self.dropped_edges = 0
        self._csr = self._build()

    def _edge_weights(self, off: np.ndarray):
        """The edges with integer offset ``off`` and a finite metric length,
        compactly: (kept x1 starts, x2 starts, one length per kept x1 start,
        flat step, number of infinite ones dropped).  The edges run from
        x1 start * n2 + x2 start (flat node index) to that plus the step;
        each length is integrated once per x1 start and serves every x2 start."""
        grid, coeffs = self.grid, self.coeffs
        n = grid.params.n
        v = off * np.asarray(grid.spacings)
        w1 = float(np.sum(v[:n] ** 2))
        w2 = float(np.sum(v[n:] ** 2))

        def integrand(r):
            with np.errstate(divide="ignore"):
                val = 0.0
                if w1 > 0.0:
                    val = val + w1 / coeffs.block(1, r)
                if w2 > 0.0:
                    val = val + w2 / coeffs.block(2, r)
            return np.sqrt(val)

        sing = 0.0
        if w1 > 0.0:
            sing = max(sing, coeffs.singular_exponent(1))
        if w2 > 0.0:
            sing = max(sing, coeffs.singular_exponent(2))
        weights = segment_integrals(*segment_quadratic(grid, off[:n]), integrand, sing).ravel()
        ok = np.isfinite(weights)
        x1 = _starts(grid.counts[:n], off[:n])
        x2 = _starts(grid.counts[n:], off[n:])
        step = int(np.ravel_multi_index(tuple(np.maximum(off, 0)), grid.counts)
                   - np.ravel_multi_index(tuple(np.maximum(-off, 0)), grid.counts))
        return x1[ok], x2, weights[ok], step, int((~ok).sum()) * x2.size

    def _build(self) -> sp.csr_matrix:
        n = self.grid.params.n
        counts = np.asarray(self.grid.counts)
        # an offset at least as long as its axis has no edge on this grid
        offsets = [off for off in stencil_offsets(self.grid.dim, self.stencil_order)
                   if np.all(np.abs(off) < counts)]
        slots = []
        for off in offsets:
            x1, x2, w, step, dropped = self._edge_weights(off)
            self.dropped_edges += dropped
            slots.append((x1, x2, step, w[:, None]))
        # the offsets come in lexicographic order, which is column order in
        # every row: flat indices of grid nodes order as their coordinates do
        return _csr((int(np.prod(counts[:n])), int(np.prod(counts[n:]))), slots)

    @property
    def edge_matrix(self) -> sp.csr_matrix:
        """Upper adjacency of finite edge weights (one entry per edge)."""
        return self._csr

    def distances_from_nodes(self, nodes, limit: float = np.inf) -> np.ndarray:
        """Graph distance to the nearest of ``nodes`` (flat indices, at least
        one), as a flat array with one value per grid node; +inf = unreachable,
        or farther than ``limit``.  Every distance up to ``limit`` is exact:
        the search stops there, and a reader that only compares distances
        with values up to ``limit`` reads the same answers from +inf."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if nodes.size == 0:
            raise ValueError("distances_from_nodes needs at least one source node")
        return dijkstra(self._csr, directed=False, indices=nodes,
                        min_only=nodes.size > 1, limit=limit).ravel()


def ball_volume(distances, r: float, cell: float) -> float:
    """Lebesgue measure of the ball {d < r}, counting whole cells of measure
    ``cell`` over the per-node ``distances``.

    Radii below the resolved scale return the single source cell measure.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    count = int(np.sum(distances < r))
    return cell * max(count, 1)


def ball_volume_closed_form(params: GrusinParameters, center, r: float) -> float:
    """Two-regime closed-form ball volume with unit constants."""
    if r <= 0:
        raise ValueError("radius must be positive")
    x1, _ = _blocks(params, center)
    e = derive_exponents(params)
    rx = float(np.linalg.norm(x1))
    crossover = piecewise_power(rx, 1.0 - params.delta1, 1.0 - params.delta1p)
    if r >= crossover:
        return piecewise_power(r, e.D, e.Dp)
    return r ** params.dim * piecewise_power(rx, e.beta, e.betap)


def _doubling_radii(radii) -> np.ndarray:
    """:func:`doubling_exponent`'s radius check: at least 8 radii in
    geometric progression with ratio 2, spanning at least two decades."""
    r = np.asarray(radii, dtype=float)
    if len(r) < 8:
        raise ValueError("need at least 8 radii")
    ratios = r[1:] / r[:-1]
    if not np.allclose(ratios, 2.0, rtol=1e-9):
        raise ValueError("radii must be a factor-2 geometric sequence")
    if r[-1] / r[0] < 100.0:
        raise ValueError("radii must span at least two decades")
    return r


def doubling_exponent(radii, volumes) -> float:
    """max over consecutive radius pairs of log2(V(2r) / V(r)), for radii
    that pass :func:`_doubling_radii` and nondecreasing volumes."""
    r, v = _doubling_radii(radii), np.asarray(volumes, dtype=float)
    if np.any(np.diff(v) < -1e-12 * v[:-1]):
        raise ValueError("volumes must be nondecreasing in r")
    return float(np.max(np.log2(v[1:] / v[:-1])))
