"""Discrete cosine propagator and finite-speed / Davies-Gaffney checks.

cos(t sqrt(A)) v is evaluated with the standard leapfrog scheme

    u_{k+1} = 2 u_k - u_{k-1} - dt^2 A u_k,    u_1 = u_0 - (dt^2/2) A u_0,

whose time step is capped by the CFL bound 2 / sqrt(lambda_max), with
lambda_max bounded above by Gershgorin's 2 max_i A_ii.  Each pass also
tracks the conserved energy E_k = |(u_k - u_{k-1}) / dt|^2 + u_k . A u_{k-1},
whose A u_{k-1} is the matvec of the step before, so a finite-speed check
is one propagation with one matvec per step.  The discrete operator does
not propagate at exactly finite speed (grid dispersion), so the light-cone
check measures the mass leaking past an epsilon-inflated cone with a
two-cell stencil slack.

Single propagations are sequential in time; independent (v, t) runs can be
executed concurrently since nothing here mutates shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import DivergenceFormOperator
from .evolution import DEFAULT_METHOD, EvolutionMethod, apply_semigroup

__all__ = [
    "WaveState",
    "estimate_lambda_max",
    "cosine_propagator",
    "finite_speed_check",
    "davies_gaffney_check",
]


@dataclass(frozen=True)
class WaveState:
    current: np.ndarray
    energy_drift: float  # max_k |E_k - E_1| / |E_1|, 0 when E_1 = 0


def estimate_lambda_max(op: DivergenceFormOperator) -> float:
    """Gershgorin upper bound 2 max_i A_ii on the largest eigenvalue.

    Every assembled operator has off-diagonals <= 0 and row sums >= 0, so
    each Gershgorin disc lies in [0, 2 A_ii] (up to the rounding of the
    diagonal, which sums the row's face conductances).
    """
    return 2.0 * float(op.matrix.diagonal().max())


def _leapfrog(op: DivergenceFormOperator, v: np.ndarray, t: float, safety: float) -> WaveState:
    if not 0.0 < safety < 1.0:
        raise ValueError("CFL safety factor must lie in (0, 1)")
    cfl = 2.0 / np.sqrt(estimate_lambda_max(op))
    steps = max(1, int(np.ceil(t / (safety * cfl))))
    dt = t / steps
    if dt > cfl:
        raise ValueError(f"time step {dt} violates the CFL bound {cfl}")
    A = op.matrix
    w = op.node_weight

    def energy(u, u_prev, A_u_prev):
        vel = (u - u_prev) / dt
        return w * float(vel @ vel) + w * float(u @ A_u_prev)

    Au = A @ v
    u_prev, u = v, v - 0.5 * dt * dt * Au
    energies = [energy(u, u_prev, Au)]
    for _ in range(steps - 1):
        Au = A @ u
        u_prev, u = u, 2.0 * u - u_prev - dt * dt * Au
        energies.append(energy(u, u_prev, Au))
    e0 = energies[0]
    drift = float(np.abs(np.asarray(energies) - e0).max() / abs(e0)) if e0 != 0.0 else 0.0
    return WaveState(current=u, energy_drift=drift)


def cosine_propagator(op: DivergenceFormOperator, v, t: float, safety: float = 0.5) -> np.ndarray:
    """cos(t sqrt(A)) v by leapfrog time stepping; t = 0 returns v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (op.n_nodes,):
        raise ValueError(f"vector length {v.shape} does not match {op.n_nodes} nodes")
    if t == 0.0:
        return v.copy()
    return _leapfrog(op, v, abs(t), safety).current  # the cosine group is even in t


def finite_speed_check(op: DivergenceFormOperator, support_distance, v, t: float,
                       epsilon: float, stencil_order: int = 2,
                       safety: float = 0.5) -> tuple[float, float]:
    """(leaked fraction, energy drift) of one leapfrog pass to time |t|.

    The leaked fraction is the mass of cos(t sqrt A) v beyond the inflated
    light cone d <= (1 + epsilon) |t| plus a 2-cell stencil slack, relative
    to that of v.  ``support_distance``: per-kept-node distance to the
    support of v (from a geometry distance field).
    """
    v = np.asarray(v, dtype=float)
    d = np.asarray(support_distance, dtype=float)
    if v.shape != (op.n_nodes,) or d.shape != (op.n_nodes,):
        raise ValueError("v and support_distance must give one value per kept node")
    norm = np.sqrt(op.node_weight) * np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("initial state must be nonzero")
    t = abs(t)  # the cosine group is even in t
    if t == 0.0:
        return 0.0, 0.0
    state = _leapfrog(op, v, t, safety)
    slack = 2.0 * max(op.grid.spacings) * stencil_order
    outside = d > (1.0 + epsilon) * t + slack
    leaked = np.sqrt(op.node_weight) * np.linalg.norm(state.current[outside])
    return float(leaked / norm), state.energy_drift


def davies_gaffney_check(op: DivergenceFormOperator, set_distance: float,
                         rows_a, rows_b, times, epsilon: float,
                         method: EvolutionMethod = DEFAULT_METHOD) -> float:
    """Worst log-margin of the L2 off-diagonal bound over the given times.

    Returns max_t [ log |<1_A, S_t 1_B>| + d(A;B)^2 / (4 t (1+epsilon))
                    - log(||1_A|| ||1_B||) ];  negative = verified with
    slack epsilon.  A and B must be disjoint node sets.
    """
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    if np.intersect1d(rows_a, rows_b).size:
        raise ValueError("sets A and B must be disjoint")
    ind_a = np.zeros(op.n_nodes)
    ind_b = np.zeros(op.n_nodes)
    ind_a[rows_a] = 1.0
    ind_b[rows_b] = 1.0
    w = op.node_weight
    norms = np.log(np.sqrt(w * rows_a.size) * np.sqrt(w * rows_b.size))
    worst = -np.inf
    for t in times:
        st_b = apply_semigroup(op, ind_b, float(t), method)
        val = abs(w * float(ind_a @ st_b))
        logval = np.log(val) if val > 0 else -np.inf
        margin = logval + set_distance**2 / (4.0 * t * (1.0 + epsilon)) - norms
        worst = max(worst, float(margin))
    return worst
