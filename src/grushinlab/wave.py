"""Exact cosine propagator and finite-speed / Davies-Gaffney checks.

cos(t sqrt(A)) v is summed as a Chebyshev series (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 3967, 1984).  A is PSD with spectrum in [0, Lambda], Lambda = 2 max_i
A_ii (Gershgorin), so x = (2/Lambda) A - I has spectrum in [-1, 1]; with z =
|t| sqrt(Lambda), Jacobi-Anger gives cos(t sqrt(A)) = J_0(z) + 2 sum_k (-1)^k
J_2k(z) T_k(x), and J_n' = (J_n-1 - J_n+1) / 2 gives the velocity.  One
recurrence T_k+1 = 2x T_k - T_k-1 to the largest |t|, the one the heat series
runs (``evolution._chebyshev_sum``), serves every time, with about
max|t| sqrt(Lambda) / 2 matvecs, each on the rows its term can reach from
the support of v, so the cost is proportional to the rows reached, and on
one row per mirror pair for a v that equals its x2 reflection exactly (the
state is then exactly mirror-symmetric), with subnormals flushed to zero on
x86-64 Linux (only operations that meet a subnormal change, each by less
than 2^-1022; elsewhere the same sum, slower where it underflows).  It
stops after the last coefficient
above ``COEFFICIENT_CUT``; one above it at K_max = ceil(z/2 + 10 z^(1/3) + 20)
raises ``CapacityError``.  The energy drift |E(t) - E(0)| / E(0), with E(t) =
w |u_t|^2 + w u.Au and E(0) = w v.Av from the matrix, checks the cut and the
bound Lambda.  Grid dispersion makes propagation only approximately
finite-speed, so the light-cone check measures the mass past an
epsilon-inflated cone plus a four-cell slack.  The Davies-Gaffney check
returns one log-margin per time it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .discretization import CapacityError, DivergenceFormOperator, form_value
from .evolution import _chebyshev_sum, apply_semigroup, estimate_lambda_max

__all__ = [
    "WaveState",
    "cosine_propagator",
    "finite_speed_check",
    "davies_gaffney_check",
]

# Chebyshev coefficients at or below this are dropped from the series' tail.
COEFFICIENT_CUT = 1e-17


@dataclass(frozen=True)
class WaveState:
    current: np.ndarray       # (times, nodes): cos(t sqrt A) v
    velocity: np.ndarray      # (times, nodes): its time derivative
    energy_drift: np.ndarray  # (times,): |E(t) - E(0)| / E(0), 0 when E(0) = 0


def cosine_propagator(op: DivergenceFormOperator, v, times) -> WaveState:
    """cos(t sqrt(A)) v and its velocity for every t in ``times``."""
    v = np.asarray(v, dtype=float)
    times = np.asarray(times, dtype=float)
    if v.shape != (op.n_nodes,) or times.ndim != 1 or not times.size:
        raise ValueError("need one value of v per kept node and a non-empty list of times")
    lam = estimate_lambda_max(op)
    z = np.abs(times) * np.sqrt(lam)
    k_max = int(np.ceil(z.max() / 2.0 + 10.0 * z.max() ** (1.0 / 3.0) + 20.0))
    k = np.arange(k_max + 1)
    J = jv(np.arange(-1, 2 * k_max + 2), z[:, None])  # orders -1 .. 2 K_max + 1
    weight = np.where(k == 0, 1.0, 2.0) * (-1.0) ** k
    coef = np.concatenate([weight * J[:, 2 * k + 1],  # cosine, then velocity / sqrt(Lambda)
                           0.5 * weight * (J[:, 2 * k] - J[:, 2 * k + 2]) * np.sign(times)[:, None]])
    above = np.abs(coef).max(axis=0) > COEFFICIENT_CUT
    if above[-1]:
        raise CapacityError(f"Chebyshev coefficient {np.abs(coef[:, -1]).max():.3g} at "
                            f"K_max = {k_max} (z = {z.max():.6g}) is above {COEFFICIENT_CUT:g}")
    # state rows, then velocity rows
    acc = _chebyshev_sum(op, lam, v, coef[:, : np.nonzero(above)[0][-1] + 1])
    current, velocity = acc[: times.size], np.sqrt(lam) * acc[times.size:]
    e0 = form_value(op, v)
    # einsum's summation order follows the memory layout: fix it to C order
    w = np.ascontiguousarray(velocity)
    energy = op.node_weight * np.einsum("ij,ij->i", w, w)
    energy += [form_value(op, u) for u in current]
    drift = np.abs(energy - e0) / e0 if e0 != 0.0 else np.zeros(times.size)
    return WaveState(current=current, velocity=velocity, energy_drift=drift)


def finite_speed_check(op: DivergenceFormOperator, support_distance, v, times,
                       epsilon: float) -> list[tuple[float, float]]:
    """(leaked fraction, energy drift) per time, from one propagation.

    The leaked fraction is the mass of cos(t sqrt A) v beyond the inflated
    light cone d <= (1 + epsilon) |t| plus a slack of 4 h (two cells per
    step of the metric graph's order-2 stencil), relative to that of v.
    ``support_distance``: per-kept-node distance to the support of v (from
    ``MetricGraph.distances_from_nodes``).
    """
    d = np.asarray(support_distance, dtype=float)
    if d.shape != (op.n_nodes,):  # cosine_propagator checks v
        raise ValueError("support_distance must give one value per kept node")
    norm = np.sqrt(op.node_weight) * np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("initial state must be nonzero")
    state = cosine_propagator(op, v, times)
    slack = 4.0 * max(op.grid.spacings)
    out = []
    for t, u, drift in zip(times, state.current, state.energy_drift):
        outside = d > (1.0 + epsilon) * abs(t) + slack  # the cosine group is even in t
        leaked = np.sqrt(op.node_weight) * np.linalg.norm(u[outside])
        out.append((float(leaked / norm), float(drift)))
    return out


def davies_gaffney_check(op: DivergenceFormOperator, set_distance: float,
                         rows_a, rows_b, times, epsilon: float) -> list[float]:
    """Log-margin of the L2 off-diagonal bound at each of the given times:

        log |<1_A, S_t 1_B>| + d(A;B)^2 / (4 t (1+epsilon)) - log(||1_A|| ||1_B||);

    negative = verified with slack epsilon.  A and B must be disjoint node sets.
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
    margins = []
    for t in times:
        st_b = apply_semigroup(op, ind_b, float(t))
        val = abs(w * float(ind_a @ st_b))
        logval = np.log(val) if val > 0 else -np.inf
        margins.append(float(logval + set_distance**2 / (4.0 * t * (1.0 + epsilon)) - norms))
    return margins
