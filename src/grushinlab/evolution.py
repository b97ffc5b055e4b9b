"""Heat semigroup, kernel slices, and the decay / bound / separation checks.

The generator is the assembled face-sum matrix A itself (uniform node
weights), so the semigroup is exp(-tA) and the kernel column for a source
node j is K_t(., j) = exp(-tA) e_j / weight.  Every read -- a vector, a
kernel column, a block, the full diagonal -- takes the operator's factored
spectrum (``DivergenceFormOperator.dense_eig``): cosine transforms along x2
and one x1 fiber eigendecomposition per x2 mode, each split per connected
component, so decoupled halves produce *exactly* zero cross-kernel.  A
read takes the operator alone (no method argument), and past the spectrum's
storage ceiling, n2 * n1^2 floats > MAX_EXACT_DIMENSION^2, raises CapacityError.

The one exception is a decay diagonal given a tolerance: one Chebyshev
series of exp(-tA) per candidate e_j, read at its own entry only.  The
series is in x = (2/Lambda) A - I, Lambda = 2 max_i A_ii (Gershgorin), so
the spectrum of x lies in [-1, 1]:
with z = t Lambda / 2, exp(-tA) = e^-z [I_0(z) + 2 sum_k (-1)^k I_k(z)
T_k(x)] (Sachdeva & Vishnoi, Faster Algorithms via Approximation Theory,
2014).  |T_k(x)| <= 1 on the spectrum, so cutting where the tail sum of
|c_k| drops to the tolerance bounds the error by tolerance * |v| a priori;
about sqrt(2 z ln(1/tol)) matvecs.  The wave layer sums cos(t sqrt A)
through the same recurrence (``_chebyshev_sum``).
T_k(x) v is zero more than k hops from the support of v, so term k is
computed on the rows within k hops only, in an order sorted by that
distance (``_support_order``, the hops from one breadth-first pass,
``_hops``): the cost is proportional to the rows reached, and every
nonzero entry is bit for bit that of the recurrence over all rows.  Every
coefficient depends on |x1| only, so A commutes with the x2 reflection
(row a * n2 + i2 to a * n2 + n2 - 1 - i2), and a v that
equals its reflection exactly is folded (``_mirror_symmetric``): the
recurrence runs on one row per mirror pair, each reading its mirrored
columns at their representative's place, so every term is that of the
recurrence over all rows with its mirror rows overwritten by their
representatives' values, and the result is exactly mirror-symmetric.
Every recurrence starts from one vector, and only that vector's symmetry
decides the fold.  The term loop runs with subnormals flushed to zero on
x86-64 Linux (``_flush_subnormals``): next to the degeneracy line the
terms underflow, and x86 computes subnormals in microcode.  Only
operations that meet a subnormal change, each by less than 2^-1022; 2x,
the coefficients and every reduction after the loop run in the caller's
mode.

Kernel slices for distinct (source, t) pairs are independent work items; the
operator and its cached factored spectrum are immutable shared inputs.
Every check takes operator rows, never points: config points are resolved
by the experiment runners.  The separation check works on one grid's
Neumann and Dirichlet operators, and its runner folds the levels.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import breadth_first_order
from scipy.special import ive

from .coefficients import derive_exponents, piecewise_power
from .discretization import CapacityError, DivergenceFormOperator
from .geometry import ball_volume

__all__ = [
    "KernelSlice",
    "apply_semigroup",
    "estimate_lambda_max",
    "heat_kernel",
    "ondiagonal_decay",
    "gaussian_upper_check",
    "kernel_comparison",
    "separation_check",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class KernelSlice:
    """One kernel column K_t(., y) over the operator's kept nodes."""

    source_index: int
    t: float
    values: np.ndarray
    weight: float

    def mass(self) -> float:
        return float(self.weight * self.values.sum())


def estimate_lambda_max(op: DivergenceFormOperator) -> float:
    """Gershgorin upper bound 2 max_i A_ii on the largest eigenvalue, 1.0
    for A = 0 (every face dead), where any positive bound holds.

    Every assembled operator has off-diagonals <= 0 and row sums >= 0, so
    each Gershgorin disc lies in [0, 2 A_ii] (up to the rounding of the
    diagonal, which sums the row's face conductances).
    """
    return 2.0 * float(op.matrix.diagonal().max()) or 1.0


# MXCSR's flush-to-zero (bit 15) and denormals-are-zero (bit 6) bits
_FTZ_DAZ = 0x8040
_FLUSHES = sys.platform == "linux" and os.uname().machine == "x86_64"


class _FenvT(ctypes.Structure):
    """glibc's x86-64 fenv_t: 28 bytes of x87 state, then the SSE mxcsr."""

    _fields_ = [("x87", ctypes.c_ubyte * 28), ("mxcsr", ctypes.c_uint)]


@functools.cache
def _libm() -> ctypes.CDLL:
    """glibc's libm with fegetenv / fesetenv declared, loaded on first use:
    finding it at import would add to every run's start-up."""
    libm = ctypes.CDLL("libm.so.6")
    for f in (libm.fegetenv, libm.fesetenv):
        f.argtypes = [ctypes.POINTER(_FenvT)]
        f.restype = ctypes.c_int
    return libm


@contextmanager
def _flush_subnormals():
    """Flush subnormals to zero on the calling thread inside the block (SSE
    FTZ and DAZ), and restore the previous floating-point environment on
    leaving it, by a return or an exception.

    Next to the degeneracy line the terms of a Chebyshev series decay by
    orders of magnitude per hop and underflow into subnormals, which x86
    computes in microcode.  The mode changes only operations with a
    subnormal operand or result: such an operand reads as 0 and such a
    result is written as 0, each a change below 2^-1022 in magnitude; every
    other operation gives the IEEE result.  MXCSR is per thread: the
    suite's workers are processes, and with one BLAS thread ``daxpy`` runs
    on the caller's thread (BLAS worker threads keep their own mode).  On
    anything but x86-64 Linux (glibc's fenv_t) this does nothing, which
    leaves IEEE gradual underflow: the same outputs up to those differences,
    only slower.
    """
    if not _FLUSHES:
        yield
        return
    libm = _libm()
    saved = _FenvT()
    if libm.fegetenv(saved):
        raise OSError("fegetenv failed")
    flushed = _FenvT.from_buffer_copy(saved)
    flushed.mxcsr |= _FTZ_DAZ
    if libm.fesetenv(flushed):
        raise OSError("fesetenv failed")
    try:
        yield
    finally:
        libm.fesetenv(saved)


# Rows that ``_two_x`` builds at once: its scratch stays under 100 kB.
_DIAGONAL_ROWS = 1024


def _mirror_symmetric(op: DivergenceFormOperator, v: np.ndarray) -> bool:
    """Whether v equals its x2 reflection exactly (+0 and -0 count as
    equal): the flat map i2 -> n2 - 1 - i2 on the rows a * n2 + i2, which
    reflects every x2 axis at once.  Every coefficient depends on |x1| only,
    so A commutes with the reflection, and every T_k(x) v of such a v is
    mirror-symmetric too."""
    view = v.reshape(op.fiber_shape)
    return bool(np.array_equal(view, view[:, ::-1]))


def _hops(A: sp.csr_matrix, v: np.ndarray, count: int) -> np.ndarray:
    """Hop distance (int32) of every row from v's nonzero rows over A's
    stored pattern (symmetric, as A is), or ``count`` for a row more than
    count - 1 hops away or never reached.

    One breadth-first pass (scipy's) runs from a super-source row N joined
    to v's nonzero rows: A's index arrays with that row appended, and a
    broadcast 1.0 as data.  Each level of the pass follows the one before
    it in the visit order and holds the children of that level's rows, so
    the level ends come from the children counts in visit order, one level
    at a time.
    """
    N = A.shape[0]
    starts = np.flatnonzero(v).astype(A.indices.dtype)
    indptr = np.append(A.indptr, A.indptr[-1] + starts.size)
    graph = sp.csr_matrix((np.broadcast_to(1.0, indptr[-1]), np.concatenate([A.indices, starts]),
                           indptr), shape=(N + 1, N + 1))
    visits, parent = breadth_first_order(graph, N, directed=True, return_predecessors=True)
    # the level ending at visit e (e visits into the order) is followed by
    # one that ends at 1 + the number of children of those e visits
    level_end = np.concatenate([[1], 1 + np.cumsum(np.bincount(parent[visits[1:]],
                                                              minlength=N + 1)[visits])])
    ends = [1]  # the super-source's level; its children, v's rows, are 0 hops away
    while len(ends) <= count and ends[-1] < visits.size:
        ends.append(int(level_end[ends[-1]]))
    hops = np.full(N + 1, count, dtype=np.int32)
    hops[visits[1:ends[-1]]] = np.repeat(np.arange(len(ends) - 1, dtype=np.int32), np.diff(ends))
    return hops[:N]


def _support_order(op: DivergenceFormOperator, v: np.ndarray,
                   count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The only maker of the recurrence's row order, for ``count`` terms
    from the start vector v: (order, pos, reach).  The places are the rows
    a * n2 + i2 with i2 < half: every row, or one per x2 mirror pair when v
    equals its x2 reflection (``_mirror_symmetric``; n2 is odd, the mid-line
    is its own mirror).  They are sorted by hop distance from v's nonzero
    rows over A's stored pattern (``_hops``), ties in row order; rows past
    count - 1 hops or never reached go last.  order[p] is the row at place
    p, pos[r] (int32) the place of every row r, and reach[k] counts the
    places within k hops, past which T_k(x) v is exactly zero.  On a folded
    order the hops are mirror-symmetric too, so a row's x2 mirror shares its
    place.
    """
    n1, n2 = op.fiber_shape
    half = (n2 + 1) // 2 if _mirror_symmetric(op, v) else n2
    kept = np.arange(n1 * n2, dtype=np.int32).reshape(n1, n2)[:, :half].ravel()
    hops = _hops(op.matrix, v, count)[kept]
    reach = np.cumsum(np.bincount(hops, minlength=count + 1)[:count])
    order = kept[np.argsort(hops, kind="stable")]
    pos = np.empty((n1, n2), dtype=np.int32)
    pos.ravel()[order] = np.arange(order.size, dtype=np.int32)
    pos[:, half:] = pos[:, :n2 - half][:, ::-1]  # each mirror takes its representative's place
    return order, pos.ravel(), reach


def _two_x(op: DivergenceFormOperator, lam: float, order: np.ndarray,
           pos: np.ndarray) -> sp.csr_matrix:
    """2x = (4/lam) A - 2I in the order of ``_support_order``: row p is row
    order[p] of A and column j is column pos[j].  A block of places at a
    time, their rows of A are gathered by scipy's row-indexing kernel (A is
    never written), entries in stored order; each value becomes
    A_ij * (4/lam), the stored diagonal is shifted by -2, and the columns
    are renamed to places.  On a folded order a column and its mirror are
    two entries at one place, which the matvec sums in stored order.  Every
    assembled matrix stores its whole diagonal; one that lacks one raises
    ValueError."""
    A = op.matrix
    indptr = np.zeros(order.size + 1, dtype=A.indptr.dtype)
    np.cumsum(np.diff(A.indptr)[order], out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=A.indices.dtype), np.empty(indptr[-1])
    for p0 in range(0, order.size, _DIAGONAL_ROWS):
        rows = order[p0:p0 + _DIAGONAL_ROWS]
        lo, hi = indptr[p0], indptr[p0 + rows.size]
        cols, vals = indices[lo:hi], data[lo:hi]
        _sparsetools.csr_row_index(rows.size, rows, A.indptr, A.indices, A.data, cols, vals)
        vals *= 4.0 / lam
        diag = np.flatnonzero(cols == np.repeat(rows, np.diff(indptr[p0:p0 + rows.size + 1])))
        if diag.size != rows.size:
            raise ValueError(f"rows at places {p0}..{p0 + rows.size - 1} lack a diagonal entry")
        vals[diag] -= 2.0
        cols[:] = pos[cols]
    return sp.csr_matrix((data, indices, indptr), shape=(order.size, order.size))


def _head_matvec(m: sp.csr_matrix, x: np.ndarray, n: int) -> np.ndarray:
    """m[:n] @ x for a vector x, by the kernel ``csr_matrix @`` runs, on the
    first n rows of m without copying them.  The kernel reads raw buffers,
    so the sizes are checked first."""
    if not 0 <= n <= m.shape[0] or x.shape != (m.shape[1],):
        raise ValueError(f"head of {n} rows of a {m.shape} matrix times {x.shape}")
    y = np.zeros(n)
    _sparsetools.csr_matvec(n, m.shape[1], m.indptr, m.indices, m.data, x, y)
    return y


def _chebyshev_terms(op: DivergenceFormOperator, lam: float, v: np.ndarray, count: int):
    """(pos, reach, terms) for ``count`` terms from the vector v: the order
    of ``_support_order`` and a generator of T_k(x) v, x = (2/lam) A - I,
    one entry per place (row r at pos[r]), each computed on its first
    reach[k] places only, past which it is exactly zero.  2x is built before
    this returns, so the generator runs the recurrence only.

    v in place order is T_0, and the buffer of T_2, T_4, ...  Each yielded
    array is overwritten two terms later.  2x is one copy of A (``_two_x``),
    so the recurrence holds A, 2x and its vectors and nothing more.  Each
    stored entry of 2x is the float (4/lam) A_ij - 2 delta_ij; where (4/lam)
    A_ii is exactly 2 that is 0.0, and it stays stored.  It adds 0 * v_i =
    +-0 to its row's sum, which starts at +0 and so is never -0, and leaves
    the sum as it is.  So every nonzero entry of T_k v is bit for bit that
    of the plain recurrence on (4/lam) A - 2I over all rows with its exact
    zeros pruned, for finite v: a row within k hops sums the same products
    in the same order, and one past them sums none.  Only the sign of a zero
    may differ, which no norm or energy shows.  On a folded order (a
    mirror-symmetric v) each representative row reads its mirrored columns
    at their representative's place, so T_k is that of the plain recurrence
    with each term's mirror rows overwritten by their representatives'
    values, which differ from them by rounding only.
    """
    order, pos, reach = _support_order(op, v, count)
    two_x = _two_x(op, lam, order, pos)

    def terms():
        t_prev, t_cur = v[order], np.zeros(order.size)
        yield t_prev
        for k in range(1, count):
            n = reach[k]
            if k == 1:
                np.multiply(_head_matvec(two_x, t_prev, n), 0.5, out=t_cur[:n])
            else:  # T_k = 2x T_{k-1} - T_{k-2}, written over T_{k-2}
                np.subtract(_head_matvec(two_x, t_cur, n), t_prev[:n], out=t_prev[:n])
                t_prev, t_cur = t_cur, t_prev
            yield t_cur
    return pos, reach, terms()


def _chebyshev_sum(op: DivergenceFormOperator, lam: float, v: np.ndarray,
                   coef: np.ndarray) -> np.ndarray:
    """sum_k coef[:, k] T_k(x) v with x = (2/lam) A - I, one row per row of
    ``coef``; the work is proportional to the rows each term reaches, and
    halves for a v that equals its x2 reflection (``_mirror_symmetric``):
    the recurrence then runs on one row per mirror pair, and the result is
    exactly mirror-symmetric.

    Each row of the accumulator takes c T_k(x) v on the term's reach by
    ``daxpy``, the kernel BLAS's rank-1 update runs per column, so every
    nonzero entry of the sum is bit for bit that of one rank-1 update per
    term over all rows (over the folded terms of ``_chebyshev_terms``).
    """
    pos, reach, terms = _chebyshev_terms(op, lam, v, coef.shape[1])
    with _flush_subnormals():
        acc = np.outer(coef[:, 0], next(terms))
        for k, t_k in enumerate(terms, start=1):
            for row, c in zip(acc, coef[:, k]):
                daxpy(t_k, row, n=reach[k], a=c)
    return np.take(acc, pos, axis=1)


def _heat_series_length(z: float, tol: float) -> int:
    """K_max, the number of heat coefficients computed for the largest z."""
    log_tol = np.log(1.0 / tol)
    return int(np.ceil(np.sqrt(2.0 * z * (log_tol + 5.0)) + log_tol + 20.0))


def _heat_coefficients(lam: float, times, tol: float) -> np.ndarray:
    """Chebyshev coefficients of exp(-tA) in x = (2/lam) A - I, one row per
    time: c_k = (2 - delta_k0) (-1)^k e^-z I_k(z), z = t lam / 2.

    Each row keeps the terms before the first K whose tail sum_{k>=K} |c_k|
    is <= tol, which bounds its error by tol |v|, and is zero past it, so a
    pass over several times gives each the sum a call for it alone gives.
    CapacityError if a tail at K_max is still above tol.
    """
    z = 0.5 * lam * np.asarray(times, dtype=float)
    k_max = _heat_series_length(float(z.max()), tol)
    k = np.arange(k_max + 1)
    coef = np.where(k == 0, 1.0, 2.0) * (-1.0) ** k * ive(k, z[:, None])
    tail = np.cumsum(np.abs(coef[:, ::-1]), axis=1)[:, ::-1]
    if tail[:, -1].max() > tol:
        raise CapacityError(f"heat series tail {tail[:, -1].max():.3g} at K_max = {k_max} "
                            f"(z = {z.max():.6g}) is above the tolerance {tol:g}")
    coef[tail <= tol] = 0.0
    return coef[:, : int((tail > tol).sum(axis=1).max())]


def apply_semigroup(op: DivergenceFormOperator, v, t: float) -> np.ndarray:
    """exp(-tA) v for the operator's generator A, from its factored
    spectrum; t = 0 returns v."""
    if t < 0:
        raise ValueError("time must be non-negative")
    v = np.asarray(v, dtype=float)
    if v.shape != (op.n_nodes,):
        raise ValueError(f"vector length {v.shape} does not match {op.n_nodes} nodes")
    if t == 0.0:
        return v.copy()
    return op.dense_eig().apply(v, t)


def heat_kernel(op: DivergenceFormOperator, row: int, t: float) -> KernelSlice:
    """Kernel column K_t(., y) for the source y at operator row ``row``."""
    if t <= 0:
        raise ValueError("kernel slices require t > 0")
    j = int(row)
    e = np.zeros(op.n_nodes)
    e[j] = 1.0
    col = apply_semigroup(op, e, t)
    return KernelSlice(source_index=j, t=t, values=col / op.node_weight, weight=op.node_weight)


def fit_loglog_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass(frozen=True)
class DecayResult:
    times: np.ndarray
    sup_diag: np.ndarray


def ondiagonal_decay(op: DivergenceFormOperator, times, candidates=None,
                     tolerance: float | None = None) -> DecayResult:
    """sup_x K_t(x; x) per time (sorted, at least two); the caller fits its
    log-log slope once every sup lies above its error.

    ``candidates``: operator rows over which the sup is taken, read off the
    factored spectrum's diagonal, or, given a ``tolerance``, off one series
    per candidate (``_candidate_diagonal``), each entry within it, which
    needs them.  Without them the sup is over the full diagonal, less the
    isolated cells (zero-degree rows, cut off by dead faces), which hold
    their unit mass forever.  The caller admits the times.
    """
    times = np.sort(np.asarray(times, dtype=float))
    if len(times) < 2:
        raise ValueError("times: need at least two times for a slope fit")
    if tolerance is not None:
        if candidates is None:
            raise ValueError("a series on-diagonal decay requires an explicit candidate set")
        diag = _candidate_diagonal(op, candidates, times, tolerance)
    else:
        rows = np.nonzero(op.matrix.diagonal() > 0.0)[0] if candidates is None else candidates
        diag = op.dense_eig().diagonal(times)[:, rows]
    return DecayResult(times=times, sup_diag=diag.max(axis=1) / op.node_weight)


def _candidate_diagonal(op: DivergenceFormOperator, rows, times: np.ndarray,
                        tol: float) -> np.ndarray:
    """exp(-tA)_jj per time for each j in rows, shape (len(times), R): the
    heat coefficients times the moments T_k(x)_jj of one series per unit
    vector e_j, folded by the rule of its start, each read at its own entry
    only (kernel polynomial method; Weisse et al., Rev. Mod. Phys. 78, 275,
    2006).  Each entry's error is at most ``tol``: |T_k(x)_jj| <= 1."""
    lam = estimate_lambda_max(op)
    coef = _heat_coefficients(lam, times, tol)
    diag = np.empty((len(times), len(rows)))
    for i, j in enumerate(rows):
        e = np.zeros(op.n_nodes)
        e[j] = 1.0
        pos, _, terms = _chebyshev_terms(op, lam, e, coef.shape[1])
        with _flush_subnormals():
            moments = [t_k[pos[j]] for t_k in terms]
        diag[:, i] = coef @ np.array(moments)
    return diag


@dataclass(frozen=True)
class GaussianUpperReport:
    constant: float
    argmax: tuple          # (source row, other row, t)
    samples: int
    lower: float           # min over sources and times of K_t(x; x) |B(x; sqrt t)|


_EXPONENT_CAP = 16.0  # the largest d^2/(4t) gaussian_upper_check samples


def gaussian_upper_check(op: DivergenceFormOperator, source_distances: dict, times,
                         epsilon: float) -> GaussianUpperReport:
    """Fitted constant of the volume-weighted Gaussian upper bound.

    ``source_distances`` maps operator rows to the geodesic distances from
    that node (one per grid node); pairs are sampled from this set.  The fitted constant is the
    maximum over pairs (x, y) and times of

        K_t(x; y) * sqrt(|B(x; sqrt t)| |B(y; sqrt t)|) * exp(+d(x,y)^2 / (4 (1+eps) t))

    with the ball volumes counted on the same grid as the kernel, so both
    sides of the pairing degrade consistently under coarsening.  Pairs with
    d^2/(4t) above ``_EXPONENT_CAP`` or kernel values at or below 1e-12
    are skipped (solver noise would otherwise ride the growing exponential).

    One kernel block over the sources per time gives the entries and the
    on-diagonal lower constant ``lower``, the minimum over sources and times
    of K_t(x; x) |B(x; sqrt t)|: the single-cell box is the discrete
    stand-in for the averaged lower bound, so K_t(x; x) is read directly.
    """
    rows = sorted(source_distances)
    times = np.asarray(times, dtype=float)
    # K[a, q, b] = K_t(rows[b]; rows[a]) at t = times[q]: (source, time, other)
    K = np.transpose(op.dense_eig().block(np.asarray(rows), times), (2, 0, 1)) / op.node_weight
    vol = np.array([[ball_volume(source_distances[j], r, op.node_weight) for r in np.sqrt(times)]
                    for j in rows])
    d = np.array([[source_distances[i][op.kept[j]] for i in rows] for j in rows])
    expo = (d * d)[:, None, :] / (4.0 * times[:, None])
    a, q, b = np.nonzero((expo <= _EXPONENT_CAP) & (K > 1e-12) & np.isfinite(d)[:, None])
    val = K[a, q, b] * np.sqrt(vol[b, q] * vol[a, q]) * np.exp(expo[a, q, b] / (1.0 + epsilon))
    lower = float((K[np.arange(len(rows)), :, np.arange(len(rows))] * vol).min())
    k = int(np.argmax(val))  # never empty: a diagonal pair has d = 0 and K above the floor
    return GaussianUpperReport(constant=float(val[k]), samples=int(val.size), lower=lower,
                               argmax=(rows[a[k]], rows[b[k]], float(times[q[k]])))


@dataclass(frozen=True)
class ComparisonReport:
    times: np.ndarray
    sup_diff: np.ndarray
    reference: np.ndarray
    slope_vs_exponent: float


def kernel_comparison(op_true: DivergenceFormOperator, op_frozen: DivergenceFormOperator,
                      region_rows: np.ndarray, rho: float, times) -> ComparisonReport:
    """sup over the region of |K_frozen - K_true| per time, with the
    reference curve V(t^2/rho^2)^{-1} (rho^2/t)^{-1/2} exp(-rho^2/(4t)).

    ``rho`` is the (numerical) distance from the region to the modified set
    under the frozen metric.  The slope of log sup-diff against rho^2/(4t)
    is reported; the continuum prediction is -1.
    """
    times = np.asarray(sorted(float(t) for t in times))
    rows = np.asarray(region_rows)
    e = derive_exponents(op_true.grid.params)
    w = op_true.node_weight
    E1 = op_frozen.dense_eig().block(rows, times)
    E2 = op_true.dense_eig().block(rows, times)
    sup = np.abs(E1 - E2).max(axis=(1, 2)) / w
    s = times / rho**2
    ref = (1.0 / piecewise_power(s, e.D / 2.0, e.Dp / 2.0)) * np.sqrt(s) * np.exp(-1.0 / (4.0 * s))
    expo = rho**2 / (4.0 * times)
    good = sup > 0
    if good.sum() >= 2:
        slope = float(np.polyfit(expo[good], np.log(sup[good]), 1)[0])
    else:
        slope = float("nan")
    return ComparisonReport(times=times, sup_diff=sup, reference=ref, slope_vs_exponent=slope)


def separation_check(op_n: DivergenceFormOperator, op_d: DivergenceFormOperator, t: float,
                     rows) -> tuple[float, np.ndarray]:
    """Dirichlet/Neumann comparison and the cross kernel on one grid.

    ``op_n`` / ``op_d`` are the Neumann and ``dirichlet_origin`` operators of
    one grid, and ``rows`` are source rows of ``op_d``.  Returns the gap
    max |K_Dir - K_Neu| over the sources and the Dirichlet nodes, and the
    Neumann kernel's values K_t(x; y) at every x across x1 = 0 from each
    source y, concatenated.
    """
    if op_n.grid.params.n != 1:
        raise ValueError("separation checks require n = 1")
    # Dirichlet drops the x1 = 0 plane: its rows are the other Neumann rows
    idx = np.searchsorted(op_n.kept, op_d.kept)
    if op_n.grid != op_d.grid or not np.array_equal(op_n.kept[idx], op_d.kept):
        raise ValueError("the Dirichlet operator must share the Neumann operator's grid")
    x1 = op_n.coords()[:, 0]
    gap, cross = 0.0, []
    for j in rows:
        k_n = heat_kernel(op_n, idx[j], t)
        k_d = heat_kernel(op_d, j, t)
        gap = max(gap, float(np.abs(k_n.values[idx] - k_d.values).max()))
        cross.append(k_n.values[x1 * x1[idx[j]] < 0])
    return gap, np.concatenate(cross)
