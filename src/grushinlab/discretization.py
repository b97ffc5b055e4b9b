"""Finite-volume discretization of the degenerate Dirichlet form.

Uniform tensor grids on [-L, L]^(n+m) with the origin exactly on a node,
divergence-form operator matrices built from *harmonic* face averages of the
coefficient, and the boundary variants used in the experiments: Neumann
truncation (conservative), Dirichlet elimination of the degeneracy set
{x1 = 0}, and half-line restrictions.

Harmonic averaging is the load-bearing choice: the conductance of a face is

    g = h^{-2} * [ (1/h) * integral of c^{-1} along the face ]^{-1}

so a face whose segment touches {x1 = 0} with a non-integrable c^{-1}
(delta1 >= 1/2 in one dimension) gets conductance exactly zero.  The discrete
operator then decouples across the degeneracy set, reproducing the weak/strong
separation dichotomy of the continuum operator without any ad-hoc switch.

Because every coefficient depends on |x1| only, every assembled operator is
a Kronecker sum  A = A1 (x) I + sum_j diag(g2_j) (x) L2_j  with L2_j the unit
Neumann path Laplacian of x2 axis j.  Assembly therefore integrates the x1
block only: the x1 faces give the fiber operator A1, each x2 face has
conductance g2_j = c2(|x1|) / h_j^2 at its x1 node, and the matrix is built
from these factors, which the operator keeps (``fiber``).  Every entry is a
per-x1 value broadcast over x2, so the matrix is written straight into CSR
(``_csr``), a block of whole x1 rows at a time: the block's rows are a
dense stencil of slots (neighbour directions and the diagonal), the same
on every x1 row but a few, which compresses into the CSR arrays, without
COO triples of the whole matrix.  The exact spectrum, ``FiberSpectrum(op)``,
is constructed from the operator's factors without reading the matrix
back: orthonormal cosine vectors along x2 times the eigenpairs of one small
x1 fiber per x2 mode, each connected component of A1 factored when a read
first needs it; an n = 1 fiber that equals its x1 mirror image exactly is
factored as its even and odd halves, each tridiagonal solve by LAPACK's
``stevd`` (``_stevd``).  One enumeration, ``_starts``, gives the nodes p
whose neighbour p + off is on the grid, for assembly's faces and the metric
graph's edges alike.  A segment's |x1|^2 is fixed by its x1
start (:func:`segment_quadratic`), so the metric graph integrates its edges
once per x1 start as well and fills its CSR the same way.

Assembled operators are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.sparse.csgraph import connected_components

from .coefficients import CoefficientField, GrusinParameters, _as_int, _is_real
from .quadrature import segment_integrals

__all__ = [
    "CapacityError",
    "Grid",
    "DivergenceFormOperator",
    "FiberSpectrum",
    "build_grid",
    "face_conductance",
    "segment_quadratic",
    "assemble",
    "form_value",
    "BOUNDARY_MODES",
]

BOUNDARY_MODES = (
    "neumann_truncation",
    "dirichlet_origin",
    "half_line_positive",
)


class CapacityError(RuntimeError):
    """A solver guard was exceeded: the storage ceiling, a heat or wave
    Chebyshev series length, or a decay stage's sup at or below the series
    tolerance over the node weight (seen only once the stage is solved)."""


# The factored spectrum stores n2 * n1^2 floats, at most MAX_EXACT_DIMENSION^2.
MAX_EXACT_DIMENSION = 4500


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on prod_i [-L_i, L_i] with odd node counts.

    The first ``params.n`` axes form the x1 block, the rest the x2 block.
    Node counts are odd so that 0 is a node on every axis; spacings are
    h_i = 2 L_i / (count_i - 1) and the cell measure is prod_i h_i.
    """

    params: GrusinParameters
    extents: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.extents) != self.params.dim or len(self.counts) != self.params.dim:
            raise ValueError("extents/counts must have one entry per axis")
        for L in self.extents:
            if not L > 0:
                raise ValueError(f"extent must be positive, got {L}")
        for c in self.counts:
            if c < 3 or c % 2 == 0:
                raise ValueError(f"node counts must be odd and >= 3, got {c}")

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2.0 * L / (c - 1) for L, c in zip(self.extents, self.counts))

    @property
    def node_weight(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    def axis(self, i: int) -> np.ndarray:
        """Coordinates along axis i; antisymmetric with an exact 0."""
        half = np.arange(1, (self.counts[i] - 1) // 2 + 1) * self.spacings[i]
        return np.concatenate([-half[::-1], [0.0], half])

    def axes(self) -> list[np.ndarray]:
        return [self.axis(i) for i in range(self.dim)]

    def coords(self, flat_indices=None) -> np.ndarray:
        """(N, dim) coordinate array for the given flat indices (all nodes
        in C order when omitted)."""
        if flat_indices is None:
            flat_indices = np.arange(self.n_nodes)
        multi = np.unravel_index(np.asarray(flat_indices), self.counts)
        cols = [self.axis(i)[multi[i]] for i in range(self.dim)]
        return np.stack(cols, axis=-1)

    def as_point(self, point) -> np.ndarray:
        """``point`` as an array of its coordinates; a ValueError unless it
        is a list of one number (a bool is not one) per axis."""
        coords = point if isinstance(point, (list, tuple, np.ndarray)) else [point]
        if not all(map(_is_real, coords)):
            raise ValueError(f"point {point!r} is not a list of numbers")
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates")
        return point

    def flat_index(self, point) -> tuple[int, float]:
        """Nearest node to ``point`` as a flat index, plus the snap distance;
        a ValueError if that node is off the grid (more than half a cell out)."""
        point = self.as_point(point)
        idx = []
        snapped = []
        for i, x in enumerate(point):
            k = round((x + self.extents[i]) / self.spacings[i])
            if not 0 <= k < self.counts[i]:
                raise ValueError(f"point {point.tolist()} lies off the grid on axis {i}: "
                                 f"more than half a cell outside +-{self.extents[i]}")
            idx.append(k)
            snapped.append(self.axis(i)[k])
        flat = int(np.ravel_multi_index(tuple(idx), self.counts))
        snap = float(np.linalg.norm(np.asarray(snapped) - point))
        return flat, snap


def build_grid(params: GrusinParameters, extents, counts) -> Grid:
    """Build a uniform grid; scalar extents/counts broadcast to every axis.
    An extent that is not a number, or a count that is not a positive
    integer, is a ValueError naming it."""
    d = params.dim
    extents = (extents,) * d if np.isscalar(extents) else tuple(extents)
    counts = (counts,) * d if np.isscalar(counts) else tuple(counts)
    for L in extents:
        if not _is_real(L):
            raise ValueError(f"extents must be a number, got {L!r}")
    return Grid(params=params, extents=tuple(float(L) for L in extents),
                counts=tuple(_as_int("counts", c, positive=True) for c in counts))


def _starts(counts, off) -> np.ndarray:
    """C-ordered flat indices of the nodes p of a grid of ``counts`` nodes
    whose neighbour p + off (integer offset, in grid spacings) is on the
    grid too; [0] for no axes."""
    idx = np.arange(int(np.prod(counts))).reshape(counts)
    return np.ravel(idx[tuple(slice(max(0, -o), max(0, c - o)) for c, o in zip(counts, off))])


def segment_quadratic(grid: Grid, off1) -> tuple:
    """Straight segments from every x1 node p with p + off1 on the grid to
    p + off1 (integer offset ``off1`` on the x1 axes, in grid spacings).

    Returns the coefficients of |x1(s)|^2 = qa s^2 + qb s + qc, s in [0, 1],
    each shaped like the block of x1 starts (``_starts`` in C order).  The
    x1 start alone fixes the quadratic, so one block serves every x2 start
    alike.
    """
    n = grid.params.n
    v = np.asarray(off1) * np.asarray(grid.spacings[:n])
    qb, qc = 0.0, 0.0
    for i in range(n):
        x = grid.axis(i)[_starts(grid.counts[i:i + 1], off1[i:i + 1])]
        sh = [1] * n
        sh[i] = x.size
        qc = qc + (x**2).reshape(sh)
        qb = qb + (2.0 * v[i] * x).reshape(sh)
    shape = np.shape(qc)
    qa = np.full(shape, float(np.sum(v**2)))
    return qa, np.broadcast_to(qb, shape), np.broadcast_to(qc, shape)


def _conductances(coeffs: CoefficientField, block: int, h: float, qa, qb, qc):
    """h^{-2} over the mean of c_block^{-1} along each segment (parametrized
    on [0, 1]); exactly 0 where that mean diverges."""
    def inv_c(r):
        with np.errstate(divide="ignore"):
            return 1.0 / coeffs.block(block, r)

    mean_inv = segment_integrals(qa, qb, qc, inv_c, 2.0 * coeffs.singular_exponent(block))
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(mean_inv), 1.0 / (h * h * mean_inv), 0.0)


def face_conductance(coeffs: CoefficientField, axis: int, start, h: float) -> float:
    """Conductance of the face from ``start`` to ``start + h e_axis``.

    Harmonic average of the block coefficient over the connecting segment,
    divided by h^2.  Returns exactly 0.0 when the integral of c^{-1}
    diverges (strong degeneracy straddling {x1 = 0}).
    """
    start = np.asarray(start, dtype=float)
    n = coeffs.params.n
    if not 0 <= axis < coeffs.params.dim:
        raise ValueError("axis out of range")
    x1 = start[:n]
    if axis < n:
        qa, qb, block = h * h, 2.0 * x1[axis] * h, 1
    else:
        qa, qb, block = 0.0, 0.0, 2
    return float(_conductances(coeffs, block, h, qa, qb, float(x1 @ x1)))


def _cosine_basis(count: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C[i, k]; column k is the eigenvector of the
    unit Neumann path Laplacian on ``count`` nodes for 4 sin^2(pi k / (2 count))."""
    C = np.cos(np.pi * np.outer(np.arange(count) + 0.5, np.arange(count)) / count)
    C *= np.sqrt(2.0 / count)
    C[:, 0] = np.sqrt(1.0 / count)
    return C


def _along_x2(V: np.ndarray, mats) -> np.ndarray:
    """Contract axis 1 + j of V (shape (n1, *x2 counts)) with the rows of mats[j]."""
    for j, M in enumerate(mats):
        V = np.moveaxis(np.tensordot(V, M, axes=([1 + j], [0])), -1, 1 + j)
    return V


class FiberSpectrum:
    """Exact spectrum of A = A1 (x) I + sum_j diag(g2_j) (x) L2_j, factored
    from the factors (A1, g2) an assembled operator keeps (``op.fiber``).

    Operator rows are ordered (x1 node a, x2 node i2), row = a * n2 + i2.
    The eigenvectors are orthonormal cosine vectors along the x2 axes
    (``cosines[j][i, k]``) times, for each x2 mode k, the eigenvectors of the
    x1 fiber A1 + diag(sum_j nu_{k_j} g2_j).  Each fiber is diagonalized on
    every connected component of A1's coupling separately (``components``
    holds their sorted x1 rows), and every evaluation works per component
    slice, so decoupled components never mix (their cross-kernel is exactly
    zero).  A component is factored on its first read (``_eigenpairs``),
    into lam (n2, s) and Phi (n2, s, s); column l of Phi[k] is the
    eigenvector of lam[k, l], in no set order.  ``apply`` skips a component
    its input does not touch (the result there is +0.0), ``block`` factors
    only the components its rows meet, and ``diagonal`` and ``blocks``
    factor them all.  For n = 1 the fibers are tridiagonal and each is
    factored by :func:`_fiber_eigh`, which splits one that equals its
    mirror image exactly (those of every delta1 = 0 Neumann operator) into
    its even and odd halves; for n > 1 a component's fibers are stacked and
    factored by one ``np.linalg.eigh``.
    """

    def __init__(self, op: DivergenceFormOperator):
        self.n1, self.n2 = op.fiber_shape
        self.x2_counts = tuple(op.grid.counts[op.grid.params.n:])
        self.cosines = tuple(_cosine_basis(c) for c in self.x2_counts)
        self._tridiagonal = op.grid.params.n == 1
        self._A1 = op.fiber[0]
        self._D = _mode_diagonals(op)
        ncomp, labels = connected_components(self._A1 != 0.0, directed=False)
        order = np.argsort(labels, kind="stable")
        self.components = tuple(np.split(order, np.cumsum(np.bincount(labels, minlength=ncomp))[:-1]))
        self._factors = {}

    def _eigenpairs(self, c: int) -> tuple:
        """(lam, Phi) of component c, factored on its first read."""
        if c not in self._factors:
            rows = self.components[c]
            s = rows.size
            if self._tridiagonal:  # a component is a run of consecutive rows
                lam, Phi = np.empty((self.n2, s)), np.empty((self.n2, s, s))
                e = self._A1.diagonal(1)[rows[:-1]]
                for k in range(self.n2):
                    lam[k] = _fiber_eigh(self._D[k, rows], e, Phi[k])
            else:
                stack = np.repeat(self._A1[rows][:, rows].toarray()[None], self.n2, axis=0)
                stack[:, np.arange(s), np.arange(s)] = self._D[:, rows]
                lam, Phi = np.linalg.eigh(stack)
            self._factors[c] = lam, Phi
        return self._factors[c]

    @property
    def blocks(self) -> tuple:
        """Every component as (x1 rows, lam, Phi), all of them factored."""
        return tuple((rows, *self._eigenpairs(c)) for c, rows in enumerate(self.components))

    def _grid(self, W: np.ndarray) -> np.ndarray:
        return W.reshape((self.n1,) + self.x2_counts)

    def apply(self, v: np.ndarray, t: float) -> np.ndarray:
        """exp(-tA) v."""
        W = _along_x2(self._grid(v), self.cosines).reshape(self.n1, -1)
        out = np.zeros_like(W)
        for c, rows in enumerate(self.components):
            w = W[rows]
            if not w.any():
                continue
            lam, Phi = self._eigenpairs(c)
            coef = (w.T[:, None, :] @ Phi)[:, 0, :] * np.exp(-t * lam)
            out[rows] = (Phi @ coef[:, :, None])[:, :, 0].T
        return _along_x2(self._grid(out), [C.T for C in self.cosines]).ravel()

    def diagonal(self, times) -> np.ndarray:
        """Diagonal of exp(-tA) per time, shape (len(times), n_nodes):
        sum_k C[i2, k]^2 sum_l Phi_k[a, l]^2 exp(-t lam_kl)."""
        times = np.asarray(times, dtype=float)
        D = np.empty((len(times), self.n1, self.n2))
        for rows, lam, Phi in self.blocks:
            decay = np.exp(-lam[:, :, None] * times)              # (n2, s, T)
            D[:, rows] = ((Phi * Phi) @ decay).transpose(2, 1, 0)
        squares = [(C * C).T for C in self.cosines]
        return np.stack([_along_x2(self._grid(d), squares).ravel() for d in D])

    def block(self, rows, times) -> np.ndarray:
        """exp(-tA)[rows][:, rows] per time, shape (len(times), R, R), formed
        from the factors as P exp(-t lam) P^T."""
        rows = np.asarray(rows, dtype=int)
        a, i2 = np.divmod(rows, self.n2)
        modes = np.ones((rows.size, 1))
        if self.cosines:
            for C, i in zip(self.cosines, np.unravel_index(i2, self.x2_counts)):
                modes = (modes[:, :, None] * C[i][:, None, :]).reshape(
                    rows.size, modes.shape[1] * C.shape[1])
        out = np.zeros((len(times), rows.size, rows.size))
        for c, x1_rows in enumerate(self.components):
            sel = np.nonzero(np.isin(a, x1_rows))[0]
            if sel.size == 0:
                continue
            lam, Phi = self._eigenpairs(c)
            local = np.searchsorted(x1_rows, a[sel])
            P = (Phi[:, local, :] * modes[sel].T[:, :, None]).transpose(1, 0, 2)
            P = P.reshape(sel.size, -1)
            for q, t in enumerate(times):
                out[q][np.ix_(sel, sel)] = (P * np.exp(-t * lam).ravel()) @ P.T
        return out


def _mode_diagonals(op: DivergenceFormOperator) -> np.ndarray:
    """Diagonal of the x1 fiber of every x2 mode k, shape (n2, n1): A1's
    diagonal plus sum_j nu_{k_j} g2_j, nu the unit Neumann path eigenvalues."""
    x2_counts = tuple(op.grid.counts[op.grid.params.n:])
    n1, n2 = op.fiber_shape
    A1, g2 = op.fiber

    # mode k of the x2 axes shifts fiber row a by sum_j nu_{k_j} g2_j[a]
    shift = np.zeros((n2, n1))
    for j, (c, g) in enumerate(zip(x2_counts, g2)):
        nu = 4.0 * np.sin(np.pi * np.arange(c) / (2.0 * c)) ** 2
        shape = [1] * len(x2_counts)
        shape[j] = c
        shift += np.outer(np.broadcast_to(nu.reshape(shape), x2_counts).ravel(), g)

    # each fiber's diagonal is that of the x2-corner rows (x2 index 0, one
    # forward face per x2 axis) less those faces, rounded as the matrix sums it
    d = A1.diagonal()
    for g in g2:
        d = d + g
    for g in reversed(g2):
        d = d - g
    return d + shift


def _stevd(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e, by LAPACK's ``stevd`` (the
    routine and arguments scipy's ``eigh_tridiagonal(d, e)`` uses for a full
    spectrum, named here so that the bytes do not rest on its default); a
    1-node matrix is its own eigenpair, as there."""
    if d.size == 1:
        return d.copy(), np.ones((1, 1))
    stevd, = get_lapack_funcs(("stevd",), (d, e))
    lam, vecs, info = stevd(d, e, compute_v=1)
    if info:
        raise LinAlgError(f"stevd failed on a {d.size}-node fiber (info = {info})")
    return lam, vecs


def _fiber_eigh(d: np.ndarray, e: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal fiber with diagonal d and off-diagonal
    e; its orthonormal eigenvectors are written into the columns of Phi.

    A fiber of odd length s = 2h + 1 >= 3 that equals its reversal exactly
    commutes with the mirror i -> s - 1 - i and splits into an even and an
    odd half (Cantoni & Butler 1976): the even half on nodes 0..h, with the
    coupling to the middle node h scaled by sqrt 2, and the odd half on nodes
    0..h-1.  Their eigenvectors, mirrored (the odd ones with a sign flip and
    a zero middle), fill the even columns, then the odd ones.  Any other
    fiber is factored whole.  Each factorization is one ``_stevd``.
    """
    s = d.size
    h = s // 2
    if s < 3 or s % 2 == 0 or not (np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])):
        lam, Phi[...] = _stevd(d, e)
        return lam
    coupling = e[:h].copy()
    coupling[-1] *= np.sqrt(2.0)
    lam_even, even = _stevd(d[:h + 1], coupling)
    lam_odd, odd = _stevd(d[:h], e[:h - 1])
    np.multiply(even[:h], np.sqrt(0.5), out=Phi[:h, :h + 1])
    Phi[h, :h + 1] = even[h]
    np.multiply(odd, np.sqrt(0.5), out=Phi[:h, h + 1:])
    Phi[h, h + 1:] = 0.0
    Phi[h + 1:, :h + 1] = Phi[h - 1::-1, :h + 1]
    np.negative(Phi[h - 1::-1, h + 1:], out=Phi[h + 1:, h + 1:])
    return np.concatenate([lam_even, lam_odd])


@dataclass
class DivergenceFormOperator:
    """Sparse symmetric PSD matrix of the discrete Dirichlet form.

    ``matrix`` is the face sum  A = sum_f g_f (e_i - e_j)(e_i - e_j)^T
    restricted to the kept nodes; it is also the generator of the heat
    semigroup exp(-tA) with respect to the (uniform) weighted inner product.
    ``kept`` maps operator rows to flat grid indices.  ``fiber`` holds the
    factors the matrix is built from, (A1, g2): A1 is the x1 fiber operator
    on the kept x1 nodes (sparse) and g2[j] the x2-axis-j face conductance
    c2(|x1|) / h_j^2 per kept x1 node, so that
    A = A1 (x) I + sum_j diag(g2[j]) (x) L2_j.
    """

    matrix: sp.csr_matrix
    grid: Grid
    coeffs: CoefficientField
    boundary: str
    kept: np.ndarray
    node_weight: float
    fiber: tuple
    _eig: FiberSpectrum | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def coords(self) -> np.ndarray:
        return self.grid.coords(self.kept)

    def node_index(self, point) -> int:
        """Operator row of the grid node nearest to ``point``; a ValueError
        if the boundary removed that node."""
        flat, _ = self.grid.flat_index(point)
        row = int(np.searchsorted(self.kept, flat))  # kept is sorted
        if row == self.kept.size or self.kept[row] != flat:
            raise ValueError(f"point {np.asarray(point, dtype=float).tolist()} resolves to a "
                             f"node the {self.boundary!r} boundary removed")
        return row

    @property
    def fiber_shape(self) -> tuple[int, int]:
        """(n1, n2): kept x1 nodes and x2 nodes; row = x1 index * n2 + x2 index."""
        n2 = int(np.prod(self.grid.counts[self.grid.params.n:]))
        return self.n_nodes // n2, n2

    def dense_eig(self) -> FiberSpectrum:
        """Exact spectrum of the operator in factored form.  Cached.

        Raises CapacityError when its n2 * n1^2 floats exceed
        MAX_EXACT_DIMENSION^2 (for m = 0: n_nodes > MAX_EXACT_DIMENSION), on
        every call: a cached spectrum does not lift the ceiling.
        """
        n1, n2 = self.fiber_shape
        if n2 * n1 * n1 > MAX_EXACT_DIMENSION * MAX_EXACT_DIMENSION:
            raise CapacityError(
                f"exact spectrum of {n2} fibers of {n1} x1 nodes stores "
                f"{n2 * n1 * n1} floats > {MAX_EXACT_DIMENSION}^2"
            )
        if self._eig is None:
            self._eig = FiberSpectrum(self)
        return self._eig


def _kept_x1(grid: Grid, boundary: str, r2: np.ndarray) -> np.ndarray:
    """Mask of the kept x1 nodes (shape: the x1 counts); r2 = |x1|^2."""
    if boundary == "neumann_truncation":
        return np.ones(r2.shape, dtype=bool)
    if boundary == "dirichlet_origin":
        return r2 > 0.0
    if boundary == "half_line_positive":
        if grid.params.n != 1:
            raise ValueError("half-line boundaries require n = 1")
        return grid.axis(0) >= 0.0
    raise ValueError(f"unknown boundary mode {boundary!r}; expected one of {BOUNDARY_MODES}")


# Stencil cells (x1 rows x n2 x slots) that ``_csr`` fills at once: its
# scratch of about 30 bytes a cell stays under 2 MB.
_CSR_CELLS = 1 << 16


def _csr(shape, slots) -> sp.csr_matrix:
    """Square CSR matrix on n1 * n2 rows (row = x1 index * n2 + x2 index),
    written a block of whole x1 rows at a time.

    A slot (r1, r2, step, vals) gives every row r1[a] * n2 + r2[i] one entry,
    at column row + step with value vals; r1 and r2 ascend without repeats,
    step is a scalar or one value per r1 entry, and vals is a scalar, one
    value per r1 entry, or an (n1, n2) array for a slot on every row.  The
    rows of slot s are the outer product of an x1 mask and an x2 mask, so a
    block's rows, in CSR order, are a dense (rows, n2, slots) stencil.  Its
    mask (the x2 masks) and columns (each slot's first step) are the same
    on every x1 row but a few (``odd``: a slot missing, or a step other than
    its first), which are then corrected; the values are each x1 row's,
    broadcast over x2.  The mask compresses the stencil straight into the
    block's stretch of the CSR arrays.  With the slots in column order the
    result is canonical.
    """
    n1, n2 = shape
    size, count = n1 * n2, len(slots)
    nnz = sum(len(r1) * len(r2) for r1, r2, _, _ in slots)
    idx = np.int32 if max(nnz, size) <= np.iinfo(np.int32).max else np.int64
    # column s: slot s's x1 and x2 masks, its first step, each x1 row's
    # step less that one, and each x1 row's value
    in1, in2 = np.zeros((n1, count), dtype=bool), np.zeros((n2, count), dtype=bool)
    common, shift = np.zeros(count, dtype=idx), np.zeros((n1, count), dtype=idx)
    vals, wide = np.zeros((n1, count)), []
    for s, (r1, r2, step, val) in enumerate(slots):
        in1[r1, s] = True
        in2[r2, s] = True
        if np.ndim(step):
            step = np.ravel(step)
            common[s] = step[0] if step.size else 0
            shift[r1, s] = step - common[s]
        else:
            common[s] = step
        if np.ndim(val) == 2 and np.shape(val)[1] > 1:
            wide.append((s, val))
        else:
            vals[r1, s] = np.ravel(val)
    odd = ~in1.all(axis=1) | shift.any(axis=1)
    rows = max(1, min(n1, _CSR_CELLS // max(1, n2 * count)))
    regular = np.arange(rows * n2, dtype=idx).reshape(rows, n2, 1) + common
    per_row = in2.sum(axis=1, dtype=idx)
    mask, cols = np.empty((rows, n2, count), dtype=bool), np.empty((rows, n2, count), dtype=idx)
    counts = np.empty((rows, n2), dtype=idx)
    indptr = np.empty(size + 1, dtype=idx)
    indptr[0] = 0
    indices, data = np.empty(nnz, dtype=idx), np.empty(nnz)
    at = 0
    for a0 in range(0, n1, rows):
        b = min(rows, n1 - a0)
        m, c, k = mask[:b], cols[:b], counts[:b]
        m[...] = in2
        np.add(regular[:b], a0 * n2, out=c)
        k[...] = per_row
        d = np.flatnonzero(odd[a0:a0 + b])
        if d.size:
            m[d] &= in1[a0 + d, None, :]
            c[d] += shift[a0 + d, None, :]
            k[d] = m[d].sum(axis=2, dtype=idx)
        ends = indptr[a0 * n2 + 1:(a0 + b) * n2 + 1]
        np.cumsum(k.ravel(), out=ends)
        ends += at
        end = int(ends[-1])
        indices[at:end] = c[m]
        v = np.repeat(vals[a0:a0 + b], n2, axis=0).reshape(b, n2, count)
        for s, val in wide:
            v[:, :, s] = val[a0:a0 + b]
        data[at:end] = v[m]
        at = end
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def assemble(grid: Grid, coeffs: CoefficientField, boundary: str = "neumann_truncation") -> DivergenceFormOperator:
    """Assemble the divergence-form operator for the requested boundary mode.

    Faces with both endpoints kept enter symmetrically; for
    ``dirichlet_origin`` a face into an eliminated node keeps its diagonal
    contribution (the eliminated value is pinned to zero), while the
    half-line truncations drop such faces entirely (natural restriction of
    the form, which preserves zero row sums).

    The matrix is the Kronecker sum of the factors (A1, g2), written into
    CSR by ``_csr`` from one slot per neighbour direction and one for the
    diagonal, each diagonal entry summed face by face, axis by axis.
    """
    if coeffs.params != grid.params:
        raise ValueError("grid and coefficient field disagree on parameters")
    n = grid.params.n
    x1_counts, x2_counts = grid.counts[:n], grid.counts[n:]
    n2 = int(np.prod(x2_counts))
    qa, qb, r2 = segment_quadratic(grid, np.zeros(n, dtype=np.int64))
    keep = _kept_x1(grid, boundary, r2).ravel()
    kept1 = np.nonzero(keep)[0]
    n1 = kept1.size
    new_index = -np.ones(keep.size, dtype=np.int64)
    new_index[kept1] = np.arange(n1)

    # x1 neighbours as (rows, column - row, value); the lower ones in axis
    # order and the upper ones in reverse, which is column order in every row
    lower, upper = [], []
    diag = np.zeros(n1)
    for axis, off in enumerate(np.eye(n, dtype=np.int64)):
        gf = _conductances(coeffs, 1, grid.spacings[axis], *segment_quadratic(grid, off)).ravel()
        live = gf > 0.0
        i, gf = _starts(x1_counts, off)[live], gf[live]
        j = i + int(np.prod(x1_counts[axis + 1:]))
        ki, kj = new_index[i], new_index[j]
        both = (ki >= 0) & (kj >= 0)
        np.add.at(diag, ki[both], gf[both])
        np.add.at(diag, kj[both], gf[both])
        lower.append((kj[both], ki[both] - kj[both], -gf[both]))
        upper.insert(0, (ki[both], kj[both] - ki[both], -gf[both]))
        if boundary == "dirichlet_origin":
            into_i = (ki >= 0) & (kj < 0)
            into_j = (kj >= 0) & (ki < 0)
            np.add.at(diag, ki[into_i], gf[into_i])
            np.add.at(diag, kj[into_j], gf[into_j])
    q_kept = [q.ravel()[kept1] for q in (qa, qb, r2)]
    g2 = tuple(_conductances(coeffs, 2, grid.spacings[n + j], *q_kept) for j in range(grid.params.m))

    def kron_sum(x2, diagonal, x2_lower=(), x2_upper=()):
        # the x1 neighbours, broadcast over the x2 nodes x2, outside the x2 ones
        x1_lower, x1_upper = ([(r, x2, d[:, None] * x2.size, v[:, None]) for r, d, v in faces]
                              for faces in (lower, upper))
        return _csr((n1, x2.size), [*x1_lower, *x2_lower, (np.arange(n1), x2, 0, diagonal),
                                    *x2_upper, *x1_upper])

    A1 = kron_sum(np.zeros(1, dtype=np.int64), diag[:, None])
    # A = A1 (x) I + sum_j diag(g2_j) (x) L2_j, row = x1 index * n2 + x2 index
    x2 = np.arange(n2)
    x2_lower, x2_upper = [], []
    full = np.broadcast_to(diag[:, None], (n1, n2))
    for j, g in enumerate(g2):
        lo = _starts(x2_counts, np.eye(len(g2), dtype=np.int64)[j])
        stride = int(np.prod(x2_counts[j + 1:]))
        hi = lo + stride
        live = np.nonzero(g > 0.0)[0]
        x2_lower.append((live, hi, -stride, -g[live, None]))
        x2_upper.insert(0, (live, lo, stride, -g[live, None]))
        # each node adds its forward face, then its backward face
        full = full + np.outer(g, np.isin(x2, lo)) + np.outer(g, np.isin(x2, hi))
    A = kron_sum(x2, full, x2_lower, x2_upper) if g2 else A1
    return DivergenceFormOperator(
        matrix=A,
        grid=grid,
        coeffs=coeffs,
        boundary=boundary,
        kept=(kept1[:, None] * n2 + x2).ravel(),
        node_weight=grid.node_weight,
        fiber=(A1, g2),
    )


def form_value(op: DivergenceFormOperator, u) -> float:
    """Discrete Dirichlet form, normalized to approximate the integral of
    c |grad u|^2."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n_nodes,):
        raise ValueError(f"vector length {u.shape} does not match {op.n_nodes} nodes")
    return float(op.node_weight * (u @ (op.matrix @ u)))
