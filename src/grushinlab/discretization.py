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
Neumann path Laplacian of x2 axis j.  Its exact spectrum is therefore
factored (:class:`FiberSpectrum`): orthonormal cosine vectors along x2 times
the eigenpairs of one small x1 fiber per x2 mode.

Assembled operators are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.csgraph import connected_components

from .coefficients import CoefficientField, GrusinParameters
from .quadrature import segment_integrals

__all__ = [
    "CapacityError",
    "FactorizationError",
    "Grid",
    "DivergenceFormOperator",
    "FiberSpectrum",
    "build_grid",
    "face_conductance",
    "assemble",
    "form_value",
    "BOUNDARY_MODES",
]

BOUNDARY_MODES = (
    "neumann_truncation",
    "dirichlet_origin",
    "half_line_positive",
    "half_line_negative",
)


class CapacityError(RuntimeError):
    """A method guard (storage ceiling, heat or wave Chebyshev series length) was exceeded."""


class FactorizationError(ValueError):
    """The operator matrix is not the Kronecker sum the fiber factorization
    reads off it."""


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

    def block1_radius_sq(self) -> np.ndarray:
        """|x1|^2 on the full grid shape (broadcast sum over the x1 axes)."""
        n = self.params.n
        out = np.zeros(self.counts)
        for i in range(n):
            shape = [1] * self.dim
            shape[i] = self.counts[i]
            out = out + (self.axis(i) ** 2).reshape(shape)
        return out

    def coords(self, flat_indices=None) -> np.ndarray:
        """(N, dim) coordinate array for the given flat indices (all nodes
        in C order when omitted)."""
        if flat_indices is None:
            flat_indices = np.arange(self.n_nodes)
        multi = np.unravel_index(np.asarray(flat_indices), self.counts)
        cols = [self.axis(i)[multi[i]] for i in range(self.dim)]
        return np.stack(cols, axis=-1)

    def flat_index(self, point) -> tuple[int, float]:
        """Nearest node to ``point`` as a flat index, plus the snap distance."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates")
        idx = []
        snapped = []
        for i, x in enumerate(point):
            ax = self.axis(i)
            k = int(np.clip(round((x + self.extents[i]) / self.spacings[i]), 0, self.counts[i] - 1))
            idx.append(k)
            snapped.append(ax[k])
        flat = int(np.ravel_multi_index(tuple(idx), self.counts))
        snap = float(np.linalg.norm(np.asarray(snapped) - point))
        return flat, snap


def build_grid(params: GrusinParameters, extents, counts) -> Grid:
    """Build a uniform grid; scalar extents/counts broadcast to every axis."""
    d = params.dim
    if np.isscalar(extents):
        extents = (float(extents),) * d
    else:
        extents = tuple(float(L) for L in extents)
    if np.isscalar(counts):
        counts = (int(counts),) * d
    else:
        counts = tuple(int(c) for c in counts)
    return Grid(params=params, extents=extents, counts=counts)


def _face_integral(coeffs: CoefficientField, block: int, qa, qb, qc):
    """Mean of c_block^{-1} over segments parametrized on [0, 1]."""
    profile = coeffs.block(block)

    def inv_c(r):
        with np.errstate(divide="ignore"):
            return 1.0 / profile(r)

    sing = 2.0 * coeffs.singular_exponent(block)
    return segment_integrals(qa, qb, qc, inv_c, sing)


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
        qa, qb, qc = h * h, 2.0 * x1[axis] * h, float(x1 @ x1)
        block = 1
    else:
        qa, qb, qc = 0.0, 0.0, float(x1 @ x1)
        block = 2
    mean_inv = float(_face_integral(coeffs, block, qa, qb, qc))
    if not np.isfinite(mean_inv):
        return 0.0
    return 1.0 / (h * h * mean_inv)


def _axis_face_conductances(grid: Grid, coeffs: CoefficientField, axis: int) -> np.ndarray:
    """Conductances of all faces along ``axis`` (shape: counts with
    counts[axis]-1 on that axis)."""
    n = grid.params.n
    h = grid.spacings[axis]
    r2 = grid.block1_radius_sq()
    sl = [slice(None)] * grid.dim
    sl[axis] = slice(0, grid.counts[axis] - 1)
    qc = r2[tuple(sl)]
    if axis < n:
        shape = [1] * grid.dim
        shape[axis] = grid.counts[axis] - 1
        x_start = grid.axis(axis)[:-1].reshape(shape)
        qa = np.full_like(qc, h * h)
        qb = 2.0 * h * np.broadcast_to(x_start, qc.shape)
        block = 1
    else:
        qa = np.zeros_like(qc)
        qb = np.zeros_like(qc)
        block = 2
    mean_inv = _face_integral(coeffs, block, qa, qb, qc)
    with np.errstate(divide="ignore"):
        g = 1.0 / (h * h * mean_inv)
    g[~np.isfinite(mean_inv)] = 0.0
    return g


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


@dataclass(frozen=True)
class FiberSpectrum:
    """Exact spectrum of A = A1 (x) I + sum_j diag(g2_j) (x) L2_j, factored.

    Operator rows are ordered (x1 node a, x2 node i2), row = a * n2 + i2.
    The eigenvectors are orthonormal cosine vectors along the x2 axes
    (``cosines[j][i, k]``) times, for each x2 mode k, the eigenvectors of the
    x1 fiber A1 + diag(sum_j nu_{k_j} g2_j).  Each fiber is diagonalized on
    every connected component of A1's coupling separately, and every
    evaluation works per component slice, so decoupled components never mix
    (their cross-kernel is exactly zero).  ``blocks`` holds one
    (x1 rows, lam (n2, s), Phi (n2, s, s)) triple per component.
    """

    n1: int
    x2_counts: tuple
    cosines: tuple
    blocks: tuple

    @property
    def n2(self) -> int:
        return int(np.prod(self.x2_counts))

    def _grid(self, W: np.ndarray) -> np.ndarray:
        return W.reshape((self.n1,) + self.x2_counts)

    def apply(self, v: np.ndarray, t: float) -> np.ndarray:
        """exp(-tA) v."""
        W = _along_x2(self._grid(v), self.cosines).reshape(self.n1, -1)
        out = np.empty_like(W)
        for rows, lam, Phi in self.blocks:
            coef = (W[rows].T[:, None, :] @ Phi)[:, 0, :] * np.exp(-t * lam)
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
        rows = np.asarray(rows)
        a, i2 = np.divmod(rows, self.n2)
        modes = np.ones((rows.size, 1))
        if self.cosines:
            for C, i in zip(self.cosines, np.unravel_index(i2, self.x2_counts)):
                modes = (modes[:, :, None] * C[i][:, None, :]).reshape(rows.size, -1)
        out = np.zeros((len(times), rows.size, rows.size))
        for x1_rows, lam, Phi in self.blocks:
            sel = np.nonzero(np.isin(a, x1_rows))[0]
            if sel.size == 0:
                continue
            local = np.searchsorted(x1_rows, a[sel])
            P = (Phi[:, local, :] * modes[sel].T[:, :, None]).transpose(1, 0, 2)
            P = P.reshape(sel.size, -1)
            for q, t in enumerate(times):
                out[q][np.ix_(sel, sel)] = (P * np.exp(-t * lam).ravel()) @ P.T
        return out


def _path_laplacian(count: int) -> sp.csr_matrix:
    diag = np.full(count, 2.0)
    diag[[0, -1]] = 1.0
    off = -np.ones(count - 1)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


def _factorize(op: DivergenceFormOperator) -> FiberSpectrum:
    """Read A1 and g2_j off the assembled matrix (the x2-index-0 slice and its
    coupling to x2 index e_j), verify the Kronecker sum against the matrix,
    then diagonalize every fiber per component of A1's coupling."""
    n = op.grid.params.n
    x2_counts = tuple(op.grid.counts[n:])
    n1, n2 = op.fiber_shape
    M = op.matrix
    first = np.arange(n1) * n2
    strides = [int(np.prod(x2_counts[j + 1:])) for j in range(len(x2_counts))]
    g2 = [-np.asarray(M[first, first + s]).ravel() for s in strides]
    A1 = M[first][:, first].tocsr()
    d = A1.diagonal()
    for g in reversed(g2):
        d = d - g
    A1.setdiag(d)

    kron = sp.kron(A1, sp.identity(n2))
    for j, g in enumerate(g2):
        L2 = sp.identity(1)
        for i, c in enumerate(x2_counts):
            L2 = sp.kron(L2, _path_laplacian(c) if i == j else sp.identity(c))
        kron = kron + sp.kron(sp.diags(g), L2)
    err = abs(kron - M).max()
    scale = abs(M).max()
    if not err <= 1e-12 * scale:
        raise FactorizationError(
            f"operator is not a Kronecker sum A1 (x) I + diag(g2) (x) L2: "
            f"max deviation {err:.3g} against max entry {scale:.3g}"
        )

    # mode k of the x2 axes shifts fiber row a by sum_j nu_{k_j} g2_j[a]
    shift = np.zeros((n2, n1))
    for j, (c, g) in enumerate(zip(x2_counts, g2)):
        nu = 4.0 * np.sin(np.pi * np.arange(c) / (2.0 * c)) ** 2
        shape = [1] * len(x2_counts)
        shape[j] = c
        shift += np.outer(np.broadcast_to(nu.reshape(shape), x2_counts).ravel(), g)

    ncomp, labels = connected_components(A1 != 0.0, directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = []
    for rows in np.split(order, np.cumsum(np.bincount(labels, minlength=ncomp))[:-1]):
        s = rows.size
        if n == 1:  # tridiagonal fibers; a component is a run of consecutive rows
            lam, Phi = np.empty((n2, s)), np.empty((n2, s, s))
            base, e = A1.diagonal()[rows], A1.diagonal(1)[rows[:-1]]
            for k in range(n2):
                lam[k], Phi[k] = eigh_tridiagonal(base + shift[k, rows], e)
        else:
            stack = np.repeat(A1[rows][:, rows].toarray()[None], n2, axis=0)
            stack[:, np.arange(s), np.arange(s)] += shift[:, rows]
            lam, Phi = np.linalg.eigh(stack)
        blocks.append((rows, lam, Phi))
    return FiberSpectrum(
        n1=n1,
        x2_counts=x2_counts,
        cosines=tuple(_cosine_basis(c) for c in x2_counts),
        blocks=tuple(blocks),
    )


@dataclass
class DivergenceFormOperator:
    """Sparse symmetric PSD matrix of the discrete Dirichlet form.

    ``matrix`` is the face sum  A = sum_f g_f (e_i - e_j)(e_i - e_j)^T
    restricted to the kept nodes; it is also the generator of the heat
    semigroup exp(-tA) with respect to the (uniform) weighted inner product.
    ``kept`` maps operator rows to flat grid indices.
    """

    matrix: sp.csr_matrix
    grid: Grid
    coeffs: CoefficientField
    boundary: str
    kept: np.ndarray
    node_weight: float
    _eig: FiberSpectrum | None = field(default=None, repr=False, compare=False)
    _components: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def coords(self) -> np.ndarray:
        return self.grid.coords(self.kept)

    def node_index(self, point) -> int:
        """Operator row of the kept node nearest to ``point``."""
        flat, _ = self.grid.flat_index(point)
        hits = np.nonzero(self.kept == flat)[0]
        if hits.size:
            return int(hits[0])
        pts = self.coords()
        return int(np.argmin(np.linalg.norm(pts - np.asarray(point, dtype=float), axis=1)))

    def form_value(self, u) -> float:
        return form_value(self, u)

    def components(self):
        """Connected components of the sparsity graph: (count, labels)."""
        if self._components is None:
            ncomp, labels = connected_components(self.matrix, directed=False)
            self._components = (int(ncomp), labels)
        return self._components

    @property
    def fiber_shape(self) -> tuple[int, int]:
        """(n1, n2): kept x1 nodes and x2 nodes; row = x1 index * n2 + x2 index."""
        n2 = int(np.prod(self.grid.counts[self.grid.params.n:]))
        return self.n_nodes // n2, n2

    def fits_exact(self, max_dimension: int) -> bool:
        """Whether the n2 * n1^2 floats of the factored spectrum fit the
        ceiling max_dimension^2 (for m = 0: n_nodes <= max_dimension)."""
        n1, n2 = self.fiber_shape
        return n2 * n1 * n1 <= max_dimension * max_dimension

    def dense_eig(self, max_dimension: int = 4500) -> FiberSpectrum:
        """Exact spectrum of the operator in factored form.  Cached.

        Raises CapacityError when it does not fit (:meth:`fits_exact`) and
        FactorizationError when the matrix is not the Kronecker sum
        A1 (x) I + sum_j diag(g2_j) (x) L2_j.
        """
        if self._eig is None:
            if not self.fits_exact(max_dimension):
                n1, n2 = self.fiber_shape
                raise CapacityError(
                    f"exact spectrum of {n2} fibers of {n1} x1 nodes stores "
                    f"{n2 * n1 * n1} floats > {max_dimension}^2"
                )
            self._eig = _factorize(self)
        return self._eig


def _kept_mask(grid: Grid, boundary: str) -> np.ndarray:
    if boundary == "neumann_truncation":
        return np.ones(grid.counts, dtype=bool)
    if boundary == "dirichlet_origin":
        return grid.block1_radius_sq() > 0.0
    if boundary in ("half_line_positive", "half_line_negative"):
        if grid.params.n != 1:
            raise ValueError("half-line boundaries require n = 1")
        shape = [1] * grid.dim
        shape[0] = grid.counts[0]
        x = grid.axis(0).reshape(shape)
        keep = x >= 0.0 if boundary == "half_line_positive" else x <= 0.0
        return np.broadcast_to(keep, grid.counts).copy()
    raise ValueError(f"unknown boundary mode {boundary!r}; expected one of {BOUNDARY_MODES}")


def assemble(grid: Grid, coeffs: CoefficientField, boundary: str = "neumann_truncation") -> DivergenceFormOperator:
    """Assemble the divergence-form operator for the requested boundary mode.

    Faces with both endpoints kept enter symmetrically; for
    ``dirichlet_origin`` a face into an eliminated node keeps its diagonal
    contribution (the eliminated value is pinned to zero), while the
    half-line truncations drop such faces entirely (natural restriction of
    the form, which preserves zero row sums).
    """
    if coeffs.params != grid.params:
        raise ValueError("grid and coefficient field disagree on parameters")
    keep = _kept_mask(grid, boundary)
    n_keep = int(keep.sum())
    new_index = -np.ones(grid.n_nodes, dtype=np.int64)
    kept_flat = np.nonzero(keep.ravel())[0]
    new_index[kept_flat] = np.arange(n_keep)

    rows, cols, vals = [], [], []
    diag = np.zeros(n_keep)
    for axis in range(grid.dim):
        g = _axis_face_conductances(grid, coeffs, axis)
        sl_lo = [slice(None)] * grid.dim
        sl_hi = [slice(None)] * grid.dim
        sl_lo[axis] = slice(0, grid.counts[axis] - 1)
        sl_hi[axis] = slice(1, grid.counts[axis])
        idx = np.arange(grid.n_nodes).reshape(grid.counts)
        i = idx[tuple(sl_lo)].ravel()
        j = idx[tuple(sl_hi)].ravel()
        gf = g.ravel()
        live = gf > 0.0
        i, j, gf = i[live], j[live], gf[live]
        ki, kj = new_index[i], new_index[j]
        both = (ki >= 0) & (kj >= 0)
        np.add.at(diag, ki[both], gf[both])
        np.add.at(diag, kj[both], gf[both])
        rows.append(ki[both])
        cols.append(kj[both])
        vals.append(-gf[both])
        if boundary == "dirichlet_origin":
            into_i = (ki >= 0) & (kj < 0)
            into_j = (kj >= 0) & (ki < 0)
            np.add.at(diag, ki[into_i], gf[into_i])
            np.add.at(diag, kj[into_j], gf[into_j])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    all_rows = np.concatenate([rows, cols, np.arange(n_keep)])
    all_cols = np.concatenate([cols, rows, np.arange(n_keep)])
    all_vals = np.concatenate([vals, vals, diag])
    mat = sp.coo_matrix((all_vals, (all_rows, all_cols)), shape=(n_keep, n_keep)).tocsr()
    mat.sum_duplicates()
    return DivergenceFormOperator(
        matrix=mat,
        grid=grid,
        coeffs=coeffs,
        boundary=boundary,
        kept=kept_flat,
        node_weight=grid.node_weight,
    )


def form_value(op: DivergenceFormOperator, u) -> float:
    """Discrete Dirichlet form, normalized to approximate the integral of
    c |grad u|^2."""
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n_nodes,):
        raise ValueError(f"vector length {u.shape} does not match {op.n_nodes} nodes")
    return float(op.node_weight * (u @ (op.matrix @ u)))
