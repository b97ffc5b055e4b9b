"""Fourier-multiplier comparison forms: Nash inequalities, sublevel volumes,
Hardy's inequality and the abstract operator inequalities.

The comparison symbol is F(p) = F1(|p1|^2) + F2(|p2|^2) with

    F1(L) = L^(1-delta1p) (1+L)^-(delta1-delta1p)   if delta1 >= delta1p
    F1(L) = L^(1-delta1) + L^(1-delta1p)            if delta1 <= delta1p
    F2(L) = L^alphap (1+L)^(alpha-alphap)

where alpha = (1-delta1)/(1+delta2-delta1) and likewise for the primed
exponents: ``f1(params, L)`` and ``f2(params, L)`` are functions of the
parameters alone, and ``nash_check`` reads them off the operator's grid.
The symbol carries no constant: the domination constant a with
h(phi) >= a f(phi), relating the discrete Dirichlet form to the multiplier
form, is never assumed; it is always fitted on an ensemble of random bumps
and reported.

The half-line (Neumann) variant evaluates the multiplier form through even
reflection onto the symmetric full grid and carries the factor-4 volume term
in its Nash display.

Ensemble members are independent and deterministic given the recorded seed.
Each is a product of one-dimensional bump profiles, and each operator a
Kronecker sum of its kept factors, so ``nash_check`` never forms a member on
the grid: every member's norms, multiplier form and Dirichlet form are exact
sums of products of per-axis quantities (one-dimensional DFTs, the x1 fiber
operator's quadratic form, x2 differences), taken for the whole ensemble in
one pass over (members, count) stacks.
``hardy_check`` solves its eigenproblems on one octant of the box, which is
exact: their lowest eigenvectors are even in every coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from math import gamma as gamma_fn, pi

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from .coefficients import GrusinParameters, _as_int, _count, derive_exponents
from .discretization import DivergenceFormOperator, Grid
from .quadrature import gauss_legendre_01

__all__ = [
    "vf_volume",
    "bump",
    "random_bump_ensemble",
    "nash_check",
    "NashReport",
    "hardy_check",
    "operator_inequality_checks",
]


def f1(params: GrusinParameters, L):
    """Block-1 symbol as a function of L = |p1|^2 (array friendly)."""
    d1, d1p = params.delta1, params.delta1p
    L = np.asarray(L, dtype=float)
    if d1 >= d1p:
        return L ** (1.0 - d1p) * (1.0 + L) ** (-(d1 - d1p))
    return L ** (1.0 - d1) + L ** (1.0 - d1p)


def f2(params: GrusinParameters, L):
    """Block-2 symbol as a function of L = |p2|^2 (array friendly)."""
    e = derive_exponents(params)
    L = np.asarray(L, dtype=float)
    return L**e.alphap * (1.0 + L) ** (e.alpha - e.alphap)


def _unit_ball_volume(k: int) -> float:
    return pi ** (k / 2.0) / gamma_fn(k / 2.0 + 1.0)


def _sublevel_radius(f, budget) -> np.ndarray:
    """sup { q >= 0 : f(q^2) <= budget } elementwise, for strictly increasing
    f with f(0) = 0 (vectorized bracket doubling plus bisection); 0 where the
    budget is not positive.

    Each pass evaluates f on the elements that can still move, and each
    element's arithmetic is that of the plain loop of up to 600 doublings
    and 80 bisection steps.  An element stops doubling once f(hi^2) exceeds
    its budget or hi reaches 1e150, and never doubles again.  Once a
    bisection midpoint equals lo or hi, the step leaves the bracket as it
    was or closes it to [mid, mid], and every later step computes the same
    midpoint and changes nothing: the element is at its fixed point and
    leaves.  The loop ends when no element is left, or after 80 steps.
    """
    budget = np.atleast_1d(np.asarray(budget, dtype=float))
    out = np.zeros(budget.shape)
    live = np.flatnonzero(budget > 0.0)
    b = budget.ravel()[live]
    lo, hi = np.zeros_like(b), np.ones_like(b)
    grow = np.arange(b.size)
    for _ in range(600):
        h = hi[grow]
        grow = grow[(np.asarray(f(h * h), dtype=float) <= b[grow]) & (h < 1e150)]
        if not grow.size:
            break
        hi[grow] *= 2.0
    for _ in range(80):
        if not live.size:
            break
        mid = 0.5 * (lo + hi)
        below = np.asarray(f(mid * mid), dtype=float) <= b
        moving = (mid != lo) & (mid != hi)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if not moving.all():
            out.flat[live[~moving]] = 0.5 * (lo[~moving] + hi[~moving])
            live, lo, hi, b = live[moving], lo[moving], hi[moving], b[moving]
    out.flat[live] = 0.5 * (lo + hi)
    return out


def vf_volume(params: GrusinParameters, r):
    """Lebesgue measure of the sublevel set {p : F(p) < r^2}: a float for a
    scalar ``r``, an array of its shape for an array of radii (all solved in
    one elementwise pass, each equal bit for bit to its scalar call).

    The symbol is a sum of two radial strictly increasing block symbols, so
    the measure reduces to a one-dimensional radial integral: slices of the
    block-1 ball weighted by the block-2 ball volume of the remaining
    budget.  For m = 0 this is just the block-1 ball.
    """
    radii = np.asarray(r, dtype=float)
    if not np.all(radii > 0):
        raise ValueError("radius must be positive")
    n, m = params.n, params.m
    budget = (radii * radii).ravel()
    p1_max = _sublevel_radius(partial(f1, params), budget)
    if m == 0:
        # Python's float power: numpy's vectorized one can differ by an ulp
        vols = _unit_ball_volume(n) * np.array([q**n for q in p1_max.tolist()])
    else:
        # Gauss-Legendre on [0, p1_max] for the radial slice integral, one row per radius
        u, w = gauss_legendre_01(256)
        s = p1_max[:, None] * u
        q2 = _sublevel_radius(partial(f2, params), budget[:, None] - f1(params, s * s))
        integrand = n * _unit_ball_volume(n) * s ** (n - 1) * _unit_ball_volume(m) * q2**m
        vols = p1_max * np.sum(w * integrand, axis=1)
    return float(vols[0]) if radii.ndim == 0 else vols.reshape(radii.shape)


def _bump_profiles(x: np.ndarray, centers, widths) -> np.ndarray:
    """One-dimensional C^infty bumps exp(-1/(1-u^2)), u = (x - c) / w, zero
    for |u| >= 1: one row per (center c, width w) pair, one column per x."""
    u = (x - np.asarray(centers)[:, None]) / np.asarray(widths)[:, None]
    prof = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    prof[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return prof


def bump(grid: Grid, centers, widths) -> np.ndarray:
    """Product bump on the grid as a full-shape array: the outer product of
    one :func:`_bump_profiles` row per axis."""
    centers = grid.as_point(centers)
    return reduce(np.multiply.outer, [_bump_profiles(grid.axis(i), centers[i:i + 1],
                                                     widths[i:i + 1])[0] for i in range(grid.dim)])


def _bump_widths(grid: Grid, positive_axis0: bool = False) -> list[tuple[float, float]]:
    """Per axis, the (narrowest, widest) width of an ensemble bump on
    ``grid``; a ValueError if the grid is too coarse for the narrowest."""
    bounds = []
    for i, (L, h) in enumerate(zip(grid.extents, grid.spacings)):
        wmin = max(6.0 * h, 0.05 * L)
        wmax = 0.75 * L / (2.5 if positive_axis0 and i == 0 else 2.0)
        if wmin >= wmax:
            raise ValueError(f"resolution too coarse for the narrowest bump: axis {i} of "
                             f"{grid.counts} nodes")
        bounds.append((wmin, wmax))
    return bounds


# Members per ensemble: 50 times the manifest's 200.  At the manifest's
# largest ensemble grid (513 nodes per axis) one profile stack then holds
# 41 MB, and its transform twice that.
MAX_ENSEMBLE = 10_000


def _ensemble_args(ensemble) -> int:
    """The ensemble size as an int in 1..MAX_ENSEMBLE, its message led by the name."""
    return _count("ensemble", ensemble, MAX_ENSEMBLE, "work")


def random_bump_ensemble(grid: Grid, n_members: int, seed: int,
                         positive_axis0: bool = False) -> list[np.ndarray]:
    """Smooth compactly supported test bumps on the grid, as one factor
    stack per axis: axis i is a (n_members, counts[i]) array of
    :func:`_bump_profiles`, and member k is the product bump of the k-th
    rows (:func:`bump` at its centers and widths).

    Centers and widths are drawn width first, then center, axis by axis,
    member by member (``Generator.uniform(lo, hi)`` is ``lo + (hi - lo)``
    times one ``random()`` draw, so one ``random`` call draws them all);
    supports keep a margin of a quarter of each extent from the box
    boundary.  With ``positive_axis0`` the support is placed in {x_0 > 0}
    (half-line ensembles).
    """
    rng = np.random.default_rng(seed)
    log_lo, log_hi = np.log(_bump_widths(grid, positive_axis0)).T
    u = rng.random((n_members, grid.dim, 2))
    widths = np.exp(log_lo + (log_hi - log_lo) * u[:, :, 0])
    hi = 0.75 * np.asarray(grid.extents) - widths
    lo = -hi
    if positive_axis0:  # fits: width < 0.4 of 0.75 extents[0]
        lo[:, 0] = widths[:, 0] * 1.05
    centers = lo + (hi - lo) * u[:, :, 1]
    return [_bump_profiles(grid.axis(i), centers[:, i], widths[:, i]) for i in range(grid.dim)]


@dataclass(frozen=True)
class NashReport:
    ratios: np.ndarray          # per member h(phi) / f(phi)
    fitted_constant: float      # min ratio
    r_grid: np.ndarray
    worst_margin: float         # min over members and r of the display margin
    parseval_gap: float         # max |sum fhat2 - ||phi||_2^2| / ||phi||_2^2
    display: np.ndarray         # (r, lhs, rhs, rhs - lhs) rows of the min-ratio member


def _block(stacks) -> np.ndarray:
    """Per member, the outer product of one block's factor rows, flattened in
    C order: (K, product of the block's counts)."""
    return reduce(lambda x, y: (x[:, :, None] * y[:, None, :]).reshape(len(x), -1), stacks)


def _member_pieces(op: DivergenceFormOperator, stacks):
    """(sum fhat2, ||phi||_1, f(phi), h(phi), ||phi||_2^2) of every member
    phi = p_0 (x) ... (x) p_{d-1} of the factor ``stacks``, each a (K,) array.

    The unitary-convention DFT of a product is the product of the axes'
    DFTs, so with a_i = |fft(p_i)|^2 and A1, A2 the x1-block and x2-block
    outer products of the a_i, and c = w^2 dp / (2 pi)^d:

        sum fhat2    = c prod_i sum a_i
        f(phi)       = c [sum f1(L1) A1 * sum A2 + sum A1 * sum f2(L2) A2]
        ||phi||_1    = w prod_i sum |p_i|

    The operator is the Kronecker sum A1 (x) I + sum_j diag(g2_j) (x) L_j of
    its kept factors (``op.fiber``), L_j the unit Neumann path Laplacian
    along x2 axis j, so with phi1 the x1-block product on the kept x1 nodes
    and phi2 the x2-block one:

        h(phi)       = w [(phi1 A1 phi1)(phi2.phi2) + sum_j (g2_j.phi1^2)(phi2 L_j phi2)]
        ||phi||_2^2  = w (phi1.phi1)(phi2.phi2)

    where phi2 L_j phi2 = sum diff(p_{n+j})^2 prod_{i != j} |p_{n+i}|^2.  On
    the half line the first three are taken of the even reflection of the
    axis-0 factor onto the symmetric full grid, and halved.
    """
    grid = op.grid
    params, n = grid.params, grid.params.n
    w = grid.node_weight
    spectral, half = list(stacks), 1.0
    if op.boundary == "half_line_positive":
        spectral[0], half = _even_reflect(stacks[0]), 0.5
    axes = list(zip(grid.counts, grid.spacings))
    freq2 = [(2.0 * pi * np.fft.fftfreq(count, d=h)) ** 2 for count, h in axes]
    dp = np.prod([2.0 * pi / (count * h) for count, h in axes])
    c = half * w * w * dp / (2.0 * pi) ** grid.dim
    a = [np.abs(np.fft.fft(p, axis=1)) ** 2 for p in spectral]
    sums = [x.sum(axis=1) for x in a]
    sum1, sum2 = np.prod(sums[:n], axis=0), np.prod(sums[n:], axis=0)
    outer_sum = partial(reduce, lambda x, y: np.add.outer(x, y).ravel())
    f_form = _block(a[:n]) @ f1(params, outer_sum(freq2[:n])) * sum2
    if params.m > 0:
        f_form = f_form + sum1 * (_block(a[n:]) @ f2(params, outer_sum(freq2[n:])))
    l1 = half * w * np.prod([np.abs(p).sum(axis=1) for p in spectral], axis=0)

    (A1, g2), n2 = op.fiber, op.fiber_shape[1]
    phi1 = _block(stacks[:n])[:, op.kept[::n2] // n2]  # on the kept x1 nodes
    sq2 = [np.einsum("ki,ki->k", p, p) for p in stacks[n:]]
    norm2 = np.prod(sq2, axis=0)
    h_form = np.einsum("ki,ik->k", phi1, A1 @ phi1.T) * norm2
    for j, g in enumerate(g2):
        others = np.prod(sq2[:j] + sq2[j + 1:], axis=0)
        path = (np.diff(stacks[n + j], axis=1) ** 2).sum(axis=1) * others  # phi2 L_j phi2
        h_form = h_form + (phi1 * phi1 @ g) * path
    direct = w * np.einsum("ki,ki->k", phi1, phi1) * norm2
    return c * sum1 * sum2, l1, c * f_form, w * h_form, direct


def nash_check(op: DivergenceFormOperator, members, r_grid, volumes=None) -> NashReport:
    """Fitted domination constant and Nash-display margins for an ensemble.

    ``members`` are the factor stacks of :func:`random_bump_ensemble` on the
    operator's grid, and every member's pieces come from them in one pass
    (:func:`_member_pieces`).  For a ``half_line_positive`` operator the
    members lie in {x_0 > 0}, the operator lives on the restriction and the
    transform is taken of the even reflection on the symmetric full grid;
    the volume factor is then 4, else 1.  The display checked for every
    member and every r is

        ||phi||_2^2 <= r^{-2} h(phi)/a  +  volume_factor (2 pi)^{-d} V_F(r) ||phi||_1^2

    with a the fitted constant; the worst margin (rhs - lhs) is returned,
    and the display of the member with the smallest ratio (the first one if
    tied) row by row.  ``volumes`` is V_F at the sorted ``r_grid``, for
    ensembles that share one solve; it is solved here when left out.
    """
    volume_factor = 4.0 if op.boundary == "half_line_positive" else 1.0
    grid = op.grid
    finite = np.logical_and.reduce([np.isfinite(p).all(axis=1) for p in members])
    if not finite.all():
        raise ValueError(f"ensemble member {int(np.argmin(finite))} is not finite")
    l2, l1, f_form, h_form, direct_l2 = _member_pieces(op, members)
    if not (f_form > 0).all():
        raise ValueError(f"degenerate ensemble member {int(np.argmin(f_form > 0))} with zero "
                         f"multiplier form")
    ratios = h_form / f_form
    a_fit = float(ratios.min())
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    vols = vf_volume(grid.params, r_grid) if volumes is None else volumes
    rhs = (h_form[:, None] / (a_fit * r_grid**2)
           + volume_factor * (2.0 * pi) ** (-grid.dim) * vols * l1[:, None] ** 2)
    shown = int(np.argmin(ratios))
    return NashReport(
        ratios=ratios,
        fitted_constant=a_fit,
        r_grid=r_grid,
        worst_margin=float((rhs - l2[:, None]).min()),
        parseval_gap=float((np.abs(l2 - direct_l2) / direct_l2).max()),
        display=np.column_stack([r_grid, np.full_like(r_grid, l2[shown]), rhs[shown],
                                 rhs[shown] - l2[shown]]),
    )


def _even_reflect(stack: np.ndarray) -> np.ndarray:
    """p(x) -> p(|x|) for each row of a stack on a symmetric odd axis."""
    out = stack.copy()
    half = (stack.shape[1] - 1) // 2
    out[:, :half] = stack[:, half + 1:][:, ::-1]
    return out


def _hardy_operator(n: int, gamma: float, count: int):
    """Staggered-grid Dirichlet Laplacian on [-1, 1]^n and |x|^(-2 gamma),
    restricted to the functions even in every coordinate: the (count/2)^n
    nodes with x > 0 on each axis, in the orthonormal basis of normalised
    reflection-orbit sums.  The 1-D row next to the mirror plane holds 1/h^2,
    since its mirror neighbour u_-1 equals u_0."""
    h = 2.0 / count
    half = count // 2
    axis = ((np.arange(count) + 0.5) * h - 1.0)[half:]  # the full grid's nodes, bit for bit
    lap1 = sp.diags([-1.0, np.r_[1.0, np.full(half - 1, 2.0)], -1.0], [-1, 0, 1],
                    shape=(half, half)) / (h * h)
    L = reduce(sp.kronsum, [lap1] * n)
    r2 = sum(x**2 for x in np.meshgrid(*([axis] * n), indexing="ij")).ravel()
    return L, r2 ** (-gamma)


def _hardy_args(n, gamma, **values) -> tuple[int, dict, bool]:
    """:func:`hardy_check`'s argument check, each message led by the name: a
    ``*count`` must be even, ``count`` at least 4, a fraction non-negative.
    Returns n and each count as ints, and whether classical."""
    n = _as_int("n", n, positive=True)
    classical = gamma == 1.0 and n >= 3
    if not classical and not (0.0 <= gamma < min(1.0, n / 2.0)):
        raise ValueError("gamma must lie in [0, min(1, n/2)), or equal 1 with n >= 3")
    counts = {}
    for name, value in values.items():
        if not name.endswith("count") and not 0.0 <= value:
            raise ValueError(f"{name} must be non-negative")
        if name.endswith("count"):
            counts[name] = _as_int(name, value, positive=True)
            if counts[name] % 2:
                raise ValueError(f"{name} must be even: an odd count puts a node at the origin")
    if counts.get("count", 4) < 4:  # ARPACK's k = 1 needs two unknowns
        raise ValueError("count must be at least 4: one octant needs two nodes per axis")
    return n, counts, classical


def hardy_check(n: int, gamma: float, fraction: float, count: int = 14,
                coarse_count: int = 8):
    """Smallest eigenvalue of L^gamma - fraction * a * |x|^(-2 gamma).

    Sparse Dirichlet Laplacian on a staggered grid over [-1, 1]^n,
    even counts only (no node at the origin).  a = (n-2)^2 / 4 is optimal for
    gamma = 1, n >= 3; for fractional gamma, L^gamma is dense and a is fitted
    on a coarse pre-run (largest a keeping the difference PSD there).
    lambda_min is ARPACK's shift-invert eigenvalue next to Gershgorin's lower
    bound minus one, started from ones.  Returns (lambda_min, a_used).

    Both eigenproblems are solved on one octant (``_hardy_operator``), which
    is exact.  Box and potential are invariant under every reflection
    x_i -> -x_i, so the functions even in every coordinate form an invariant
    subspace of L, and (L|even)^gamma = L^gamma|even.  M = L^gamma - f a V is
    symmetric and irreducible with off-diagonals <= 0 (e^{-tL} >= 0
    entrywise makes L^gamma's so), so its lowest eigenvector is simple and
    positive (Perron-Frobenius; Horn & Johnson, Matrix Analysis, ch. 8),
    hence equal to each of its reflections: it is even.  The coarse fit's
    V^{-1/2} L^gamma V^{-1/2} is alike.  (gamma = 0 makes M diagonal, its
    values repeating over each reflection orbit.)
    """
    n, counts, classical = _hardy_args(n, gamma, fraction=fraction, count=count,
                                       coarse_count=coarse_count)
    L, V = _hardy_operator(n, gamma, counts["count"])
    if classical:
        a = (n - 2) ** 2 / 4.0
    else:
        Lc, Vc = _hardy_operator(n, gamma, counts["coarse_count"])
        Lc, L = (_matrix_fun(*_psd_eigh(X.toarray()), lambda lam: lam**gamma) for X in (Lc, L))
        # largest a with L^gamma - a V >= 0 on the coarse grid
        a = float(eigh(Lc, np.diag(Vc), eigvals_only=True)[0])
    M = (sp.csc_matrix(L) - fraction * a * sp.diags(V)).tocsc()
    d = M.diagonal()
    shift = float((d - np.ravel(abs(M).sum(axis=1)) + abs(d)).min()) - 1.0
    lam = eigsh(M, k=1, sigma=shift, which="LM", v0=np.ones(len(d)), return_eigenvectors=False)
    return float(lam[0]), float(a)


def _psd_eigh(M: np.ndarray):
    """One eigh per symmetric matrix of the stack M: (eigenvalues clipped at 0, eigenvectors)."""
    lam, Q = np.linalg.eigh(M)
    return np.clip(lam, 0.0, None), Q


def _matrix_fun(lam: np.ndarray, Q: np.ndarray, fn) -> np.ndarray:
    """Q fn(lam) Q^T for each eigendecomposition (lam, Q) of a stack."""
    return (Q * fn(lam)[..., None, :]) @ Q.swapaxes(-1, -2)


# trials per stack: one stack of all 1,000 is no faster and lifts the peak by 70 MB
_TRIAL_STACK = 20
# 100 times the manifest's 1,000 trials, about 20 s at dim 20; memory stays
# one stack's
MAX_TRIALS = 100_000


def _inequality_args(trials, dim, gamma) -> tuple[int, int]:
    """:func:`operator_inequality_checks`' argument check, each message led by
    the name.  Returns trials and dim as ints."""
    trials = _count("trials", trials, MAX_TRIALS, "work")
    dim = _count("dim", dim, 50, "dimension")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return trials, dim


def _above(D: np.ndarray, w: float) -> bool:
    """True if the Cholesky factorization of D - (w + tau) I, with
    tau = sqrt(eps) (||D||_F + |w|) per matrix, exists for the whole stack
    D, which proves that ``eigvalsh`` computes a lowest eigenvalue above w
    for every matrix (:func:`operator_inequality_checks`); False if it fails
    or w is not finite."""
    if not np.isfinite(w):
        return False
    tau = np.sqrt(np.finfo(float).eps) * (np.linalg.norm(D, axis=(1, 2)) + abs(w))
    try:
        np.linalg.cholesky(D - (w + tau)[:, None, None] * np.eye(D.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def operator_inequality_checks(trials: int, dim: int, gamma: float, seed: int = 0) -> dict:
    """Worst violations of the two operator-monotonicity inequalities.

    For random PSD pairs with A >= B >= 0:
      * resolvent_power:  min eig of A(I+A)^{-gamma} - B(I+B)^{-gamma}
      * root_sum[k]:      min eig of (A+B)^{1/2^k} - 2^{-1+2^{-k}} (A^{1/2^k} + B^{1/2^k})
    Values near zero from below (>= -1e-10) confirm the inequalities at
    machine precision.  Trials (B = G G^T / dim, then A - B alike) are drawn
    and decomposed in stacks of 20: a stack of all 1,000 trials at dim 20 is
    no faster and lifts the traced peak from 2 to 74 MB.

    Each output is a running minimum over the stacks, and a stack runs
    ``eigvalsh`` on an inequality's differences D only when it may lower
    that minimum w (``_above``; the first stack always runs it).  The skip
    is exact.  If Cholesky of D - sigma I, sigma = w + tau, succeeds in
    floating point, D - sigma I + E is positive definite with
    ||E||_2 <= c n^2 eps ||D - sigma I||_2 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 10; Demmel 1989), so
    lambda_min(D) > sigma - ||E||_2; and the computed eigvalsh(D)[0] lies
    within c n eps ||D||_2 of lambda_min(D).  At n <= 50 (the dim ceiling)
    n^2 eps is about 5.5e-13, while tau = sqrt(eps) (||D||_F + |w|) is
    about 1.5e-8 of ||D||_2 + |w|, more than 10^4 times both errors.  So
    every skipped matrix's eigvalsh value exceeds w, and the minimum is the
    same float.  f0's A + B matrix is never read, so it is not formed.
    """
    trials, dim = _inequality_args(trials, dim, gamma)
    rng = np.random.default_rng(seed)
    worst = np.full(3, np.inf)
    for start in range(0, trials, _TRIAL_STACK):
        G = rng.normal(size=(min(_TRIAL_STACK, trials - start), 2, dim, dim))
        P = (G @ G.swapaxes(-1, -2)) / dim
        B, A = P[:, 0], P[:, 0] + P[:, 1]
        lam, Q = _psd_eigh(np.stack([A, B, A + B], axis=1))
        f0 = _matrix_fun(lam[:, :2], Q[:, :2], lambda lam: lam * (1.0 + lam) ** (-gamma))
        diffs = [f0[:, 0] - f0[:, 1]]
        for k in (1, 2):
            f = _matrix_fun(lam, Q, lambda lam: lam ** (0.5**k))
            diffs.append(f[:, 2] - 2.0 ** (-1.0 + 2.0 ** (-k)) * (f[:, 0] + f[:, 1]))
        for i, D in enumerate(diffs):
            if not _above(D, worst[i]):
                worst[i] = np.minimum(worst[i], np.linalg.eigvalsh(D)[:, 0].min())
    return {"resolvent_power": float(worst[0]), "root_sum": {1: float(worst[1]), 2: float(worst[2])}}
