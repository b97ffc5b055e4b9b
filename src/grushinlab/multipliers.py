"""Fourier-multiplier comparison forms: Nash inequalities, sublevel volumes,
Hardy's inequality and the abstract operator inequalities.

The comparison symbol is F(p) = a (F1(|p1|^2) + F2(|p2|^2)) with

    F1(L) = L^(1-delta1p) (1+L)^-(delta1-delta1p)   if delta1 >= delta1p
    F1(L) = L^(1-delta1) + L^(1-delta1p)            if delta1 <= delta1p
    F2(L) = L^alphap (1+L)^(alpha-alphap)

where alpha = (1-delta1)/(1+delta2-delta1) and likewise for the primed
exponents.  The domination constant a relating the discrete Dirichlet form to
the multiplier form is never assumed; it is always fitted on an ensemble of
random bumps and reported.

The half-line (Neumann) variant evaluates the multiplier form through even
reflection onto the symmetric full grid and carries the factor-4 volume term
in its Nash display.

Ensemble members are independent and deterministic given the recorded seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import gamma as gamma_fn, pi

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from .coefficients import GrusinParameters, derive_exponents
from .discretization import DivergenceFormOperator, Grid, form_value

__all__ = [
    "MultiplierSpec",
    "vf_volume",
    "bump",
    "random_bump_ensemble",
    "nash_check",
    "NashReport",
    "hardy_check",
    "operator_inequality_checks",
]


@dataclass(frozen=True)
class MultiplierSpec:
    """Separable comparison symbol with a free scale constant."""

    params: GrusinParameters
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale constant must be positive")

    def f1(self, L):
        """Block-1 symbol as a function of L = |p1|^2 (array friendly)."""
        d1, d1p = self.params.delta1, self.params.delta1p
        L = np.asarray(L, dtype=float)
        if d1 >= d1p:
            out = L ** (1.0 - d1p) * (1.0 + L) ** (-(d1 - d1p))
        else:
            out = L ** (1.0 - d1) + L ** (1.0 - d1p)
        return out

    def f2(self, L):
        """Block-2 symbol as a function of L = |p2|^2 (array friendly)."""
        e = derive_exponents(self.params)
        L = np.asarray(L, dtype=float)
        return L**e.alphap * (1.0 + L) ** (e.alpha - e.alphap)


def _unit_ball_volume(k: int) -> float:
    return pi ** (k / 2.0) / gamma_fn(k / 2.0 + 1.0)


def _sublevel_radius(f, budget) -> np.ndarray:
    """sup { q >= 0 : f(q^2) <= budget } elementwise, for strictly increasing
    f with f(0) = 0 (vectorized bracket doubling plus bisection)."""
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


@cache
def _vf_rule():
    """The 256-node Gauss-Legendre rule on [0, 1] of the radial slice integral,
    read-only because every call shares it."""
    from .quadrature import gauss_legendre_01

    u, w = gauss_legendre_01(256)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def vf_volume(spec: MultiplierSpec, r: float) -> float:
    """Lebesgue measure of the sublevel set {p : F(p) < r^2}.

    The symbol is a sum of two radial strictly increasing block symbols, so
    the measure reduces to a one-dimensional radial integral: slices of the
    block-1 ball weighted by the block-2 ball volume of the remaining
    budget.  For m = 0 this is just the block-1 ball.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    params = spec.params
    budget = r * r / spec.scale
    p1_max = float(_sublevel_radius(spec.f1, budget)[0])
    if params.m == 0:
        return _unit_ball_volume(params.n) * p1_max**params.n
    if p1_max == 0.0:
        return 0.0
    # Gauss-Legendre on [0, p1_max] for the radial slice integral
    u, w = _vf_rule()
    s = p1_max * u
    n, m = params.n, params.m
    wn, wm = _unit_ball_volume(n), _unit_ball_volume(m)
    f1s = np.asarray(spec.f1(s * s), dtype=float)
    q2 = _sublevel_radius(spec.f2, budget - f1s)
    integrand = n * wn * s ** (n - 1) * wm * q2**m
    return float(p1_max * np.sum(w * integrand))


def bump(grid: Grid, centers, widths) -> np.ndarray:
    """Product of one-dimensional C^infty bumps exp(-1/(1-u^2)),
    u = (x_i - centers[i]) / widths[i], as a full-shape grid array."""
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


def random_bump_ensemble(grid: Grid, n_members: int, seed: int,
                         margin_fraction: float = 0.25,
                         positive_axis0: bool = False) -> list[np.ndarray]:
    """Smooth compactly supported test bumps on the grid (full shape arrays).

    Each member is a :func:`bump` with random centers and widths (drawn
    width first, then center, axis by axis); supports stay inside the box by
    ``margin_fraction`` of each extent.  With ``positive_axis0`` the support
    is placed in {x_0 > 0} (half-line ensembles).
    """
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n_members):
        centers, widths = [], []
        for i in range(grid.dim):
            L = grid.extents[i]
            h = grid.spacings[i]
            inner = (1.0 - margin_fraction) * L
            wmin = max(6.0 * h, 0.05 * L)
            wmax = inner / 2.5 if positive_axis0 and i == 0 else inner / 2.0
            if wmin >= wmax:
                raise ValueError("resolution too coarse for the narrowest bump")
            width = np.exp(rng.uniform(np.log(wmin), np.log(wmax)))
            if positive_axis0 and i == 0:
                lo, hi = width * 1.05, inner - width
                if lo >= hi:
                    raise ValueError("half-line bump does not fit in the box")
                center = rng.uniform(lo, hi)
            else:
                center = rng.uniform(-(inner - width), inner - width)
            centers.append(center)
            widths.append(width)
        members.append(bump(grid, centers, widths))
    return members


@dataclass(frozen=True)
class NashReport:
    ratios: np.ndarray          # per member h(phi) / f(phi)
    fitted_constant: float      # min ratio
    r_grid: np.ndarray
    worst_margin: float         # min over members and r of the display margin
    parseval_gap: float         # max |sum fhat2 - ||phi||_2^2| / ||phi||_2^2
    display: np.ndarray         # (r, lhs, rhs, rhs - lhs) rows of the min-ratio member


def _transform_pieces(grid: Grid, spec: MultiplierSpec, member: np.ndarray):
    """(||phi||_2^2, ||phi||_1, f(phi)) through the unitary-convention DFT."""
    w = grid.node_weight
    d = grid.dim
    params = grid.params
    phat = w * np.fft.fftn(member)
    dp = 1.0
    Ls = []
    for i in range(d):
        freqs = 2.0 * pi * np.fft.fftfreq(grid.counts[i], d=grid.spacings[i])
        shape = [1] * d
        shape[i] = grid.counts[i]
        Ls.append((freqs**2).reshape(shape))
        dp *= 2.0 * pi / (grid.counts[i] * grid.spacings[i])
    L1 = sum(Ls[: params.n])
    fvals = spec.scale * spec.f1(L1)
    if params.m > 0:
        L2 = sum(Ls[params.n :])
        fvals = fvals + spec.scale * spec.f2(L2)
    measure = dp / (2.0 * pi) ** d
    fhat2 = measure * np.abs(phat) ** 2
    l2 = float(np.sum(fhat2))
    l1 = float(w * np.abs(member).sum())
    f_form = float(np.sum(fvals * fhat2))
    return l2, l1, f_form


def nash_check(op: DivergenceFormOperator, spec: MultiplierSpec, members, r_grid) -> NashReport:
    """Fitted domination constant and Nash-display margins for an ensemble.

    ``members`` are full-grid arrays from :func:`random_bump_ensemble` on the
    operator's grid.  For a ``half_line_positive`` operator the members lie
    in {x_0 > 0}, the operator lives on the restriction and the transform is
    taken of the even reflection on the symmetric full grid; the volume
    factor is then 4, else 1.  The display checked for every member and
    every r is

        ||phi||_2^2 <= r^{-2} h(phi)/a  +  volume_factor (2 pi)^{-d} V_F(r) ||phi||_1^2

    with a the fitted constant; the worst margin (rhs - lhs) is returned,
    and the display of the member with the smallest ratio (the first one if
    tied) row by row.
    """
    if op.boundary == "half_line_negative":
        raise ValueError("nash_check reflects half_line_positive operators only")
    reflect_axis0 = op.boundary == "half_line_positive"
    volume_factor = 4.0 if reflect_axis0 else 1.0
    grid = op.grid
    d = grid.dim
    ratios = []
    pieces = []
    parseval_gap = 0.0
    for member in members:
        if reflect_axis0:
            kept = member.ravel()[op.kept]
            full = _transform_pieces(grid, spec, _even_reflect_axis0(member))
            l2, l1, f_form = (x / 2.0 for x in full)
        else:
            kept = member.ravel()
            l2, l1, f_form = _transform_pieces(grid, spec, member)
        h_form = form_value(op, kept)
        direct_l2 = float(grid.node_weight * (kept @ kept))
        parseval_gap = max(parseval_gap, abs(l2 - direct_l2) / direct_l2)
        if f_form <= 0:
            raise ValueError("degenerate ensemble member with zero multiplier form")
        ratios.append(h_form / f_form)
        pieces.append((l2, l1, h_form))
    ratios = np.asarray(ratios)
    a_fit = float(ratios.min())
    r_grid = np.asarray(sorted(float(r) for r in r_grid))
    vols = np.array([vf_volume(spec, r) for r in r_grid])
    worst = np.inf
    shown = int(np.argmin(ratios))
    for k, (l2, l1, h_form) in enumerate(pieces):
        rhs = h_form / (a_fit * r_grid**2) + volume_factor * (2.0 * pi) ** (-d) * vols * l1**2
        worst = min(worst, float((rhs - l2).min()))
        if k == shown:
            display = np.column_stack([r_grid, np.full_like(r_grid, l2), rhs, rhs - l2])
    return NashReport(
        ratios=ratios,
        fitted_constant=a_fit,
        r_grid=r_grid,
        worst_margin=worst,
        parseval_gap=parseval_gap,
        display=display,
    )


def _even_reflect_axis0(member: np.ndarray) -> np.ndarray:
    """phi(x) -> phi(|x|) along axis 0 for arrays on symmetric odd grids."""
    out = member.copy()
    c = member.shape[0]
    half = (c - 1) // 2
    upper = out[half:]               # x >= 0, includes the 0 plane
    out[:half] = upper[1:][::-1]
    return out


def _hardy_operator(n: int, gamma: float, extent: float, count: int):
    """Staggered-grid Dirichlet Laplacian on [-extent, extent]^n and |x|^(-2 gamma)."""
    h = 2.0 * extent / count
    axis = (np.arange(count) + 0.5) * h - extent
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(count, count)) / (h * h)
    L = reduce(sp.kronsum, [lap1] * n)
    r2 = sum(x**2 for x in np.meshgrid(*([axis] * n), indexing="ij")).ravel()
    return L, r2 ** (-gamma)


def hardy_check(n: int, gamma: float, fraction: float, extent: float = 1.0,
                count: int = 14, coarse_count: int = 8):
    """Smallest eigenvalue of L^gamma - fraction * a * |x|^(-2 gamma).

    Sparse Dirichlet Laplacian on a staggered grid over [-extent, extent]^n,
    even counts only (no node at the origin).  a = (n-2)^2 / 4 is optimal for
    gamma = 1, n >= 3; for fractional gamma, L^gamma is dense and a is fitted
    on a coarse pre-run (largest a keeping the difference PSD there).
    lambda_min is ARPACK's shift-invert eigenvalue next to Gershgorin's lower
    bound minus one, started from ones.  Returns (lambda_min, a_used).
    """
    classical = gamma == 1.0 and n >= 3
    if not classical and not (0.0 <= gamma < min(1.0, n / 2.0)):
        raise ValueError("gamma must lie in [0, min(1, n/2)), or equal 1 with n >= 3")
    if not 0.0 <= fraction:
        raise ValueError("fraction must be non-negative")
    if count % 2 or coarse_count % 2:
        raise ValueError("counts must be even: an odd count puts a node at the origin")

    L, V = _hardy_operator(n, gamma, extent, count)
    if classical:
        a = (n - 2) ** 2 / 4.0
    else:
        Lc, Vc = _hardy_operator(n, gamma, extent, coarse_count)
        [Lc], [L] = (_matrix_funs_psd(X.toarray(), lambda lam: lam**gamma) for X in (Lc, L))
        # largest a with L^gamma - a V >= 0 on the coarse grid
        a = float(eigh(Lc, np.diag(Vc), eigvals_only=True)[0])
    M = (sp.csc_matrix(L) - fraction * a * sp.diags(V)).tocsc()
    d = M.diagonal()
    shift = float((d - np.ravel(abs(M).sum(axis=1)) + abs(d)).min()) - 1.0
    lam = eigsh(M, k=1, sigma=shift, which="LM", v0=np.ones(len(d)), return_eigenvectors=False)
    return float(lam[0]), float(a)


def _matrix_funs_psd(M: np.ndarray, *fns) -> list[np.ndarray]:
    """fn(M) for each fn from one eigh of the symmetric M, eigenvalues clipped at 0."""
    lam, Q = np.linalg.eigh(M)
    lam = np.clip(lam, 0.0, None)
    return [(Q * fn(lam)) @ Q.T for fn in fns]


def operator_inequality_checks(trials: int, dim: int, gamma: float, seed: int = 0) -> dict:
    """Worst violations of the two operator-monotonicity inequalities.

    For random PSD pairs with A >= B >= 0:
      * resolvent_power:  min eig of A(I+A)^{-gamma} - B(I+B)^{-gamma}
      * root_sum[k]:      min eig of (A+B)^{1/2^k} - 2^{-1+2^{-k}} (A^{1/2^k} + B^{1/2^k})
    Values near zero from below (>= -1e-10) confirm the inequalities at
    machine precision.
    """
    if dim > 50:
        raise ValueError("dimension guard: dim <= 50")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    worst_res = np.inf
    worst_root = {1: np.inf, 2: np.inf}

    def rand_psd():
        G = rng.normal(size=(dim, dim))
        return (G @ G.T) / dim

    fns = [lambda lam: lam * (1.0 + lam) ** (-gamma)]
    fns += [lambda lam, k=k: lam ** (0.5**k) for k in (1, 2)]
    for _ in range(trials):
        B = rand_psd()
        A = B + rand_psd()
        f_A, f_B, f_AB = (_matrix_funs_psd(X, *fns) for X in (A, B, A + B))
        worst_res = min(worst_res, float(np.linalg.eigvalsh(f_A[0] - f_B[0])[0]))
        for k in (1, 2):
            rhs = 2.0 ** (-1.0 + 2.0 ** (-k)) * (f_A[k] + f_B[k])
            worst_root[k] = min(worst_root[k], float(np.linalg.eigvalsh(f_AB[k] - rhs)[0]))
    return {"resolvent_power": worst_res, "root_sum": worst_root}
