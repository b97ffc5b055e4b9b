"""Exponent algebra and degenerate coefficient fields.

The operators studied here act on R^n x R^m and are built from two radial
coefficient profiles c_k(|x1|), k = 1, 2, that vanish like |x1|^(2*delta_k)
near the degeneracy set {x1 = 0} and grow like |x1|^(2*delta_k') at infinity.
This module holds the parameter tuple, every derived exponent used downstream
(local/global dimensions, ball-volume exponents, multiplier exponents), and
the concrete smooth representative

    c(r) = r^(2*delta) * (1 + r^2)^(deltap - delta)

which matches the two-scale power r^(2*delta, 2*deltap) within a factor
2^|deltap - delta| on both sides.

Everything here is a pure function of its arguments and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

__all__ = [
    "GrusinParameters",
    "DerivedExponents",
    "CoefficientField",
    "piecewise_power",
    "coefficient_profile",
    "derive_exponents",
]


def piecewise_power(a, alpha: float, alphap: float):
    """Two-scale power a^(alpha, alphap): a**alpha for a <= 1, a**alphap for a >= 1.

    Accepts a scalar or array; the base must be non-negative.  The two
    branches agree at a = 1, so the function is continuous there.
    """
    arr = np.asarray(a, dtype=float)
    if np.any(arr < 0):
        raise ValueError("piecewise_power: base must be non-negative")
    with np.errstate(divide="ignore"):
        lo = np.power(arr, alpha)
        hi = np.power(arr, alphap)
    out = np.where(arr <= 1.0, lo, hi)
    if np.isscalar(a) or arr.ndim == 0:
        return float(out)
    return out


def coefficient_profile(r, delta: float, deltap: float):
    """Radial coefficient c(r) = r^(2*delta) * (1 + r^2)^(deltap - delta).

    ``r`` is |x1| (scalar or array, non-negative).  Strictly positive for
    r > 0; vanishes at r = 0 exactly when delta > 0.
    """
    if delta < 0 or deltap < 0:
        raise ValueError("coefficient exponents must be non-negative")
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise ValueError("coefficient_profile: radius must be non-negative")
    out = np.power(rr, 2.0 * delta) * np.power(1.0 + rr * rr, deltap - delta)
    if np.isscalar(r) or rr.ndim == 0:
        return float(out)
    return out


def _is_real(value) -> bool:
    """Whether ``value`` is a finite real number; a bool, an infinity or a NaN is not."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _as_int(name: str, value, positive: bool) -> int:
    """An integral ``value`` (1.0 too, not True), positive or non-negative, as an int."""
    if not _is_real(value) or not float(value).is_integer() or value < int(positive):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def _count(name: str, value, ceiling: int, guard: str) -> int:
    """``value`` as an int in 1..ceiling, each message led by ``name``."""
    count = _as_int(name, value, positive=True)
    if count > ceiling:
        raise ValueError(f"{name} must lie in 1..{ceiling} ({guard} guard), got {value!r}")
    return count


# Axes of R^n x R^m: twice the manifest's largest (3).  A grid of n + m
# axes holds at least 3^(n+m) nodes, and a metric graph of the runners'
# stencil order 2 walks 5^(n+m) offsets in Python (15,625 at 6 axes).
MAX_DIMENSION = 6


@dataclass(frozen=True)
class GrusinParameters:
    """Degeneracy exponents (n, m, delta1, delta1p, delta2, delta2p).

    n >= 1 is the dimension of the x1 block carrying the degeneracy,
    m >= 0 the dimension of the x2 block (m = 0 gives the one-dimensional
    example).  The primed exponents govern behaviour at infinity.
    Constraints: n + m <= MAX_DIMENSION; delta1, delta1p in [0, 1);
    delta2, delta2p >= 0.  The exponents are stored as floats, so 0 and 0.0
    make equal parameters.
    """

    n: int = 1
    m: int = 0
    delta1: float = 0.0
    delta1p: float = 0.0
    delta2: float = 0.0
    delta2p: float = 0.0

    def __post_init__(self):
        for name in ("delta1", "delta1p", "delta2", "delta2p"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "n", _count("n", self.n, MAX_DIMENSION, "dimension"))
        if self.n + _as_int("m", self.m, positive=False) > MAX_DIMENSION:
            raise ValueError(f"m must lie in 0..{MAX_DIMENSION - self.n} (dimension guard: "
                             f"n + m <= {MAX_DIMENSION}), got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        for name in ("delta1", "delta1p"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        for name in ("delta2", "delta2p"):
            v = getattr(self, name)
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")

    @property
    def dim(self) -> int:
        return self.n + self.m


@dataclass(frozen=True)
class DerivedExponents:
    """All exponents derived from a parameter tuple.

    D, Dp       local/global dimension governing on-diagonal decay t^(-D/2)
                and origin-centred ball volume r^(D, Dp)
    beta, betap off-origin volume exponents |x1|^(beta, betap)
    rho, rhop   switching exponents of the block-2 quasi-distance
    gamma, gammap   block-2 large-separation exponents (distance ~ u^(1-gamma))
    sigma, sigmap   1/(1 - delta1), 1/(1 - delta1p)
    alpha, alphap   block-2 multiplier exponents
    doubling_dim    max(D, Dp), the volume-doubling exponent
    """

    D: float
    Dp: float
    beta: float
    betap: float
    rho: float
    rhop: float
    gamma: float
    gammap: float
    sigma: float
    sigmap: float
    alpha: float
    alphap: float
    doubling_dim: float


def derive_exponents(params: GrusinParameters) -> DerivedExponents:
    """Compute every derived exponent from the printed formulas."""
    n, m = params.n, params.m
    d1, d1p = params.delta1, params.delta1p
    d2, d2p = params.delta2, params.delta2p
    rho = 1.0 + d2 - d1
    rhop = 1.0 + d2p - d1p
    D = (n + m * rho) / (1.0 - d1)
    Dp = (n + m * rhop) / (1.0 - d1p)
    return DerivedExponents(
        D=D,
        Dp=Dp,
        beta=n * d1 + m * d2,
        betap=n * d1p + m * d2p,
        rho=rho,
        rhop=rhop,
        gamma=d2 / rho,
        gammap=d2p / rhop,
        sigma=1.0 / (1.0 - d1),
        sigmap=1.0 / (1.0 - d1p),
        alpha=(1.0 - d1) / rho,
        alphap=(1.0 - d1p) / rhop,
        doubling_dim=max(D, Dp),
    )


@dataclass(frozen=True)
class CoefficientField:
    """Evaluable coefficient pair (c1, c2) as radial profiles of |x1|.

    ``floor_radius`` > 0 freezes both profiles to their value at that radius
    for |x1| below it.  This is the non-degenerate comparison field used in
    the kernel-comparison experiments; the default 0.0 is the plain
    degenerate field.
    """

    params: GrusinParameters
    floor_radius: float = 0.0

    def __post_init__(self):
        if self.floor_radius < 0:
            raise ValueError("floor_radius must be >= 0")

    def block(self, k: int, r):
        """c_k(|x1|), the coefficient of the x_k-block gradient term (k = 1, 2)."""
        if k not in (1, 2):
            raise ValueError("block index must be 1 or 2")
        p = self.params
        delta, deltap = (p.delta1, p.delta1p) if k == 1 else (p.delta2, p.delta2p)
        if self.floor_radius > 0.0:
            r = np.maximum(np.asarray(r, dtype=float), self.floor_radius)
        return coefficient_profile(r, delta, deltap)

    def singular_exponent(self, k: int) -> float:
        """Power of the r -> 0 degeneracy of block k (0 if frozen)."""
        if self.floor_radius > 0.0:
            return 0.0
        p = self.params
        return p.delta1 if k == 1 else p.delta2
