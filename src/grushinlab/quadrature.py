"""Vectorized line quadrature for radial integrands with power singularities.

Both the metric edge weights (integrals of c^{-1/2}) and the harmonic face
averages (integrals of c^{-1}) reduce to integrals over a straight segment of
a function f(r(s)) where r(s) = sqrt(qa s^2 + qb s + qc) is the distance of
the moving point to the degeneracy set and f(r) ~ r^{-sing} as r -> 0.
Segments whose interior touches r = 0 are split at the minimum and each half
is integrated with a 6-node Gauss-Jacobi rule that absorbs the u^{-sing}
weight exactly; everything else uses two 7-node Gauss-Legendre panels split
at the radius minimum.  A divergent integral (sing >= 1 with the segment
touching r = 0, or f infinite on a whole constant-radius segment) yields +inf.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = ["segment_integrals", "gauss_legendre_01", "gauss_jacobi_01"]

_TOUCH_RTOL = 1e-12


def _frozen(x: np.ndarray, w: np.ndarray):
    x.flags.writeable = w.flags.writeable = False
    return x, w


@cache
def gauss_legendre_01(k: int):
    """Gauss-Legendre nodes/weights on [0, 1].  Cached, so read-only."""
    x, w = roots_legendre(k)
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


@cache
def gauss_jacobi_01(k: int, sing: float):
    """Nodes/weights integrating u^{-sing} * phi(u) on [0, 1] exactly for
    polynomial phi.  Requires sing < 1.  Cached, so read-only."""
    if not sing < 1.0:
        raise ValueError("singular exponent must be < 1 for a convergent rule")
    if sing == 0.0:
        return gauss_legendre_01(k)
    x, w = roots_jacobi(k, 0.0, -sing)
    return _frozen(0.5 * (x + 1.0), (2.0 ** (sing - 1.0)) * w)


def segment_integrals(qa, qb, qc, f, sing: float):
    """Integrate f(r(s)) over s in [0, 1] elementwise for a batch of segments.

    qa, qb, qc : arrays (broadcastable to a common shape) with
                 r(s)^2 = qa s^2 + qb s + qc  (qa >= 0, and r^2 >= 0 on [0,1])
    f          : vectorized map from radii to integrand values; f(r) must
                 behave like r^{-sing} as r -> 0 and may return inf at r = 0
    sing       : the singular exponent (>= 1 marks divergent touching
                 segments, which come back as +inf)

    Returns an array of the common broadcast shape.
    """
    qa, qb, qc = np.broadcast_arrays(
        np.asarray(qa, dtype=float), np.asarray(qb, dtype=float), np.asarray(qc, dtype=float)
    )
    shape = qa.shape
    qa, qb, qc = qa.ravel(), qb.ravel(), qc.ravel()
    out = np.zeros(qa.shape)

    const = qa <= 0.0
    if np.any(const):
        with np.errstate(divide="ignore"):
            out[const] = f(np.sqrt(np.maximum(qc[const], 0.0)))

    mov = ~const
    if not np.any(mov):
        return out.reshape(shape)

    a, b, c = qa[mov], qb[mov], qc[mov]
    s_star = np.clip(-b / (2.0 * a), 0.0, 1.0)
    q_min = np.maximum(a * s_star**2 + b * s_star + c, 0.0)
    scale = a + np.abs(b) + c
    touching = q_min <= _TOUCH_RTOL * scale

    val = np.zeros(a.shape)

    smooth = ~touching
    if np.any(smooth):
        u, w = gauss_legendre_01(7)
        acc = np.zeros(smooth.sum())
        aa, bb, cc, ss = a[smooth], b[smooth], c[smooth], s_star[smooth]
        for lo, ln in ((np.zeros_like(ss), ss), (ss, 1.0 - ss)):
            part = np.zeros_like(acc)
            for ui, wi in zip(u, w):
                s = lo + ln * ui
                r = np.sqrt(np.maximum(aa * s * s + bb * s + cc, 0.0))
                part += wi * f(r)
            acc += ln * part
        val[smooth] = acc

    if np.any(touching):
        if sing >= 1.0:
            val[touching] = np.inf
        else:
            u, w = gauss_jacobi_01(6, sing)
            using = u**sing
            acc = np.zeros(touching.sum())
            aa, ss, qm = a[touching], s_star[touching], q_min[touching]
            # halves [s*-len0, s*] and [s*, s*+len1]; r(s* +- len*u) in the
            # vertex form a (len u)^2 + q_min, which is sqrt(a) * len * u
            # in floating point too when q_min = 0 (no cancellation)
            for ln in (ss, 1.0 - ss):
                part = np.zeros_like(acc)
                for ui, wi, uis in zip(u, w, using):
                    r = np.sqrt(aa * (ln * ui) ** 2 + qm)
                    part += wi * uis * f(r)
                # zero-length halves evaluate f at the singular point; drop them
                with np.errstate(invalid="ignore"):
                    acc += np.where(ln > 0.0, ln * part, 0.0)
            val[touching] = acc

    out[mov] = val
    return out.reshape(shape)
