import numpy as np
import pytest

from grushinlab.coefficients import (
    CoefficientField,
    GrusinParameters,
    coefficient_profile,
    derive_exponents,
    piecewise_power,
)


def test_piecewise_power_branches():
    assert piecewise_power(0.5, 2, 3) == 0.25
    assert piecewise_power(2, 2, 3) == 8
    assert piecewise_power(1, 7, -4) == 1.0


def test_piecewise_power_rejects_negative_base():
    with pytest.raises(ValueError):
        piecewise_power(-0.1, 1, 1)


def test_piecewise_power_continuous_at_one():
    for alpha, alphap in [(2.0, 3.0), (-1.5, 0.7), (0.0, 5.0)]:
        for eps in [1e-3, 1e-6, 1e-9]:
            lo = piecewise_power(1.0 - eps, alpha, alphap)
            hi = piecewise_power(1.0 + eps, alpha, alphap)
            assert abs(lo - 1.0) < 10 * eps * (abs(alpha) + 1)
            assert abs(hi - 1.0) < 10 * eps * (abs(alphap) + 1)


def test_piecewise_power_vectorized_matches_scalar():
    a = np.array([0.0, 0.3, 1.0, 2.5, 100.0])
    out = piecewise_power(a, 1.5, -0.5)
    for ai, oi in zip(a, out):
        assert oi == piecewise_power(float(ai), 1.5, -0.5)


def test_coefficient_examples():
    assert coefficient_profile(3.7, 0.0, 0.0) == 1.0
    assert coefficient_profile(1.0, 0.5, 0.5) == 1.0
    # |x| = 2, delta = 1/4, deltap = 1/2: 2^(1/2) * 5^(1/4), direct evaluation
    assert coefficient_profile(2.0, 0.25, 0.5) == pytest.approx(2.114742526881128, rel=1e-14)


def test_coefficient_equivalence_band():
    # c(x) / |x|^(2delta, 2deltap) stays within 2^(+-|deltap - delta|)
    rng = np.random.default_rng(42)
    for delta, deltap in [(0.25, 0.5), (0.9, 0.1), (0.0, 2.0), (1.3, 1.3)]:
        band = 2.0 ** abs(deltap - delta)
        r = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=10_000))
        ratio = coefficient_profile(r, delta, deltap) / piecewise_power(r, 2 * delta, 2 * deltap)
        assert np.all(ratio <= band * (1 + 1e-12))
        assert np.all(ratio >= (1 + 1e-12) ** -1 / band)


def test_parameter_validation():
    with pytest.raises(ValueError, match="delta1"):
        GrusinParameters(1, 1, delta1=1.0)
    with pytest.raises(ValueError, match="delta1"):
        GrusinParameters(1, 1, delta1=1.2)
    with pytest.raises(ValueError, match="delta2"):
        GrusinParameters(1, 1, delta2=-0.1)
    with pytest.raises(ValueError, match="n must"):
        GrusinParameters(0, 1)
    with pytest.raises(ValueError, match="m must"):
        GrusinParameters(1, -1)


def test_derive_exponents_euclidean():
    e = derive_exponents(GrusinParameters(1, 1))
    assert (e.D, e.Dp, e.beta, e.rho, e.gamma, e.alpha) == (2.0, 2.0, 0.0, 1.0, 0.0, 1.0)
    assert e.doubling_dim == 2.0


def test_derive_exponents_classical_grusin():
    e = derive_exponents(GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0))
    assert e.D == 3.0 and e.Dp == 3.0
    assert e.beta == 1.0 and e.rho == 2.0
    assert e.gamma == 0.5 and e.alpha == 0.5


def test_derive_exponents_formula_case():
    e = derive_exponents(GrusinParameters(2, 1, delta1=0.5))
    assert e.D == pytest.approx(5.0)
    assert e.Dp == pytest.approx(3.0)


def test_classical_grusin_dimension_against_volume_integration():
    # brute-force check on the homogeneous dimension of -d_1^2 - x_1^2 d_2^2:
    # with the scaling (x, y) -> (s x, s^2 y) the box measure scales as s^3,
    # so counting lattice cells of the anisotropic box {|x| < r, |y| < r^2}
    # must reproduce D = 3 as a log-log slope.
    vols = []
    radii = [0.5, 1.0, 2.0, 4.0]
    for r in radii:
        xs = np.arange(-r, r, 0.01)
        ys = np.arange(-(r**2), r**2, 0.01)
        vols.append(len(xs) * len(ys) * 0.01 * 0.01)
    slope = np.polyfit(np.log(radii), np.log(vols), 1)[0]
    e = derive_exponents(GrusinParameters(1, 1, 0.0, 0.0, 1.0, 1.0))
    assert slope == pytest.approx(e.D, rel=0.01)


def test_dimension_bounds_and_monotonicity():
    # D >= n + m with equality iff delta1 = delta2 = 0, and D nondecreasing
    # in both local exponents over a parameter sweep
    for n, m in [(1, 0), (1, 1), (2, 3)]:
        grid = np.linspace(0.0, 0.9, 10)
        prev_rows = None
        for d1 in grid:
            row = []
            for d2 in np.linspace(0.0, 3.0, 10):
                e = derive_exponents(GrusinParameters(n, m, d1, 0.0, d2, 0.0))
                assert 0.0 <= e.gamma < 1.0
                assert 0.0 < e.alpha <= 1.0
                assert e.D >= n + m - 1e-12
                if d1 == 0.0 and d2 == 0.0:
                    assert e.D == pytest.approx(n + m)
                elif m > 0 or d1 > 0:
                    assert e.D > n + m - 1e-12
                row.append(e.D)
            assert np.all(np.diff(row) >= -1e-12), "D must be nondecreasing in delta2"
            if prev_rows is not None and m > 0:
                assert np.all(np.asarray(row) >= np.asarray(prev_rows) - 1e-12)
            prev_rows = row


def test_coefficient_field_frozen_floor():
    p = GrusinParameters(1, 1, 0.5, 0.0, 1.0, 1.0)
    plain = CoefficientField(p)
    frozen = CoefficientField(p, floor_radius=0.5)
    assert frozen.block(1, 0.0) == plain.block(1, 0.5)
    assert frozen.block(2, 0.1) == plain.block(2, 0.5)
    assert frozen.block(1, 2.0) == plain.block(1, 2.0)
    with pytest.raises(ValueError, match="1 or 2"):
        plain.block(3, 1.0)
    assert frozen.singular_exponent(1) == 0.0
    assert plain.singular_exponent(1) == 0.5
