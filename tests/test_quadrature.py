import numpy as np
import pytest
from scipy.integrate import quad

from grushinlab.quadrature import gauss_jacobi_01, gauss_legendre_01, segment_integrals


def test_gauss_legendre_01_integrates_polynomials():
    u, w = gauss_legendre_01(7)
    for k in range(13):
        assert np.sum(w * u**k) == pytest.approx(1.0 / (k + 1), rel=1e-12)


def test_gauss_jacobi_01_absorbs_singularity():
    sing = 0.7
    u, w = gauss_jacobi_01(6, sing)
    for k in range(8):
        exact = 1.0 / (k + 1 - sing)
        assert np.sum(w * u**k) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("rule, args", [(gauss_legendre_01, (7,)), (gauss_legendre_01, (256,)),
                                        (gauss_jacobi_01, (6, 0.7)), (gauss_jacobi_01, (6, 0.0))])
def test_a_cached_rule_is_shared_and_read_only(rule, args):
    # every caller gets the same arrays, so none may write to them
    u, w = rule(*args)
    assert rule(*args)[0] is u
    for a in (u, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


def test_segment_integrals_constant_radius():
    # qa = 0: the integrand is constant along the segment
    val = segment_integrals(0.0, 0.0, 4.0, lambda r: r**2 + 1.0, 0.0)
    assert val == pytest.approx(5.0)


def test_segment_integrals_smooth_against_quad():
    f = lambda r: 1.0 / (1.0 + r)
    qa, qb, qc = 2.0, 1.0, 3.0
    exact, _ = quad(lambda s: f(np.sqrt(qa * s * s + qb * s + qc)), 0, 1)
    val = segment_integrals(qa, qb, qc, f, 0.0)
    assert val == pytest.approx(exact, rel=1e-8)


def _inv_power(expo):
    def f(r):
        with np.errstate(divide="ignore"):
            return np.asarray(r, dtype=float) ** (-expo)

    return f


@pytest.mark.parametrize("sing", [0.25, 0.5, 0.75])
def test_segment_integrals_interior_crossing(sing):
    # r(s) = |s - 1/2| via qa=1, qb=-1, qc=1/4; f(r) = r^-sing
    exact = 2 * (0.5 ** (1 - sing)) / (1 - sing)
    val = segment_integrals(1.0, -1.0, 0.25, _inv_power(sing), sing)
    assert val == pytest.approx(exact, rel=1e-10)


def test_segment_integrals_divergent_marks_inf():
    val = segment_integrals(1.0, -1.0, 0.25, _inv_power(1.5), 1.5)
    assert np.isinf(val)
    # constant-radius zero segment with infinite integrand
    val2 = segment_integrals(0.0, 0.0, 0.0, _inv_power(1.0), 1.0)
    assert np.isinf(val2)


def test_segment_integrals_endpoint_singularity():
    # r(s) = s, f = r^-0.5: integral = 2
    val = segment_integrals(1.0, 0.0, 0.0, _inv_power(0.5), 0.5)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_segment_integrals_broadcasts():
    qa = np.array([1.0, 0.0, 1.0])
    qb = np.array([0.0, 0.0, -1.0])
    qc = np.array([0.0, 1.0, 0.25])
    out = segment_integrals(qa, qb, qc, _inv_power(0.5), 0.5)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(1.0)
    assert out[2] == pytest.approx(2 * np.sqrt(2), rel=1e-10)
