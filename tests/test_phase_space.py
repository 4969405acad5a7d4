"""Unit tests for phase-space points, Wigner evaluation, and matrix forms."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (
    CovarianceMatrix,
    NormalModes,
    SqueezedStateParams,
    TwoModePoint,
    evolve_coefficients,
    nm_from_v,
    thermal_marginal,
    v_from_w,
    wigner_pure_2mss,
)
from cvbell.mixtures import werner_wigner
from cvbell.modes import MixtureSpec
from cvbell.phase_space import w_matrix_from_form, wigner_gaussian_eval
from oracles import (covariance_xvec, form_from_covariance_xvec,
                     precision_xvec, wigner_50)
from quad_helpers import point_from_xvec, point_in_normal_modes, xvec_of

FOUR_OVER_PI_SQ = 4.0 / math.pi ** 2
EPS = 2.0 ** -52
# frozen: alpha1=0.1, alpha2=-0.1 puts 0.2/sqrt2 on the narrow axis, so the
# exponent is -4 e^{2r} * 0.02 / 2 = -0.04 e^3 at r=1.5
W_NARROW_POINT = 0.18148416259641656


def test_point_round_trip():
    rng = np.random.default_rng(3)
    x1, x2, x3, x4 = rng.normal(size=4)
    pt = point_from_xvec(x1, x2, x3, x4)
    np.testing.assert_allclose(xvec_of(pt), [x1, x2, x3, x4], rtol=1e-15)
    assert pt.alpha1 == complex(x1, x2)
    assert pt.alpha2 == complex(x3, x4)


def test_pure_wigner_origin_value():
    for r in (0.0, 0.5, 1.5, 2.5):
        assert wigner_pure_2mss(TwoModePoint(0j, 0j), r) == FOUR_OVER_PI_SQ


def test_pure_wigner_frozen_point():
    val = wigner_pure_2mss(TwoModePoint(0.1 + 0j, -0.1 + 0j), 1.5)
    assert val == pytest.approx(W_NARROW_POINT, rel=1e-15)
    assert val == pytest.approx(FOUR_OVER_PI_SQ
                                * math.exp(-0.04 * math.exp(3.0)), rel=1e-13)


def test_pure_wigner_bounded_and_positive():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        val = wigner_pure_2mss(TwoModePoint(a1, a2), 1.0)
        assert 0.0 < val <= FOUR_OVER_PI_SQ


def test_pure_wigner_symmetries():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        ref = wigner_pure_2mss(TwoModePoint(a1, a2), 1.2)
        conj = wigner_pure_2mss(TwoModePoint(a1.conjugate(), a2.conjugate()),
                                1.2)
        swap = wigner_pure_2mss(TwoModePoint(a2, a1), 1.2)
        assert conj == pytest.approx(ref, rel=1e-14)
        assert swap == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("r", [6.0, 10.0, 15.0, 100.0, 354.8])
def test_pure_wigner_along_the_squeezed_axis(r):
    # at a1 = a2 = e^r/2 the density is (2/pi)^2 / e for every r.  The
    # (c1, c2) exponent lost its digits as r grew: at r = 10 it read 1.0,
    # above the bound (2/pi)^2, and the Werner mixture at p = 1/2 read 0.5
    x = math.exp(r) / 2.0
    point = TwoModePoint(x + 0j, x + 0j)
    want = FOUR_OVER_PI_SQ / math.e
    assert wigner_pure_2mss(point, r) == pytest.approx(want, rel=4 * EPS)
    product = thermal_marginal(x, r) ** 2
    assert werner_wigner(point, MixtureSpec(0.5, r)) == pytest.approx(
        (want + product) / 2.0, rel=4 * EPS)


#: a state drawn over the whole squeezing range, r log-uniform on
#: [1e-9, 354.8], d exactly 0 or log-uniform on [1e-6, 10], nbar in [0, 2],
#: and a point in its normal-mode units
unit = st.floats(-3.0, 3.0)
wigner_draws = st.tuples(
    st.floats(-9.0, math.log10(354.8)).map(lambda u: 10.0 ** u),
    st.one_of(st.just(0.0), st.floats(-6.0, 1.0).map(lambda u: 10.0 ** u)),
    st.floats(0.0, 2.0), unit, unit, unit, unit)


def _assert_near_50_digits(got, want, prefactor):
    # the exponent -log(W / prefactor) is formed with a few roundings,
    # each relative to its size, as is exp of it
    with mpmath.workdps(50):
        exponent = -mpmath.log(want / prefactor)
        assert abs(got - want) <= 4 * EPS * (1 + exponent) * want


@settings(max_examples=300, derandomize=True, deadline=None)
@given(wigner_draws)
def test_wigner_against_50_digits(draw):
    # in the normal-mode frame the density keeps its digits at any r: the
    # state's and the pure state's, each at a point in its own units
    r, d, nbar, *u = draw
    try:
        form = NormalModes.of(SqueezedStateParams(r, d, nbar))
    except ValueError:  # c1 or h past the float range
        return
    point = point_in_normal_modes(form.s1, form.s2, *u)
    with mpmath.workdps(50):
        _assert_near_50_digits(wigner_gaussian_eval(point, form),
                               wigner_50(point, form.s1, form.s2),
                               4 / mpmath.pi ** 2 / form.h)
        s1, s2 = mpmath.exp(-2 * mpmath.mpf(r)), mpmath.exp(2 * mpmath.mpf(r))
    point = point_in_normal_modes(math.exp(-2.0 * r), math.exp(2.0 * r), *u)
    with mpmath.workdps(50):
        _assert_near_50_digits(wigner_pure_2mss(point, r),
                               wigner_50(point, s1, s2), 4 / mpmath.pi ** 2)


def test_wigner_at_the_edge_of_the_squeezing_range(recwarn):
    # e^{2r} is finite up to r ~ 354.9: on the axis V = 0 the density is
    # finite, and a term past the float range gives the limit 0, never a
    # NaN and no warning; past that r the range error
    r = 354.8
    assert wigner_pure_2mss(TwoModePoint(1e154 + 0j, 1e154 + 0j), r) > 0.0
    assert wigner_pure_2mss(TwoModePoint(1.0 + 0j, -1.0 + 0j), r) == 0.0
    assert wigner_pure_2mss(TwoModePoint(1e200 + 0j, 1e200j), r) == 0.0
    assert len(recwarn) == 0
    with pytest.raises(ValueError, match="overflows"):
        wigner_pure_2mss(TwoModePoint(0j, 0j), 355.0)


def test_gaussian_eval_reduces_to_pure_at_d_zero():
    form = NormalModes(math.exp(-2.0), math.exp(2.0))
    pt = TwoModePoint(0.3 - 0.1j, -0.2 + 0.4j)
    assert wigner_gaussian_eval(pt, form) == pytest.approx(
        wigner_pure_2mss(pt, 1.0), rel=1e-13)


def test_gaussian_eval_array_broadcast():
    form = evolve_coefficients(SqueezedStateParams(1.0, 0.5, 0.3))
    a = np.linspace(-0.5, 0.5, 7)
    vals = wigner_gaussian_eval(TwoModePoint(a + 0j, 0j * a), form)
    assert vals.shape == (7,)
    single = wigner_gaussian_eval(TwoModePoint(complex(a[2]), 0j), form)
    assert vals[2] == pytest.approx(single, rel=1e-15)


def test_vacuum_covariance_is_half_identity():
    form = NormalModes(1.0, 1.0)
    v = v_from_w(w_matrix_from_form(form))
    np.testing.assert_allclose(v.entries, np.eye(4) / 2.0, atol=1e-14)


def test_pure_w_matrix_has_det_16():
    for r in (0.0, 0.5, 1.5):
        w = w_matrix_from_form(NormalModes(math.exp(-2.0 * r),
                                           math.exp(2.0 * r)))
        assert np.linalg.det(w.entries) == pytest.approx(16.0, rel=1e-12)


def test_nm_from_pure_squeezed_state():
    form = NormalModes(math.exp(-3.0), math.exp(3.0))
    n, m = nm_from_v(v_from_w(w_matrix_from_form(form)))
    assert n == pytest.approx((math.cosh(3.0) - 1.0) / 2.0, rel=1e-12)
    assert m == pytest.approx(-math.sinh(3.0) / 2.0, rel=1e-12)
    # pure states saturate M^2 = N(N+1)
    assert m * m == pytest.approx(n * (n + 1.0), rel=1e-12)


def test_w_is_e_conjugate_of_v_inverse():
    form = evolve_coefficients(SqueezedStateParams(1.2, 0.8, 0.4))
    w = w_matrix_from_form(form)
    v = v_from_w(w)
    e = np.diag([1.0, -1.0, 1.0, -1.0])
    np.testing.assert_allclose(w.entries, e @ np.linalg.inv(v.entries) @ e,
                               atol=1e-12)


def test_v_from_w_rejects_indefinite_input():
    with pytest.raises(ValueError):
        v_from_w(CovarianceMatrix(entries=-np.eye(4), convention="W"))


def test_nm_rejects_wrong_pattern():
    with pytest.raises(ValueError):
        nm_from_v(CovarianceMatrix(entries=np.diag([1.0, 1.0, 2.0, 2.0]),
                                   convention="V"))


def test_covariance_round_trip():
    form = evolve_coefficients(SqueezedStateParams(1.1, 2.0, 1.5))
    back = form_from_covariance_xvec(covariance_xvec(form))
    assert back.c1 == pytest.approx(form.c1, rel=1e-12)
    assert back.c2 == pytest.approx(form.c2, rel=1e-12)
    assert back.h == pytest.approx(form.h, rel=1e-12)


def test_precision_inverts_covariance():
    form = evolve_coefficients(SqueezedStateParams(0.9, 1.3, 0.2))
    np.testing.assert_allclose(precision_xvec(form) @ covariance_xvec(form),
                               np.eye(4), atol=1e-12)


def test_from_rates_mapping():
    params = SqueezedStateParams.from_rates(kappa=0.75, gamma=2.0, t=2.0,
                                            nbar=0.3)
    assert params.r == pytest.approx(1.5)
    assert params.d == pytest.approx(4.0)
    assert params.nbar == 0.3
    assert params.p1 == pytest.approx(params.d + 2.0 * params.r)
    assert params.p2 == pytest.approx(params.d - 2.0 * params.r)


def test_params_validation():
    with pytest.raises(ValueError):
        SqueezedStateParams(-0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        SqueezedStateParams(0.5, -1.0, 0.0)
    with pytest.raises(ValueError):
        SqueezedStateParams(0.5, 1.0, -0.2)
