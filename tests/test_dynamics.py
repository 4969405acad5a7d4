"""Unit tests for the noise dynamics: closed form, ODE oracle, steady state."""

import math

import numpy as np
import pytest

from cvbell import (
    NormalModes,
    SqueezedStateParams,
    coefficient_arrays,
    evolve_coefficients,
    nm_from_v,
    steady_state,
    v_from_w,
)
from cvbell.phase_space import w_matrix_from_form
from oracles import (
    ConvergenceError,
    covariance_ode_oracle,
    covariance_xvec,
    drift_eigenvalues,
    drift_matrix,
    matrix_exp4,
    propagate_covariance,
    propagate_green,
    variances_50,
)

# frozen against a 200k-step scratch RK4 of the covariance ODE
ANCHOR = SqueezedStateParams(r=1.5, d=1.0, nbar=0.0)
ANCHOR_C1 = 21.694641755125055
ANCHOR_C2 = -20.63969483845885
ANCHOR_H = 2.7912798661569074

# frozen N, M of the gamma=3, kappa=1, nbar=0.5 long-time limit
STEADY_N = 1.2999999999999998
STEADY_M = -1.2


def _nm(form):
    return nm_from_v(v_from_w(w_matrix_from_form(form)))


def test_frozen_anchor_coefficients():
    form = evolve_coefficients(ANCHOR)
    assert form.c1 == pytest.approx(ANCHOR_C1, rel=1e-14)
    assert form.c2 == pytest.approx(ANCHOR_C2, rel=1e-14)
    assert form.h == pytest.approx(ANCHOR_H, rel=1e-14)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("nbar", [0.0, 1.3])
def test_no_diffusion_reduces_to_pure(r, nbar):
    form = evolve_coefficients(SqueezedStateParams(r, 0.0, nbar))
    assert form.c1 == pytest.approx(4.0 * math.cosh(2.0 * r), rel=1e-12)
    assert form.c2 == pytest.approx(-4.0 * math.sinh(2.0 * r), abs=1e-12)
    assert form.h == pytest.approx(1.0, rel=1e-12)


def test_vacuum_line_is_exactly_vacuum():
    # r=0, nbar=0 damping has the vacuum as fixed point for every d
    for d in (0.5, 2.0, 50.0):
        form = evolve_coefficients(SqueezedStateParams(0.0, d, 0.0))
        assert (form.c1, form.c2, form.h) == (4.0, 0.0, 1.0)


def test_coefficient_identity_c1sq_minus_c2sq():
    # c1^2 - c2^2 = 16 h holds for every model state
    rng = np.random.default_rng(9)
    for _ in range(100):
        r, d, nbar = rng.uniform(0, 3), rng.uniform(0, 6), rng.uniform(0, 5)
        form = evolve_coefficients(SqueezedStateParams(r, d, nbar))
        assert form.c1 ** 2 - form.c2 ** 2 == pytest.approx(16.0 * form.h,
                                                            rel=1e-11)


def test_coefficient_arrays_match_scalar_route():
    r = np.linspace(0.0, 2.0, 5)
    d = np.linspace(0.0, 4.0, 5)
    c1, c2, h = coefficient_arrays(r[:, None], d[None, :], 0.7)
    assert c1.shape == (5, 5)
    form = evolve_coefficients(SqueezedStateParams(float(r[3]), float(d[2]),
                                                   0.7))
    assert c1[3, 2] == pytest.approx(form.c1, rel=1e-14)
    assert c2[3, 2] == pytest.approx(form.c2, rel=1e-14)
    assert h[3, 2] == pytest.approx(form.h, rel=1e-14)


def test_continuity_across_d_equals_2r():
    # p2 -> 0 is an interior removable point of the closed form
    base = evolve_coefficients(SqueezedStateParams(1.0, 2.0, 0.7))
    for eps in (1e-12, -1e-12):
        near = evolve_coefficients(SqueezedStateParams(1.0, 2.0 + eps, 0.7))
        assert abs(near.c1 - base.c1) < 1e-9
        assert abs(near.c2 - base.c2) < 1e-9
        assert abs(near.h - base.h) < 1e-9


def test_ode_oracle_matches_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(5):
        r, d, nbar = rng.uniform(0.1, 3), rng.uniform(0.2, 6), rng.uniform(0, 5)
        sigma = covariance_ode_oracle(kappa=r / d, gamma=1.0, nbar=nbar, t=d)
        closed = covariance_xvec(evolve_coefficients(
            SqueezedStateParams(r, d, nbar)))
        assert np.max(np.abs(sigma - closed)) < 1e-6


def test_ode_oracle_rejects_coarse_grids():
    with pytest.raises(ValueError):
        covariance_ode_oracle(0.3, 1.0, 0.0, 1.0, steps=500)


def test_propagators_agree():
    s0 = np.eye(4) / 4.0
    kappa, gamma, nbar, t = 0.6, 1.7, 0.9, 2.3
    direct = propagate_covariance(s0, kappa, gamma, t, nbar)
    form = propagate_green(s0, kappa, gamma, t, nbar)
    np.testing.assert_allclose(covariance_xvec(form), direct, atol=1e-10)
    # and both against the generic matrix exponential route
    prop = matrix_exp4(drift_matrix(gamma, kappa), t)
    sigma = covariance_ode_oracle(kappa, gamma, nbar, t)
    homog = prop @ (s0 - _steady_sigma(kappa, gamma, nbar)) @ prop.T
    np.testing.assert_allclose(sigma,
                               homog + _steady_sigma(kappa, gamma, nbar),
                               atol=1e-6)


def _steady_sigma(kappa, gamma, nbar):
    rep = steady_state(gamma, kappa, nbar)
    return covariance_xvec(rep.limit_form)


def test_drift_eigenvalues():
    np.testing.assert_allclose(drift_eigenvalues(2.0, 0.5),
                               [-1.5, -1.5, -0.5, -0.5], atol=1e-14)


def test_steady_state_squeezed_thermal():
    rep = steady_state(3.0, 1.0, nbar=0.5)
    assert rep.exists
    assert rep.classification == "squeezed-thermal"
    n, m = _nm(rep.limit_form)
    assert n == pytest.approx(STEADY_N, abs=1e-14)
    assert m == pytest.approx(STEADY_M, abs=1e-14)


def test_steady_state_reached_at_long_times():
    rep = steady_state(3.0, 1.0, nbar=0.5)
    n_inf, m_inf = _nm(rep.limit_form)
    t = 40.0 / (3.0 - 2.0)
    form = evolve_coefficients(SqueezedStateParams.from_rates(
        kappa=1.0, gamma=3.0, t=t, nbar=0.5))
    n_t, m_t = _nm(form)
    assert abs(n_t - n_inf) < 1e-8
    assert abs(m_t - m_inf) < 1e-8


def test_steady_state_uncoupled_is_thermal():
    rep = steady_state(2.0, 0.0, nbar=0.7)
    assert rep.exists
    assert rep.classification == "thermal"
    n, m = _nm(rep.limit_form)
    assert n == pytest.approx(0.7, rel=1e-12)
    assert m == pytest.approx(0.0, abs=1e-14)


def test_steady_state_boundary_and_absent():
    boundary = steady_state(2.0, 1.0)
    assert not boundary.exists
    assert boundary.classification == "boundary-undefined"
    assert boundary.limit_form is None
    absent = steady_state(1.0, 1.0)
    assert not absent.exists
    assert absent.classification == "none"


def test_oracle_self_check_error_type_exists():
    # the self-check failure channel is a ConvergenceError subclass of
    # RuntimeError so callers can catch it without masking ValueError
    assert issubclass(ConvergenceError, RuntimeError)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_coefficient_arrays_float_path_matches_array_path():
    # floats and numpy scalars give the values of the array path,
    # including inf/NaN once the exponentials overflow (r = 400), which
    # must not raise ZeroDivisionError
    rng = np.random.default_rng(17)
    r = np.concatenate([rng.uniform(0.0, 3.0, 300), [400.0, 400.0, 0.0]])
    d = np.concatenate([rng.uniform(0.0, 6.0, 300), [0.0, 1.0, 0.0]])
    nbar = np.concatenate([rng.uniform(0.0, 5.0, 300), [0.0, 0.5, 0.0]])
    d[:50] = 2.0 * r[:50]  # the resonance d = 2r, p2 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        whole = coefficient_arrays(r, d, nbar)
        for i in range(r.size):
            for args in ((float(r[i]), float(d[i]), float(nbar[i])),
                         (r[i], d[i], nbar[i])):
                got = coefficient_arrays(*args)
                assert all(_same(float(g), float(w[i]))
                           for g, w in zip(got, whole))
    assert not all(np.isfinite(c[-3]) for c in whole)


def test_coefficients_overflow_is_a_value_error(recwarn):
    # e^{2r} leaves the float range: the message names r and the
    # overflow, as the normal-mode core's does, without numpy warnings
    with pytest.raises(ValueError, match=r"overflow.*r=400\.0"):
        evolve_coefficients(SqueezedStateParams(400.0, 0.0))
    with pytest.raises(ValueError, match="overflow"):
        evolve_coefficients(SqueezedStateParams(400.0, 1.0, 0.5))
    assert len(recwarn) == 0


@pytest.mark.parametrize("params", [SqueezedStateParams(10.0, 0.0),
                                    SqueezedStateParams(20.0, 1.0, 0.0)])
def test_states_whose_c1_rounds_to_abs_c2_are_returned(params):
    # c1 and |c2| round to the same float, and the state is still legal
    form = evolve_coefficients(params)
    assert form.c1 == abs(form.c2)
    assert form == NormalModes.of(params)


def test_coefficient_h_matches_fifty_digits_at_large_squeezing():
    # p1 + p2 rounded d by up to ulp(2r); this h was 6.4e-13 off (c1 and
    # |c2| of the state round to the same float)
    import mpmath

    r, d, nbar = 18.5, 1.05e-3, 6e-3
    s1, s2 = variances_50(r, d, nbar)
    h = coefficient_arrays(r, d, nbar)[2]
    with mpmath.workdps(50):
        assert abs(h - s1 * s2) <= 1e-14 * s1 * s2
