"""Unit tests for the in-repo special-function and linear-algebra layer."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (
    TOLERANCES,
    bessel_i0_log,
    nelder_mead_minimize,
    one_minus_exp_over,
    sym4_eigenvalues,
)
from cvbell.modes import log_i0
from cvbell.phase_space import CovarianceMatrix, v_from_w
from oracles import (
    SWAP_SIGN,
    bessel_i0,
    bessel_i0_log_loops,
    diffusion_matrix,
    drift_matrix,
    gauss_legendre,
    jacobi_eigenvalues,
    matrix_exp4,
    nelder_mead_pairwise,
    periodic_trapezoid,
    propagate_covariance,
    rk4_lyapunov,
)

# Abramowitz & Stegun 9.8 reference values.
I0_AT_1 = 1.2660658777520082
I0_AT_10 = 2815.716628466255


def _i0_series(x: float) -> float:
    """Plain power-series reference, adequate well past the branch switch."""
    terms = []
    term = 1.0
    for k in range(1, 80):
        terms.append(term)
        term *= (x * x / 4.0) / (k * k)
    return math.fsum(terms)


def test_bessel_i0_frozen_values():
    assert bessel_i0(0.0) == 1.0
    assert bessel_i0(1.0) == pytest.approx(I0_AT_1, rel=1e-15)
    assert bessel_i0(10.0) == pytest.approx(I0_AT_10, rel=1e-14)


def test_bessel_i0_rejects_negative():
    with pytest.raises(ValueError):
        bessel_i0(-1.0)


def test_bessel_i0_branches_agree_near_switch():
    # both branches are exercised on a span straddling the switch point
    for x in np.linspace(TOLERANCES.bessel_switch - 3.0,
                         TOLERANCES.bessel_switch + 3.0, 41):
        assert bessel_i0(float(x)) == pytest.approx(_i0_series(float(x)),
                                                    rel=1e-12)


def test_bessel_i0_log_matches_direct_log():
    for x in (0.0, 0.5, 5.0, 14.0, 16.0, 50.0):
        assert bessel_i0_log(x) == pytest.approx(math.log(bessel_i0(x)),
                                                 abs=1e-13, rel=1e-13)


def test_bessel_i0_log_huge_argument():
    # leading asymptote log I0(x) ~ x - log(2 pi x)/2 for large x
    x = 1e8
    assert bessel_i0_log(x) == pytest.approx(x - 0.5 * math.log(2 * math.pi * x),
                                             rel=1e-12)


@pytest.mark.parametrize("x", [1e308, 1.7e308])
def test_log_i0_past_the_overflow_of_2_pi_x(x):
    # 2 pi x overflows from x ~ 2.8e307 on; log I0(x) ~ x stays finite
    with mpmath.workdps(50):
        want = float(mpmath.log(mpmath.besseli(0, mpmath.mpf(x))))
    for got in (bessel_i0_log(x), float(bessel_i0_log(np.array([x]))[0]),
                log_i0(x)):
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-15 * want


def test_bessel_i0_array_input():
    x = np.array([0.0, 1.0, 10.0])
    np.testing.assert_allclose(bessel_i0(x), [1.0, I0_AT_1, I0_AT_10],
                               rtol=1e-14)


def test_bessel_i0_log_against_mpmath():
    # relative accuracy from x = 1e-8, where log I0 ~ x^2/4 = 2.5e-17 and
    # a log of 1 + tiny loses every digit, up to 1e6, on both sides of
    # the switch
    switch = TOLERANCES.bessel_switch
    x = np.concatenate([np.geomspace(1e-8, 1e6, 400),
                        np.linspace(switch - 0.5, switch + 0.5, 41)])
    got = bessel_i0_log(x)
    mpmath.mp.dps = 50
    worst = 0.0
    for xi, gi in zip(x.tolist(), got.tolist()):
        want = mpmath.log(mpmath.besseli(0, mpmath.mpf(xi)))
        worst = max(worst, float(abs(gi - want) / want))
    assert worst <= 1e-14


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=20))
def test_bessel_i0_log_horner_matches_the_term_loops(xs):
    # the term-by-term oracle takes the log of 1 + tiny, which is only
    # good to an ulp or so of 1, so ulps are counted on max(1, |log I0|)
    x = np.array(xs)
    got = bessel_i0_log(x)
    want = bessel_i0_log_loops(x)
    scale = np.spacing(np.maximum(1.0, np.abs(want)))
    assert np.all(np.abs(got - want) <= 4.0 * scale)
    assert bessel_i0_log(xs[0]) == got[0]


def test_one_minus_exp_over_basics():
    assert one_minus_exp_over(0.0) == 1.0
    # reference via expm1 away from the origin
    for p in (1e-3, 0.1, 1.0, 10.0, 50.0, -0.5, -10.0):
        assert one_minus_exp_over(p) == pytest.approx(-math.expm1(-p) / p,
                                                      rel=1e-14)


def test_one_minus_exp_over_series_branch_continuity():
    cut = TOLERANCES.taylor_cutoff
    for p in (cut, -cut):
        below = one_minus_exp_over(p * (1.0 - 1e-9))
        above = one_minus_exp_over(p * (1.0 + 1e-9))
        assert abs(below - above) < 1e-12


def test_one_minus_exp_over_positive_and_decreasing():
    p = np.linspace(-50.0, 50.0, 2001)
    vals = one_minus_exp_over(p)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_gauss_legendre_degree_exactness(n):
    a, b = 0.3, 2.1
    rule = gauss_legendre(n, a, b)
    for k in range(2 * n):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        got = rule.integrate(lambda x: x ** k)
        assert got == pytest.approx(exact, rel=1e-13)


def test_gauss_legendre_weights_and_nodes():
    rule = gauss_legendre(16, -2.0, 5.0)
    assert math.fsum(rule.weights) == pytest.approx(7.0,
                                                    rel=TOLERANCES.weight_sum_rel)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert rule.nodes[0] > -2.0 and rule.nodes[-1] < 5.0


def test_periodic_trapezoid_spectral_accuracy():
    # int_0^{2pi} e^{cos t} dt = 2 pi I0(1); errors collapse spectrally
    exact = 2.0 * math.pi * I0_AT_1
    err8 = abs(periodic_trapezoid(8).integrate(lambda t: np.exp(np.cos(t)))
               - exact)
    err16 = abs(periodic_trapezoid(16).integrate(lambda t: np.exp(np.cos(t)))
                - exact)
    assert err8 > 1e-7
    assert err16 < 1e-13


def test_periodic_trapezoid_measure():
    rule = periodic_trapezoid(32)
    assert rule.integrate(lambda t: np.ones_like(t)) == pytest.approx(
        2.0 * math.pi, rel=1e-15)


def test_rk4_fourth_order_convergence():
    A = drift_matrix(1.0, 0.3)
    D = diffusion_matrix(1.0, 0.4)
    s0 = np.eye(4) / 4.0
    exact = propagate_covariance(s0, 0.3, 1.0, 2.0, 0.4)
    errs = [np.max(np.abs(rk4_lyapunov(A, D, s0, 2.0, steps) - exact))
            for steps in (40, 80, 160)]
    assert errs[0] / errs[1] > 14.0
    assert errs[1] / errs[2] > 14.0
    assert errs[2] < 1e-10


def test_rk4_affine_iteration_matches_stepwise_formula():
    # the runtime route iterates the RK4 step as a precomputed affine map;
    # it must give the iterates of the formula applied step by step, also
    # from a nonsymmetric start and with the growth of r = 3, d = 0.5
    from oracles import rk4_lyapunov_stepwise

    rng = np.random.default_rng(31)
    for kappa, t, nbar in ((0.3, 2.0, 0.4), (6.0, 0.5, 5.0), (0.1, 6.0, 0.0)):
        A = drift_matrix(1.0, kappa)
        D = diffusion_matrix(1.0, nbar)
        s0 = np.eye(4) / 4.0 + 0.01 * rng.standard_normal((4, 4))
        for steps in (1, 40, 3000):
            got = rk4_lyapunov(A, D, s0, t, steps)
            ref = rk4_lyapunov_stepwise(A, D, s0, t, steps)
            assert np.array_equal(got, got.T)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _cross_pattern(a, b):
    return np.array([[a, 0.0, 0.0, b], [0.0, a, b, 0.0],
                     [0.0, b, a, 0.0], [b, 0.0, 0.0, a]])


def test_sym4_matches_jacobi_on_random_symmetric():
    # random symmetric matrices of the model's cross pattern, exact and
    # with a symmetric perturbation inside the 1e-12 pattern tolerance
    rng = np.random.default_rng(42)
    for _ in range(20):
        a, b = rng.normal(size=2) * 5.0
        exact = _cross_pattern(a, b)
        raw = rng.uniform(-1.0, 1.0, size=(4, 4))
        # entries up to 4e-13 of the scale, so no two differ by 1e-12
        noise = 0.2e-12 * max(1.0, abs(a), abs(b)) * (raw + raw.T)
        for sym in (exact, exact + noise):
            np.testing.assert_allclose(sym4_eigenvalues(sym),
                                       jacobi_eigenvalues(sym), atol=1e-10)


def test_sym4_and_v_from_w_reject_matrices_off_the_pattern():
    rng = np.random.default_rng(43)
    for _ in range(20):
        raw = rng.normal(size=(4, 4))
        sym = (raw + raw.T) / 2.0 + 4.0 * np.eye(4)
        with pytest.raises(ValueError, match="cross pattern"):
            sym4_eigenvalues(sym)
        with pytest.raises(ValueError, match="cross pattern"):
            v_from_w(CovarianceMatrix(entries=sym, convention="W"))


def test_sym4_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym4_eigenvalues(np.arange(16.0).reshape(4, 4))


def test_sym4_doubly_degenerate_pattern():
    # [[a,0,0,c],[0,a,c,0],[0,c,a,0],[c,0,0,a]] has eigenvalues a +- c, twice
    a, c = 1.7, -0.9
    m = a * np.eye(4)
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
        m[i, j] = c
    np.testing.assert_allclose(np.sort(sym4_eigenvalues(m)),
                               [a - abs(c)] * 2 + [a + abs(c)] * 2,
                               atol=1e-12)


def test_matrix_exp4_against_closed_propagator():
    # A = -(g/2) I + k S with S^2 = I gives
    # e^{At} = e^{-gt/2} (cosh(kt) I + sinh(kt) S)
    g, k, t = 1.3, 0.45, 0.7
    closed = math.exp(-g * t / 2.0) * (math.cosh(k * t) * np.eye(4)
                                       + math.sinh(k * t) * SWAP_SIGN)
    np.testing.assert_allclose(matrix_exp4(drift_matrix(g, k), t), closed,
                               atol=1e-12)
    np.testing.assert_allclose(matrix_exp4(drift_matrix(g, k), 0.0), np.eye(4),
                               atol=1e-15)


def test_swap_sign_is_an_involution():
    np.testing.assert_array_equal(SWAP_SIGN @ SWAP_SIGN, np.eye(4))


def test_nelder_mead_minimizes_quadratic():
    target = np.array([1.2, -0.7])
    x, fx = nelder_mead_minimize(
        lambda z: (z[0] - target[0]) ** 2 + 3.0 * (z[1] - target[1]) ** 2,
        [0.0, 0.0], [0.5, 0.5])
    assert type(x) is list and type(fx) is float
    np.testing.assert_allclose(x, target, atol=1e-5)
    assert fx < 1e-10


def test_one_minus_exp_over_scalar_branch_matches_array_path():
    cut = TOLERANCES.taylor_cutoff
    p = np.concatenate([
        np.linspace(-30.0, 30.0, 401),
        np.linspace(-3.0 * cut, 3.0 * cut, 401),
        cut * (1.0 + np.array([-1e-12, 0.0, 1e-12])),
        -cut * (1.0 + np.array([-1e-12, 0.0, 1e-12])),
        [0.0, -0.0, 30.0, -30.0, np.inf, -np.inf, np.nan],
    ])
    with np.errstate(invalid="ignore"):  # -inf gives inf / inf = nan
        whole = one_minus_exp_over(p)
        for x, ref in zip(p, whole):
            for arg in (float(x), np.float64(x)):
                got = one_minus_exp_over(arg)
                assert type(got) is float
                assert got == ref or (math.isnan(got) and math.isnan(ref))
    for n in range(-30, 31):
        assert one_minus_exp_over(n) == one_minus_exp_over(np.array([float(n)]))[0]


TEST_FUNCTIONS = [
    (lambda z: (z[0] - 1.2) ** 2 + 3.0 * (z[1] + 0.7) ** 2,
     [0.0, 0.0], 0.5),
    (lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2
     + (z[2] - 0.3) ** 2, [-1.0, 1.5, 0.0], [0.2, 0.1, 0.3]),
    (lambda z: float(np.sum(np.cos(3.0 * np.asarray(z)))
                     + np.sum(np.square(z))),
     [0.4, -0.2, 1.0, 0.1], 0.25),
]


@pytest.mark.parametrize("f, x0, step", TEST_FUNCTIONS)
def test_nelder_mead_matches_pairwise_diameter_oracle(f, x0, step):
    # a scalar step is the same displacement along every coordinate
    steps = np.broadcast_to(step, len(x0)).tolist()
    x, fx = nelder_mead_minimize(f, x0, steps)
    x_ref, fx_ref = nelder_mead_pairwise(f, np.array(x0), step)
    assert np.array_equal(x, x_ref)
    assert fx == fx_ref


def _bowl(centre, weights, power):
    # a separable bowl, steep or flat by power; mostly smooth, with kinks
    # and ties at power 1
    def f(z):
        return float(sum(w * abs(zi - c) ** power
                         for zi, c, w in zip(z, centre, weights)))
    return f


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
    st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
    st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n),
    st.lists(st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3),
             min_size=n, max_size=n),
    st.sampled_from([1.0, 2.0, 4.0]))))
def test_float_nelder_mead_matches_the_ndarray_oracle(case):
    x0, centre, weights, step, power = case
    f = _bowl(centre, weights, power)
    x, fx = nelder_mead_minimize(f, x0, step)
    x_ref, fx_ref = nelder_mead_pairwise(f, np.array(x0), np.array(step))
    assert np.array_equal(x, x_ref)
    assert fx == fx_ref


@pytest.mark.parametrize("free, fixed", [
    (("r",), {"J": 0.01, "d": 0.3, "nbar": 0.1}),
    (("J", "r"), {"d": 0.5, "nbar": 1.0}),
    (("r", "d"), {"J": 0.01, "nbar": 0.1}),
    (("J", "d", "nbar"), {"r": 1.5}),
    (("J", "r", "d", "nbar"), {}),
    (("r", "d", "nbar"), {"J": 0.2}),
])
def test_float_nelder_mead_on_the_maximiser_objectives(monkeypatch, free,
                                                       fixed):
    # the maximiser's own objectives (1, 2 and 3 free state parameters),
    # captured from its call and rerun through the ndarray oracle
    import cvbell.bell as bell_module
    from cvbell import maximize_bell

    calls = []
    real = bell_module.nelder_mead_minimize

    def recording(f, x0, step):
        calls.append((f, list(x0), list(step)))
        return real(f, x0, step)

    monkeypatch.setattr(bell_module, "nelder_mead_minimize", recording)
    maximize_bell(free, fixed)
    (f, x0, step), = calls
    x, fx = real(f, x0, step)
    # the oracle calls f with ndarrays, the objective takes lists
    x_ref, fx_ref = nelder_mead_pairwise(lambda v: f(v.tolist()),
                                         np.array(x0), np.array(step))
    assert np.array_equal(x, x_ref)
    assert fx == fx_ref
