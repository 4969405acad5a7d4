"""Tests of the numpy-free normal-mode core :mod:`cvbell.modes`."""

import contextlib
import io
import math
import os
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvbell import (
    CrossCheckError,
    MixtureSpec,
    SqueezedStateParams,
    bell_combination,
    coefficient_arrays,
    is_pure,
    mixture_evaluator,
    separability_eigenvalues,
    separability_map,
)
from cvbell.bell import maximize_bell
from cvbell.cli import main
from cvbell.curves import _linspace
from cvbell.dynamics import evolve_coefficients, variance_arrays
from cvbell.modes import (
    MIXTURE_KINDS,
    NormalModes,
    mixture_correlations,
    mixture_slope,
    separability_closed_pair,
    steady_limit,
)
from oracles import coefficient_triple, variances_50

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import outputs  # noqa: E402  (the benchmark's own checks, read only)

EPS = sys.float_info.epsilon

# the whole declared domain, up to where e^{2r} stays inside the float range
states = st.tuples(st.floats(0.0, 350.0), st.floats(0.0, 1e3),
                   st.floats(0.0, 1e3))


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# regression: single-point commands that the 4x4 W/V route got wrong
# ----------------------------------------------------------------------

REGRESSION_ROWS = [
    # exit 3, "routes disagree by 1.469e-09" (inside the README's r <= 3)
    ("coeffs", {"r": 2.9, "d": 0.0, "nbar": 1.0}),
    # exit 3, "parity conjugation identity violated"
    ("separability", {"r": 4.0, "d": 0.0, "nbar": 0.0}),
    ("separability", {"r": 5.0, "d": 0.0, "nbar": 0.0}),
    ("separability", {"r": 8.0, "d": 1.0, "nbar": 1.0}),
    # exit 3, "routes disagree by 4.503e-07" (absolute 1e-9 check)
    ("coeffs", {"r": 6.0, "d": 1.0, "nbar": 0.0}),
    # exit 3 at its r = 5 sample, "routes disagree by 1.257e-07"
    ("coeffs-scan", {"kappa": 1.0, "gamma": 0.1, "t_max": 10.0,
                     "t_count": 5, "nbar": 0.0}),
    # exit 3, "non-normalizable form": (c1, c2, h) cannot hold this state
    ("coeffs", {"r": 20.0, "d": 1.0, "nbar": 0.0}),
]


@pytest.mark.parametrize("kind, params", REGRESSION_ROWS)
def test_former_faults_match_the_reference(kind, params):
    from workloads import argv_of

    code, out, err = run_cli(*argv_of(kind, params, "csv"))
    assert code == 0, err
    outputs.check_command(kind, params, out, "csv")


def _exact_nm(r, d, nbar):
    s1, s2 = variances_50(r, d, nbar)
    with mpmath.workdps(50):
        return (s1 + s2) / 4 - mpmath.mpf(1) / 2, (s1 - s2) / 4


@pytest.mark.parametrize("d", [0.0, 0.1, 1.0])
def test_n_and_m_match_fifty_digits(d):
    # the W/V route was 3.1e-12 relative off at r = 2.7, d = 0, nbar = 1
    code, out, _ = run_cli("coeffs", "--r", 2.7, "--d", d, "--nbar", 1.0)
    assert code == 0
    header, row = (l.split(",") for l in out.splitlines()
                   if not l.startswith("#"))
    vals = dict(zip(header, row))
    n_exact, m_exact = _exact_nm(2.7, d, 1.0)
    with mpmath.workdps(50):
        assert abs(float(vals["N"]) - n_exact) <= 1e-15 * abs(n_exact)
        assert abs(float(vals["M"]) - m_exact) <= 1e-15 * abs(m_exact)


# ----------------------------------------------------------------------
# the core against the grid kernels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.5, 1.5, 3.0, 10.0, 20.0])
def test_core_matches_separability_map_cells(r):
    d_grid = np.linspace(0.0, 10.0, 30)
    n_grid = np.linspace(0.0, 5.0, 30)
    m = separability_map(r, d_grid, n_grid)
    for i, d in enumerate(d_grid):
        for j, nbar in enumerate(n_grid):
            params = SqueezedStateParams(r, float(d), float(nbar))
            modes = NormalModes.of(params)
            scale = 1.0 + min(modes.s1, modes.s2)
            assert abs(m.margin[i, j] - modes.margin) <= 1e-15 * scale
            assert m.separable[i, j] == params.separable


def test_core_matches_coefficient_arrays():
    # the triple written out in p1 and p2 is the independent reference;
    # both use 2d (p1 + p2 rounds d by up to ulp(2r) and needed a
    # tolerance 2 nbar + 1 times wider)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        r = float(rng.uniform(0.0, 20.0))
        d = 0.0 if rng.random() < 0.2 else float(10 ** rng.uniform(-3, 1.3))
        nbar = 0.0 if rng.random() < 0.2 else float(10 ** rng.uniform(-3, 1))
        modes = NormalModes.of(SqueezedStateParams(r, d, nbar))
        c1, c2, h = coefficient_triple(r, d, nbar)
        assert abs(c1 - modes.c1) <= 1e-15 * modes.c1
        assert abs(c2 - modes.c2) <= 1e-15 * modes.c1
        assert abs(h - modes.h) <= 1e-15 * (1 + modes.s1) * (1 + modes.s2)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(states, st.sampled_from([("r",), ("d",), ("nbar",), ("r", "d"),
                                ("d", "nbar"), ("r", "d", "nbar")]),
       st.floats(0.0, 1.0))
def test_every_runtime_route_is_the_normal_mode_core(state, free, J):
    # one state route: the Wigner coefficients of one state and the B
    # the maximiser reports at fixed J are the core's, bit for bit; the
    # array view shares its formula but numpy's exp and expm1 may differ
    # from the C library's in the last bit
    params = SqueezedStateParams(*state)
    modes = NormalModes.of(params)
    core = (modes.c1, modes.c2, modes.h)
    form = evolve_coefficients(params)
    assert (form.c1, form.c2, form.h) == core
    s1, s2 = (float(s) for s in variance_arrays(*state))
    view = tuple(float(x) for x in coefficient_arrays(*state))
    assert view == (2.0 * (s1 + s2), 2.0 * (s1 - s2), s1 * s2)
    # the triple written out in p1, p2, and numpy's view, within the
    # bounds of test_core_matches_coefficient_arrays
    for c1, c2, h in (view, coefficient_triple(*state)):
        assert abs(c1 - modes.c1) <= 1e-15 * modes.c1
        assert abs(c2 - modes.c2) <= 1e-15 * modes.c1
        assert abs(h - modes.h) <= 1e-15 * (1 + modes.s1) * (1 + modes.s2)
    fixed = {n: v for n, v in zip(("r", "d", "nbar"), state) if n not in free}
    res = maximize_bell(free, {**fixed, "J": J})
    assert res.params["J"] == J
    best = SqueezedStateParams(*(res.params[n] for n in ("r", "d", "nbar")))
    assert res.b_max == NormalModes.of(best).bell(J)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(states)
def test_core_is_accurate_to_fifty_digits(state):
    r, d, nbar = state
    modes = NormalModes.of(SqueezedStateParams(r, d, nbar))
    s1, s2 = variances_50(r, d, nbar)
    # every output is a sum of positive terms of size 1 + s1 + s2 (or a
    # product of two of them), rounded a few times; e^-p and E(p) carry
    # the rounding of p = d +- 2r multiplied by |p| <= d + 2r
    tol = 8 * EPS * (1 + d + 2 * r)
    with mpmath.workdps(50):
        scale = 1 + s1 + s2
        for got, want in ((modes.c1, 2 * (s1 + s2)), (modes.c2, 2 * (s1 - s2)),
                          (modes.N, (s1 + s2) / 4 - mpmath.mpf(1) / 2),
                          (modes.M, (s1 - s2) / 4)):
            assert abs(got - want) <= tol * scale
        assert abs(modes.h - s1 * s2) <= tol * s1 * s2
        small = 1 + min(s1, s2)
        assert abs(modes.margin - (min(s1, s2) - 1) / 2) <= tol * small


# ----------------------------------------------------------------------
# invariants over the whole declared domain
# ----------------------------------------------------------------------

@settings(max_examples=300, derandomize=True, deadline=None)
@given(states)
def test_route_check_accepts_every_legal_state(state):
    # the W/V route rejected legal states from r ~ 2.8 on; away from the
    # boundary the margin has the sign of the law
    modes = NormalModes.of(SqueezedStateParams(*state))
    r, d, nbar = state
    if abs(d * nbar - r) > 1e-9 * (1.0 + r):
        assert (modes.margin >= 0.0) == (r <= d * nbar)


@st.composite
def _next_to_the_boundary(draw):
    # nbar = r / d and its float neighbours
    r, d = draw(st.floats(0.0, 300.0)), draw(st.floats(1e-300, 1e3))
    nbar = r / d
    assume(nbar < 1e300)
    step = draw(st.sampled_from((-math.inf, 0.0, math.inf)))
    return r, d, max(math.nextafter(nbar, step) if step else nbar, 0.0)


@st.composite
def _tiny_squeezing_without_noise(draw):
    # d nbar = 0: one factor 0, or both so small that the product underflows
    r = draw(st.floats(5e-324, 1e-10))
    small = st.floats(5e-324, 1e-170)
    d, nbar = draw(st.sampled_from((
        (0.0, draw(st.floats(0.0, 1e3))), (draw(st.floats(0.0, 1e3)), 0.0),
        (draw(small), draw(small)))))
    return r, d, nbar


@st.composite
def _tiny_diffusion(draw):
    return (draw(st.floats(5e-324, 300.0)), draw(st.floats(5e-324, 1e-290)),
            draw(st.floats(0.0, 1e200)))


@st.composite
def _overflowing_product(draw):
    # d nbar past the float range, while h ~ (2 nbar + 1)^2 stays in it
    nbar = 10.0 ** draw(st.floats(0.5, 153.0))
    d = draw(st.floats(sys.float_info.max / nbar, sys.float_info.max))
    assume(d * nbar == math.inf)
    return draw(st.floats(0.0, 300.0)), d, nbar


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(_next_to_the_boundary(), _tiny_squeezing_without_noise(),
                 _tiny_diffusion(), _overflowing_product()))
def test_every_reader_decides_separability_by_the_law(state):
    # the verdict is d nbar >= r on the rounded product at every reader,
    # also where the margin is within rounding of 0 and has no reliable
    # sign (a pure state at r ~ 1e-14 has margin ~ -1e-14)
    r, d, nbar = state
    law = d * nbar >= r
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = SqueezedStateParams(r, d, nbar)
        assert params.separable == law
        assert separability_eigenvalues(params).separable == law
        assert separability_map(r, [d], [nbar]).separable[0, 0] == law
        code, out, err = run_cli("separability", "--r", repr(r),
                                 "--d", repr(d), "--nbar", repr(nbar))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].split(",")[-1] == ("true" if law else "false")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(states)
def test_bell_at_zero_budget_is_two_over_h(state):
    modes = NormalModes.of(SqueezedStateParams(*state))
    assert modes.correlations(0.0) == (1.0 / modes.h,) * 4
    assert modes.bell(0.0) == 2.0 / modes.h


@pytest.mark.parametrize("r", [354.0, 354.3, 354.5])
@pytest.mark.parametrize("J", [0.0, 1e-310, 1e-308, 1e-300])
def test_bell_at_the_top_of_the_squeezing_range(r, J):
    # 4/s1 overflows from r ~ 354.2 on at d = 0, while bJ stays finite:
    # J (4/s1) would be inf * 0 = NaN at J = 0 and drop e^-bJ at J = 1e-310
    modes = NormalModes.of(SqueezedStateParams(r, 0.0))
    with mpmath.workdps(50):
        s1, s2 = mpmath.mpf(modes.s1), mpmath.mpf(modes.s2)
        side, last = mpmath.exp(-J * (1 / s1 + 1 / s2)), mpmath.exp(-4 * J / s1)
        want = (1 + 2 * side - last) / (s1 * s2)
        scale = (1 + 2 * side + last) / (s1 * s2)
        assert abs(modes.bell(J) - want) <= 4 * EPS * scale


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.floats(0.0, 1e3), st.floats(0.0, 1e3), st.floats(0.0, 1.0))
def test_separable_states_do_not_violate(d, nbar, fraction):
    # r <= d nbar: the state is separable, so it has a local model and no
    # budget lifts B above the local-realism bound 2.  The bound is
    # attained by states that stay the vacuum (r = nbar = 0, any d),
    # where h = s1 s2 = 1 may round to 1 - eps and B(0) = 2/h to 2 + 2 eps
    r = min(fraction * d * nbar, 350.0)
    params = SqueezedStateParams(r, d, nbar)
    modes = NormalModes.of(params)
    assert params.separable
    assert modes.bell_optimum(0.0, 1e6)[1] <= 2.0 + 4.0 * EPS


def mixtures(r_max):
    return st.builds(MixtureSpec, p=st.floats(0.0, 1.0),
                     r=st.floats(0.0, r_max),
                     kind=st.sampled_from(MIXTURE_KINDS))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mixtures(350.0), st.floats(1e-8, 1.0))
def test_mixture_bell_is_affine_in_p(spec, J):
    b1 = mixture_correlations(MixtureSpec(1.0, spec.r, spec.kind), J)[0]
    b0 = mixture_correlations(MixtureSpec(0.0, spec.r, spec.kind), J)[0]
    B = mixture_correlations(spec, J)[0]
    scale = abs(b1) + abs(b0)
    assert abs(B - (spec.p * b1 + (1.0 - spec.p) * b0)) <= 4.0 * EPS * scale


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mixtures(10.0))
def test_mixture_slope_is_the_small_budget_difference_quotient(spec):
    # the scale 4 cosh 2r is the one the benchmark checks the slope on
    cosh = math.cosh(2.0 * spec.r)
    J = 1e-8 / cosh
    at_zero = mixture_correlations(spec, 0.0)[0]
    quotient = (mixture_correlations(spec, J)[0] - at_zero) / J
    slope, b_zero = mixture_slope(spec)
    assert b_zero == pytest.approx(at_zero, rel=4.0 * EPS)
    assert abs(slope - quotient) <= 1e-6 * 4.0 * cosh


def _often_zero(hi):
    return st.one_of(st.just(0.0), st.floats(0.0, hi))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.tuples(_often_zero(350.0), _often_zero(1e3), _often_zero(1e3)))
def test_pure_exactly_when_h_is_one(state):
    # d = 0 keeps the squeezed vacuum pure, r = nbar = 0 the vacuum; draws
    # whose exact (h - 1)/h lies within a factor 10 of the tolerance 1e-10
    # are left out, since rounding may put them on either side
    s1, s2 = variances_50(*state)
    with mpmath.workdps(50):
        h = s1 * s2
        excess = (h - 1) / h
        exactly_pure = h - 1 < 1e-10 * h
    assume(not 1e-11 < excess < 1e-9)
    params = SqueezedStateParams(*state)
    pure = NormalModes.of(params).pure
    assert pure == exactly_pure
    assert is_pure(evolve_coefficients(params)).pure == pure


def test_pure_exactly_without_diffusion():
    for r in (0.0, 1.0, 5.0, 100.0, 350.0):
        assert NormalModes.of(SqueezedStateParams(r, 0.0, 3.0)).pure
        assert not NormalModes.of(SqueezedStateParams(r, 0.05, 3.0)).pure
    # zero-temperature damping of the vacuum stays the vacuum
    assert NormalModes.of(SqueezedStateParams(0.0, 5.0, 0.0)).pure


def test_steady_state_variances():
    kind, modes = steady_limit(3.0, 1.0, 0.5)
    assert kind == "squeezed-thermal"
    assert (modes.s1, modes.s2) == (2.0 / (1.0 + 2.0 / 3.0), 2.0 / (1.0 - 2.0 / 3.0))
    kind, modes = steady_limit(1.0, 0.0, 0.5)
    assert kind == "thermal"
    assert (modes.c2, modes.M, modes.N) == (0.0, 0.0, 0.5)
    assert steady_limit(2.0, 1.0) == ("boundary-undefined", None)
    assert steady_limit(1.0, 1.0) == ("none", None)
    with pytest.raises(ValueError, match="overflow.*nbar=1e\\+308"):
        steady_limit(1.0, 0.4, 1e308)


def test_werner_bell_matches_the_density_assembly():
    for p, r, J in ((0.95, 1.5, 0.01), (0.3, 0.2, 0.5), (1.0, 3.0, 1e-4),
                    (0.0, 2.0, 0.02)):
        spec = MixtureSpec(p=p, r=r, kind="werner-thermal")
        B, correlations = mixture_correlations(spec, J)
        assembled = bell_combination(mixture_evaluator(spec), J)
        assert B == pytest.approx(assembled.B, rel=1e-12)
        np.testing.assert_allclose(correlations, assembled.correlations,
                                   rtol=1e-12)


def test_werner_bell_affine_check_catches_a_corrupted_correlation(monkeypatch):
    real = NormalModes.correlations
    monkeypatch.setattr(NormalModes, "correlations",
                        lambda self, J: tuple(1.000001 * c
                                              for c in real(self, J)))
    with pytest.raises(CrossCheckError, match="affine"):
        mixture_correlations(MixtureSpec(p=0.5, r=1.5), 0.01)


@pytest.mark.parametrize("kind", MIXTURE_KINDS)
def test_affine_check_catches_a_nan_bell_value(monkeypatch, kind):
    # a gap test written as abs(B - affine) > tol is False for a NaN B
    monkeypatch.setattr(NormalModes, "correlations",
                        lambda self, J: (math.nan,) * 4)
    with pytest.raises(CrossCheckError, match="affine"):
        mixture_correlations(MixtureSpec(p=0.5, r=1.5, kind=kind), 0.01)


def test_route_check_catches_a_corrupted_variance(monkeypatch):
    import cvbell.modes as modes

    # near the boundary d nbar = r at r = 10 the margin is ~0 while
    # s2 ~ 4e8; a 1e-6 relative error in the pair must still be caught
    real = modes.separability_closed_pair
    monkeypatch.setattr(modes, "separability_closed_pair",
                        lambda params: tuple((1.0 + 1e-6) * e
                                             for e in real(params)))
    with pytest.raises(CrossCheckError, match="relative to 1 \\+ s"):
        NormalModes.of(SqueezedStateParams(10.0, 1.0, 9.5))


# ----------------------------------------------------------------------
# overflow at large squeezing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("coeffs", "--r", "400", "--d", "0"),
    ("separability", "--r", "400", "--d", "0"),
    ("bell", "--J", "0.01", "--r", "400"),
    ("werner", "--J", "0.01", "--p", "0.5", "--r", "400"),
    ("werner", "--threshold", "--r", "400"),
    ("phase-diffused", "--slope", "--p", "0.5", "--r", "400"),
])
def test_overflow_exits_3_naming_r(argv):
    code, out, err = run_cli(*argv)
    assert code == 3
    assert out == ""
    assert "r=400.0" in err and "overflow" in err


def test_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="overflow.*r=400.0"):
        NormalModes.of(SqueezedStateParams(400.0, 0.0))
    with pytest.raises(ValueError, match="overflow.*nbar=1e\\+307"):
        NormalModes.of(SqueezedStateParams(1.0, 1.0, 1e307))
    with pytest.raises(ValueError, match="r=400.0 overflows"):
        MixtureSpec(p=0.5, r=400.0)


@pytest.mark.parametrize("argv", [
    ("separability", "--r", "1e-200", "--d", "1e242", "--nbar", "1e88"),
    ("bell", "--J", "1", "--r", "0", "--d", "1e200", "--nbar", "1e120"),
])
def test_closed_pair_where_d_nbar_overflows(argv):
    # d nbar overflows, the variances do not: the closed pair is formed as
    # (E d) nbar -+ E r and the cross-check passes
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    nbar = float(argv[-1])
    form = NormalModes.of(SqueezedStateParams(*map(float, argv[-5::2])))
    assert form.margin == nbar
    assert separability_closed_pair(
        SqueezedStateParams(*map(float, argv[-5::2]))) == (nbar, nbar)


@pytest.mark.parametrize("argv, what", [
    # s1 = s2 = 2.6e200 are finite, h = 6.8e400 is not
    (("separability", "--r", "5.2e-51", "--d", "3.9e222", "--nbar",
      "1.3e200"), "h = s1 s2 overflows"),
    # s1 = s2 = 6.3e307, c1 = 2.5e308
    (("coeffs", "--r", "0", "--d", "1", "--nbar", "5e307"),
     "c1 = 2(s1 + s2) overflows"),
    (("coeffs", "--r", "400", "--d", "0"),
     "the normal-mode variances overflow"),
])
def test_overflow_names_the_quantity(argv, what):
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"cvbell: error: {what} the float range at r=")


@pytest.mark.parametrize("kappa, gamma, name", [
    ("1e300", "1", "kappa"), ("1", "1e300", "gamma")])
def test_time_scan_overflow_names_the_rate(kappa, gamma, name):
    code, out, err = run_cli("coeffs", "--kappa", kappa, "--gamma", gamma,
                             "--t-max", "1e10", "--t-count", "3")
    assert (code, out) == (3, "")
    rate = float(kappa if name == "kappa" else gamma)
    assert err == (f"cvbell: error: {name} * t overflows the float range "
                   f"at {name}={rate!r}, t=5000000000.0\n")


def test_scan_overflow_names_the_quantity():
    with pytest.raises(ValueError, match="^h = s1 s2 overflows .*d=1e\\+222"):
        # s1 = s2 ~ 1 at d = 1e-200, ~ 2e160 at d = 1e222
        separability_map(1e-60, [1e-200, 1e222], [0.0, 1e160])


def test_werner_below_overflow_gives_finite_values():
    # cosh(2r)^2 overflows from r ~ 177; the product state's correlations
    # are then 0, not a traceback
    B, correlations = mixture_correlations(MixtureSpec(p=0.5, r=200.0), 0.01)
    assert all(math.isfinite(c) for c in correlations)
    assert B == pytest.approx(0.5, rel=1e-15)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("start, stop, num", [
    (0.0, 10.0, 201), (0.0, 2.0, 5), (0.0, 12.345, 51), (0.0, 0.0, 3),
    (0.0, -1.0, 3), (0.0, 1e-310, 4), (0.0, 7.0 / 3.0, 97)])
def test_linspace_is_numpy_bit_for_bit(start, stop, num):
    assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist()
