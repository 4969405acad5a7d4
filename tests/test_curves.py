"""The float grids, curves and threshold against the numpy library.

The command-line figures, thresholds and phase-diffused Bell values run
on Python floats (:mod:`cvbell.curves`, :mod:`cvbell.modes`), while the
library keeps numpy arrays for the scans.  These tests pin each float
path to its numpy counterpart, and the phase-diffused Bell values to
the four-point assembly of the mixture's density.  ``math.exp`` and
numpy's vectorised ``exp`` differ in the last bit for some arguments,
so the bounds are a few ulp, of the value or of the sum of the
magnitudes of the terms.
"""

import argparse
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (
    CrossCheckError,
    MixtureSpec,
    bell_combination,
    bell_surface,
    component_bell_curve,
    mixture_bell,
    mixture_bell_curve,
    mixture_evaluator,
    mixture_slope,
    pure_bell_curve,
    werner_violation_threshold,
)
from cvbell import cli
from cvbell.curves import _geomspace, pure_bell_values, violation_threshold
from cvbell.dynamics import variance_arrays
from cvbell.modes import (
    _bessel_excess,
    _i0e,
    _pure_gain,
    _reference_loss,
    _series_length,
    mixture_correlations,
)
from cvbell.numerics import _bessel_excess_array, _i0e_array
from oracles import i0_excess_60, i0e_60, mixture_bell_60

EPS = 2.0 ** -52
KINDS = ("werner-thermal", "phase-diffused")
R = cli.FIGURE_SQUEEZING


# ----------------------------------------------------------------------
# the command-line threshold is the library's
# ----------------------------------------------------------------------

def _assert_same_threshold(kind, r):
    # one float function evaluates both reports, at the same two nodes
    assert violation_threshold(r, kind=kind) == werner_violation_threshold(
        r, kind=kind)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(kind=st.sampled_from(KINDS), r=st.floats(0.0, 9.0))
def test_cli_threshold_is_the_library_threshold(kind, r):
    _assert_same_threshold(kind, r)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [0.0, 0.3, 1.5, 4.5, 6.0, 8.0, 200.0, 354.0,
                               5.493961497003613e-07])
def test_cli_threshold_at_the_documented_points(kind, r):
    # r = 4.5 and up: the Werner optimum lies below the grid; r = 200:
    # the product state's curve is 0 past the overflow of cosh^2 2r;
    # r = 5.49e-7: the phase-diffused R was a ratio of differences of
    # nearly equal B, and the two front ends printed different p*
    _assert_same_threshold(kind, r)


@pytest.mark.parametrize("args, match", [
    ((-1.0,), "nonnegative"),
    ((math.nan,), "nonnegative"),
    ((400.0,), "r=400.0 overflows"),
    ((1.5, "nope"), "unknown mixture kind"),
])
def test_cli_threshold_rejects_what_the_library_rejects(args, match):
    with pytest.raises(ValueError, match=match):
        violation_threshold(*args)
    with pytest.raises(ValueError, match=match):
        werner_violation_threshold(*args)


# ----------------------------------------------------------------------
# the scaled Bessel function e^-x I0(x) on one float
# ----------------------------------------------------------------------

#: relative accuracy of e^-x I0(x); the worst seen, 9.6e-14, is at the
#: switch x = 15, where the asymptotic series is least accurate
I0E_REL = 1.2e-13


@settings(max_examples=500, derandomize=True, deadline=None)
@given(x=st.floats(0.0, 1e308))
def test_i0e_is_the_array_kernel(x):
    want = float(_i0e_array(np.array([x]))[0])
    assert abs(_i0e(x) - want) <= 4 * math.ulp(want)
    assert _i0e_array(x) == want


@settings(max_examples=200, derandomize=True, deadline=None)
@given(x=st.one_of(st.floats(0.0, 1e6), st.floats(14.0, 16.0),
                   st.floats(0.0, 1e308)))
def test_i0e_against_60_digits(x):
    want = i0e_60(x)
    with mpmath.workdps(60):
        assert abs(_i0e(x) - want) <= I0E_REL * want


def test_i0e_domain():
    # 1 at 0, the limit 0 at infinity, and no overflow of 2 pi x between
    assert _i0e(0.0) == 1.0
    assert _i0e(math.inf) == 0.0
    assert _i0e(1.7e308) == pytest.approx(1.0 / math.sqrt(2 * math.pi * 1e308)
                                          / math.sqrt(1.7), rel=1e-15)
    assert _i0e_array(np.array([0.0, math.inf])).tolist() == [1.0, 0.0]


#: the whole power-series branch, x in [0, 15): at x in [14, 15) the
#: series still needs ~36 terms, and at a subnormal x, one
series_arguments = st.one_of(
    st.floats(0.0, 15.0, exclude_max=True),
    st.floats(14.0, 15.0, exclude_max=True),
    st.floats(0.0, 2.0 ** -1022, exclude_max=True))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=series_arguments, r=st.floats(0.3, 3.0))
def test_series_kernels_against_60_digits(x, r):
    # each sum stops where the next term is below 2^-70 of the first;
    # e^{-4cJ} (I0(4sJ) - 1) is checked at a J with 4sJ near x, on the
    # float and the array kernel, the array beside a smaller argument so
    # that its one series length is that of the larger; r >= 0.3 keeps
    # e^{-4cJ} above e^{-27}.  A subnormal result keeps only the
    # absolute spacing 2^-1074 of the subnormals
    want = i0e_60(x)
    with mpmath.workdps(60):
        assert abs(_i0e(x) - want) <= I0E_REL * want
        assert abs(_i0e_array(np.array([x / 3.0, x]))[1] - want) <= I0E_REL * want
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    J = x / (4.0 * s)
    for got in (_bessel_excess(J, c, s),
                _bessel_excess_array(np.array([J / 3.0, J]), c, s)[1]):
        with mpmath.workdps(60):
            exact = (mpmath.exp(-4 * mpmath.mpf(c) * J)
                     * i0_excess_60(4 * mpmath.mpf(s) * J))
            assert abs(got - exact) <= I0E_REL * exact + 4 * 2.0 ** -1074


def test_excess_array_kernel_on_both_branches():
    # the series wherever 4sJ < 15 and the asymptotic form elsewhere, in
    # one array as on its own, and an empty array stays empty
    c, s = math.cosh(3.0), math.sinh(3.0)
    J = np.array([1e-9, 0.01, 14.9 / (4.0 * s), 15.1 / (4.0 * s), 1.0, 30.0])
    got = _bessel_excess_array(J, c, s)
    for budget, value in zip(J.tolist(), got.tolist()):
        want = _bessel_excess(budget, c, s)
        assert abs(value - want) <= 8 * EPS * want
    assert _bessel_excess_array(J[:0], c, s).shape == (0,)


#: 4cJ below which the pure state can gain: -2 log v0 = 1.21875572687...,
#: v0 the real root of v^3 + v^2 + v = 1, rounded up
GAIN_REACH = 1.2187558


@st.composite
def gain_edges(draw):
    """(r, J) with r log-uniform on [1e-9, 354.8] and J log-uniform on
    [1e-300, 1], or J where 4cJ lies near the edge of the gain."""
    r = 10.0 ** draw(st.floats(-9.0, math.log10(354.8)))
    if draw(st.booleans()):
        return r, 10.0 ** draw(st.floats(-300.0, 0.0))
    J = draw(st.floats(1.2, 1.24)) / (4.0 * math.cosh(2.0 * r))
    return r, min(max(J, 1e-300), 1.0)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(gain_edges())
def test_the_pure_state_gains_only_where_the_series_is_short(draw):
    # with v = e^{-2cJ} and s < c the gain is below v^2 (1 - v^2) - (1 - v)^2,
    # which is positive only for v^3 + v^2 + v > 1: so 4cJ < GAIN_REACH,
    # and at the largest q = (4sJ)^2/4 there the series has 11 terms
    r, J = draw
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    with np.errstate(over="ignore"):
        gains = (_pure_gain(J, c, s),
                 float(_pure_gain(np.array([J]), c, s, np.exp, np.expm1)[0]))
    if max(gains) > 0.0:
        assert 4.0 * c * J < GAIN_REACH
        x = 4.0 * (s * J)
        assert _series_length(x * x / 4.0) <= 12
    assert _series_length(GAIN_REACH ** 2 / 4.0) == 12


# ----------------------------------------------------------------------
# the gain B_pure - 2 and the loss 2 - B_ref of the threshold
# ----------------------------------------------------------------------

@settings(max_examples=300, derandomize=True, deadline=None)
@given(kind=st.sampled_from(KINDS), r=st.floats(1e-7, 9.0),
       J=st.floats(1e-6, 1.0))
def test_gain_and_loss_against_60_digits(kind, r, J):
    # on floats and on arrays.  The gain is held - lost, the difference
    # of two positive terms, and held carries the rounding of c in
    # e^{-4cJ}; the loss is a sum of nonnegative terms, and the Bessel
    # series adds I0E_REL of the phase-diffused correlation
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    gains = (_pure_gain(J, c, s),
             _pure_gain(np.array([J]), c, s, np.exp, np.expm1)[0])
    losses = (_reference_loss(J, c, s, kind),
              _reference_loss(np.array([J]), c, s, kind, np.expm1,
                              _bessel_excess_array)[0])
    with mpmath.workdps(60):
        R, J = mpmath.mpf(r), mpmath.mpf(J)
        C, S = mpmath.cosh(2 * R), mpmath.sinh(2 * R)
        decay = mpmath.exp(-4 * C * J)
        held = decay * (1 - mpmath.exp(-4 * S * J))
        lost = (1 - mpmath.exp(-2 * C * J)) ** 2
        if kind == "werner-thermal":
            bessel = 0
            loss = 2 * (S / C) ** 2 + ((1 - mpmath.exp(-2 * J / C)) / C) ** 2
        else:
            bessel = (i0e_60(4 * S * J)
                      * mpmath.exp(-4 * mpmath.exp(-2 * R) * J))
            loss = lost + bessel - decay
        for got in gains:
            assert abs(got - (held - lost)) <= 8 * EPS * (
                held * (1 + 4 * C * J) + lost)
        for got in losses:
            assert abs(got - loss) <= 8 * EPS * loss + I0E_REL * bessel


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

@settings(max_examples=300, derandomize=True, deadline=None)
@given(low=st.integers(-12, 2), decades=st.integers(1, 12),
       num=st.integers(2, 400))
def test_geomspace_within_one_ulp_of_numpy(low, decades, num):
    # ends whose decimal logs are exact; the figures and thresholds use
    # 1e-4 or 1e-6 to 1
    start, stop = 10.0 ** low, 10.0 ** (low + decades)
    got = _geomspace(start, stop, num)
    want = np.geomspace(start, stop, num).tolist()
    assert len(got) == num
    assert (got[0], got[-1]) == (want[0], want[-1])
    assert all(abs(g - w) <= math.ulp(w) for g, w in zip(got, want))


# ----------------------------------------------------------------------
# figures 2-5 against the library's grid kernels
# ----------------------------------------------------------------------

def _bell_scale(J, s1, s2):
    # sum of the magnitudes of the terms of (1 + 2 e^-aJ - e^-bJ)/h
    return (1.0 + 2.0 * np.exp(-J * (1.0 / s1 + 1.0 / s2))
            + np.exp(-4.0 * J / s1)) / (s1 * s2)


def test_figure_2_is_the_bell_surface():
    rows = cli._figure_bell_surface().rows
    J = np.array([row[0] for row in rows[::41]])
    d = np.array([row[1] for row in rows[:41]])
    assert d.tolist() == np.linspace(0.0, 2.0, 41).tolist()
    grid = [0.0] + np.geomspace(1e-4, 1.0, 49).tolist()
    assert all(abs(a - b) <= math.ulp(b) for a, b in zip(J.tolist(), grid))
    assert [(row[0], row[1]) for row in rows] == [(j, x) for j in J for x in d]
    B = np.array([row[2] for row in rows]).reshape(J.size, d.size)
    s1, s2 = variance_arrays(R, d, 0.0)
    scale = _bell_scale(J[:, None], s1, s2)
    assert np.all(np.abs(B - bell_surface(R, 0.0, J, d).values)
                  <= 4 * EPS * scale)


def test_figure_3_is_the_bell_surface():
    rows = cli._figure_bell_vs_diffusion().rows
    d = np.array([row[0] for row in rows])
    assert d.tolist() == np.concatenate((np.linspace(0.0, 0.5, 51),
                                         np.linspace(0.6, 5.0, 45),
                                         np.linspace(6.0, 50.0, 45))).tolist()
    B = np.array([row[1] for row in rows])
    s1, s2 = variance_arrays(R, d, 0.0)
    want = bell_surface(R, 0.0, np.array([0.01]), d).values[0]
    assert np.all(np.abs(B - want) <= 4 * EPS * _bell_scale(0.01, s1, s2))


@pytest.mark.parametrize("index, kind, weights", [
    (4, "werner-thermal", (1.0, 0.95, 0.9, 0.5, 0.0)),
    (5, "phase-diffused", (1.0, 0.5, 0.2, 0.0))])
def test_figures_4_and_5_are_the_mixture_curves(index, kind, weights):
    record = cli.cmd_figure(argparse.Namespace(index=index))
    J = np.array([row[0] for row in record.rows])
    grid = np.geomspace(1e-4, 1.0, 200).tolist()
    assert all(abs(a - b) <= math.ulp(b) for a, b in zip(J.tolist(), grid))
    for k, p in enumerate(weights, start=1):
        column = np.array([row[k] for row in record.rows])
        want = mixture_bell_curve(MixtureSpec(p=p, r=R, kind=kind), J)
        # each curve is a sum of terms of magnitude at most 4
        assert np.all(np.abs(column - want) <= 4 * EPS * 4.0)


# ----------------------------------------------------------------------
# phase-diffused Bell values
# ----------------------------------------------------------------------

@settings(max_examples=300, derandomize=True, deadline=None)
@given(r=st.floats(0.0, 3.0), p=st.floats(0.0, 1.0),
       J=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
def test_phase_diffused_bell_is_the_density_assembly(r, p, J):
    # the density route rounds exponents of size ~ e^{2r} J, so its own
    # error grows with r; r <= 3 keeps it at the last bits
    spec = MixtureSpec(p=p, r=r, kind="phase-diffused")
    B, correlations = mixture_correlations(spec, J)
    oracle = bell_combination(mixture_evaluator(spec), J)
    scale = sum(abs(c) for c in oracle.correlations)
    assert abs(B - oracle.B) <= 4e-15 * scale
    for got, want in zip(correlations, oracle.correlations):
        assert abs(got - want) <= 4e-15 * scale
    evaluation = mixture_bell(spec, J)
    assert (evaluation.B, evaluation.correlations) == (B, correlations)


def test_phase_diffused_bell_affine_check_catches_a_corrupted_correlation(
        monkeypatch):
    # the squeezed component's correlations against its closed curve
    from cvbell.modes import NormalModes

    real = NormalModes.correlations
    monkeypatch.setattr(NormalModes, "correlations",
                        lambda self, J: tuple(1.000001 * c
                                              for c in real(self, J)))
    with pytest.raises(CrossCheckError, match="affine"):
        mixture_correlations(MixtureSpec(p=0.5, r=1.5, kind="phase-diffused"),
                             0.01)


# the 60-digit oracle: each correlation is a sum of products of
# exponentials e^-y whose arguments are rounded a few times, so its
# absolute error is a few eps times y e^-y <= 1/e, plus the relative
# error of e^-x I0(x) on the phase-diffused reference's fourth one; the
# worst seen on 4000 random draws was 4 eps
mixture_draws = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 350.0),
                          st.floats(0.0, 1e308), st.sampled_from(KINDS))


def _oracle_bound(want, kind):
    bessel = float(want[3]) if kind == "phase-diffused" else 0.0
    return 8 * EPS + I0E_REL * bessel


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mixture_draws)
def test_mixture_correlations_against_60_digits(draw):
    p, r, J, kind = draw
    B, correlations = mixture_correlations(MixtureSpec(p, r, kind), J)
    want_B, want = mixture_bell_60(p, r, J, kind)
    bound = _oracle_bound(want, kind)
    with mpmath.workdps(60):
        assert abs(B - want_B) <= bound
        for got, w in zip(correlations, want):
            assert abs(got - w) <= bound


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mixture_draws)
def test_mixture_bell_curve_against_60_digits(draw):
    p, r, J, kind = draw
    got = mixture_bell_curve(MixtureSpec(p, r, kind), np.array([0.0, J]))
    for budget, value in zip((0.0, J), got.tolist()):
        want_B, want = mixture_bell_60(p, r, budget, kind)
        with mpmath.workdps(60):
            assert abs(value - want_B) <= _oracle_bound(want, kind)


def _cli_row(*argv):
    record = cli.cmd_mixture(cli.build_parser().parse_args(list(argv)))
    return dict(zip(record.columns, record.rows[0]))


def test_phase_diffused_reference_at_a_large_budget_times_squeezing():
    # e^{log I0(4sJ) - 4cJ} subtracted two exponents of 4.7e17, whose
    # rounding noise was all that was left: B read 0.5 and pi4 0.5
    row = _cli_row("phase-diffused", "--r", "20", "--p", "0.5", "--J", "1")
    want_B, want = mixture_bell_60(0.5, 20.0, 1.0, "phase-diffused")
    with mpmath.workdps(60):
        assert abs(row["B"] - want_B) <= 4 * EPS
        assert abs(row["pi4"] - want[3]) <= 4 * EPS
    assert row["B"] == pytest.approx(0.99999999971, abs=1e-11)
    curve = mixture_bell_curve(MixtureSpec(0.5, 20.0, "phase-diffused"), 1.0)
    assert curve == pytest.approx(float(want_B), abs=4 * EPS)


def test_phase_diffused_reference_where_4sJ_overflows():
    # 4sJ = inf gave log I0(inf) - inf = NaN; every correlation but the
    # first decays to 0, so B is 1
    row = _cli_row("phase-diffused", "--r", "1", "--p", "0.5", "--J", "1e308")
    assert (row["B"], row["pi1"], row["pi2"], row["pi3"], row["pi4"]) == (
        1.0, 1.0, 0.0, 0.0, 0.0)
    curve = mixture_bell_curve(MixtureSpec(0.5, 1.0, "phase-diffused"), 1e308)
    assert curve == 1.0


@pytest.mark.parametrize("J", [0.0, 1e-300, 1e-3, 1.0])
def test_phase_diffused_reference_at_the_top_of_the_squeezing_range(J):
    # 4s overflows from r ~ 354.5 on; the argument 4s * J was inf * 0 =
    # NaN at J = 0, and B read nan
    p, r = 0.5, 354.8
    B, correlations = mixture_correlations(MixtureSpec(p, r, "phase-diffused"),
                                           J)
    want_B, want = mixture_bell_60(p, r, J, "phase-diffused")
    bound = _oracle_bound(want, "phase-diffused")
    with mpmath.workdps(60):
        assert abs(B - want_B) <= bound
        for got, w in zip(correlations, want):
            assert abs(got - w) <= bound


@pytest.mark.parametrize("kind", ["werner-thermal", "phase-diffused"])
def test_curves_at_zero_budget_where_the_pure_rate_overflows(kind):
    # 4(c + s) overflows from r ~ 354.2 on; its product with J = 0 was
    # inf * 0 = NaN, with a RuntimeWarning on arrays and silently on floats
    r = 354.8
    assert pure_bell_curve(0.0, r) == 2.0
    assert pure_bell_values([0.0], r) == [2.0]
    spec = MixtureSpec(0.5, r, kind)
    b_zero = mixture_slope(spec)[1]  # 2 p + (1 - p) B_ref(0)
    assert mixture_bell_curve(spec, 0.0) == b_zero
    assert mixture_bell_curve(spec, np.array([0.0, 1e-3]))[0] == b_zero
    # past the overflow the last term is 0 at these budgets, as before
    J = np.array([1e-300, 1e-3, 1.0])
    c = math.cosh(2.0 * r)
    assert np.array_equal(pure_bell_curve(J, r), 1.0 + 2.0 * np.exp(-2.0 * c * J))
    # the numpy threshold reads J > 0 only, and warns no more than before
    # (a RuntimeWarning fails the suite)
    assert (werner_violation_threshold(r, kind).p_star
            == violation_threshold(r, kind).p_star)


@pytest.mark.parametrize("kind", KINDS)
def test_tiny_budgets_where_the_pure_rate_overflows(kind):
    # 4(c + s) overflows from r ~ 354.2 on.  The pure curve then took its
    # last term as 0 for every J > 0, which holds only once 4(c + s) J is
    # large: at J = 1e-310 the term is about 0.97, the curve read 2.98
    # and the CLI raised a false CrossCheckError
    p, r, J = 0.5, 354.5, 1e-310
    want_pure = mixture_bell_60(1.0, r, J, kind)[0]
    want_B, want = mixture_bell_60(p, r, J, kind)
    bound = _oracle_bound(want, kind)
    name = "werner" if kind == "werner-thermal" else kind
    row = _cli_row(name, "--r", "354.5", "--p", "0.5", "--J", "1e-310")
    curve = mixture_bell_curve(MixtureSpec(p, r, kind), np.array([0.0, J]))
    with mpmath.workdps(60):
        assert abs(pure_bell_curve(J, r) - want_pure) <= 4 * EPS
        assert abs(pure_bell_values([J], r)[0] - want_pure) <= 4 * EPS
        assert abs(row["B"] - want_B) <= bound
        assert abs(curve[1] - want_B) <= bound


def test_mixture_bell_functions_check_their_kind():
    # one function serves both kinds: the spec's kind, checked when the
    # spec is made, picks the reference state, and the curves check theirs
    with pytest.raises(ValueError, match="unknown mixture kind"):
        MixtureSpec(p=0.5, r=1.5, kind="nope")
    with pytest.raises(ValueError, match="unknown mixture kind"):
        component_bell_curve(0.01, 1.5, "nope")
    with pytest.raises(ValueError, match="J must be"):
        mixture_correlations(MixtureSpec(p=0.5, r=1.5, kind="phase-diffused"),
                             -1.0)
    for kind in ("werner-thermal", "phase-diffused"):
        spec = MixtureSpec(p=0.5, r=1.5, kind=kind)
        B, correlations = mixture_correlations(spec, 0.01)
        assert B == pytest.approx(float(mixture_bell_curve(spec, 0.01)),
                                  rel=1e-14)
