"""Unit tests for Werner-type and phase-diffused mixtures."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (
    MixtureSpec,
    TwoModePoint,
    component_bell_curve,
    finite_dim_werner_threshold,
    mixture_bell,
    mixture_bell_curve,
    mixture_evaluator,
    mixture_wigner,
    phase_averaged_wigner,
    pure_bell_curve,
    small_j_slope,
    thermal_marginal,
    werner_violation_threshold,
    wigner_pure_2mss,
)
from cvbell import numerics
from cvbell.curves import _geomspace, threshold_report, violation_threshold
from cvbell.mixtures import _DEFAULT_BUDGETS, werner_wigner
from cvbell.modes import _pure_gain, mixture_slope

from oracles import (
    SLOPE_REL,
    ConvergenceError,
    i0e_60,
    min_ratio_60,
    mixture_bell_60,
    phase_average_quadrature_oracle,
    threshold_nodes_full_grid,
)
from quad_helpers import marginal_by_quadrature

# frozen: 2 / (pi cosh 3)
MARGINAL_ORIGIN_R15 = 0.06323412254350322
# frozen phase-averaged value at moduli (0.4, 0.3), r = 1.5
PHASE_AVG_POINT = 0.06063465324098544
# frozen Werner mixture value at J=0.01, p=0.95, r=1.5
WERNER_B_P95 = 2.0790668606160296
# frozen bisection result on the default 200-point scan grid
WERNER_P_STAR_R15 = 0.912628173828125


def test_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(p=1.2, r=1.0, kind="werner-thermal")
    with pytest.raises(ValueError):
        MixtureSpec(p=-0.1, r=1.0, kind="werner-thermal")
    with pytest.raises(ValueError):
        MixtureSpec(p=0.5, r=1.0, kind="nope")
    with pytest.raises(ValueError):
        werner_wigner(TwoModePoint(0j, 0j),
                      MixtureSpec(p=0.5, r=1.0, kind="phase-diffused"))


def test_thermal_marginal_frozen_value():
    assert thermal_marginal(0j, 1.5) == pytest.approx(MARGINAL_ORIGIN_R15,
                                                      rel=1e-14)
    assert thermal_marginal(0j, 1.5) == pytest.approx(
        2.0 / (math.pi * math.cosh(3.0)), rel=1e-14)


@pytest.mark.parametrize("alpha1", [0j, 0.3 + 0.2j, -0.5j, 0.7 + 0j])
@pytest.mark.parametrize("r", [0.5, 1.5])
def test_thermal_marginal_against_quadrature(alpha1, r):
    direct = thermal_marginal(alpha1, r)
    quad = marginal_by_quadrature(alpha1, r)
    assert abs(direct - quad) < 1e-8


@pytest.mark.parametrize("density", [
    lambda r: thermal_marginal(0.1, r),
    lambda r: wigner_pure_2mss(TwoModePoint(0.1 + 0j, -0.1 + 0j), r),
    lambda r: phase_averaged_wigner(TwoModePoint(0.1 + 0j, -0.1 + 0j), r),
], ids=["thermal_marginal", "wigner_pure_2mss", "phase_averaged_wigner"])
def test_densities_reject_squeezing_beyond_the_float_range(density):
    # regression: cosh 2r at r = 400 raised OverflowError from math.cosh
    with pytest.raises(ValueError, match="r=400.0 overflows"):
        density(400.0)
    with pytest.raises(ValueError, match="squeezing must be nonnegative"):
        density(math.nan)


def test_phase_average_frozen_point():
    closed = phase_averaged_wigner(TwoModePoint(0.4 + 0j, 0.3 + 0j), 1.5)
    assert float(closed) == pytest.approx(PHASE_AVG_POINT, rel=1e-13)
    oracle = phase_average_quadrature_oracle(0.4, 0.3, 1.5)
    assert abs(float(closed) - oracle) < 1e-12


@pytest.mark.parametrize("r, a1, a2", [(20.0, 1.0, 1.0), (100.0, 0.5, 0.5),
                                       (1.5, 3.0, 2.5), (300.0, 1e-3, 2e-3)])
def test_phase_average_at_large_squeezing(r, a1, a2):
    # -2c(|a1|^2 + |a2|^2) + log I0(4s|a1||a2|) cancelled to rounding
    # noise: at r = 20 and moduli 1 the density read 1.0, above its bound
    # 4/pi^2, where the truth is 2.36e-10
    got = phase_averaged_wigner(TwoModePoint(a1 + 0j, a2 + 0j), r)
    with mpmath.workdps(60):
        R, A1, A2 = (mpmath.mpf(x) for x in (r, a1, a2))
        want = (4 / mpmath.pi ** 2
                * mpmath.exp(-2 * mpmath.cosh(2 * R) * (A1 - A2) ** 2
                             - 4 * mpmath.exp(-2 * R) * A1 * A2)
                * i0e_60(4 * mpmath.sinh(2 * R) * A1 * A2))
        # the exponent 2c(|a1| - |a2|)^2 carries the rounding of cosh 2r
        scale = 1 + 2 * mpmath.cosh(2 * R) * (A1 - A2) ** 2
        assert abs(got - want) <= 8 * 2.0 ** -52 * scale * want
    assert got <= 4 / math.pi ** 2


@pytest.mark.parametrize("r, a", [(316.0, math.exp(316.0) / 2.0),
                                  (1.0, 1e200)])
def test_phase_average_past_the_float_range(r, a, recwarn):
    # 4s|a1||a2| overflowed with a RuntimeWarning; it is inf, e^-x I0(x)
    # is 0 there, and so is the density, which is below 1e-130 at both
    assert phase_averaged_wigner(TwoModePoint(a * 1j, -a * 1j), r) == 0.0
    assert len(recwarn) == 0


def test_phase_average_depends_on_moduli_only():
    a, b = 0.6 * np.exp(0.7j), 0.9 * np.exp(-2.1j)
    rotated = phase_averaged_wigner(TwoModePoint(a, b), 1.2)
    plain = phase_averaged_wigner(TwoModePoint(0.6 + 0j, 0.9 + 0j), 1.2)
    assert float(rotated) == pytest.approx(float(plain), rel=1e-13)


def test_phase_average_oracle_detects_under_resolution():
    # sharply peaked phase integrand at large moduli needs many nodes
    with pytest.raises(ConvergenceError):
        phase_average_quadrature_oracle(2.0, 2.0, 1.5, nodes=8)
    with pytest.raises(ValueError):
        phase_average_quadrature_oracle(0.4, 0.3, 1.5, nodes=4)


def test_mixture_wigner_interpolates_components():
    pt = TwoModePoint(0.2 + 0.1j, -0.3 + 0.2j)
    for kind in ("werner-thermal", "phase-diffused"):
        lo = mixture_wigner(pt, MixtureSpec(p=0.0, r=1.1, kind=kind))
        hi = mixture_wigner(pt, MixtureSpec(p=1.0, r=1.1, kind=kind))
        mid = mixture_wigner(pt, MixtureSpec(p=0.3, r=1.1, kind=kind))
        assert float(mid) == pytest.approx(0.3 * float(hi) + 0.7 * float(lo),
                                           rel=1e-13)


def test_mixture_bell_affine_in_weight():
    J = 0.02
    for kind in ("werner-thermal", "phase-diffused"):
        b0 = mixture_bell(MixtureSpec(p=0.0, r=1.5, kind=kind), J).B
        b1 = mixture_bell(MixtureSpec(p=1.0, r=1.5, kind=kind), J).B
        b6 = mixture_bell(MixtureSpec(p=0.6, r=1.5, kind=kind), J).B
        assert b6 == pytest.approx(0.6 * b1 + 0.4 * b0, rel=1e-12)


def test_werner_frozen_bell_value():
    b = mixture_bell(MixtureSpec(p=0.95, r=1.5, kind="werner-thermal"), 0.01)
    assert b.B == pytest.approx(WERNER_B_P95, rel=1e-12)
    assert b.B > 2.0


def test_unit_weight_curve_matches_pure_closed_form():
    J = np.geomspace(1e-4, 1.0, 50)
    curve = mixture_bell_curve(MixtureSpec(p=1.0, r=1.5,
                                           kind="werner-thermal"), J)
    np.testing.assert_allclose(curve, pure_bell_curve(J, 1.5), rtol=1e-12)


def test_component_curves_stay_below_two_at_zero_weight():
    J = np.geomspace(1e-6, 1.0, 200)
    for kind in ("werner-thermal", "phase-diffused"):
        base = component_bell_curve(J, 1.5, kind)
        assert np.all(base <= 2.0 + 1e-12)


def test_werner_threshold_frozen():
    rep = werner_violation_threshold(1.5)
    assert rep.kind == "werner-thermal"
    assert rep.violated_at_unit_weight
    assert rep.p_star == pytest.approx(WERNER_P_STAR_R15, abs=1.5e-4)
    assert 0.87 <= rep.p_star <= 0.93
    assert rep.best_b_at_unit_weight > 2.0


def test_werner_threshold_no_violation_without_squeezing():
    rep = werner_violation_threshold(0.0)
    assert rep.p_star is None
    assert not rep.violated_at_unit_weight
    assert rep.best_b_at_unit_weight <= 2.0


def test_phase_diffused_threshold_collapses_to_zero():
    rep = werner_violation_threshold(1.5, kind="phase-diffused")
    assert rep.violated_at_unit_weight
    assert rep.p_star is not None
    assert rep.p_star <= 5e-4


def test_phase_diffused_slope_scales_with_weight():
    for p in (0.25, 0.75):
        res = small_j_slope(mixture_evaluator(
            MixtureSpec(p=p, r=1.0, kind="phase-diffused")))
        assert res.anchored
        assert res.slope == pytest.approx(4.0 * p * math.sinh(2.0), rel=1e-3)


def test_finite_dim_threshold():
    assert finite_dim_werner_threshold(2) == pytest.approx(1.0 / 3.0,
                                                           rel=1e-15)
    assert finite_dim_werner_threshold(5) == pytest.approx(1.0 / 6.0,
                                                           rel=1e-15)
    for bad in (1, 2.5, True):
        with pytest.raises(ValueError):
            finite_dim_werner_threshold(bad)


def test_mixture_evaluator_matches_mixture_wigner():
    spec = MixtureSpec(p=0.4, r=0.8, kind="werner-thermal")
    ev = mixture_evaluator(spec)
    pt = TwoModePoint(0.1 - 0.2j, 0.05 + 0.3j)
    assert float(ev(pt)) == pytest.approx(float(mixture_wigner(pt, spec)),
                                          rel=1e-15)


@pytest.mark.parametrize("kind", ["werner-thermal", "phase-diffused"])
@pytest.mark.parametrize("r", [0.3, 1.5, 3.0, 5.0, 8.0])
def test_small_j_slope_with_scaled_probe(kind, r):
    # the probe shrinks like 1 / cosh 2r; the fixed 1e-6 probe was off by
    # 4.7e-3 relative at r = 5 and had the wrong sign at r = 8
    p = 0.5
    res = small_j_slope(mixture_evaluator(MixtureSpec(p=p, r=r, kind=kind)),
                        j_probe=1e-6 / math.cosh(2.0 * r))
    exact = 4.0 * p * math.sinh(2.0 * r)
    assert abs(res.slope - exact) <= SLOPE_REL * exact


@pytest.mark.parametrize("kind, low", [("werner-thermal", 1e-4),
                                       ("phase-diffused", 1e-6)])
def test_threshold_default_grid_is_the_documented_grid(kind, low):
    # the budget grid is built once, read-only, from the float front
    # end's grid, bit for bit, and within 1 ulp of numpy's geomspace
    grid = _DEFAULT_BUDGETS[kind]
    assert not grid.flags.writeable
    assert grid.tolist() == _geomspace(low, 1.0, 200)
    want = np.geomspace(low, 1.0, 200)
    assert np.all(np.abs(grid - want) <= np.spacing(want))
    for r in (0.3, 1.5, 2.7):
        best = werner_violation_threshold(r, kind=kind).best_b_at_unit_weight
        top = float(pure_bell_curve(grid, r).max())
        assert abs(best - top) <= 4 * math.ulp(top)


@pytest.mark.parametrize("kind", ["werner-thermal", "phase-diffused"])
@pytest.mark.parametrize("r", [0.3, 1.5, 3.0, 5.0, 8.0])
def test_closed_slope_matches_the_probe(kind, r):
    # the Richardson probe stays as the oracle of the closed slope
    spec = MixtureSpec(p=0.5, r=r, kind=kind)
    slope, b_zero = mixture_slope(spec)
    assert slope == 4.0 * spec.p * math.sinh(2.0 * r)
    probe = small_j_slope(mixture_evaluator(spec),
                          j_probe=1e-6 / math.cosh(2.0 * r))
    assert abs(probe.slope - slope) <= SLOPE_REL * slope
    assert b_zero == pytest.approx(probe.b_zero, rel=1e-12)


def test_closed_slope_at_zero_budget():
    # B(0) = 2 p + (1 - p) B_ref(0), with B_ref(0) = 2 for the phase
    # average and 2 / cosh^2 2r for the product of the marginals
    assert mixture_slope(MixtureSpec(0.3, 1.0, "phase-diffused"))[1] == 2.0
    slope, b_zero = mixture_slope(MixtureSpec(0.3, 1.0, "werner-thermal"))
    assert b_zero == pytest.approx(0.6 + 0.7 * 2.0 / math.cosh(2.0) ** 2,
                                   rel=1e-15)
    assert mixture_slope(MixtureSpec(0.0, 1.0, "werner-thermal"))[0] == 0.0
    # 4 p sinh 2r beyond the float range is a domain error, not inf
    with pytest.raises(ValueError, match="overflows"):
        mixture_slope(MixtureSpec(1.0, 354.8, "phase-diffused"))


@pytest.mark.parametrize("r", [200.0, 300.0])
def test_product_curve_past_the_square_overflow(r, recwarn):
    # cosh^2 2r overflows from r ~ 177 on; the product state's curve is
    # then 0, and the threshold reports no violation on its grid
    # instead of an OverflowError traceback
    J = np.geomspace(1e-4, 1.0, 200)
    assert np.array_equal(component_bell_curve(J, r, "werner-thermal"),
                          np.zeros_like(J))
    rep = werner_violation_threshold(r)
    assert rep.p_star is None and not rep.violated_at_unit_weight
    assert len(recwarn) == 0


def test_product_curve_square_is_unchanged_below_overflow():
    # the guard keeps ** where the square is finite: c * c differs from
    # c ** 2 in the last bit for some r
    J = np.geomspace(1e-4, 1.0, 50)
    for r in np.linspace(0.0, 176.0, 400).tolist():
        c = math.cosh(2.0 * r)
        want = (1.0 + 2.0 * np.exp(-2.0 * J / c) - np.exp(-4.0 * J / c)) / c ** 2
        assert np.array_equal(component_bell_curve(J, r, "werner-thermal"), want)


KINDS = ("werner-thermal", "phase-diffused")
EPS = 2.0 ** -52


def _nodes(r, kind):
    """(j_min, j_top) at which the library threshold evaluates its report."""
    with mock.patch("cvbell.mixtures.threshold_report",
                    wraps=threshold_report) as spy:
        werner_violation_threshold(r, kind)
    return spy.call_args.args[2:]


def _ratio_60(r, kind, J):
    # min(1, R(J)) of one node, to 60 digits
    return min_ratio_60(r, kind, [J])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kind=st.sampled_from(KINDS), r=st.floats(0.0, 9.0))
def test_threshold_is_the_60_digit_ratio_at_a_local_minimum(kind, r):
    # p* is the 60-digit R at its node, and no neighbouring node has a
    # smaller R; the best B at p = 1 is B_pure at a node whose
    # neighbours have no larger B_pure
    rep = werner_violation_threshold(r, kind=kind)
    grid = _DEFAULT_BUDGETS[kind].tolist()
    j_min, j_top = _nodes(r, kind)
    k, top = grid.index(j_min), grid.index(j_top)
    near = [grid[i] for i in (k - 1, k + 1) if 0 <= i < len(grid)]
    with mpmath.workdps(60):
        best = mixture_bell_60(1, r, j_top, kind)[0]
        assert abs(rep.best_b_at_unit_weight - best) <= 4 * EPS * best
        for i in (top - 1, top + 1):
            if 0 <= i < len(grid):
                assert (mixture_bell_60(1, r, grid[i], kind)[0]
                        <= best * (1 + 4 * EPS))
        assert rep.violated_at_unit_weight == (rep.p_star is not None)
        if rep.p_star is None:
            return
        want = _ratio_60(r, kind, j_min)
        assert abs(rep.p_star - want) <= 4 * EPS * want
        for J in near:
            assert _ratio_60(r, kind, J) >= want * (1 - 4 * EPS)


@pytest.mark.parametrize("j_top", [2.0, 1.5, math.nan])
def test_threshold_report_without_a_violation_has_no_weight(j_top):
    # at r = 1 the pure state stays below 2 at these budgets, and a NaN
    # B is no violation either
    rep = threshold_report("werner-thermal", 1.0, 0.01, j_top)
    assert rep.p_star is None and not rep.violated_at_unit_weight
    best = rep.best_b_at_unit_weight
    assert best < 2.0 or math.isnan(best) and math.isnan(j_top)


def _assert_near_60_digits(r, kind, want):
    for front_end in (werner_violation_threshold, violation_threshold):
        p_star = front_end(r, kind).p_star
        assert abs(p_star - want) <= 4 * EPS * want, front_end


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("r", [0.3, 1.0, 1.5, 2.7, 4.0])
def test_threshold_is_the_cell_of_the_60_digit_min_ratio(kind, r):
    # named when p* was a 2^-14 cell; both front ends are now within
    # 4 eps of the 60-digit min R over the whole grid
    with mpmath.workdps(60):
        want = min_ratio_60(r, kind, _DEFAULT_BUDGETS[kind])
        _assert_near_60_digits(r, kind, want)


@pytest.mark.parametrize("r, want", [
    (5.493961497003613e-07, 0.9100919259727639),
    (7.421484740800455e-07, 0.6737209836936214),
    (9.209359249259617e-07, 0.5429270229037865),
    (2.90939092548579e-06, 0.17185761997646504),
])
def test_tiny_r_phase_diffused_threshold_is_the_60_digit_cell(r, want):
    # R was a ratio of differences of nearly equal B here, and the two
    # front ends fell into different 2^-14 cells; from the gain and the
    # loss both are within 4 eps of the 60-digit min R, frozen as want
    with mpmath.workdps(60):
        exact = min_ratio_60(r, "phase-diffused",
                             _DEFAULT_BUDGETS["phase-diffused"])
        assert float(exact) == want
        _assert_near_60_digits(r, "phase-diffused", exact)


@pytest.mark.parametrize("r", [0.3, 0.7, 1.0, 1.5, 2.0])
def test_phase_diffused_threshold_to_first_order_in_the_first_budget(r):
    # R(J) = kappa J (1 + O(c J)), kappa = cosh 4r / sinh 2r, so the
    # minimum sits at the first node J_min = 1e-6 (ROADMAP item 19)
    j_low = 1e-6
    assert _nodes(r, "phase-diffused")[0] == j_low
    kappa = math.cosh(4.0 * r) / math.sinh(2.0 * r)
    for front_end in (werner_violation_threshold, violation_threshold):
        p_star = front_end(r, "phase-diffused").p_star
        error = p_star / (kappa * j_low) - 1.0
        assert abs(error) <= 3.0 * math.cosh(2.0 * r) * j_low


#: r log-uniform on [1e-9, 354.8], or uniform on [0, 9]
threshold_squeezing = st.one_of(
    st.floats(-9.0, math.log10(354.8)).map(lambda u: 10.0 ** u),
    st.floats(0.0, 9.0))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=2000, derandomize=True, deadline=None)
@given(r=threshold_squeezing)
def test_both_front_ends_give_the_full_grid_report(kind, r):
    # the loss is formed where the pure state gains only, with the series
    # its largest argument needs; the full-grid pass with 40 terms at all
    # 200 nodes picks the nodes of the same report
    j_min, j_top = threshold_nodes_full_grid(r, kind)
    want = threshold_report(kind, r, j_min, j_top)
    assert werner_violation_threshold(r, kind) == want
    assert violation_threshold(r, kind) == want
    _assert_verdict_is_the_gain(want, r, j_top)


def _assert_verdict_is_the_gain(rep, r, j_top):
    # violated at p = 1 exactly where the pure state gains at the node of
    # the largest gain, and then p* is a weight strictly inside (0, 1)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    assert rep.violated_at_unit_weight == (_pure_gain(j_top, c, s) > 0.0)
    assert rep.violated_at_unit_weight == (rep.p_star is not None)
    if rep.violated_at_unit_weight:
        assert 0.0 < rep.p_star < 1.0


#: Werner squeezing 1e-16 apart across the window near r = 5.0010002584e-05
#: where the pure state gains at J = 1e-4 but B_pure there rounds to 2
GAIN_WINDOW_R = [5.0010002584e-05 + k * 1e-16 for k in range(-100, 500)]


def test_unit_weight_verdict_is_the_sign_of_the_gain_where_b_rounds_to_2():
    # over half of the window violates with a best B that rounds to 2
    rounded = 0
    for r in GAIN_WINDOW_R:
        for module, front_end in (("mixtures", werner_violation_threshold),
                                  ("curves", violation_threshold)):
            with mock.patch(f"cvbell.{module}.threshold_report",
                            wraps=threshold_report) as spy:
                rep = front_end(r)
            _assert_verdict_is_the_gain(rep, r, spy.call_args.args[3])
        rounded += rep.violated_at_unit_weight and (
            rep.best_b_at_unit_weight == 2.0)
    assert rounded > 300


@pytest.mark.parametrize("r", [0.3, 1.5, 3.0])
def test_the_array_pass_runs_a_short_series_only(r):
    # where the pure state gains, 4sJ < 1.2188, so each Bessel series has
    # at most 11 terms, and the asymptotic branch is never entered
    with mock.patch("cvbell.numerics._horner_tail",
                    wraps=numerics._horner_tail) as horner, \
            mock.patch("cvbell.numerics._i0e_array",
                       side_effect=AssertionError("asymptotic branch")):
        werner_violation_threshold(r, "phase-diffused")
    assert horner.call_count == 1
    assert len(horner.call_args.args[1]) <= 12
