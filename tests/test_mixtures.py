"""Unit tests for Werner-type and phase-diffused mixtures."""

import math

import numpy as np
import pytest

from cvbell import (
    ConvergenceError,
    MixtureSpec,
    TOLERANCES,
    TwoModePoint,
    component_bell_curve,
    finite_dim_werner_threshold,
    mixture_bell,
    mixture_bell_curve,
    mixture_evaluator,
    mixture_wigner,
    phase_average_quadrature_oracle,
    phase_averaged_wigner,
    pure_bell_curve,
    small_j_slope,
    thermal_marginal,
    werner_violation_threshold,
)
from cvbell.mixtures import werner_wigner

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


def test_phase_average_frozen_point():
    closed = phase_averaged_wigner(TwoModePoint(0.4 + 0j, 0.3 + 0j), 1.5)
    assert float(closed) == pytest.approx(PHASE_AVG_POINT, rel=1e-13)
    oracle = phase_average_quadrature_oracle(0.4, 0.3, 1.5)
    assert abs(float(closed) - oracle) < 1e-12


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
    assert abs(res.slope - exact) <= TOLERANCES.slope_rel * exact


@pytest.mark.parametrize("kind, low", [("werner-thermal", 1e-4),
                                       ("phase-diffused", 1e-6)])
def test_threshold_default_grid_is_the_documented_grid(kind, low):
    # the default budget grids are built once; passing the same grid
    # explicitly must give the same report, bit for bit
    for r in (0.3, 1.5, 2.7):
        default = werner_violation_threshold(r, kind=kind)
        explicit = werner_violation_threshold(
            r, J_grid=np.geomspace(low, 1.0, 200), kind=kind)
        assert default == explicit
