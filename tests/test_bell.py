"""Unit tests for the displaced-parity combination and its maximization."""

import math

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbell import (
    BellSettings,
    SqueezedStateParams,
    bell_closed_form,
    bell_combination,
    bell_surface,
    coefficient_arrays,
    evolve_coefficients,
    maximize_bell,
    model_evaluator,
    parity_correlation,
    small_j_slope,
)
from cvbell.bell import _coarse_best
from cvbell.dynamics import variance_arrays
from cvbell.modes import DEFAULT_BOUNDS, PARAM_ORDER, NormalModes

from oracles import bell_surface_broadcast

# frozen values at the J=0.01, r=1.5 reference point
B_ANCHOR = 2.187452904044629
B_ANCHOR_D1 = 0.7396223708086831
# analytic single-variable optimum of 1 + 2e^{-aJ} - e^{-bJ} with
# a = 2 cosh 2r, b = 4(cosh 2r + sinh 2r) at r = 1.5
J_STAR = 0.011471648111682473
B_STAR = 2.189642883758868


def test_settings_points():
    pts = BellSettings(J=0.04).points()
    assert [(p.alpha1, p.alpha2) for p in pts] == [
        (0j, 0j), (0.2 + 0j, 0j), (0j, -0.2 + 0j), (0.2 + 0j, -0.2 + 0j)]
    with pytest.raises(ValueError):
        BellSettings(J=-0.1)


def test_anchor_value_closed_form():
    form = NormalModes(math.exp(-3.0), math.exp(3.0))
    assert bell_closed_form(form, 0.01) == pytest.approx(B_ANCHOR, rel=1e-14)


def test_assembly_matches_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(30):
        params = SqueezedStateParams(rng.uniform(0, 2.5), rng.uniform(0, 4),
                                     rng.uniform(0, 3))
        J = float(rng.uniform(0.0, 0.5))
        form = evolve_coefficients(params)
        combo = bell_combination(model_evaluator(params), J)
        assert combo.B == pytest.approx(bell_closed_form(form, J), rel=1e-12)


def test_assembly_correlation_structure():
    combo = bell_combination(model_evaluator(SqueezedStateParams(1.5, 0.0,
                                                                 0.0)), 0.01)
    assert combo.B == pytest.approx(B_ANCHOR, rel=1e-12)
    w = combo.correlations
    assert len(w) == 4
    assert all(0.0 < c <= 1.0 for c in w)
    assert combo.B == pytest.approx(w[0] + w[1] + w[2] - w[3], rel=1e-15)
    # the origin parity of a pure state is exactly 1
    assert w[0] == pytest.approx(1.0, rel=1e-14)


def test_parity_correlation_scaling():
    ev = model_evaluator(SqueezedStateParams(1.0, 0.0, 0.0))
    pt = BellSettings(J=0.09).points()[1]
    assert parity_correlation(ev, pt) == pytest.approx(
        (math.pi / 2.0) ** 2 * ev(pt), rel=1e-15)


def test_zero_displacement_limit():
    # B(J=0) collapses to 2/h, never above 2
    for params in (SqueezedStateParams(1.5, 0.0, 0.0),
                   SqueezedStateParams(1.5, 1.0, 0.0),
                   SqueezedStateParams(0.5, 2.0, 3.0)):
        form = evolve_coefficients(params)
        assert bell_closed_form(form, 0.0) == pytest.approx(2.0 / form.h,
                                                            rel=1e-14)
        assert bell_closed_form(form, 0.0) <= 2.0 + 1e-15


def test_diffused_anchor():
    form = evolve_coefficients(SqueezedStateParams(1.5, 1.0, 0.0))
    assert bell_closed_form(form, 0.01) == pytest.approx(B_ANCHOR_D1,
                                                         rel=1e-13)


def test_b_decreases_with_small_diffusion():
    vals = [bell_closed_form(evolve_coefficients(
        SqueezedStateParams(1.5, d, 0.0)), 0.01)
        for d in np.linspace(0.0, 0.2, 11)]
    assert np.all(np.diff(vals) < 0.0)


def test_maximize_single_variable_hits_analytic_optimum():
    res = maximize_bell(("J",), {"r": 1.5, "d": 0.0, "nbar": 0.0})
    assert res.free == ("J",)
    assert abs(res.b_max - B_STAR) <= 1e-9
    assert abs(res.params["J"] - J_STAR) <= 1e-5
    assert res.params["r"] == 1.5


def test_maximize_with_diffusion_stays_below_two():
    res = maximize_bell(("J",), {"r": 1.5, "d": 5.0, "nbar": 0.0})
    assert res.b_max == pytest.approx(1.4656007439465348, rel=1e-12)
    assert res.b_max < 2.0


def test_maximize_all_free_is_deterministic():
    first = maximize_bell(PARAM_ORDER, {})
    second = maximize_bell(PARAM_ORDER, {})
    assert first.b_max == second.b_max
    assert first.params == second.params
    # the unconstrained search rides the r boundary toward the J -> 0,
    # r -> inf supremum 1 + 2*2^{-1/3} - 2^{-4/3} ~ 2.19055
    assert 2.1896 <= first.b_max <= 2.1906
    assert first.params["d"] <= 1e-9
    lo, hi = DEFAULT_BOUNDS["J"]
    assert lo <= first.params["J"] <= hi


@pytest.mark.parametrize("free", [("J",), ("r", "d"), PARAM_ORDER])
def test_maximize_reaches_meshgrid_coarse_grid(free):
    # oracle: the documented 32-node grid per free axis, built as a full
    # meshgrid (geometric in J, linear otherwise)
    fixed = {n: v for n, v in {"J": 0.01, "r": 1.5, "d": 0.2,
                               "nbar": 0.1}.items() if n not in free}
    axes = [np.geomspace(*DEFAULT_BOUNDS[n], 32) if n == "J"
            else np.linspace(*DEFAULT_BOUNDS[n], 32) for n in free]
    mesh = dict(zip(free, np.meshgrid(*axes, indexing="ij")))
    point = {**fixed, **mesh}
    c1, c2, h = coefficient_arrays(point["r"], point["d"], point["nbar"])
    J = point["J"]
    grid = (1.0 + 2.0 * np.exp(-J * c1 / (2.0 * h))
            - np.exp(-J * (c1 - c2) / h)) / h
    assert grid.shape == (32,) * len(free)
    res = maximize_bell(free, fixed)
    assert res.b_max >= float(grid.max())
    for n in free:
        lo, hi = DEFAULT_BOUNDS[n]
        assert lo <= res.params[n] <= hi
    for n, v in fixed.items():
        assert res.params[n] == v


def test_maximize_validation():
    with pytest.raises(ValueError):
        maximize_bell(("J", "bogus"), {"r": 1.0, "d": 0.0, "nbar": 0.0})
    with pytest.raises(ValueError):
        maximize_bell(("J",), {"r": 1.0})
    with pytest.raises(ValueError):
        maximize_bell(("J", "r"), {"r": 1.0, "d": 0.0, "nbar": 0.0})
    with pytest.raises(ValueError):
        maximize_bell(("J",), {"r": 1.0, "d": 0.0, "nbar": 0.0},
                      bounds={"J": (0.0, 1.0)})


def test_small_j_slope_pure():
    res = small_j_slope(model_evaluator(SqueezedStateParams(1.5, 0.0, 0.0)))
    assert res.anchored
    assert res.b_zero == pytest.approx(2.0, abs=1e-9)
    assert res.slope == pytest.approx(4.0 * math.sinh(3.0), rel=1e-3)


def test_surface_grid_and_determinism():
    J = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 299)))
    d = np.linspace(0.0, 2.0, 300)
    one = bell_surface(1.5, 0.0, J, d, workers=1)
    three = bell_surface(1.5, 0.0, J, d, workers=3)
    assert one.values.shape == (300, 300)
    assert np.array_equal(one.values, three.values)
    # spot-check against the scalar route
    form = evolve_coefficients(SqueezedStateParams(1.5, float(d[7]), 0.0))
    assert one.values[5, 7] == pytest.approx(
        bell_closed_form(form, float(J[5])), rel=1e-12)


def test_surface_at_the_top_of_the_squeezing_range_does_not_warn():
    # b J overflows at J = 1e10 and e^-inf = 0 is the limit; a
    # RuntimeWarning fails the suite
    surface = bell_surface(354.0, 0.0, [0, 1e-310, 1e10], [0])
    assert surface.values.ravel().tolist() == [2.0, 2.005983065061828, 1.0]


def _surface_grid(top, size, geometric):
    if size == 1:
        return np.array([top])
    if geometric:
        return np.concatenate([[0.0], np.geomspace(top * 1e-12, top,
                                                   size - 1)])
    return np.linspace(0.0, top, size)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-300, 1e-15),
                 st.floats(0.0, 354.0)),
       st.floats(0.0, 10.0), st.integers(1, 70), st.integers(1, 1100),
       st.floats(1e-200, 1e308), st.floats(1e-20, 1e3), st.booleans())
@example(1.5, 0.0, 33, 1000, 1.0, 5.0, True)
@example(354.0, 0.0, 3, 40_000, 1e308, 0.5, True)
def test_surface_is_its_broadcast_form_bit_for_bit(r, nbar, rows, cols,
                                                   j_top, d_top, j_geom):
    # J up to 1e308, where -4J overflows and B takes its limit 1/h without
    # a warning
    J = _surface_grid(j_top, rows, j_geom)
    d = _surface_grid(d_top, cols, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            surface = bell_surface(r, nbar, J, d)
        except ValueError:  # c1 or h leaves the float range
            with pytest.raises(ValueError):
                bell_surface_broadcast(r, nbar, J, d)
            return
        values = bell_surface_broadcast(r, nbar, J, d)
    assert surface.values.tobytes() == values.tobytes()


def test_surface_validates_grids():
    with pytest.raises(ValueError):
        bell_surface(1.5, 0.0, np.array([0.2, 0.1]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        bell_surface(1.5, 0.0, np.array([-0.1, 0.2]), np.array([0.0, 1.0]))


def _meshgrid_argmax(axes, names, fixed, j_bounds):
    # oracle: the full meshgrid of the free state parameters and the flat
    # argmax (first maximum, i.e. the lexicographically smallest
    # (r, d, nbar) cell); with J free each cell is the scalar closed form
    # of max_J B, otherwise B at the fixed J from the variances of the
    # full meshgrid, in the arithmetic of NormalModes.bell
    mesh = dict(zip(names, np.meshgrid(*axes, indexing="ij")))
    point = {**fixed, **mesh}
    shape = tuple(len(a) for a in axes)
    r, d, nbar = (np.broadcast_to(point[n], shape) for n in ("r", "d", "nbar"))
    if j_bounds is None:
        s1, s2 = variance_arrays(r, d, nbar)
        h = s1 * s2
        side = np.exp(-point["J"] * (1.0 / s1 + 1.0 / s2)) / h
        grid = 1.0 / h + side + side - np.exp(-4.0 * point["J"] / s1) / h
    else:
        grid = np.array([
            NormalModes.of(SqueezedStateParams(*cell)).bell_optimum(*j_bounds)[1]
            for cell in zip(r.ravel().tolist(), d.ravel().tolist(),
                            nbar.ravel().tolist())]).reshape(shape)
    flat = int(np.argmax(grid))
    return np.unravel_index(flat, grid.shape), float(grid.flat[flat])


def _cell_value(cell, names, fixed, j_bounds):
    # B of one cell in the oracle's arithmetic: the variances of 1-element
    # arrays for a fixed J, the scalar closed form of max_J B otherwise
    point = {**fixed, **dict(zip(names, cell))}
    state = [point[n] for n in ("r", "d", "nbar")]
    if j_bounds is not None:
        return NormalModes.of(SqueezedStateParams(*state)).bell_optimum(*j_bounds)[1]
    s1, s2 = variance_arrays(*(np.array([v]) for v in state))
    h = s1 * s2
    side = np.exp(-point["J"] * (1.0 / s1 + 1.0 / s2)) / h
    return float((1.0 / h + side + side - np.exp(-4.0 * point["J"] / s1) / h)[0])


@pytest.mark.parametrize("free", [("J", "r"), ("r", "nbar"), ("J", "d", "nbar"),
                                  ("r", "d", "nbar"), PARAM_ORDER])
def test_coarse_stage_matches_meshgrid_argmax(free):
    # J is never a grid axis: with J free the cells hold max_J B
    fixed = {n: v for n, v in {"J": 0.01, "r": 1.5, "d": 0.2,
                               "nbar": 0.1}.items() if n not in free}
    names = tuple(n for n in free if n != "J")
    axes = [np.linspace(*DEFAULT_BOUNDS[n], 32) for n in names]
    j_bounds = DEFAULT_BOUNDS["J"] if "J" in free else None
    # a fixed J is the interval (J, J)
    cell = _coarse_best(axes, names, fixed, j_bounds or (fixed.get("J"),) * 2)
    ref_idx, ref_val = _meshgrid_argmax(axes, names, fixed, j_bounds)
    assert cell == [float(a[i]) for a, i in zip(axes, ref_idx)]
    assert all(type(v) is float for v in cell)
    assert _cell_value(cell, names, fixed, j_bounds) == ref_val


def test_coarse_stage_ties_go_to_smallest_cell():
    # at d = 0, nbar has no effect, so every cell of an nbar axis ties;
    # the first cell must win, as in the flat argmax, with J free or fixed
    axes = [np.linspace(0.0, 2.0, 32)]
    for fixed, j_bounds in (({"r": 0.5, "d": 0.0}, DEFAULT_BOUNDS["J"]),
                            ({"J": 0.01, "r": 0.5, "d": 0.0}, None)):
        cell = _coarse_best(axes, ("nbar",), fixed,
                            j_bounds or (fixed.get("J"),) * 2)
        ref_idx, _ = _meshgrid_argmax(axes, ("nbar",), fixed, j_bounds)
        assert int(ref_idx[0]) == 0
        assert cell == [0.0]


@pytest.mark.parametrize("bad", [
    {"d": -1.0}, {"r": math.nan}, {"nbar": -0.6}, {"J": -0.01},
    {"r": math.inf}, {"nbar": math.nan},
])
def test_maximize_rejects_bad_fixed_values(bad):
    fixed = {"J": 0.01, "r": 1.5, "d": 0.2, "nbar": 0.1}
    fixed.update(bad)
    name = next(iter(bad))
    free = ("r",) if name == "J" else ("J",)
    with pytest.raises(ValueError, match=f"fixed {name}"):
        maximize_bell(free, {n: v for n, v in fixed.items() if n not in free})


def test_maximize_accepts_zero_fixed_values():
    # the vacuum stays below 2, which it approaches as J -> 0
    res = maximize_bell(("J",), {"r": 0.0, "d": 0.0, "nbar": 0.0})
    assert 2.0 - 1e-6 <= res.b_max <= 2.0
    assert maximize_bell(("r",), {"J": 0.0, "d": 0.3, "nbar": 0.0}).b_max > 0


def test_maximize_rejects_overflowing_coarse_grid():
    # r up to 400 overflows e^{2r}; the grid used to yield b_max = nan
    with pytest.raises(ValueError, match="not finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            maximize_bell(("J", "r"), {"d": 0.0, "nbar": 0.0},
                          bounds={"r": (0.0, 400.0)})
    with pytest.raises(ValueError, match="not finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            maximize_bell(("r",), {"J": 0.01, "d": 0.0, "nbar": 0.0},
                          bounds={"r": (0.0, 400.0)})
    # also at a fixed J with d > 0, where the finite cells reach B > 2
    with pytest.raises(ValueError, match="not finite"):
        maximize_bell(("r",), {"J": 0.01, "d": 1.0, "nbar": 0.0},
                      bounds={"r": (0.0, 400.0)})
