"""The closed-form optimum over J and the maximiser built on it."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import SqueezedStateParams, maximize_bell
from cvbell import bell as bell_module
from cvbell.bell import (
    DEFAULT_BOUNDS,
    PARAM_ORDER,
    _bell_of_variances,
    _bell_optimum,
)
from cvbell.dynamics import variance_arrays
from cvbell.modes import NormalModes, maximize_over_j

from oracles import max_bell_dense

EPS = sys.float_info.epsilon

#: the Banaszek-Wodkiewicz value 1 + 2^{2/3} - 2^{-4/3} = 2.19055079 that
#: B* approaches as r grows, rounded up in the eighth digit
BW_CEILING = 2.1905508

# the whole declared domain, up to where e^{2r} stays inside the float range
states = st.tuples(st.floats(0.0, 350.0), st.floats(0.0, 1e3),
                   st.floats(0.0, 1e3))
# J intervals from 1e-12 to 1e3, at least a factor 3 wide
j_bounds = st.tuples(st.floats(-12.0, 2.0), st.floats(0.5, 6.0)).map(
    lambda t: (10.0 ** t[0], 10.0 ** (t[0] + t[1])))


def _modes(r, d, nbar):
    return NormalModes.of(SqueezedStateParams(r, d, nbar))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(states, st.one_of(st.just(DEFAULT_BOUNDS["J"]), j_bounds))
def test_closed_form_is_the_maximum_over_j(state, bounds):
    modes = _modes(*state)
    lo, hi = bounds
    J, B = modes.bell_optimum(lo, hi)
    assert math.isfinite(J) and math.isfinite(B)
    assert lo <= J <= hi
    assert B <= BW_CEILING
    _, oracle_b, grid_max = max_bell_dense(modes.s1, modes.s2, lo, hi)
    # both sides round B(J) in its few terms of size at most 1/h
    slack = 8.0 * EPS / modes.h
    assert B >= oracle_b - slack
    assert B >= grid_max - slack


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.floats(0.0, 1e3), st.floats(0.0, 1e3),
       st.one_of(st.just(DEFAULT_BOUNDS["J"]), j_bounds))
def test_no_squeezing_puts_the_optimum_at_the_lower_bound(d, nbar, bounds):
    # s1 = s2: B falls from J = 0 on, so the clamp gives lo
    J, B = _modes(0.0, d, nbar).bell_optimum(*bounds)
    assert J == bounds[0]
    assert B <= 2.0


def test_variances_outside_the_model_family():
    # s2 < s1 < 3 s2: B falls from J = 0 on, so the clamp still gives lo
    J, B = NormalModes(2.0, 1.0).bell_optimum(1e-4, 1.0)
    assert J == 1e-4
    # s1 >= 3 s2: the stationary point is a minimum, not the maximum
    with pytest.raises(ValueError, match="s1 < 3 s2"):
        NormalModes(4.0, 1.0).bell_optimum(1e-4, 1.0)


def test_closed_form_tends_to_banaszek_wodkiewicz():
    bw = 1.0 + 2.0 ** (2.0 / 3.0) - 2.0 ** (-4.0 / 3.0)
    # unclamped: J* ~ (ln 2 / 3) e^{-2r} sits far below the default bounds
    J, B = _modes(12.0, 0.0, 0.0).bell_optimum(1e-300, 1.0)
    assert B == pytest.approx(bw, rel=1e-14)
    assert J == pytest.approx(math.log(2.0) / 3.0 * math.exp(-24.0), rel=1e-9)


def test_grid_form_is_the_scalar_form():
    rng = np.random.default_rng(12)
    r = np.concatenate([rng.uniform(0.0, 3.0, 400), rng.uniform(0.0, 350.0, 200),
                        [0.0, 0.0, 1e-9]])
    d = np.concatenate([10.0 ** rng.uniform(-4, 3, 600), [0.0, 1.0, 0.0]])
    nbar = np.concatenate([10.0 ** rng.uniform(-4, 3, 600), [0.0, 2.0, 0.0]])
    d[:60] = 0.0
    s1, s2 = variance_arrays(r, d, nbar)
    for lo, hi in (DEFAULT_BOUNDS["J"], (1e-12, 10.0)):
        J, B = _bell_optimum(s1, s2, lo, hi)
        for i in range(r.size):
            modes = _modes(float(r[i]), float(d[i]), float(nbar[i]))
            assert abs(s1[i] - modes.s1) <= 1e-15 * modes.s1
            assert abs(s2[i] - modes.s2) <= 1e-15 * modes.s2
            j_ref, b_ref = NormalModes(float(s1[i]), float(s2[i])).bell_optimum(lo, hi)
            assert abs(J[i] - j_ref) <= 1e-15 * j_ref
            assert abs(B[i] - b_ref) <= 1e-15 * b_ref


@settings(max_examples=300, derandomize=True, deadline=None)
@given(states, st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
def test_a_fixed_j_is_the_interval_j_j(state, J):
    # the maximiser scores a fixed J as max_J B on (J, J): the clamp
    # returns J, so the value is B(J) bit for bit, on arrays and floats
    s1, s2 = variance_arrays(*(np.array([v]) for v in state))
    j_star, b = _bell_optimum(s1, s2, J, J)
    assert j_star[0] == J
    assert b[0] == _bell_of_variances(J, s1, s2)[0]
    modes = _modes(*state)
    assert modes.bell_optimum(J, J) == (J, modes.bell(J)[0])


def test_j_alone_uses_neither_grid_nor_simplex(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("J alone must not scan or search")

    monkeypatch.setattr(bell_module, "_coarse_best", forbidden)
    monkeypatch.setattr(bell_module, "nelder_mead_minimize", forbidden)
    fixed = {"r": 1.5, "d": 0.3, "nbar": 0.2}
    res = maximize_bell(("J",), fixed)
    assert res == maximize_over_j(fixed)
    assert res.free == ("J",)
    J, B = _modes(1.5, 0.3, 0.2).bell_optimum(*DEFAULT_BOUNDS["J"])
    assert (res.params["J"], res.b_max) == (J, B)


def test_j_alone_validates_like_the_maximiser():
    with pytest.raises(ValueError, match="no value"):
        maximize_over_j({"r": 1.0})
    with pytest.raises(ValueError, match="fixed d"):
        maximize_over_j({"r": 1.0, "d": -1.0, "nbar": 0.0})
    with pytest.raises(ValueError, match="positive"):
        maximize_over_j({"r": 1.0, "d": 0.0, "nbar": 0.0}, {"J": (0.0, 1.0)})
    with pytest.raises(ValueError, match="overflow"):
        maximize_over_j({"r": 400.0, "d": 0.0, "nbar": 0.0})


def test_all_free_reaches_the_largest_squeezing():
    # the best state inside the default bounds is the pure one at r = 3;
    # regression: a search over J nodes stopped at r = 2.234, B = 2.1905025
    res = maximize_bell(PARAM_ORDER, {})
    best = maximize_over_j({"r": 3.0, "d": 0.0, "nbar": 0.0})
    assert res.b_max >= best.b_max
    assert res.b_max == pytest.approx(2.1905485354861205, rel=1e-15)
    assert res.params["r"] == pytest.approx(3.0, abs=1e-9)
    # the reported J is the closed-form optimum of the reported state
    state = [res.params[n] for n in ("r", "d", "nbar")]
    assert res.params["J"] == _modes(*state).bell_optimum(*DEFAULT_BOUNDS["J"])[0]


@pytest.mark.parametrize("free", [("J", "r"), ("J", "d"), ("J", "r", "nbar")])
def test_maximum_with_j_free_beats_every_grid_state(free):
    # no state of a 16-node grid over the free state parameters has a
    # larger max_J B than the maximiser's result
    fixed = {n: v for n, v in {"r": 1.2, "d": 0.3, "nbar": 0.4}.items()
             if n not in free}
    res = maximize_bell(free, fixed)
    names = [n for n in free if n != "J"]
    axes = [np.linspace(*DEFAULT_BOUNDS[n], 16) for n in names]
    for node in np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(names)):
        state = {**fixed, **dict(zip(names, node.tolist()))}
        B = _modes(state["r"], state["d"], state["nbar"]).bell_optimum(
            *DEFAULT_BOUNDS["J"])[1]
        assert res.b_max >= B


def test_a_refinement_that_wins_by_rounding_is_not_adopted():
    # regression: the simplex stopped at r = 2.9999999999911831,
    # d = 2.3e-19, nbar = 0.00195, 1 ulp above the grid cell (3, 0, 0),
    # which is the best state inside the bounds
    res = maximize_bell(PARAM_ORDER, {})
    assert [res.params[n] for n in ("r", "d", "nbar")] == [3.0, 0.0, 0.0]
    best = maximize_over_j({"r": 3.0, "d": 0.0, "nbar": 0.0})
    assert (res.params["J"], res.b_max) == (best.params["J"], best.b_max)


@pytest.mark.parametrize("free, fixed, slot", [
    (("r", "d"), {"J": 0.01, "nbar": 0.1}, "d"),
    (("J", "r", "nbar"), {"d": 0.3}, "nbar"),
])
def test_refined_coordinates_next_to_a_bound_go_onto_it(free, fixed, slot):
    # regression: the simplex stopped at d = 1.2e-14 (nbar = 4.1e-13),
    # where B falls with the coordinate; the bound itself is reported,
    # with its own B
    res = maximize_bell(free, fixed)
    assert res.params[slot] == 0.0
    state = [res.params[n] for n in ("r", "d", "nbar")]
    if "J" in free:
        want = _modes(*state).bell_optimum(*DEFAULT_BOUNDS["J"])[1]
    else:
        want = _modes(*state).bell(fixed["J"])[0]
    assert res.b_max == want
