"""The library's scans, maximiser and mixture curves over the declared domain.

The library twin of ``tests/test_cli_fuzz.py``, with arguments drawn by
its strategies: r log-uniform from 1e-300 to 356 (past the ~355 where e^{2r}
overflows), d, nbar, J and the bounds log-uniform from 1e-300 to 1e308,
each also exactly 0, and p uniform in [0, 1].  Grids are short ascending
lists of such values.  Each draw must either return finite values or
raise ``ValueError``.  The only non-finite results are the documented
ones: ``boundary_nbar`` is NaN on a row with no separable cell, and a
threshold's ``p_star`` is None where no weight on the budget grid
violates (ROADMAP item 3).  The Wigner densities are drawn at points in
the state's normal-mode units, where they are O(1) at any r, and must
lie in [0, (2/pi)^2 / h].  No draw may raise a warning.  A failed
cross-check is an internal defect, never the answer to a legal input:
``CrossCheckError`` is no ``ValueError``, so it escapes and fails the
test, as any other exception does.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbell import (MixtureSpec, NormalModes, SqueezedStateParams,
                    bell_surface, maximize_bell, mixture_bell_curve,
                    mixture_wigner, separability_map,
                    werner_violation_threshold, wigner_pure_2mss)
from cvbell.errors import CrossCheckError
from cvbell.modes import MIXTURE_KINDS, PARAM_ORDER
from cvbell.phase_space import wigner_gaussian_eval

from quad_helpers import point_in_normal_modes
from test_cli_fuzz import magnitude, squeezing, weight

grid = st.lists(magnitude, min_size=1, max_size=6, unique=True).map(sorted)
state_values = {"J": magnitude, "r": squeezing, "d": magnitude,
                "nbar": magnitude}


def call(f, *args):
    """f(*args) with warnings as errors, or None where it raises
    ``ValueError``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f(*args)
        except ValueError:
            return None


def test_a_failed_cross_check_is_not_an_accepted_error():
    assert not issubclass(CrossCheckError, ValueError)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(squeezing, grid, grid)
def test_separability_map(r, d_grid, nbar_grid):
    scan = call(separability_map, r, d_grid, nbar_grid)
    if scan is None:
        return
    assert np.isfinite(scan.margin).all()
    has_boundary = scan.separable.any(axis=1)
    assert np.isfinite(scan.boundary_nbar[has_boundary]).all()
    assert np.isnan(scan.boundary_nbar[~has_boundary]).all()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(squeezing, magnitude, grid, grid)
def test_bell_surface(r, nbar, J_grid, d_grid):
    surface = call(bell_surface, r, nbar, J_grid, d_grid)
    if surface is not None:
        assert np.isfinite(surface.values).all()


@st.composite
def searches(draw):
    """(free, fixed, bounds) of one maximiser call: any free set, the
    other parameters fixed, and drawn bounds for some free ones."""
    free = draw(st.lists(st.sampled_from(PARAM_ORDER), min_size=1,
                         max_size=4, unique=True))
    fixed, bounds = {}, {}
    for name, values in state_values.items():
        if name not in free:
            fixed[name] = draw(values)
        elif draw(st.booleans()):
            bounds[name] = tuple(sorted((draw(values), draw(values))))
    return free, fixed, bounds


@settings(max_examples=150, derandomize=True, deadline=None)
@given(searches())
# an infinite r bound: a numpy warning and an untrue overflow message
@example((["r"], {"J": 0.01, "d": 0.0, "nbar": 0.0}, {"r": (0.0, math.inf)}))
def test_maximize_bell(search):
    res = call(maximize_bell, *search)
    if res is not None:
        assert all(math.isfinite(v) for v in res.params.values())
        assert math.isfinite(res.b_max)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(weight, squeezing, st.sampled_from(MIXTURE_KINDS),
       st.lists(magnitude, min_size=1, max_size=6))
def test_mixture_bell_curve(p, r, kind, J):
    spec = call(MixtureSpec, p, r, kind)
    if spec is None:
        return
    curve = call(mixture_bell_curve, spec, np.array(J))
    assert curve is not None and np.isfinite(curve).all()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(squeezing, st.sampled_from(MIXTURE_KINDS))
def test_werner_violation_threshold(r, kind):
    report = call(werner_violation_threshold, r, kind)
    if report is None:
        return
    assert math.isfinite(report.best_b_at_unit_weight)
    if report.violated_at_unit_weight:
        assert 0.0 <= report.p_star <= 1.0
    else:
        assert report.p_star is None


#: a coordinate in normal-mode units, where the density is exp(-u^2)
unit = st.floats(-4.0, 4.0)
#: squeezing also uniform on [0, 356], where the squeezed axis is long
wide_squeezing = st.one_of(squeezing, st.floats(0.0, 356.0))
#: the largest density, (2/pi)^2, and the rounding of W at most 4 ulp above
PEAK = 4.0 / math.pi ** 2 * (1.0 + 2.0 ** -50)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(wide_squeezing, magnitude, magnitude,
       st.lists(unit, min_size=4, max_size=4))
def test_gaussian_wigner_in_normal_mode_units(r, d, nbar, u):
    params = call(SqueezedStateParams, r, d, nbar)
    modes = params and call(NormalModes.of, params)
    if modes is None:
        return
    W = call(wigner_gaussian_eval, point_in_normal_modes(modes.s1, modes.s2,
                                                         *u), modes)
    assert W is not None and 0.0 <= W <= PEAK / modes.h


@settings(max_examples=150, derandomize=True, deadline=None)
@given(weight, wide_squeezing, st.sampled_from(MIXTURE_KINDS),
       st.lists(unit, min_size=4, max_size=4))
def test_mixture_wigner_in_normal_mode_units(p, r, kind, u):
    # at a point in the pure state's units, where its density is O(1)
    spec = call(MixtureSpec, p, r, kind)
    if spec is None:
        return
    point = point_in_normal_modes(math.exp(-2.0 * r), math.exp(2.0 * r), *u)
    for W in (call(wigner_pure_2mss, point, r), call(mixture_wigner, point,
                                                     spec)):
        assert W is not None and 0.0 <= W <= PEAK
