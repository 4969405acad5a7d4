"""Displaced-parity Bell test on two-mode Wigner functions.

The displaced parity expectation at (a1, a2) equals (pi/2)^2 times the
Wigner density there, so the CHSH-style combination built from a
displacement budget J,

    B(J) = P(0, 0) + P(sqrt J, 0) + P(0, -sqrt J) - P(sqrt J, -sqrt J),

is computable from four density evaluations.  Local realism bounds
|B| <= 2; the ideal squeezed vacuum reaches about 2.19 at small J.

The four-point assembly is the ground truth here.  For a Gaussian
state with Wigner coefficients (c1, c2, h) it collapses to

    B = (1/h) [1 + 2 exp(-J c1 / 2h) - exp(-J (c1 - c2) / h)],

where the last displacement pair (sqrt J, -sqrt J) flips the sign of the
cross term, so the exponent carries c1 - c2 (with c2 < 0 this is what
makes the violation survive).  In the normal-mode variances,
c1 = 2(s1 + s2), c2 = 2(s1 - s2) and h = s1 s2, it reads
B = (1 + 2 e^{-aJ} - e^{-bJ}) / h with a = 1/s1 + 1/s2 and b = 4/s1,
the one closed form of B, :func:`cvbell.modes._bell`: on one state
through :meth:`cvbell.modes.NormalModes.bell` (:func:`bell_closed_form`),
and on arrays in the surface.  Its maximum over J is
:func:`cvbell.modes._bell_optimum`, which the maximiser's coarse scan
evaluates on arrays and its refinement on floats.  The tests pin B to
the assembly.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from ._record import frozen_record
from .dynamics import (
    evolve_coefficients,
    row_blocks,
    scan_inputs,
    variance_arrays,
)
from .modes import (
    MaximizeResult,
    NormalModes,
    SqueezedStateParams,
    _bell,
    _bell_optimum,
    _maximize_inputs,
    _model_variances,
    _require_nonnegative,
    maximize_over_j,
)
from .numerics import nelder_mead_minimize
from .phase_space import TwoModePoint, wigner_gaussian_eval
from .tolerances import TOLERANCES

__all__ = [
    "PARITY_SCALE",
    "BellSettings",
    "BellEvaluation",
    "BellSurface",
    "SlopeResult",
    "parity_correlation",
    "bell_combination",
    "bell_closed_form",
    "model_evaluator",
    "bell_surface",
    "maximize_bell",
    "small_j_slope",
]

#: parity-to-density conversion (pi/2)^2
PARITY_SCALE = (math.pi / 2.0) ** 2

@frozen_record
class BellSettings:
    """Displacement budget J >= 0 of the four-point combination."""

    J: float

    def __post_init__(self):
        object.__setattr__(self, "J", _require_nonnegative("J", self.J))

    def points(self) -> tuple:
        """The four probed phase-space points, in combination order."""
        s = math.sqrt(self.J)
        return (
            TwoModePoint(0.0 + 0.0j, 0.0 + 0.0j),
            TwoModePoint(s + 0.0j, 0.0 + 0.0j),
            TwoModePoint(0.0 + 0.0j, -s + 0.0j),
            TwoModePoint(s + 0.0j, -s + 0.0j),
        )


@frozen_record
class BellEvaluation:
    """One Bell combination: value, the four correlations, settings."""

    B: float
    correlations: tuple
    settings: BellSettings


@frozen_record
class BellSurface:
    """B over a (J, d) grid at fixed r and nbar; values[i, j] belongs to
    (J_grid[i], d_grid[j])."""

    r: float
    nbar: float
    J_grid: np.ndarray
    d_grid: np.ndarray
    values: np.ndarray


@frozen_record
class SlopeResult:
    """Slope of B(J) at J = 0+.

    ``anchored`` records whether B(0) = 2 held to
    ``TOLERANCES.anchor_abs``; the slope is returned either way.
    """

    slope: float
    anchored: bool
    b_zero: float


def parity_correlation(evaluator: Callable[[TwoModePoint], float],
                       point: TwoModePoint) -> float:
    """Displaced parity expectation (pi/2)^2 W(point)."""
    return PARITY_SCALE * float(evaluator(point))


def bell_combination(evaluator: Callable[[TwoModePoint], float],
                     J: float) -> BellEvaluation:
    """Assemble B(J) from four parity correlations of an evaluator."""
    settings = BellSettings(J=J)
    p1, p2, p3, p4 = (parity_correlation(evaluator, pt)
                      for pt in settings.points())
    return BellEvaluation(B=p1 + p2 + p3 - p4,
                          correlations=(p1, p2, p3, p4),
                          settings=settings)


def bell_closed_form(form: NormalModes, J: float) -> float:
    """Closed form of the four-point combination for a state,
    :meth:`NormalModes.bell`."""
    return form.bell(J)


def model_evaluator(params: SqueezedStateParams) -> Callable[[TwoModePoint], float]:
    """Density evaluator of the damped squeezed state at ``params``."""
    form = evolve_coefficients(params)
    return lambda point: wigner_gaussian_eval(point, form)


def bell_surface(r: float, nbar: float, J_grid, d_grid,
                 workers: int | None = None) -> BellSurface:
    """B over the product of ascending nonnegative J and d grids.

    Evaluated through the closed form :func:`cvbell.modes._bell`
    (itself pinned to the four-point assembly by the test suite) on the
    normal-mode variances of each d column: B = (1 + 2 e^{-aJ} -
    e^{-bJ}) / h with a = 1/s1 + 1/s2, b = 4/s1 and h = s1 s2; an
    exponent that overflows at a huge budget gives its limit, 0.  The
    rows run in the cache-sized blocks of
    :func:`cvbell.dynamics.row_blocks`, each written straight into the
    surface.  ``workers`` is accepted for compatibility and ignored.

    Raises ``ValueError`` (:func:`cvbell.dynamics.scan_inputs`) unless
    r and nbar are finite and nonnegative, the grids are nonempty, 1-D,
    finite, nonnegative and ascending, and c1 and h of every column stay
    in the float range.
    """
    r, J_grid, d_grid = scan_inputs(r, nbar, J_grid=J_grid, d_grid=d_grid)
    s1, s2 = variance_arrays(r, d_grid, nbar)
    values = np.empty((len(J_grid), len(d_grid)))
    with np.errstate(over="ignore"):
        for lo, hi in row_blocks(*values.shape):
            values[lo:hi] = _bell(J_grid[lo:hi, None], s1, s2, np.exp)
    return BellSurface(r=float(r), nbar=float(nbar), J_grid=J_grid,
                       d_grid=d_grid, values=values)


# ----------------------------------------------------------------------
# maximisation
# ----------------------------------------------------------------------

#: linear nodes per free state parameter of the maximiser's coarse scan
_GRID_POINTS = 32


def _coarse_best(axes: Sequence[np.ndarray], names: tuple,
                 fixed: Mapping[str, float], j_bounds: tuple) -> list:
    """Coordinates of the best coarse cell, as floats.

    ``axes`` are the grids of the free state parameters ``names`` (a
    subset of r, d, nbar, in that order); each lies along its own
    dimension and broadcasts, so nothing is computed on a full meshgrid
    that depends on fewer parameters.  The value of a cell is max_J B
    over ``j_bounds`` in closed form (:func:`cvbell.modes._bell_optimum`
    on arrays); a fixed J is the interval (J, J).  The first maximum
    wins (the flat ``np.argmax``), so exact ties go to the
    lexicographically smallest (r, d, nbar) cell.  A non-finite cell
    raises ``ValueError``.
    """
    k = len(names)
    arrays = dict(fixed)
    for i, name in enumerate(names):
        arrays[name] = axes[i].reshape((1,) * i + (-1,) + (1,) * (k - i - 1))
    state = (arrays["r"], arrays["d"], arrays["nbar"])
    # an overflowing cell raises below; numpy's warnings would only repeat it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s1, s2 = variance_arrays(*state)
        values = _bell_optimum(s1, s2, *j_bounds, np.clip, np.log1p,
                               np.exp)[1]
    if not np.isfinite(values).all():
        raise ValueError("B is not finite on part of the coarse grid (the "
                         "coefficients overflow there); narrow the bounds")
    idx = np.unravel_index(int(np.argmax(values)), values.shape)
    return [float(axis[i]) for axis, i in zip(axes, idx)]


def _point(base: list, box: list, x: list):
    """(r, d, nbar) with the free slots set to x, or None off the box."""
    point = base.copy()
    for (slot, lo, hi), v in zip(box, x):
        if not lo <= v <= hi:
            return None
        point[slot] = v
    return point


def maximize_bell(free: Sequence[str], fixed: Mapping[str, float],
                  bounds: Mapping[str, tuple] | None = None) -> MaximizeResult:
    """Maximise B over a subset of (J, r, d, nbar).

    At a fixed state, max_J B has a closed form
    (:meth:`NormalModes.bell_optimum`), so J is never searched:

    * J alone: the closed form of the fixed state, with no grid and no
      simplex (:func:`cvbell.modes.maximize_over_j`);
    * J and state parameters: the objective is max_J B of the state;
    * state parameters only: the same on the interval (J, J), i.e. B(J).

    The state parameters get a deterministic two-stage search: a coarse
    scan on the variances with 32 linear nodes per free parameter,
    iterated in lexicographic (r, d, nbar) order so exact ties go to the
    smallest tuple, then Nelder-Mead refinement from the best cell
    until the simplex diameter is below ``TOLERANCES.simplex_diameter``.
    Refined coordinates within that tolerance of a bound are moved onto
    it unless that costs more than a few ulp of B, and the refined point
    is only adopted if strictly better than the scan.  Both stages score
    a point on the variance kernels alone, max_J B by
    :func:`cvbell.modes._bell_optimum`; only the reported point is
    built and cross-checked as a :class:`cvbell.modes.NormalModes`
    state, once, and the reported J and B are that state's.

    Parameters
    ----------
    free : sequence of str
        Names to optimise over, subset of {"J", "r", "d", "nbar"}.
    fixed : mapping
        Values for the remaining names (exactly the complement); each
        must be finite and nonnegative.
    bounds : mapping, optional
        (lo, hi) per free name, finite but for an upper J bound of inf;
        J bounds must be positive.  Defaults:
        J (1e-4, 1), r (0, 3), d (0, 5), nbar (0, 2).

    Raises
    ------
    ValueError
        On bad names, fixed values or bounds, and when B is not finite
        somewhere on the coarse grid (e.g. r bounds so large that the
        variances overflow).
    """
    if tuple(free) == ("J",):
        return maximize_over_j(fixed, bounds)
    free_ordered, fixed_values, limits = _maximize_inputs(free, fixed, bounds)
    j_bounds = limits.pop("J", None) or (fixed_values["J"],) * 2
    names = tuple(limits)
    axes = [np.linspace(lo, hi, _GRID_POINTS) for lo, hi in limits.values()]
    best_x = _coarse_best(axes, names, fixed_values, j_bounds)

    # the objective sees Python floats only: a full (r, d, nbar) list with
    # the free slots overwritten, and out-of-bounds points rejected
    slots = [("r", "d", "nbar").index(n) for n in names]
    box = [(slot,) + limits[n] for slot, n in zip(slots, names)]
    base = [fixed_values.get(n, 0.0) for n in ("r", "d", "nbar")]

    def objective(x: list) -> float:
        point = _point(base, box, x)
        if point is None:
            return math.inf
        # the float kernels alone, without the state's route check; a
        # point whose variances leave the float range raises
        return -_bell_optimum(*_model_variances(*point), *j_bounds)[1]

    # the value of the adopted cell, which the refinement must beat
    best_val = -objective(best_x)

    step = [(hi - lo) / 64.0 for _, lo, hi in box]
    step = [-s if x + s > hi else s
            for x, s, (_, _, hi) in zip(best_x, step, box)]
    refined_x, refined_neg = nelder_mead_minimize(objective, best_x, step)
    # a coordinate within the simplex tolerance of a bound goes onto it
    # unless B falls by more than rounding there
    tol = TOLERANCES.simplex_diameter
    snapped = [lo if v - lo < tol else hi if hi - v < tol else v
               for (_, lo, hi), v in zip(box, refined_x)]
    snapped_neg = objective(snapped)
    if snapped_neg <= refined_neg + 4.0 * math.ulp(refined_neg):
        refined_x, refined_neg = snapped, snapped_neg
    if -refined_neg > best_val:
        best_x, best_val = refined_x, -refined_neg

    # the one checked state, at the reported point; its B is best_val
    params = dict(fixed_values)
    params.update(zip(names, best_x))
    state = SqueezedStateParams(params["r"], params["d"], params["nbar"])
    params["J"], b_max = NormalModes.of(state).bell_optimum(*j_bounds)
    return MaximizeResult(params=params, b_max=b_max, free=free_ordered)


def small_j_slope(evaluator: Callable[[TwoModePoint], float],
                  j_probe: float = 1e-6) -> SlopeResult:
    """Initial slope dB/dJ at J = 0+ of an evaluator's Bell curve.

    Forward differences at ``j_probe`` and 2 ``j_probe`` combined by
    Richardson extrapolation (2 s1 - s2), cancelling the O(J) error.
    The result is flagged unanchored when B(0) deviates from the
    local-realism ceiling 2 by more than ``TOLERANCES.anchor_abs``.

    For the squeezed family the exponents of B(J) grow like J cosh 2r,
    so the left-over O(J^2) error is O((j_probe cosh 2r)^2) relative:
    pass ``j_probe`` of about 1e-6 / cosh 2r, or at r = 8 the default
    probe sits where B is far from linear (it even gets the sign of the
    phase-diffused slope wrong).  The shrunken probe still moves B by
    j_probe 4 p sinh 2r < 4e-6 p, far above rounding.  For the mixtures
    the slope is known exactly, :func:`cvbell.modes.mixture_slope`; the
    tests keep this probe as its oracle.
    """
    if j_probe <= 0:
        raise ValueError("probe step must be positive")
    b0 = bell_combination(evaluator, 0.0).B
    s1 = (bell_combination(evaluator, j_probe).B - b0) / j_probe
    s2 = (bell_combination(evaluator, 2.0 * j_probe).B - b0) / (2.0 * j_probe)
    return SlopeResult(slope=2.0 * s1 - s2,
                       anchored=abs(b0 - 2.0) <= TOLERANCES.anchor_abs,
                       b_zero=b0)
