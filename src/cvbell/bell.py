"""Displaced-parity Bell test on two-mode Wigner functions.

The displaced parity expectation at (a1, a2) equals (pi/2)^2 times the
Wigner density there, so the CHSH-style combination built from a
displacement budget J,

    B(J) = P(0, 0) + P(sqrt J, 0) + P(0, -sqrt J) - P(sqrt J, -sqrt J),

is computable from four density evaluations.  Local realism bounds
|B| <= 2; the ideal squeezed vacuum reaches about 2.19 at small J.

The four-point assembly is the ground truth here.  For Gaussian
coefficient triples it collapses to

    B = (1/h) [1 + 2 exp(-J c1 / 2h) - exp(-J (c1 - c2) / h)],

where the last displacement pair (sqrt J, -sqrt J) flips the sign of the
cross term, so the exponent carries c1 - c2 (with c2 < 0 this is what
makes the violation survive).  The closed form is tested against the
assembly and used for grid scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dynamics import coefficient_arrays, evolve_coefficients
from .numerics import TOLERANCES, nelder_mead_minimize
from .parallel import chunked_rows
from .phase_space import (
    GaussianForm,
    SqueezedStateParams,
    TwoModePoint,
    wigner_gaussian_eval,
)

__all__ = [
    "PARITY_SCALE",
    "BellSettings",
    "BellEvaluation",
    "BellSurface",
    "MaximizeResult",
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

#: canonical parameter order used for grids and tie-breaking
PARAM_ORDER = ("J", "r", "d", "nbar")

DEFAULT_BOUNDS = {
    "J": (1e-4, 1.0),
    "r": (0.0, 3.0),
    "d": (0.0, 5.0),
    "nbar": (0.0, 2.0),
}


@dataclass(frozen=True)
class BellSettings:
    """Displacement budget J >= 0 of the four-point combination."""

    J: float

    def __post_init__(self):
        j = float(self.J)
        if not math.isfinite(j) or j < 0:
            raise ValueError(f"J must be a nonnegative real, got {self.J!r}")
        object.__setattr__(self, "J", j)

    def points(self) -> tuple:
        """The four probed phase-space points, in combination order."""
        s = math.sqrt(self.J)
        return (
            TwoModePoint(0.0 + 0.0j, 0.0 + 0.0j),
            TwoModePoint(s + 0.0j, 0.0 + 0.0j),
            TwoModePoint(0.0 + 0.0j, -s + 0.0j),
            TwoModePoint(s + 0.0j, -s + 0.0j),
        )


@dataclass(frozen=True)
class BellEvaluation:
    """One Bell combination: value, the four correlations, settings."""

    B: float
    correlations: tuple
    settings: BellSettings
    state_label: str = ""


@dataclass(frozen=True)
class BellSurface:
    """B over a (J, d) grid at fixed r and nbar; values[i, j] belongs to
    (J_grid[i], d_grid[j])."""

    r: float
    nbar: float
    J_grid: np.ndarray
    d_grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of a Bell maximisation: full parameter point and value."""

    params: dict
    b_max: float
    free: tuple


@dataclass(frozen=True)
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


def bell_combination(evaluator: Callable[[TwoModePoint], float], J: float,
                     state_label: str = "") -> BellEvaluation:
    """Assemble B(J) from four parity correlations of an evaluator."""
    settings = BellSettings(J=J)
    p1, p2, p3, p4 = (parity_correlation(evaluator, pt)
                      for pt in settings.points())
    return BellEvaluation(B=p1 + p2 + p3 - p4,
                          correlations=(p1, p2, p3, p4),
                          settings=settings, state_label=state_label)


def _closed_bell(J, c1, c2, h):
    # vectorised closed form of the four-point assembly
    return (1.0 + 2.0 * np.exp(-J * c1 / (2.0 * h))
            - np.exp(-J * (c1 - c2) / h)) / h


def bell_closed_form(form: GaussianForm, J: float) -> float:
    """Closed form of the four-point combination for a Gaussian triple."""
    if not math.isfinite(float(J)) or J < 0:
        raise ValueError(f"J must be a nonnegative real, got {J!r}")
    return float(_closed_bell(float(J), form.c1, form.c2, form.h))


def model_evaluator(params: SqueezedStateParams) -> Callable[[TwoModePoint], float]:
    """Density evaluator of the damped squeezed state at ``params``."""
    form = evolve_coefficients(params)
    return lambda point: wigner_gaussian_eval(point, form)


def bell_surface(r: float, nbar: float, J_grid, d_grid,
                 workers: int | None = None) -> BellSurface:
    """B over the product of ascending nonnegative J and d grids.

    Evaluated through the closed form (itself pinned to the four-point
    assembly by the test suite), chunked across the scan pool.
    """
    J_grid = np.asarray(J_grid, dtype=float)
    d_grid = np.asarray(d_grid, dtype=float)
    for name, g in (("J_grid", J_grid), ("d_grid", d_grid)):
        if g.ndim != 1 or g.size == 0:
            raise ValueError(f"{name} must be a nonempty 1-D grid")
        if np.any(g < 0):
            raise ValueError(f"{name} must be nonnegative")
        if g.size > 1 and np.any(np.diff(g) <= 0):
            raise ValueError(f"{name} must be strictly ascending")
    c1, c2, h = coefficient_arrays(r, d_grid, nbar)
    values = chunked_rows(
        lambda lo, hi: _closed_bell(J_grid[lo:hi, None], c1[None, :],
                                    c2[None, :], h[None, :]),
        len(J_grid), len(d_grid), workers)
    return BellSurface(r=float(r), nbar=float(nbar), J_grid=J_grid,
                       d_grid=d_grid, values=values)


# ----------------------------------------------------------------------
# maximisation
# ----------------------------------------------------------------------

def _model_bell_scalar(J, r, d, nbar) -> float:
    c1, c2, h = coefficient_arrays(r, d, nbar)
    return float(_closed_bell(J, c1, c2, h))


def maximize_bell(free: Sequence[str], fixed: Mapping[str, float],
                  bounds: Mapping[str, tuple] | None = None,
                  grid_points: int = 32) -> MaximizeResult:
    """Maximise B over a subset of (J, r, d, nbar).

    Deterministic two-stage search: a coarse scan with ``grid_points``
    nodes per free dimension (geometric in J, linear otherwise),
    iterated in lexicographic (J, r, d, nbar) order so exact ties go to
    the smallest tuple, then Nelder-Mead refinement from the best cell
    until the simplex diameter is below ``TOLERANCES.simplex_diameter``.
    The refined point is only adopted if strictly better than the scan.

    Parameters
    ----------
    free : sequence of str
        Names to optimise over, subset of {"J", "r", "d", "nbar"}.
    fixed : mapping
        Values for the remaining names (exactly the complement).
    bounds : mapping, optional
        (lo, hi) per free name; J bounds must be positive.  Defaults:
        J (1e-4, 1), r (0, 3), d (0, 5), nbar (0, 2).
    """
    free = tuple(free)
    if not free:
        raise ValueError("need at least one free parameter")
    for name in free:
        if name not in PARAM_ORDER:
            raise ValueError(f"unknown parameter {name!r}")
    if len(set(free)) != len(free):
        raise ValueError("duplicate free parameter")
    for name in fixed:
        if name not in PARAM_ORDER:
            raise ValueError(f"unknown parameter {name!r}")
    missing = [n for n in PARAM_ORDER if n not in free and n not in fixed]
    if missing:
        raise ValueError(f"no value for parameters: {missing}")
    overlap = [n for n in free if n in fixed]
    if overlap:
        raise ValueError(f"parameters both free and fixed: {overlap}")
    if grid_points < 32:
        raise ValueError("coarse scan needs at least 32 points per dimension")

    merged_bounds = dict(DEFAULT_BOUNDS)
    if bounds:
        merged_bounds.update({k: (float(v[0]), float(v[1])) for k, v in bounds.items()})
    free_ordered = tuple(n for n in PARAM_ORDER if n in free)

    axes = []
    for name in free_ordered:
        lo, hi = merged_bounds[name]
        if not hi > lo:
            raise ValueError(f"empty bounds for {name}: ({lo}, {hi})")
        if name == "J":
            if lo <= 0:
                raise ValueError("J bounds must be positive for the "
                                 "geometric scan grid")
            axes.append(np.geomspace(lo, hi, grid_points))
        else:
            if lo < 0:
                raise ValueError(f"{name} bounds must be nonnegative")
            axes.append(np.linspace(lo, hi, grid_points))

    def full_point(values) -> dict:
        point = {n: float(fixed[n]) for n in PARAM_ORDER if n in fixed}
        point.update({n: float(v) for n, v in zip(free_ordered, values)})
        return point

    # each free axis lies along its own dimension and the fixed values stay
    # floats, so the axes broadcast: (c1, c2, h) do not depend on J and are
    # computed once per (r, d, nbar) cell, not on the full grid; the
    # arithmetic per cell is that of a meshgrid, so the values are the same
    k = len(free_ordered)
    arrays = {n: float(fixed[n]) for n in fixed}
    for i, name in enumerate(free_ordered):
        arrays[name] = axes[i].reshape((1,) * i + (-1,) + (1,) * (k - i - 1))
    c1, c2, h = coefficient_arrays(arrays["r"], arrays["d"], arrays["nbar"])
    values = _closed_bell(arrays["J"], c1, c2, h)
    flat_best = int(np.argmax(values))  # first index wins ties: lexicographic
    best_idx = np.unravel_index(flat_best, values.shape)
    best_x = np.array([axes[i][best_idx[i]] for i in range(k)])
    best_val = float(values[best_idx])

    lo_arr = np.array([merged_bounds[n][0] for n in free_ordered])
    hi_arr = np.array([merged_bounds[n][1] for n in free_ordered])

    def objective(x: np.ndarray) -> float:
        if np.any(x < lo_arr) or np.any(x > hi_arr):
            return math.inf
        point = full_point(x)
        return -_model_bell_scalar(point["J"], point["r"], point["d"], point["nbar"])

    # local steps: J is geometric, so step relative to the start point
    step = (hi_arr - lo_arr) / 64.0
    if "J" in free_ordered:
        j_index = free_ordered.index("J")
        step[j_index] = best_x[j_index] / 8.0
    step = np.where(best_x + step > hi_arr, -step, step)
    refined_x, refined_neg = nelder_mead_minimize(objective, best_x, step)
    if -refined_neg > best_val:
        best_x, best_val = refined_x, -refined_neg

    return MaximizeResult(params=full_point(best_x), b_max=best_val,
                          free=free_ordered)


def small_j_slope(evaluator: Callable[[TwoModePoint], float],
                  j_probe: float = 1e-6, state_label: str = "") -> SlopeResult:
    """Initial slope dB/dJ at J = 0+ of an evaluator's Bell curve.

    Forward differences at ``j_probe`` and 2 ``j_probe`` combined by
    Richardson extrapolation (2 s1 - s2), cancelling the O(J) error.
    The result is flagged unanchored when B(0) deviates from the
    local-realism ceiling 2 by more than ``TOLERANCES.anchor_abs``.
    """
    if j_probe <= 0:
        raise ValueError("probe step must be positive")
    b0 = bell_combination(evaluator, 0.0, state_label).B
    s1 = (bell_combination(evaluator, j_probe, state_label).B - b0) / j_probe
    s2 = (bell_combination(evaluator, 2.0 * j_probe, state_label).B - b0) / (2.0 * j_probe)
    return SlopeResult(slope=2.0 * s1 - s2,
                       anchored=abs(b0 - 2.0) <= TOLERANCES.anchor_abs,
                       b_zero=b0)
