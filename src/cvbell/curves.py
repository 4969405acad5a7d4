"""Budget grids, mixture Bell curves and the violation threshold on floats.

The mixtures' Bell value is affine in the weight p of the squeezed
component, B = p B_pure + (1 - p) B_ref, so on a grid of budgets J the
mixture violates B > 2 exactly when p > R(J) = (2 - B_ref)/(B_pure - B_ref)
at a node where B_pure > B_ref.  :func:`threshold_report` reports the
2^-14 cell that holds min R, which
:func:`cvbell.mixtures.werner_violation_threshold` computes on numpy
curves and :func:`violation_threshold` on Python floats, both on the
same fixed budget grid.  The grids and curves here are those of the
figures and the thresholds, built without numpy so that those
command-line paths start without it:

* :func:`_linspace` is ``numpy.linspace`` bit for bit;
* :func:`_geomspace` is ``numpy.geomspace`` within 1 ulp per node for
  ends that are powers of ten (numpy's vectorised ``power`` and the C
  library's ``pow`` differ in the last bit at some nodes).
"""

from __future__ import annotations

import math

from ._record import frozen_record
from .modes import (
    _mixture_kind,
    _pure_curve,
    _reference_curve,
    _require_squeezing,
)
from .tolerances import TOLERANCES

__all__ = [
    "BUDGET_COUNT",
    "BUDGET_LOW",
    "ThresholdReport",
    "component_bell_values",
    "mixed_values",
    "pure_bell_values",
    "threshold_report",
    "violation_threshold",
]

#: the default budget grid of the thresholds is
#: ``geomspace(BUDGET_LOW[kind], 1, BUDGET_COUNT)``; the phase-diffused
#: one reaches down to 1e-6 because its threshold sits at vanishing weight
BUDGET_COUNT = 200
BUDGET_LOW = {"werner-thermal": 1e-4, "phase-diffused": 1e-6}

#: the threshold lattice: the cells of width w = 2^-n that bisection of
#: [0, 1] reaches first with w <= ``TOLERANCES.threshold_p_abs`` (n = 14)
_LATTICE_BITS = 1 - math.frexp(TOLERANCES.threshold_p_abs)[1]


def _linspace(start: float, stop: float, num: int) -> list:
    """``numpy.linspace(start, stop, num)`` for num >= 2, bit for bit."""
    div = num - 1
    step = (stop - start) / div
    if step == 0:
        values = [i / div * (stop - start) + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def _geomspace(start: float, stop: float, num: int) -> list:
    """``numpy.geomspace(start, stop, num)`` for positive ends and
    num >= 2: 10 ** y over a linspace of the decimal logs, with both ends
    pinned to ``start`` and ``stop``.

    For ends that are powers of ten, as in every grid here, both
    decimal logs round to the same integers and each node is within
    1 ulp of numpy's.  For other ends ``math.log10`` and numpy's may
    differ in the last bit, which 10 ** y magnifies.
    """
    values = [10.0 ** y for y in _linspace(math.log10(start), math.log10(stop),
                                           num)]
    values[0], values[-1] = start, stop
    return values


def pure_bell_values(budgets, r: float) -> list:
    """B(J) of the pure squeezed vacuum at each budget, on floats."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return [_pure_curve(J, c, s) for J in budgets]


def component_bell_values(budgets, r: float, kind: str) -> list:
    """B(J) of the p = 0 reference state of ``kind`` at each budget."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return [_reference_curve(J, c, s, kind) for J in budgets]


def mixed_values(p: float, pure: list, reference: list) -> list:
    """p B_pure + (1 - p) B_ref at each budget: the mixture's curve."""
    return [p * a + (1.0 - p) * b for a, b in zip(pure, reference)]


# ----------------------------------------------------------------------
# violation threshold in p
# ----------------------------------------------------------------------

@frozen_record
class ThresholdReport:
    """Smallest squeezed-component weight that still violates B > 2.

    ``p_star`` is None when even the unmixed state (p = 1) stays below
    the ceiling on the scanned budget grid.
    """

    kind: str
    r: float
    p_star: float | None
    violated_at_unit_weight: bool
    best_b_at_unit_weight: float


def threshold_report(kind: str, r: float, top: float,
                     min_r: float) -> ThresholdReport:
    """The threshold report from the grid's best pure B and min R.

    ``top`` is max_J B_pure over the budget grid and ``min_r`` the
    minimum of 1 and of R over its nodes.  B is affine in p and the
    reference states never violate, so on the grid the mixture violates
    exactly when p > min R.  ``p_star`` is None unless ``top > 2``, and
    otherwise the midpoint of the cell [k w, (k + 1) w], w = 2^-14, that
    holds min R, with k clamped to [0, 2^14 - 1]: in exact arithmetic
    the value that bisection of [0, 1] on the violation test returns
    once its width is at most ``TOLERANCES.threshold_p_abs``.
    """
    if not top > 2.0:
        return ThresholdReport(kind=kind, r=float(r), p_star=None,
                               violated_at_unit_weight=False,
                               best_b_at_unit_weight=top)
    cell = min(max(int(math.ldexp(min_r, _LATTICE_BITS)), 0),
               (1 << _LATTICE_BITS) - 1)
    return ThresholdReport(kind=kind, r=float(r),
                           p_star=math.ldexp(cell + 0.5, -_LATTICE_BITS),
                           violated_at_unit_weight=True,
                           best_b_at_unit_weight=top)


def violation_threshold(r: float,
                        kind: str = "werner-thermal") -> ThresholdReport:
    """:func:`cvbell.mixtures.werner_violation_threshold` with Python
    floats in place of numpy arrays.

    The grid is :func:`_geomspace`, within 1 ulp per node of the
    library's ``numpy.geomspace``, and the curves round like numpy's in
    all but the last bit of some exponentials.  The tests find the
    library's ``p_star`` for r in [0, 9] and at points up to r = 354,
    and the best B at p = 1 within 4 ulp of it.  For phase-diffused r in
    about [5e-7, 2e-5], where R is formed from differences of nearly
    equal B, the two min R can fall into different cells.
    """
    budgets = _geomspace(BUDGET_LOW[_mixture_kind(kind)], 1.0, BUDGET_COUNT)
    r = _require_squeezing(r)
    pure = pure_bell_values(budgets, r)
    reference = component_bell_values(budgets, r, kind)
    min_r = min([1.0] + [(2.0 - b) / (a - b)
                         for a, b in zip(pure, reference) if a - b > 0.0])
    return threshold_report(kind, r, max(pure), min_r)
