"""Budget grids, mixture Bell curves and the violation threshold on floats.

The mixtures' Bell value is affine in the weight p of the squeezed
component, B = p B_pure + (1 - p) B_ref, so on a grid of budgets J the
mixture violates B > 2 exactly when p > R(J) = loss / (gain + loss) at
a node where gain = B_pure - 2 > 0, with loss = 2 - B_ref.  The
threshold is min R over a fixed budget grid: :func:`violation_threshold`
locates its node and that of the best pure B on Python floats,
:func:`cvbell.mixtures.werner_violation_threshold` on numpy arrays, and
:func:`threshold_report` evaluates the one record at those nodes for
both.  The grids and curves here are those of the figures and the
thresholds, built without numpy so that those command-line paths start
without it:

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
    _pure_gain,
    _reference_curve,
    _reference_loss,
    _require_squeezing,
)

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

    ``violated_at_unit_weight`` says whether the unmixed state (p = 1)
    gains, B_pure - 2 > 0, at some node of the scanned budget grid, from
    the cancellation-free gain; B_pure itself can round to 2 there.
    ``p_star`` is None when it does not, and in (0, 1) otherwise.
    """

    kind: str
    r: float
    p_star: float | None
    violated_at_unit_weight: bool
    best_b_at_unit_weight: float


def threshold_report(kind: str, r: float, j_min: float,
                     j_top: float) -> ThresholdReport:
    """The threshold report from two nodes of the budget grid.

    ``j_top`` is the node of the largest gain B_pure - 2 and ``j_min``
    that of min R among the nodes where the gain is positive.  The best
    B at p = 1 is B_pure at ``j_top``.  The state violates at p = 1
    exactly when :func:`cvbell.modes._pure_gain` is positive at
    ``j_top``, which B_pure, rounded near 2, cannot always tell;
    ``p_star`` is None unless it is, and otherwise R at ``j_min``.
    """
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    best = _pure_curve(j_top, c, s)
    if not _pure_gain(j_top, c, s) > 0.0:
        return ThresholdReport(kind=kind, r=float(r), p_star=None,
                               violated_at_unit_weight=False,
                               best_b_at_unit_weight=best)
    gain = _pure_gain(j_min, c, s)
    loss = _reference_loss(j_min, c, s, kind)
    return ThresholdReport(kind=kind, r=float(r),
                           p_star=loss / (gain + loss),
                           violated_at_unit_weight=True,
                           best_b_at_unit_weight=best)


def violation_threshold(r: float,
                        kind: str = "werner-thermal") -> ThresholdReport:
    """:func:`cvbell.mixtures.werner_violation_threshold` with Python
    floats in place of numpy arrays, on the same :func:`_geomspace`
    grid.  ``math.exp`` and numpy's ``exp`` can differ in the last bit,
    which could move a node only where two nodes tie to rounding; the
    tests find the same report for r in [0, 9] and up to r = 354.
    """
    budgets = _geomspace(BUDGET_LOW[_mixture_kind(kind)], 1.0, BUDGET_COUNT)
    r = _require_squeezing(r)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    gains = [_pure_gain(J, c, s) for J in budgets]
    top = max(range(BUDGET_COUNT), key=gains.__getitem__)
    ratios = [(loss := _reference_loss(J, c, s, kind)) / (gain + loss)
              if gain > 0.0 else math.inf for J, gain in zip(budgets, gains)]
    low = min(range(BUDGET_COUNT), key=ratios.__getitem__)
    return threshold_report(kind, r, budgets[low], budgets[top])
