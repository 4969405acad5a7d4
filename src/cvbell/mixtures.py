"""Non-Gaussian mixtures built on the two-mode squeezed vacuum.

Two one-parameter families interpolate between the pure squeezed state
(p = 1) and a classical-looking reference (p = 0):

* ``werner-thermal``: the reference is the product of the state's own
  thermal marginals, a product state with no correlations at all.
* ``phase-diffused``: the reference is the squeezed state averaged over
  a uniform random phase in one arm, which erases the off-diagonal
  coherence but keeps the photon-number correlations.  Its density
  depends only on the moduli |a1|, |a2| and carries a Bessel I0 factor.

Both mixtures are convex, so every Bell combination is affine in p.
The densities here feed the four-point assembly, which the tests use,
beside a brute-force phase average of the pure density, as the oracle
of the closed forms.  Single Bell values come from the numpy-free core
(:func:`cvbell.modes.mixture_correlations`), where ``MixtureSpec`` and
the finite-dimensional threshold live too; it cross-checks the affine
identity against the closed component curves, which this module
evaluates on budget arrays.  The same affinity gives the violation
threshold on the fixed budget grid in one vector pass: the mixture
violates exactly when p > (2 - B_ref) / (B_pure - B_ref) at some node
(:mod:`cvbell.curves` evaluates the report at the smallest ratio).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .bell import BellEvaluation, BellSettings
from .curves import (BUDGET_COUNT, BUDGET_LOW, ThresholdReport, _geomspace,
                     threshold_report)
from .modes import (  # the benchmark resolves cvbell.mixtures.MixtureSpec
    MixtureSpec,
    _mixture_kind,
    _pure_curve,
    _pure_gain,
    _reference_curve,
    _reference_loss,
    _require_squeezing,
    mixture_correlations,
)
from .numerics import _bessel_excess_array, _i0e_array
from .phase_space import (LOG_PREFACTOR, TwoModePoint, _normal_mode_wigner,
                          wigner_pure_2mss)

__all__ = [
    "thermal_marginal",
    "werner_wigner",
    "phase_averaged_wigner",
    "mixture_wigner",
    "mixture_evaluator",
    "pure_bell_curve",
    "component_bell_curve",
    "mixture_bell_curve",
    "mixture_bell",
    "werner_violation_threshold",
]

def thermal_marginal(alpha, r: float):
    """Single-mode density left after tracing out the partner mode.

    A thermal state of mean occupation sinh(r)^2, so a Gaussian of
    width set by cosh(2r).  Accepts complex arrays.
    """
    c = math.cosh(2.0 * _require_squeezing(r))
    mag2 = np.abs(np.asarray(alpha)) ** 2
    out = (2.0 / (math.pi * c)) * np.exp(-2.0 * mag2 / c)
    return out if out.ndim else float(out)


def werner_wigner(point: TwoModePoint, spec: MixtureSpec):
    """Density of p (squeezed state) + (1 - p) (product of marginals).

    The product of the thermal marginals is the Gaussian with both
    variances cosh 2r, so h = cosh^2 2r, which is inf (and the product 0)
    where the square leaves the float range.
    """
    if spec.kind != "werner-thermal":
        raise ValueError(f"expected a werner-thermal spec, got {spec.kind!r}")
    c = math.cosh(2.0 * spec.r)
    product = _normal_mode_wigner(point, c, c, c * c)
    return spec.p * wigner_pure_2mss(point, spec.r) + (1.0 - spec.p) * product


def phase_averaged_wigner(point: TwoModePoint, r: float):
    """Density of the squeezed state after uniform phase diffusion.

    Depends only on the moduli: the cos of the summed phases averages
    into a Bessel I0, so the density is
    (4/pi^2) e^{-2c(|a1|^2 + |a2|^2)} I0(4s|a1||a2|) (c = cosh 2r,
    s = sinh 2r).  With c - s = e^{-2r} that is
    e^{-2c(|a1| - |a2|)^2 - 4 e^{-2r}|a1||a2|} times (4/pi^2) and the
    scaled e^-x I0(x) at x = 4s|a1||a2|: no exponent is formed as the
    difference of two large ones.  A term or an x past the float range
    is inf, and the density its limit, 0.
    """
    r = _require_squeezing(r)
    a1 = np.abs(np.asarray(point.alpha1))
    a2 = np.abs(np.asarray(point.alpha2))
    with np.errstate(over="ignore"):
        exponent = (LOG_PREFACTOR - 2.0 * math.cosh(2.0 * r) * (a1 - a2) ** 2
                    - 4.0 * math.exp(-2.0 * r) * a1 * a2)
        x = 4.0 * math.sinh(2.0 * r) * a1 * a2
    out = np.exp(exponent) * _i0e_array(x)
    return out if out.ndim else float(out)


def mixture_wigner(point: TwoModePoint, spec: MixtureSpec):
    """Density of the mixture named by ``spec`` at ``point``."""
    if spec.kind == "werner-thermal":
        return werner_wigner(point, spec)
    averaged = phase_averaged_wigner(point, spec.r)
    return spec.p * wigner_pure_2mss(point, spec.r) + (1.0 - spec.p) * averaged


def mixture_evaluator(spec: MixtureSpec) -> Callable[[TwoModePoint], float]:
    """Point evaluator for ``spec``, suitable for the Bell assembly."""
    return lambda point: mixture_wigner(point, spec)


# ----------------------------------------------------------------------
# closed component Bell curves
# ----------------------------------------------------------------------

def pure_bell_curve(J, r: float):
    """B(J) of the pure squeezed state (closed form).

    An exponent that overflows at a huge budget gives its limit, 0.
    """
    J = np.asarray(J, dtype=float)
    with np.errstate(over="ignore"):
        out = _pure_curve(J, math.cosh(2.0 * r), math.sinh(2.0 * r), np.exp)
    return out if out.ndim else float(out)


def component_bell_curve(J, r: float, kind: str):
    """B(J) of the p = 0 reference state of the given kind.

    Where cosh^2 2r leaves the float range (r above ~177) the product
    state's curve is 0, and an exponent that overflows at a huge budget
    gives its limit, 0.
    """
    J = np.asarray(J, dtype=float)
    with np.errstate(over="ignore"):
        out = _reference_curve(J, math.cosh(2.0 * r), math.sinh(2.0 * r),
                               kind, np.exp, _i0e_array)
    return out if out.ndim else float(out)


def mixture_bell_curve(spec: MixtureSpec, J):
    """B(J) of the mixture over an array of budgets (affine in p)."""
    return (spec.p * pure_bell_curve(J, spec.r)
            + (1.0 - spec.p) * component_bell_curve(J, spec.r, spec.kind))


def mixture_bell(spec: MixtureSpec, J: float) -> BellEvaluation:
    """Four-point Bell combination of the mixture at budget J.

    The correlations come from the numpy-free core,
    :func:`cvbell.modes.mixture_correlations`, which mixes those of the
    two components and cross-checks B against the affine combination of
    the closed component curves (``CrossCheckError`` beyond
    ``TOLERANCES.affine_mix_rel``).  The assembly from density
    evaluations, ``bell_combination(mixture_evaluator(spec), J)``, is
    the tests' oracle for it.
    """
    B, correlations = mixture_correlations(spec, J)
    return BellEvaluation(B=B, correlations=correlations,
                          settings=BellSettings(J=J))


# ----------------------------------------------------------------------
# violation threshold in p
# ----------------------------------------------------------------------

#: default budget grids of the thresholds, the float front end's grid,
#: built once and read-only
_DEFAULT_BUDGETS = {kind: np.array(_geomspace(low, 1.0, BUDGET_COUNT))
                    for kind, low in BUDGET_LOW.items()}
for _grid in _DEFAULT_BUDGETS.values():
    _grid.flags.writeable = False


def werner_violation_threshold(r: float,
                               kind: str = "werner-thermal") -> ThresholdReport:
    """Smallest weight p at which the mixture beats the Bell ceiling on
    the default budget grid.

    The grid has 200 geometric points from 1e-4 (from 1e-6 for the
    phase-diffused kind) to 1.  B is affine in p, so the mixture
    violates exactly when p > min R(J), R = loss / (gain + loss) over
    the live nodes, where gain = B_pure - 2 > 0, with loss = 2 - B_ref.
    The loss is formed at the live nodes only; there 4cJ < 1.2188
    (:func:`cvbell.modes._pure_gain`), so its Bessel series is short.
    The arrays locate the node of min R (the first node where none is
    live) and that of the largest gain, and
    :func:`cvbell.curves.threshold_report` evaluates the report there.

    Raises
    ------
    ValueError
        On an unknown kind or a bad r.
    """
    J = _DEFAULT_BUDGETS[_mixture_kind(kind)]
    r = _require_squeezing(r)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    with np.errstate(over="ignore"):  # 4 s J past the float range: inf
        gain = _pure_gain(J, c, s, np.exp, np.expm1)
    j_min = J[0]
    live = np.flatnonzero(gain > 0.0)
    if live.size:
        loss = _reference_loss(J[live], c, s, kind, np.expm1,
                               _bessel_excess_array)
        j_min = J[live[np.argmin(loss / (gain[live] + loss))]]
    return threshold_report(kind, r, float(j_min), float(J[np.argmax(gain)]))
