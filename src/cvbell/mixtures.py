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
The evaluators here feed the four-point assembly directly; closed
component curves are kept alongside for fast threshold scans, and the
assembly cross-checks the affine identity on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import BellEvaluation, bell_combination
from .errors import ConvergenceError, CrossCheckError
from .numerics import TOLERANCES, bessel_i0_log, periodic_trapezoid
from .phase_space import LOG_PREFACTOR, TwoModePoint, wigner_pure_2mss

__all__ = [
    "MIXTURE_KINDS",
    "MixtureSpec",
    "ThresholdReport",
    "thermal_marginal",
    "werner_wigner",
    "phase_averaged_wigner",
    "mixture_wigner",
    "mixture_evaluator",
    "phase_average_quadrature_oracle",
    "pure_bell_curve",
    "component_bell_curve",
    "mixture_bell_curve",
    "mixture_bell",
    "werner_violation_threshold",
    "finite_dim_werner_threshold",
]

MIXTURE_KINDS = ("werner-thermal", "phase-diffused")


@dataclass(frozen=True)
class MixtureSpec:
    """Weight p of the squeezed component, squeezing r, mixture kind."""

    p: float
    r: float
    kind: str = "werner-thermal"

    def __post_init__(self):
        p, r = float(self.p), float(self.r)
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.p!r}")
        if not math.isfinite(r) or r < 0:
            raise ValueError(f"squeezing must be nonnegative, got {self.r!r}")
        if self.kind not in MIXTURE_KINDS:
            raise ValueError(f"unknown mixture kind {self.kind!r}; "
                             f"expected one of {MIXTURE_KINDS}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)


def thermal_marginal(alpha, r: float):
    """Single-mode density left after tracing out the partner mode.

    A thermal state of mean occupation sinh(r)^2, so a Gaussian of
    width set by cosh(2r).  Accepts complex arrays.
    """
    if r < 0 or not math.isfinite(float(r)):
        raise ValueError(f"squeezing must be nonnegative, got {r!r}")
    c = math.cosh(2.0 * r)
    mag2 = np.abs(np.asarray(alpha)) ** 2
    out = (2.0 / (math.pi * c)) * np.exp(-2.0 * mag2 / c)
    return out if out.ndim else float(out)


def werner_wigner(point: TwoModePoint, spec: MixtureSpec):
    """Density of p (squeezed state) + (1 - p) (product of marginals)."""
    if spec.kind != "werner-thermal":
        raise ValueError(f"expected a werner-thermal spec, got {spec.kind!r}")
    product = thermal_marginal(point.alpha1, spec.r) * thermal_marginal(
        point.alpha2, spec.r)
    return spec.p * wigner_pure_2mss(point, spec.r) + (1.0 - spec.p) * product


def phase_averaged_wigner(point: TwoModePoint, r: float):
    """Density of the squeezed state after uniform phase diffusion.

    Depends only on the moduli: the cos of the summed phases averages
    into a Bessel I0.  Evaluated in log space so that huge Bessel
    arguments and tiny envelopes cancel instead of overflowing.
    """
    if r < 0 or not math.isfinite(float(r)):
        raise ValueError(f"squeezing must be nonnegative, got {r!r}")
    a1 = np.abs(np.asarray(point.alpha1))
    a2 = np.abs(np.asarray(point.alpha2))
    log_w = (LOG_PREFACTOR
             - 2.0 * math.cosh(2.0 * r) * (a1 ** 2 + a2 ** 2)
             + bessel_i0_log(4.0 * math.sinh(2.0 * r) * a1 * a2))
    out = np.exp(log_w)
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


def phase_average_quadrature_oracle(a1: float, a2: float, r: float,
                                    nodes: int = 128) -> float:
    """Phase-diffused density by brute-force double phase average.

    Trapezoid over both arm phases of the pure density at moduli
    (a1, a2); periodic smooth integrand, so convergence is spectral.
    A node-doubled pass must agree to ``TOLERANCES.phase_average_abs``
    or the routine refuses the answer.
    """
    if nodes < 8:
        raise ValueError("need at least 8 phase nodes")

    def averaged(n: int) -> float:
        rule = periodic_trapezoid(n)
        phi1 = rule.nodes[:, None]
        phi2 = rule.nodes[None, :]
        vals = wigner_pure_2mss(
            TwoModePoint(a1 * np.exp(1j * phi1), a2 * np.exp(1j * phi2)), r)
        w = rule.weights
        return float(w @ vals @ w) / (2.0 * math.pi) ** 2

    coarse, fine = averaged(nodes), averaged(2 * nodes)
    if abs(fine - coarse) > TOLERANCES.phase_average_abs:
        raise ConvergenceError(
            f"phase average not settled: {nodes} vs {2 * nodes} nodes "
            f"differ by {abs(fine - coarse):.3e}")
    return fine


# ----------------------------------------------------------------------
# closed component Bell curves
# ----------------------------------------------------------------------

def pure_bell_curve(J, r: float):
    """B(J) of the pure squeezed state (closed form)."""
    J = np.asarray(J, dtype=float)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    out = 1.0 + 2.0 * np.exp(-2.0 * c * J) - np.exp(-4.0 * (c + s) * J)
    return out if out.ndim else float(out)


def component_bell_curve(J, r: float, kind: str):
    """B(J) of the p = 0 reference state of the given kind."""
    J = np.asarray(J, dtype=float)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    if kind == "werner-thermal":
        out = (1.0 + 2.0 * np.exp(-2.0 * J / c) - np.exp(-4.0 * J / c)) / c ** 2
    elif kind == "phase-diffused":
        out = (1.0 + 2.0 * np.exp(-2.0 * c * J)
               - np.exp(bessel_i0_log(4.0 * s * J) - 4.0 * c * J))
    else:
        raise ValueError(f"unknown mixture kind {kind!r}")
    return out if out.ndim else float(out)


def mixture_bell_curve(spec: MixtureSpec, J):
    """B(J) of the mixture over an array of budgets (affine in p)."""
    return (spec.p * pure_bell_curve(J, spec.r)
            + (1.0 - spec.p) * component_bell_curve(J, spec.r, spec.kind))


def mixture_bell(spec: MixtureSpec, J: float) -> BellEvaluation:
    """Four-point Bell combination of the mixture at budget J.

    Assembled from density evaluations, then cross-checked against the
    affine combination of the closed component curves; disagreement
    beyond ``TOLERANCES.affine_mix_rel`` raises ``CrossCheckError``.
    """
    label = f"{spec.kind} p={spec.p:g} r={spec.r:g}"
    evaluation = bell_combination(mixture_evaluator(spec), J, label)
    affine = float(mixture_bell_curve(spec, float(J)))
    scale = max(abs(affine), 1.0)
    if abs(evaluation.B - affine) > TOLERANCES.affine_mix_rel * scale:
        raise CrossCheckError(
            f"assembled Bell value {evaluation.B!r} disagrees with affine "
            f"component combination {affine!r} for {label}")
    return evaluation


# ----------------------------------------------------------------------
# violation threshold in p
# ----------------------------------------------------------------------

@dataclass(frozen=True)
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


def _budget_grid(low: float) -> np.ndarray:
    grid = np.geomspace(low, 1.0, 200)
    grid.flags.writeable = False
    return grid


#: default budget grids of the threshold search, built once; the
#: phase-diffused one reaches down to 1e-6 because its threshold sits at
#: vanishing weight
_DEFAULT_BUDGETS = {"werner-thermal": _budget_grid(1e-4),
                    "phase-diffused": _budget_grid(1e-6)}


def werner_violation_threshold(r: float, J_grid=None,
                               kind: str = "werner-thermal",
                               p_tol: float | None = None) -> ThresholdReport:
    """Bisect for the weight p at which the Bell ceiling is first beaten.

    The violation predicate maxes B(p, J) over a fixed budget grid
    (default: 200 geometric points; the phase-diffused default reaches
    down to 1e-6 because its threshold sits at vanishing weight).  The
    reference states never violate, and B is affine in p, so the
    predicate is monotone and bisection to ``p_tol`` (default
    ``TOLERANCES.threshold_p_abs``) is exact bookkeeping.
    """
    if kind not in MIXTURE_KINDS:
        raise ValueError(f"unknown mixture kind {kind!r}")
    if r < 0 or not math.isfinite(float(r)):
        raise ValueError(f"squeezing must be nonnegative, got {r!r}")
    if p_tol is None:
        p_tol = TOLERANCES.threshold_p_abs
    if J_grid is None:
        J_grid = _DEFAULT_BUDGETS[kind]
    else:
        J_grid = np.asarray(J_grid, dtype=float)
        if J_grid.ndim != 1 or J_grid.size == 0 or np.any(J_grid <= 0):
            raise ValueError("budget grid must be 1-D with positive entries")

    b_pure = pure_bell_curve(J_grid, r)
    b_ref = component_bell_curve(J_grid, r, kind)

    def best_b(p: float) -> float:
        return float((p * b_pure + (1.0 - p) * b_ref).max())

    top = best_b(1.0)
    if not top > 2.0:
        return ThresholdReport(kind=kind, r=float(r), p_star=None,
                               violated_at_unit_weight=False,
                               best_b_at_unit_weight=top)
    lo, hi = 0.0, 1.0  # no violation at lo, violation at hi
    while hi - lo > p_tol:
        mid = 0.5 * (lo + hi)
        if best_b(mid) > 2.0:
            hi = mid
        else:
            lo = mid
    return ThresholdReport(kind=kind, r=float(r), p_star=0.5 * (lo + hi),
                           violated_at_unit_weight=True,
                           best_b_at_unit_weight=top)


def finite_dim_werner_threshold(dim: int) -> float:
    """Weight threshold 1 / (1 + dim) of the finite-dimensional analogue.

    Shrinks as the local dimension grows; the continuous-variable
    families above sit at the dim -> infinity edge of the comparison.
    """
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise ValueError("dimension must be an integer")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    return 1.0 / (1.0 + dim)
