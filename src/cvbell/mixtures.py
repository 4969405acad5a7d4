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
component curves are kept alongside, and each single Bell value
cross-checks the affine identity.  The same affinity gives the
violation threshold on a budget grid in one vector pass: the mixture
violates exactly when p > (2 - B_ref) / (B_pure - B_ref) at some node.
Both components of the Werner-type mixture are Gaussian, so its single
Bell values come from the numpy-free normal-mode core
(:func:`cvbell.modes.werner_bell`), where ``MixtureSpec`` and the
finite-dimensional threshold live too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import BellEvaluation, BellSettings, bell_combination
from .errors import ConvergenceError, CrossCheckError
from .modes import (
    MIXTURE_KINDS,
    MixtureSpec,
    _require_squeezing,
    _square,
    finite_dim_werner_threshold,
    werner_bell,
)
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
    """B(J) of the p = 0 reference state of the given kind.

    Where cosh^2 2r leaves the float range (r above ~177) the product
    state's curve is 0.
    """
    J = np.asarray(J, dtype=float)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    if kind == "werner-thermal":
        out = ((1.0 + 2.0 * np.exp(-2.0 * J / c) - np.exp(-4.0 * J / c))
               / _square(c))
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

    The Werner-type mixture is Gaussian in each component and comes
    from :func:`cvbell.modes.werner_bell`.  The phase-diffused one is
    assembled from density evaluations.  Either way B is cross-checked
    against the affine combination of the closed component curves;
    disagreement beyond ``TOLERANCES.affine_mix_rel`` raises
    ``CrossCheckError``.
    """
    label = f"{spec.kind} p={spec.p:g} r={spec.r:g}"
    if spec.kind == "werner-thermal":
        B, correlations = werner_bell(spec, J)
        return BellEvaluation(B=B, correlations=correlations,
                              settings=BellSettings(J=J), state_label=label)
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


#: smallest accepted ``p_tol``: the bisection lattice 2^-n and its cell
#: midpoints stay exact doubles in [0, 1] for n <= 52
_MIN_P_TOL = 2.0 ** -52


def werner_violation_threshold(r: float, J_grid=None,
                               kind: str = "werner-thermal",
                               p_tol: float | None = None) -> ThresholdReport:
    """Weight p at which the Bell ceiling is first beaten, to ``p_tol``.

    The violation predicate maxes B(p, J) over a fixed budget grid
    (default: 200 geometric points; the phase-diffused default reaches
    down to 1e-6 because its threshold sits at vanishing weight).  The
    reference states never violate, and B is affine in p, so the
    predicate is monotone in p.  ``p_star`` is the value that bisection
    of [0, 1] down to a width of at most ``p_tol`` (default
    ``TOLERANCES.threshold_p_abs``) returns: the midpoint of the cell
    [k w, (k + 1) w], w = 2^-n, whose ends the predicate separates.

    That cell is found without bisecting [0, 1].  On the grid the
    predicate is p > min R(J), R = (2 - B_ref) / (B_pure - B_ref) over
    the nodes where B_pure > B_ref, so the guess is k = floor(min R / w).
    The predicate itself is then evaluated at the cell's two ends; where
    it disagrees with the guess (rounding near B = 2), the bracket grows
    outwards by doubling steps and is bisected on the lattice.

    Raises
    ------
    ValueError
        On an unknown kind, a bad r, a grid that is not 1-D with finite
        positive entries, or a ``p_tol`` that is not a finite number of
        at least 2^-52 (below that, bisection never gets narrower).
    """
    if kind not in MIXTURE_KINDS:
        raise ValueError(f"unknown mixture kind {kind!r}")
    _require_squeezing(r)
    if p_tol is None:
        p_tol = TOLERANCES.threshold_p_abs
    elif not (math.isfinite(p_tol) and p_tol >= _MIN_P_TOL):
        raise ValueError(f"p_tol must be a finite number of at least 2**-52, "
                         f"got {p_tol!r}")
    if J_grid is None:
        J_grid = _DEFAULT_BUDGETS[kind]
    else:
        J_grid = np.asarray(J_grid, dtype=float)
        if (J_grid.ndim != 1 or J_grid.size == 0
                or not np.all(np.isfinite(J_grid) & (J_grid > 0))):
            raise ValueError("budget grid must be 1-D with finite positive "
                             "entries")

    b_pure = pure_bell_curve(J_grid, r)
    b_ref = component_bell_curve(J_grid, r, kind)

    def best_b(p: float) -> float:
        return float((p * b_pure + (1.0 - p) * b_ref).max())

    top = best_b(1.0)
    if not top > 2.0:
        return ThresholdReport(kind=kind, r=float(r), p_star=None,
                               violated_at_unit_weight=False,
                               best_b_at_unit_weight=top)
    # bisection halves [0, 1] n times, down to the first width w <= p_tol
    n = max(0, 1 - math.frexp(p_tol)[1])
    w = math.ldexp(1.0, -n)
    cells = 1 << n
    gain = b_pure - b_ref
    up = gain > 0.0
    p_grid = float(np.min((2.0 - b_ref[up]) / gain[up], initial=1.0))

    def violates(j: int) -> bool:
        # at lattice point j w; bisection never evaluates p = 0, and
        # p = 1 is ``top``
        return j > 0 and (j == cells or best_b(j * w) > 2.0)

    # lo and hi bracket the first violating lattice point.  Rounding
    # near B = 2 can move the predicate's switch away from min R, by
    # many cells when p_tol is tiny, so a wrong guess gallops outwards
    # and the bracket is then bisected on the lattice.
    lo = min(max(int(p_grid / w), 0), cells - 1)
    hi = lo + 1
    stride = 1
    while violates(lo):
        lo, hi = max(lo - stride, 0), lo
        stride *= 2
    stride = 1
    while not violates(hi):
        lo, hi = hi, min(hi + stride, cells)
        stride *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdReport(kind=kind, r=float(r), p_star=(lo + 0.5) * w,
                           violated_at_unit_weight=True,
                           best_b_at_unit_weight=top)
