"""Time evolution of the noisy two-mode squeezing process.

The joint Wigner function obeys a linear Fokker-Planck equation with
drift A x and constant diffusion D over x = (Re a1, Im a1, Re a2, Im a2):

    A = [[-g/2, 0, k, 0], [0, -g/2, 0, -k],
         [k, 0, -g/2, 0], [0, -k, 0, -g/2]],
    D = (g/4) (2 nbar + 1) I,

where k is the two-mode coupling, g the damping rate and nbar the
reservoir occupation.  Starting from vacuum (Sigma = I/4) the density
stays Gaussian, and the second moments solve the Lyapunov equation
dSigma/dt = A Sigma + Sigma A^T + D.

Two independent routes to Sigma(t) are kept side by side on purpose:

* :func:`evolve_coefficients` carries the closed-form coefficient
  triple (c1, c2, h), written in terms of p1 = d + 2r entirely through
  the stabilised quotient (1 - e^-p)/p so the resonance line d = 2r is
  a removable singularity,
* :func:`covariance_ode_oracle` integrates the Lyapunov equation with
  brute-force RK4 and acts as the oracle the closed form is tested
  against.

A is symmetric and commutes with the swap generator, so the propagator
and the accumulated noise Q(t) are evaluated analytically in that
eigenbasis; :func:`propagate_green` uses them for arbitrary model
initial states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .modes import (
    SqueezedStateParams,
    _check_rates,
    _overflow,
    _require_finite,
    _where,
    steady_limit,
)
from .numerics import TOLERANCES, one_minus_exp_over, rk4_lyapunov
from .phase_space import GaussianForm, form_from_covariance_xvec

__all__ = [
    "SteadyStateReport",
    "drift_matrix",
    "diffusion_matrix",
    "drift_eigenvalues",
    "coefficient_arrays",
    "variance_arrays",
    "evolve_coefficients",
    "steady_state",
    "covariance_ode_oracle",
    "propagate_covariance",
    "propagate_green",
]

#: swap-like generator; A = -(g/2) I + k SWAP_SIGN and SWAP_SIGN^2 = I
SWAP_SIGN = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])
SWAP_SIGN.flags.writeable = False


def drift_matrix(gamma: float, kappa: float) -> np.ndarray:
    """Drift matrix A of the Fokker-Planck equation (symmetric)."""
    _check_rates(gamma, kappa)
    return -(gamma / 2.0) * np.eye(4) + kappa * SWAP_SIGN


def diffusion_matrix(gamma: float, nbar: float) -> np.ndarray:
    """Diffusion matrix D = (gamma/4)(2 nbar + 1) I."""
    _check_rates(gamma, 0.0, nbar)
    return (gamma / 4.0) * (2.0 * nbar + 1.0) * np.eye(4)


def drift_eigenvalues(gamma: float, kappa: float) -> np.ndarray:
    """Eigenvalues of A, ascending: -(g + 2k)/2 twice, -(g - 2k)/2 twice."""
    _check_rates(gamma, kappa)
    lo = -(gamma + 2.0 * kappa) / 2.0
    hi = -(gamma - 2.0 * kappa) / 2.0
    return np.array([lo, lo, hi, hi])


# ----------------------------------------------------------------------
# closed-form coefficients
# ----------------------------------------------------------------------

def _as_arrays(r, d, nbar) -> tuple:
    # three floats stay floats: numpy then gives float64 scalars from the
    # same operations, bit-identical to the array path
    if isinstance(r, float) and isinstance(d, float) and isinstance(nbar, float):
        return r, d, nbar
    return (np.asarray(r, dtype=float), np.asarray(d, dtype=float),
            np.asarray(nbar, dtype=float))


def coefficient_arrays(r, d, nbar):
    """Vectorised coefficient triple (c1, c2, h) for arrays of (r, d, nbar).

    Broadcasts its arguments; scalar inputs give scalar outputs.  This is
    the computational core of :func:`evolve_coefficients` and of the
    maximiser's scans at fixed J, kept array-valued so grids do not pay
    per-point overhead.  Three floats skip the array conversion and give
    float64 scalars: the operations are the same (``np.exp`` included,
    which can differ from ``math.exp`` in the last bit), so the values
    are bit-identical.
    """
    r, d, nbar = _as_arrays(r, d, nbar)
    p1 = d + 2.0 * r
    p2 = d - 2.0 * r
    e1 = one_minus_exp_over(p1)
    e2 = one_minus_exp_over(p2)
    q1 = np.exp(-p1)
    q2 = np.exp(-p2)
    occ = 2.0 * nbar + 1.0
    # 2d, not p1 + p2: for r >> d that sum rounds d by up to ulp(2r)
    c1 = 2.0 * (q2 + q1) + occ * (2.0 * d) * (e1 + e2)
    c2 = -2.0 * (q2 - q1) + occ * (2.0 * d) * (e1 - e2)
    h = (q1 + occ * d * e1) * (q2 + occ * d * e2)
    return c1, c2, h


def variance_arrays(r, d, nbar):
    """Vectorised normal-mode variances (s1, s2) for arrays of (r, d, nbar).

    s_i = e^-p_i + (2 nbar + 1) (d E(p_i)), in the order of
    :meth:`cvbell.modes.NormalModes.of`, which computes the same formula
    on floats.  Broadcasts its arguments; the factors that depend on
    (r, d) alone are computed on their own shape before the occupation
    broadcasts them.  Where e^{2r} overflows, s2 is inf.
    """
    r, d, nbar = _as_arrays(r, d, nbar)
    occ = 2.0 * nbar + 1.0
    p1 = d + 2.0 * r
    p2 = d - 2.0 * r
    s1 = occ * (d * one_minus_exp_over(p1)) + np.exp(-p1)
    s2 = occ * (d * one_minus_exp_over(p2)) + np.exp(-p2)
    return s1, s2


def evolve_coefficients(params: SqueezedStateParams) -> GaussianForm:
    """Exact Wigner coefficients of the state at reduced parameters.

    With p1 = d + 2r, p2 = d - 2r and E(p) = (1 - e^-p)/p:

        c1 = 2(e^-p2 + e^-p1) + (2 nbar + 1) 2d (E(p1) + E(p2))
        c2 = -2(e^-p2 - e^-p1) + (2 nbar + 1) 2d (E(p1) - E(p2))
        h  = prod_i [e^-pi + (2 nbar + 1) d E(pi)]

    At d = 0 this reduces to the pure squeezed vacuum
    (4 cosh 2r, -4 sinh 2r, 1); at r = d = 0 to the vacuum (4, 0, 1).
    A state whose coefficients leave the float range (e^{2r} at r above
    ~355) raises ``ValueError`` naming the parameters.
    """
    try:
        # e^{2r - d}, the largest factor: past the float range numpy would
        # warn before the check below raises
        math.exp(-params.p2)
    except OverflowError:
        raise _overflow(_where(params)) from None
    c1, c2, h = coefficient_arrays(params.r, params.d, params.nbar)
    if not (math.isfinite(c1) and math.isfinite(c2) and math.isfinite(h)):
        raise _overflow(_where(params))
    return GaussianForm(c1=float(c1), c2=float(c2), h=float(h))


# ----------------------------------------------------------------------
# steady state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyStateReport:
    """Long-time behaviour of the process at fixed rates.

    ``exists`` is true iff every drift eigenvalue is strictly negative,
    i.e. gamma > 2 kappa.  ``classification`` is one of
    "squeezed-thermal", "thermal", "none", "boundary-undefined";
    ``limit_form`` carries the limiting coefficients when a steady state
    exists and None otherwise.
    """

    exists: bool
    classification: str
    limit_form: GaussianForm | None


def steady_state(gamma: float, kappa: float, nbar: float = 0.0) -> SteadyStateReport:
    """Classify the t -> infinity limit of the process.

    For gamma > 2 kappa the coefficients converge to the squeezed
    thermal triple of the normal-mode variances
    s = (2 nbar + 1)/(1 +- q), q = 2 kappa / gamma
    (:func:`cvbell.modes.steady_limit`), i.e.

        c1 = 4 (2 nbar + 1) / (1 - q^2),  c2 = -q c1,
        h = (2 nbar + 1)^2 / (1 - q^2),

    which is thermal (c2 = 0, N = nbar) when kappa = 0.  On the
    boundary gamma = 2 kappa two drift eigenvalues vanish and no limit
    exists ("boundary-undefined"); for gamma < 2 kappa the squeezing
    wins and the moments grow without bound ("none").
    """
    kind, modes = steady_limit(gamma, kappa, nbar)
    if modes is None:
        return SteadyStateReport(exists=False, classification=kind,
                                 limit_form=None)
    form = GaussianForm(c1=modes.c1, c2=modes.c2, h=modes.h)
    return SteadyStateReport(exists=True, classification=kind, limit_form=form)


# ----------------------------------------------------------------------
# oracle and Green-function propagation
# ----------------------------------------------------------------------

def covariance_ode_oracle(kappa: float, gamma: float, nbar: float, t: float,
                          steps: int = 10000) -> np.ndarray:
    """Second moments Sigma(t) from vacuum by brute-force RK4.

    Oracle route: integrates the Lyapunov equation directly, with a
    step-halving self check.  The inverse of the result must match the
    precision matrix implied by :func:`evolve_coefficients`.

    Raises
    ------
    ConvergenceError
        If halving the step count moves the answer by more than
        ``TOLERANCES.ode_selfcheck_abs`` (the step count is too small
        for the requested parameters).
    """
    _check_rates(gamma, kappa, nbar)
    if _require_finite("t", t) < 0:
        raise ValueError("t must be nonnegative")
    if steps < 1000:
        raise ValueError("oracle needs at least 1000 steps")
    A = drift_matrix(gamma, kappa)
    D = diffusion_matrix(gamma, nbar)
    sigma0 = np.eye(4) / 4.0
    full = rk4_lyapunov(A, D, sigma0, t, steps)
    half = rk4_lyapunov(A, D, sigma0, t, steps // 2)
    drift_err = float(np.max(np.abs(full - half)))
    if drift_err > TOLERANCES.ode_selfcheck_abs:
        raise ConvergenceError(
            f"covariance oracle not converged: step-halving moved the "
            f"result by {drift_err:.3e} (> {TOLERANCES.ode_selfcheck_abs:.0e}); "
            f"increase steps")
    return full


def _propagator(gamma: float, kappa: float, t: float) -> np.ndarray:
    # exp(A t) = e^{-g t/2} [cosh(k t) I + sinh(k t) SWAP_SIGN]
    return math.exp(-gamma * t / 2.0) * (
        math.cosh(kappa * t) * np.eye(4) + math.sinh(kappa * t) * SWAP_SIGN)


def _accumulated_noise(gamma: float, kappa: float, nbar: float,
                       t: float) -> np.ndarray:
    # Q(t) = int_0^t e^{A s} D e^{A^T s} ds, evaluated in the eigenbasis
    # of SWAP_SIGN where the integrand splits into scalar exponentials
    d = gamma * t
    p1 = d + 2.0 * kappa * t
    p2 = d - 2.0 * kappa * t
    e1 = float(one_minus_exp_over(p1))
    e2 = float(one_minus_exp_over(p2))
    occ = 2.0 * nbar + 1.0
    return (d * occ / 8.0) * ((e1 + e2) * np.eye(4) + (e2 - e1) * SWAP_SIGN)


def propagate_covariance(sigma0: np.ndarray, kappa: float, gamma: float,
                         t: float, nbar: float = 0.0) -> np.ndarray:
    """Sigma(t) = e^{At} Sigma(0) e^{A^T t} + Q(t) for any initial
    second-moment matrix."""
    _check_rates(gamma, kappa, nbar)
    if _require_finite("t", t) < 0:
        raise ValueError("t must be nonnegative")
    s0 = np.asarray(sigma0, dtype=float)
    if s0.shape != (4, 4):
        raise ValueError("expected a 4x4 covariance matrix")
    prop = _propagator(gamma, kappa, t)
    out = prop @ s0 @ prop.T + _accumulated_noise(gamma, kappa, nbar, t)
    return 0.5 * (out + out.T)


def propagate_green(sigma0: np.ndarray, kappa: float, gamma: float,
                    t: float, nbar: float = 0.0) -> GaussianForm:
    """Propagate a model initial state and return its coefficient triple.

    Applies :func:`propagate_covariance` and converts back through the
    correlation-structure check; with the vacuum initial condition the
    result equals :func:`evolve_coefficients`, and a thermal input at
    kappa = 0 is a fixed point.
    """
    return form_from_covariance_xvec(
        propagate_covariance(sigma0, kappa, gamma, t, nbar))
