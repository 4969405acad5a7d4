"""Phase-space representation of the damped two-mode squeezed family.

A two-mode Gaussian state is handled in two coordinate systems:

* the complex point (a1, a2), at which the Wigner densities are
  evaluated,
* the analytic vector (a1, a1*, a2, a2*), used for the W and V matrices,
  an independent 4x4 route to the spectrum and to (N, M) that the
  normal-mode core of :mod:`cvbell.modes` is tested against.  The
  real-coordinate moment matrices live in the test suite's oracles.

Every state of the family has a Wigner function

    W(a1, a2) = (2/pi)^2 (1/h) exp{ -[c1 (|a1|^2 + |a2|^2)
                                     + c2 (a1 a2 + a1* a2*)] / (2h) }

with c1 = 2(s1 + s2), c2 = 2(s1 - s2) and h = s1 s2 read off the
normal-mode variances of :class:`cvbell.modes.NormalModes`, the one
state type of the package; the ideal two-mode squeezed vacuum is
(s1, s2) = (e^-2r, e^2r), i.e. h = 1, c1 = 4 cosh 2r and
c2 = -4 sinh 2r.  The densities are evaluated in the normal-mode frame,
as (2/pi)^2 (1/h) exp(-|a1 + a2*|^2/s2 - |a1 - a2*|^2/s1): the exponent
is a sum of two nonpositive terms, which keeps its digits along the
squeezed axis at any r, and extreme squeezing underflows to zero
instead of corrupting intermediate results.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import frozen_record
from .modes import (  # the benchmark resolves phase_space.SqueezedStateParams
    NormalModes,
    SqueezedStateParams,
    _require_squeezing,
)
from .numerics import _cross_pattern, sym4_eigenvalues
from .tolerances import TOLERANCES

__all__ = [
    "PARITY_SIGNATURE",
    "TwoModePoint",
    "CovarianceMatrix",
    "wigner_pure_2mss",
    "wigner_gaussian_eval",
    "w_matrix_from_form",
    "v_from_w",
    "nm_from_v",
]

LOG_PREFACTOR = math.log(4.0 / math.pi ** 2)

#: parity signature E = diag(1, -1, 1, -1) acting on (a1, a1*, a2, a2*)
PARITY_SIGNATURE = np.diag([1.0, -1.0, 1.0, -1.0])
PARITY_SIGNATURE.flags.writeable = False


@frozen_record
class TwoModePoint:
    """A point (a1, a2) of two-mode phase space.

    Fields may be complex scalars or equal-shaped complex arrays; all
    evaluators broadcast over array-valued points.
    """

    alpha1: complex
    alpha2: complex


@frozen_record
class CovarianceMatrix:
    """A symmetric 4x4 matrix in the analytic (a1, a1*, a2, a2*) ordering.

    ``convention`` is "W" for the Wigner precision-style matrix or "V"
    for the normalised correlation matrix W / sqrt(det W).
    """

    entries: np.ndarray
    convention: str

    def __post_init__(self):
        m = np.array(self.entries, dtype=float, copy=True)
        if m.shape != (4, 4):
            raise ValueError("expected a 4x4 matrix")
        if np.max(np.abs(m - m.T)) > TOLERANCES.symmetry_abs * max(1.0, np.max(np.abs(m))):
            raise ValueError("covariance matrix must be symmetric")
        if self.convention not in ("W", "V"):
            raise ValueError(f"unknown convention {self.convention!r}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


# ----------------------------------------------------------------------
# Wigner evaluators
# ----------------------------------------------------------------------

def _normal_mode_wigner(point: TwoModePoint, s1: float, s2: float, h: float):
    """(2/pi)^2 (1/h) exp(-U/s2 - V/s1) with U = |a1 + a2*|^2 and
    V = |a1 - a2*|^2.

    The two terms are (s1 + s2)(|a1|^2 + |a2|^2) + (s1 - s2)(a1 a2 + c.c.)
    over h regrouped in the normal-mode frame: both are nonnegative, so
    nothing cancels along the squeezed axis, where each of the two grows
    like e^{2r} |a|^2.  Each is squared after its division by sqrt(s),
    so U/s2 stays finite where U does not; a term past the float range
    is inf, and W its limit, 0, as it is where h is inf.
    """
    a1 = np.asarray(point.alpha1)
    a2 = np.conj(np.asarray(point.alpha2))
    with np.errstate(over="ignore"):
        exponent = (LOG_PREFACTOR - (np.abs(a1 + a2) / math.sqrt(s2)) ** 2
                    - (np.abs(a1 - a2) / math.sqrt(s1)) ** 2)
    w = np.exp(exponent) / h
    return w if np.ndim(w) else float(w)


def wigner_pure_2mss(point: TwoModePoint, r: float):
    """Wigner density of the ideal two-mode squeezed vacuum.

    W(a1, a2) = (2/pi)^2 exp[-2 cosh(2r)(|a1|^2 + |a2|^2)
                             + 2 sinh(2r)(a1 a2 + a1* a2*)],

    evaluated as the Gaussian of variances (e^-2r, e^2r) and h = 1.
    Strictly positive where the exponent stays in the float range,
    bounded by (2/pi)^2, and invariant under joint conjugation of both
    arguments and under mode swap.
    """
    r = _require_squeezing(r)
    return _normal_mode_wigner(point, math.exp(-2.0 * r), math.exp(2.0 * r),
                               1.0)


def wigner_gaussian_eval(point: TwoModePoint, form: NormalModes):
    """Wigner density of a state at a phase-space point.

    W = (2/pi)^2 (1/h) exp{-[c1 (|a1|^2 + |a2|^2)
                             + c2 (a1 a2 + a1* a2*)] / (2h)}
      = (2/pi)^2 (1/h) exp(-|a1 + a2*|^2/s2 - |a1 - a2*|^2/s1)
    """
    return _normal_mode_wigner(point, form.s1, form.s2, form.h)


# ----------------------------------------------------------------------
# W and V matrices
# ----------------------------------------------------------------------

def w_matrix_from_form(form: NormalModes) -> CovarianceMatrix:
    """Quadratic-form matrix W of the Wigner exponent, analytic ordering.

    W = (1/2h) [[c1, 0, 0, c2], [0, c1, c2, 0],
                [0, c2, c1, 0], [c2, 0, 0, c1]]

    so that W(a) = (sqrt(det W)/pi^2) exp(-a^dagger W a / 2) with
    a = (a1, a1*, a2, a2*).  Positive definite for every state.
    """
    pattern, _ = _cross_pattern(form.c1, form.c2)
    return CovarianceMatrix(entries=pattern / (2.0 * form.h), convention="W")


def v_from_w(w: CovarianceMatrix) -> CovarianceMatrix:
    """Normalised correlation matrix V = W / sqrt(det W).

    Checks that the input is positive definite and that the parity
    conjugation identity W = E V^-1 E holds to
    ``TOLERANCES.conjugation_abs`` (it does for every state of this
    family; violation signals an input outside the model).
    """
    if w.convention != "W":
        raise ValueError("expected a W-convention matrix")
    m = w.entries
    eigs = sym4_eigenvalues(m)
    if eigs[0] <= 0.0:
        raise ValueError("W matrix must be positive definite")
    det = float(np.linalg.det(m))
    v = m / math.sqrt(det)
    back = PARITY_SIGNATURE @ np.linalg.inv(v) @ PARITY_SIGNATURE
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(back - m)) > TOLERANCES.conjugation_abs * scale:
        raise ValueError("parity conjugation identity violated; "
                         "input is not a state of this model family")
    return CovarianceMatrix(entries=v, convention="V")


def nm_from_v(v: CovarianceMatrix):
    """Photon-number and cross-correlation parameters (N, M) of V.

    Requires the doubly degenerate structure
    [[N+1/2, 0, 0, M], [0, N+1/2, M, 0], [0, M, N+1/2, 0],
     [M, 0, 0, N+1/2]] within ``TOLERANCES.pattern_abs``; then
    N = V[0,0] - 1/2 and M = V[0,3].  N >= 0 for physical states.
    """
    if v.convention != "V":
        raise ValueError("expected a V-convention matrix")
    m = v.entries
    a, b = m[0, 0], m[0, 3]
    _, defect = _cross_pattern(a, b, m)
    if defect > TOLERANCES.pattern_abs:
        raise ValueError(
            f"V matrix does not have the doubly degenerate structure "
            f"(defect {defect:.3e})")
    return float(a - 0.5), float(b)
