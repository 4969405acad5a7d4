"""Purity and separability analysis of the evolved states.

Purity is read off the normal-mode variances: the purity of a state
is 1/h with h = s1 s2, so the state is pure exactly when h = 1
(:attr:`cvbell.modes.NormalModes.pure`).

Separability of a two-mode Gaussian state with correlation matrix V is
equivalent to V - I/2 >= 0.  Every state of the family factorises in
the frame of its two normal modes, with variances

    s_i = e^-p_i + (2 nbar + 1) d E(p_i),   p1 = d + 2r,  p2 = d - 2r,

and E(p) = (1 - e^-p)/p, so the spectrum of V - I/2 is the doubly
degenerate pair (s_i - 1)/2 and the separability margin is
(min(s1, s2) - 1)/2 (the Simon PPT criterion in that frame).  Both the
single-point report :func:`separability_eigenvalues` (through
:class:`cvbell.modes.NormalModes`, without numpy) and the grid scan
:func:`separability_map` (through
:func:`cvbell.dynamics.variance_arrays`) take the spectrum from the
normal modes, and both check it against the closed-form pair

    e_large = E(p2) (d nbar + r),   e_small = E(p1) (d nbar - r),

whose sign reproduces the separability law "separable iff r <= d nbar".
The routes must agree to ``TOLERANCES.route_agreement`` times
1 + min(s1, s2) for the margin, because both are the size of the
smaller variance and round like it; disagreement (or a NaN) raises
:class:`~cvbell.errors.CrossCheckError` instead of returning a silently
wrong verdict.  States with margin exactly on the boundary count as
separable (the criterion is a non-strict inequality).  The 4x4
W -> V pipeline of :mod:`cvbell.phase_space` stays as an independent
route that tests compare the normal modes with.
"""

from __future__ import annotations

import numpy as np

from ._record import frozen_record
from .dynamics import chunked_rows, scan_inputs, variance_arrays
from .errors import CrossCheckError
from .modes import NormalModes, SqueezedStateParams, separability_closed_pair
from .numerics import one_minus_exp_over
from .tolerances import TOLERANCES

__all__ = [
    "PurityReport",
    "SeparabilityReport",
    "SeparabilityMap",
    "is_pure",
    "separability_eigenvalues",
    "separability_map",
]


@frozen_record
class PurityReport:
    """Verdict plus the relative defect |1 - h| / h."""

    pure: bool
    residual: float


def is_pure(form: NormalModes) -> PurityReport:
    """Decide purity of a state: :attr:`NormalModes.pure` and the
    residual :attr:`NormalModes.purity_residual` it is read from."""
    return PurityReport(pure=form.pure, residual=form.purity_residual)


@frozen_record
class SeparabilityReport:
    """Spectral separability verdict for one parameter point.

    ``eigenvalues`` are the four eigenvalues of V - I/2 ascending (the
    doubly degenerate pair {e_small, e_small, e_large, e_large});
    ``margin`` is the smallest one; ``closed_pair`` carries the
    closed-form (e_large, e_small) cross-check values.
    """

    eigenvalues: np.ndarray
    separable: bool
    margin: float
    closed_pair: tuple


def separability_eigenvalues(params: SqueezedStateParams) -> SeparabilityReport:
    """Separability analysis at one parameter point.

    The spectrum is the doubly degenerate pair (s_i - 1)/2 of the
    normal-mode variances, which :meth:`NormalModes.of` checks against
    the closed pair (a gap beyond ``TOLERANCES.route_agreement`` times
    1 + s_i raises :class:`CrossCheckError`).  A state whose variances
    overflow the float range raises ``ValueError``.
    """
    modes = NormalModes.of(params)
    e_small, e_large = modes.pair
    return SeparabilityReport(
        eigenvalues=np.array([e_small, e_small, e_large, e_large]),
        separable=modes.separable,
        margin=modes.margin,
        closed_pair=separability_closed_pair(params),
    )


@frozen_record
class SeparabilityMap:
    """Separability verdicts over a (d, nbar) grid at fixed r.

    ``separable[i, j]`` refers to (d_grid[i], nbar_grid[j]);
    ``boundary_nbar[i]`` is the smallest grid nbar that is separable at
    d_grid[i] (NaN when the whole row is nonseparable).  The underlying
    law puts the boundary at nbar = r / d.
    """

    r: float
    d_grid: np.ndarray
    nbar_grid: np.ndarray
    separable: np.ndarray
    margin: np.ndarray
    boundary_nbar: np.ndarray


def _margin_rows(r: float, d_grid: np.ndarray, nbar_grid: np.ndarray,
                 lo: int, hi: int) -> np.ndarray:
    d = d_grid[lo:hi, None]
    nbar = nbar_grid[None, :]
    s1, s2 = variance_arrays(r, d, nbar)
    margin = np.minimum(s1, s2, out=s1)
    # both routes are min(s1, s2)-sized and round like it, so the tolerance
    # scales with the smaller variance; the larger one (up to e^{4r}) would
    # loosen it exactly where the verdict is decided
    scale = margin + 1.0
    margin -= 1.0
    margin *= 0.5
    # paired closed-form route must agree everywhere before we trust it;
    # a NaN gap fails the comparison and raises as well.  Its E(p_i)
    # depend on d alone, so they are taken on the d column
    dn = d * nbar
    e_small = dn - r
    e_small *= one_minus_exp_over(d + 2.0 * r)
    e_large = np.add(dn, r, out=dn)
    e_large *= one_minus_exp_over(d - 2.0 * r)
    dev = np.minimum(e_small, e_large, out=e_small)
    dev -= margin
    gap = np.abs(dev, out=dev)
    if not np.all(gap <= TOLERANCES.route_agreement * scale):
        worst = float(np.max(gap / scale))
        raise CrossCheckError(
            f"separability routes disagree by {worst:.3e} relative to "
            f"1 + min(s1, s2) (tolerance {TOLERANCES.route_agreement:.0e}) "
            f"on the scan grid")
    return margin


def separability_map(r: float, d_grid, nbar_grid,
                     workers: int | None = None) -> SeparabilityMap:
    """Classify separability over a (d, nbar) grid at fixed r.

    The arguments are checked as :func:`cvbell.bell.bell_surface`'s
    (:func:`cvbell.dynamics.scan_inputs`).  The margin
    (min(s1, s2) - 1)/2 comes from the normal-mode variances of
    :func:`cvbell.dynamics.variance_arrays`, with the closed-form pair
    asserted against it cell by cell; rows run in
    cache-sized blocks.  ``workers`` is accepted for compatibility and
    ignored.
    """
    r, d_grid, nbar_grid = scan_inputs(r, None, d_grid=d_grid,
                                       nbar_grid=nbar_grid)

    margin = chunked_rows(
        lambda lo, hi: _margin_rows(r, d_grid, nbar_grid, lo, hi),
        len(d_grid), len(nbar_grid))
    separable = margin >= TOLERANCES.boundary_margin
    boundary = np.where(separable.any(axis=1),
                        nbar_grid[separable.argmax(axis=1)], np.nan)
    return SeparabilityMap(r=r, d_grid=d_grid, nbar_grid=nbar_grid,
                           separable=separable, margin=margin,
                           boundary_nbar=boundary)
