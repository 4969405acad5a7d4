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
:func:`separability_map` take the spectrum from the normal modes, and
both check it against the closed-form pair

    e_large = E(p2) (d nbar + r),   e_small = E(p1) (d nbar - r),

formed as (E(p) d) nbar +- E(p) r, which stays finite where d nbar
overflows.  The map forms only the smaller variance and the smaller
root wherever rounding keeps them the smaller.  The routes must agree to
``TOLERANCES.route_agreement`` times 1 + min(s1, s2) for the margin,
because both are the size of the smaller variance and round like it;
disagreement (or a NaN) raises
:class:`~cvbell.errors.CrossCheckError` instead of returning a silently
wrong margin.  The sign of e_small is the separability law, "separable
iff r <= d nbar" (the criterion is a non-strict inequality), and both
the point report and the map take the verdict from the law itself,
:func:`cvbell.modes._separable` of the inputs: a margin within rounding
of 0, as for a pure state at tiny r, has no reliable sign.  The 4x4
W -> V pipeline of :mod:`cvbell.phase_space` stays as an independent
route that tests compare the normal modes with.
"""

from __future__ import annotations

import numpy as np

from ._record import frozen_record
from .dynamics import row_blocks, scan_inputs
from .errors import CrossCheckError
from .modes import (
    NormalModes,
    SqueezedStateParams,
    _mode_variance,
    _separable,
    separability_closed_pair,
)
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
    closed-form (e_large, e_small) cross-check values.  ``separable``
    is the law r <= d nbar of the inputs
    (:attr:`SqueezedStateParams.separable`).
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
        separable=params.separable,
        margin=modes.margin,
        closed_pair=separability_closed_pair(params),
    )


@frozen_record
class SeparabilityMap:
    """Separability verdicts over a (d, nbar) grid at fixed r.

    ``separable[i, j]`` is the law d nbar >= r at (d_grid[i],
    nbar_grid[j]), on the rounded product, and ``margin[i, j]`` the
    smallest eigenvalue of V - I/2 there; ``boundary_nbar[i]`` is the
    first grid nbar that is separable at d_grid[i] (NaN when the whole
    row is nonseparable).  The law puts the boundary at nbar = r / d.
    """

    r: float
    d_grid: np.ndarray
    nbar_grid: np.ndarray
    separable: np.ndarray
    margin: np.ndarray
    boundary_nbar: np.ndarray


def _mode_columns(r: float, d: np.ndarray) -> tuple:
    """(d E(p), e^-p, r E(p)) on the d column, for p = p1 and p2: the
    factors of the variance (:func:`cvbell.modes._mode_variance`) and of
    the closed root (d E(p)) nbar -+ r E(p) that depend on d alone."""
    columns = []
    for p in (d + 2.0 * r, d - 2.0 * r):
        e = one_minus_exp_over(p)
        columns.append((d * e, np.exp(-p), r * e))
    return tuple(columns)


def _margin_rows(occ: np.ndarray, nbar: np.ndarray, first: tuple,
                 second: tuple | None, margin: np.ndarray) -> None:
    """Write the margin of a block of rows into ``margin``, a view of
    the map's output, from the :func:`_mode_columns` of its rows;
    ``second`` is None where only the first mode's variance and root are
    needed."""
    d_e, decay, r_e = first
    s = _mode_variance(occ, d_e, decay)
    closed = d_e * nbar
    closed -= r_e
    if second is not None:
        d_e, decay, r_e = second
        np.minimum(s, _mode_variance(occ, d_e, decay), out=s)
        e_large = d_e * nbar
        e_large += r_e
        np.minimum(closed, e_large, out=closed)
    np.subtract(s, 1.0, out=margin)
    margin *= 0.5
    # both routes are min(s1, s2)-sized and round like it, so the tolerance
    # scales with the smaller variance; the larger one (up to e^{4r}) would
    # loosen it exactly where the margin crosses 0.  The closed-form
    # route must agree everywhere before we trust it; a NaN gap fails the
    # comparison and raises as well
    scale = np.add(s, 1.0, out=s)
    closed -= margin
    gap = np.abs(closed, out=closed)
    if not np.all(gap <= TOLERANCES.route_agreement * scale):
        worst = float(np.max(gap / scale))
        raise CrossCheckError(
            f"separability routes disagree by {worst:.3e} relative to "
            f"1 + min(s1, s2) (tolerance {TOLERANCES.route_agreement:.0e}) "
            f"on the scan grid")


def separability_map(r: float, d_grid, nbar_grid,
                     workers: int | None = None) -> SeparabilityMap:
    """Classify separability over a (d, nbar) grid at fixed r.

    The arguments are checked as :func:`cvbell.bell.bell_surface`'s
    (:func:`cvbell.dynamics.scan_inputs`).  The margin
    (min(s1, s2) - 1)/2 is that of
    :func:`cvbell.dynamics.variance_arrays`, bit for bit, with the
    closed-form pair asserted against it cell by cell.  The verdict is
    :func:`cvbell.modes._separable` of the inputs, d nbar >= r, which is
    inf >= r where d nbar overflows.  Rows run in the cache-sized blocks
    of :func:`cvbell.dynamics.row_blocks`, written straight into the
    margin and the verdict.  Where a block's computed
    d E(p1) <= d E(p2) and e^-p1 <= e^-p2, s1 <= s2 and
    e_small <= e_large in every cell of it, because correctly rounded
    products and sums are monotone in each operand, so only s1 and
    e_small are formed; elsewhere rounding can tie the pairs (r below
    about 1e-15 max(1, d)), and both are formed and the smaller taken.
    ``workers`` is accepted for compatibility and ignored.
    """
    r, d_grid, nbar_grid = scan_inputs(r, None, d_grid=d_grid,
                                       nbar_grid=nbar_grid)
    shape = (len(d_grid), len(nbar_grid))
    margin = np.empty(shape)
    separable = np.empty(shape, dtype=bool)
    nbar = nbar_grid[None, :]
    occ = 2.0 * nbar + 1.0
    first, second = _mode_columns(r, d_grid[:, None])
    ordered = (first[0] <= second[0]) & (first[1] <= second[1])
    for lo, hi in row_blocks(*shape):
        rows = slice(lo, hi)
        _margin_rows(occ, nbar, tuple(c[rows] for c in first),
                     None if ordered[rows].all()
                     else tuple(c[rows] for c in second),
                     margin[rows])
        with np.errstate(over="ignore"):  # an overflowing d nbar is separable
            separable[rows] = _separable(r, d_grid[rows, None], nbar)
    boundary = np.where(separable.any(axis=1),
                        nbar_grid[separable.argmax(axis=1)], np.nan)
    return SeparabilityMap(r=r, d_grid=d_grid, nbar_grid=nbar_grid,
                           separable=separable, margin=margin,
                           boundary_nbar=boundary)
