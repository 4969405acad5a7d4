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
overflows.  For every state of the family s1 <= s2, because p1 >= p2
and each variance falls as p grows, so the map forms the squeezed mode
alone, s1 and e_small.  The routes must agree to
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
    squeezed mode's (s1 - 1)/2 there, the smallest eigenvalue of
    V - I/2; ``boundary_nbar[i]`` is the first grid nbar that is
    separable at d_grid[i] (NaN when the whole row is nonseparable).
    The law puts the boundary at nbar = r / d.
    """

    r: float
    d_grid: np.ndarray
    nbar_grid: np.ndarray
    separable: np.ndarray
    margin: np.ndarray
    boundary_nbar: np.ndarray


def _mode_columns(r: float, d: np.ndarray) -> tuple:
    """(d E(p1), e^-p1, r E(p1)) on the d column, p1 = d + 2r: the
    factors of the squeezed mode's variance
    (:func:`cvbell.modes._mode_variance`) and of the closed root
    (d E(p1)) nbar - r E(p1) that depend on d alone."""
    p1 = d + 2.0 * r
    e = one_minus_exp_over(p1)
    return d * e, np.exp(-p1), r * e


def _margin_rows(tiles: tuple, columns: tuple, bufs: tuple,
                 margin: np.ndarray) -> None:
    """Write the margin (s1 - 1)/2 of a block of rows into ``margin``, a
    view of the map's output, from the :func:`_mode_columns` of its rows,
    and check it against the closed root e_small.

    ``tiles`` are 2 nbar + 1 and nbar repeated to the block's height,
    and ``bufs`` two scratch arrays of its shape; each factor of a row
    is copied along its row into one of them, so every pass is
    contiguous and the cells round as the broadcast products did.
    """
    occ, nbar = tiles
    fac, term = bufs
    d_e, decay, r_e = columns
    np.copyto(fac, d_e)
    np.copyto(term, decay)
    s = _mode_variance(occ, fac, term)
    closed = np.multiply(fac, nbar, out=fac)
    np.copyto(term, r_e)
    closed -= term
    np.subtract(s, 1.0, out=margin)
    margin *= 0.5
    # both routes are s1-sized and round like it, so the tolerance scales
    # with s1; the larger s2 (up to e^{4r}) would loosen it exactly where
    # the margin crosses 0.  The closed-form route must agree everywhere
    # before we trust it; a NaN gap fails the comparison and raises as well
    scale = np.add(s, 1.0, out=s)
    closed -= margin
    gap = np.abs(closed, out=closed)
    if not np.all(gap <= np.multiply(scale, TOLERANCES.route_agreement,
                                     out=term)):
        worst = float(np.max(gap / scale))
        raise CrossCheckError(
            f"separability routes disagree by {worst:.3e} relative to "
            f"1 + min(s1, s2) (tolerance {TOLERANCES.route_agreement:.0e}) "
            f"on the scan grid")


def _first_separable(r: float, d: np.ndarray, nbar: np.ndarray) -> np.ndarray:
    """Index of the first separable node of each row, len(nbar) where the
    row has none.

    For d >= 0 the rounded product d nbar_j is monotone in the ascending
    nbar_j, so :func:`cvbell.modes._separable` is false and then true
    along a row, and the number of leading false nodes is found bit by
    bit, from the highest bit of len(nbar) down: one pass of the law
    over the d column per bit, about log2(len(nbar) + 1) in all.
    """
    n = len(nbar)
    first = np.zeros(len(d), dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        longer = first + step
        probe = nbar.take(longer - 1, mode="clip")
        np.copyto(first, longer,
                  where=(longer <= n) & ~_separable(r, d, probe))
        step >>= 1
    return first


def separability_map(r: float, d_grid, nbar_grid,
                     workers: int | None = None) -> SeparabilityMap:
    """Classify separability over a (d, nbar) grid at fixed r.

    The arguments are checked as :func:`cvbell.bell.bell_surface`'s
    (:func:`cvbell.dynamics.scan_inputs`).  The margin is that of the
    squeezed mode, (s1 - 1)/2 of :func:`cvbell.dynamics.variance_arrays`
    bit for bit, with its closed root e_small = E(p1) (d nbar - r)
    asserted against it cell by cell: s1 <= s2 for every state of the
    family, so this is the smallest eigenvalue of V - I/2, up to an ulp
    where rounding ties s1 and s2.  Rows run in the cache-sized blocks
    of :func:`cvbell.dynamics.row_blocks`, written straight into the
    margin: the factors that depend on d alone are taken once on the d
    column and expanded into a block-sized buffer, and 2 nbar + 1 and
    nbar are tiled to a block's height once per call, so every pass of a
    block runs on contiguous operands.

    The verdict is :func:`cvbell.modes._separable` of the inputs,
    d nbar >= r, which is inf >= r where d nbar overflows.  The rounded
    product is monotone in nbar, so each row is nonseparable up to its
    first separable node and separable from there on; that node is
    found by bisection (:func:`_first_separable`), and it gives both
    the row of the verdict and ``boundary_nbar``.  ``workers`` is
    accepted for compatibility and ignored.
    """
    r, d_grid, nbar_grid = scan_inputs(r, None, d_grid=d_grid,
                                       nbar_grid=nbar_grid)
    shape = (len(d_grid), len(nbar_grid))
    margin = np.empty(shape)
    columns = _mode_columns(r, d_grid[:, None])
    blocks = list(row_blocks(*shape))
    height = (blocks[0][1] - blocks[0][0], shape[1])
    tiles = tuple(np.tile(row, (height[0], 1))
                  for row in (2.0 * nbar_grid + 1.0, nbar_grid))
    bufs = tuple(np.empty(height) for _ in range(2))
    for lo, hi in blocks:
        rows, h = slice(lo, hi), hi - lo
        _margin_rows(tuple(t[:h] for t in tiles),
                     tuple(c[rows] for c in columns),
                     tuple(b[:h] for b in bufs), margin[rows])
    with np.errstate(over="ignore"):  # an overflowing d nbar is separable
        onset = _first_separable(r, d_grid, nbar_grid)
    counts = np.column_stack((onset, shape[1] - onset))
    separable = np.repeat(np.tile((False, True), shape[0]),
                          counts.ravel()).reshape(shape)
    boundary = np.where(onset < shape[1],
                        nbar_grid.take(onset, mode="clip"), np.nan)
    return SeparabilityMap(r=r, d_grid=d_grid, nbar_grid=nbar_grid,
                           separable=separable, margin=margin,
                           boundary_nbar=boundary)
