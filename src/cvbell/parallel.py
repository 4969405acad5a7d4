"""Input checks and block helper of the grid scans.

:func:`scan_inputs` validates the arguments of both scans,
:func:`cvbell.bell.bell_surface` and
:func:`cvbell.analysis.separability_map`.  Scans are numpy-vectorised
and evaluated in row blocks of about ``BLOCK_CELLS`` cells, so the
temporaries of one block stay in the processor's L2 cache instead of
streaming full-grid arrays through memory.  Each block is written into
its own rows of one preallocated float output.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dynamics import variance_arrays
from .modes import SqueezedStateParams, _overflow, _where

__all__ = ["chunked_rows", "scan_inputs"]

#: cells per ``row_block`` call: 256 kB per float temporary, which keeps
#: a block's working set in L2 cache
BLOCK_CELLS = 32768


def chunked_rows(row_block: Callable[[int, int], np.ndarray], n_rows: int,
                 n_cols: int) -> np.ndarray:
    """Evaluate ``row_block(lo, hi)`` over contiguous row ranges.

    ``row_block`` must return the ``(hi - lo, n_cols)`` block of rows
    [lo, hi) of an elementwise kernel.  It is called in order on blocks
    of about ``BLOCK_CELLS`` cells (at least one row each), and every
    block is written into a preallocated float ``(n_rows, n_cols)``
    output.
    """
    out = np.empty((n_rows, n_cols))
    rows = max(1, BLOCK_CELLS // max(1, n_cols))
    for lo in range(0, n_rows, rows):
        hi = min(lo + rows, n_rows)
        out[lo:hi] = row_block(lo, hi)
    return out


def scan_inputs(r: float, nbar: float | None, **grids) -> tuple:
    """(r as a float, then the ``grids`` as float arrays, in their order).

    Each grid must be a nonempty 1-D array of finite nonnegative values
    in strictly ascending order, and r and ``nbar`` (None takes the
    largest entry of ``nbar_grid``) finite and nonnegative.  The
    variances grow with nbar, so the d column at the largest nbar bounds
    every cell: there c1 = 2(s1 + s2) and h = s1 s2 must stay in the
    float range, as :class:`cvbell.modes.NormalModes` requires of one
    state.  Every failure raises ``ValueError`` before a cell is
    computed, at the cost of a few passes over the 1-D grids.
    """
    checked = {}
    for name, g in grids.items():
        g = np.asarray(g, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError(f"{name} must be a nonempty 1-D grid")
        if not np.all(np.isfinite(g) & (g >= 0)):
            raise ValueError(f"{name} must be finite and nonnegative")
        if g.size > 1 and np.any(np.diff(g) <= 0):
            raise ValueError(f"{name} must be strictly ascending")
        checked[name] = g
    d_grid = checked["d_grid"]
    top = SqueezedStateParams(
        r, d_grid[0], checked["nbar_grid"][-1] if nbar is None else nbar)
    # past the float range numpy would only warn; the check raises
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2 = variance_arrays(top.r, d_grid, top.nbar)
        in_range = np.isfinite(2.0 * (s1 + s2)) & np.isfinite(s1 * s2)
    if not in_range.all():
        d = float(d_grid[np.argmin(in_range)])
        raise _overflow(_where(SqueezedStateParams(top.r, d, top.nbar)))
    return (top.r, *checked.values())
