"""Block helper for grid scans.

Scans are numpy-vectorised and evaluated in row blocks of about
``BLOCK_CELLS`` cells, so the temporaries of one block stay in the
processor's L2 cache instead of streaming full-grid arrays through
memory.  Each block is written into its own rows of one preallocated
float output.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["chunked_rows"]

#: cells per ``row_block`` call: 256 kB per float temporary, which keeps
#: a block's working set in L2 cache
BLOCK_CELLS = 32768


def chunked_rows(row_block: Callable[[int, int], np.ndarray], n_rows: int,
                 n_cols: int, workers: int | None = None) -> np.ndarray:
    """Evaluate ``row_block(lo, hi)`` over contiguous row ranges.

    ``row_block`` must return the ``(hi - lo, n_cols)`` block of rows
    [lo, hi) of an elementwise kernel.  It is called in order on blocks
    of about ``BLOCK_CELLS`` cells (at least one row each), and every
    block is written into a preallocated float ``(n_rows, n_cols)``
    output.  ``workers`` is accepted for compatibility and ignored: the
    blocks always run serially.
    """
    out = np.empty((n_rows, n_cols))
    rows = max(1, BLOCK_CELLS // max(1, n_cols))
    for lo in range(0, n_rows, rows):
        hi = min(lo + rows, n_rows)
        out[lo:hi] = row_block(lo, hi)
    return out
