"""Block and thread-pool helpers for grid scans.

Scans are numpy-vectorised and evaluated in row blocks of about
``BLOCK_CELLS`` cells, so the temporaries of one block stay in the
processor's L2 cache instead of streaming full-grid arrays through
memory.  Each block is written into one preallocated float output.
Large grids additionally spread their blocks across a thread pool
(ufuncs release the GIL).  The pool size is capped by the
``CVBELL_THREADS`` environment variable and defaults to the machine's
CPU count.  Every block lands in its own rows of the output, so results
never depend on scheduling and pooled runs are bit-identical to serial
ones.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

__all__ = ["worker_count", "chunked_rows"]

#: below this many grid cells the pool overhead is not worth paying
PARALLEL_THRESHOLD = 65536

#: cells per ``row_block`` call: 256 kB per float temporary, which keeps
#: a block's working set in L2 cache
BLOCK_CELLS = 32768


def worker_count() -> int:
    """Scan parallelism: CVBELL_THREADS if set (>= 1), else CPU count."""
    raw = os.environ.get("CVBELL_THREADS")
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"CVBELL_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"CVBELL_THREADS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def chunked_rows(row_block: Callable[[int, int], np.ndarray], n_rows: int,
                 n_cols: int, workers: int | None = None) -> np.ndarray:
    """Evaluate ``row_block(lo, hi)`` over contiguous row ranges.

    ``row_block`` must return the ``(hi - lo, n_cols)`` block of rows
    [lo, hi) of an elementwise kernel.  It is called on blocks of about
    ``BLOCK_CELLS`` cells (at least one row each), and every block is
    written into a preallocated float ``(n_rows, n_cols)`` output.  The
    blocks run serially when the grid has fewer than
    ``PARALLEL_THRESHOLD`` cells or a single worker is requested, and on
    a thread pool otherwise; the result is the same either way.
    """
    out = np.empty((n_rows, n_cols))
    rows = max(1, BLOCK_CELLS // max(1, n_cols))
    bounds = [(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]

    def fill(block):
        lo, hi = block
        out[lo:hi] = row_block(lo, hi)

    w = worker_count() if workers is None else max(1, int(workers))
    w = min(w, len(bounds))
    if w <= 1 or n_rows * n_cols < PARALLEL_THRESHOLD:
        for block in bounds:
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=w) as pool:
            # reading every result re-raises a block's exception here
            list(pool.map(fill, bounds))
    return out
