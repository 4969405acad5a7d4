"""Block and pool scans are bit-identical to one whole-grid kernel call."""

from functools import partial

import numpy as np
import pytest

from cvbell import parallel
from cvbell.analysis import _margin_rows
from cvbell.bell import _closed_bell
from cvbell.dynamics import coefficient_arrays
from cvbell.parallel import BLOCK_CELLS, PARALLEL_THRESHOLD, chunked_rows


def _map_block(n_rows, n_cols):
    d = np.linspace(0.0, 6.0, n_rows)
    nbar = np.linspace(0.0, 3.0, n_cols)
    return partial(_margin_rows, 1.5, d, nbar)


def _surface_block(n_rows, n_cols):
    J = np.geomspace(1e-5, 1.0, n_rows)
    c1, c2, h = coefficient_arrays(1.5, np.linspace(0.0, 5.0, n_cols), 0.2)
    return lambda lo, hi: _closed_bell(J[lo:hi, None], c1[None, :],
                                       c2[None, :], h[None, :])


SHAPES = [
    (333, 301),              # odd row count, several rows per block
    (3, BLOCK_CELLS + 7),    # rows wider than a block: one row per block
    (17, 19),                # below the pool threshold
]


@pytest.mark.parametrize("make", [_map_block, _surface_block])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("workers", [1, 2])
def test_chunked_rows_bit_identical_to_one_call(make, shape, workers):
    n_rows, n_cols = shape
    block = make(n_rows, n_cols)
    whole = block(0, n_rows)
    got = chunked_rows(block, n_rows, n_cols, workers=workers)
    assert got.dtype == np.float64
    assert np.array_equal(got, whole)


def test_chunked_rows_block_bounds():
    # every call covers at most BLOCK_CELLS cells (and at least one row),
    # the calls tile the rows exactly, and the pool is used above the
    # threshold
    calls = []

    def block(lo, hi):
        calls.append((lo, hi))
        return np.full((hi - lo, 1), float(lo))  # broadcasts over the row

    n_rows, n_cols = 1001, 300
    assert n_rows * n_cols >= PARALLEL_THRESHOLD
    out = chunked_rows(block, n_rows, n_cols, workers=2)
    calls.sort()
    assert calls[0][0] == 0 and calls[-1][1] == n_rows
    assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
    assert all(1 <= hi - lo and (hi - lo) * n_cols <= BLOCK_CELLS
               for lo, hi in calls)
    for lo, hi in calls:
        assert np.all(out[lo:hi] == lo)

    calls.clear()
    chunked_rows(block, 2, BLOCK_CELLS * 3, workers=1)
    assert calls == [(0, 1), (1, 2)]


def test_chunked_rows_reraises_block_errors():
    def block(lo, hi):
        if lo > 0:
            raise ValueError("bad block")
        return np.zeros((hi - lo, 400))

    with pytest.raises(ValueError, match="bad block"):
        chunked_rows(block, 1000, 400, workers=2)


def test_worker_count_reads_environment(monkeypatch):
    monkeypatch.setenv("CVBELL_THREADS", "3")
    assert parallel.worker_count() == 3
    monkeypatch.setenv("CVBELL_THREADS", "0")
    with pytest.raises(ValueError):
        parallel.worker_count()
