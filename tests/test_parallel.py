"""The scans' row blocks and argument checks (`cvbell.dynamics`): blocks are
bit-identical to one whole-grid kernel call, bad arguments raise first."""

import warnings

import numpy as np
import pytest

from cvbell import bell_surface, separability_map
from cvbell.dynamics import coefficient_arrays
from cvbell.dynamics import BLOCK_CELLS, row_blocks


def _stitch(row_block, n_rows, n_cols):
    # the scans' block loop: each row range of row_blocks written into a
    # preallocated output
    out = np.empty((n_rows, n_cols))
    for lo, hi in row_blocks(n_rows, n_cols):
        out[lo:hi] = row_block(lo, hi)
    return out


def _bell_kernel(J, c1, c2, h):
    # an elementwise kernel of (c1, c2, h) as block-test data: B in the
    # Wigner coefficients of each column
    return (1.0 + 2.0 * np.exp(-J * c1 / (2.0 * h))
            - np.exp(-J * (c1 - c2) / h)) / h


def _map_block(n_rows, n_cols):
    d = np.linspace(0.0, 6.0, n_rows)
    nbar = np.linspace(0.0, 3.0, n_cols)
    return lambda lo, hi: separability_map(1.5, d[lo:hi], nbar).margin


def _surface_rows(n_rows, n_cols):
    J = np.geomspace(1e-5, 1.0, n_rows)
    d = np.linspace(0.0, 5.0, n_cols)
    return lambda lo, hi: bell_surface(1.5, 0.2, J[lo:hi], d).values


def _surface_block(n_rows, n_cols):
    J = np.geomspace(1e-5, 1.0, n_rows)
    c1, c2, h = coefficient_arrays(1.5, np.linspace(0.0, 5.0, n_cols), 0.2)
    return lambda lo, hi: _bell_kernel(J[lo:hi, None], c1[None, :],
                                       c2[None, :], h[None, :])


SHAPES = [
    (333, 301),              # odd row count, several rows per block
    (3, BLOCK_CELLS + 7),    # rows wider than a block: one row per block
    (17, 19),                # a single block
]


@pytest.mark.parametrize("make", [_map_block, _surface_block, _surface_rows])
@pytest.mark.parametrize("shape", SHAPES)
def test_chunked_rows_bit_identical_to_one_call(make, shape):
    n_rows, n_cols = shape
    block = make(n_rows, n_cols)
    whole = block(0, n_rows)
    got = _stitch(block, n_rows, n_cols)
    assert got.dtype == np.float64
    assert np.array_equal(got, whole)


def test_chunked_rows_block_bounds():
    # every call covers at most BLOCK_CELLS cells (and at least one row),
    # and the calls tile the rows exactly, in order
    calls = []

    def block(lo, hi):
        calls.append((lo, hi))
        return np.full((hi - lo, 1), float(lo))  # broadcasts over the row

    n_rows, n_cols = 1001, 300
    out = _stitch(block, n_rows, n_cols)
    assert calls[0][0] == 0 and calls[-1][1] == n_rows
    assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
    assert all(1 <= hi - lo and (hi - lo) * n_cols <= BLOCK_CELLS
               for lo, hi in calls)
    for lo, hi in calls:
        assert np.all(out[lo:hi] == lo)

    calls.clear()
    _stitch(block, 2, BLOCK_CELLS * 3)
    assert calls == [(0, 1), (1, 2)]


def test_workers_argument_is_ignored():
    # workers= is still accepted by the scans, and every setting gives
    # the same bits
    d = np.linspace(0.0, 6.0, 301)
    nbar = np.linspace(0.0, 3.0, 257)
    J = np.geomspace(1e-5, 1.0, 263)
    maps = [separability_map(1.5, d, nbar, workers=w) for w in (None, 1, 2)]
    surfaces = [bell_surface(1.5, 0.2, J, d, workers=w) for w in (None, 1, 2)]
    for m in maps[1:]:
        assert np.array_equal(m.margin, maps[0].margin)
        assert np.array_equal(m.separable, maps[0].separable)
        assert np.array_equal(m.boundary_nbar, maps[0].boundary_nbar,
                              equal_nan=True)
    for s in surfaces[1:]:
        assert np.array_equal(s.values, surfaces[0].values)


J_AXIS = np.geomspace(1e-4, 1.0, 5)
D_AXIS = np.linspace(0.0, 2.0, 5)
NBAR_AXIS = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize("scan, match", [
    (lambda: bell_surface(-1.0, 0.0, J_AXIS, D_AXIS), "r must be nonnegative"),
    (lambda: bell_surface(1.5, -1.0, J_AXIS, D_AXIS),
     "nbar must be nonnegative"),
    (lambda: bell_surface(np.nan, 0.0, J_AXIS, D_AXIS), "r must be finite"),
    (lambda: bell_surface(1.5, np.inf, J_AXIS, D_AXIS), "nbar must be finite"),
    (lambda: bell_surface(400.0, 0.0, J_AXIS, D_AXIS), "overflow.*r=400.0"),
    (lambda: bell_surface(1.5, 0.0, [np.nan], D_AXIS),
     "J_grid must be finite"),
    (lambda: separability_map(np.nan, D_AXIS, NBAR_AXIS), "r must be finite"),
    (lambda: separability_map(-1.0, D_AXIS, NBAR_AXIS),
     "r must be nonnegative"),
    (lambda: separability_map(400.0, D_AXIS, NBAR_AXIS), "overflow.*r=400.0"),
    (lambda: separability_map(1.5, D_AXIS, [0.0, np.inf]),
     "nbar_grid must be finite"),
    # 2 nbar + 1 overflows, or the product s1 s2 of the variances does
    (lambda: separability_map(1.5, D_AXIS, [0.0, 1e308]),
     "overflow.*d=0.0, nbar=1e\\+308"),
    (lambda: bell_surface(1.5, 1e300, J_AXIS, D_AXIS),
     "overflow.*d=0.5, nbar=1e\\+300"),
], ids=["surface r<0", "surface nbar<0", "surface r nan", "surface nbar inf",
        "surface r=400", "surface J nan", "map r nan", "map r<0",
        "map r=400", "map nbar inf", "map nbar=1e308", "surface nbar=1e300"])
def test_scans_reject_bad_arguments_before_computing(scan, match):
    # a true ValueError, and no numpy warning from a cell computed first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            scan()


def test_scans_accept_large_squeezing_with_enough_diffusion():
    # e^{2r - d} is in range once the smallest d is large enough, so the
    # state is legal and the scans return finite values
    d = np.array([100.0, 200.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surface = bell_surface(400.0, 0.0, J_AXIS, d)
        margins = separability_map(400.0, d, NBAR_AXIS).margin
    assert np.all(np.isfinite(surface.values))
    assert np.all(np.isfinite(margins))


def test_scans_accept_huge_diffusion_without_warning():
    # E(p) = (1 - e^-p)/p at p ~ 1e70 used to overflow in its unused
    # Taylor branch; the values were right, but numpy warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margins = separability_map(1.0, np.array([0.0, 1e70]),
                                   np.array([0.0, 1.0])).margin
        surface = bell_surface(1.0, 0.0, np.array([0.01]),
                               np.array([0.0, 1e70])).values
    assert np.all(np.isfinite(margins)) and np.all(np.isfinite(surface))
    # at d = 1e70 the state is thermal with occupation nbar
    np.testing.assert_array_equal(margins[1], [0.0, 1.0])
