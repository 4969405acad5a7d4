"""Time evolution of the noisy two-mode squeezing process.

The joint Wigner function obeys a linear Fokker-Planck equation with
drift and diffusion set by the two-mode coupling kappa, the damping
rate gamma and the reservoir occupation nbar.  Starting from vacuum the
state stays Gaussian, and in the reduced parameters r = kappa t and
d = gamma t it factorises in the frame of its two normal modes, with
variances

    s_i = e^-p_i + (2 nbar + 1) d E(p_i),   p1 = d + 2r,  p2 = d - 2r,

E(p) = (1 - e^-p)/p (:class:`cvbell.modes.NormalModes`).  Everything
here is a view of (s1, s2): :func:`evolve_coefficients` gives the
state at one point, which carries its Wigner coefficients as
properties, :func:`variance_arrays` and :func:`coefficient_arrays` the
same on numpy grids, and :func:`steady_state` the t -> infinity limit.
The grid scans of :mod:`cvbell.analysis` and :mod:`cvbell.bell` check
their arguments with :func:`scan_inputs`, take their variances from the
kernel of :func:`variance_arrays`, and write the cache-sized row blocks
of :func:`row_blocks` into their preallocated outputs, on contiguous
operands.  The drift and diffusion matrices, the brute-force RK4
integration of the Lyapunov equation and the analytic propagator live
in the test suite as the oracles the closed form is checked against.
"""

from __future__ import annotations

import numpy as np

from ._record import frozen_record
from .modes import (
    NormalModes,
    SqueezedStateParams,
    _in_range,
    _variances,
    _where,
    steady_limit,
)
from .numerics import one_minus_exp_over

__all__ = [
    "SteadyStateReport",
    "coefficient_arrays",
    "row_blocks",
    "variance_arrays",
    "evolve_coefficients",
    "scan_inputs",
    "steady_state",
]

#: cells per block of :func:`row_blocks`: 256 kB per float buffer.  A
#: block of the separability map touches six such buffers (two row
#: tiles, two scratch arrays, the variance and its view of the margin),
#: one of the Bell surface five (three factor tiles, its view of the
#: surface and one temporary), so 1.25 to 1.5 MB, which fit a 2 MB L2
#: cache; blocks of 16384 and 65536 cells were both slower
BLOCK_CELLS = 32768


# ----------------------------------------------------------------------
# closed-form coefficients
# ----------------------------------------------------------------------

def variance_arrays(r, d, nbar):
    """Vectorised normal-mode variances (s1, s2) for arrays of (r, d, nbar).

    s_i = e^-p_i + (2 nbar + 1) (d E(p_i)), in the order of
    :meth:`cvbell.modes.NormalModes.of`, with the same kernel
    :func:`cvbell.modes._variances` (numpy's ``exp`` and ``expm1`` may
    differ from the C library's in the last bit).  Broadcasts its
    arguments; the factors that depend on (r, d) alone are computed on
    their own shape, and the occupation product, which has the full
    broadcast shape, takes e^-p_i in place.  Where e^{2r} overflows, s2
    is inf.
    """
    r, d, nbar = (np.asarray(x, dtype=float) for x in (r, d, nbar))
    return _variances(r, d, nbar, np.exp, one_minus_exp_over)


def coefficient_arrays(r, d, nbar):
    """Vectorised coefficient triple (c1, c2, h) for arrays of (r, d, nbar).

    The view c1 = 2(s1 + s2), c2 = 2(s1 - s2), h = s1 s2 of
    :func:`variance_arrays`; broadcasts its arguments.
    """
    s1, s2 = variance_arrays(r, d, nbar)
    return 2.0 * (s1 + s2), 2.0 * (s1 - s2), s1 * s2


# ----------------------------------------------------------------------
# grid scans: argument checks and row blocks
# ----------------------------------------------------------------------

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
        i = int(np.argmin(in_range))
        # the float checks of that cell repeat the array ones, and raise
        _in_range(float(s1[i]), float(s2[i]),
                  lambda: _where(top.r, float(d_grid[i]), top.nbar))
    return (top.r, *checked.values())


def row_blocks(n_rows: int, n_cols: int):
    """The contiguous row ranges (lo, hi) that tile ``n_rows`` rows in
    order, each of about ``BLOCK_CELLS`` cells and at least one row, so
    the buffers of one block stay in the processor's L2 cache.

    The first block is the tallest: a scan sizes its row tiles and
    scratch buffers to it once per call and slices them for a shorter
    last block.  Within a block every pass runs on contiguous operands
    of the block's shape: a per-row factor is first copied along its row
    (``numpy.copyto``) and then serves every pass that needs it.  On a
    32 x 1000 block (numpy 2.4.6) a ufunc that broadcasts a column
    against a row into a new array takes 30-55 us, the copy about 9 us
    and a contiguous pass 6-18 us.
    """
    rows = max(1, BLOCK_CELLS // max(1, n_cols))
    for lo in range(0, n_rows, rows):
        yield lo, min(lo + rows, n_rows)


def evolve_coefficients(params: SqueezedStateParams) -> NormalModes:
    """Exact state at reduced parameters, :meth:`NormalModes.of`.

    Its Wigner coefficients are the properties c1 = 2(s1 + s2),
    c2 = 2(s1 - s2) and h = s1 s2 of the normal-mode variances.  At
    d = 0 this is the pure squeezed vacuum (4 cosh 2r, -4 sinh 2r, 1);
    at r = d = 0 the vacuum (4, 0, 1).  A state whose coefficients leave
    the float range (e^{2r} at r above ~355) raises ``ValueError``
    naming the parameters.
    """
    return NormalModes.of(params)


# ----------------------------------------------------------------------
# steady state
# ----------------------------------------------------------------------

@frozen_record
class SteadyStateReport:
    """Long-time behaviour of the process at fixed rates.

    ``exists`` is true iff every drift eigenvalue is strictly negative,
    i.e. gamma > 2 kappa.  ``classification`` is one of
    "squeezed-thermal", "thermal", "none", "boundary-undefined";
    ``limit_form`` is the limiting state, the :class:`NormalModes` of
    :func:`cvbell.modes.steady_limit`, when a steady state exists and
    None otherwise.
    """

    exists: bool
    classification: str
    limit_form: NormalModes | None


def steady_state(gamma: float, kappa: float, nbar: float = 0.0) -> SteadyStateReport:
    """Classify the t -> infinity limit of the process.

    For gamma > 2 kappa the state converges to the squeezed thermal
    normal-mode variances s = (2 nbar + 1)/(1 +- q), q = 2 kappa / gamma
    (:func:`cvbell.modes.steady_limit`), whose coefficients are

        c1 = 4 (2 nbar + 1) / (1 - q^2),  c2 = -q c1,
        h = (2 nbar + 1)^2 / (1 - q^2),

    which is thermal (c2 = 0, N = nbar) when kappa = 0.  On the
    boundary gamma = 2 kappa two drift eigenvalues vanish and no limit
    exists ("boundary-undefined"); for gamma < 2 kappa the squeezing
    wins and the moments grow without bound ("none").
    """
    kind, modes = steady_limit(gamma, kappa, nbar)
    return SteadyStateReport(exists=modes is not None, classification=kind,
                             limit_form=modes)
