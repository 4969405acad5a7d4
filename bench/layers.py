"""Per-layer timings for ``run.py --trace 1``.

The layers are the package's modules.  Each probe below times the calls
into one public function (or a short chain of them) from the
benchmark's own code, so nothing inside the package changes.  A probe
whose module or function is missing from the package is reported as
absent on standard error and left out of the metrics, not treated as an
error: later changes may move functions (for example the 4x4 W/V
helpers) out of the package.

Every probe repeats its call for an equal share of ``--seconds``, at
least ``MIN_REPS`` times, and reports the median.  Calls much shorter
than a millisecond are batched, so one timing pair covers at least
``BATCH_S`` of work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import workloads as W

MIN_REPS = 5
BATCH_S = 1e-3

UNIT_SCALE = {"ms": 1e3, "us": 1e6, "ns": 1e9}


class Probe:
    """One per-layer metric: name, unit, the functions it calls, and a
    ``make(fns, rng)`` that returns (call, work units per call)."""

    def __init__(self, name, unit, needs, make):
        self.name, self.unit, self.needs, self.make = name, unit, needs, make


def _resolve(needs):
    """Functions named ``module.attr``, or the first one that is missing."""
    fns = []
    for path in needs:
        module, _, attr = path.rpartition(".")
        try:
            fns.append(getattr(importlib.import_module(module), attr))
        except (ImportError, AttributeError):
            return None, path
    return fns, None


def _quiet(fn):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return fn()
    return call


def _state(rng):
    return dict(r=float(rng.uniform(0.2, W.R_SINGLE_POINT)),
                d=float(rng.uniform(0.05, 4.0)), nbar=float(rng.uniform(0.0, 2.0)))


def _figure_probe(k):
    return Probe(f"cli.figure{k}_ms", "ms", ["cvbell.cli.main"],
                 lambda f, rng: (_quiet(lambda: f[0](["figure", str(k)])), 1))


def _grid(rng):
    n = W.SCAN_SIZE
    return (np.linspace(0.0, rng.uniform(3.0, 6.0), n),
            np.linspace(0.0, rng.uniform(1.0, 3.0), n))


def _record(f, rng):
    # the shape of figure 2: 2050 rows of three floats
    rows = [tuple(float(x) for x in row) for row in rng.uniform(0, 2, (2050, 3))]
    return f[0](meta={"tool": "cvbell"}, columns=("J", "d", "B"), rows=rows)


def _params(f, rng):
    return f[0](**_state(rng))


PROBES = [
    Probe("cli.build_parser_ms", "ms", ["cvbell.cli.build_parser"],
          lambda f, rng: (f[0], 1)),
    Probe("cli.main_ms", "ms", ["cvbell.cli.main"],
          lambda f, rng: (_quiet(lambda a=["bell", "--J", repr(W._num(rng.uniform(1e-3, 0.1))),
                                            "--r", repr(W._num(rng.uniform(0.5, 3.0)))]:
                                 f[0](a)), 1)),
    *[_figure_probe(k) for k in W.FIGURE_INDICES],
    Probe("reports.to_csv_us_per_row", "us",
          ["cvbell.reports.ReportRecord", "cvbell.reports.to_csv"],
          lambda f, rng: (lambda rec=_record(f, rng): f[1](rec), 2050)),
    Probe("reports.to_json_us_per_row", "us",
          ["cvbell.reports.ReportRecord", "cvbell.reports.to_json"],
          lambda f, rng: (lambda rec=_record(f, rng): f[1](rec), 2050)),
    Probe("dynamics.evolve_coefficients_us", "us",
          ["cvbell.phase_space.SqueezedStateParams",
           "cvbell.dynamics.evolve_coefficients"],
          lambda f, rng: (lambda p=_params(f, rng): f[1](p), 1)),
    Probe("dynamics.coefficient_arrays_ns_per_cell", "ns",
          ["cvbell.dynamics.coefficient_arrays"],
          lambda f, rng: (lambda g=_grid(rng): f[0](W.SCAN_R, g[0][:, None],
                                                     g[1][None, :]),
                          W.SCAN_SIZE ** 2)),
    Probe("dynamics.steady_state_us", "us", ["cvbell.dynamics.steady_state"],
          lambda f, rng: (lambda g=float(rng.uniform(1.0, 3.0)),
                          k=float(rng.uniform(0.0, 0.4)),
                          n=float(rng.uniform(0.0, 2.0)): f[0](g, k * g, n), 1)),
    Probe("phase_space.nm_from_form_us", "us",
          ["cvbell.phase_space.SqueezedStateParams",
           "cvbell.dynamics.evolve_coefficients",
           "cvbell.phase_space.w_matrix_from_form", "cvbell.phase_space.v_from_w",
           "cvbell.phase_space.nm_from_v"],
          lambda f, rng: (lambda form=f[1](_params(f, rng)):
                          f[4](f[3](f[2](form))), 1)),
    Probe("phase_space.wigner_gaussian_eval_us", "us",
          ["cvbell.phase_space.SqueezedStateParams",
           "cvbell.dynamics.evolve_coefficients",
           "cvbell.phase_space.TwoModePoint",
           "cvbell.phase_space.wigner_gaussian_eval"],
          lambda f, rng: (lambda form=f[1](_params(f, rng)),
                          pt=f[2](complex(rng.uniform(0, 0.3)),
                                  complex(-rng.uniform(0, 0.3))):
                          f[3](pt, form), 1)),
    Probe("analysis.separability_eigenvalues_us", "us",
          ["cvbell.phase_space.SqueezedStateParams",
           "cvbell.analysis.separability_eigenvalues"],
          lambda f, rng: (lambda p=_params(f, rng): f[1](p), 1)),
    Probe("analysis.is_pure_us", "us",
          ["cvbell.phase_space.SqueezedStateParams",
           "cvbell.dynamics.evolve_coefficients", "cvbell.analysis.is_pure"],
          lambda f, rng: (lambda form=f[1](_params(f, rng)): f[2](form), 1)),
    Probe("analysis.separability_map_ms", "ms", ["cvbell.analysis.separability_map"],
          lambda f, rng: (lambda g=_grid(rng): f[0](W.SCAN_R, *g), 1)),
    Probe("analysis.separability_map_1worker_ms", "ms",
          ["cvbell.analysis.separability_map"],
          lambda f, rng: (lambda g=_grid(rng): f[0](W.SCAN_R, *g, workers=1), 1)),
    Probe("bell.bell_combination_us", "us",
          ["cvbell.phase_space.SqueezedStateParams", "cvbell.bell.model_evaluator",
           "cvbell.bell.bell_combination"],
          lambda f, rng: (lambda ev=f[1](_params(f, rng)),
                          J=float(rng.uniform(1e-3, 0.1)): f[2](ev, J), 1)),
    Probe("bell.bell_surface_ms", "ms", ["cvbell.bell.bell_surface"],
          lambda f, rng: (lambda g=_grid(rng),
                          J=np.geomspace(1e-4, 1.0, W.SCAN_SIZE):
                          f[0](W.SCAN_R, float(rng.uniform(0, 0.5)), J, g[0]), 1)),
    Probe("bell.maximize_bell_1free_ms", "ms", ["cvbell.bell.maximize_bell"],
          lambda f, rng: (lambda s=_state(rng): f[0](("J",), s), 1)),
    Probe("bell.maximize_bell_4free_ms", "ms", ["cvbell.bell.maximize_bell"],
          lambda f, rng: (lambda: f[0](("J", "r", "d", "nbar"), {}), 1)),
    Probe("mixtures.mixture_bell_us", "us",
          ["cvbell.mixtures.MixtureSpec", "cvbell.mixtures.mixture_bell"],
          lambda f, rng: (lambda s=f[0](float(rng.uniform(0, 1)),
                                        float(rng.uniform(0.3, 3.0))),
                          J=float(rng.uniform(1e-3, 0.1)): f[1](s, J), 1)),
    Probe("mixtures.small_j_slope_us", "us",
          ["cvbell.mixtures.MixtureSpec", "cvbell.mixtures.mixture_evaluator",
           "cvbell.bell.small_j_slope"],
          lambda f, rng: (lambda ev=f[1](f[0](float(rng.uniform(0.05, 1)),
                                              float(rng.uniform(0.3, 3.0)),
                                              "phase-diffused")): f[2](ev), 1)),
    Probe("mixtures.mixture_bell_curve_us", "us",
          ["cvbell.mixtures.MixtureSpec", "cvbell.mixtures.mixture_bell_curve"],
          lambda f, rng: (lambda s=f[0](float(rng.uniform(0, 1)), W.SCAN_R,
                                        "phase-diffused"),
                          J=np.geomspace(1e-4, 1.0, 200): f[1](s, J), 1)),
    Probe("mixtures.werner_violation_threshold_us", "us",
          ["cvbell.mixtures.werner_violation_threshold"],
          lambda f, rng: (lambda r=float(rng.uniform(0.3, 3.0)): f[0](r), 1)),
    Probe("mixtures.phase_diffused_threshold_us", "us",
          ["cvbell.mixtures.werner_violation_threshold"],
          lambda f, rng: (lambda r=float(rng.uniform(0.3, 3.0)):
                          f[0](r, kind="phase-diffused"), 1)),
    Probe("numerics.sym4_eigenvalues_us", "us", ["cvbell.numerics.sym4_eigenvalues"],
          lambda f, rng: (lambda a=float(rng.uniform(1, 5)), b=float(rng.uniform(0, 1)),
                          : f[0](np.array([[a, 0, 0, b], [0, a, b, 0],
                                           [0, b, a, 0], [b, 0, 0, a]])), 1)),
    Probe("numerics.one_minus_exp_over_ns_per_elem", "ns",
          ["cvbell.numerics.one_minus_exp_over"],
          lambda f, rng: (lambda x=rng.uniform(-6.0, 12.0, 10 ** 6): f[0](x), 10 ** 6)),
    Probe("numerics.bessel_i0_log_ns_per_elem", "ns",
          ["cvbell.numerics.bessel_i0_log"],
          lambda f, rng: (lambda x=rng.uniform(0.0, 50.0, 10 ** 6): f[0](x), 10 ** 6)),
]


def _time(call, work: int, budget: float):
    """Median seconds per work unit over repeated batched calls."""
    t0 = time.perf_counter()
    call()
    single = time.perf_counter() - t0
    batch = max(1, int(BATCH_S / max(single, 1e-9)))
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < MIN_REPS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples) / work, len(samples) * batch


def _import_ms(budget: float, env: dict):
    """Import of cvbell.cli in a fresh process, numpy already loaded."""
    code = ("import time, numpy; t = time.perf_counter(); import cvbell.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < MIN_REPS or time.perf_counter() < deadline:
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return statistics.median(samples) * 1e3, len(samples)


def _alloc_peak_mb(maximize):
    tracemalloc.start()
    try:
        maximize(("J", "r", "d", "nbar"), {})
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def measure(cv, rng, seconds: float, env: dict) -> dict:
    """All per-layer metrics, on inputs drawn from ``rng``.

    ``env`` is the environment of the fresh process that times the import.
    """
    budget = seconds / (len(PROBES) + 1)
    metrics, calls = {}, 0

    value, n = _import_ms(budget, env)
    metrics["cvbell.import_ms"] = (value, "ms")
    calls += n

    for probe in PROBES:
        fns, missing = _resolve(probe.needs)
        if fns is None:
            print(f"absent: {probe.name} ({missing} is not in the package)",
                  file=sys.stderr)
            continue
        call, work = probe.make(fns, rng)
        value, n = _time(call, work, budget)
        metrics[probe.name] = (value * UNIT_SCALE[probe.unit], probe.unit)
        calls += n

    serial = metrics.get("analysis.separability_map_1worker_ms")
    pooled = metrics.get("analysis.separability_map_ms")
    if serial and pooled:
        metrics["parallel.pool_speedup"] = (serial[0] / pooled[0], "x")
    fns, missing = _resolve(["cvbell.bell.maximize_bell"])
    if fns:
        metrics["bell.maximize_bell_4free_alloc_peak_mb"] = (_alloc_peak_mb(fns[0]), "MB")
        calls += 1

    # the figures must be right and byte-identical from pass to pass
    texts = W.figures_op(cv.cli)
    W.check_figures(texts)
    if W.figures_op(cv.cli) != texts:
        raise W.Mismatch("figures differ from pass to pass")
    return {"attempted": calls, "failed": 0, "metrics": metrics}
