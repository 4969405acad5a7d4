"""The benchmark's traced run keeps its whole call surface.

``bench/layers.py`` times about thirty package functions in process and
drops a metric whose function is missing, so a function that leaves the
package, changes its signature or stops returning from ``main`` would
shrink or break that run.  This module imports the benchmark's files
read only and checks their call surface against the package, and runs
one short traced run to its closing JSON line.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import layers  # noqa: E402

from cvbell.cli import main  # noqa: E402

#: metrics that ``layers.measure`` derives outside the probe list
DERIVED = {"cvbell.import_ms", "parallel.pool_speedup",
           "bell.maximize_bell_4free_alloc_peak_mb"}


def test_probe_names_are_the_declared_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    names = [p.name for p in layers.PROBES]
    assert len(names) == len(set(names))
    assert set(names) | DERIVED == declared


@pytest.mark.parametrize("probe", layers.PROBES, ids=lambda p: p.name)
def test_probe_needs_resolve_and_run(probe):
    fns, missing = layers._resolve(probe.needs)
    assert fns is not None, f"{missing} is not in the package"
    call, work = probe.make(fns, np.random.default_rng(0))
    assert work >= 1
    with contextlib.redirect_stdout(io.StringIO()):
        call()


@pytest.mark.parametrize("argv", [
    ["figure", "3"],
    ["bell", "--J", "0.01", "--r", "1.5"],
])
def test_main_returns_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    assert buf.getvalue().count("\n") > 1


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("workload", ["scans", "cli-cold"])
def test_traced_run_ends_with_its_result_line(workload):
    # the traced run probes the package in process; a probe that breaks,
    # prints or goes missing must not displace the JSON result from the
    # last line, and every metric in it is a finite number
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert [line for line in proc.stderr.splitlines()
            if line.startswith("absent:")] == []
