"""Benchmark of cvbell: closed-loop, single-client workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload {cli-cold,scans} --seed N --seconds S \
        --trace {0,1}

The package is imported from ``src/`` of that checkout, never from an
installed copy.  A run measures whole rounds of ops until at least
``--seconds`` have passed and at least ``MIN_OPS`` ops have completed,
so that ten of them lie beyond the 90th percentile.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` instead times the calls
into each module's public functions (see ``layers.py``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("cli-cold", "scans")
MIN_OPS = 100
#: fresh processes whose set-up is timed; setup_s is their median
SETUP_SAMPLES = 5


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CVBELL_THREADS", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_cvbell():
    """Import cvbell from the checkout's sources, not an installed copy."""
    sys.path.insert(0, SRC)
    import cvbell
    import cvbell.cli
    if not os.path.abspath(cvbell.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported cvbell from {cvbell.__file__}, not {SRC}")
    return cvbell


class Workload:
    """Set-up, one op, and the check of one op's output.

    ``setup`` covers importing the package, generating the inputs and
    one warm-up op, whose result is checked in full against the
    reference.  ``run_round`` runs whole rounds of ops and returns, per
    op, (ok, wall s, cpu s, peak rss MB) and raises ``Mismatch`` on a
    wrong output.
    """

    def __init__(self, name: str, seed: int):
        import numpy as np
        import workloads as W
        self.name, self.W = name, W
        self.rng = np.random.default_rng(seed)
        self.env = child_env()

    def setup(self) -> None:
        W = self.W
        if self.name == "cli-cold":
            # warm-up: one cold call, which also leaves compiled bytecode
            code, _, err, _ = W.run_cli(["figure", "3"], self.env)
            if code != 0:
                sys.exit(f"bench: warm-up CLI call failed: {err}")
            return
        self.cv = import_cvbell()
        self.inputs = W.scan_inputs(self.rng)
        self.first = W.scans_op(self.cv, self.inputs)

    def check_first(self) -> None:
        if self.name == "scans":
            self.W.check_scans(self.first, self.inputs)

    def run_round(self) -> list:
        W = self.W
        if self.name == "cli-cold":
            return [self._cli_op(*cmd) for cmd in W.cli_round(self.rng)]
        t0, c0 = time.perf_counter(), time.process_time()
        out = W.scans_op(self.cv, self.inputs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if not W.same_scans(out, self.first):
            raise W.Mismatch("scans: output differs from the first pass")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return [(True, wall, cpu, rss)]

    def _cli_op(self, kind, params, fmt):
        argv = self.W.argv_of(kind, params, fmt)
        t0 = time.perf_counter()
        code, out, err, usage = self.W.run_cli(argv, self.env)
        wall = time.perf_counter() - t0
        if code != 0:
            print(f"failed (exit {code}): cvbell {' '.join(argv)}: "
                  f"{err.strip().splitlines()[-1] if err.strip() else ''}",
                  file=sys.stderr)
            return (False, wall, 0.0, 0.0)
        try:
            self.W.check_command(kind, params, out, fmt)
        except self.W.Mismatch as exc:
            raise self.W.Mismatch(f"cvbell {' '.join(argv)}: {exc}") from exc
        cpu = usage.ru_utime + usage.ru_stime
        return (True, wall, cpu, usage.ru_maxrss / 1024.0)

    def finish(self) -> None:
        """Once per run: pooled scans are bit-identical to one worker."""
        if self.name == "scans":
            serial = self.W.scans_op(self.cv, self.inputs, workers=1)
            if not self.W.same_scans(serial, self.first):
                raise self.W.Mismatch("scans: workers=1 differs from the pool")


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: set up as a run would, then report the clock."""
    Workload(workload, seed).setup()
    print(repr(time.monotonic()))


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up time of fresh processes, from spawn to their first op."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, env=child_env(), check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float) -> dict:
    wl = Workload(workload, seed)
    wl.setup()
    wl.check_first()
    ops, attempted = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < MIN_OPS:
        batch = wl.run_round()
        attempted += len(batch)
        ops += [op for op in batch if op[0]]
    wl.finish()
    setups = setup_seconds(workload, seed)
    walls = [op[1] for op in ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_p90_ms": (percentile(walls, 90) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(op[2] for op in ops) / len(ops) * 1e3, "ms"),
        "peak_rss_mb": (max(op[3] for op in ops), "MB"),
    }
    print(f"{workload}: {len(ops)} ops ok of {attempted} in "
          f"{time.perf_counter() - start:.1f} s; set-up samples "
          f"{', '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)
    return {"attempted": attempted, "failed": attempted - len(ops),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("CVBELL_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "cvbell", "__init__.py")):
        print(f"bench: no cvbell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    from reference import Mismatch
    try:
        if args.trace:
            import numpy as np
            import layers
            rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
            result = layers.measure(import_cvbell(), rng, args.seconds,
                                    child_env())
        else:
            result = measure(args.workload, args.seed, args.seconds)
        correct = True
    except Mismatch as exc:
        print(f"bench: wrong output: {exc}", file=sys.stderr)
        result, correct = {"attempted": 1, "failed": 0, "metrics": {}}, False
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
