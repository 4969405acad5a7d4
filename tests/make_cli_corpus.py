"""Regenerate ``tests/cli_corpus.json``, the pinned output of the CLI.

    PYTHONPATH=src python tests/make_cli_corpus.py

Every command of :func:`commands` runs in process through
:func:`cvbell.cli.main`; the file keeps its argv, its exit code and the
sha256 of its stdout and of its stderr, and the Python and numpy
versions that made the hashes (libm and numpy rounding can move the
last digit of a float).  ``tests/test_cli_corpus.py`` reruns every
command against the file.  The script prints the argv of every
command whose exit code, stdout hash or stderr hash differs from the
file it replaces (and of every command added or removed), so that a
change that moves output on purpose can name each of them, and why.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from unittest import mock

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "cli_corpus.json")
BENCH = os.path.join(os.path.dirname(HERE), "bench")

#: terminal width of the ``--help`` commands, which argparse wraps to it
COLUMNS = "80"

SUBCOMMANDS = ("coeffs", "figure", "maximize", "bell", "separability",
               "steady", "werner", "phase-diffused")

#: squeezing of the threshold commands: the documented points of both
#: families, including where the budget grid misses the minimiser
THRESHOLD_R = {
    "werner": ("1.5", "4", "4.5", "6", "1e-4", "5e-5", "354"),
    "phase-diffused": ("0.3", "1", "1.5", "1e-6", "1e-7", "354",
                       "5.493961497003613e-07"),
}

EXTRA = [
    # the multi-parameter maximiser, which loads numpy
    ["maximize", "--free", "J,r,d,nbar"],
    ["maximize", "--free", "J,r", "--d", "0.2", "--nbar", "0.1"],
    ["maximize", "--free", "r", "--J", "0.01", "--d", "0.2", "--nbar", "0.1"],
    ["maximize", "--free", "d,nbar", "--J", "0.01", "--r", "1.5"],
    # the phase-diffused reference at large s J
    ["phase-diffused", "--r", "20", "--p", "0.5", "--J", "1"],
    ["phase-diffused", "--r", "1", "--p", "0.5", "--J", "1e308"],
    # tiny budgets past the overflow of the pure rate 4(c + s)
    ["werner", "--r", "354.5", "--p", "0.5", "--J", "1e-310"],
    ["phase-diffused", "--r", "354.5", "--p", "0.5", "--J", "1e-310"],
    # separability by the law d nbar >= r where the margin rounds near 0
    ["separability", "--r", "1e-14", "--d", "0", "--nbar", "0"],
    ["separability", "--r", "1e-13", "--d", "0", "--nbar", "0"],
    ["separability", "--r", "1.0000000000001", "--d", "1", "--nbar", "1"],
    # the pure state gains at J = 1e-4 while B_pure there rounds to 2
    ["werner", "--threshold", "--r", "5.001000258413368e-05"],
    # usage errors, exit 2
    [],
    ["nosuch"],
    ["figure", "6"],
    ["bell", "--r", "1"],
    ["bell", "--J", "x", "--r", "1"],
    ["coeffs", "--r", "1"],
    ["coeffs", "--t-max", "1"],
    ["werner", "--r", "1.5"],
    ["phase-diffused", "--r", "1.5", "--p", "0.5"],
    ["steady", "--gamma", "1", "--kappa", "1", "--format", "xml"],
    # domain errors, exit 3
    ["bell", "--J", "0.01", "--r", "400"],
    ["bell", "--J", "-1", "--r", "1"],
    ["werner", "--r", "-1", "--p", "0.5", "--J", "0.01"],
    ["werner", "--r", "1.5", "--p", "2", "--J", "0.01"],
    ["werner", "--r", "1.5", "--finite-dim", "1"],
    ["coeffs", "--kappa", "1", "--gamma", "1", "--t-max", "1",
     "--t-count", "1"],
    ["steady", "--gamma", "-1", "--kappa", "1"],
    ["maximize", "--free", "J", "--r", "1.5"],
    ["maximize", "--free", "J,x", "--r", "1.5"],
    ["maximize", "--free", "r", "--J", "0.01", "--d", "0", "--nbar", "0",
     "--r-bounds", "0", "inf"],
    ["phase-diffused", "--slope", "--p", "0.5", "--r", "400"],
]


def commands() -> list:
    """Every argv of the corpus, in order, without repeats."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    from workloads import argv_of, cli_round

    json_too = [["figure", str(k)] for k in range(1, 6)]
    for seed in (1, 2, 3):
        json_too += [argv_of(kind, params, "csv")
                     for kind, params, _ in cli_round(np.random.default_rng(seed))]
    for family, values in THRESHOLD_R.items():
        json_too += [[family, "--threshold", "--r", r] for r in values]
    argvs = [a for argv in json_too for a in (argv, argv + ["--format", "json"])]
    argvs += [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    argvs += EXTRA
    unique = {tuple(argv): None for argv in argvs}
    return [list(argv) for argv in unique]


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``cvbell`` with ``argv``, in process."""
    from cvbell.cli import main

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry(argv: list) -> dict:
    code, out, err = run(argv)
    return {"argv": list(argv), "exit": code, "stdout": digest(out),
            "stderr": digest(err)}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def moved(old: list, new: list) -> list:
    """One line per command whose exit code or hashes differ between the
    entry lists ``old`` and ``new``, or that only one of them has."""
    before = {tuple(e["argv"]): e for e in old}
    after = {tuple(e["argv"]): e for e in new}
    lines = []
    for argv in {**before, **after}:
        if argv not in after:
            what = "removed"
        elif argv not in before:
            what = "added"
        else:
            what = ", ".join(k for k in ("exit", "stdout", "stderr")
                             if before[argv][k] != after[argv][k])
        if what:
            lines.append(f"{what}: {' '.join(argv)}")
    return lines


def main() -> None:
    entries = [entry(argv) for argv in commands()]
    old = []
    if os.path.exists(CORPUS):
        with open(CORPUS) as fh:
            old = json.load(fh)["commands"]
    for line in moved(old, entries):
        print(line)
    lines = [json.dumps(e) for e in entries]
    with open(CORPUS, "w") as fh:
        fh.write('{"versions": ' + json.dumps(versions())
                 + ',\n "commands": [\n  ' + ",\n  ".join(lines) + "\n]}\n")
    print(f"wrote {len(lines)} commands to {CORPUS}")


if __name__ == "__main__":
    main()
