"""The package and every command but the multi-parameter maximiser start
without numpy, and every command without ``dataclasses`` and ``inspect``;
only JSON output loads ``json``.

Each check runs in a fresh interpreter, because this test process has
all of them loaded already.
"""

import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

NUMPY_FREE_COMMANDS = [
    ["coeffs", "--r", "1.5", "--d", "1", "--nbar", "0.5"],
    ["coeffs", "--kappa", "0.75", "--gamma", "1", "--t-max", "2",
     "--t-count", "5"],
    ["coeffs", "--r", "20", "--d", "1", "--format", "json"],
    ["separability", "--r", "1", "--d", "2", "--nbar", "1"],
    ["bell", "--J", "0.01", "--r", "1.5", "--d", "0.1"],
    ["steady", "--gamma", "3", "--kappa", "1", "--nbar", "0.5"],
    ["steady", "--gamma", "1", "--kappa", "1"],
    ["werner", "--r", "1.5", "--p", "0.95", "--J", "0.01"],
    ["werner", "--r", "1.5", "--finite-dim", "2"],
    ["figure", "1"],
    ["maximize", "--free", "J", "--r", "1.5", "--d", "0", "--nbar", "0"],
    ["maximize", "--free", "J", "--r", "1.5", "--d", "0.3", "--nbar", "0.2",
     "--j-bounds", "1e-6", "0.5", "--format", "json"],
    ["phase-diffused", "--slope", "--p", "0.5", "--r", "1.5"],
    # error paths too: exit 3 without numpy
    ["bell", "--J", "0.01", "--r", "400"],
    ["werner", "--r", "-1", "--p", "0.5", "--J", "0.01"],
    ["maximize", "--free", "J", "--r", "400", "--d", "0", "--nbar", "0"],
    ["maximize", "--free", "J", "--r", "1.5"],
    ["phase-diffused", "--slope", "--p", "0.5", "--r", "400"],
]


#: (argv, exit code) of the figure, threshold and phase-diffused Bell
#: commands, which run on the float curves of ``cvbell.curves``
CURVE_COMMANDS = [
    (["werner", "--threshold", "--r", "1.5"], 0),
    (["werner", "--threshold", "--r", "4.5", "--format", "json"], 0),
    (["phase-diffused", "--threshold", "--r", "1.5"], 0),
    (["phase-diffused", "--threshold", "--r", "0.3", "--format", "json"], 0),
    (["phase-diffused", "--r", "1.5", "--p", "0.5", "--J", "0.01"], 0),
    (["phase-diffused", "--r", "0.3", "--p", "0.9", "--J", "0.5",
      "--format", "json"], 0),
    (["figure", "2"], 0),
    (["figure", "3"], 0),
    (["figure", "4"], 0),
    (["figure", "5"], 0),
    (["figure", "2", "--format", "json"], 0),
    (["figure", "3", "--format", "json"], 0),
    (["figure", "4", "--format", "json"], 0),
    (["figure", "5", "--format", "json"], 0),
    # domain errors exit 3 without numpy too
    (["werner", "--threshold", "--r", "-1"], 3),
    (["phase-diffused", "--threshold", "--r", "-1"], 3),
    (["werner", "--threshold", "--r", "400"], 3),
    (["phase-diffused", "--threshold", "--r", "400"], 3),
    (["phase-diffused", "--r", "400", "--p", "0.5", "--J", "0.01"], 3),
]


def lean_check(argv=()) -> str:
    """Code that asserts that the interpreter has loaded none of numpy,
    dataclasses and inspect, and no json unless ``argv`` asks for JSON."""
    heavy = ["numpy", "dataclasses", "inspect"]
    if "json" not in argv:
        heavy.append("json")
    return (f"loaded = [m for m in {heavy!r} if m in sys.modules]\n"
            "assert not loaded, f'{loaded} imported'\n")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS,
                         ids=[" ".join(a) for a in NUMPY_FREE_COMMANDS])
def test_single_point_command_loads_no_numpy(argv):
    proc = run_python(
        "import sys\n"
        "from cvbell.cli import main\n"
        f"code = main({argv!r})\n"
        "assert code in (0, 3), code\n"
        + lean_check(argv))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, expected", CURVE_COMMANDS,
                         ids=[" ".join(a) for a, _ in CURVE_COMMANDS])
def test_curve_command_loads_no_numpy(argv, expected):
    proc = run_python(
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from cvbell.cli import main\n"
        "with redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main({argv!r})\n"
        f"assert code == {expected}, code\n"
        "assert (out.getvalue().count('\\n') > 1) == (code == 0)\n"
        + lean_check(argv))
    assert proc.returncode == 0, proc.stderr


def test_import_cvbell_loads_no_numpy():
    proc = run_python(
        "import sys\n"
        "import cvbell\n"
        "from cvbell import (TOLERANCES, CrossCheckError,\n"
        "    MaximizeResult, MixtureSpec, NormalModes, ReportRecord,\n"
        "    SqueezedStateParams, Tolerances, finite_dim_werner_threshold,\n"
        "    maximize_over_j, mixture_slope, render, separability_closed_pair)\n"
        "assert NormalModes is cvbell.modes.NormalModes\n"
        + lean_check())
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    proc = run_python(
        "import cvbell\n"
        "missing = [n for n in cvbell.__all__ if not hasattr(cvbell, n)]\n"
        "assert not missing, missing\n"
        "assert len(set(cvbell.__all__)) == len(cvbell.__all__)\n")
    assert proc.returncode == 0, proc.stderr


def test_every_submodule_name_resolves():
    # runs in this process: the names, not the imports, are under test
    import cvbell

    modules = {name: importlib.import_module(f"cvbell.{name}")
               for name in cvbell._SUBMODULES}
    missing = [f"{name}.{n}" for name, module in modules.items()
               for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, missing


def test_star_import():
    proc = run_python(
        "import cvbell\n"
        "namespace = {}\n"
        "exec('from cvbell import *', namespace)\n"
        "assert set(cvbell.__all__) <= set(namespace)\n"
        "assert namespace['maximize_bell'] is cvbell.bell.maximize_bell\n"
        "assert namespace['SqueezedStateParams'] is "
        "cvbell.phase_space.SqueezedStateParams\n")
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises_attribute_error():
    import cvbell

    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        cvbell.nonexistent


def test_curves_and_mixture_values_load_no_numpy():
    proc = run_python(
        "import sys\n"
        "from cvbell import ThresholdReport\n"
        "from cvbell.curves import violation_threshold\n"
        "from cvbell.modes import MixtureSpec, _i0e, mixture_correlations\n"
        "report = violation_threshold(1.5, kind='phase-diffused')\n"
        "assert isinstance(report, ThresholdReport)\n"
        "mixture_correlations(MixtureSpec(0.5, 1.5, 'phase-diffused'), 0.01)\n"
        "assert 0 < _i0e(20.0) < 1\n"
        + lean_check())
    assert proc.returncode == 0, proc.stderr
