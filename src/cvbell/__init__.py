"""Phase-space analysis of noisy two-mode squeezed light.

Exact Gaussian Wigner dynamics of a two-mode squeezing process with
internal damping, purity and separability verdicts, displaced-parity
Bell tests, and the Werner-type and phase-diffused mixtures built on
top of the squeezed state.  The ``cvbell`` console script exposes
everything as reproducible CSV/JSON reports.

Names are loaded on first use (PEP 562): ``import cvbell`` alone
imports no numpy, and neither do the numpy-free names (the errors,
reports, tolerances, the single-point core of :mod:`cvbell.modes`,
which includes the closed-form maximum over J, the small-J slope and
the mixtures' Bell values of :func:`cvbell.modes.mixture_correlations`,
and :mod:`cvbell.curves`, the float grids, curves and threshold report
of the figures and thresholds).  Each name loads from the module that
defines it.  Of the command-line paths only ``maximize`` with a state
parameter free loads numpy.  Every result class is a frozen record
(:mod:`cvbell._record`), so the package never imports the standard
library's data-class module, and ``json`` loads only to render JSON:
the numpy-free command-line paths import neither ``inspect`` nor,
without ``--format json``, ``json``.
"""

import importlib

__version__ = "0.1.0"

#: the module that defines each public name; the numpy-free ones point
#: at modules that do not import numpy
_HOMES = {
    "analysis": ("PurityReport", "SeparabilityMap", "SeparabilityReport",
                 "is_pure", "separability_eigenvalues", "separability_map"),
    "bell": ("BellEvaluation", "BellSettings", "BellSurface",
             "SlopeResult", "bell_closed_form",
             "bell_combination", "bell_surface", "maximize_bell",
             "model_evaluator", "parity_correlation", "small_j_slope"),
    "dynamics": ("SteadyStateReport", "coefficient_arrays",
                 "evolve_coefficients", "steady_state"),
    "curves": ("ThresholdReport",),
    "errors": ("CrossCheckError",),
    "mixtures": ("component_bell_curve", "mixture_bell",
                 "mixture_bell_curve", "mixture_evaluator", "mixture_wigner",
                 "phase_averaged_wigner", "pure_bell_curve",
                 "thermal_marginal", "werner_violation_threshold",
                 "werner_wigner"),
    "modes": ("MaximizeResult", "MixtureSpec", "NormalModes",
              "SqueezedStateParams", "finite_dim_werner_threshold",
              "maximize_over_j", "mixture_slope", "separability_closed_pair"),
    "numerics": ("bessel_i0_log", "nelder_mead_minimize",
                 "one_minus_exp_over", "sym4_eigenvalues"),
    "phase_space": ("CovarianceMatrix", "TwoModePoint", "nm_from_v",
                    "v_from_w", "w_matrix_from_form",
                    "wigner_gaussian_eval", "wigner_pure_2mss"),
    "reports": ("ReportRecord", "render", "to_csv", "to_json"),
    "tolerances": ("TOLERANCES", "Tolerances"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("analysis", "bell", "cli", "curves", "dynamics", "errors",
               "mixtures", "modes", "numerics", "phase_space", "reports",
               "tolerances")

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name in _HOME_OF:
        value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
