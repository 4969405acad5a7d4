"""Numeric policy of the package: one frozen constant per decision.

Kept free of numpy so that the single-point command-line paths, which
embed every tolerance in their report metadata, start without it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["TOLERANCES", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    """Numeric policy of the package, one named constant per decision.

    The values are part of the contract: tests assert against them and
    reports embed them, so changing one here changes it everywhere.
    """

    #: argument where bessel_i0_log switches from power series to asymptotics
    bessel_switch: float = 15.0
    #: |p| below which (1 - exp(-p))/p uses its 6-term Taylor polynomial
    taylor_cutoff: float = 1e-4
    #: admissible jump across either branch switch, relative
    branch_continuity: float = 1e-15
    #: absolute symmetry requirement on eigensolver input
    symmetry_abs: float = 1e-12
    #: off-diagonal Frobenius residual at which Jacobi iteration stops
    jacobi_residual: float = 1e-12
    #: relative size at which the matrix-exponential series is truncated
    expm_series: float = 1e-18
    #: relative tolerance of the quadrature-weight sum against the measure
    weight_sum_rel: float = 1e-14
    #: absolute tolerance of structure checks on V-convention matrices
    pattern_abs: float = 1e-9
    #: tolerance of the parity-conjugation consistency check W = E V^-1 E
    conjugation_abs: float = 1e-10
    #: relative purity residual below which a state counts as pure
    purity_rel: float = 1e-10
    #: allowed gap between the normal-mode and closed-form separability
    #: routes, relative to 1 + min(s1, s2)
    route_agreement: float = 1e-9
    #: margin at or above which a state is classified separable
    boundary_margin: float = -1e-12
    #: elementwise covariance agreement, RK4 oracle vs closed form
    ode_compare_abs: float = 1e-6
    #: step-halving self-check threshold inside the covariance oracle
    ode_selfcheck_abs: float = 1e-8
    #: Green-function propagation vs closed form, elementwise
    green_compare_abs: float = 1e-10
    #: admissible defect of Wigner normalisation under 4-D quadrature
    quad_norm_abs: float = 1e-6
    #: phase-average quadrature vs Bessel closed form, absolute
    phase_average_abs: float = 1e-8
    #: marginal quadrature vs closed form, absolute
    marginal_abs: float = 1e-8
    #: four-point Bell assembly vs closed form, relative
    assembly_rel: float = 1e-12
    #: simplex diameter at which Nelder-Mead refinement stops
    simplex_diameter: float = 1e-6
    #: bisection width for the mixture violation threshold in p
    threshold_p_abs: float = 1e-4
    #: relative accuracy demanded of the small-J slope extraction
    slope_rel: float = 1e-3
    #: |B(0) - 2| below which a Bell curve counts as anchored
    anchor_abs: float = 1e-9
    #: internal check that mixture Bell values are affine in p, relative
    affine_mix_rel: float = 1e-12

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


TOLERANCES = Tolerances()
