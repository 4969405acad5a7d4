"""Numeric policy of the package: one frozen constant per decision.

Kept free of numpy, like the rest of the command-line path, which
embeds every tolerance in its report metadata.  :class:`Tolerances` is
a frozen record (:mod:`cvbell._record`), and :meth:`Tolerances.as_dict`
lists the fields in declaration order, the order of the ``# tol_``
lines of every report.
"""

from __future__ import annotations

from ._record import frozen_record

__all__ = ["TOLERANCES", "Tolerances"]


@frozen_record
class Tolerances:
    """Numeric policy of the package, one named constant per decision.

    Every field is read by a runtime check of the package, and every
    report embeds them all, so changing one here changes it everywhere.
    The tolerances of the test oracles live with the oracles, in the
    test suite.
    """

    #: argument where bessel_i0_log switches from power series to asymptotics
    bessel_switch: float = 15.0
    #: absolute symmetry requirement on eigensolver input
    symmetry_abs: float = 1e-12
    #: absolute tolerance of structure checks on V-convention matrices
    pattern_abs: float = 1e-9
    #: tolerance of the parity-conjugation consistency check W = E V^-1 E
    conjugation_abs: float = 1e-10
    #: relative purity residual below which a state counts as pure
    purity_rel: float = 1e-10
    #: allowed gap between the normal-mode and closed-form separability
    #: routes, relative to 1 + min(s1, s2)
    route_agreement: float = 1e-9
    #: simplex diameter at which Nelder-Mead refinement stops
    simplex_diameter: float = 1e-6
    #: |B(0) - 2| below which a Bell curve counts as anchored
    anchor_abs: float = 1e-9
    #: internal check that mixture Bell values are affine in p, relative
    affine_mix_rel: float = 1e-12

    def as_dict(self) -> dict[str, float]:
        """Every tolerance by name, in field order."""
        return {name: getattr(self, name) for name in self._fields}


TOLERANCES = Tolerances()
