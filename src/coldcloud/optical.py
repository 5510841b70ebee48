"""Optical response of the atoms to the probe.

The atomic polarizability is kept dimensionless: 1/(1+i*delta) in the
linear regime, divided by (1+2s) when the local intensity saturates the
transition.  All apparatus constants (dipole moment, photon flux, decay
rate) are folded into the single on-axis saturation number ``s_m0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cloud import _check_fields, _checked

__all__ = ["OpticalParams", "polarizability"]


@dataclass(frozen=True)
class OpticalParams:
    """Dimensionless detuning and on-axis saturation at the waist.

    Attributes
    ----------
    delta : float
        Detuning of the laser from the atomic resonance in units of the
        dipole decay rate.  Positive below resonance.
    s_m0 : float
        Saturation parameter on the beam axis at the waist (x = 0).
    """

    delta: float
    s_m0: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.s_m0 < 0:
            raise ValueError(f"s_m0 must be nonnegative, got {self.s_m0}")


def polarizability(opt: OpticalParams, s_local: float) -> complex:
    """Dimensionless atomic polarizability at local saturation s_local.

    alpha = 1 / ((1 + i*delta) * (1 + 2*s_local)); at zero saturation and
    zero detuning this is 1 by convention.
    """
    _checked(s_local, "s_local", 0.0)
    return 1.0 / ((1.0 + 1j * opt.delta) * (1.0 + 2.0 * s_local))
