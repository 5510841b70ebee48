"""Cavity observables driven by the effective atom number.

With the cloud inside an optical cavity, the atoms' dispersive phase shift
moves the cavity resonance.  The cooperativity converts the weighted atom
number into a coupling strength, the detuning shift is its dispersive-limit
readout, and the atom-number noise spectrum maps directly onto a
cavity-detuning noise spectrum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .beam import BeamParams, beam_section
from .cloud import _check_fields, _checked
from .effnum import EffNumInputs, _coupling_area
from .fluct import mean_number, normalized_spectrum
from .optical import OpticalParams

__all__ = [
    "CavityParams",
    "cooperativity",
    "detuning_shift",
    "detuning_spectrum",
    "is_linear_regime",
]

# |delta| below this triggers a dispersive-regime warning; the formulas stay
# evaluable since the limit is a regime statement, not a domain constraint
_DISPERSIVE_DELTA = 3.0


@dataclass(frozen=True)
class CavityParams:
    """Cavity field decay rate and round-trip time.

    2*kappa*tau_c is the intensity transmission of the coupling mirror and
    must lie in (0, 1].
    """

    kappa: float
    tau_c: float

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.tau_c > 0:
            raise ValueError(f"tau_c must be positive, got {self.tau_c}")
        transmission = 2.0 * self.kappa * self.tau_c
        if not 0.0 < transmission <= 1.0:
            raise ValueError(
                f"2*kappa*tau_c = {transmission:g} is not a mirror transmission in (0, 1]"
            )


def _coupling_per_atom(b: BeamParams) -> float:
    """Geometric single-pass coupling 3*lambda^2/(4*pi*S) at the waist."""
    return _coupling_area(b) / beam_section(b, 0.0)


def cooperativity(cav: CavityParams, b: BeamParams, n):
    """Cooperativity C = (3*lambda^2/(4*pi*S)) * n / (2*kappa*tau_c).

    Linear in the effective atom number n; the waist section S enters
    because the coupling concentrates on the beam area.  Elementwise in n:
    an array keeps its shape, a scalar returns a float.
    """
    out = _coupling_per_atom(b) * _checked(n, "n", 0.0) / (2.0 * cav.kappa * cav.tau_c)
    return out if out.ndim else float(out)


def _check_dispersive(opt: OpticalParams) -> None:
    """Reject delta = 0; warn at the public function's caller (stacklevel
    3) for a small |delta|, so each public function calls this itself."""
    if opt.delta == 0:
        raise ValueError("detuning shift is undefined at delta = 0 (dispersive formula)")
    if abs(opt.delta) < _DISPERSIVE_DELTA:
        warnings.warn(
            f"|delta| = {abs(opt.delta):g} is small for the dispersive regime; "
            "the detuning formulas assume delta^2 >> 1",
            stacklevel=3,
        )


def detuning_shift(cav: CavityParams, b: BeamParams, opt: OpticalParams, n):
    """Cavity detuning shift 2*kappa*C/delta induced by n effective atoms.

    Equivalently (3*lambda^2/(4*pi*S)) * n / (delta*tau_c); flips sign with
    the detuning.  Units rad/s.  Elementwise in n, as cooperativity.
    """
    _check_dispersive(opt)
    return 2.0 * cav.kappa * cooperativity(cav, b, n) / opt.delta


def detuning_spectrum(cav: CavityParams, opt: OpticalParams, inp: EffNumInputs, T, omega):
    """Noise spectrum of the cavity detuning at fall time T (rad/s).

    Assembled as (3*lambda^2/(4*pi*S))^2 * S_NN(T, omega)/(delta*tau_c)^2
    with the number spectrum built from the variance at T and the
    normalized spectral shape.  Equivalently
    kappa*(C(T)/delta^2)*(3*lambda^2/(4*pi*S))*normalized/tau_c in terms of
    the cooperativity at T.  The coupling and the spectrum both belong to
    the probe beam of ``inp``.  T and omega broadcast against each other;
    scalar inputs return a float.
    """
    _check_dispersive(opt)
    return _detuning_noise(cav, opt, inp, T, omega)


def _detuning_noise(cav: CavityParams, opt: OpticalParams, inp: EffNumInputs, T, omega):
    """detuning_spectrum without the dispersive-regime check."""
    coupling = _coupling_per_atom(inp.beam)
    s_nn = 0.5 * mean_number(inp, T) * normalized_spectrum(inp, T, omega)
    out = coupling**2 * s_nn / (opt.delta * cav.tau_c) ** 2
    return out if np.ndim(out) else float(out)


def is_linear_regime(cav: CavityParams, opt: OpticalParams, inp: EffNumInputs, T):
    """Whether the detuning noise stays below the cavity rate kappa.

    The spectrum is even in omega and peaks at zero frequency, so the
    comparison max_omega S_phiphi < kappa reduces to the zero-frequency
    value.  True means detuning fluctuations act linearly on the cavity.
    An array of T gives a bool array of its shape; a scalar T, a bool.
    """
    _check_dispersive(opt)
    out = _detuning_noise(cav, opt, inp, T, 0.0) < cav.kappa
    return out if np.ndim(out) else bool(out)
