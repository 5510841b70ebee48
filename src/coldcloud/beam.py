"""Gaussian TEM00 probe-beam geometry.

The probe propagates along x.  Everything downstream counts atoms with the
transverse Gaussian weight of this beam, so the local beam size ``w(x)``, the
effective section ``S(x)`` and the weight ``f(r)`` defined here fix what
"effective atom number" means for the whole package.

All lengths are SI meters; positions are 3-vectors ``(x, y, z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import _check_fields

__all__ = [
    "BeamParams",
    "beam_size",
    "beam_section",
    "weight",
    "mode_amplitude",
]

_EXP_UNDERFLOW = -745.2  # exp(x) is 0.0 here and below; the least subnormal is exp(-744.44)


@dataclass(frozen=True)
class BeamParams:
    """Waist and wavelength of the TEM00 probe beam.

    Attributes
    ----------
    w0 : float
        Beam waist (1/e^2 intensity radius at the focus), m.
    wavelength : float
        Laser wavelength, m.
    """

    w0: float
    wavelength: float

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.w0 > 0:
            raise ValueError(f"w0 must be positive, got {self.w0}")
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        try:
            length = self.rayleigh_length
        except OverflowError:  # w0**2 beyond the float range
            length = math.inf
        if not 0 < length < math.inf:
            raise ValueError(f"w0 = {self.w0} gives a Rayleigh length pi*w0^2/wavelength "
                             f"that {'underflows to 0' if length == 0 else 'leaves the float range'}")

    @property
    def rayleigh_length(self) -> float:
        """Distance over which the beam section doubles, pi*w0^2/lambda."""
        return math.pi * self.w0**2 / self.wavelength


def beam_size(p: BeamParams, x):
    """Local 1/e^2 beam radius w(x) = w0*sqrt(1 + x^2/l_R^2).

    Even in x and never smaller than the waist.
    """
    x = np.asarray(x, dtype=float)
    out = p.w0 * np.sqrt(1.0 + (x / p.rayleigh_length) ** 2)
    return out if out.ndim else float(out)


def beam_section(p: BeamParams, x):
    """Effective beam section S(x) = pi*w(x)^2/2.

    This is the area that converts an on-axis column density into the
    equivalent number of uniformly weighted atoms.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * math.pi * np.asarray(beam_size(p, x)) ** 2
    return out if out.ndim else float(out)


def weight(p: BeamParams, r):
    """Transverse detection weight f(r) = exp(-2*(y^2+z^2)/w(x)^2).

    Equals 1 on the beam axis and decays monotonically with transverse
    radius.  ``r`` is a 3-vector or an array of shape (..., 3).

    At exponents <= -745.2, f is exact 0.0, what ``exp`` rounds to, without
    calling ``exp``: numpy's SIMD exp is ~25x slower on underflowing
    arguments, which points far off the beam axis give.  NaN stays NaN.
    """
    r = np.asarray(r, dtype=float)
    expo = -2.0 * (r[..., 1] ** 2 + r[..., 2] ** 2) / np.asarray(beam_size(p, r[..., 0])) ** 2
    out = np.zeros_like(expo)
    np.exp(expo, out=out, where=~(expo <= _EXP_UNDERFLOW))
    return out if out.ndim else float(out)


def mode_amplitude(p: BeamParams, r):
    """Normalized transverse mode u(r), complex with units 1/m.

    The modulus satisfies |u|^2 = f(r)/S(x), so the transverse integral of
    |u|^2 is 1 at every x.  The phase collects the plane-wave propagation
    term, the Gouy term and the wavefront-curvature term; only the modulus
    feeds the rest of the package.
    """
    r = np.asarray(r, dtype=float)
    x = r[..., 0]
    rho2 = r[..., 1] ** 2 + r[..., 2] ** 2
    w = np.asarray(beam_size(p, x))
    l_r = p.rayleigh_length
    lam = p.wavelength
    phase = (
        -2.0 * math.pi * x / lam
        + np.arctan(x / l_r)
        - math.pi / lam * rho2 * x / (x**2 + l_r**2)
    )
    out = math.sqrt(2.0 / math.pi) / w * np.exp(-rho2 / w**2 - 1j * phase)
    return out if out.ndim else complex(out)
