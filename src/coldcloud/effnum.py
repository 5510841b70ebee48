"""Effective atom number per beam section, sigma(t).

sigma(t) is the column of atoms seen by the probe, weighted transversally
by the beam profile and normalized by the local beam section.  It is what
a phase-shift measurement of the probe actually counts.  Besides the
general quadrature there are three closed forms, valid when the waist is
small against the cloud, when the Rayleigh length is long against the
cloud, and when the transit, expansion and fall times are well ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .beam import BeamParams, beam_section, beam_size
from .cloud import CloudParams, _ballistic_decay, _check_time, _spread_sq, time_scales
from .optical import OpticalParams

__all__ = [
    "EffNumInputs",
    "column_number_density",
    "layer_number_density",
    "sigma_general",
    "sigma_small_waist",
    "sigma_long_rayleigh",
    "sigma_high_temperature",
    "linear_field_shift",
]

# probabilists' Gauss-Hermite rule in units of the instantaneous cloud
# spread, with the weights turned into plain dx weights: the rule then
# applies directly to integrands that carry the cloud Gaussian in x
_HERMITE_NODES, _HERMITE_WEIGHTS = hermegauss(32)
_HERMITE_WEIGHTS = _HERMITE_WEIGHTS * np.exp(0.5 * _HERMITE_NODES**2)


@dataclass(frozen=True)
class EffNumInputs:
    """Cloud and beam bundle used by every sigma variant."""

    cloud: CloudParams
    beam: BeamParams


def column_number_density(inp: EffNumInputs, x, t):
    """Atoms per unit length of the whole cloud in the slab at x (atoms/m).

    Gaussian in x with the instantaneous cloud spread; integrates to the
    total atom number at every time.
    """
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    c = inp.cloud
    var = _spread_sq(c, t)
    out = c.n_total / np.sqrt(2.0 * math.pi * var) * np.exp(-(x**2) / (2.0 * var))
    return out if out.ndim else float(out)


def _layer_density_weighted(inp: EffNumInputs, x, t, weight_power: float = 1.0):
    """Atoms per unit length seen with weight f^j in the slab at x.

    Raising the Gaussian weight to the power j shrinks the squared beam
    size by j, so the transverse overlap integral keeps one shared form:
    column density times (w^2/j) / (4*spread^2 + w^2/j), with a fall factor
    from the cloud center dropping out of the beam.
    """
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    c = inp.cloud
    w2 = np.asarray(beam_size(inp.beam, x)) ** 2 / weight_power
    denom = 4.0 * _spread_sq(c, t) + w2
    overlap = w2 / denom
    if c.has_gravity:
        fall = np.exp(-0.5 * c.g**2 * t**4 / denom)
    else:
        fall = 1.0
    out = column_number_density(inp, x, t) * overlap * fall
    return out if out.ndim else float(out)


def layer_number_density(inp: EffNumInputs, x, t):
    """Atoms per unit length inside the detection beam at x (atoms/m).

    The transverse weight makes this at most the full column density,
    reaching it only in the wide-beam limit.
    """
    return _layer_density_weighted(inp, x, t, 1.0)


def sigma_general(inp: EffNumInputs, t):
    """sigma(t) by Gauss-Hermite quadrature of layer density / beam section.

    The layer density is the cloud Gaussian in x times a factor that, for a
    paraxial beam (w0 >= lambda), varies over at least 2*pi cloud spreads,
    so a fixed 32-node rule reaches rounding error for any waist-to-cloud
    and cloud-to-Rayleigh ratio.  Accepts scalar or array t.
    """
    t = _check_time(t)
    spread = np.sqrt(_spread_sq(inp.cloud, t))[..., None]
    x = spread * _HERMITE_NODES
    integrand = _layer_density_weighted(inp, x, t[..., None]) / beam_section(inp.beam, x)
    out = spread[..., 0] * (integrand @ _HERMITE_WEIGHTS)
    return out if out.ndim else float(out)


def _lorentzian_sigma(c: CloudParams, offset_sq: float, t, tau_g: float) -> np.ndarray:
    """N/(2*pi*sigma_v^2) times the ballistic decay: the closed forms' shape."""
    return _ballistic_decay(c.n_total / (2.0 * math.pi * c.sigma_v**2), offset_sq, t, tau_g)


def sigma_small_waist(inp: EffNumInputs, t):
    """Closed form for a waist much smaller than the cloud radius.

    sigma(t) = N / (2*pi*sigma_v^2*(tau_r^2+t^2)) times the gravity factor
    exp[-t^4/(tau_g^2*(tau_r^2+t^2))].  The beam size drops out entirely.
    """
    t = _check_time(t)
    ts = time_scales(inp.cloud, inp.beam)
    out = _lorentzian_sigma(inp.cloud, ts.tau_r**2, t, ts.tau_g)
    return out if np.ndim(out) else float(out)


def sigma_long_rayleigh(inp: EffNumInputs, t):
    """Closed form for a Rayleigh length much longer than the cloud.

    Same shape as the small-waist form with tau_r^2 promoted to
    tau_r^2 + tau_w^2: a wide beam smooths the decay over the transit
    time through the waist.  Reduces to the small-waist form as
    tau_w -> 0.
    """
    t = _check_time(t)
    ts = time_scales(inp.cloud, inp.beam)
    out = _lorentzian_sigma(inp.cloud, ts.tau_r**2 + ts.tau_w**2, t, ts.tau_g)
    return out if np.ndim(out) else float(out)


def sigma_high_temperature(inp: EffNumInputs, t):
    """Single formula for the ordering tau_w << tau_r << tau_g.

    Lorentzian ballistic decay times a plain Gaussian fall factor
    exp(-t^2/tau_g^2); coincides with the small-waist form when g = 0 and
    approximates it to first order in tau_r^2/tau_g^2 otherwise.
    """
    t = _check_time(t)
    ts = time_scales(inp.cloud, inp.beam)
    out = _lorentzian_sigma(inp.cloud, ts.tau_r**2, t, math.inf)
    if inp.cloud.has_gravity:
        out = out * np.exp(-(t**2) / ts.tau_g**2)
    return out if np.ndim(out) else float(out)


def _coupling_area(b: BeamParams) -> float:
    """Dispersive single-atom coupling 3*lambda^2/(4*pi), half the resonant
    cross section (m^2)."""
    return 3.0 * b.wavelength**2 / (4.0 * math.pi)


def _field_shift(b: BeamParams, opt: OpticalParams, sigma):
    """-(3*lambda^2/(4*pi)) * sigma / (1 + i*delta) for atoms per section sigma."""
    return -_coupling_area(b) * sigma / (1.0 + 1j * opt.delta)


def linear_field_shift(inp: EffNumInputs, opt: OpticalParams, t) -> complex:
    """Fractional field change dA/A from the linear atomic response.

    Returns -(3*lambda^2/(4*pi)) * sigma(t) / (1 + i*delta), computed from
    the general sigma quadrature.  The imaginary part is the phase shift;
    twice the real part is the fractional intensity change, reproducing the
    resonant cross section 3*lambda^2/(2*pi) divided by 1+delta^2.
    """
    return _field_shift(inp.beam, opt, sigma_general(inp, t))
