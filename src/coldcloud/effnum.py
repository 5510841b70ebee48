"""Effective atom number per beam section, sigma(t).

sigma(t) is the column of atoms seen by the probe, weighted transversally
by the beam profile and normalized by the local beam section.  It is what
a phase-shift measurement of the probe actually counts.  Besides the
general quadrature, a fixed longitudinal rule shared with the saturated
sigma, there are three closed forms, valid when the waist is small against
the cloud, when the Rayleigh length is long against the cloud, and when
the transit, expansion and fall times are well ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .beam import BeamParams, beam_section, beam_size
from .cloud import CloudParams, _ballistic_decay, _checked, _fall_exponent, _spread_sq, time_scales
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

# Gauss-Legendre rule in v for x = l_R*sinh(v), on |v| <= asinh(10*spread/l_R)
_LONGITUDINAL_NODES, _LONGITUDINAL_WEIGHTS = leggauss(96)


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
    t = _checked(t, "t", 0.0)
    x = np.asarray(x, dtype=float)
    c = inp.cloud
    var = _spread_sq(c, t)
    out = c.n_total / np.sqrt(2.0 * math.pi * var) * np.exp(-(x**2) / (2.0 * var))
    return out if out.ndim else float(out)


def _layer_densities(inp: EffNumInputs, x, t):
    """j -> atoms per unit length seen with weight f^j in the slab at x.

    Raising the Gaussian weight to the power j shrinks the squared beam
    size by j, so the transverse overlap integral keeps one shared form:
    column density times (w^2/j) / (4*spread^2 + w^2/j), with a fall factor
    from the cloud center dropping out of the beam.  The time check, w(x)^2,
    4*spread^2, the negated fall exponent and the column density do not
    depend on j and are computed once per call; each j computes w^2/j, the
    denominator, the overlap and the fall factor.
    """
    t = _checked(t, "t", 0.0)
    x = np.asarray(x, dtype=float)
    c = inp.cloud
    w_sq = np.asarray(beam_size(inp.beam, x)) ** 2
    spread4 = 4.0 * _spread_sq(c, t)
    fall_exponent = -_fall_exponent(0.5 * (c.g * c.g), t**4)
    column = column_number_density(inp, x, t)

    def at_power(weight_power: float) -> np.ndarray:
        w2 = w_sq / weight_power
        denom = spread4 + w2
        return column * (w2 / denom) * np.exp(fall_exponent / denom)

    return at_power


def layer_number_density(inp: EffNumInputs, x, t):
    """Atoms per unit length inside the detection beam at x (atoms/m).

    The transverse weight makes this at most the full column density,
    reaching it only in the wide-beam limit.
    """
    out = _layer_densities(inp, x, t)(1.0)
    return out if out.ndim else float(out)


def _longitudinal_rule(inp: EffNumInputs, t):
    """Nodes x and dx weights over the cloud, shape t.shape + (96,).

    The integrands carry the cloud Gaussian in x, cut at ten instantaneous
    spreads, and the beam's 1/(1 + (x/l_R)^2), whose poles at x = +-i*l_R
    set the scale of anything driven by the local intensity.  Substituting
    x = l_R*sinh(v) keeps those poles a fixed distance from the v axis
    (the sinh transformation of Johnston & Elliott, IJNME 62, 2005), so one
    Gauss-Legendre rule in v serves any ratio of Rayleigh length to cloud.
    """
    l_r = inp.beam.rayleigh_length
    half = np.arcsinh(10.0 * np.sqrt(_spread_sq(inp.cloud, t)) / l_r)[..., None]
    v = half * _LONGITUDINAL_NODES
    return l_r * np.sinh(v), half * _LONGITUDINAL_WEIGHTS * l_r * np.cosh(v)


def sigma_general(inp: EffNumInputs, t):
    """sigma(t) by the longitudinal rule over layer density / beam section.

    For a paraxial beam (w0 >= lambda) the rule reaches rounding error for
    any waist-to-cloud ratio and for clouds up to ~3e4 Rayleigh lengths
    wide: against adaptive quadrature on configs/default.json at g = 0 it
    is within 6.2e-15 up to t = 1e4 s (sigma_x/l_R = 2.7e4), and 1e-12 at
    t = 1e6 s.  Accepts scalar or array t.
    """
    t = _checked(t, "t", 0.0)
    x, dx = _longitudinal_rule(inp, t)
    out = _sum_over_sections(inp, _layer_densities(inp, x, t[..., None])(1.0), x, dx)
    return out if out.ndim else float(out)


def _sum_over_sections(inp: EffNumInputs, layer, x, dx) -> np.ndarray:
    """The longitudinal rule's sum of layer/S(x) dx over its last axis.

    A node whose beam section S(x) overflows adds 0, what a layer, at most
    the column density N/(sqrt(2 pi) sigma), over an infinite section is,
    even where inf/inf made its layer NaN.  That is a node far out in x, or
    every node once the cloud spread leaves the float range (x and dx are
    then inf).

    Each layer is scaled by the power of two of its dx before the division,
    and dx by the inverse: layer/S(x) alone underflows at large t where the
    term is still a normal float.  Where every step is normal, the scaling
    is exact, so the term is the same float as layer/S(x)*dx.
    """
    section = beam_section(inp.beam, x)
    finite = section < math.inf
    mantissa, exponent = np.frexp(dx)
    terms = np.divide(np.ldexp(layer, exponent), section, out=np.zeros(np.shape(x)), where=finite)
    np.multiply(terms, mantissa, out=terms, where=finite)
    return np.sum(terms, axis=-1)


def _lorentzian_sigma(c: CloudParams, offset_sq: float, t, tau_g: float) -> np.ndarray:
    """N/(2*pi*sigma_v^2) times the ballistic decay: the closed forms' shape."""
    return _ballistic_decay(c.n_total / (2.0 * math.pi * c.sigma_v**2), offset_sq, t, tau_g)


def sigma_small_waist(inp: EffNumInputs, t):
    """Closed form for a waist much smaller than the cloud radius.

    sigma(t) = N / (2*pi*sigma_v^2*(tau_r^2+t^2)) times the gravity factor
    exp[-t^4/(tau_g^2*(tau_r^2+t^2))].  The beam size drops out entirely.
    """
    t = _checked(t, "t", 0.0)
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
    t = _checked(t, "t", 0.0)
    ts = time_scales(inp.cloud, inp.beam)
    out = _lorentzian_sigma(inp.cloud, ts.tau_r**2 + ts.tau_w**2, t, ts.tau_g)
    return out if np.ndim(out) else float(out)


def sigma_high_temperature(inp: EffNumInputs, t):
    """Single formula for the ordering tau_w << tau_r << tau_g.

    Lorentzian ballistic decay times a plain Gaussian fall factor
    exp(-t^2/tau_g^2); coincides with the small-waist form when g = 0 and
    approximates it to first order in tau_r^2/tau_g^2 otherwise.
    """
    t = _checked(t, "t", 0.0)
    ts = time_scales(inp.cloud, inp.beam)
    # t^2/tau_g^2 is inf at t > 0 where tau_g^2 underflows to 0
    with np.errstate(divide="ignore"):
        fall = np.divide(t**2, ts.tau_g**2, out=np.zeros(t.shape), where=t > 0)
    out = _lorentzian_sigma(inp.cloud, ts.tau_r**2, t, math.inf) * np.exp(-fall)
    return out if np.ndim(out) else float(out)


def _coupling_area(b: BeamParams) -> float:
    """Dispersive single-atom coupling 3*lambda^2/(4*pi), half the resonant
    cross section (m^2)."""
    return 3.0 * b.wavelength**2 / (4.0 * math.pi)


def _field_shift(b: BeamParams, opt: OpticalParams, sigma):
    """-(3*lambda^2/(4*pi)) * sigma / (1 + i*delta) for atoms per section sigma."""
    return -_coupling_area(b) * sigma / (1.0 + 1j * opt.delta)


def linear_field_shift(inp: EffNumInputs, opt: OpticalParams, t):
    """Fractional field change dA/A from the linear atomic response.

    Returns -(3*lambda^2/(4*pi)) * sigma(t) / (1 + i*delta), computed from
    the general sigma quadrature.  The imaginary part is the phase shift;
    twice the real part is the fractional intensity change, reproducing the
    resonant cross section 3*lambda^2/(2*pi) divided by 1+delta^2.  A
    scalar t gives a complex, an array of t a complex array of its shape.
    """
    return _field_shift(inp.beam, opt, sigma_general(inp, t))
