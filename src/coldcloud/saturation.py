"""Saturated (nonlinear) effective atom number, sigma_s(t).

When the probe drives the atoms hard, the polarizability of an atom at
local saturation s is reduced by 1/(1+2s), so bright on-axis atoms count
less than atoms in the wings.  The general evaluation is the longitudinal
rule of the linear sigma over saturated layers.  A weakly saturated layer
expands the response in powers of the on-axis saturation, each term being
the unsaturated layer density at a beam size shrunk by the term order; a
strongly saturated one is a fixed radial rule, the angle about the beam
axis being done in closed form.  In the joint limit of a small waist and a
long Rayleigh length the whole sum collapses to a logarithm.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import i0e

from .beam import beam_section, beam_size
from .cloud import _check_time, _spread_sq, density
from .effnum import (
    EffNumInputs,
    _field_shift,
    _layer_density_weighted,
    _longitudinal_rule,
    sigma_small_waist,
)
from .optical import OpticalParams, polarizability

__all__ = [
    "OpticalParams",
    "polarizability",
    "saturation_on_axis",
    "sigma_saturated_closed",
    "sigma_saturated_general",
    "nonlinear_field_shift",
]

# the alternating saturation series converges geometrically below this
# value of 2*s_m; beyond it each layer is a radial integral
_SERIES_THRESHOLD = 0.8
_SERIES_RTOL = 1e-12
# below the threshold its terms shrink by a factor 2*s_m < 0.8 or more per
# order and the alternating sum is at least (1 - 0.8) of its first term, so
# this many orders always reach _SERIES_RTOL
_SERIES_ORDERS = math.ceil(math.log(_SERIES_RTOL * (1.0 - _SERIES_THRESHOLD))
                           / math.log(_SERIES_THRESHOLD))
# Gauss-Legendre rule of the radial layer integral, on [-1, 1]
_RADIAL_NODES, _RADIAL_WEIGHTS = leggauss(64)


def saturation_on_axis(opt: OpticalParams, b, x):
    """On-axis saturation parameter at longitudinal position x.

    The local intensity scales as 1/S(x), so s_m(x) = s_m0 * w0^2/w(x)^2:
    largest at the waist and vanishing far outside the Rayleigh range.
    """
    x = np.asarray(x, dtype=float)
    out = opt.s_m0 * (b.w0 / np.asarray(beam_size(b, x))) ** 2
    return out if out.ndim else float(out)


def _log_reduction(s_m0: float) -> float:
    """ln(1+2s)/(2s), continuously extended to 1 at s = 0."""
    if s_m0 == 0.0:
        return 1.0
    return math.log1p(2.0 * s_m0) / (2.0 * s_m0)


def sigma_saturated_closed(inp: EffNumInputs, opt: OpticalParams, t):
    """Closed saturated sigma for a small waist and long Rayleigh length.

    sigma_s(t) = sigma(t) * ln(1+2*s_m0)/(2*s_m0) with the small-waist
    sigma as base, so saturation rescales the curve without changing its
    time dependence.
    """
    out = np.asarray(sigma_small_waist(inp, t)) * _log_reduction(opt.s_m0)
    return out if out.ndim else float(out)


def _saturated_layer_series(inp: EffNumInputs, s_m, x, t):
    """Saturation expansion of the weighted layer density at nodes x.

    Alternating series with terms (-2*s_m)^k times the layer density for
    weight power k+1; term magnitudes decrease, so the truncation error is
    bounded by the first dropped term.  Each node keeps its partial sum
    from its first term within _SERIES_RTOL of that sum on.
    """
    factor = -2.0 * np.asarray(s_m, dtype=float)
    coeff = np.ones_like(factor)
    total = np.zeros_like(factor)
    running = np.ones(factor.shape, dtype=bool)
    for k in range(_SERIES_ORDERS + 1):
        term = coeff * _layer_density_weighted(inp, x, t, float(k + 1))
        total = np.where(running, total + term, total)
        running &= np.abs(term) > _SERIES_RTOL * np.abs(total)
        if not running.any():
            break
        coeff = coeff * factor
    return total if total.ndim else float(total)


def _saturated_layer_quadrature(inp: EffNumInputs, s_m, x, t):
    """Radial integral of f/(1+2*s_m*f) * density over transverse layers.

    The weight is symmetric about the beam axis and the cloud Gaussian sits
    a distance d = g*t^2/2 off it, so the angle integrates in closed form
    to 2*pi*exp(-(r-d)^2/(2*var))*I0(r*d/var) (Abramowitz & Stegun 9.6)
    and one integral over r remains, taken by a 64-node Gauss-Legendre
    rule.  It stops ten product widths beyond the peak of the weight
    (standard width w/2) times the cloud.  Elementwise over nodes x.
    """
    c = inp.cloud
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    w = np.asarray(beam_size(inp.beam, x))
    var = _spread_sq(c, t)
    d = 0.5 * c.g * t**2
    inv_w_sq = 2.0 / (w * w)
    inv_var = 1.0 / var
    # weight (variance w^2/4) times cloud (variance var, centred at d) is a
    # Gaussian of precision prec peaking at d/(var*prec)
    prec = 2.0 * inv_w_sq + inv_var
    r_hi = (d * inv_var + 10.0 * np.sqrt(prec)) / prec
    # the density on the fallen cloud's axis at this x
    norm = density(c, np.stack([x, np.zeros_like(x), -d], axis=-1), t)
    two_s = 2.0 * np.asarray(s_m, dtype=float)[..., None]
    half = 0.5 * r_hi[..., None]
    r = half * (1.0 + _RADIAL_NODES)
    f = np.exp(-r * r * inv_w_sq[..., None])
    ring = (r * np.exp(-0.5 * (r - d[..., None]) ** 2 * inv_var[..., None])
            * i0e(r * (d * inv_var)[..., None]))
    value = np.sum(f / (1.0 + two_s * f) * ring * (half * _RADIAL_WEIGHTS), axis=-1)
    out = 2.0 * math.pi * norm * value
    return out if out.ndim else float(out)


def sigma_saturated_general(inp: EffNumInputs, opt: OpticalParams, t):
    """Saturated sigma by the longitudinal rule over the saturated layers.

    Each layer uses the power series in -2*s_m(x) while 2*s_m(x) is below
    0.8 (the series alternates and converges geometrically there) and the
    radial rule beyond, where the expansion no longer converges.  Accepts
    scalar or array t.
    """
    t = _check_time(t)
    x, dx = _longitudinal_rule(inp, t)
    t_x = np.broadcast_to(t[..., None], x.shape)
    s_m = saturation_on_axis(opt, inp.beam, x)
    series = 2.0 * s_m < _SERIES_THRESHOLD
    layer = np.empty_like(x)
    layer[series] = _saturated_layer_series(inp, s_m[series], x[series], t_x[series])
    layer[~series] = _saturated_layer_quadrature(inp, s_m[~series], x[~series], t_x[~series])
    out = np.sum(layer / beam_section(inp.beam, x) * dx, axis=-1)
    return out if out.ndim else float(out)


def nonlinear_field_shift(inp: EffNumInputs, opt: OpticalParams, t) -> complex:
    """Fractional field change dA/A with the saturated atomic response.

    -(3*lambda^2/(4*pi)) * sigma_s(t) / (1 + i*delta), using the general
    saturated sigma.  At s_m0 = 0 this equals the linear field shift, and
    its magnitude never exceeds the linear one.
    """
    return _field_shift(inp.beam, opt, sigma_saturated_general(inp, opt, t))
