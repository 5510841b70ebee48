"""Saturated (nonlinear) effective atom number, sigma_s(t).

When the probe drives the atoms hard, the polarizability of an atom at
local saturation s is reduced by 1/(1+2s), so bright on-axis atoms count
less than atoms in the wings.  The general evaluation expands the response
in powers of the on-axis saturation, each term being the unsaturated layer
density at a beam size shrunk by the term order; strong saturation uses a
radial integral over the layer, the angle about the beam axis being done
in closed form.  In the joint limit of a small waist and a long Rayleigh
length the whole sum collapses to a logarithm.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.special import i0e

from .beam import beam_section, beam_size
from .cloud import _check_time, _spread_sq, density
from .effnum import EffNumInputs, _field_shift, _layer_density_weighted, sigma_small_waist
from .exceptions import QuadratureError
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
# relative tolerances of the longitudinal integral and of each radial layer
_RTOL = 1e-9
_LAYER_RTOL = 1e-11


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


def _saturated_layer_series(inp: EffNumInputs, s_m: float, x: float, t: float) -> float:
    """Saturation expansion of the weighted layer density at one x.

    Alternating series with terms (-2*s_m)^k times the layer density for
    weight power k+1; term magnitudes decrease, so the truncation error is
    bounded by the first dropped term.
    """
    factor = -2.0 * s_m
    coeff = 1.0
    total = 0.0
    for k in range(_SERIES_ORDERS + 1):
        term = coeff * _layer_density_weighted(inp, x, t, float(k + 1))
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            return total
        coeff *= factor
    raise QuadratureError(
        f"saturation series did not converge at x={x:g} (2*s_m={2 * s_m:g})",
        abs(term) / abs(total) if total else math.inf,
    )


def _saturated_layer_quadrature(inp: EffNumInputs, s_m: float, x: float, t: float) -> float:
    """Radial integral of f/(1+2*s_m*f) * density over one transverse layer.

    The weight is symmetric about the beam axis and the cloud Gaussian sits
    a distance d = g*t^2/2 off it, so the angle integrates in closed form
    to 2*pi*exp(-(r-d)^2/(2*var))*I0(r*d/var) (Abramowitz & Stegun 9.6)
    and one integral over r remains.  It stops ten product widths beyond
    the peak of the weight (standard width w/2) times the cloud.
    """
    c = inp.cloud
    w = beam_size(inp.beam, x)
    var = _spread_sq(c, t)
    d = 0.5 * c.g * t**2
    inv_w_sq = 2.0 / (w * w)
    inv_var = 1.0 / var
    # weight (variance w^2/4) times cloud (variance var, centred at d) is a
    # Gaussian of precision prec peaking at d/(var*prec)
    prec = 2.0 * inv_w_sq + inv_var
    r_hi = (d * inv_var + 10.0 * math.sqrt(prec)) / prec
    # the density on the fallen cloud's axis at this x
    norm = density(c, (x, 0.0, -d), t)
    two_s = 2.0 * s_m

    def integrand(r: float) -> float:
        f = math.exp(-r * r * inv_w_sq)
        ring = r * math.exp(-0.5 * (r - d) ** 2 * inv_var) * i0e(r * d * inv_var)
        return f / (1.0 + two_s * f) * ring

    value, _ = quad(integrand, 0.0, r_hi, epsabs=0.0, epsrel=_LAYER_RTOL)
    return 2.0 * math.pi * norm * value


def _sigma_saturated_at(inp: EffNumInputs, opt: OpticalParams, t: float) -> float:
    """Longitudinal quadrature of the saturated layers over beam section at one t."""
    beam = inp.beam
    half_width = 10.0 * math.sqrt(_spread_sq(inp.cloud, t))

    def integrand(x: float) -> float:
        s_m = saturation_on_axis(opt, beam, x)
        if 2.0 * s_m < _SERIES_THRESHOLD:
            layer = _saturated_layer_series(inp, s_m, x, t)
        else:
            layer = _saturated_layer_quadrature(inp, s_m, x, t)
        return layer / beam_section(beam, x)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, abserr, info, *tail = quad(
            integrand, -half_width, half_width,
            epsabs=0.0, epsrel=_RTOL, limit=200, full_output=1,
        )
    achieved = abserr / abs(value) if value != 0 else math.inf
    if tail or achieved > 10.0 * _RTOL:
        raise QuadratureError(
            f"saturated sigma quadrature did not converge to {_RTOL:g} relative at t={t:g}",
            achieved,
        )
    return value


def sigma_saturated_general(inp: EffNumInputs, opt: OpticalParams, t):
    """Saturated sigma by longitudinal quadrature of the saturated layers.

    Each layer uses the power series in -2*s_m(x) while 2*s_m(x) is below
    0.8 (the series alternates and converges geometrically there) and a
    radial integral beyond, where the expansion no longer converges.
    Accepts scalar or array t; each time is its own adaptive quadrature.
    """
    t = _check_time(t)
    out = np.array([_sigma_saturated_at(inp, opt, ti) for ti in t.ravel().tolist()])
    out = out.reshape(t.shape)
    return out if out.ndim else float(out)


def nonlinear_field_shift(inp: EffNumInputs, opt: OpticalParams, t) -> complex:
    """Fractional field change dA/A with the saturated atomic response.

    -(3*lambda^2/(4*pi)) * sigma_s(t) / (1 + i*delta), using the general
    saturated sigma.  At s_m0 = 0 this equals the linear field shift, and
    its magnitude never exceeds the linear one.
    """
    return _field_shift(inp.beam, opt, sigma_saturated_general(inp, opt, t))
