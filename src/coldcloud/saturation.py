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
from .cloud import _check_time
from .effnum import (
    EffNumInputs,
    _layer_density_weighted,
    _spread_sq,
    sigma_small_waist,
)
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
_SERIES_CAP = 200


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
    for k in range(_SERIES_CAP + 1):
        term = coeff * _layer_density_weighted(inp, x, t, float(k + 1))
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            return total
        coeff *= factor
    raise QuadratureError(
        f"saturation series did not converge at x={x:g} (2*s_m={2 * s_m:g})",
        abs(term) / abs(total) if total else math.inf,
    )


def _saturated_layer_quadrature(
    inp: EffNumInputs, s_m: float, x: float, t: float, epsrel: float = 1e-10
) -> float:
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
    # the x slice of the density folded into the norm
    norm = c.n_total / (2.0 * math.pi * var) ** 1.5 * math.exp(-x * x / (2.0 * var))
    two_s = 2.0 * s_m

    def integrand(r: float) -> float:
        f = math.exp(-r * r * inv_w_sq)
        ring = r * math.exp(-0.5 * (r - d) ** 2 * inv_var) * i0e(r * d * inv_var)
        return f / (1.0 + two_s * f) * ring

    value, _ = quad(integrand, 0.0, r_hi, epsabs=0.0, epsrel=epsrel)
    return 2.0 * math.pi * norm * value


def sigma_saturated_general(inp: EffNumInputs, opt: OpticalParams, t, *, rel_tol: float = 1e-9) -> float:
    """Saturated sigma by longitudinal quadrature of the saturated layers.

    Each layer uses the power series in -2*s_m(x) while 2*s_m(x) is below
    0.8 (the series alternates and converges geometrically there) and a
    radial integral beyond, where the expansion no longer converges.
    """
    t = float(_check_time(t))
    beam = inp.beam
    half_width = 10.0 * math.sqrt(_spread_sq(inp.cloud, t))
    # the radial integral only needs to track the outer tolerance
    inner_epsrel = max(1e-13, min(1e-10, 0.01 * rel_tol))

    def integrand(x: float) -> float:
        s_m = saturation_on_axis(opt, beam, x)
        if 2.0 * s_m < _SERIES_THRESHOLD:
            layer = _saturated_layer_series(inp, s_m, x, t)
        else:
            layer = _saturated_layer_quadrature(inp, s_m, x, t, inner_epsrel)
        return layer / beam_section(beam, x)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, abserr, info, *tail = quad(
            integrand, -half_width, half_width,
            epsabs=0.0, epsrel=rel_tol, limit=200, full_output=1,
        )
    achieved = abserr / abs(value) if value != 0 else math.inf
    if tail or achieved > 10.0 * rel_tol:
        raise QuadratureError(
            f"saturated sigma quadrature did not converge to rel_tol={rel_tol:g} at t={t:g}",
            achieved,
        )
    return value


def nonlinear_field_shift(inp: EffNumInputs, opt: OpticalParams, t) -> complex:
    """Fractional field change dA/A with the saturated atomic response.

    -(3*lambda^2/(4*pi)) * sigma_s(t) / (1 + i*delta), using the general
    saturated sigma.  At s_m0 = 0 this equals the linear field shift, and
    its magnitude never exceeds the linear one.
    """
    sigma_s = sigma_saturated_general(inp, opt, t)
    lam = inp.beam.wavelength
    return -(3.0 * lam**2 / (4.0 * math.pi)) * sigma_s / (1.0 + 1j * opt.delta)
