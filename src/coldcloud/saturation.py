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

from .beam import beam_section, beam_size
from .cloud import _checked, _spread_sq, density
from .effnum import (
    EffNumInputs,
    _field_shift,
    _layer_densities,
    _longitudinal_rule,
    _sum_over_sections,
    sigma_small_waist,
)
from .optical import OpticalParams

__all__ = [
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

# Chebyshev coefficients of exp(-x) I0(x) (Cephes i0.c, the expansions
# np.i0 also uses): in x/2 - 2 on [0, 8], and of sqrt(x) exp(-x) I0(x) in
# 32/x - 2 on (8, inf)
_I0E_SMALL = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17,
    -2.43127984654795469359E-16, 1.71539128555513303061E-15,
    -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12,
    -1.72682629144155570723E-11, 9.67580903537323691224E-11,
    -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8,
    -2.67079385394061173391E-7, 1.11738753912010371815E-6,
    -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4,
    -5.76375574538582365885E-4, 1.63947561694133579842E-3,
    -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2,
    -9.49010970480476444210E-2, 1.71620901522208775349E-1,
    -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0E_LARGE = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18,
    4.46562142029675999901E-17, 3.46122286769746109310E-17,
    -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15,
    -9.55484669882830764870E-15, -4.15056934728722208663E-14,
    1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12,
    -1.32158118404477131188E-11, -3.14991652796324136454E-11,
    1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8,
    2.04891858946906374183E-7, 2.89137052083475648297E-6,
    6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def _chebyshev(y, coeffs):
    """Chebyshev series at y by the Clenshaw recurrence of Cephes chbevl."""
    b0, b1, b2 = coeffs[0], 0.0, 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0e(x) -> np.ndarray:
    """Exponentially scaled Bessel function exp(-|x|) I0(x), elementwise.

    The Cephes evaluation, as scipy.special.i0e computes it, in numpy
    alone: importing scipy.special would cost more than every sigma curve.
    """
    x = np.abs(np.asarray(x, dtype=float))
    small = x <= 8.0
    large = x[~small]
    out = np.empty_like(x)
    out[small] = _chebyshev(x[small] / 2.0 - 2.0, _I0E_SMALL)
    out[~small] = _chebyshev(32.0 / large - 2.0, _I0E_LARGE) / np.sqrt(large)
    return out


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
    from its first term within _SERIES_RTOL of that sum on.  The factors
    of the layer density that do not depend on the order (see
    _layer_densities) are computed once per call, not once per term.
    """
    factor = -2.0 * np.asarray(s_m, dtype=float)
    coeff = np.ones_like(factor)
    total = np.zeros_like(factor)
    running = np.ones(factor.shape, dtype=bool)
    density = _layer_densities(inp, x, t)
    for k in range(_SERIES_ORDERS + 1):
        term = coeff * density(float(k + 1))
        np.add(total, term, out=total, where=running)
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
            * _i0e(r * (d * inv_var)[..., None]))
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
    t = _checked(t, "t", 0.0)
    x, dx = _longitudinal_rule(inp, t)
    t_x = np.broadcast_to(t[..., None], x.shape)
    s_m = saturation_on_axis(opt, inp.beam, x)
    series = 2.0 * s_m < _SERIES_THRESHOLD
    layer = np.empty_like(x)
    layer[series] = _saturated_layer_series(inp, s_m[series], x[series], t_x[series])
    layer[~series] = _saturated_layer_quadrature(inp, s_m[~series], x[~series], t_x[~series])
    out = _sum_over_sections(inp, layer, x, dx)
    return out if out.ndim else float(out)


def nonlinear_field_shift(inp: EffNumInputs, opt: OpticalParams, t):
    """Fractional field change dA/A with the saturated atomic response.

    -(3*lambda^2/(4*pi)) * sigma_s(t) / (1 + i*delta), using the general
    saturated sigma.  At s_m0 = 0 this equals the linear field shift, and
    its magnitude never exceeds the linear one.  Shaped as linear_field_shift.
    """
    return _field_shift(inp.beam, opt, sigma_saturated_general(inp, opt, t))
