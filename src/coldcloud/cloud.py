"""Freely falling cold-atom cloud.

The cloud is released at t = 0 with an isotropic Gaussian phase-space
distribution (radius sigma_r, thermal velocity sigma_v) and then evolves
ballistically: it expands while falling under gravity, which points along
-z.  The density stays Gaussian at all times, which is what makes every
closed form in the rest of the package possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # beam.py imports _check_fields from here
    from .beam import BeamParams

__all__ = [
    "CloudParams",
    "TimeScales",
    "time_scales",
    "phase_space_density",
    "density",
    "center_density",
]

# Boltzmann constant, J/K: exact in the SI since 2019
_BOLTZMANN = 1.380649e-23


def _check_fields(params) -> None:
    """ValueError naming the first field of a parameter dataclass that is a
    bool, not a real number, or not finite."""
    for name, value in vars(params).items():
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except TypeError:  # a string, None, a complex number, ...
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class CloudParams:
    """Initial cloud: atom number, size, thermal velocity, gravity.

    Attributes
    ----------
    n_total : float
        Total number of atoms in the cloud (may be non-integer; it is the
        mean of the release-to-release Poisson statistics).
    sigma_r : float
        RMS radius of the initial cloud per axis, m.
    sigma_v : float
        RMS thermal velocity per axis, m/s.
    g : float
        Gravity magnitude, m/s^2.  The direction is fixed to -z.
    """

    n_total: float
    sigma_r: float
    sigma_v: float
    g: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.n_total < 0:
            raise ValueError(f"n_total must be nonnegative, got {self.n_total}")
        if not self.sigma_r > 0:
            raise ValueError(f"sigma_r must be positive, got {self.sigma_r}")
        if not self.sigma_v > 0:
            raise ValueError(
                f"sigma_v must be positive, got {self.sigma_v} (a frozen cloud is degenerate)"
            )
        if self.g < 0:
            raise ValueError(f"g is a magnitude and must be nonnegative, got {self.g}")

    @classmethod
    def from_temperature(
        cls,
        n_total: float,
        sigma_r: float,
        temperature: float,
        mass: float,
        g: float = 0.0,
    ) -> "CloudParams":
        """Build the cloud from trap temperature (K) and atomic mass (kg).

        Uses the equipartition relation sigma_v = sqrt(k_B*T/m).
        """
        if not temperature > 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        if not mass > 0:
            raise ValueError(f"mass must be positive, got {mass}")
        return cls(n_total, sigma_r, math.sqrt(_BOLTZMANN * temperature / mass), g)


@dataclass(frozen=True)
class TimeScales:
    """The three characteristic times of the problem.

    tau_r : expansion time, sigma_r/sigma_v; the cloud radius grows
        noticeably past its initial value after tau_r.
    tau_g : fall time, 2*sqrt(2)*sigma_v/g; gravity dominates the on-axis
        density decay past tau_g.  ``math.inf`` when g = 0, and also when
        tau_g^2 would overflow (tau_g beyond sqrt(DBL_MAX), about 1.34e154 s),
        so gravity exponents evaluate to exactly zero downstream and one
        code path serves the falling and the free cloud.
    tau_w : transit time through the probe beam at the waist, w0/(2*sigma_v).
    """

    tau_r: float
    tau_g: float
    tau_w: float

    @property
    def zeta(self) -> float:
        """Gravity strength (tau_r/tau_g)^2; exactly 0 without gravity."""
        return self.tau_r**2 * _inverse_square(self.tau_g)


def time_scales(c: CloudParams, b: BeamParams) -> TimeScales:
    """Derive the expansion, fall and beam-transit time scales."""
    tau_g = 2.0 * math.sqrt(2.0) * c.sigma_v / c.g if c.g > 0 else math.inf
    return TimeScales(
        tau_r=c.sigma_r / c.sigma_v, tau_g=tau_g if tau_g * tau_g < math.inf else math.inf,
        tau_w=b.w0 / (2.0 * c.sigma_v),
    )


def _checked(values, name: str, least: float = -math.inf) -> np.ndarray:
    """values as a float array; ValueError naming it unless every element is
    finite and at least ``least`` (an empty array passes)."""
    values = np.asarray(values, dtype=float)
    # NaN propagates through min and max and fails every comparison; the
    # initial values admit an empty array
    low, high = values.min(initial=math.inf), values.max(initial=-math.inf)
    if not (-math.inf < low and least <= low and high < math.inf):
        rule = "finite" if least == -math.inf else f"finite and >= {least:g}"
        raise ValueError(f"{name} must be {rule}")
    return values


def _integral(value, name: str, least: float = -math.inf) -> int:
    """value as a Python int; ValueError naming it unless it is an integer,
    numpy's too but not a bool, and at least ``least``."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        rule = "an integer" if least == -math.inf else f"an integer of at least {least:g}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _spread_sq(c: CloudParams, t) -> np.ndarray:
    """Instantaneous squared cloud spread per axis, sigma_r^2 + sigma_v^2 t^2."""
    return c.sigma_r**2 + (c.sigma_v * np.asarray(t, dtype=float)) ** 2


def _inverse_square(tau: float) -> float:
    """1/tau^2, or inf where tau^2 underflows to 0 (1/tau^2 is then beyond
    the float range): no Python float division by zero."""
    square = tau**2
    return 1.0 / square if square > 0.0 else math.inf


def _fall_exponent(coeff: float, powers):
    """coeff * powers, exactly 0 where powers is 0 and wherever coeff is 0: a
    fall exponent vanishes at t = 0 also when its coefficient, 1/tau_g^2 or
    g^2, is inf, and without a fall also where t^4 overflowed to inf."""
    return np.multiply(coeff, powers, out=np.zeros(np.shape(powers)),
                       where=(powers > 0) & (coeff > 0))


def _ballistic_decay(scale, offset_sq, t, tau_g: float):
    """scale/(offset_sq + t^2) times exp[-t^4/(tau_g^2 (offset_sq + t^2))].

    The on-axis law every closed form shares.  The squared spread grows as
    sigma_v^2 (tau_r^2 + t^2), so a count along the axis decays as a
    Lorentzian in t (offset_sq is tau_r^2, widened by the squared transit
    time of a wide beam), while the centre falling by g t^2/2 gives the
    fall factor, which is exactly 1 when tau_g is infinite (no gravity).
    Where t^2 overflows the decay is the 0 it underflows to, not the NaN of
    the fall exponent's inf/inf.
    """
    denom = offset_sq + t**2
    decay = scale / denom
    exponent = np.divide(_fall_exponent(_inverse_square(tau_g), t**4), denom,
                         out=np.zeros(np.shape(decay)), where=decay > 0)
    return decay * np.exp(-exponent)


def _damped(scale, exponent):
    """scale * exp(-exponent), exactly 0 wherever scale is 0.

    Where a time's square overflows, a closed form's scale has reached its
    limit 0 while its exponent is the NaN of inf/inf or inf * 0.
    """
    scale, exponent = np.broadcast_arrays(scale, exponent)
    return np.multiply(scale, np.exp(-exponent), out=np.zeros(scale.shape), where=scale != 0)


def phase_space_density(c: CloudParams, r, v, t: float):
    """Phase-space density at position r, velocity v and scalar time t.

    Ballistic free fall preserves phase-space volume, so the density at
    time t is the initial Gaussian evaluated at the pre-image point
    (r - v*t + g*t^2/2, v - g*t) with the gravity vector (0, 0, -g).
    Units: atoms / (m^3 (m/s)^3).
    """
    t = float(_checked(t, "t", 0.0))
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)

    r0 = r - v * t
    v0 = np.array(v, dtype=float, copy=True)
    # only the z components pick up gravity terms (gravity vector is (0, 0, -g))
    # numpy's scalar power rounds as Python's t**2 but overflows to inf
    # instead of raising; without a fall the drop is 0 also there
    r0[..., 2] -= _fall_exponent(0.5 * c.g, np.float64(t) ** 2)
    v0[..., 2] += c.g * t

    peak = c.n_total / (2.0 * math.pi * c.sigma_r * c.sigma_v) ** 3
    arg = (
        np.sum(r0**2, axis=-1) / (2.0 * c.sigma_r**2)
        + np.sum(v0**2, axis=-1) / (2.0 * c.sigma_v**2)
    )
    out = peak * np.exp(-arg)
    return out if out.ndim else float(out)


def density(c: CloudParams, r, t):
    """Atomic density (atoms/m^3) at position r and time t.

    Gaussian of width sqrt(sigma_r^2 + sigma_v^2 t^2) per axis centered on
    the falling point (0, 0, -g t^2/2).
    """
    t = _checked(t, "t", 0.0)
    r = np.asarray(r, dtype=float)
    var = _spread_sq(c, t)
    dz = r[..., 2] + 0.5 * c.g * t**2
    dist2 = r[..., 0] ** 2 + r[..., 1] ** 2 + dz**2
    out = _damped(c.n_total / (2.0 * math.pi * var) ** 1.5, dist2 / (2.0 * var))
    return out if out.ndim else float(out)


def center_density(c: CloudParams, t):
    """Density at the release point r = 0 as a function of time.

    Decays as [tau_r^2/(tau_r^2+t^2)]^(3/2) from the ballistic expansion,
    times a gravity factor exp[-t^4/(tau_g^2 (tau_r^2+t^2))] because the
    cloud center drops away from the origin.
    """
    return density(c, (0.0, 0.0, 0.0), t)
