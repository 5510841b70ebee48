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

import numpy as np

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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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

    @property
    def has_gravity(self) -> bool:
        return self.g > 0


@dataclass(frozen=True)
class TimeScales:
    """The three characteristic times of the problem.

    tau_r : expansion time, sigma_r/sigma_v; the cloud radius grows
        noticeably past its initial value after tau_r.
    tau_g : fall time, 2*sqrt(2)*sigma_v/g; gravity dominates the on-axis
        density decay past tau_g.  ``math.inf`` when g = 0, so gravity
        exponents evaluate to exactly zero downstream.
    tau_w : transit time through the probe beam at the waist, w0/(2*sigma_v).
    """

    tau_r: float
    tau_g: float
    tau_w: float

    @property
    def zeta(self) -> float:
        """Gravity strength (tau_r/tau_g)^2; exactly 0 without gravity."""
        return self.tau_r**2 * (1.0 / self.tau_g**2)


def time_scales(c: CloudParams, b: BeamParams) -> TimeScales:
    """Derive the expansion, fall and beam-transit time scales."""
    tau_g = 2.0 * math.sqrt(2.0) * c.sigma_v / c.g if c.has_gravity else math.inf
    return TimeScales(
        tau_r=c.sigma_r / c.sigma_v, tau_g=tau_g, tau_w=b.w0 / (2.0 * c.sigma_v)
    )


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative (t = 0 is the release instant)")
    return t


def _spread_sq(c: CloudParams, t) -> np.ndarray:
    """Instantaneous squared cloud spread per axis, sigma_r^2 + sigma_v^2 t^2."""
    return c.sigma_r**2 + (c.sigma_v * np.asarray(t, dtype=float)) ** 2


def _ballistic_decay(scale, offset_sq, t, tau_g: float):
    """scale/(offset_sq + t^2) times exp[-t^4/(tau_g^2 (offset_sq + t^2))].

    The on-axis law every closed form shares.  The squared spread grows as
    sigma_v^2 (tau_r^2 + t^2), so a count along the axis decays as a
    Lorentzian in t (offset_sq is tau_r^2, widened by the squared transit
    time of a wide beam), while the centre falling by g t^2/2 gives the
    fall factor, which is exactly 1 when tau_g is infinite (no gravity).
    """
    denom = offset_sq + t**2
    out = scale / denom
    if not math.isinf(tau_g):
        out = out * np.exp(-(t**4) * (1.0 / tau_g**2) / denom)
    return out


def phase_space_density(c: CloudParams, r, v, t: float):
    """Phase-space density at position r, velocity v and scalar time t.

    Ballistic free fall preserves phase-space volume, so the density at
    time t is the initial Gaussian evaluated at the pre-image point
    (r - v*t + g*t^2/2, v - g*t) with the gravity vector (0, 0, -g).
    Units: atoms / (m^3 (m/s)^3).
    """
    t = float(_check_time(t))
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)

    r0 = r - v * t
    v0 = np.array(v, dtype=float, copy=True)
    # only the z components pick up gravity terms (gravity vector is (0, 0, -g))
    r0[..., 2] -= 0.5 * c.g * t**2
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
    t = _check_time(t)
    r = np.asarray(r, dtype=float)
    var = _spread_sq(c, t)
    dz = r[..., 2] + 0.5 * c.g * t**2
    dist2 = r[..., 0] ** 2 + r[..., 1] ** 2 + dz**2
    out = c.n_total / (2.0 * math.pi * var) ** 1.5 * np.exp(-dist2 / (2.0 * var))
    return out if out.ndim else float(out)


def center_density(c: CloudParams, t):
    """Density at the release point r = 0 as a function of time.

    Decays as [tau_r^2/(tau_r^2+t^2)]^(3/2) from the ballistic expansion,
    times a gravity factor exp[-t^4/(tau_g^2 (tau_r^2+t^2))] because the
    cloud center drops away from the origin.
    """
    return density(c, (0.0, 0.0, 0.0), t)
