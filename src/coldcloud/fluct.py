"""Fluctuation statistics of the weighted atom number N(t).

N(t) is the sum of the transverse beam weights over all atoms.  Because the
weight is a soft Gaussian rather than an indicator, its square differs from
itself and the counting statistics come out sub-Poissonian: the variance is
below the mean, reaching exactly half of it for a waist much smaller than
the cloud.

The two-time covariance of N has a closed form for a long Rayleigh length.
In the small-waist regime it becomes quasistationary: a Lorentzian of the
delay tau (correlation time of order the beam transit time tau_w) whose
amplitude drifts slowly with the fall time T.  Its Fourier transform over
tau is then a legitimate time-dependent noise spectrum.

Conventions fixed here:

* Spectra are even in omega; the exponential decay uses |omega| so that the
  normalized spectrum integrates to exactly 1 over d(omega)/(2*pi).
* Each order of the gravity expansion of the covariance is a power of the
  Lorentzian L, so its transform carries the Lorentzian peak value
  1/alpha_T^2 along with the expansion parameter: the spectral series runs
  in c = zeta*b_T/(4*alpha_T^2).  This keeps the spectrum the exact
  transform of the covariance series at every order (checked in the tests
  against direct numerical transforms).
* Both gravity series go through one log-space summer, fed a per-order
  log-term and the order where the terms peak; the term cap follows from
  that peak, so it grows with the gravity parameter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cloud import _ballistic_decay, _check_time, time_scales
from .effnum import EffNumInputs
from .exceptions import SeriesConvergenceError

__all__ = [
    "ScaledFluctParams",
    "scaled_fluct_params",
    "mean_number",
    "variance",
    "covariance_exact",
    "covariance_quasistationary",
    "covariance_series",
    "pk_polynomial",
    "spectrum_exponential",
    "spectrum_series",
    "normalized_spectrum",
    "spectra",
    "cosine_transform",
    "spectrum_numeric",
]

_SERIES_RTOL = 1e-12


# ---------------------------------------------------------------------------
# mean and variance
# ---------------------------------------------------------------------------

def mean_number(inp: EffNumInputs, t):
    """Mean weighted atom number <N(t)> in the long-Rayleigh regime.

    N * tau_w^2/(tau_r^2+tau_w^2+t^2) with the gravity decay factor; equals
    sigma_long_rayleigh(t) times the waist section pi*w0^2/2.
    """
    t = _check_time(t)
    ts = time_scales(inp.cloud, inp.beam)
    tau_w_sq = ts.tau_w**2
    out = _ballistic_decay(inp.cloud.n_total * tau_w_sq, ts.tau_r**2 + tau_w_sq, t, ts.tau_g)
    return out if np.ndim(out) else float(out)


def variance(inp: EffNumInputs, t):
    """Variance <N(t),N(t)> of the weighted count; always below the mean.

    The squared weight acts like a beam with half the squared transit time,
    so this is the mean formula at tau_w^2/2.  In the small-waist limit it
    tends to half the mean.
    """
    t = _check_time(t)
    ts = time_scales(inp.cloud, inp.beam)
    tau_w_sq = 0.5 * ts.tau_w**2
    out = _ballistic_decay(inp.cloud.n_total * tau_w_sq, ts.tau_r**2 + tau_w_sq, t, ts.tau_g)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# exact two-time covariance
# ---------------------------------------------------------------------------

def _cov_factors(tau_r_sq, tau_w_sq, inv_tau_g_sq, T, tau):
    """Lorentzian-like shape L(T, tau) and gravity exponent M(T, tau) of the
    covariance over their common denominator; M is zero without gravity."""
    denom = 2.0 * tau_w_sq * T**2 + (tau_r_sq + 0.5 * tau_w_sq) * (tau**2 + 2.0 * tau_w_sq)
    shape = tau_w_sq * (tau_r_sq + tau_w_sq) / denom
    if not inv_tau_g_sq:
        return shape, 0.0
    num = (T**2 + 0.25 * tau**2) ** 2 * (tau**2 + 2.0 * tau_w_sq) \
        + 4.0 * (tau_r_sq + 0.5 * tau_w_sq) * T**2 * tau**2
    return shape, num * inv_tau_g_sq / denom


def covariance_exact(inp: EffNumInputs, T, tau):
    """Covariance <N(t),N(t')> at mean time T = (t+t')/2 and delay tau = t-t'.

    Closed Gaussian form, valid for any waist and gravity in the
    long-Rayleigh regime; even in tau and equal to the variance at tau = 0.
    Both sampling times must be nonnegative, i.e. T >= |tau|/2.
    """
    T = np.asarray(T, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(T - 0.5 * np.abs(tau) < 0):
        raise ValueError("both sampling times T +/- tau/2 must be nonnegative")
    ts = time_scales(inp.cloud, inp.beam)
    tau_r_sq, tau_w_sq = ts.tau_r**2, ts.tau_w**2
    n0 = inp.cloud.n_total * tau_w_sq / (tau_r_sq + tau_w_sq)
    shape, expo = _cov_factors(tau_r_sq, tau_w_sq, 1.0 / ts.tau_g**2, T, tau)
    out = n0 * shape * np.exp(-expo)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# quasistationary (small-waist) family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledFluctParams:
    """Scaled parameters of the quasistationary covariance and spectra.

    Attributes
    ----------
    n0 : float
        Weighted count at t = 0 that normalizes the whole family.
    zeta : float
        Gravity strength (tau_r/tau_g)^2; exactly 0 without gravity.
    tau_r : float
        Expansion time used to scale the fall time T.

    The fall-time coefficients are derived per call: ``alpha_t_sq(T)`` is
    the Lorentzian offset 2*(1+(T/tau_r)^2), while ``a_t(T)`` and
    ``b_t(T)`` build the gravity exponent zeta*(a_T - b_T*L).
    """

    n0: float
    zeta: float
    tau_r: float

    def __post_init__(self) -> None:
        if self.zeta < 0:
            raise ValueError(f"zeta must be nonnegative, got {self.zeta}")
        if not self.tau_r > 0:
            raise ValueError(f"tau_r must be positive, got {self.tau_r}")

    def alpha_t_sq(self, T) -> float | np.ndarray:
        return 2.0 * (1.0 + (np.asarray(T, dtype=float) / self.tau_r) ** 2)

    def a_t(self, T) -> float | np.ndarray:
        u = (np.asarray(T, dtype=float) / self.tau_r) ** 2
        return u * (4.0 + u)

    def b_t(self, T) -> float | np.ndarray:
        u = (np.asarray(T, dtype=float) / self.tau_r) ** 2
        return 2.0 * u * (2.0 + u) ** 2


def scaled_fluct_params(inp: EffNumInputs) -> ScaledFluctParams:
    """Bundle the scaled parameters for the quasistationary family.

    The zero-time count n0 = N*tau_w^2/tau_r^2 drops the tau_w^2
    correction of the exact count, consistent with the small-waist regime
    the quasistationary expressions live in.
    """
    ts = time_scales(inp.cloud, inp.beam)
    n0 = inp.cloud.n_total * ts.tau_w**2 / ts.tau_r**2
    return ScaledFluctParams(n0=n0, zeta=ts.zeta, tau_r=ts.tau_r)


def _lorentzian(p: ScaledFluctParams, tau_w: float, T, tau):
    return 1.0 / ((np.asarray(tau, dtype=float) / tau_w) ** 2 + p.alpha_t_sq(T))


def covariance_quasistationary(p: ScaledFluctParams, tau_w: float, T, tau):
    """Quasistationary covariance n0 * L * exp[-zeta*(a_T - b_T*L)].

    L is a Lorentzian of the delay scaled by the transit time tau_w.
    Intended for delays short against tau_r and fall times long against
    tau_w (not enforced).
    """
    lor = _lorentzian(p, tau_w, T, tau)
    out = p.n0 * lor * np.exp(-p.zeta * (p.a_t(T) - p.b_t(T) * lor))
    return out if np.ndim(out) else float(out)


def _log_series(log_term, peak: float, name: str, detail: str):
    """sum_k exp(log_term(k)) over k = 0, 1, ..., elementwise.

    Terms are compared in log space, so terms that underflow (all of the
    early ones when the envelope leaves the float range) never end the
    sum; it ends once every term is below 1e-12 of its partial sum and
    falling.  The terms peak near order ``peak`` with a spread of about
    sqrt(peak); the cap allows ten spreads beyond the peak.
    """
    log_rtol = math.log(_SERIES_RTOL)
    total, log_total, prev = 0.0, -np.inf, -np.inf
    cap = int(peak + 10.0 * math.sqrt(peak)) + 20
    for k in range(cap + 1):
        term = log_term(k)
        total = total + np.exp(term)
        log_total = np.logaddexp(log_total, term)
        if np.all(term <= log_rtol + log_total) and np.all(term <= prev):
            return total
        prev = term
    raise SeriesConvergenceError(f"{name} series did not converge within {cap} terms ({detail})")


def covariance_series(p: ScaledFluctParams, tau_w: float, T, tau):
    """Gravity expansion of the quasistationary covariance in powers of L.

    n0 * exp(-zeta*a_T) * sum_k (zeta*b_T)^k L^(1+k) / k!, summed like the
    spectrum series: the drift n0*L*exp(-zeta*(a_T - b_T*L)) times the
    Poisson envelope exp(k*ln g - ln k! - g), g = zeta*b_T*L, whose terms
    peak near order g, so the term cap follows from the largest g.  At
    g = 0 the sum ends after its first term, which is 1.
    """
    # scipy.special is imported here and in the other two gravity-series
    # functions, not with the package: it costs more than most commands.
    # The one-term p_k recurrence planned in ROADMAP.md (item 2) deletes
    # these imports.
    from scipy.special import gammaln, xlogy

    lor = _lorentzian(p, tau_w, T, tau)
    drift = p.n0 * lor * np.exp(-p.zeta * (p.a_t(T) - p.b_t(T) * lor))
    growth = p.zeta * p.b_t(T) * lor
    g_max = float(np.max(growth, initial=0.0))
    drift = drift * _log_series(lambda k: xlogy(k, growth) - gammaln(k + 1) - growth,
                                g_max, "covariance", f"g={g_max:.3g}")
    return drift if np.ndim(drift) else float(drift)


# ---------------------------------------------------------------------------
# noise spectra
# ---------------------------------------------------------------------------

def pk_polynomial(k: int, x):
    """Polynomial p_k(x) = sum_j (2x)^j (2k-j)!/(j!(k-j)!), j = 0..k.

    These carry the frequency dependence of the k-th gravity order of the
    noise spectrum: the transform of a Lorentzian power is exponential
    times p_k.  Evaluated in log space, the path the spectrum series uses
    (relative error below 1e-12 for k <= 60).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    out = np.exp(_log_pk(k, x)).reshape(x.shape)
    return out if out.ndim else float(out)


def _log_pk(k: int, x: np.ndarray) -> np.ndarray:
    """log p_k(x) elementwise, stable for large k and large x."""
    from scipy.special import gammaln, logsumexp

    x = np.atleast_1d(np.asarray(x, dtype=float))
    j = np.arange(k + 1, dtype=float)
    log_coeff = gammaln(2 * k - j + 1) - gammaln(j + 1) - gammaln(k - j + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_2x = np.log(2.0 * x)
        # j = 0 contributes log_coeff alone even at x = 0
        log_terms = log_coeff[:, None] + np.where(
            j[:, None] == 0, 0.0, j[:, None] * log_2x[None, :]
        )
    return logsumexp(log_terms, axis=0)


def spectrum_exponential(p: ScaledFluctParams, tau_w: float, T, omega):
    """Gravity-free noise spectrum n0*(pi*tau_w/alpha_T)*exp(-alpha_T*|omega|*tau_w).

    Transform of the pure Lorentzian covariance; even in omega with
    linewidth 1/(alpha_T*tau_w).
    """
    alpha = np.sqrt(p.alpha_t_sq(T))
    x = alpha * np.abs(np.asarray(omega, dtype=float)) * tau_w
    out = p.n0 * math.pi * tau_w / alpha * np.exp(-x)
    return out if np.ndim(out) else float(out)


def _enveloped_pk_series(c: float, x: np.ndarray) -> np.ndarray:
    """exp(-x-4c) * sum_k c^k p_k(x)/(k!)^2, elementwise in x.

    exp(-4c) is exactly the normalization prefactor of the spectra and
    exp(-x) their frequency envelope; folding both into the terms bounds
    every partial sum by 1 and lets far-tail terms underflow harmlessly,
    so the evaluation neither overflows nor stalls at large x.  The terms
    peak near order m = 4c + 2*sqrt(2*c*x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if c == 0.0:
        return np.exp(-x)
    from scipy.special import gammaln

    log_c = math.log(c)

    def log_term(k: int) -> np.ndarray:
        return k * log_c - 2.0 * gammaln(k + 1) + _log_pk(k, x) - 4.0 * c - x

    peak = 4.0 * c + 2.0 * math.sqrt(2.0 * c * x.max(initial=0.0))
    return _log_series(log_term, peak, "spectrum", f"c={c:.3g}")


def spectra(p: ScaledFluctParams, tau_w: float, T, omega):
    """spectrum_series and normalized_spectrum together, from one evaluation
    of the gravity series they share (its cost dominates both)."""
    T = float(T)
    alpha_sq = p.alpha_t_sq(T)
    alpha = math.sqrt(alpha_sq)
    x = alpha * np.abs(np.asarray(omega, dtype=float)) * tau_w
    c = p.zeta * p.b_t(T) / (4.0 * alpha_sq)
    enveloped = _enveloped_pk_series(c, x)
    # exp(-zeta*a_T) = exp(-zeta*(a_T - b_T/alpha_T^2)) * exp(-4c); the
    # second factor is the damping folded into the series
    drift = math.exp(-p.zeta * (p.a_t(T) - p.b_t(T) / alpha_sq))
    spectrum = p.n0 * math.pi * tau_w / alpha * drift * enveloped
    normalized = math.pi * alpha * tau_w * enveloped
    if np.ndim(omega):
        return spectrum, normalized
    return float(spectrum[0]), float(normalized[0])


def spectrum_series(p: ScaledFluctParams, tau_w: float, T, omega):
    """Noise spectrum of N at fall time T, delay-transformed over tau.

    Exponential envelope times the gravity series in
    c = zeta*b_T/(4*alpha_T^2), each order carrying p_k(alpha_T*|omega|*tau_w):
    the exact transform, order by order, of the covariance series.  Reduces
    to spectrum_exponential when zeta = 0.
    """
    return spectra(p, tau_w, T, omega)[0]


def normalized_spectrum(p: ScaledFluctParams, tau_w: float, T, omega):
    """Unit-area spectral shape: spectrum_series divided by the variance at T.

    pi*alpha_T*tau_w * exp(-alpha_T*|omega|*tau_w) times the damped gravity
    series; integrates to 1 over d(omega)/(2*pi) for every zeta and T.
    """
    return spectra(p, tau_w, T, omega)[1]


# ---------------------------------------------------------------------------
# numeric transform bridge
# ---------------------------------------------------------------------------

def cosine_transform(tau, values, omega):
    """Trapezoid cosine transform of an even correlation sample.

    Returns sum over the grid of values*cos(omega*tau), i.e. the real
    Fourier transform of an even function sampled on ``tau``.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    integrand = values[None, :] * np.cos(omega[:, None] * tau[None, :])
    return np.trapezoid(integrand, tau, axis=1)


def spectrum_numeric(inp: EffNumInputs, T: float, tau_grid, omega):
    """Model-independent spectrum: cosine transform of the exact covariance.

    ``tau_grid`` must be symmetric about zero and should span at least 20
    correlation widths with several points per width; a coarse or short
    grid only triggers an accuracy warning carrying a truncation estimate.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not np.allclose(tau_grid, -tau_grid[::-1], rtol=0, atol=1e-12 * np.max(np.abs(tau_grid))):
        raise ValueError("tau_grid must be symmetric about zero")
    cov = np.asarray(covariance_exact(inp, float(T), tau_grid))

    peak = cov[np.argmin(np.abs(tau_grid))]
    above = np.abs(cov) >= 0.5 * abs(peak)
    width = np.max(np.abs(tau_grid[above])) if np.any(above) else np.max(np.abs(tau_grid))
    tau_max = np.max(np.abs(tau_grid))
    step = np.min(np.diff(np.sort(tau_grid)))
    tail_bound = 2.0 * abs(cov[np.argmax(np.abs(tau_grid))]) * tau_max
    if tau_max < 20.0 * width:
        warnings.warn(
            f"tau grid spans only {tau_max / width:.1f} correlation widths; "
            f"estimated spectrum truncation error up to {tail_bound:.3e}",
            stacklevel=2,
        )
    if step > width / 4.0:
        warnings.warn(
            f"tau grid step {step:.3e} is coarse against the correlation width "
            f"{width:.3e}; transform accuracy degrades at high frequency",
            stacklevel=2,
        )
    return cosine_transform(tau_grid, cov, omega)
