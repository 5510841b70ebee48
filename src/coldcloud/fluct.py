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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .cloud import _check_time, time_scales
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
    "cosine_transform",
    "spectrum_numeric",
]

_SERIES_RTOL = 1e-12
_SERIES_CAP = 200
# exact integer factorials below this order, log-space evaluation above
_PK_EXACT_MAX_K = 15


# ---------------------------------------------------------------------------
# mean and variance
# ---------------------------------------------------------------------------

def _mean_formula(n_total, tau_r_sq, tau_w_sq, inv_tau_g_sq, t):
    """N * tau_w^2/(tau_r^2+tau_w^2+t^2) with the gravity decay factor.

    The variance is this same expression with tau_w^2 halved, which is how
    squaring a Gaussian weight shrinks the effective beam size.
    """
    denom = tau_r_sq + tau_w_sq + t**2
    out = n_total * tau_w_sq / denom
    if inv_tau_g_sq:
        out = out * np.exp(-(t**4) * inv_tau_g_sq / denom)
    return out


def _scales(inp: EffNumInputs):
    ts = time_scales(inp.cloud, inp.beam)
    inv_tau_g_sq = 0.0 if math.isinf(ts.tau_g) else 1.0 / ts.tau_g**2
    return ts.tau_r, ts.tau_w, inv_tau_g_sq


def mean_number(inp: EffNumInputs, t):
    """Mean weighted atom number <N(t)> in the long-Rayleigh regime.

    Equals sigma_long_rayleigh(t) times the waist section pi*w0^2/2.
    """
    t = _check_time(t)
    tau_r, tau_w, inv_tau_g_sq = _scales(inp)
    out = _mean_formula(inp.cloud.n_total, tau_r**2, tau_w**2, inv_tau_g_sq, t)
    return out if np.ndim(out) else float(out)


def variance(inp: EffNumInputs, t):
    """Variance <N(t),N(t)> of the weighted count; always below the mean.

    The squared weight acts like a beam with half the squared transit time,
    so this is the mean formula at tau_w^2/2.  In the small-waist limit it
    tends to half the mean.
    """
    t = _check_time(t)
    tau_r, tau_w, inv_tau_g_sq = _scales(inp)
    out = _mean_formula(inp.cloud.n_total, tau_r**2, 0.5 * tau_w**2, inv_tau_g_sq, t)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# exact two-time covariance
# ---------------------------------------------------------------------------

def _cov_shape(tau_r_sq, tau_w_sq, T, tau):
    """Dimensionless Lorentzian-like factor L(T, tau) of the covariance."""
    denom = 2.0 * tau_w_sq * T**2 + (tau_r_sq + 0.5 * tau_w_sq) * (tau**2 + 2.0 * tau_w_sq)
    return tau_w_sq * (tau_r_sq + tau_w_sq) / denom


def _cov_gravity_exponent(tau_r_sq, tau_w_sq, inv_tau_g_sq, T, tau):
    """Gravity exponent M(T, tau) of the covariance; zero without gravity."""
    if not inv_tau_g_sq:
        return 0.0
    denom = 2.0 * tau_w_sq * T**2 + (tau_r_sq + 0.5 * tau_w_sq) * (tau**2 + 2.0 * tau_w_sq)
    num = (T**2 + 0.25 * tau**2) ** 2 * (tau**2 + 2.0 * tau_w_sq) \
        + 4.0 * (tau_r_sq + 0.5 * tau_w_sq) * T**2 * tau**2
    return num * inv_tau_g_sq / denom


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
    tau_r, tau_w, inv_tau_g_sq = _scales(inp)
    tau_r_sq, tau_w_sq = tau_r**2, tau_w**2
    n0 = inp.cloud.n_total * tau_w_sq / (tau_r_sq + tau_w_sq)
    shape = _cov_shape(tau_r_sq, tau_w_sq, T, tau)
    expo = _cov_gravity_exponent(tau_r_sq, tau_w_sq, inv_tau_g_sq, T, tau)
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


def scaled_fluct_params(inp: EffNumInputs, *, exact_n0: bool = False) -> ScaledFluctParams:
    """Bundle the scaled parameters for the quasistationary family.

    ``exact_n0`` keeps the tau_w^2 correction in the zero-time count;
    the default drops it, consistent with the small-waist regime the
    quasistationary expressions live in.
    """
    tau_r, tau_w, inv_tau_g_sq = _scales(inp)
    zeta = tau_r**2 * inv_tau_g_sq
    if exact_n0:
        n0 = inp.cloud.n_total * tau_w**2 / (tau_r**2 + tau_w**2)
    else:
        n0 = inp.cloud.n_total * tau_w**2 / tau_r**2
    return ScaledFluctParams(n0=n0, zeta=zeta, tau_r=tau_r)


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


def covariance_series(p: ScaledFluctParams, tau_w: float, T, tau, kmax: int | None = None):
    """Gravity expansion of the quasistationary covariance in powers of L.

    n0 * exp(-zeta*a_T) * sum_k (zeta*b_T)^k L^(1+k) / k!.  With
    ``kmax=None`` the sum is truncated adaptively (term below 1e-12 of the
    partial sum, cap 200 terms); an explicit kmax sums orders 0 through
    kmax with no convergence check.
    """
    lor = _lorentzian(p, tau_w, T, tau)
    growth = p.zeta * p.b_t(T) * lor
    term = np.asarray(p.n0 * lor * np.exp(-p.zeta * p.a_t(T)), dtype=float)
    total = np.array(term, copy=True)
    if kmax is not None:
        if kmax < 0:
            raise ValueError(f"kmax must be nonnegative, got {kmax}")
        for k in range(1, kmax + 1):
            term = term * growth / k
            total += term
        return total if total.ndim else float(total)
    for k in range(1, _SERIES_CAP + 1):
        term = term * growth / k
        total += term
        if np.all(np.abs(term) <= _SERIES_RTOL * np.abs(total)):
            return total if total.ndim else float(total)
    raise SeriesConvergenceError(
        f"covariance series did not converge within {_SERIES_CAP} terms "
        f"(max growth parameter {np.max(growth):.3g})"
    )


# ---------------------------------------------------------------------------
# noise spectra
# ---------------------------------------------------------------------------

def pk_polynomial(k: int, x):
    """Polynomial p_k(x) = sum_j (2x)^j (2k-j)!/(j!(k-j)!), j = 0..k.

    These carry the frequency dependence of the k-th gravity order of the
    noise spectrum: the transform of a Lorentzian power is exponential
    times p_k.  Exact integer factorials are used through k = 15,
    log-space evaluation beyond (relative error below 1e-12 for k <= 60).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    if k <= _PK_EXACT_MAX_K:
        coeffs = [
            math.factorial(2 * k - j) // (math.factorial(j) * math.factorial(k - j))
            for j in range(k + 1)
        ]
        out = sum(c * (2.0 * x) ** j for j, c in enumerate(coeffs))
        out = np.asarray(out, dtype=float)
    else:
        out = np.exp(_log_pk(k, x))
    return out if out.ndim else float(out)


def _log_pk(k: int, x: np.ndarray) -> np.ndarray:
    """log p_k(x) elementwise, stable for large k and large x."""
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


def _enveloped_pk_series(c: float, x: np.ndarray, kmax: int | None) -> np.ndarray:
    """exp(-x-4c) * sum_k c^k p_k(x)/(k!)^2, elementwise in x.

    exp(-4c) is exactly the normalization prefactor of the spectra and
    exp(-x) their frequency envelope; folding both into the terms bounds
    every partial sum by 1 and lets far-tail terms underflow harmlessly,
    so the evaluation neither overflows nor stalls at large x.  Terms are
    computed in log space; the worst case needs about 4c+8*sqrt(c) terms.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if kmax is not None and kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    if c == 0.0:
        return np.exp(-x)
    log_c = math.log(c)
    total = np.zeros_like(x)
    prev = np.full_like(x, np.inf)
    cap = _SERIES_CAP if kmax is None else kmax
    for k in range(cap + 1):
        log_term = k * log_c - 2.0 * gammaln(k + 1) + _log_pk(k, x) - 4.0 * c - x
        term = np.exp(log_term)
        total += term
        if kmax is None:
            done = np.all(term <= _SERIES_RTOL * total) and np.all(term <= prev)
            if done:
                return total
            prev = term
    if kmax is None:
        raise SeriesConvergenceError(
            f"spectrum series did not converge within {_SERIES_CAP} terms (c={c:.3g})"
        )
    return total


def spectrum_series(p: ScaledFluctParams, tau_w: float, T, omega, kmax: int | None = None):
    """Noise spectrum of N at fall time T, delay-transformed over tau.

    Exponential envelope times the gravity series in
    c = zeta*b_T/(4*alpha_T^2), each order carrying p_k(alpha_T*|omega|*tau_w):
    the exact transform, order by order, of the covariance series.  Reduces
    to spectrum_exponential when zeta = 0.
    """
    T = float(T)
    alpha_sq = p.alpha_t_sq(T)
    alpha = math.sqrt(alpha_sq)
    x = alpha * np.abs(np.asarray(omega, dtype=float)) * tau_w
    c = p.zeta * p.b_t(T) / (4.0 * alpha_sq)
    # exp(-zeta*a_T) = exp(-zeta*(a_T - b_T/alpha_T^2)) * exp(-4c); the
    # second factor is the damping folded into the series
    drift = math.exp(-p.zeta * (p.a_t(T) - p.b_t(T) / alpha_sq))
    enveloped = _enveloped_pk_series(c, np.atleast_1d(x), kmax)
    out = p.n0 * math.pi * tau_w / alpha * drift * enveloped
    return out if np.ndim(omega) else float(out[0])


def normalized_spectrum(p: ScaledFluctParams, tau_w: float, T, omega, kmax: int | None = None):
    """Unit-area spectral shape: spectrum_series divided by the variance at T.

    pi*alpha_T*tau_w * exp(-alpha_T*|omega|*tau_w) times the damped gravity
    series; integrates to 1 over d(omega)/(2*pi) for every zeta and T.
    """
    T = float(T)
    alpha_sq = p.alpha_t_sq(T)
    alpha = math.sqrt(alpha_sq)
    x = alpha * np.abs(np.asarray(omega, dtype=float)) * tau_w
    c = p.zeta * p.b_t(T) / (4.0 * alpha_sq)
    enveloped = _enveloped_pk_series(c, np.atleast_1d(x), kmax)
    out = math.pi * alpha * tau_w * enveloped
    return out if np.ndim(omega) else float(out[0])


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
