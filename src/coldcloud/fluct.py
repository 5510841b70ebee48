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

* Every function of the fall time T takes an array of times that
  broadcasts against its delays or frequencies; scalar inputs return a
  float.
* Spectra are even in omega; the exponential decay uses |omega| so that the
  normalized spectrum integrates to exactly 1 over d(omega)/(2*pi).
* Expanding covariance_quasistationary in powers of the Lorentzian L gives
  orders with analytic transforms, each carrying the Lorentzian peak value
  1/alpha_T^2 along with the expansion parameter: the spectrum is their
  sum, a series in c = zeta*b_T/(4*alpha_T^2) (checked in the tests against
  direct numerical transforms).  It is summed in log space, with a term
  cap that follows from the order where the terms peak.  It needs no
  scipy: its log-factorials come from a port of Cephes lgam, bit for bit
  scipy.special.gammaln, and its log-sums are numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .cloud import _ballistic_decay, _checked, _fall_exponent, _inverse_square, time_scales
from .effnum import EffNumInputs
from .exceptions import SeriesConvergenceError

__all__ = [
    "mean_number",
    "variance",
    "covariance_exact",
    "covariance_quasistationary",
    "pk_polynomial",
    "spectrum_exponential",
    "spectrum_series",
    "normalized_spectrum",
    "spectra",
]

_SERIES_RTOL = 1e-12


# ---------------------------------------------------------------------------
# mean and variance
# ---------------------------------------------------------------------------

def _transit_share(inp: EffNumInputs, t, share: float):
    """N s/(tau_r^2 + s + t^2), s = share * tau_w^2, with the gravity decay."""
    t = _checked(t, "t", 0.0)
    ts = time_scales(inp.cloud, inp.beam)
    tau_sq = share * ts.tau_w**2
    out = _ballistic_decay(inp.cloud.n_total * tau_sq, ts.tau_r**2 + tau_sq, t, ts.tau_g)
    return out if np.ndim(out) else float(out)


def mean_number(inp: EffNumInputs, t):
    """Mean weighted atom number <N(t)> in the long-Rayleigh regime.

    N * tau_w^2/(tau_r^2+tau_w^2+t^2) with the gravity decay factor; equals
    sigma_long_rayleigh(t) times the waist section pi*w0^2/2.
    """
    return _transit_share(inp, t, 1.0)


def variance(inp: EffNumInputs, t):
    """Variance <N(t),N(t)> of the weighted count; always below the mean.

    The squared weight acts like a beam with half the squared transit time,
    so this is the mean formula at tau_w^2/2.  In the small-waist limit it
    tends to half the mean.
    """
    return _transit_share(inp, t, 0.5)


def _variance_over_mean(inp: EffNumInputs, t) -> np.ndarray:
    """variance/mean in closed form, the CLI's variance_over_mean column.

    Dividing the two loses digits as their fall factors shrink, and all of
    them where the variance is subnormal or both underflow to 0.

    The two share the ballistic decay, with offsets a = tau_r^2 + tau_w^2
    and b = tau_r^2 + tau_w^2/2, so the ratio is
        (1/2) (1 + (a - b)/(b + t^2)) exp[-(a - b) t^4/(tau_g^2 (a + t^2)(b + t^2))],
    which tends to exp[-tau_w^2/(2 tau_g^2)]/2 as t^2 leaves the float range.
    """
    t = _checked(t, "t", 0.0)
    ts = time_scales(inp.cloud, inp.beam)
    gap = 0.5 * ts.tau_w**2
    a, b, u = ts.tau_r**2 + 2.0 * gap, ts.tau_r**2 + gap, t**2
    # t^2/(offset + t^2) as 1 - offset/(offset + t^2): 1, not inf/inf, where
    # t^2 overflows
    shares = (1.0 - a / (a + u)) * (1.0 - b / (b + u))
    return 0.5 * (1.0 + gap / (b + u)) * np.exp(
        -_fall_exponent(_inverse_square(ts.tau_g), gap * shares))


# ---------------------------------------------------------------------------
# exact two-time covariance
# ---------------------------------------------------------------------------

def _quotient(num: float, den: float) -> float:
    """num/den, or the IEEE inf or NaN where den has underflowed to 0 (a
    tau^2 far below the float range): no Python float division by zero.
    A CSV column that inherits the NaN is named by the CLI."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(num, den))


def _cov_factors(tau_r_sq, tau_w_sq, inv_tau_g_sq, T, tau):
    """Lorentzian-like shape L(T, tau) and gravity exponent M(T, tau) of the
    covariance over their common denominator; M is zero without gravity."""
    denom = 2.0 * tau_w_sq * T**2 + (tau_r_sq + 0.5 * tau_w_sq) * (tau**2 + 2.0 * tau_w_sq)
    shape = tau_w_sq * (tau_r_sq + tau_w_sq) / denom
    num = (T**2 + 0.25 * tau**2) ** 2 * (tau**2 + 2.0 * tau_w_sq) \
        + 4.0 * (tau_r_sq + 0.5 * tau_w_sq) * T**2 * tau**2
    return shape, _fall_exponent(inv_tau_g_sq, num) / denom


def covariance_exact(inp: EffNumInputs, T, tau):
    """Covariance <N(t),N(t')> at mean time T = (t+t')/2 and delay tau = t-t'.

    Closed Gaussian form, valid for any waist and gravity in the
    long-Rayleigh regime; even in tau and equal to the variance at tau = 0.
    Both sampling times must be finite and nonnegative, i.e. T >= |tau|/2.
    """
    T = np.asarray(T, dtype=float)
    tau = np.asarray(tau, dtype=float)
    # the earlier sampling time; finite exactly when T and tau both are
    _checked(T - 0.5 * np.abs(tau), "T - |tau|/2", 0.0)
    ts = time_scales(inp.cloud, inp.beam)
    tau_r_sq, tau_w_sq = ts.tau_r**2, ts.tau_w**2
    n0 = _quotient(inp.cloud.n_total * tau_w_sq, tau_r_sq + tau_w_sq)
    shape, expo = _cov_factors(tau_r_sq, tau_w_sq, _inverse_square(ts.tau_g), T, tau)
    out = n0 * shape * np.exp(-expo)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# quasistationary (small-waist) family
# ---------------------------------------------------------------------------

def _scaled(inp: EffNumInputs, T):
    """n0, zeta, tau_w and the fall-time coefficients alpha_T^2, a_T, b_T.

    The zero-time count n0 = N*tau_w^2/tau_r^2 drops the tau_w^2 correction
    of the exact count, consistent with the small-waist regime the
    quasistationary expressions live in.  With u = (T/tau_r)^2, the
    Lorentzian offset is alpha_T^2 = 2*(1+u), while a_T = u*(4+u) and
    b_T = 2*u*(2+u)^2 build the gravity exponent zeta*(a_T - b_T*L).
    """
    T = _checked(T, "T", 0.0)
    ts = time_scales(inp.cloud, inp.beam)
    # np.square, unlike ** on a numpy scalar, rounds a scalar T exactly as
    # the same T inside an array
    u = np.square(T / ts.tau_r)
    n0 = _quotient(inp.cloud.n_total * ts.tau_w**2, ts.tau_r**2)
    return n0, ts.zeta, ts.tau_w, 2.0 * (1.0 + u), u * (4.0 + u), 2.0 * u * np.square(2.0 + u)


def covariance_quasistationary(inp: EffNumInputs, T, tau):
    """Quasistationary covariance n0 * L * exp[-zeta*(a_T - b_T*L)].

    L is a Lorentzian of the delay scaled by the transit time tau_w.
    Intended for delays short against tau_r and fall times long against
    tau_w (not enforced).
    """
    n0, zeta, tau_w, alpha_sq, a_t, b_t = _scaled(inp, T)
    lor = 1.0 / ((_checked(tau, "tau") / tau_w) ** 2 + alpha_sq)
    out = n0 * lor * np.exp(-zeta * (a_t - b_t * lor))
    return out if np.ndim(out) else float(out)


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
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    x = _checked(x, "x", 0.0)
    out = np.exp(_log_pk(k, x, _log_factorials(2 * k))).reshape(x.shape)
    return out if out.ndim else float(out)


# Cephes lgam's Stirling correction, a polynomial in 1/x^2 (highest order
# first), and log(sqrt(2*pi))
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178


def _lgam(x: float) -> float:
    """log Gamma(x) at a positive integer x, bit for bit scipy.special.gammaln.

    The Cephes lgam that gammaln runs, on its integer paths below 1e8 only
    (beyond, Cephes drops the 1/x correction), with scalar math.log:
    compiled Cephes calls libm's log, and numpy's SIMD log differs from it
    in the last bit at some integers (math.lgamma differs from gammaln at
    many).
    """
    if x < 13.0:
        z, u = 1.0, x - 1.0
        while u >= 2.0:
            z *= u
            u -= 1.0
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = 0.0
    for coeff in _LGAM_A:
        poly = poly * p + coeff
    return q + poly / x


def _log_factorials(m: int) -> np.ndarray:
    """The table of log n! for n = 0..m."""
    return np.array([_lgam(n + 1.0) for n in range(m + 1)])


def _log_pk(k: int, x: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
    """log p_k(x) elementwise, stable for large k and large x; log_fact is
    a table of log n! up to at least n = 2k.  The log-sum, _log_pk_sum, is
    scipy.special.logsumexp's arithmetic operation for operation, with the
    tie bookkeeping skipped where no column has a tie."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _log_pk_sum(k, np.log(2.0 * x), log_fact)


def _log_pk_sum(k: int, log_2x: np.ndarray, log_fact: np.ndarray, work=None) -> np.ndarray:
    """log p_k(x) from log(2x); the caller silences numpy's divide,
    invalid and overflow warnings (log 0, 0 * log 0 and 2x past the float
    range come up on purpose).

    The log-sum over the k+1 terms is scipy.special.logsumexp's arithmetic,
    operation for operation, on one (k+1, n) matrix updated in place: the
    first k+1 rows of work, a float and a bool array of at least k+1 rows
    (made here when not given).  The largest term per column is taken out
    of the sum, once per tie, and the rest are summed down axis 0 in row
    order.  With the column max subtracted, the max terms are those not
    below 0 (NaN = inf - inf where the max is +inf); when every column has
    exactly one, there is no tie, and the division by the tie count and the
    log of it are skipped, as dividing by 1 and adding log 1 = 0 are
    exact.  scipy's extra pass for non-finite results is left out: row 0 is
    always finite, so a result is infinite only when a term is +inf, and
    then both ways give +inf.
    """
    j = np.arange(k + 1)
    log_coeff = log_fact[2 * k - j] - log_fact[j] - log_fact[k - j]
    if work is None:
        work = np.empty((k + 1, log_2x.size)), np.empty((k + 1, log_2x.size), dtype=bool)
    terms, at_top = work[0][:k + 1], work[1][:k + 1]
    np.multiply.outer(j.astype(float), log_2x, out=terms)
    # j = 0 contributes log_coeff alone even at x = 0
    terms[0] = 0.0
    terms += log_coeff[:, None]
    top = terms.max(0)
    terms -= top
    np.logical_not(np.less(terms, 0.0, out=at_top), out=at_top)
    np.exp(terms, out=terms)
    np.copyto(terms, 0.0, where=at_top)
    s = terms.sum(0)
    if np.count_nonzero(at_top) == top.size:
        return np.log1p(s) + top
    ties = np.count_nonzero(at_top, axis=0).astype(float)
    s = np.where(s == 0, s, s / ties)
    return np.log1p(s) + np.log(ties) + top


def spectrum_exponential(inp: EffNumInputs, T, omega):
    """Gravity-free noise spectrum n0*(pi*tau_w/alpha_T)*exp(-alpha_T*|omega|*tau_w).

    Transform of the pure Lorentzian covariance; even in omega with
    linewidth 1/(alpha_T*tau_w).
    """
    n0, _, tau_w, alpha_sq, _, _ = _scaled(inp, T)
    alpha = np.sqrt(alpha_sq)
    x = alpha * np.abs(_checked(omega, "omega")) * tau_w
    out = n0 * math.pi * tau_w / alpha * np.exp(-x)
    return out if np.ndim(out) else float(out)


def _series_cap(c: float, x_max: float) -> int:
    """Last order the spectrum series may reach: the terms peak near order
    m = 4c + 2*sqrt(2*c*x), and the cap allows ten spreads sqrt(m) beyond."""
    peak = 4.0 * c + 2.0 * math.sqrt(2.0 * c * x_max)
    return int(peak + 10.0 * math.sqrt(peak)) + 20


def _enveloped_pk_series(c: float, x: np.ndarray, log_fact: np.ndarray | None = None) -> np.ndarray:
    """exp(-x-4c) * sum_k c^k p_k(x)/(k!)^2, elementwise in x.

    exp(-4c) is exactly the normalization prefactor of the spectra and
    exp(-x) their frequency envelope; folding both into the terms bounds
    every partial sum by 1 and lets far-tail terms underflow harmlessly,
    so the evaluation neither overflows nor stalls at large x.  Compared in
    log space, underflowing early terms never end the sum; it ends once
    every term is below 1e-12 of its partial sum and falling; past the
    order _series_cap it raises SeriesConvergenceError.  log_fact, a table
    of log n! up to at least twice that order, is built here when not given.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if c == 0.0:
        return np.exp(-x)
    log_c = math.log(c)
    log_rtol = math.log(_SERIES_RTOL)
    cap = _series_cap(c, x.max(initial=0.0))
    if log_fact is None:
        log_fact = _log_factorials(2 * cap)
    total, log_total, prev = 0.0, -np.inf, -np.inf
    # one pair of (order, x) work arrays for every order: the same two heap
    # blocks each call, where growing per-order arrays fragmented the heap
    work = np.empty((cap + 1, x.size)), np.empty((cap + 1, x.size), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_2x = np.log(2.0 * x)
        for k in range(cap + 1):
            term = (k * log_c - 2.0 * log_fact[k] + _log_pk_sum(k, log_2x, log_fact, work)
                    - 4.0 * c - x)
            total = total + np.exp(term)
            log_total = np.logaddexp(log_total, term)
            if np.all(term <= log_rtol + log_total) and np.all(term <= prev):
                return total
            prev = term
    raise SeriesConvergenceError(f"spectrum series did not converge within {cap} terms (c={c:.3g})")


def spectra(inp: EffNumInputs, T, omega):
    """spectrum_series and normalized_spectrum together, from one evaluation
    of the gravity series they share (its cost dominates both).

    T and omega broadcast against each other.  The series runs once per
    distinct T, over all of the frequencies paired with it.
    """
    T, omega = np.broadcast_arrays(_checked(T, "T", 0.0), _checked(omega, "omega"))
    times, group = np.unique(T.ravel(), return_inverse=True)
    n0, zeta, tau_w, alpha_sq, a_t, b_t = _scaled(inp, times)
    alpha = np.sqrt(alpha_sq)
    x = alpha[group] * np.abs(omega.ravel()) * tau_w
    c = zeta * b_t / (4.0 * alpha_sq)
    if not np.all(np.isfinite(c)):
        raise OverflowError("the gravity series parameter c = zeta*b_T/(4*alpha_T^2) of the "
                            "spectrum leaves the float range")
    at = [group == j for j in range(times.size)]
    # one log-factorial table, long enough for the largest cap among the T
    # that run the series
    cap = max((_series_cap(float(c[j]), x[at[j]].max()) for j in range(times.size) if c[j]),
              default=0)
    log_fact = _log_factorials(2 * cap)
    enveloped = np.empty(x.shape)
    for j in range(times.size):
        enveloped[at[j]] = _enveloped_pk_series(float(c[j]), x[at[j]], log_fact)
    # exp(-zeta*a_T) = exp(-zeta*(a_T - b_T/alpha_T^2)) * exp(-4c); the
    # second factor is the damping folded into the series
    drift = np.exp(-zeta * (a_t - b_t / alpha_sq))
    spectrum = (n0 * math.pi * tau_w / alpha * drift)[group] * enveloped
    normalized = (math.pi * alpha * tau_w)[group] * enveloped
    if T.ndim:
        return spectrum.reshape(T.shape), normalized.reshape(T.shape)
    return float(spectrum[0]), float(normalized[0])


def spectrum_series(inp: EffNumInputs, T, omega):
    """Noise spectrum of N at fall time T, delay-transformed over tau.

    Exponential envelope times the gravity series in
    c = zeta*b_T/(4*alpha_T^2), each order carrying p_k(alpha_T*|omega|*tau_w):
    the order-by-order transform of covariance_quasistationary expanded in
    powers of L.  Reduces to spectrum_exponential when zeta = 0.  T and
    omega broadcast against each other, as in spectra.
    """
    return spectra(inp, T, omega)[0]


def normalized_spectrum(inp: EffNumInputs, T, omega):
    """Unit-area spectral shape: spectrum_series divided by the variance at T.

    pi*alpha_T*tau_w * exp(-alpha_T*|omega|*tau_w) times the damped gravity
    series; integrates to 1 over d(omega)/(2*pi) for every zeta and T.
    T and omega broadcast against each other, as in spectra.
    """
    return spectra(inp, T, omega)[1]

