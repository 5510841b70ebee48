"""Acceptance suite: every release criterion at its frozen tolerance.

One test per criterion; each prints a [PASS]/[FAIL] line with the worst
observed deviation so a bare `pytest -s tests/test_acceptance.py` reads as
a checklist.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
from scipy.integrate import quad

import coldcloud as cc

from oracles import (
    peak_series_reference,
    plane_integral_vec,
    quad3d_vec,
    quasistationary_coefficients,
    quasistationary_fourier_oracle,
)


def report(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {description}{detail}")
    assert ok, f"acceptance criterion {num} failed{detail}"


def collimated_inputs(tau_w_over_tau_r=0.005, g=9.81, n=1e6, sigma_r=1e-3, sigma_v=0.1):
    w0 = 2.0 * sigma_r * tau_w_over_tau_r
    return cc.EffNumInputs(
        cc.CloudParams(n, sigma_r, sigma_v, g), cc.BeamParams(w0=w0, wavelength=1e-9)
    )


def inputs_with_zeta(zeta, tau_w_over_tau_r=0.005, sigma_v=0.1):
    if zeta == 0.0:
        return collimated_inputs(tau_w_over_tau_r, g=0.0)
    g = 9.81
    tau_g = 2.0 * math.sqrt(2.0) * sigma_v / g
    return collimated_inputs(
        tau_w_over_tau_r, g=g, sigma_r=math.sqrt(zeta) * tau_g * sigma_v, sigma_v=sigma_v
    )


def test_01_transverse_mode_normalization():
    """The squared mode integrates to one over any transverse plane."""
    beam = cc.BeamParams(w0=100e-6, wavelength=852e-9)
    worst = 0.0
    for frac in (0.0, 0.7, -0.7, 1.3, 3.0):
        x = frac * beam.rayleigh_length
        w = cc.beam_size(beam, x)

        def integrand(y, z):
            pts = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
            return np.abs(cc.mode_amplitude(beam, pts)) ** 2

        # |u|^2 has standard width w/2; beyond 8w the tail is < 1e-55
        val = plane_integral_vec(integrand, (-8 * w, 8 * w), (-8 * w, 8 * w),
                                 epsrel=1e-11)
        worst = max(worst, abs(val - 1.0))
    report(1, "transverse mode normalization", worst <= 1e-9,
           f" (worst |integral-1| = {worst:.2e}, tol 1e-9)")


def test_02_mass_conservation():
    """The density integrates to the total atom number while falling."""
    cloud = cc.CloudParams(1e6, 1e-3, 0.1, 9.81)
    tau_r = cloud.sigma_r / cloud.sigma_v
    worst = 0.0
    for t in (0.0, tau_r, 3.0 * tau_r):
        spread = math.sqrt(cloud.sigma_r**2 + (cloud.sigma_v * t) ** 2)
        z_c = -0.5 * cloud.g * t**2

        def rho(x, y, z):
            pts = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
            return np.asarray(cc.density(cloud, pts, t))

        total = quad3d_vec(
            rho,
            (-8 * spread, 8 * spread),
            (-8 * spread, 8 * spread),
            (z_c - 8 * spread, z_c + 8 * spread),
        )
        worst = max(worst, abs(total / cloud.n_total - 1.0))
    report(2, "mass conservation under free fall", worst <= 1e-6,
           f" (worst rel = {worst:.2e}, tol 1e-6)")


def test_03_sigma_limit_collapse():
    """The general quadrature collapses onto both closed forms."""
    cloud = cc.CloudParams(1e6, 1e-3, 0.1, 9.81)
    tau_r = cloud.sigma_r / cloud.sigma_v
    t_grid = np.linspace(0.0, 3.0 * tau_r, 7)

    # long Rayleigh range: sigma_r/l_R = 1e-3 at a moderate waist
    w0 = 0.5 * cloud.sigma_r
    beam_a = cc.BeamParams(w0=w0, wavelength=math.pi * w0**2 / (1e3 * cloud.sigma_r))
    inp_a = cc.EffNumInputs(cloud, beam_a)
    worst_a = max(
        abs(cc.sigma_general(inp_a, float(t)) / cc.sigma_long_rayleigh(inp_a, float(t)) - 1.0)
        for t in t_grid
    )

    # small waist: w0/sigma_r = 1e-2 at a Rayleigh length equal to the cloud
    w0 = 1e-2 * cloud.sigma_r
    beam_b = cc.BeamParams(w0=w0, wavelength=math.pi * w0**2 / cloud.sigma_r)
    inp_b = cc.EffNumInputs(cloud, beam_b)
    worst_b = max(
        abs(cc.sigma_general(inp_b, float(t)) / cc.sigma_small_waist(inp_b, float(t)) - 1.0)
        for t in t_grid
    )

    ok = worst_a <= 1e-6 and worst_b <= 1e-4
    report(3, "sigma limit collapse", ok,
           f" (long-Rayleigh rel = {worst_a:.2e} tol 1e-6; small-waist rel = {worst_b:.2e} tol 1e-4)")


def test_04_sub_poissonian_counting():
    """Variance stays below the mean; half law at a vanishing waist."""
    in_range = True
    for frac in (1e-3, 0.01, 0.1, 0.5, 0.9):
        for g in (0.0, 9.81):
            inp = collimated_inputs(tau_w_over_tau_r=frac, g=g)
            tau_r = inp.cloud.sigma_r / inp.cloud.sigma_v
            for t in np.linspace(0.0, 5.0 * tau_r, 21):
                ratio = cc.variance(inp, t) / cc.mean_number(inp, t)
                in_range &= 0.0 < ratio < 1.0

    inp = collimated_inputs(tau_w_over_tau_r=1e-3, g=9.81)
    gap = abs(cc.variance(inp, 0.0) / cc.mean_number(inp, 0.0) - 0.5)
    ok = in_range and gap <= 1e-3
    report(4, "sub-Poissonian counting statistics", ok,
           f" (ratio in (0,1): {in_range}; |ratio-1/2| = {gap:.2e} at tau_w/tau_r=1e-3, tol 1e-3)")


def test_05_covariance_variance_identity():
    """Zero-delay covariance reproduces the variance exactly."""
    worst = 0.0
    for g in (0.0, 9.81):
        inp = collimated_inputs(tau_w_over_tau_r=0.05, g=g)
        tau_r = inp.cloud.sigma_r / inp.cloud.sigma_v
        for big_t in np.linspace(0.0, 3.0 * tau_r, 20):
            var = cc.variance(inp, big_t)
            cov = cc.covariance_exact(inp, big_t, 0.0)
            worst = max(worst, abs(cov / var - 1.0))
    report(5, "covariance(T,0) equals variance(T)", worst <= 1e-12,
           f" (worst rel = {worst:.2e}, tol 1e-12)")


def test_06_quasistationary_consistency():
    """Zero-delay quasistationary covariance is half the small-waist mean."""
    worst = 0.0
    for frac in (1e-3, 1e-4):
        inp = collimated_inputs(tau_w_over_tau_r=frac, g=9.81)
        ts = cc.time_scales(inp.cloud, inp.beam)
        section = cc.beam_section(inp.beam, 0.0)
        for big_t in np.linspace(0.0, 3.0 * ts.tau_r, 16):
            half_mean = 0.5 * cc.sigma_small_waist(inp, big_t) * section
            got = cc.covariance_quasistationary(inp, big_t, 0.0)
            worst = max(worst, abs(got / half_mean - 1.0))
    report(6, "quasistationary zero-delay consistency", worst <= 1e-9,
           f" (worst rel = {worst:.2e}, tol 1e-9)")


def test_07_series_duality():
    """The zero-frequency spectral series matches its closed-form sum."""
    worst_peak = 0.0
    for zeta in (0.1, 1.0):
        inp = inputs_with_zeta(zeta)
        ts = cc.time_scales(inp.cloud, inp.beam)
        for t_frac in (1.0, 2.0):
            big_t = t_frac * ts.tau_r
            _, _, alpha_sq, _, b_t = quasistationary_coefficients(inp, big_t)
            c = ts.zeta * b_t / (4.0 * alpha_sq)
            expected = (
                math.pi * math.sqrt(alpha_sq) * ts.tau_w
                * math.exp(-4.0 * c) * peak_series_reference(c)
            )
            got = cc.normalized_spectrum(inp, big_t, 0.0)
            worst_peak = max(worst_peak, abs(got / expected - 1.0))

    report(7, "zero-frequency series-closed form duality", worst_peak <= 1e-10,
           f" (peak-series rel = {worst_peak:.2e} tol 1e-10)")


def test_08_spectrum_normalization():
    """The normalized spectrum integrates to one for all gravity strengths."""
    worst = 0.0
    for zeta in (0.0, 0.1, 1.0):
        inp = inputs_with_zeta(zeta)
        ts = cc.time_scales(inp.cloud, inp.beam)
        for t_frac in (0.5, 1.0, 2.0):
            big_t = t_frac * ts.tau_r
            _, _, alpha_sq, _, b_t = quasistationary_coefficients(inp, big_t)
            c = ts.zeta * b_t / (4.0 * alpha_sq)
            # beyond x = 8c+80 the enveloped series has underflowed
            omega_cut = (8.0 * c + 80.0) / (math.sqrt(alpha_sq) * ts.tau_w)
            val, _ = quad(
                lambda w: cc.normalized_spectrum(inp, big_t, w),
                0.0, omega_cut, limit=400,
            )
            tail = cc.normalized_spectrum(inp, big_t, omega_cut)
            assert tail < 1e-12
            worst = max(worst, abs(val / math.pi - 1.0))
    report(8, "spectrum normalization", worst <= 1e-6,
           f" (worst |integral-1| = {worst:.2e}, tol 1e-6)")


def test_09_spectrum_covariance_transform_pair():
    """The spectral series is the Fourier transform of the covariance."""
    inp = inputs_with_zeta(0.5)
    ts = cc.time_scales(inp.cloud, inp.beam)
    big_t = 1.5 * ts.tau_r
    worst = 0.0
    for omega in np.geomspace(0.01, 10.0, 10) / ts.tau_w:
        oracle = quasistationary_fourier_oracle(inp, big_t, float(omega))
        got = cc.spectrum_series(inp, big_t, float(omega))
        worst = max(worst, abs(got / oracle - 1.0))
    report(9, "spectrum-covariance transform pair", worst <= 1e-12,
           f" (worst rel over 3 decades = {worst:.2e}, tol 1e-12)")


def test_10_monte_carlo_oracle():
    """Desk-scale ensemble agrees with every closed form within noise."""
    n_real = 10000
    seed = 20250801
    times = np.array([0.0, 0.005, 0.010, 0.015, 0.020])
    beam = cc.BeamParams(w0=10e-6, wavelength=1e-9)  # w0/sigma_r = 0.01, collimated

    z_max = 0.0
    n_above_5 = 0
    for g in (9.81, 0.0):
        cloud = cc.CloudParams(1e4, 1e-3, 0.1, g)
        inp = cc.EffNumInputs(cloud, beam)
        stats = cc.ensemble_stats(cloud, beam, times, n_real, seed=seed, threads=4)
        zs = [(stats.mean - cc.mean_number(inp, times)) / stats.se_mean,
              (stats.variance - cc.variance(inp, times)) / stats.se_variance]
        for j in range(times.size):
            for k in range(j + 1, times.size):
                th = cc.covariance_exact(inp, 0.5 * (times[j] + times[k]), times[j] - times[k])
                zs.append(np.atleast_1d(
                    (stats.covariance[j, k] - th) / stats.se_covariance[j, k]
                ))
        z = np.abs(np.concatenate(zs))
        z_max = max(z_max, float(z.max()))
        n_above_5 += int(np.count_nonzero(z > 5.0))

    # indicator-weight Poisson checks from the same sampler
    cloud = cc.CloudParams(1e4, 1e-3, 0.1, 9.81)
    s = cloud.sigma_r
    boxes = [
        ((-np.inf, -np.inf, -np.inf), (np.inf, np.inf, np.inf)),
        ((-0.5 * s, -0.5 * s, -0.5 * s), (0.5 * s, 0.5 * s, 0.5 * s)),
    ]
    poisson_ok = True
    worst_ratio_z = 0.0
    for i, box in enumerate(boxes):
        rep = cc.binary_count_check(cloud, box, times, 2000, seed=seed + 1 + i, threads=4)
        poisson_ok &= rep.all_consistent
        worst_ratio_z = max(worst_ratio_z, float(np.max(np.abs(rep.ratio - 1.0) / rep.ratio_se)))

    ok = z_max <= 3.0 and n_above_5 < 2 and poisson_ok
    report(10, "Monte Carlo oracle agreement", ok,
           f" (max |z| = {z_max:.2f} tol 3; points beyond 5 sigma = {n_above_5}; "
           f"Poisson ratio max |z| = {worst_ratio_z:.2f})")


def test_11_saturation_consistency():
    """Series and closed saturated sigma agree; saturation rescales only."""
    sigma_r = 1e-3
    w0 = 1e-2 * sigma_r
    beam = cc.BeamParams(w0=w0, wavelength=math.pi * w0**2 / (1e3 * sigma_r))
    inp = cc.EffNumInputs(cc.CloudParams(1e6, sigma_r, 0.1, 9.81), beam)
    tau_r = sigma_r / 0.1

    worst_series = 0.0
    for s_m0 in (0.1, 0.3):
        opt = cc.OpticalParams(delta=0.0, s_m0=s_m0)
        for t in (0.0, tau_r):
            series = cc.sigma_saturated_general(inp, opt, t)
            closed = cc.sigma_saturated_closed(inp, opt, t)
            worst_series = max(worst_series, abs(series / closed - 1.0))

    opt = cc.OpticalParams(delta=0.0, s_m0=0.3)
    t_grid = np.linspace(0.0, 3.0 * tau_r, 12)
    ratio = np.asarray(cc.sigma_saturated_closed(inp, opt, t_grid)) / np.asarray(
        cc.sigma_small_waist(inp, t_grid)
    )
    worst_ratio = float(np.max(np.abs(ratio / ratio[0] - 1.0)))

    ok = worst_series <= 1e-4 and worst_ratio <= 1e-9
    report(11, "saturated sigma consistency", ok,
           f" (series vs closed rel = {worst_series:.2e} tol 1e-4; "
           f"time-shape drift = {worst_ratio:.2e} tol 1e-9)")


def test_12_cavity_identities():
    """Both printed forms of the shift and of the noise spectrum coincide."""
    rng = np.random.default_rng(20250801)
    worst_shift = 0.0
    worst_spec = 0.0
    for _ in range(100):
        beam = cc.BeamParams(
            w0=float(rng.uniform(1e-5, 3e-4)), wavelength=float(rng.uniform(4e-7, 1.1e-6))
        )
        cloud = cc.CloudParams(
            n_total=float(rng.uniform(1e4, 1e7)),
            sigma_r=float(rng.uniform(5e-4, 3e-3)),
            sigma_v=float(rng.uniform(0.03, 0.3)),
            g=float(rng.choice([0.0, 9.81])),
        )
        inp = cc.EffNumInputs(cloud, beam)
        ts = cc.time_scales(cloud, beam)
        kappa = float(rng.uniform(1e6, 4e8))
        cav = cc.CavityParams(kappa=kappa, tau_c=float(rng.uniform(1e-10, 1.0 / (2 * kappa))))
        delta = float(rng.uniform(3.0, 80.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        opt = cc.OpticalParams(delta=delta)
        n = float(rng.uniform(1.0, 1e6))
        big_t = float(rng.uniform(0.0, 2.0)) * ts.tau_r
        omega = float(rng.uniform(0.0, 3.0)) / ts.tau_w

        coupling = 3.0 * beam.wavelength**2 / (4.0 * math.pi * cc.beam_section(beam, 0.0))
        shift_a = cc.detuning_shift(cav, beam, opt, n)
        shift_b = coupling * n / (delta * cav.tau_c)
        worst_shift = max(worst_shift, abs(shift_a / shift_b - 1.0))

        shape = cc.normalized_spectrum(inp, big_t, omega)
        n_mean = cc.mean_number(inp, big_t)
        spec_a = cc.detuning_spectrum(cav, opt, inp, big_t, omega)
        spec_b = (
            cav.kappa * cc.cooperativity(cav, beam, n_mean) / delta**2
            * coupling * shape / cav.tau_c
        )
        if spec_b != 0.0:
            worst_spec = max(worst_spec, abs(spec_a / spec_b - 1.0))

    ok = worst_shift <= 1e-12 and worst_spec <= 1e-12
    report(12, "cavity detuning identities", ok,
           f" (shift rel = {worst_shift:.2e}; spectrum rel = {worst_spec:.2e}; tol 1e-12)")
