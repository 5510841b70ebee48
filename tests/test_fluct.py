import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldcloud import (
    BeamParams,
    CloudParams,
    EffNumInputs,
    ScaledFluctParams,
    SeriesConvergenceError,
    beam_section,
    cosine_transform,
    covariance_exact,
    covariance_quasistationary,
    covariance_series,
    mean_number,
    normalized_spectrum,
    pk_polynomial,
    scaled_fluct_params,
    sigma_small_waist,
    spectrum_exponential,
    spectrum_numeric,
    spectrum_series,
    time_scales,
    variance,
)
from coldcloud.fluct import _cov_shape

from oracles import peak_series_reference, pk_reference, quasistationary_fourier_oracle


def small_waist_inputs(tau_w_over_tau_r=0.005, g=9.81, n=1e6, sigma_r=1e-3, sigma_v=0.1):
    """Collimated narrow probe: the regime of the fluctuation statistics."""
    w0 = 2.0 * sigma_v * (sigma_r / sigma_v) * tau_w_over_tau_r
    return EffNumInputs(
        CloudParams(n, sigma_r, sigma_v, g), BeamParams(w0=w0, wavelength=1e-9)
    )


def inputs_with_zeta(zeta, tau_w_over_tau_r=0.005, n=1e6, sigma_v=0.1):
    """Cloud whose expansion/fall ratio gives the requested zeta."""
    if zeta == 0.0:
        return small_waist_inputs(tau_w_over_tau_r, g=0.0, sigma_v=sigma_v)
    g = 9.81
    tau_g = 2.0 * math.sqrt(2.0) * sigma_v / g
    sigma_r = math.sqrt(zeta) * tau_g * sigma_v
    return small_waist_inputs(tau_w_over_tau_r, g=g, sigma_r=sigma_r, sigma_v=sigma_v)


class TestMeanAndVariance:
    def test_initial_mean(self, rng):
        inp = small_waist_inputs()
        ts = time_scales(inp.cloud, inp.beam)
        expected = inp.cloud.n_total * ts.tau_w**2 / (ts.tau_r**2 + ts.tau_w**2)
        assert mean_number(inp, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_mean_halves_at_tau_r_without_gravity(self):
        inp = small_waist_inputs(tau_w_over_tau_r=1e-3, g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        assert mean_number(inp, ts.tau_r) == pytest.approx(
            0.5 * mean_number(inp, 0.0), rel=1e-5
        )

    def test_mean_is_sigma_times_section(self, inputs, beam, rng):
        from coldcloud import sigma_long_rayleigh

        t = rng.uniform(0.0, 0.04, size=20)
        np.testing.assert_allclose(
            mean_number(inputs, t),
            np.asarray(sigma_long_rayleigh(inputs, t)) * beam_section(beam, 0.0),
            rtol=1e-12,
        )

    def test_variance_ratio_anchor(self):
        # tau_w/tau_r = 0.05 at t = 0, no gravity factor at t = 0
        inp = small_waist_inputs(tau_w_over_tau_r=0.05)
        ratio = variance(inp, 0.0) / mean_number(inp, 0.0)
        assert ratio == pytest.approx((1.0 + 0.0025) / (2.0 + 0.0025), rel=1e-12)
        assert ratio == pytest.approx(0.5006242197253433, rel=1e-9)

    def test_variance_is_mean_at_shrunk_transit_time(self, inputs, rng):
        # the squared weight halves the squared transit time
        c, b = inputs.cloud, inputs.beam
        shrunk = EffNumInputs(c, BeamParams(b.w0 / math.sqrt(2.0), b.wavelength))
        ts = time_scales(c, b)
        ts_shrunk = time_scales(c, shrunk.beam)
        assert ts_shrunk.tau_w**2 == pytest.approx(ts.tau_w**2 / 2.0, rel=1e-12)
        for t in rng.uniform(0.0, 0.03, size=8):
            assert variance(inputs, t) == pytest.approx(
                mean_number(shrunk, t), rel=1e-12
            )

    @settings(max_examples=60)
    @given(
        tau_w_frac=st.floats(1e-4, 0.9),
        t_frac=st.floats(0.0, 5.0),
        g=st.sampled_from([0.0, 9.81]),
    )
    def test_always_sub_poissonian(self, tau_w_frac, t_frac, g):
        inp = small_waist_inputs(tau_w_over_tau_r=tau_w_frac, g=g)
        ts = time_scales(inp.cloud, inp.beam)
        t = t_frac * ts.tau_r
        m, v = mean_number(inp, t), variance(inp, t)
        assert 0.0 < v < m

    def test_half_law_approached_monotonically(self):
        ratios = []
        for frac in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
            inp = small_waist_inputs(tau_w_over_tau_r=frac, g=0.0)
            ratios.append(variance(inp, 0.0) / mean_number(inp, 0.0))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(0.5, abs=1e-3)


class TestCovarianceExact:
    def test_zero_delay_is_variance(self, inputs):
        for big_t in np.linspace(0.0, 0.05, 20):
            assert covariance_exact(inputs, big_t, 0.0) == pytest.approx(
                variance(inputs, big_t), rel=1e-12
            )

    def test_even_in_delay(self, inputs, rng):
        for _ in range(10):
            big_t = rng.uniform(0.01, 0.04)
            tau = rng.uniform(0.0, 2.0 * big_t)
            assert covariance_exact(inputs, big_t, tau) == covariance_exact(
                inputs, big_t, -tau
            )

    def test_rejects_negative_sampling_time(self, inputs):
        with pytest.raises(ValueError):
            covariance_exact(inputs, 0.001, 0.003)

    def test_shape_factor_at_zero_mean_time(self):
        # at T = 0 the exact shape factor reduces to a plain ratio
        tau_r_sq, tau_w_sq = (0.01) ** 2, (5e-4) ** 2
        tau = 3e-4
        expected = tau_w_sq * (tau_r_sq + tau_w_sq) / (
            (tau_r_sq + 0.5 * tau_w_sq) * (tau**2 + 2.0 * tau_w_sq)
        )
        assert _cov_shape(tau_r_sq, tau_w_sq, 0.0, tau) == pytest.approx(expected, rel=1e-14)

    def test_decays_with_delay(self, inputs):
        big_t = 0.02
        taus = np.linspace(0.0, 0.02, 15)
        vals = np.asarray(covariance_exact(inputs, big_t, taus))
        assert np.all(np.diff(vals) < 0.0)


class TestCovarianceQuasistationary:
    def test_zero_gravity_is_pure_lorentzian(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        assert p.zeta == 0.0
        big_t, tau = 1.3 * ts.tau_r, 2.7 * ts.tau_w
        expected = p.n0 / ((tau / ts.tau_w) ** 2 + p.alpha_t_sq(big_t))
        assert covariance_quasistationary(p, ts.tau_w, big_t, tau) == pytest.approx(
            expected, rel=1e-14
        )

    def test_zero_delay_is_half_small_waist_mean(self, rng):
        inp = small_waist_inputs(tau_w_over_tau_r=1e-3)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        section = beam_section(inp.beam, 0.0)
        for big_t in rng.uniform(0.0, 3.0 * ts.tau_r, size=10):
            half_mean = 0.5 * sigma_small_waist(inp, big_t) * section
            assert covariance_quasistationary(p, ts.tau_w, big_t, 0.0) == pytest.approx(
                half_mean, rel=1e-12
            )

    # measured validity of the 1% agreement: delays up to 0.2*tau_r are
    # fine through zeta ~ 0.1; stronger gravity amplifies the dropped
    # tau^2/T^2 terms in the exponent and needs shorter delays
    @pytest.mark.parametrize("zeta,tau_cap", [(0.0, 0.2), (0.1, 0.2), (0.5, 0.1)])
    def test_tracks_exact_covariance_in_regime(self, zeta, tau_cap):
        inp = inputs_with_zeta(zeta, tau_w_over_tau_r=0.02)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        for big_t in np.linspace(5.0 * ts.tau_w, 2.0 * ts.tau_r, 6):
            taus = np.linspace(0.0, min(tau_cap * ts.tau_r, 2.0 * big_t), 7)
            exact = np.asarray(covariance_exact(inp, big_t, taus))
            quasi = np.asarray(covariance_quasistationary(p, ts.tau_w, big_t, taus))
            np.testing.assert_allclose(quasi, exact, rtol=0.01)

    def test_exact_n0_option(self):
        inp = small_waist_inputs(tau_w_over_tau_r=0.1)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp, exact_n0=True)
        expected = inp.cloud.n_total * ts.tau_w**2 / (ts.tau_r**2 + ts.tau_w**2)
        assert p.n0 == pytest.approx(expected, rel=1e-14)

    def test_invariants_of_scaled_params(self):
        p = ScaledFluctParams(n0=1.0, zeta=0.3, tau_r=0.01)
        assert p.alpha_t_sq(0.0) == 2.0
        assert p.a_t(0.0) == 0.0 and p.b_t(0.0) == 0.0
        with pytest.raises(ValueError):
            ScaledFluctParams(n0=1.0, zeta=-0.1, tau_r=0.01)


class TestCovarianceSeries:
    def test_zeroth_order_without_gravity_is_quasistationary(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        big_t, tau = ts.tau_r, 0.5 * ts.tau_w
        assert covariance_series(p, ts.tau_w, big_t, tau, kmax=0) == pytest.approx(
            covariance_quasistationary(p, ts.tau_w, big_t, tau), rel=1e-15
        )

    @pytest.mark.parametrize("zeta", [0.1, 1.0])
    def test_converged_sum_equals_closed_form(self, zeta):
        inp = inputs_with_zeta(zeta)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        for big_t in (0.5 * ts.tau_r, 1.5 * ts.tau_r, 3.0 * ts.tau_r):
            for tau in (0.0, 0.3 * ts.tau_w, 5.0 * ts.tau_w, ts.tau_r):
                closed = covariance_quasistationary(p, ts.tau_w, big_t, tau)
                summed = covariance_series(p, ts.tau_w, big_t, tau)
                assert summed == pytest.approx(closed, rel=1e-9)

    def test_term_count_at_strong_gravity(self):
        # measured requirement at zeta = 1, T = 3*tau_r: 190 orders to reach
        # 1e-12; the adaptive cap of 200 leaves headroom
        inp = inputs_with_zeta(1.0)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        big_t = 3.0 * ts.tau_r
        ref = covariance_quasistationary(p, ts.tau_w, big_t, 0.0)
        needed = None
        for k in range(0, 201, 5):
            if covariance_series(p, ts.tau_w, big_t, 0.0, kmax=k) == pytest.approx(
                ref, rel=1e-11
            ):
                needed = k
                break
        assert needed is not None and needed <= 195

    def test_raises_beyond_the_cap(self):
        # T = 4*tau_r at zeta = 1 needs ~430 orders, past the cap of 200,
        # while the leading term is still far above the underflow floor
        inp = inputs_with_zeta(1.0)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        with pytest.raises(SeriesConvergenceError):
            covariance_series(p, ts.tau_w, 4.0 * ts.tau_r, 0.0)

    def test_rejects_negative_kmax(self):
        inp = small_waist_inputs()
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        with pytest.raises(ValueError):
            covariance_series(p, ts.tau_w, 0.01, 0.0, kmax=-1)


class TestPkPolynomial:
    def test_order_zero_is_one(self):
        for x in (0.0, 0.3, 10.0):
            assert pk_polynomial(0, x) == 1.0

    def test_order_one(self):
        for x in (0.0, 0.5, 4.0):
            assert pk_polynomial(1, x) == pytest.approx(2.0 + 2.0 * x, rel=1e-15)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 15, 20])
    def test_zero_argument_value(self, k):
        expected = math.factorial(2 * k) / math.factorial(k)
        assert pk_polynomial(k, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [3, 8, 14])
    def test_exact_path_matches_reference(self, k, rng):
        for x in rng.uniform(0.0, 30.0, size=5):
            assert pk_polynomial(k, x) == pytest.approx(pk_reference(k, x), rel=1e-12)

    @pytest.mark.parametrize("k", [16, 25, 40, 60])
    def test_log_path_matches_reference(self, k, rng):
        for x in rng.uniform(0.0, 50.0, size=4):
            assert pk_polynomial(k, x) == pytest.approx(pk_reference(k, x), rel=1e-12)

    def test_leading_term_dominates_large_argument(self):
        x = 1e7
        for k in (2, 5, 9):
            assert pk_polynomial(k, x) == pytest.approx((2.0 * x) ** k, rel=1e-5)

    def test_positive_everywhere(self, rng):
        for k in range(0, 12):
            for x in rng.uniform(0.0, 100.0, size=3):
                assert pk_polynomial(k, x) > 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pk_polynomial(-1, 1.0)
        with pytest.raises(ValueError):
            pk_polynomial(2, -0.5)


class TestSpectra:
    def test_exponential_peak_and_linewidth(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        big_t = ts.tau_r
        alpha = math.sqrt(p.alpha_t_sq(big_t))
        peak = spectrum_exponential(p, ts.tau_w, big_t, 0.0)
        assert peak == pytest.approx(p.n0 * math.pi * ts.tau_w / alpha, rel=1e-14)
        at_width = spectrum_exponential(p, ts.tau_w, big_t, 1.0 / (alpha * ts.tau_w))
        assert at_width == pytest.approx(peak * math.exp(-1.0), rel=1e-13)

    def test_spectra_even_in_frequency(self):
        inp = inputs_with_zeta(0.4)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        omega = np.array([300.0, 2000.0])
        for f in (spectrum_exponential, spectrum_series, normalized_spectrum):
            np.testing.assert_array_equal(
                np.asarray(f(p, ts.tau_w, ts.tau_r, omega)),
                np.asarray(f(p, ts.tau_w, ts.tau_r, -omega)),
            )

    def test_series_reduces_to_exponential_without_gravity(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        omega = np.linspace(0.0, 6.0 / ts.tau_w, 40)
        np.testing.assert_allclose(
            np.asarray(spectrum_series(p, ts.tau_w, ts.tau_r, omega)),
            np.asarray(spectrum_exponential(p, ts.tau_w, ts.tau_r, omega)),
            rtol=1e-14,
        )

    def test_zero_frequency_peak_series(self):
        # at zero frequency the polynomials collapse to (2k)!/k! and the
        # normalized peak is a pure series in the damped gravity parameter
        for zeta in (0.1, 1.0):
            inp = inputs_with_zeta(zeta)
            ts = time_scales(inp.cloud, inp.beam)
            p = scaled_fluct_params(inp)
            big_t = 2.0 * ts.tau_r
            alpha_sq = p.alpha_t_sq(big_t)
            alpha = math.sqrt(alpha_sq)
            c = zeta * p.b_t(big_t) / (4.0 * alpha_sq)
            expected = (
                math.pi * alpha * ts.tau_w * math.exp(-4.0 * c) * peak_series_reference(c)
            )
            assert normalized_spectrum(p, ts.tau_w, big_t, 0.0) == pytest.approx(
                expected, rel=1e-10
            )

    def test_series_is_transform_of_covariance(self):
        inp = inputs_with_zeta(0.5)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        big_t = 1.5 * ts.tau_r
        for omega in (0.0, 0.3 / ts.tau_w, 3.0 / ts.tau_w):
            oracle = quasistationary_fourier_oracle(
                p.n0, p.zeta, p.alpha_t_sq(big_t), p.a_t(big_t), p.b_t(big_t),
                ts.tau_w, omega,
            )
            assert spectrum_series(p, ts.tau_w, big_t, omega) == pytest.approx(
                oracle, rel=1e-6
            )

    @pytest.mark.parametrize("big_t,c_expected", [(0.055, 30.3), (0.09, 204.65)])
    def test_series_matches_oracle_at_large_c(self, inputs, big_t, c_expected):
        # c = 30.3 needs 205 orders at omega = 0; at c = 204.65 the damping
        # exp(-4c) underflows, so every early term of the series is zero
        ts = time_scales(inputs.cloud, inputs.beam)
        p = scaled_fluct_params(inputs)
        alpha_sq = p.alpha_t_sq(big_t)
        assert p.zeta * p.b_t(big_t) / (4.0 * alpha_sq) == pytest.approx(c_expected, rel=1e-3)
        for omega in (0.0, 0.3 / ts.tau_w, 3.0 / ts.tau_w):
            oracle = quasistationary_fourier_oracle(
                p.n0, p.zeta, alpha_sq, p.a_t(big_t), p.b_t(big_t), ts.tau_w, omega,
            )
            assert spectrum_series(p, ts.tau_w, big_t, omega) == pytest.approx(
                oracle, rel=1e-10
            )

    def test_kmax_zero_transform_pair(self):
        # at zeroth order the covariance is a damped plain Lorentzian whose
        # transform is the exponential times exp(-zeta*a_T)
        inp = inputs_with_zeta(0.8)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        big_t = ts.tau_r
        omega = 0.7 / ts.tau_w
        expected = spectrum_exponential(p, ts.tau_w, big_t, omega) * math.exp(
            -p.zeta * p.a_t(big_t)
        )
        assert spectrum_series(p, ts.tau_w, big_t, omega, kmax=0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_normalized_peak_without_gravity(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        alpha = math.sqrt(p.alpha_t_sq(ts.tau_r))
        assert normalized_spectrum(p, ts.tau_w, ts.tau_r, 0.0) == pytest.approx(
            math.pi * alpha * ts.tau_w, rel=1e-14
        )

    def test_unit_area_of_normalized_spectrum(self):
        from scipy.integrate import quad

        inp = inputs_with_zeta(0.3)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        big_t = ts.tau_r
        alpha_sq = p.alpha_t_sq(big_t)
        c = p.zeta * p.b_t(big_t) / (4.0 * alpha_sq)
        omega_cut = (8.0 * c + 80.0) / (math.sqrt(alpha_sq) * ts.tau_w)
        val, _ = quad(
            lambda w: normalized_spectrum(p, ts.tau_w, big_t, w),
            0.0, omega_cut, limit=400,
        )
        assert val / math.pi == pytest.approx(1.0, abs=1e-9)

    def test_ratio_to_normalized_is_variance(self, rng):
        inp = inputs_with_zeta(0.6)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        big_t = 1.2 * ts.tau_r
        var_qs = covariance_quasistationary(p, ts.tau_w, big_t, 0.0)
        for omega in rng.uniform(0.0, 5.0 / ts.tau_w, size=8):
            ratio = spectrum_series(p, ts.tau_w, big_t, omega) / normalized_spectrum(
                p, ts.tau_w, big_t, omega
            )
            assert ratio == pytest.approx(var_qs, rel=1e-12)

    def test_positive_spectrum(self):
        inp = inputs_with_zeta(1.0)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        omega = np.linspace(0.0, 10.0 / ts.tau_w, 60)
        for big_t in (0.3 * ts.tau_r, ts.tau_r, 3.0 * ts.tau_r):
            assert np.all(np.asarray(spectrum_series(p, ts.tau_w, big_t, omega)) >= 0.0)


class TestSpectrumNumeric:
    def test_narrow_correlation_gives_flat_spectrum(self):
        # a correlation much narrower than 1/omega transforms to its area
        tau = np.linspace(-1.0, 1.0, 20001)
        width = 0.01
        values = np.exp(-0.5 * (tau / width) ** 2)
        area = width * math.sqrt(2.0 * math.pi)
        omega = np.array([0.0, 1.0, 2.0])
        got = cosine_transform(tau, values, omega)
        np.testing.assert_allclose(got, area, rtol=1e-3)

    def test_lorentzian_transforms_to_exponential(self):
        a = 0.05
        tau = np.linspace(-40.0, 40.0, 400001)
        values = 1.0 / (tau**2 + a**2)
        omega = np.array([10.0, 40.0, 80.0])
        got = cosine_transform(tau, values, omega)
        expected = math.pi / a * np.exp(-a * omega)
        np.testing.assert_allclose(got, expected, rtol=2e-3)

    def test_matches_series_spectrum(self):
        # Lorentzian-like tails truncate slowly, so the grid must be long;
        # frequencies start above zero where truncation is oscillation-damped
        inp = small_waist_inputs(tau_w_over_tau_r=0.005)
        ts = time_scales(inp.cloud, inp.beam)
        p = scaled_fluct_params(inp)
        big_t = 2.0 * ts.tau_r
        tau_grid = np.linspace(-400.0 * ts.tau_w, 400.0 * ts.tau_w, 12801)
        omega = np.linspace(0.05, 1.0, 6) / ts.tau_w
        numeric = spectrum_numeric(inp, big_t, tau_grid, omega)
        series = np.asarray(spectrum_series(p, ts.tau_w, big_t, omega))
        np.testing.assert_allclose(numeric, series, rtol=3e-3)

    def test_warns_on_short_grid(self, inputs):
        ts = time_scales(inputs.cloud, inputs.beam)
        tau_grid = np.linspace(-4.0 * ts.tau_w, 4.0 * ts.tau_w, 101)
        with pytest.warns(UserWarning, match="correlation widths"):
            spectrum_numeric(inputs, 2.0 * ts.tau_r, tau_grid, np.array([0.0]))

    def test_rejects_asymmetric_grid(self, inputs):
        with pytest.raises(ValueError):
            spectrum_numeric(inputs, 0.02, np.linspace(-1e-3, 2e-3, 31), np.array([0.0]))
