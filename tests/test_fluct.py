import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from coldcloud import (
    BeamParams,
    CloudParams,
    EffNumInputs,
    beam_section,
    covariance_exact,
    covariance_quasistationary,
    mean_number,
    normalized_spectrum,
    pk_polynomial,
    sigma_small_waist,
    spectra,
    spectrum_exponential,
    spectrum_series,
    time_scales,
    variance,
)
from coldcloud import fluct
from coldcloud.fluct import _cov_factors, _enveloped_pk_series, _log_factorials, _log_pk_sum

from oracles import (
    cosine_transform,
    enveloped_series_scipy,
    log_pk_exact,
    peak_series_reference,
    pk_reference,
    quasistationary_coefficients,
    quasistationary_fourier_oracle,
    spectrum_numeric,
)


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

    @pytest.mark.parametrize("g", [0.0, 9.81])
    @pytest.mark.parametrize("n,w0,wavelength,t_stop", [
        (1e4, 10e-6, 1e-9, 0.02),      # validate_desk.json
        (1e6, 100e-6, 852e-9, 0.03),   # default.json
    ])
    def test_pair_array_equals_scalar_calls(self, g, n, w0, wavelength, t_stop):
        # cli validate evaluates all pairs (t_j, t_k), j < k, of its grid in one call
        inp = EffNumInputs(CloudParams(n, 1e-3, 0.1, g), BeamParams(w0=w0, wavelength=wavelength))
        times = np.linspace(0.0, t_stop, 5)
        rows, cols = np.triu_indices(times.size, 1)
        together = covariance_exact(inp, 0.5 * (times[rows] + times[cols]),
                                    times[rows] - times[cols])
        one_by_one = [covariance_exact(inp, 0.5 * (times[j] + times[k]), times[j] - times[k])
                      for j, k in zip(rows, cols)]
        np.testing.assert_array_equal(together, one_by_one)

    def test_rejects_negative_sampling_time(self, inputs):
        with pytest.raises(ValueError):
            covariance_exact(inputs, 0.001, 0.003)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delay(self, inputs, tau):
        with pytest.raises(ValueError):
            covariance_exact(inputs, 0.01, tau)

    def test_shape_factor_at_zero_mean_time(self):
        # at T = 0 the exact shape factor reduces to a plain ratio
        tau_r_sq, tau_w_sq = (0.01) ** 2, (5e-4) ** 2
        tau = 3e-4
        expected = tau_w_sq * (tau_r_sq + tau_w_sq) / (
            (tau_r_sq + 0.5 * tau_w_sq) * (tau**2 + 2.0 * tau_w_sq)
        )
        assert _cov_factors(tau_r_sq, tau_w_sq, 0.0, 0.0, tau)[0] == pytest.approx(expected, rel=1e-14)

    def test_decays_with_delay(self, inputs):
        big_t = 0.02
        taus = np.linspace(0.0, 0.02, 15)
        vals = np.asarray(covariance_exact(inputs, big_t, taus))
        assert np.all(np.diff(vals) < 0.0)


class TestCovarianceQuasistationary:
    def test_zero_gravity_is_pure_lorentzian(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        big_t, tau = 1.3 * ts.tau_r, 2.7 * ts.tau_w
        n0, zeta, alpha_sq, _, _ = quasistationary_coefficients(inp, big_t)
        assert zeta == 0.0
        expected = n0 / ((tau / ts.tau_w) ** 2 + alpha_sq)
        assert covariance_quasistationary(inp, big_t, tau) == pytest.approx(
            expected, rel=1e-14
        )

    def test_zero_delay_is_half_small_waist_mean(self, rng):
        inp = small_waist_inputs(tau_w_over_tau_r=1e-3)
        ts = time_scales(inp.cloud, inp.beam)
        section = beam_section(inp.beam, 0.0)
        for big_t in rng.uniform(0.0, 3.0 * ts.tau_r, size=10):
            half_mean = 0.5 * sigma_small_waist(inp, big_t) * section
            assert covariance_quasistationary(inp, big_t, 0.0) == pytest.approx(
                half_mean, rel=1e-12
            )

    @pytest.mark.parametrize("g", [0.0, 9.81])
    def test_fall_time_whose_gravity_terms_overflow(self, g):
        # at T = 1e100, u = (T/tau_r)^2 is finite but a_T = u*(4+u) is not:
        # the exponent is past 1e154 with gravity, and 0 without
        inp = small_waist_inputs(g=g)
        ts = time_scales(inp.cloud, inp.beam)
        lorentzian = 1.0 / (2.0 * (1.0 + (1e100 / ts.tau_r) ** 2))
        expected = inp.cloud.n_total * (ts.tau_w / ts.tau_r) ** 2 * lorentzian if g == 0 else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert covariance_quasistationary(inp, 1e100, 0.0) == pytest.approx(expected, rel=1e-14)

    # measured validity of the 1% agreement: delays up to 0.2*tau_r are
    # fine through zeta ~ 0.1; stronger gravity amplifies the dropped
    # tau^2/T^2 terms in the exponent and needs shorter delays
    @pytest.mark.parametrize("zeta,tau_cap", [(0.0, 0.2), (0.1, 0.2), (0.5, 0.1)])
    def test_tracks_exact_covariance_in_regime(self, zeta, tau_cap):
        inp = inputs_with_zeta(zeta, tau_w_over_tau_r=0.02)
        ts = time_scales(inp.cloud, inp.beam)
        for big_t in np.linspace(5.0 * ts.tau_w, 2.0 * ts.tau_r, 6):
            taus = np.linspace(0.0, min(tau_cap * ts.tau_r, 2.0 * big_t), 7)
            exact = np.asarray(covariance_exact(inp, big_t, taus))
            quasi = np.asarray(covariance_quasistationary(inp, big_t, taus))
            np.testing.assert_allclose(quasi, exact, rtol=0.01)


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

    def test_largest_arguments_do_not_warn(self):
        # 2x overflows past 9e307, and log(2x) = inf is still the right limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pk_polynomial(0, 1.7e308) == 1.0
            assert pk_polynomial(0, np.array([1e300, 1.7e308])).tolist() == [1.0, 1.0]

    def test_overflowing_argument_gives_infinity(self):
        # past x = 9e307 the terms j >= 1 are +inf: their column max is inf,
        # and the sum is inf, not NaN
        x = np.array([1e300, 1.7e308])
        for k in (1, 2, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert pk_polynomial(k, 1.7e308) == math.inf
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                log_pk = _log_pk_sum(k, np.log(2.0 * x), _log_factorials(2 * k))
            assert log_pk[1] == math.inf
            assert log_pk[0] == pytest.approx(log_pk_exact(k, x[0])[0], rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pk_polynomial(-1, 1.0)
        with pytest.raises(ValueError):
            pk_polynomial(2, -0.5)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestLogSumKernel:
    """The log-space series against an exact sum and against scipy's gammaln and logsumexp."""

    @pytest.mark.parametrize("k", [*range(41), 100, 300, 500, 1021])
    def test_log_pk_matches_exact_sum(self, k):
        j = np.arange(k, dtype=float)
        log_coeff = gammaln(2 * k - j + 1) - gammaln(j + 1) - gammaln(k - j + 1)
        log_coeff_next = gammaln(2 * k - j) - gammaln(j + 2) - gammaln(k - j)
        # where terms j and j+1 of the sum are equal (some 32 of them), and
        # their neighbours
        ties = (np.exp(log_coeff - log_coeff_next) / 2.0)[::max(1, k // 32)]
        x = np.concatenate([[0.0, 5e-324, 1e300], ties,
                            np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pk = _log_pk_sum(k, np.log(2.0 * x), _log_factorials(2 * k))
        exact = log_pk_exact(k, x)
        assert np.all(np.abs(log_pk - exact) <= 1e-15 * np.maximum(1.0, np.abs(exact)))

    @pytest.mark.parametrize("c", [0.0, 1.54, 18.1, 30.3])
    def test_enveloped_series_matches_scipy_series(self, c):
        # the oracle takes k! and every p_k coefficient from scipy's gammaln,
        # and sums each p_k with scipy's logsumexp
        x = np.concatenate([[0.0, 5e-324], np.linspace(0.0, 40.0, 201)])
        np.testing.assert_allclose(_enveloped_pk_series(c, x), enveloped_series_scipy(c, x),
                                   rtol=1e-14, atol=0.0)

    def test_enveloped_series_past_the_bench_fall_times(self):
        # c = 204.65 is T = 90 ms for default.json's cloud, some 1000 terms
        x = np.linspace(0.0, 60.0, 21)
        series = _enveloped_pk_series(204.65, x)
        assert np.all(series > 0.0)
        np.testing.assert_allclose(series, enveloped_series_scipy(204.65, x), rtol=1e-14, atol=0.0)

    def test_log_factorial_table_is_gammaln(self):
        # both Cephes branches with their edges at 13 and 1000, log 2042!
        # (order 1021 above), and log 9169!, whose log(9170) numpy's SIMD
        # log rounds apart from libm's; math.lgamma differs at log 2! already
        m = np.arange(2**14 + 1)
        np.testing.assert_array_equal(_bits(_log_factorials(m[-1])[m]), _bits(gammaln(m + 1.0)))


class TestSpectra:
    def test_exponential_peak_and_linewidth(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        big_t = ts.tau_r
        n0, _, alpha_sq, _, _ = quasistationary_coefficients(inp, big_t)
        alpha = math.sqrt(alpha_sq)
        peak = spectrum_exponential(inp, big_t, 0.0)
        assert peak == pytest.approx(n0 * math.pi * ts.tau_w / alpha, rel=1e-14)
        at_width = spectrum_exponential(inp, big_t, 1.0 / (alpha * ts.tau_w))
        assert at_width == pytest.approx(peak * math.exp(-1.0), rel=1e-13)

    @pytest.mark.parametrize("g", [0.0, 9.81])
    @pytest.mark.parametrize("num_omega", [161, 2000])  # default.json, the dense benchmark grid
    def test_fall_time_grid_equals_scalar_calls(self, g, num_omega):
        # cli spectrum evaluates all (T, omega) pairs in one call.  T = 0 has
        # c = 0, and at T = 27.59 ms the numpy-scalar (T/tau_r)**2 rounds
        # one ulp away from the same square taken in an array.
        inp = EffNumInputs(CloudParams(1e6, 1e-3, 0.1, g),
                           BeamParams(w0=100e-6, wavelength=852e-9))
        big_t = np.array([0.0, 0.005, 0.02, 0.02759, 0.048])
        omega = np.linspace(0.0, 16000.0, num_omega)
        series, normalized = spectra(inp, big_t[:, None], omega)
        one_by_one = [spectra(inp, t, omega) for t in big_t]
        np.testing.assert_array_equal(series, [s for s, _ in one_by_one])
        np.testing.assert_array_equal(normalized, [n for _, n in one_by_one])
        np.testing.assert_array_equal(spectrum_series(inp, big_t[:, None], omega), series)
        np.testing.assert_array_equal(normalized_spectrum(inp, big_t[:, None], omega), normalized)
        np.testing.assert_array_equal(spectrum_exponential(inp, big_t[:, None], omega),
                                      [spectrum_exponential(inp, t, omega) for t in big_t])
        assert all(type(v) is float for v in spectra(inp, 0.02759, 100.0))

    def test_spectra_even_in_frequency(self):
        inp = inputs_with_zeta(0.4)
        ts = time_scales(inp.cloud, inp.beam)
        omega = np.array([300.0, 2000.0])
        for f in (spectrum_exponential, spectrum_series, normalized_spectrum):
            np.testing.assert_array_equal(
                np.asarray(f(inp, ts.tau_r, omega)),
                np.asarray(f(inp, ts.tau_r, -omega)),
            )

    def test_series_reduces_to_exponential_without_gravity(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        omega = np.linspace(0.0, 6.0 / ts.tau_w, 40)
        np.testing.assert_allclose(
            np.asarray(spectrum_series(inp, ts.tau_r, omega)),
            np.asarray(spectrum_exponential(inp, ts.tau_r, omega)),
            rtol=1e-14,
        )

    def test_zero_frequency_peak_series(self):
        # at zero frequency the polynomials collapse to (2k)!/k! and the
        # normalized peak is a pure series in the damped gravity parameter
        for zeta in (0.1, 1.0):
            inp = inputs_with_zeta(zeta)
            ts = time_scales(inp.cloud, inp.beam)
            big_t = 2.0 * ts.tau_r
            _, _, alpha_sq, _, b_t = quasistationary_coefficients(inp, big_t)
            alpha = math.sqrt(alpha_sq)
            c = zeta * b_t / (4.0 * alpha_sq)
            expected = (
                math.pi * alpha * ts.tau_w * math.exp(-4.0 * c) * peak_series_reference(c)
            )
            assert normalized_spectrum(inp, big_t, 0.0) == pytest.approx(
                expected, rel=1e-10
            )

    def test_series_is_transform_of_covariance(self):
        inp = inputs_with_zeta(0.5)
        ts = time_scales(inp.cloud, inp.beam)
        big_t = 1.5 * ts.tau_r
        for omega in (0.0, 0.3 / ts.tau_w, 3.0 / ts.tau_w):
            oracle = quasistationary_fourier_oracle(inp, big_t, omega)
            assert spectrum_series(inp, big_t, omega) == pytest.approx(
                oracle, rel=1e-12
            )

    @pytest.mark.parametrize("big_t,c_expected", [(0.055, 30.3), (0.09, 204.65)])
    def test_series_matches_oracle_at_large_c(self, inputs, big_t, c_expected):
        # c = 30.3 needs 205 orders at omega = 0; at c = 204.65 the damping
        # exp(-4c) underflows, so every early term of the series is zero
        ts = time_scales(inputs.cloud, inputs.beam)
        _, zeta, alpha_sq, _, b_t = quasistationary_coefficients(inputs, big_t)
        assert zeta * b_t / (4.0 * alpha_sq) == pytest.approx(c_expected, rel=1e-3)
        for omega in (0.0, 0.3 / ts.tau_w, 3.0 / ts.tau_w):
            oracle = quasistationary_fourier_oracle(inputs, big_t, omega)
            assert spectrum_series(inputs, big_t, omega) == pytest.approx(
                oracle, rel=1e-10
            )

    def test_normalized_peak_without_gravity(self):
        inp = small_waist_inputs(g=0.0)
        ts = time_scales(inp.cloud, inp.beam)
        alpha = math.sqrt(quasistationary_coefficients(inp, ts.tau_r)[2])
        assert normalized_spectrum(inp, ts.tau_r, 0.0) == pytest.approx(
            math.pi * alpha * ts.tau_w, rel=1e-14
        )

    def test_unit_area_of_normalized_spectrum(self):
        from scipy.integrate import quad

        inp = inputs_with_zeta(0.3)
        ts = time_scales(inp.cloud, inp.beam)
        big_t = ts.tau_r
        _, zeta, alpha_sq, _, b_t = quasistationary_coefficients(inp, big_t)
        c = zeta * b_t / (4.0 * alpha_sq)
        omega_cut = (8.0 * c + 80.0) / (math.sqrt(alpha_sq) * ts.tau_w)
        val, _ = quad(
            lambda w: normalized_spectrum(inp, big_t, w),
            0.0, omega_cut, limit=400,
        )
        assert val / math.pi == pytest.approx(1.0, abs=1e-9)

    def test_shared_log_factorial_table_equals_per_fall_time_series(self):
        # spectra builds one log-factorial table for the largest term cap
        # among its T; each T's series must read as from its own table
        inp = EffNumInputs(CloudParams(1e6, 1e-3, 0.1, 9.81),
                           BeamParams(w0=100e-6, wavelength=852e-9))
        big_t = 0.004 * np.arange(1, 13)
        _, _, tau_w, alpha_sq, _, b_t = fluct._scaled(inp, big_t)
        alpha = np.sqrt(alpha_sq)
        c = time_scales(inp.cloud, inp.beam).zeta * b_t / (4.0 * alpha_sq)
        # omegas with x = alpha*omega*tau_w exactly 1 at some T (9 of the 12
        # here), where the two terms of p_1 = 2 + 2x tie
        near = (1.0 / (alpha * tau_w))[:, None] * (1.0 + np.arange(-4, 5) * 2.0**-52)
        omega = np.sort(np.append(np.linspace(0.0, 16000.0, 401),
                                  near[alpha[:, None] * near * tau_w == 1.0]))
        x = alpha[:, None] * omega * tau_w
        assert np.all(x[:, 0] == 0.0) and np.count_nonzero(x == 1.0) == 9
        _, normalized = spectra(inp, big_t[:, None], omega)
        for j in range(big_t.size):
            expected = (math.pi * alpha * tau_w)[j] * _enveloped_pk_series(float(c[j]), x[j])
            np.testing.assert_array_equal(_bits(normalized[j]), _bits(expected), err_msg=f"T = {big_t[j]}")
        # the table is built per call, not cached in the module
        assert not [name for name, value in vars(fluct).items() if isinstance(value, np.ndarray)]

    def test_ratio_to_normalized_is_variance(self, rng):
        inp = inputs_with_zeta(0.6)
        ts = time_scales(inp.cloud, inp.beam)
        big_t = 1.2 * ts.tau_r
        var_qs = covariance_quasistationary(inp, big_t, 0.0)
        for omega in rng.uniform(0.0, 5.0 / ts.tau_w, size=8):
            ratio = spectrum_series(inp, big_t, omega) / normalized_spectrum(
                inp, big_t, omega
            )
            assert ratio == pytest.approx(var_qs, rel=1e-12)

    @pytest.mark.parametrize("zeta", [0.0, 0.3, 1.0])
    def test_peak_is_at_zero_frequency(self, zeta):
        # a transform of the nonnegative covariance is largest at omega = 0,
        # the only value is_linear_regime compares with kappa
        inp = inputs_with_zeta(zeta)
        ts = time_scales(inp.cloud, inp.beam)
        omega = np.linspace(0.0, 10.0 / ts.tau_w, 2001)
        for big_t in (0.5 * ts.tau_r, 2.0 * ts.tau_r, 4.0 * ts.tau_r):
            shape = normalized_spectrum(inp, big_t, omega)
            assert np.all(shape[1:] <= shape[0])

    def test_positive_spectrum(self):
        inp = inputs_with_zeta(1.0)
        ts = time_scales(inp.cloud, inp.beam)
        omega = np.linspace(0.0, 10.0 / ts.tau_w, 60)
        for big_t in (0.3 * ts.tau_r, ts.tau_r, 3.0 * ts.tau_r):
            assert np.all(np.asarray(spectrum_series(inp, big_t, omega)) >= 0.0)


class TestSpectrumNumeric:
    """The oracles' direct transform, checked on known pairs and then
    against the spectral series."""

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
        big_t = 2.0 * ts.tau_r
        tau_grid = np.linspace(-400.0 * ts.tau_w, 400.0 * ts.tau_w, 12801)
        omega = np.linspace(0.05, 1.0, 6) / ts.tau_w
        numeric = spectrum_numeric(inp, big_t, tau_grid, omega)
        series = np.asarray(spectrum_series(inp, big_t, omega))
        np.testing.assert_allclose(numeric, series, rtol=3e-3)
