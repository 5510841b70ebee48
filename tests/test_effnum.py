import math

import numpy as np
import pytest
from scipy.integrate import quad

from coldcloud import (
    BeamParams,
    CloudParams,
    EffNumInputs,
    OpticalParams,
    beam_section,
    beam_size,
    column_number_density,
    density,
    layer_number_density,
    linear_field_shift,
    mean_number,
    sigma_general,
    sigma_high_temperature,
    sigma_long_rayleigh,
    sigma_saturated_general,
    sigma_small_waist,
    time_scales,
)

from oracles import gaussian_product_window, sigma_general_quad, transverse_quad


def make_inputs(sigma_r=1e-3, sigma_v=0.1, g=9.81, w0=1e-4, wavelength=852e-9, n=1e6):
    return EffNumInputs(
        CloudParams(n_total=n, sigma_r=sigma_r, sigma_v=sigma_v, g=g),
        BeamParams(w0=w0, wavelength=wavelength),
    )


def beam_for_ratio(sigma_r, w0_over_sigma_r, sigma_r_over_lr):
    """Beam with prescribed waist/cloud and cloud/Rayleigh ratios."""
    w0 = w0_over_sigma_r * sigma_r
    l_r = sigma_r / sigma_r_over_lr
    return BeamParams(w0=w0, wavelength=math.pi * w0**2 / l_r)


class TestColumnNumberDensity:
    def test_initial_peak(self, inputs, cloud):
        expected = cloud.n_total / (cloud.sigma_r * math.sqrt(2.0 * math.pi))
        assert column_number_density(inputs, 0.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_integrates_to_total_number(self, inputs, cloud):
        for t in (0.0, 0.01):
            spread = math.sqrt(cloud.sigma_r**2 + (cloud.sigma_v * t) ** 2)
            val, _ = quad(
                lambda x: column_number_density(inputs, x, t),
                -12 * spread, 12 * spread,
                epsabs=0.0, epsrel=1e-11,
            )
            assert val == pytest.approx(cloud.n_total, rel=1e-9)

    def test_spread_doubles_variance_at_tau_r(self, inputs, cloud, beam):
        tau_r = time_scales(cloud, beam).tau_r
        expected = cloud.n_total / (2.0 * cloud.sigma_r * math.sqrt(math.pi))
        assert column_number_density(inputs, 0.0, tau_r) == pytest.approx(expected, rel=1e-13)


class TestLayerNumberDensity:
    @pytest.mark.parametrize(
        "x_frac,t_ms,g", [(0.0, 0.0, 9.81), (0.7, 12.0, 9.81), (-1.4, 7.0, 0.0)]
    )
    def test_matches_transverse_quadrature(self, x_frac, t_ms, g):
        inp = make_inputs(g=g, w0=3e-4)
        c = inp.cloud
        x = x_frac * c.sigma_r
        t = t_ms * 1e-3
        w = beam_size(inp.beam, x)

        def integrand(z, y):
            f = math.exp(-2.0 * (y * y + z * z) / (w * w))
            return f * density(c, (x, y, z), t)

        spread = math.sqrt(c.sigma_r**2 + (c.sigma_v * t) ** 2)
        # the integrand is the product of a weight of width w/2 and a
        # density of width spread, offset by the fall
        y_win = gaussian_product_window(0.5 * w, spread)
        z_win = gaussian_product_window(0.5 * w, spread, center_b=-0.5 * g * t**2)
        oracle = transverse_quad(integrand, y_win, z_win)
        assert layer_number_density(inp, x, t) == pytest.approx(oracle, rel=1e-9)

    def test_small_beam_leading_order(self):
        # collimated narrow beam: w0/sigma_r = 1e-3 with a long Rayleigh range
        inp = make_inputs(g=0.0, w0=1e-6, wavelength=1e-9)
        x = 0.4e-3
        lead = column_number_density(inp, x, 0.0) * beam_size(inp.beam, x) ** 2 / (
            4.0 * inp.cloud.sigma_r**2
        )
        assert layer_number_density(inp, x, 0.0) == pytest.approx(lead, rel=1e-6)

    def test_wide_beam_counts_whole_slab(self):
        inp = make_inputs(g=0.0, w0=1.0, wavelength=1e-9)  # w0 = 1000 sigma_r
        x = 0.2e-3
        assert layer_number_density(inp, x, 0.005) == pytest.approx(
            column_number_density(inp, x, 0.005), rel=1e-5
        )

    def test_never_exceeds_column_density(self, rng):
        inp = make_inputs(w0=4e-4)
        for _ in range(25):
            x = rng.uniform(-3e-3, 3e-3)
            t = rng.uniform(0.0, 0.03)
            assert layer_number_density(inp, x, t) <= column_number_density(inp, x, t)


class TestSigmaClosedForms:
    def test_small_waist_initial_value(self):
        inp = make_inputs(g=0.0)
        # N/(2 pi sigma_r^2) for N=1e6, sigma_r=1mm
        assert sigma_small_waist(inp, 0.0) == pytest.approx(1.5915494309189535e11, rel=1e-12)

    def test_small_waist_lorentzian_half_decay(self):
        inp = make_inputs(g=0.0)
        tau_r = inp.cloud.sigma_r / inp.cloud.sigma_v
        assert sigma_small_waist(inp, tau_r) == pytest.approx(
            0.5 * sigma_small_waist(inp, 0.0), rel=1e-13
        )

    def test_long_rayleigh_reduces_to_small_waist(self):
        inp = make_inputs(w0=2e-7)  # tau_w/tau_r = 1e-4
        t = np.linspace(0.0, 0.03, 7)
        np.testing.assert_allclose(
            sigma_long_rayleigh(inp, t), sigma_small_waist(inp, t), rtol=1e-7
        )

    def test_long_rayleigh_initial_value(self, inputs, cloud, beam):
        ts = time_scales(cloud, beam)
        expected = cloud.n_total / (2.0 * math.pi * cloud.sigma_v**2 * (ts.tau_r**2 + ts.tau_w**2))
        assert sigma_long_rayleigh(inputs, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_long_rayleigh_times_section_is_mean_number(self, inputs, beam, rng):
        t = rng.uniform(0.0, 0.04, size=20)
        sigma = np.asarray(sigma_long_rayleigh(inputs, t))
        np.testing.assert_allclose(
            sigma * beam_section(beam, 0.0), mean_number(inputs, t), rtol=1e-12
        )

    def test_high_temperature_equals_small_waist_without_gravity(self):
        inp = make_inputs(g=0.0)
        t = np.linspace(0.0, 0.05, 11)
        np.testing.assert_array_equal(
            np.asarray(sigma_high_temperature(inp, t)), np.asarray(sigma_small_waist(inp, t))
        )

    def test_high_temperature_first_order_agreement(self):
        # zeta = 0.01: the single-formula variant deviates from the
        # small-waist form by about zeta/2 at t = tau_r
        sigma_v, g = 0.1, 9.81
        tau_g = 2.0 * math.sqrt(2.0) * sigma_v / g
        sigma_r = 0.1 * tau_g * sigma_v
        inp = make_inputs(sigma_r=sigma_r, sigma_v=sigma_v, g=g)
        tau_r = sigma_r / sigma_v
        gap = abs(
            sigma_high_temperature(inp, tau_r) / sigma_small_waist(inp, tau_r) - 1.0
        )
        assert gap < 2.0 * 0.01

    def test_high_temperature_gravity_factor_at_tau_g(self):
        inp = make_inputs()
        ts = time_scales(inp.cloud, inp.beam)
        free = make_inputs(g=0.0)
        ratio = sigma_high_temperature(inp, ts.tau_g) / sigma_high_temperature(free, ts.tau_g)
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_positive_and_decreasing_without_gravity(self):
        inp = make_inputs(g=0.0)
        t = np.linspace(0.0, 0.1, 50)
        for f in (sigma_small_waist, sigma_long_rayleigh, sigma_high_temperature):
            vals = np.asarray(f(inp, t))
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)

    def test_rejects_negative_time(self, inputs):
        for f in (sigma_small_waist, sigma_long_rayleigh, sigma_high_temperature):
            with pytest.raises(ValueError):
                f(inputs, -1e-3)


class TestSigmaGeneral:
    def test_collapses_to_long_rayleigh(self):
        cloud = CloudParams(1e6, 1e-3, 0.1, 9.81)
        beam = beam_for_ratio(cloud.sigma_r, w0_over_sigma_r=0.5, sigma_r_over_lr=1e-3)
        inp = EffNumInputs(cloud, beam)
        for t in (0.0, 0.012, 0.03):
            assert sigma_general(inp, t) == pytest.approx(
                sigma_long_rayleigh(inp, t), rel=1e-6
            )

    def test_collapses_to_small_waist(self):
        cloud = CloudParams(1e6, 1e-3, 0.1, 9.81)
        beam = beam_for_ratio(cloud.sigma_r, w0_over_sigma_r=1e-2, sigma_r_over_lr=1.0)
        inp = EffNumInputs(cloud, beam)
        for t in (0.0, 0.012, 0.03):
            assert sigma_general(inp, t) == pytest.approx(
                sigma_small_waist(inp, t), rel=1e-4
            )

    def test_initial_value_in_joint_limit(self):
        cloud = CloudParams(1e6, 1e-3, 0.1, 0.0)
        beam = beam_for_ratio(cloud.sigma_r, w0_over_sigma_r=1e-2, sigma_r_over_lr=1e-3)
        inp = EffNumInputs(cloud, beam)
        assert sigma_general(inp, 0.0) == pytest.approx(1.5915494309189535e11, rel=1e-4)

    def test_collapse_gap_shrinks_with_the_ratio(self):
        # the bias against each closed form must fall as its regime
        # parameter does
        cloud = CloudParams(1e6, 1e-3, 0.1, 9.81)
        t = 0.008

        gaps_lr = []
        for ratio in (1e-2, 1e-3):
            beam = beam_for_ratio(cloud.sigma_r, w0_over_sigma_r=0.5, sigma_r_over_lr=ratio)
            inp = EffNumInputs(cloud, beam)
            gaps_lr.append(abs(sigma_general(inp, t) / sigma_long_rayleigh(inp, t) - 1.0))
        assert gaps_lr[1] < gaps_lr[0]

        gaps_sw = []
        for ratio in (1e-1, 1e-2):
            beam = beam_for_ratio(cloud.sigma_r, w0_over_sigma_r=ratio, sigma_r_over_lr=0.3)
            inp = EffNumInputs(cloud, beam)
            gaps_sw.append(abs(sigma_general(inp, t) / sigma_small_waist(inp, t) - 1.0))
        assert gaps_sw[1] < gaps_sw[0]

    def test_rejects_negative_time(self, inputs):
        with pytest.raises(ValueError):
            sigma_general(inputs, -0.01)

    # l_R/sigma_r from 0.013 to 3e12, every beam paraxial (w0 >= lambda)
    @pytest.mark.parametrize("g", [0.0, 9.81])
    @pytest.mark.parametrize("w0, wavelength", [
        (4e-6, 4e-6), (1e-5, 852e-9), (1e-4, 852e-9), (1e-3, 852e-9),
        (1e-2, 852e-9), (1e-3, 1e-15),
    ])
    def test_matches_adaptive_quadrature(self, w0, wavelength, g):
        inp = make_inputs(g=g, w0=w0, wavelength=wavelength)
        t = np.array([0.0, 1e-3, 0.01, 0.03, 0.1])
        if g == 0.0 and (w0, wavelength) == (1e-4, 852e-9):
            # default.json at 1e3 s: a cloud 2.7e3 Rayleigh lengths wide
            t = np.append(t, 1e3)
        expected = [sigma_general_quad(inp, ti) for ti in t]
        np.testing.assert_allclose(sigma_general(inp, t), expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("sigma", ["sigma_general", "sigma_saturated_general"])
    def test_tiny_values_scale_with_the_atom_number(self, sigma):
        # default.json at g = 0 and t = 1e140: sigma ~ 1.6e-273, while each
        # node's layer/S(x) alone lies below the float range.  2**600 times
        # the atoms lift every step into it; sigma scales exactly with them
        def at(n):
            inp = make_inputs(g=0.0, n=n)
            if sigma == "sigma_general":
                return sigma_general(inp, 1e140)
            return sigma_saturated_general(inp, OpticalParams(delta=10.0, s_m0=0.3), 1e140)

        with np.errstate(over="ignore", invalid="ignore"):
            tiny, lifted = at(1e6), at(1e6 * 2.0**600)
        assert tiny > 0.0
        np.testing.assert_allclose(math.ldexp(tiny, 600), lifted, rtol=1e-15)

    def test_scalar_time_gives_float(self, inputs):
        value = sigma_general(inputs, 0.01)
        assert type(value) is float
        assert value == sigma_general(inputs, np.array([0.01]))[0]


class TestLinearFieldShift:
    def test_resonant_shift_is_real(self, inputs):
        shift = linear_field_shift(inputs, OpticalParams(delta=0.0), 0.0)
        lam = inputs.beam.wavelength
        expected = -3.0 * lam**2 / (4.0 * math.pi) * sigma_general(inputs, 0.0)
        assert shift.imag == 0.0
        assert shift.real == pytest.approx(expected, rel=1e-12)

    def test_phase_to_absorption_ratio_is_detuning(self, inputs):
        shift = linear_field_shift(inputs, OpticalParams(delta=7.0), 0.005)
        assert abs(shift.imag / shift.real) == pytest.approx(7.0, rel=1e-12)

    def test_intensity_change_reproduces_cross_section(self, inputs):
        delta = 2.0
        shift = linear_field_shift(inputs, OpticalParams(delta=delta), 0.003)
        lam = inputs.beam.wavelength
        expected = (
            -3.0 * lam**2 / (2.0 * math.pi)
            * sigma_general(inputs, 0.003) / (1.0 + delta**2)
        )
        assert 2.0 * shift.real == pytest.approx(expected, rel=1e-12)
