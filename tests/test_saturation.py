import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coldcloud
from coldcloud import (
    BeamParams,
    CloudParams,
    EffNumInputs,
    OpticalParams,
    beam_section,
    beam_size,
    column_number_density,
    layer_number_density,
    linear_field_shift,
    nonlinear_field_shift,
    polarizability,
    saturation_on_axis,
    sigma_general,
    sigma_saturated_closed,
    sigma_saturated_general,
    sigma_small_waist,
)
from coldcloud.effnum import _layer_density_weighted
from coldcloud.saturation import _i0e, _saturated_layer_quadrature

from oracles import gaussian_product_window, sigma_saturated_quad, transverse_quad


def joint_limit_inputs(g=9.81):
    """Small waist against the cloud, short cloud against the Rayleigh range."""
    sigma_r = 1e-3
    w0 = 1e-2 * sigma_r
    l_r = 1e3 * sigma_r
    beam = BeamParams(w0=w0, wavelength=math.pi * w0**2 / l_r)
    return EffNumInputs(CloudParams(1e6, sigma_r, 0.1, g), beam)


class TestPolarizability:
    def test_resonant_unsaturated(self):
        assert polarizability(OpticalParams(delta=0.0), 0.0) == 1.0

    def test_detuned(self):
        assert polarizability(OpticalParams(delta=1.0), 0.0) == pytest.approx(
            (1.0 - 1.0j) / 2.0, rel=1e-15
        )

    def test_saturated(self):
        assert polarizability(OpticalParams(delta=0.0), 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_negative_saturation(self):
        with pytest.raises(ValueError):
            polarizability(OpticalParams(delta=0.0), -0.1)
        with pytest.raises(ValueError):
            OpticalParams(delta=0.0, s_m0=-1.0)


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["delta", "s_m0"])
    def test_rejects_non_finite_parameters(self, field, value):
        fields = {"delta": 10.0, "s_m0": 0.3, field: value}
        with pytest.raises(ValueError, match=field):
            OpticalParams(**fields)


class TestSaturationOnAxis:
    def test_waist_value(self, beam):
        opt = OpticalParams(delta=2.0, s_m0=0.4)
        assert saturation_on_axis(opt, beam, 0.0) == 0.4

    def test_halves_at_rayleigh_length(self, beam):
        opt = OpticalParams(delta=2.0, s_m0=0.4)
        assert saturation_on_axis(opt, beam, beam.rayleigh_length) == pytest.approx(
            0.2, rel=1e-13
        )

    def test_vanishes_far_out(self, beam):
        opt = OpticalParams(delta=2.0, s_m0=0.4)
        assert saturation_on_axis(opt, beam, 1e6 * beam.rayleigh_length) < 1e-12 * 0.4


class TestModifiedLayerDensity:
    def test_matches_independent_reimplementation(self, rng):
        # the shared kernel at weight power j must equal the explicit
        # formula with the squared beam size divided by j
        inp = joint_limit_inputs()
        c = inp.cloud
        for _ in range(10):
            j = rng.integers(1, 7)
            x = rng.uniform(-2e-3, 2e-3)
            t = rng.uniform(0.0, 0.03)
            w2 = beam_size(inp.beam, x) ** 2 / j
            var4 = 4.0 * (c.sigma_r**2 + (c.sigma_v * t) ** 2) + w2
            expected = (
                column_number_density(inp, x, t)
                * w2 / var4
                * math.exp(-0.5 * c.g**2 * t**4 / var4)
            )
            assert _layer_density_weighted(inp, x, t, float(j)) == pytest.approx(
                expected, rel=1e-13
            )

    def test_power_one_is_layer_density(self, inputs):
        assert _layer_density_weighted(inputs, 3e-4, 0.01, 1.0) == layer_number_density(
            inputs, 3e-4, 0.01
        )

    def test_small_waist_inverse_power_law(self):
        # for a waist far below the cloud radius the j-th layer density is
        # the plain one divided by j; corrections scale as w^2/(4*spread^2),
        # so w0/sigma_r = 1e-3 sits safely inside the 1e-6 tolerance
        sigma_r = 1e-3
        w0 = 1e-3 * sigma_r
        beam = BeamParams(w0=w0, wavelength=math.pi * w0**2 / 1.0)
        inp = EffNumInputs(CloudParams(1e6, sigma_r, 0.1, 9.81), beam)
        x, t = 0.5e-3, 0.01
        base = layer_number_density(inp, x, t)
        for j in range(1, 7):
            assert _layer_density_weighted(inp, x, t, float(j)) == pytest.approx(
                base / j, rel=1e-6
            )


class TestSaturatedClosedForm:
    def test_zero_saturation_is_linear_sigma(self):
        inp = joint_limit_inputs()
        t = np.linspace(0.0, 0.02, 5)
        np.testing.assert_array_equal(
            np.asarray(sigma_saturated_closed(inp, OpticalParams(0.0, 0.0), t)),
            np.asarray(sigma_small_waist(inp, t)),
        )

    def test_small_saturation_limit_is_continuous(self):
        inp = joint_limit_inputs()
        weak = sigma_saturated_closed(inp, OpticalParams(0.0, 1e-13), 0.01)
        assert weak == pytest.approx(sigma_small_waist(inp, 0.01), rel=1e-12)

    def test_log_reduction_at_half(self):
        inp = joint_limit_inputs()
        got = sigma_saturated_closed(inp, OpticalParams(0.0, 0.5), 0.01)
        assert got == pytest.approx(
            sigma_small_waist(inp, 0.01) * math.log(2.0), rel=1e-14
        )

    def test_time_dependence_unchanged_by_saturation(self, rng):
        inp = joint_limit_inputs()
        opt = OpticalParams(delta=3.0, s_m0=0.7)
        t = rng.uniform(0.0, 0.03, size=12)
        ratio = np.asarray(sigma_saturated_closed(inp, opt, t)) / np.asarray(
            sigma_small_waist(inp, t)
        )
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_monotone_in_saturation(self):
        inp = joint_limit_inputs()
        values = [
            sigma_saturated_closed(inp, OpticalParams(0.0, s), 0.005)
            for s in (0.0, 0.1, 0.5, 1.0, 3.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSaturatedGeneral:
    def test_zero_saturation_matches_linear_quadrature(self):
        inp = joint_limit_inputs()
        got = sigma_saturated_general(inp, OpticalParams(2.0, 0.0), 0.01)
        assert got == pytest.approx(sigma_general(inp, 0.01), rel=1e-13)

    def test_zero_saturation_is_the_linear_rule_bit_for_bit(self):
        inp = joint_limit_inputs()
        t = np.linspace(0.0, 0.03, 7)
        np.testing.assert_array_equal(
            sigma_saturated_general(inp, OpticalParams(2.0, 0.0), t), sigma_general(inp, t)
        )

    @pytest.mark.parametrize("s_m0", [0.1, 0.3])
    def test_series_matches_closed_form_in_joint_limit(self, s_m0):
        inp = joint_limit_inputs()
        opt = OpticalParams(delta=0.0, s_m0=s_m0)
        for t in (0.0, 0.01):
            assert sigma_saturated_general(inp, opt, t) == pytest.approx(
                sigma_saturated_closed(inp, opt, t), rel=1e-4
            )

    def test_strong_saturation_quadrature_fallback(self):
        # 2*s_m = 2 near the axis: the expansion cannot converge there and
        # each layer is a radial integral; the log form still holds in the
        # joint limit
        inp = joint_limit_inputs(g=0.0)
        opt = OpticalParams(delta=0.0, s_m0=1.0)
        got = sigma_saturated_general(inp, opt, 0.0)
        assert got == pytest.approx(sigma_saturated_closed(inp, opt, 0.0), rel=1e-3)

    def test_array_of_times_equals_scalar_calls(self):
        # 2*s_m0 = 1: radial layers near the waist, series layers in the wings
        inp = joint_limit_inputs()
        opt = OpticalParams(delta=2.0, s_m0=0.5)
        t = np.array([0.0, 0.004, 0.01])
        got = sigma_saturated_general(inp, opt, t)
        assert got.shape == t.shape
        scalar = [sigma_saturated_general(inp, opt, float(ti)) for ti in t]
        assert all(isinstance(value, float) for value in scalar)
        np.testing.assert_array_equal(got, scalar)
        # numpy and Python divide complex numbers with different roundings
        np.testing.assert_allclose(
            nonlinear_field_shift(inp, opt, t),
            [nonlinear_field_shift(inp, opt, float(ti)) for ti in t], rtol=1e-15,
        )


# (w0, s_m0, g, t) at 852 nm on a 1 mm cloud: Rayleigh lengths from 4e-3 to
# 3e4 cloud radii; weak saturation (series layers only), 2*s_m0 = 1 (radial
# layers near the waist, series in the wings) and strong saturation
SATURATED_REGIMES = [
    (w0, s_m0, g, t)
    for w0 in (1e-6, 1e-5, 2e-5, 1e-4, 3e-3)
    for s_m0, g, t in ((0.1, 9.81, 0.02), (0.5, 0.0, 0.0), (2.0, 9.81, 0.02))
] + [(1e-5, 2.0, 0.0, 0.01)]


@pytest.mark.parametrize("w0,s_m0,g,t", SATURATED_REGIMES)
def test_saturated_sigma_matches_adaptive_oracle(w0, s_m0, g, t):
    # the fixed rules against adaptive x over adaptive radial layers, no
    # series; 1e-12 is the series cut.  The saturation varies on the
    # Rayleigh length, so a rule scaled to the cloud alone misses it when
    # the Rayleigh length is short: a 32-node Gauss-Hermite rule is 1.9e-2
    # off at w0 = 10 um
    inp = EffNumInputs(CloudParams(1e6, 1e-3, 0.1, g), BeamParams(w0, 852e-9))
    opt = OpticalParams(delta=10.0, s_m0=s_m0)
    expected = sigma_saturated_quad(inp, opt, t)
    assert sigma_saturated_general(inp, opt, t) == pytest.approx(expected, rel=1e-12)


def test_import_leaves_out_scipy_integrate():
    # no adaptive quadrature in the package: importing it loads no QUADPACK
    package_root = os.path.dirname(os.path.dirname(coldcloud.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import sys, coldcloud; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "False"


def test_numpy_i0e_is_scipys_bit_for_bit():
    from scipy.special import i0e

    # both Chebyshev ranges and their seam at 8, tiny and huge arguments,
    # and the even extension to negative x
    x = np.concatenate([
        np.linspace(0.0, 50.0, 100_001), np.geomspace(1e-300, 1e300, 100_001),
        np.nextafter(8.0, [0.0, 16.0]), [0.0, 8.0, 1e-300, 1e300, 5e-324],
    ])
    x = np.concatenate([x, -x])
    assert np.array_equal(_i0e(x).view(np.int64), i0e(x).view(np.int64))


# (sigma_r, w0, g, t, x, s_m): waists below, at and above the cloud size,
# the cloud on the axis and fallen far off it, weak to strong saturation
RADIAL_REGIMES = [
    (1e-3, 1e-4, 9.81, 0.01, 0.0, 1.0),
    (1e-3, 1e-5, 9.81, 0.05, 1e-3, 0.1),
    (1e-4, 3e-3, 0.0, 0.0, 0.0, 5.0),
    (1e-5, 1e-5, 9.81, 0.1, 2e-3, 2.0),
    (1e-3, 3e-3, 9.81, 0.02, 5e-4, 0.5),
    (1e-4, 1e-4, 9.81, 0.003, 1e-4, 3.0),
    (1e-5, 3e-3, 9.81, 0.001, 0.0, 0.4),
    (1e-3, 1e-5, 0.0, 0.1, 2e-3, 5.0),
]


class TestTransverseSaturationIntegral:
    def test_uniform_density_reduces_to_log(self):
        # across a beam much narrower than the cloud the density is flat
        # and the transverse integral collapses to S*ln(1+2s)/(2s)
        sigma_r = 0.1
        w0 = 1e-4
        inp = EffNumInputs(
            CloudParams(1e6, sigma_r, 0.1, 0.0), BeamParams(w0, 1e-9)
        )
        s_m = 1.4
        x = 0.0
        got = _saturated_layer_quadrature(inp, s_m, x, 0.0)
        from coldcloud.cloud import density

        rho_axis = density(inp.cloud, (x, 0.0, 0.0), 0.0)
        section = beam_section(inp.beam, x)
        expected = rho_axis * section * math.log(1.0 + 2.0 * s_m) / (2.0 * s_m)
        assert got == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("s_m", [0.3, 0.3999])
    def test_quadrature_matches_series_in_its_domain(self, s_m):
        # where the expansion converges both evaluations must agree, up to
        # its edge at 2*s_m = 0.8 (about 106 orders at 0.7998)
        inp = joint_limit_inputs()
        from coldcloud.saturation import _saturated_layer_series

        x, t = 2e-4, 0.008
        series = _saturated_layer_series(inp, s_m, x, t)
        quadr = _saturated_layer_quadrature(inp, s_m, x, t)
        assert quadr == pytest.approx(series, rel=1e-9)

    @pytest.mark.parametrize("sigma_r,w0,g,t,x,s_m", RADIAL_REGIMES)
    def test_radial_layer_matches_plane_quadrature(self, sigma_r, w0, g, t, x, s_m):
        # the radial integral against a 2D adaptive integral over (y, z) of the
        # saturated weight times the cloud Gaussian written out in full
        inp = EffNumInputs(CloudParams(1e6, sigma_r, 0.1, g), BeamParams(w0, 1e-9))
        w = beam_size(inp.beam, x)
        var = inp.cloud.sigma_r**2 + (inp.cloud.sigma_v * t) ** 2
        z_c = -0.5 * g * t**2
        norm = 1e6 / (2.0 * math.pi * var) ** 1.5 * math.exp(-x * x / (2.0 * var))

        def integrand(z, y):
            f = math.exp(-2.0 * (y * y + z * z) / w**2)
            rho = norm * math.exp(-(y * y + (z - z_c) ** 2) / (2.0 * var))
            return f / (1.0 + 2.0 * s_m * f) * rho

        spread = math.sqrt(var)
        expected = transverse_quad(
            integrand,
            gaussian_product_window(0.5 * w, spread),
            gaussian_product_window(0.5 * w, spread, center_b=z_c),
        )
        assert _saturated_layer_quadrature(inp, s_m, x, t) == pytest.approx(expected, rel=1e-12)


class TestNonlinearFieldShift:
    def test_zero_saturation_equals_linear(self):
        inp = joint_limit_inputs()
        opt = OpticalParams(delta=2.0, s_m0=0.0)
        assert nonlinear_field_shift(inp, opt, 0.01) == pytest.approx(
            linear_field_shift(inp, opt, 0.01), rel=1e-13
        )

    def test_saturation_only_weakens_the_response(self):
        inp = joint_limit_inputs()
        linear = abs(linear_field_shift(inp, OpticalParams(2.0, 0.0), 0.005))
        for s in (0.05, 0.2, 0.4):
            assert abs(nonlinear_field_shift(inp, OpticalParams(2.0, s), 0.005)) < linear

    def test_closed_form_product_cross_check(self):
        # strong enough to engage the quadrature fallback near the axis
        inp = joint_limit_inputs(g=0.0)
        opt = OpticalParams(delta=2.0, s_m0=0.5)
        lam = inp.beam.wavelength
        expected = (
            -3.0 * lam**2 / (4.0 * math.pi)
            * sigma_saturated_closed(inp, opt, 0.004)
            / (1.0 + 2.0j)
        )
        got = nonlinear_field_shift(inp, opt, 0.004)
        assert got == pytest.approx(expected, rel=1e-3)
