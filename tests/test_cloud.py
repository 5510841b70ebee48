import math

import numpy as np
import pytest

from coldcloud import (
    BeamParams,
    CloudParams,
    center_density,
    density,
    phase_space_density,
    time_scales,
)

from oracles import quad3d_vec


class TestCloudParams:
    def test_rejects_degenerate_cloud(self):
        with pytest.raises(ValueError):
            CloudParams(n_total=1e6, sigma_r=1e-3, sigma_v=0.0)
        with pytest.raises(ValueError):
            CloudParams(n_total=1e6, sigma_r=-1e-3, sigma_v=0.1)
        with pytest.raises(ValueError):
            CloudParams(n_total=-1.0, sigma_r=1e-3, sigma_v=0.1)
        with pytest.raises(ValueError):
            CloudParams(n_total=1e6, sigma_r=1e-3, sigma_v=0.1, g=-9.81)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["n_total", "sigma_r", "sigma_v", "g"])
    def test_rejects_non_finite_fields(self, field, value):
        fields = {"n_total": 1e6, "sigma_r": 1e-3, "sigma_v": 0.1, "g": 9.81, field: value}
        with pytest.raises(ValueError, match=field):
            CloudParams(**fields)

    def test_from_temperature(self):
        # sigma_v = sqrt(k_B T / m); cesium at 10 uK
        m_cs = 2.2069e-25
        c = CloudParams.from_temperature(1e6, 1e-3, 10e-6, m_cs, g=9.81)
        assert c.sigma_v == pytest.approx(math.sqrt(1.380649e-23 * 10e-6 / m_cs), rel=1e-9)

    def test_boltzmann_constant_is_scipys(self):
        from scipy.constants import k

        from coldcloud.cloud import _BOLTZMANN

        assert _BOLTZMANN == k


class TestTimeScales:
    def test_expansion_time(self, cloud, beam):
        assert time_scales(cloud, beam).tau_r == pytest.approx(0.010, rel=1e-12)

    def test_fall_time(self, cloud, beam):
        # 2*sqrt(2)*0.1/9.81
        assert time_scales(cloud, beam).tau_g == pytest.approx(0.028832080782326, rel=1e-12)

    def test_transit_time_at_waist(self, cloud, beam):
        ts = time_scales(cloud, beam)
        assert ts.tau_w == pytest.approx(0.5e-3, rel=1e-12)

    def test_no_gravity_sentinel(self, cloud_free, beam):
        assert math.isinf(time_scales(cloud_free, beam).tau_g)


class TestPhaseSpaceDensity:
    def test_peak_value(self, cloud):
        peak = cloud.n_total / (2.0 * math.pi * cloud.sigma_r * cloud.sigma_v) ** 3
        assert phase_space_density(cloud, (0, 0, 0), (0, 0, 0), 0.0) == pytest.approx(
            peak, rel=1e-14
        )

    def test_initial_gaussian(self, cloud, rng):
        r = rng.normal(0.0, cloud.sigma_r, 3)
        v = rng.normal(0.0, cloud.sigma_v, 3)
        peak = cloud.n_total / (2.0 * math.pi * cloud.sigma_r * cloud.sigma_v) ** 3
        expected = peak * math.exp(
            -float(np.dot(r, r)) / (2 * cloud.sigma_r**2)
            - float(np.dot(v, v)) / (2 * cloud.sigma_v**2)
        )
        assert phase_space_density(cloud, r, v, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_liouville_pullback(self, cloud, rng):
        # the value now equals the initial value at the pre-image point
        r = rng.normal(0.0, cloud.sigma_r, 3)
        v = rng.normal(0.0, cloud.sigma_v, 3)
        t = 0.42 * cloud.sigma_r / cloud.sigma_v
        g_vec = np.array([0.0, 0.0, -cloud.g])
        pre_r = r - v * t + 0.5 * g_vec * t**2
        pre_v = v - g_vec * t
        assert phase_space_density(cloud, r, v, t) == pytest.approx(
            phase_space_density(cloud, pre_r, pre_v, 0.0), rel=1e-12
        )

    def test_rejects_negative_time(self, cloud):
        with pytest.raises(ValueError):
            phase_space_density(cloud, (0, 0, 0), (0, 0, 0), -1e-3)


class TestDensity:
    def test_initial_peak(self, cloud):
        peak = cloud.n_total / (2.0 * math.pi * cloud.sigma_r**2) ** 1.5
        assert density(cloud, (0, 0, 0), 0.0) == pytest.approx(peak, rel=1e-14)

    def test_expansion_halves_peak_at_tau_r(self, cloud_free, beam):
        tau_r = time_scales(cloud_free, beam).tau_r
        ratio = density(cloud_free, (0, 0, 0), tau_r) / density(cloud_free, (0, 0, 0), 0.0)
        assert ratio == pytest.approx(2.0**-1.5, rel=1e-12)

    def test_center_density_matches_density_at_origin(self, cloud, beam):
        tau_r = time_scales(cloud, beam).tau_r
        for t in np.linspace(0.0, 4.0 * tau_r, 9):
            assert center_density(cloud, t) == pytest.approx(
                density(cloud, (0, 0, 0), t), rel=5e-14
            )

    def test_gravity_factor_at_fall_time(self, cloud):
        # with gravity the origin empties by exp[-tau_g^2/(tau_r^2+tau_g^2)]
        # relative to the expansion-only decay
        free = CloudParams(cloud.n_total, cloud.sigma_r, cloud.sigma_v, 0.0)
        tau_r = cloud.sigma_r / cloud.sigma_v
        tau_g = 2.0 * math.sqrt(2.0) * cloud.sigma_v / cloud.g
        ratio = center_density(cloud, tau_g) / center_density(free, tau_g)
        assert ratio == pytest.approx(math.exp(-tau_g**2 / (tau_r**2 + tau_g**2)), rel=1e-12)

    def test_peak_sits_at_falling_center(self, cloud, rng):
        t = 0.02
        center = np.array([0.0, 0.0, -0.5 * cloud.g * t**2])
        at_center = density(cloud, center, t)
        offsets = rng.normal(0.0, 2.0 * cloud.sigma_r, size=(40, 3))
        for off in offsets:
            assert density(cloud, center + off, t) < at_center

    def test_long_time_exponential_form(self):
        # once the fall dominates, exp(-t^2/tau_g^2) describes the decay to
        # within 1% provided the expansion time is well inside the fall time
        c = CloudParams(n_total=1e6, sigma_r=1e-4, sigma_v=0.1, g=9.81)
        tau_r = c.sigma_r / c.sigma_v
        tau_g = 2.0 * math.sqrt(2.0) * c.sigma_v / c.g
        peak = c.n_total / (2.0 * math.pi * c.sigma_r**2) ** 1.5
        for t in (10.0 * tau_r, 15.0 * tau_r, 25.0 * tau_r):
            approx = peak * (tau_r**2 / (tau_r**2 + t**2)) ** 1.5 * math.exp(-(t**2) / tau_g**2)
            assert center_density(c, t) == pytest.approx(approx, rel=0.01)

    def test_rejects_negative_time(self, cloud):
        with pytest.raises(ValueError):
            density(cloud, (0, 0, 0), -0.01)
        with pytest.raises(ValueError):
            center_density(cloud, -0.01)


class TestMassConservation:
    def test_total_number_preserved(self, cloud, beam):
        tau_r = time_scales(cloud, beam).tau_r
        t = tau_r
        spread = math.sqrt(cloud.sigma_r**2 + (cloud.sigma_v * t) ** 2)
        z_c = -0.5 * cloud.g * t**2

        def rho(x, y, z):
            pts = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
            return np.asarray(density(cloud, pts, t))

        total = quad3d_vec(
            rho,
            (-8 * spread, 8 * spread),
            (-8 * spread, 8 * spread),
            (z_c - 8 * spread, z_c + 8 * spread),
        )
        assert total == pytest.approx(cloud.n_total, rel=1e-6)


class TestVelocityMarginal:
    def test_density_is_velocity_integral_of_phase_space(self, cloud):
        # spot check: integrating the phase-space density over velocity
        # reproduces the closed-form density; the velocity support sits
        # within a few sigma_v of a center bounded by |r|/t + g*t
        tau_r = cloud.sigma_r / cloud.sigma_v
        t = 0.5 * tau_r
        r = np.array([0.5e-3, -0.3e-3, 0.8e-3])
        half = 10.0 * cloud.sigma_v

        def integrand(vx, vy, vz):
            v = np.stack(np.broadcast_arrays(vx, vy, vz), axis=-1)
            return np.asarray(phase_space_density(cloud, r, v, t))

        val = quad3d_vec(
            integrand, (-half, half), (-half, half), (-half, half), epsrel=1e-8
        )
        assert val == pytest.approx(density(cloud, r, t), rel=1e-6)
