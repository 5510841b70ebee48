import math
import sys
import warnings

import numpy as np
import pytest

from coldcloud import (
    BeamParams,
    CavityParams,
    CloudParams,
    OpticalParams,
    center_density,
    density,
    phase_space_density,
    time_scales,
)

from oracles import gaussian_density_reference, quad3d_vec

# each parameter dataclass with valid values of its fields
_PARAMS = {
    CloudParams: {"n_total": 1e6, "sigma_r": 1e-3, "sigma_v": 0.1, "g": 9.81},
    BeamParams: {"w0": 50e-6, "wavelength": 852e-9},
    OpticalParams: {"delta": 5.0, "s_m0": 0.1},
    CavityParams: {"kappa": 5e7, "tau_c": 1e-9},
}


@pytest.mark.parametrize("bad", ["1", None, 1j, True, math.nan, math.inf],
                         ids=["str", "None", "complex", "bool", "nan", "inf"])
@pytest.mark.parametrize("kind,field", [
    (kind, field) for kind, fields in _PARAMS.items() for field in fields
])
def test_parameter_fields_must_be_finite_real_numbers(kind, field, bad):
    kind(**_PARAMS[kind])  # the valid values pass
    with pytest.raises(ValueError, match=f"^{field} must be a finite real number"):
        kind(**{**_PARAMS[kind], field: bad})


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

    @pytest.mark.parametrize("g", [1e-160, 1e-300])
    def test_fall_time_with_overflowing_square_is_infinite(self, g, beam):
        assert math.isinf(time_scales(CloudParams(1e6, 1e-3, 0.1, g), beam).tau_g)

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    def test_finite_fall_time_squares_finitely(self, beam, factor):
        # around the cut at sqrt(DBL_MAX), a fall time is either infinite or
        # has a finite square
        g = factor * 2.0 * math.sqrt(2.0) * 0.1 / math.sqrt(sys.float_info.max)
        for g_near in (math.nextafter(g, 0.0), g, math.nextafter(g, math.inf)):
            tau_g = time_scales(CloudParams(1e6, 1e-3, 0.1, g_near), beam).tau_g
            assert math.isinf(tau_g) or math.isfinite(tau_g**2)
        assert math.isinf(tau_g) == (factor < 1.0)


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

    @pytest.mark.parametrize("g", [0.0, 9.81])
    def test_matches_the_definition(self, g, rng):
        # off-centre points, at times up to 0.1 s, against the Gaussian of
        # the definition
        c = CloudParams(n_total=1e6, sigma_r=1e-3, sigma_v=0.1, g=g)
        for t in np.linspace(0.0, 0.1, 5):
            reference = gaussian_density_reference(c.n_total, c.sigma_r, c.sigma_v, g,
                                                   (0.0, 0.0, 0.0), t)
            assert center_density(c, t) == pytest.approx(reference, rel=1e-14)
            spread = math.sqrt(c.sigma_r**2 + (c.sigma_v * t) ** 2)
            for r in rng.normal(0.0, spread, size=(4, 3)) + (0.0, 0.0, -0.5 * g * t**2):
                reference = gaussian_density_reference(c.n_total, c.sigma_r, c.sigma_v, g, r, t)
                assert density(c, r, t) == pytest.approx(reference, rel=1e-14)

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


def _time_takers():
    """Every public function of a time t or fall time T, as a call on that time."""
    import coldcloud as cc

    small = CloudParams(100, 1e-3, 0.1, 9.81)
    beam = BeamParams(w0=100e-6, wavelength=852e-9)
    inp = cc.EffNumInputs(CloudParams(1e6, 1e-3, 0.1, 9.81), beam)
    opt = cc.OpticalParams(delta=10.0, s_m0=0.3)
    cav = cc.CavityParams(kappa=5e6, tau_c=1e-9)
    origin = (0.0, 0.0, 0.0)
    return {
        "phase_space_density": lambda t: cc.phase_space_density(small, origin, origin, t),
        "density": lambda t: cc.density(small, origin, t),
        "center_density": lambda t: cc.center_density(small, t),
        "column_number_density": lambda t: cc.column_number_density(inp, 0.0, t),
        "layer_number_density": lambda t: cc.layer_number_density(inp, 0.0, t),
        "sigma_general": lambda t: cc.sigma_general(inp, t),
        "sigma_small_waist": lambda t: cc.sigma_small_waist(inp, t),
        "sigma_long_rayleigh": lambda t: cc.sigma_long_rayleigh(inp, t),
        "sigma_high_temperature": lambda t: cc.sigma_high_temperature(inp, t),
        "linear_field_shift": lambda t: cc.linear_field_shift(inp, opt, t),
        "sigma_saturated_closed": lambda t: cc.sigma_saturated_closed(inp, opt, t),
        "sigma_saturated_general": lambda t: cc.sigma_saturated_general(inp, opt, t),
        "nonlinear_field_shift": lambda t: cc.nonlinear_field_shift(inp, opt, t),
        "mean_number": lambda t: cc.mean_number(inp, t),
        "variance": lambda t: cc.variance(inp, t),
        "covariance_exact": lambda t: cc.covariance_exact(inp, t, 0.0),
        "covariance_quasistationary": lambda t: cc.covariance_quasistationary(inp, t, 0.0),
        "spectrum_exponential": lambda t: cc.spectrum_exponential(inp, t, 0.0),
        "spectrum_series": lambda t: cc.spectrum_series(inp, t, 0.0),
        "normalized_spectrum": lambda t: cc.normalized_spectrum(inp, t, 0.0),
        "spectra": lambda t: cc.spectra(inp, t, 0.0),
        "detuning_spectrum": lambda t: cc.detuning_spectrum(cav, opt, inp, t, 0.0),
        "is_linear_regime": lambda t: cc.is_linear_regime(cav, opt, inp, t),
        "propagate": lambda t: cc.propagate(origin, origin, 9.81, t),
        "sample_cloud": lambda t: cc.sample_cloud(small, 1, [t], -1e-3, 1e-3),
        "ensemble_stats.counts": lambda t: cc.ensemble_stats(small, beam, [t], 3, 1).counts,
        "ensemble_stats": lambda t: cc.ensemble_stats(small, beam, [t], 3, 1),
        "window_draw": lambda t: cc.window_draw(small, beam, [t]),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.01])
@pytest.mark.parametrize("name", sorted(_time_takers()))
def test_times_must_be_finite_and_nonnegative(name, bad):
    call = _time_takers()[name]
    call(0.01)  # the call itself is valid
    # the check comes first: no arithmetic on the bad time warns before it
    with warnings.catch_warnings(), pytest.raises(ValueError):
        warnings.simplefilter("error")
        call(bad)


@pytest.mark.parametrize("t", [1e200, 1.7e308])
@pytest.mark.parametrize("name", [
    "phase_space_density", "density", "center_density", "column_number_density",
    "sigma_general", "sigma_small_waist", "sigma_long_rayleigh", "sigma_high_temperature",
    "sigma_saturated_closed", "sigma_saturated_general", "mean_number", "variance",
    "covariance_exact", "covariance_quasistationary", "spectrum_exponential"])
def test_closed_forms_reach_their_limit_where_the_time_squared_overflows(name, t):
    # the time check accepts these times, and t^2 overflows: the result is
    # the limit 0, not the NaN of inf/inf or inf*0, nor an OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        assert _time_takers()[name](t) == 0.0


def _closed_forms(g: float):
    """Every closed form of a time t, fall time T or delay, on the
    configs/default.json cloud at gravity g, evaluated over a time grid."""
    import coldcloud as cc

    inp = cc.EffNumInputs(CloudParams(1e6, 1e-3, 0.1, g), BeamParams(100e-6, 852e-9))
    t = np.linspace(0.0, 0.05, 11)
    big_t, tau = np.repeat([0.005, 0.02, 0.048], 5), np.tile(np.linspace(-4e-3, 4e-3, 5), 3)
    omega = np.tile(np.linspace(0.0, 16000.0, 5), 3)
    out = {name: getattr(cc, name)(inp, t) for name in (
        "mean_number", "variance", "sigma_small_waist", "sigma_long_rayleigh",
        "sigma_high_temperature", "sigma_general")}
    for s_m0 in (0.3, 2.0):
        out[f"sigma_saturated_general[s_m0={s_m0}]"] = cc.sigma_saturated_general(
            inp, cc.OpticalParams(10.0, s_m0), t)
    out["covariance_exact"] = cc.covariance_exact(inp, big_t, tau)
    out["covariance_quasistationary"] = cc.covariance_quasistationary(inp, big_t, tau)
    out["spectrum_series"] = cc.spectrum_series(inp, big_t, omega)
    return out


@pytest.mark.parametrize("g", [1e-160, 1e-300])
def test_gravity_too_weak_to_square_gives_the_free_cloud_bits(g):
    # tau_g^2 would overflow here; time_scales makes tau_g infinite, so every
    # closed form runs the free cloud's arithmetic
    free = _closed_forms(0.0)
    for name, values in _closed_forms(g).items():
        assert values.tobytes() == free[name].tobytes(), name


def _value_takers():
    """Every public function of a delay, frequency, atom number, saturation,
    polynomial order or number of grid times, as (call on that value, a
    valid value, bad values)."""
    import coldcloud as cc

    beam = BeamParams(w0=100e-6, wavelength=852e-9)
    inp = cc.EffNumInputs(CloudParams(1e6, 1e-3, 0.1, 9.81), beam)
    small = CloudParams(100, 1e-3, 0.1, 9.81)
    opt = cc.OpticalParams(delta=10.0, s_m0=0.3)
    cav = cc.CavityParams(kappa=5e6, tau_c=1e-9)
    non_finite = (math.nan, math.inf, -math.inf)
    bad_count = (math.nan, math.inf, -1.0)
    return {
        # a delay beyond 2T puts the earlier sampling time before the release
        "covariance_exact.tau":
            (lambda tau: cc.covariance_exact(inp, 0.01, tau), 1e-4, (math.nan, math.inf, 0.03)),
        "covariance_quasistationary":
            (lambda tau: cc.covariance_quasistationary(inp, 0.01, tau), 1e-4, non_finite),
        "spectrum_exponential": (lambda w: cc.spectrum_exponential(inp, 0.01, w), 1e3, non_finite),
        "spectrum_series": (lambda w: cc.spectrum_series(inp, 0.01, w), 1e3, non_finite),
        "normalized_spectrum": (lambda w: cc.normalized_spectrum(inp, 0.01, w), 1e3, non_finite),
        "spectra": (lambda w: cc.spectra(inp, 0.01, w), 1e3, non_finite),
        "detuning_spectrum":
            (lambda w: cc.detuning_spectrum(cav, opt, inp, 0.01, w), 1e3, non_finite),
        "cooperativity": (lambda n: cc.cooperativity(cav, beam, n), 1e4, bad_count),
        "detuning_shift": (lambda n: cc.detuning_shift(cav, beam, opt, n), 1e4, bad_count),
        "cooperativity[array]": (lambda n: cc.cooperativity(cav, beam, [1e4, n]), 1e4, bad_count),
        "detuning_shift[array]":
            (lambda n: cc.detuning_shift(cav, beam, opt, [1e4, n]), 1e4, bad_count),
        "polarizability": (lambda s: cc.polarizability(opt, s), 0.5, (math.nan, math.inf, -0.1)),
        "pk_polynomial.x": (lambda x: cc.pk_polynomial(2, x), 0.5, (math.nan, math.inf, -0.5)),
        "pk_polynomial.k": (lambda k: cc.pk_polynomial(k, 0.5), 2, (2.5, -1, True)),
        "dropped_weight_bound": (lambda n: cc.dropped_weight_bound(small, n), 5, (-1, 2.5, True)),
    }


@pytest.mark.parametrize("name,bad", [
    (name, bad) for name, (_, _, bads) in sorted(_value_takers().items()) for bad in bads
])
def test_values_must_be_finite_and_in_range(name, bad):
    call, valid, _ = _value_takers()[name]
    call(valid)  # the call itself is valid
    with pytest.raises(ValueError):
        call(bad)


def test_package_exports_every_module_export():
    import importlib

    import coldcloud as cc

    modules = ("beam", "cavity", "cloud", "effnum", "exceptions", "fluct", "mc_oracle",
               "optical", "saturation")
    module_names = set().union(
        *(importlib.import_module(f"coldcloud.{m}").__all__ for m in modules))
    assert set(cc.__all__) - {"__version__"} == module_names
    assert all(hasattr(cc, name) for name in cc.__all__)
