import math

import numpy as np
import pytest

from coldcloud import (
    BeamParams,
    CavityParams,
    CloudParams,
    EffNumInputs,
    OpticalParams,
    beam_section,
    cooperativity,
    detuning_shift,
    detuning_spectrum,
    is_linear_regime,
    mean_number,
    normalized_spectrum,
    time_scales,
)


@pytest.fixture
def cavity():
    # 2*kappa*tau_c = 0.1
    return CavityParams(kappa=5e7, tau_c=1e-9)


def coupling(beam):
    return 3.0 * beam.wavelength**2 / (4.0 * math.pi * beam_section(beam, 0.0))


class TestCavityParams:
    def test_transmission_bounds(self):
        with pytest.raises(ValueError):
            CavityParams(kappa=1e9, tau_c=1e-9)  # transmission 2 > 1
        with pytest.raises(ValueError):
            CavityParams(kappa=0.0, tau_c=1e-9)
        CavityParams(kappa=5e8, tau_c=1e-9)  # boundary transmission 1 is fine


class TestCooperativity:
    def test_zero_atoms(self, cavity, beam):
        assert cooperativity(cavity, beam, 0.0) == 0.0

    def test_linear_in_atom_number(self, cavity, beam):
        c1 = cooperativity(cavity, beam, 1e4)
        assert cooperativity(cavity, beam, 2e4) == pytest.approx(2.0 * c1, rel=1e-14)

    def test_frozen_anchor_value(self, cavity, beam):
        # 852 nm, 100 um waist, transmission 0.1, 1e5 atoms
        assert cooperativity(cavity, beam, 1e5) == pytest.approx(
            11.032417873606134, rel=1e-12
        )

    def test_rejects_negative_count(self, cavity, beam):
        with pytest.raises(ValueError):
            cooperativity(cavity, beam, -1.0)


class TestArrayOfAtomNumbers:
    # detuning-spectrum reads both readouts over its whole fall-time grid
    @pytest.mark.parametrize("readout", [
        cooperativity,
        lambda cav, beam, n: detuning_shift(cav, beam, OpticalParams(delta=-10.0), n),
    ], ids=["cooperativity", "detuning_shift"])
    def test_keeps_shape_and_equals_scalar_calls(self, cavity, beam, readout):
        n = np.array([[0.0, 1.0, 2493.8], [1e4, 123456.789, 1e12]])
        out = readout(cavity, beam, n)
        assert out.shape == n.shape
        np.testing.assert_array_equal(
            out, [[readout(cavity, beam, float(v)) for v in row] for row in n])
        assert type(readout(cavity, beam, 1e4)) is float


class TestDetuningShift:
    def test_zero_atoms(self, cavity, beam):
        assert detuning_shift(cavity, beam, OpticalParams(delta=10.0), 0.0) == 0.0

    def test_sign_follows_detuning(self, cavity, beam):
        up = detuning_shift(cavity, beam, OpticalParams(delta=10.0), 1e5)
        down = detuning_shift(cavity, beam, OpticalParams(delta=-10.0), 1e5)
        assert up > 0 and down < 0
        assert up == pytest.approx(-down, rel=1e-14)

    def test_both_printed_forms_agree(self, cavity, beam, rng):
        for _ in range(20):
            n = float(rng.uniform(1.0, 1e6))
            delta = float(rng.uniform(3.0, 50.0)) * (1 if rng.random() < 0.5 else -1)
            opt = OpticalParams(delta=delta)
            via_cooperativity = 2.0 * cavity.kappa * cooperativity(cavity, beam, n) / delta
            direct = coupling(beam) * n / (delta * cavity.tau_c)
            assert detuning_shift(cavity, beam, opt, n) == pytest.approx(
                via_cooperativity, rel=1e-14
            )
            assert via_cooperativity == pytest.approx(direct, rel=1e-12)

    def test_resonant_detuning_rejected(self, cavity, beam):
        with pytest.raises(ValueError):
            detuning_shift(cavity, beam, OpticalParams(delta=0.0), 1e4)

    def test_warns_outside_dispersive_regime(self, cavity, beam):
        with pytest.warns(UserWarning, match="dispersive"):
            detuning_shift(cavity, beam, OpticalParams(delta=1.0), 1e4)

    def test_warning_points_at_the_caller(self, cavity, beam, inputs):
        # each public function warns at the line that called it, not
        # inside the library
        opt = OpticalParams(delta=1.0)
        for call in (lambda: detuning_shift(cavity, beam, opt, 1e4),
                     lambda: detuning_spectrum(cavity, opt, inputs, 0.01, 0.0),
                     lambda: is_linear_regime(cavity, opt, inputs, 0.01)):
            with pytest.warns(UserWarning, match="dispersive") as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_silent_in_dispersive_regime(self, cavity, beam, recwarn):
        detuning_shift(cavity, beam, OpticalParams(delta=10.0), 1e4)
        assert not any("dispersive" in str(w.message) for w in recwarn.list)


class TestDetuningSpectrum:
    def test_scales_inverse_square_of_detuning(self, cavity, inputs):
        ts = time_scales(inputs.cloud, inputs.beam)
        big_t = ts.tau_r
        s10 = detuning_spectrum(cavity, OpticalParams(delta=10.0), inputs, big_t, 0.0)
        s20 = detuning_spectrum(cavity, OpticalParams(delta=20.0), inputs, big_t, 0.0)
        assert s10 == pytest.approx(4.0 * s20, rel=1e-12)

    def test_zero_where_number_spectrum_is_zero(self, cavity, inputs):
        ts = time_scales(inputs.cloud, inputs.beam)
        # far past the spectral cutoff everything underflows to exactly 0
        omega = 1e4 / ts.tau_w
        val = detuning_spectrum(cavity, OpticalParams(delta=10.0), inputs, ts.tau_r, omega)
        assert val == 0.0

    def test_two_assemblies_agree_at_random_parameters(self, rng):
        for _ in range(30):
            w0 = float(rng.uniform(1e-5, 3e-4))
            beam = BeamParams(w0=w0, wavelength=float(rng.uniform(4e-7, 1.1e-6)))
            cloud = CloudParams(
                n_total=float(rng.uniform(1e4, 1e7)),
                sigma_r=float(rng.uniform(5e-4, 3e-3)),
                sigma_v=float(rng.uniform(0.03, 0.3)),
                g=float(rng.choice([0.0, 9.81])),
            )
            inp = EffNumInputs(cloud, beam)
            ts = time_scales(cloud, beam)
            kappa = float(rng.uniform(1e6, 4e8))
            cav = CavityParams(kappa=kappa, tau_c=float(rng.uniform(1e-10, 1.0 / (2 * kappa))))
            opt = OpticalParams(delta=float(rng.uniform(3.0, 80.0)))
            big_t = float(rng.uniform(0.0, 2.0)) * ts.tau_r
            omega = float(rng.uniform(0.0, 3.0)) / ts.tau_w

            shape = normalized_spectrum(inp, big_t, omega)
            n_mean = mean_number(inp, big_t)
            form_direct = coupling(beam) ** 2 * (0.5 * n_mean * shape) / (opt.delta * cav.tau_c) ** 2
            form_coop = (
                cav.kappa * cooperativity(cav, beam, n_mean) / opt.delta**2
                * coupling(beam) * shape / cav.tau_c
            )
            got = detuning_spectrum(cav, opt, inp, big_t, omega)
            assert got == pytest.approx(form_direct, rel=1e-12)
            assert form_direct == pytest.approx(form_coop, rel=1e-12)

    def test_spectral_shape_identical_to_number_spectrum(self, cavity, inputs):
        ts = time_scales(inputs.cloud, inputs.beam)
        big_t = ts.tau_r
        omega = np.linspace(0.0, 4.0 / ts.tau_w, 9)
        noise = np.asarray(
            detuning_spectrum(cavity, OpticalParams(delta=10.0), inputs, big_t, omega)
        )
        shape = np.asarray(normalized_spectrum(inputs, big_t, omega))
        np.testing.assert_allclose(
            noise / noise[0], shape / shape[0], rtol=1e-12
        )


    @pytest.mark.parametrize("g", [0.0, 9.81])
    def test_fall_time_grid_equals_scalar_calls(self, cavity, g):
        # cli detuning-spectrum evaluates all (T, omega) pairs in one call
        inp = EffNumInputs(CloudParams(1e6, 1e-3, 0.1, g),
                           BeamParams(w0=100e-6, wavelength=852e-9))
        opt = OpticalParams(delta=10.0)
        big_t = np.array([0.0, 0.005, 0.02759])
        omega = np.linspace(0.0, 16000.0, 161)
        np.testing.assert_array_equal(
            detuning_spectrum(cavity, opt, inp, big_t[:, None], omega),
            [detuning_spectrum(cavity, opt, inp, t, omega) for t in big_t])
        assert type(detuning_spectrum(cavity, opt, inp, 0.02759, 100.0)) is float


class TestLinearRegimeFlag:
    def test_flag_flips_with_atom_number(self, cavity, beam):
        opt = OpticalParams(delta=10.0)
        small = EffNumInputs(CloudParams(1e4, 1e-3, 0.1, 9.81), beam)
        assert is_linear_regime(cavity, opt, small, 0.005)
        huge = EffNumInputs(CloudParams(1e13, 1e-3, 0.1, 9.81), beam)
        assert not is_linear_regime(cavity, opt, huge, 0.005)

    def test_array_of_fall_times_equals_scalar_calls(self, cavity, beam):
        opt = OpticalParams(delta=10.0)
        # the flag flips inside this grid, so both values are compared
        inp = EffNumInputs(CloudParams(1e8, 1e-3, 0.1, 9.81), beam)
        big_t = np.array([0.0, 0.005, 0.01, 0.02, 0.03, 0.04])
        flags = is_linear_regime(cavity, opt, inp, big_t)
        scalar = [is_linear_regime(cavity, opt, inp, t) for t in big_t]
        assert flags.dtype == bool and flags.shape == big_t.shape
        np.testing.assert_array_equal(flags, scalar)
        assert flags.any() and not flags.all()
        assert all(type(flag) is bool for flag in scalar)
        np.testing.assert_array_equal(is_linear_regime(cavity, opt, inp, big_t[:, None]),
                                      np.array(scalar)[:, None])

    def test_peak_sits_at_zero_frequency(self, cavity, inputs):
        ts = time_scales(inputs.cloud, inputs.beam)
        opt = OpticalParams(delta=10.0)
        peak = detuning_spectrum(cavity, opt, inputs, ts.tau_r, 0.0)
        omega = np.linspace(0.05, 6.0, 25) / ts.tau_w
        rest = np.asarray(
            detuning_spectrum(cavity, opt, inputs, ts.tau_r, omega)
        )
        assert np.all(rest < peak)
