import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from coldcloud import BeamParams, beam_section, beam_size, mode_amplitude, weight


def test_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        BeamParams(w0=0.0, wavelength=852e-9)
    with pytest.raises(ValueError):
        BeamParams(w0=1e-4, wavelength=-1.0)


@pytest.mark.parametrize("w0, wavelength", [(math.inf, 852e-9), (1e-4, math.inf)])
def test_rejects_infinite_parameters(w0, wavelength):
    with pytest.raises(ValueError, match="finite"):
        BeamParams(w0=w0, wavelength=wavelength)


def test_rayleigh_length(beam):
    assert beam.rayleigh_length == pytest.approx(math.pi * (1e-4) ** 2 / 852e-9)


def test_beam_size_anchor_points(beam):
    l_r = beam.rayleigh_length
    assert beam_size(beam, 0.0) == beam.w0
    assert beam_size(beam, l_r) == pytest.approx(beam.w0 * math.sqrt(2.0), rel=1e-15)
    assert beam_size(beam, 3.0 * l_r) == pytest.approx(beam.w0 * math.sqrt(10.0), rel=1e-15)


def test_beam_section_anchor_points(beam):
    l_r = beam.rayleigh_length
    assert beam_section(beam, 0.0) == pytest.approx(math.pi * beam.w0**2 / 2.0, rel=1e-15)
    assert beam_section(beam, l_r) == pytest.approx(math.pi * beam.w0**2, rel=1e-15)
    # 100 um waist
    assert beam_section(beam, 0.0) == pytest.approx(1.5707963267948966e-08, rel=1e-12)


@given(x=st.floats(-0.5, 0.5))
def test_size_and_section_even_in_x(x):
    beam = BeamParams(w0=1e-4, wavelength=852e-9)
    assert beam_size(beam, x) == beam_size(beam, -x)
    assert beam_section(beam, x) == beam_section(beam, -x)
    assert beam_size(beam, x) >= beam.w0


def test_weight_on_axis_is_one(beam):
    for x in (0.0, 0.01, -0.3):
        assert weight(beam, (x, 0.0, 0.0)) == 1.0


def test_weight_characteristic_radii(beam):
    x = 0.02
    w = beam_size(beam, x)
    r_half = w / math.sqrt(2.0)
    assert weight(beam, (x, r_half, 0.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert weight(beam, (x, 0.0, w)) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_weight_monotone_in_transverse_radius(beam):
    radii = np.linspace(0.0, 5e-4, 40)
    vals = [weight(beam, (0.0, r, 0.0)) for r in radii]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_mode_amplitude_at_origin(beam):
    u = mode_amplitude(beam, (0.0, 0.0, 0.0))
    assert abs(u) == pytest.approx(math.sqrt(2.0 / math.pi) / beam.w0, rel=1e-14)
    assert np.angle(u) == pytest.approx(0.0, abs=1e-15)


def test_mode_modulus_matches_weight_over_section(beam, rng):
    # |u|^2 * S(x) / f(r) = 1 pointwise, phase included
    pts = rng.uniform(-1.0, 1.0, size=(30, 3)) * np.array([0.05, 2e-4, 2e-4])
    u = mode_amplitude(beam, pts)
    ratio = np.abs(u) ** 2 * np.asarray(beam_section(beam, pts[:, 0])) / weight(beam, pts)
    np.testing.assert_allclose(ratio, 1.0, rtol=1e-12)


@pytest.mark.parametrize("x_over_lr", [0.0, 0.7, -1.3])
def test_transverse_normalization(beam, x_over_lr):
    x = x_over_lr * beam.rayleigh_length
    w = beam_size(beam, x)
    half = 8.0 * w

    def integrand(z, y):
        return abs(mode_amplitude(beam, (x, y, z))) ** 2

    val, _ = dblquad(integrand, -half, half, -half, half, epsabs=1e-13, epsrel=1e-11)
    assert val == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(-0.05, 0.05),
    y=st.floats(-3e-4, 3e-4),
    z=st.floats(-3e-4, 3e-4),
    j=st.integers(1, 5),
)
def test_weight_power_shrinks_beam_size(x, y, z, j):
    # f^j equals f evaluated with w^2 -> w^2/j
    beam = BeamParams(w0=1e-4, wavelength=852e-9)
    w_sq = beam_size(beam, x) ** 2
    direct = weight(beam, (x, y, z)) ** j
    shrunk = math.exp(-2.0 * (y * y + z * z) / (w_sq / j))
    assert direct == pytest.approx(shrunk, rel=1e-13, abs=1e-300)


def _plain_weight(p, r):
    """f(r) as the bare formula with one exp call over every point."""
    w_sq = (p.w0 * np.sqrt(1.0 + (r[..., 0] / p.rayleigh_length) ** 2)) ** 2
    return np.exp(-2.0 * (r[..., 1] ** 2 + r[..., 2] ** 2) / w_sq)


def test_weight_equals_plain_exp_across_underflow(beam):
    # exponents over [-800, 0] with a dense band around the underflow edge
    rng = np.random.default_rng(31)
    expo = np.concatenate([np.linspace(-800.0, 0.0, 20001), np.linspace(-760.0, -700.0, 60001)])
    x = rng.uniform(-3.0, 3.0, expo.size) * beam.rayleigh_length
    rho = np.sqrt(-0.5 * expo) * np.asarray(beam_size(beam, x))
    phi = rng.uniform(0.0, 2.0 * math.pi, expo.size)
    r = np.stack([x, rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
    plain = _plain_weight(beam, r)
    assert np.count_nonzero(plain == 0.0) > 1000 and np.count_nonzero(plain > 0.0) > 1000
    np.testing.assert_array_equal(weight(beam, r), plain)
    np.testing.assert_array_equal(weight(beam, np.asfortranarray(r)), plain)


def test_weight_passes_nan_and_returns_float_for_a_vector(beam):
    assert math.isnan(weight(beam, (0.0, math.nan, 0.0)))
    out = weight(beam, np.array([[0.0, 0.0, 0.0], [math.nan, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    assert out[0] == 1.0 and math.isnan(out[1]) and out[2] == 0.0
    far = weight(beam, (0.0, 1.0, 0.0))
    assert type(far) is float and far == 0.0
