"""The effective atom number per beam section, sigma(t), four ways.

The general quadrature handles any geometry; the closed forms cover the
small-waist and long-Rayleigh limits and the single high-temperature
formula.  With the illustrative parameters both limits are decent, so all
four curves nearly coincide; their small gaps show each form's bias.
"""

import numpy as np

import coldcloud as cc

cloud = cc.CloudParams(n_total=1e6, sigma_r=1e-3, sigma_v=0.1, g=9.81)
beam = cc.BeamParams(w0=100e-6, wavelength=852e-9)
inp = cc.EffNumInputs(cloud, beam)
ts = cc.time_scales(cloud, beam)

print(f"sigma_r / l_R = {cloud.sigma_r / beam.rayleigh_length:.3f}   "
      f"w0 / sigma_r = {beam.w0 / cloud.sigma_r:.3f}")
print()
print(f"{'t [ms]':>7} {'general':>12} {'small waist':>12} {'long Rayleigh':>13} {'high temp':>12}")
# every sigma variant takes the whole time grid at once
t = np.linspace(0.0, 3.0 * ts.tau_r, 7)
curves = [f(inp, t) for f in (cc.sigma_general, cc.sigma_small_waist,
                              cc.sigma_long_rayleigh, cc.sigma_high_temperature)]
for i, ti in enumerate(t):
    print(f"{ti * 1e3:7.1f} " + " ".join(f"{c[i]:12.4e}" for c in curves))

t_probe = ts.tau_r
print()
print(f"mean atom number in the beam at tau_r: "
      f"{cc.mean_number(inp, t_probe):.1f} "
      f"(= sigma_long_rayleigh * waist section)")

# the complex field change of the probe after one pass
opt = cc.OpticalParams(delta=10.0)
shift = cc.linear_field_shift(inp, opt, t_probe)
print(f"field change dA/A at delta = 10: {shift.real:.3e} {shift.imag:+.3e}j")
print(f"phase shift    : {shift.imag * 1e3:.3f} mrad")
print(f"intensity loss : {-2.0 * shift.real * 100:.4f} %")
