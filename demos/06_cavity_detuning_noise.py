"""Atom-number noise seen as cavity-detuning noise.

With the cloud inside a cavity, the dispersive phase of the atoms pulls
the resonance by Phi = 2*kappa*C/delta.  Number fluctuations therefore
jitter the detuning with the same spectral shape as the number noise; as
long as the jitter spectrum stays below kappa the cavity responds
linearly.
"""

import numpy as np

import coldcloud as cc

cloud = cc.CloudParams(n_total=1e6, sigma_r=1e-3, sigma_v=0.1, g=9.81)
beam = cc.BeamParams(w0=100e-6, wavelength=852e-9)
inp = cc.EffNumInputs(cloud, beam)
ts = cc.time_scales(cloud, beam)
cavity = cc.CavityParams(kappa=5e6, tau_c=1e-9)
opt = cc.OpticalParams(delta=10.0)

print(f"mirror transmission 2*kappa*tau_c = {2 * cavity.kappa * cavity.tau_c:.3f}")
print()
print(f"{'T [ms]':>7} {'<N(T)>':>10} {'coop. C(T)':>11} {'shift [rad/s]':>14} {'linear?':>8}")
# one call per column: every readout takes an array of fall times or of n
big_t = np.linspace(0.0, 2.0 * ts.tau_r, 5)
n_mean = cc.mean_number(inp, big_t)
columns = zip(big_t, n_mean, cc.cooperativity(cavity, beam, n_mean),
              cc.detuning_shift(cavity, beam, opt, n_mean),
              cc.is_linear_regime(cavity, opt, inp, big_t).tolist())
for t, n, coop, shift, linear in columns:
    print(f"{t * 1e3:7.1f} {n:10.1f} {coop:11.3f} {shift:14.3e} {str(linear):>8}")

print()
big_t = ts.tau_r
print(f"detuning noise spectrum at T = tau_r (kappa = {cavity.kappa:.1e} rad/s):")
print(f"{'omega [rad/s]':>14} {'omega/2pi [Hz]':>15} {'S_PhiPhi [rad/s]':>17}")
omegas = np.array([0.0, 1000.0, 4000.0, 12000.0])
for omega, s in zip(omegas, cc.detuning_spectrum(cavity, opt, inp, big_t, omegas)):
    print(f"{omega:14.0f} {omega / (2 * np.pi):15.1f} {s:17.3e}")

peak = cc.detuning_spectrum(cavity, opt, inp, big_t, 0.0)
print()
print(f"peak detuning noise / kappa = {peak / cavity.kappa:.3e}"
      f" -> {'linear regime' if peak < cavity.kappa else 'needs nonlinear treatment'}")
