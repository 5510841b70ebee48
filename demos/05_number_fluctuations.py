"""Sub-Poissonian number fluctuations and their time-dependent spectrum.

The soft Gaussian weight makes the counted number quieter than Poisson:
the variance is half the mean for a narrow probe.  Because atoms cross the
beam in tau_w while the mean drifts over tau_r >> tau_w, the fluctuations
are quasistationary and carry a noise spectrum at every fall time T, with
linewidth 1/(alpha_T tau_w).
"""

import math

import numpy as np
from numpy.polynomial.laguerre import laggauss

import coldcloud as cc

cloud = cc.CloudParams(n_total=1e6, sigma_r=1e-3, sigma_v=0.1, g=9.81)
beam = cc.BeamParams(w0=10e-6, wavelength=1e-9)  # collimated narrow probe
inp = cc.EffNumInputs(cloud, beam)
ts = cc.time_scales(cloud, beam)

print(f"tau_w/tau_r = {ts.tau_w / ts.tau_r:.3f},  zeta = {ts.zeta:.4f}")
print()
print(f"{'t [ms]':>7} {'mean <N>':>10} {'variance':>10} {'var/mean':>9}")
for t in np.linspace(0.0, 2.0 * ts.tau_r, 5):
    m, v = cc.mean_number(inp, t), cc.variance(inp, t)
    print(f"{t * 1e3:7.1f} {m:10.3f} {v:10.3f} {v / m:9.4f}")

print()
big_t = ts.tau_r
print(f"covariance of N at mean time T = tau_r (correlation time ~ tau_w = {ts.tau_w * 1e3:.2f} ms):")
print(f"{'tau/tau_w':>10} {'exact':>11} {'quasistationary':>16}")
for k in (0.0, 0.5, 1.0, 2.0, 5.0):
    tau = k * ts.tau_w
    exact = cc.covariance_exact(inp, big_t, tau)
    quasi = cc.covariance_quasistationary(inp, big_t, tau)
    print(f"{k:10.1f} {exact:11.4f} {quasi:16.4f}")

print()
alpha = math.sqrt(2.0 * (1.0 + (big_t / ts.tau_r) ** 2))  # alpha_T = 2 at T = tau_r
print(f"noise spectrum at T = tau_r (linewidth 1/(alpha_T tau_w) = "
      f"{1.0 / (alpha * ts.tau_w):,.0f} rad/s):")
print(f"{'omega [rad/s]':>14} {'S_NN [s]':>12} {'gravity-free':>13}")
for omega in (0.0, 500.0, 2000.0, 8000.0):
    full = cc.spectrum_series(inp, big_t, omega)
    bare = cc.spectrum_exponential(inp, big_t, omega)
    print(f"{omega:14.0f} {full:12.5f} {bare:13.5f}")

# the spectrum decays as exp(-u) in u = alpha_T*tau_w*omega: a Gauss-Laguerre rule
u, weights = laggauss(40)
scale = alpha * ts.tau_w
area = np.sum(weights * np.exp(u) * cc.normalized_spectrum(inp, big_t, u / scale)) / scale
print()
print(f"normalized spectrum area (d omega / 2 pi): {area / math.pi:.6f} (exact: 1)")
