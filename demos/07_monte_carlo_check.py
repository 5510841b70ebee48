"""Closed forms vs brute force: fly the atoms and count.

Samples clouds atom by atom (Poisson total, Gaussian phase space), flies
them ballistically, sums the beam weights, and compares ensemble
statistics with the analytic mean, variance and covariance.  The same
draw's Poisson check, the atoms inside the beam window at each time,
verifies the sampler stays Poissonian where the weight is hard-edged.

A few thousand realizations keep this demo quick; the acceptance suite
runs the full desk-scale version (1e4 atoms x 1e4 realizations).
"""

import numpy as np

import coldcloud as cc

cloud = cc.CloudParams(n_total=1e4, sigma_r=1e-3, sigma_v=0.1, g=9.81)
beam = cc.BeamParams(w0=10e-6, wavelength=1e-9)  # collimated narrow probe
inp = cc.EffNumInputs(cloud, beam)
times = np.array([0.0, 0.005, 0.01, 0.015, 0.02])

stats = cc.ensemble_stats(cloud, beam, times, n_realizations=2000, seed=20250801, threads=2)

print(f"{'t [ms]':>7} {'MC mean':>9} {'theory':>9} {'z':>6}   {'MC var':>8} {'theory':>8} {'z':>6}")
mean_th = np.asarray(cc.mean_number(inp, times))
var_th = np.asarray(cc.variance(inp, times))
for j, t in enumerate(times):
    zm = (stats.mean[j] - mean_th[j]) / stats.se_mean[j]
    zv = (stats.variance[j] - var_th[j]) / stats.se_variance[j]
    print(f"{t * 1e3:7.1f} {stats.mean[j]:9.4f} {mean_th[j]:9.4f} {zm:+6.2f}   "
          f"{stats.variance[j]:8.4f} {var_th[j]:8.4f} {zv:+6.2f}")

print()
print("two-time covariance (t = 5 ms vs t' = 10 ms):")
th = cc.covariance_exact(inp, 0.0075, -0.005)
print(f"  MC: {stats.covariance[1, 2]:.5f} +- {stats.se_covariance[1, 2]:.5f}   theory: {th:.5f}")

print()
report = stats.poisson
print("atoms inside the beam window, a hard-edged box (variance/mean must be 1):")
for j, t in enumerate(times):
    print(f"  t = {t * 1e3:5.1f} ms: ratio = {report.ratio[j]:.3f} +- {report.ratio_se[j]:.3f}")
print(f"all Poisson-consistent within 3 sigma: {report.all_consistent}")
