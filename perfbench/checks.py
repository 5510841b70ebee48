"""Output checks for every CLI call of a workload.

`curves` and `spectra` outputs are compared column by column with reference
outputs recorded by ``record_refs.py``.  Each tolerance is no looser than the
tightest one the tier-1 tests apply to the same quantity (test named beside
it).  Monte Carlo outputs are checked against the closed forms with z-scores;
see ``check_validate`` and ``check_mc`` for the rule.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# input-grid columns must come back exactly
EXACT = {"t_s", "T_s", "tau_s", "omega_rad_s"}
RTOL = {
    "omega_hz": 1e-15,                      # test_cli: omega_hz * 2 pi == omega_rad_s
    "mean_number": 1e-14,                   # test_fluct: mean at t = 0
    "variance": 1e-12,                      # test_fluct: variance is the mean at tau_w^2/2
    "variance_over_mean": 1e-12,            # test_fluct: variance/mean ratio
    "sigma_general": 1e-13,                 # test_saturation: s_m0 = 0 equals sigma_general
    "sigma_small_waist": 1e-13,             # test_effnum: half value at tau_r
    "sigma_long_rayleigh": 1e-14,           # test_effnum: value at t = 0
    "sigma_high_temperature": 1e-12,        # test_effnum: gravity factor exp(-1)
    "sigma_saturated_closed": 1e-14,        # test_saturation: ln 2 reduction at s_m0 = 1/2
    "sigma_saturated_general": 1e-13,       # test_saturation: s_m0 = 0 equals sigma_general
    "covariance_exact": 1e-12,              # test_fluct: equals the variance at tau = 0
    "covariance_quasistationary": 1e-14,    # test_fluct: closed form at T, tau
    # no tier-1 test; a difference of two outputs known to ~1e-12 relative
    "relative_gap": 1e-10,
    "spectrum_series_s": 1e-12,             # test_fluct: kmax = 0 equals the exponential
    "spectrum_exponential_s": 1e-14,        # test_fluct: peak value
    "normalized_spectrum_s": 1e-14,         # test_fluct: zero-frequency value at tau_r
    "detuning_noise_rad_s": 1e-12,          # test_cavity: direct assembly
}


def read_csv(path: str):
    """Header and (rows, columns) float array of a CLI CSV."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def compare_csv(path: str, ref_header: list, ref_columns: dict) -> list:
    """Problems found comparing a CSV with its reference (empty when equal)."""
    if not os.path.isfile(path):
        return [f"{os.path.basename(path)} missing"]
    header, data = read_csv(path)
    name = os.path.basename(path)
    if header != ref_header:
        return [f"{name}: header {header} != {ref_header}"]
    problems = []
    for j, column in enumerate(header):
        ref = ref_columns[column]
        got = data[:, j]
        if got.shape != ref.shape:
            problems.append(f"{name}: {column} has {got.size} rows, reference {ref.size}")
            continue
        if column in EXACT:
            bad = got != ref
        else:
            bad = ~(np.abs(got - ref) <= RTOL[column] * np.abs(ref))
        if np.any(bad):
            i = int(np.argmax(bad))
            problems.append(f"{name}: {column}[{i}] = {got[i]!r}, reference {ref[i]!r}")
    return problems


def z_from_t(t: float, dof: int) -> float:
    """Normal deviate with the same two-sided tail as Student t with dof."""
    from scipy.special import ndtri, stdtr

    return math.copysign(-float(ndtri(stdtr(dof, -abs(t)))), t)


def z_from_chi2(x: float, dof: int) -> float:
    """Normal deviate with the same tail as a chi-square statistic x."""
    from scipy.special import chdtr, chdtrc, ndtri

    lower = float(chdtr(dof, x))
    return float(ndtri(lower)) if lower < 0.5 else -float(ndtri(float(chdtrc(dof, x))))


def check_validate(out_dir: str, tolerances: dict, expected_checks: int):
    """validate's own z-scores against its hard limit.

    validate exits 1 when any of its checks is beyond ``mc_sigma``
    (3 sigma).  With 50 checks that happens on about one seed in six even
    when every estimate is right, so the benchmark fails the call only when
    a check is beyond ``fail_sigma`` (5 sigma), the hard limit in validate's
    own tolerances.  Returns (problems, checks beyond mc_sigma).
    """
    path = os.path.join(out_dir, "validate_report.json")
    if not os.path.isfile(path):
        return ["validate_report.json missing"], 0
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    z = np.array([c["z"] for c in report["checks"]], dtype=float)
    problems = []
    if z.size != expected_checks:
        problems.append(f"validate made {z.size} checks, expected {expected_checks}")
    limit = float(tolerances["fail_sigma"])
    for check, zi in zip(report["checks"], z):
        if not abs(zi) <= limit:
            problems.append(f"validate {check['name']}: z = {zi} beyond {limit} sigma")
    return problems, int(np.count_nonzero(np.abs(z) > float(tolerances["mc_sigma"])))


def check_mc(out_dir: str, inp, realizations: int, tolerances: dict) -> list:
    """The mc subcommand's mean and variance against mean_number/variance.

    With few realizations the jackknife standard error of the variance is
    itself too noisy for a z-score, so both statistics are turned into
    normal deviates through their sampling distributions: Student t with
    n-1 degrees of freedom for the mean, chi-square with n-1 for the
    variance.  Every deviate must be within ``fail_sigma``.
    """
    from coldcloud.fluct import mean_number, variance

    stats_path = os.path.join(out_dir, "mc_stats.csv")
    cov_path = os.path.join(out_dir, "mc_covariance.csv")
    if not (os.path.isfile(stats_path) and os.path.isfile(cov_path)):
        return ["mc_stats.csv or mc_covariance.csv missing"]
    header, data = read_csv(stats_path)
    col = {name: data[:, j] for j, name in enumerate(header)}
    _, cov = read_csv(cov_path)
    t = col["t_s"]
    problems = []
    diag = cov[cov[:, 0] == cov[:, 1], 2]
    if diag.shape != col["mc_variance"].shape or np.any(diag != col["mc_variance"]):
        problems.append("mc_covariance.csv diagonal differs from mc_variance")
    n = realizations
    limit = float(tolerances["fail_sigma"])
    mean_th = np.asarray(mean_number(inp, t))
    var_th = np.asarray(variance(inp, t))
    for j in range(t.size):
        z_mean = z_from_t((col["mc_mean"][j] - mean_th[j]) / col["mc_se_mean"][j], n - 1)
        z_var = z_from_chi2((n - 1) * col["mc_variance"][j] / var_th[j], n - 1)
        for what, z in (("mean", z_mean), ("variance", z_var)):
            if not abs(z) <= limit:
                problems.append(f"mc {what}[t={t[j]:g}]: z = {z:.2f} beyond {limit} sigma")
    return problems
