"""Command-line interface: curve emission and analytic-vs-MC validation.

Every subcommand reads one JSON config (SI units throughout), writes CSV
data files plus a JSON run manifest into the output directory, and exits 0
on success.  Data files are byte-identical for identical config and seed;
the manifest also records the Python, numpy and scipy versions (scipy is
null when the run never loaded it) and the wall times of the load,
compute and write stages (``load_s``, ``compute_s``, ``write_s``), which
vary from run to run.

Config layout (keys follow the parameter bundles of the library)::

    {
      "cloud":   {"n_total": 1e6, "sigma_r": 1e-3,
                  "sigma_v": 0.1            # or "temperature" and "mass"
                  , "g": 9.81},
      "beam":    {"w0": 100e-6, "lambda": 852e-9},
      "optical": {"delta": 10.0, "s_m0": 0.3},
      "cavity":  {"kappa": 5e6, "tau_c": 1e-9},
      "grids":   {"t": {"start": 0, "stop": 0.03, "num": 61},
                  "T": [0.005, 0.01, 0.02],
                  "tau": {"start": -2e-3, "stop": 2e-3, "num": 201},
                  "omega": {"start": 10.0, "stop": 1e5, "num": 200,
                             "spacing": "log"}},
      "mc":      {"realizations": 10000, "seed": 20250801},
      "tolerances": {"mc_sigma": 3.0, "fail_sigma": 5.0, "fail_points": 2}
    }

Grid entries accept either an explicit list or a start/stop/num range;
missing grids fall back to defaults derived from the cloud time scales.
Every number must be finite: the NaN and Infinity literals are rejected,
and so are unknown tolerance keys.  Curves over the t grid come from one
array-valued library call each.
Exit codes: 0 success (all validation checks pass), 1 physics/validation
failure (including a finite config whose results leave the float range:
no CSV column is ever written non-finite), 2 malformed config or usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .beam import BeamParams, beam_section
from .cavity import CavityParams, cooperativity, detuning_shift, detuning_spectrum, is_linear_regime
from .cloud import CloudParams, time_scales
from .effnum import (
    EffNumInputs,
    sigma_general,
    sigma_high_temperature,
    sigma_long_rayleigh,
    sigma_small_waist,
)
from .fluct import (
    covariance_exact,
    covariance_quasistationary,
    mean_number,
    scaled_fluct_params,
    spectra,
    spectrum_exponential,
    variance,
)
from .mc_oracle import binary_count_check, ensemble_stats
from .optical import OpticalParams
from .saturation import sigma_saturated_closed, sigma_saturated_general

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

_OUT_DIR_ENV = "COLDCLOUD_OUT_DIR"


class ConfigError(ValueError):
    """Malformed configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _require(section: dict, section_name: str, key: str, default=None):
    """section[key]; a missing key is an error unless a default is given."""
    if key in section:
        return section[key]
    if default is None:
        raise ConfigError(f"{section_name}.{key}", "missing required field")
    return default


def _number(section: dict, section_name: str, key: str, default: float | None = None) -> float:
    value = _require(section, section_name, key, default)
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # the bound also fails for inf and for integers beyond the float range
    if not (is_number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{section_name}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _integer(section: dict, section_name: str, key: str, minimum: int,
             default: int | None = None) -> int:
    value = _require(section, section_name, key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{section_name}.{key}",
                          f"expected an integer >= {minimum}, got {value!r}")
    return value


def _section(raw: dict, name: str, required: bool = False) -> dict:
    """A config object; an absent optional section reads as empty."""
    value = raw.get(name)
    if value is None and not required:
        return {}
    if value is None:
        raise ConfigError(name, "missing required section")
    if not isinstance(value, dict):
        raise ConfigError(name, "expected an object")
    return value


def _params(section: str, build, **fields):
    """build(**fields) with its ValueError reported against the section."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from exc


def _reject_constant(name: str):
    raise ConfigError("<file>", f"non-finite number {name} is not allowed")


def _parse_grid(entry, name: str) -> np.ndarray:
    if isinstance(entry, list):
        if not entry:
            raise ConfigError(f"grids.{name}", "grid list is empty")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry):
            raise ConfigError(f"grids.{name}", "grid list must hold numbers only")
        grid = np.asarray(entry, dtype=float)
        if not np.all(np.isfinite(grid)):
            raise ConfigError(f"grids.{name}", "grid values must be finite")
        return grid
    if isinstance(entry, dict):
        start = _number(entry, f"grids.{name}", "start")
        stop = _number(entry, f"grids.{name}", "stop")
        num = _integer(entry, f"grids.{name}", "num", 1)
        spacing = entry.get("spacing", "linear")
        if spacing == "linear":
            return np.linspace(start, stop, num)
        if spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(f"grids.{name}", "log spacing needs positive bounds")
            return np.geomspace(start, stop, num)
        raise ConfigError(f"grids.{name}.spacing", f"unknown spacing {spacing!r}")
    raise ConfigError(f"grids.{name}", "expected a list or a start/stop/num range")


@dataclass
class RunConfig:
    """Validated configuration with every grid materialized."""

    cloud: CloudParams
    beam: BeamParams
    optical: OpticalParams
    cavity: CavityParams | None
    t_grid: np.ndarray
    big_t_grid: np.ndarray
    tau_grid: np.ndarray
    omega_grid: np.ndarray
    mc_realizations: int
    mc_seed: int
    tolerances: dict
    raw: dict


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a JSON object")

    cloud_cfg = _section(raw, "cloud", required=True)
    beam_cfg = _section(raw, "beam", required=True)
    has_sigma_v = "sigma_v" in cloud_cfg
    has_thermal = "temperature" in cloud_cfg or "mass" in cloud_cfg
    if has_sigma_v and has_thermal:
        raise ConfigError("cloud.sigma_v", "give either sigma_v or (temperature, mass), not both")
    if not has_sigma_v and not has_thermal:
        raise ConfigError("cloud.sigma_v", "one of sigma_v or (temperature, mass) is required")
    cloud_fields = {
        "n_total": _number(cloud_cfg, "cloud", "n_total"),
        "sigma_r": _number(cloud_cfg, "cloud", "sigma_r"),
        "g": _number(cloud_cfg, "cloud", "g", 0.0),
    }
    if has_sigma_v:
        cloud = _params("cloud", CloudParams, sigma_v=_number(cloud_cfg, "cloud", "sigma_v"),
                        **cloud_fields)
    else:
        cloud = _params("cloud", CloudParams.from_temperature,
                        temperature=_number(cloud_cfg, "cloud", "temperature"),
                        mass=_number(cloud_cfg, "cloud", "mass"), **cloud_fields)
    beam = _params("beam", BeamParams, w0=_number(beam_cfg, "beam", "w0"),
                   wavelength=_number(beam_cfg, "beam", "lambda"))
    optical_cfg = _section(raw, "optical")
    optical = _params("optical", OpticalParams,
                      delta=_number(optical_cfg, "optical", "delta", 10.0),
                      s_m0=_number(optical_cfg, "optical", "s_m0", 0.0))
    cavity = None
    if raw.get("cavity") is not None:
        cavity_cfg = _section(raw, "cavity")
        cavity = _params("cavity", CavityParams, kappa=_number(cavity_cfg, "cavity", "kappa"),
                         tau_c=_number(cavity_cfg, "cavity", "tau_c"))

    ts = time_scales(cloud, beam)
    grids = {
        "t": np.linspace(0.0, 3.0 * ts.tau_r, 61),
        "T": np.array([0.5, 1.0, 2.0]) * ts.tau_r,
        "tau": np.linspace(-8.0 * ts.tau_w, 8.0 * ts.tau_w, 161),
        "omega": np.linspace(0.0, 8.0 / ts.tau_w, 161),
    }
    grids_cfg = _section(raw, "grids")
    for name in grids:
        if name in grids_cfg:
            grids[name] = _parse_grid(grids_cfg[name], name)
    if np.any(grids["t"] < 0) or np.any(grids["T"] < 0):
        raise ConfigError("grids", "time grids must be nonnegative")

    mc_cfg = _section(raw, "mc")
    tol_cfg = _section(raw, "tolerances")
    for key in tol_cfg:
        if key not in ("mc_sigma", "fail_sigma", "fail_points"):
            raise ConfigError(f"tolerances.{key}", "unknown tolerance")
    tolerances = {
        "mc_sigma": _number(tol_cfg, "tolerances", "mc_sigma", 3.0),
        "fail_sigma": _number(tol_cfg, "tolerances", "fail_sigma", 5.0),
        "fail_points": _integer(tol_cfg, "tolerances", "fail_points", 1, 2),
    }

    return RunConfig(
        cloud=cloud,
        beam=beam,
        optical=optical,
        cavity=cavity,
        t_grid=grids["t"],
        big_t_grid=grids["T"],
        tau_grid=grids["tau"],
        omega_grid=grids["omega"],
        mc_realizations=_integer(mc_cfg, "mc", "realizations", 2, 10000),
        mc_seed=_integer(mc_cfg, "mc", "seed", 0, 20250801),
        tolerances=tolerances,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Comma-separated, '.' decimal, 17 significant digits, one header row."""
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for i in range(rows):
            handle.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def _derived_scales(cfg: RunConfig) -> dict:
    ts = time_scales(cfg.cloud, cfg.beam)
    return {
        "tau_r_s": ts.tau_r,
        "tau_g_s": None if math.isinf(ts.tau_g) else ts.tau_g,
        "tau_w0_s": ts.tau_w,
        "zeta": ts.zeta,
        "rayleigh_length_m": cfg.beam.rayleigh_length,
        "waist_section_m2": beam_section(cfg.beam, 0.0),
    }


def write_manifest(
    out_dir: str,
    subcommand: str,
    cfg: RunConfig,
    seed: int,
    threads: int,
    outputs: list[str],
    extra: dict | None = None,
) -> str:
    scipy = sys.modules.get("scipy")
    manifest = {
        "tool": "coldcloud",
        "version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": None if scipy is None else scipy.__version__,
        "subcommand": subcommand,
        "seed": seed,
        "threads": threads,
        "derived": _derived_scales(cfg),
        "outputs": outputs,
        "config": cfg.raw,
    }
    if extra:
        manifest.update(extra)
    name = subcommand.replace("-", "_") + "_manifest.json"
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return name


# ---------------------------------------------------------------------------
# subcommands: (cfg, seed, threads) -> ({file name: content}, extra manifest
# keys).  A .csv file's content is {column: values}; a .json file's content
# is the document itself.
# ---------------------------------------------------------------------------

def _per_fall_time(cfg: RunConfig, block) -> dict:
    """block(T) -> {column: values} for every fall time T, stacked in T order
    behind a T_s column; block returns None to skip T."""
    blocks = []
    for big_t in cfg.big_t_grid:
        columns = block(big_t)
        if columns is not None:
            rows = len(next(iter(columns.values())))
            blocks.append({"T_s": np.full(rows, big_t), **columns})
    if not blocks:
        return {}
    return {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}


def _mean(cfg: RunConfig, seed: int, threads: int):
    inp, t = EffNumInputs(cfg.cloud, cfg.beam), cfg.t_grid
    return {"mean.csv": {"t_s": t, "mean_number": mean_number(inp, t)}}, {}


def _sigma(cfg: RunConfig, seed: int, threads: int):
    inp, t = EffNumInputs(cfg.cloud, cfg.beam), cfg.t_grid
    return {"sigma.csv": {
        "t_s": t,
        "sigma_general": sigma_general(inp, t),
        "sigma_small_waist": sigma_small_waist(inp, t),
        "sigma_long_rayleigh": sigma_long_rayleigh(inp, t),
        "sigma_high_temperature": sigma_high_temperature(inp, t),
    }}, {}


def _saturated(cfg: RunConfig, seed: int, threads: int):
    inp, t = EffNumInputs(cfg.cloud, cfg.beam), cfg.t_grid
    return {"saturated.csv": {
        "t_s": t,
        "sigma_saturated_closed": sigma_saturated_closed(inp, cfg.optical, t),
        "sigma_saturated_general": sigma_saturated_general(inp, cfg.optical, t),
    }}, {"s_m0": cfg.optical.s_m0}


def _variance(cfg: RunConfig, seed: int, threads: int):
    inp, t = EffNumInputs(cfg.cloud, cfg.beam), cfg.t_grid
    mean, var = mean_number(inp, t), variance(inp, t)
    return {"variance.csv": {
        "t_s": t, "mean_number": mean, "variance": var, "variance_over_mean": var / mean,
    }}, {}


def _covariance(cfg: RunConfig, seed: int, threads: int):
    inp = EffNumInputs(cfg.cloud, cfg.beam)
    tau_w = time_scales(cfg.cloud, cfg.beam).tau_w
    p = scaled_fluct_params(inp)

    def block(big_t):
        # keep both sampling times nonnegative
        tau = cfg.tau_grid[np.abs(cfg.tau_grid) <= 2.0 * big_t]
        if tau.size == 0:
            return None
        exact = covariance_exact(inp, big_t, tau)
        quasi = covariance_quasistationary(p, tau_w, big_t, tau)
        return {"tau_s": tau, "covariance_exact": exact, "covariance_quasistationary": quasi,
                "relative_gap": np.abs(quasi - exact) / np.abs(exact)}

    columns = _per_fall_time(cfg, block)
    if not columns:
        raise ValueError("no valid (T, tau) pairs: tau grid exceeds 2*T everywhere")
    return {"covariance.csv": columns}, {}


def _spectrum(cfg: RunConfig, seed: int, threads: int):
    tau_w = time_scales(cfg.cloud, cfg.beam).tau_w
    p = scaled_fluct_params(EffNumInputs(cfg.cloud, cfg.beam))
    omega = cfg.omega_grid

    def block(big_t):
        series, normalized = spectra(p, tau_w, big_t, omega)
        return {
            "omega_rad_s": omega,
            "omega_hz": omega / (2.0 * math.pi),
            "spectrum_series_s": series,
            "spectrum_exponential_s": spectrum_exponential(p, tau_w, big_t, omega),
            "normalized_spectrum_s": normalized,
        }

    return {"spectrum.csv": _per_fall_time(cfg, block)}, {}


def _detuning_spectrum(cfg: RunConfig, seed: int, threads: int):
    cav = cfg.cavity
    if cav is None:
        raise ConfigError("cavity", "required for the detuning-spectrum subcommand")
    inp = EffNumInputs(cfg.cloud, cfg.beam)
    omega = cfg.omega_grid
    regime = {}

    def block(big_t):
        noise = detuning_spectrum(cav, cfg.optical, inp, big_t, omega)
        n_mean = mean_number(inp, big_t)
        regime[_fmt(big_t)] = {
            "cooperativity": cooperativity(cav, cfg.beam, n_mean),
            "detuning_shift_rad_s": detuning_shift(cav, cfg.beam, cfg.optical, n_mean),
            "linear_regime": is_linear_regime(cav, cfg.optical, inp, big_t),
        }
        return {"omega_rad_s": omega, "omega_hz": omega / (2.0 * math.pi),
                "detuning_noise_rad_s": noise}

    return {"detuning_spectrum.csv": _per_fall_time(cfg, block)}, {"per_fall_time": regime}


def _mc_times(cfg: RunConfig) -> np.ndarray:
    ts = time_scales(cfg.cloud, cfg.beam)
    if "t" in cfg.raw.get("grids", {}):
        t = cfg.t_grid
        # cap the grid so the covariance jackknife stays light
        return t if t.size <= 8 else np.linspace(t[0], t[-1], 5)
    return np.linspace(0.0, 2.0 * ts.tau_r, 5)


def _mc(cfg: RunConfig, seed: int, threads: int):
    stats = ensemble_stats(cfg.cloud, cfg.beam, _mc_times(cfg), cfg.mc_realizations, seed, threads)
    m = stats.times.size
    return {
        "mc_stats.csv": {
            "t_s": stats.times, "mc_mean": stats.mean, "mc_se_mean": stats.se_mean,
            "mc_variance": stats.variance, "mc_se_variance": stats.se_variance,
        },
        "mc_covariance.csv": {
            "t_s": np.repeat(stats.times, m), "t_prime_s": np.tile(stats.times, m),
            "mc_covariance": stats.covariance.ravel(),
            "mc_se_covariance": stats.se_covariance.ravel(),
        },
    }, {"realizations": stats.realization_count}


def _validate_branch(cfg: RunConfig, cloud: CloudParams, label: str, times, seed: int, threads: int):
    """z-scores of one MC ensemble against the closed forms."""
    inp = EffNumInputs(cloud, cfg.beam)
    stats = ensemble_stats(cloud, cfg.beam, times, cfg.mc_realizations, seed, threads)
    checks = []
    mean_th = np.asarray(mean_number(inp, times))
    var_th = np.asarray(variance(inp, times))
    half = 0.5 * cloud.sigma_r
    report = binary_count_check(
        cloud, ((-half, -half, -half), (half, half, half)),
        times, cfg.mc_realizations, seed + 1, threads,
    )
    # a check without data (zero standard error) gets a non-finite z, which
    # _validate reports by name
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, t in enumerate(times):
            checks.append((f"{label}.mean[t={t:g}]", stats.mean[j], mean_th[j],
                           (stats.mean[j] - mean_th[j]) / stats.se_mean[j]))
            checks.append((f"{label}.variance[t={t:g}]", stats.variance[j], var_th[j],
                           (stats.variance[j] - var_th[j]) / stats.se_variance[j]))
        for j in range(times.size):
            for k in range(j + 1, times.size):
                th = covariance_exact(inp, 0.5 * (times[j] + times[k]), times[j] - times[k])
                z = (stats.covariance[j, k] - th) / stats.se_covariance[j, k]
                checks.append((f"{label}.covariance[t={times[j]:g},t'={times[k]:g}]",
                               stats.covariance[j, k], th, z))
        for j, t in enumerate(times):
            z = (report.ratio[j] - 1.0) / report.ratio_se[j]
            checks.append((f"{label}.poisson_ratio[t={t:g}]", report.ratio[j], 1.0, z))
    return checks


def _validate(cfg: RunConfig, seed: int, threads: int):
    times = _mc_times(cfg)
    checks = _validate_branch(cfg, cfg.cloud, "gravity", times, seed, threads)
    if cfg.cloud.has_gravity:
        free = CloudParams(cfg.cloud.n_total, cfg.cloud.sigma_r, cfg.cloud.sigma_v, 0.0)
        checks += _validate_branch(cfg, free, "free", times, seed + 1000, threads)

    tol = cfg.tolerances["mc_sigma"]
    z = np.array([c[3] for c in checks])
    ok = np.abs(z) <= tol
    hard = np.abs(z) > cfg.tolerances["fail_sigma"]
    report = {
        "checks": [
            {"name": c[0], "estimate": c[1], "reference": c[2], "z": c[3],
             "pass": bool(abs(c[3]) <= tol)}
            for c in checks
        ],
        "tolerance_sigma": tol,
        "n_checks": len(checks),
        "n_failures": int(np.count_nonzero(~ok)),
        "hard_failure": bool(np.count_nonzero(hard) >= cfg.tolerances["fail_points"]),
        "all_pass": bool(np.all(ok)),
    }
    for entry in report["checks"]:
        status = "pass" if entry["pass"] else "FAIL"
        print(f"[{status}] {entry['name']}: z = {entry['z']:+.2f}")
    print(f"validate: {report['n_checks'] - report['n_failures']}/{report['n_checks']} checks passed")
    undefined = [c[0] for c in checks if not np.isfinite(c[3])]
    if undefined:
        raise ValueError(f"no data (zero box counts or zero standard error), z undefined for "
                         f"{len(undefined)} checks: {', '.join(undefined)}")
    # chance that the largest |z| of this many independent normal checks
    # is at least the worst one: small values point to a defect, not noise
    worst = int(np.argmax(np.abs(z)))
    with np.errstate(divide="ignore"):
        tail = np.log1p(-math.erfc(abs(z[worst]) / math.sqrt(2.0)))
    report.update(worst_check=checks[worst][0], worst_z=float(z[worst]),
                  familywise_p=float(-np.expm1(len(checks) * tail)))
    print(f"validate: worst check {report['worst_check']}: z = {report['worst_z']:+.2f}, "
          f"family-wise p = {report['familywise_p']:.3g} over {len(checks)} checks")
    return {
        "validate.csv": {
            "z_score": z, "estimate": np.array([c[1] for c in checks]),
            "reference": np.array([c[2] for c in checks]), "pass": ok.astype(float),
        },
        "validate_report.json": report,
    }, {"all_pass": report["all_pass"]}


SUBCOMMANDS = {
    "mean": _mean,
    "sigma": _sigma,
    "saturated": _saturated,
    "variance": _variance,
    "covariance": _covariance,
    "spectrum": _spectrum,
    "detuning-spectrum": _detuning_spectrum,
    "mc": _mc,
    "validate": _validate,
}


def _run(subcommand: str, cfg: RunConfig, out_dir: str, seed: int, threads: int,
         load_s: float) -> int:
    """Compute one subcommand, write its files and manifest, return the exit
    code: failure exactly when the manifest says all_pass is false.  A
    non-finite CSV column raises ValueError before any file is written.
    load_s, the seconds the config took to load, goes into the manifest
    with the compute and write times (the write time leaves out the
    manifest itself)."""
    start = time.perf_counter()
    outputs, extra = SUBCOMMANDS[subcommand](cfg, seed, threads)
    computed = time.perf_counter()
    for name, content in outputs.items():
        if name.endswith(".csv"):
            for column, values in content.items():
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"{name}: column {column} is not finite")
    for name, content in outputs.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(content, handle, indent=2)
                handle.write("\n")
        else:
            write_csv(path, list(content), list(content.values()))
    stages = {"load_s": load_s, "compute_s": computed - start,
              "write_s": time.perf_counter() - computed}
    write_manifest(out_dir, subcommand, cfg, seed, threads, list(outputs), {**extra, **stages})
    return EXIT_OK if extra.get("all_pass", True) else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum, as the config requires."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldcloud",
        description="Effective-atom-number curves, noise spectra and Monte Carlo validation "
                    "for a probe beam in a falling cold-atom cloud.",
    )
    parser.add_argument("subcommand", choices=list(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: ${_OUT_DIR_ENV} or '.')")
    parser.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="override the Monte Carlo seed from the config")
    parser.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="worker threads for Monte Carlo realizations")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        cfg = load_config(args.config)
        load_s = time.perf_counter() - start
        out_dir = args.out or os.environ.get(_OUT_DIR_ENV) or "."
        os.makedirs(out_dir, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg.mc_seed
        return _run(args.subcommand, cfg, out_dir, seed, args.threads, load_s)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"error in {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ArithmeticError as exc:
        print(f"error in {args.subcommand}: results leave the float range "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
