"""Command-line interface: curve emission and analytic-vs-MC validation.

Every subcommand reads one JSON config (SI units throughout), writes CSV
data files plus a JSON run manifest into the output directory, and exits 0
on success.  Data files are byte-identical for identical config and seed;
the manifest also records the Python, numpy and scipy versions (scipy is
null unless the calling process loaded it) and the wall times of the load,
compute and write stages (``load_s``, ``compute_s``, ``write_s``), which
vary from run to run.

Config layout (keys follow the parameter bundles of the library)::

    {
      "cloud":   {"n_total": 1e6, "sigma_r": 1e-3, "g": 9.81,
                  "sigma_v": 0.1},  # or "temperature": 1e-5, "mass": 2.2e-25
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

The table _CONFIG holds each key's type and default.  Grid entries accept
either an explicit list or a start/stop/num range; a range whose grid
leaves the float range (stop - start beyond it, say) is a config error, and
missing grids fall back to defaults derived from the cloud time scales
(a config error too where a time scale puts them outside the float range).
A section other than cloud and beam may be null, which reads as absent.
Every number must be finite (the NaN and Infinity literals are rejected),
every object may hold only the keys shown above, and mc.realizations must
be at least 3.  Every CSV column comes from one
array-valued library call: over the t grid, or over the (T, tau) and
(T, omega) pairs in T-major order.
Exit codes: 0 success (all validation checks pass), 1 physics/validation
failure (including a finite config whose results leave the float range:
no CSV column is ever written non-finite), a data file that cannot be
written or an array too large to allocate, 2 malformed config (a range
grid too large to allocate included) or usage, or an output directory
that cannot be made.  An error is one line on stderr: numpy's
floating-point warnings are off while a subcommand runs.
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
    _variance_over_mean,
    covariance_exact,
    covariance_quasistationary,
    mean_number,
    spectra,
    spectrum_exponential,
    variance,
)
from .mc_oracle import ensemble_stats, window_draw
from .optical import OpticalParams
from .saturation import sigma_saturated_closed, sigma_saturated_general

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

_OUT_DIR_ENV = "COLDCLOUD_OUT_DIR"
_CSV_BLOCK_ROWS = 4096


class ConfigError(ValueError):
    """Malformed configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

# Every config key, once: key -> (kind, default).  A kind is "number" (a
# finite JSON number, read as a float), the least value of an integer,
# "grid" (a list of numbers or a _RANGE object), a tuple of the allowed
# strings, or a table of this form (a section: an object, and null reads
# as absent).  An absent key takes its default, checked like a given value;
# _REQUIRED makes it an error and None leaves it out.  The rules that tie
# keys together are code in load_config.
_REQUIRED = object()
_RANGE = {"start": ("number", _REQUIRED), "stop": ("number", _REQUIRED),
          "num": (1, _REQUIRED), "spacing": (("linear", "log"), "linear")}
_CONFIG = {
    "cloud": ({"n_total": ("number", _REQUIRED), "sigma_r": ("number", _REQUIRED),
               "sigma_v": ("number", None), "temperature": ("number", None),
               "mass": ("number", None), "g": ("number", 0.0)}, _REQUIRED),
    "beam": ({"w0": ("number", _REQUIRED), "lambda": ("number", _REQUIRED)}, _REQUIRED),
    "optical": ({"delta": ("number", 10.0), "s_m0": ("number", 0.0)}, {}),
    "cavity": ({"kappa": ("number", _REQUIRED), "tau_c": ("number", _REQUIRED)}, None),
    "grids": ({"t": ("grid", None), "T": ("grid", None), "tau": ("grid", None),
               "omega": ("grid", None)}, {}),
    "mc": ({"realizations": (3, 10000), "seed": (0, 20250801)}, {}),
    "tolerances": ({"mc_sigma": ("number", 3.0), "fail_sigma": ("number", 5.0),
                    "fail_points": (1, 2)}, {}),
}


def _finite_number(value) -> bool:
    """A JSON number, not a bool, within the float range; the bound also
    fails for inf and for integers too large for a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _read(obj: dict, prefix: str, table: dict) -> dict:
    """obj's keys checked against table, in the table's order, with the
    defaults filled in; ConfigError names prefix + the offending key."""
    for key in obj:
        if key not in table:
            raise ConfigError(prefix + key, f"unknown key (expected one of: {', '.join(table)})")
    values = {}
    for key, (kind, default) in table.items():
        section = isinstance(kind, dict)
        if key in obj and not (section and obj[key] is None):
            values[key] = _entry(prefix + key, obj[key], kind)
        elif default is _REQUIRED:
            raise ConfigError(prefix + key, f"missing required {'section' if section else 'field'}")
        elif default is not None:
            values[key] = _entry(prefix + key, default, kind)
    return values


def _entry(path: str, value, kind):
    """value checked against its table kind (see _CONFIG)."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(path, "expected an object")
        return _read(value, path + ".", kind)
    if kind == "grid":
        return _parse_grid(value, path)
    if kind == "number":
        if not _finite_number(value):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return float(value)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(path, f"unknown {path.rsplit('.', 1)[1]} {value!r}")
        return value
    if not isinstance(value, int) or isinstance(value, bool) or value < kind:
        raise ConfigError(path, f"expected an integer >= {kind}, got {value!r}")
    return value


def _params(section: str, build, **fields):
    """build(**fields) with its ValueError reported against the section."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from exc


def _parse_grid(entry, path: str) -> np.ndarray:
    if isinstance(entry, list):
        if not entry:
            raise ConfigError(path, "grid list is empty")
        if not all(map(_finite_number, entry)):
            raise ConfigError(path, "grid list must hold finite numbers only")
        return np.asarray(entry, dtype=float)
    if not isinstance(entry, dict):
        raise ConfigError(path, "expected a list or a start/stop/num range")
    start, stop, num, spacing = _read(entry, path + ".", _RANGE).values()
    if spacing == "log" and (start <= 0 or stop <= 0):
        raise ConfigError(path, "log spacing needs positive bounds")
    # stop - start beyond the float range makes linspace's step inf, and
    # geomspace can round a point near the top of the range up to inf
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            grid = (np.geomspace if spacing == "log" else np.linspace)(start, stop, num)
    except MemoryError as exc:
        raise ConfigError(path, f"the range's grid of {num} points cannot be allocated") from exc
    if not np.all(np.isfinite(grid)):
        raise ConfigError(path, "the range's grid leaves the float range")
    return grid


def _derived_grid(name: str, make) -> np.ndarray:
    """make(), an absent grid derived from the time scales; a ConfigError
    naming grids.<name> if a time scale leaves it outside the float range."""
    with np.errstate(all="ignore"):
        grid = make()
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"grids.{name}", "the grid derived from the cloud time scales leaves "
                                           "the float range; give it in the config")
    return grid


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
    mc_times: np.ndarray
    mc_realizations: int
    mc_seed: int
    tolerances: dict
    raw: dict


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<file>", "top level must be a JSON object")
    cfg = _read(raw, "", _CONFIG)

    cloud_cfg, beam_cfg = cfg["cloud"], cfg["beam"]
    thermal = "temperature" in cloud_cfg or "mass" in cloud_cfg
    if "sigma_v" in cloud_cfg and thermal:
        raise ConfigError("cloud.sigma_v", "give either sigma_v or (temperature, mass), not both")
    if "sigma_v" not in cloud_cfg and not thermal:
        raise ConfigError("cloud.sigma_v", "one of sigma_v or (temperature, mass) is required")
    if thermal:
        for key in ("temperature", "mass"):
            if key not in cloud_cfg:
                raise ConfigError(f"cloud.{key}", "missing required field")
    cloud = _params("cloud", CloudParams.from_temperature if thermal else CloudParams, **cloud_cfg)
    # the config spells the wavelength "lambda", a Python keyword
    beam_cfg["wavelength"] = beam_cfg.pop("lambda")
    beam = _params("beam", BeamParams, **beam_cfg)
    optical = _params("optical", OpticalParams, **cfg["optical"])
    cavity = _params("cavity", CavityParams, **cfg["cavity"]) if "cavity" in cfg else None

    # an absent grid is derived from the time scales; in table order, t, T,
    # tau and omega
    ts = time_scales(cloud, beam)
    derived = (lambda: np.linspace(0.0, 3.0 * ts.tau_r, 61),
               lambda: np.array([0.5, 1.0, 2.0]) * ts.tau_r,
               lambda: np.linspace(-8.0 * ts.tau_w, 8.0 * ts.tau_w, 161),
               lambda: np.linspace(0.0, np.divide(8.0, ts.tau_w), 161))
    given = cfg["grids"]
    t, big_t, tau, omega = (given[name] if name in given else _derived_grid(name, make)
                            for name, make in zip(_CONFIG["grids"][0], derived))
    if np.any(t < 0) or np.any(big_t < 0):
        raise ConfigError("grids", "time grids must be nonnegative")
    # the Monte Carlo grid: a given t grid, capped so each realization's
    # m^2 row of standard-error sums stays light, or 5 times over [0, 2 tau_r]
    mc_times = t
    if "t" not in given:
        mc_times = np.linspace(0.0, 2.0 * ts.tau_r, 5)
    elif mc_times.size > 8:
        mc_times = np.linspace(mc_times.min(), mc_times.max(), 5)

    realizations, seed = cfg["mc"].values()
    return RunConfig(cloud=cloud, beam=beam, optical=optical, cavity=cavity, t_grid=t,
                     big_t_grid=big_t, tau_grid=tau, omega_grid=omega, mc_times=mc_times,
                     mc_realizations=realizations, mc_seed=seed, tolerances=cfg["tolerances"],
                     raw=raw)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Comma-separated, '.' decimal, 17 significant digits, one header row."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        # one % format per block of rows, on a row-major tuple of Python
        # floats: the formatting loop runs in C, "%.17g" writes the bytes of
        # format(v, ".17g"), and a block bounds the memory of the text
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([col[lo:lo + _CSV_BLOCK_ROWS] for col in columns])
            handle.write(row * len(block) % tuple(block.ravel().tolist()))


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

def _fall_time_pairs(cfg: RunConfig, grid: np.ndarray):
    """T-major (T, grid value) pairs: the whole grid for each fall time."""
    return np.repeat(cfg.big_t_grid, grid.size), np.tile(grid, cfg.big_t_grid.size)


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
    return {"variance.csv": {
        "t_s": t, "mean_number": mean_number(inp, t), "variance": variance(inp, t),
        "variance_over_mean": _variance_over_mean(inp, t),
    }}, {}


def _covariance(cfg: RunConfig, seed: int, threads: int):
    inp = EffNumInputs(cfg.cloud, cfg.beam)
    big_t, tau = _fall_time_pairs(cfg, cfg.tau_grid)
    # keep both sampling times nonnegative
    keep = np.abs(tau) <= 2.0 * big_t
    if not keep.any():
        raise ValueError("no valid (T, tau) pairs: tau grid exceeds 2*T everywhere")
    big_t, tau = big_t[keep], tau[keep]
    exact = covariance_exact(inp, big_t, tau)
    quasi = covariance_quasistationary(inp, big_t, tau)
    return {"covariance.csv": {
        "T_s": big_t, "tau_s": tau, "covariance_exact": exact,
        "covariance_quasistationary": quasi,
        "relative_gap": np.abs(quasi - exact) / np.abs(exact),
    }}, {}


def _spectrum(cfg: RunConfig, seed: int, threads: int):
    inp = EffNumInputs(cfg.cloud, cfg.beam)
    big_t, omega = _fall_time_pairs(cfg, cfg.omega_grid)
    series, normalized = spectra(inp, big_t, omega)
    return {"spectrum.csv": {
        "T_s": big_t,
        "omega_rad_s": omega,
        "omega_hz": omega / (2.0 * math.pi),
        "spectrum_series_s": series,
        "spectrum_exponential_s": spectrum_exponential(inp, big_t, omega),
        "normalized_spectrum_s": normalized,
    }}, {}


def _detuning_spectrum(cfg: RunConfig, seed: int, threads: int):
    cav = cfg.cavity
    if cav is None:
        raise ConfigError("cavity", "required for the detuning-spectrum subcommand")
    if cfg.optical.delta == 0:
        raise ConfigError("optical.delta", "must be nonzero for the detuning-spectrum subcommand")
    inp = EffNumInputs(cfg.cloud, cfg.beam)
    big_t, omega = _fall_time_pairs(cfg, cfg.omega_grid)
    noise = detuning_spectrum(cav, cfg.optical, inp, big_t, omega)
    n_mean = mean_number(inp, cfg.big_t_grid)
    columns = zip(cfg.big_t_grid, cooperativity(cav, cfg.beam, n_mean).tolist(),
                  detuning_shift(cav, cfg.beam, cfg.optical, n_mean).tolist(),
                  is_linear_regime(cav, cfg.optical, inp, cfg.big_t_grid).tolist())
    regime = {_fmt(t): {"cooperativity": coop, "detuning_shift_rad_s": shift,
                        "linear_regime": flag} for t, coop, shift, flag in columns}
    return {"detuning_spectrum.csv": {
        "T_s": big_t, "omega_rad_s": omega, "omega_hz": omega / (2.0 * math.pi),
        "detuning_noise_rad_s": noise,
    }}, {"per_fall_time": regime}


def _mc(cfg: RunConfig, seed: int, threads: int):
    stats = ensemble_stats(cfg.cloud, cfg.beam, cfg.mc_times, cfg.mc_realizations, seed, threads)
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
    }, {"realizations": stats.realization_count, **window_draw(cfg.cloud, cfg.beam, stats.times)}


def _validate_branch(cfg: RunConfig, cloud: CloudParams, label: str, times, seed: int,
                     threads: int):
    """Check names and a (3, checks) array of MC estimates, closed-form
    references and standard errors for one ensemble.  Order: mean and
    variance per t, the covariance pairs, then the Poisson ratios.  One
    beam-window draw from seed gives every check: the Poisson ratio at t
    counts the atoms weighed at t, those inside the beam window then (see
    EnsembleStats.poisson)."""
    inp = EffNumInputs(cloud, cfg.beam)
    stats = ensemble_stats(cloud, cfg.beam, times, cfg.mc_realizations, seed, threads)
    rows, cols = np.triu_indices(times.size, 1)
    names = [f"{label}.{q}[t={t:g}]" for t in times for q in ("mean", "variance")]
    names += [f"{label}.covariance[t={times[j]:g},t'={times[k]:g}]" for j, k in zip(rows, cols)]
    names += [f"{label}.poisson_ratio[t={t:g}]" for t in times]
    mean = [stats.mean, mean_number(inp, times), stats.se_mean]
    var = [stats.variance, variance(inp, times), stats.se_variance]
    cov = [stats.covariance[rows, cols],
           covariance_exact(inp, 0.5 * (times[rows] + times[cols]), times[rows] - times[cols]),
           stats.se_covariance[rows, cols]]
    ratio = [stats.poisson.ratio, np.ones(times.size), stats.poisson.ratio_se]
    return names, np.hstack([np.stack([mean, var], axis=-1).reshape(3, -1), cov, ratio])


def _validate(cfg: RunConfig, seed: int, threads: int):
    times = cfg.mc_times
    branches = [_validate_branch(cfg, cfg.cloud, "gravity", times, seed, threads)]
    # each branch draws with its own plan: the manifest describes both
    draws = window_draw(cfg.cloud, cfg.beam, times)
    if math.isfinite(time_scales(cfg.cloud, cfg.beam).tau_g):
        free = CloudParams(cfg.cloud.n_total, cfg.cloud.sigma_r, cfg.cloud.sigma_v, 0.0)
        branches.append(_validate_branch(cfg, free, "free", times, seed + 1000, threads))
        draws["free_branch"] = window_draw(free, cfg.beam, times)
    names = [name for branch_names, _ in branches for name in branch_names]
    estimate, reference, se = np.hstack([values for _, values in branches])
    # a check without data (zero standard error) gets a non-finite z, which
    # is reported by name below
    z = (estimate - reference) / se
    tol = cfg.tolerances["mc_sigma"]
    ok = np.abs(z) <= tol
    hard = np.abs(z) > cfg.tolerances["fail_sigma"]
    report = {
        "checks": [
            {"name": name, "estimate": e, "reference": r, "z": zj, "pass": bool(passed)}
            for name, e, r, zj, passed in zip(names, estimate.tolist(), reference.tolist(),
                                              z.tolist(), ok)
        ],
        "tolerance_sigma": tol,
        "n_checks": len(names),
        "n_failures": int(np.count_nonzero(~ok)),
        "hard_failure": bool(np.count_nonzero(hard) >= cfg.tolerances["fail_points"]),
        "all_pass": bool(np.all(ok)),
    }
    for entry in report["checks"]:
        status = "pass" if entry["pass"] else "FAIL"
        print(f"[{status}] {entry['name']}: z = {entry['z']:+.2f}")
    print(f"validate: {report['n_checks'] - report['n_failures']}/{report['n_checks']} checks passed")
    undefined = [names[j] for j in np.flatnonzero(~np.isfinite(z))]
    if undefined:
        raise ValueError(f"no data (zero window counts or zero standard error), z undefined for "
                         f"{len(undefined)} checks: {', '.join(undefined)}")
    # chance that the largest |z| of this many independent normal checks
    # is at least the worst one: small values point to a defect, not noise
    worst = int(np.argmax(np.abs(z)))
    tail = np.log1p(-math.erfc(abs(z[worst]) / math.sqrt(2.0)))
    report.update(worst_check=names[worst], worst_z=float(z[worst]),
                  familywise_p=float(-np.expm1(len(names) * tail)))
    print(f"validate: worst check {report['worst_check']}: z = {report['worst_z']:+.2f}, "
          f"family-wise p = {report['familywise_p']:.3g} over {len(names)} checks")
    return {
        "validate.csv": {"z_score": z, "estimate": estimate, "reference": reference,
                         "pass": ok.astype(float)},
        "validate_report.json": report,
    }, {"all_pass": report["all_pass"], **draws}


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
    code: failure when the manifest says all_pass is false or when a file
    cannot be written.  A non-finite CSV column raises ValueError before
    any file is written.
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
    try:
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
    except OSError as exc:
        print(f"error in {subcommand}: {exc}", file=sys.stderr)
        return EXIT_FAIL
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
    parser.add_argument("--seed", type=_int_at_least(_CONFIG["mc"][0]["seed"][0]), default=None,
                        help="override the Monte Carlo seed from the config")
    parser.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="worker threads for the Monte Carlo blocks of realizations "
                             "(at most one per CPU is used)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # numpy's floating-point warnings are off: a result that leaves the
    # float range is named on one line (a non-finite column, see _run), and
    # an intermediate overflow or 0/0 that the results survive is no error
    try:
        with np.errstate(all="ignore"):
            start = time.perf_counter()
            cfg = load_config(args.config)
            load_s = time.perf_counter() - start
            out_dir = args.out or os.environ.get(_OUT_DIR_ENV) or "."
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                print(f"error: --out: {exc}", file=sys.stderr)
                return EXIT_CONFIG
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
    except MemoryError as exc:
        print(f"error in {args.subcommand}: out of memory ({exc})", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
