"""Workload definitions: the configs each workload writes and the CLI calls it makes.

Every workload is a closed loop: one CLI call at a time, from one process,
Monte Carlo at one thread.  Inputs of `curves` and `spectra` are fixed (their
outputs are compared with recorded references); the Monte Carlo seed of every
call is the benchmark's own seed argument.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
BASE_CONFIGS = os.path.join(HERE, "configs")

# the strong-saturation copy of default.json: every layer near the waist has
# 2*s_m >= 0.8, so sigma_saturated_general takes its dblquad fallback
STRONG_S_M0 = 2.0
STRONG_T = [0.005, 0.015]

# dense grids for `spectra`: fall times out to ~5 tau_r (spectrum series
# parameter c up to ~18), 2000 frequencies and a dense delay grid
SPECTRA_T = [round(0.004 * k, 6) for k in range(1, 13)]      # 4 ms .. 48 ms
SPECTRA_OMEGA = {"start": 0.0, "stop": 16000.0, "num": 2000}
SPECTRA_TAU = {"start": -0.01, "stop": 0.01, "num": 1601}
# at T = 55 ms (c = 30.3) the series needs 205 terms at omega = 0, above its
# 200-term cap: spectrum_series raises SeriesConvergenceError (known limit)
KNOWN_LIMIT_T = [0.055]
KNOWN_LIMIT_MESSAGE = "spectrum series did not converge"

# reduced Monte Carlo sizes standing in for the configs' 1e4 realizations
DESK_REALIZATIONS = 1000
MC_REALIZATIONS = 10


@dataclass(frozen=True)
class Op:
    """One CLI call: ``coldcloud <subcommand> --config <config>``."""

    label: str
    subcommand: str
    config: str
    known_limit: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict
    ops: tuple
    # per-op times worth reporting (the others take milliseconds)
    timed_ops: dict


def _load_base(name: str) -> dict:
    with open(os.path.join(BASE_CONFIGS, name), encoding="utf-8") as handle:
        return json.load(handle)


def _curves() -> Workload:
    default = _load_base("default.json")
    strong = copy.deepcopy(default)
    strong["optical"]["s_m0"] = STRONG_S_M0
    strong["grids"]["t"] = list(STRONG_T)
    analytic = ("mean", "sigma", "saturated", "variance", "covariance", "spectrum",
                "detuning-spectrum")
    ops = tuple(Op(sub.replace("-", "_"), sub, "default") for sub in analytic)
    ops += (Op("saturated_strong", "saturated", "strong"),)
    return Workload(
        name="curves",
        configs={"default": default, "strong": strong},
        ops=ops,
        timed_ops={"sigma": "sigma_s", "saturated": "saturated_s",
                   "saturated_strong": "saturated_strong_s"},
    )


def _spectra() -> Workload:
    dense = _load_base("default.json")
    dense["grids"] = {"t": dense["grids"]["t"], "T": list(SPECTRA_T),
                      "tau": dict(SPECTRA_TAU), "omega": dict(SPECTRA_OMEGA)}
    limit = copy.deepcopy(dense)
    limit["grids"]["T"] = list(KNOWN_LIMIT_T)
    return Workload(
        name="spectra",
        configs={"dense": dense, "limit": limit},
        ops=(
            Op("covariance", "covariance", "dense"),
            Op("spectrum", "spectrum", "dense"),
            Op("detuning_spectrum", "detuning-spectrum", "dense"),
            Op("spectrum_t55", "spectrum", "limit", known_limit=True),
        ),
        timed_ops={"spectrum": "spectrum_s", "detuning_spectrum": "detuning_spectrum_s",
                   "covariance": "covariance_s"},
    )


def _mc() -> Workload:
    desk = _load_base("validate_desk.json")
    desk["mc"]["realizations"] = DESK_REALIZATIONS
    mc = _load_base("default.json")
    mc["mc"]["realizations"] = MC_REALIZATIONS
    return Workload(
        name="mc",
        configs={"desk": desk, "mc": mc},
        ops=(Op("validate", "validate", "desk"), Op("mc", "mc", "mc")),
        timed_ops={"validate": "validate_s", "mc": "mc_s"},
    )


WORKLOADS = {w.name: w for w in (_curves(), _spectra(), _mc())}


def write_configs(workload: Workload, directory: str) -> dict:
    """Write the workload's configs as JSON files; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, cfg in workload.configs.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(cfg, handle, indent=1)
        paths[name] = path
    return paths
