"""Spans around calls into the library, installed from outside the package.

The tracer wraps public functions of the ``coldcloud`` modules.  ``cli``,
``cavity`` and others import functions by name, so every ``coldcloud.*``
module attribute that is the same function object is rebound, each to a
wrapper that remembers which module it was called through (``via``).  A
name that no longer exists is skipped, so the tracer survives code paths
being deleted.

Spans are kept in memory: (id, parent id, name, via, start, end, count).
Each thread has its own span stack, so parents are exact under threads.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# public functions wrapped per module: the layer metrics below read these
# spans, and wrapping a callee keeps its time out of its caller's self time
TARGETS = {
    "cli": ("main", "load_config", "write_csv", "write_manifest"),
    "effnum": ("sigma_general", "sigma_small_waist", "sigma_long_rayleigh",
               "sigma_high_temperature"),
    "saturation": ("saturation_on_axis", "sigma_saturated_closed", "sigma_saturated_general"),
    "fluct": ("mean_number", "variance", "covariance_exact", "covariance_quasistationary",
              "spectrum_series", "normalized_spectrum", "scaled_fluct_params"),
    "cavity": ("detuning_spectrum", "is_linear_regime", "cooperativity"),
    "mc_oracle": ("sample_cloud", "propagate", "effective_count", "weighted_counts",
                  "ensemble_stats", "binary_count_check"),
    "beam": ("beam_section", "weight"),
    "cloud": ("time_scales",),
}


def _csv_rows(args, kwargs, result):
    columns = kwargs.get("columns", args[2] if len(args) > 2 else None)
    return len(columns[0])


def _atoms(args, kwargs, result):
    return result.count


# counts recorded on a span, from the call's arguments and result
COUNTERS = {"cli.write_csv": _csv_rows, "mc_oracle.sample_cloud": _atoms}
# calls whose arguments are kept, for the untimed useful-atom pass
KEEP_ARGS = {"mc_oracle.ensemble_stats"}


class Tracer:
    """Install wrappers, collect spans, restore the original functions."""

    def __init__(self):
        self.spans = []
        self.kept_args = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, via: str, fn):
        counter = COUNTERS.get(name)
        keep = name in KEEP_ARGS
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, via, start, time.perf_counter(), None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            count = counter(args, kwargs, result) if counter else None
            spans.append((sid, parent, name, via, start, end, count))
            if keep:
                self.kept_args.append((args, kwargs))
            return result

        return wrapper

    def install(self) -> list:
        """Wrap every target that exists; return the names that were missing."""
        modules = {
            key: mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "coldcloud" or key.startswith("coldcloud."))
        }
        missing = []
        for short, names in TARGETS.items():
            home = modules.get(f"coldcloud.{short}")
            for attr in names:
                fn = getattr(home, attr, None) if home is not None else None
                if not callable(fn):
                    missing.append(f"{short}.{attr}")
                    continue
                for key, mod in modules.items():
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            via = key.rpartition(".")[2]
                            setattr(mod, bound, self._wrap(f"{short}.{attr}", via, fn))
                            self._restore.append((mod, bound, fn))
        return missing

    def uninstall(self) -> None:
        for mod, bound, fn in reversed(self._restore):
            setattr(mod, bound, fn)
        self._restore.clear()


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for _sid, parent, _n, _v, start, end, _c in spans:
        if parent:
            child[parent] += end - start
    return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer times (s per pass) and counts (per pass) from the spans."""
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    counted = defaultdict(int)
    via_total = defaultdict(float)
    via_calls = defaultdict(int)
    self_total = defaultdict(float)
    for sid, parent, name, via, start, end, count in spans:
        total[name] += end - start
        calls[name] += 1
        counted[name] += count or 0
        via_total[name, via] += end - start
        via_calls[name, via] += 1
        self_total[name] += selfs[sid]

    # propagate calls made directly by binary_count_check, not inside effective_count
    names = {s[0]: s[2] for s in spans}
    loose_propagate = sum(
        end - start for _sid, parent, name, _v, start, end, _c in spans
        if name == "mc_oracle.propagate" and names.get(parent) != "mc_oracle.effective_count"
    )
    per = 1.0 / passes
    sampled = counted["mc_oracle.sample_cloud"]
    mc_busy = total["mc_oracle.ensemble_stats"] + total["mc_oracle.binary_count_check"]
    return {
        "cli.load_config_s": total["cli.load_config"] * per,
        "cli.write_csv_s": total["cli.write_csv"] * per,
        "cli.write_csv_rows": counted["cli.write_csv"] * per,
        "cli.write_manifest_s": total["cli.write_manifest"] * per,
        "cli.mean_s": via_total["fluct.mean_number", "cli"] * per,
        "cli.variance_s": via_total["fluct.variance", "cli"] * per,
        "effnum.sigma_general_s": total["effnum.sigma_general"] * per,
        "effnum.sigma_general_calls": calls["effnum.sigma_general"] * per,
        "effnum.integrand_evals": via_calls["beam.beam_section", "effnum"] * per,
        "effnum.closed_forms_s": sum(
            total[f"effnum.{n}"] for n in
            ("sigma_small_waist", "sigma_long_rayleigh", "sigma_high_temperature")
        ) * per,
        "saturation.sigma_saturated_general_s": total["saturation.sigma_saturated_general"] * per,
        "saturation.sigma_saturated_general_calls":
            calls["saturation.sigma_saturated_general"] * per,
        "saturation.layer_evals": calls["saturation.saturation_on_axis"] * per,
        "saturation.closed_s": total["saturation.sigma_saturated_closed"] * per,
        "fluct.spectrum_series_s": total["fluct.spectrum_series"] * per,
        "fluct.normalized_spectrum_s": total["fluct.normalized_spectrum"] * per,
        "fluct.covariance_s": (total["fluct.covariance_exact"]
                               + total["fluct.covariance_quasistationary"]) * per,
        "fluct.mean_variance_s": (total["fluct.mean_number"] + total["fluct.variance"]) * per,
        "cavity.detuning_spectrum_s": self_total["cavity.detuning_spectrum"] * per,
        "cavity.is_linear_regime_s": total["cavity.is_linear_regime"] * per,
        "mc_oracle.sample_s": total["mc_oracle.sample_cloud"] * per,
        "mc_oracle.propagate_weight_s":
            (total["mc_oracle.effective_count"] + loose_propagate) * per,
        "mc_oracle.reduce_s": self_total["mc_oracle.ensemble_stats"] * per,
        "mc_oracle.binary_check_s": self_total["mc_oracle.binary_count_check"] * per,
        "mc_oracle.atoms_sampled": sampled * per,
        "mc_oracle.atoms_per_s": sampled / mc_busy if mc_busy else 0.0,
        "beam.weight_s": total["beam.weight"] * per,
        "beam.beam_section_calls": calls["beam.beam_section"] * per,
        "cloud.time_scales_calls": calls["cloud.time_scales"] * per,
    }

SPAN_FIELDS = ("id", "parent", "name", "via", "start", "end", "count")
