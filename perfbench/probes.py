"""Measurements made outside the workload loop: set-up, import, machine, threads."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time

_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import coldcloud
from coldcloud.cli import load_config
for path in sys.argv[2:]:
    load_config(path)
print(json.dumps(time.perf_counter() - t0))
"""


def _child(args: list, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, check=True,
    )


def setup_times(src: str, configs: list, repeats: int) -> list:
    """Seconds for `import coldcloud` plus load_config of every config, each
    in a fresh interpreter."""
    return [
        float(_child(["-c", _SETUP_CODE, src, *configs]).stdout.strip().splitlines()[-1])
        for _ in range(repeats)
    ]


def import_times(src: str, repeats: int) -> dict:
    """Median total and scipy-only import time of `import coldcloud`, from
    the interpreter's -X importtime self times, each in a fresh interpreter."""
    totals, scipys = [], []
    code = f"import sys; sys.path.insert(0, {src!r}); import coldcloud"
    for _ in range(repeats):
        err = _child(["-X", "importtime", "-c", code]).stderr
        total = scipy = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:  # the header line
                continue
            module = parts[2].strip()
            total += self_us
            if module == "scipy" or module.startswith("scipy."):
                scipy += self_us
        totals.append(total * 1e-6)
        scipys.append(scipy * 1e-6)
    return {"import.total_s": statistics.median(totals),
            "import.scipy_s": statistics.median(scipys)}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and toolchain the numbers were measured on."""
    import numpy
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def thread_speedup(cfg_path: str, seed: int, repeats: int) -> dict:
    """Untraced ensemble_stats at threads = min(2, nproc) against threads = 1
    on the desk config; pairs alternate which side runs first."""
    from coldcloud import ensemble_stats
    from coldcloud.cli import load_config

    cfg = load_config(cfg_path)
    times = cfg.t_grid
    threads = min(2, os.cpu_count() or 1)

    def timed(n_threads: int) -> float:
        t0 = time.perf_counter()
        ensemble_stats(cfg.cloud, cfg.beam, times, cfg.mc_realizations, seed, n_threads)
        return time.perf_counter() - t0

    ratios = []
    for i in range(repeats):
        order = (1, threads) if i % 2 == 0 else (threads, 1)
        elapsed = {n: timed(n) for n in order}
        ratios.append(elapsed[1] / elapsed[threads])
    median = statistics.median(ratios)
    return {"mc_oracle.thread_speedup": median,
            "mc_oracle.thread_speedup_spread": (max(ratios) - min(ratios)) / median}


def useful_atom_ratio(calls, cut: float) -> float:
    """Share of sampled atoms whose beam weight exceeds ``cut`` at some grid
    time, over the realizations of the recorded ensemble_stats calls.  Uses
    the library's own sampler, substream seeds, propagation and weight, with
    tracing removed."""
    import numpy as np
    from coldcloud.mc_oracle import propagate, sample_cloud, substream_seed
    from coldcloud.beam import weight

    useful = sampled = 0
    for args, kwargs in calls:
        names = ("c", "b", "times", "n_realizations", "seed")
        bound = dict(zip(names, args), **kwargs)
        cloud, beam, seed = bound["c"], bound["b"], bound["seed"]
        times = np.atleast_1d(np.asarray(bound["times"], dtype=float))
        for i in range(bound["n_realizations"]):
            real = sample_cloud(cloud, substream_seed(seed, i))
            hit = np.zeros(real.count, dtype=bool)
            for t in times:
                hit |= weight(beam, propagate(real.positions, real.velocities, cloud.g, t)) > cut
            useful += int(np.count_nonzero(hit))
            sampled += real.count
    return useful / sampled if sampled else 0.0
