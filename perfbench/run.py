"""Benchmark of the coldcloud CLI: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {curves,spectra,mc} --seed N --seconds S --trace {0,1}

Each run is one fresh interpreter.  It measures set-up (import plus config
loading) in fresh child interpreters, then repeats the workload's CLI calls
through ``coldcloud.cli.main`` for about ``--seconds`` seconds, checking every
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a
warm-up pass, then untraced and traced passes in turn, and reports the
per-layer metrics.  The
last line of standard output is one JSON object; the lines before it show
every metric with its unit.  Spans of a traced run are written to
``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
THREAD_REPEATS = 3
# an atom is "useful" to the weighted count when its beam weight exceeds
# exp(-18), i.e. it comes within 3 local beam radii of the axis
USEFUL_CUT = math.exp(-18.0)
# validate on the desk config: two branches (gravity on and off) of
# 5 means, 5 variances, 10 covariances and 5 Poisson ratios
VALIDATE_CHECKS = 50
REF_DIR = os.path.join(HERE, "ref")


def ref_path(workload: str) -> str:
    return os.path.join(REF_DIR, f"{workload}.npz")


class Call(NamedTuple):
    """Outcome of one CLI call in a pass."""

    seconds: float
    problems: list
    known_limit: bool


class Runner:
    """Runs a workload's CLI calls one at a time and checks their outputs."""

    def __init__(self, workload, config_paths: dict, work_dir: str, seed: int, refs=None):
        from coldcloud import cli

        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.seed = seed
        self.refs = refs
        self.config_paths = config_paths
        self.configs = {name: cli.load_config(path) for name, path in self.config_paths.items()}
        self.digests = {}
        self.beyond_mc_sigma = 0

    def call(self, op, out_dir: str):
        """One CLI call; returns (exit code, seconds, captured stderr)."""
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [op.subcommand, "--config", self.config_paths[op.config], "--out", out_dir,
                "--seed", str(self.seed), "--threads", "1"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # any crash is a failed call, reported below
            code = f"{type(exc).__name__}: {exc}"
        return code, time.perf_counter() - start, err.getvalue()

    def check(self, op, code, stderr: str, out_dir: str):
        """(problems, known-limit failure) for one finished call."""
        if op.known_limit:
            if code == 1 and workloads.KNOWN_LIMIT_MESSAGE in stderr:
                return [], True
            if code == 0:
                return [], False
            return [f"{op.label}: exit {code}: {stderr.strip()[-300:]}"], False
        cfg = self.configs[op.config]
        if op.subcommand == "validate":
            if code not in (0, 1):
                return [f"{op.label}: exit {code}: {stderr.strip()[-300:]}"], False
            problems, beyond = checks.check_validate(out_dir, cfg.tolerances, VALIDATE_CHECKS)
            self.beyond_mc_sigma += beyond
            return problems + self._same_as_before(op, out_dir, "validate.csv"), False
        if code != 0:
            return [f"{op.label}: exit {code}: {stderr.strip()[-300:]}"], False
        if op.subcommand == "mc":
            from coldcloud.effnum import EffNumInputs

            problems = checks.check_mc(out_dir, EffNumInputs(cfg.cloud, cfg.beam),
                                       cfg.mc_realizations, cfg.tolerances)
            return problems + self._same_as_before(op, out_dir, "mc_stats.csv"), False
        return self._compare_refs(op, out_dir), False

    def _same_as_before(self, op, out_dir: str, name: str) -> list:
        """Monte Carlo outputs must repeat bit for bit for a fixed seed."""
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            return [f"{op.label}: {name} missing"]
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if self.digests.setdefault(op.label, digest) != digest:
            return [f"{op.label}: {name} differs between repeats with the same seed"]
        return []

    def _compare_refs(self, op, out_dir: str) -> list:
        prefix = f"{op.label}|"
        files = sorted({key.split("|")[1] for key in self.refs if key.startswith(prefix)})
        if not files:
            return [f"{op.label}: no reference recorded"]
        problems = []
        for name in files:
            header = [str(h) for h in self.refs[f"{prefix}{name}|"]]
            columns = {c: self.refs[f"{prefix}{name}|{c}"] for c in header}
            problems += checks.compare_csv(os.path.join(out_dir, name), header, columns)
        return problems

    def run_pass(self) -> dict:
        """All calls of the workload once: label -> Call."""
        results = {}
        for op in self.workload.ops:
            out_dir = os.path.join(self.work_dir, "out", op.label)
            code, seconds, stderr = self.call(op, out_dir)
            problems, known = self.check(op, code, stderr, out_dir)
            results[op.label] = Call(seconds, problems, known)
            shutil.rmtree(out_dir, ignore_errors=True)
        return results


def repeat(budget: float, step) -> list:
    """Call ``step`` until about ``budget`` seconds are used (at least once):
    another call starts only if one more of the last call's length fits."""
    results = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - begun
        if time.perf_counter() - start + took > budget:
            return results


def pass_wall(one_pass: dict) -> float:
    return sum(call.seconds for call in one_pass.values())



def summarize(passes: list):
    """(attempted, failed, correct, problems) over all calls of all passes."""
    attempted = failed = 0
    problems = []
    for one_pass in passes:
        for call in one_pass.values():
            attempted += 1
            failed += bool(call.problems) or call.known_limit
            problems += call.problems
    return attempted, failed, not problems, problems


def op_medians(workload, passes: list) -> dict:
    return {
        metric: statistics.median(p[label].seconds for p in passes)
        for label, metric in workload.timed_ops.items()
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_refs(name: str):
    import numpy as np

    path = ref_path(name)
    if not os.path.isfile(path):
        return None
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def show(name: str, value, unit: str) -> None:
    print(f"  {name:42s} {value!r:>24} {unit}")


def traced_run(runner, workload, seconds: int, seed: int, desk_config: str, trace_path: str):
    """A warm-up pass, then untraced and traced passes in pairs; per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    missing = []

    def traced_pass():
        missing[:] = tracer.install()
        try:
            return runner.run_pass()
        finally:
            tracer.uninstall()

    traced_first = itertools.cycle((False, True))

    def pair():
        # which side goes first alternates, so drift hits both alike
        if next(traced_first):
            traced = traced_pass()
            return runner.run_pass(), traced
        return runner.run_pass(), traced_pass()

    # the first pass pays one-off costs (heap growth, first calls); keep it
    # out of the traced/untraced comparison
    warm_up = runner.run_pass()
    pairs = repeat(seconds, pair)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    n = len(traced)
    metrics = tracing.layer_metrics(tracer.spans, n)
    metrics["mc_oracle.useful_atom_ratio"] = probes.useful_atom_ratio(tracer.kept_args,
                                                                      USEFUL_CUT)
    metrics.update(probes.thread_speedup(desk_config, seed, THREAD_REPEATS))
    metrics.update(probes.import_times(SRC, IMPORT_REPEATS))
    metrics["trace.overhead_frac"] = (
        statistics.median(pass_wall(p) for p in traced)
        / statistics.median(pass_wall(p) for p in untraced) - 1.0
    )
    # per-call times of the untraced passes; calls of other workloads read 0
    for other in workloads.WORKLOADS.values():
        for metric in other.timed_ops.values():
            metrics[f"op.{metric}"] = 0.0
    for metric, value in op_medians(workload, [warm_up] + untraced).items():
        metrics[f"op.{metric}"] = value
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed, "passes": n, "missing": missing,
                   "fields": tracing.SPAN_FIELDS, "spans": tracer.spans}, handle)
    return [warm_up] + untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coldcloud", "__init__.py")):
        print(f"error: no coldcloud sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    refs = load_refs(workload.name)
    if refs is None and workload.name != "mc":
        print(f"error: no reference outputs at {ref_path(workload.name)}", file=sys.stderr)
        return 2

    bench_dir = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(bench_dir, f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        config_paths = workloads.write_configs(workload, os.path.join(work_dir, "configs"))
        setup = probes.setup_times(SRC, list(config_paths.values()), SETUP_REPEATS)

        import coldcloud

        if os.path.dirname(os.path.dirname(os.path.abspath(coldcloud.__file__))) != SRC:
            print(f"error: coldcloud imported from {coldcloud.__file__}", file=sys.stderr)
            return 2
        runner = Runner(workload, config_paths, work_dir, args.seed, refs)
        env = probes.environment()
        if args.trace:
            desk = workloads.write_configs(workloads.WORKLOADS["mc"], os.path.join(work_dir, "probe"))
            trace_path = os.path.join(bench_dir, f"trace-{workload.name}-{args.seed}.json")
            passes, metrics = traced_run(runner, workload, args.seconds, args.seed,
                                         desk["desk"], trace_path)
            units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        else:
            passes = repeat(float(args.seconds), runner.run_pass)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(pass_wall(p) for p in passes),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
        attempted, failed, correct, problems = summarize(passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"env {json.dumps(env, sort_keys=True)}")
    kind = f"1 warm-up + {len(passes) // 2} untraced + {len(passes) // 2} traced" if args.trace else len(passes)
    print(f"workload {workload.name}: seed {args.seed}, {kind} passes")
    print(f"  pass wall times: {[round(pass_wall(p), 3) for p in passes]}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}")
    print("  known-limit calls failed as recorded: "
          f"{sum(call.known_limit for p in passes for call in p.values())}; "
          f"validate checks beyond mc_sigma: {runner.beyond_mc_sigma}")
    extra = {} if args.trace else op_medians(workload, passes)
    for name, value in {**metrics, **extra}.items():
        show(name, value, units.get(name, "s"))
    show("fail_frac", failed / attempted, "1")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def _declared(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[kind]


if __name__ == "__main__":
    sys.exit(main())
