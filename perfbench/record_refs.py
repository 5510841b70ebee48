"""Record the reference outputs that `curves` and `spectra` are checked against.

Run from the root of a checkout, on the commit whose outputs are the reference:

    python3 perfbench/record_refs.py

Writes ``perfbench/ref/<workload>.npz``: for every CSV of every call, its
header under ``"<call>|<file>|"`` and each column under ``"<call>|<file>|<column>"``.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import run
import checks
import workloads


def record(name: str, work_dir: str) -> str:
    workload = workloads.WORKLOADS[name]
    paths = workloads.write_configs(workload, os.path.join(work_dir, "configs"))
    runner = run.Runner(workload, paths, work_dir, seed=0)
    arrays = {}
    for op in workload.ops:
        if op.known_limit:
            continue
        out_dir = os.path.join(work_dir, "out", op.label)
        code, seconds, stderr = runner.call(op, out_dir)
        if code != 0:
            raise SystemExit(f"{op.label} exited {code}: {stderr}")
        for file in sorted(f for f in os.listdir(out_dir) if f.endswith(".csv")):
            header, data = checks.read_csv(os.path.join(out_dir, file))
            arrays[f"{op.label}|{file}|"] = np.array(header)
            for j, column in enumerate(header):
                arrays[f"{op.label}|{file}|{column}"] = data[:, j]
        print(f"{name}/{op.label}: {seconds:.2f} s", file=sys.stderr)
    os.makedirs(run.REF_DIR, exist_ok=True)
    path = run.ref_path(name)
    np.savez_compressed(path, **arrays)
    return path


def main() -> int:
    sys.path.insert(0, run.SRC)
    work_dir = os.path.join(run.ROOT, ".perfbench", "record")
    try:
        for name in ("curves", "spectra"):
            print(record(name, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
