"""Record the reference output of every pool input.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Writes perfbench/reference/<workload>.json.gz.  Run it only on a commit
whose outputs are trusted; every later run is checked against these files.
An input whose output reports a failure aborts the recording.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from time import perf_counter

import checks
import ops
from worker import Runner, import_sqdist


def record(workload: str) -> None:
    _sqdist, cli, matrices, oracle = import_sqdist()
    runner = Runner(cli, matrices, oracle, reference={})
    outputs: dict[str, str] = {}
    t0 = perf_counter()
    for slot, variants in sorted(ops.pool(workload).items()):
        for op in variants:
            if op.key in outputs:
                continue
            rc, text = runner.call(op)
            problems = checks.claim_failures(op.argv, rc, checks.parse_output(text))
            if problems:
                raise SystemExit(f"{op.key}: {problems}")
            outputs[op.key] = text
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    # mtime=0 keeps the file byte-identical when the outputs are
    with open(checks.reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps({"commit": commit, "outputs": outputs},
                                sort_keys=True).encode())
    print(f"{workload}: {len(outputs)} outputs in {perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    for name in sys.argv[1:] or ops.WORKLOADS:
        record(name)
