"""Reference outputs and the output check.

The reference for every pool input is the program's output text, recorded
by ``make_reference.py``.  An op's output is correct when it parses to the
same structure as its reference with

* exact equality for strings, integers, booleans and null: integer parts,
  inertia, multiplicities, partitions, argmax/argmin, ``violated_claims``,
  exact residual coefficients;
* floats equal within ``REL_TOL`` relative or ``ABS_TOL`` absolute, because
  a later correctly-rounded output may change the last printed digits;
* keys the reference does not have ignored, so added output fields such as
  a certificate block do not fail the check.

Byte identity with the reference is tracked separately: a mismatch is
reported, never counted as a failure.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-9

# Oracle deviations are rounding noise of the dense eigensolver; the oracle
# itself checks them against its thresholds (the `passed` field).
NOISE_KEYS = frozenset({"max_eig_deviation", "energy_deviation"})

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json.gz")


def load_reference(workload: str) -> dict[str, str]:
    """Output text by op key."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def parse_output(text: str):
    """JSON for JSON outputs, else a list of CSV rows."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    return list(csv.reader(text.splitlines()))


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(ref, got, path: str = "$") -> list[str]:
    """Differences between a reference and an output structure."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key in NOISE_KEYS:
                continue
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(compare(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(compare(r, g, f"{path}[{i}]"))
        return out
    if isinstance(ref, str) and isinstance(got, str):
        # CSV cells are strings; numeric cells that are not integers are floats
        r, g = _as_float(ref), _as_float(got)
        if r is not None and g is not None and not ref.lstrip("-").isdigit():
            return _compare_float(r, g, path)
        return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return _compare_float(ref, float(got), path)
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def _compare_float(ref: float, got: float, path: str) -> list[str]:
    if math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        return []
    return [f"{path}: {got!r} differs from {ref!r}"]


def claim_failures(argv, rc: int, parsed) -> list[str]:
    """Failures the output reports about itself, independent of the reference."""
    out = [] if rc == 0 else [f"exit code {rc}"]
    if isinstance(parsed, dict):
        if parsed.get("violated_claims"):
            out.append(f"violated claims: {parsed['violated_claims']}")
        if argv[0] == "chain" and parsed.get("ok") is not True:
            out.append("chain not monotone")
        if argv[0] == "verify":
            if parsed.get("passed") is not True:
                out.append("oracle check failed")
            if parsed.get("bfs_equal") is not True:
                out.append("BFS distances differ from the closed form")
    return out
