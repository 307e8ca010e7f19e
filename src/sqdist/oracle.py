"""Independent ground truth: dense Jacobi eigensolver and verification sweeps.

This module shares no closed-form code with charpoly/spectrum.  Δ is built
by its definition, squared BFS distances on the explicit multipartite graph,
and its eigenvalues come from plain cyclic Jacobi rotations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import jacobi_eigensystem
from .charpoly import det_delta_exact
from .errors import InfeasibleParameters, NoConvergence
from .matrices import DenseSymMatrix, multipartite_graph, sqdist_from_graph
from .partitions import Partition, enumerate_partitions
from .spectrum import energy, full_spectrum, inertia

JACOBI_TOL = 1e-12  # off-norm target relative to ||M||
MAX_SWEEPS = 100
EIG_TOL = 1e-9  # largest closed-form vs Jacobi eigenvalue deviation that passes
ZERO_THRESHOLD = 1e-7  # Jacobi eigenvalues within this of 0 count as zero
# Largest n_max a sweep accepts: its 28 598 partitions take minutes of
# Jacobi, and the count reaches 1 295 920 at n_max = 50.
MAX_SWEEP_NMAX = 30


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: tuple[float, ...]  # descending
    iterations: int
    off_norm: float


def symmetric_eigenvalues(m: DenseSymMatrix) -> EigenResult:
    """All eigenvalues via cyclic Jacobi, off-norm driven below JACOBI_TOL * ||M||."""
    norm = float(np.linalg.norm(m.data))
    tol_abs = JACOBI_TOL * norm if norm > 0 else JACOBI_TOL
    vals, sweeps, off = jacobi_eigensystem(m.data, tol_abs, MAX_SWEEPS)
    if off > tol_abs:
        raise NoConvergence(
            f"off-diagonal norm {off} above {tol_abs} after {sweeps} sweeps"
        )
    return EigenResult(
        eigenvalues=tuple(sorted(vals.tolist(), reverse=True)),
        iterations=sweeps,
        off_norm=off,
    )


@dataclass
class VerificationRecord:
    partition: Partition
    max_eig_deviation: float
    inertia_agrees: bool
    energy_deviation: float
    det_agrees: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "partition": str(self.partition),
            "max_eig_deviation": self.max_eig_deviation,
            "inertia_agrees": self.inertia_agrees,
            "energy_deviation": self.energy_deviation,
            "det_agrees": self.det_agrees,
            "passed": self.passed,
        }


def verify_partition(p: Partition) -> VerificationRecord:
    """Cross-check every closed-form invariant against the Jacobi oracle."""
    delta = sqdist_from_graph(multipartite_graph(p))
    oracle = symmetric_eigenvalues(delta)
    closed = full_spectrum(p).eigenvalues()

    max_dev = max(abs(a - b) for a, b in zip(closed, oracle.eigenvalues))

    ine = inertia(p)
    n_plus = sum(1 for v in oracle.eigenvalues if v > ZERO_THRESHOLD)
    n_minus = sum(1 for v in oracle.eigenvalues if v < -ZERO_THRESHOLD)
    n_zero = p.n - n_plus - n_minus
    inertia_ok = (ine.n_plus, ine.n_zero, ine.n_minus) == (n_plus, n_zero, n_minus)

    en = energy(p)
    oracle_energy = sum(abs(v) for v in oracle.eigenvalues)
    energy_dev = abs(en.value - oracle_energy)

    det_exact = det_delta_exact(p)
    det_oracle = math.prod(oracle.eigenvalues)
    if det_exact == 0:
        # zero detected exactly; oracle product must be numerically tiny
        scale = math.prod(max(abs(v), 1.0) for v in oracle.eigenvalues)
        det_ok = abs(det_oracle) <= 1e-6 * scale
    else:
        det_ok = abs(det_oracle - det_exact) <= 1e-6 * abs(det_exact)

    passed = max_dev <= EIG_TOL and inertia_ok and energy_dev <= 1e-7 and det_ok
    return VerificationRecord(
        partition=p,
        max_eig_deviation=max_dev,
        inertia_agrees=inertia_ok,
        energy_deviation=energy_dev,
        det_agrees=det_ok,
        passed=passed,
    )


@dataclass(frozen=True)
class SweepSummary:
    """The records of a sweep; the counts and worst deviations derive from them."""

    n_max: int
    records: list[VerificationRecord]

    @property
    def checked(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> list[VerificationRecord]:
        return [r for r in self.records if not r.passed]

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    @property
    def worst_eig_deviation(self) -> float:
        return max((r.max_eig_deviation for r in self.records), default=0.0)

    @property
    def worst_energy_deviation(self) -> float:
        return max((r.energy_deviation for r in self.records), default=0.0)

    def to_json_lines(self) -> str:
        """One JSON line per record, then the summary line."""
        lines = [r.to_json() for r in self.records] + [self.to_json()]
        return "\n".join(map(json.dumps, lines))

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "checked": self.checked,
            "failures": self.failure_count,
            "worst_eig_deviation": self.worst_eig_deviation,
            "worst_energy_deviation": self.worst_energy_deviation,
        }


def sweep(n_max: int) -> SweepSummary:
    """verify_partition over every partition with 2 <= t <= n <= n_max.

    Raises InfeasibleParameters before enumerating when n_max is below 2 or
    above MAX_SWEEP_NMAX.
    """
    if n_max < 2:
        raise InfeasibleParameters("sweep needs n_max >= 2")
    if n_max > MAX_SWEEP_NMAX:
        raise InfeasibleParameters(
            f"nmax = {n_max} > {MAX_SWEEP_NMAX}: too many partitions to sweep"
        )
    targets = [
        p
        for n in range(2, n_max + 1)
        for t in range(2, n + 1)
        for p in enumerate_partitions(n, t)
    ]
    return SweepSummary(n_max, [verify_partition(p) for p in targets])
