import dataclasses
import json
import math
import time
import warnings
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdist import oracle
from sqdist._kernels import jacobi_eigensystem, schedule
from sqdist.errors import SqDistError
from sqdist.matrices import (
    MAX_ORDER,
    DenseSymMatrix,
    multipartite_graph,
    sqdist_from_graph,
    sqdist_from_partition,
)
from sqdist.oracle import (
    symmetric_eigenvalues,
    sweep,
    verify_partition,
)
from sqdist.partitions import Partition, enumerate_partitions


def _sym(data) -> DenseSymMatrix:
    return DenseSymMatrix(np.asarray(data, dtype=np.float64))


class TestOversized:
    def test_huge_partition_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(SqDistError, match="order"):
            verify_partition(Partition((10**20, 1)))
        assert time.perf_counter() - start < 1.0

    def test_sweep_above_max_order_is_refused_before_enumerating(self):
        start = time.perf_counter()
        with pytest.raises(SqDistError, match="nmax"):
            sweep(MAX_ORDER + 1)
        assert time.perf_counter() - start < 1.0

    def test_sweep_above_the_cap_is_refused_before_enumerating(self):
        start = time.perf_counter()
        with pytest.raises(SqDistError, match="nmax = 31 > 30"):
            sweep(31)
        assert time.perf_counter() - start < 1.0


class TestRoundRobin:
    """schedule(n): one sweep of Brent-Luk round-robin rounds."""

    @pytest.mark.parametrize("n", range(1, 14))
    def test_each_pair_once_per_sweep(self, n):
        sched = schedule(n)
        assert len(sched) == (n if n % 2 else n - 1)
        for pairs in sched:
            assert np.all(pairs[:, 0] < pairs[:, 1])
            indices = pairs.ravel().tolist()
            assert len(indices) == len(set(indices))  # disjoint rotations
        seen = sorted(map(tuple, sched.reshape(-1, 2).tolist()))
        assert seen == [(i, j) for i in range(n) for j in range(i + 1, n)]

    @pytest.mark.parametrize("n", range(1, 14))
    def test_cached_schedule_is_round_robin_and_read_only(self, n):
        sched = schedule(n)
        assert sched is schedule(n)
        assert sched.shape == (n if n % 2 else n - 1, n // 2, 2)
        assert sched[0].tolist() == [[p, p + 1] for p in range(0, n - 1, 2)]
        assert not sched.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sched[..., 0] = 0

    def test_rotation_order(self):
        # the Jacobi results depend on this order, so it is pinned
        assert schedule(5).tolist() == [
            [[0, 1], [2, 3]], [[0, 3], [2, 4]], [[3, 4], [1, 2]],
            [[0, 4], [1, 3]], [[0, 2], [1, 4]],
        ]


def _random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2


class TestJacobiKernel:
    """jacobi_eigensystem itself: rounds of batched 2 x 2 rotations."""

    @pytest.mark.parametrize("n", [*range(1, 14), 41, 119])
    def test_matches_eigvalsh(self, n):
        sym = _random_symmetric(np.random.default_rng(n), n)
        norm = np.linalg.norm(sym)
        vals, _, off = jacobi_eigensystem(sym, 1e-12 * norm, 100)
        assert off <= 1e-12 * norm
        ref = np.linalg.eigvalsh(sym)
        assert np.max(np.abs(np.sort(vals) - ref)) <= 1e-12 * norm

    def test_tiny_entries_raise_no_warning(self):
        # delta / (2 apq) overflows when apq is near 1e-300; the tangent
        # formula never forms that quotient.  A tol_abs below 8 * 1e-300 keeps
        # the tiny pivots above tol_abs / n, so they are rotated, not skipped.
        sym = _random_symmetric(np.random.default_rng(5), 8)
        p, q = schedule(8)[0].T
        sym[p, q] = sym[q, p] = 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, sweeps, off = jacobi_eigensystem(sym, 1e-300, 3)
        assert sweeps == 3
        assert np.all(np.isfinite(vals)) and math.isfinite(off)

    def test_pivots_below_threshold_are_skipped(self):
        # off-diagonal noise just under tol_abs / n and one large pair: the
        # sweep rotates the large pair and whatever it stirs above the
        # threshold, and the noise left behind is already below tol_abs
        n = 10
        rng = np.random.default_rng(2)
        sym = np.diag(np.arange(1.0, n + 1))
        sym[0, 1] = sym[1, 0] = 3.0
        tol_abs = 1e-12 * np.linalg.norm(sym)
        noise = np.triu(rng.choice([-0.99, 0.99], size=(n, n)) * tol_abs / n, 1)
        noise[0, 1] = 0.0
        sym += noise + noise.T
        vals, sweeps, off = jacobi_eigensystem(sym, tol_abs, 100)
        assert sweeps <= 1 and off <= tol_abs
        ref = np.linalg.eigvalsh(sym)
        assert np.max(np.abs(np.sort(vals) - ref)) <= 1e-12 * np.linalg.norm(sym)

    def test_pivots_between_threshold_and_tol_are_rotated(self):
        # every entry is below tol_abs but above tol_abs / n, and together
        # they put the off-norm above tol_abs: a larger threshold would skip
        # them all and stall until max_sweeps
        n = 10
        sym = np.diag(np.arange(1.0, n + 1))
        tol_abs = 1e-12 * np.linalg.norm(sym)
        sym += 0.5 * tol_abs * (np.ones((n, n)) - np.eye(n))
        _, sweeps, off = jacobi_eigensystem(sym, tol_abs, 5)
        assert 1 <= sweeps < 5 and off <= tol_abs

    def test_order_120_delta_converges_in_four_sweeps(self):
        # rotations of rounding residue below tol_abs / n are skipped, and
        # annihilated entries are set to exactly 0 so no residue is chased
        delta = sqdist_from_graph(multipartite_graph(Partition((40, 30, 20, 15, 10, 5))))
        assert delta.data.shape == (120, 120)
        assert symmetric_eigenvalues(delta).iterations <= 4


class TestJacobiEigenvalues:
    def test_k2(self):
        res = symmetric_eigenvalues(_sym([[0, 1], [1, 0]]))
        assert res.eigenvalues == pytest.approx((1.0, -1.0), abs=1e-10)

    def test_delta_2_2(self):
        res = symmetric_eigenvalues(sqdist_from_partition(Partition((2, 2))))
        assert res.eigenvalues == pytest.approx((6, 2, -4, -4), abs=1e-9)

    def test_k5(self):
        j5 = np.ones((5, 5)) - np.eye(5)
        res = symmetric_eigenvalues(_sym(j5))
        assert res.eigenvalues == pytest.approx((4, -1, -1, -1, -1), abs=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(9, 9))
        sym = (m + m.T) / 2
        res = symmetric_eigenvalues(_sym(sym))
        assert sum(res.eigenvalues) == pytest.approx(np.trace(sym), abs=1e-9)
        assert res.off_norm <= 1e-12 * np.linalg.norm(sym)

    def test_matches_lapack(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(15, 15))
        sym = (m + m.T) / 2
        res = symmetric_eigenvalues(_sym(sym))
        ref = np.sort(np.linalg.eigvalsh(sym))[::-1]
        assert np.allclose(res.eigenvalues, ref, atol=1e-9)

    def test_diagonal_is_exact_in_zero_sweeps(self):
        diag = [3.5, -2.0, 0.0, 7.25, 1e-3]
        res = symmetric_eigenvalues(_sym(np.diag(diag)))
        assert res.iterations == 0 and res.off_norm == 0.0
        assert res.eigenvalues == tuple(sorted(diag, reverse=True))

    def test_block_diagonal_keeps_exact_zeros(self):
        # interleaved blocks: the 2x2 block {1, 4} with eigenvalues 3 and 1,
        # and 1x1 blocks whose pairs all have a_pq == 0 and so stay exact
        data = np.diag([5.0, 2.0, -1.5, 0.25, 2.0, 9.0])
        data[1, 4] = data[4, 1] = 1.0
        res = symmetric_eigenvalues(_sym(data))
        assert res.iterations >= 1
        one_by_one = [9.0, 5.0, 0.25, -1.5]
        assert [v for v in res.eigenvalues if v in one_by_one] == one_by_one
        rest = [v for v in res.eigenvalues if v not in one_by_one]
        assert rest == pytest.approx([3.0, 1.0], abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_matches_lapack_on_random_matrices(self, n, seed):
        sym = _random_symmetric(np.random.default_rng(seed), n)
        res = symmetric_eigenvalues(_sym(sym))
        ref = np.sort(np.linalg.eigvalsh(sym))[::-1]
        assert np.allclose(res.eigenvalues, ref, rtol=0, atol=1e-9)

    def test_sweep_cap_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
        with pytest.raises(SqDistError, match="after 1 sweeps"):
            symmetric_eigenvalues(_sym(_random_symmetric(np.random.default_rng(7), 30)))


class TestVerifyPartition:
    def test_zero_eigenvalue_case(self):
        rec = verify_partition(Partition((2, 1, 1)))
        assert rec.passed
        assert rec.inertia_agrees and rec.det_agrees
        assert rec.max_eig_deviation <= 1e-9

    def test_3_2_2(self):
        assert verify_partition(Partition((3, 2, 2))).passed

    def test_k2(self):
        assert verify_partition(Partition((1, 1))).passed

    def test_delta_comes_from_bfs_on_the_explicit_graph(self, monkeypatch):
        spy = Mock(wraps=sqdist_from_graph)
        monkeypatch.setattr(oracle, "sqdist_from_graph", spy)
        assert verify_partition(Partition((3, 2, 1, 1))).passed
        assert [call.args[0].parts for call in spy.call_args_list] == [(3, 2, 1, 1)]

    def test_json_fields(self):
        js = verify_partition(Partition((2, 2))).to_json()
        assert js["partition"] == "2,2"
        assert js["passed"] is True
        assert set(js) == {
            "partition",
            "max_eig_deviation",
            "inertia_agrees",
            "energy_deviation",
            "det_agrees",
            "passed",
        }


class TestSweep:
    def test_n8_clean(self):
        summary = sweep(8)
        assert summary.failure_count == 0
        assert summary.checked == sum(
            1
            for n in range(2, 9)
            for t in range(2, n + 1)
            for _ in enumerate_partitions(n, t)
        )
        assert summary.worst_eig_deviation <= 1e-9

    def test_n12_reports_deviation(self):
        summary = sweep(12)
        assert summary.failure_count == 0
        assert 0 < summary.worst_eig_deviation <= 1e-9
        js = summary.to_json()
        assert js["failures"] == 0 and js["n_max"] == 12

    def test_guard(self):
        with pytest.raises(SqDistError, match="sweep needs n_max >= 2"):
            sweep(1)

    def test_counts_derive_from_records(self):
        ok = verify_partition(Partition((2, 1)))
        bad = dataclasses.replace(ok, max_eig_deviation=0.5, passed=False)
        summary = oracle.SweepSummary(3, [ok, bad])
        assert (summary.checked, summary.failure_count, summary.failures) == (2, 1, [bad])
        assert summary.worst_eig_deviation == 0.5
        assert summary.worst_energy_deviation == ok.energy_deviation
        lines = summary.to_json_lines().splitlines()
        assert [json.loads(line) for line in lines] == [
            ok.to_json(), bad.to_json(), summary.to_json()
        ]
