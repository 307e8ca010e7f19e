import dataclasses
import json
import time
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdist import oracle
from sqdist._kernels import round_robin
from sqdist.errors import InfeasibleParameters, NoConvergence
from sqdist.matrices import MAX_ORDER, DenseSymMatrix, sqdist_from_graph, sqdist_from_partition
from sqdist.oracle import (
    symmetric_eigenvalues,
    sweep,
    verify_partition,
)
from sqdist.partitions import Partition, enumerate_partitions


def _sym(data) -> DenseSymMatrix:
    arr = np.asarray(data, dtype=np.float64)
    return DenseSymMatrix(order=arr.shape[0], data=arr)


class TestOversized:
    def test_huge_partition_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(InfeasibleParameters, match="order"):
            verify_partition(Partition((10**20, 1)))
        assert time.perf_counter() - start < 1.0

    def test_sweep_above_max_order_is_refused_before_enumerating(self):
        start = time.perf_counter()
        with pytest.raises(InfeasibleParameters, match="nmax"):
            sweep(MAX_ORDER + 1)
        assert time.perf_counter() - start < 1.0

    def test_sweep_above_the_cap_is_refused_before_enumerating(self):
        start = time.perf_counter()
        with pytest.raises(InfeasibleParameters, match="nmax = 31 > 30"):
            sweep(31)
        assert time.perf_counter() - start < 1.0


class TestRoundRobin:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_each_pair_once_per_sweep(self, n):
        rounds = round_robin(n)
        assert len(rounds) == (n if n % 2 else n - 1)
        seen = []
        for p, q in rounds:
            assert np.all(p < q)
            indices = np.concatenate((p, q)).tolist()
            assert len(indices) == len(set(indices))  # disjoint rotations
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]


def _random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2


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
        with pytest.raises(NoConvergence, match="after 1 sweeps"):
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
        with pytest.raises(InfeasibleParameters):
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
