import csv
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

from conftest import elementary_neighbors
from sqdist import extremal
from sqdist.charpoly import IntPolynomial
from sqdist.errors import Identical, InfeasibleParameters, NotMajorized
from sqdist.extremal import (
    MAX_SCAN_MEMBERS,
    ChainReport,
    _compare_roots,
    compare_energy,
    scan_energy,
    scan_energy_h,
    scan_radius,
    verify_chain_monotone,
)
from sqdist.partitions import Partition
from sqdist.spectrum import _isolate, energy, spectral_radius_root


def compare_radius(p, q):
    return _compare_roots(spectral_radius_root(p), spectral_radius_root(q))


class TestComparators:
    def test_energy_order(self):
        e_top = energy(Partition((4, 1, 1)))
        e_mid = energy(Partition((3, 2, 1)))
        e_bot = energy(Partition((2, 2, 2)))
        assert compare_energy(e_top, e_mid) == 1
        assert compare_energy(e_mid, e_bot) == 1
        assert compare_energy(e_bot, e_top) == -1

    def test_energy_tie(self):
        # both integer at 8(n-t) = 40
        a = energy(Partition((4, 2, 2)))
        b = energy(Partition((3, 3, 2)))
        assert a.value == b.value == 40.0
        assert compare_energy(a, b) == 0

    def test_radius_order(self):
        assert compare_radius(Partition((4, 1, 1)), Partition((3, 2, 1))) == 1
        assert compare_radius(Partition((2, 2, 2)), Partition((3, 2, 1))) == -1
        assert compare_radius(Partition((3, 2)), Partition((3, 2))) == 0

    @pytest.mark.parametrize(
        "p, q, gcd_degree",
        [
            ((8, 4, 4), (7, 7, 2), 1),  # shared root 32
            ((7, 3, 3, 3, 2, 2, 2), (6, 6, 2, 2, 2, 2, 2), 1),  # shared root 32
            ((6, 6, 3, 3, 3, 3), (6, 5, 5, 4, 2, 2), 2),  # x^2 - 43x + 298
        ],
    )
    def test_radius_ties_are_proven(self, p, q, gcd_degree):
        p, q = Partition(p), Partition(q)
        a, b = spectral_radius_root(p), spectral_radius_root(q)
        assert a.poly.gcd(b.poly).degree == gcd_degree
        assert compare_radius(p, q) == compare_radius(q, p) == 0

    def test_close_roots_are_separated(self):
        # root 0 is an exact hit of bisection, the point [0, 0]; the bracket
        # of root 2^-70 starts at 0; gcd(x, 2^70 x - 1) = 1, so the brackets
        # must separate
        zero = _isolate(IntPolynomial((0, 1)), Fraction(-1), Fraction(1))
        tiny = _isolate(IntPolynomial((-1, 2**70)), Fraction(-1), Fraction(1))
        assert zero.lo_exact == zero.hi_exact == tiny.lo_exact == 0 < tiny.hi_exact
        assert _compare_roots(zero, tiny) == -1
        assert _compare_roots(tiny, zero) == 1

    def test_tie_with_a_collapsed_bracket(self):
        # [3, 3] against a bracket of 3 from another polynomial: the gcd
        # x - 3 vanishes at the overlap end
        point = _isolate(IntPolynomial((-3, 1)), Fraction(2), Fraction(4)).refined()
        other = _isolate(IntPolynomial((30, -13, 1)), Fraction(2), Fraction(5))
        assert point.lo_exact == point.hi_exact == 3
        assert _compare_roots(point, other) == _compare_roots(other, point) == 0
        assert _compare_roots(point, point) == 0

    def test_tie_proofs_finish_before_a_deadline(self):
        # _compare_roots refines without a cap, so a fault in the tie proof
        # would hang; in a child process it fails this test instead
        child = textwrap.dedent(
            """
            from fractions import Fraction
            from sqdist.charpoly import IntPolynomial
            from sqdist.extremal import _compare_roots
            from sqdist.partitions import Partition
            from sqdist.spectrum import _isolate, spectral_radius_root

            ties = [
                ((8, 4, 4), (7, 7, 2)),
                ((7, 3, 3, 3, 2, 2, 2), (6, 6, 2, 2, 2, 2, 2)),
                ((6, 6, 3, 3, 3, 3), (6, 5, 5, 4, 2, 2)),
            ]
            for p, q in ties:
                a, b = (spectral_radius_root(Partition(x)) for x in (p, q))
                print(_compare_roots(a, b), flush=True)
            point = _isolate(IntPolynomial((-3, 1)), Fraction(2), Fraction(4)).refined()
            other = _isolate(IntPolynomial((30, -13, 1)), Fraction(2), Fraction(5))
            print(_compare_roots(point, other), flush=True)
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        try:
            done = subprocess.run(
                [sys.executable, "-c", child],
                capture_output=True, text=True, env=env, timeout=60,
            )
        except subprocess.TimeoutExpired as exc:
            pytest.fail(f"tie proofs still running after 60 s; printed {exc.stdout!r}")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0", "0", "0"]

    def test_energy_tie_on_theta(self):
        p = Partition((2, 2, 1))
        assert energy(p).theta_root is not None
        assert compare_energy(energy(p), energy(p)) == 0


class TestScanEnergy:
    def test_6_3(self):
        report = scan_energy(6, 3)
        assert report.violated_claims == []
        assert report.argmax == [Partition((4, 1, 1))]
        assert report.argmin == [Partition((2, 2, 2))]
        assert report.min_unique  # n = 6 <= 2t+1 = 7

    def test_8_3_tied_minimum(self):
        report = scan_energy(8, 3)
        assert report.violated_claims == []
        assert not report.min_unique  # n = 8 > 2t+1 = 7
        assert {p.parts for p in report.argmin} == {(4, 2, 2), (3, 3, 2)}

    def test_json_and_csv(self):
        report = scan_energy(5, 2)
        js = report.to_json()
        assert js["argmax"] == ["4,1"]
        assert js["argmin"] == ["3,2"]
        csv = report.to_csv().splitlines()
        assert csv[0] == "partition,energy,radius,inertia"
        assert len(csv) == 1 + len(js["values"])


class TestScanEnergyH:
    def test_17_10_6_flat(self):
        report = scan_energy_h(17, 10, 6)
        assert report.violated_claims == []
        assert {v for _, v in report.values} == {66.0}
        assert all(s == "positive" for s in report.signs.values())

    def test_31_15_7(self):
        report = scan_energy_h(31, 15, 7)
        assert report.violated_claims == []
        assert report.argmax == [Partition((10,) + (2,) * 7 + (1,) * 7)]
        assert not report.min_unique
        assert Partition((3,) * 8 + (1,) * 7) in report.argmin

    def test_json_has_signs(self):
        js = scan_energy_h(9, 4, 1).to_json()
        assert js["h"] == 1
        assert set(js["lambda_s1_signs"].values()) <= {
            "positive",
            "zero",
            "negative",
        }


class TestScanRadius:
    def test_6_3(self):
        report = scan_radius(6, 3)
        assert report.violated_claims == []
        assert report.argmax == [Partition((4, 1, 1))]
        assert report.argmin == [Partition((2, 2, 2))]
        assert report.max_unique and report.min_unique

    def test_7_2(self):
        report = scan_radius(7, 2)
        assert report.violated_claims == []
        values = dict(report.values)
        # strictly decreasing toward the balanced partition
        assert (
            values[Partition((6, 1))]
            > values[Partition((5, 2))]
            > values[Partition((4, 3))]
        )


class TestChain:
    def test_4_1_1_down_to_2_2_2(self):
        report = verify_chain_monotone(Partition((4, 1, 1)), Partition((2, 2, 2)))
        assert isinstance(report, ChainReport)
        assert report.ok
        assert [s.partition.parts for s in report.steps] == [
            (3, 2, 1),
            (2, 2, 2),
        ]
        assert all(s.radius_strictly_decreased for s in report.steps)
        assert report.steps[-1].energy_value == 24.0

    def test_paper_chain_energy_flat_tail(self):
        y = Partition((10,) + (2,) * 7 + (1,) * 7)
        x = Partition((3,) * 8 + (1,) * 7)
        report = verify_chain_monotone(y, x)
        assert report.ok
        assert report.steps[-1].energy_value == 140.0

    def test_not_majorized(self):
        with pytest.raises(NotMajorized):
            verify_chain_monotone(Partition((2, 2, 2)), Partition((3, 2, 1)))

    def test_equal_endpoints_are_refused_before_evaluating(self, monkeypatch):
        calls = _count_calls(monkeypatch, "spectral_radius_root")
        with pytest.raises(Identical, match="equal after sorting"):
            verify_chain_monotone(Partition((2, 2)), Partition((2, 2)))
        assert not calls

    def test_json(self):
        js = verify_chain_monotone(Partition((3, 1)), Partition((2, 2))).to_json()
        assert js["ok"] is True
        assert js["start"] == "3,1"
        assert len(js["steps"]) == 1


def _count_calls(monkeypatch, name):
    """Replace extremal's binding of name with one that counts its partitions."""
    calls = Counter()
    original = getattr(extremal, name)

    def counted(p, *args):
        calls[p] += 1
        return original(p, *args)

    monkeypatch.setattr(extremal, name, counted)
    return calls


class TestSingleEvaluation:
    def test_chain_evaluates_each_partition_once(self, monkeypatch):
        energies = _count_calls(monkeypatch, "energy")
        radii = _count_calls(monkeypatch, "spectral_radius_root")
        y = Partition((10,) + (2,) * 7 + (1,) * 7)
        report = verify_chain_monotone(y, Partition((3,) * 8 + (1,) * 7))
        chain = Counter([y] + [s.partition for s in report.steps])
        assert len(chain) > 2
        assert energies == radii == chain

    @pytest.mark.parametrize(
        "scan, name, args",
        [
            (scan_energy, "energy", (8, 3)),
            (scan_energy_h, "energy", (9, 4, 1)),
            (scan_radius, "spectral_radius_root", (8, 3)),
        ],
    )
    def test_scan_evaluates_each_member_once(self, monkeypatch, scan, name, args):
        calls = _count_calls(monkeypatch, name)
        report = scan(*args)
        assert calls == Counter(p for p, _ in report.values)

    @pytest.mark.parametrize(
        "scan, scanned, other, args",
        [
            (scan_energy, "energy", "spectral_radius_root", (8, 3)),
            (scan_energy_h, "energy", "spectral_radius_root", (9, 4, 1)),
            (scan_radius, "spectral_radius_root", "energy", (8, 3)),
        ],
    )
    def test_csv_reuses_the_scanned_quantity(self, monkeypatch, scan, scanned, other, args):
        report = scan(*args)
        scanned_calls = _count_calls(monkeypatch, scanned)
        other_calls = _count_calls(monkeypatch, other)
        rows = list(csv.DictReader(report.to_csv().splitlines()))
        assert not scanned_calls
        assert other_calls == Counter(p for p, _ in report.values)
        column = report.quantity
        assert [row[column] for row in rows] == [f"{v:.12g}" for _, v in report.values]

    def test_scan_h_without_singletons_evaluates_nothing(self, monkeypatch):
        calls = _count_calls(monkeypatch, "energy")
        with pytest.raises(InfeasibleParameters, match="h >= 1"):
            scan_energy_h(6, 3, 0)
        assert not calls

    def test_oversized_class_is_refused_before_evaluating(self, monkeypatch):
        calls = _count_calls(monkeypatch, "energy")
        with pytest.raises(InfeasibleParameters, match=f"more than {MAX_SCAN_MEMBERS}"):
            scan_energy_h(400, 15, 7)
        assert not calls


class TestElementaryNeighbors:
    def test_simple(self):
        assert elementary_neighbors(Partition((4, 1, 1))) == [
            Partition((3, 2, 1))
        ]
        assert elementary_neighbors(Partition((3, 3))) == []
        assert elementary_neighbors(Partition((4, 2))) == [Partition((3, 3))]

    def test_neighbors_are_strictly_majorized(self):
        from sqdist.partitions import Verdict, majorizes

        p = Partition((5, 3, 2, 1))
        for q in elementary_neighbors(p):
            assert majorizes(p, q) is Verdict.STRICT
