"""Tests for the benchmark itself: inputs, reference check and trace arithmetic.

Run with:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
import sqdist  # noqa: E402
from sqdist import inertia, parse_partition  # noqa: E402


def _first_cycles(workload, seed, count=3):
    stream = ops.cycles(workload, seed)
    return [[op.key for op in next(stream)] for _ in range(count)]


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert _first_cycles(workload, 7) == _first_cycles(workload, 7)
    assert _first_cycles(workload, 7) != _first_cycles(workload, 8)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_cycle_has_one_op_per_slot(workload):
    slots = ops.pool(workload)
    cycle = next(ops.cycles(workload, 3))
    assert sorted(op.slot for op in cycle) == sorted(slots)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_partition_is_built_through_canonicalize(workload, monkeypatch):
    built = set()
    original = ops.canonicalize

    def recording(raw):
        p = original(raw)
        built.add(str(p))
        return p

    monkeypatch.setattr(ops, "canonicalize", recording)
    for variants in ops.pool(workload).values():
        for op in variants:
            if op.argv[0].startswith("scan-"):
                continue  # (n, t) scans take no partition
            strings = [a for a in op.argv[1:] if "," in a]
            assert strings, op.key
            for text in strings:
                assert text in built, op.key
                assert parse_partition(text) == original([int(x) for x in text.split(",")])
            if op.partition is not None:
                assert str(op.partition) in built


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_pool_input_has_a_reference(workload):
    reference = checks.load_reference(workload)
    keys = {op.key for variants in ops.pool(workload).values() for op in variants}
    assert keys == set(reference)


def test_knife_edge_family_has_one_zero_eigenvalue():
    knife = [
        op.argv[1]
        for slot, variants in ops.pool("query").items()
        if "/knife-" in slot
        for op in variants
    ]
    assert knife
    for text in knife:
        assert inertia(parse_partition(text)).n_zero == 1, text


def test_tie_cases_raise_unproven_ties():
    from sqdist import extremal

    for n, t in ops.TIE_CASES:
        tracer = spans.Tracer()
        tracer.install(sqdist)
        try:
            extremal.scan_radius(n, t)
        finally:
            tracer.uninstall()
        assert tracer.counts["extremal.unproven_ties"] > 0, (n, t)


def test_uninstall_restores_every_binding():
    from sqdist import charpoly, extremal, spectrum

    before = (spectrum.energy, extremal.energy, sqdist.energy,
              charpoly.IntPolynomial.__call__, spectrum.IsolatedRoot.refined)
    tracer = spans.Tracer()
    tracer.install(sqdist)
    assert extremal.energy is spectrum.energy is sqdist.energy is not before[0]
    tracer.uninstall()
    after = (spectrum.energy, extremal.energy, sqdist.energy,
             charpoly.IntPolynomial.__call__, spectrum.IsolatedRoot.refined)
    assert after == before


def _span(sid, parent, name, layer, t0, t1, extra=0):
    return (sid, parent, 1, name, layer, t0, t1, extra)


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span(0, -1, "cli.run", "cli", 0.0, 10.0),
        _span(1, 0, "extremal._compare_roots", "extremal", 1.0, 5.0),
        _span(2, 1, "spectrum.IsolatedRoot.refined", "spectrum", 2.0, 3.0),
        _span(3, 1, "spectrum.IsolatedRoot.refined", "spectrum", 3.5, 4.0),
        # overlapping children cover their union, and a child reaching
        # past its parent counts only inside the parent's interval
        _span(4, 0, "spectrum._isolate", "spectrum", 4.5, 7.0),
        _span(5, 0, "spectrum._isolate", "spectrum", 6.0, 8.0),
        _span(6, 5, "spectrum._isolate", "spectrum", 7.5, 9.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 10 - 7, 1: 4 - 1.5, 2: 1, 3: 0.5,
                                 4: 2.5, 5: 2 - 0.5, 6: 1.5})
    metrics = spans.layer_metrics(tree, spans.Counter())
    assert metrics["cli.self_s"] == pytest.approx(3)
    assert metrics["extremal.self_s"] == pytest.approx(2.5)
    assert metrics["spectrum.self_s"] == pytest.approx(1 + 0.5 + 2.5 + 1.5 + 1.5)
    assert metrics["extremal.compare_s"] == pytest.approx(4)
    assert metrics["extremal.compare_calls"] == 1
    assert metrics["extremal.refine_calls"] == 2
    # nested _isolate spans count once, at the outermost one
    assert metrics["spectrum.isolate_calls"] == 2
    assert metrics["spectrum.isolate_s"] == pytest.approx(2.5 + 2)


def test_compare_exact_and_tolerant_fields():
    ref = {"integer_part": "16", "theta": 0.605551275464, "n_zero": 1, "ok": True,
           "max_eig_deviation": 1e-14}
    same = dict(ref, theta=0.605551275464 * (1 + 1e-12), max_eig_deviation=3e-13, extra=1)
    assert checks.compare(ref, same) == []
    assert checks.compare(ref, dict(ref, integer_part="17"))
    assert checks.compare(ref, dict(ref, theta=0.6056))
    assert checks.compare(ref, dict(ref, ok=1))
    rows = checks.parse_output('partition,energy\n"2,2,1",17.2111025509\n')
    assert checks.compare(rows, [["partition", "energy"], ["2,2,1", "17.21110255090001"]]) == []
    assert checks.compare(rows, [["partition", "energy"], ["2,1,1", "17.2111025509"]])
