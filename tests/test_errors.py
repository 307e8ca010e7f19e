"""sqdist raises one exception type, so the CLI's one `except` maps every
refusal to exit 1 instead of a traceback."""

import ast
from pathlib import Path

import numpy as np
import pytest

from sqdist.charpoly import det_delta_exact
from sqdist.errors import SqDistError
from sqdist.extremal import scan_energy, scan_energy_h
from sqdist.oracle import sweep
from sqdist.partitions import Partition, enumerate_partitions
from sqdist.spectrum import InertiaTriple, energy, inertia

SRC = Path(__file__).resolve().parents[1] / "src" / "sqdist"


def _name(exc: ast.expr) -> str:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return ast.unparse(exc)


def test_every_raise_is_sqdist_error():
    raised = [
        (path.name, node.lineno, _name(node.exc))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert raised
    others = [
        (file, line, name) for file, line, name in raised
        if name != "SqDistError" and (name, file) != ("SystemExit", "cli.py")
    ]
    assert others == []


def test_errors_defines_one_class():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == ["SqDistError"]
    assert SqDistError.__bases__ == (Exception,)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: det_delta_exact(Partition((2.5, 1))),
                     r"parts must be integers, got \(2\.5, 1\)", id="det-float-part"),
        pytest.param(lambda: inertia(Partition((2.5, 1, 1))),
                     r"parts must be integers, got \(2\.5, 1, 1\)", id="inertia-float-part"),
        pytest.param(lambda: Partition(("3", 1)),
                     r"parts must be integers, got \('3', 1\)", id="text-part"),
        pytest.param(lambda: scan_energy(6, 2.0), "t must be an integer, got 2.0",
                     id="scan-float-t"),
        pytest.param(lambda: list(enumerate_partitions(5.0, 2)), "n must be an integer, got 5.0",
                     id="enumerate-float-n"),
        pytest.param(lambda: scan_energy_h(8, 4, 1.0), "h must be an integer, got 1.0",
                     id="scan-h-float-h"),
        pytest.param(lambda: sweep(3.0), "n_max must be an integer, got 3.0",
                     id="sweep-float-nmax"),
    ],
)
def test_non_integer_inputs_are_refused(call, message):
    with pytest.raises(SqDistError, match=message):
        call()


def test_numpy_integer_parts_become_ints():
    # np.int64 arithmetic would overflow in n - t and in the secular data
    p = Partition((np.int64(2**62),) * 2 + (1,))
    assert p == Partition((2**62, 2**62, 1))
    assert all(type(m) is int for m in p.parts)
    assert inertia(p) == InertiaTriple(2, 0, 2**63 - 1, "singleton-case-negative")
    assert energy(p).integer_part == 8 * (2**63 - 2)  # h = 1 adds 2(h - 1) = 0
