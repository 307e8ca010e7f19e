"""Acceptance gate: one test per release criterion.

Each test registers itself in CRITERIA; the conftest terminal-summary hook
prints one [PASS]/[FAIL] line per criterion at the end of the run.
"""

from fractions import Fraction

import pytest

from conftest import certified, elementary_neighbors, expand, radius_bipartite_closed
from sqdist.charpoly import Sign, char_poly_factored, det_delta_exact, lambda_s1_sign
from sqdist.extremal import (
    _compare_roots,
    compare_energy,
    scan_energy,
    scan_energy_h,
    scan_radius,
)
from sqdist.oracle import symmetric_eigenvalues, sweep
from sqdist.matrices import sqdist_from_partition
from sqdist.partitions import (
    Partition,
    enumerate_class,
    enumerate_partitions,
    split_h,
    turan_h,
)
from sqdist.spectrum import (
    energy,
    full_spectrum,
    inertia,
    spectral_radius_root,
)


def _all_partitions(n_max):
    for n in range(2, n_max + 1):
        for t in range(2, n + 1):
            yield from enumerate_partitions(n, t)


@pytest.fixture(scope="module")
def oracle_eigenvalues():
    """Jacobi eigenvalues of Delta for every partition with n <= 14, shared
    by criteria 5, 6 and 11 so that no partition is diagonalised twice."""
    return {
        p: symmetric_eigenvalues(sqdist_from_partition(p)).eigenvalues
        for p in _all_partitions(14)
    }


def compare_radius(p, q):
    return _compare_roots(spectral_radius_root(p), spectral_radius_root(q))


# criterion number and description per test, keyed by test function name;
# consumed by pytest_terminal_summary in conftest.py
CRITERIA: dict[str, tuple[int, str]] = {}


def _report(num, desc):
    def wrap(fn):
        CRITERIA[fn.__name__] = (num, desc)
        return fn

    return wrap


@_report(1, "closed-form spectrum == Jacobi oracle within 1e-9, n <= 14")
def test_criterion_01_oracle_equivalence_sweep():
    summary = sweep(14)
    assert summary.failure_count == 0, summary.failures[:3]
    assert summary.worst_eig_deviation <= 1e-9


# s-tuple chains exactly as listed in the source material; each graph in
# M(n,15,7) is the s-tuple plus seven singleton parts
_CHAIN_31 = [
    (10, 2, 2, 2, 2, 2, 2, 2),
    (9, 3, 2, 2, 2, 2, 2, 2),
    (8, 4, 2, 2, 2, 2, 2, 2),
    (7, 4, 3, 2, 2, 2, 2, 2),
    (6, 4, 4, 2, 2, 2, 2, 2),
    (5, 4, 4, 3, 2, 2, 2, 2),
    (4, 4, 4, 4, 2, 2, 2, 2),
    (4, 4, 4, 3, 3, 2, 2, 2),
    (4, 4, 3, 3, 3, 3, 2, 2),
    (4, 3, 3, 3, 3, 3, 3, 2),
    (3, 3, 3, 3, 3, 3, 3, 3),
]

_CHAIN_30 = [
    (9, 2, 2, 2, 2, 2, 2, 2),
    (8, 3, 2, 2, 2, 2, 2, 2),
    (7, 4, 2, 2, 2, 2, 2, 2),
    (6, 4, 3, 2, 2, 2, 2, 2),
    (5, 4, 4, 2, 2, 2, 2, 2),
    (4, 4, 4, 3, 2, 2, 2, 2),
    (4, 4, 3, 3, 3, 2, 2, 2),
    (4, 3, 3, 3, 3, 3, 2, 2),
    (3, 3, 3, 3, 3, 3, 3, 2),
]


def _with_singletons(stuple, h=7):
    return Partition(tuple(stuple) + (1,) * h)


@_report(2, "M(31,15,7): G7..G10 at exactly 140, unique maximum at the split member")
def test_criterion_02_chain_31_15_7():
    members = [_with_singletons(s) for s in _CHAIN_31]
    assert members[0] == split_h(31, 15, 7)
    assert members[-1] == turan_h(31, 15, 7)
    # sign pattern along the chain: negative through G5, zero at G6, then positive
    signs = [lambda_s1_sign(g) for g in members]
    assert signs[:6] == [Sign.NEGATIVE] * 6
    assert signs[6] is Sign.ZERO
    assert signs[7:] == [Sign.POSITIVE] * 4
    for g in members[7:]:
        rep = energy(g)
        assert rep.theta is None and rep.integer_part == 140
    top = energy(members[0])
    assert top.theta is not None and top.value > 140
    report = scan_energy_h(31, 15, 7)
    assert report.violated_claims == []
    assert report.argmax == [members[0]] and report.max_unique


@_report(3, "M(30,15,7): G6..G8 at exactly 132, non-unique minimum, unique maximum")
def test_criterion_03_chain_30_15_7():
    members = [_with_singletons(s) for s in _CHAIN_30]
    assert members[0] == split_h(30, 15, 7)
    assert members[-1] == turan_h(30, 15, 7)
    for g in members[6:]:
        rep = energy(g)
        assert rep.theta is None and rep.integer_part == 132
    report = scan_energy_h(30, 15, 7)
    assert report.violated_claims == []
    assert report.argmax == [members[0]] and report.max_unique
    assert not report.min_unique and members[-1] in report.argmin


@_report(4, "M(17,10,6): flat energy landscape at exactly 66")
def test_criterion_04_flat_landscape_17_10_6():
    members = list(enumerate_class(17, 10, 6))
    assert members  # non-empty class
    for g in members:
        rep = energy(g)
        assert rep.theta is None
        assert rep.integer_part == 8 * (17 - 10) + 2 * (6 - 1) == 66


@_report(5, "all parts >= 2, n <= 14: inertia (t,0,n-t), energy 8(n-t), oracle within 1e-7")
def test_criterion_05_no_singleton_theorem(oracle_eigenvalues):
    for p in _all_partitions(14):
        if p.h > 0:
            continue
        tri = inertia(p)
        assert (tri.n_plus, tri.n_zero, tri.n_minus) == (p.t, 0, p.n - p.t)
        rep = energy(p)
        assert rep.theta is None and rep.integer_part == 8 * (p.n - p.t)
        eigs = oracle_eigenvalues[p]
        assert abs(sum(abs(v) for v in eigs) - rep.value) <= 1e-7


@_report(6, "three-way inertia classification matches oracle sign counts, n <= 14")
def test_criterion_06_inertia_classification(oracle_eigenvalues):
    zero_case_seen = False
    for p in _all_partitions(14):
        if p.h == 0:
            continue
        tri = inertia(p)
        eigs = oracle_eigenvalues[p]
        n_plus = sum(1 for v in eigs if v > 1e-7)
        n_minus = sum(1 for v in eigs if v < -1e-7)
        assert (tri.n_plus, tri.n_zero, tri.n_minus) == (
            n_plus,
            p.n - n_plus - n_minus,
            n_minus,
        ), p
        if tri.n_zero == 1:
            zero_case_seen = True
    assert zero_case_seen
    assert inertia(Partition((2, 1, 1))).n_zero == 1


@_report(7, "energy bounds 8(n-t)+2(h-1) <= E < 8(n-t)+2h with theta bracket in (0,1)")
def test_criterion_07_energy_bounds():
    for p in _all_partitions(14):
        if p.h == 0:
            continue
        rep = energy(p)
        base = 8 * (p.n - p.t) + 2 * (p.h - 1)
        assert base <= rep.value < base + 2
        if rep.theta is not None:
            lo, hi = -rep.theta_root.hi, -rep.theta_root.lo
            assert 0 < lo <= rep.theta <= hi < 1


@_report(8, "bipartite closed form within 1e-10 up to 50; rho > 4(n1-1) for n <= 14")
def test_criterion_08_bipartite_radius():
    for n1 in range(1, 51):
        for n2 in range(1, n1 + 1):
            closed = radius_bipartite_closed(n1, n2)
            value = spectral_radius_root(Partition((n1, n2))).value
            assert abs(closed - value) <= 1e-10, (n1, n2)
    for p in _all_partitions(14):
        root = spectral_radius_root(p)
        bound = Fraction(4 * (p.parts[0] - 1))
        if not root.lo_exact > bound:
            root = root.refined()
        assert root.lo_exact > bound, p


@_report(9, "rho strictly decreases on every elementary step (n <= 12); unique scan extrema")
def test_criterion_09_radius_majorization():
    for p in _all_partitions(12):
        for q in elementary_neighbors(p):
            assert compare_radius(p, q) == 1, (p, q)
    for n in range(2, 13):
        for t in range(2, n + 1):
            assert scan_radius(n, t).violated_claims == [], (n, t)


@_report(10, "energy extremality scans, Turan-min uniqueness iff n <= 2t+1 (n <= 12)")
def test_criterion_10_energy_scans():
    for n in range(2, 13):
        for t in range(2, n + 1):
            report = scan_energy(n, t)
            assert report.violated_claims == [], (n, t, report.violated_claims)
            assert report.min_unique == (n <= 2 * t + 1)
    # energy never increases down any elementary step
    for p in _all_partitions(12):
        for q in elementary_neighbors(p):
            assert compare_energy(energy(p), energy(q)) >= 0, (p, q)


@_report(11, "exact determinant vs oracle product (rel 1e-6) and constant-term identity")
def test_criterion_11_determinant(oracle_eigenvalues):
    for p in _all_partitions(12):
        det = det_delta_exact(p)
        eigs = oracle_eigenvalues[p]
        prod = 1.0
        scale = 1.0
        for v in eigs:
            prod *= v
            scale *= max(abs(v), 1.0)
        if det == 0:
            assert abs(prod) <= 1e-6 * scale, p
        else:
            assert abs(prod - det) <= 1e-6 * abs(det), p
        f = char_poly_factored(p)
        assert det == (-1) ** p.n * expand(f.residual.coeffs, f.linear_factors)[0]


@_report(12, "certified brackets (sign change or zero point), pairwise disjoint, n <= 14")
def test_criterion_12_secular_brackets():
    for p in _all_partitions(14):
        roots = list(full_spectrum(p).isolated)
        for r in roots:
            assert certified(r), p
        for i in range(len(roots) - 1):
            a, b = roots[i], roots[i + 1]
            for _ in range(3):
                if a.hi_exact < b.lo_exact:
                    break
                a, b = a.refined(), b.refined()
            assert a.hi_exact < b.lo_exact, p
