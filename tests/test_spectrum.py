import math
import random
from fractions import Fraction

import pytest

from conftest import all_partitions_upto, certified, poly_mul, radius_bipartite_closed
from sqdist.charpoly import IntPolynomial, Sign, lambda_s1_sign
from sqdist.errors import SqDistError
from sqdist.extremal import _compare_roots
from sqdist.partitions import Partition, canonicalize
from sqdist.spectrum import (
    BISECT_STEPS,
    BRACKET_WIDTH,
    _bisect,
    _isolate,
    deflated_residual,
    energy,
    full_spectrum,
    inertia,
    secular_roots,
    spectral_radius_root,
)

SQRT10 = math.sqrt(10)
SQRT13 = math.sqrt(13)
SQRT19 = math.sqrt(19)


def _approx_set(got, expected, tol=1e-9):
    assert len(got) == len(expected)
    for a, b in zip(sorted(got), sorted(expected)):
        assert abs(a - b) <= tol


def _fraction_bisect(poly, lo, hi, max_steps, width):
    """Reference bisection in Fraction arithmetic, one Horner per sign; an
    exact root is returned as the point bracket (r, r)."""

    def sign(x):
        v = poly(x)
        return (v > 0) - (v < 0)

    s_lo, s_hi = sign(lo), sign(hi)
    if s_lo == 0 or s_hi == 0:
        mid = lo if s_lo == 0 else hi
        return mid, mid
    if s_lo == s_hi:
        raise SqDistError("no sign change")
    for _ in range(max_steps):
        if hi - lo <= width:
            break
        mid = (lo + hi) / 2
        s_mid = sign(mid)
        if s_mid == 0:
            return mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _initial_brackets(p):
    """Every starting bracket the spectrum module bisects for p (s >= 1)."""
    poles = sorted({3 * m - 4 for m in p.parts[: p.s]})
    ends = ([-1] if p.h >= 1 else []) + poles + [3 * p.parts[0] + p.n - 4]
    brackets = list(zip(ends, ends[1:]))
    brackets.append((max(4 * (p.parts[0] - 1), 3 * p.parts[0] - 4), ends[-1]))
    return [(Fraction(a), Fraction(b)) for a, b in brackets]


def _stress_partitions():
    rng = random.Random(20120434)
    huge = [
        canonicalize(
            [rng.randint(2, 10**20) for _ in range(rng.randint(2, 5))]
            + [1] * rng.randint(0, 2)
        )
        for _ in range(8)
    ]
    wide = [
        canonicalize(rng.sample(range(2, 400), 25) + [1] * rng.randint(1, 3))
        for _ in range(2)
    ]
    knife = [
        canonicalize(parts)
        for parts in [(2, 1, 1), (2, 2, 1, 1, 1), (4, 4, 2, 1, 1, 1), (4, 4, 4, 4, 1, 1, 1)]
    ]
    assert all(lambda_s1_sign(p) is Sign.ZERO for p in knife)
    return huge + wide + knife + [canonicalize((2, 2)), canonicalize((5, 4, 2, 1, 1))]


class TestBisect:
    """The integer bisection reproduces the Fraction bisection exactly."""

    @pytest.mark.parametrize("p", _stress_partitions(), ids=str)
    def test_matches_fraction_reference(self, p):
        poly = deflated_residual(p)
        for lo, hi in _initial_brackets(p):
            got = _bisect(poly, lo, hi, BRACKET_WIDTH)
            assert got == _fraction_bisect(poly, lo, hi, BISECT_STEPS, BRACKET_WIDTH)
            # refinement starts from a dyadic bracket with width 0
            assert _bisect(poly, *got, Fraction(0)) == _fraction_bisect(
                poly, *got, BISECT_STEPS, Fraction(0)
            )

    def test_exact_hits_and_non_dyadic_ends(self):
        p = IntPolynomial(poly_mul((-1, 2), (-7, 3)))  # roots 1/2, 7/3
        cases = [
            (Fraction(0), Fraction(1)),  # first midpoint is the root
            (Fraction(1, 2), Fraction(1)),  # root at an endpoint
            (Fraction(1, 3), Fraction(5, 7)),  # non-dyadic common denominator
            (Fraction(2), Fraction(17, 5)),
        ]
        for lo, hi in cases:
            for width in (BRACKET_WIDTH, Fraction(1, 10), Fraction(0)):
                assert _bisect(p, lo, hi, width) == _fraction_bisect(p, lo, hi, BISECT_STEPS, width)

    def test_no_sign_change(self):
        with pytest.raises(SqDistError, match=r"no sign change of \(-5, 1\) on \[0, 1\]"):
            _bisect(IntPolynomial((-5, 1)), Fraction(0), Fraction(1), BRACKET_WIDTH)


class TestRefined:
    def test_exact_hit_collapses_to_a_fixed_point(self):
        point = _isolate(IntPolynomial((-3, 1)), Fraction(2), Fraction(4))  # midpoint is the root
        assert point.lo_exact == point.hi_exact == 3 and point.value == 3.0
        assert point.refined() == point


class TestSecularRoots:
    def test_3_2(self):
        roots = secular_roots(Partition((3, 2)))
        _approx_set([r.value for r in roots], [6 - SQRT10, 6 + SQRT10])

    def test_2_2_1(self):
        roots = secular_roots(Partition((2, 2, 1)))
        _approx_set([r.value for r in roots], [3 - SQRT13, 3 + SQRT13])

    def test_3_1(self):
        roots = secular_roots(Partition((3, 1)))
        _approx_set([r.value for r in roots], [4 - SQRT19, 4 + SQRT19])

    def test_complete_graph_exact(self):
        (root,) = secular_roots(Partition((1, 1, 1, 1)))
        assert root.value == 3.0
        assert root.lo_exact == root.hi_exact == 3

    @pytest.mark.parametrize("h", range(2, 7))
    def test_complete_graph_is_an_exact_hit(self, h):
        # no poles: the general bracket ends at the exact root h-1
        p = Partition((1,) * h)
        roots = secular_roots(p) + [spectral_radius_root(p)]
        assert [(r.lo_exact, r.hi_exact, r.value) for r in roots] == [(h - 1, h - 1, h - 1)] * 2

    def test_root_count(self):
        # one root per pole gap, one above; one extra below with singletons
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            if p.s == 0:
                continue
            d = len(set(p.parts[: p.s]))
            expected = d if p.h == 0 else d + 1
            assert len(secular_roots(p)) == expected

    def test_brackets_certified_and_disjoint(self):
        for _, _, parts in all_partitions_upto(12):
            roots = secular_roots(Partition(parts))
            for r in roots:
                assert certified(r)
            for a, b in zip(roots, roots[1:]):
                assert a.hi_exact < b.lo_exact

    def test_knife_edge_zero_is_a_point(self):
        # lambda_{s+1} = 0: the zero eigenvalue is the point [0, 0], not a
        # bisection midpoint near 0
        knife = []
        for _, _, parts in all_partitions_upto(14):
            p = Partition(parts)
            if inertia(p).n_zero == 1:
                knife.append(p)
                rep = full_spectrum(p)
                points = [r for r in rep.isolated if r.lo_exact == r.hi_exact == 0]
                assert len(points) == 1, p
                assert rep.eigenvalues().count(0.0) == 1, p
        assert len(knife) == 7

    def test_interlacing_with_poles(self):
        # gap roots sit strictly between consecutive poles 3m-4
        p = Partition((5, 4, 2, 1, 1))
        poles = sorted({3 * m - 4 for m in p.parts[: p.s]})
        roots = [r.value for r in secular_roots(p)]
        assert -1 < roots[0] < poles[0]
        for lo, hi, r in zip(poles, poles[1:], roots[1:]):
            assert lo < r < hi
        assert roots[-1] > poles[-1]

    def test_roots_are_roots(self):
        # each bracket midpoint is a near-zero of the deflated residual
        p = Partition((4, 3, 3, 1))
        poly = deflated_residual(p)
        for r in secular_roots(p):
            tight = r.refined()
            assert float(poly(Fraction(tight.value).limit_denominator(10**15))) == pytest.approx(0, abs=1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason="BISECT_STEPS = 60 halvings leave the (-1, 3m-4) bracket of the "
        "lowest root ~10 wide when the smallest part m >= 2 is ~1e18",
    )
    def test_lowest_root_with_huge_parts_is_narrow(self):
        # inertia counts this root as negative (it is about -0.4)
        p = Partition((95807179703632011589, 4496313825410553329, 1))
        first = secular_roots(p)[0]
        assert first.hi_exact < 0
        assert first.hi_exact - first.lo_exact <= BRACKET_WIDTH


class TestFullSpectrum:
    def test_2_2_2(self):
        rep = full_spectrum(Partition((2, 2, 2)))
        assert dict(rep.exact) == {2: 2, -4: 3}
        _approx_set([r.value for r in rep.isolated], [8.0])

    def test_2_1_1(self):
        rep = full_spectrum(Partition((2, 1, 1)))
        assert dict(rep.exact) == {-1: 1, -4: 1}
        _approx_set([r.value for r in rep.isolated], [0.0, 5.0])

    def test_k4(self):
        rep = full_spectrum(Partition((1, 1, 1, 1)))
        assert dict(rep.exact) == {-1: 3}
        _approx_set([r.value for r in rep.isolated], [3.0])

    @pytest.mark.parametrize(
        "parts",
        [(3, 3, 2, 2, 2), (4, 4, 2, 1, 1), (8, 4, 4, 3, 1, 1, 1)],
        ids=["no-singletons", "singletons", "knife-edge"],
    )
    def test_exact_eigenvalues_are_ints(self, parts):
        exact = full_spectrum(Partition(parts)).exact
        assert exact and all(type(v) is int for v, _ in exact)

    def test_multiplicities_and_trace(self):
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            rep = full_spectrum(p)
            assert rep.total_multiplicity() == p.n
            vals = rep.eigenvalues()
            assert vals == sorted(vals, reverse=True)
            assert sum(vals) == pytest.approx(0, abs=1e-8)

    def test_json_shape(self):
        js = full_spectrum(Partition((2, 2, 1))).to_json()
        assert {"value": "2", "mult": 1} in js["exact"]
        assert {"value": "-4", "mult": 2} in js["exact"]
        assert all(set(r) == {"value", "lo", "hi"} for r in js["isolated"])


class TestInertia:
    def test_all_parts_ge_2(self):
        tri = inertia(Partition((3, 2)))
        assert (tri.n_plus, tri.n_zero, tri.n_minus) == (2, 0, 3)
        assert tri.derivation == "all-parts-ge-2"

    def test_zero_case(self):
        tri = inertia(Partition((2, 1, 1)))
        assert (tri.n_plus, tri.n_zero, tri.n_minus) == (1, 1, 2)
        assert tri.derivation == "singleton-case-zero"

    def test_negative_case(self):
        tri = inertia(Partition((2, 2, 1)))
        assert (tri.n_plus, tri.n_zero, tri.n_minus) == (2, 0, 3)
        assert tri.derivation == "singleton-case-negative"

    def test_complete_graph(self):
        tri = inertia(Partition((1, 1, 1)))
        assert (tri.n_plus, tri.n_zero, tri.n_minus) == (1, 0, 2)

    def test_complete_graphs_up_to_40(self):
        for h in range(2, 41):
            tri = inertia(Partition((1,) * h))
            assert (tri.n_plus, tri.n_zero, tri.n_minus) == (1, 0, h - 1)
            assert tri.derivation == "singleton-case-positive"

    def test_single_vertex(self):
        # the 1 x 1 zero matrix: lambda_{s+1} = lambda_1 = 0
        tri = inertia(Partition((1,)))
        assert (tri.n_plus, tri.n_zero, tri.n_minus) == (0, 1, 0)
        assert tri.derivation == "singleton-case-zero"

    def test_totals(self):
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            tri = inertia(p)
            assert tri.n_plus + tri.n_zero + tri.n_minus == p.n
            assert tri.n_zero in (0, 1)


class TestEnergy:
    def test_no_singletons_integer(self):
        rep = energy(Partition((3, 2)))
        assert rep.integer_part == 24 and rep.theta is None
        assert rep.value == 24.0

    def test_negative_case_theta(self):
        rep = energy(Partition((2, 2, 1)))
        assert rep.integer_part == 16
        assert rep.value == pytest.approx(10 + 2 * SQRT13, abs=1e-9)
        assert rep.theta == pytest.approx(SQRT13 - 3, abs=1e-9)
        lo, hi = -rep.theta_root.hi, -rep.theta_root.lo
        assert 0 < lo <= rep.theta <= hi < 1

    def test_3_1(self):
        rep = energy(Partition((3, 1)))
        assert rep.value == pytest.approx(16 + 2 * (SQRT19 - 4), abs=1e-9)

    def test_zero_case_integer(self):
        rep = energy(Partition((2, 1, 1)))
        assert rep.integer_part == 10 and rep.theta is None

    def test_complete_graphs_up_to_40(self):
        for h in range(2, 41):
            rep = energy(Partition((1,) * h))
            assert rep.integer_part == 2 * (h - 1) and rep.value == 2 * (h - 1)
            assert rep.theta is None and rep.theta_root is None

    def test_bounds_with_singletons(self):
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            if p.h == 0:
                continue
            rep = energy(p)
            base = 8 * (p.n - p.t) + 2 * (p.h - 1)
            assert rep.integer_part == base
            assert base <= rep.value < base + 2

    def test_unsorted_constructor(self):
        assert energy(Partition((1, 2, 2))) == energy(canonicalize([2, 2, 1]))

    def test_theta_root_is_lowest_secular_root(self):
        small = [Partition(parts) for _, _, parts in all_partitions_upto(12)]
        for p in _stress_partitions() + small:
            root = energy(p).theta_root
            if root is None:
                continue
            assert _compare_roots(root, secular_roots(p)[0]) == 0

    @pytest.mark.parametrize("k", range(6, 21))
    def test_theta_with_one_huge_part(self, k):
        # the (-1, 0) bracket is narrowed to BRACKET_WIDTH however large the part
        p = Partition((10**k + 7, 1))
        rep = energy(p)
        root = rep.theta_root
        assert -1 < root.lo_exact and root.hi_exact < 0
        assert root.hi_exact - root.lo_exact <= BRACKET_WIDTH
        lo, hi = _fraction_bisect(deflated_residual(p), Fraction(-1), Fraction(0), 100, Fraction(0))
        assert abs(rep.theta + float((lo + hi) / 2)) <= 1e-12

    def test_energy_at_least_twice_radius(self):
        # trace 0 makes E = 2 * (sum of positives) >= 2 * rho
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            rho = spectral_radius_root(p).value
            assert energy(p).value >= 2 * rho - 1e-9


class TestSpectralRadius:
    def test_2_2(self):
        root = spectral_radius_root(Partition((2, 2)))
        value, lo, hi = root.value, root.lo, root.hi
        assert value == pytest.approx(6.0, abs=1e-12)
        assert lo <= value <= hi

    def test_3_2(self):
        value = spectral_radius_root(Partition((3, 2))).value
        assert value == pytest.approx(6 + SQRT10, abs=1e-9)

    def test_3_1(self):
        value = spectral_radius_root(Partition((3, 1))).value
        assert value == pytest.approx(4 + SQRT19, abs=1e-9)

    def test_complete_graph(self):
        value = spectral_radius_root(Partition((1, 1, 1, 1, 1))).value
        assert value == 4.0

    def test_is_largest_eigenvalue(self):
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            root = spectral_radius_root(p)
            value, lo, hi = root.value, root.lo, root.hi
            assert hi - lo <= 1e-11
            assert value == pytest.approx(full_spectrum(p).eigenvalues()[0], abs=1e-9)

    def test_is_the_top_secular_root(self):
        # one Perron bracket: radius and spectrum print the same top root
        for _, _, parts in all_partitions_upto(14):
            p = Partition(parts)
            assert spectral_radius_root(p) == secular_roots(p)[-1]

    def test_strict_lower_bound(self):
        for _, _, parts in all_partitions_upto(12):
            root = spectral_radius_root(Partition(parts))
            assert root.value > 4 * (parts[0] - 1)


class TestBipartiteClosedForm:
    def test_examples(self):
        assert radius_bipartite_closed(2, 2) == pytest.approx(6.0)
        assert radius_bipartite_closed(3, 2) == pytest.approx(6 + SQRT10, abs=1e-12)
        assert radius_bipartite_closed(1, 1) == pytest.approx(1.0)

    def test_guard(self):
        with pytest.raises(ValueError):
            radius_bipartite_closed(0, 3)

    def test_matches_bisection(self):
        for n1 in range(1, 21):
            for n2 in range(1, n1 + 1):
                closed = radius_bipartite_closed(n1, n2)
                value = spectral_radius_root(Partition((n1, n2))).value
                assert closed == pytest.approx(value, abs=1e-10)


class TestSignConsistency:
    def test_lambda_s1_matches_spectrum(self):
        # the exact sign criterion agrees with the isolated root in (-1, p1)
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            if p.h == 0 or p.s == 0:
                continue
            lam = secular_roots(p)[0]
            sign = lambda_s1_sign(p)
            if sign is Sign.NEGATIVE:
                assert lam.hi_exact < Fraction(1, 10**6) and lam.value < 0
            elif sign is Sign.POSITIVE:
                assert lam.lo_exact > -Fraction(1, 10**6) and lam.value > 0
            else:
                assert abs(lam.value) < 1e-9
