import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    all_partitions_upto,
    bareiss_det,
    charpoly_via_bareiss,
    criterion_gap,
    expand,
    poly_mul,
    reduced_matrix_B,
)
from sqdist import charpoly
from sqdist.charpoly import (
    MAX_RESIDUAL_DEGREE,
    IntPolynomial,
    Sign,
    char_poly_factored,
    det_delta_exact,
    lambda_s1_sign,
)
from sqdist.errors import SqDistError
from sqdist.matrices import sqdist_from_partition
from sqdist.partitions import Partition
from sqdist.spectrum import deflated_residual


def _divides(d: IntPolynomial, p: IntPolynomial) -> bool:
    """Whether d divides p over Q, by long division in Fractions."""
    r = [Fraction(c) for c in p.coeffs]
    while len(r) >= len(d.coeffs):
        q, shift = r[-1] / d.coeffs[-1], len(r) - len(d.coeffs)
        for i, c in enumerate(d.coeffs):
            r[shift + i] -= q * c
        r.pop()  # the leading entry is now zero
    return not any(r)


def det_B_charpoly(p: Partition) -> tuple[int, ...]:
    """det(xI - B): the factored residual times the (x + 1)^(h - 1) factor."""
    f = char_poly_factored(p)
    return expand(f.residual.coeffs, [(1, p.h - 1)] if p.h > 1 else [])


class TestIntPolynomial:
    def test_arithmetic(self):
        p = poly_mul((-2, 1), (-6, 1))  # (x-2)(x-6)
        assert p == (12, -8, 1)
        assert poly_mul((3,), p) == (36, -24, 3)
        assert poly_mul((), p) == ()

    def test_trailing_zeros_normalized(self):
        assert IntPolynomial.make([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial.make([0, 0]).coeffs == ()

    def test_exact_evaluation(self):
        p = IntPolynomial(poly_mul((-2, 1), (-6, 1)))
        assert p(2) == 0 and p(6) == 0
        assert p(Fraction(1, 2)) == Fraction(33, 4)

    def test_json(self):
        assert IntPolynomial((4, 1)).to_json() == {"coeffs": ["4", "1"], "ascending": True}

    def test_sign_at_examples(self):
        p = IntPolynomial(poly_mul((-1, 3), (2, 1)))  # (3x - 1)(x + 2)
        assert p.sign_at(1, 3) == 0 and p.sign_at(2, 6) == 0  # reduced or not
        assert p.sign_at(-2, 1) == 0
        assert p.sign_at(1, 2) == 1 and p.sign_at(0, 7) == -1
        assert p.sign_at(-5, 1) == 1
        assert IntPolynomial(()).sign_at(3, 5) == 0

    @given(
        coeffs=st.lists(st.integers(-(10**60), 10**60), min_size=1, max_size=91),
        num=st.integers(-(10**30), 10**30),
        den=st.integers(1, 10**30),
    )
    def test_sign_at_matches_fraction_horner(self, coeffs, num, den):
        poly = IntPolynomial.make(coeffs)
        value = poly(Fraction(num, den))
        assert poly.sign_at(num, den) == (value > 0) - (value < 0)

    @given(
        coeffs=st.lists(st.integers(-(10**60), 10**60), min_size=1, max_size=89),
        num=st.integers(-(10**30), 10**30),
        den=st.integers(1, 10**30),
    )
    def test_sign_at_exact_root(self, coeffs, num, den):
        # den*x - num vanishes at num/den whether or not the fraction is reduced
        poly = IntPolynomial(poly_mul((-num, den), IntPolynomial.make(coeffs).coeffs))
        assert poly.sign_at(num, den) == 0

    def test_gcd_examples(self):
        a = IntPolynomial(poly_mul((-32, 1), (-3, 1)))  # x^2 - 35x + 96
        b = IntPolynomial(poly_mul((-32, 1), (-12, 1)))  # x^2 - 44x + 384
        assert a.gcd(b).coeffs == (-32, 1)
        six_a, minus_four_b = IntPolynomial((576, -210, 6)), IntPolynomial((-1536, 176, -4))
        assert six_a.gcd(minus_four_b).coeffs == (-32, 1)
        assert a.gcd(IntPolynomial((5, 1))).coeffs == (1,)
        assert a.gcd(a).coeffs == a.coeffs
        assert a.gcd(IntPolynomial(())).coeffs == a.coeffs
        assert IntPolynomial(()).gcd(IntPolynomial((-6, -4))).coeffs == (3, 2)
        assert IntPolynomial(()).gcd(IntPolynomial(())).coeffs == ()

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        b=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
        c=st.lists(st.integers(-20, 20), min_size=2, max_size=4),
    )
    def test_gcd_of_common_multiples(self, a, b, c):
        a, b, c = IntPolynomial.make(a), IntPolynomial.make(b), IntPolynomial.make(c)
        assume(a.degree >= 0 and b.degree >= 0 and c.degree >= 1)
        pa, pb = (IntPolynomial(poly_mul(q.coeffs, c.coeffs)) for q in (a, b))
        g = pa.gcd(pb)
        assert g.coeffs[-1] > 0
        assert _divides(c, g)
        assert _divides(g, pa) and _divides(g, pb)


class TestReducedMatrix:
    def test_2_2(self):
        assert reduced_matrix_B((2, 2)) == [[4, 2], [2, 4]]

    def test_3_2(self):
        assert reduced_matrix_B((3, 2)) == [[8, 3], [2, 4]]

    def test_2_1_1(self):
        assert reduced_matrix_B((2, 1, 1)) == [
            [4, 2, 2],
            [1, 0, 1],
            [1, 1, 0],
        ]

    def test_charpoly_matches_reduced_matrix(self):
        # det(xI - B) from the closed form vs Bareiss interpolation on B
        for _, _, parts in all_partitions_upto(9):
            p = Partition(parts)
            assert list(det_B_charpoly(p)) == charpoly_via_bareiss(reduced_matrix_B(parts))


class TestDetBCharpoly:
    def test_2_2(self):
        assert det_B_charpoly(Partition((2, 2))) == (12, -8, 1)

    def test_3_2(self):
        assert det_B_charpoly(Partition((3, 2))) == (26, -12, 1)

    def test_1_1(self):
        # (x+1)^2 - 2(x+1) = (x+1)(x-1)
        assert det_B_charpoly(Partition((1, 1))) == (-1, 0, 1)

    def test_monic_degree_t(self):
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            q = det_B_charpoly(p)
            assert q[-1] == 1 and len(q) - 1 == p.t

    def test_all_roots_positive_when_parts_ge_2(self):
        # reduced-matrix eigenvalues are positive without singleton parts
        for _, _, parts in all_partitions_upto(12):
            if min(parts) < 2:
                continue
            coeffs = det_B_charpoly(Partition(parts))
            roots = np.roots(list(reversed(coeffs)))
            # np.roots scatters a multiplicity-k root into a cluster of
            # radius ~eps^(1/k); the true roots are all >= 2, so the
            # clusters stay far inside the right half-plane
            assert np.all(roots.real > 1)
            assert np.all(np.abs(roots.imag) < 1)


class TestReducedPolyP:
    def test_2_1_1(self):
        assert char_poly_factored(Partition((2, 1, 1))).residual.coeffs == (0, -5, 1)

    def test_complete_graph(self):
        assert char_poly_factored(Partition((1, 1, 1))).residual.coeffs == (-2, 1)

    def test_monic_degree_s_plus_1(self):
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            if p.h == 0 or p.s == 0:
                continue
            q = char_poly_factored(p).residual
            assert q.coeffs[-1] == 1 and q.degree == p.s + 1

    def test_no_root_at_or_below_minus_one(self):
        # the residual keeps a constant sign on (-inf, -1]
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            if p.h == 0 or p.s == 0:
                continue
            q = char_poly_factored(p).residual
            ref = q(-1)
            assert ref != 0
            for x in range(-2, -30, -3):
                assert (q(x) > 0) == (ref > 0)


class TestFactoredCharPoly:
    def test_2_2(self):
        f = char_poly_factored(Partition((2, 2)))
        assert f.linear_factors == ((4, 2),)
        assert f.residual.coeffs == (12, -8, 1)

    def test_2_1_1(self):
        f = char_poly_factored(Partition((2, 1, 1)))
        assert f.linear_factors == ((4, 1), (1, 1))
        assert f.residual.coeffs == (0, -5, 1)

    def test_k4(self):
        f = char_poly_factored(Partition((1, 1, 1, 1)))
        assert f.linear_factors == ((1, 3),)
        assert f.residual.coeffs == (-3, 1)

    def test_json(self):
        js = char_poly_factored(Partition((2, 1, 1))).to_json()
        assert js["linear_factors"] == [
            {"root": -4, "mult": 1},
            {"root": -1, "mult": 1},
        ]
        assert js["residual"] == {"coeffs": ["0", "-5", "1"], "ascending": True}

    def test_expand_matches_independent_charpoly(self):
        # full det(xI - Delta) via Bareiss interpolation, exact coefficients
        for _, _, parts in all_partitions_upto(9):
            p = Partition(parts)
            f = char_poly_factored(p)
            expanded = expand(f.residual.coeffs, f.linear_factors)
            rows = sqdist_from_partition(p).data.astype(int).tolist()
            assert list(expanded) == charpoly_via_bareiss(rows)
            assert expanded[-1] == 1 and len(expanded) - 1 == p.n

    @pytest.mark.parametrize(
        "parts",
        [
            (3,) * (MAX_RESIDUAL_DEGREE // 2 + 1) + (2,) * (MAX_RESIDUAL_DEGREE // 2),  # s = cap + 1
            (3,) * (MAX_RESIDUAL_DEGREE // 2) + (2,) * (MAX_RESIDUAL_DEGREE // 2) + (1,) * 3,  # s + 1
        ],
    )
    def test_degree_just_above_the_cap_is_refused(self, monkeypatch, parts):
        def expand(*args):
            raise AssertionError("expanded before the degree check")

        monkeypatch.setattr(charpoly, "_with_repeats", expand)
        with pytest.raises(SqDistError, match=f"{MAX_RESIDUAL_DEGREE + 1} > {MAX_RESIDUAL_DEGREE}"):
            char_poly_factored(Partition(parts))

    def test_degree_at_the_cap_is_expanded(self, monkeypatch):
        monkeypatch.setattr(charpoly, "MAX_RESIDUAL_DEGREE", 4)
        assert char_poly_factored(Partition((3, 3, 2, 1, 1))).residual.degree == 4
        with pytest.raises(SqDistError, match="residual degree 5 > 4: too large to expand"):
            char_poly_factored(Partition((3, 3, 2, 2, 1)))


class TestDeterminant:
    def test_examples(self):
        assert det_delta_exact(Partition((2, 2))) == 192
        assert det_delta_exact(Partition((2, 1, 1))) == 0
        assert det_delta_exact(Partition((1, 1))) == -1

    def test_matches_bareiss(self):
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            rows = sqdist_from_partition(p).data.astype(int).tolist()
            assert det_delta_exact(p) == bareiss_det(rows)

    def test_constant_term_identity(self):
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            f = char_poly_factored(p)
            c0 = expand(f.residual.coeffs, f.linear_factors)[0]
            assert det_delta_exact(p) == (-1) ** p.n * c0

    def test_huge_order_is_refused(self):
        # (-4)^(n-t) would need ~10^20 bits
        start = time.perf_counter()
        with pytest.raises(SqDistError, match=r"n - t = 199999999999999999998 > 10\^6"):
            det_delta_exact(Partition((10**20, 10**20)))
        assert time.perf_counter() - start < 1.0

    def test_largest_order_still_computed(self):
        m = 500_001  # n - t = 10^6
        assert det_delta_exact(Partition((m, m))) == 4**10**6 * (5 * m - 4) * (3 * m - 4)


class TestSignCriterion:
    def test_zero_case(self):
        assert lambda_s1_sign(Partition((2, 1, 1))) is Sign.ZERO

    def test_negative_case(self):
        assert lambda_s1_sign(Partition((2, 2, 1))) is Sign.NEGATIVE

    def test_positive_case(self):
        p = Partition((5, 2, 2, 2) + (1,) * 6)
        assert lambda_s1_sign(p) is Sign.POSITIVE

    def test_not_applicable(self):
        with pytest.raises(SqDistError, match="sign criterion needs h >= 1"):
            lambda_s1_sign(Partition((2, 2)))
        assert lambda_s1_sign(Partition((1, 1, 1))) is Sign.POSITIVE

    def test_agrees_with_rational_gap(self):
        # integer criterion == sign of (h-1) - sum ni/(3ni-4)
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            if p.h == 0:
                continue
            gap = criterion_gap(parts)
            expected = (
                Sign.POSITIVE if gap > 0 else Sign.ZERO if gap == 0 else Sign.NEGATIVE
            )
            assert lambda_s1_sign(p) is expected


# -- the nested-loop constructions the grouped core replaced -----------------
def _ref_axpy(a, c, b):
    """a + c*b on ascending coefficient lists, trailing zeros stripped."""
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += c * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_det_poly(sizes, weights):
    """prod(x+4-3m_i) - sum_i w_i * prod_{j!=i}(x+4-3m_j), O(t^3)."""
    factors = [(4 - 3 * m, 1) for m in sizes]
    total = expand((1,), factors)
    for i, w in enumerate(weights):
        total = _ref_axpy(total, -w, expand((1,), factors[:i] + factors[i + 1 :]))
    return total


def _ref_with_singletons(sizes, weights, h):
    """(x+1) * det_poly - h * prod(x+4-3m); x + 1 - h without sizes."""
    if not sizes:
        return [1 - h, 1]
    prod_all = expand((1,), [(4 - 3 * m, 1) for m in sizes])
    return _ref_axpy(poly_mul([1, 1], _ref_det_poly(sizes, weights)), -h, prod_all)


def ref_det_B_charpoly(p):
    return tuple(_ref_det_poly(p.parts, p.parts))


def ref_reduced_poly_p(p):
    big = p.parts[: p.s]
    return tuple(_ref_with_singletons(big, big, p.h))


def ref_deflated_residual(p):
    counts = {}
    for m in p.parts[: p.s]:
        counts[m] = counts.get(m, 0) + 1
    sizes = sorted(counts)
    weights = [counts[m] * m for m in sizes]
    if p.h == 0:
        return tuple(_ref_det_poly(sizes, weights))
    return tuple(_ref_with_singletons(sizes, weights, p.h))


def ref_det_delta_exact(p):
    sizes = p.parts
    prod_all = 1
    for ni in sizes:
        prod_all *= 3 * ni - 4
    total = prod_all
    for i, ni in enumerate(sizes):
        partial = ni
        for j, nj in enumerate(sizes):
            if j != i:
                partial *= 3 * nj - 4
        total += partial
    return (-4) ** (p.n - p.t) * total


def ref_lambda_s1_sign(p):
    big = p.parts[: p.s]
    prod_all = 1
    for ni in big:
        prod_all *= 3 * ni - 4
    lhs = (p.h - 1) * prod_all
    rhs = 0
    for i, ni in enumerate(big):
        partial = ni
        for j, nj in enumerate(big):
            if j != i:
                partial *= 3 * nj - 4
        rhs += partial
    if lhs > rhs:
        return Sign.POSITIVE
    if lhs == rhs:
        return Sign.ZERO
    return Sign.NEGATIVE


@st.composite
def grouped_partitions(draw, max_distinct=80, tops=(40, 10**20)):
    """Up to max_distinct distinct sizes >= 2 (up to 40, so many repeat, or up
    to 10^20), up to 8 extra copies of drawn sizes, and 0-5 singletons."""
    top = draw(st.sampled_from(tops))
    sizes = draw(st.lists(st.integers(2, top), unique=True, max_size=max_distinct))
    repeats = draw(st.lists(st.sampled_from(sizes), max_size=8)) if sizes else []
    h = draw(st.integers(0, 5))
    parts = sizes + repeats
    return Partition(tuple(parts) + (1,) * max(h, 2 - len(parts)))


@st.composite
def knife_edge_partitions(draw):
    """lambda_{s+1} = 0: each 2 adds 1 to sum m/(3m-4), each pair of 4s adds
    1 and each five 3s add 3, so h - 1 equals the sum exactly."""
    twos, fours, threes = draw(st.tuples(*[st.integers(0, 4)] * 3))
    twos = max(twos, 1 - fours - threes)
    h = twos + fours + 3 * threes + 1
    return Partition((4,) * (2 * fours) + (3,) * (5 * threes) + (2,) * twos + (1,) * h)


partitions_st = st.one_of(
    grouped_partitions(),
    grouped_partitions(max_distinct=6),
    knife_edge_partitions(),
)
# det_delta_exact carries (-4)^(n-t), so its parts stay small
small_partitions_st = st.one_of(
    grouped_partitions(tops=(40,)),
    grouped_partitions(max_distinct=6, tops=(40,)),
    knife_edge_partitions(),
)


def _assert_core_matches_reference(p):
    det_b = ref_det_B_charpoly(p)
    assert det_B_charpoly(p) == det_b
    assert deflated_residual(p).coeffs == ref_deflated_residual(p)
    residual = char_poly_factored(p).residual.coeffs
    if p.h == 0:
        assert residual == det_b
    else:
        assert residual == ref_reduced_poly_p(p)


class TestGroupedCore:
    """The O(d^2) grouped construction equals the nested-loop one exactly."""

    @settings(max_examples=60, deadline=None)
    @given(partitions_st)
    def test_polynomials_match_reference(self, p):
        _assert_core_matches_reference(p)

    @settings(max_examples=200, deadline=None)
    @given(small_partitions_st)
    def test_det_delta_matches_reference(self, p):
        assert det_delta_exact(p) == ref_det_delta_exact(p)

    @settings(max_examples=300, deadline=None)
    @given(partitions_st)
    def test_sign_matches_reference(self, p):
        if p.h == 0:
            return
        assert lambda_s1_sign(p) is ref_lambda_s1_sign(p)

    @pytest.mark.parametrize("h", [0, 3])
    def test_eighty_distinct_sizes(self, h):
        sizes = list(range(2, 82))
        sizes[::7] = [10**20 - i for i in range(len(sizes[::7]))]
        parts = sizes + sizes[:6] + sizes[:2]  # two or three copies of some sizes
        _assert_core_matches_reference(Partition(tuple(parts) + (1,) * h))

    @pytest.mark.parametrize(
        "parts", [(2, 1, 1), (2, 2, 1, 1, 1), (4, 4, 2, 1, 1, 1), (3,) * 5 + (1,) * 4]
    )
    def test_knife_edge(self, parts):
        p = Partition(parts)
        assert lambda_s1_sign(p) is Sign.ZERO is ref_lambda_s1_sign(p)
        assert criterion_gap(parts) == 0
        assert det_delta_exact(p) == ref_det_delta_exact(p) == 0
        _assert_core_matches_reference(p)
