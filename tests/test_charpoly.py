from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_partitions_upto, bareiss_det, charpoly_via_bareiss
from sqdist.charpoly import (
    IntPolynomial,
    Sign,
    char_poly_factored,
    criterion_gap,
    det_B_charpoly,
    det_delta_exact,
    lambda_s1_sign,
    linear,
    reduced_matrix_B,
    reduced_poly_p,
)
from sqdist.errors import NoSingletonParts, NotApplicable
from sqdist.matrices import sqdist_from_partition
from sqdist.partitions import Partition


class TestIntPolynomial:
    def test_arithmetic(self):
        p = linear(-2) * linear(-6)  # (x-2)(x-6)
        assert p.coeffs == (12, -8, 1)
        assert (p - IntPolynomial((12,))).coeffs == (0, -8, 1)
        assert p.scale(3).coeffs == (36, -24, 3)

    def test_trailing_zeros_normalized(self):
        assert IntPolynomial.make([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial.make([0, 0]).coeffs == ()

    def test_exact_evaluation(self):
        p = linear(-2) * linear(-6)
        assert p(2) == 0 and p(6) == 0
        assert p(Fraction(1, 2)) == Fraction(33, 4)

    def test_json(self):
        assert linear(4).to_json() == {"coeffs": ["4", "1"], "ascending": True}

    def test_sign_at_examples(self):
        p = IntPolynomial((-1, 3)) * linear(2)  # (3x - 1)(x + 2)
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
        poly = IntPolynomial((-num, den)) * IntPolynomial.make(coeffs)
        assert poly.sign_at(num, den) == 0


class TestReducedMatrix:
    def test_2_2(self):
        assert reduced_matrix_B(Partition((2, 2))) == [[4, 2], [2, 4]]

    def test_3_2(self):
        assert reduced_matrix_B(Partition((3, 2))) == [[8, 3], [2, 4]]

    def test_2_1_1(self):
        assert reduced_matrix_B(Partition((2, 1, 1))) == [
            [4, 2, 2],
            [1, 0, 1],
            [1, 1, 0],
        ]

    def test_charpoly_matches_reduced_matrix(self):
        # det(xI - B) from the closed form vs Bareiss interpolation on B
        for _, _, parts in all_partitions_upto(9):
            p = Partition(parts)
            assert list(det_B_charpoly(p).coeffs) == charpoly_via_bareiss(
                reduced_matrix_B(p)
            )


class TestDetBCharpoly:
    def test_2_2(self):
        assert det_B_charpoly(Partition((2, 2))).coeffs == (12, -8, 1)

    def test_3_2(self):
        assert det_B_charpoly(Partition((3, 2))).coeffs == (26, -12, 1)

    def test_1_1(self):
        # (x+1)^2 - 2(x+1) = (x+1)(x-1)
        assert det_B_charpoly(Partition((1, 1))).coeffs == (-1, 0, 1)

    def test_monic_degree_t(self):
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            q = det_B_charpoly(p)
            assert q.is_monic() and q.degree == p.t

    def test_all_roots_positive_when_parts_ge_2(self):
        # reduced-matrix eigenvalues are positive without singleton parts
        for _, _, parts in all_partitions_upto(12):
            if min(parts) < 2:
                continue
            coeffs = det_B_charpoly(Partition(parts)).coeffs
            roots = np.roots(list(reversed(coeffs)))
            # np.roots scatters a multiplicity-k root into a cluster of
            # radius ~eps^(1/k); the true roots are all >= 2, so the
            # clusters stay far inside the right half-plane
            assert np.all(roots.real > 1)
            assert np.all(np.abs(roots.imag) < 1)


class TestReducedPolyP:
    def test_2_1_1(self):
        assert reduced_poly_p(Partition((2, 1, 1))).coeffs == (0, -5, 1)

    def test_complete_graph(self):
        assert reduced_poly_p(Partition((1, 1, 1))).coeffs == (-2, 1)

    def test_requires_singletons(self):
        with pytest.raises(NoSingletonParts):
            reduced_poly_p(Partition((2, 2)))

    def test_monic_degree_s_plus_1(self):
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            if p.h == 0 or p.s == 0:
                continue
            q = reduced_poly_p(p)
            assert q.is_monic() and q.degree == p.s + 1

    def test_no_root_at_or_below_minus_one(self):
        # the residual keeps a constant sign on (-inf, -1]
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            if p.h == 0 or p.s == 0:
                continue
            q = reduced_poly_p(p)
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
            expanded = char_poly_factored(p).expand()
            rows = sqdist_from_partition(p).int_rows()
            assert list(expanded.coeffs) == charpoly_via_bareiss(rows)
            assert expanded.is_monic() and expanded.degree == p.n


class TestDeterminant:
    def test_examples(self):
        assert det_delta_exact(Partition((2, 2))) == 192
        assert det_delta_exact(Partition((2, 1, 1))) == 0
        assert det_delta_exact(Partition((1, 1))) == -1

    def test_matches_bareiss(self):
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            rows = sqdist_from_partition(p).int_rows()
            assert det_delta_exact(p) == bareiss_det(rows)

    def test_constant_term_identity(self):
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            c0 = char_poly_factored(p).expand()(0)
            assert det_delta_exact(p) == (-1) ** p.n * c0


class TestSignCriterion:
    def test_zero_case(self):
        assert lambda_s1_sign(Partition((2, 1, 1))) is Sign.ZERO

    def test_negative_case(self):
        assert lambda_s1_sign(Partition((2, 2, 1))) is Sign.NEGATIVE

    def test_positive_case(self):
        p = Partition((5, 2, 2, 2) + (1,) * 6)
        assert lambda_s1_sign(p) is Sign.POSITIVE

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            lambda_s1_sign(Partition((2, 2)))
        with pytest.raises(NotApplicable):
            lambda_s1_sign(Partition((1, 1, 1)))

    def test_agrees_with_rational_gap(self):
        # integer criterion == sign of (h-1) - sum ni/(3ni-4)
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            if p.h == 0 or p.s == 0:
                continue
            gap = criterion_gap(p)
            expected = (
                Sign.POSITIVE if gap > 0 else Sign.ZERO if gap == 0 else Sign.NEGATIVE
            )
            assert lambda_s1_sign(p) is expected
