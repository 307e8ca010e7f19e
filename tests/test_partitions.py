from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_partitions, prefix_dominates
from sqdist.errors import (
    DisconnectedGraph,
    EmptyInput,
    Identical,
    InfeasibleParameters,
    MismatchedLength,
    MismatchedTotals,
    NonPositivePart,
    NotMajorized,
    PartCountBelowTwo,
)
from sqdist.partitions import (
    MAX_CHAIN_STEPS,
    Partition,
    Verdict,
    canonicalize,
    complete_split,
    count_partitions,
    elementary_chain,
    enumerate_class,
    enumerate_partitions,
    majorizes,
    parse_partition,
    split_h,
    turan,
    turan_h,
)

# hypothesis strategy: a canonical partition with 2..6 parts of size 1..8
partitions_st = st.lists(
    st.integers(min_value=1, max_value=8), min_size=2, max_size=6
).map(lambda xs: Partition(tuple(sorted(xs, reverse=True))))


class TestCanonicalize:
    def test_sorts_and_counts(self):
        p = canonicalize([1, 2, 2])
        assert p.parts == (2, 2, 1)
        assert (p.n, p.t, p.h, p.s) == (5, 3, 1, 2)

    def test_complete_graph_k2(self):
        p = canonicalize([1, 1])
        assert (p.n, p.t, p.h, p.s) == (2, 2, 2, 0)

    def test_already_canonical(self):
        p = canonicalize([5, 2, 2, 2])
        assert p.parts == (5, 2, 2, 2)
        assert (p.n, p.t, p.h, p.s) == (11, 4, 0, 4)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            canonicalize([])

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositivePart):
            canonicalize([3, 0])
        with pytest.raises(NonPositivePart):
            canonicalize([-1, 2])

    def test_constructor_sorts_and_validates(self):
        assert Partition((1, 2, 2)) == canonicalize([2, 2, 1])
        with pytest.raises(NonPositivePart):
            Partition((2, 0))

    def test_single_part_rejected(self):
        with pytest.raises(PartCountBelowTwo):
            canonicalize([4])

    def test_constructor_rejects_what_is_not_a_connected_graph(self):
        with pytest.raises(EmptyInput):
            Partition(())
        with pytest.raises(DisconnectedGraph):
            Partition((5,))  # edgeless: Delta is undefined
        assert Partition((1,)).n == 1  # K_1 is connected

    def test_parse(self):
        assert parse_partition("5,2,2,1").parts == (5, 2, 2, 1)
        assert parse_partition("1,2,2").parts == (2, 2, 1)
        with pytest.raises(NonPositivePart):
            parse_partition("2,x")


# raw part lists of at least two parts, unsorted, with repeated sizes,
# singletons and parts up to 10^20, each paired with a permutation of itself
raw_parts_st = st.lists(
    st.one_of(st.just(1), st.integers(1, 4), st.integers(1, 10**20)),
    min_size=2, max_size=12,
).flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs)))


class TestDerivedCounts:
    @given(raw_parts_st)
    @settings(max_examples=100)
    @example(([1, 1, 1, 1], [1, 1, 1, 1]))
    @example(([3, 1, 3, 10**20, 1, 3], [1, 3, 10**20, 3, 1, 3]))
    def test_counts_match_a_recount(self, raw_and_permuted):
        raw, permuted = raw_and_permuted
        p = Partition(tuple(raw))
        assert p.pairs == tuple(sorted(Counter(raw).items()))
        assert p.n == sum(raw) and p.t == len(raw)
        assert p.h == raw.count(1) and p.s == len(raw) - raw.count(1)
        q = Partition(tuple(permuted))  # derived counts not read yet
        assert p == q and hash(p) == hash(q) and not p < q and not q < p
        assert repr(p) == repr(q) == f"Partition(parts={tuple(sorted(raw, reverse=True))!r})"


class TestMajorizes:
    def test_strict(self):
        assert majorizes(Partition((3, 1)), Partition((2, 2))) is Verdict.STRICT

    def test_equal(self):
        assert majorizes(Partition((2, 2)), Partition((2, 2))) is Verdict.EQUAL

    def test_not_majorized(self):
        assert (
            majorizes(Partition((2, 2)), Partition((3, 1)))
            is Verdict.NOT_MAJORIZED
        )

    def test_incomparable(self):
        x, y = Partition((4, 4, 2, 1, 1)), Partition((5, 2, 2, 2, 1))
        assert majorizes(x, y) is Verdict.INCOMPARABLE
        assert majorizes(y, x) is Verdict.INCOMPARABLE

    def test_mismatched_totals(self):
        with pytest.raises(MismatchedTotals):
            majorizes(Partition((4, 1, 1)), Partition((3, 3, 1)))

    def test_mismatched_length(self):
        with pytest.raises(MismatchedLength):
            majorizes(Partition((3, 3)), Partition((3, 2, 1)))

    def test_split_majorizes_everything(self):
        # the complete split partition tops the dominance order
        for n in range(2, 11):
            for t in range(2, n + 1):
                top = complete_split(n, t)
                for p in enumerate_partitions(n, t):
                    assert majorizes(top, p) in (Verdict.STRICT, Verdict.EQUAL)

    def test_turan_is_majorized_by_everything(self):
        for n in range(2, 11):
            for t in range(2, n + 1):
                bot = turan(n, t)
                for p in enumerate_partitions(n, t):
                    assert majorizes(p, bot) in (Verdict.STRICT, Verdict.EQUAL)

    @given(partitions_st, partitions_st)
    def test_agrees_with_prefix_oracle(self, x, y):
        if x.n != y.n or x.t != y.t:
            return
        verdict = majorizes(x, y)
        fwd = prefix_dominates(x.parts, y.parts)
        back = prefix_dominates(y.parts, x.parts)
        expected = {
            (True, True): Verdict.EQUAL,
            (True, False): Verdict.STRICT,
            (False, True): Verdict.NOT_MAJORIZED,
            (False, False): Verdict.INCOMPARABLE,
        }[(fwd, back)]
        assert verdict is expected


class TestElementaryChain:
    def test_small_chain(self):
        chain = elementary_chain(Partition((4, 1, 1)), Partition((2, 2, 2)))
        assert [c.parts for c in chain] == [(3, 2, 1), (2, 2, 2)]

    def test_identical_rejected(self):
        with pytest.raises(Identical):
            elementary_chain(Partition((2, 2)), Partition((2, 2)))

    def test_not_majorized_rejected(self):
        with pytest.raises(NotMajorized):
            elementary_chain(Partition((2, 2)), Partition((3, 1)))

    def test_longest_allowed_chain(self):
        # moving MAX_CHAIN_STEPS units from the first part to the second
        k = MAX_CHAIN_STEPS
        chain = elementary_chain(Partition((2 * k + 1, 1)), Partition((k + 1, k + 1)))
        assert len(chain) == k
        with pytest.raises(InfeasibleParameters, match="steps"):
            elementary_chain(Partition((2 * k + 3, 1)), Partition((k + 2, k + 2)))

    def _check_chain(self, y, x):
        chain = elementary_chain(y, x)
        prev = y
        for cur in chain:
            # each link is one elementary move (-1 at a, +1 at b > a), stays
            # descending, and keeps strict majorization over both the next
            # member and the target
            diff = [c - p for c, p in zip(cur.parts, prev.parts)]
            assert [d for d in diff if d] == [-1, 1]
            assert all(a >= b for a, b in zip(cur.parts, cur.parts[1:]))
            assert majorizes(prev, cur) is Verdict.STRICT
            assert majorizes(cur, x) in (Verdict.STRICT, Verdict.EQUAL)
            prev = cur
        assert chain[-1] == x

    def test_paper_style_long_chain(self):
        y = Partition((10,) + (2,) * 7 + (1,) * 7)
        x = Partition((3,) * 8 + (1,) * 7)
        self._check_chain(y, x)

    def test_all_pairs_small(self):
        for n in range(3, 9):
            for t in range(2, n + 1):
                members = list(enumerate_partitions(n, t))
                for y in members:
                    for x in members:
                        if majorizes(y, x) is Verdict.STRICT:
                            self._check_chain(y, x)

    def test_length_is_the_surplus(self):
        for n in range(3, 13):
            for t in range(2, n + 1):
                members = list(enumerate_partitions(n, t))
                for y in members:
                    for x in members:
                        if majorizes(y, x) is Verdict.STRICT:
                            surplus = sum(max(0, a - b) for a, b in zip(y.parts, x.parts))
                            assert len(elementary_chain(y, x)) == surplus

    @given(partitions_st, st.lists(st.integers(0, 1000), max_size=8))
    @settings(max_examples=200)
    def test_random_descents(self, y, seeds):
        # walk down from y by random elementary moves, then rebuild a chain
        cur = list(y.parts)
        for seed in seeds:
            moves = [
                (a, b)
                for a in range(len(cur))
                for b in range(len(cur))
                if cur[a] >= cur[b] + 2
            ]
            if not moves:
                break
            a, b = moves[seed % len(moves)]
            cur[a] -= 1
            cur[b] += 1
            cur.sort(reverse=True)
        x = Partition(tuple(cur))
        if majorizes(y, x) is Verdict.STRICT:
            self._check_chain(y, x)


class TestExtremalFamilies:
    def test_complete_split(self):
        assert complete_split(31, 15).parts == (17,) + (1,) * 14
        assert complete_split(4, 2).parts == (3, 1)

    def test_turan(self):
        assert turan(7, 3).parts == (3, 2, 2)
        assert turan(6, 3).parts == (2, 2, 2)
        assert turan(31, 15).parts == (3,) + (2,) * 14

    def test_split_h(self):
        assert split_h(31, 15, 7).parts == (10,) + (2,) * 7 + (1,) * 7

    def test_turan_h(self):
        assert turan_h(30, 15, 7).parts == (3,) * 7 + (2,) + (1,) * 7
        assert turan_h(31, 15, 7).parts == (3,) * 8 + (1,) * 7

    def test_infeasible(self):
        with pytest.raises(InfeasibleParameters):
            complete_split(3, 4)
        with pytest.raises(InfeasibleParameters):
            turan(5, 1)
        with pytest.raises(InfeasibleParameters):
            split_h(5, 3, 2)  # s = 1
        with pytest.raises(InfeasibleParameters):
            turan_h(5, 3, 0)  # n - h < 2s


class TestEnumeration:
    def test_by_hand_5_2(self):
        assert [p.parts for p in enumerate_partitions(5, 2)] == [(4, 1), (3, 2)]

    def test_by_hand_6_3(self):
        assert [p.parts for p in enumerate_partitions(6, 3)] == [
            (4, 1, 1),
            (3, 2, 1),
            (2, 2, 2),
        ]

    def test_matches_brute_force(self):
        for n in range(2, 15):
            for t in range(2, n + 1):
                got = [p.parts for p in enumerate_partitions(n, t)]
                # the same sequence: every partition once, reverse-lex
                assert got == sorted(brute_force_partitions(n, t), reverse=True), (n, t)

    def test_class_of_thousands_of_parts(self):
        got = [p.parts for p in enumerate_class(4005, 2002, 1)]
        assert got == [(4,) + (2,) * 2000 + (1,), (3, 3) + (2,) * 1999 + (1,)]

    def test_guard(self):
        with pytest.raises(InfeasibleParameters):
            list(enumerate_partitions(3, 4))

    def test_class_enumeration(self):
        members = list(enumerate_class(31, 15, 7))
        assert all(p.n == 31 and p.t == 15 and p.h == 7 for p in members)
        assert len(members) == len(set(members))
        assert split_h(31, 15, 7) in members
        assert turan_h(31, 15, 7) in members
        # bijection with partitions of n-h into s parts all >= 2
        expected = {
            tuple(q + 1 for q in inner) + (1,) * 7
            for inner in brute_force_partitions(31 - 7 - 8, 8)
        }
        assert {p.parts for p in members} == expected

    def test_count_matches_brute_force(self):
        for n in range(1, 15):
            for t in range(1, n + 3):
                assert count_partitions(n, t, 10**9) == len(brute_force_partitions(n, t)), (n, t)

    def test_count_stops_at_the_cap(self):
        assert count_partitions(200, 100, 10**9) == 190_569_292  # p(100)
        assert count_partitions(12, 3, 11) == 12 and count_partitions(12, 3, 10) == 11
        for n, t in [(200, 100), (10**12, 2), (400_000, 200_000)]:
            assert count_partitions(n, t, 10**5) == 10**5 + 1
        assert count_partitions(10**12, 10**12 - 5, 10**5) == 7  # p(5)
        assert count_partitions(10**12, 1, 10**5) == 1

    def test_class_small(self):
        got = sorted(p.parts for p in enumerate_class(7, 3, 1))
        assert got == [(3, 3, 1), (4, 2, 1)]
