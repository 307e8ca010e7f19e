"""Canonical partitions, majorization order, elementary chains, extremal families.

A complete multipartite graph K_{n1,...,nt} is identified (up to isomorphism)
with the descending tuple of its part sizes.  Everything downstream keys off
this tuple.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import SqDistError


@dataclass(frozen=True, order=True)
class Partition:
    """Descending tuple of positive part sizes; the sole graph identifier.

    The constructor sorts the parts descending and raises SqDistError for
    what is not a connected graph: no parts, a part < 1, or one part >= 2,
    which has no edges; K_1 = (1,) is connected.  canonicalize also rejects
    fewer than two parts.
    Derived counts, kept out of eq, hash, order and repr (pairs is computed
    on first read): pairs = (size m, count k) over the distinct sizes, m
    ascending, so singletons are the group (1, h); n = sum of parts,
    t = number of parts, h = number of singleton parts, s = t - h.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise SqDistError("partition must have at least one part")
        if min(self.parts) < 1:
            raise SqDistError(f"all parts must be >= 1, got {list(self.parts)}")
        if len(self.parts) == 1 and self.parts[0] >= 2:
            raise SqDistError(f"one part of {self.parts[0]} has no edges")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        counts: dict[int, int] = {}
        for m in reversed(self.parts):  # ascending, and dicts keep that order
            counts[m] = counts.get(m, 0) + 1
        return tuple(counts.items())

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def t(self) -> int:
        return len(self.parts)

    @property
    def h(self) -> int:
        return self.parts.count(1)

    @property
    def s(self) -> int:
        return self.t - self.h

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


class Verdict(enum.Enum):
    STRICT = "strict"
    EQUAL = "equal-after-sort"
    INCOMPARABLE = "incomparable"
    NOT_MAJORIZED = "not-majorized"


def canonicalize(raw: Sequence[int]) -> Partition:
    """Validate and sort a raw part-size sequence into a Partition."""
    parts = tuple(raw)
    if len(parts) == 1 and parts[0] >= 1:  # a part < 1 is reported as such
        raise SqDistError("need at least two parts, got t = 1")
    return Partition(parts)  # sorts, and rejects () and parts < 1


_TEXT = re.compile(r"\s*-?[0-9]+\s*(,\s*-?[0-9]+\s*)*", re.ASCII)


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated textual form, e.g. '5,2,2,1': each part is
    an ASCII integer, with optional whitespace around it."""
    try:
        if _TEXT.fullmatch(text):
            return canonicalize([int(tok) for tok in text.split(",")])
    except ValueError:  # more digits than int() converts
        pass
    raise SqDistError(f"cannot parse partition {text!r}")


def majorizes(x: Partition, y: Partition) -> Verdict:
    """Compare two partitions in the dominance (majorization) order."""
    if x.n != y.n:
        raise SqDistError(f"totals differ: {x.n} vs {y.n}")
    if x.t != y.t:
        raise SqDistError(f"lengths differ: {x.t} vs {y.t}")
    px, py = list(accumulate(x.parts)), list(accumulate(y.parts))
    x_dominates = all(a >= b for a, b in zip(px, py))
    y_dominates = all(b >= a for a, b in zip(px, py))
    if x_dominates and y_dominates:
        return Verdict.EQUAL
    if x_dominates:
        return Verdict.STRICT
    if y_dominates:
        return Verdict.NOT_MAJORIZED
    return Verdict.INCOMPARABLE


# Longest elementary chain built: each step is one unit moved, and a chain
# step is evaluated (radius and energy) by extremal.verify_chain_monotone.
MAX_CHAIN_STEPS = 10**4


def elementary_chain(y: Partition, x: Partition) -> list[Partition]:
    """The links [Y1, ..., Yl] of a chain y = Y0 > Y1 > ... > Yl = x.

    Each step moves one unit from the last copy of cur[j] to the first copy
    of cur[k], where j is the first index with cur[j] > x[j] and k is the
    first index >= j where the prefix sums of cur and x meet.  Two facts
    make this a chain: k is short (cur[k] < x[k]), since the prefix sums
    are strictly apart on [j, k-1] and meet at k; so cur[j] > x[j] >= x[k]
    > cur[k], and the new tuple stays descending and still majorizes x.  Each
    step thus removes one unit of surplus, and the chain has exactly
    sum max(0, yi - xi) links.  Raises SqDistError when that exceeds
    MAX_CHAIN_STEPS.
    """
    verdict = majorizes(y, x)
    if verdict is Verdict.EQUAL:
        raise SqDistError("chain endpoints are equal after sorting")
    if verdict is not Verdict.STRICT:
        raise SqDistError(f"{y} does not strictly majorize {x}")
    excess = sum(max(0, a - b) for a, b in zip(y.parts, x.parts))
    if excess > MAX_CHAIN_STEPS:
        raise SqDistError(f"chain needs {excess} steps > {MAX_CHAIN_STEPS}")

    cur = list(y.parts)
    chain: list[Partition] = []
    for _ in range(excess):
        j = next(i for i, (c, g) in enumerate(zip(cur, x.parts)) if c > g)
        prefixes = enumerate(zip(accumulate(cur), accumulate(x.parts)))
        k = next(i for i, (c, g) in prefixes if i >= j and c == g)
        a = j + cur[j:].count(cur[j]) - 1  # last copy of cur[j]
        b = cur.index(cur[k])  # first copy of cur[k]
        cur[a] -= 1
        cur[b] += 1
        chain.append(Partition(tuple(cur)))
    return chain


def _check_nt(n: int, t: int) -> None:
    if not n >= t >= 2:
        raise SqDistError(f"need n >= t >= 2, got n={n}, t={t}")


def complete_split(n: int, t: int) -> Partition:
    """S_{n,t}: one part of n-t+1 plus t-1 singletons."""
    _check_nt(n, t)
    return Partition((n - t + 1,) + (1,) * (t - 1))


def turan(n: int, t: int) -> Partition:
    """T_{n,t}: the balanced partition into t parts."""
    _check_nt(n, t)
    q, r = divmod(n, t)
    return Partition((q + 1,) * r + (q,) * (t - r))


def _check_nth(n: int, t: int, h: int) -> int:
    s = t - h
    if not (n >= t >= 2 and h >= 0 and s >= 2 and n - h >= 2 * s):
        raise SqDistError(
            f"need t >= 2, s = t-h >= 2 and n-h >= 2s, got n={n}, t={t}, h={h}"
        )
    return s


def split_h(n: int, t: int, h: int) -> Partition:
    """S_{n,t,h}: the split-like maximizer within the class M(n,t,h)."""
    s = _check_nth(n, t, h)
    return Partition((n - 2 * (t - 1) + h,) + (2,) * (s - 1) + (1,) * h)


def turan_h(n: int, t: int, h: int) -> Partition:
    """T_{n,t,h}: balanced split of n-h over the s parts of size >= 2."""
    s = _check_nth(n, t, h)
    q, r = divmod(n - h, s)
    return Partition((q + 1,) * r + (q,) * (s - r) + (1,) * h)


def _descending(n: int, t: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into exactly t >= 1 parts, as descending tuples in
    reverse-lexicographic order, without recursion: each step lowers the
    last a[j] (j < t-1) whose later parts can take a unit under the cap
    a[j] - 1, then refills those parts largest first."""
    a = [n - t + 1] + [1] * (t - 1)
    while True:
        yield tuple(a)
        rest = a[-1]  # sum of a[j:] as j moves left
        for j in range(t - 2, -1, -1):
            rest += a[j]
            if (a[j] - 1) * (t - j) >= rest:
                break
        else:
            return
        v, c = a[j] - 1, t - 1 - j
        full, r = divmod(rest - v - c, v - 1)  # v >= 2 here, since rest >= a[j] + c
        a[j:] = [v] * (full + 1) + [r + 1] * (r > 0) + [1] * (c - full - (r > 0))


def enumerate_partitions(n: int, t: int) -> Iterator[Partition]:
    """All partitions of n into exactly t parts, reverse-lexicographic."""
    _check_nt(n, t)
    for parts in _descending(n, t):
        yield Partition(parts)


def count_partitions(n: int, t: int, cap: int) -> int:
    """min(cap + 1, the number of partitions of n into exactly t parts).

    Less 1 each, they are the partitions of m = n - t into parts of size at
    most t (by conjugation).  ways[i] counts those of i into parts up to j;
    ways[m] grows with j, so the loop stops once it passes cap, and a large
    m passes it at once with its m // 2 + 1 partitions into two parts.
    """
    m = n - t
    if m < 0 or t < 1:
        return 0
    if t == 1:
        return 1
    if m // 2 + 1 > cap:
        return cap + 1
    ways = [1] + [0] * m
    for j in range(1, min(t, m) + 1):
        for i in range(j, m + 1):
            ways[i] += ways[i - j]
        if ways[m] > cap:
            break
    return min(ways[m], cap + 1)


def enumerate_class(n: int, t: int, h: int) -> Iterator[Partition]:
    """All members of M(n,t,h): exactly h singleton parts."""
    s = _check_nth(n, t, h)
    # parts >= 2 summing to n-h  <=>  parts-1 >= 1 summing to n-h-s
    for inner in _descending(n - h - s, s):
        yield Partition(tuple(p + 1 for p in inner) + (1,) * h)
