"""Shared independent oracles for the test suite.

Nothing here imports the closed-form charpoly/spectrum code paths under
test: determinants come from fraction-free Bareiss elimination, the
characteristic polynomial from Bareiss evaluations plus exact Lagrange
interpolation, and partition enumeration from a dumb brute-force recursion.
The paper's own formulas that the package does not need (the reduced t x t
matrix B, the bipartite Perron value, the rational sign gap) live here too.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import combinations

from sqdist.partitions import Partition


def pytest_terminal_summary(terminalreporter):
    """One [PASS]/[FAIL] line per acceptance criterion, always visible."""
    mod = sys.modules.get("test_acceptance")
    if mod is None:
        return
    outcome_of = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = report.nodeid.split("::")[-1]
            outcome_of[name] = "PASS" if status == "passed" else "FAIL"
    lines = []
    for name, (num, desc) in sorted(mod.CRITERIA.items(), key=lambda kv: kv[1][0]):
        if name in outcome_of:
            lines.append(f"[{outcome_of[name]}] criterion {num}: {desc}")
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in lines:
            terminalreporter.write_line(line)


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly_via_bareiss(rows: list[list[int]]) -> list[int]:
    """Exact coefficients (ascending) of det(xI - A) for integer A.

    Evaluates the determinant at n+1 integer points with Bareiss and
    recovers the degree-n polynomial by Lagrange interpolation over
    Fractions; completely independent of the closed-form factorization.
    """
    n = len(rows)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [
            [(x if i == j else 0) - rows[i][j] for j in range(n)]
            for i in range(n)
        ]
        ys.append(bareiss_det(shifted))
    # Lagrange interpolation, coefficient form
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] += c * (-xj)
                nxt[d + 1] += c
            basis = nxt
        w = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * w
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def brute_force_partitions(n: int, t: int) -> set[tuple[int, ...]]:
    """All partitions of n into exactly t parts, by composition filtering."""
    out = set()

    def rec(remaining: int, slots: int, acc: tuple[int, ...]) -> None:
        if slots == 1:
            if remaining >= 1:
                out.add(tuple(sorted(acc + (remaining,), reverse=True)))
            return
        for first in range(1, remaining - slots + 2):
            rec(remaining - first, slots - 1, acc + (first,))

    rec(n, t, ())
    return out


def prefix_dominates(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Raw majorization check on two equal-length descending tuples."""
    ax = ay = 0
    for a, b in zip(x, y):
        ax += a
        ay += b
        if ax < ay:
            return False
    return ax == ay


def triangle_distances(edges: set[tuple[int, int]], n: int) -> list[list[int]]:
    """Floyd-Warshall shortest paths, the slow-but-obvious oracle."""
    inf = n + 10
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


def all_partitions_upto(n_max: int):
    """(n, t, parts) over every partition with 2 <= t <= n <= n_max."""
    for n in range(2, n_max + 1):
        for t in range(2, n + 1):
            for parts in sorted(brute_force_partitions(n, t), reverse=True):
                yield n, t, parts


def complete_multipartite_edges(parts: tuple[int, ...]) -> set[tuple[int, int]]:
    """Edge set oracle built straight from the definition."""
    labels = [idx for idx, size in enumerate(parts) for _ in range(size)]
    return {(u, v) for u, v in combinations(range(len(labels)), 2) if labels[u] != labels[v]}


def poly_mul(a, b) -> tuple[int, ...]:
    """Product of two ascending coefficient sequences, trailing zeros dropped."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def expand(residual, linear_factors) -> tuple[int, ...]:
    """Ascending coefficients of residual * prod (x + c)^mult over the
    (c, mult) factors: a factored characteristic polynomial multiplied out."""
    out = tuple(residual)
    for c, mult in linear_factors:
        for _ in range(mult):
            out = poly_mul(out, (c, 1))
    return out


def certified(root) -> bool:
    """One of the two certificate forms of an isolating bracket: lo < hi
    with nonzero signs of opposite sign at the ends, or lo == hi where the
    sign is 0."""
    at_lo, at_hi = root.poly(root.lo_exact), root.poly(root.hi_exact)
    if root.lo_exact == root.hi_exact:
        return at_lo == 0
    return root.lo_exact < root.hi_exact and at_lo * at_hi < 0


def reduced_matrix_B(parts: tuple[int, ...]) -> list[list[int]]:
    """The t x t reduction of Delta: diagonal 4(ni - 1), row i off-diagonal ni."""
    t = len(parts)
    return [[4 * (parts[i] - 1) if i == j else parts[i] for j in range(t)] for i in range(t)]


def criterion_gap(parts: tuple[int, ...]) -> Fraction:
    """(h-1) - sum ni/(3ni-4) over the parts >= 2, as an exact rational."""
    h = parts.count(1)
    return Fraction(h - 1) - sum(
        (Fraction(ni, 3 * ni - 4) for ni in parts if ni > 1), Fraction(0)
    )


def radius_bipartite_closed(n1: int, n2: int) -> float:
    """The paper's closed-form Perron value of K_{n1,n2}."""
    if n1 < 1 or n2 < 1:
        raise ValueError("part sizes must be >= 1")
    return 2 * (n1 + n2) + math.sqrt(4 * (n1 - n2) ** 2 + n1 * n2) - 4


def elementary_neighbors(p: Partition) -> list[Partition]:
    """All partitions one elementary step below p (unit moved p_a -> p_b
    with p_a >= p_b + 2), deduplicated after canonical sorting."""
    out = set()
    parts = p.parts
    for a in range(len(parts)):
        for b in range(len(parts)):
            if a != b and parts[a] >= parts[b] + 2:
                moved = list(parts)
                moved[a] -= 1
                moved[b] += 1
                out.add(Partition(tuple(moved)))
    return sorted(out)
