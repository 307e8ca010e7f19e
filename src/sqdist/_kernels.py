"""Hot numeric kernels: round-robin Jacobi eigensolver and BFS all-pairs distances.

Both are plain numpy.  Jacobi visits the pairs of each sweep in the parallel
(round-robin) cyclic ordering of Brent and Luk (1985).  The pairs of a round
are disjoint, so their rotations commute and are applied together as
whole-array column and row updates: n - 1 rounds of numpy calls per sweep
instead of n(n-1)/2 single rotations.  BFS expands the frontiers of all
sources at once.
"""

from __future__ import annotations

import math

import numpy as np


def round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of Brent-Luk rounds, each as index arrays (P, Q) with P < Q.

    Every pair p < q of range(n) lies in exactly one round and no index
    occurs twice in a round.  Odd n is padded with a dummy index whose pairs
    are dropped, which gives n rounds; even n gives n - 1.
    """
    m = n + n % 2
    top, bot = list(range(0, m, 2)), list(range(1, m, 2))
    rounds = []
    for _ in range(m - 1):
        pairs = np.array([pq for pq in zip(top, bot) if max(pq) < n], dtype=np.intp)
        pairs = np.sort(pairs.reshape(-1, 2), axis=1)
        rounds.append((pairs[:, 0], pairs[:, 1]))
        top, bot = top[:1] + bot[:1] + top[1:-1], bot[1:] + top[-1:]
    return rounds


def jacobi_eigensystem(mat: np.ndarray, tol_abs: float, max_sweeps: int):
    """Cyclic Jacobi rotations on a copy of mat; returns (eigvals, sweeps, off).

    Sweeps stop once the off-diagonal norm is at most tol_abs or after
    max_sweeps sweeps; off is the last norm measured.  A pair whose entry is
    exactly 0 gets the identity rotation (c = 1, s = 0).
    """
    a = np.array(mat, dtype=np.float64, copy=True)
    rounds = round_robin(a.shape[0])
    for sweeps in range(max_sweeps + 1):
        off = math.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= tol_abs:
            break
        for p, q in rounds:
            apq = a[p, q]
            nonzero = apq != 0.0
            theta = (a[q, q] - a[p, p]) / (2.0 * np.where(nonzero, apq, 1.0))
            t = np.where(
                nonzero,
                np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(1.0 + theta * theta)),
                0.0,
            )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p, row_q = a[p, :], a[q, :]
            a[p, :] = c[:, None] * row_p - s[:, None] * row_q
            a[q, :] = s[:, None] * row_p + c[:, None] * row_q
    return np.diag(a).copy(), sweeps, off


def bfs_distances(adj: np.ndarray) -> np.ndarray:
    """BFS from every source on a dense adjacency matrix; -1 = unreachable."""
    n = adj.shape[0]
    reach = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    dist = np.where(reach, 0, -1).astype(np.int64)
    adj_b = adj.astype(bool)
    d = 0
    while frontier.any():
        d += 1
        frontier = (frontier @ adj_b) & ~reach
        dist[frontier] = d
        reach |= frontier
    return dist
