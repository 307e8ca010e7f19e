"""Hot numeric kernels: round-robin Jacobi eigensolver and BFS all-pairs distances.

Both are plain numpy.  Jacobi visits the pairs of each sweep in the parallel
(round-robin) cyclic ordering of Brent and Luk (1985).  The pairs of a round
are disjoint, so their rotations commute.  A round stacks its h = n // 2
rotations as one (h, 2, 2) array and applies them with two batched matmuls:
one on the h row pairs (p, q), gathered as h blocks of 2 x n, and one on the
column pairs through the transposed view.  The entries a[p, q] and a[q, p]
that the round annihilates are then set to exactly 0, so no rounding residue
is left for the next sweep to chase.  That makes n - 1 rounds of a few numpy
calls per sweep instead of n(n-1)/2 single rotations.  BFS expands the
frontiers of all sources at once.
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
    n = a.shape[0]
    h = n // 2  # pairs in every round, odd n included
    # each round's rows p and q interleaved, so a[pq] is h stacked 2 x n blocks
    rounds = [(p, q, np.stack((p, q), axis=1).ravel()) for p, q in round_robin(n)]
    rot = np.empty((h, 2, 2))
    for sweeps in range(max_sweeps + 1):
        off = math.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= tol_abs:
            break
        for p, q, pq in rounds:
            apq = a[p, q]
            delta = a[q, q] - a[p, p]
            # tan of the smaller rotation angle, sign(theta) / (|theta| + sqrt(1 +
            # theta^2)) for theta = delta / 2apq, scaled by 2|apq| so that no
            # quotient overflows when apq is tiny; apq = 0 gives t = 0
            t = np.copysign(2.0, delta) * apq / (
                np.abs(delta) + np.hypot(delta, 2.0 * np.where(apq != 0.0, apq, 1.0))
            )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rot[:, 0, 0] = rot[:, 1, 1] = c
            rot[:, 0, 1] = -s
            rot[:, 1, 0] = s
            a[pq] = (rot @ a[pq].reshape(h, 2, n)).reshape(2 * h, n)
            a.T[pq] = (rot @ a.T[pq].reshape(h, 2, n)).reshape(2 * h, n)
            a[p, q] = a[q, p] = 0.0
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
