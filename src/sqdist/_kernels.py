"""Hot numeric kernels: threshold round-robin Jacobi eigensolver and BFS distances.

Both are plain numpy.  Jacobi visits the pairs of each sweep in the parallel
(round-robin) cyclic ordering of Brent and Luk (1985), whose schedule is built
once per order and cached.  The pairs of a round are disjoint, so their
rotations commute.  It is a threshold Jacobi (Rutishauser, "The Jacobi method
for real symmetric matrices", Numer. Math. 9, 1966): a round rotates only its
live pairs, those with |a[p, q]| > tol_abs / n, and skips a round with none.
The k live rotations are stacked as one (k, 2, 2) array and applied with two
batched matmuls: one on the k row pairs (p, q), gathered as k blocks of 2 x n,
and one on the column pairs through the transposed view.  The entries a[p, q]
and a[q, p] that the round annihilates are then set to exactly 0, so no
rounding residue is left for the next sweep to chase.

The skip cannot stall the loop.  A sweep that skips every pair changes
nothing, and then every off-diagonal entry is at most tol_abs / n, so the
off-diagonal norm is at most sqrt(n(n-1)) * tol_abs / n < tol_abs and the next
check stops.  The loop still ends only on that check or at max_sweeps.

BFS expands the frontiers of all sources at once, as one float64 matmul; the
path counts it forms are at most n, so they are exact.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=8)  # 2 MB at n = 500, so at most 16 MB
def schedule(n: int) -> np.ndarray:
    """round_robin(n) as one read-only (rounds, n // 2, 2) array of (p, q) rows.

    A round's rows, raveled, interleave p and q, so a[pairs.ravel()] gathers
    its row pairs as stacked 2 x n blocks.
    """
    rounds = round_robin(n)
    sched = np.array([np.stack(pq, axis=1) for pq in rounds], dtype=np.intp)
    sched = sched.reshape(len(rounds), n // 2, 2)
    sched.setflags(write=False)
    return sched


def jacobi_eigensystem(mat: np.ndarray, tol_abs: float, max_sweeps: int):
    """Threshold cyclic Jacobi on a copy of mat; returns (eigvals, sweeps, off).

    Sweeps stop once the off-diagonal norm is at most tol_abs or after
    max_sweeps sweeps; off is the last norm measured.  A pair whose entry is
    at most tol_abs / n in magnitude is not rotated.
    """
    a = np.array(mat, dtype=np.float64, copy=True)
    n = a.shape[0]
    thresh = tol_abs / max(n, 1)
    sched = schedule(n)
    rot = np.empty((n // 2, 2, 2))
    for sweeps in range(max_sweeps + 1):
        off = math.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= tol_abs:
            break
        for pairs, p, q in zip(sched, sched[:, :, 0], sched[:, :, 1]):
            apq = a[p, q]
            live = np.abs(apq) > thresh
            if not live.all():
                if not live.any():
                    continue
                pairs, p, q, apq = pairs[live], p[live], q[live], apq[live]
            k = len(apq)
            delta = a[q, q] - a[p, p]
            # tan of the smaller rotation angle, sign(theta) / (|theta| + sqrt(1 +
            # theta^2)) for theta = delta / 2apq, scaled by 2|apq| so that no
            # quotient overflows when apq is tiny; a live apq is never 0
            t = np.copysign(2.0, delta) * apq / (np.abs(delta) + np.hypot(delta, 2.0 * apq))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            r = rot[:k]
            r[:, 0, 0] = r[:, 1, 1] = c
            r[:, 0, 1] = -s
            r[:, 1, 0] = s
            pq = pairs.ravel()
            a[pq] = (r @ a[pq].reshape(k, 2, n)).reshape(2 * k, n)
            a.T[pq] = (r @ a.T[pq].reshape(k, 2, n)).reshape(2 * k, n)
            a[p, q] = a[q, p] = 0.0
    return np.diag(a).copy(), sweeps, off


def bfs_distances(adj: np.ndarray) -> np.ndarray:
    """BFS from every source on a dense adjacency matrix; -1 = unreachable."""
    n = adj.shape[0]
    reach = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    dist = np.where(reach, 0, -1).astype(np.int64)
    adj_f = adj.astype(np.float64)
    d = 0
    while frontier.any():
        d += 1
        frontier = ((frontier @ adj_f) > 0) & ~reach
        dist[frontier] = d
        reach |= frontier
    return dist
