"""Hot numeric kernels: cyclic Jacobi eigensolver and BFS all-pairs distances.

Both are plain numpy: Jacobi rotations update whole rows and columns at a
time, and BFS expands the frontiers of all sources at once.
"""

from __future__ import annotations

import math

import numpy as np

def jacobi_eigensystem(mat: np.ndarray, tol_abs: float, max_sweeps: int):
    """Cyclic Jacobi rotations on a copy of mat; returns (eigvals, sweeps, off).

    Sweeps stop once the off-diagonal norm is at most tol_abs or after
    max_sweeps sweeps; off is the last norm measured.
    """
    a = np.array(mat, dtype=np.float64, copy=True)
    n = a.shape[0]
    for sweeps in range(max_sweeps + 1):
        off = math.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= tol_abs:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(1.0 + theta * theta)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
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
