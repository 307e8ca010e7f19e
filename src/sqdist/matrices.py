"""Squared distance matrices: the block fill and the oracle's BFS route.

The oracle's Δ follows the paper's definition: the explicit multipartite
graph, held as its part sizes, gives the adjacency (an edge iff the part
labels differ), and BFS shortest-path lengths are squared entrywise.  The
block fill (within-part entries 4, cross-part entries 1) is the closed form
of the same matrix, kept as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import bfs_distances
from .errors import SqDistError
from .partitions import Partition

# Largest order built explicitly: the matrix holds n^2 floats and BFS a few
# n x n boolean and integer arrays, so all stay within tens of megabytes.
MAX_ORDER = 500


def _check_order(p: Partition) -> None:
    if p.n > MAX_ORDER:
        raise SqDistError(f"order n = {p.n} > {MAX_ORDER}: too large to build explicitly")


@dataclass
class DenseSymMatrix:
    """Symmetric float matrix; multipartite entries are the integers 0, 1
    and 4, stored as floats because the eigensolver consumes floats."""

    data: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SimpleGraph:
    """Complete multipartite graph held as its part sizes: vertices are
    numbered part by part, and two are adjacent iff their parts differ."""

    parts: tuple[int, ...]

    def adjacency(self) -> np.ndarray:
        labels = np.repeat(np.arange(len(self.parts)), self.parts)
        return labels[:, None] != labels[None, :]


def sqdist_from_partition(p: Partition) -> DenseSymMatrix:
    """Closed-form squared distance matrix of K_{n1,...,nt}.

    Raises SqDistError above MAX_ORDER.
    """
    _check_order(p)
    n = p.n
    data = np.ones((n, n), dtype=np.float64)
    offset = 0
    for size in p.parts:
        block = slice(offset, offset + size)
        data[block, block] = 4.0
        offset += size
    np.fill_diagonal(data, 0.0)
    return DenseSymMatrix(data)


def multipartite_graph(p: Partition) -> SimpleGraph:
    """Explicit K_{n1,...,nt}: edge iff endpoints lie in different parts.

    Raises SqDistError above MAX_ORDER.
    """
    _check_order(p)
    return SimpleGraph(parts=p.parts)


def sqdist_from_graph(g: SimpleGraph) -> DenseSymMatrix:
    """BFS all-pairs shortest paths, entrywise squared."""
    dist = bfs_distances(g.adjacency())
    if (dist < 0).any():
        raise SqDistError("graph is not connected")
    return DenseSymMatrix(dist.astype(np.float64) ** 2)
