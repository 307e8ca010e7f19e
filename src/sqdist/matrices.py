"""Squared distance matrices: closed-form construction and the BFS oracle path.

The closed form fills blocks directly (within-part entries 4, cross-part
entries 1); the oracle path builds the multipartite graph explicitly and
squares BFS shortest-path lengths, so the two can be cross-checked entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import bfs_distances
from .errors import DisconnectedGraph, InfeasibleParameters
from .partitions import Partition

# Largest order built explicitly: the matrix holds n^2 floats and the graph
# about n^2/2 edges in a Python set, so both stay within tens of megabytes.
MAX_ORDER = 500


def _check_order(p: Partition) -> None:
    if p.n > MAX_ORDER:
        raise InfeasibleParameters(
            f"order n = {p.n} > {MAX_ORDER}: too large to build explicitly"
        )


@dataclass
class DenseSymMatrix:
    """Symmetric float matrix with an exact integer entry accessor.

    Entries of multipartite squared distance matrices are the integers
    0, 1 and 4; they are stored as floats because the eigensolver consumes
    floats, and recovered exactly through entry_int for the exact modules.
    """

    order: int
    data: np.ndarray = field(repr=False)

    def entry(self, i: int, j: int) -> float:
        return float(self.data[i, j])

    def entry_int(self, i: int, j: int) -> int:
        v = self.data[i, j]
        iv = int(round(v))
        if v != iv:
            raise ValueError(f"entry ({i},{j}) = {v} is not an exact integer")
        return iv

    def int_rows(self) -> list[list[int]]:
        return [[self.entry_int(i, j) for j in range(self.order)] for i in range(self.order)]

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.int_rows())


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph used only by the oracle path."""

    n: int
    edges: frozenset[tuple[int, int]]

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=np.uint8)
        for u, v in self.edges:
            adj[u, v] = 1
            adj[v, u] = 1
        return adj


def sqdist_from_partition(p: Partition) -> DenseSymMatrix:
    """Closed-form squared distance matrix of K_{n1,...,nt}.

    Raises InfeasibleParameters above MAX_ORDER.
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
    return DenseSymMatrix(order=n, data=data)


def multipartite_graph(p: Partition) -> SimpleGraph:
    """Explicit K_{n1,...,nt}: edge iff endpoints lie in different parts.

    Raises InfeasibleParameters above MAX_ORDER.
    """
    _check_order(p)
    part_of = []
    for idx, size in enumerate(p.parts):
        part_of.extend([idx] * size)
    edges = frozenset(
        (u, v)
        for u in range(p.n)
        for v in range(u + 1, p.n)
        if part_of[u] != part_of[v]
    )
    return SimpleGraph(n=p.n, edges=edges)


def sqdist_from_graph(g: SimpleGraph) -> DenseSymMatrix:
    """BFS all-pairs shortest paths, entrywise squared."""
    dist = bfs_distances(g.adjacency())
    if (dist < 0).any():
        raise DisconnectedGraph("graph is not connected")
    sq = (dist.astype(np.float64)) ** 2
    return DenseSymMatrix(order=g.n, data=sq)
