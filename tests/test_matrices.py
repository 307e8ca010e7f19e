from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_partitions_upto,
    complete_multipartite_edges,
    triangle_distances,
)
from sqdist._kernels import bfs_distances
from sqdist.errors import SqDistError
from sqdist.matrices import (
    MAX_ORDER,
    SimpleGraph,
    multipartite_graph,
    sqdist_from_graph,
    sqdist_from_partition,
)
from sqdist.partitions import Partition


def _edges(g: SimpleGraph) -> set[tuple[int, int]]:
    u, v = np.nonzero(np.triu(g.adjacency()))
    return set(zip(u.tolist(), v.tolist()))


class TestMaxOrder:
    def test_largest_allowed_order_builds(self):
        p = Partition((MAX_ORDER - 2, 1, 1))
        m = sqdist_from_partition(p)
        assert m.order == MAX_ORDER and m.data[0, MAX_ORDER - 1] == 1.0
        g = multipartite_graph(p)
        assert g.n == MAX_ORDER and g.adjacency().sum() == 2 * (2 * (MAX_ORDER - 2) + 1)

    @pytest.mark.parametrize("build", [sqdist_from_partition, multipartite_graph])
    def test_larger_orders_refused(self, build):
        with pytest.raises(SqDistError, match=f"order n = {MAX_ORDER + 1} > {MAX_ORDER}: too large"):
            build(Partition((MAX_ORDER - 1, 2)))
        with pytest.raises(SqDistError, match=f"order n = {10**20 + 1} > {MAX_ORDER}"):
            build(Partition((10**20, 1)))


class TestClosedForm:
    def test_2_2(self):
        m = sqdist_from_partition(Partition((2, 2)))
        assert m.data.tolist() == [
            [0, 4, 1, 1],
            [4, 0, 1, 1],
            [1, 1, 0, 4],
            [1, 1, 4, 0],
        ]

    def test_k2(self):
        m = sqdist_from_partition(Partition((1, 1)))
        assert m.data.tolist() == [[0, 1], [1, 0]]

    def test_2_1_1(self):
        m = sqdist_from_partition(Partition((2, 1, 1)))
        assert m.data.tolist() == [
            [0, 4, 1, 1],
            [4, 0, 1, 1],
            [1, 1, 0, 1],
            [1, 1, 1, 0],
        ]

    def test_entry_values(self):
        for _, _, parts in all_partitions_upto(8):
            m = sqdist_from_partition(Partition(parts))
            data = m.data
            assert np.allclose(data, data.T)
            assert np.all(np.diag(data) == 0)
            off = data[~np.eye(m.order, dtype=bool)]
            assert set(np.unique(off)) <= {1.0, 4.0}


class TestGraphConstruction:
    def test_c4(self):
        g = multipartite_graph(Partition((2, 2)))
        assert _edges(g) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_triangle(self):
        g = multipartite_graph(Partition((1, 1, 1)))
        assert _edges(g) == {(0, 1), (0, 2), (1, 2)}

    def test_star(self):
        g = multipartite_graph(Partition((3, 1)))
        assert _edges(g) == {(0, 3), (1, 3), (2, 3)}

    def test_edge_oracle(self):
        for _, _, parts in all_partitions_upto(8):
            g = multipartite_graph(Partition(parts))
            adj = g.adjacency()
            assert (adj == adj.T).all()
            assert _edges(g) == complete_multipartite_edges(parts)

    def test_single_part_is_disconnected(self):
        # a part of 3 has no edges; Partition((3,)) itself is refused
        with pytest.raises(SqDistError, match="graph is not connected"):
            sqdist_from_graph(SimpleGraph((3,)))


class TestBfsRoute:
    def test_path_p3(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        assert (bfs_distances(adj) ** 2).tolist() == [
            [0, 1, 4],
            [1, 0, 1],
            [4, 1, 0],
        ]

    def test_disconnected(self):
        adj = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool)
        dist = bfs_distances(adj)
        assert dist[2].tolist() == [-1, -1, 0] and dist[:2, 2].tolist() == [-1, -1]

    def test_matches_closed_form(self):
        # the BFS route and the block fill give bit-identical matrices
        for _, _, parts in all_partitions_upto(12):
            p = Partition(parts)
            closed = sqdist_from_partition(p)
            via_bfs = sqdist_from_graph(multipartite_graph(p))
            assert via_bfs.data.tobytes() == closed.data.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=2, max_size=30))
    def test_matches_closed_form_up_to_order_120(self, sizes):
        # the longest prefix of at most 120 vertices; the first two always fit
        p = Partition(tuple(m for m, n in zip(sizes, accumulate(sizes)) if n <= 120))
        closed = sqdist_from_partition(p)
        assert np.array_equal(sqdist_from_graph(multipartite_graph(p)).data, closed.data)

    def test_matches_floyd_warshall(self):
        g = multipartite_graph(Partition((3, 2, 1)))
        fw = triangle_distances(_edges(g), g.n)
        sq = sqdist_from_graph(g).data.tolist()
        assert sq == [[d * d for d in row] for row in fw]
