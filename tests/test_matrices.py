import numpy as np
import pytest

from conftest import (
    all_partitions_upto,
    complete_multipartite_edges,
    triangle_distances,
)
from sqdist.errors import DisconnectedGraph, InfeasibleParameters
from sqdist.matrices import (
    MAX_ORDER,
    SimpleGraph,
    multipartite_graph,
    sqdist_from_graph,
    sqdist_from_partition,
)
from sqdist.partitions import Partition


class TestMaxOrder:
    def test_largest_allowed_order_builds(self):
        p = Partition((MAX_ORDER - 2, 1, 1))
        m = sqdist_from_partition(p)
        assert m.order == MAX_ORDER and m.entry_int(0, MAX_ORDER - 1) == 1
        g = multipartite_graph(p)
        assert g.n == MAX_ORDER and len(g.edges) == 2 * (MAX_ORDER - 2) + 1

    @pytest.mark.parametrize("build", [sqdist_from_partition, multipartite_graph])
    def test_larger_orders_refused(self, build):
        with pytest.raises(InfeasibleParameters):
            build(Partition((MAX_ORDER - 1, 2)))
        with pytest.raises(InfeasibleParameters):
            build(Partition((10**20, 1)))


class TestClosedForm:
    def test_2_2(self):
        m = sqdist_from_partition(Partition((2, 2)))
        assert m.int_rows() == [
            [0, 4, 1, 1],
            [4, 0, 1, 1],
            [1, 1, 0, 4],
            [1, 1, 4, 0],
        ]

    def test_k2(self):
        m = sqdist_from_partition(Partition((1, 1)))
        assert m.int_rows() == [[0, 1], [1, 0]]

    def test_2_1_1(self):
        m = sqdist_from_partition(Partition((2, 1, 1)))
        assert m.int_rows() == [
            [0, 4, 1, 1],
            [4, 0, 1, 1],
            [1, 1, 0, 1],
            [1, 1, 1, 0],
        ]

    def test_entry_accessors(self):
        m = sqdist_from_partition(Partition((2, 2)))
        assert m.entry(0, 1) == 4.0
        assert m.entry_int(0, 2) == 1
        assert m.to_csv().splitlines()[0] == "0,4,1,1"

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
        assert g.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_triangle(self):
        g = multipartite_graph(Partition((1, 1, 1)))
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_star(self):
        g = multipartite_graph(Partition((3, 1)))
        assert g.edges == frozenset({(0, 3), (1, 3), (2, 3)})

    def test_edge_oracle(self):
        for _, _, parts in all_partitions_upto(8):
            g = multipartite_graph(Partition(parts))
            assert set(g.edges) == complete_multipartite_edges(parts)


class TestBfsRoute:
    def test_path_p3(self):
        g = SimpleGraph(n=3, edges=frozenset({(0, 1), (1, 2)}))
        assert sqdist_from_graph(g).int_rows() == [
            [0, 1, 4],
            [1, 0, 1],
            [4, 1, 0],
        ]

    def test_disconnected(self):
        g = SimpleGraph(n=3, edges=frozenset({(0, 1)}))
        with pytest.raises(DisconnectedGraph):
            sqdist_from_graph(g)

    def test_matches_closed_form(self):
        # the two construction routes agree entrywise
        for _, _, parts in all_partitions_upto(10):
            p = Partition(parts)
            closed = sqdist_from_partition(p)
            via_bfs = sqdist_from_graph(multipartite_graph(p))
            assert closed.int_rows() == via_bfs.int_rows()

    def test_matches_floyd_warshall(self):
        g = multipartite_graph(Partition((3, 2, 1)))
        fw = triangle_distances(set(g.edges), g.n)
        sq = sqdist_from_graph(g).int_rows()
        assert sq == [[d * d for d in row] for row in fw]

