"""Unit tests for the dynamic overlay graph and its CSR twin."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import bfs_frontier_distances
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.graph import GraphError, OverlayGraph
from repro.overlay.views import connected_component_sizes


class TestConstruction:
    def test_empty_graph(self):
        g = OverlayGraph()
        assert g.size == 0
        assert g.num_edges == 0
        assert len(g) == 0
        assert list(g.nodes()) == []

    def test_init_with_nodes_and_edges(self):
        g = OverlayGraph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2)])
        assert g.size == 3
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_add_node_auto_id(self):
        g = OverlayGraph()
        assert g.add_node() == 0
        assert g.add_node() == 1

    def test_add_node_explicit_id_advances_counter(self):
        g = OverlayGraph()
        g.add_node(10)
        assert g.add_node() == 11

    def test_add_nodes_batch(self):
        g = OverlayGraph()
        ids = g.add_nodes(5)
        assert ids == [0, 1, 2, 3, 4]
        assert g.size == 5

    def test_add_nodes_negative_count_rejected(self):
        with pytest.raises(GraphError):
            OverlayGraph().add_nodes(-1)

    def test_duplicate_node_rejected(self):
        g = OverlayGraph(nodes=[3])
        with pytest.raises(GraphError, match="already present"):
            g.add_node(3)

    def test_negative_node_id_rejected(self):
        with pytest.raises(GraphError):
            OverlayGraph().add_node(-5)

    def test_ids_below_next_id_rejected(self):
        g = OverlayGraph(nodes=[0, 4])
        with pytest.raises(GraphError, match="ascend"):
            g.add_node(2)
        assert g.add_node(5) == 5
        with pytest.raises(GraphError, match="ascend"):
            OverlayGraph(nodes=[2, 1])

    def test_restore_rejects_ids_out_of_order(self):
        snap = {"nodes": [0, 2, 1], "adj": [[1], [], [0]], "next_id": 3}
        with pytest.raises(GraphError, match="ascend"):
            OverlayGraph.restore(snap)
        snap["nodes"] = [0, 1, 2]
        snap["adj"] = [[1], [0], []]
        assert OverlayGraph.restore(snap).num_edges == 1

    @pytest.mark.parametrize(
        "adj, reason",
        [
            ([[0], [], []], "self-loop"),
            ([[1], [], []], "asymmetric"),
            ([[10**9], [], []], "not a node"),
            ([[1], [0]], "one neighbour list per node"),
        ],
    )
    def test_restore_refuses_lists_that_are_not_an_overlay(self, adj, reason):
        snap = {"nodes": [0, 1, 2], "adj": adj, "next_id": 3}
        with pytest.raises(GraphError, match=reason):
            OverlayGraph.restore(snap)


class TestEdges:
    def test_add_edge_is_bidirectional(self):
        g = OverlayGraph(nodes=[0, 1])
        g.add_edge(0, 1)
        assert 1 in g.neighbors(0)
        assert 0 in g.neighbors(1)

    def test_self_loop_rejected(self):
        g = OverlayGraph(nodes=[0])
        with pytest.raises(GraphError, match="elf-loop"):
            g.add_edge(0, 0)

    def test_edge_to_missing_node_rejected(self):
        g = OverlayGraph(nodes=[0])
        with pytest.raises(GraphError):
            g.add_edge(0, 99)

    def test_duplicate_edge_rejected(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        with pytest.raises(GraphError, match="already present"):
            g.add_edge(1, 0)

    def test_try_add_edge_returns_false_not_raises(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        assert g.try_add_edge(0, 1) is False
        assert g.try_add_edge(0, 0) is False
        assert g.try_add_edge(0, 42) is False
        assert g.num_edges == 1

    def test_try_add_edge_success(self):
        g = OverlayGraph(nodes=[0, 1])
        assert g.try_add_edge(0, 1) is True
        assert g.num_edges == 1

    def test_edges_iterates_each_once(self, tiny_graph):
        edges = sorted(tiny_graph.edges())
        assert edges == [(0, 1), (1, 2), (1, 4), (2, 3)]

    def test_average_degree(self, tiny_graph):
        # 5 nodes, 4 edges -> mean degree 8/5.
        assert tiny_graph.average_degree() == pytest.approx(1.6)

    def test_average_degree_empty(self):
        assert OverlayGraph().average_degree() == 0.0


class TestRemoval:
    def test_remove_node_severs_links_without_repair(self, tiny_graph):
        tiny_graph.remove_node(1)  # hub of the path
        assert 1 not in tiny_graph
        # neighbours lost the link and gained nothing back
        assert tiny_graph.degree(0) == 0
        assert tiny_graph.degree(4) == 0
        assert tiny_graph.degree(2) == 1  # still linked to 3
        tiny_graph.check_invariants()

    def test_remove_missing_node_rejected(self):
        with pytest.raises(GraphError):
            OverlayGraph().remove_node(0)

    def test_removed_ids_not_reused(self):
        g = OverlayGraph()
        a = g.add_node()
        g.remove_node(a)
        b = g.add_node()
        assert b != a

    def test_edge_count_tracks_removals(self, tiny_graph):
        before = tiny_graph.num_edges
        tiny_graph.remove_node(1)  # degree 3
        assert tiny_graph.num_edges == before - 3


class TestAccessors:
    def test_neighbors_of_missing_node(self):
        with pytest.raises(GraphError):
            OverlayGraph().neighbors(7)

    def test_contains_and_iter(self, tiny_graph):
        assert 0 in tiny_graph
        assert 99 not in tiny_graph
        assert sorted(tiny_graph) == [0, 1, 2, 3, 4]

    def test_random_node_is_alive(self, tiny_graph):
        for seed in range(10):
            assert tiny_graph.random_node(seed) in tiny_graph

    def test_random_node_empty_rejected(self):
        with pytest.raises(GraphError):
            OverlayGraph().random_node(0)

    def test_random_neighbor(self, tiny_graph):
        for seed in range(10):
            v = tiny_graph.random_neighbor(1, seed)
            assert v in tiny_graph.neighbors(1)

    def test_random_neighbor_draws_once_over_the_row(self, het_graph):
        """One ``integers(degree)`` draw indexes the row in link order."""
        for node in (0, 7, 1999):
            row = list(het_graph.neighbors(node))
            for seed in range(5):
                expected = row[np.random.default_rng(seed).integers(len(row))]
                assert het_graph.random_neighbor(node, seed) == expected

    def test_queries_of_a_missing_node(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.degree(99)
        with pytest.raises(GraphError):
            tiny_graph.random_neighbor(99, 0)
        assert not tiny_graph.has_edge(0, 99)
        assert not tiny_graph.has_edge(99, 0)

    def test_random_neighbor_isolated_returns_none(self):
        g = OverlayGraph(nodes=[0])
        assert g.random_neighbor(0, 1) is None

    def test_copy_is_independent(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.remove_node(1)
        assert 1 in tiny_graph
        assert tiny_graph.num_edges == 4
        clone.check_invariants()
        tiny_graph.check_invariants()


class TestTwin:
    def test_shapes_and_counts(self, tiny_graph):
        view = tiny_graph.to_array()
        assert view.n == 5
        assert view.m == 4
        assert view.indptr.shape == (6,)
        assert view.indices.shape == (8,)

    def test_nodes_sorted(self, tiny_graph):
        view = tiny_graph.to_array()
        assert list(view.nodes) == sorted(view.nodes)

    def test_position_roundtrip(self, tiny_graph):
        view = tiny_graph.to_array()
        for pos, node in enumerate(view.nodes.tolist()):
            assert view.position(node) == pos
        assert view.position(99) == -1

    def test_degrees_match_graph(self, tiny_graph):
        view = tiny_graph.to_array()
        for node in tiny_graph:
            assert view.degrees()[view.position(node)] == tiny_graph.degree(node)

    def test_neighbors_match_graph(self, tiny_graph):
        view = tiny_graph.to_array()
        for node in tiny_graph:
            got = {int(view.nodes[q]) for q in view.neighbors(view.position(node))}
            assert got == tiny_graph.neighbors(node)

    def test_snapshot_cached_until_mutation(self, tiny_graph):
        v1 = tiny_graph.to_array()
        assert tiny_graph.to_array() is v1
        tiny_graph.add_node()
        assert tiny_graph.to_array() is not v1

    def test_stale_after_edge_ops(self):
        g = OverlayGraph(nodes=[0, 1])
        v1 = g.to_array()
        g.add_edge(0, 1)
        v2 = g.to_array()
        assert v2 is not v1
        assert v2.m == 1

    def test_empty_graph_view(self):
        view = OverlayGraph().to_array()
        assert view.n == 0
        assert view.m == 0

    def test_sample_neighbors_lands_on_neighbors(self, het_graph):
        view = het_graph.to_array()
        rng = np.random.default_rng(0)
        positions = rng.integers(view.n, size=200)
        chosen = view.sample_neighbors(positions, rng)
        for p, c in zip(positions, chosen):
            if c >= 0:
                assert c in set(view.neighbors(int(p)))

    def test_sample_neighbors_isolated_gives_minus_one(self):
        g = OverlayGraph(nodes=[0, 1], edges=[])
        view = g.to_array()
        rng = np.random.default_rng(0)
        out = view.sample_neighbors(np.array([0, 1]), rng)
        assert list(out) == [-1, -1]

    def test_sample_neighbors_empty_input(self, tiny_graph):
        view = tiny_graph.to_array()
        out = view.sample_neighbors(np.empty(0, dtype=np.int64), np.random.default_rng(0))
        assert out.shape == (0,)


class TestBfsAndComponents:
    def test_bfs_distances_on_path(self, tiny_graph):
        view = tiny_graph.to_array()
        dist = bfs_frontier_distances(view, view.position(0))
        by_node = {int(view.nodes[i]): int(d) for i, d in enumerate(dist)}
        assert by_node == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2}

    def test_bfs_unreachable_is_minus_one(self):
        g = OverlayGraph(nodes=[0, 1, 2], edges=[(0, 1)])
        view = g.to_array()
        dist = bfs_frontier_distances(view, view.position(0))
        assert dist[view.position(2)] == -1

    def test_bfs_empty_graph(self):
        view = OverlayGraph().to_array()
        assert bfs_frontier_distances(view, 0).shape == (0,)

    def test_component_sizes(self):
        g = OverlayGraph(nodes=range(6), edges=[(0, 1), (1, 2), (3, 4)])
        sizes = connected_component_sizes(g.to_array())
        assert sizes == [3, 2, 1]

    def test_component_sizes_connected(self, het_graph):
        sizes = connected_component_sizes(het_graph.to_array())
        assert sum(sizes) == het_graph.size


class TestInvariants:
    def test_check_invariants_clean(self, het_graph):
        het_graph.check_invariants()

    @staticmethod
    def _corrupt(rows):
        """A graph whose twin holds the neighbour ``rows`` unchecked."""
        indptr = np.cumsum([0] + [len(r) for r in rows])
        flat = np.array(sum(rows, []), dtype=np.int64)
        twin = ArrayOverlayGraph(np.arange(len(rows)), indptr, flat, len(rows))
        return OverlayGraph.from_array(twin)

    def test_detects_asymmetry(self):
        g = self._corrupt([[], [0]])  # 1 -> 0 with no link back
        with pytest.raises(GraphError):
            g.check_invariants()

    def test_detects_self_loop(self):
        g = self._corrupt([[0]])
        with pytest.raises(GraphError):
            g.check_invariants()
