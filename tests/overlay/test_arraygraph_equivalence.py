"""Structural equivalence of an overlay graph, its array twin and its
snapshot.

:class:`~repro.overlay.arraygraph.ArrayOverlayGraph` is the graph's whole
state, so the graph's own queries (node order, per-node neighbour order,
degrees, ``next_id``) must read it faithfully, and a graph restored from
its ``snapshot()`` payload must hold equal arrays — including after
churn, repair and snapshot-restore round-trips (the determinism
contract).  The dict-based reference of the op-sequence tests
(``test_arraygraph_properties.py``) checks the twin against an
independent encoding; the distributional half of the backend gate lives
in ``tests/core/test_kernel_distributions.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from dict_reference import DictGraph
from repro.churn.models import shrinking_trace, steady_churn_trace
from repro.churn.scheduler import ChurnScheduler
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import GraphError, OverlayGraph


def assert_twin_matches(graph: OverlayGraph) -> None:
    """The full exactness contract between a graph and its array twin."""
    twin = graph.to_array()
    twin.check_invariants()
    assert twin.snapshot() == graph.snapshot()
    assert twin.n == graph.size
    assert twin.next_id == graph.next_id
    assert twin.nodes.tolist() == list(graph)
    np.testing.assert_array_equal(twin.degrees(), graph.degrees())
    # Per-node neighbour order carries over exactly.
    for node in list(graph)[:50]:
        assert twin.neighbor_ids(node).tolist() == list(graph.neighbors(node))
    # And the restored graph is behaviourally indistinguishable.
    back = OverlayGraph.restore(graph.snapshot())
    for name in ("nodes", "indptr", "indices"):
        arr = getattr(back.to_array(), name)
        assert arr.dtype == getattr(twin, name).dtype
        np.testing.assert_array_equal(arr, getattr(twin, name))
    assert list(back) == list(graph)
    assert back.next_id == graph.next_id


class TestStaticEquivalence:
    def test_tiny_graph(self, tiny_graph):
        assert_twin_matches(tiny_graph)

    def test_heterogeneous(self, small_het_graph):
        assert_twin_matches(small_het_graph)

    def test_empty_graph(self):
        g = OverlayGraph()
        twin = g.to_array()
        twin.check_invariants()
        assert twin.n == 0
        assert twin.snapshot() == g.snapshot()

    def test_isolated_nodes(self):
        g = OverlayGraph(nodes=range(4), edges=[(0, 1)])
        assert_twin_matches(g)

    def test_twin_cached_until_mutation(self, tiny_graph):
        a = tiny_graph.to_array()
        assert tiny_graph.to_array() is a
        tiny_graph.add_node()
        b = tiny_graph.to_array()
        assert b is not a
        assert_twin_matches(tiny_graph)

    def test_every_mutation_invalidates(self):
        g = OverlayGraph(nodes=range(4), edges=[(0, 1), (1, 2)])
        for mutate in (
            lambda: g.add_node(),
            lambda: g.add_edge(2, 3),
            lambda: g.try_add_edge(0, 3),
            lambda: g.remove_node(3),
        ):
            before = g.to_array()
            mutate()
            assert g.to_array() is not before
            assert_twin_matches(g)

    def test_neighbor_ids_departed_node_raises(self, tiny_graph):
        twin = tiny_graph.to_array()
        with pytest.raises(GraphError):
            twin.neighbor_ids(999)

    def test_sparse_id_space_fallback(self):
        # Ids far above the node count: restore translates them to rows
        # by a binary search over the ascending node ids.
        ids = [7, 51, 10_000_003, 92_000_017]
        g = OverlayGraph(nodes=ids, edges=[(7, 51), (51, 92_000_017)])
        assert_twin_matches(g)
        twin = g.to_array()
        assert [twin.position(u) for u in ids] == [0, 1, 2, 3]
        assert [twin.position(u) for u in (0, 52, -1, 2**40)] == [-1] * 4


class TestTwinBackedGraph:
    """``OverlayGraph.from_array``: a graph whose state is a given twin."""

    def test_twin_answers_reads(self, small_het_graph):
        twin = small_het_graph.to_array()
        g = OverlayGraph.from_array(twin)
        assert g.size == len(g) == small_het_graph.size
        assert g.num_edges == small_het_graph.num_edges
        assert g.next_id == small_het_graph.next_id
        assert g.to_array() is twin
        assert g.snapshot() == small_het_graph.snapshot()

    def test_builders_return_twin_backed_graphs(self):
        g = heterogeneous_random(300, rng=3)
        g.to_array().check_invariants()
        assert g.snapshot() == OverlayGraph.restore(g.snapshot()).snapshot()

    def test_batch_departure_swaps_the_twin(self, small_het_graph):
        twin = small_het_graph.to_array()
        g = OverlayGraph.from_array(twin)
        reference = DictGraph.from_snapshot(small_het_graph.snapshot())
        g.remove_nodes([0, 7, 3])
        for u in (0, 7, 3):
            reference.remove_node(u)
        assert g.to_array() is not twin
        assert g.num_edges == reference.num_edges and list(g) == list(reference)
        assert g.to_array().snapshot() == reference.snapshot()

    @pytest.mark.parametrize("victims", [[5, 5], [0, 10**6]])
    def test_batch_departure_refuses_repeated_or_unknown_ids(
        self, small_het_graph, victims
    ):
        g = OverlayGraph.from_array(small_het_graph.to_array())
        with pytest.raises(GraphError):
            g.remove_nodes(victims)
        assert g.snapshot() == small_het_graph.snapshot()

    def test_copy_is_independent(self, small_het_graph):
        g = OverlayGraph.from_array(small_het_graph.to_array())
        clone = g.copy()
        clone.remove_node(0)
        assert 0 in g and 0 not in clone
        assert g.snapshot() == small_het_graph.snapshot()

    def test_pickle_round_trip(self, small_het_graph):
        g = OverlayGraph.from_array(small_het_graph.to_array())
        back = pickle.loads(pickle.dumps(g))
        assert back.snapshot() == small_het_graph.snapshot()
        back.add_edge(*_non_edge(back))
        back.check_invariants()
        assert back.num_edges == small_het_graph.num_edges + 1


#: Edits of a valid ``pack()`` payload that ``unpack`` must refuse (the
#: store fault tests in tests/runtime/test_snapshots.py cover the rest).
_BAD_PACKS = {
    "float_dtype": lambda p: p.update(nodes=p["nodes"].astype(float)),
    "two_dimensional": lambda p: p.update(indices=p["indices"].reshape(-1, 1)),
    "missing_array": lambda p: p.pop("indptr"),
    "bool_next_id": lambda p: p.update(next_id=True),
    "short_indptr": lambda p: p.update(indptr=p["indptr"][:-1]),
    "indptr_not_from_zero": lambda p: p.update(indptr=p["indptr"] + 1),
    "indptr_tail": lambda p: p.update(indices=p["indices"][:-1]),
    "negative_id": lambda p: p["nodes"].__setitem__(0, -1),
    "duplicate_ids": lambda p: p["nodes"].__setitem__(1, p["nodes"][0]),
    "descending_ids": lambda p: p["nodes"].__setitem__(slice(0, 2), p["nodes"][1::-1]),
}


class TestUnpackValidation:
    @pytest.mark.parametrize("fault", sorted(_BAD_PACKS))
    def test_unpack_refuses_malformed_payloads(self, small_het_graph, fault):
        packed = small_het_graph.to_array().pack()
        ArrayOverlayGraph.unpack(packed)  # the untouched payload is valid
        _BAD_PACKS[fault](packed)
        with pytest.raises(GraphError):
            ArrayOverlayGraph.unpack(packed)

    def test_unpack_refuses_ids_out_of_order(self):
        packed = {
            "nodes": np.array([0, 2, 1], dtype=np.int32),
            "indptr": np.array([0, 1, 2, 2], dtype=np.int32),
            "indices": np.array([1, 0], dtype=np.int32),
            "next_id": 3,
        }
        with pytest.raises(GraphError, match="ascend"):
            ArrayOverlayGraph.unpack(packed)
        packed["nodes"] = np.array([0, 1, 2], dtype=np.int32)
        assert ArrayOverlayGraph.unpack(packed).m == 1

    @pytest.mark.parametrize(
        "rows, reason",
        [
            ([[1], [], [2]], "self-loop"),
            ([[1, 1], [0, 0]], "repeated neighbour"),
            ([[1, 1], [0]], "repeated neighbour"),
            ([[2], [0, 0], [0]], "repeated neighbour"),
            ([[1], [2], [0]], "asymmetric"),
        ],
    )
    def test_unpack_refuses_links_that_are_not_undirected(self, rows, reason):
        indptr = np.cumsum([0] + [len(r) for r in rows])
        packed = {
            "nodes": np.arange(len(rows), dtype=np.int32),
            "indptr": indptr.astype(np.int32),
            "indices": np.array(sum(rows, []), dtype=np.int32),
            "next_id": len(rows),
        }
        with pytest.raises(GraphError, match=reason):
            ArrayOverlayGraph.unpack(packed)


def _non_edge(g: OverlayGraph):
    return next((0, v) for v in g if v != 0 and not g.has_edge(0, v))


class TestChurnEquivalence:
    def test_shrinking_churn_round_trip(self):
        g = heterogeneous_random(400, rng=3)
        sched = ChurnScheduler(g, shrinking_trace(400, 0.5, steps=10), rng=5)
        for t in range(1, 11):
            sched.advance_to(float(t))
            assert_twin_matches(g)

    def test_steady_churn_with_repair(self):
        from repro.overlay.repair import DegreeRepair

        g = heterogeneous_random(300, rng=9)
        sched = ChurnScheduler(g, steady_churn_trace(8, end=10.0, steps=10), rng=2)
        repair = DegreeRepair(g, rng=4)
        for t in range(1, 11):
            sched.advance_to(float(t))
            repair.repair_round(t)
            assert_twin_matches(g)

    def test_snapshot_restore_round_trip_under_churn(self):
        g = heterogeneous_random(300, rng=13)
        sched = ChurnScheduler(g, shrinking_trace(300, 0.4, steps=6), rng=17)
        sched.advance_to(3.0)
        snap = g.snapshot()
        restored = OverlayGraph.restore(snap)
        # Restored graph and original produce bit-identical twins.
        a, b = g.to_array(), restored.to_array()
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert a.next_id == b.next_id


class TestCsrConsistency:
    """The twin agrees with the graph's queries on order-free facts."""

    def test_same_edge_set(self, small_het_graph):
        twin = small_het_graph.to_array()
        assert twin.m == small_het_graph.num_edges
        twin_edges = {
            tuple(sorted((int(twin.nodes[r]), int(twin.nodes[c]))))
            for r in range(twin.n)
            for c in twin.neighbors(r)
        }
        assert twin_edges == set(small_het_graph.edges())

    def test_same_degree_multiset(self, small_het_graph):
        twin = small_het_graph.to_array()
        degrees = [small_het_graph.degree(u) for u in small_het_graph]
        assert sorted(twin.degrees().tolist()) == sorted(degrees)
        assert twin.average_degree() == pytest.approx(small_het_graph.average_degree())


class TestBulkAccessors:
    """``OverlayGraph.degrees()``, aligned with the node order."""

    def test_degrees_matches_per_node(self, tiny_graph):
        degs = tiny_graph.degrees()
        assert degs.tolist() == [tiny_graph.degree(u) for u in tiny_graph]

    def test_empty_graph_accessors(self):
        assert OverlayGraph().degrees().size == 0


class TestSpliceSequences:
    """Odd mutation sequences through the one-splice edits.

    Each sequence runs on an :class:`OverlayGraph` and on the dict
    reference; the twin must equal the reference's own encoding, in
    order and dtype, and hold the full exactness contract.
    """

    @staticmethod
    def _assert_matches(graph: OverlayGraph, reference: DictGraph) -> None:
        a, b = graph.to_array(), reference.to_array()
        for name in ("nodes", "indptr", "indices"):
            assert getattr(a, name).dtype == getattr(b, name).dtype
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.next_id == b.next_id
        assert_twin_matches(graph)

    @staticmethod
    def _pair(nodes, edges=()):
        g = OverlayGraph(nodes=nodes, edges=edges)
        return g, DictGraph.from_snapshot(g.snapshot())

    def test_remove_then_readd_same_id(self):
        g, ref = self._pair([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
        for graph in (g, ref):
            graph.remove_node(1)
        # A departed id is never reused, so rows stay in ascending order.
        with pytest.raises(GraphError, match="ascend"):
            g.add_node(1)
        assert list(g) == [0, 2]
        self._assert_matches(g, ref)

    def test_add_remove_add_cycle(self):
        g, ref = self._pair([0, 1], [(0, 1)])
        for graph in (g, ref):
            new = graph.add_node()
            graph.add_edge(new, 0)
            graph.remove_node(new)
        with pytest.raises(GraphError, match="ascend"):
            g.add_node(new)  # the appended-then-removed id stays retired
        for graph in (g, ref):
            assert graph.add_node() == new + 1
            graph.add_edge(new + 1, 1)
        self._assert_matches(g, ref)

    def test_removed_node_had_just_linked(self):
        g, ref = self._pair([0, 1, 2, 3], [(0, 1), (2, 3)])
        for graph in (g, ref):
            graph.add_edge(1, 2)  # rows 1 and 2 gain a neighbour ...
            graph.remove_node(2)  # ... then 2 departs outright
        self._assert_matches(g, ref)

    def test_appended_then_removed_leaves_no_row(self):
        g, ref = self._pair([0, 1], [(0, 1)])
        for graph in (g, ref):
            graph.remove_node(graph.add_node())
        assert list(g) == [0, 1] and g.next_id == 3
        self._assert_matches(g, ref)

    def test_repeated_churn_accumulates(self, small_het_graph):
        rng = np.random.default_rng(3)
        g = OverlayGraph.from_array(small_het_graph.to_array())
        ref = DictGraph.from_snapshot(g.snapshot())
        for _ in range(10):
            victims = rng.choice(np.asarray(list(g)), size=5, replace=False).tolist()
            alive = [u for u in g if u not in victims]
            partners = [int(rng.choice(alive)) for _ in range(3)]
            for graph in (g, ref):
                for u in victims:
                    graph.remove_node(u)
                for v in partners:
                    graph.try_add_edge(graph.add_node(), v)
            self._assert_matches(g, ref)
        assert small_het_graph.size == 500  # the shared fixture is untouched

    def test_wholesale_change(self):
        g, ref = self._pair(range(40))
        for graph in (g, ref):
            for u in range(30):  # most of the rows depart
                graph.remove_node(u)
        self._assert_matches(g, ref)
