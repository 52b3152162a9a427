"""Structural equivalence of the array twin with the dict overlay.

The exact half of the backend cross-validation gate (``docs/KERNELS.md``):
:class:`~repro.overlay.arraygraph.ArrayOverlayGraph` must be a *lossless*
re-encoding of the dict graph's behavioural state — identical node order,
per-node neighbour order, ``next_id`` and therefore byte-identical
``snapshot()`` payloads — including after churn, repair and
snapshot-restore round-trips (the PR-5 determinism contract).  The
distributional half lives in ``tests/core/test_kernel_distributions.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.churn.models import shrinking_trace, steady_churn_trace
from repro.churn.scheduler import ChurnScheduler
from repro.core.hops_sampling import HopsSamplingEstimator
from repro.core.sample_collide import SampleCollideEstimator
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
    # And the round-trip graph is behaviourally indistinguishable.
    back = OverlayGraph.from_array(twin)
    assert back.snapshot() == graph.snapshot()
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
            lambda: g.remove_edge(0, 1),
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
        # Ids far above the dense-LUT threshold exercise the
        # argsort/searchsorted translation path.
        ids = [7, 10_000_003, 51, 92_000_017]
        g = OverlayGraph(nodes=ids, edges=[(7, 51), (51, 92_000_017)])
        assert_twin_matches(g)


def _dict_built(graph: OverlayGraph) -> bool:
    """Whether ``graph`` has built its adjacency dict (white-box probe)."""
    return "_adj" in vars(graph)


class TestTwinBackedGraph:
    """``OverlayGraph.from_array``: the dict is built only when needed."""

    def test_twin_answers_without_building_the_dict(self, small_het_graph):
        twin = small_het_graph.to_array()
        g = OverlayGraph.from_array(twin)
        assert not _dict_built(g)
        assert g.size == len(g) == small_het_graph.size
        assert g.num_edges == small_het_graph.num_edges
        assert g.next_id == small_het_graph.next_id
        assert g.to_array() is twin
        assert g.snapshot() == small_het_graph.snapshot()
        assert not _dict_built(g)

    def test_builders_return_twin_backed_graphs(self):
        g = heterogeneous_random(300, rng=3)
        assert not _dict_built(g)
        g.to_array().check_invariants()
        assert g.snapshot() == OverlayGraph.restore(g.snapshot()).snapshot()

    @pytest.mark.parametrize("estimator", [HopsSamplingEstimator, SampleCollideEstimator])
    def test_array_estimates_leave_the_dict_unbuilt(self, estimator):
        g = heterogeneous_random(500, rng=4)
        estimator(g, rng=np.random.default_rng(1), backend="array").estimate()
        assert not _dict_built(g)

    def test_first_mutation_builds_the_dict(self, small_het_graph):
        g = OverlayGraph.from_array(small_het_graph.to_array())
        reference = OverlayGraph.restore(small_het_graph.snapshot())
        for graph in (g, reference):
            graph.add_node()
            graph.remove_node(0)
        assert _dict_built(g)
        assert g._array_base is None and not g._array_dirty  # no mutation log
        g.check_invariants()
        assert g.snapshot() == reference.snapshot()
        assert g.to_array().snapshot() == reference.snapshot()

    def test_first_read_builds_the_dict_and_keeps_the_twin(self, small_het_graph):
        twin = small_het_graph.to_array()
        g = OverlayGraph.from_array(twin)
        assert list(g.neighbors(1)) == list(small_het_graph.neighbors(1))
        assert _dict_built(g)
        assert g.to_array() is twin  # no mutation: the twin is still current

    def test_built_dict_shares_id_objects(self, small_het_graph):
        g = OverlayGraph.from_array(small_het_graph.to_array())
        ids = {u: u for u in g}
        assert all(v is ids[v] for u in g for v in g.neighbors(u))

    def test_copy_is_independent(self, small_het_graph):
        g = OverlayGraph.from_array(small_het_graph.to_array())
        clone = g.copy()
        assert not _dict_built(clone)
        clone.remove_node(0)
        assert 0 in g and 0 not in clone
        assert g.snapshot() == small_het_graph.snapshot()

    @pytest.mark.parametrize("built", [False, True])
    def test_pickle_round_trip(self, small_het_graph, built):
        g = OverlayGraph.from_array(small_het_graph.to_array())
        if built:
            g.degree(0)
        back = pickle.loads(pickle.dumps(g))
        assert _dict_built(back) == built
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
}


class TestUnpackValidation:
    @pytest.mark.parametrize("fault", sorted(_BAD_PACKS))
    def test_unpack_refuses_malformed_payloads(self, small_het_graph, fault):
        packed = small_het_graph.to_array().pack()
        ArrayOverlayGraph.unpack(packed)  # the untouched payload is valid
        _BAD_PACKS[fault](packed)
        with pytest.raises(GraphError):
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

    def test_array_restore_classmethod(self, small_het_graph):
        twin = ArrayOverlayGraph.restore(small_het_graph.snapshot())
        assert twin.snapshot() == small_het_graph.snapshot()


class TestCsrConsistency:
    """The twin agrees with the sorted CsrView on order-free facts."""

    def test_same_edge_set(self, small_het_graph):
        twin = small_het_graph.to_array()
        view = small_het_graph.csr()
        assert twin.m == view.m
        twin_edges = {
            tuple(sorted((int(twin.nodes[r]), int(twin.nodes[c]))))
            for r in range(twin.n)
            for c in twin.neighbors(r)
        }
        view_edges = {
            tuple(sorted((int(view.nodes[r]), int(view.nodes[c]))))
            for r in range(view.n)
            for c in view.neighbors(r)
        }
        assert twin_edges == view_edges

    def test_same_degree_multiset(self, small_het_graph):
        twin = small_het_graph.to_array()
        view = small_het_graph.csr()
        assert sorted(twin.degrees().tolist()) == sorted(view.degrees().tolist())
        assert twin.average_degree() == pytest.approx(2.0 * view.m / view.n)


class TestBulkAccessors:
    """`OverlayGraph.degrees()` / `neighbour_arrays()` (the micro-fix)."""

    def test_degrees_matches_per_node(self, tiny_graph):
        degs = tiny_graph.degrees()
        assert degs.tolist() == [tiny_graph.degree(u) for u in tiny_graph]

    def test_neighbour_arrays_flat_layout(self, tiny_graph):
        nodes, indptr, flat = tiny_graph.neighbour_arrays()
        assert nodes.tolist() == list(tiny_graph)
        assert indptr[0] == 0 and indptr[-1] == flat.size
        for k, u in enumerate(nodes.tolist()):
            assert flat[indptr[k] : indptr[k + 1]].tolist() == list(
                tiny_graph.neighbors(u)
            )

    def test_empty_graph_accessors(self):
        g = OverlayGraph()
        assert g.degrees().size == 0
        nodes, indptr, flat = g.neighbour_arrays()
        assert nodes.size == 0 and flat.size == 0
        assert indptr.tolist() == [0]


class TestIncrementalPatch:
    """Edge cases of the incremental twin rebuild (mutation-log patching).

    ``to_array`` patches the previous twin once one exists, so every test
    here builds a base twin first, applies a tricky mutation sequence and
    then holds the full exactness contract — plus bit-identity with a
    from-scratch encoding of the same graph.
    """

    @staticmethod
    def _assert_patched_equals_fresh(graph: OverlayGraph) -> None:
        patched = graph.to_array()
        fresh = ArrayOverlayGraph.from_overlay(graph)
        np.testing.assert_array_equal(patched.nodes, fresh.nodes)
        np.testing.assert_array_equal(patched.indptr, fresh.indptr)
        np.testing.assert_array_equal(patched.indices, fresh.indices)
        assert patched.next_id == fresh.next_id
        assert_twin_matches(graph)

    def test_remove_then_readd_same_id(self):
        g = OverlayGraph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2), (0, 2)])
        g.to_array()
        g.remove_node(1)
        g.add_node(1)
        g.add_edge(1, 2)
        # Row 1 must move to the *end* of the insertion order.
        assert list(g) == [0, 2, 1]
        self._assert_patched_equals_fresh(g)

    def test_add_remove_add_cycle(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        g.to_array()
        new = g.add_node()
        g.add_edge(new, 0)
        g.remove_node(new)
        g.add_node(new)  # re-add the appended-then-removed id
        self._assert_patched_equals_fresh(g)

    def test_removed_node_was_already_dirty(self):
        g = OverlayGraph(nodes=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        g.to_array()
        g.add_edge(1, 2)  # dirties rows 1 and 2 ...
        g.remove_node(2)  # ... then 2 departs outright
        self._assert_patched_equals_fresh(g)

    def test_appended_then_removed_never_materializes(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        g.to_array()
        doomed = g.add_node()
        g.remove_node(doomed)
        assert list(g) == [0, 1]
        self._assert_patched_equals_fresh(g)

    def test_repeated_patches_accumulate(self, small_het_graph):
        rng = np.random.default_rng(3)
        g = small_het_graph
        g.to_array()
        for _ in range(10):
            victims = rng.choice(np.asarray(list(g)), size=5, replace=False)
            for u in victims.tolist():
                g.remove_node(u)
            joined = [g.add_node() for _ in range(3)]
            alive = list(g)
            for u in joined:
                g.try_add_edge(u, int(rng.choice(alive[:-3])))
            self._assert_patched_equals_fresh(g)

    def test_wholesale_change_falls_back_to_full_encode(self):
        g = OverlayGraph(nodes=range(40))
        g.to_array()
        for u in range(30):  # > half the base rows: full rebuild path
            g.remove_node(u)
        self._assert_patched_equals_fresh(g)
