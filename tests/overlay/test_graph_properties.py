"""Property-based tests: the overlay graph under arbitrary operation
sequences, and coherence of its CSR twin with the dict-based reference
adjacency (:class:`dict_reference.DictGraph`) after the same operations.

These are the core structural invariants everything else relies on:
bidirectional symmetry, exact edge accounting, and snapshot fidelity.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_reference import DictGraph
from repro.core.kernels import bfs_frontier_distances
from repro.overlay.graph import OverlayGraph

# An operation is (kind, a, b) with node slots drawn from a small universe
# so that collisions (removing a missing node, duplicating an edge) are
# frequent and the error paths get exercised.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["add_node", "remove_node", "add_edge"]),
        st.integers(0, 14),
        st.integers(0, 14),
    ),
    max_size=60,
)


def _apply(g, ops) -> None:
    """Apply ``ops`` to an :class:`OverlayGraph` or a :class:`DictGraph`."""
    for kind, a, b in ops:
        if kind == "add_node":
            # Ids ascend: a slot below next_id takes the next fresh id.
            g.add_node(max(a, g.next_id))
        elif kind == "remove_node":
            if a in g:
                g.remove_node(a)
        elif kind == "add_edge":
            if a in g and b in g:
                g.try_add_edge(a, b)


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_invariants_hold_under_any_op_sequence(ops):
    g = OverlayGraph()
    _apply(g, ops)
    g.check_invariants()


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_csr_matches_adjacency_after_any_op_sequence(ops):
    g, reference = OverlayGraph(), DictGraph()
    _apply(g, ops)
    _apply(reference, ops)
    view = g.to_array()
    assert view.n == g.size == reference.size
    assert view.m == g.num_edges == reference.num_edges
    assert view.nodes.tolist() == sorted(g.nodes()) == reference.nodes()
    # Every adjacency entry appears in the CSR, in order, and vice versa.
    for node in reference:
        pos = view.position(node)
        assert view.nodes[view.neighbors(pos)].tolist() == reference.neighbors(node)
        assert list(g.neighbors(node)) == reference.neighbors(node)


@given(_ops, st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_sample_neighbors_always_valid(ops, seed):
    g = OverlayGraph()
    _apply(g, ops)
    view = g.to_array()
    if view.n == 0:
        return
    rng = np.random.default_rng(seed)
    positions = rng.integers(view.n, size=min(view.n, 16))
    out = view.sample_neighbors(positions, rng)
    degs = view.degrees()
    for p, c in zip(positions, out):
        if degs[p] == 0:
            assert c == -1
        else:
            assert c in set(int(x) for x in view.neighbors(int(p)))


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_edge_iteration_consistent_with_count(ops):
    g = OverlayGraph()
    _apply(g, ops)
    listed = list(g.edges())
    assert len(listed) == g.num_edges
    assert len(set(listed)) == len(listed)  # no duplicates
    for u, v in listed:
        assert u < v
        assert g.has_edge(u, v)


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_copy_equivalence(ops):
    g = OverlayGraph()
    _apply(g, ops)
    clone = g.copy()
    assert clone.size == g.size
    assert clone.num_edges == g.num_edges
    assert sorted(clone.edges()) == sorted(g.edges())


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_bfs_distances_are_metric_like(ops):
    """BFS distances: 0 at source, and adjacent nodes differ by at most 1."""
    g = OverlayGraph()
    _apply(g, ops)
    view = g.to_array()
    if view.n == 0:
        return
    dist = bfs_frontier_distances(view, 0)
    assert dist[0] == 0
    for pos in range(view.n):
        for q in view.neighbors(pos):
            q = int(q)
            if dist[pos] >= 0 and dist[q] >= 0:
                assert abs(dist[pos] - dist[q]) <= 1
            # a reachable node's neighbour is always reachable
            if dist[pos] >= 0:
                assert dist[q] >= 0
