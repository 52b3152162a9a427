"""Property-based tests: the array twin under arbitrary operation sequences.

Hypothesis drives random graph constructions and churn-like mutation
sequences, then asserts the CSR ↔ dict round-trip is the identity on the
full behavioural state: node order, per-node neighbour order, degree
arrays, ``next_id`` and the content hash of the ``snapshot()`` payload.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.graph import OverlayGraph

# Same op-universe as test_graph_properties: a small node-id pool keeps
# collisions (dup edges, missing nodes) frequent.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["add_node", "remove_node", "add_edge", "remove_edge", "join"]),
        st.integers(0, 14),
        st.integers(0, 14),
    ),
    max_size=60,
)


def _apply(g: OverlayGraph, ops, offset: int = 0) -> None:
    for kind, a, b in ops:
        a, b = a + offset, b + offset
        if kind == "add_node":
            if a not in g:
                g.add_node(a)
        elif kind == "remove_node":
            if a in g:
                g.remove_node(a)
        elif kind == "add_edge":
            if a in g and b in g:
                g.try_add_edge(a, b)
        elif kind == "remove_edge":
            if g.has_edge(a, b):
                g.remove_edge(a, b)
        elif kind == "join":
            # Counter-allocated id, like a churn join.
            g.add_node()


def _snapshot_hash(g_or_twin) -> str:
    payload = json.dumps(g_or_twin.snapshot(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@given(_ops, st.sampled_from([0, 2**31]))
@example([], 0)
@example([], 2**31)
@example([("add_node", 3, 0), ("join", 0, 0)], 2**31)
@settings(max_examples=120, deadline=None)
def test_round_trip_is_identity(ops, offset):
    g = OverlayGraph()
    _apply(g, ops, offset)
    twin = ArrayOverlayGraph.from_overlay(g)
    twin.check_invariants()
    back = twin.to_overlay()
    assert list(back) == list(g)
    assert back.next_id == g.next_id
    for u in g:
        assert list(back.neighbors(u)) == list(g.neighbors(u))
    np.testing.assert_array_equal(back.degrees(), g.degrees())
    # The hand-off form: narrow arrays (int64 only for ids >= 2**31) that
    # unpack to int64 and to the same graph.
    packed = g.to_array().pack()
    wide = g.size and max(g) >= 2**31
    assert packed["nodes"].dtype == (np.int64 if wide else np.int32)
    unpacked = ArrayOverlayGraph.unpack(packed)
    for arr in (unpacked.nodes, unpacked.indptr, unpacked.indices):
        assert arr.dtype == np.int64
    assert OverlayGraph.from_array(unpacked).snapshot() == g.snapshot()


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_snapshot_hashes_match(ops):
    g = OverlayGraph()
    _apply(g, ops)
    twin = g.to_array()
    assert _snapshot_hash(twin) == _snapshot_hash(g)
    # Re-encoding the decoded graph is a fixed point.
    assert _snapshot_hash(twin.to_overlay().to_array()) == _snapshot_hash(g)


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_degree_arrays_consistent(ops):
    g = OverlayGraph()
    _apply(g, ops)
    twin = g.to_array()
    np.testing.assert_array_equal(twin.degrees(), g.degrees())
    nodes, indptr, flat = g.neighbour_arrays()
    np.testing.assert_array_equal(np.diff(indptr), g.degrees())
    np.testing.assert_array_equal(nodes, twin.nodes)
    # Twin indices decode to the same raw ids neighbour_arrays lists.
    if flat.size:
        np.testing.assert_array_equal(twin.nodes[twin.indices], flat)


@given(_ops, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_twin_cache_matches_fresh_encoding(ops, seed):
    g = OverlayGraph()
    _apply(g, ops)
    cached = g.to_array()
    fresh = ArrayOverlayGraph.from_overlay(g)
    np.testing.assert_array_equal(cached.nodes, fresh.nodes)
    np.testing.assert_array_equal(cached.indptr, fresh.indptr)
    np.testing.assert_array_equal(cached.indices, fresh.indices)
    assert cached.next_id == fresh.next_id
    # And sampling from either view draws from the same law-bearing state.
    if g.size:
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        pos = np.arange(cached.n, dtype=np.int64)
        np.testing.assert_array_equal(
            cached.sample_neighbors(pos, rng_a), fresh.sample_neighbors(pos, rng_b)
        )


@given(_ops, _ops)
@settings(max_examples=120, deadline=None)
def test_twin_backed_graph_behaves_like_dict_graph(setup, ops):
    """A graph backed by its twin (dict built on first use) and one built
    from the same state's snapshot end every op sequence identically."""
    base = OverlayGraph()
    _apply(base, setup)
    twin_backed = OverlayGraph.from_array(base.to_array())
    dict_built = OverlayGraph.restore(base.snapshot())
    _apply(twin_backed, ops)
    _apply(dict_built, ops)
    twin_backed.check_invariants()
    assert twin_backed.snapshot() == dict_built.snapshot()
    assert (twin_backed.size, twin_backed.num_edges, twin_backed.next_id) == (
        dict_built.size,
        dict_built.num_edges,
        dict_built.next_id,
    )
    assert _snapshot_hash(twin_backed.to_array()) == _snapshot_hash(dict_built)
