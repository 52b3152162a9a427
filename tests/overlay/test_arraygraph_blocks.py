"""The twin's link check and departures, which run by row block.

``check_invariants`` and ``without`` walk the half-edge array one block
of rows at a time.  These tests hold them to the whole-array reference
versions of :mod:`sort_reference` on valid twins and on corrupted ones,
with blocks of 1-3 rows so that corruptions fall across block edges, and
bound the temporary memory both take at n=50k.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sort_reference
from repro.overlay import arraygraph
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import GraphError, OverlayGraph

_CORRUPTIONS = ["none", "self_loop", "repeat", "drop", "redirect"]


@st.composite
def _twins(draw):
    """A twin of a random graph (ids from 0 or 2**31, neighbours in
    shuffled insertion order), one corruption of its rows, and a set of
    departing nodes."""
    n = draw(st.integers(0, 12))
    offset = draw(st.sampled_from([0, 2**31]))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40)
    )
    ids = [offset + i for i in range(n)]
    edges = [(ids[a], ids[b]) for a, b in pairs if a < n and b < n and a != b]
    graph = OverlayGraph(nodes=ids)
    for u, v in edges:
        graph.try_add_edge(u, v)
    twin = graph.to_array()
    nodes, indptr, indices = twin.nodes, twin.indptr.copy(), twin.indices.copy()
    kind = draw(st.sampled_from(_CORRUPTIONS)) if indices.size else "none"
    if kind != "none":
        at = draw(st.integers(0, indices.size - 1))
        row = int(np.searchsorted(indptr, at, side="right")) - 1
        if kind == "self_loop":
            indices[at] = row
        elif kind == "repeat":
            lo, hi = int(indptr[row]), int(indptr[row + 1])
            indices[at] = indices[draw(st.integers(lo, hi - 1))]
        elif kind == "drop":
            indices = np.delete(indices, at)
            indptr[row + 1 :] -= 1
        else:
            indices[at] = draw(st.integers(0, n - 1))
    victims = draw(st.lists(st.sampled_from(ids), unique=True)) if n else []
    return ArrayOverlayGraph(nodes, indptr, indices, twin.next_id), kind, victims


def _verdict(check):
    try:
        check()
    except GraphError as exc:
        return str(exc)
    return None


def _departure(twin, victims, without):
    try:
        out = without(twin, victims)
    except GraphError as exc:
        return str(exc)
    return [(a.dtype.str, a.tolist()) for a in (out.nodes, out.indptr, out.indices)], out.next_id


@given(_twins(), st.integers(1, 3))
@settings(max_examples=400, deadline=None)
def test_blocked_code_matches_the_sort_reference(case, block):
    """Same verdict and message from ``check_invariants``, and the same
    arrays, dtypes and ``next_id`` (or the same error) from ``without``,
    as the whole-array reference, whatever the block size."""
    twin, kind, victims = case
    expected = _verdict(lambda: sort_reference.check_invariants(twin))
    if kind == "none":
        assert expected is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arraygraph, "_SCAN_BLOCK", block)
        assert _verdict(twin.check_invariants) == expected
        assert _departure(twin, victims, ArrayOverlayGraph.without) == _departure(
            twin, victims, sort_reference.without
        )


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([[1], [0, 2], [1, 1]], "repeated neighbour"),  # repeat in the last block
        ([[1], [2], [1, 1]], "repeated neighbour"),  # asymmetric first, repeat later
        ([[1], [0], [2]], "self-loop"),  # self-loop after a valid block
        ([[1, 2], [0], []], "asymmetric"),
    ],
)
def test_the_verdict_covers_every_block(monkeypatch, rows, reason):
    """With one row per block, a fault in a later block still decides
    the verdict in the reference's order: self-loop, then repeat, then
    asymmetry."""
    monkeypatch.setattr(arraygraph, "_SCAN_BLOCK", 1)
    twin = ArrayOverlayGraph(
        np.arange(len(rows), dtype=np.int32),
        np.cumsum([0] + [len(r) for r in rows]).astype(np.int32),
        np.array(list(itertools.chain(*rows)), dtype=np.int32),
        len(rows),
    )
    with pytest.raises(GraphError, match=reason):
        sort_reference.check_invariants(twin)
    with pytest.raises(GraphError, match=reason):
        twin.check_invariants()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unpack_and_departures_hold_no_full_size_temporary():
    """At n=50k the link check peaks below two int32 half-edge arrays
    (the sorted upward keys take one), and 250 departures peak below the
    twin they return plus half of one; the whole-array versions peak at
    6.2 and 4.8 MB."""
    twin = heterogeneous_random(50_000, rng=np.random.default_rng(42)).to_array()
    packed = twin.pack()
    half_edges = twin.indices.nbytes
    assert _traced_peak(lambda: ArrayOverlayGraph.unpack(packed)) < 2 * half_edges
    victims = np.random.default_rng(1).choice(twin.nodes, 250, replace=False)
    out = twin.without(victims)
    returned = sum(a.nbytes for a in (out.nodes, out.indptr, out.indices))
    assert _traced_peak(lambda: twin.without(victims)) < returned + half_edges // 2
