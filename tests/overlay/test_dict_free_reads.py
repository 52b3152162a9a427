"""Reads of a twin-backed overlay never build its adjacency dict.

Every estimator reads the overlay's CSR twin on either backend, and so do
the aggregation round, ``random_node``, membership tests and the views.
A twin-backed graph (what the builders return, and what departure
batches keep) therefore answers all of them without the O(n + m) dict
build, and with the same numbers a dict-built copy of it gives.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregation import AggregationProtocol
from repro.core.hops_sampling import HopsSamplingEstimator
from repro.core.random_tour import RandomTourEstimator
from repro.core.sample_collide import SampleCollideEstimator
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import OverlayGraph
from repro.overlay.membership import MembershipPolicy
from repro.overlay.views import degree_stats, is_connected, largest_component_fraction


def _dict_built(graph: OverlayGraph) -> bool:
    """Whether ``graph`` has built its adjacency dict (white-box probe)."""
    return "_adj" in vars(graph)


def _reads(graph: OverlayGraph):
    """Every dict-backend read, from one generator; returns what each read."""
    rng = np.random.default_rng(20060619)
    twin = graph.to_array()
    linked = int(twin.nodes[np.flatnonzero(twin.degrees())[0]])
    estimates = [
        SampleCollideEstimator(graph, l=20, rng=rng).estimate(),
        HopsSamplingEstimator(graph, rng=rng).estimate(),
        HopsSamplingEstimator(graph, rng=rng, initiator=linked, oracle_distances=True).estimate(),
        RandomTourEstimator(graph, rng=rng, initiator=linked).estimate(),
    ]
    protocol = AggregationProtocol(graph, rng=rng)
    protocol.start_epoch(initiator=linked)
    contacts = protocol.run_round()
    return [
        [(e.value, e.messages, e.meta) for e in estimates],
        (contacts, protocol.read().value, protocol.read_all().tolist()),
        graph.random_node(rng),
        linked in graph,
        degree_stats(graph),
        is_connected(graph),
        largest_component_fraction(graph),
    ]


def test_dict_backend_reads_leave_the_dict_unbuilt():
    graph = heterogeneous_random(400, rng=11)
    MembershipPolicy(graph, rng=2).leave(60)  # swaps in a smaller twin
    assert not _dict_built(graph)
    _reads(graph)
    assert not _dict_built(graph)


def test_dict_free_reads_match_a_dict_built_graph():
    graph = heterogeneous_random(400, rng=12)
    MembershipPolicy(graph, rng=3).leave(60)
    built = OverlayGraph.restore(graph.snapshot())
    assert _dict_built(built)
    assert _reads(graph) == _reads(built)
    assert not _dict_built(graph)
