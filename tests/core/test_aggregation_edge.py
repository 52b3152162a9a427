"""Edge-path tests for AggregationProtocol left uncovered by the main suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregation import AggregationProtocol
from repro.core.base import EstimatorError
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import OverlayGraph


class TestReadPaths:
    def test_value_of_unknown_node(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=1)
        proto.start_epoch()
        with pytest.raises(EstimatorError, match="not alive"):
            proto.value_of(10**9)

    def test_value_of_alive_but_unprojected_joiner(self, small_het_graph):
        # a node that joined after epoch start but before any round has no
        # value yet; value_of must say "not participating", not crash
        proto = AggregationProtocol(small_het_graph, rng=1)
        proto.start_epoch()
        newcomer = small_het_graph.add_node()
        with pytest.raises(EstimatorError, match="not participating"):
            proto.value_of(newcomer)
        small_het_graph.remove_node(newcomer)  # restore the shared fixture

    def test_read_explicit_node(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=2)
        proto.start_epoch()
        proto.run_rounds(40)
        node = small_het_graph.random_node(3)
        est = proto.read(node=node)
        assert est.meta["read_node"] == node

    def test_read_all_marks_unreached_as_inf(self):
        g = OverlayGraph(nodes=[0, 1, 2], edges=[(0, 1)])
        proto = AggregationProtocol(g, rng=4)
        proto.start_epoch(initiator=0)
        proto.run_rounds(5)
        ests = proto.read_all()
        view = g.to_array()
        assert np.isinf(ests[view.position(2)])
        assert np.isfinite(ests[view.position(0)])

    def test_best_informed_fallback_requires_alive_participant(self):
        g = heterogeneous_random(20, rng=5)
        proto = AggregationProtocol(g, rng=6)
        proto.start_epoch()
        for u in list(g.nodes()):
            g.remove_node(u)
        with pytest.raises(EstimatorError):
            proto.read()

    def test_run_round_on_emptied_overlay(self):
        g = heterogeneous_random(10, rng=7)
        proto = AggregationProtocol(g, rng=8)
        proto.start_epoch()
        for u in list(g.nodes()):
            g.remove_node(u)
        assert proto.run_round() == 0

    def test_isolated_nodes_do_not_contact(self):
        g = OverlayGraph(nodes=[0, 1, 2])  # no edges at all
        proto = AggregationProtocol(g, rng=9)
        proto.start_epoch(initiator=0)
        contacts = proto.run_round()
        assert contacts == 0
        # initiator keeps the whole mass
        assert proto.value_of(0) == 1.0

    def test_estimate_meta_round_count(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=10)
        est = proto.estimate(rounds=7)
        assert est.meta["rounds"] == 7
        assert est.meta["epoch"] == 1

    def test_second_epoch_resets_values(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=11)
        proto.start_epoch()
        proto.run_rounds(20)
        proto.start_epoch()
        assert proto.total_mass() == pytest.approx(1.0)
        assert proto.rounds_in_epoch == 0
