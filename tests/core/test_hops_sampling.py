"""Tests for HopsSampling (minHopsReporting) and the gossipSample variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import EstimatorError
from repro.core.hops_sampling import (
    GossipSampleEstimator,
    HopsSamplingEstimator,
    _gossip_spread,
)
from repro.core.kernels import bfs_frontier_distances
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import OverlayGraph
from repro.sim.messages import MessageKind, MessageMeter


class TestSpread:
    def test_coverage_band(self, het_graph):
        # Fanout 2 with one duplicate-triggered re-gossip reaches most but
        # not all of the overlay — the paper measured ≈89%.
        view = het_graph.to_array()
        rng = np.random.default_rng(1)
        spread = _gossip_spread(view, 0, gossip_to=2, gossip_for=1, gossip_until=1, rng=rng)
        assert 0.80 <= spread.coverage() <= 0.99

    def test_initiator_at_distance_zero(self, small_het_graph):
        view = small_het_graph.to_array()
        spread = _gossip_spread(view, 5, 2, 1, 1, np.random.default_rng(2))
        assert spread.hops[5] == 0

    def test_recorded_distances_bounded_by_bfs_below(self, small_het_graph):
        # Gossip paths are never shorter than shortest paths.
        view = small_het_graph.to_array()
        spread = _gossip_spread(view, 0, 2, 1, 1, np.random.default_rng(3))
        bfs = bfs_frontier_distances(view, 0)
        reached = spread.hops >= 0
        assert (spread.hops[reached] >= bfs[reached]).all()

    def test_higher_fanout_improves_coverage(self, het_graph):
        view = het_graph.to_array()
        c2 = _gossip_spread(view, 0, 2, 1, 1, np.random.default_rng(4)).coverage()
        c5 = _gossip_spread(view, 0, 5, 1, 1, np.random.default_rng(4)).coverage()
        assert c5 > c2

    def test_message_count_tracks_fanout(self, het_graph):
        view = het_graph.to_array()
        s = _gossip_spread(view, 0, 2, 1, 1, np.random.default_rng(5))
        # every informed node sends gossip_to messages at least once
        assert s.spread_messages >= 2 * 0.8 * s.reached
        assert s.spread_messages <= 5 * view.n

    def test_single_node_spread(self):
        g = OverlayGraph(nodes=[0])
        view = g.to_array()
        s = _gossip_spread(view, 0, 2, 1, 1, np.random.default_rng(6))
        assert s.reached == 1
        assert s.spread_messages == 0


class TestEstimator:
    def test_positive_estimate(self, het_graph):
        est = HopsSamplingEstimator(het_graph, rng=1).estimate()
        assert est.value > 0
        assert est.algorithm == "hops_sampling"

    def test_under_estimation_bias(self, het_graph):
        # The paper's signature finding: consistent under-estimation from
        # unreached nodes.
        quals = [
            HopsSamplingEstimator(het_graph, rng=100 + s).estimate().quality(het_graph.size)
            for s in range(20)
        ]
        assert np.mean(quals) < 100.0
        assert np.mean(quals) > 60.0

    def test_oracle_distances_remove_bias(self, het_graph):
        # §V verification: exact distances => unbiased estimate.
        quals = [
            HopsSamplingEstimator(het_graph, rng=200 + s, oracle_distances=True)
            .estimate()
            .quality(het_graph.size)
            for s in range(20)
        ]
        assert np.mean(quals) == pytest.approx(100.0, abs=6)

    def test_estimate_tracks_reached_count(self, het_graph):
        # Unbiased w.r.t. the reached population: over repetitions, the mean
        # estimate matches the mean number of reached nodes.
        ests, reached = [], []
        for s in range(20):
            e = HopsSamplingEstimator(het_graph, rng=300 + s).estimate()
            ests.append(e.value)
            reached.append(e.meta["reached"])
        assert np.mean(ests) == pytest.approx(np.mean(reached), rel=0.1)

    def test_meta_fields(self, het_graph):
        est = HopsSamplingEstimator(het_graph, rng=2).estimate()
        for key in ("reached", "coverage", "replies", "spread_rounds", "initiator"):
            assert key in est.meta

    def test_min_hops_zero_still_works(self, small_het_graph):
        est = HopsSamplingEstimator(small_het_graph, min_hops_reporting=0, rng=3).estimate()
        assert est.value > 0

    def test_large_min_hops_replies_from_everyone_reached(self, small_het_graph):
        est = HopsSamplingEstimator(small_het_graph, min_hops_reporting=100, rng=4).estimate()
        # everyone reached replies with probability 1
        assert est.meta["replies"] == est.meta["reached"] - 1
        assert est.value == pytest.approx(est.meta["reached"])

    def test_fixed_initiator(self, small_het_graph):
        init = small_het_graph.random_node(0)
        est = HopsSamplingEstimator(small_het_graph, initiator=init, rng=5).estimate()
        assert est.meta["initiator"] == init

    def test_departed_initiator_rejected(self):
        g = heterogeneous_random(100, rng=6)
        est = HopsSamplingEstimator(g, initiator=0, rng=6)
        g.remove_node(0)
        with pytest.raises(EstimatorError):
            est.estimate()

    def test_empty_overlay_rejected(self):
        with pytest.raises(EstimatorError):
            HopsSamplingEstimator(OverlayGraph()).estimate()

    def test_parameter_validation(self, small_het_graph):
        with pytest.raises(ValueError):
            HopsSamplingEstimator(small_het_graph, gossip_to=0)
        with pytest.raises(ValueError):
            HopsSamplingEstimator(small_het_graph, gossip_for=0)
        with pytest.raises(ValueError):
            HopsSamplingEstimator(small_het_graph, gossip_until=0)
        with pytest.raises(ValueError):
            HopsSamplingEstimator(small_het_graph, min_hops_reporting=-1)

    def test_deterministic(self, small_het_graph):
        a = HopsSamplingEstimator(small_het_graph, rng=9).estimate()
        b = HopsSamplingEstimator(small_het_graph, rng=9).estimate()
        assert a.value == b.value

    def test_single_node_overlay(self):
        g = OverlayGraph(nodes=[0])
        est = HopsSamplingEstimator(g, rng=1).estimate()
        assert est.value == 1.0


class TestOverhead:
    def test_messages_are_spread_plus_replies(self, het_graph):
        meter = MessageMeter()
        est = HopsSamplingEstimator(het_graph, rng=11, meter=meter).estimate()
        assert est.messages == meter.count(MessageKind.SPREAD) + meter.count(
            MessageKind.REPLY
        )
        assert meter.count(MessageKind.REPLY) == est.meta["replies"]

    def test_overhead_theta_n(self):
        small = heterogeneous_random(500, rng=12)
        big = heterogeneous_random(2_000, rng=13)
        m_small = np.mean(
            [HopsSamplingEstimator(small, rng=s).estimate().messages for s in range(6)]
        )
        m_big = np.mean(
            [HopsSamplingEstimator(big, rng=s).estimate().messages for s in range(6)]
        )
        assert m_big / m_small == pytest.approx(4.0, rel=0.3)


class TestGossipSample:
    def test_positive_estimate(self, het_graph):
        est = GossipSampleEstimator(het_graph, rng=1).estimate()
        assert est.value > 0
        assert est.algorithm == "gossip_sample"

    def test_tracks_reached_population(self, het_graph):
        ests, reached = [], []
        for s in range(20):
            e = GossipSampleEstimator(het_graph, reply_probability=0.1, rng=s).estimate()
            ests.append(e.value)
            reached.append(e.meta["reached"])
        assert np.mean(ests) == pytest.approx(np.mean(reached), rel=0.15)

    def test_noisier_than_min_hops_at_small_p(self, het_graph):
        gs = [
            GossipSampleEstimator(het_graph, reply_probability=0.01, rng=s)
            .estimate()
            .value
            for s in range(20)
        ]
        mh = [
            HopsSamplingEstimator(het_graph, rng=s).estimate().value for s in range(20)
        ]
        assert np.std(gs) > np.std(mh)

    def test_reply_probability_validation(self, small_het_graph):
        with pytest.raises(ValueError):
            GossipSampleEstimator(small_het_graph, reply_probability=0.0)
        with pytest.raises(ValueError):
            GossipSampleEstimator(small_het_graph, reply_probability=1.5)

    def test_departed_initiator(self):
        g = heterogeneous_random(80, rng=3)
        est = GossipSampleEstimator(g, initiator=0, rng=3)
        g.remove_node(0)
        with pytest.raises(EstimatorError):
            est.estimate()

    def test_empty_overlay(self):
        with pytest.raises(EstimatorError):
            GossipSampleEstimator(OverlayGraph()).estimate()
