"""Tests for the message-level network simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hops_sampling import _gossip_spread
from repro.core.kernels import bfs_frontier_distances
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import OverlayGraph
from repro.sim.latency import LatencyModel
from repro.sim.messages import MessageKind
from repro.sim.network import Message, MessageLevelSpread, Network


class TestNetworkDelivery:
    def test_message_delivered_to_handler(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        net = Network(g, rng=1)
        got = []
        net.set_handler(1, lambda n, node, msg: got.append((node, msg.payload)))
        net.send(0, 1, MessageKind.SPREAD, payload="hi")
        net.run()
        assert got == [(1, "hi")]
        assert net.delivered == 1

    def test_latency_orders_deliveries(self):
        g = OverlayGraph(nodes=[0, 1, 2], edges=[(0, 1), (0, 2)])
        # jittered latencies: delivery order follows the draws, not send order
        net = Network(g, latency=LatencyModel(median_ms=50, sigma=1.0, rng=7), rng=7)
        order = []
        net.set_default_handler(lambda n, node, msg: order.append(node))
        for _ in range(20):
            net.send(0, 1, MessageKind.SPREAD)
            net.send(0, 2, MessageKind.SPREAD)
        net.run()
        assert len(order) == 40
        assert order != [1, 2] * 20  # at least one inversion occurred

    def test_departed_receiver_drops_but_charges(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        net = Network(g, rng=2)
        net.set_default_handler(lambda n, node, msg: None)
        net.send(0, 1, MessageKind.SPREAD)
        g.remove_node(1)
        net.run()
        assert net.dropped == 1
        assert net.meter.count(MessageKind.SPREAD) == 1  # still on the wire

    def test_no_handler_counts_as_drop(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        net = Network(g, rng=3)
        net.send(0, 1, MessageKind.REPLY)
        net.run()
        assert net.dropped == 1

    def test_handlers_can_send(self):
        # a 3-hop relay: 0 -> 1 -> 2
        g = OverlayGraph(nodes=[0, 1, 2], edges=[(0, 1), (1, 2)])
        net = Network(g, rng=4)
        arrived = []

        def relay(n: Network, node: int, msg: Message):
            if node == 1:
                n.send(1, 2, MessageKind.SPREAD, payload=msg.payload)
            else:
                arrived.append(msg.payload)

        net.set_default_handler(relay)
        net.send(0, 1, MessageKind.SPREAD, payload=42)
        net.run()
        assert arrived == [42]

    def test_virtual_time_advances_by_latency(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        net = Network(g, latency=LatencyModel(median_ms=100, sigma=0.0, rng=5))
        net.set_default_handler(lambda n, node, msg: None)
        net.send(0, 1, MessageKind.SPREAD)
        net.run()
        assert net.engine.now == pytest.approx(0.1)


class TestMessageLevelSpread:
    def test_agrees_with_round_level_kernel(self):
        """The validation the module exists for: message-level and
        round-level spreads must land in the same coverage band and the
        same message-count scaling."""
        g = heterogeneous_random(1_500, rng=10)
        # round-level
        view = g.to_array()
        rl = _gossip_spread(view, 0, 2, 1, 1, np.random.default_rng(11))
        # message-level (constant latency => pure ordering differences)
        net = Network(g, rng=12)
        ml = MessageLevelSpread(net, gossip_to=2, rng=13)
        ml.run(int(view.nodes[0]))
        assert abs(ml.coverage() - rl.coverage()) < 0.08
        sent = net.meter.count(MessageKind.SPREAD)
        assert sent == pytest.approx(rl.spread_messages, rel=0.15)

    def test_min_hop_rule(self):
        g = heterogeneous_random(400, rng=14)
        net = Network(g, rng=15)
        spread = MessageLevelSpread(net, rng=16)
        init = g.random_node(0)
        spread.run(init)
        assert spread.hops[init] == 0
        # recorded hops never below BFS distance
        view = g.to_array()
        bfs = bfs_frontier_distances(view, view.position(init))
        for node, hop in spread.hops.items():
            assert hop >= bfs[view.position(node)]

    def test_completion_time_positive_and_bounded(self):
        g = heterogeneous_random(500, rng=17)
        net = Network(g, latency=LatencyModel(median_ms=50, sigma=0.0, rng=18))
        spread = MessageLevelSpread(net, rng=19)
        spread.run(g.random_node(1))
        # lock-step lower bound: one latency per epidemic generation
        assert spread.finished_at >= 0.05 * 3
        assert spread.finished_at < 0.05 * 100

    def test_dead_initiator_rejected(self):
        g = heterogeneous_random(50, rng=20)
        net = Network(g, rng=21)
        with pytest.raises(ValueError):
            MessageLevelSpread(net, rng=22).run(10**9)

    def test_parameter_validation(self):
        g = OverlayGraph(nodes=[0])
        net = Network(g, rng=23)
        with pytest.raises(ValueError):
            MessageLevelSpread(net, gossip_to=0)

    def test_isolated_initiator(self):
        g = OverlayGraph(nodes=[0])
        net = Network(g, rng=24)
        spread = MessageLevelSpread(net, rng=25)
        spread.run(0)
        assert spread.reached == 1
        assert net.meter.total == 0
