"""Tests for gossip-based Aggregation: the protocol and the monitor."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.churn.models import ChurnEvent, ChurnTrace
from repro.churn.scheduler import ChurnScheduler
from repro.core.aggregation import AggregationMonitor, AggregationProtocol
from repro.core.base import EstimatorError
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import OverlayGraph
from repro.overlay.membership import MembershipPolicy
from repro.sim.messages import MessageKind, MessageMeter
from repro.sim.rounds import RoundDriver


class TestEpochLifecycle:
    def test_start_epoch_sets_unit_mass(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=1)
        proto.start_epoch()
        assert proto.total_mass() == pytest.approx(1.0)
        assert proto.value_of(proto.initiator) == 1.0

    def test_epoch_counter(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=1)
        assert proto.epoch == 0
        proto.start_epoch()
        assert proto.epoch == 1
        proto.start_epoch()
        assert proto.epoch == 2

    def test_explicit_initiator(self, small_het_graph):
        init = small_het_graph.random_node(0)
        proto = AggregationProtocol(small_het_graph, rng=1)
        proto.start_epoch(initiator=init)
        assert proto.initiator == init

    def test_dead_initiator_rejected(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=1)
        with pytest.raises(EstimatorError):
            proto.start_epoch(initiator=10**9)

    def test_empty_overlay_rejected(self):
        with pytest.raises(EstimatorError):
            AggregationProtocol(OverlayGraph()).start_epoch()

    def test_round_before_epoch_rejected(self, small_het_graph):
        with pytest.raises(EstimatorError):
            AggregationProtocol(small_het_graph, rng=1).run_round()


class TestMassConservation:
    def test_static_mass_invariant(self, small_het_graph):
        # THE core invariant: push-pull averaging conserves total mass in a
        # static overlay, hence convergence to exactly 1/N.
        proto = AggregationProtocol(small_het_graph, rng=2)
        proto.start_epoch()
        for _ in range(30):
            proto.run_round()
            assert proto.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_values_stay_nonnegative(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=3)
        proto.start_epoch()
        proto.run_rounds(20)
        view = small_het_graph.to_array()
        for node in view.nodes:
            assert proto.value_of(int(node)) >= 0.0

    def test_max_value_contracts(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=4)
        proto.start_epoch()
        proto.run_rounds(3)
        early = max(proto.value_of(int(u)) for u in small_het_graph.nodes())
        proto.run_rounds(20)
        late = max(proto.value_of(int(u)) for u in small_het_graph.nodes())
        assert late < early


class TestConvergence:
    def test_converges_to_exact_size(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=5)
        est = proto.estimate(rounds=40)
        assert est.value == pytest.approx(small_het_graph.size, rel=0.01)

    def test_every_node_converges(self, small_het_graph):
        proto = AggregationProtocol(small_het_graph, rng=6)
        proto.start_epoch()
        proto.run_rounds(45)
        ests = proto.read_all()
        assert np.isfinite(ests).all()
        assert np.allclose(ests, small_het_graph.size, rtol=0.05)

    def test_convergence_rounds_scale_with_log_n(self):
        # Rounds to 1% error should grow roughly with log N, the paper's
        # 40-at-100k vs 50-at-1M observation.
        def rounds_to_converge(n, seed):
            g = heterogeneous_random(n, rng=seed)
            proto = AggregationProtocol(g, rng=seed + 1)
            proto.start_epoch()
            for r in range(1, 200):
                proto.run_round()
                if abs(proto.read().value - g.size) / g.size < 0.01:
                    return r
            return 200

        r_small = rounds_to_converge(200, 7)
        r_big = rounds_to_converge(2_000, 8)
        assert r_small < r_big <= r_small + 25

    def test_read_before_reached_rejected(self):
        # A node in a different component never receives mass.
        g = OverlayGraph(nodes=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        proto = AggregationProtocol(g, rng=9)
        proto.start_epoch(initiator=0)
        proto.run_rounds(10)
        with pytest.raises(EstimatorError):
            proto.read(node=2)

    def test_disconnected_component_estimates_component_size(self):
        # Mass stays in the initiator's component: the estimate converges to
        # the component size, not the overlay size (Fig 17's mechanism).
        g = OverlayGraph(nodes=range(6), edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        proto = AggregationProtocol(g, rng=10)
        proto.start_epoch(initiator=0)
        proto.run_rounds(60)
        assert proto.read(node=0).value == pytest.approx(3.0, rel=0.01)


class TestOverhead:
    def test_two_messages_per_contact(self, small_het_graph):
        meter = MessageMeter()
        proto = AggregationProtocol(small_het_graph, rng=11, meter=meter)
        proto.start_epoch()
        contacts = proto.run_round()
        assert meter.count(MessageKind.EXCHANGE) == 2 * contacts

    def test_full_estimate_cost_formula(self, small_het_graph):
        # No isolated nodes in the fixture => contacts = N per round and
        # overhead = N * rounds * 2 exactly (the paper's formula).
        est = AggregationProtocol(small_het_graph, rng=12).estimate(rounds=10)
        assert est.messages == small_het_graph.size * 10 * 2


class TestChurnSemantics:
    def test_departures_freeze_estimate_conservative_effect(self):
        # §IV-D: once converged, removing nodes leaves the estimate at the
        # epoch-start size (mass and population shrink proportionally).
        g = heterogeneous_random(500, rng=13)
        proto = AggregationProtocol(g, rng=14)
        proto.start_epoch()
        proto.run_rounds(40)
        MembershipPolicy(g, rng=15).leave(125)  # -25%
        proto.run_rounds(20)
        est = proto.read(node=None)
        assert est.value == pytest.approx(500, rel=0.1)  # stale, NOT 375

    def test_joins_tracked_within_epoch(self):
        # Joiners enter at value 0 (mass preserving) => estimate grows to
        # the new size without a restart.
        g = heterogeneous_random(500, rng=16)
        proto = AggregationProtocol(g, rng=17)
        proto.start_epoch()
        proto.run_rounds(30)
        MembershipPolicy(g, rng=18).join(250)  # +50%
        proto.run_rounds(40)
        assert proto.read().value == pytest.approx(750, rel=0.05)

    def test_initiator_departure_read_falls_back(self):
        g = heterogeneous_random(300, rng=19)
        proto = AggregationProtocol(g, rng=20)
        proto.start_epoch()
        proto.run_rounds(30)
        g.remove_node(proto.initiator)
        proto.run_rounds(5)
        est = proto.read()  # falls back to best-informed alive node
        assert est.value == pytest.approx(300, rel=0.1)

    def test_mass_drops_when_holder_leaves_early(self):
        g = heterogeneous_random(100, rng=21)
        proto = AggregationProtocol(g, rng=22)
        proto.start_epoch()
        # Remove the initiator before any gossip: the whole unit of mass
        # vanishes with it.
        g.remove_node(proto.initiator)
        proto.run_rounds(2)
        assert proto.total_mass() == pytest.approx(0.0, abs=1e-12)


class TestMonitor:
    def test_restart_cadence(self, small_het_graph):
        driver = RoundDriver()
        monitor = AggregationMonitor(small_het_graph, restart_interval=20, rng=23)
        monitor.attach(driver)
        driver.run(100)
        rounds = [r for r, _ in monitor.epoch_estimates]
        assert len(rounds) == 4  # epochs close at 21, 41, 61, 81... ~4 in 100
        assert monitor.failures == 0

    def test_estimates_accurate_in_static_overlay(self, small_het_graph):
        driver = RoundDriver()
        monitor = AggregationMonitor(small_het_graph, restart_interval=30, rng=24)
        monitor.attach(driver)
        driver.run(95)
        for _, est in monitor.epoch_estimates:
            assert est == pytest.approx(small_het_graph.size, rel=0.02)

    def test_series_holds_last_estimate(self, small_het_graph):
        driver = RoundDriver()
        monitor = AggregationMonitor(small_het_graph, restart_interval=10, rng=25)
        monitor.attach(driver)
        driver.run(25)
        # Before the first epoch closes the series is NaN; after, it holds.
        assert math.isnan(monitor.series[0])
        assert monitor.series[-1] == monitor.epoch_estimates[-1][1]

    def test_tracks_growth_across_epochs(self):
        g = heterogeneous_random(300, rng=26)
        trace = ChurnTrace([ChurnEvent(time=15.0, joins=300)])
        driver = RoundDriver()
        ChurnScheduler(g, trace, rng=27).attach(driver)
        monitor = AggregationMonitor(g, restart_interval=25, rng=28)
        monitor.attach(driver)
        driver.run(110)
        final_estimates = [e for _, e in monitor.epoch_estimates][-2:]
        for est in final_estimates:
            assert est == pytest.approx(600, rel=0.1)

    def test_invalid_interval(self, small_het_graph):
        with pytest.raises(ValueError):
            AggregationMonitor(small_het_graph, restart_interval=0)

    def test_survives_total_failure_window(self):
        # Overlay empties entirely, then refills: the monitor must not crash
        # and must resume estimating.
        g = heterogeneous_random(100, rng=29)
        trace = ChurnTrace([
            ChurnEvent(time=5.0, frac_leaves=1.0),
            ChurnEvent(time=10.0, joins=50),
        ])
        driver = RoundDriver()
        ChurnScheduler(g, trace, rng=30).attach(driver)
        monitor = AggregationMonitor(g, restart_interval=15, rng=31)
        monitor.attach(driver)
        driver.run(80)
        assert g.size == 50
        assert monitor.epoch_estimates  # produced something after recovery
