"""Tests for the timer-walk uniform sampler (§III-A)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core.sampling import UniformWalkSampler
from repro.overlay.builders import heterogeneous_random, ring_lattice, scale_free
from repro.overlay.graph import OverlayGraph
from repro.sim.messages import MessageKind, MessageMeter


class TestBasics:
    def test_batch_shapes(self, small_het_graph):
        sampler = UniformWalkSampler(small_het_graph, timer=10, rng=1)
        init = small_het_graph.random_node(0)
        batch = sampler.sample_batch(init, 50)
        assert len(batch) == 50
        assert batch.samples.shape == (50,)
        assert batch.hops.shape == (50,)

    def test_samples_are_alive_nodes(self, small_het_graph):
        sampler = UniformWalkSampler(small_het_graph, timer=10, rng=2)
        init = small_het_graph.random_node(0)
        batch = sampler.sample_batch(init, 100)
        for s in batch.samples:
            assert int(s) in small_het_graph

    def test_zero_count(self, small_het_graph):
        sampler = UniformWalkSampler(small_het_graph, timer=10, rng=3)
        batch = sampler.sample_batch(small_het_graph.random_node(0), 0)
        assert len(batch) == 0

    def test_negative_count_rejected(self, small_het_graph):
        sampler = UniformWalkSampler(small_het_graph, rng=3)
        with pytest.raises(ValueError):
            sampler.sample_batch(small_het_graph.random_node(0), -1)

    def test_dead_initiator_rejected(self, small_het_graph):
        sampler = UniformWalkSampler(small_het_graph, rng=3)
        with pytest.raises(ValueError):
            sampler.sample_batch(10**9, 5)

    def test_invalid_timer(self, small_het_graph):
        with pytest.raises(ValueError):
            UniformWalkSampler(small_het_graph, timer=0.0)
        with pytest.raises(ValueError):
            UniformWalkSampler(small_het_graph, timer=5.0, max_hops=0)

    def test_isolated_initiator_samples_itself(self):
        g = OverlayGraph(nodes=[0])
        sampler = UniformWalkSampler(g, timer=10, rng=4)
        batch = sampler.sample_batch(0, 5)
        assert list(batch.samples) == [0] * 5
        assert list(batch.hops) == [0] * 5

    def test_two_node_graph(self):
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        sampler = UniformWalkSampler(g, timer=5, rng=5)
        batch = sampler.sample_batch(0, 40)
        assert set(int(s) for s in batch.samples) <= {0, 1}
        assert (batch.hops >= 1).all()


class TestMetering:
    def test_meter_counts_hops_and_replies(self, small_het_graph):
        sampler = UniformWalkSampler(small_het_graph, timer=10, rng=6)
        meter = MessageMeter()
        batch = sampler.sample_batch(small_het_graph.random_node(0), 30, meter=meter)
        assert meter.count(MessageKind.WALK) == batch.total_hops
        assert meter.count(MessageKind.REPLY) == 30

    def test_no_meter_is_fine(self, small_het_graph):
        sampler = UniformWalkSampler(small_het_graph, timer=10, rng=6)
        sampler.sample_batch(small_het_graph.random_node(0), 5, meter=None)


class TestWalkLength:
    def test_expected_hops_scales_with_timer(self, het_graph):
        init = het_graph.random_node(0)
        short = UniformWalkSampler(het_graph, timer=2, rng=7)
        long = UniformWalkSampler(het_graph, timer=10, rng=7)
        h_short = short.sample_batch(init, 200).hops.mean()
        h_long = long.sample_batch(init, 200).hops.mean()
        assert h_long > 3 * h_short

    def test_mean_hops_near_timer_times_degree(self, het_graph):
        # Theory: E[hops] ≈ T · d̄ (degree-biased jump chain consumes 1/d̄
        # of budget per hop on average).
        sampler = UniformWalkSampler(het_graph, timer=10, rng=8)
        init = het_graph.random_node(1)
        got = sampler.sample_batch(init, 400).hops.mean()
        expect = sampler.expected_hops_per_walk()
        assert got == pytest.approx(expect, rel=0.15)

    def test_max_hops_cap(self, small_het_graph):
        sampler = UniformWalkSampler(small_het_graph, timer=1e9, rng=9, max_hops=50)
        batch = sampler.sample_batch(small_het_graph.random_node(0), 10)
        assert (batch.hops <= 51).all()

    def test_expected_hops_empty_graph(self):
        g = OverlayGraph(nodes=[0])
        assert UniformWalkSampler(g, timer=10).expected_hops_per_walk() == 0.0


class TestUniformity:
    """The sampler's whole point: asymptotically uniform samples even on
    degree-heterogeneous graphs (a plain random walk would be degree-biased).
    """

    def _chi2_pvalue(self, graph, timer, draws=6_000, seed=10):
        sampler = UniformWalkSampler(graph, timer=timer, rng=seed)
        init = graph.random_node(0)
        batch = sampler.sample_batch(init, draws)
        view = graph.to_array()
        counts = np.zeros(view.n)
        for s in batch.samples:
            counts[view.position(s)] += 1
        expected = draws / view.n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        return stats.chi2.sf(chi2, df=view.n - 1)

    def test_uniform_on_heterogeneous_graph(self):
        g = heterogeneous_random(150, rng=21)
        p = self._chi2_pvalue(g, timer=30.0)
        assert p > 1e-3  # not rejected at any sane level

    def test_uniform_on_scale_free_graph(self):
        # This is the case where naive degree-biased sampling fails hardest.
        g = scale_free(150, m=3, rng=22)
        p = self._chi2_pvalue(g, timer=30.0)
        assert p > 1e-3

    def test_tiny_timer_is_biased_near_initiator(self):
        # Sanity check of the test itself: with an insufficient budget the
        # walk barely leaves the initiator and uniformity must fail.
        g = ring_lattice(150, k=1)  # poor expansion amplifies the effect
        p = self._chi2_pvalue(g, timer=0.5)
        assert p < 1e-6

    def test_degree_bias_removed(self):
        # Sampling frequency must not correlate with degree.
        g = scale_free(200, m=2, rng=23)
        sampler = UniformWalkSampler(g, timer=30.0, rng=24)
        batch = sampler.sample_batch(g.random_node(0), 8_000)
        view = g.to_array()
        counts = np.zeros(view.n)
        for s in batch.samples:
            counts[view.position(s)] += 1
        degs = view.degrees().astype(float)
        corr = np.corrcoef(degs, counts)[0, 1]
        assert abs(corr) < 0.12
