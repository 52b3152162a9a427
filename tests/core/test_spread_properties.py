"""Property-based tests for the gossip spread and walk sampler internals.

These pin down structural invariants that hold for *any* overlay and any
seed — the kind of guarantee unit tests on fixed fixtures cannot give.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hops_sampling import _gossip_spread
from repro.core.sample_collide import SampleCollideEstimator
from repro.core.sampling import UniformWalkSampler
from repro.overlay.builders import erdos_renyi, heterogeneous_random, ring_lattice

_seeds = st.integers(0, 2**31 - 1)
_sizes = st.integers(5, 300)


def _overlay(kind: int, n: int, seed: int):
    if kind == 0:
        return heterogeneous_random(n, rng=seed)
    if kind == 1:
        return erdos_renyi(n, avg_degree=6, rng=seed)
    return ring_lattice(n, k=2)


class TestSpreadInvariants:
    @given(st.integers(0, 2), _sizes, _seeds, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_reached_set_is_gossip_connected(self, kind, n, seed, fanout):
        """Every reached node (except the initiator) has a neighbour whose
        recorded distance is strictly smaller — i.e. recorded distances
        witness actual gossip paths back to the initiator."""
        g = _overlay(kind, n, seed)
        view = g.to_array()
        rng = np.random.default_rng(seed + 1)
        spread = _gossip_spread(view, 0, fanout, 1, 1, rng)
        hops = spread.hops
        for pos in range(view.n):
            h = hops[pos]
            if h <= 0:
                continue
            neighbour_hops = [hops[int(q)] for q in view.neighbors(pos)]
            assert any(0 <= nh < h for nh in neighbour_hops), (
                f"node at recorded distance {h} has no closer neighbour"
            )

    @given(st.integers(0, 2), _sizes, _seeds)
    @settings(max_examples=60, deadline=None)
    def test_spread_accounting(self, kind, n, seed):
        g = _overlay(kind, n, seed)
        view = g.to_array()
        spread = _gossip_spread(view, 0, 2, 1, 1, np.random.default_rng(seed))
        assert 1 <= spread.reached <= view.n
        assert spread.rounds >= 1
        # every message was sent by an informed node with a live neighbour
        assert spread.spread_messages >= 0
        if view.degrees()[0] > 0:
            assert spread.spread_messages >= 2  # initiator's first fanout

    @given(_sizes, _seeds)
    @settings(max_examples=40, deadline=None)
    def test_initiator_always_reached_at_zero(self, n, seed):
        g = heterogeneous_random(n, rng=seed)
        view = g.to_array()
        init = int(seed % view.n)
        spread = _gossip_spread(view, init, 2, 1, 1, np.random.default_rng(seed))
        assert spread.hops[init] == 0


class TestWalkInvariants:
    @given(st.integers(0, 2), _sizes, _seeds, st.floats(0.5, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_walks_always_terminate_on_alive_nodes(self, kind, n, seed, timer):
        g = _overlay(kind, n, seed)
        sampler = UniformWalkSampler(g, timer=timer, rng=seed)
        init = g.random_node(seed)
        batch = sampler.sample_batch(init, 12)
        for node, hops in zip(batch.samples, batch.hops):
            assert int(node) in g
            assert hops >= 0
            if g.degree(init) > 0:
                assert hops >= 1  # the initiator always forwards once

    @given(_sizes, _seeds)
    @settings(max_examples=40, deadline=None)
    def test_sample_collide_meta_identity(self, n, seed):
        """draws = distinct + collisions (with multiplicity weighting the
        collision count can exceed draws - distinct only when a node is hit
        3+ times; the inequality below is the exact relationship)."""
        g = heterogeneous_random(n, rng=seed)
        est = SampleCollideEstimator(g, l=5, rng=seed + 1).estimate()
        draws = est.meta["draws"]
        distinct = est.meta["distinct"]
        collisions = est.meta["collisions"]
        # each of the (draws - distinct) repeat draws contributes >= 1
        assert collisions >= draws - distinct
        assert distinct <= draws
        assert est.value > 0
