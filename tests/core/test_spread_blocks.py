"""The HopsSampling spread and reports, which run by block.

``gossip_spread_kernel`` sends each round's active rows in blocks, and
``HopsSamplingEstimator``/``GossipSampleEstimator`` draw their report
coins block by block over the reached rows.  These tests hold them to the
whole-round, whole-array reference versions of :mod:`spread_reference`
with blocks of 1-3, so every round and every report splits: equal hops,
messages, rounds, estimates and generator end states on fresh twins,
churned twins (isolated rows) and twins with ids of ``2**31`` and up.
They also bound the memory one array estimate takes at n=100k.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

import spread_reference
from repro.core import hops_sampling, kernels
from repro.core.hops_sampling import GossipSampleEstimator, HopsSamplingEstimator
from repro.core.kernels import gossip_spread_kernel
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import OverlayGraph
from repro.overlay.membership import MembershipPolicy
from repro.sim.rng import generator_state

BIG = 2**31
KINDS = ["fresh", "churned", "big_ids"]
BLOCKS = [1, 2, 3]
GRID = list(itertools.product((1, 2, 3), (1, 2), (1, 3, 200)))


def _twin(kind: str, gossip_until: int) -> ArrayOverlayGraph:
    # A budget of 200 re-gossips lasts thousands of rounds at fanout 1,
    # so those cells take a smaller overlay.
    n, leaving = (64, 30) if gossip_until < 200 else (24, 14)
    graph = heterogeneous_random(n, rng=5)
    if kind == "churned":
        # Departures leave isolated rows, so some senders have no target.
        MembershipPolicy(graph, rng=3).leave(leaving)
    twin = graph.to_array()
    if kind == "big_ids":
        twin = ArrayOverlayGraph(
            twin.nodes.astype(np.int64) + BIG, twin.indptr, twin.indices, twin.next_id + BIG
        )
    return twin


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("gossip_to,gossip_for,gossip_until", GRID)
def test_spread_matches_whole_round_reference(
    monkeypatch, kind, gossip_to, gossip_for, gossip_until
):
    twin = _twin(kind, gossip_until)
    if kind == "churned":
        assert np.any(np.diff(twin.indptr) == 0)
    for size in BLOCKS + [kernels._SPREAD_BLOCK]:
        monkeypatch.setattr(kernels, "_SPREAD_BLOCK", size)
        init_pos = 17 * size % twin.n
        ref_rng = np.random.default_rng(size)
        want = spread_reference.gossip_spread(
            twin, init_pos, gossip_to, gossip_for, gossip_until, ref_rng
        )
        rng = np.random.default_rng(size)
        hops, messages, rounds = gossip_spread_kernel(
            twin, init_pos, gossip_to, gossip_for, gossip_until, rng
        )
        assert hops.dtype == np.int32
        np.testing.assert_array_equal(hops, want[0])
        assert (messages, rounds) == want[1:]
        assert generator_state(rng) == generator_state(ref_rng)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("gossip_to,gossip_for,gossip_until", GRID)
def test_estimates_match_whole_array_reference(
    monkeypatch, kind, gossip_to, gossip_for, gossip_until
):
    twin = _twin(kind, gossip_until)
    graph = OverlayGraph.from_array(twin)
    params = dict(gossip_to=gossip_to, gossip_for=gossip_for, gossip_until=gossip_until)
    # The spread test splits the long 200-budget spreads; here they run
    # in whole blocks and only their reports split.
    spread_sizes = BLOCKS if gossip_until < 200 else [kernels._SPREAD_BLOCK]
    cases = itertools.product((0, 5), (False, True))
    sizes = zip(itertools.cycle(BLOCKS), itertools.cycle(spread_sizes))
    for seed, ((size, spread_size), (min_hops, oracle)) in enumerate(zip(sizes, cases)):
        monkeypatch.setattr(hops_sampling, "_REPORT_BLOCK", size)
        monkeypatch.setattr(kernels, "_SPREAD_BLOCK", spread_size)
        rng = np.random.default_rng(seed)
        got = HopsSamplingEstimator(
            graph,
            min_hops_reporting=min_hops,
            oracle_distances=oracle,
            rng=rng,
            backend="array",
            **params,
        ).estimate()
        ref_rng = np.random.default_rng(seed)
        want = spread_reference.hops_sampling_estimate(
            twin, ref_rng, min_hops_reporting=min_hops, oracle_distances=oracle, **params
        )
        assert (got.value, got.messages, got.meta) == want
        assert generator_state(rng) == generator_state(ref_rng)
    monkeypatch.setattr(hops_sampling, "_REPORT_BLOCK", 2)
    rng = np.random.default_rng(9)
    got = GossipSampleEstimator(graph, reply_probability=0.3, rng=rng, **params).estimate()
    ref_rng = np.random.default_rng(9)
    want = spread_reference.gossip_sample_estimate(twin, ref_rng, 0.3, **params)
    assert (got.value, got.messages, got.meta) == want
    assert generator_state(rng) == generator_state(ref_rng)


@pytest.mark.parametrize("estimator", [HopsSamplingEstimator, GossipSampleEstimator])
def test_gossip_for_below_one_is_refused(estimator):
    graph = heterogeneous_random(20, rng=1)
    with pytest.raises(ValueError, match="gossip_for"):
        estimator(graph, gossip_for=0)
    with pytest.raises(ValueError, match="gossip_for"):
        gossip_spread_kernel(graph.to_array(), 0, 2, 0, 1, np.random.default_rng(0))


def test_one_estimate_holds_no_frontier_or_report_sized_temporary():
    """At n=100k one array estimate peaks below 0.6x the twin over what
    was allocated before it.  Its fixed state (hops and the lowest offer
    in int32, two int8 counters, one mask) is 1.05 MiB of the 1.83 MiB
    (0.52x) it takes; with int32 counters it took 2.40 MiB (0.68x), and
    the whole-round spread and whole-array report 3.72 MiB (1.06x)."""
    graph = heterogeneous_random(100_000, rng=np.random.default_rng(42))
    twin = graph.to_array()
    twin_bytes = twin.nodes.nbytes + twin.indptr.nbytes + twin.indices.nbytes
    estimator = HopsSamplingEstimator(graph, rng=np.random.default_rng(7), backend="array")
    estimator.estimate()  # nothing the first estimate caches counts below
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimator.estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 0.6 * twin_bytes, (peak - before, twin_bytes)
