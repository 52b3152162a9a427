"""Whole-round reference versions of the HopsSampling spread and reports.

These are ``gossip_spread_kernel`` and the report phases of
``HopsSamplingEstimator.estimate`` and ``GossipSampleEstimator.estimate``
as they ran before both went by block: a round's senders, draws and
targets as one array each, the round's state updates as n-sized masks
over ``int32`` state, and a report's coins drawn over every reached row
at once.  The block tests hold the blocked code to the same hops,
message counts, rounds, estimates and generator end states.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.core.kernels import bfs_frontier_distances
from repro.overlay.arraygraph import ArrayOverlayGraph


def gossip_spread(
    graph: ArrayOverlayGraph,
    init_pos: int,
    gossip_to: int,
    gossip_for: int,
    gossip_until: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, int, int]:
    """``(hops, spread_messages, rounds)`` of the spread from ``init_pos``."""
    n = graph.n
    hops = np.full(n, -1, dtype=np.int32)
    hops[init_pos] = 0
    rounds_left = np.zeros(n, dtype=np.int32)
    rounds_left[init_pos] = gossip_for
    regossip_left = np.full(n, gossip_until, dtype=np.int32)
    big = np.iinfo(np.int32).max
    best = np.full(n, big, dtype=np.int32)
    hit, newly, dup, mask = (np.empty(n, dtype=bool) for _ in range(4))
    active = np.array([init_pos])
    spread_messages = 0
    rounds = 0

    while active.size:
        rounds += 1
        senders = np.repeat(active, gossip_to)
        targets = graph.sample_neighbors(senders, rng)
        ok = targets >= 0
        spread_messages += int(ok.sum())
        senders, targets = senders[ok], targets[ok]
        np.minimum.at(best, targets, hops[senders] + 1)
        np.less(best, big, out=hit)
        np.less(hops, 0, out=newly)
        newly &= hit
        np.greater_equal(hops, 0, out=dup)
        dup &= hit
        np.less_equal(rounds_left, 0, out=mask)
        dup &= mask
        np.greater(regossip_left, 0, out=mask)
        dup &= mask
        np.less(best, hops, out=mask)
        mask |= newly
        np.copyto(hops, best, where=mask)
        np.subtract(regossip_left, 1, out=regossip_left, where=dup)
        rounds_left[active] -= 1
        np.copyto(rounds_left, gossip_for, where=newly)
        np.maximum(rounds_left, 1, out=rounds_left, where=dup)
        best[targets] = big
        np.greater(rounds_left, 0, out=mask)
        active = np.flatnonzero(mask)

    return hops, spread_messages, rounds


def hops_sampling_estimate(
    graph: ArrayOverlayGraph,
    rng: np.random.Generator,
    gossip_to: int,
    gossip_for: int,
    gossip_until: int,
    min_hops_reporting: int,
    oracle_distances: bool,
) -> Tuple[float, int, Dict[str, Any]]:
    """``(value, messages, meta)`` of one estimate from a random initiator."""
    init_pos = int(rng.integers(graph.n))
    hops, spread_messages, rounds = gossip_spread(
        graph, init_pos, gossip_to, gossip_for, gossip_until, rng
    )
    reached = int((hops >= 0).sum())
    if oracle_distances:
        hops = bfs_frontier_distances(graph, init_pos)
    mask = hops >= 1
    distances = hops[mask]
    excess = np.maximum(distances - min_hops_reporting, 0)
    reply_prob = np.power(float(gossip_to), -excess.astype(np.float64))
    coins = rng.random(distances.shape[0])
    replied = coins < reply_prob
    replies = int(replied.sum())
    weights = np.power(float(gossip_to), excess[replied].astype(np.float64))
    value = 1.0 + float(weights.sum())
    meta = {
        "reached": reached,
        "coverage": reached / graph.n,
        "replies": replies,
        "spread_rounds": rounds,
        "spread_messages": spread_messages,
        "initiator": int(graph.nodes[init_pos]),
        "oracle_distances": oracle_distances,
        "max_recorded_distance": int(distances.max()) if distances.size else 0,
    }
    return value, spread_messages + replies, meta


def gossip_sample_estimate(
    graph: ArrayOverlayGraph,
    rng: np.random.Generator,
    reply_probability: float,
    gossip_to: int,
    gossip_for: int,
    gossip_until: int,
) -> Tuple[float, int, Dict[str, Any]]:
    """``(value, messages, meta)`` of one fixed-probability poll."""
    init_pos = int(rng.integers(graph.n))
    hops, spread_messages, rounds = gossip_spread(
        graph, init_pos, gossip_to, gossip_for, gossip_until, rng
    )
    reached = int((hops >= 0).sum())
    reached_others = reached - 1
    replies = int(
        (rng.random(reached_others) < reply_probability).sum()
    ) if reached_others > 0 else 0
    meta = {
        "reached": reached,
        "coverage": reached / graph.n,
        "replies": replies,
        "reply_probability": reply_probability,
        "spread_rounds": rounds,
        "initiator": int(graph.nodes[init_pos]),
    }
    return 1.0 + replies / reply_probability, spread_messages + replies, meta
