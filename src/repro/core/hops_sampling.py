"""HopsSampling — probabilistic polling with the minHopsReporting heuristic.

The polling candidate of the study (§III-B), following Kostoulas, Psaltoulis,
Gupta, Birman & Demers (NCA'05 / PODC'04) with the parameter values the
paper fixed after discussion with the authors: ``gossipTo=2, gossipFor=1,
gossipUntil=1, minHopsReporting=5``.

The protocol has two phases:

1. **Spread** — the initiator gossips a poll across the overlay.  The
   message carries a ``hopCount`` (0 at the initiator) incremented at each
   traversed node; every node remembers the *lowest* hopCount it received —
   its estimated distance to the initiator.  Each newly informed node
   forwards the poll to ``gossipTo`` uniformly random neighbours for
   ``gossipFor`` rounds; a node that receives a duplicate while idle
   gossips one more round, up to ``gossipUntil`` times, and the spread
   ends when no node is active.
2. **Report** — a node at recorded distance ``h`` replies with probability
   1 if ``h < minHopsReporting`` and ``gossipTo^-(h − minHopsReporting)``
   otherwise (avoiding a reply flood near the initiator).  The initiator
   de-biases: each reply from distance ``h`` is counted with weight
   ``1/p(h)``, and the weighted sum (plus 1 for itself) is the estimate.

**Known bias, reproduced here**: the fanout-2 spread misses a fraction of
the overlay (the paper measured ≈11% of 100,000 nodes unreached), and
missed nodes never reply, so HopsSampling *under-estimates* consistently
(Figs 3-4) — worse on scale-free topologies (Fig 8).  The paper verified
the polling math itself is unbiased by feeding every node its exact
distance (§V); pass ``oracle_distances=True`` to reproduce that experiment
(every node is considered reached, at its true BFS distance).

Overhead: the spread costs ``gossipTo`` messages per informed node per
gossip round (Θ(2N) with the paper's parameters) plus one message per
reply — the paper's "O(2N)" single-shot cost.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

import numpy as np

from ..overlay.arraygraph import ArrayOverlayGraph
from ..overlay.graph import OverlayGraph
from ..sim.messages import MessageKind, MessageMeter
from ..sim.rng import RngLike
from .base import Estimate, EstimatorError, SizeEstimator
from .kernels import (
    GRAPH_BACKENDS,
    bfs_frontier_distances,
    gossip_spread_kernel,
    kernel_phase,
)

__all__ = ["HopsSamplingEstimator", "GossipSampleEstimator", "SpreadResult"]

#: Rows of the spread's outcome whose report coins are drawn per block.
_REPORT_BLOCK = 1 << 13


class SpreadResult:
    """Outcome of one gossip spread: per-node recorded distances.

    Attributes
    ----------
    hops:
        Recorded min hopCount per twin row (``-1`` = never reached).
    spread_messages:
        Gossip messages sent during the spread.
    rounds:
        Gossip rounds the spread lasted.
    """

    __slots__ = ("hops", "spread_messages", "rounds")

    def __init__(self, hops: np.ndarray, spread_messages: int, rounds: int) -> None:
        self.hops = hops
        self.spread_messages = spread_messages
        self.rounds = rounds

    @property
    def reached(self) -> int:
        """Number of nodes that received the poll (initiator included)."""
        return int((self.hops >= 0).sum())

    def coverage(self) -> float:
        """Fraction of the overlay reached by the spread."""
        return self.reached / self.hops.shape[0] if self.hops.shape[0] else 0.0


def _gossip_spread(
    view: ArrayOverlayGraph,
    init_pos: int,
    gossip_to: int,
    gossip_for: int,
    gossip_until: int,
    rng: np.random.Generator,
) -> SpreadResult:
    """Run the push-gossip spread (:func:`~repro.core.kernels.gossip_spread_kernel`)
    over the overlay's CSR twin ``view``."""
    return SpreadResult(
        *gossip_spread_kernel(view, init_pos, gossip_to, gossip_for, gossip_until, rng)
    )


class HopsSamplingEstimator(SizeEstimator):
    """One-shot HopsSampling estimation (minHopsReporting heuristic).

    Parameters (defaults are the paper's §IV-C values)
    ----------
    gossip_to:
        Fanout of the spread (2).
    gossip_for:
        Rounds each node keeps gossiping after first informed (1).
    gossip_until:
        Re-gossip budget: a node that receives a duplicate while idle
        gossips one more round, up to this many times (1).
    min_hops_reporting:
        Distance below which nodes always reply (5).
    initiator:
        Fixed initiator id; random alive node when omitted.
    oracle_distances:
        §V's verification mode: every node is reached at its exact BFS
        distance (the spread still runs — and is billed — but its recorded
        distances are replaced by ground truth).  Removes the bias.
    backend:
        ``"dict"`` or ``"array"``.  Both run the frontier kernels of
        :mod:`repro.core.kernels` over the overlay's CSR twin and return
        bit-identical estimates; only ``"array"`` profiles them under the
        ``kernel`` phase (docs/KERNELS.md).
    """

    name = "hops_sampling"

    def __init__(
        self,
        graph: OverlayGraph,
        gossip_to: int = 2,
        gossip_for: int = 1,
        gossip_until: int = 1,
        min_hops_reporting: int = 5,
        initiator: Optional[int] = None,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
        oracle_distances: bool = False,
        backend: str = "dict",
    ) -> None:
        super().__init__(graph, rng=rng, meter=meter)
        if gossip_to < 1:
            raise ValueError(f"gossip_to must be >= 1, got {gossip_to}")
        if gossip_for < 1:
            raise ValueError(f"gossip_for must be >= 1, got {gossip_for}")
        if gossip_until < 1:
            raise ValueError(f"gossip_until must be >= 1, got {gossip_until}")
        if min_hops_reporting < 0:
            raise ValueError(
                f"min_hops_reporting must be >= 0, got {min_hops_reporting}"
            )
        if backend not in GRAPH_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; have {GRAPH_BACKENDS}")
        self.gossip_to = int(gossip_to)
        self.gossip_for = int(gossip_for)
        self.gossip_until = int(gossip_until)
        self.min_hops_reporting = int(min_hops_reporting)
        self.initiator = initiator
        self.oracle_distances = bool(oracle_distances)
        self.backend = backend

    # ------------------------------------------------------------------

    def estimate(self) -> Estimate:
        """Spread the poll, collect probabilistic replies, extrapolate."""
        self._require_nonempty()
        before = self.meter.total

        view = self.graph.to_array()
        phase = kernel_phase() if self.backend == "array" else nullcontext()
        init_pos = self._initiator_pos(view)
        with phase:
            spread = _gossip_spread(
                view,
                init_pos,
                self.gossip_to,
                self.gossip_for,
                self.gossip_until,
                self.rng,
            )
            hops = spread.hops
            if self.oracle_distances:
                hops = bfs_frontier_distances(view, init_pos)
        self.meter.add(MessageKind.SPREAD, spread.spread_messages)

        # Report phase: every reached non-initiator node flips its coin.
        # The coins are drawn block by block in row order, one stream as if
        # drawn at once, and only the replied rows' excess is kept.
        base = float(self.gossip_to)
        replied = []
        farthest = 0
        for lo in range(0, hops.shape[0], _REPORT_BLOCK):
            distances = hops[lo : lo + _REPORT_BLOCK]
            distances = distances[distances >= 1]
            if not distances.size:
                continue
            farthest = max(farthest, int(distances.max()))
            excess = np.maximum(distances - self.min_hops_reporting, 0)
            reply_prob = np.power(base, -excess.astype(np.float64))
            coins = self.rng.random(distances.shape[0])
            replied.append(excess[coins < reply_prob])
        excess = np.concatenate(replied) if replied else np.zeros(0, dtype=hops.dtype)
        replies = int(excess.shape[0])
        self.meter.add(MessageKind.REPLY, replies)

        # Initiator extrapolates: each reply from distance h stands for
        # gossipTo^(h - minHops) nodes (1 for h < minHops), plus itself.
        weights = np.power(base, excess.astype(np.float64))
        value = 1.0 + float(weights.sum())

        return Estimate(
            value=value,
            messages=self.meter.total - before,
            algorithm=self.name,
            meta={
                "reached": spread.reached,
                "coverage": spread.coverage(),
                "replies": replies,
                "spread_rounds": spread.rounds,
                "spread_messages": spread.spread_messages,
                "initiator": int(view.nodes[init_pos]),
                "oracle_distances": self.oracle_distances,
                "max_recorded_distance": farthest,
            },
        )

    # ------------------------------------------------------------------

    def _initiator_pos(self, view: ArrayOverlayGraph) -> int:
        if self.initiator is not None:
            pos = view.position(self.initiator)
            if pos < 0:
                raise EstimatorError(
                    f"hops_sampling: initiator {self.initiator} departed"
                )
            return pos
        return int(self.rng.integers(view.n))


class GossipSampleEstimator(SizeEstimator):
    """Fixed-probability polling — the *gossipSample*-style heuristic.

    The alternative PODC'04 flavour the paper implemented but found "less
    accurate" and set aside (§III-B).  Our rendition represents the simple
    probabilistic-response class of §II ([2], [6]): the same gossip spread
    disseminates a poll carrying a fixed reply probability ``p``; every
    reached node replies with probability ``p``; the initiator estimates
    ``N̂ = 1 + replies/p``.

    Compared to minHopsReporting this wastes the distance information and —
    for the small ``p`` needed to keep the reply flood manageable — has
    higher relative variance at equal overhead, which is the qualitative
    deficiency the paper reports.
    """

    name = "gossip_sample"

    def __init__(
        self,
        graph: OverlayGraph,
        reply_probability: float = 0.02,
        gossip_to: int = 2,
        gossip_for: int = 1,
        gossip_until: int = 1,
        initiator: Optional[int] = None,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> None:
        super().__init__(graph, rng=rng, meter=meter)
        if not (0.0 < reply_probability <= 1.0):
            raise ValueError(
                f"reply_probability must be in (0, 1], got {reply_probability}"
            )
        if gossip_for < 1:
            raise ValueError(f"gossip_for must be >= 1, got {gossip_for}")
        self.reply_probability = float(reply_probability)
        self.gossip_to = int(gossip_to)
        self.gossip_for = int(gossip_for)
        self.gossip_until = int(gossip_until)
        self.initiator = initiator

    def estimate(self) -> Estimate:
        """Spread the poll; count fixed-probability replies; extrapolate."""
        self._require_nonempty()
        before = self.meter.total
        view = self.graph.to_array()
        if self.initiator is not None:
            init_pos = view.position(self.initiator)
            if init_pos < 0:
                raise EstimatorError(
                    f"gossip_sample: initiator {self.initiator} departed"
                )
        else:
            init_pos = int(self.rng.integers(view.n))

        spread = _gossip_spread(
            view, init_pos, self.gossip_to, self.gossip_for, self.gossip_until, self.rng
        )
        self.meter.add(MessageKind.SPREAD, spread.spread_messages)

        reached_others = spread.reached - 1
        replies = 0
        for lo in range(0, reached_others, _REPORT_BLOCK):
            coins = self.rng.random(min(_REPORT_BLOCK, reached_others - lo))
            replies += int(np.count_nonzero(coins < self.reply_probability))
        self.meter.add(MessageKind.REPLY, replies)

        value = 1.0 + replies / self.reply_probability
        return Estimate(
            value=value,
            messages=self.meter.total - before,
            algorithm=self.name,
            meta={
                "reached": spread.reached,
                "coverage": spread.coverage(),
                "replies": replies,
                "reply_probability": self.reply_probability,
                "spread_rounds": spread.rounds,
                "initiator": int(view.nodes[init_pos]),
            },
        )
