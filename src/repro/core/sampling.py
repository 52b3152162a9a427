"""Uniform peer sampling via timer-budget random walks (§III-A).

Sample&Collide's key ingredient is an *asymptotically unbiased* uniform
sampler that works on arbitrary graphs, including ones with heterogeneous
degrees where naive random walks over-sample high-degree nodes.

Protocol (quoted from the paper): "the initiator node sets a predefined
value ``T > 0``.  This value is then sent to a neighbor chosen uniformly at
random.  Each node receiving the message first picks a random number ``U``,
uniformly distributed on [0, 1]; it then simply decrements ``T`` by
``−log(U)/di`` (``di`` is the degree of the current node), and forwards the
message to a neighbor, if ``T > 0``.  Otherwise the current node is the
sample node, and it returns its id to the initiator."

Why it is unbiased: the walk is the jump chain of a continuous-time random
walk whose per-node holding time is ``Exp(d_i)`` — i.e. rate proportional to
degree — whose stationary distribution is *uniform*.  Stopping at a fixed
time budget ``T`` therefore lands uniformly as ``T`` grows (mixing governed
by graph expansion; the paper uses ``T = 10``).

Implementation notes: :func:`~repro.core.kernels.advance_walkers` advances
the walks in vectorized lock-step batches over the overlay's CSR twin — one
NumPy pass per hop for the whole batch — instead of one Python loop per
walk.  Expected hops per walk is ``T · d̄`` (each visited node consumes
``Exp(1)/d_i`` of budget and the degree-biased jump chain spends ``1/d̄``
per hop on average), so a batch of ``B`` walks costs ``O(T · d̄)`` NumPy
operations of width ``≈ B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..overlay.graph import OverlayGraph
from ..sim.messages import MessageKind, MessageMeter
from ..sim.rng import RngLike, as_generator
from .kernels import advance_walkers

__all__ = ["WalkBatch", "UniformWalkSampler"]


@dataclass(frozen=True)
class WalkBatch:
    """Result of a batch of timer walks.

    Attributes
    ----------
    samples:
        Sampled node *ids* (one per walk).
    hops:
        Number of forwarding messages each walk used (>= 1 unless the
        initiator was isolated, in which case 0 and the sample is the
        initiator itself).
    """

    samples: np.ndarray
    hops: np.ndarray

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    @property
    def total_hops(self) -> int:
        """Total forwarding messages across the batch."""
        return int(self.hops.sum())


class UniformWalkSampler:
    """Batched timer-walk sampler bound to one overlay snapshot.

    Parameters
    ----------
    graph:
        Overlay to sample from.  The CSR twin is read afresh per batch,
        so the sampler survives churn between batches (matching the paper's
        perpetual monitoring mode) while each walk sees a consistent view.
    timer:
        The budget ``T`` (paper default 10 — "sufficient for an accurate
        sampling").
    max_hops:
        Safety valve against pathological walks (e.g. a near-disconnected
        overlay with a degree-1 pendant chain); walks exceeding it stop in
        place and are still counted honestly.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        timer: float = 10.0,
        rng: RngLike = None,
        max_hops: int = 10_000,
    ) -> None:
        if timer <= 0:
            raise ValueError(f"timer budget must be positive, got {timer}")
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        self.graph = graph
        self.timer = float(timer)
        self.max_hops = int(max_hops)
        self.rng = as_generator(rng, "sampler")

    # ------------------------------------------------------------------

    def sample_batch(
        self,
        initiator: int,
        count: int,
        meter: Optional[MessageMeter] = None,
    ) -> WalkBatch:
        """Run ``count`` independent timer walks from ``initiator``.

        Every forwarding hop is metered as :data:`MessageKind.WALK` and each
        walk's final report to the initiator as one
        :data:`MessageKind.REPLY` (how Sample&Collide's overhead is defined
        in §IV-E).  Walks that start at an isolated initiator return the
        initiator itself with zero hops.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        view = self.graph.to_array()
        init_pos = view.position(initiator)
        if init_pos < 0:
            raise ValueError(f"initiator {initiator} is not alive")
        if count == 0:
            return WalkBatch(
                samples=np.empty(0, dtype=np.int64), hops=np.empty(0, dtype=np.int64)
            )
        pos, hops = advance_walkers(
            view, init_pos, count, self.timer, self.rng, self.max_hops
        )
        samples = view.nodes[pos]
        if meter is not None:
            meter.add(MessageKind.WALK, int(hops.sum()))
            meter.add(MessageKind.REPLY, count)
        return WalkBatch(samples=samples, hops=hops)

    # ------------------------------------------------------------------

    def expected_hops_per_walk(self) -> float:
        """Analytic expectation ``T · d̄`` used by the overhead model.

        The jump chain's stationary measure is degree-proportional, so the
        mean budget consumed per hop is ``E_π[1/d] = N/(2·m) = 1/d̄``.
        """
        avg = self.graph.average_degree()
        return self.timer * avg if avg > 0 else 0.0
