"""Random Tour size estimator — the random-walk baseline of Massoulié et al.

The paper's §II describes it as the first method of [15]: "based on an
emulation of the return time of a random walk to the initiating node", and
reports that Sample&Collide's overhead "is much lower than the one of
Random Tour", which is why S&C was chosen as the random-walk-class
candidate.  We implement Random Tour so the claimed cost gap is measurable
in this framework (see ``benchmarks/test_ablation_random_tour.py``).

Estimator.  Start a simple random walk at initiator ``i`` and accumulate
``Φ = Σ_t 1/deg(X_t)`` over the visited nodes (including the start), until
the walk first *returns* to ``i``.  For a stationary reversible walk
``π_j = deg(j)/(2m)``, the expected accumulated value over one return cycle
is ``(1/π_i)·Σ_j π_j/deg(j) = N/deg(i)``, so

    ``N̂ = deg(i) · Φ``.

The expected tour length is ``2m/deg(i)`` hops — Θ(N) messages per
estimation versus Sample&Collide's Θ(sqrt(l·N)·T·d̄); that Θ(N) is exactly
the overhead gap the paper cites.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..overlay.graph import OverlayGraph
from ..sim.messages import MessageKind, MessageMeter
from ..sim.rng import RngLike
from .base import Estimate, EstimatorError, SizeEstimator

__all__ = ["RandomTourEstimator"]


class RandomTourEstimator(SizeEstimator):
    """One-shot Random Tour estimation.

    Parameters
    ----------
    graph:
        Overlay to measure; must contain the initiator, which must have at
        least one neighbour (a tour from an isolated node is undefined).
    initiator:
        Fixed initiating node id; random alive node when omitted.
    max_hops:
        Abort bound for degenerate topologies (the walk on a disconnected
        or near-disconnected overlay may effectively never return).  On
        abort an :class:`EstimatorError` is raised — callers treat it as a
        failed probe, which is also what a timeout would mean in practice.
    """

    name = "random_tour"

    def __init__(
        self,
        graph: OverlayGraph,
        initiator: Optional[int] = None,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
        max_hops: Optional[int] = None,
    ) -> None:
        super().__init__(graph, rng=rng, meter=meter)
        self.initiator = initiator
        self.max_hops = max_hops

    def estimate(self) -> Estimate:
        """Walk until first return; ``N̂ = deg(i)·Σ 1/deg(X_t)``."""
        self._require_nonempty()
        before = self.meter.total
        view = self.graph.to_array()
        if self.initiator is not None:
            init_pos = view.position(self.initiator)
            if init_pos < 0:
                raise EstimatorError(f"random_tour: initiator {self.initiator} departed")
        else:
            init_pos = int(self.rng.integers(view.n))
        degrees = view.degrees()
        d_init = int(degrees[init_pos])
        if d_init == 0:
            raise EstimatorError("random_tour: initiator is isolated")

        # Tours average 2m/deg(i) hops; the default abort bound is two
        # orders of magnitude above that to stay out of honest tours' way.
        limit = self.max_hops if self.max_hops is not None else max(200 * view.m, 1000)

        inv_deg = 1.0 / np.maximum(degrees, 1)
        phi = float(inv_deg[init_pos])  # the start visit counts
        hops = 0
        pos = init_pos
        rng = self.rng
        indptr, indices = view.indptr, view.indices
        # Draw uniforms in chunks to keep RNG overhead out of the hop loop.
        chunk = 4096
        buf = rng.random(chunk)
        buf_i = 0
        while True:
            start = indptr[pos]
            deg = indptr[pos + 1] - start
            if deg == 0:
                # Mid-tour dead end can only happen under concurrent churn
                # (not during a static estimate); treat as failure.
                raise EstimatorError("random_tour: walk reached an isolated node")
            if buf_i >= chunk:
                buf = rng.random(chunk)
                buf_i = 0
            pos = int(indices[start + int(buf[buf_i] * deg)])
            buf_i += 1
            hops += 1
            if pos == init_pos:
                break
            phi += float(inv_deg[pos])
            if hops >= limit:
                raise EstimatorError(
                    f"random_tour: no return after {hops} hops (disconnected?)"
                )

        self.meter.add(MessageKind.WALK, hops)
        # The returning hop delivers the result to the initiator; no extra
        # reply message is needed (the tour ends at the initiator).
        value = d_init * phi
        return Estimate(
            value=value,
            messages=self.meter.total - before,
            algorithm=self.name,
            meta={
                "hops": hops,
                "phi": phi,
                "initiator_degree": d_init,
                "initiator": int(view.nodes[init_pos]),
            },
        )
