"""Sample&Collide size estimator (§III-A) and the inverted-birthday baseline.

The estimator repeatedly draws (asymptotically) uniform node samples via
:class:`~repro.core.sampling.UniformWalkSampler` and counts *collisions* —
samples that hit a node already seen during this estimation.  Sampling stops
once ``l`` collisions have accumulated; with ``C`` total samples the
estimate is ``N̂ = C·(C−1)/(2·l)`` (see :mod:`repro.core.birthday`).

The control parameter ``l`` is the paper's accuracy/overhead dial:

======  ===================  ==========================================
``l``   relative std ≈       paper's observation
======  ===================  ==========================================
10      32%                  cheap (≈10⁵ msgs at N=10⁵), noisy (Fig 18)
100     10%                  3.27× the cost of l=10
200     7%                   ±10% one-shot window, ≈4.8·10⁵ msgs (Figs 1-2)
======  ===================  ==========================================

``InvertedBirthdayEstimator`` is the Bawa et al. baseline the method builds
upon: stop at the *first* collision and return ``X²/2``.  It is implemented
both for completeness and because the paper's §II uses it to motivate why
Sample&Collide "uses samples more efficiently".

Implementation notes: both graph backends run one loop,
:func:`~repro.core.kernels.sample_collide_sweep`, over the lock-step timer
walkers of :func:`~repro.core.kernels.advance_walkers`.  Samples are drawn
in vectorized batches sized by the analytic prediction
``sqrt(2·l·N̂_guess)``; only the walks actually *consumed* before the
``l``-th collision are charged to the message meter (unconsumed pre-drawn
walks model messages never sent).  The backends differ only in the first
batch's size, and so in every later batch and draw (docs/KERNELS.md, "The
RNG-lineage caveat").
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import List, Optional

import numpy as np

from ..overlay.graph import OverlayGraph
from ..sim.messages import MessageKind, MessageMeter
from ..sim.rng import RngLike
from .base import Estimate, EstimatorError, SizeEstimator
from .birthday import invert_first_collision
from .kernels import (
    GRAPH_BACKENDS,
    advance_walkers,
    collision_cutoff,
    kernel_phase,
    sample_collide_sweep,
)

__all__ = ["SampleCollideEstimator", "InvertedBirthdayEstimator"]

#: The first batch of walks as a fraction of the expected draws
#: ``sqrt(2·l·N̂)``, per backend: ``"dict"`` draws 60% and tops up
#: adaptively, ``"array"`` over-draws at 115% so a second batch is rare.
#: Each fraction fixes its backend's RNG lineage.
_FIRST_BATCH = {"dict": 0.6, "array": 1.15}


class SampleCollideEstimator(SizeEstimator):
    """One-shot Sample&Collide estimation.

    Parameters
    ----------
    graph:
        Overlay to measure.
    l:
        Collision target (paper values: 10, 100, 200).
    timer:
        Walk budget ``T`` (paper value: 10).
    initiator:
        Fixed initiating node id; a uniformly random alive node is chosen
        per estimation when omitted (as in the paper's "perpetual
        monitoring" usage).
    batch_hint:
        Initial guess of the system size used only to size the first batch
        of pre-drawn walks; wrong guesses cost a little extra batching, not
        correctness.
    backend:
        ``"dict"`` or ``"array"``.  Both run the same sweep over the
        overlay's CSR twin; ``"dict"`` sizes the first batch at 60% of the
        expected draws and ``"array"`` at 115% (:data:`_FIRST_BATCH`), so
        their estimates are distributionally — not draw-for-draw —
        equivalent (docs/KERNELS.md).  Only ``"array"`` times the sweep
        as the ``kernel`` phase.
    """

    name = "sample_collide"

    def __init__(
        self,
        graph: OverlayGraph,
        l: int = 200,
        timer: float = 10.0,
        initiator: Optional[int] = None,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
        batch_hint: Optional[int] = None,
        backend: str = "dict",
    ) -> None:
        super().__init__(graph, rng=rng, meter=meter)
        if l < 1:
            raise ValueError(f"collision target l must be >= 1, got {l}")
        if timer <= 0:
            raise ValueError(f"timer budget must be positive, got {timer}")
        if backend not in GRAPH_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; have {GRAPH_BACKENDS}"
            )
        self.l = int(l)
        self.timer = float(timer)
        self.initiator = initiator
        self.batch_hint = batch_hint
        self.backend = backend

    # ------------------------------------------------------------------

    def estimate(self) -> Estimate:
        """Draw samples until ``l`` collisions; return ``C(C−1)/(2l)``.

        Collision counting is PAIRWISE (with multiplicity): a draw that
        matches k earlier copies contributes k collisions.  This is what
        makes E[collisions | C draws] = C(C-1)/(2N) exact and the
        C(C-1)/(2l) inversion unbiased; counting mere set-membership
        instead inflates the estimate by ≈ 2l/sqrt(2lN) (measurable:
        ≈ +7% at N=2·10⁴, l=200).
        """
        self._require_nonempty()
        before = self.meter.total
        view = self.graph.to_array()
        init_pos = self._initiator_pos(view)
        hint = self.batch_hint if self.batch_hint is not None else view.n
        phase = kernel_phase() if self.backend == "array" else nullcontext()
        with phase:
            value, draws, collisions, distinct, walk_hops = sample_collide_sweep(
                view,
                init_pos,
                self.l,
                self.timer,
                self.rng,
                max(int(hint), 1),
                _FIRST_BATCH[self.backend],
            )
        self.meter.add(MessageKind.WALK, walk_hops)
        self.meter.add(MessageKind.REPLY, draws)
        return Estimate(
            value=value,
            messages=self.meter.total - before,
            algorithm=self.name,
            meta={
                "draws": draws,
                "collisions": collisions,
                "distinct": distinct,
                "walk_hops": walk_hops,
                "initiator": int(view.nodes[init_pos]),
                "l": self.l,
                "timer": self.timer,
            },
        )


class InvertedBirthdayEstimator(SizeEstimator):
    """Bawa et al.'s inverted birthday paradox: stop at the first repeat.

    ``N̂ = X²/2`` where ``X`` is the index of the first colliding sample.
    High variance (relative std ≈ 100%) — the baseline Sample&Collide
    improves on by reusing every sample across ``l`` collisions.
    """

    name = "inverted_birthday"

    def __init__(
        self,
        graph: OverlayGraph,
        timer: float = 10.0,
        initiator: Optional[int] = None,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> None:
        super().__init__(graph, rng=rng, meter=meter)
        if timer <= 0:
            raise ValueError(f"timer budget must be positive, got {timer}")
        self.timer = float(timer)
        self.initiator = initiator

    def estimate(self) -> Estimate:
        """Sample until the first collision; return ``X²/2``."""
        self._require_nonempty()
        before = self.meter.total
        view = self.graph.to_array()
        init_pos = self._initiator_pos(view)
        samples: List[np.ndarray] = []
        hops: List[np.ndarray] = []
        batch = max(int(math.sqrt(2.0 * view.n)), 8)
        collisions = 0
        while not collisions:
            if len(samples) >= 10_000:  # pragma: no cover - defensive
                raise EstimatorError("inverted_birthday: no collision found")
            pos, walked = advance_walkers(view, init_pos, batch, self.timer, self.rng)
            samples.append(pos)
            hops.append(walked)
            draws, collisions, _ = collision_cutoff(np.concatenate(samples), 1)
            batch = max(batch // 2, 8)
        walk_hops = int(np.concatenate(hops)[:draws].sum())

        self.meter.add(MessageKind.WALK, walk_hops)
        self.meter.add(MessageKind.REPLY, draws)
        return Estimate(
            value=invert_first_collision(draws),
            messages=self.meter.total - before,
            algorithm=self.name,
            meta={
                "draws": draws,
                "walk_hops": walk_hops,
                "initiator": int(view.nodes[init_pos]),
                "timer": self.timer,
            },
        )
