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

Implementation notes: samples are drawn from the walk sampler in vectorized
batches sized by the analytic prediction ``sqrt(2·l·N̂_guess)``; only the
walks actually *consumed* before the ``l``-th collision are charged to the
message meter (unconsumed pre-drawn walks model messages never sent).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..overlay.graph import OverlayGraph
from ..sim.messages import MessageKind, MessageMeter
from ..sim.rng import RngLike
from .base import Estimate, EstimatorError, SizeEstimator
from .birthday import invert_first_collision, sample_collide_estimate
from .kernels import GRAPH_BACKENDS, kernel_phase, sample_collide_sweep
from .sampling import UniformWalkSampler

__all__ = ["SampleCollideEstimator", "InvertedBirthdayEstimator"]


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
        ``"dict"`` (reference, per-sample Python accounting) or
        ``"array"`` — the batched walker kernels of
        :mod:`repro.core.kernels`.  Both read the overlay's CSR twin, and
        are distributionally — not draw-for-draw — equivalent
        (docs/KERNELS.md).
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
        if backend not in GRAPH_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; have {GRAPH_BACKENDS}"
            )
        self.l = int(l)
        self.timer = float(timer)
        self.initiator = initiator
        self.batch_hint = batch_hint
        self.backend = backend
        self._sampler = UniformWalkSampler(graph, timer=timer, rng=self.rng)

    # ------------------------------------------------------------------

    def estimate(self) -> Estimate:
        """Draw samples until ``l`` collisions; return ``C(C−1)/(2l)``."""
        if self.backend == "array":
            return self._estimate_array()
        self._require_nonempty()
        before = self.meter.total
        initiator = self._pick_initiator()

        # Collision counting is PAIRWISE (with multiplicity): a draw that
        # matches k earlier copies contributes k collisions.  This is what
        # makes E[collisions | C draws] = C(C-1)/(2N) exact and the
        # C(C-1)/(2l) inversion unbiased; counting mere set-membership
        # instead inflates the estimate by ≈ 2l/sqrt(2lN) (measurable:
        # ≈ +7% at N=2·10⁴, l=200).
        seen: Dict[int, int] = {}
        collisions = 0
        draws = 0
        walk_hops = 0

        hint = self.batch_hint if self.batch_hint is not None else self.graph.size
        hint = max(int(hint), 1)
        # Expected total draws is sqrt(2 l N); first batch covers ~60% of it,
        # later batches top up adaptively.
        batch = max(int(0.6 * math.sqrt(2.0 * self.l * hint)), 16)

        guard = 0
        while collisions < self.l:
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise EstimatorError("sample_collide: failed to accumulate collisions")
            result = self._sampler.sample_batch(initiator, batch, meter=None)
            consumed = 0
            for node, hops in zip(result.samples, result.hops):
                consumed += 1
                draws += 1
                walk_hops += int(hops)
                node = int(node)
                copies = seen.get(node, 0)
                seen[node] = copies + 1
                if copies:
                    collisions += copies
                    if collisions >= self.l:
                        break
            # Charge only the walks actually consumed: hops already summed
            # per-walk above, one reply per consumed walk.
            if collisions >= self.l:
                break
            # Next batch sized from the current point estimate of N.
            n_guess = max(len(seen), 1)
            if collisions > 0:
                n_guess = max(n_guess, int(sample_collide_estimate(max(draws, 2), collisions)))
            remaining = math.sqrt(2.0 * self.l * n_guess) - draws
            batch = max(int(remaining * 1.2), 16)

        self.meter.add(MessageKind.WALK, walk_hops)
        self.meter.add(MessageKind.REPLY, draws)
        value = sample_collide_estimate(draws, collisions)
        return Estimate(
            value=value,
            messages=self.meter.total - before,
            algorithm=self.name,
            meta={
                "draws": draws,
                "collisions": collisions,
                "distinct": len(seen),
                "walk_hops": walk_hops,
                "initiator": initiator,
                "l": self.l,
                "timer": self.timer,
            },
        )

    # ------------------------------------------------------------------

    def _estimate_array(self) -> Estimate:
        """Array-backend estimation via the batched walker kernels.

        Same protocol, sizing policy and meta keys as the reference path;
        walker advancement and collision counting run as vector kernels on
        the overlay's CSR twin.  The initiator draw consumes one uniform
        integer over the same rows either way; the documented RNG-lineage
        split is in the walkers.
        """
        self._require_nonempty()
        before = self.meter.total
        view = self.graph.to_array()
        if self.initiator is not None:
            init_pos = view.position(self.initiator)
            if init_pos < 0:
                raise EstimatorError(
                    f"sample_collide: initiator {self.initiator} departed"
                )
            initiator = self.initiator
        else:
            init_pos = int(self.rng.integers(view.n))
            initiator = int(view.nodes[init_pos])
        hint = self.batch_hint if self.batch_hint is not None else self.graph.size
        with kernel_phase():
            value, draws, collisions, distinct, walk_hops = sample_collide_sweep(
                view,
                init_pos,
                self.l,
                self.timer,
                self.rng,
                max(int(hint), 1),
                max_hops=self._sampler.max_hops,
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
                "initiator": initiator,
                "l": self.l,
                "timer": self.timer,
            },
        )

    def _pick_initiator(self) -> int:
        if self.initiator is not None:
            if self.initiator not in self.graph:
                raise EstimatorError(
                    f"sample_collide: initiator {self.initiator} departed"
                )
            return self.initiator
        return self.graph.random_node(self.rng)


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
        self.timer = float(timer)
        self.initiator = initiator
        self._sampler = UniformWalkSampler(graph, timer=timer, rng=self.rng)

    def estimate(self) -> Estimate:
        """Sample until the first collision; return ``X²/2``."""
        self._require_nonempty()
        before = self.meter.total
        if self.initiator is not None:
            if self.initiator not in self.graph:
                raise EstimatorError(
                    f"inverted_birthday: initiator {self.initiator} departed"
                )
            initiator = self.initiator
        else:
            initiator = self.graph.random_node(self.rng)

        seen: Set[int] = set()
        draws = 0
        walk_hops = 0
        batch = max(int(math.sqrt(2.0 * self.graph.size)), 8)
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise EstimatorError("inverted_birthday: no collision found")
            result = self._sampler.sample_batch(initiator, batch, meter=None)
            collided = False
            for node, hops in zip(result.samples, result.hops):
                draws += 1
                walk_hops += int(hops)
                node = int(node)
                if node in seen:
                    collided = True
                    break
                seen.add(node)
            if collided:
                break
            batch = max(batch // 2, 8)

        self.meter.add(MessageKind.WALK, walk_hops)
        self.meter.add(MessageKind.REPLY, draws)
        return Estimate(
            value=invert_first_collision(draws),
            messages=self.meter.total - before,
            algorithm=self.name,
            meta={
                "draws": draws,
                "walk_hops": walk_hops,
                "initiator": initiator,
                "timer": self.timer,
            },
        )
