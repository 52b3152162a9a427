"""Common estimator interface and result records.

Every algorithm in the study answers the same question — *how many nodes are
alive?* — but with different lifecycles:

* probe-style estimators (:class:`~repro.core.sample_collide.SampleCollideEstimator`,
  :class:`~repro.core.hops_sampling.HopsSamplingEstimator`,
  :class:`~repro.core.random_tour.RandomTourEstimator`) produce one estimate
  per :meth:`SizeEstimator.estimate` call, from scratch;
* the gossip :class:`~repro.core.aggregation.AggregationProtocol` runs
  continuously in rounds and can be *read* at any time on any node.

Both expose :class:`Estimate` records carrying the value, its message cost,
and algorithm-specific diagnostics, so experiment runners and Table I
treat all candidates uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..overlay.arraygraph import ArrayOverlayGraph
from ..overlay.graph import OverlayGraph
from ..sim.messages import MessageMeter
from ..sim.rng import RngLike, as_generator

__all__ = ["Estimate", "SizeEstimator", "EstimatorError"]


class EstimatorError(RuntimeError):
    """Raised when an estimator cannot produce an estimate (e.g. empty
    overlay, initiator departed, disconnected probe)."""


@dataclass(frozen=True)
class Estimate:
    """One size estimation outcome.

    Attributes
    ----------
    value:
        The size estimate ``N̂`` (always > 0 for a successful estimate).
    messages:
        Number of messages this estimation cost (the paper's overhead
        metric), i.e. the meter delta attributable to this estimate.
    algorithm:
        Name of the producing algorithm.
    meta:
        Algorithm-specific diagnostics (samples drawn, nodes reached,
        rounds elapsed, ...), used by the analysis sections.
    """

    value: float
    messages: int
    algorithm: str
    meta: Dict[str, Any] = field(default_factory=dict)

    def quality(self, true_size: float) -> float:
        """Quality % relative to ``true_size`` (paper's normalized y-axis)."""
        if true_size <= 0:
            raise ValueError("true size must be positive")
        return 100.0 * self.value / true_size


class SizeEstimator(abc.ABC):
    """Base class for probe-style (one-shot) size estimators.

    Parameters
    ----------
    graph:
        The overlay being measured.  The estimator never uses global
        knowledge beyond what its protocol defines; the graph object stands
        in for the network.
    rng:
        Random source (seed, generator or hub).
    meter:
        Shared message meter; a private one is created when omitted.
    """

    #: Human-readable algorithm name; subclasses override.
    name: str = "estimator"

    #: Fixed initiating node id; ``None`` picks a uniformly random alive
    #: node per estimate.  Estimators that take an ``initiator`` set it.
    initiator: Optional[int] = None

    def __init__(
        self,
        graph: OverlayGraph,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> None:
        self.graph = graph
        self.rng = as_generator(rng, self.name)
        self.meter = meter if meter is not None else MessageMeter()

    @abc.abstractmethod
    def estimate(self) -> Estimate:
        """Run one full estimation and return its result.

        Implementations must account every protocol message on
        ``self.meter`` and report the per-call delta in
        :attr:`Estimate.messages`.
        """

    def _require_nonempty(self) -> None:
        if self.graph.size == 0:
            raise EstimatorError(f"{self.name}: overlay is empty")

    def _initiator_pos(self, view: ArrayOverlayGraph) -> int:
        """The initiator's row in ``view``: the fixed one's, or one
        ``integers(n)`` draw over the rows."""
        if self.initiator is not None:
            pos = view.position(self.initiator)
            if pos < 0:
                raise EstimatorError(f"{self.name}: initiator {self.initiator} departed")
            return pos
        return int(self.rng.integers(view.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.graph.size})"
