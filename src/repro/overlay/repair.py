"""Overlay repair policies — relaxing the paper's worst-case assumption.

The paper deliberately evaluates the *worst case*: "the nodes that have
lost one or several neighbors do not create new links with other nodes"
(§IV-A), and attributes Aggregation's Fig 17 breakdown to the resulting
loss of connectivity.  Real deployments run a membership protocol
(Cyclon, the peer sampling service — both cited by the paper) that repairs
the overlay continuously.

This module provides repair policies that plug into a
:class:`~repro.sim.rounds.RoundDriver` so the breakdown can be studied as
a function of maintenance effort (see
``benchmarks/test_ablation_repair.py``):

* :class:`NoRepair` — the paper's baseline (explicit no-op, for symmetry);
* :class:`DegreeRepair` — each round, every node whose degree fell below a
  floor opens links to random alive peers (bounded effort per round); this
  is the minimal abstraction of what Cyclon's view shuffling achieves;
* :class:`FullRepair` — immediately restores every node to its target
  degree after each churn event (an upper bound, not a realistic
  protocol).

All repairs are metered (``MessageKind.CONTROL``, one message per link
formed) so the maintenance traffic can be charged against the estimation
overhead it saves.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Set

import numpy as np

from ..sim.messages import MessageKind, MessageMeter
from ..sim.rng import RngLike, as_generator, generator_from_state, generator_state
from ..sim.rounds import PRIORITY_CHURN, RoundDriver
from .arraygraph import ArrayOverlayGraph
from .graph import OverlayGraph

__all__ = [
    "REPAIR_POLICIES",
    "RepairPolicy",
    "RepairPolicySpec",
    "NoRepair",
    "DegreeRepair",
    "FullRepair",
]

#: Repair runs after churn (which is PRIORITY_CHURN) but before protocols.
PRIORITY_REPAIR = PRIORITY_CHURN + 5


class RepairPolicy(abc.ABC):
    """Base class: a per-round overlay maintenance step."""

    def __init__(
        self,
        graph: OverlayGraph,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> None:
        self.graph = graph
        self.rng = as_generator(rng, "repair")
        self.meter = meter if meter is not None else MessageMeter()
        self.links_formed = 0

    @abc.abstractmethod
    def repair_round(self, round_number: int) -> int:
        """Perform one maintenance step; returns links formed."""

    def attach(self, driver: RoundDriver) -> None:
        """Subscribe to the driver (after churn, before protocols)."""
        driver.subscribe(
            lambda rnd: self.repair_round(rnd),
            priority=PRIORITY_REPAIR,
            label=type(self).__name__,
        )

    # ------------------------------------------------------------------
    # state hand-off (docs/SNAPSHOTS.md)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data capture of the policy's mutable state.

        Policies are configuration + a generator + a counter; the
        configuration travels as a :class:`RepairPolicySpec` in the trial
        spec, so only the generator state and ``links_formed`` are
        captured here.  Restore by rebuilding from the spec with
        ``rng=generator_from_state(...)`` and applying
        :meth:`apply_snapshot`.
        """
        return {
            "rng": generator_state(self.rng),
            "links_formed": int(self.links_formed),
        }

    def apply_snapshot(self, snap: Mapping[str, Any]) -> None:
        """Adopt the mutable state captured by :meth:`snapshot`.

        The generator is replaced (not advanced), so future repair rounds
        draw bit-identically to the captured policy's.
        """
        self.rng = generator_from_state(snap["rng"])
        self.links_formed = int(snap["links_formed"])

    # ------------------------------------------------------------------

    def _link_to_random_peers(self, batch: "_RoundLinks", node: int, want: int) -> int:
        """Open up to ``want`` links from row ``node`` to random rows."""
        twin = batch.twin
        n = twin.n
        old = set(twin.neighbors(node).tolist())
        key = node * n
        formed = 0
        attempts = 0
        budget = 20 * max(want, 1)
        while formed < want and attempts < budget:
            attempts += 1
            v = int(self.rng.integers(n))
            if v == node or v in old or key + v in batch.pairs:
                continue
            batch.add(node, v)
            formed += 1
        if formed:
            self.meter.add(MessageKind.CONTROL, formed)
            self.links_formed += formed
        return formed


class _RoundLinks:
    """The links one repair round forms between the rows of ``twin``.

    ``degree`` holds each row's running degree and ``links`` the round's
    links as row pairs in creation order, both ``int`` buffers; ``pairs``
    keys each link in both directions, so "already linked" reads the old
    row plus this round's links.  :meth:`finish` splices them into the
    graph at once.
    """

    def __init__(self, twin: ArrayOverlayGraph) -> None:
        self.twin = twin
        self.degree = array("i", twin.degrees().astype(np.intc).tobytes())
        self.links = array("i")
        self.pairs: Set[int] = set()

    def add(self, u: int, v: int) -> None:
        """Record the new link ``{u, v}``."""
        n = self.twin.n
        self.pairs.add(u * n + v)
        self.pairs.add(v * n + u)
        self.links.append(u)
        self.links.append(v)
        self.degree[u] += 1
        self.degree[v] += 1

    def finish(self, graph: OverlayGraph) -> None:
        """Swap the twin with this round's links into ``graph``, if any."""
        if self.links:
            graph.adopt_twin(
                self.twin.with_links(np.frombuffer(self.links, dtype=np.intc))
            )


class NoRepair(RepairPolicy):
    """The paper's baseline: never repair (explicit no-op)."""

    def repair_round(self, round_number: int) -> int:
        """Do nothing; returns 0."""
        return 0


class DegreeRepair(RepairPolicy):
    """Bounded-effort repair: under-connected nodes re-link each round.

    Parameters
    ----------
    min_degree:
        Nodes below this degree attempt repair.
    target_degree:
        Repair tops nodes up to this degree (at most).
    max_links_per_round:
        Global per-round budget — the knob that makes repair effort
        measurable against the Fig 17 breakdown.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        min_degree: int = 3,
        target_degree: int = 5,
        max_links_per_round: int = 200,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> None:
        super().__init__(graph, rng=rng, meter=meter)
        if not (0 < min_degree <= target_degree):
            raise ValueError("need 0 < min_degree <= target_degree")
        if max_links_per_round < 1:
            raise ValueError("max_links_per_round must be >= 1")
        self.min_degree = int(min_degree)
        self.target_degree = int(target_degree)
        self.max_links_per_round = int(max_links_per_round)

    def repair_round(self, round_number: int) -> int:
        """Re-link under-connected nodes within the round budget."""
        if self.graph.size < 2:
            return 0
        twin = self.graph.to_array()
        needy = np.flatnonzero(twin.degrees() < self.min_degree).tolist()
        if not needy:
            return 0
        batch = _RoundLinks(twin)
        # Randomize service order so the budget isn't biased by node id.
        order = self.rng.permutation(len(needy))
        formed = 0
        for i in order:
            if formed >= self.max_links_per_round:
                break
            u = needy[int(i)]
            want = min(
                self.target_degree - batch.degree[u],
                self.max_links_per_round - formed,
            )
            if want > 0:
                formed += self._link_to_random_peers(batch, u, want)
        batch.finish(self.graph)
        return formed


class FullRepair(RepairPolicy):
    """Idealized repair: every node restored to ``target_degree`` each round.

    An upper bound on what maintenance can achieve; useful to separate
    "breakdown is caused by connectivity loss" (it vanishes here) from
    other explanations.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        target_degree: int = 7,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> None:
        super().__init__(graph, rng=rng, meter=meter)
        if target_degree < 1:
            raise ValueError("target_degree must be >= 1")
        self.target_degree = int(target_degree)

    def repair_round(self, round_number: int) -> int:
        """Top every node up to the target degree."""
        if self.graph.size < 2:
            return 0
        twin = self.graph.to_array()
        # Degrees only grow within a round: a row at the target stays there.
        short = np.flatnonzero(twin.degrees() < self.target_degree).tolist()
        if not short:
            return 0
        batch = _RoundLinks(twin)
        formed = 0
        for u in short:
            deficit = self.target_degree - batch.degree[u]
            if deficit > 0:
                formed += self._link_to_random_peers(batch, u, deficit)
        batch.finish(self.graph)
        return formed


#: policy name -> class.  The declarative vocabulary of
#: :class:`RepairPolicySpec`; register new policies here to make them
#: addressable from trial specs.
REPAIR_POLICIES: Dict[str, type] = {
    "none": NoRepair,
    "degree": DegreeRepair,
    "full": FullRepair,
}


@dataclass(frozen=True)
class RepairPolicySpec:
    """Declarative, picklable description of a repair-policy build.

    A live :class:`RepairPolicy` is bound to a graph, a generator and a
    meter — none of which travel to worker processes.  The spec carries
    only the policy *kind* (a key of :data:`REPAIR_POLICIES`) and its
    constructor parameters; workers rebuild the policy against their local
    graph (the repair ablation's route into ``repro.runtime``).
    """

    kind: str = "none"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in REPAIR_POLICIES:
            raise ValueError(
                f"unknown repair policy {self.kind!r}; "
                f"have {sorted(REPAIR_POLICIES)}"
            )

    def build(
        self,
        graph: OverlayGraph,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> RepairPolicy:
        """Instantiate the policy on the worker-local ``graph``."""
        return REPAIR_POLICIES[self.kind](graph, rng=rng, meter=meter, **self.params)

    def as_config(self) -> Dict[str, Any]:
        """Plain-dict form for content addressing."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "RepairPolicySpec":
        """Rebuild a spec from its :meth:`as_config` form (worker side)."""
        return cls(
            kind=str(config.get("kind", "none")),
            params=dict(config.get("params") or {}),
        )

    @classmethod
    def none(cls) -> "RepairPolicySpec":
        """The paper's baseline: never repair."""
        return cls("none", {})

    @classmethod
    def degree(
        cls,
        min_degree: int = 3,
        target_degree: int = 5,
        max_links_per_round: int = 200,
    ) -> "RepairPolicySpec":
        """Bounded-effort repair (the realistic maintenance abstraction)."""
        return cls(
            "degree",
            {
                "min_degree": int(min_degree),
                "target_degree": int(target_degree),
                "max_links_per_round": int(max_links_per_round),
            },
        )

    @classmethod
    def full(cls, target_degree: int = 7) -> "RepairPolicySpec":
        """Idealized repair: every node restored each round (upper bound)."""
        return cls("full", {"target_degree": int(target_degree)})
