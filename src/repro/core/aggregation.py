"""Gossip-based Aggregation (Jelasity & Montresor) — the epidemic candidate.

§III-C: "if exactly one node of the system holds a value equal to 1, and all
the other values are equal to 0, the average is 1/N".  Each round (cycle),
every node picks a random neighbour and the pair replaces both values with
their mean (the push/pull heuristic — 2 messages per contact, footnote 1).
Values converge to the average ``1/N₀`` where ``N₀`` is the size when the
epoch started; reading any node then yields ``N̂ = 1/value``.

Key properties reproduced here:

* **Mass conservation** — in a static overlay the sum of all values is
  invariant (up to FP rounding), so the protocol converges to *exactly*
  ``N₀`` — "This method converges toward exact system size in a stable
  system".  This is the property-tested core invariant.
* **Convergence speed** — variance contracts by a constant factor per
  round, so ≈40 rounds suffice at 100k nodes and ≈50 at 1M (Figs 5-6).
* **The conservative effect under churn** (§IV-D) — departures delete mass
  and arrivals join with value 0 (mass preserving), so within one epoch the
  estimate tracks *growth* but stays stale under *shrinkage*; periodic
  restarts (new epoch tags) are required, and heavy departures can
  disconnect the overlay and prevent convergence entirely (Fig 17's
  breakdown past ≈30% departures).

Two interfaces are provided:

* :class:`AggregationProtocol` — the raw round-based protocol: start an
  epoch, run rounds, read values; used by the static experiments (Figs 5-6)
  and by the tests.
* :class:`AggregationMonitor` — the continuous monitoring deployment used
  in the dynamic experiments (Figs 15-17): subscribes to a
  :class:`~repro.sim.rounds.RoundDriver`, restarts an epoch every
  ``restart_interval`` rounds (epoch tags), and records the end-of-epoch
  estimates.

Performance: the pairwise-averaging round is inherently sequential (each
contact must see the current values of both parties or mass conservation —
and with it exactness — is lost).  Per the HPC guides we vectorize what can
be vectorized (partner selection over the overlay's CSR twin, value remapping
after churn) and run the contact loop over plain Python lists, which are
≈5× faster than NumPy scalar indexing for this access pattern.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..overlay.arraygraph import ArrayOverlayGraph
from ..overlay.graph import OverlayGraph
from ..sim.messages import MessageKind, MessageMeter
from ..sim.rng import RngLike, as_generator, generator_from_state, generator_state
from ..sim.rounds import PRIORITY_PROTOCOL, RoundDriver
from .base import Estimate, EstimatorError

__all__ = ["AggregationProtocol", "AggregationMonitor"]


class AggregationProtocol:
    """The push-pull averaging protocol on one overlay.

    Parameters
    ----------
    graph:
        The overlay; may churn between rounds (values follow node ids:
        departed nodes take their value with them, joiners enter at 0).
    rng, meter:
        Random source and message accounting.
    """

    name = "aggregation"

    def __init__(
        self,
        graph: OverlayGraph,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> None:
        self.graph = graph
        self.rng = as_generator(rng, self.name)
        self.meter = meter if meter is not None else MessageMeter()
        self._values: Dict[int, float] = {}
        self._epoch = 0
        self._rounds_in_epoch = 0
        self._initiator: Optional[int] = None
        # Per-round fast path: values aligned with the cached CSR twin so
        # the dict round-trip is only paid when the overlay actually changed.
        self._cached_view: Optional[ArrayOverlayGraph] = None
        self._cached_vals: Optional[List[float]] = None
        self._values_stale = False

    # ------------------------------------------------------------------
    # epoch lifecycle
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current epoch tag (0 before the first :meth:`start_epoch`)."""
        return self._epoch

    @property
    def rounds_in_epoch(self) -> int:
        """Rounds executed since the current epoch started."""
        return self._rounds_in_epoch

    @property
    def initiator(self) -> Optional[int]:
        """The node that holds the 1 at epoch start."""
        return self._initiator

    def start_epoch(self, initiator: Optional[int] = None) -> int:
        """Begin a new counting epoch (a fresh tag, §IV-D).

        The initiator's value is set to 1, every other alive node to 0.
        Nodes reached later by messages of this tag — including nodes that
        join mid-epoch — participate starting from 0, which preserves mass.
        Returns the new epoch number.
        """
        if self.graph.size == 0:
            raise EstimatorError("aggregation: overlay is empty")
        if initiator is None:
            initiator = self.graph.random_node(self.rng)
        elif initiator not in self.graph:
            raise EstimatorError(f"aggregation: initiator {initiator} not alive")
        self._epoch += 1
        self._rounds_in_epoch = 0
        self._initiator = initiator
        self._values = {u: 0.0 for u in self.graph.nodes()}
        self._values[initiator] = 1.0
        self._cached_view = None
        self._cached_vals = None
        self._values_stale = False
        return self._epoch

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------

    def run_round(self) -> int:
        """Execute one push-pull cycle; returns the number of contacts.

        Every alive node, in random order, contacts one uniformly random
        live neighbour; both adopt the mean of their values.  Each contact
        is metered as 2 :data:`~repro.sim.messages.MessageKind.EXCHANGE`
        messages (push + pull).
        """
        if self._epoch == 0:
            raise EstimatorError("aggregation: call start_epoch() first")
        view = self.graph.to_array()
        n = view.n
        if n == 0:
            return 0
        vals = self._sync_values(view)

        # Vectorized partner choice, then the sequential averaging sweep.
        order = self.rng.permutation(n)
        partners = view.sample_neighbors(order, self.rng)
        contacts = 0
        order_list = order.tolist()
        partner_list = partners.tolist()
        for i, j in zip(order_list, partner_list):
            if j < 0:
                continue  # isolated node: nobody to exchange with this round
            mean = (vals[i] + vals[j]) * 0.5
            vals[i] = mean
            vals[j] = mean
            contacts += 1

        self.meter.add(MessageKind.EXCHANGE, 2 * contacts)
        self._values_stale = True  # the dict no longer mirrors the cache
        self._rounds_in_epoch += 1
        return contacts

    def run_rounds(self, rounds: int) -> int:
        """Run ``rounds`` cycles; returns total contacts."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        return sum(self.run_round() for _ in range(rounds))

    # ------------------------------------------------------------------
    # reading estimates
    # ------------------------------------------------------------------

    def value_of(self, node: int) -> float:
        """Current local value at ``node`` (its share of the unit mass).

        The node must be alive: a departed node's value is gone with it
        (even if the protocol state has not been projected onto the
        post-churn membership yet).
        """
        if node not in self.graph:
            raise EstimatorError(f"aggregation: node {node} is not alive")
        self._flush_cache()
        try:
            return self._values[node]
        except KeyError:
            raise EstimatorError(f"aggregation: node {node} not participating") from None

    def read(self, node: Optional[int] = None) -> Estimate:
        """Estimate ``N̂ = 1/value`` read at ``node``.

        Defaults to the epoch initiator; falls back to the best-informed
        alive node (largest value) when the initiator has departed — the
        natural deployment choice since "eventually the size estimation is
        available at each node" (§V).  Raises when the read node's value is
        not yet positive (the epidemic has not reached it).
        """
        self._flush_cache()
        if node is None:
            node = self._initiator
            if node is None or node not in self._values or node not in self.graph:
                node = self._best_informed()
        v = self.value_of(node)
        if v <= 0.0:
            raise EstimatorError(
                f"aggregation: node {node} has value {v}; epidemic has not reached it"
            )
        return Estimate(
            value=1.0 / v,
            messages=self.meter.total,
            algorithm=self.name,
            meta={
                "epoch": self._epoch,
                "rounds": self._rounds_in_epoch,
                "read_node": node,
                "value": v,
            },
        )

    def read_all(self) -> np.ndarray:
        """Per-node estimates (``inf`` where the value is still 0).

        Ordered by the rows of the overlay's CSR twin (ascending ids).
        """
        self._flush_cache()
        view = self.graph.to_array()
        vals = np.array([self._values.get(int(u), 0.0) for u in view.nodes])
        with np.errstate(divide="ignore"):
            return np.where(vals > 0, 1.0 / np.maximum(vals, 1e-300), np.inf)

    def total_mass(self) -> float:
        """Sum of all alive values — 1.0 in a static epoch (conservation)."""
        self._flush_cache()
        return float(sum(self._values.values()))

    def estimate(self, rounds: int = 50, initiator: Optional[int] = None) -> Estimate:
        """Convenience one-shot: fresh epoch, ``rounds`` cycles, read.

        ``rounds=50`` is the paper's dynamic-setting choice ("we took 50
        ... for a fair comparison" — the 99%-convergence point at 1M
        nodes; 100k converges by ≈40).
        """
        before = self.meter.total
        self.start_epoch(initiator)
        self.run_rounds(rounds)
        est = self.read()
        return Estimate(
            value=est.value,
            messages=self.meter.total - before,
            algorithm=self.name,
            meta=est.meta,
        )

    # ------------------------------------------------------------------
    # state hand-off (docs/SNAPSHOTS.md)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data capture of the epoch state, including the generator.

        The meter is an injected dependency captured by the caller (in the
        ``repair_replay`` hand-off the relevant meter is the repair one;
        the protocol's internal exchange meter does not influence any
        recorded result).  Values are listed in the flushed dict's
        iteration order so a restored protocol's value dict iterates
        identically — keeping even order-sensitive reductions
        (:meth:`total_mass`) bit-stable.
        """
        self._flush_cache()
        return {
            "epoch": self._epoch,
            "rounds_in_epoch": self._rounds_in_epoch,
            "initiator": self._initiator,
            "rng": generator_state(self.rng),
            "nodes": list(self._values.keys()),
            "values": list(self._values.values()),
        }

    @classmethod
    def restore(
        cls,
        graph: OverlayGraph,
        snap: Mapping[str, Any],
        meter: Optional[MessageMeter] = None,
    ) -> "AggregationProtocol":
        """Rebuild a protocol mid-epoch from a :meth:`snapshot` payload.

        ``graph`` (and ``meter``, when accounting matters) must themselves
        be restored to the captured instant — the replay-state classes in
        ``repro.runtime.snapshots`` orchestrate that.  The generator is
        rebuilt from the captured state, so future rounds proceed
        bit-identically to the uninterrupted run.
        """
        proto = cls(graph, rng=generator_from_state(snap["rng"]), meter=meter)
        proto._epoch = int(snap["epoch"])
        proto._rounds_in_epoch = int(snap["rounds_in_epoch"])
        initiator = snap.get("initiator")
        proto._initiator = None if initiator is None else int(initiator)
        proto._values = {
            int(u): float(v) for u, v in zip(snap["nodes"], snap["values"])
        }
        return proto

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _sync_values(self, view: ArrayOverlayGraph) -> List[float]:
        """Array-of-values aligned with ``view``; rebuilt only on change.

        When the overlay churned since the last round, values are carried
        over by a vectorized sorted-array join (node ids ascend in every
        twin, and so in the value dict, which is filled in twin row order):
        present nodes keep their value, joiners enter at 0, leavers drop
        their value (the mass-loss the paper's "conservative effect"
        discussion hinges on).  The id→value dict is only materialized on
        demand (:meth:`_flush_cache`) for point reads.
        """
        if view is self._cached_view and self._cached_vals is not None:
            return self._cached_vals
        if self._cached_view is not None and self._cached_vals is not None:
            old_nodes = self._cached_view.nodes
            old_vals = np.asarray(self._cached_vals, dtype=np.float64)
        else:
            count = len(self._values)
            old_nodes = np.fromiter(self._values.keys(), dtype=np.int64, count=count)
            old_vals = np.fromiter(self._values.values(), dtype=np.float64, count=count)
        new_vals = np.zeros(view.n)
        if old_nodes.size:
            pos = np.minimum(np.searchsorted(old_nodes, view.nodes), old_nodes.size - 1)
            found = old_nodes[pos] == view.nodes
            new_vals[found] = old_vals[pos[found]]
        vals = new_vals.tolist()
        self._cached_view = view
        self._cached_vals = vals
        self._values_stale = True
        return vals

    def _flush_cache(self) -> None:
        if (
            self._values_stale
            and self._cached_view is not None
            and self._cached_vals is not None
        ):
            nodes = self._cached_view.nodes.tolist()
            self._values = dict(zip(nodes, self._cached_vals))
            self._values_stale = False

    def _best_informed(self) -> int:
        self._flush_cache()
        alive = [(v, u) for u, v in self._values.items() if u in self.graph]
        if not alive:
            raise EstimatorError("aggregation: no participating node alive")
        return max(alive)[1]


class AggregationMonitor:
    """Continuous deployment with periodic restarts (the §IV-D fix).

    "To track size variations, the solution is to reinitialize an
    aggregation process at regular time intervals" using epoch tags.  The
    monitor runs one :class:`AggregationProtocol`, restarting every
    ``restart_interval`` rounds; at each restart boundary it reads the
    finished epoch's estimate and holds it until the next boundary (the
    staircase the dynamic figures show).

    Attach to a :class:`~repro.sim.rounds.RoundDriver` (churn hooks run
    first at equal times, so each round executes on the already-churned
    overlay).
    """

    def __init__(
        self,
        graph: OverlayGraph,
        restart_interval: int = 50,
        rng: RngLike = None,
        meter: Optional[MessageMeter] = None,
    ) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self.protocol = AggregationProtocol(graph, rng=rng, meter=meter)
        self.restart_interval = int(restart_interval)
        self.graph = graph
        #: (round, estimate) pairs recorded at each epoch boundary.
        self.epoch_estimates: List[Tuple[int, float]] = []
        #: Per-round held estimate (staircase), NaN before the first epoch ends.
        self.series: List[float] = []
        self._current_hold = float("nan")
        self._failures = 0

    @property
    def failures(self) -> int:
        """Epoch reads that failed (epidemic never reached the read node —
        the Fig 17 connectivity-collapse signature)."""
        return self._failures

    def attach(self, driver: RoundDriver) -> None:
        """Subscribe the per-round step at protocol priority."""
        driver.subscribe(self.on_round, priority=PRIORITY_PROTOCOL, label="aggregation")

    def on_round(self, round_number: int) -> None:
        """One monitor step: maybe close an epoch/restart, then gossip."""
        proto = self.protocol
        if proto.epoch == 0:
            if self.graph.size > 0:
                proto.start_epoch()
        elif proto.rounds_in_epoch >= self.restart_interval:
            self._close_epoch(round_number)
            if self.graph.size > 0:
                proto.start_epoch()
        if proto.epoch > 0 and self.graph.size > 0:
            proto.run_round()
        self.series.append(self._current_hold)

    # ------------------------------------------------------------------
    # state hand-off (docs/SNAPSHOTS.md)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data capture of the monitor: protocol state + held estimate.

        ``series`` (the per-round staircase) is deliberately *not*
        captured: a restored monitor appends from an empty list, and the
        chunk runner maps absolute round numbers onto that local list —
        snapshots stay O(overlay), not O(rounds elapsed).
        """
        return {
            "protocol": self.protocol.snapshot(),
            "epoch_estimates": [[int(r), float(e)] for r, e in self.epoch_estimates],
            "hold": self._current_hold,
            "failures": self._failures,
        }

    @classmethod
    def restore(
        cls,
        graph: OverlayGraph,
        snap: Mapping[str, Any],
        restart_interval: int,
        meter: Optional[MessageMeter] = None,
    ) -> "AggregationMonitor":
        """Rebuild a monitor mid-run from a :meth:`snapshot` payload.

        As with :meth:`AggregationProtocol.restore`, the injected ``graph``
        (and ``meter``) must be restored to the same instant; the
        generator comes out of the protocol payload.  ``restart_interval``
        comes from the trial spec — it is configuration, not state.
        """
        mon = cls(graph, restart_interval=restart_interval, meter=meter)
        mon.protocol = AggregationProtocol.restore(graph, snap["protocol"], meter=meter)
        mon.epoch_estimates = [
            (int(r), float(e)) for r, e in snap.get("epoch_estimates", [])
        ]
        mon._current_hold = float(snap["hold"])
        mon._failures = int(snap["failures"])
        return mon

    def _close_epoch(self, round_number: int) -> None:
        try:
            est = self.protocol.read()
            self._current_hold = est.value
            self.epoch_estimates.append((round_number, est.value))
        except EstimatorError:
            # Epoch failed to converge (disconnection / initiator loss with
            # nothing informed): hold the previous estimate, count the miss.
            self._failures += 1
