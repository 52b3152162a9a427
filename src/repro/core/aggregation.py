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
and with it exactness — is lost).  Partner selection and the value join
after churn are vectorized; the contact loop runs over memoryviews of the
``float64`` value array, the permutation and the partner array, so no
per-node Python object outlives a round.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

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

    The state is two row arrays: ``_nodes``, the twin's ids at the last
    round or epoch start (ascending), and ``_values``, one ``float64``
    per row.  A departed node's value stays in them until the next round
    joins them onto the churned overlay.
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
        self._nodes = np.empty(0, dtype=np.int64)
        self._values = np.empty(0)
        self._epoch = 0
        self._rounds_in_epoch = 0
        self._initiator: Optional[int] = None

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
        view = self.graph.to_array()
        self._nodes = view.nodes
        self._values = np.zeros(view.n)
        self._values[view.position(initiator)] = 1.0
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
        if view.nodes is not self._nodes:  # membership changed since the last sync
            self._values = self._carried(view.nodes)
            self._nodes = view.nodes

        # Vectorized partner choice, then the sequential averaging sweep;
        # an isolated node (partner -1) has nobody to exchange with.
        order = self.rng.permutation(n)
        partners = view.sample_neighbors(order, self.rng)
        vals = memoryview(self._values)
        for i, j in zip(memoryview(order), memoryview(partners)):
            if j >= 0:
                vals[i] = vals[j] = (vals[i] + vals[j]) * 0.5
        contacts = int(np.count_nonzero(partners >= 0))

        self.meter.add(MessageKind.EXCHANGE, 2 * contacts)
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
        row = self._row(node)
        if row < 0:
            raise EstimatorError(f"aggregation: node {node} not participating")
        return float(self._values[row])

    def read(self, node: Optional[int] = None) -> Estimate:
        """Estimate ``N̂ = 1/value`` read at ``node``.

        Defaults to the epoch initiator; falls back to the best-informed
        alive node (largest value) when the initiator has departed — the
        natural deployment choice since "eventually the size estimation is
        available at each node" (§V).  Raises when the read node's value is
        not yet positive (the epidemic has not reached it).
        """
        if node is None:
            node = self._initiator
            if node is None or self._row(node) < 0 or node not in self.graph:
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
        vals = self._carried(self.graph.to_array().nodes)
        with np.errstate(divide="ignore"):
            return np.where(vals > 0, 1.0 / np.maximum(vals, 1e-300), np.inf)

    def total_mass(self) -> float:
        """Sum of all alive values — 1.0 in a static epoch (conservation).

        A left-to-right sum in row order, so the result is bit-stable
        (numpy's pairwise ``sum`` would round differently).
        """
        return float(sum(memoryview(self._values)))

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
        recorded result).  ``nodes`` (``int64``) and ``values``
        (``float64``) are copies of the two row arrays: ascending ids in
        the twin's row order at the last sync, so a restored protocol
        sums them in the same order and order-sensitive reductions
        (:meth:`total_mass`) stay bit-stable.
        """
        return {
            "epoch": self._epoch,
            "rounds_in_epoch": self._rounds_in_epoch,
            "initiator": self._initiator,
            "rng": generator_state(self.rng),
            "nodes": self._nodes.astype(np.int64),
            "values": self._values.copy(),
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
        bit-identically to the uninterrupted run.  ``nodes`` and
        ``values`` must be arrays, the ids ascending (the store's
        ``values`` group check); both are copied.
        """
        nodes, values = snap["nodes"], snap["values"]
        if not (isinstance(nodes, np.ndarray) and isinstance(values, np.ndarray)):
            raise TypeError("aggregation: a snapshot's nodes and values must be arrays")
        proto = cls(graph, rng=generator_from_state(snap["rng"]), meter=meter)
        proto._epoch = int(snap["epoch"])
        proto._rounds_in_epoch = int(snap["rounds_in_epoch"])
        initiator = snap.get("initiator")
        proto._initiator = None if initiator is None else int(initiator)
        proto._nodes = nodes.astype(np.int64)
        proto._values = values.astype(np.float64)
        return proto

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _join(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted-array join of ascending ``ids`` with the state's ids:
        a mask of the ``ids`` the state holds, and their rows in it."""
        nodes = self._nodes
        if not nodes.size:
            return np.zeros(ids.shape, dtype=bool), np.empty(0, dtype=np.intp)
        pos = np.minimum(np.searchsorted(nodes, ids), nodes.size - 1)
        found = nodes[pos] == ids
        return found, pos[found]

    def _carried(self, ids: np.ndarray) -> np.ndarray:
        """Values on the rows of ``ids``: present nodes keep their value,
        joiners enter at 0, and leavers' values are dropped (the mass loss
        the paper's "conservative effect" discussion hinges on)."""
        found, rows = self._join(ids)
        vals = np.zeros(ids.shape[0])
        vals[found] = self._values[rows]
        return vals

    def _row(self, node: int) -> int:
        """Row of ``node`` in the state, or ``-1`` (one binary search)."""
        nodes = self._nodes
        row = int(np.searchsorted(nodes, node))
        return row if row < nodes.shape[0] and nodes[row] == node else -1

    def _best_informed(self) -> int:
        """The alive participant with the largest value, ties to the
        largest id (the last such row, as ids ascend)."""
        _, rows = self._join(self.graph.to_array().nodes)
        if not rows.size:
            raise EstimatorError("aggregation: no participating node alive")
        vals = self._values[rows]
        return int(self._nodes[rows[np.flatnonzero(vals == vals.max())[-1]]])


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
