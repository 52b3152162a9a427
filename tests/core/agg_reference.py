"""The dict-backed push-pull Aggregation protocol, kept as a test oracle.

:class:`AggregationProtocol` here is the protocol as it ran before its
state became two row arrays.  It holds the epoch's values three ways:

* the id→value dict ``_values``, filled in the twin's row order at epoch
  start and rebuilt from the row cache on demand (:meth:`_flush_cache`);
* the row-aligned list of Python floats ``_cached_vals`` that the
  averaging loop mutates, with the twin ``_cached_view`` it aligns with;
* the ``_values_stale`` flag, set when the cache has moved on.

Snapshots list the flushed dict's ids and values as Python lists.  The
tests hold the array protocol to it: contacts, metered messages,
generator end state, ``total_mass`` bit for bit, point and bulk reads,
the best-informed fallback and snapshot contents.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.base import Estimate, EstimatorError
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.graph import OverlayGraph
from repro.sim.messages import MessageKind, MessageMeter
from repro.sim.rng import RngLike, as_generator, generator_from_state, generator_state


class AggregationProtocol:
    """The push-pull averaging protocol over an id→value dict."""

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
        self._cached_view: Optional[ArrayOverlayGraph] = None
        self._cached_vals: Optional[List[float]] = None
        self._values_stale = False

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def rounds_in_epoch(self) -> int:
        return self._rounds_in_epoch

    @property
    def initiator(self) -> Optional[int]:
        return self._initiator

    def start_epoch(self, initiator: Optional[int] = None) -> int:
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

    def run_round(self) -> int:
        if self._epoch == 0:
            raise EstimatorError("aggregation: call start_epoch() first")
        view = self.graph.to_array()
        n = view.n
        if n == 0:
            return 0
        vals = self._sync_values(view)
        order = self.rng.permutation(n)
        partners = view.sample_neighbors(order, self.rng)
        contacts = 0
        for i, j in zip(order.tolist(), partners.tolist()):
            if j < 0:
                continue
            mean = (vals[i] + vals[j]) * 0.5
            vals[i] = mean
            vals[j] = mean
            contacts += 1
        self.meter.add(MessageKind.EXCHANGE, 2 * contacts)
        self._values_stale = True
        self._rounds_in_epoch += 1
        return contacts

    def run_rounds(self, rounds: int) -> int:
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        return sum(self.run_round() for _ in range(rounds))

    def value_of(self, node: int) -> float:
        if node not in self.graph:
            raise EstimatorError(f"aggregation: node {node} is not alive")
        self._flush_cache()
        try:
            return self._values[node]
        except KeyError:
            raise EstimatorError(f"aggregation: node {node} not participating") from None

    def read(self, node: Optional[int] = None) -> Estimate:
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
        self._flush_cache()
        view = self.graph.to_array()
        vals = np.array([self._values.get(int(u), 0.0) for u in view.nodes])
        with np.errstate(divide="ignore"):
            return np.where(vals > 0, 1.0 / np.maximum(vals, 1e-300), np.inf)

    def total_mass(self) -> float:
        self._flush_cache()
        return float(sum(self._values.values()))

    def snapshot(self) -> Dict[str, Any]:
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
        proto = cls(graph, rng=generator_from_state(snap["rng"]), meter=meter)
        proto._epoch = int(snap["epoch"])
        proto._rounds_in_epoch = int(snap["rounds_in_epoch"])
        initiator = snap.get("initiator")
        proto._initiator = None if initiator is None else int(initiator)
        proto._values = {
            int(u): float(v) for u, v in zip(snap["nodes"], snap["values"])
        }
        return proto

    def _sync_values(self, view: ArrayOverlayGraph) -> List[float]:
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
