"""Membership dynamics: node joins and departures.

The churn engine (:mod:`repro.churn`) expresses *what* happens (arrival and
departure counts over time); this module implements *how* it happens on the
overlay:

* departures remove uniformly random alive nodes, severing their links with
  **no repair** (paper §IV-A);
* arrivals create fresh nodes wired to a random number of alive peers using
  the same degree policy as the heterogeneous builder, so a grown overlay is
  statistically indistinguishable from one built at that size.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List

import numpy as np

from ..sim.rng import RngLike, as_generator
from .graph import GraphError, OverlayGraph

__all__ = ["MembershipPolicy", "JoinReport"]


@dataclass(frozen=True)
class JoinReport:
    """Result of a batch join: ids added and links actually created."""

    node_ids: List[int]
    links_created: int


class MembershipPolicy:
    """Applies arrivals/departures to an :class:`OverlayGraph`.

    Parameters
    ----------
    graph:
        The overlay to mutate.
    max_degree, min_degree:
        Degree policy for joining nodes (defaults match the paper's
        heterogeneous overlays: 1..10).
    rng:
        Random source for victim selection and join wiring.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        max_degree: int = 10,
        min_degree: int = 1,
        rng: RngLike = None,
    ) -> None:
        if not (0 < min_degree <= max_degree):
            raise GraphError(
                f"need 0 < min_degree <= max_degree, got {min_degree}, {max_degree}"
            )
        self.graph = graph
        self.max_degree = max_degree
        self.min_degree = min_degree
        self._rng = as_generator(rng, "membership")

    @property
    def rng(self) -> "np.random.Generator":
        """The live generator victim selection and join wiring draw from.

        Exposed so the churn scheduler's snapshot protocol can capture its
        state (``repro.sim.rng.generator_state``).
        """
        return self._rng

    # ------------------------------------------------------------------

    def join(self, count: int = 1) -> JoinReport:
        """Add ``count`` fresh nodes, each wired to random alive peers.

        A joining node draws a target degree uniformly in
        ``[min_degree, max_degree]`` and links to that many distinct random
        alive peers whose degree is below ``max_degree``.  When the overlay
        is tiny or saturated the node may end with fewer links (possibly
        zero on an empty overlay) — mirroring reality, where a joiner only
        knows the peers its bootstrap gave it.

        The batch runs over the twin's rows: joiners take rows ``n, n+1,
        ...`` and every earlier row is a candidate, so joiners become
        candidates for later joiners (as in a real system where a
        bootstrap server learns of new arrivals immediately).  Degrees and
        the batch's links live in ``int`` buffers, and one
        :meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.with_links`
        splice swaps in the grown twin.
        """
        if count < 0:
            raise GraphError("count must be non-negative")
        graph = self.graph
        first = graph.next_id
        if not count:
            return JoinReport(node_ids=[], links_created=0)
        twin = graph.to_array()
        gen = self._rng
        max_degree = self.max_degree
        degree = array("i", twin.degrees().astype(np.intc).tobytes())
        degree.extend(array("i", [0]) * count)
        links = array("i")
        for u in range(twin.n, twin.n + count):
            pool = u  # rows 0..u-1: the overlay, then earlier joiners
            if not pool:
                continue
            want = min(int(gen.integers(self.min_degree, max_degree + 1)), pool)
            partners: List[int] = []
            attempts = 0
            budget = 20 * max(want, 1)
            while len(partners) < want and attempts < budget:
                attempts += 1
                v = int(gen.integers(pool))
                if degree[v] >= max_degree or v in partners:
                    continue
                partners.append(v)
                degree[v] += 1
                links.append(u)
                links.append(v)
            degree[u] = len(partners)
        graph.adopt_twin(twin.with_links(np.frombuffer(links, dtype=np.intc), count))
        return JoinReport(
            node_ids=list(range(first, first + count)), links_created=len(links) // 2
        )

    def leave(self, count: int = 1) -> List[int]:
        """Remove ``count`` uniformly random alive nodes (fail-stop).

        Returns the removed node ids.  Raises when asked to remove more
        nodes than are alive.  The victims are drawn from
        :meth:`OverlayGraph.node_array` (which draws depend only on its
        length) and reach the graph in one :meth:`OverlayGraph.remove_nodes`
        call, one splice of its twin.
        """
        if count < 0:
            raise GraphError("count must be non-negative")
        if count > self.graph.size:
            raise GraphError(
                f"cannot remove {count} nodes from an overlay of {self.graph.size}"
            )
        gen = self._rng
        victims = gen.choice(self.graph.node_array(), size=count, replace=False)
        self.graph.remove_nodes(victims)
        return victims.tolist()
