"""Applying churn traces to a live overlay.

:class:`ChurnScheduler` binds a :class:`~repro.churn.models.ChurnTrace` to an
:class:`~repro.overlay.graph.OverlayGraph` through a
:class:`~repro.overlay.membership.MembershipPolicy`.  It can be driven two
ways, because the paper's dynamic figures use two different x-axes:

* **round-driven** — subscribe to a :class:`~repro.sim.rounds.RoundDriver`
  (Aggregation figures 15-17, x-axis "#Round"); churn runs at
  ``PRIORITY_CHURN`` so the overlay changes *before* the protocol round at
  the same instant;
* **probe-driven** — call :meth:`advance_to` manually between estimations
  (Sample&Collide / HopsSampling figures 9-14, x-axis "number of
  estimations" / "Time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from ..overlay.arraygraph import ArrayOverlayGraph
from ..overlay.graph import OverlayGraph
from ..overlay.membership import MembershipPolicy
from ..sim.rng import RngLike, generator_from_state, generator_state
from ..sim.rounds import PRIORITY_CHURN, RoundDriver
from .models import ChurnTrace

__all__ = ["ChurnScheduler", "ChurnLogEntry"]


@dataclass(frozen=True)
class ChurnLogEntry:
    """One applied membership change, for audit/plotting."""

    time: float
    joins: int
    leaves: int
    size_after: int


class ChurnScheduler:
    """Consumes a trace and mutates the overlay accordingly.

    Parameters
    ----------
    graph:
        Overlay to mutate.
    trace:
        The churn schedule; consumed in time order, each event at most once.
    rng:
        Random source for victim selection and join wiring.
    max_degree, min_degree:
        Degree policy handed to the :class:`MembershipPolicy` for joiners.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        trace: ChurnTrace,
        rng: RngLike = None,
        max_degree: int = 10,
        min_degree: int = 1,
    ) -> None:
        self.graph = graph
        self.trace = trace
        self.policy = MembershipPolicy(
            graph, max_degree=max_degree, min_degree=min_degree, rng=rng
        )
        self.log: List[ChurnLogEntry] = []

    # ------------------------------------------------------------------

    def advance_to(self, now: float) -> Tuple[int, int]:
        """Apply every event due at or before ``now``.

        Returns total (joins, leaves) applied by this call.  Fractional
        events resolve against the population at the moment they fire, so
        two successive "-25%" events remove 25% then 25%-of-the-remainder,
        exactly like the paper's Fig 15 staircase.
        """
        total_joins = 0
        total_leaves = 0
        for ev in self.trace.due(now):
            joins, leaves = ev.resolve(self.graph.size)
            if leaves:
                self.policy.leave(leaves)
            if joins:
                self.policy.join(joins)
            total_joins += joins
            total_leaves += leaves
            self.log.append(
                ChurnLogEntry(
                    time=ev.time,
                    joins=joins,
                    leaves=leaves,
                    size_after=self.graph.size,
                )
            )
        return total_joins, total_leaves

    def feed(self, events: Iterable[Any]) -> int:
        """Stream live events into the trace tail (service ingest path).

        Each item is a :class:`~repro.churn.models.ChurnEvent` or a mapping
        of its constructor fields.  Events must be due at or after the
        trace horizon (see :meth:`ChurnTrace.extend`); they are applied by
        the next :meth:`advance_to` call that reaches their time.  This is
        how the always-on estimation service (``repro.service``) keeps one
        scheduler resident instead of rebuilding per batch.
        """
        from .models import ChurnEvent

        return self.trace.extend(
            ev if isinstance(ev, ChurnEvent) else ChurnEvent(**dict(ev))
            for ev in events
        )

    def attach(self, driver: RoundDriver) -> None:
        """Subscribe to a round driver so churn fires automatically.

        The hook runs at ``PRIORITY_CHURN`` (before protocol hooks in the
        same round).
        """
        driver.subscribe(
            lambda rnd: self.advance_to(float(rnd)),
            priority=PRIORITY_CHURN,
            label="churn",
        )

    # ------------------------------------------------------------------
    # state hand-off (docs/SNAPSHOTS.md)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data capture of the replay state at the current instant.

        Covers everything the scheduler's *future behaviour* depends on:
        the overlay (with its insertion-order contract), the victim/wiring
        generator state, and the trace cursor.  Deliberately excluded, to
        keep payloads O(overlay) rather than O(overlay + horizon): the
        trace's events (they travel in the trial spec's params and are
        re-supplied to :meth:`restore`) and the applied-event audit log
        (no replay consumer reads it — a restored scheduler's
        :attr:`log`/:meth:`total_applied` cover only post-restore events).
        """
        return {
            "graph": self.graph.snapshot(),
            "rng": generator_state(self.policy.rng),
            "cursor": self.trace.cursor,
        }

    def pack(self) -> Dict[str, Any]:
        """:meth:`snapshot` with the overlay packed as arrays.

        Same keys, which :meth:`restore` reads either way; the ``graph``
        entry is the overlay's CSR twin
        (:meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.pack`) instead
        of per-node lists.  Replay hand-offs and service checkpoints carry
        this form.
        """
        return {
            "graph": self.graph.to_array().pack(),
            "rng": generator_state(self.policy.rng),
            "cursor": self.trace.cursor,
        }

    @classmethod
    def restore(
        cls,
        snap: Mapping[str, Any],
        trace: ChurnTrace,
        max_degree: int = 10,
        min_degree: int = 1,
    ) -> "ChurnScheduler":
        """Rebuild a scheduler (and its overlay) from a :meth:`snapshot`.

        ``trace`` must be a *fresh* trace built from the same payload the
        captured scheduler consumed; it is fast-forwarded to the recorded
        cursor.  The restored scheduler's :meth:`advance_to` calls mutate
        the overlay bit-identically to the captured one's; its audit log
        starts empty (see :meth:`snapshot`).

        ``snap["graph"]`` is either :meth:`OverlayGraph.snapshot`'s lists
        or, in a replay hand-off payload (``repro.runtime.snapshots``),
        the packed twin of :meth:`ArrayOverlayGraph.pack`.  Either is
        validated (:meth:`ArrayOverlayGraph.unpack`,
        :meth:`OverlayGraph.restore`) and becomes the graph's twin.
        """
        graph_snap = snap["graph"]
        if "indptr" in graph_snap:
            graph = OverlayGraph.from_array(ArrayOverlayGraph.unpack(graph_snap))
        else:
            graph = OverlayGraph.restore(graph_snap)
        sched = cls(
            graph,
            trace,
            rng=generator_from_state(snap["rng"]),
            max_degree=max_degree,
            min_degree=min_degree,
        )
        trace.seek(int(snap["cursor"]))
        return sched

    # ------------------------------------------------------------------

    @property
    def applied_events(self) -> int:
        """Number of trace events applied so far."""
        return len(self.log)

    def total_applied(self) -> Tuple[int, int]:
        """Cumulative (joins, leaves) applied so far."""
        return (
            sum(e.joins for e in self.log),
            sum(e.leaves for e in self.log),
        )
