"""Churn traces: descriptions of *what* happens to the membership over time.

The paper's dynamic evaluation (§IV-D) uses three scenarios on a 100,000
node heterogeneous overlay:

* **catastrophic failures** — sudden loss of 25% of the nodes at given
  instants, plus one mass join (Fig 15: "-25% of nodes at 100 and 500,
  +25000 nodes at 700");
* **growing** — constant arrivals totalling +50% over the run (Figs 10,
  13, 16);
* **shrinking** — constant departures totalling −50% (Figs 11, 14, 17).

A trace is a sorted sequence of :class:`ChurnEvent`; each event says how
many nodes join and how many leave at a virtual time.  Traces are pure data:
applying them to an overlay is the job of
:class:`repro.churn.scheduler.ChurnScheduler`.

Counts may be specified as absolute numbers or as fractions of the
population *at event time* (``frac_leaves=0.25`` removes a quarter of
whatever is alive then), matching the paper's "-25%" phrasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ChurnEvent",
    "ChurnTrace",
    "catastrophic_trace",
    "growing_trace",
    "shrinking_trace",
    "steady_churn_trace",
]


@dataclass(frozen=True)
class ChurnEvent:
    """Membership change at one instant.

    Exactly one of (``joins``, ``frac_joins``) and one of (``leaves``,
    ``frac_leaves``) may be non-zero; fractions are resolved against the
    population at application time.  ``time`` and both fractions must be
    finite.
    """

    time: float
    joins: int = 0
    leaves: int = 0
    frac_joins: float = 0.0
    frac_leaves: float = 0.0

    def __post_init__(self) -> None:
        for name in ("time", "frac_joins", "frac_leaves"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.joins < 0 or self.leaves < 0:
            raise ValueError("joins/leaves must be non-negative")
        if not (0.0 <= self.frac_joins) or not (0.0 <= self.frac_leaves <= 1.0):
            raise ValueError("fractions out of range")
        if self.joins and self.frac_joins:
            raise ValueError("specify joins either absolutely or fractionally")
        if self.leaves and self.frac_leaves:
            raise ValueError("specify leaves either absolutely or fractionally")

    def resolve(self, population: int) -> Tuple[int, int]:
        """Concrete (joins, leaves) counts for the given population.

        Raises :class:`ValueError` naming the event when a fraction of
        ``population`` is not a finite count (a finite ``frac_joins`` as
        large as ``1e308`` can overflow).
        """
        share = self.frac_joins * population
        if not math.isfinite(share):
            raise ValueError(f"{self!r}: frac_joins of {population} nodes is not a finite count")
        joins = self.joins if self.joins else int(round(share))
        leaves = (
            self.leaves if self.leaves else int(round(self.frac_leaves * population))
        )
        leaves = min(leaves, population)
        return joins, leaves


class ChurnTrace:
    """A time-sorted sequence of :class:`ChurnEvent`.

    Iterating yields events in time order; :meth:`due` pops the events whose
    time has arrived, which is how the scheduler consumes a trace
    incrementally.
    """

    def __init__(self, events: Iterable[ChurnEvent] = ()) -> None:
        self._events: List[ChurnEvent] = sorted(events, key=lambda e: e.time)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def remaining(self) -> int:
        """Events not yet consumed via :meth:`due`."""
        return len(self._events) - self._cursor

    @property
    def horizon(self) -> float:
        """Time of the last event (0.0 for an empty trace)."""
        return self._events[-1].time if self._events else 0.0

    def due(self, now: float) -> List[ChurnEvent]:
        """Pop and return all events with ``time <= now`` (in order)."""
        out: List[ChurnEvent] = []
        while self._cursor < len(self._events) and self._events[self._cursor].time <= now:
            out.append(self._events[self._cursor])
            self._cursor += 1
        return out

    def reset(self) -> None:
        """Rewind consumption to the beginning."""
        self._cursor = 0

    def extend(self, events: Iterable[ChurnEvent]) -> int:
        """Append live events to the tail of the trace; returns the count.

        This is the streaming entry point used by the always-on estimation
        service (``repro.service``, ``docs/SERVICE.md``): a resident
        scheduler's trace grows as membership events arrive instead of
        being fixed at construction.  Every appended event must be due at
        or after the trace's current :attr:`horizon` — the sorted-order
        invariant every consumer (and the snapshot cursor contract) relies
        on — and must not predate already-consumed events.
        """
        added = sorted(events, key=lambda e: e.time)
        if not added:
            return 0
        floor = self.horizon
        if self._cursor:
            floor = max(floor, self._events[self._cursor - 1].time)
        if added[0].time < floor:
            raise ValueError(
                f"cannot extend trace into the past: event at t={added[0].time} "
                f"predates the trace horizon t={floor}"
            )
        self._events.extend(added)
        return len(added)

    @property
    def cursor(self) -> int:
        """Number of events already consumed via :meth:`due`.

        Part of the snapshot protocol (``docs/SNAPSHOTS.md``): the cursor
        plus the (immutable) event list fully describe a trace's
        consumption state, so a restored trace :meth:`seek`-ed to the same
        cursor yields identical future :meth:`due` pops.
        """
        return self._cursor

    def seek(self, cursor: int) -> None:
        """Set the consumption cursor (0 = nothing consumed).

        Used when restoring a churn-replay snapshot: the trace is rebuilt
        fresh from its payload, then fast-forwarded here instead of
        replaying :meth:`due` calls.
        """
        if not (0 <= cursor <= len(self._events)):
            raise ValueError(
                f"cursor {cursor} out of range for trace of {len(self._events)} events"
            )
        self._cursor = int(cursor)

    def net_change(self, initial: int) -> int:
        """Expected final population after the whole trace (fractions are
        resolved sequentially against the running population)."""
        pop = initial
        for ev in self._events:
            j, l = ev.resolve(pop)
            pop += j - l
        return pop


# ----------------------------------------------------------------------
# Scenario factories matching the paper
# ----------------------------------------------------------------------


def catastrophic_trace(
    failure_times: Sequence[float] = (100.0, 500.0),
    failure_fraction: float = 0.25,
    rejoin_time: Optional[float] = 700.0,
    rejoin_count: int = 25_000,
) -> ChurnTrace:
    """The paper's catastrophic scenario (Fig 15 caption).

    ``failure_fraction`` of the *current* population fails at each failure
    time; optionally ``rejoin_count`` fresh nodes join at ``rejoin_time``.
    Defaults reproduce the Fig 15 schedule on a 100k overlay.
    """
    events = [
        ChurnEvent(time=t, frac_leaves=failure_fraction) for t in failure_times
    ]
    if rejoin_time is not None and rejoin_count > 0:
        events.append(ChurnEvent(time=rejoin_time, joins=rejoin_count))
    return ChurnTrace(events)


def _spread_counts(total: int, steps: int) -> List[int]:
    """Split ``total`` into ``steps`` near-equal integer chunks (sum exact)."""
    base = total // steps
    extra = total % steps
    return [base + (1 if i < extra else 0) for i in range(steps)]


def growing_trace(
    initial_size: int,
    growth_fraction: float = 0.5,
    start: float = 1.0,
    end: float = 100.0,
    steps: int = 99,
) -> ChurnTrace:
    """Constant arrivals totalling ``growth_fraction·initial_size``.

    Arrivals are spread uniformly over ``steps`` instants in ``[start,
    end]``, modelling the paper's steadily growing network (+50%).
    """
    if initial_size <= 0:
        raise ValueError("initial_size must be positive")
    if growth_fraction < 0:
        raise ValueError("growth_fraction must be non-negative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    total = int(round(initial_size * growth_fraction))
    times = [start + (end - start) * i / max(steps - 1, 1) for i in range(steps)]
    counts = _spread_counts(total, steps)
    return ChurnTrace(
        ChurnEvent(time=t, joins=c) for t, c in zip(times, counts) if c > 0
    )


def shrinking_trace(
    initial_size: int,
    shrink_fraction: float = 0.5,
    start: float = 1.0,
    end: float = 100.0,
    steps: int = 99,
) -> ChurnTrace:
    """Constant departures totalling ``shrink_fraction·initial_size`` (−50%)."""
    if initial_size <= 0:
        raise ValueError("initial_size must be positive")
    if not (0.0 <= shrink_fraction <= 1.0):
        raise ValueError("shrink_fraction must be in [0, 1]")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    total = int(round(initial_size * shrink_fraction))
    times = [start + (end - start) * i / max(steps - 1, 1) for i in range(steps)]
    counts = _spread_counts(total, steps)
    return ChurnTrace(
        ChurnEvent(time=t, leaves=c) for t, c in zip(times, counts) if c > 0
    )


def steady_churn_trace(
    rate_per_step: int,
    start: float = 1.0,
    end: float = 100.0,
    steps: int = 99,
) -> ChurnTrace:
    """Simultaneous constant arrivals *and* departures (size-neutral churn).

    Models the paper's "constant nodes arrivals and departures" stress
    without net size drift; useful for measuring estimator variance under
    pure membership turnover.
    """
    if rate_per_step < 0:
        raise ValueError("rate_per_step must be non-negative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    times = [start + (end - start) * i / max(steps - 1, 1) for i in range(steps)]
    return ChurnTrace(
        ChurnEvent(time=t, joins=rate_per_step, leaves=rate_per_step) for t in times
    )
