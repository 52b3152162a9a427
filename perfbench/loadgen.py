"""Open-loop load generation: requests fire on a fixed schedule.

Request ``i`` of a phase at ``rate`` requests/s is *due* at
``start + i / rate`` whether or not earlier requests have finished, which
is how independent users behave.  One thread issues the requests in due
order, so a slow reply delays the ones behind it; each request is timed
from when it was due, not from when it was sent, so that delay shows in
its latency instead of disappearing (no coordinated omission).  How late
the generator itself ran — ``sent - due`` — is recorded per request.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence


@dataclass
class Sample:
    """One request: its due, send and completion instants (seconds)."""

    due: float
    sent: float
    done: float
    ok: bool
    reply: Any = None

    @property
    def latency(self) -> float:
        """Seconds from due to decoded reply."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return self.sent - self.due


@dataclass
class Phase:
    """The requests of one fixed-rate phase."""

    rate: float
    duration: float
    start: float
    samples: List[Sample] = field(default_factory=list)

    @property
    def end(self) -> float:
        """When the last request completed (or the schedule ended)."""
        last = max((s.done for s in self.samples), default=self.start)
        return max(self.start + self.duration, last)

    def achieved_rate(self) -> float:
        """Successful requests per second, from the phase start to the last reply."""
        good = sum(1 for s in self.samples if s.ok)
        last = max((s.done for s in self.samples), default=self.start)
        return good / (last - self.start) if last > self.start else 0.0

    def backlog(self) -> float:
        """Seconds past the schedule at which the phase finished its work."""
        return self.end - (self.start + self.duration)


def run_phase(
    call: Callable[[], Any],
    rate: float,
    duration: float,
    *,
    start: Optional[float] = None,
    stop: Optional[threading.Event] = None,
    clock: Callable[[], float] = time.perf_counter,
    errors: Sequence[type] = (Exception,),
) -> Phase:
    """Issue ``call()`` at ``rate`` per second for ``duration`` seconds.

    ``stop`` ends the phase early (the writer thread runs until the reader
    finishes).  An exception from ``errors`` marks the request failed; the
    schedule carries on.
    """
    start = clock() if start is None else start
    phase = Phase(rate=rate, duration=duration, start=start)
    total = int(math.floor(rate * duration))
    for i in range(total):
        if stop is not None and stop.is_set():
            break
        due = start + i / rate
        now = clock()
        if now < due:
            if stop is not None:
                if stop.wait(due - now):
                    break
            else:
                time.sleep(due - now)
        sent = clock()
        try:
            reply = call()
            ok = True
        except tuple(errors):  # type: ignore[misc]
            reply = None
            ok = False
        phase.samples.append(Sample(due, sent, clock(), ok, reply))
    return phase


def _rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples."""
    return min(count, max(1, int(math.ceil(q * count / 100.0 - 1e-9))))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        return float("nan")
    return sorted(values)[_rank(q, len(values)) - 1]


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples beyond it (of 99, 95, 90, 50)."""
    for q in (99.0, 95.0, 90.0):
        if count - _rank(q, count) >= 10:
            return q
    return 50.0
