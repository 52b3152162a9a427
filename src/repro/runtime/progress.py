"""The runtime's event stream: one :data:`EVENTS` table, one reporter hook.

The trials API, the process pool, the cluster executor and the
estimation service report everything through
``progress.on_event(event, **fields)``, using the run journal's own
event names and fields.  :data:`EVENTS` catalogues every event: the
fields a journal line of it must carry, and the renderings something
reads — the :class:`LogProgress` line, the ``obs trace`` instant marker
and the ``obs summary`` counter (:mod:`repro.analysis.obs_report`).
Adding an event is one table row plus one ``on_event`` call.

The default :class:`NullProgress` costs nothing, :class:`LogProgress`
writes one-line updates to a stream (stderr by default, so CSV/chart
output on stdout stays clean), :class:`TelemetryCollector` records every
event for tests and tooling, and :class:`TeeProgress` fans events out to
several reporters (e.g. a log and the
:class:`~repro.runtime.obs.JournalReporter`).
"""

from __future__ import annotations

import sys
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

__all__ = [
    "EVENTS",
    "Event",
    "LogProgress",
    "NullProgress",
    "ProgressReporter",
    "TeeProgress",
    "TelemetryCollector",
]


class Event(NamedTuple):
    """One row of :data:`EVENTS`."""

    #: Fields every journal line of the event carries (beyond ``ts``);
    #: ``obs validate`` enforces them.
    fields: Tuple[str, ...]
    #: :class:`LogProgress` line: a ``str.format`` template over the
    #: event's fields, or a function of the fields (``None``: not logged).
    log: Union[None, str, Callable[[Mapping[str, Any]], str]] = None
    #: ``obs trace`` instant marker on the driver track: a name template
    #: and its space-separated args, each ``field`` or ``arg=field``.
    instant: Optional[Tuple[str, str]] = None
    #: ``obs summary`` counter: its line (``"runtime"`` or ``"cluster"``)
    #: and label, shown when the event occurred.
    counter: Optional[Tuple[str, str]] = None


def _running(fields: Mapping[str, Any]) -> str:
    workers = fields["workers"]
    mode = f"{workers} workers" if workers > 1 else "serial"
    return f"running {fields['total']} trials ({mode})"


def _partial_fallback(fields: Mapping[str, Any]) -> str:
    done, total = fields["done"], fields["total"]
    return (
        f"pool failed after {done}/{total} trials; "
        f"re-running the remaining {total - done} serially: {fields['reason']}"
    )


#: Every runtime event, in the order of the journal schema table in
#: ``docs/OBSERVABILITY.md``.  Events between a ``batch_meta`` /
#: ``batch_start`` and the matching ``batch_finish`` (or ``cache_hit``)
#: belong to one batch; the cluster rows come from
#: :mod:`repro.runtime.cluster` and the last four from :mod:`repro.service`.
EVENTS: Dict[str, Event] = {
    "journal": Event(("schema", "pid")),
    "batch_meta": Event(("batch", "kind", "trials", "tag")),
    "batch_start": Event(("batch", "total", "workers"), log=_running),
    "progress": Event(("done", "total"), log="{done}/{total} trials done"),
    "cache_hit": Event(
        ("trials",),
        log="cache hit: {trials} trials loaded from store",
        instant=("cache hit", "trials"),
    ),
    "fallback": Event(
        ("reason",),
        log="falling back to serial execution: {reason}",
        instant=("serial fallback", "reason"),
        counter=("runtime", "serial fallbacks"),
    ),
    "partial_fallback": Event(
        ("done", "total", "reason"),
        log=_partial_fallback,
        instant=("partial fallback", "done total reason"),
        counter=("runtime", "partial fallbacks"),
    ),
    "chunk_start": Event(("chunk", "trials")),
    "chunk_done": Event(("chunk", "trials")),
    "trial": Event(("chunk", "index", "stream")),
    "snapshot_boundary": Event(("target", "seconds", "outcome")),
    "snapshot_rejected": Event(
        ("target", "reason"),
        log="stored snapshot at boundary {target} rejected, recomputing: {reason}",
        instant=("snapshot rejected", "target reason"),
        counter=("runtime", "snapshot rejections"),
    ),
    "snapshot_save_error": Event(
        ("error",),
        log="snapshot save failed (results unaffected): {error}",
        instant=("snapshot save error", "error"),
        counter=("runtime", "snapshot save errors"),
    ),
    "worker_connect": Event(
        ("host", "pid"),
        log="connected to worker {host} (pid {pid})",
        instant=("worker connect {host}", "host worker_pid=pid"),
    ),
    "worker_lost": Event(
        ("host", "reason"),
        log="lost worker {host}: {reason}",
        instant=("worker lost {host}", "host reason"),
        counter=("cluster", "workers lost"),
    ),
    "chunk_migrated": Event(
        ("chunk", "from_host", "to_host"),
        log="chunk {chunk} migrated {from_host} -> {to_host}",
        instant=("chunk {chunk} migrated", "chunk from_host to_host"),
        counter=("cluster", "chunks migrated"),
    ),
    "steal": Event(
        ("chunk", "from_host", "to_host"),
        instant=("chunk {chunk} stolen", "chunk from_host to_host"),
        counter=("cluster", "steals"),
    ),
    "heartbeat_miss": Event(
        ("host", "misses", "threshold"),
        log="heartbeat miss {misses}/{threshold} for worker {host}",
        instant=("heartbeat miss {host}", "host misses threshold"),
        counter=("cluster", "heartbeat misses"),
    ),
    "fault_injected": Event(
        ("host", "kind"),
        log="fault injected on {host}: {kind} ({detail})",
        instant=("fault {kind} on {host}", "host fault=kind detail"),
        counter=("cluster", "faults injected"),
    ),
    "batch_finish": Event(
        ("done", "elapsed"), log="finished {done} trials in {elapsed:.1f}s"
    ),
    "service_start": Event(("families", "size", "seed", "round")),
    "estimate_served": Event(("families", "round", "staleness")),
    "ingest_dropped": Event(("dropped", "queued")),
    "snapshot_checkpoint": Event(("round", "path", "bytes", "seconds")),
}


class ProgressReporter:
    """Receives the runtime's events; this base class ignores them."""

    def on_event(self, event: str, **fields: Any) -> None:
        """Handle one :data:`EVENTS` event.

        ``fields`` are the journal line's fields, less ``batch`` (the
        journal numbers batches itself).  ``chunk_done`` also carries
        ``results``: the chunk's :class:`~repro.runtime.trials.TrialResult`
        list, with the worker-side phase profiles.
        """


class NullProgress(ProgressReporter):
    """The do-nothing default."""


class LogProgress(ProgressReporter):
    """Human-readable one-line progress on a text stream."""

    def __init__(self, label: str = "trials", stream: Optional[TextIO] = None) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr

    def on_event(self, event: str, **fields: Any) -> None:
        """Write the event's :data:`EVENTS` log line, if it has one."""
        log = EVENTS[event].log
        if log is None:
            return
        line = log(fields) if callable(log) else log.format(**fields)
        self.stream.write(f"[{self.label}] {line}\n")
        self.stream.flush()


class TelemetryCollector(ProgressReporter):
    """Records every event as a dict — for tests and tooling."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def on_event(self, event: str, **fields: Any) -> None:
        """Record ``{"event": event, **fields}``."""
        self.events.append({"event": event, **fields})

    def count(self, kind: str) -> int:
        """Number of recorded events of ``kind``."""
        return sum(1 for ev in self.events if ev["event"] == kind)


class TeeProgress(ProgressReporter):
    """Fan every event out to several reporters (e.g. log + journal)."""

    def __init__(self, reporters: Sequence[ProgressReporter]) -> None:
        self.reporters = list(reporters)

    def on_event(self, event: str, **fields: Any) -> None:
        """Forward to every reporter."""
        for r in self.reporters:
            r.on_event(event, **fields)
