"""Consumers of the runtime's JSONL run journal (``repro.runtime.obs``).

Three views over one journal file:

* :func:`validate_journal` — structural schema check (the CI docs job runs
  it on a freshly generated journal);
* :func:`render_obs_summary` — ASCII phase-breakdown table plus batch and
  snapshot-backbone counters (``repro-experiment obs summary``);
* :func:`journal_to_trace` — Chrome trace-event JSON for
  chrome://tracing / https://ui.perfetto.dev (``repro-experiment obs
  trace``): one track per process (driver + each worker PID), complete
  ``"X"`` spans for batches, snapshot boundaries, chunks and trials, and
  instant ``"i"`` markers for the events that have an ``instant`` in
  :data:`~repro.runtime.progress.EVENTS` (cache hits, fallbacks, save
  errors, the cluster lifecycle).

All timestamps in the journal are epoch seconds (the only clock
comparable across processes); the trace converter rebases them onto the
journal's earliest event and scales to the trace format's microseconds.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from typing import Any, Dict, List, Mapping, Sequence, Union

from ..runtime.obs import JOURNAL_SCHEMA_VERSION, PHASES
from ..runtime.progress import EVENTS
from ..sim.metrics import PhaseBreakdown

__all__ = [
    "journal_to_trace",
    "read_journal",
    "render_obs_summary",
    "validate_journal",
]


def read_journal(
    path: Union[str, pathlib.Path]
) -> List[Dict[str, Any]]:
    """Parse a JSONL journal into a list of event dicts.

    Blank lines are skipped; a malformed line raises :class:`ValueError`
    with its 1-based line number.
    """
    events: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})") from None
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: journal line is not an object")
            events.append(event)
    return events


def validate_journal(events: Sequence[Mapping[str, Any]]) -> List[str]:
    """Structural check of a parsed journal; returns problem descriptions.

    An empty list means the journal conforms to the schema documented in
    ``docs/OBSERVABILITY.md``: a header line per reporter with a known
    schema version, known event types, their required fields present, and
    numeric timestamps throughout.
    """
    problems: List[str] = []
    if not events:
        return ["journal is empty"]
    if events[0].get("event") != "journal":
        problems.append("first line is not a 'journal' header")
    for pos, event in enumerate(events, start=1):
        kind = event.get("event")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"line {pos}: missing numeric 'ts'")
        if kind not in EVENTS:
            problems.append(f"line {pos}: unknown event type {kind!r}")
            continue
        for field in EVENTS[kind].fields:
            if field not in event:
                problems.append(f"line {pos}: {kind} event missing {field!r}")
        if kind == "journal" and event.get("schema") != JOURNAL_SCHEMA_VERSION:
            problems.append(
                f"line {pos}: unsupported journal schema "
                f"{event.get('schema')!r} (expected {JOURNAL_SCHEMA_VERSION})"
            )
        phases = event.get("phases")
        if phases is not None:
            for name in phases:
                if name not in PHASES:
                    problems.append(f"line {pos}: unknown phase {name!r}")
    return problems


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------


class _Fields(dict):
    """An event's fields for formatting; a missing field reads as ``None``."""

    def __missing__(self, key: str) -> None:
        return None


def _us(epoch: float, origin: float) -> int:
    return int(round((epoch - origin) * 1_000_000))


def journal_to_trace(events: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Convert journal events to a Chrome trace-event document.

    The result is the JSON-object form (``{"traceEvents": [...]}``) that
    chrome://tracing and Perfetto both load.  Layout: the driver's events
    sit on its own pid track (batches as spans; the events with an
    ``instant`` in :data:`~repro.runtime.progress.EVENTS` as instant
    markers; snapshot-boundary resolutions as spans ending at their
    journal timestamp), while each worker PID gets a track with chunk
    spans and nested trial spans from the worker-side profiles.
    """
    origin = min(
        (float(e["ts"]) for e in events if isinstance(e.get("ts"), (int, float))),
        default=0.0,
    )
    driver_pid = next(
        (int(e["pid"]) for e in events if e.get("event") == "journal"), 0
    )
    trace: List[Dict[str, Any]] = []
    seen_pids = {driver_pid}
    trace.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": driver_pid,
            "tid": 0,
            "args": {"name": f"driver (pid {driver_pid})"},
        }
    )

    def worker_track(pid: int) -> int:
        if pid not in seen_pids:
            seen_pids.add(pid)
            trace.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"worker (pid {pid})"},
                }
            )
        return pid

    batch_start: Dict[Any, Mapping[str, Any]] = {}
    batch_meta: Dict[Any, Mapping[str, Any]] = {}
    for event in events:
        kind = event.get("event")
        batch = event.get("batch")
        spec = EVENTS.get(str(kind))
        if spec is not None and spec.instant is not None:
            name, args = spec.instant
            fields = _Fields(event)
            trace.append(
                {
                    "ph": "i",
                    "s": "p",
                    "name": name.format_map(fields),
                    "pid": driver_pid,
                    "tid": 0,
                    "ts": _us(float(event["ts"]), origin),
                    "args": {
                        arg: fields[field or arg]
                        for arg, _, field in (a.partition("=") for a in args.split())
                    },
                }
            )
        elif kind == "batch_meta":
            batch_meta[batch] = event
        elif kind == "batch_start":
            batch_start[batch] = event
        elif kind == "batch_finish":
            start = batch_start.get(batch)
            if start is None:
                continue
            meta = batch_meta.get(batch, {})
            trace.append(
                {
                    "ph": "X",
                    "name": f"batch {batch}: {meta.get('tag', meta.get('kind', '?'))}",
                    "cat": "batch",
                    "pid": driver_pid,
                    "tid": 0,
                    "ts": _us(float(start["ts"]), origin),
                    "dur": max(0, int(round(float(event.get("elapsed", 0)) * 1e6))),
                    "args": {
                        "trials": event.get("done"),
                        "kind": meta.get("kind"),
                        "key": meta.get("key"),
                    },
                }
            )
        elif kind == "snapshot_boundary":
            seconds = float(event.get("seconds", 0.0))
            trace.append(
                {
                    "ph": "X",
                    "name": f"boundary {event.get('target')} ({event.get('outcome')})",
                    "cat": "snapshot",
                    "pid": driver_pid,
                    "tid": 1,
                    "ts": _us(float(event["ts"]) - seconds, origin),
                    "dur": max(0, int(round(seconds * 1e6))),
                    "args": {"outcome": event.get("outcome")},
                }
            )
        elif kind == "chunk_done":
            pid = event.get("pid")
            started = event.get("started")
            elapsed = event.get("elapsed")
            if pid is None or started is None or elapsed is None:
                continue
            trace.append(
                {
                    "ph": "X",
                    "name": f"chunk {event.get('chunk')}",
                    "cat": "chunk",
                    "pid": worker_track(int(pid)),
                    "tid": 0,
                    "ts": _us(float(started), origin),
                    "dur": max(0, int(round(float(elapsed) * 1e6))),
                    "args": {
                        "trials": event.get("trials"),
                        "phases": event.get("phases") or {},
                    },
                }
            )
        elif kind == "trial":
            pid = event.get("pid")
            started = event.get("started")
            elapsed = event.get("elapsed")
            if pid is None or started is None or elapsed is None:
                continue
            trace.append(
                {
                    "ph": "X",
                    "name": f"trial {event.get('index')}.{event.get('stream')}",
                    "cat": "trial",
                    "pid": worker_track(int(pid)),
                    "tid": 1,
                    "ts": _us(float(started), origin),
                    "dur": max(0, int(round(float(elapsed) * 1e6))),
                    "args": {"phases": event.get("phases") or {}},
                }
            )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# ASCII summary
# ----------------------------------------------------------------------


def _fmt_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:.0f}s"
    if value >= 1:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def render_obs_summary(events: Sequence[Mapping[str, Any]]) -> str:
    """ASCII phase-breakdown and runtime counters for a parsed journal."""
    breakdown = PhaseBreakdown()
    counts = Counter(str(event.get("event")) for event in events)
    trials = 0
    wall = 0.0
    boundary_counts: Dict[str, int] = {}
    workers: set = set()
    cluster_hosts: set = set()
    for event in events:
        kind = event.get("event")
        if kind in ("chunk_done", "trial"):
            breakdown.add(event.get("phases") or {})
        if kind == "batch_finish":
            wall += float(event.get("elapsed", 0.0))
            trials += int(event.get("done", 0))
        elif kind == "chunk_done":
            if event.get("pid") is not None:
                workers.add(event["pid"])
        elif kind == "snapshot_boundary":
            outcome = str(event.get("outcome"))
            boundary_counts[outcome] = boundary_counts.get(outcome, 0) + 1
        elif kind == "worker_connect":
            cluster_hosts.add(event.get("host"))
    bits = {
        "runtime": [f"cache hits: {counts['cache_hit']}"],
        "cluster": [f"cluster hosts: {len(cluster_hosts)}"],
    }
    for name, spec in EVENTS.items():
        if spec.counter is not None and counts[name]:
            line, label = spec.counter
            bits[line].append(f"{label}: {counts[name]}")
    if boundary_counts:
        bits["runtime"].append(
            "snapshot boundaries: "
            + ", ".join(f"{k}={v}" for k, v in sorted(boundary_counts.items()))
        )

    lines: List[str] = []
    lines.append("run journal summary")
    lines.append(
        f"  batches: {counts['batch_finish']}   trials: {trials}   "
        f"chunks: {counts['chunk_done']}   "
        f"workers seen: {len(workers)}   wall: {_fmt_seconds(wall)}"
    )
    lines.append("  " + "   ".join(bits["runtime"]))
    if cluster_hosts or len(bits["cluster"]) > 1:
        lines.append("  " + "   ".join(bits["cluster"]))
    lines.append("")
    header = f"  {'phase':<12} {'total':>10} {'share':>7} {'spans':>7} {'mean':>10}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for name in PHASES:
        if name not in breakdown.totals:
            continue
        lines.append(
            f"  {name:<12} {_fmt_seconds(breakdown.totals[name]):>10} "
            f"{breakdown.share(name):>6.1f}% {breakdown.counts[name]:>7} "
            f"{_fmt_seconds(breakdown.mean(name)):>10}"
        )
    if not breakdown.totals:
        lines.append("  (no phase timings recorded)")
    return "\n".join(lines) + "\n"
