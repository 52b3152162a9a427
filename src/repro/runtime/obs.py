"""Structured observability for the trial runtime: phase profiling + journal.

Two halves, deliberately decoupled so the hot path stays unaffected by the
telemetry path (the progress/diagnostics split of the Mercury RPC runtime):

* **Worker side** — a :class:`PhaseAccumulator` installed by
  :func:`~repro.runtime.trials.run_chunk` around every chunk.  Chunk
  runners wrap their interesting sections in :func:`phase`, which
  aggregates ``perf_counter`` deltas per phase name, either chunk-wide or
  attributed to one ``(index, stream)`` trial.  The accumulated timings are
  attached to each :class:`~repro.runtime.trials.TrialResult` as its
  ``profile`` field and shipped back through the normal pickle channel —
  no sockets, no files, no global state crossing process boundaries.

* **Driver side** — a :class:`JournalReporter`, a
  :class:`~repro.runtime.progress.ProgressReporter` that serialises every
  event of the one ``on_event`` stream (batch → chunk → trial,
  snapshot-boundary resolutions, store hits, fallbacks, the cluster
  lifecycle of :mod:`~repro.runtime.cluster` and the service lifecycle)
  to one JSON object per line, named and shaped as
  :data:`~repro.runtime.progress.EVENTS` lists them.  The journal is append-only
  JSONL so a crashed run still leaves a readable prefix, and every line
  carries a wall-clock timestamp so events from different worker processes
  can be aligned on one timeline (worker ``perf_counter`` origins differ
  per process; only epoch time is comparable across them).

The journal file format is versioned (:data:`JOURNAL_SCHEMA_VERSION`) and
documented in ``docs/OBSERVABILITY.md``; :mod:`repro.analysis.obs_report`
consumes it for validation, ASCII summaries and Chrome trace-event export.

Phase taxonomy (:data:`PHASES`):

``boot``
    Scenario or overlay construction from scratch (cold chunk).
``restore``
    Scenario state rebuilt from a hand-off snapshot (pipelined chunk).
``churn``
    Advancing the churn schedule / scenario between estimation points.
``estimation``
    Running an estimator (the paper's actual measurement).
``kernel``
    Vectorized kernel work inside an estimation on the array backend
    (:mod:`repro.core.kernels`).  Recorded chunk-wide, *nested inside*
    the trial-attributed ``estimation`` span — kernel seconds are a
    subset of estimation seconds, not an additional cost.
``serialize``
    Capturing/encoding snapshot payloads for hand-off or the store.

Determinism: profiling only *observes* — it draws no randomness, mutates
no scenario state, and the ``profile`` field is excluded from result
equality and from stored artifacts, so results are bit-identical with or
without a journal attached.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterator, Optional, Tuple, Union

from .progress import ProgressReporter

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "PHASES",
    "JournalReporter",
    "PhaseAccumulator",
    "chunk_profiler",
    "phase",
]

#: Version stamped into every journal's header line.
JOURNAL_SCHEMA_VERSION = 1

#: The closed set of phase names chunk runners may record.
PHASES: Tuple[str, ...] = (
    "boot",
    "restore",
    "churn",
    "estimation",
    "kernel",
    "serialize",
)


class PhaseAccumulator:
    """Collects phase timings for one ``run_chunk`` invocation.

    Durations are ``perf_counter`` deltas (monotonic, high resolution);
    the chunk's start is additionally captured as epoch time so driver-side
    consumers can place worker spans on a shared wall-clock timeline.
    """

    def __init__(self) -> None:
        self.started = time.time()
        self._t0 = time.perf_counter()
        self.chunk_phases: Dict[str, float] = {}
        self.trials: Dict[Tuple[int, int], Dict[str, Any]] = {}

    @contextmanager
    def measure(self, name: str, key: Optional[Tuple[int, int]] = None) -> Iterator[None]:
        """Time the enclosed block under phase ``name``.

        With ``key=(index, stream)`` the duration is attributed to that
        trial; without, it accrues to the chunk as a whole (boot, restore
        and churn are typically shared across a chunk's trials).
        """
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}; expected one of {PHASES}")
        begin = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            delta = end - begin
            if key is None:
                self.chunk_phases[name] = self.chunk_phases.get(name, 0.0) + delta
            else:
                trial = self.trials.setdefault(
                    key, {"started": begin - self._t0, "phases": {}}
                )
                trial["phases"][name] = trial["phases"].get(name, 0.0) + delta
                trial["elapsed"] = end - self._t0 - trial["started"]

    def chunk_summary(self) -> Dict[str, Any]:
        """Chunk-level profile: pid, epoch start, elapsed, shared phases."""
        return {
            "pid": os.getpid(),
            "started": self.started,
            "elapsed": time.perf_counter() - self._t0,
            "phases": dict(self.chunk_phases),
        }


#: The accumulator installed by the currently-executing ``run_chunk``
#: (worker-process local; ``None`` outside a chunk).
_ACTIVE: Optional[PhaseAccumulator] = None


@contextmanager
def chunk_profiler() -> Iterator[PhaseAccumulator]:
    """Install a fresh :class:`PhaseAccumulator` for the enclosed chunk."""
    global _ACTIVE
    previous = _ACTIVE
    accumulator = PhaseAccumulator()
    _ACTIVE = accumulator
    try:
        yield accumulator
    finally:
        _ACTIVE = previous


@contextmanager
def phase(name: str, key: Optional[Tuple[int, int]] = None) -> Iterator[None]:
    """Record the enclosed block under phase ``name`` (no-op outside a chunk).

    Chunk runners call this without caring whether profiling is active;
    when no accumulator is installed the block runs untimed.
    """
    accumulator = _ACTIVE
    if accumulator is None:
        yield
    else:
        with accumulator.measure(name, key):
            yield


class JournalReporter(ProgressReporter):
    """Serialise every runtime event to an append-only JSONL run journal.

    Parameters
    ----------
    target:
        Path to the journal file (opened in append mode, so several runs
        may share one journal) or an already-open text stream.
    clock:
        Timestamp source; injectable for deterministic tests.

    Every line is one JSON object with at least ``ts`` (epoch seconds) and
    ``event``.  The first line written by each reporter is a ``journal``
    header carrying the schema version and the driver PID.  Events between
    a ``batch_meta``/``batch_start`` and the matching ``batch_finish`` (or
    ``cache_hit``) share a ``batch`` sequence number.
    """

    def __init__(
        self,
        target: Union[str, "os.PathLike[str]", IO[str]],
        *,
        clock=time.time,
    ) -> None:
        if hasattr(target, "write"):
            self._stream: IO[str] = target  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self._stream = open(os.fspath(target), "a", encoding="utf-8")
            self._owns_stream = True
        self._clock = clock
        self._batch = 0
        self._in_batch = False
        # Cluster batches journal from several threads at once (dispatch
        # threads, heartbeat monitors, in-process chaos workers); the lock
        # keeps each JSONL line atomic.
        self._write_lock = threading.Lock()
        self._emit("journal", schema=JOURNAL_SCHEMA_VERSION, pid=os.getpid())

    def _emit(self, event: str, **data: Any) -> None:
        with self._write_lock:
            record: Dict[str, Any] = {"ts": float(self._clock()), "event": event}
            if self._in_batch:
                record["batch"] = self._batch
            record.update(data)
            self._stream.write(json.dumps(record, sort_keys=False) + "\n")
            self._stream.flush()

    def close(self) -> None:
        """Close the underlying file if this reporter opened it."""
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "JournalReporter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def on_event(self, event: str, **fields: Any) -> None:
        """Journal one event; ``chunk_done`` adds one ``trial`` line per result.

        ``batch_meta`` opens a batch scope, as do ``batch_start`` and
        ``cache_hit`` outside one; ``batch_finish`` and ``cache_hit`` close
        it.  A ``chunk_done`` line folds in the worker-side chunk profile
        (pid, epoch start, elapsed, shared phases), and trial start offsets
        are rebased onto the worker's epoch start so all journal timestamps
        share one timeline.
        """
        if event == "batch_meta" or (
            event in ("batch_start", "cache_hit") and not self._in_batch
        ):
            self._batch += 1
            self._in_batch = True
        if event != "chunk_done":
            self._emit(event, **fields)
            if event in ("batch_finish", "cache_hit"):
                self._in_batch = False
            return
        results = fields.pop("results")
        profiles = [result.profile or {} for result in results]
        summary = next((p["chunk"] for p in profiles if "chunk" in p), {})
        chunk_started = summary.get("started")
        self._emit(
            event,
            **fields,
            pid=summary.get("pid"),
            started=chunk_started,
            elapsed=summary.get("elapsed"),
            phases=summary.get("phases") or {},
        )
        for result, profile in zip(results, profiles):
            started = profile.get("started")
            if started is not None and chunk_started is not None:
                started = chunk_started + started
            self._emit(
                "trial",
                chunk=fields["chunk"],
                index=result.index,
                stream=result.stream,
                ok=result.ok,
                pid=summary.get("pid"),
                started=started,
                elapsed=profile.get("elapsed"),
                phases=profile.get("phases") or {},
            )
