"""Span recording around the program's public entry points.

The benchmark never edits the program: a traced repetition replaces a
fixed list of public functions and methods (:data:`TARGETS`) with thin
wrappers that record one span per call — name, start, end, parent span,
thread — into an in-memory :class:`Tracer`.  Spans are written out once,
when the repetition ends.

Span names are ``<layer>:<call>``; the layer is the module the call is
charged to (``overlay``, ``churn``, ``core``, ``runtime.pool``, ...).  A
layer's *self time* is its spans' durations minus the part covered by
their child spans, so the self times on one thread add up to that
thread's wall clock.

Only the process that installed the wrappers records: a forked pool
worker inherits them but calls straight through (its time comes back in
the ``TrialResult.profile`` phases the program already ships).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(layer, module, qualified attribute)`` of every wrapped entry point.
#: Module-level functions are also replaced in every ``repro`` module that
#: imported them by name, so call sites see the wrapper either way.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("runtime.api", "repro.runtime.api", "run_trials"),
    ("runtime.api", "repro.runtime.api", "batch_config"),
    ("runtime.api", "repro.runtime.store", "content_key"),
    ("runtime.pool", "repro.runtime.pool", "TrialExecutor.run"),
    ("runtime.cluster", "repro.runtime.cluster", "ClusterExecutor.run"),
    ("runtime.cluster", "repro.runtime.cluster", "send_message"),
    ("runtime.cluster", "repro.runtime.cluster", "recv_message"),
    ("runtime.snapshots", "repro.runtime.pool", "SnapshotBackbone.payload_at"),
    ("runtime.store", "repro.runtime.store", "ResultsStore.save"),
    ("overlay", "repro.runtime.trials", "OverlaySpec.build"),
    ("overlay", "repro.overlay.builders", "heterogeneous_random"),
    ("overlay", "repro.overlay.graph", "OverlayGraph.to_array"),
    ("overlay", "repro.overlay.graph", "OverlayGraph.snapshot"),
    ("overlay", "repro.overlay.graph", "OverlayGraph.restore"),
    ("churn", "repro.runtime.snapshots", "ProbeReplayState.advance"),
    ("churn", "repro.churn.scheduler", "ChurnScheduler.advance_to"),
    ("core", "repro.core.sample_collide", "SampleCollideEstimator.estimate"),
    ("core", "repro.core.hops_sampling", "HopsSamplingEstimator.estimate"),
    ("core", "repro.core.aggregation", "AggregationMonitor.on_round"),
    ("service.core", "repro.service.core", "EstimationService.serve_estimate"),
    ("service.core", "repro.service.core", "EstimationService.tick"),
    ("service.core", "repro.service.core", "EstimationService.ingest"),
    ("service.core", "repro.service.core", "EstimationService.checkpoint"),
    ("service.server", "repro.service.server", "ServiceClient.estimate"),
    ("service.server", "repro.service.server", "ServiceClient.ingest"),
    ("service.server", "repro.service.server", "ServiceClient.tick"),
    ("service.server", "repro.service.server", "ServiceClient.stats"),
    ("service.server", "repro.service.server", "ServiceClient.health"),
    ("service.server", "http.client", "HTTPConnection.connect"),
)

#: Every ``on_*`` hook of the run-journal reporter is wrapped as well.
JOURNAL_CLASS = ("runtime.obs", "repro.runtime.obs", "JournalReporter")


def standard_observers() -> Dict[str, Callable]:
    """Attributes recorded after a call returns (outside its span's timing).

    Overlay builds record their node count, churn advances the membership
    changes applied, and cluster frames and snapshot payloads their
    pickled size (computed again here: the wire format is pickle).
    """

    def nodes(span, args, kwargs, result):
        span.attrs["nodes"] = int(result.size)

    def events(span, args, kwargs, result):
        span.attrs["events"] = int(sum(result))

    def sent(span, args, kwargs, result):
        message = dict(args[1])
        span.attrs["type"] = message.get("type")
        span.attrs["bytes"] = len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))

    def received(span, args, kwargs, result):
        span.attrs["type"] = result.get("type")
        span.attrs["bytes"] = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))

    def payload(span, args, kwargs, result):
        span.attrs["bytes"] = (
            0
            if result is None
            else len(pickle.dumps(dict(result), protocol=pickle.HIGHEST_PROTOCOL))
        )

    return {
        "overlay:OverlaySpec.build": nodes,
        "overlay:heterogeneous_random": nodes,
        "churn:ChurnScheduler.advance_to": events,
        "runtime.cluster:send_message": sent,
        "runtime.cluster:recv_message": received,
        "runtime.snapshots:SnapshotBackbone.payload_at": payload,
    }


class Span:
    """One recorded call: ``[start, end]`` on the ``perf_counter`` clock."""

    __slots__ = ("sid", "parent", "name", "start", "end", "tid", "attrs")

    def __init__(self, sid: int, parent: int, name: str, start: float, tid: int) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.tid = tid
        self.attrs: Dict[str, Any] = {}

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(data["sid"], data["parent"], data["name"], data["start"], data["tid"])
        span.end = data["end"]
        span.attrs = dict(data.get("attrs") or {})
        return span


class Tracer:
    """In-memory span store for one process; thread-safe appends."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: ``time.time() - time.perf_counter()`` at creation: converts span
        #: times to epoch seconds, the journal's timeline.
        self.epoch_offset = time.time() - time.perf_counter()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1] if stack else 0,
            name,
            time.perf_counter(),
            threading.get_ident(),
        )
        stack.append(span.sid)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.sid:
            stack.pop()
        self.spans.append(span)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Tuple[Span, Any]:
        """Run ``fn`` inside a span; returns ``(span, result)``."""
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        return span, result

    # -- installation --------------------------------------------------

    def _wrapper(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # Classes keep the raw descriptor (a classmethod stays a classmethod).
        previous = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, previous))
        setattr(owner, attr, value)

    def install(self, observers: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every :data:`TARGETS` entry (and the journal hooks).

        ``observers`` maps a span name to ``observe(span, args, kwargs,
        result)``, called after the span closes, to attach attributes
        (sizes, counts) without timing them.
        """
        observers = observers or {}
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{layer}:{qualname}"
            observe = observers.get(name)
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                self._wrap_method(getattr(module, cls_name), attr, name, observe)
            else:
                original = getattr(module, qualname)
                wrapped = self._wrapper(name, original, observe)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "") or ""
                    if mod_name.startswith("repro") and getattr(mod, qualname, None) is original:
                        self._set(mod, qualname, wrapped)
        layer, module_name, cls_name = JOURNAL_CLASS
        cls = getattr(importlib.import_module(module_name), cls_name)
        for attr in sorted(vars(cls)):
            if attr.startswith("on_"):
                self._wrap_method(cls, attr, f"{layer}:{cls_name}.{attr}", None)

    def _wrap_method(self, cls: type, attr: str, name: str, observe: Optional[Callable]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrapper(name, raw.__func__, observe)))
        else:
            self._set(cls, attr, self._wrapper(name, raw, observe))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, so later calls run untraced."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "epoch_offset": self.epoch_offset,
            "spans": [s.as_dict() for s in self.spans],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def load_spans(path: str) -> Tuple[Dict[str, Any], List[Span]]:
    """Read a :meth:`Tracer.write` file back: ``(header, spans)``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data, [Span.from_dict(s) for s in data["spans"]]


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------


def by_name(spans: Iterable[Span], *suffixes: str) -> List[Span]:
    """Spans whose name ends with any of ``suffixes`` (``":call"`` forms)."""
    return [s for s in spans if any(s.name.endswith(suffix) for suffix in suffixes)]


def outermost(spans: Sequence[Span]) -> List[Span]:
    """Drop spans nested (by parent chain) inside another span of the set."""
    ids = {s.sid for s in spans}
    parents = {s.sid: s.parent for s in spans}
    out = []
    for span in spans:
        parent = span.parent
        nested = False
        seen = 0
        while parent and seen < 64:
            if parent in ids:
                nested = True
                break
            parent = parents.get(parent, 0)
            seen += 1
        if not nested:
            out.append(span)
    return out


def total(spans: Iterable[Span]) -> float:
    return sum(s.duration for s in spans)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per-span self time: duration minus the time its children cover."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {s.sid: max(0.0, s.duration - child_time.get(s.sid, 0.0)) for s in spans}


def attribute(spans: Sequence[Span], root: Span) -> Dict[str, float]:
    """Split ``root``'s wall clock over layers, from ``root``'s thread only.

    Returns seconds per layer plus ``"unattributed"`` (the root's own self
    time).  Spans on other threads overlap this wall clock and are
    reported separately by :func:`layer_busy`.
    """
    lane = [s for s in spans if s.tid == root.tid and root.start <= s.start <= root.end]
    selfs = self_times(lane)
    out: Dict[str, float] = {}
    for span in lane:
        key = "unattributed" if span.sid == root.sid else span.layer
        out[key] = out.get(key, 0.0) + selfs[span.sid]
    return out


def layer_busy(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per layer over every thread (may exceed wall clock)."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        if span.layer == "bench":
            continue
        out[span.layer] = out.get(span.layer, 0.0) + selfs[span.sid]
    return out


def chrome_trace(
    processes: Sequence[Tuple[str, Dict[str, Any], Sequence[Span]]],
    journal_trace: Optional[Dict[str, Any]] = None,
    journal_origin: Optional[float] = None,
) -> Dict[str, Any]:
    """Chrome trace-event document (the ``obs trace`` format) of the spans.

    ``processes`` holds ``(label, header, spans)`` per traced process.  The
    journal's own trace (from ``obs trace``'s converter) is merged on the
    same epoch timeline when given with its origin.
    """
    epochs = [
        header["epoch_offset"] + span.start
        for _, header, spans in processes
        for span in spans
    ]
    origin = min(epochs + ([journal_origin] if journal_origin is not None else []), default=0.0)
    events: List[Dict[str, Any]] = []
    for label, header, spans in processes:
        pid = int(header["pid"])
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": label}}
        )
        for span in spans:
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.layer,
                    "pid": pid,
                    "tid": span.tid % 1_000_000,
                    "ts": int(round((header["epoch_offset"] + span.start - origin) * 1e6)),
                    "dur": max(0, int(round(span.duration * 1e6))),
                    "args": span.attrs,
                }
            )
    if journal_trace is not None and journal_origin is not None:
        shift = int(round((journal_origin - origin) * 1e6))
        for event in journal_trace.get("traceEvents", []):
            event = dict(event)
            if "ts" in event:
                event["ts"] = int(event["ts"]) + shift
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
