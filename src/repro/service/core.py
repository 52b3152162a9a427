"""The resident estimation service: live scenario, warm estimators, checkpoints.

The service is the churn-replay machinery of :mod:`repro.runtime.snapshots`
turned inside out.  A batch run replays a *fixed* trace and throws the
scenario away; the service keeps one scenario resident forever:

* membership events stream into a bounded ingest queue
  (:meth:`EstimationService.ingest`) and are folded into the live
  :class:`~repro.churn.scheduler.ChurnScheduler` at the next
  :meth:`~EstimationService.tick` — queue-based load leveling, with
  load shedding once the queue is full;
* one **warm estimator per configured family** refreshes on a round
  cadence: the probe families (``sample_collide``, ``hops_sampling``)
  re-estimate every ``probe_interval`` rounds from a persistent
  generator stream, the epidemic family (``aggregation``) advances its
  monitor every round and holds the last closed epoch's estimate;
* :meth:`~EstimationService.snapshot` captures the whole thing as pure
  data — JSON values plus numpy arrays for the overlay's packed CSR twin
  and the aggregation monitor's per-node values — and
  :meth:`~EstimationService.from_snapshot` rebuilds a service whose
  future ticks are **bit-identical** to the uninterrupted one's, so a
  crashed service restarts from its last checkpoint instead of replaying
  its event history;
* :meth:`~EstimationService.checkpoint` writes that capture as one
  binary file (:func:`~repro.runtime.store.write_archive`: a JSON header
  with an array manifest beside the raw arrays) and
  :meth:`~EstimationService.from_checkpoint` checks every byte of it
  before restoring anything.

Admission control for reads is a :class:`TokenBucket` (`--max-qps`);
operational counters are monotone per process and deliberately *not*
part of the snapshot (a restart starts its counters at zero — state is
what the future depends on, stats are what the past looked like).

Determinism: all randomness flows from named
:class:`~repro.sim.rng.RngHub` streams of the config seed (``overlay``,
``churn``, ``monitor``, ``svc:<family>``), so a service's estimate
sequence is a pure function of ``(seed, event stream, tick/probe
schedule)`` — the property the lifecycle tests and the kill/restore
acceptance gate assert.  See ``docs/SERVICE.md``.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Deque, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..churn.models import ChurnEvent, ChurnTrace
from ..churn.scheduler import ChurnScheduler
from ..core.aggregation import AggregationMonitor
from ..core.base import EstimatorError
from ..core.hops_sampling import HopsSamplingEstimator
from ..core.sample_collide import SampleCollideEstimator
from ..overlay.builders import heterogeneous_random
from ..runtime.progress import NullProgress, ProgressReporter
from ..runtime.store import _rejecting, read_archive, write_archive
from ..sim.rng import RngHub, generator_from_state, generator_state

__all__ = [
    "SERVICE_FAMILIES",
    "SERVICE_SCHEMA_VERSION",
    "EstimationService",
    "ServiceConfig",
    "TokenBucket",
]

#: Bump when the service snapshot layout changes; a mismatched checkpoint
#: is refused at restore rather than mis-restored.  Schema 2 carries the
#: overlay and the monitor's per-node values as arrays.
SERVICE_SCHEMA_VERSION = 2

#: Estimator families the service can keep warm.
SERVICE_FAMILIES: Tuple[str, ...] = (
    "sample_collide",
    "hops_sampling",
    "aggregation",
)


def _event_fields(event: Mapping[str, Any]) -> Dict[str, Any]:
    """The membership fields of one ingest event, checked before queueing.

    Keeps the :class:`ChurnEvent` fields minus ``time`` (other keys are
    ignored), requires integer ``joins``/``leaves`` and a finite
    ``frac_joins``, and builds the :class:`ChurnEvent` to check the rest,
    so a queued event can never fail at the tick that applies it.
    ``/ingest`` and restored pending events both pass through here.
    """
    fields = {
        k: event[k]
        for k in ("joins", "leaves", "frac_joins", "frac_leaves")
        if k in event
    }
    if not all(isinstance(fields.get(k, 0), int) for k in ("joins", "leaves")):
        raise ValueError(f"joins/leaves must be integers, got {fields}")
    if not math.isfinite(ChurnEvent(time=0.0, **fields).frac_joins):
        raise ValueError("frac_joins must be finite")
    return fields


class TokenBucket:
    """Token-bucket admission control for the estimate surface.

    ``rate`` tokens refill per second up to ``burst`` (default: one
    second's worth); each admitted request spends one token.  ``rate <= 0``
    disables throttling.  The clock is injectable so tests can drive the
    bucket deterministically.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.capacity = float(burst) if burst is not None else max(self.rate, 1.0)
        if self.rate > 0 and self.capacity <= 0:
            raise ValueError("burst must be positive when a rate is set")
        self._tokens = self.capacity
        self._clock = clock
        self._last = float(clock())

    def allow(self) -> bool:
        """Spend one token if available; ``True`` means admitted."""
        if self.rate <= 0:
            return True
        now = float(self._clock())
        self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class ServiceConfig:
    """Declarative configuration of an :class:`EstimationService`.

    Pure data (the spec-layer discipline of ``docs/ARCHITECTURE.md``):
    the config travels inside every checkpoint, so a restore never needs
    the original command line.
    """

    seed: int = 7
    initial_size: int = 2_000
    max_degree: int = 10
    min_degree: int = 1
    estimators: Tuple[str, ...] = ("sample_collide", "aggregation")
    #: Rounds between probe-family refreshes (aggregation steps every round).
    probe_interval: int = 5
    #: Sample&Collide collision target / timer budget (paper: l=200, T=10).
    sc_l: int = 50
    sc_timer: float = 10.0
    #: HopsSampling knobs (paper: gossipTo=2, minHopsReporting=5).
    hops_gossip_to: int = 2
    hops_min_hops: int = 5
    #: Aggregation epoch length (paper's dynamic setting: 40-50 rounds).
    agg_restart_interval: int = 40
    #: Ingest admission: queue bound (events beyond it are shed) ...
    queue_limit: int = 10_000
    #: ... and estimate admission: sustained requests/second (0 = unlimited).
    max_qps: float = 0.0
    #: Token-bucket burst (None = one second's worth of tokens).
    burst: Optional[float] = None
    #: Checkpoint cadence in rounds (0 = only explicit checkpoints).
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        families = tuple(self.estimators)
        unknown = [f for f in families if f not in SERVICE_FAMILIES]
        if unknown:
            raise ValueError(
                f"unknown estimator families {unknown}; available: "
                f"{list(SERVICE_FAMILIES)}"
            )
        if not families:
            raise ValueError("service needs at least one estimator family")
        if len(set(families)) != len(families):
            raise ValueError(f"duplicate estimator families in {families}")
        object.__setattr__(self, "estimators", families)
        if self.initial_size < 1:
            raise ValueError("initial_size must be >= 1")
        if self.probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.max_qps < 0:
            raise ValueError("max_qps must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    def as_config(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-able; checkpoint + journal payload)."""
        out = asdict(self)
        out["estimators"] = list(self.estimators)
        return out

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "ServiceConfig":
        """Rebuild from :meth:`as_config` output."""
        data = dict(config)
        data["estimators"] = tuple(data.get("estimators", ()))
        burst = data.get("burst")
        data["burst"] = None if burst is None else float(burst)
        return cls(**data)


# ----------------------------------------------------------------------
# Warm estimator families
# ----------------------------------------------------------------------


class _ProbeFamily:
    """A warm probe estimator (Sample&Collide / HopsSampling).

    Holds one estimator instance whose generator persists across probes,
    so the k-th probe after a restore is bit-identical to the k-th probe
    of an uninterrupted service.
    """

    def __init__(self, name: str, estimator: Any) -> None:
        self.name = name
        self.estimator = estimator

    @classmethod
    def build(cls, name: str, graph, config: ServiceConfig, rng) -> "_ProbeFamily":
        """Construct the family's warm estimator on the live overlay."""
        if name == "sample_collide":
            est = SampleCollideEstimator(
                graph, l=config.sc_l, timer=config.sc_timer, rng=rng
            )
        else:
            est = HopsSamplingEstimator(
                graph,
                gossip_to=config.hops_gossip_to,
                min_hops_reporting=config.hops_min_hops,
                rng=rng,
            )
        return cls(name, est)

    def probe(self) -> Tuple[Optional[float], int]:
        """One estimation on the current overlay: (value or None, messages)."""
        try:
            est = self.estimator.estimate()
        except EstimatorError:
            return None, 0
        return float(est.value), int(est.messages)

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data state: the persistent generator is the only state."""
        return {"rng": generator_state(self.estimator.rng)}

    @classmethod
    def restore(
        cls, name: str, graph, config: ServiceConfig, snap: Mapping[str, Any]
    ) -> "_ProbeFamily":
        """Rebuild with the captured generator; future probes are identical."""
        return cls.build(name, graph, config, generator_from_state(snap["rng"]))


class _AggregationFamily:
    """The warm epidemic family: an :class:`AggregationMonitor` stepped
    once per service round (epoch staircase semantics of Figs 15-17)."""

    name = "aggregation"

    def __init__(self, monitor: AggregationMonitor) -> None:
        self.monitor = monitor

    @classmethod
    def build(cls, graph, config: ServiceConfig, rng) -> "_AggregationFamily":
        """Construct the monitor on the live overlay."""
        return cls(
            AggregationMonitor(
                graph, restart_interval=config.agg_restart_interval, rng=rng
            )
        )

    def step(self, round_number: int) -> None:
        """Advance one gossip round (close/reopen epochs at boundaries)."""
        self.monitor.on_round(round_number)

    def latest(self) -> Tuple[Optional[float], Optional[int]]:
        """(held estimate, round it was closed at); (None, None) pre-epoch."""
        if not self.monitor.epoch_estimates:
            return None, None
        rnd, value = self.monitor.epoch_estimates[-1]
        return float(value), int(rnd)

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data state: the monitor's own snapshot payload, with the
        protocol's per-node ids and values as arrays in the value dict's
        order (an order-sensitive sum like ``total_mass`` stays bit-stable)."""
        snap = self.monitor.snapshot()
        protocol = snap["protocol"]
        protocol["nodes"] = np.array(protocol["nodes"], dtype=np.int64)
        protocol["values"] = np.array(protocol["values"], dtype=np.float64)
        return {"monitor": snap}

    @classmethod
    def restore(
        cls, graph, config: ServiceConfig, snap: Mapping[str, Any]
    ) -> "_AggregationFamily":
        """Rebuild the monitor mid-epoch on the restored overlay."""
        return cls(
            AggregationMonitor.restore(
                graph,
                snap["monitor"],
                restart_interval=config.agg_restart_interval,
            )
        )


@dataclass
class _ServiceStats:
    """Monotone per-process operational counters (not checkpointed)."""

    served: int = 0
    throttled: int = 0
    ingest_accepted: int = 0
    ingest_dropped: int = 0
    ticks: int = 0
    probes: int = 0
    probe_failures: int = 0
    checkpoints: int = 0
    started: float = field(default_factory=time.time)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view for the ``/stats`` endpoint."""
        out = asdict(self)
        out["uptime"] = max(0.0, time.time() - out.pop("started"))
        return out


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


class EstimationService:
    """A resident size-estimation scenario with warm per-family estimators.

    Thread-safe: every public method takes the internal lock, so the HTTP
    handler threads, the ticker and checkpointing can interleave freely.

    Parameters
    ----------
    config:
        Declarative :class:`ServiceConfig`.
    progress:
        Optional :class:`~repro.runtime.progress.ProgressReporter`; the
        service lifecycle (``service_start``, ``estimate_served``,
        ``ingest_dropped``, ``snapshot_checkpoint``) flows through it into
        run journals (``docs/OBSERVABILITY.md``).
    snapshot_path:
        Where periodic checkpoints land (``config.snapshot_every``); also
        the default target of :meth:`checkpoint`.
    clock:
        Monotonic clock for the token bucket (injectable for tests).
    """

    def __init__(
        self,
        config: ServiceConfig,
        progress: Optional[ProgressReporter] = None,
        snapshot_path: Optional[str] = None,
        clock=time.monotonic,
        _boot: bool = True,
    ) -> None:
        self.config = config
        self.progress = progress if progress is not None else NullProgress()
        self.snapshot_path = None if snapshot_path is None else os.fspath(snapshot_path)
        self._lock = threading.RLock()
        self._bucket = TokenBucket(config.max_qps, config.burst, clock=clock)
        self._queue: Deque[Dict[str, Any]] = deque()
        self.stats = _ServiceStats()
        self.round = 0
        #: family -> {"value": float|None, "round": int|None, "messages": int}
        self.estimates: Dict[str, Dict[str, Any]] = {
            name: {"value": None, "round": None, "messages": 0}
            for name in config.estimators
        }
        if _boot:
            hub = RngHub(config.seed)
            graph = heterogeneous_random(
                config.initial_size,
                max_degree=config.max_degree,
                min_degree=config.min_degree,
                rng=hub.stream("overlay"),
            )
            self.scheduler = ChurnScheduler(
                graph,
                ChurnTrace(),
                rng=hub.stream("churn"),
                max_degree=config.max_degree,
                min_degree=config.min_degree,
            )
            self._families: Dict[str, Any] = {}
            for name in config.estimators:
                if name == "aggregation":
                    self._families[name] = _AggregationFamily.build(
                        graph, config, hub.stream("monitor")
                    )
                else:
                    self._families[name] = _ProbeFamily.build(
                        name, graph, config, hub.stream(f"svc:{name}")
                    )
            self._probe()
            self._announce()

    # -- construction helpers ------------------------------------------

    def _announce(self) -> None:
        self.progress.on_event(
            "service_start",
            families=list(self.config.estimators),
            size=self.graph.size,
            seed=int(self.config.seed),
            round=int(self.round),
        )

    @property
    def graph(self):
        """The live (mutating) overlay."""
        return self.scheduler.graph

    # -- ingest / tick (write path) ------------------------------------

    def ingest(self, events: Sequence[Mapping[str, Any]]) -> Tuple[int, int]:
        """Queue membership events; returns ``(accepted, dropped)``.

        Each event is a mapping with any of ``joins`` / ``leaves`` /
        ``frac_joins`` / ``frac_leaves`` (the :class:`ChurnEvent` fields
        minus ``time`` — arrival order *is* the time; every queued event
        applies at the next tick's round).  Once ``queue_limit`` events
        are queued, further events are shed and counted
        (``ingest_dropped`` journal event) — bounded memory under any
        arrival rate, per the queue-based load-leveling pattern.
        """
        accepted = 0
        dropped = 0
        with self._lock:
            for event in events:
                fields = _event_fields(event)
                if len(self._queue) >= self.config.queue_limit:
                    dropped += 1
                else:
                    self._queue.append(fields)
                    accepted += 1
            self.stats.ingest_accepted += accepted
            self.stats.ingest_dropped += dropped
            if dropped:
                self.progress.on_event(
                    "ingest_dropped", dropped=dropped, queued=len(self._queue)
                )
        return accepted, dropped

    def tick(self, rounds: int = 1) -> int:
        """Advance the scenario ``rounds`` rounds; returns the new round.

        Each round: drain the ingest queue into the live scheduler at the
        new round's instant, apply the churn, step the aggregation monitor,
        refresh the probe families on their cadence, and checkpoint when
        the ``snapshot_every`` boundary is crossed.
        """
        with self._lock:
            for _ in range(int(rounds)):
                self.round += 1
                self.stats.ticks += 1
                if self._queue:
                    batch = [
                        dict(fields, time=float(self.round)) for fields in self._queue
                    ]
                    self._queue.clear()
                    self.scheduler.feed(batch)
                self.scheduler.advance_to(float(self.round))
                family = self._families.get("aggregation")
                if family is not None and self.graph.size > 0:
                    family.step(self.round)
                    value, rnd = family.latest()
                    if value is not None:
                        entry = self.estimates["aggregation"]
                        entry["value"] = value
                        entry["round"] = rnd
                if self.round % self.config.probe_interval == 0:
                    self._probe()
                if (
                    self.config.snapshot_every
                    and self.snapshot_path is not None
                    and self.round % self.config.snapshot_every == 0
                ):
                    self.checkpoint()
            return self.round

    def _probe(self) -> None:
        """Refresh every probe family's estimate at the current round."""
        for name, family in self._families.items():
            if not isinstance(family, _ProbeFamily):
                continue
            if self.graph.size == 0:
                continue
            value, messages = family.probe()
            self.stats.probes += 1
            if value is None:
                self.stats.probe_failures += 1
                continue
            entry = self.estimates[name]
            entry["value"] = value
            entry["round"] = int(self.round)
            entry["messages"] = messages

    # -- estimate / health / stats (read path) -------------------------

    def read_estimates(
        self, families: Optional[Sequence[str]] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Current per-family estimates with staleness, without admission.

        ``staleness`` is the round distance between *now* and the round
        the estimate was produced at (``None`` while no estimate exists
        yet) — the freshness model ``docs/SERVICE.md`` documents and the
        service benchmark reports.
        """
        with self._lock:
            names = list(self.config.estimators) if families is None else list(families)
            unknown = [n for n in names if n not in self.estimates]
            if unknown:
                raise KeyError(
                    f"unknown estimator families {unknown}; serving "
                    f"{list(self.config.estimators)}"
                )
            out: Dict[str, Dict[str, Any]] = {}
            for name in names:
                entry = dict(self.estimates[name])
                entry["staleness"] = (
                    None if entry["round"] is None else self.round - entry["round"]
                )
                out[name] = entry
            return out

    def serve_estimate(
        self, families: Optional[Sequence[str]] = None
    ) -> Tuple[bool, Dict[str, Any]]:
        """Admission-controlled estimate read: ``(admitted, payload)``.

        A rejected request costs only the token-bucket check; an admitted
        one is journaled as ``estimate_served`` with its worst staleness.
        """
        with self._lock:
            if not self._bucket.allow():
                self.stats.throttled += 1
                return False, {
                    "error": "throttled",
                    "max_qps": self.config.max_qps,
                }
            estimates = self.read_estimates(families)
            self.stats.served += 1
            staleness = [
                e["staleness"] for e in estimates.values() if e["staleness"] is not None
            ]
            self.progress.on_event(
                "estimate_served",
                families=sorted(estimates),
                round=int(self.round),
                staleness=max(staleness) if staleness else None,
            )
            return True, {"round": int(self.round), "estimates": estimates}

    def health(self) -> Dict[str, Any]:
        """Liveness payload: round, overlay size, families, queue depth."""
        with self._lock:
            return {
                "status": "ok",
                "round": int(self.round),
                "size": int(self.graph.size),
                "families": list(self.config.estimators),
                "queued": len(self._queue),
            }

    def stats_dict(self) -> Dict[str, Any]:
        """Operational counters for the ``/stats`` endpoint."""
        with self._lock:
            out = self.stats.as_dict()
            out["round"] = int(self.round)
            out["size"] = int(self.graph.size)
            out["queued"] = len(self._queue)
            out["max_qps"] = self.config.max_qps
            out["queue_limit"] = self.config.queue_limit
            return out

    # -- snapshot / checkpoint / restore (docs/SERVICE.md) -------------

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data capture of everything future behaviour depends on.

        Scheduler (overlay as its packed CSR twin + churn generator +
        trace cursor, rebased to a fresh empty trace — consumed history is
        *not* replayed on restore), warm-estimator states, the latest
        served estimates and the queued-but-undrained ingest events.
        Deliberately excluded: operational stats (monotone per process)
        and the token bucket (admission is a property of *this* process's
        wall clock).  JSON values plus numpy arrays, the payload shape
        :func:`~repro.runtime.store.write_archive` stores.
        """
        with self._lock:
            scheduler = self.scheduler.pack()
            # The live trace is fully consumed between ticks and its events
            # are never re-applied, so the restored scheduler starts from a
            # fresh, empty trace: rebase the cursor accordingly.
            scheduler["cursor"] = 0
            return {
                "schema": SERVICE_SCHEMA_VERSION,
                "config": self.config.as_config(),
                "round": int(self.round),
                "scheduler": scheduler,
                "families": {
                    name: family.snapshot()
                    for name, family in self._families.items()
                },
                "estimates": {
                    name: dict(entry) for name, entry in self.estimates.items()
                },
                "pending": [dict(fields) for fields in self._queue],
            }

    @classmethod
    def from_snapshot(
        cls,
        payload: Mapping[str, Any],
        progress: Optional[ProgressReporter] = None,
        snapshot_path: Optional[str] = None,
        clock=time.monotonic,
    ) -> "EstimationService":
        """Rebuild a service mid-stream from a :meth:`snapshot` payload.

        Future ticks, probes and checkpoints are bit-identical to the
        captured service's (given the same post-restore event stream) —
        the restart-resumes-not-replays contract the acceptance tests
        assert.  The overlay must be a packed twin, which passes
        :meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.unpack`'s
        checks, and every pending event must pass the ``/ingest`` check.
        """
        schema = payload.get("schema")
        if schema != SERVICE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported service snapshot schema {schema!r} "
                f"(expected {SERVICE_SCHEMA_VERSION})"
            )
        if "indptr" not in payload["scheduler"]["graph"]:
            raise ValueError("the snapshot's overlay is not a packed CSR twin")
        config = ServiceConfig.from_config(payload["config"])
        service = cls(
            config,
            progress=progress,
            snapshot_path=snapshot_path,
            clock=clock,
            _boot=False,
        )
        service.round = int(payload["round"])
        service.scheduler = ChurnScheduler.restore(
            payload["scheduler"],
            ChurnTrace(),
            max_degree=config.max_degree,
            min_degree=config.min_degree,
        )
        graph = service.scheduler.graph
        service._families = {}
        for name in config.estimators:
            snap = payload["families"][name]
            if name == "aggregation":
                service._families[name] = _AggregationFamily.restore(
                    graph, config, snap
                )
            else:
                service._families[name] = _ProbeFamily.restore(
                    name, graph, config, snap
                )
        for name, entry in payload.get("estimates", {}).items():
            if name in service.estimates:
                value, rnd = entry["value"], entry["round"]
                service.estimates[name] = {
                    "value": None if value is None else float(value),
                    "round": None if rnd is None else int(rnd),
                    "messages": int(entry["messages"]),
                }
        service._queue.extend(_event_fields(f) for f in payload.get("pending", ()))
        service._announce()
        return service

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        progress: Optional[ProgressReporter] = None,
        clock=time.monotonic,
    ) -> "EstimationService":
        """Load a :meth:`checkpoint` file and resume from it.

        Any failure while reading or restoring raises
        :class:`~repro.runtime.store.SnapshotRejected` and restores
        nothing: a torn or tampered file (see
        :func:`~repro.runtime.store.read_archive`), another schema, or
        state that :meth:`from_snapshot` refuses.
        """
        path = os.fspath(path)
        with _rejecting():
            return cls.from_snapshot(
                read_archive(path), progress=progress, snapshot_path=path, clock=clock
            )

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Write the current :meth:`snapshot` as one binary file, atomically.

        The file (:func:`~repro.runtime.store.write_archive`) lands in a
        sibling temp file first, is flushed to disk and is renamed into
        place, so a crash mid-write never corrupts the last good
        checkpoint.  Journaled as ``snapshot_checkpoint`` with the file's
        size.
        """
        with self._lock:
            target = os.fspath(path) if path is not None else self.snapshot_path
            if target is None:
                raise ValueError("no checkpoint path configured (snapshot_path)")
            began = time.perf_counter()
            tmp = f"{target}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                write_archive(fh, self.snapshot())
                fh.flush()
                os.fsync(fh.fileno())
                size = fh.tell()
            os.replace(tmp, target)
            self.stats.checkpoints += 1
            self.progress.on_event(
                "snapshot_checkpoint",
                round=int(self.round),
                path=target,
                bytes=size,
                seconds=time.perf_counter() - began,
            )
            return target
