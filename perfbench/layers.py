"""Per-layer metrics of one traced repetition.

Inputs are the spans :mod:`tracing` recorded around public entry points,
the run journal, the ``TrialResult.profile`` phases the workers ship back,
and the service's ``/stats``.  Every metric of :data:`NAMES` is produced
for every workload; a layer a workload does not use reports 0.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Any, Dict, List, Mapping, Sequence

from loadgen import percentile
from tracing import Span, by_name, outermost, self_times, total

#: End-to-end metrics that do not repeat within a tenth from run to run
#: on a shared 2-core machine (see README.md), reported here ungated.
#: They come from the untraced repetition of a traced run; 0 where a
#: workload has no such operation.
UNGATED = (
    "trials_per_s",
    "quality_err_pct",
    "read_p50_ms",
    "read_p99_ms",
    "read_max_rps",
    "write_p99_ms",
    "failed_frac",
)

#: Per-layer metric names, in report order.
NAMES = UNGATED + (
    "overlay.build_s",
    "overlay.nodes_built",
    "overlay.to_array_s",
    "overlay.snapshot_s",
    "overlay.restore_s",
    "churn.advance_s",
    "churn.events_applied",
    "core.estimates",
    "core.estimation_s",
    "core.estimate_ms_p50",
    "core.kernel_s",
    "core.messages_per_estimate",
    "core.estimator_errors",
    "experiments.fold_s",
    "runtime.api.hash_s",
    "runtime.pool.chunks",
    "runtime.pool.wait_s",
    "runtime.pool.busy_frac",
    "runtime.pool.fallbacks",
    "runtime.cluster.first_dispatch_s",
    "runtime.cluster.send_s",
    "runtime.cluster.frames_sent",
    "runtime.cluster.bytes_sent",
    "runtime.cluster.recv_wait_s",
    "runtime.cluster.bytes_received",
    "runtime.cluster.busy_frac",
    "runtime.cluster.steals",
    "runtime.cluster.migrations",
    "runtime.cluster.workers_lost",
    "runtime.cluster.heartbeat_misses",
    "runtime.snapshots.boundaries",
    "runtime.snapshots.backbone_s",
    "runtime.snapshots.payload_bytes",
    "runtime.snapshots.restore_s",
    "runtime.snapshots.store_hit_ratio",
    "runtime.trials.chunk_elapsed_s",
    "runtime.trials.not_ok",
    "runtime.store.save_s",
    "runtime.store.bytes_written",
    "runtime.obs.events",
    "runtime.obs.journal_bytes",
    "runtime.obs.emit_s",
    "runtime.obs.journal_bytes_per_read",
    "service.core.serve_ms_p50",
    "service.core.serve_ms_p99",
    "service.core.reads_behind_tick_frac",
    "service.core.tick_ms_p50",
    "service.core.tick_ms_p99",
    "service.core.ingest_ms_p99",
    "service.core.checkpoint_ms_p50",
    "service.core.checkpoint_bytes",
    "service.core.probes",
    "service.core.probe_failures",
    "service.core.ingest_dropped",
    "service.server.connections",
    "service.server.transport_ms_p50",
    "service.server.binary_rtt_ms_p50",
    "loadgen.late_ms_p99",
    "loadgen.sent",
)

_BUILD = (":OverlaySpec.build", ":heterogeneous_random")
_ADVANCE = (":ProbeReplayState.advance", ":ChurnScheduler.advance_to")
_ESTIMATE = (
    ":SampleCollideEstimator.estimate",
    ":HopsSamplingEstimator.estimate",
    ":AggregationMonitor.on_round",
)


def _median_ms(spans: Sequence[Span]) -> float:
    return statistics.median(s.duration for s in spans) * 1000.0 if spans else 0.0


def _pct_ms(spans: Sequence[Span], q: float) -> float:
    return percentile([s.duration for s in spans], q) * 1000.0 if spans else 0.0


def _count(journal: Sequence[Mapping[str, Any]], *kinds: str) -> int:
    return sum(1 for e in journal if e.get("event") in kinds)


def _chunks(results: Sequence[Any]) -> List[Mapping[str, Any]]:
    return [
        r.profile["chunk"]
        for r in results
        if getattr(r, "profile", None) and "chunk" in r.profile
    ]


def _overlap_frac(reads: Sequence[Span], ticks: Sequence[Span]) -> float:
    """Share of ``reads`` whose interval intersects some tick's interval."""
    if not reads:
        return 0.0
    ticks = sorted(ticks, key=lambda s: s.start)
    starts = [t.start for t in ticks]
    behind = 0
    for read in reads:
        pos = bisect.bisect_right(starts, read.end)
        # Only ticks starting before the read ends can overlap; the latest
        # few suffice because ticks never overlap each other (one lock).
        for tick in ticks[max(0, pos - 3) : pos]:
            if tick.end >= read.start:
                behind += 1
                break
    return behind / len(reads)


def batch_layers(
    spans: Sequence[Span],
    root: Span,
    results: Sequence[Any],
    journal: Sequence[Mapping[str, Any]],
    driver_pid: int,
    workers: int,
    store_bytes: int,
    journal_bytes: int,
) -> Dict[str, float]:
    """Layer metrics of one cold batch; ``spans`` are the driver's."""
    window = [s for s in spans if root.start <= s.start <= root.end]
    chunks = _chunks(results)
    remote = [c for c in chunks if c.get("pid") != driver_pid]
    trial_est = [
        float((r.profile or {}).get("phases", {}).get("estimation", 0.0))
        for r in results
        if getattr(r, "profile", None)
    ]
    builds = outermost(by_name(window, *_BUILD))
    pool_runs = by_name(window, "runtime.pool:TrialExecutor.run")
    cluster_runs = by_name(window, "runtime.cluster:ClusterExecutor.run")
    sends = by_name(window, "runtime.cluster:send_message")
    recvs = by_name(window, "runtime.cluster:recv_message")
    boundaries = [e for e in journal if e.get("event") == "snapshot_boundary"]
    hits = sum(1 for e in boundaries if e.get("outcome") == "hit")
    computed = sum(1 for e in boundaries if e.get("outcome") == "computed")
    selfs = self_times(window)
    m: Dict[str, float] = {name: 0.0 for name in NAMES}

    def phase_sum(name: str, among: Sequence[Mapping[str, Any]]) -> float:
        return sum(float((c.get("phases") or {}).get(name, 0.0)) for c in among)

    m["overlay.build_s"] = total(builds) + phase_sum("boot", remote)
    m["overlay.nodes_built"] = sum(s.attrs.get("nodes", 0) for s in builds)
    m["overlay.to_array_s"] = total(outermost(by_name(window, ":OverlayGraph.to_array")))
    m["overlay.snapshot_s"] = total(outermost(by_name(window, ":OverlayGraph.snapshot")))
    m["overlay.restore_s"] = total(outermost(by_name(window, ":OverlayGraph.restore")))
    m["churn.advance_s"] = total(outermost(by_name(window, *_ADVANCE))) + phase_sum("churn", remote)
    m["churn.events_applied"] = sum(
        s.attrs.get("events", 0) for s in by_name(window, ":ChurnScheduler.advance_to")
    )
    m["core.estimates"] = sum(1 for r in results if math.isfinite(r.value))
    m["core.estimation_s"] = sum(trial_est)
    m["core.estimate_ms_p50"] = statistics.median(trial_est) * 1000.0 if trial_est else 0.0
    m["core.kernel_s"] = phase_sum("kernel", chunks)
    messages = [
        float(r.extra["messages"])
        for r in results
        if r.extra and isinstance(r.extra.get("messages"), (int, float))
    ]
    m["core.messages_per_estimate"] = statistics.mean(messages) if messages else 0.0
    m["core.estimator_errors"] = sum(1 for r in results if not math.isfinite(r.value))
    m["experiments.fold_s"] = total(s for s in window if s.layer == "experiments") - total(
        outermost(by_name(window, "runtime.api:run_trials"))
    )
    m["runtime.api.hash_s"] = total(outermost(by_name(window, ":batch_config", ":content_key")))

    if pool_runs and remote:
        wall = total(pool_runs)
        m["runtime.pool.chunks"] = len(remote)
        m["runtime.pool.wait_s"] = sum(selfs[s.sid] for s in pool_runs)
        m["runtime.pool.busy_frac"] = sum(float(c["elapsed"]) for c in remote) / (
            max(1, workers) * wall
        )
    m["runtime.pool.fallbacks"] = _count(journal, "fallback", "partial_fallback")

    if cluster_runs:
        run = cluster_runs[0]
        wall = total(cluster_runs)
        chunk_sends = [s for s in sends if s.attrs.get("type") == "chunk"]
        if chunk_sends:
            m["runtime.cluster.first_dispatch_s"] = min(s.start for s in chunk_sends) - run.start
        m["runtime.cluster.send_s"] = total(sends)
        m["runtime.cluster.frames_sent"] = len(sends)
        m["runtime.cluster.bytes_sent"] = sum(s.attrs.get("bytes", 0) for s in sends)
        m["runtime.cluster.recv_wait_s"] = total(recvs)
        m["runtime.cluster.bytes_received"] = sum(s.attrs.get("bytes", 0) for s in recvs)
        m["runtime.cluster.busy_frac"] = sum(float(c["elapsed"]) for c in remote) / (
            max(1, workers) * wall
        )
    m["runtime.cluster.steals"] = _count(journal, "steal")
    m["runtime.cluster.migrations"] = _count(journal, "chunk_migrated")
    m["runtime.cluster.workers_lost"] = _count(journal, "worker_lost")
    m["runtime.cluster.heartbeat_misses"] = _count(journal, "heartbeat_miss")

    payloads = by_name(window, ":SnapshotBackbone.payload_at")
    m["runtime.snapshots.boundaries"] = hits + computed
    m["runtime.snapshots.backbone_s"] = total(payloads)
    m["runtime.snapshots.payload_bytes"] = sum(s.attrs.get("bytes", 0) for s in payloads)
    m["runtime.snapshots.restore_s"] = phase_sum("restore", chunks)
    m["runtime.snapshots.store_hit_ratio"] = hits / (hits + computed) if hits + computed else 0.0
    m["runtime.trials.chunk_elapsed_s"] = sum(float(c.get("elapsed") or 0.0) for c in chunks)
    m["runtime.trials.not_ok"] = sum(1 for r in results if not r.ok)
    m["runtime.store.save_s"] = total(by_name(window, ":ResultsStore.save"))
    m["runtime.store.bytes_written"] = store_bytes
    m["runtime.obs.events"] = len(journal)
    m["runtime.obs.journal_bytes"] = journal_bytes
    m["runtime.obs.emit_s"] = total(outermost([s for s in window if s.layer == "runtime.obs"]))
    return m


def service_layers(
    client_spans: Sequence[Span],
    server_spans: Sequence[Span],
    journal: Sequence[Mapping[str, Any]],
    stats: Mapping[str, Any],
    load: Mapping[str, Any],
    checkpoint_bytes: int,
    journal_bytes: int,
) -> Dict[str, float]:
    """Layer metrics of one service load; ``load`` is the generator's summary."""
    m: Dict[str, float] = {name: 0.0 for name in NAMES}
    builds = outermost(by_name(server_spans, *_BUILD))
    m["overlay.build_s"] = total(builds)
    m["overlay.nodes_built"] = sum(s.attrs.get("nodes", 0) for s in builds)
    m["overlay.to_array_s"] = total(outermost(by_name(server_spans, ":OverlayGraph.to_array")))
    m["overlay.snapshot_s"] = total(outermost(by_name(server_spans, ":OverlayGraph.snapshot")))
    m["overlay.restore_s"] = total(outermost(by_name(server_spans, ":OverlayGraph.restore")))
    advances = by_name(server_spans, ":ChurnScheduler.advance_to")
    m["churn.advance_s"] = total(outermost(advances))
    m["churn.events_applied"] = sum(s.attrs.get("events", 0) for s in advances)
    estimates = outermost(by_name(server_spans, *_ESTIMATE))
    probes = by_name(
        server_spans, ":SampleCollideEstimator.estimate", ":HopsSamplingEstimator.estimate"
    )
    m["core.estimates"] = float(stats.get("probes", 0)) - float(stats.get("probe_failures", 0))
    m["core.estimation_s"] = total(estimates)
    m["core.estimate_ms_p50"] = _median_ms(probes)
    messages = load.get("messages") or []
    m["core.messages_per_estimate"] = statistics.mean(messages) if messages else 0.0
    m["core.estimator_errors"] = float(stats.get("probe_failures", 0))

    m["runtime.obs.events"] = len(journal)
    m["runtime.obs.journal_bytes"] = journal_bytes
    m["runtime.obs.emit_s"] = total(
        outermost([s for s in server_spans if s.layer == "runtime.obs"])
    )
    served = float(stats.get("served", 0))
    m["runtime.obs.journal_bytes_per_read"] = journal_bytes / served if served else 0.0

    serves = by_name(server_spans, ":EstimationService.serve_estimate")
    ticks = by_name(server_spans, ":EstimationService.tick")
    m["service.core.serve_ms_p50"] = _median_ms(serves)
    m["service.core.serve_ms_p99"] = _pct_ms(serves, 99)
    m["service.core.reads_behind_tick_frac"] = _overlap_frac(serves, ticks)
    m["service.core.tick_ms_p50"] = _median_ms(ticks)
    m["service.core.tick_ms_p99"] = _pct_ms(ticks, 99)
    m["service.core.ingest_ms_p99"] = _pct_ms(
        by_name(server_spans, ":EstimationService.ingest"), 99
    )
    m["service.core.checkpoint_ms_p50"] = _median_ms(
        by_name(server_spans, ":EstimationService.checkpoint")
    )
    m["service.core.checkpoint_bytes"] = checkpoint_bytes
    m["service.core.probes"] = float(stats.get("probes", 0))
    m["service.core.probe_failures"] = float(stats.get("probe_failures", 0))
    m["service.core.ingest_dropped"] = float(stats.get("ingest_dropped", 0))

    reads = by_name(client_spans, "service.server:ServiceClient.estimate")
    m["service.server.connections"] = len(by_name(client_spans, ":HTTPConnection.connect"))
    if reads and serves:
        m["service.server.transport_ms_p50"] = _median_ms(reads) - _median_ms(serves)
    rtts = load.get("binary_rtts") or []
    m["service.server.binary_rtt_ms_p50"] = statistics.median(rtts) * 1000.0 if rtts else 0.0
    m["loadgen.late_ms_p99"] = float(load.get("late_ms_p99", 0.0))
    m["loadgen.sent"] = float(load.get("sent", 0))
    return m
