"""Parallel trial execution and content-addressed result caching.

The paper's figures are all "run N independent estimations of algorithm X
on overlay Y under churn Z" — embarrassingly parallel work.  This package
turns one such experiment into a batch of picklable
:class:`~repro.runtime.trials.TrialSpec` units, shards them across a
process pool (:class:`~repro.runtime.pool.TrialExecutor`) or a cluster of
remote worker hosts (:class:`~repro.runtime.cluster.ClusterExecutor`,
``docs/DISTRIBUTED.md``), and persists the
merged results in a content-addressed on-disk store
(:class:`~repro.runtime.store.ResultsStore`) so repeated runs are cache
hits.

Determinism contract: every trial derives its randomness from
``(hub_seed, trial index)`` via :class:`~repro.sim.rng.RngHub` child
streams, never from execution order or worker identity, so parallel results
are bit-identical to serial ones.  Churn-replay kinds additionally hand
scheduler-state snapshots between chunks
(:mod:`~repro.runtime.snapshots`, ``docs/SNAPSHOTS.md``) so chunked
replay is O(horizon) total — an execution detail that never changes
results or content addresses.

Entry points: :func:`~repro.runtime.api.run_trials` and
:func:`~repro.runtime.api.sweep`.
"""

from .api import (
    RuntimeOptions,
    batch_config,
    run_trials,
    series_from_results,
    supports_runtime,
    sweep,
)
from .cluster import (
    PROTOCOL_VERSION,
    ClusterExecutor,
    WorkerServer,
    parse_hosts,
)
from .faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    FrameFault,
    WorkerFaults,
    chaos_matrix,
)
from .obs import (
    JOURNAL_SCHEMA_VERSION,
    PHASES,
    JournalReporter,
    PhaseAccumulator,
)
from .pool import SnapshotBackbone, TrialExecutor, chunk_specs
from .progress import (
    LogProgress,
    NullProgress,
    ProgressReporter,
    TeeProgress,
    TelemetryCollector,
)
from .snapshots import (
    SNAPSHOT_KINDS,
    SNAPSHOT_SCHEMA_VERSION,
    ProbeReplayState,
    RepairReplayState,
    snapshot_config,
)
from .provenance import (
    PHASE_METRICS,
    detect_git_revision,
    metric_values,
    phase_metric_values,
    summarize_results,
)
from .store import (
    ArtifactInfo,
    GCReport,
    ResultsStore,
    SCHEMA_VERSION,
    StoreStats,
    canonical_json,
    content_key,
    group_key,
)
from .trends import (
    CheckReport,
    GroupTrend,
    MetricComparison,
    MetricTrend,
    TrendRecord,
    TrendReport,
    check_baseline,
    compare_revisions,
    discover_stores,
    load_baseline,
    make_baseline,
    scan_stores,
    trend_report,
)
from .trials import (
    DELAY_PRICINGS,
    EstimatorSpec,
    IdSpaceSpec,
    LatencySpec,
    OverlaySpec,
    RepairPolicySpec,
    TrialResult,
    TrialSpec,
    run_chunk,
    trace_from_payload,
    trace_to_payload,
)

__all__ = [
    "ArtifactInfo",
    "CheckReport",
    "ClusterExecutor",
    "DELAY_PRICINGS",
    "EstimatorSpec",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FrameFault",
    "GCReport",
    "GroupTrend",
    "IdSpaceSpec",
    "JOURNAL_SCHEMA_VERSION",
    "JournalReporter",
    "LatencySpec",
    "LogProgress",
    "MetricComparison",
    "MetricTrend",
    "StoreStats",
    "NullProgress",
    "OverlaySpec",
    "PHASES",
    "PHASE_METRICS",
    "PROTOCOL_VERSION",
    "PhaseAccumulator",
    "ProbeReplayState",
    "RepairPolicySpec",
    "RepairReplayState",
    "ProgressReporter",
    "ResultsStore",
    "RuntimeOptions",
    "SCHEMA_VERSION",
    "SNAPSHOT_KINDS",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotBackbone",
    "TeeProgress",
    "TelemetryCollector",
    "TrendRecord",
    "TrendReport",
    "TrialExecutor",
    "TrialResult",
    "TrialSpec",
    "WorkerFaults",
    "WorkerServer",
    "batch_config",
    "canonical_json",
    "chaos_matrix",
    "check_baseline",
    "chunk_specs",
    "compare_revisions",
    "content_key",
    "detect_git_revision",
    "discover_stores",
    "group_key",
    "load_baseline",
    "make_baseline",
    "metric_values",
    "parse_hosts",
    "phase_metric_values",
    "run_chunk",
    "run_trials",
    "scan_stores",
    "series_from_results",
    "snapshot_config",
    "summarize_results",
    "supports_runtime",
    "sweep",
    "trace_from_payload",
    "trace_to_payload",
    "trend_report",
]
