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
:func:`~repro.runtime.api.sweep`.  The names below import their submodule
on first use (:mod:`repro._lazy`), so a process that needs one piece —
the service its store and journal, a client the framing — loads that
piece alone.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(
    __name__,
    {
        "api": (
            "RuntimeOptions",
            "batch_config",
            "run_trials",
            "series_from_results",
            "supports_runtime",
            "sweep",
        ),
        "cluster": ("PROTOCOL_VERSION", "ClusterExecutor", "WorkerServer", "parse_hosts"),
        "faults": (
            "FAULT_KINDS",
            "Fault",
            "FaultPlan",
            "FrameFault",
            "WorkerFaults",
            "chaos_matrix",
        ),
        "obs": ("JOURNAL_SCHEMA_VERSION", "PHASES", "JournalReporter", "PhaseAccumulator"),
        "pool": ("SnapshotBackbone", "TrialExecutor", "chunk_specs"),
        "progress": (
            "LogProgress",
            "NullProgress",
            "ProgressReporter",
            "TeeProgress",
            "TelemetryCollector",
        ),
        "snapshots": (
            "SNAPSHOT_KINDS",
            "SNAPSHOT_SCHEMA_VERSION",
            "ProbeReplayState",
            "RepairReplayState",
            "snapshot_config",
        ),
        "provenance": (
            "PHASE_METRICS",
            "detect_git_revision",
            "metric_values",
            "phase_metric_values",
            "summarize_results",
        ),
        "store": (
            "ArtifactInfo",
            "GCReport",
            "ResultsStore",
            "SCHEMA_VERSION",
            "StoreStats",
            "canonical_json",
            "content_key",
            "group_key",
        ),
        "trends": (
            "CheckReport",
            "GroupTrend",
            "MetricComparison",
            "MetricTrend",
            "TrendRecord",
            "TrendReport",
            "check_baseline",
            "compare_revisions",
            "discover_stores",
            "load_baseline",
            "make_baseline",
            "scan_stores",
            "trend_report",
        ),
        "trials": (
            "DELAY_PRICINGS",
            "EstimatorSpec",
            "IdSpaceSpec",
            "LatencySpec",
            "OverlaySpec",
            "RepairPolicySpec",
            "TrialResult",
            "TrialSpec",
            "run_chunk",
            "trace_from_payload",
            "trace_to_payload",
        ),
    },
)
