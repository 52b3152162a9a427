"""Observability layer: phase profiling, run journal, trace export.

Covers the guarantees docs/OBSERVABILITY.md makes:

* profiling observes only — results (and stored payloads) are
  bit-identical with or without a journal attached;
* every reporter hears the one ``on_event`` stream, and a tee forwards
  all of it;
* a journal written by a real run validates against the schema;
* the Chrome trace-event export is stable (golden file) and well-formed;
* a mid-batch pool failure keeps completed chunks and re-runs only the
  remainder serially.
"""

from __future__ import annotations

import io
import json
import math
import pathlib
from concurrent.futures import Future

import pytest

import repro.runtime.pool as pool_module
from repro.analysis.obs_report import (
    journal_to_trace,
    read_journal,
    render_obs_summary,
    validate_journal,
)
from repro.runtime import (
    JOURNAL_SCHEMA_VERSION,
    PHASES,
    JournalReporter,
    TeeProgress,
    TrialExecutor,
    run_trials,
)
from repro.runtime.obs import PhaseAccumulator, chunk_profiler, phase
from repro.runtime.pool import SnapshotBackbone
from repro.runtime.progress import TelemetryCollector
from repro.runtime.trials import EstimatorSpec, OverlaySpec, TrialSpec, run_chunk
from repro.runtime.api import RuntimeOptions

DATA = pathlib.Path(__file__).parent / "data"


def _static_specs(count=8, seed=31, n=300, l=20):
    overlay = OverlaySpec.heterogeneous(n)
    estimator = EstimatorSpec.sample_collide(l=l)
    return [
        TrialSpec("static_probe", seed, i, overlay=overlay, estimator=estimator)
        for i in range(1, count + 1)
    ]


def _results_key(results):
    return [(r.index, r.stream, r.value, r.true_size) for r in results]


class TestPhaseAccumulator:
    def test_chunk_and_trial_attribution(self):
        acc = PhaseAccumulator()
        with acc.measure("boot"):
            pass
        with acc.measure("estimation", key=(3, 0)):
            pass
        with acc.measure("estimation", key=(3, 0)):
            pass
        assert set(acc.chunk_phases) == {"boot"}
        assert set(acc.trials) == {(3, 0)}
        trial = acc.trials[(3, 0)]
        assert trial["phases"]["estimation"] >= 0.0
        assert trial["elapsed"] >= 0.0
        summary = acc.chunk_summary()
        assert summary["pid"] > 0
        assert summary["phases"] == acc.chunk_phases

    def test_unknown_phase_rejected(self):
        acc = PhaseAccumulator()
        with pytest.raises(ValueError, match="unknown phase"):
            with acc.measure("warp"):
                pass

    def test_phase_is_noop_outside_chunk(self):
        # No accumulator installed: must neither record nor crash.
        with phase("estimation", key=(1, 0)):
            pass

    def test_chunk_profiler_restores_previous(self):
        with chunk_profiler() as outer:
            with phase("boot"):
                pass
            with chunk_profiler() as inner:
                with phase("churn"):
                    pass
            with phase("boot"):
                pass
            assert "churn" not in outer.chunk_phases
            assert set(inner.chunk_phases) == {"churn"}
        assert "boot" in outer.chunk_phases


class TestProfileAttachment:
    def test_run_chunk_attaches_profiles(self):
        results = run_chunk(_static_specs(4))
        assert all(r.profile is not None for r in results)
        # The chunk summary rides on the first result only.
        assert "chunk" in results[0].profile
        assert all("chunk" not in r.profile for r in results[1:])
        summary = results[0].profile["chunk"]
        assert summary["pid"] > 0
        assert "boot" in summary["phases"]
        for r in results:
            assert "estimation" in r.profile["phases"]

    def test_profile_excluded_from_payload_and_equality(self):
        [a] = run_chunk(_static_specs(1))
        assert "profile" not in a.as_dict()
        b = type(a).from_dict(a.as_dict())
        assert b.profile is None
        assert a == b  # profile does not participate in equality

    def test_results_identical_with_and_without_journal(self, tmp_path):
        specs = _static_specs(6)
        plain = run_trials(specs)
        journal = tmp_path / "run.jsonl"
        with JournalReporter(journal) as reporter:
            observed = run_trials(
                specs, runtime=RuntimeOptions.create(workers=2, progress=reporter)
            )
        assert _results_key(plain) == _results_key(observed)


class TestEventStream:
    def test_batch_events_bracket_the_run(self):
        telemetry = TelemetryCollector()
        TrialExecutor(workers=2, chunk_size=2, progress=telemetry).run(
            _static_specs(6)
        )
        kinds = [e["event"] for e in telemetry.events]
        assert kinds[0] == "batch_start"
        assert kinds[-1] == "batch_finish"
        assert "progress" in kinds

    def test_tee_forwards_everything(self):
        a, b = TelemetryCollector(), TelemetryCollector()
        tee = TeeProgress([a, b])
        tee.on_event("batch_start", total=4, workers=2)
        tee.on_event("chunk_start", chunk=0, trials=2, boundary=1)
        tee.on_event("chunk_done", chunk=0, trials=0, results=[])
        tee.on_event("snapshot_boundary", target=1, seconds=0.5, outcome="computed")
        tee.on_event("snapshot_save_error", error="disk full")
        tee.on_event("partial_fallback", done=2, total=4, reason="boom")
        tee.on_event("batch_finish", done=4, elapsed=1.0)
        assert a.events == b.events
        assert [e["event"] for e in a.events] == [
            "batch_start",
            "chunk_start",
            "chunk_done",
            "snapshot_boundary",
            "snapshot_save_error",
            "partial_fallback",
            "batch_finish",
        ]


class TestJournal:
    def test_real_run_round_trips_through_validation(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        with JournalReporter(journal) as reporter:
            run_trials(
                _static_specs(6),
                runtime=RuntimeOptions.create(workers=2, progress=reporter),
            )
        events = read_journal(journal)
        assert validate_journal(events) == []
        kinds = [e["event"] for e in events]
        assert kinds[0] == "journal"
        assert events[0]["schema"] == JOURNAL_SCHEMA_VERSION
        assert "batch_meta" in kinds
        assert "batch_start" in kinds
        assert "chunk_done" in kinds
        assert kinds.count("trial") == 6
        assert kinds[-1] == "batch_finish"
        # Every in-batch event shares the batch sequence number.
        assert {e["batch"] for e in events if e["event"] != "journal"} == {1}

    def test_cache_hit_closes_batch_scope(self, tmp_path):
        cache = tmp_path / "store"
        specs = _static_specs(3)
        run_trials(specs, runtime=RuntimeOptions.create(cache_dir=cache))
        stream = io.StringIO()
        reporter = JournalReporter(stream)
        run_trials(
            specs,
            runtime=RuntimeOptions.create(cache_dir=cache, progress=reporter),
        )
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds == ["journal", "batch_meta", "cache_hit"]
        assert "key" in events[1] and "group" in events[1]

    def test_deterministic_clock_injection(self):
        stream = io.StringIO()
        ticks = iter(range(100))
        reporter = JournalReporter(stream, clock=lambda: float(next(ticks)))
        reporter.on_event("batch_start", total=2, workers=1)
        reporter.on_event("batch_finish", done=2, elapsed=0.5)
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [e["ts"] for e in events] == [0.0, 1.0, 2.0]

    def test_journal_appends_across_reporters(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        for _ in range(2):
            with JournalReporter(journal) as reporter:
                reporter.on_event("batch_start", total=1, workers=1)
                reporter.on_event("batch_finish", done=1, elapsed=0.1)
        events = read_journal(journal)
        assert [e["event"] for e in events].count("journal") == 2
        assert validate_journal(events) == []


class TestTraceExport:
    def test_golden_trace(self):
        events = read_journal(DATA / "golden_journal.jsonl")
        assert validate_journal(events) == []
        trace = journal_to_trace(events)
        golden = json.loads((DATA / "golden_trace.json").read_text())
        assert trace == golden

    def test_trace_is_well_formed(self):
        events = read_journal(DATA / "golden_journal.jsonl")
        trace = journal_to_trace(events)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        for entry in trace["traceEvents"]:
            assert entry["ph"] in ("X", "i", "M")
            assert isinstance(entry["pid"], int)
            assert isinstance(entry["tid"], int)
            if entry["ph"] == "X":
                assert isinstance(entry["ts"], int)
                assert entry["dur"] >= 0
            if entry["ph"] == "i":
                assert entry["s"] == "p"

    def test_real_journal_traces(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        with JournalReporter(journal) as reporter:
            run_trials(
                _static_specs(6),
                runtime=RuntimeOptions.create(workers=2, progress=reporter),
            )
        trace = journal_to_trace(read_journal(journal))
        names = {e["name"] for e in trace["traceEvents"]}
        assert any(name.startswith("batch 1:") for name in names)
        assert any(name.startswith("trial ") for name in names)
        # Worker and driver tracks both present.
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert len(pids) >= 2

    def test_summary_renders(self):
        events = read_journal(DATA / "golden_journal.jsonl")
        text = render_obs_summary(events)
        assert "run journal summary" in text
        assert "estimation" in text
        assert "cache hits: 1" in text
        assert "partial fallbacks: 1" in text
        assert "snapshot save errors: 1" in text
        assert text.endswith("\n")
        for name in PHASES:
            if name in ("boot", "restore", "churn", "estimation"):
                assert name in text


def test_renderers_skip_malformed_event_names():
    events = [{"ts": 1.0, "event": ["not", "a", "name"]}, {"ts": 2.0}]
    assert [e["ph"] for e in journal_to_trace(events)["traceEvents"]] == ["M"]
    assert "batches: 0" in render_obs_summary(events)


class _FailingFakePool:
    """Synchronous stand-in for ProcessPoolExecutor failing one chunk."""

    fail_chunk: int = -1
    submitted: int = 0

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        index = type(self).submitted
        type(self).submitted += 1
        future = Future()
        if index == type(self).fail_chunk:
            future.set_exception(OSError("injected chunk failure"))
        else:
            future.set_result(fn(*args))
        return future


class TestPartialFallback:
    @pytest.fixture()
    def fake_pool(self, monkeypatch):
        _FailingFakePool.submitted = 0
        _FailingFakePool.fail_chunk = 3
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _FailingFakePool)
        # Deterministic completion order (futures are already resolved).
        monkeypatch.setattr(pool_module, "as_completed", lambda fs: iter(list(fs)))
        return _FailingFakePool

    def test_completed_chunks_survive_pool_failure(self, fake_pool, monkeypatch):
        executed = []
        real_run_chunk = pool_module.run_chunk

        def counting_run_chunk(specs, snapshot=None):
            executed.append([s.index for s in specs])
            return real_run_chunk(specs, snapshot)

        monkeypatch.setattr(pool_module, "run_chunk", counting_run_chunk)
        specs = _static_specs(12)
        telemetry = TelemetryCollector()
        results = TrialExecutor(
            workers=4, chunk_size=3, progress=telemetry
        ).run(specs)
        # Chunks 0-2 ran in the pool, chunk 3 failed, and only its three
        # trials were re-run serially — nothing was computed twice.
        assert sorted(i for batch in executed for i in batch) == list(range(1, 13))
        assert executed[-1] == [10, 11, 12]

        serial = TrialExecutor(workers=1).run(_static_specs(12))
        assert _results_key(results) == _results_key(serial)

        [event] = [e for e in telemetry.events if e["event"] == "partial_fallback"]
        assert event["done"] == 9
        assert event["total"] == 12
        assert "re-running 3 of 12" in event["reason"]
        # The whole-batch fallback did not fire.
        assert telemetry.count("fallback") == 0

    def test_partial_fallback_journaled(self, fake_pool, tmp_path):
        journal = tmp_path / "run.jsonl"
        with JournalReporter(journal) as reporter:
            TrialExecutor(workers=4, chunk_size=3, progress=reporter).run(
                _static_specs(12)
            )
        events = read_journal(journal)
        assert validate_journal(events) == []
        [event] = [e for e in events if e["event"] == "partial_fallback"]
        assert event["done"] == 9 and event["total"] == 12


class _ReadOnlyStore:
    """Store double: never hits, every save fails like a read-only disk."""

    def load_snapshot(self, config):
        return None

    def save_snapshot(self, config, payload, meta=None):
        raise OSError("read-only store")


class TestSnapshotSaveError:
    def _spec(self):
        from repro.churn.models import shrinking_trace
        from repro.runtime import trace_to_payload

        trace = shrinking_trace(120, 0.5, start=1.0, end=4.0, steps=3)
        return TrialSpec(
            "dynamic_probe",
            17,
            1,
            overlay=OverlaySpec.heterogeneous(120),
            estimator=EstimatorSpec.sample_collide(l=10, timer=5.0),
            params={
                "trace": trace_to_payload(trace),
                "time_per_estimation": 1.0,
                "max_degree": 10,
            },
        )

    def test_save_error_reported_once(self):
        telemetry = TelemetryCollector()
        backbone = SnapshotBackbone(self._spec(), _ReadOnlyStore(), telemetry)
        assert backbone.payload_at(0) is not None
        assert backbone.payload_at(2) is not None
        assert telemetry.count("snapshot_save_error") == 1
        outcomes = [
            e["outcome"]
            for e in telemetry.events
            if e["event"] == "snapshot_boundary"
        ]
        assert outcomes == ["computed", "computed"]

    def test_boundary_outcomes_reported(self):
        telemetry = TelemetryCollector()
        backbone = SnapshotBackbone(self._spec(), None, telemetry)
        assert backbone.payload_at(-1) is None
        assert backbone.payload_at(1) is not None
        assert backbone.payload_at(0) is None  # non-monotone: backbone is past it
        outcomes = [
            (e["target"], e["outcome"])
            for e in telemetry.events
            if e["event"] == "snapshot_boundary"
        ]
        assert outcomes == [(-1, "skipped"), (1, "computed"), (0, "skipped")]
        assert all(
            math.isfinite(e["seconds"]) and e["seconds"] >= 0.0
            for e in telemetry.events
            if e["event"] == "snapshot_boundary"
        )


class TestKernelPhase:
    """The ``kernel`` phase under the array graph backend (docs/KERNELS.md)."""

    def _array_specs(self, count=6):
        from repro.runtime.trials import apply_graph_backend

        return apply_graph_backend(_static_specs(count), "array")

    def test_kernel_in_phase_taxonomy(self):
        assert "kernel" in PHASES

    def test_kernel_phase_recorded_in_profile(self):
        results = run_chunk(self._array_specs())
        chunk = results[0].profile["chunk"]
        assert chunk["phases"].get("kernel", 0.0) > 0.0
        # Kernel time nests inside the trial-attributed estimation spans:
        # it is a subset of estimation seconds, not an additional cost.
        estimation = sum(
            r.profile["phases"].get("estimation", 0.0) for r in results
        )
        assert chunk["phases"]["kernel"] <= estimation

    def test_dict_backend_records_no_kernel_phase(self):
        results = run_chunk(_static_specs(6))
        chunk = results[0].profile["chunk"]
        assert "kernel" not in chunk["phases"]

    def test_phase_kernel_in_summary_metrics(self):
        from repro.runtime.provenance import PHASE_METRICS, summarize_results

        assert "phase_kernel" in PHASE_METRICS
        metrics = summarize_results(run_chunk(self._array_specs()))
        assert metrics["phase_kernel"]["mean"] > 0.0

    def test_array_backend_journal_validates(self, tmp_path):
        journal = tmp_path / "array.jsonl"
        with JournalReporter(journal) as reporter:
            run_trials(
                self._array_specs(),
                runtime=RuntimeOptions.create(workers=2, progress=reporter),
            )
        events = read_journal(journal)
        assert validate_journal(events) == []
        chunk_phases = [
            e["phases"] for e in events if e["event"] == "chunk_done"
        ]
        assert any("kernel" in p for p in chunk_phases)
        summary = render_obs_summary(events)
        assert "kernel" in summary
