"""Tests for the trial executor: chunking, parallel dispatch, fallbacks."""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

import repro.runtime.pool as pool_module
from repro.analysis.obs_report import read_journal, validate_journal
from repro.core.sample_collide import SampleCollideEstimator
from repro.runtime.obs import JournalReporter
from repro.runtime.pool import TrialExecutor, chunk_specs
from repro.runtime.progress import TelemetryCollector
from repro.runtime.trials import EstimatorSpec, OverlaySpec, TrialSpec, run_chunk
from repro.sim.rng import RngHub


def _static_specs(count=8, seed=31, n=300, l=20):
    overlay = OverlaySpec.heterogeneous(n)
    estimator = EstimatorSpec.sample_collide(l=l)
    return [
        TrialSpec("static_probe", seed, i, overlay=overlay, estimator=estimator)
        for i in range(1, count + 1)
    ]


class TestChunking:
    def test_chunks_preserve_order_and_cover(self):
        specs = _static_specs(7)
        chunks = chunk_specs(specs, 3)
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [s.index for c in chunks for s in c] == list(range(1, 8))

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_specs(_static_specs(3), 0)
        with pytest.raises(ValueError):
            TrialExecutor(chunk_size=0)


class TestExecution:
    def test_empty_batch(self):
        assert TrialExecutor().run([]) == []

    def test_serial_vs_parallel_identical(self):
        """The headline determinism guarantee: same seeds → identical
        series at any worker count."""
        specs = _static_specs(10)
        serial = TrialExecutor(workers=1).run(specs)
        parallel = TrialExecutor(workers=3, chunk_size=2).run(specs)
        assert [(r.index, r.value, r.true_size) for r in serial] == [
            (r.index, r.value, r.true_size) for r in parallel
        ]

    def test_results_sorted_by_index(self):
        results = TrialExecutor(workers=2, chunk_size=3).run(_static_specs(9))
        assert [r.index for r in results] == list(range(1, 10))

    def test_live_objects_fall_back_to_serial(self):
        """Closure-based specs cannot be shipped to workers; the executor
        must degrade gracefully instead of crashing."""
        graph = OverlaySpec.heterogeneous(300).build(RngHub(31))
        factory = lambda g, h: SampleCollideEstimator(g, l=20, rng=h.stream("sc"))
        live = [
            TrialSpec("static_probe", 31, i, overlay=graph, estimator=factory)
            for i in range(1, 11)
        ]
        telemetry = TelemetryCollector()
        results = TrialExecutor(workers=4, progress=telemetry).run(live)
        assert telemetry.count("fallback") == 1
        spec_results = TrialExecutor(workers=1).run(_static_specs(10))
        assert [(r.index, r.value) for r in results] == [
            (r.index, r.value) for r in spec_results
        ]

    def test_progress_callbacks_fire(self):
        telemetry = TelemetryCollector()
        TrialExecutor(workers=2, chunk_size=2, progress=telemetry).run(
            _static_specs(6)
        )
        assert telemetry.count("batch_start") == 1
        assert telemetry.count("batch_finish") == 1
        assert telemetry.count("progress") >= 1


#: Trial index whose chunk kills the pool worker running it.
KILL_INDEX = 7


def _run_chunk_or_die(specs, snapshot=None):
    """``run_chunk`` that SIGKILLs its own pool worker on one chunk.

    The kill is keyed on chunk identity (the chunk holding
    :data:`KILL_INDEX`), so it fires on every run whatever the scheduling;
    the serial re-run of that chunk in the parent process is left alone.
    """
    in_worker = multiprocessing.parent_process() is not None
    if in_worker and any(spec.index == KILL_INDEX for spec in specs):
        os.kill(os.getpid(), signal.SIGKILL)
    return run_chunk(specs, snapshot)


class TestWorkerDeath:
    def test_killed_worker_takes_partial_fallback(self, monkeypatch, tmp_path):
        """A worker killed by the OS breaks the pool (``BrokenProcessPool``);
        the batch must still finish through the partial fallback."""
        monkeypatch.setattr(pool_module, "run_chunk", _run_chunk_or_die)
        journal = tmp_path / "run.jsonl"
        with JournalReporter(journal) as reporter:
            results = TrialExecutor(workers=2, chunk_size=3, progress=reporter).run(
                _static_specs(12)
            )
        serial = TrialExecutor(workers=1).run(_static_specs(12))
        assert [(r.index, r.stream, r.value, r.true_size) for r in results] == [
            (r.index, r.stream, r.value, r.true_size) for r in serial
        ]
        events = read_journal(journal)
        assert validate_journal(events) == []
        [event] = [e for e in events if e["event"] == "partial_fallback"]
        assert event["total"] == 12
        assert event["done"] <= 9  # the killed chunk never counts as done
