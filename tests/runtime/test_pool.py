"""Tests for the trial executor: chunking, parallel dispatch, fallbacks."""

from __future__ import annotations

import collections
import multiprocessing
import os
import signal
import sys
import weakref

import pytest

import repro.runtime.pool as pool_module
from repro.analysis.obs_report import read_journal, validate_journal
from repro.churn.models import shrinking_trace
from repro.core.sample_collide import SampleCollideEstimator
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.runtime.obs import JournalReporter
from repro.runtime.pool import TrialExecutor, chunk_specs
from repro.runtime.progress import TelemetryCollector
from repro.runtime.snapshots import ProbeReplayState
from repro.runtime.trials import (
    EstimatorSpec,
    OverlaySpec,
    TrialSpec,
    run_chunk,
    trace_to_payload,
)
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


class TestPayloadRelease:
    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 a caller's stack holds its call arguments until the call returns",
    )
    def test_a_pool_worker_frees_the_payload_at_the_first_departure(
        self, monkeypatch, tmp_path
    ):
        """A pool worker keeps no reference to a chunk's boundary payload,
        as a worker host does not: the restored overlay holds the payload's
        arrays alone, so they are freed when the chunk's first departure
        swaps in a new twin, and are dead by its second churn step."""
        steps = 12
        trace = shrinking_trace(300, 0.5, start=1.0, end=float(steps), steps=steps - 1)
        params = {"trace": trace_to_payload(trace), "time_per_estimation": 1.0, "max_degree": 10}
        specs = [
            TrialSpec(
                "dynamic_probe",
                17,
                i,
                overlay=OverlaySpec.heterogeneous(300),
                estimator=EstimatorSpec.sample_collide(l=20, timer=5.0),
                params=params,
            )
            for i in range(1, steps + 1)
        ]
        # Pool workers are forked: they inherit the watchers and report
        # through a file, one line per event, keyed by pid.
        log = tmp_path / "watch.log"
        watched = []
        unpack = ArrayOverlayGraph.unpack.__func__
        advance = ProbeReplayState.advance

        def report(event):
            if multiprocessing.parent_process() is not None:
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()} {event}\n")

        def watch_unpack(cls, packed):
            watched[:] = [weakref.ref(packed["indices"])]
            report("chunk")
            return unpack(cls, packed)

        def watch_advance(state, to_index):
            report("alive" if watched and watched[0]() is not None else "dead")
            advance(state, to_index)

        monkeypatch.setattr(ArrayOverlayGraph, "unpack", classmethod(watch_unpack))
        monkeypatch.setattr(ProbeReplayState, "advance", watch_advance)
        results = TrialExecutor(workers=2, chunk_size=6).run(specs)
        assert [r.index for r in results] == list(range(1, steps + 1))

        chunks = collections.defaultdict(list)
        for line in log.read_text().splitlines():
            pid, event = line.split()
            if event == "chunk":
                chunks[pid].append([])
            else:
                chunks[pid][-1].append(event)
        seen = [chunk for per_pid in chunks.values() for chunk in per_pid]
        assert len(seen) == 2
        for chunk in seen:
            assert len(chunk) == 6 and chunk[:2] == ["alive", "dead"], chunk
