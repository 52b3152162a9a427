"""What the run-journal writer emits, pinned line by line.

Real runs drive a :class:`JournalReporter` (with a :class:`LogProgress`
beside it) on in-memory streams: a serial batch, a 2-worker pool, a
pipelined churn replay with a store and then its cache hit, a pool that
fails mid-batch, a cluster batch that cannot leave the driver, and an
estimation service from boot to restore.  Timing and process fields
are masked; everything else — event order, field names, key order,
``null`` values — must match ``data/journal_writer_pins.json``.  A
2-host loopback cluster, whose event order depends on scheduling, is
pinned by each event type's key order.
"""

from __future__ import annotations

import io
import json
import pathlib
import re
import threading

import pytest

import repro.runtime.pool as pool_module
import repro.runtime.trials as trials_module
from repro.analysis.obs_report import validate_journal
from repro.churn.models import shrinking_trace
from repro.overlay.builders import heterogeneous_random
from repro.runtime import (
    ClusterExecutor,
    EstimatorSpec,
    JournalReporter,
    LogProgress,
    OverlaySpec,
    RuntimeOptions,
    TeeProgress,
    TrialExecutor,
    TrialSpec,
    WorkerServer,
    run_trials,
    trace_to_payload,
)
from repro.service import EstimationService, ServiceConfig
from repro.sim.rng import RngHub
from test_obs import _FailingFakePool

PINS = pathlib.Path(__file__).parent / "data" / "journal_writer_pins.json"

#: Fields whose values depend on the clock or the process, not the run.
MASKED = ("ts", "pid", "started", "elapsed", "seconds", "path")


def mask(record):
    """``record`` with clock/process values replaced by ``"*"``, keys kept."""
    out = {}
    for key, value in record.items():
        if key == "phases" and isinstance(value, dict):
            # A chunk records "boot" only when its worker has not built
            # that overlay before, which depends on pool scheduling.
            chunk = record.get("event") == "chunk_done"
            value = "*" if chunk else {name: "*" for name in value}
        elif key in MASKED and value is not None:
            value = "*"
        out[key] = value
    return out


def mask_log(line):
    line = re.sub(r"in \d+\.\ds$", "in *s", line)
    line = re.sub(r"127\.0\.0\.1:\d+", "<host>", line)
    return re.sub(r"\(pid \d+\)", "(pid *)", line)


class Recorder:
    """A journal and a log line stream, teed behind one reporter."""

    def __init__(self):
        self.journal_stream = io.StringIO()
        self.log_stream = io.StringIO()
        self.journal = JournalReporter(self.journal_stream)
        self.progress = TeeProgress(
            [self.journal, LogProgress(stream=self.log_stream)]
        )

    def records(self):
        return [json.loads(line) for line in self.journal_stream.getvalue().splitlines()]

    def pinned(self):
        assert validate_journal(self.records()) == []
        return {
            "journal": [json.dumps(mask(r)) for r in self.records()],
            "log": [mask_log(line) for line in self.log_stream.getvalue().splitlines()],
        }


def _static_specs(count, seed=31, n=300):
    overlay = OverlaySpec.heterogeneous(n)
    estimator = EstimatorSpec.sample_collide(l=20)
    return [
        TrialSpec("static_probe", seed, i, overlay=overlay, estimator=estimator)
        for i in range(1, count + 1)
    ]


def _replay_specs(count=6, seed=17, n=200):
    trace = shrinking_trace(n, 0.5, start=1.0, end=float(count), steps=count - 1)
    params = {
        "trace": trace_to_payload(trace),
        "time_per_estimation": 1.0,
        "max_degree": 10,
    }
    return [
        TrialSpec(
            "dynamic_probe",
            seed,
            i,
            overlay=OverlaySpec.heterogeneous(n),
            estimator=EstimatorSpec.sample_collide(l=10, timer=5.0),
            params=params,
        )
        for i in range(1, count + 1)
    ]


@pytest.fixture(autouse=True)
def private_overlay_memo(monkeypatch):
    """Keep this module's overlay builds out of the per-process memo."""
    monkeypatch.setattr(trials_module, "_GRAPH_CACHE", {})


@pytest.fixture()
def ordered_pool(monkeypatch):
    """A real process pool whose completions are reported in submit order."""
    monkeypatch.setattr(pool_module, "as_completed", lambda fs: iter(list(fs)))


def _serial(progress, tmp_path, monkeypatch):
    run_trials(_static_specs(4), runtime=RuntimeOptions.create(progress=progress))


def _pool(progress, tmp_path, monkeypatch):
    run_trials(
        _static_specs(6),
        runtime=RuntimeOptions.create(workers=2, chunk_size=3, progress=progress),
    )


def _pipelined_then_cached(progress, tmp_path, monkeypatch):
    runtime = RuntimeOptions.create(
        workers=2, chunk_size=2, cache_dir=tmp_path / "store", progress=progress
    )
    run_trials(_replay_specs(), runtime=runtime)
    run_trials(_replay_specs(), runtime=runtime)


def _partial_fallback(progress, tmp_path, monkeypatch):
    # The synchronous fake pool of test_obs.TestPartialFallback.
    monkeypatch.setattr(_FailingFakePool, "submitted", 0)
    monkeypatch.setattr(_FailingFakePool, "fail_chunk", 3)
    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _FailingFakePool)
    TrialExecutor(workers=4, chunk_size=3, progress=progress).run(
        _static_specs(12)
    )


def _cluster_fallback(progress, tmp_path, monkeypatch):
    graph = heterogeneous_random(80, rng=RngHub(3).stream("overlay"))
    specs = [
        TrialSpec(
            "static_probe", 3, i, overlay=graph, estimator=EstimatorSpec.sample_collide(l=10)
        )
        for i in range(1, 4)
    ]
    # Never contacted: a batch holding a live graph stays in the driver.
    ClusterExecutor(["127.0.0.1:1", "127.0.0.1:2"], progress=progress).run(specs)


def _service(progress, tmp_path, monkeypatch):
    config = ServiceConfig(
        seed=11,
        initial_size=300,
        estimators=("sample_collide", "aggregation"),
        probe_interval=5,
        sc_l=10,
        sc_timer=5.0,
        agg_restart_interval=10,
        queue_limit=2,
    )
    target = str(tmp_path / "svc.json")
    service = EstimationService(config, progress=progress, snapshot_path=target)
    service.ingest([{"joins": 1}] * 4)  # 2 shed
    service.tick(2)
    service.serve_estimate()
    service.checkpoint()
    EstimationService.from_checkpoint(target, progress=progress)


SCENARIOS = {
    "serial": _serial,
    "pool": _pool,
    "pipelined_then_cached": _pipelined_then_cached,
    "partial_fallback": _partial_fallback,
    "cluster_fallback": _cluster_fallback,
    "service": _service,
}


def record(name, tmp_path, monkeypatch):
    """Run scenario ``name`` and return its masked journal and log lines."""
    rec = Recorder()
    SCENARIOS[name](rec.progress, tmp_path, monkeypatch)
    return rec.pinned()


def record_loopback_cluster():
    """Key order per event type, and the distinct log lines, of a 2-host run.

    Two chunks go to two hosts, one each; only if one host finishes
    before the other claims its chunk does a ``steal`` (and a single
    connect) appear, so those are left out of the comparison.
    """
    rec = Recorder()
    servers = [WorkerServer() for _ in range(2)]
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
    for thread in threads:
        thread.start()
    try:
        run_trials(
            _replay_specs(),
            runtime=RuntimeOptions.create(
                hosts=[s.address for s in servers],
                chunk_size=3,
                heartbeat_interval=0,
                progress=rec.progress,
            ),
        )
    finally:
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=5.0)
    keys = {}
    for record_ in rec.records():
        order = list(record_)
        assert keys.setdefault(record_["event"], order) == order
    keys.pop("steal", None)
    return {"keys": keys, "log": sorted(set(rec.pinned()["log"]))}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.usefixtures("ordered_pool")
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_journal_matches_pin(name, pins, tmp_path, monkeypatch):
    assert record(name, tmp_path, monkeypatch) == pins[name]


def test_loopback_cluster_key_order_matches_pin(pins):
    assert record_loopback_cluster() == pins["loopback_cluster"]
