"""Spin-up helpers for the cluster chaos suite.

The declarative half of the harness lives in ``repro.runtime.faults``
(:class:`FaultPlan` and friends); this module is the runtime half used by
``tests/runtime/test_chaos.py`` and the CI ``chaos`` job: it boots a
loopback cluster whose workers carry a plan's compiled faults, drives a
batch through :class:`~repro.runtime.cluster.ClusterExecutor` under a
tight heartbeat, and checks the invariants every chaos run must uphold —
results bit-identical to serial, content addresses unchanged, every
chunk accounted for exactly once, and (when journalled) a timeline
``obs validate`` accepts.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.obs_report import read_journal, validate_journal
from repro.runtime import (
    ClusterExecutor,
    JournalReporter,
    TelemetryCollector,
    WorkerServer,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.progress import TeeProgress
from repro.runtime.store import content_key


class TimedTelemetry(TelemetryCollector):
    """Telemetry that stamps ``time.monotonic()`` on every event.

    Chaos tests reason about *when* recovery happened relative to the
    injected cause (e.g. the heartbeat detection bound), which the plain
    collector cannot answer.  The stamp is stored under ``"at"`` — no
    runtime event has a field of that name.
    """

    def on_event(self, event: str, **fields: Any) -> None:
        super().on_event(event, at=time.monotonic(), **fields)

    def at(self, kind: str) -> Optional[float]:
        """Monotonic stamp of the first event of ``kind`` (None if absent)."""
        for ev in self.events:
            if ev["event"] == kind:
                return ev["at"]
        return None


@dataclass
class ChaosRun:
    """Everything a chaos test needs to assert on after one run."""

    plan: FaultPlan
    results: List[Any]
    telemetry: TimedTelemetry
    hosts: List[str] = field(default_factory=list)
    journal: List[Dict[str, Any]] = field(default_factory=list)

    def host_address(self, index: int) -> str:
        """The bound address of the plan's worker ``index``."""
        return self.hosts[index]

    def events(self, kind: str) -> List[Dict[str, Any]]:
        """All telemetry events of ``kind``, in emission order."""
        return [e for e in self.telemetry.events if e["event"] == kind]


def results_key(results: Sequence[Any]) -> str:
    """Content address of a result list (order-sensitive, bit-exact)."""
    return content_key([r.as_dict() for r in results])


def run_chaos(
    plan: FaultPlan,
    specs: Sequence[Any],
    *,
    hosts: int = 2,
    chunk_size: Optional[int] = 3,
    heartbeat_interval: float = 0.05,
    heartbeat_misses: int = 2,
    retries: int = 0,
    backoff: float = 0.05,
    journal_path: Optional[Any] = None,
    timeout: float = 60.0,
) -> ChaosRun:
    """Run ``specs`` through a loopback cluster carrying ``plan``'s faults.

    Each of the ``hosts`` workers gets the plan's compiled
    :meth:`~repro.runtime.faults.FaultPlan.worker_faults` for its index
    and reports injected faults into the shared telemetry (and journal,
    when ``journal_path`` is given).  ``retries=0`` by default so a
    transport fault converts to a loss immediately instead of racing the
    backoff against healthy peers draining the queue.
    """
    telemetry = TimedTelemetry()
    reporters = [telemetry]
    journal: Optional[JournalReporter] = None
    if journal_path is not None:
        journal = JournalReporter(journal_path)
        reporters.append(journal)
    progress = TeeProgress(reporters)

    servers = [
        WorkerServer(faults=plan.worker_faults(i), progress=progress)
        for i in range(hosts)
    ]
    threads = [
        threading.Thread(target=s.serve_forever, daemon=True) for s in servers
    ]
    for thread in threads:
        thread.start()
    addresses = [s.address for s in servers]
    try:
        executor = ClusterExecutor(
            addresses,
            chunk_size=chunk_size,
            progress=progress,
            retries=retries,
            backoff=backoff,
            heartbeat_interval=heartbeat_interval,
            heartbeat_misses=heartbeat_misses,
        )
        box: Dict[str, Any] = {}

        def drive() -> None:
            try:
                box["results"] = executor.run(list(specs))
            except BaseException as exc:  # surfaced below, not swallowed
                box["error"] = exc

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        driver.join(timeout=timeout)
        if driver.is_alive():
            raise AssertionError(
                f"chaos run {plan.describe()!r} hung past {timeout}s"
            )
        if "error" in box:
            raise box["error"]
    finally:
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=5.0)
        if journal is not None:
            journal.close()

    events: List[Dict[str, Any]] = []
    if journal_path is not None:
        events = read_journal(journal_path)
    return ChaosRun(
        plan=plan,
        results=box["results"],
        telemetry=telemetry,
        hosts=addresses,
        journal=events,
    )


def assert_chaos_invariants(run: ChaosRun, serial: Sequence[Any]) -> None:
    """The invariants every fault plan must leave intact.

    1. Results bit-identical to the serial reference (NaN-safe).
    2. The content address of the result list is unchanged — faults move
       work around, they never change what it computes.
    3. Every chunk is announced exactly once and completed exactly once,
       and the completed trials add up to the whole batch.
    4. When the run was journalled, ``obs validate`` accepts it.
    """
    assert len(run.results) == len(serial), (
        f"{run.plan.describe()}: {len(run.results)} results != {len(serial)}"
    )
    for ours, ref in zip(run.results, serial):
        assert json.dumps(ours.as_dict(), sort_keys=True) == json.dumps(
            ref.as_dict(), sort_keys=True
        ), f"{run.plan.describe()}: result diverged at index {ref.index}"
    assert results_key(run.results) == results_key(serial), (
        f"{run.plan.describe()}: content address changed"
    )

    starts = [e["chunk"] for e in run.events("chunk_start")]
    dones = [e["chunk"] for e in run.events("chunk_done")]
    assert len(starts) == len(set(starts)), (
        f"{run.plan.describe()}: chunk announced twice: {sorted(starts)}"
    )
    assert len(dones) == len(set(dones)), (
        f"{run.plan.describe()}: chunk completed twice: {sorted(dones)}"
    )
    assert set(dones) == set(starts), (
        f"{run.plan.describe()}: started {sorted(starts)} != done {sorted(dones)}"
    )
    assert sum(e["trials"] for e in run.events("chunk_done")) == len(serial), (
        f"{run.plan.describe()}: completed trials do not add up to the batch"
    )

    if run.journal:
        problems = validate_journal(run.journal)
        assert problems == [], f"{run.plan.describe()}: {problems}"
