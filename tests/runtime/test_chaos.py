"""Chaos suite: deterministic fault injection against the cluster backend.

Every plan in :func:`repro.runtime.faults.chaos_matrix` — worker kill,
heartbeat stall, frame truncation, slow host — must leave a batch's
results bit-identical to serial with unchanged content addresses, account
for every chunk exactly once, and produce a journal ``obs validate``
accepts.  A stalled worker must additionally be *detected* within the
documented ``misses x interval`` bound, mid-batch, not post-hoc.
"""

from __future__ import annotations

import threading

import pytest

import chaos
from repro.runtime import (
    ClusterExecutor,
    EstimatorSpec,
    OverlaySpec,
    TelemetryCollector,
    TrialSpec,
    WorkerServer,
    run_chunk,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    WorkerFaults,
    chaos_matrix,
)

N = 300


def _specs(count=12, seed=7):
    overlay = OverlaySpec.heterogeneous(N)
    return [
        TrialSpec(
            "static_probe",
            seed,
            i,
            overlay=overlay,
            estimator=EstimatorSpec.sample_collide(l=10),
        )
        for i in range(1, count + 1)
    ]


class TestFaultPlans:
    def test_random_plans_are_seed_reproducible(self):
        a = FaultPlan.random(42, hosts=3, events=2)
        b = FaultPlan.random(42, hosts=3, events=2)
        assert a == b
        assert FaultPlan.random(43, hosts=3, events=2) != a

    def test_random_plans_never_kill_host_zero(self):
        for seed in range(50):
            plan = FaultPlan.random(seed, hosts=3, events=3)
            assert not any(
                e.kind == "kill_worker" and e.host == 0 for e in plan.events
            )

    def test_config_round_trip(self):
        plan = chaos_matrix()["kill_worker"]
        assert FaultPlan.from_config(plan.as_config()) == plan
        soak = FaultPlan.random(7, hosts=4, events=3)
        assert FaultPlan.from_config(soak.as_config()) == soak

    def test_matrix_names_the_acceptance_failure_classes(self):
        matrix = chaos_matrix()
        kinds = {e.kind for plan in matrix.values() for e in plan.events}
        assert {
            "kill_worker",
            "stall_heartbeat",
            "truncate_frame",
            "slow_host",
        } <= kinds

    def test_invalid_faults_are_rejected(self):
        with pytest.raises(ValueError):
            Fault("reboot_rack")
        with pytest.raises(ValueError):
            Fault("kill_worker", host=-1)
        with pytest.raises(ValueError):
            Fault("slow_host")  # timed kind needs seconds > 0
        with pytest.raises(ValueError):
            Fault("kill_worker", after=-1)

    def test_worker_faults_compile_only_the_target_host(self):
        plan = FaultPlan(
            seed=1,
            events=(
                Fault("kill_worker", host=1, after=2),
                Fault("slow_host", host=0, seconds=0.1),
                Fault("truncate_frame", host=0, after=3),
            ),
        )
        zero = plan.worker_faults(0)
        one = plan.worker_faults(1)
        assert zero.kill_after_chunks is None
        assert zero.slow_seconds == 0.1
        assert zero.frame_fault_at(3).mode == "truncate"
        assert one == WorkerFaults(kill_after_chunks=2)
        assert plan.hosts_touched() == (0, 1)

    def test_every_kind_describes_itself(self):
        for kind in FAULT_KINDS:
            seconds = 0.25 if kind in ("slow_host", "delay_frame") else 0.0
            fault = Fault(kind, host=1, after=1, seconds=seconds)
            assert kind in fault.describe()


class TestChaosMatrix:
    @pytest.mark.parametrize("hosts", [2, 3])
    @pytest.mark.parametrize("name", sorted(chaos_matrix(slow_seconds=0.1)))
    def test_plan_preserves_results_and_journal(self, tmp_path, name, hosts):
        plan = chaos_matrix(slow_seconds=0.1)[name]
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(
            plan,
            specs,
            hosts=hosts,
            journal_path=tmp_path / f"{name}-{hosts}.jsonl",
        )
        chaos.assert_chaos_invariants(run, serial)

    def test_kill_plan_actually_loses_the_worker(self, tmp_path):
        plan = chaos_matrix()["kill_worker"]
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(
            plan, specs, hosts=2, journal_path=tmp_path / "kill.jsonl"
        )
        chaos.assert_chaos_invariants(run, serial)
        assert [e["kind"] for e in run.events("fault_injected")] == ["kill_worker"]
        assert [e["host"] for e in run.events("worker_lost")] == [
            run.host_address(1)
        ]
        assert run.telemetry.count("chunk_migrated") >= 1
        journal_kinds = {e["event"] for e in run.journal}
        assert {"fault_injected", "worker_lost", "chunk_migrated"} <= journal_kinds

    def test_truncated_frame_surfaces_as_loss_never_as_bad_results(self):
        plan = chaos_matrix()["frame_truncate"]
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(plan, specs, hosts=2)
        chaos.assert_chaos_invariants(run, serial)
        assert [e["kind"] for e in run.events("fault_injected")] == [
            "truncate_frame"
        ]
        # retries=0: the torn frame converts to a loss + migration.
        assert [e["host"] for e in run.events("worker_lost")] == [
            run.host_address(0)
        ]


class TestHeartbeatDetectionBound:
    def test_stalled_worker_detected_within_bound_mid_batch(self):
        interval, misses = 0.1, 3
        # The straggler fault keeps the batch alive long enough that
        # detection must happen mid-batch, not after the queue drains.
        plan = FaultPlan(
            seed=201,
            name="stall-under-load",
            events=(
                Fault("stall_heartbeat", host=1, after=1),
                Fault("slow_host", host=0, seconds=1.0),
            ),
        )
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(
            plan,
            specs,
            hosts=2,
            heartbeat_interval=interval,
            heartbeat_misses=misses,
        )
        chaos.assert_chaos_invariants(run, serial)
        lost = run.events("worker_lost")
        assert [e["host"] for e in lost] == [run.host_address(1)]
        assert "heartbeat" in lost[0]["reason"]
        assert run.telemetry.count("heartbeat_miss") >= misses
        stalled = min(
            e["at"] for e in run.events("fault_injected")
            if e["kind"] == "stall_heartbeat"
        )
        detected = run.telemetry.at("worker_lost")
        # Documented bound: misses consecutive probes, each costing
        # max(interval, ping timeout); generous slack for CI scheduling.
        bound = misses * max(interval, 0.02)
        assert detected - stalled <= bound + 0.6
        kinds = [e["event"] for e in run.telemetry.events]
        assert kinds.index("worker_lost") < kinds.index("batch_finish")


class TestChunkSizeAdaptation:
    def test_first_batch_plans_uniformly(self):
        executor = ClusterExecutor(["a:1", "b:2"], chunk_size=None)
        chunks, dealt = executor._plan(_specs())
        assert dealt is None
        assert [s.index for chunk in chunks for s in chunk] == list(range(1, 13))

    def test_explicit_chunk_size_disables_adaptation(self):
        executor = ClusterExecutor(["a:1", "b:2"], chunk_size=3)
        executor._note_latency("a:1", 3.0, 10)
        executor._note_latency("b:2", 1.0, 10)
        _chunks, dealt = executor._plan(_specs())
        assert dealt is None

    def test_plan_apportions_inverse_to_latency(self):
        executor = ClusterExecutor(["a:1", "b:2"], chunk_size=None)
        executor._note_latency("a:1", 3.0, 10)  # 0.3 s/trial
        executor._note_latency("b:2", 1.0, 10)  # 0.1 s/trial
        specs = _specs()
        chunks, dealt = executor._plan(specs)
        assert dealt is not None
        trials = {
            host: sum(len(chunks[i]) for i in ids) for host, ids in dealt.items()
        }
        assert trials == {"a:1": 3, "b:2": 9}
        # Chunks still partition the batch contiguously in index order —
        # the snapshot backbone's monotonic-boundary requirement.
        flat = [s.index for chunk in chunks for s in chunk]
        assert flat == [s.index for s in specs]
        # Each host's block is a contiguous run of chunk ids.
        for ids in dealt.values():
            assert ids == list(range(min(ids), max(ids) + 1))

    def test_executor_reuse_adapts_and_stays_bit_exact(self):
        specs = _specs(count=16)
        serial = run_chunk(list(specs))
        slow = WorkerServer(faults=WorkerFaults(slow_seconds=0.3))
        fast = WorkerServer()
        servers = [slow, fast]
        threads = [
            threading.Thread(target=s.serve_forever, daemon=True) for s in servers
        ]
        for thread in threads:
            thread.start()
        try:
            telemetry = TelemetryCollector()
            executor = ClusterExecutor(
                [slow.address, fast.address],
                chunk_size=None,
                progress=telemetry,
                heartbeat_interval=0,
            )
            first = executor.run(list(specs))
            assert chaos.results_key(first) == chaos.results_key(serial)
            # The straggler's latency is now known: the next plan skews
            # trials toward the fast host.
            chunks, dealt = executor._plan(specs)
            assert dealt is not None
            trials = {
                host: sum(len(chunks[i]) for i in ids)
                for host, ids in dealt.items()
            }
            assert trials.get(fast.address, 0) > trials.get(slow.address, 0)
            second = executor.run(list(specs))
            assert chaos.results_key(second) == chaos.results_key(serial)
        finally:
            for server in servers:
                server.close()
            for thread in threads:
                thread.join(timeout=5.0)


@pytest.mark.slow
class TestRandomPlanSoak:
    """Seed-walk the random fault space (excluded from tier-1 via -m)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_plans_preserve_results(self, seed):
        plan = FaultPlan.random(seed, hosts=3, events=2)
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(plan, specs, hosts=3)
        chaos.assert_chaos_invariants(run, serial)
