"""The always-on estimation service: lifecycle, admission, checkpoints.

The acceptance contract of docs/SERVICE.md: a service killed mid-stream
and restored from its last checkpoint is **bit-identical** (canonical
snapshot equality: sorted JSON with every array as its dtype and bytes)
to an uninterrupted run at the same round, given the same post-restore
event stream.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.runtime import JournalReporter, TelemetryCollector
from repro.runtime.store import read_archive, write_archive
from repro.analysis.obs_report import read_journal, validate_journal
from repro.service import (
    SERVICE_FAMILIES,
    SERVICE_SCHEMA_VERSION,
    EstimationService,
    ServiceConfig,
    TokenBucket,
)


def small_config(**overrides):
    """A config small enough that boot + probes stay in milliseconds."""
    base = dict(
        seed=11,
        initial_size=300,
        estimators=("sample_collide", "aggregation"),
        probe_interval=5,
        sc_l=10,
        sc_timer=5.0,
        agg_restart_interval=10,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def plain(value):
    """``value`` with every array replaced by its dtype and bytes (hex)."""
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.tobytes().hex()]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def canonical(service: EstimationService) -> str:
    return json.dumps(plain(service.snapshot()), sort_keys=True)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(2.0, clock=clock)
        assert [bucket.allow() for _ in range(5)] == [True, True, False, False, False]
        clock.now += 1.0  # one second refills rate=2 tokens
        assert [bucket.allow() for _ in range(3)] == [True, True, False]

    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(0.0, clock=FakeClock())
        assert all(bucket.allow() for _ in range(100))

    def test_burst_caps_the_bucket(self):
        clock = FakeClock()
        bucket = TokenBucket(100.0, burst=1.0, clock=clock)
        clock.now += 60.0  # refill far past capacity
        assert bucket.allow()
        assert not bucket.allow()

    def test_nonpositive_burst_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(5.0, burst=0.0)


class TestServiceConfig:
    def test_families_are_validated(self):
        with pytest.raises(ValueError):
            ServiceConfig(estimators=("sample_collide", "bogus"))
        with pytest.raises(ValueError):
            ServiceConfig(estimators=())
        with pytest.raises(ValueError):
            ServiceConfig(estimators=("aggregation", "aggregation"))

    def test_every_known_family_is_constructible(self):
        assert ServiceConfig(estimators=SERVICE_FAMILIES).estimators == SERVICE_FAMILIES

    def test_knob_bounds(self):
        for kwargs in (
            {"initial_size": 0},
            {"probe_interval": 0},
            {"queue_limit": 0},
            {"max_qps": -1.0},
            {"snapshot_every": -1},
        ):
            with pytest.raises(ValueError):
                ServiceConfig(**kwargs)

    def test_config_round_trips_through_plain_data(self):
        config = small_config(max_qps=25.0, burst=5.0, snapshot_every=10)
        payload = json.loads(json.dumps(config.as_config()))
        assert ServiceConfig.from_config(payload) == config


class TestLifecycle:
    def test_boot_probes_every_family(self):
        service = EstimationService(small_config())
        estimates = service.read_estimates()
        assert set(estimates) == {"sample_collide", "aggregation"}
        # Probe families estimate at boot; aggregation needs a full epoch.
        assert estimates["sample_collide"]["value"] is not None
        assert estimates["sample_collide"]["staleness"] == 0
        assert estimates["aggregation"]["value"] is None
        assert estimates["aggregation"]["staleness"] is None

    def test_health_reports_round_size_and_queue(self):
        service = EstimationService(small_config())
        health = service.health()
        assert health["status"] == "ok"
        assert health["round"] == 0
        assert health["size"] == 300
        assert health["queued"] == 0
        service.ingest([{"joins": 5}])
        assert service.health()["queued"] == 1

    def test_ingested_events_apply_at_the_next_tick(self):
        service = EstimationService(small_config())
        service.ingest([{"joins": 50}])
        assert service.graph.size == 300  # queued, not yet applied
        service.tick()
        assert service.graph.size == 350
        assert service.health()["queued"] == 0

    def test_staleness_sawtooths_with_the_probe_interval(self):
        service = EstimationService(small_config())
        for expected in (1, 2, 3, 4, 0):
            service.tick()
            entry = service.read_estimates(["sample_collide"])["sample_collide"]
            assert entry["staleness"] == expected

    def test_aggregation_commits_at_epoch_boundaries(self):
        service = EstimationService(small_config())
        service.tick(10)
        assert service.read_estimates()["aggregation"]["value"] is None
        service.tick()  # round 11 closes the first restart_interval=10 epoch
        entry = service.read_estimates()["aggregation"]
        assert entry["value"] is not None and entry["value"] > 0
        assert entry["round"] == 11
        # The committed estimate then *holds* until the next epoch closes.
        service.tick(9)
        assert service.read_estimates()["aggregation"]["round"] == 11

    def test_unknown_family_raises_key_error(self):
        service = EstimationService(small_config())
        with pytest.raises(KeyError):
            service.read_estimates(["hops_sampling"])

    def test_invalid_ingest_event_rejected(self):
        service = EstimationService(small_config())
        with pytest.raises(ValueError):
            service.ingest([{"frac_leaves": 1.5}])

    @pytest.mark.parametrize(
        "event", [{"joins": 1.5}, {"leaves": 3.0}, {"frac_joins": float("inf")}]
    )
    def test_ingest_refuses_what_the_next_tick_would_fail_on(self, event):
        """Such an event used to queue, then kill the tick that applied it."""
        service = EstimationService(small_config())
        with pytest.raises(ValueError):
            service.ingest([event])
        assert service.health()["queued"] == 0
        assert service.tick() == 1


class TestAdmission:
    def test_estimate_throttles_beyond_max_qps(self):
        clock = FakeClock()
        service = EstimationService(small_config(max_qps=2.0), clock=clock)
        verdicts = [service.serve_estimate()[0] for _ in range(4)]
        assert verdicts == [True, True, False, False]
        _, payload = service.serve_estimate()
        assert payload["error"] == "throttled"
        clock.now += 1.0
        assert service.serve_estimate()[0]
        stats = service.stats_dict()
        assert stats["served"] == 3
        assert stats["throttled"] == 3

    def test_bounded_queue_sheds_and_reports(self):
        telemetry = TelemetryCollector()
        service = EstimationService(
            small_config(queue_limit=3), progress=telemetry
        )
        accepted, dropped = service.ingest([{"joins": 1}] * 5)
        assert (accepted, dropped) == (3, 2)
        stats = service.stats_dict()
        assert stats["ingest_accepted"] == 3
        assert stats["ingest_dropped"] == 2
        events = [e for e in telemetry.events if e["event"] == "ingest_dropped"]
        assert events == [{"event": "ingest_dropped", "dropped": 2, "queued": 3}]


class TestCheckpointRestore:
    def test_restore_is_bit_identical_to_uninterrupted(self, tmp_path):
        """Kill/restore vs. uninterrupted: canonical snapshots must match."""
        target = tmp_path / "svc.json"
        config = small_config()
        witness = EstimationService(config)
        service = EstimationService(config, snapshot_path=str(target))
        assert canonical(witness) == canonical(service)

        stream = [
            ([{"joins": 20}], 3),
            ([{"frac_leaves": 0.1}], 4),
            ([], 5),
        ]
        for events, rounds in stream[:2]:
            for live in (witness, service):
                live.ingest(events)
                live.tick(rounds)
        # Pending (queued, undrained) events must survive the checkpoint.
        for live in (witness, service):
            live.ingest([{"leaves": 7}])
        service.checkpoint()
        restored = EstimationService.from_checkpoint(str(target))

        events, rounds = stream[2]
        for live in (witness, restored):
            live.ingest(events)
            live.tick(rounds)
        assert restored.round == witness.round
        assert canonical(restored) == canonical(witness)
        assert restored.graph.size == witness.graph.size
        assert restored.read_estimates() == witness.read_estimates()

    def test_snapshot_payload_is_json_data_plus_arrays(self, tmp_path):
        service = EstimationService(small_config())
        service.tick(3)
        payload = service.snapshot()
        assert payload["schema"] == SERVICE_SCHEMA_VERSION
        # The overlay travels as its packed twin, the monitor's per-node
        # values as arrays; everything else is plain JSON data.
        assert sorted(payload["scheduler"]["graph"]) == ["indices", "indptr", "next_id", "nodes"]
        protocol = payload["families"]["aggregation"]["monitor"]["protocol"]
        assert protocol["nodes"].dtype == np.int64
        assert protocol["values"].dtype == np.float64
        target = tmp_path / "payload.npz"
        with open(target, "wb") as fh:
            write_archive(fh, payload)
        rebuilt = EstimationService.from_snapshot(read_archive(target))
        assert canonical(rebuilt) == json.dumps(plain(payload), sort_keys=True)

    def test_unsupported_schema_rejected(self):
        service = EstimationService(small_config())
        payload = dict(service.snapshot(), schema=999)
        with pytest.raises(ValueError):
            EstimationService.from_snapshot(payload)

    def test_periodic_checkpoints_on_the_snapshot_every_boundary(self, tmp_path):
        target = tmp_path / "auto.json"
        service = EstimationService(
            small_config(snapshot_every=4), snapshot_path=str(target)
        )
        service.tick(3)
        assert not target.exists()
        service.tick()
        assert target.exists()
        assert service.stats_dict()["checkpoints"] == 1

    def test_checkpoint_without_path_is_an_error(self):
        service = EstimationService(small_config())
        with pytest.raises(ValueError):
            service.checkpoint()


class TestJournal:
    def test_service_journal_validates(self, tmp_path):
        journal_path = tmp_path / "svc.jsonl"
        target = tmp_path / "svc.json"
        with JournalReporter(journal_path) as journal:
            service = EstimationService(
                small_config(queue_limit=2, snapshot_every=2),
                progress=journal,
                snapshot_path=str(target),
            )
            service.ingest([{"joins": 1}] * 4)  # 2 shed
            service.tick(2)  # crosses the snapshot_every boundary
            service.serve_estimate()
        events = read_journal(journal_path)
        assert validate_journal(events) == []
        kinds = [e["event"] for e in events]
        for expected in (
            "service_start",
            "ingest_dropped",
            "snapshot_checkpoint",
            "estimate_served",
        ):
            assert expected in kinds
        start = next(e for e in events if e["event"] == "service_start")
        assert start["families"] == ["sample_collide", "aggregation"]
        assert start["size"] == 300
