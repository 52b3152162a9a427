"""Checkpoint/restore under concurrent ingest and ticking.

The service's public mutators share one re-entrant lock, so a checkpoint
taken while ingesters and a ticker hammer the service must always be a
*consistent cut*: the file parses, restores, and the restored replica is
deterministic — never a torn mixture of pre- and post-tick state.  The
operational counters must also add up exactly across all writer threads.
"""

from __future__ import annotations

import threading
import time

from repro.runtime.store import read_archive
from repro.service.core import EstimationService

from test_service_core import canonical, small_config


class TestConcurrentIngestAndCheckpoint:
    def test_checkpoints_under_fire_always_restore(self, tmp_path):
        service = EstimationService(small_config(queue_limit=500))
        stop = threading.Event()
        errors = []
        sent = [0, 0, 0]

        def ingester(slot):
            count = 0
            while not stop.is_set():
                try:
                    service.ingest([{"joins": 1}, {"leaves": 1}])
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)
                    return
                count += 2
            sent[slot] = count

        def ticker():
            while not stop.is_set():
                try:
                    service.tick()
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)
                    return
                time.sleep(0.001)

        writers = [
            threading.Thread(target=ingester, args=(slot,), daemon=True)
            for slot in range(len(sent))
        ] + [threading.Thread(target=ticker, daemon=True)]
        for thread in writers:
            thread.start()
        try:
            for i in range(10):
                path = tmp_path / f"ckpt-{i}.json"
                service.checkpoint(str(path))
                restored = EstimationService.from_checkpoint(str(path))
                payload = read_archive(path)
                # The cut is internally consistent: the restored replica
                # reports exactly the captured round and pending queue.
                assert restored.round == payload["round"]
                assert len(restored._queue) == len(payload["pending"])
                time.sleep(0.01)
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=10.0)
        assert errors == []

        # Writer accounting adds up exactly: nothing double-counted or
        # lost across three ingesters racing a ticker and checkpoints.
        status = service.stats_dict()
        assert status["ingest_accepted"] + status["ingest_dropped"] == sum(sent)
        assert status["checkpoints"] == 10

    def test_restored_replicas_of_one_cut_are_deterministic(self, tmp_path):
        service = EstimationService(small_config(queue_limit=500))
        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                try:
                    service.ingest([{"frac_joins": 0.01}])
                    service.tick()
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)
                    return

        writer = threading.Thread(target=churn, daemon=True)
        writer.start()
        try:
            path = tmp_path / "cut.json"
            time.sleep(0.05)
            service.checkpoint(str(path))
        finally:
            stop.set()
            writer.join(timeout=10.0)
        assert errors == []

        # Two replicas of the same mid-fire cut must evolve identically:
        # if the checkpoint were torn, their futures would diverge.
        a = EstimationService.from_checkpoint(str(path))
        b = EstimationService.from_checkpoint(str(path))
        assert canonical(a) == canonical(b)
        a.tick(3)
        b.tick(3)
        assert canonical(a) == canonical(b)
        assert a.read_estimates() == b.read_estimates()
