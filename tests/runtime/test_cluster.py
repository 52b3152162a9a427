"""Cluster executor: loopback determinism, failure migration, protocol.

The harness spawns real :class:`WorkerServer` instances on loopback
sockets inside threads — the full wire protocol runs, only the "hosts"
share one process.  Fault-injection knobs on the server
(:class:`WorkerFaults`) make worker loss and work-stealing deterministic
to test.

The acceptance bar mirrors the pool's: results **bit-identical** to
serial at any host count, with unchanged content addresses — including
runs where a host dies mid-batch and its chunks migrate.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.analysis.obs_report import (
    journal_to_trace,
    read_journal,
    render_obs_summary,
    validate_journal,
)
from repro.churn.models import shrinking_trace
from repro.overlay.builders import heterogeneous_random
from repro.runtime import (
    ClusterExecutor,
    EstimatorSpec,
    JournalReporter,
    OverlaySpec,
    ResultsStore,
    RuntimeOptions,
    TelemetryCollector,
    TrialSpec,
    WorkerFaults,
    WorkerServer,
    parse_hosts,
    run_chunk,
    run_trials,
    trace_to_payload,
)
from repro.runtime.cluster import (
    MAX_MESSAGE_BYTES,
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    _WorkerSession,
    recv_message,
    send_message,
)
from repro.sim.rng import RngHub


def assert_results_equal(a, b):
    """Bit-identity of two result lists (NaN == NaN, unlike dict equality)."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert json.dumps(ra.as_dict(), sort_keys=True) == json.dumps(
            rb.as_dict(), sort_keys=True
        )


@contextlib.contextmanager
def cluster(count, **server_kwargs):
    """Spawn ``count`` loopback workers on threads; yields their addresses.

    ``server_kwargs`` may be a single dict applied to every worker or a
    per-worker list under the key ``each`` (e.g. ``each=[{"faults":
    WorkerFaults(kill_after_chunks=1)}, {}, {}]`` to kill only the first).
    """
    each = server_kwargs.pop("each", None)
    kwargs = each if each is not None else [dict(server_kwargs)] * count
    servers = [WorkerServer(**kw) for kw in kwargs]
    threads = [
        threading.Thread(target=s.serve_forever, daemon=True) for s in servers
    ]
    for thread in threads:
        thread.start()
    try:
        yield [s.address for s in servers]
    finally:
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=5.0)


N, COUNT = 300, 15

#: Server kwargs for a worker that dies after serving one chunk.
KILL_AFTER_ONE = {"faults": WorkerFaults(kill_after_chunks=1)}


def _static_specs(count=40, seed=7):
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


def _replay_specs(seed=17):
    overlay = OverlaySpec.heterogeneous(N)
    params = {
        "trace": trace_to_payload(
            shrinking_trace(N, 0.5, start=1.0, end=float(COUNT), steps=COUNT - 1)
        ),
        "time_per_estimation": 1.0,
        "max_degree": 10,
    }
    return [
        TrialSpec(
            "multi_probe",
            seed,
            i,
            overlay=overlay,
            estimator=EstimatorSpec.hops_sampling(),
            params=params,
            stream=k,
        )
        for i in range(1, COUNT + 1)
        for k in range(2)
    ]


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_message_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"type": "chunk", "chunk": 3, "specs": [1, 2], "snapshot": None}
            send_message(a, payload)
            assert recv_message(b) == payload
        finally:
            a.close(), b.close()

    def test_clean_close_raises_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">Q", MAX_MESSAGE_BYTES + 1))
            with pytest.raises(OSError):
                recv_message(b)
        finally:
            a.close(), b.close()

    def test_non_dict_message_rejected(self):
        a, b = socket.socketpair()
        try:
            blob = pickle.dumps([1, 2, 3])
            a.sendall(struct.pack(">Q", len(blob)) + blob)
            with pytest.raises(OSError):
                recv_message(b)
        finally:
            a.close(), b.close()

    @pytest.mark.parametrize("bad_version", [0, -1, "2", None, True])
    def test_handshake_invalid_version_is_fatal(self, bad_version):
        """Offers below the floor (or non-integers) fail the handshake."""
        with cluster(1) as hosts:
            name, _, port = hosts[0].rpartition(":")
            sock = socket.create_connection((name, int(port)), timeout=5.0)
            try:
                send_message(sock, {"type": "hello", "version": bad_version})
                reply = recv_message(sock)
                assert reply["type"] == "error"
                assert "protocol" in reply["error"]
            finally:
                sock.close()

    def test_handshake_negotiates_down_to_worker_version(self):
        """A newer driver's offer is answered with the worker's own version."""
        with cluster(1) as hosts:
            name, _, port = hosts[0].rpartition(":")
            sock = socket.create_connection((name, int(port)), timeout=5.0)
            try:
                send_message(
                    sock, {"type": "hello", "version": PROTOCOL_VERSION + 7}
                )
                reply = recv_message(sock)
                assert reply["type"] == "welcome"
                assert reply["version"] == PROTOCOL_VERSION
            finally:
                sock.close()

    def test_handshake_accepts_legacy_v1_driver(self):
        """An old v1 driver (no role field) still gets a v1 chunk session."""
        specs = _static_specs(count=2)
        with cluster(1) as hosts:
            name, _, port = hosts[0].rpartition(":")
            sock = socket.create_connection((name, int(port)), timeout=5.0)
            try:
                send_message(
                    sock, {"type": "hello", "version": MIN_PROTOCOL_VERSION}
                )
                reply = recv_message(sock)
                assert reply["type"] == "welcome"
                assert reply["version"] == MIN_PROTOCOL_VERSION
                send_message(
                    sock,
                    {"type": "chunk", "chunk": 0, "specs": specs, "snapshot": None},
                )
                result = recv_message(sock)
                assert result["type"] == "result"
                assert len(result["results"]) == len(specs)
            finally:
                sock.close()

    def test_driver_downgrades_against_legacy_v1_worker(self):
        """A new driver re-dials a strict-v1 worker with the floor version."""
        listener = socket.create_server(("127.0.0.1", 0))
        address = f"127.0.0.1:{listener.getsockname()[1]}"

        def legacy_worker():
            # A pre-negotiation worker: strict equality on version 1.
            for _ in range(2):
                try:
                    conn, _addr = listener.accept()
                except OSError:
                    return
                try:
                    hello = recv_message(conn)
                    if hello.get("version") != MIN_PROTOCOL_VERSION:
                        send_message(
                            conn,
                            {"type": "error", "error": "protocol mismatch: v1 only"},
                        )
                        continue
                    send_message(
                        conn,
                        {
                            "type": "welcome",
                            "version": MIN_PROTOCOL_VERSION,
                            "pid": 4242,
                        },
                    )
                    return
                finally:
                    conn.close()

        thread = threading.Thread(target=legacy_worker, daemon=True)
        thread.start()
        try:
            session = _WorkerSession.connect(address, timeout=5.0)
            assert session.version == MIN_PROTOCOL_VERSION
            assert session.pid == 4242
            session.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_heartbeat_session_answers_pings(self):
        """A v2 heartbeat-role session answers ping with matching pong."""
        with cluster(1) as hosts:
            session = _WorkerSession.connect(hosts[0], timeout=5.0, role="heartbeat")
            try:
                assert session.version == PROTOCOL_VERSION
                for seq in (1, 2, 3):
                    reply = session.request({"type": "ping", "seq": seq})
                    assert reply == {"type": "pong", "seq": seq}
            finally:
                session.close(polite=True)


class TestParseHosts:
    def test_csv_string(self):
        assert parse_hosts("a:1, b:2 ,") == ("a:1", "b:2")

    def test_sequence(self):
        assert parse_hosts(["a:1", "b:2"]) == ("a:1", "b:2")

    def test_none_and_empty(self):
        assert parse_hosts(None) == ()
        assert parse_hosts("") == ()
        assert parse_hosts([]) == ()

    @pytest.mark.parametrize("bad", ["nohost", "a:", ":1", "a:notaport", "a:0", "a:70000"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_hosts(bad)


# ----------------------------------------------------------------------
# determinism: serial == cluster at any host count
# ----------------------------------------------------------------------


class TestClusterDeterminism:
    def test_static_probe_two_hosts_matches_serial(self):
        specs = _static_specs()
        serial = run_chunk(list(specs))
        with cluster(2) as hosts:
            results = ClusterExecutor(hosts).run(list(specs))
        assert_results_equal(serial, results)

    @pytest.mark.parametrize("host_count", [2, 3])
    def test_replay_kind_matches_serial(self, host_count):
        specs = _replay_specs()
        serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
        with cluster(host_count) as hosts:
            results = ClusterExecutor(hosts, chunk_size=3).run(list(specs))
        assert_results_equal(serial, results)

    def test_snapshots_off_matches_serial(self):
        specs = _replay_specs()
        serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
        with cluster(2) as hosts:
            results = ClusterExecutor(hosts, chunk_size=3, snapshots=False).run(
                list(specs)
            )
        assert_results_equal(serial, results)

    def test_content_addresses_match_process_pool(self, tmp_path):
        """Cluster and pool runs of one batch land at the same store key."""
        specs = _replay_specs()
        store_pool = ResultsStore(tmp_path / "pool")
        store_cluster = ResultsStore(tmp_path / "cluster")
        pool_results = run_trials(
            specs, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store_pool)
        )
        with cluster(2) as hosts:
            cluster_results = run_trials(
                specs,
                runtime=RuntimeOptions(
                    hosts=parse_hosts(hosts), chunk_size=3, store=store_cluster
                ),
            )
        assert_results_equal(pool_results, cluster_results)
        keys_pool = {
            i.key for i in store_pool.artifacts() if i.payload == "results"
        }
        keys_cluster = {
            i.key for i in store_cluster.artifacts() if i.payload == "results"
        }
        assert keys_pool == keys_cluster

    def test_run_trials_routes_hosts_to_cluster(self):
        """RuntimeOptions.create accepts the CLI's CSV host string."""
        specs = _static_specs(count=12)
        serial = run_chunk(list(specs))
        telemetry = TelemetryCollector()
        with cluster(2) as hosts:
            runtime = RuntimeOptions.create(
                hosts=",".join(hosts), progress=telemetry
            )
            results = run_trials(specs, runtime=runtime)
        assert_results_equal(serial, results)
        assert telemetry.count("worker_connect") >= 1


# ----------------------------------------------------------------------
# failure handling
# ----------------------------------------------------------------------


class TestWorkerLoss:
    def test_crash_mid_batch_migrates_and_matches_serial(self):
        """Kill one of three workers mid-batch: bit-identical results,
        exactly-once chunk accounting, and the full event trail."""
        specs = _replay_specs()
        serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
        telemetry = TelemetryCollector()
        with cluster(3, each=[KILL_AFTER_ONE, {}, {}]) as hosts:
            executor = ClusterExecutor(
                hosts, chunk_size=3, progress=telemetry, retries=1, backoff=0.01
            )
            results = executor.run(list(specs))
        assert_results_equal(serial, results)
        assert telemetry.count("worker_lost") == 1
        assert telemetry.count("chunk_migrated") >= 1
        # Exactly-once: every chunk announced once, completed once, and
        # the completed trial counts cover the batch exactly.
        starts = [e["chunk"] for e in telemetry.events if e["event"] == "chunk_start"]
        dones = [e["chunk"] for e in telemetry.events if e["event"] == "chunk_done"]
        assert sorted(starts) == sorted(set(starts))
        assert sorted(dones) == sorted(set(dones))
        assert sorted(starts) == sorted(dones)
        done_trials = sum(
            e["trials"] for e in telemetry.events if e["event"] == "chunk_done"
        )
        assert done_trials == len(specs)

    def test_all_hosts_dead_falls_back_serially(self):
        """Unreachable hosts: the driver finishes the batch itself."""
        # Bind-then-close gives ports that refuse connections immediately.
        doomed = [WorkerServer() for _ in range(2)]
        hosts = [s.address for s in doomed]
        for server in doomed:
            server.close()
        specs = _static_specs(count=12)
        serial = run_chunk(list(specs))
        telemetry = TelemetryCollector()
        executor = ClusterExecutor(
            hosts, chunk_size=3, progress=telemetry, retries=0, backoff=0.01
        )
        results = executor.run(list(specs))
        assert_results_equal(serial, results)
        assert telemetry.count("worker_lost") == 2
        assert telemetry.count("partial_fallback") == 1
        assert telemetry.count("batch_finish") == 1

    def test_idle_worker_death_detected_by_heartbeat(self):
        """Regression for the silent-failure window: a worker that dies
        while *idle* (its queue drained, nothing in flight) used to stay
        "live" until the batch drained; the heartbeat monitor must now
        declare it lost while the batch is still running."""
        specs = _static_specs(count=8)
        serial = run_chunk(list(specs))
        telemetry = TelemetryCollector()
        slow = WorkerServer(faults=WorkerFaults(slow_seconds=1.0))
        fast = WorkerServer()
        servers = [slow, fast]
        threads = [
            threading.Thread(target=s.serve_forever, daemon=True) for s in servers
        ]
        for thread in threads:
            thread.start()
        try:
            done = threading.Event()
            run_box = {}

            def drive():
                executor = ClusterExecutor(
                    [slow.address, fast.address],
                    chunk_size=4,
                    progress=telemetry,
                    heartbeat_interval=0.05,
                    heartbeat_misses=2,
                )
                run_box["results"] = executor.run(list(specs))
                done.set()

            driver = threading.Thread(target=drive, daemon=True)
            driver.start()
            # The fast worker finishes its one chunk and goes idle while
            # the slow worker is still sleeping; then it "dies".
            time.sleep(0.4)
            assert not done.is_set(), "batch drained before the fault fired"
            fast.close()
            driver.join(timeout=30.0)
            assert done.is_set()
        finally:
            for server in servers:
                server.close()
            for thread in threads:
                thread.join(timeout=5.0)
        assert_results_equal(serial, run_box["results"])
        lost = [e for e in telemetry.events if e["event"] == "worker_lost"]
        assert [e["host"] for e in lost] == [fast.address]
        assert "heartbeat" in lost[0]["reason"]
        assert telemetry.count("heartbeat_miss") >= 2
        # The loss must be observed mid-batch — before the batch finish —
        # not discovered after the fact.
        kinds = [e["event"] for e in telemetry.events]
        assert kinds.index("worker_lost") < kinds.index("batch_finish")

    def test_worker_side_exception_aborts_the_batch(self):
        """A deterministic chunk error must raise, not migrate forever."""
        specs = [TrialSpec("no_such_kind", 7, i) for i in range(1, 5)]
        with cluster(2) as hosts:
            executor = ClusterExecutor(hosts, chunk_size=2, retries=0)
            with pytest.raises(RuntimeError, match="no_such_kind"):
                executor.run(list(specs))

    def test_requires_hosts(self):
        with pytest.raises(ValueError):
            ClusterExecutor([])
        with pytest.raises(ValueError):
            ClusterExecutor(["a:1", "a:1"])


class TestScheduling:
    def test_idle_host_steals_from_straggler(self):
        """A delayed worker loses tail chunks to the fast one — results
        unchanged, ``steal`` events reported."""
        specs = _static_specs(count=40)
        serial = run_chunk(list(specs))
        telemetry = TelemetryCollector()
        slow = {"faults": WorkerFaults(slow_seconds=0.3)}
        with cluster(2, each=[slow, {}]) as hosts:
            executor = ClusterExecutor(hosts, chunk_size=4, progress=telemetry)
            results = executor.run(list(specs))
        assert_results_equal(serial, results)
        assert telemetry.count("steal") >= 1

    def test_non_portable_batch_runs_serially(self):
        """Live graphs can't cross sockets: explicit fallback, same results."""
        graph = heterogeneous_random(80, rng=RngHub(3).stream("overlay"))
        specs = [
            TrialSpec(
                "static_probe",
                3,
                i,
                overlay=graph,
                estimator=EstimatorSpec.sample_collide(l=10),
            )
            for i in range(1, 6)
        ]
        serial = run_chunk(
            [
                TrialSpec(
                    "static_probe",
                    3,
                    i,
                    overlay=graph.copy(),
                    estimator=EstimatorSpec.sample_collide(l=10),
                )
                for i in range(1, 6)
            ]
        )
        telemetry = TelemetryCollector()
        # Hosts never contacted: no servers are running behind them.
        executor = ClusterExecutor(["127.0.0.1:1", "127.0.0.1:2"], progress=telemetry)
        results = executor.run(specs)
        assert_results_equal(serial, results)
        assert telemetry.count("fallback") == 1
        assert telemetry.count("worker_connect") == 0

    def test_empty_batch(self):
        assert ClusterExecutor(["127.0.0.1:1"]).run([]) == []


# ----------------------------------------------------------------------
# journal integration
# ----------------------------------------------------------------------


class TestClusterJournal:
    def test_distributed_run_journal_validates(self, tmp_path):
        """A real distributed run with an injected crash produces a journal
        `obs validate` accepts, including the cluster event types."""
        journal_path = tmp_path / "cluster.jsonl"
        specs = _replay_specs()
        with JournalReporter(journal_path) as journal:
            with cluster(3, each=[KILL_AFTER_ONE, {}, {}]) as hosts:
                # retries=0 so the crashed host is declared lost on first
                # failure — with backoff, healthy peers can steal all of
                # its work before retries exhaust and the loss never fires.
                executor = ClusterExecutor(
                    hosts, chunk_size=3, progress=journal, retries=0
                )
                executor.run(list(specs))
        events = read_journal(journal_path)
        assert validate_journal(events) == []
        kinds = {e["event"] for e in events}
        assert "worker_connect" in kinds
        assert "worker_lost" in kinds
        assert "chunk_migrated" in kinds


DATA = pathlib.Path(__file__).parent / "data"


class TestGoldenClusterJournal:
    """The committed distributed-run journal stays valid and renderable."""

    def test_golden_journal_validates(self):
        events = read_journal(DATA / "golden_cluster_journal.jsonl")
        assert validate_journal(events) == []

    def test_golden_journal_summary_counts_cluster_events(self):
        events = read_journal(DATA / "golden_cluster_journal.jsonl")
        summary = render_obs_summary(events)
        assert "cluster hosts: 3" in summary
        assert "workers lost: 1" in summary
        assert "chunks migrated: 1" in summary
        assert "steals: 1" in summary

    def test_golden_journal_trace_has_cluster_instants(self):
        events = read_journal(DATA / "golden_cluster_journal.jsonl")
        trace = journal_to_trace(events)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "worker connect 10.0.0.1:7700" in names
        assert "worker lost 10.0.0.2:7700" in names
        assert "chunk 1 migrated" in names
        assert "chunk 1 stolen" in names


class TestGoldenHeartbeatJournal:
    """The committed heartbeat-detected-loss journal stays valid.

    The fixture tells the canonical chaos story: a kill fault fires on a
    worker whose queue is empty, the heartbeat monitor counts it out, the
    loss is declared mid-batch and its queued chunk migrates — all on one
    timeline ``obs validate`` accepts.
    """

    def test_golden_heartbeat_journal_validates(self):
        events = read_journal(DATA / "golden_heartbeat_journal.jsonl")
        assert validate_journal(events) == []

    def test_golden_heartbeat_journal_orders_cause_before_recovery(self):
        events = read_journal(DATA / "golden_heartbeat_journal.jsonl")
        kinds = [e["event"] for e in events]
        fault = kinds.index("fault_injected")
        misses = [i for i, k in enumerate(kinds) if k == "heartbeat_miss"]
        lost = kinds.index("worker_lost")
        assert fault < misses[0] < misses[-1] < lost < kinds.index("chunk_migrated")
        assert lost < kinds.index("batch_finish")
        threshold = events[misses[-1]]["threshold"]
        assert events[misses[-1]]["misses"] == threshold

    def test_golden_heartbeat_journal_summary_counts_liveness_events(self):
        events = read_journal(DATA / "golden_heartbeat_journal.jsonl")
        summary = render_obs_summary(events)
        assert "cluster hosts: 2" in summary
        assert "workers lost: 1" in summary
        assert "chunks migrated: 1" in summary
        assert "heartbeat misses: 2" in summary
        assert "faults injected: 1" in summary

    def test_golden_heartbeat_journal_trace_has_liveness_instants(self):
        events = read_journal(DATA / "golden_heartbeat_journal.jsonl")
        trace = journal_to_trace(events)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "fault kill_worker on 10.0.0.2:7700" in names
        assert "heartbeat miss 10.0.0.2:7700" in names
        assert "worker lost 10.0.0.2:7700" in names
        assert "chunk 2 migrated" in names
