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
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.analysis.obs_report import (
    journal_to_trace,
    read_journal,
    render_obs_summary,
    validate_journal,
)
from repro.churn.models import shrinking_trace
from repro.overlay.arraygraph import ArrayOverlayGraph
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
    PROTOCOL_VERSION,
    _RunState,
    _WorkerSession,
    recv_message,
    send_message,
)
from repro.runtime.pool import SnapshotBackbone
from repro.runtime.snapshots import ProbeReplayState
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


@contextlib.contextmanager
def fake_worker(reply):
    """A listener that answers every hello with ``reply``, then hangs up.

    Yields ``(address, hellos)``: ``hellos`` collects the hello of every
    accepted connection, in order — so its length counts the dials.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    hellos = []

    def serve():
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:  # listener shut down
                return
            with conn:
                try:
                    hellos.append(recv_message(conn))
                    send_message(conn, reply)
                except (EOFError, OSError):
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}", hellos
    finally:
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=5.0)


def _refuse_to_decode():
    raise ValueError("this result does not decode")


class _Undecodable:
    """Pickles fine; unpickling it raises :class:`ValueError`."""

    def __reduce__(self):
        return (_refuse_to_decode, ())


@contextlib.contextmanager
def scripted_worker(answer):
    """A worker that welcomes every dial, answers heartbeat pings and
    answers every ``chunk`` message with ``answer(message)``.

    Yields its address.  Unlike :func:`fake_worker` its heartbeat stays
    healthy, so only the dispatch path can notice a bad reply.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    conns = []

    def session(conn):
        with conn:
            try:
                recv_message(conn)  # the hello
                send_message(
                    conn, {"type": "welcome", "version": PROTOCOL_VERSION, "pid": 1}
                )
                while True:
                    message = recv_message(conn)
                    if message.get("type") == "ping":
                        send_message(conn, {"type": "pong", "seq": message.get("seq")})
                    elif message.get("type") == "chunk":
                        send_message(conn, answer(message))
                    else:
                        return
            except (EOFError, OSError):
                pass

    def serve():
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:  # listener shut down
                return
            conns.append(conn)
            threading.Thread(target=session, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
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
            blob = pickle.dumps([1, 2, 3], protocol=5)
            layout = struct.pack(">IQ", 0, len(blob))
            a.sendall(struct.pack(">Q", len(layout) + len(blob)) + layout + blob)
            with pytest.raises(OSError, match="expected a message dict"):
                recv_message(b)
        finally:
            a.close(), b.close()

    def test_arrays_round_trip_through_partial_sends(self):
        """A frame far larger than the socket buffer, sent from a socket
        with a timeout (whose sends may stop short), arrives whole."""
        a, b = socket.socketpair()
        a.settimeout(10.0)
        message = {
            "type": "chunk",
            "snapshot": {
                "nodes": np.arange(300_000, dtype=np.int32),
                "indices": np.arange(1_000_000, dtype=np.int64)[::-1].copy(),
                "values": np.linspace(0.0, 1.0, 200_000),
            },
        }
        sender = threading.Thread(target=send_message, args=(a, message))
        try:
            sender.start()
            got = recv_message(b)
            sender.join()
        finally:
            a.close(), b.close()
        assert got["type"] == "chunk"
        for name, array in message["snapshot"].items():
            assert got["snapshot"][name].dtype == array.dtype
            np.testing.assert_array_equal(got["snapshot"][name], array)

    @pytest.mark.parametrize(
        "bad_version",
        # 1 is a retired version; the string spells the right number.
        [0, -1, 1, str(PROTOCOL_VERSION), None, True, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1],
    )
    def test_handshake_invalid_version_is_fatal(self, bad_version):
        """Any hello but exactly PROTOCOL_VERSION gets an error frame, and
        the rejected peer leaves the worker serving well-formed drivers."""
        specs = _static_specs(count=4)
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
            results = ClusterExecutor(hosts, chunk_size=2).run(list(specs))
        assert_results_equal(run_chunk(list(specs)), results)

    def test_driver_does_not_redial_after_a_protocol_error(self):
        """A rejected hello is final: one dial, then OSError."""
        rejection = {"type": "error", "error": "protocol mismatch: v1 only"}
        with fake_worker(rejection) as (address, hellos):
            with pytest.raises(OSError, match="protocol mismatch"):
                _WorkerSession.connect(address, timeout=5.0)
            assert hellos == [{"type": "hello", "version": PROTOCOL_VERSION}]

    @pytest.mark.parametrize(
        "welcome",
        [
            {"type": "welcome", "version": PROTOCOL_VERSION, "pid": "x"},
            {"type": "welcome", "version": PROTOCOL_VERSION, "pid": True},
            {"type": "welcome", "version": PROTOCOL_VERSION},
            {"type": "welcome", "version": PROTOCOL_VERSION - 1, "pid": 1},
            {"type": "welcome", "version": str(PROTOCOL_VERSION), "pid": 1},
        ],
    )
    def test_malformed_welcome_fails_the_handshake(self, welcome):
        """The driver checks what the worker sends back, too."""
        with fake_worker(welcome) as (address, hellos):
            with pytest.raises(OSError, match="failed the handshake"):
                _WorkerSession.connect(address, timeout=5.0)
            assert len(hellos) == 1

    def test_heartbeat_session_answers_pings(self):
        """A heartbeat-role session answers ping with matching pong."""
        with cluster(1) as hosts:
            session = _WorkerSession.connect(hosts[0], timeout=5.0, role="heartbeat")
            try:
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

    @pytest.mark.parametrize("host_count", [1, 2, 3])
    def test_replay_kind_matches_serial(self, host_count):
        specs = _replay_specs()
        serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
        with cluster(host_count) as hosts:
            results = ClusterExecutor(hosts, chunk_size=3).run(list(specs))
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

    def test_malformed_welcome_loses_the_host_instead_of_hanging(self):
        """A host whose welcome carries a non-integer pid is lost once and
        its chunks migrate; the batch finishes and equals serial.  The
        join timeout only detects a hang: both of the host's driver
        threads used to die on the bad pid, stranding its chunk."""
        specs = _static_specs(count=8)
        serial = run_chunk(list(specs))
        telemetry = TelemetryCollector()
        bad_welcome = {"type": "welcome", "version": PROTOCOL_VERSION, "pid": "x"}
        run_box = {}
        with cluster(1) as hosts, fake_worker(bad_welcome) as (bad, _hellos):
            executor = ClusterExecutor(
                [hosts[0], bad],
                chunk_size=2,
                progress=telemetry,
                retries=0,
                heartbeat_interval=0.2,
                heartbeat_misses=5,
            )
            runner = threading.Thread(
                target=lambda: run_box.update(results=executor.run(list(specs))),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60.0)
            assert not runner.is_alive(), "ClusterExecutor.run hung"
        assert_results_equal(serial, run_box["results"])
        lost = [e for e in telemetry.events if e["event"] == "worker_lost"]
        assert [e["host"] for e in lost] == [bad]

    def test_undecodable_result_loses_the_host_instead_of_hanging(self, tmp_path):
        """A result frame whose metadata raises ``ValueError`` while it is
        unpickled loses its host, and the chunk migrates.  The join
        timeout only detects a hang: the error used to kill the host's
        dispatch thread while its heartbeat stayed healthy, so the chunk
        stayed in flight and the other host waited for it forever."""
        specs = _static_specs(count=8)
        serial = run_chunk(list(specs))
        journal_path = tmp_path / "run.jsonl"

        def undecodable(message):
            return {"type": "result", "chunk": message["chunk"], "results": _Undecodable()}

        run_box = {}
        with JournalReporter(journal_path) as journal:
            with cluster(1) as hosts, scripted_worker(undecodable) as bad:
                executor = ClusterExecutor(
                    [bad, hosts[0]],
                    chunk_size=2,
                    progress=journal,
                    retries=0,
                    heartbeat_interval=0.2,
                    heartbeat_misses=5,
                )
                runner = threading.Thread(
                    target=lambda: run_box.update(results=executor.run(list(specs))),
                    daemon=True,
                )
                runner.start()
                runner.join(timeout=30.0)
                assert not runner.is_alive(), "ClusterExecutor.run hung"
        assert_results_equal(serial, run_box["results"])
        events = read_journal(journal_path)
        assert validate_journal(events) == []
        lost = [e for e in events if e["event"] == "worker_lost"]
        assert [e["host"] for e in lost] == [bad]
        assert "undecodable" in lost[0]["reason"]

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


class _CountingBackbone:
    """A stand-in backbone: one fresh payload per boundary, targets logged."""

    def __init__(self):
        self.targets = []

    def payload_at(self, target):
        self.targets.append(target)
        return {"boundary": target}


def _hand_built_state(chunk_count, hosts, boundaries=True):
    """A batch's scheduler state with no threads, sockets or backbone."""
    specs = _static_specs(count=2 * chunk_count)
    chunks = [specs[2 * i : 2 * i + 2] for i in range(chunk_count)]
    targets = [10 * i for i in range(chunk_count)] if boundaries else None
    return _RunState(chunks, hosts, boundaries=targets)


class TestBoundaryHandOff:
    """The scheduler state machine driven step by step: no thread timing."""

    def test_claim_skips_a_chunk_completed_elsewhere(self):
        telemetry = TelemetryCollector()
        executor = ClusterExecutor(["a:1"], progress=telemetry)
        state = _hand_built_state(3, ["a:1"], boundaries=False)
        # Chunk 1 finished on another host while still queued here.
        executor._record(state, "b:2", 1, [])
        assert executor._claim(state, "a:1") == 0
        executor._record(state, "a:1", 0, [])
        assert executor._claim(state, "a:1") == 2
        executor._record(state, "a:1", 2, [])
        assert executor._claim(state, "a:1") is None
        starts = [e["chunk"] for e in telemetry.events if e["event"] == "chunk_start"]
        assert starts == [0, 2]

    def test_steal_skips_a_chunk_completed_elsewhere(self):
        hosts = ["a:1", "b:2"]
        telemetry = TelemetryCollector()
        executor = ClusterExecutor(hosts, progress=telemetry)
        state = _hand_built_state(6, hosts, boundaries=False)
        state.queues["a:1"].clear()
        # b's tail (chunk 5) completed already; a steals 3 instead.
        executor._record(state, None, 5, [])
        assert executor._claim(state, "a:1") == 3
        assert [e["chunk"] for e in telemetry.events if e["event"] == "steal"] == [3]
        assert list(state.queues["b:2"]) == [1]

    @pytest.mark.parametrize("host_count", [1, 2, 3])
    def test_round_robin_claims_hold_one_payload_per_host(self, host_count):
        hosts = [f"h{i}:1" for i in range(host_count)]
        executor = ClusterExecutor(hosts)
        state = _hand_built_state(8, hosts)
        backbone = _CountingBackbone()
        held = []

        def claim(host):
            chunk_id = executor._claim(state, host)
            while state.resolved < state.claimed:
                executor._resolve_next(state, backbone)
            assert state.payloads[chunk_id] == {"boundary": state.boundaries[chunk_id]}
            held.append(len(state.payloads))
            return chunk_id

        running = {host: claim(host) for host in hosts}
        while running:
            for host in list(running):
                executor._record(state, host, running.pop(host), [])
                held.append(len(state.payloads))
                if state.queues[host]:
                    running[host] = claim(host)
        assert max(held) == host_count
        assert backbone.targets == state.boundaries
        assert state.payloads == {}
        assert sorted(state.completed) == list(range(8))

    def test_a_migrated_chunk_keeps_its_payload(self):
        hosts = ["a:1", "b:2"]
        executor = ClusterExecutor(hosts)
        state = _hand_built_state(4, hosts)
        backbone = _CountingBackbone()
        first = executor._claim(state, "a:1")
        executor._resolve_next(state, backbone)
        executor._host_lost(state, "a:1", "test")
        # b runs its own chunks 1 and 3, then the migrated chunk 0 with
        # the payload resolved for a: each boundary resolves once.
        assert executor._claim(state, "b:2") == 1
        executor._resolve_next(state, backbone)
        executor._record(state, "b:2", 1, [])
        assert executor._claim(state, "b:2") == 3
        executor._resolve_next(state, backbone)
        executor._resolve_next(state, backbone)
        executor._record(state, "b:2", 3, [])
        assert executor._claim(state, "b:2") == first
        assert executor._await_boundary(state, "b:2", first)
        assert state.payloads[first] == {"boundary": 0}
        assert backbone.targets == [0, 10, 20, 30]

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 a caller's stack holds its call arguments until the call returns",
    )
    def test_a_host_frees_the_received_payload_at_the_first_departure(self, monkeypatch):
        """A host keeps no reference to the boundary payload it received,
        so the restored overlay holds the payload's arrays alone: they are
        freed when the chunk's first departure swaps in a new twin, and
        are dead by its second churn step."""
        specs = _replay_specs()
        booted = ProbeReplayState.boot(specs[0])
        booted.advance(4)
        chunk = {"type": "chunk", "chunk": 1, "specs": specs[8:], "snapshot": booted.snapshot()}
        received = []
        unpack = ArrayOverlayGraph.unpack.__func__

        def watch_unpack(cls, packed):
            received.append(weakref.ref(packed["indices"]))
            return unpack(cls, packed)

        alive = []
        advance = ProbeReplayState.advance

        def watch_advance(state, to_index):
            alive.append(received[0]() is not None)
            advance(state, to_index)

        monkeypatch.setattr(ArrayOverlayGraph, "unpack", classmethod(watch_unpack))
        monkeypatch.setattr(ProbeReplayState, "advance", watch_advance)
        with cluster(1) as hosts:
            session = _WorkerSession.connect(hosts[0], timeout=5.0)
            try:
                reply = session.request(chunk)
            finally:
                session.close()
        assert reply["type"] == "result", reply
        assert len(received) == 1 and len(alive) == COUNT - 4
        assert alive[:2] == [True, False]


class TestBoundaryFailures:
    def test_losing_every_host_resolves_the_rest_in_the_fallback(self):
        """Both hosts die on their second chunk: the driver finishes the
        batch serially and must resolve the unclaimed boundaries itself.
        The join timeout only detects a hang."""
        specs = _replay_specs()
        serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
        telemetry = TelemetryCollector()
        run_box = {}
        with cluster(2, **KILL_AFTER_ONE) as hosts:
            executor = ClusterExecutor(
                hosts, chunk_size=3, progress=telemetry, retries=0, heartbeat_interval=0
            )
            runner = threading.Thread(
                target=lambda: run_box.update(results=executor.run(list(specs))),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60.0)
            assert not runner.is_alive(), "ClusterExecutor.run hung"
        assert_results_equal(serial, run_box["results"])
        assert telemetry.count("worker_lost") == 2
        assert telemetry.count("partial_fallback") == 1
        # Every boundary resolved exactly once, in chunk order (chunk i
        # starts at spec 3i, index 3i // 2 + 1): at most four chunks were
        # claimed before both hosts died, so the fallback resolved the
        # other six.
        targets = [e["target"] for e in telemetry.events if e["event"] == "snapshot_boundary"]
        assert targets == [3 * i // 2 for i in range(10)]
        dones = [e["chunk"] for e in telemetry.events if e["event"] == "chunk_done"]
        assert sorted(dones) == list(range(10))

    def test_a_boundary_that_fails_to_resolve_fails_the_run(self, monkeypatch):
        """``payload_at`` raising is the batch's error, not a transport
        failure of the host that claimed the chunk; no dispatch or
        heartbeat thread outlives ``run``."""

        class Boom(Exception):
            pass

        real = SnapshotBackbone.payload_at

        def payload_at(self, target):
            if target == 4:
                raise Boom(f"boundary {target}")
            return real(self, target)

        monkeypatch.setattr(SnapshotBackbone, "payload_at", payload_at)
        specs = _replay_specs()
        telemetry = TelemetryCollector()
        with cluster(2) as hosts:
            executor = ClusterExecutor(
                hosts, chunk_size=3, progress=telemetry, retries=0, heartbeat_interval=0.05
            )
            with pytest.raises(Boom, match="boundary 4"):
                executor.run(list(specs))
            names = {f"cluster-{h}" for h in hosts} | {f"heartbeat-{h}" for h in hosts}
            assert [t.name for t in threading.enumerate() if t.name in names] == []
        assert telemetry.count("worker_lost") == 0
        assert telemetry.count("batch_finish") == 0
        targets = [e["target"] for e in telemetry.events if e["event"] == "snapshot_boundary"]
        assert targets == [0, 1, 3]


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
