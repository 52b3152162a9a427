"""The service's RPC surface: HTTP endpoints, binary frames, dispatch."""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading

import pytest

from repro.service import (
    EstimationService,
    ServiceClient,
    ServiceServer,
    recv_frame,
    send_frame,
)
from repro.runtime.store import read_archive
from repro.service.server import MAX_BODY_BYTES, MAX_TICK_ROUNDS, _dispatch, _ServiceHandler

from test_service_core import FakeClock, canonical, small_config


@pytest.fixture
def service() -> EstimationService:
    return EstimationService(small_config())


@pytest.fixture
def client(service):
    with ServiceServer(service) as server:
        yield ServiceClient(server.address)


class TestHTTP:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["size"] == 300
        assert health["families"] == ["sample_collide", "aggregation"]

    def test_estimate_round_trip(self, client):
        payload = client.estimate()
        assert payload["round"] == 0
        assert payload["estimates"]["sample_collide"]["value"] > 0

    def test_estimate_family_filter(self, client):
        payload = client.estimate(["sample_collide"])
        assert list(payload["estimates"]) == ["sample_collide"]

    def test_unknown_family_is_404(self, client):
        with pytest.raises(ServiceClient.Error) as exc:
            client.estimate(["hops_sampling"])
        assert exc.value.status == 404
        assert not isinstance(exc.value, ServiceClient.Throttled)

    def test_ingest_tick_estimate_flow(self, client):
        reply = client.ingest([{"joins": 40}])
        assert reply == {"accepted": 1, "dropped": 0}
        assert client.tick(2)["round"] == 2
        assert client.health()["size"] == 340

    def test_bad_ingest_body_is_400(self, client):
        with pytest.raises(ServiceClient.Error) as exc:
            client.ingest([{"frac_leaves": 2.0}])
        assert exc.value.status == 400

    def test_stats_counters_flow_through(self, client):
        client.estimate()
        stats = client.stats()
        assert stats["served"] == 1
        assert stats["ticks"] == 0

    def test_checkpoint_over_http(self, client, tmp_path):
        target = tmp_path / "svc.json"
        reply = client.checkpoint(str(target))
        assert reply["path"] == str(target)
        assert read_archive(target)["round"] == 0

    def test_throttled_read_raises_throttled(self):
        clock = FakeClock()
        service = EstimationService(small_config(max_qps=1.0), clock=clock)
        with ServiceServer(service) as server:
            client = ServiceClient(server.address)
            client.estimate()
            with pytest.raises(ServiceClient.Throttled) as exc:
                client.estimate()
            assert exc.value.status == 429

    def test_restart_resumes_identically_over_http(self, tmp_path):
        """The acceptance contract, end to end over the RPC surface."""
        target = tmp_path / "svc.json"
        config = small_config()
        witness = EstimationService(config)
        service = EstimationService(config, snapshot_path=str(target))
        with ServiceServer(service) as server:
            client = ServiceClient(server.address)
            client.ingest([{"joins": 10}])
            client.tick(6)
            client.checkpoint()
        witness.ingest([{"joins": 10}])
        witness.tick(6)

        restored = EstimationService.from_checkpoint(str(target))
        with ServiceServer(restored) as server:
            client = ServiceClient(server.address)
            client.ingest([{"frac_leaves": 0.2}])
            client.tick(5)
        witness.ingest([{"frac_leaves": 0.2}])
        witness.tick(5)
        assert canonical(restored) == canonical(witness)


@pytest.fixture
def connects(monkeypatch):
    """The thread of every ``http.client`` connect (perfbench counts these)."""
    calls = []
    original = http.client.HTTPConnection.connect

    def connect(conn):
        calls.append(threading.get_ident())
        return original(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return calls


class TestKeepAlive:
    def test_one_thread_reuses_one_connection(self, client, connects):
        for _ in range(50):
            assert client.estimate()["round"] == 0
        assert len(connects) == 1

    def test_threads_sharing_a_client_hold_one_connection_each(self, client, connects):
        errors, rounds = [], []

        def writer():
            try:
                for _ in range(10):
                    client.ingest([{"joins": 1}])
                    rounds.append(client.tick()["round"])
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        reads = [client.estimate() for _ in range(30)]
        thread.join(timeout=60)
        assert errors == []
        assert rounds == list(range(1, 11))
        assert all(set(r["estimates"]) == {"sample_collide", "aggregation"} for r in reads)
        assert len(connects) == 2 and len(set(connects)) == 2
        assert client.health()["size"] == 310

    def test_a_closed_server_serves_no_kept_alive_client(self, service):
        server = ServiceServer(service)
        server.start()
        client = ServiceClient(server.address, timeout=5.0)
        client.health()
        server.close()
        with pytest.raises(OSError):
            client.estimate()
        assert service.stats_dict()["served"] == 0

    def test_a_closed_server_drops_its_binary_connections(self, service):
        server = ServiceServer(service, binary_port=0)
        server.start()
        host, port = server.binary_address.split(":")
        with socket.create_connection((host, int(port)), timeout=5) as conn:
            send_frame(conn, {"op": "health"})
            assert recv_frame(conn)["status"] == 200
            server.close()
            with pytest.raises((EOFError, OSError)):
                send_frame(conn, {"op": "estimate"})
                recv_frame(conn)
        assert service.stats_dict()["served"] == 0

    def test_a_dropped_keep_alive_connection_retries_a_get_never_a_post(self):
        stub = _OneReplyPerConnection()
        try:
            client = ServiceClient(stub.address, timeout=5.0)
            assert client.health() == {"ok": True}  # opens connection 1
            assert client.health() == {"ok": True}  # 1 was dropped: retried on 2
            with pytest.raises(OSError):
                client.tick()  # 2 was dropped too: a POST is not resent
        finally:
            stub.close()
        assert stub.requests == [b"GET", b"GET"]


class _OneReplyPerConnection:
    """Answers the first request of each connection with a keep-alive
    reply, then closes the connection without saying so."""

    body = b'{"ok": true}'

    def __init__(self) -> None:
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.requests = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.sock.getsockname()[1]}"

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    request += chunk
                if request:
                    self.requests.append(request.split(b" ", 1)[0])
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(self.body), self.body)
                    )

    def close(self) -> None:
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join(timeout=10)


class _Received(io.RawIOBase):
    """The receive side of a fake socket: one canned chunk per read, noting
    what had been written back before each read."""

    def __init__(self, chunks, writes) -> None:
        self.chunks, self.writes = list(chunks), writes
        self.written_before = []

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        if not self.chunks:
            return 0
        self.written_before.append(b"".join(self.writes))
        chunk = self.chunks.pop(0)
        buf[: len(chunk)] = chunk
        return len(chunk)


class _Sent(io.RawIOBase):
    """The send side of a fake socket, for a handler that buffers its writes."""

    def __init__(self, writes) -> None:
        self.writes = writes

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return len(data)


class _FakeSocket:
    """Stands in for an accepted socket: canned request chunks in, every
    send and socket option out."""

    def __init__(self, *chunks: bytes) -> None:
        self.writes = []
        self.options = {}
        self.received = _Received(chunks, self.writes)

    def settimeout(self, timeout) -> None:
        pass

    def setsockopt(self, level, name, value) -> None:
        self.options[(level, name)] = value

    def makefile(self, mode, buffering=-1):
        if mode == "rb":
            return io.BufferedReader(self.received)
        return io.BufferedWriter(_Sent(self.writes))

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))


class _FakeServer:
    def __init__(self, service) -> None:
        self.service = service


def test_replies_leave_on_a_nodelay_socket(service):
    """No timing: the handler runs on a fake socket that records its options."""
    sock = _FakeSocket(
        b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        b"POST /tick HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n\r\n{\"rounds\": 2}"
    )
    _ServiceHandler(sock, ("127.0.0.1", 1), _FakeServer(service))
    assert sock.options[(socket.IPPROTO_TCP, socket.TCP_NODELAY)]
    replies = b"".join(sock.writes).split(b"HTTP/1.1 ")[1:]
    for reply, expected in zip(replies, ({"status": "ok"}, {"round": 2}), strict=True):
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"200 OK")
        assert expected.items() <= json.loads(body).items()


def test_expect_100_continue_is_sent_before_the_body_is_read(service):
    """A client that waits for the interim reply before sending its body
    (curl does for larger bodies) must get it without a flush elsewhere."""
    sock = _FakeSocket(
        b"POST /tick HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n"
        b"Expect: 100-continue\r\n\r\n",
        b'{"rounds": 2}',
    )
    _ServiceHandler(sock, ("127.0.0.1", 1), _FakeServer(service))
    before_headers, before_body = sock.received.written_before[:2]
    assert before_headers == b""
    assert before_body == b"HTTP/1.1 100 Continue\r\n\r\n"
    assert service.round == 2


def _raw_exchange(server, request: bytes) -> bytes:
    """Send ``request`` on a fresh socket; read the reply until the server closes."""
    host, port = server.address.split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(request)
        reply = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return reply
            reply += chunk


class TestRequestBodies:
    @pytest.mark.parametrize(
        "length, status",
        [(b"-1", 400), (b"abc", 400), (b"%d" % (MAX_BODY_BYTES + 1), 413),
         (b"100000000000000", 413)],
    )
    def test_a_bad_content_length_is_refused_and_closes(self, service, length, status):
        with ServiceServer(service) as server:
            reply = _raw_exchange(
                server, b"POST /tick HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n" % length
            )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close" in head
        assert "error" in json.loads(body)
        assert service.round == 0

    @pytest.mark.parametrize("body", [b"\xff\xfe{}", b"{nope"])
    def test_an_undecodable_body_is_a_400_on_a_live_connection(self, service, body):
        with ServiceServer(service) as server:
            host, port = server.address.split(":")
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                for _ in range(2):  # the connection survives the first 400
                    conn.sendall(
                        b"POST /tick HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                        % (len(body), body)
                    )
                    reply = http.client.HTTPResponse(conn)
                    reply.begin()
                    assert reply.status == 400
                    assert "invalid JSON body" in json.loads(reply.read())["error"]
        assert service.round == 0

    def test_an_unknown_post_endpoint_closes_the_connection(self, service):
        with ServiceServer(service) as server:
            reply = _raw_exchange(
                server, b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"
            )
        assert reply.startswith(b"HTTP/1.1 404 ")
        assert b"\r\nConnection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1  # the unread body never parses as a request

    def test_a_missing_content_length_is_an_empty_body(self, service):
        with ServiceServer(service) as server:
            host, port = server.address.split(":")
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                conn.sendall(b"POST /tick HTTP/1.1\r\nHost: x\r\n\r\n")
                reply = http.client.HTTPResponse(conn)
                reply.begin()
                assert reply.status == 200
                assert json.loads(reply.read()) == {"round": 1}


class TestBinary:
    def test_many_requests_per_connection(self, service):
        with ServiceServer(service, binary_port=0) as server:
            host, port = server.binary_address.split(":")
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                send_frame(conn, {"op": "health"})
                reply = recv_frame(conn)
                assert reply["status"] == 200
                assert reply["size"] == 300
                send_frame(conn, {"op": "ingest", "events": [{"joins": 5}]})
                assert recv_frame(conn)["accepted"] == 1
                send_frame(conn, {"op": "tick"})
                assert recv_frame(conn)["round"] == 1
                send_frame(conn, {"op": "estimate", "families": "sample_collide"})
                reply = recv_frame(conn)
                assert reply["status"] == 200
                assert list(reply["estimates"]) == ["sample_collide"]
                send_frame(conn, {"op": "nope"})
                assert recv_frame(conn)["status"] == 404

    def test_frames_are_json_not_pickle(self, service):
        with ServiceServer(service, binary_port=0) as server:
            host, port = server.binary_address.split(":")
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                send_frame(conn, {"op": "health"})
                recv_frame(conn)  # drain so the payload below is framed fresh
                send_frame(conn, {"op": "stats"})
                header = conn.recv(8, socket.MSG_WAITALL)
                length = int.from_bytes(header, "big")
                body = b""
                while len(body) < length:
                    body += conn.recv(length - len(body))
                json.loads(body.decode("utf-8"))  # must parse as plain JSON


    @pytest.mark.parametrize("body", [b"\xff\xfe", b"{not json", b"[1, 2]"])
    def test_undecodable_frames_are_transport_errors(self, body):
        """A frame that is not a UTF-8 JSON object raises OSError, on which
        the serving loop closes the connection."""
        sender, receiver = socket.socketpair()
        with sender, receiver:
            sender.sendall(len(body).to_bytes(8, "big") + body)
            with pytest.raises(OSError):
                recv_frame(receiver)


class TestDispatch:
    def test_status_codes(self, service):
        assert _dispatch(service, "health", {})[0] == 200
        assert _dispatch(service, "estimate", {"families": "bogus"})[0] == 404
        assert _dispatch(service, "ingest", {"events": "nope"})[0] == 400
        assert _dispatch(service, "tick", {"rounds": 0})[0] == 400
        assert _dispatch(service, "tick", {"rounds": "x"})[0] == 400
        assert _dispatch(service, "tick", {"rounds": 10**9})[0] == 400
        assert _dispatch(service, "tick", {"rounds": MAX_TICK_ROUNDS + 1})[0] == 400
        assert service.round == 0
        bad = {"events": [{"joins": 2}, {"joins": -1}]}
        assert _dispatch(service, "ingest", bad)[0] == 400
        assert _dispatch(service, "health", {})[1]["queued"] == 0
        assert _dispatch(service, "checkpoint", {})[0] == 400  # no path configured
        assert _dispatch(service, "missing", {})[0] == 404

    def test_throttled_is_429_on_both_transports(self):
        clock = FakeClock()
        service = EstimationService(small_config(max_qps=1.0), clock=clock)
        assert _dispatch(service, "estimate", {})[0] == 200
        status, payload = _dispatch(service, "estimate", {})
        assert status == 429
        assert payload["error"] == "throttled"
