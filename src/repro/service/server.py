"""Network surface of the estimation service: HTTP/JSON plus framed binary.

Two transports share one :class:`~repro.service.core.EstimationService`:

* **HTTP/JSON** (:class:`ServiceServer`) — the operational surface.
  ``GET /health``, ``GET /estimate``, ``GET /stats`` and
  ``POST /ingest`` / ``/tick`` / ``/checkpoint``; throttled estimate
  reads return ``429``.  Built on the stdlib threading HTTP server so
  the service stays dependency-free.  Connections are persistent
  (HTTP/1.1 keep-alive, one handler thread per connection, not per
  request), each reply leaves on a ``TCP_NODELAY`` socket, and a
  request body is checked at the door: a malformed or negative
  ``Content-Length`` is a ``400``, one above :data:`MAX_BODY_BYTES` a
  ``413`` sent before anything is read, and both close the connection;
  a body that is not UTF-8 JSON is a ``400``.
* **binary frames** — an optional listener speaking the length-prefixed
  framing of :mod:`repro.runtime.framing`, which the cluster transport
  shares (8-byte big-endian length + payload), but carrying UTF-8 JSON
  instead of pickles: the service faces untrusted clients, and JSON
  frames are safe to parse where pickles are not.  One request dict in, one
  response dict out, many per connection.  This is the "small
  self-describing request/response transport" shape of the Mercury RPC
  work cited in PAPERS.md.

:class:`ServiceClient` is the thin HTTP client (used by
``examples/churn_monitoring.py`` and perfbench's ``service_mixed``
workload): one persistent ``http.client`` connection per calling thread,
stdlib only.  This module imports the service for type checking alone,
so importing the client loads neither numpy nor any ``repro`` module but
the framing one (``tests/test_import_graph.py`` pins it).
Endpoint semantics are documented in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from ..runtime.framing import _HEADER, _Connections, _recv_exact, _recv_length

if TYPE_CHECKING:  # the client never needs the service (or numpy)
    from .core import EstimationService

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_TICK_ROUNDS",
    "ServiceClient",
    "ServiceServer",
    "recv_frame",
    "send_frame",
]

#: Largest request body the HTTP surface reads (4 MiB: ~150k ingest
#: events, far beyond any queue limit); a longer ``Content-Length`` is
#: answered ``413`` before a byte of the body is read.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Most rounds one ``/tick`` request advances; more is a ``400``, so one
#: request cannot hold the service lock for as long as its sender likes.
MAX_TICK_ROUNDS = 100


# ----------------------------------------------------------------------
# Binary framing (cluster discipline, JSON payloads)
# ----------------------------------------------------------------------


def send_frame(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Frame and send one message: 8-byte length prefix + UTF-8 JSON."""
    payload = json.dumps(dict(message)).encode("utf-8")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Receive one framed JSON message; :class:`EOFError` on clean close.

    A frame that is not a UTF-8 JSON object raises :class:`OSError`, the
    transport failure every caller already handles.
    """
    body = _recv_exact(sock, _recv_length(sock))
    try:
        message = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise OSError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise OSError(f"expected a message dict, got {type(message).__name__}")
    return message


# ----------------------------------------------------------------------
# Request dispatch (shared by both transports)
# ----------------------------------------------------------------------


def _dispatch(service: EstimationService, op: str, body: Mapping[str, Any]) -> Tuple[int, Dict[str, Any]]:
    """Map one request onto the service; returns ``(status, payload)``.

    ``op`` is the endpoint name without the slash; ``body`` carries the
    request parameters (query string or JSON body — both transports
    normalise to a dict).  Status codes follow HTTP even on the binary
    path, so both transports report throttling as 429.
    """
    if op == "health":
        return 200, service.health()
    if op == "stats":
        return 200, service.stats_dict()
    if op == "estimate":
        families = body.get("families")
        if isinstance(families, str):
            families = [f for f in families.split(",") if f]
        try:
            admitted, payload = service.serve_estimate(families)
        except KeyError as exc:
            return 404, {"error": str(exc.args[0]) if exc.args else str(exc)}
        return (200, payload) if admitted else (429, payload)
    if op == "ingest":
        events = body.get("events", [])
        if not isinstance(events, list):
            return 400, {"error": "ingest body must carry an 'events' list"}
        try:
            accepted, dropped = service.ingest(events)
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        return 200, {"accepted": accepted, "dropped": dropped}
    if op == "tick":
        try:
            rounds = int(body.get("rounds", 1))
        except (TypeError, ValueError):
            return 400, {"error": "rounds must be an integer"}
        if not 1 <= rounds <= MAX_TICK_ROUNDS:
            return 400, {"error": f"rounds must be in 1..{MAX_TICK_ROUNDS}"}
        return 200, {"round": service.tick(rounds)}
    if op == "checkpoint":
        try:
            path = service.checkpoint(body.get("path"))
        except ValueError as exc:
            return 400, {"error": str(exc)}
        return 200, {"path": path, "round": int(service.round)}
    return 404, {"error": f"unknown endpoint {op!r}"}


_GET_OPS = frozenset({"health", "stats", "estimate"})
_POST_OPS = frozenset({"ingest", "tick", "checkpoint", "estimate"})


class _ServiceHandler(BaseHTTPRequestHandler):
    """stdlib HTTP handler bridging requests into :func:`_dispatch`.

    One handler serves every request of its keep-alive connection, on a
    socket with Nagle's algorithm off: a reply goes out as two sends
    (headers, then body), and with Nagle on the body would wait for the
    client's delayed ACK of the headers.
    """

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (journals cover telemetry)."""

    def _respond(self, status: int, payload: Mapping[str, Any], close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        """Serve the read surface: /health, /stats, /estimate."""
        parsed = urlparse(self.path)
        op = parsed.path.strip("/")
        if op not in _GET_OPS:
            self._respond(404, {"error": f"unknown endpoint {parsed.path!r}"})
            return
        body = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        status, payload = _dispatch(self.server.service, op, body)
        self._respond(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        """Serve the write surface: /ingest, /tick, /checkpoint."""
        parsed = urlparse(self.path)
        op = parsed.path.strip("/")
        if op not in _POST_OPS:
            # The body is left unread, so the connection cannot carry on.
            self._respond(404, {"error": f"unknown endpoint {parsed.path!r}"}, close=True)
            return
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._respond(400, {"error": f"bad Content-Length {declared!r}"}, close=True)
            return
        if length > MAX_BODY_BYTES:
            self._respond(
                413,
                {"error": f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"},
                close=True,
            )
            return
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError as exc:  # not UTF-8, or not JSON
            self._respond(400, {"error": f"invalid JSON body: {exc}"})
            return
        if not isinstance(body, dict):
            self._respond(400, {"error": "request body must be a JSON object"})
            return
        status, payload = _dispatch(self.server.service, op, body)
        self._respond(status, payload)


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the shared service reference and
    registers each accepted connection in ``conns`` while it is open."""

    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], service: EstimationService, conns: _Connections
    ) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service
        self.conns = conns

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        self.conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        self.conns.discard(request)
        super().shutdown_request(request)


class ServiceServer:
    """Serve one :class:`EstimationService` over HTTP (+ optional frames).

    Binding port 0 picks a free port; :attr:`address` (and
    :attr:`binary_address`) report the actual ``host:port`` — the CLI
    prints them in machine-parsable ``REPRO_SERVICE_ADDR=`` lines for CI
    smoke jobs.  ``serve_forever`` blocks; ``start`` runs the acceptors
    on daemon threads for embedding (tests, the example client).
    """

    def __init__(
        self,
        service: EstimationService,
        host: str = "127.0.0.1",
        port: int = 0,
        binary_port: Optional[int] = None,
    ) -> None:
        self.service = service
        self._conns = _Connections()
        self._http = _ServiceHTTPServer((host, port), service, self._conns)
        self._binary: Optional[socket.socket] = None
        self._binary_addr: Optional[Tuple[str, int]] = None
        if binary_port is not None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, binary_port))
            sock.listen(16)
            self._binary = sock
            self._binary_addr = sock.getsockname()[:2]
        self._threads: List[threading.Thread] = []
        self._closing = threading.Event()

    @property
    def address(self) -> str:
        """The bound HTTP ``host:port`` (resolved even when port 0 was asked)."""
        host, port = self._http.server_address[:2]
        return f"{host}:{port}"

    @property
    def binary_address(self) -> Optional[str]:
        """The bound binary ``host:port``, or ``None`` without a binary listener."""
        if self._binary_addr is None:
            return None
        return f"{self._binary_addr[0]}:{self._binary_addr[1]}"

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Run both acceptors on daemon threads and return immediately."""
        http_thread = threading.Thread(
            target=self._http.serve_forever, name="service-http", daemon=True
        )
        http_thread.start()
        self._threads.append(http_thread)
        if self._binary is not None:
            accept_thread = threading.Thread(
                target=self._accept_binary, name="service-binary", daemon=True
            )
            accept_thread.start()
            self._threads.append(accept_thread)

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (CLI entry point)."""
        self.start()
        try:
            self._closing.wait()
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        """Stop the acceptors, release both listeners and sever every
        open connection, so no kept-alive client reaches the service of a
        closed server."""
        self._closing.set()
        self._http.shutdown()
        self._http.server_close()
        if self._binary is not None:
            try:
                # shutdown wakes an accept() already blocked on the
                # listener, which close() alone does not (WorkerServer.close).
                self._binary.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._binary.close()
        self._conns.sever()

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- binary transport ----------------------------------------------

    def _accept_binary(self) -> None:
        assert self._binary is not None
        while not self._closing.is_set():
            try:
                conn, _ = self._binary.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_binary, args=(conn,), daemon=True
            ).start()

    def _serve_binary(self, conn: socket.socket) -> None:
        self._conns.add(conn)
        try:
            with conn:
                # A connection accepted while close() ran is never served.
                while not self._closing.is_set():
                    try:
                        message = recv_frame(conn)
                    except (EOFError, OSError):
                        return
                    op = str(message.get("op", ""))
                    status, payload = _dispatch(self.service, op, message)
                    try:
                        # Status code wins over any payload key of the same
                        # name (health's "status": "ok"): the frame-level
                        # code is the transport contract both sides
                        # dispatch on.
                        send_frame(conn, {**payload, "status": status})
                    except OSError:
                        return
        finally:
            self._conns.discard(conn)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class ServiceClient:
    """Thin stdlib-only client for a running :class:`ServiceServer`.

    Importing it loads no numpy and no service code (a test pins this),
    so a load generator or monitor pays only for the standard library.
    ``address`` is the HTTP ``host:port``.  Each calling thread keeps one
    persistent ``http.client`` connection, so threads may share a client.
    :exc:`Throttled` surfaces 429 so callers can measure admission
    control; other HTTP errors raise :class:`ServiceClient.Error` with the
    server's JSON error payload, and transport failures raise
    :class:`OSError`.
    """

    class Error(RuntimeError):
        """Server-side error with its HTTP status and decoded payload."""

        def __init__(self, status: int, payload: Mapping[str, Any]) -> None:
            super().__init__(f"service error {status}: {payload.get('error')}")
            self.status = int(status)
            self.payload = dict(payload)

    class Throttled(Error):
        """The token bucket rejected the estimate read (HTTP 429)."""

    def __init__(self, address: str, timeout: float = 10.0) -> None:
        self.address = address
        self.timeout = float(timeout)
        self._local = threading.local()

    def _call(
        self, op: str, *, query: str = "", body: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """One request on the calling thread's connection (GET without a body).

        ``http.client`` reconnects by itself after a reply that said
        ``Connection: close``.  A kept-alive connection that the server
        closed while it sat idle fails with :class:`ConnectionError`; a GET
        is then sent once more on a fresh connection, a POST never, since
        the server may have acted on it.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.address, timeout=self.timeout
            )
        if body is None:
            method, data, headers = "GET", None, {}
        else:
            method, data = "POST", json.dumps(dict(body)).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        retry = method == "GET"
        while True:
            reused = conn.sock is not None
            try:
                conn.request(method, f"/{op}{query}", body=data, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
                break
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if retry and reused and isinstance(exc, ConnectionError):
                    retry = False
                    continue
                if isinstance(exc, OSError):
                    raise
                raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
        if resp.status < 400:
            return json.loads(raw.decode("utf-8"))
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            payload = {"error": raw.decode("utf-8", "replace")}
        if resp.status == 429:
            raise ServiceClient.Throttled(resp.status, payload)
        raise ServiceClient.Error(resp.status, payload)

    def health(self) -> Dict[str, Any]:
        """``GET /health``."""
        return self._call("health")

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``."""
        return self._call("stats")

    def estimate(self, families: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """``GET /estimate`` (optionally restricted to some families)."""
        query = f"?families={','.join(families)}" if families else ""
        return self._call("estimate", query=query)

    def ingest(self, events: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
        """``POST /ingest`` a batch of membership events."""
        return self._call("ingest", body={"events": [dict(e) for e in events]})

    def tick(self, rounds: int = 1) -> Dict[str, Any]:
        """``POST /tick`` to advance the scenario ``rounds`` rounds."""
        return self._call("tick", body={"rounds": int(rounds)})

    def checkpoint(self, path: Optional[str] = None) -> Dict[str, Any]:
        """``POST /checkpoint`` (to ``path`` or the server's default)."""
        body: Dict[str, Any] = {} if path is None else {"path": path}
        return self._call("checkpoint", body=body)
