"""Multi-host cluster executor: chunks fan out to remote workers over sockets.

The cluster backend is the third executor behind :func:`~repro.runtime.api
.run_trials` (after the serial loop and the process pool of
:mod:`~repro.runtime.pool`) and honours the exact same contract: results
are **bit-identical** to serial execution at any host count, with
unchanged content addresses, because every trial derives its randomness
from ``(hub_seed, index)`` alone and the merge is sorted by
``(index, stream)``.  Adding or removing hosts — even mid-batch, through
failures — can never change what a batch computes, only where.

Transport
---------
The wire format follows the lightweight self-describing RPC approach of
the Mercury extreme-scale RPC design rather than a heavyweight framework,
which keeps small metadata apart from bulk buffers: each message is one
dict pickled at protocol 5 behind the 8-byte big-endian length prefix of
:mod:`~repro.runtime.framing` (shared with the service's binary mode), and
every numpy array in it travels out of band, sent from its own memory and
read straight into the buffer it is rebuilt over (:func:`send_message` /
:func:`recv_message`).  A worker is just
``repro-experiment worker serve --bind HOST:PORT`` — it accepts
connections, answers a handshake, and then runs
:func:`~repro.runtime.trials.run_chunk` on every ``chunk`` message it
receives, returning the pickled results.  Workers are stateless between
chunks: everything a chunk needs (specs + optional boundary snapshot)
travels in the message, which is what makes migration trivial.

Driver and worker ship from one tree and speak exactly one protocol
version, :data:`PROTOCOL_VERSION`: the worker welcomes a ``hello`` at
that version and answers any other with an error frame, and the driver
treats anything but a well-formed ``welcome`` at that version as a
connection failure.  A ``hello`` carrying ``role="heartbeat"`` opens a
control-path session that answers ``ping`` frames with ``pong`` instead
of running chunks.

.. warning::
   The transport pickles and unpickles arbitrary payloads and performs no
   authentication: it is **trusted-network-only** (bind workers to
   loopback or a private cluster fabric, never a public interface).  See
   ``docs/DISTRIBUTED.md``.

Liveness
--------
Treating liveness as a request side-effect leaves a silent-failure
window: a worker that dies while *idle* is never declared lost until the
batch drains, and one blocked dispatch can pin a chunk to a dead host
indefinitely.  The driver therefore runs one heartbeat monitor thread per
host: every ``heartbeat_interval`` seconds it pings
the worker over a dedicated heartbeat session and counts consecutive
misses (timeout, refused connection, or transport error).  Each miss is
reported as ``heartbeat_miss``; at ``heartbeat_misses`` consecutive
misses the host is declared lost through exactly the same path as a
dispatch failure — so loss is detected within roughly
``heartbeat_interval × heartbeat_misses`` seconds no matter what the
dispatch threads are doing.

Scheduling
----------
The driver keeps the snapshot backbone (:class:`~repro.runtime.pool
.SnapshotBackbone`) local and advances it on its main thread only: a
chunk's predecessor-boundary snapshot is resolved, in chunk order, when a
host thread claims that chunk, and held until the chunk completes, so a
failed chunk can be re-shipped anywhere.  Chunks are dealt into
per-host queues — round-robin by default, or proportionally to observed
per-trial latency once an executor has served a batch to every host
(per-host chunk-size adaptation; see :meth:`ClusterExecutor._plan`).  One
driver thread per host drains its own queue and, when idle, **steals from
the tail** of the longest live queue (``steal`` event).  A connection
failure is retried with exponential backoff; once retries are exhausted
— or the heartbeat monitor gives up first — the host is declared lost
(``worker_lost``) and its queued + in-flight chunks **migrate** — each
with its held boundary snapshot — to the surviving hosts
(``chunk_migrated``).  If every host dies, the remaining chunks re-run
serially in the driver (``partial_fallback``), keeping completed chunks
and resolving the boundaries no host claimed.
All of these events flow through the same
:meth:`~repro.runtime.progress.ProgressReporter.on_event` stream as the
pool's, so journals, ``obs summary|trace|validate`` and the telemetry
used in tests cover distributed runs exactly like local ones.

Fault injection
---------------
:class:`WorkerServer` accepts a :class:`~repro.runtime.faults
.WorkerFaults` bundle (compiled from a seed-reproducible
:class:`~repro.runtime.faults.FaultPlan`) and reports every fault it
fires as a ``fault_injected`` event, so chaos tests can hold the
injected cause and the observed recovery on one validated journal
timeline.
"""

from __future__ import annotations

import math
import os
import pickle
import socket
import struct
import threading
import time
import traceback
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .faults import WorkerFaults
from .framing import _HEADER, _Connections, _recv_exact, _recv_length
from .framing import MAX_MESSAGE_BYTES as MAX_MESSAGE_BYTES  # re-exported
from .pool import CHUNKS_PER_WORKER, SnapshotBackbone, TrialExecutor, chunk_specs
from .progress import NullProgress, ProgressReporter
from .snapshots import SNAPSHOT_KINDS
from .trials import TrialResult, TrialSpec, run_chunk

__all__ = [
    "ClusterExecutor",
    "PROTOCOL_VERSION",
    "WorkerServer",
    "parse_hosts",
    "recv_message",
    "send_message",
]

#: The one version driver and worker speak; ``hello`` and ``welcome``
#: both carry it, and any other value (or a non-integer) fails the
#: connection immediately rather than mis-deserializing mid-batch.
#: v2 added the heartbeat session role (ping/pong liveness probes); v3
#: sends numpy arrays as out-of-band buffers behind the pickled metadata.
PROTOCOL_VERSION = 3

#: What follows the length prefix of :mod:`~repro.runtime.framing`: the
#: out-of-band buffer count and the size of the pickled metadata; one
#: ``>Q`` size per buffer comes next.
_LAYOUT = struct.Struct(">IQ")
_SIZE = struct.Struct(">Q")

#: Most out-of-band buffers a received frame may announce (a hand-off
#: snapshot has three); it bounds the size table read before the
#: length checks.
MAX_FRAME_BUFFERS = 512


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


def _encode(message: Mapping[str, Any]) -> List[memoryview]:
    """The frame of ``message``: its head, then one view per array buffer.

    The dict is pickled at protocol 5 with a ``buffer_callback``, so every
    contiguous numpy array stays in its own memory and is sent from
    there.  The head holds the length prefix, the layout, the buffer
    sizes and the pickled metadata.
    """
    buffers: List[pickle.PickleBuffer] = []
    meta = pickle.dumps(dict(message), protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    sizes = [len(view) for view in views]
    length = _LAYOUT.size + _SIZE.size * len(sizes) + len(meta) + sum(sizes)
    head = b"".join(
        [
            _HEADER.pack(length),
            _LAYOUT.pack(len(sizes), len(meta)),
            *(_SIZE.pack(size) for size in sizes),
            meta,
        ]
    )
    return [memoryview(head), *views]


def _send_views(sock: socket.socket, views: List[memoryview]) -> None:
    """Send ``views`` in order with as few ``sendmsg`` calls as it takes.

    One gathered call hands the kernel the whole frame, so no part waits
    behind Nagle's algorithm for the acknowledgement of an earlier one
    (no socket sets ``TCP_NODELAY``).
    """
    views = [view for view in views if len(view)]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]


def send_message(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Frame and send one message: a small head, then each array's bytes.

    Layout (all integers big-endian): the 8-byte total length of what
    follows; the buffer count (4 bytes) and the metadata size (8 bytes);
    one 8-byte size per buffer; the protocol-5 pickle of the dict; the
    buffers, in the order the pickle refers to them.
    """
    _send_views(sock, _encode(message))


def _torn_frame(message: Mapping[str, Any]) -> bytes:
    """The frame of ``message`` cut halfway through its last section.

    The last section is the buffers when the message carries arrays and
    the pickled metadata otherwise; the peer reads a valid prefix and
    layout, then runs out of bytes — what a sender dying mid-frame looks
    like.
    """
    head, *buffers = _encode(message)
    last = sum(map(len, buffers)) or len(head) - _HEADER.size - _LAYOUT.size
    return b"".join([head, *buffers])[: -((last + 1) // 2)]


def _recv_into(sock: socket.socket, buffer: bytearray) -> None:
    """Fill ``buffer`` from ``sock`` in place (no intermediate copy)."""
    view = memoryview(buffer)
    while len(view):
        got = sock.recv_into(view)
        if not got:
            raise EOFError("peer closed the connection mid-message")
        view = view[got:]


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Receive one framed message; raises :class:`EOFError` on a clean close.

    Every size is checked against the frame's length before anything it
    sizes is allocated or read, and the frame's length against
    :data:`MAX_MESSAGE_BYTES`; a violation raises :class:`OSError`.  Each
    buffer is read straight into the ``bytearray`` its array then wraps.
    Metadata that fails to decode — unpickling may raise anything, say a
    ``ValueError`` from a ``__reduce__`` — raises :class:`OSError` too, so
    every caller treats it as the transport failure it is.
    """
    length = _recv_length(sock)
    if length < _LAYOUT.size:
        raise OSError(f"framed message of {length} bytes has no layout")
    count, meta_size = _LAYOUT.unpack(_recv_exact(sock, _LAYOUT.size))
    if count > MAX_FRAME_BUFFERS or _LAYOUT.size + _SIZE.size * count > length:
        raise OSError(
            f"framed message announces {count} buffers (at most "
            f"{MAX_FRAME_BUFFERS}, within {length} bytes)"
        )
    sizes = struct.unpack(f">{count}Q", _recv_exact(sock, _SIZE.size * count))
    if _LAYOUT.size + _SIZE.size * count + meta_size + sum(sizes) != length:
        raise OSError(
            f"framed message sections do not add up to its {length} bytes"
        )
    meta = _recv_exact(sock, meta_size)
    buffers: List[bytearray] = []
    for size in sizes:
        buffers.append(bytearray(size))
        _recv_into(sock, buffers[-1])
    try:
        message = pickle.loads(meta, buffers=buffers)
    except Exception as exc:  # noqa: BLE001 - any decode failure is a torn peer
        raise OSError(f"undecodable message: {type(exc).__name__}: {exc}") from exc
    if not isinstance(message, dict):
        raise OSError(f"expected a message dict, got {type(message).__name__}")
    return message


def _is_protocol_version(value: Any) -> bool:
    """True for exactly :data:`PROTOCOL_VERSION` (never a bool or float)."""
    return type(value) is int and value == PROTOCOL_VERSION


def parse_hosts(
    value: Union[None, str, Sequence[str]]
) -> Tuple[str, ...]:
    """Normalize a host list (CSV string or sequence) to ``host:port`` tuples.

    Accepts the CLI's ``--hosts host1:port,host2:port`` string, the
    ``$REPRO_HOSTS`` environment value, or an already-split sequence.
    ``None`` and the empty string mean "no cluster" and return ``()``.
    """
    if value is None:
        return ()
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",")]
    else:
        parts = [str(p).strip() for p in value]
    hosts = tuple(p for p in parts if p)
    for host in hosts:
        name, sep, port = host.rpartition(":")
        if not sep or not name:
            raise ValueError(
                f"invalid host {host!r}: expected 'host:port' (e.g. "
                "'127.0.0.1:7700')"
            )
        try:
            number = int(port)
        except ValueError:
            raise ValueError(f"invalid port in host {host!r}") from None
        if not 0 < number < 65536:
            raise ValueError(f"port out of range in host {host!r}")
    return hosts


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class WorkerServer:
    """A cluster worker: accepts driver connections, runs chunks, replies.

    Sessions are served on one thread per connection, so a heartbeat
    session keeps answering pings while a chunk session is busy
    executing — exactly the property the driver's liveness monitor
    depends on.

    Parameters
    ----------
    host / port:
        Bind address.  ``port=0`` binds a free ephemeral port; the bound
        address is available as :attr:`address` (the loopback test harness
        and CI both rely on this).
    max_sessions:
        Exit :meth:`serve_forever` after this many *driver* (chunk-role)
        sessions have come and gone (``None`` = serve until
        :meth:`close`).  Heartbeat sessions never count toward the cap —
        a capped worker would otherwise die under monitoring alone.
    faults:
        A :class:`~repro.runtime.faults.WorkerFaults` bundle of
        deterministic fault-injection knobs (usually compiled from a
        :class:`~repro.runtime.faults.FaultPlan`).  Every fault that
        fires is reported once per kind through ``progress`` as a
        ``fault_injected`` event.
    progress:
        Optional :class:`~repro.runtime.progress.ProgressReporter`
        receiving the ``fault_injected`` events — in-process chaos tests
        pass the same collector the driver uses, putting cause and
        recovery on one timeline.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: Optional[int] = None,
        faults: Optional[WorkerFaults] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        self.max_sessions = max_sessions
        self.faults = faults if faults is not None else WorkerFaults()
        self.progress = progress if progress is not None else NullProgress()
        self._mutex = threading.Lock()
        self._conns = _Connections()
        self._threads: List[threading.Thread] = []
        self._served_chunks = 0
        self._sent_frames = 0
        self._pongs = 0
        self._accepted = 0
        self._driver_sessions = 0
        self._reported_faults: set = set()
        self._closed = False
        self._listener = socket.create_server((host, port))
        self.port = self._listener.getsockname()[1]
        self.address = f"{host}:{self.port}"

    def close(self) -> None:
        """Simulate/perform worker death: drop the listener and every live
        connection — chunk and heartbeat sessions alike — so the driver
        observes the same thing a crashed process would produce
        (idempotent)."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
        self._close_listener()
        self._conns.sever()

    def _close_listener(self) -> None:
        # The shutdown matters: close() alone does not wake a thread
        # already blocked in accept(), and the kernel keeps the port
        # bound through that in-flight accept — so a "dead" worker
        # would keep accepting (and serving!) new sessions.  shutdown
        # forces the pending accept to return an error immediately.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - not listening / already gone
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _inject(self, kind: str, detail: str) -> None:
        """Report one injected fault (once per kind, to keep journals tidy)."""
        with self._mutex:
            if kind in self._reported_faults:
                return
            self._reported_faults.add(kind)
        self.progress.on_event(
            "fault_injected", host=self.address, kind=kind, detail=detail
        )

    def serve_forever(self) -> None:
        """Accept and serve sessions until closed (or the driver-session cap).

        Each accepted connection is served on its own daemon thread; the
        accept loop exits when the listener closes — via :meth:`close`,
        a ``kill_worker`` fault, or the ``max_sessions`` cap being
        reached by a finishing driver session.
        """
        while True:
            with self._mutex:
                if self._closed:
                    break
                if (
                    self.max_sessions is not None
                    and self._driver_sessions >= self.max_sessions
                ):
                    break
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed (close(), cap, or kill fault)
                break
            with self._mutex:
                died = self._closed
                accepted = self._accepted
                if not died:
                    self._accepted += 1
            if died:
                # close() raced the accept: the kernel completed this
                # handshake before the listener went down, but the worker
                # is dead — drop the connection unserved so the driver
                # sees the death instead of a zombie session.
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                break
            refuse = self.faults.refuse_after_sessions
            if refuse is not None and accepted >= refuse:
                # Simulated wedged accept queue: take the connection and
                # immediately drop it, so the driver's dial "succeeds"
                # but the handshake never completes.
                self._inject(
                    "refuse_connect", f"refused connection {accepted}"
                )
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                continue
            self._threads = [t for t in self._threads if t.is_alive()]
            thread = threading.Thread(
                target=self._run_session,
                args=(conn,),
                name=f"worker-session-{accepted}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        self.close()

    def _run_session(self, conn: socket.socket) -> None:
        """Session thread wrapper: track the connection, count driver roles."""
        self._conns.add(conn)
        role = None
        try:
            role = self._serve_session(conn)
        finally:
            self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            if role == "driver":
                with self._mutex:
                    self._driver_sessions += 1
                    capped = (
                        self.max_sessions is not None
                        and self._driver_sessions >= self.max_sessions
                    )
                if capped:
                    # Unblock the accept loop so serve_forever can exit.
                    self._close_listener()

    def _serve_session(self, conn: socket.socket) -> Optional[str]:
        """One session: handshake, then a chunk loop or a heartbeat loop."""
        try:
            hello = recv_message(conn)
        except (EOFError, OSError):
            return None
        if hello.get("type") != "hello" or not _is_protocol_version(
            hello.get("version")
        ):
            try:
                send_message(
                    conn,
                    {
                        "type": "error",
                        "error": (
                            f"protocol mismatch: worker speaks "
                            f"{PROTOCOL_VERSION}, driver sent {hello!r}"
                        ),
                    },
                )
            except OSError:  # pragma: no cover - peer already gone
                pass
            return None
        role = hello.get("role", "driver")
        try:
            send_message(
                conn,
                {"type": "welcome", "version": PROTOCOL_VERSION, "pid": os.getpid()},
            )
        except OSError:
            return None
        if role == "heartbeat":
            self._serve_heartbeat(conn)
            return "heartbeat"
        self._serve_chunks(conn)
        return "driver"

    def _serve_heartbeat(self, conn: socket.socket) -> None:
        """Answer ping frames with pong until the peer hangs up.

        A ``stall_heartbeat`` fault silences the worker *without* closing
        the connection — the driver must detect the stall by timeout, the
        same way it would detect a hung process.
        """
        while True:
            try:
                message = recv_message(conn)
            except (EOFError, OSError):
                return
            kind = message.get("type")
            if kind == "bye":
                return
            if kind != "ping":
                try:
                    send_message(
                        conn,
                        {"type": "error", "error": f"unexpected message {kind!r}"},
                    )
                except OSError:
                    return
                continue
            stall = self.faults.stall_heartbeat_after
            with self._mutex:
                pongs = self._pongs
            if stall is not None and pongs >= stall:
                self._inject(
                    "stall_heartbeat", f"stalled after {pongs} pongs"
                )
                while True:  # swallow pings silently; never answer again
                    try:
                        recv_message(conn)
                    except (EOFError, OSError):
                        return
            with self._mutex:
                self._pongs += 1
            try:
                send_message(conn, {"type": "pong", "seq": message.get("seq")})
            except OSError:
                return

    def _serve_chunks(self, conn: socket.socket) -> None:
        """One driver session: a chunk/result loop with fault injection."""
        while True:
            try:
                message = recv_message(conn)
            except (EOFError, OSError):
                return
            kind = message.get("type")
            if kind == "bye":
                return
            if kind != "chunk":
                send_message(
                    conn, {"type": "error", "error": f"unexpected message {kind!r}"}
                )
                continue
            kill = self.faults.kill_after_chunks
            with self._mutex:
                served = self._served_chunks
            if kill is not None and served >= kill:
                # Simulated host death: drop every connection mid-request
                # and refuse future dials, so chunk retries and heartbeat
                # probes fail alike.
                self._inject("kill_worker", f"killed after {served} chunks")
                self.close()
                return
            if self.faults.slow_seconds:
                self._inject(
                    "slow_host", f"{self.faults.slow_seconds:g}s per chunk"
                )
                time.sleep(self.faults.slow_seconds)
            try:
                results = run_chunk(message["specs"], message.pop("snapshot", None))
            except Exception:  # noqa: BLE001 - remote traceback travels back
                send_message(
                    conn,
                    {
                        "type": "error",
                        "chunk": message.get("chunk"),
                        "error": traceback.format_exc(),
                    },
                )
                continue
            with self._mutex:
                self._served_chunks += 1
                frame = self._sent_frames
                self._sent_frames += 1
            reply = {
                "type": "result",
                "chunk": message.get("chunk"),
                "results": results,
            }
            fault = self.faults.frame_fault_at(frame)
            if fault is not None and fault.mode == "drop":
                # Swallow the reply and drop the link: the driver sees a
                # transport error (never a hang) and re-dispatches.
                self._inject("drop_frame", f"dropped result frame {frame}")
                return
            if fault is not None and fault.mode == "truncate":
                self._inject(
                    "truncate_frame", f"truncated result frame {frame}"
                )
                try:
                    conn.sendall(_torn_frame(reply))
                except OSError:
                    pass
                return
            if fault is not None and fault.mode == "delay":
                self._inject(
                    "delay_frame",
                    f"delayed result frame {frame} by {fault.seconds:g}s",
                )
                time.sleep(fault.seconds)
            try:
                send_message(conn, reply)
            except OSError:
                return


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------


class _WorkerSession:
    """Driver-side handle on one connected worker (socket + handshake)."""

    def __init__(self, sock: socket.socket, pid: int) -> None:
        self.sock = sock
        self.pid = pid

    @classmethod
    def connect(
        cls, host: str, timeout: float, role: Optional[str] = None
    ) -> "_WorkerSession":
        """Dial ``host:port``, complete the handshake, return a ready session.

        The hello offers :data:`PROTOCOL_VERSION`.  Any reply but a
        ``welcome`` at exactly that version with an integer ``pid`` — an
        error frame or a malformed welcome alike — closes the socket and
        raises :class:`OSError`, so the caller's retry and host-loss path
        treats the peer like an unreachable one.
        """
        name, _, port = host.rpartition(":")
        sock = socket.create_connection((name, int(port)), timeout=timeout)
        try:
            hello: Dict[str, Any] = {"type": "hello", "version": PROTOCOL_VERSION}
            if role is not None:
                hello["role"] = role
            send_message(sock, hello)
            welcome = recv_message(sock)
        except BaseException:
            sock.close()
            raise
        pid = welcome.get("pid")
        if (
            welcome.get("type") != "welcome"
            or not _is_protocol_version(welcome.get("version"))
            or type(pid) is not int
        ):
            sock.close()
            raise OSError(
                f"worker {host} failed the handshake: "
                f"{welcome.get('error', welcome)}"
            )
        sock.settimeout(None)
        return cls(sock, pid)

    def request(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Send one message and block for its reply."""
        send_message(self.sock, message)
        return recv_message(self.sock)

    def close(self, polite: bool = False) -> None:
        """Drop the connection (optionally after a ``bye``).

        The shutdown before close matters: it unblocks a peer thread —
        or this driver's own dispatch thread — currently parked in
        ``recv`` on the same socket, which is how the heartbeat monitor
        cancels an in-flight request to a host it just declared dead.
        """
        if polite:
            try:
                send_message(self.sock, {"type": "bye"})
            except OSError:  # pragma: no cover - peer already gone
                pass
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class _RunState:
    """Shared scheduler state for one batch (guarded by ``cond``).

    Boundary hand-off: chunks ``[0, resolved)`` have their boundary
    snapshot resolved, and ``payloads`` holds it for each of them that
    has not completed.  ``claimed`` is one past the highest chunk id any
    host has claimed; the driver's main thread resolves boundaries in
    chunk order until ``resolved`` catches up with it.
    """

    def __init__(
        self,
        chunks: Sequence[Sequence[TrialSpec]],
        hosts: Sequence[str],
        dealt: Optional[Mapping[str, Sequence[int]]] = None,
        boundaries: Optional[Sequence[int]] = None,
    ) -> None:
        self.cond = threading.Condition()
        self.chunks = chunks
        self.total_chunks = len(chunks)
        self.total_trials = sum(len(chunk) for chunk in chunks)
        self.queues: Dict[str, deque] = {host: deque() for host in hosts}
        if dealt is None:
            for i in range(len(chunks)):
                self.queues[hosts[i % len(hosts)]].append(i)
        else:
            for host, ids in dealt.items():
                self.queues[host].extend(ids)
        # The boundary each chunk resumes from; a batch without them
        # ships no snapshots, so it starts out resolved.
        self.boundaries: List[Optional[int]] = (
            list(boundaries) if boundaries is not None else [None] * len(chunks)
        )
        self.resolved = 0 if boundaries is not None else len(chunks)
        self.claimed = 0
        self.payloads: Dict[int, Optional[Mapping[str, Any]]] = {}
        self.live = set(hosts)
        self.dispatching = len(hosts)
        self.in_flight: Dict[str, int] = {}
        self.completed: Dict[int, List[TrialResult]] = {}
        self.announced: set = set()
        self.done_trials = 0
        # The batch's failure: a worker's error frame or a boundary that
        # could not be resolved.  ``run`` raises it once threads drain.
        self.error: Optional[Exception] = None
        # Dispatch sessions by host, registered so the heartbeat monitor
        # can sever a blocked request when it declares the host dead.
        self.sessions: Dict[str, _WorkerSession] = {}
        self.monitor_sessions: Dict[str, _WorkerSession] = {}
        # Set once every dispatch thread has drained; monitors exit on it
        # and suppress any late events.
        self.finished = threading.Event()


class ClusterExecutor:
    """Runs a batch of :class:`TrialSpec` across remote worker hosts.

    Implements the same ``run(specs) -> [TrialResult]`` contract as
    :class:`~repro.runtime.pool.TrialExecutor` — callers (and
    :func:`~repro.runtime.api.run_trials`) cannot tell the two apart
    except through progress events.  See the module docstring for the
    scheduling, liveness and failure semantics.

    Parameters
    ----------
    hosts:
        Worker addresses (``host:port`` strings, CSV string accepted).
    chunk_size:
        Trials per dispatched chunk (default: batch split into
        ``len(hosts) * CHUNKS_PER_WORKER`` chunks, mirroring the pool —
        or latency-proportional per-host sizes once adaptation has
        history; an explicit value disables adaptation).
    progress:
        Optional :class:`ProgressReporter`; besides the pool's batch and
        chunk events it receives ``worker_connect``, ``worker_lost``,
        ``chunk_migrated``, ``steal`` and ``heartbeat_miss``.
    snapshot_store:
        Store the boundary snapshots are cached in, exactly as on the
        pool executor.
    retries:
        Reconnection attempts per host before it is declared lost.
    backoff:
        Base of the exponential retry backoff (seconds): attempt *k*
        sleeps ``backoff * 2**(k-1)``.
    connect_timeout:
        Socket connect/handshake timeout per attempt (seconds).
    heartbeat_interval:
        Seconds between liveness pings per host (``0`` disables the
        monitor, restoring dispatch-only failure detection).
    heartbeat_misses:
        Consecutive missed pings before a host is declared lost; with
        the interval this bounds detection latency at roughly
        ``heartbeat_interval * heartbeat_misses`` seconds.
    """

    def __init__(
        self,
        hosts: Union[str, Sequence[str]],
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressReporter] = None,
        snapshot_store=None,
        retries: int = 3,
        backoff: float = 0.1,
        connect_timeout: float = 10.0,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 3,
    ) -> None:
        self.hosts = parse_hosts(hosts)
        if not self.hosts:
            raise ValueError("ClusterExecutor needs at least one host")
        if len(set(self.hosts)) != len(self.hosts):
            raise ValueError(f"duplicate hosts in {self.hosts!r}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if heartbeat_interval < 0:
            raise ValueError(
                f"heartbeat_interval must be >= 0, got {heartbeat_interval}"
            )
        if heartbeat_misses < 1:
            raise ValueError(
                f"heartbeat_misses must be >= 1, got {heartbeat_misses}"
            )
        self.chunk_size = chunk_size
        self.progress = progress if progress is not None else NullProgress()
        self.snapshot_store = snapshot_store
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.connect_timeout = float(connect_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        # EWMA of observed seconds-per-trial by host, fed by completed
        # dispatches and consumed by _plan on the next batch.
        self._latency: Dict[str, float] = {}
        self._latency_lock = threading.Lock()

    def _auto_chunk_size(self, total: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(total / (len(self.hosts) * CHUNKS_PER_WORKER)))

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialResult]:
        """Execute the batch and return results in ``(index, stream)`` order."""
        specs = list(specs)
        if not specs:
            return []
        if not all(spec.portable for spec in specs):
            # Live objects cannot travel over the wire; same downgrade as
            # the pool, so cluster options are always safe to pass.
            self.progress.on_event(
                "fallback",
                reason="batch holds live objects that cannot be shipped "
                "to cluster workers",
            )
            return TrialExecutor(progress=self.progress).run(specs)

        started = time.perf_counter()
        self.progress.on_event("batch_start", total=len(specs), workers=len(self.hosts))
        chunks, dealt = self._plan(specs)
        backbone = boundaries = None
        if len(chunks) > 1 and chunks[0][0].kind in SNAPSHOT_KINDS:
            backbone = SnapshotBackbone(chunks[0][0], self.snapshot_store, self.progress)
            boundaries = [min(spec.index for spec in chunk) - 1 for chunk in chunks]
        state = _RunState(chunks, self.hosts, dealt, boundaries)
        threads = [
            threading.Thread(
                target=self._serve_host,
                args=(state, host),
                name=f"cluster-{host}",
                daemon=True,
            )
            for host in self.hosts
        ]
        monitors = []
        if self.heartbeat_interval > 0:
            monitors = [
                threading.Thread(
                    target=self._monitor_host,
                    args=(state, host),
                    name=f"heartbeat-{host}",
                    daemon=True,
                )
                for host in self.hosts
            ]
        for thread in threads:
            thread.start()
        for monitor in monitors:
            monitor.start()
        if backbone is not None:
            self._feed_boundaries(state, backbone)
        for thread in threads:
            thread.join()
        state.finished.set()
        with state.cond:
            leftover_sessions = list(state.monitor_sessions.values())
            state.monitor_sessions.clear()
        for session in leftover_sessions:
            session.close()
        # No thread outlives the batch: a monitor's pause ends on
        # ``finished`` and its dial and ping are bounded by their timeouts.
        for monitor in monitors:
            monitor.join()

        if state.error is not None:
            raise state.error

        leftover = [
            i for i in range(len(chunks)) if i not in state.completed
        ]
        if leftover:
            # Every host died: finish in-driver, keeping completed chunks —
            # the cluster analogue of the pool's mid-batch partial fallback.
            remaining = sum(len(chunks[i]) for i in leftover)
            self.progress.on_event(
                "partial_fallback",
                done=state.done_trials,
                total=len(specs),
                reason=f"all {len(self.hosts)} cluster worker(s) lost; "
                f"re-running {remaining} of {len(specs)} trials locally",
            )
            for chunk_id in leftover:
                if chunk_id not in state.announced:
                    self._chunk_start(state, chunk_id)
                while state.resolved <= chunk_id:
                    self._resolve_next(state, backbone)
                part = run_chunk(chunks[chunk_id], state.payloads.get(chunk_id))
                self._record(state, None, chunk_id, part)

        results = [r for i in sorted(state.completed) for r in state.completed[i]]
        results.sort(key=lambda r: (r.index, r.stream))
        self.progress.on_event(
            "batch_finish", done=len(results), elapsed=time.perf_counter() - started
        )
        return results

    # -- chunk planning ----------------------------------------------------

    def _plan(
        self, specs: Sequence[TrialSpec]
    ) -> Tuple[List[List[TrialSpec]], Optional[Dict[str, List[int]]]]:
        """Split the batch into chunks and deal them to hosts.

        Default plan: uniform ``_auto_chunk_size`` chunks dealt
        round-robin (``dealt=None``).  Once adaptation has a latency
        estimate for *every* host — i.e. from this executor's second
        batch on — the batch is instead apportioned into contiguous
        per-host blocks proportional to ``1/latency`` (largest-remainder
        rounding), each block split into at most
        :data:`CHUNKS_PER_WORKER` chunks, so a fast host gets more and
        larger chunks and a straggler gets fewer and smaller ones.

        Either way chunks partition ``specs`` contiguously in index
        order, which keeps the snapshot backbone's boundary targets
        monotonically increasing — a hard requirement of
        :meth:`~repro.runtime.pool.SnapshotBackbone.payload_at`.
        """
        total = len(specs)
        with self._latency_lock:
            latency = dict(self._latency)
        usable = (
            self.chunk_size is None
            and len(self.hosts) > 1
            and all(latency.get(host, 0.0) > 0.0 for host in self.hosts)
        )
        if not usable:
            return chunk_specs(specs, self._auto_chunk_size(total)), None
        weights = {host: 1.0 / latency[host] for host in self.hosts}
        scale = sum(weights.values())
        quotas = {host: total * weights[host] / scale for host in self.hosts}
        shares = {host: int(math.floor(quotas[host])) for host in self.hosts}
        remainder = total - sum(shares.values())
        by_fraction = sorted(
            self.hosts,
            key=lambda host: (shares[host] - quotas[host], self.hosts.index(host)),
        )
        for host in by_fraction[:remainder]:
            shares[host] += 1
        chunks: List[List[TrialSpec]] = []
        dealt: Dict[str, List[int]] = {host: [] for host in self.hosts}
        cursor = 0
        for host in self.hosts:
            block = list(specs[cursor : cursor + shares[host]])
            cursor += shares[host]
            if not block:
                continue
            size = max(1, math.ceil(len(block) / CHUNKS_PER_WORKER))
            for piece in chunk_specs(block, size):
                dealt[host].append(len(chunks))
                chunks.append(piece)
        return chunks, dealt

    def _note_latency(self, host: str, seconds: float, trials: int) -> None:
        """Fold one completed dispatch into the host's per-trial EWMA."""
        if trials <= 0 or seconds < 0:
            return
        per_trial = seconds / trials
        with self._latency_lock:
            previous = self._latency.get(host)
            if previous is None:
                self._latency[host] = per_trial
            else:
                self._latency[host] = 0.5 * previous + 0.5 * per_trial

    # -- boundary hand-off (main thread) ------------------------------------

    def _feed_boundaries(self, state: _RunState, backbone: SnapshotBackbone) -> None:
        """Resolve boundaries as hosts claim chunks, until dispatch drains.

        Runs on the driver's main thread, the only thread that touches
        the backbone.  Unlike the pool — where a payload is consumed by
        exactly one submission — a chunk's payload is held until the chunk
        completes, because a failure may re-ship it to another host.  A
        boundary that cannot be resolved becomes the batch's error: the
        waiting hosts exit, and :meth:`run` raises it.
        """
        while True:
            with state.cond:
                state.cond.wait_for(
                    lambda: not state.dispatching
                    or state.error is not None
                    or state.claimed > state.resolved
                )
                if not state.dispatching or state.error is not None:
                    return
            try:
                self._resolve_next(state, backbone)
            except Exception as exc:
                with state.cond:
                    if state.error is None:
                        state.error = exc
                    state.cond.notify_all()
                return

    def _resolve_next(self, state: _RunState, backbone: SnapshotBackbone) -> None:
        """Advance the backbone to the next chunk's boundary and hold it.

        Boundaries resolve in chunk order, which keeps the backbone's
        targets monotone; the advance runs outside the lock, so hosts keep
        dispatching and recording meanwhile.
        """
        chunk_id = state.resolved
        payload = backbone.payload_at(state.boundaries[chunk_id])
        with state.cond:
            state.payloads[chunk_id] = payload
            state.resolved = chunk_id + 1
            state.cond.notify_all()

    # -- heartbeat monitor -------------------------------------------------

    def _monitor_host(self, state: _RunState, host: str) -> None:
        """Liveness monitor thread: ping ``host`` until the batch drains.

        Counts consecutive misses (timeout, refused dial, transport
        error); every miss is reported as a ``heartbeat_miss`` event and at
        :attr:`heartbeat_misses` the host goes through the same
        :meth:`_host_lost` path as a dispatch failure.  Each probe cycle
        costs ``max(interval, time spent probing)``, so
        detection is bounded by ``misses * max(interval, ping timeout)``
        with the ping timeout fixed at the interval.
        """
        interval = self.heartbeat_interval
        threshold = self.heartbeat_misses
        ping_timeout = max(interval, 0.02)
        session: Optional[_WorkerSession] = None
        misses = 0
        seq = 0
        try:
            while not state.finished.is_set():
                began = time.monotonic()
                with state.cond:
                    if host not in state.live:
                        return
                try:
                    if session is None:
                        session = _WorkerSession.connect(
                            host, self.connect_timeout, role="heartbeat"
                        )
                        session.sock.settimeout(ping_timeout)
                        with state.cond:
                            state.monitor_sessions[host] = session
                    seq += 1
                    reply = session.request({"type": "ping", "seq": seq})
                    if reply.get("type") != "pong":
                        raise OSError(f"unexpected heartbeat reply {reply!r}")
                    misses = 0
                except (OSError, EOFError, pickle.PickleError, struct.error) as exc:
                    if session is not None:
                        with state.cond:
                            if state.monitor_sessions.get(host) is session:
                                state.monitor_sessions.pop(host, None)
                        session.close()
                        session = None
                    if state.finished.is_set():
                        return
                    misses += 1
                    with state.cond:
                        if host not in state.live:
                            return
                    self.progress.on_event(
                        "heartbeat_miss", host=host, misses=misses, threshold=threshold
                    )
                    if misses >= threshold:
                        self._host_lost(
                            state,
                            host,
                            f"no heartbeat after {misses} probes "
                            f"({interval:g}s apart): {exc}",
                        )
                        return
                pause = max(0.0, interval - (time.monotonic() - began))
                if state.finished.wait(timeout=pause):
                    return
        finally:
            if session is not None:
                with state.cond:
                    if state.monitor_sessions.get(host) is session:
                        state.monitor_sessions.pop(host, None)
                session.close(polite=True)

    # -- per-host driver thread --------------------------------------------

    def _serve_host(self, state: _RunState, host: str) -> None:
        session: Optional[_WorkerSession] = None
        failures = 0
        try:
            while True:
                chunk_id = self._claim(state, host)
                if chunk_id is None or not self._await_boundary(state, host, chunk_id):
                    return
                chunk = state.chunks[chunk_id]
                try:
                    if session is None:
                        session = _WorkerSession.connect(host, self.connect_timeout)
                        with state.cond:
                            state.sessions[host] = session
                            self.progress.on_event(
                                "worker_connect", host=host, pid=session.pid
                            )
                    dispatched = time.perf_counter()
                    reply = session.request(
                        {
                            "type": "chunk",
                            "chunk": chunk_id,
                            "specs": list(chunk),
                            "snapshot": state.payloads.get(chunk_id),
                        }
                    )
                    elapsed = time.perf_counter() - dispatched
                except (OSError, EOFError, pickle.PickleError, struct.error) as exc:
                    if session is not None:
                        session.close()
                    failures += 1
                    with state.cond:
                        if state.sessions.get(host) is session:
                            state.sessions.pop(host, None)
                        session = None
                        if host not in state.live:
                            # The heartbeat monitor declared this host dead
                            # while we were blocked; it already migrated the
                            # in-flight chunk — do not re-queue or re-lose.
                            return
                        retrying = failures <= self.retries
                        if retrying:
                            state.in_flight.pop(host, None)
                            state.queues[host].appendleft(chunk_id)
                            state.cond.notify_all()
                    if retrying:
                        time.sleep(self.backoff * (2 ** (failures - 1)))
                        continue
                    self._host_lost(state, host, exc, chunk_id)
                    return
                failures = 0
                if reply.get("type") == "result":
                    self._note_latency(host, elapsed, len(chunk))
                    self._record(state, host, chunk_id, reply.get("results") or [])
                else:
                    # A worker-side exception is deterministic — the chunk
                    # would fail anywhere — so it aborts the batch instead
                    # of migrating.
                    with state.cond:
                        if state.error is None:
                            state.error = RuntimeError(
                                f"chunk {chunk_id} failed on a cluster worker:\n"
                                f"{reply.get('error', reply)}"
                            )
                        state.in_flight.pop(host, None)
                        state.cond.notify_all()
                    return
        finally:
            with state.cond:
                if state.sessions.get(host) is session:
                    state.sessions.pop(host, None)
                state.dispatching -= 1
                state.cond.notify_all()
            if session is not None:
                session.close(polite=True)

    def _claim(self, state: _RunState, host: str) -> Optional[int]:
        """Pop this host's next chunk, stealing from a busy peer when idle.

        Blocks while other live hosts still have queued or in-flight work
        that could migrate here; returns ``None`` when the batch is done,
        aborted, or no future work can possibly reach this host.  A chunk
        that completed elsewhere while it sat in a queue — say, migrated
        off a host whose result was already on its way — is dropped.
        """
        with state.cond:
            while True:
                if state.error is not None or host not in state.live:
                    return None
                queue = state.queues[host]
                stolen_from = None
                if not queue:
                    victims = [
                        h
                        for h in state.live
                        if h != host and state.queues[h]
                    ]
                    if victims:
                        victim = max(victims, key=lambda h: len(state.queues[h]))
                        queue.append(state.queues[victim].pop())
                        stolen_from = victim
                if queue:
                    chunk_id = queue.popleft()
                    if chunk_id in state.completed:
                        continue
                    state.in_flight[host] = chunk_id
                    state.claimed = max(state.claimed, chunk_id + 1)
                    state.cond.notify_all()
                    if stolen_from is not None:
                        self.progress.on_event(
                            "steal", chunk=chunk_id, from_host=stolen_from, to_host=host
                        )
                    if chunk_id not in state.announced:
                        state.announced.add(chunk_id)
                        self._chunk_start(state, chunk_id)
                    return chunk_id
                if len(state.completed) == state.total_chunks:
                    return None
                pending_elsewhere = any(
                    h != host and (h in state.in_flight or state.queues[h])
                    for h in state.live
                )
                if not pending_elsewhere:
                    return None
                state.cond.wait(timeout=0.05)

    def _await_boundary(self, state: _RunState, host: str, chunk_id: int) -> bool:
        """Wait until the main thread has resolved ``chunk_id``'s boundary.

        ``False`` means the batch aborted or this host was declared lost
        meanwhile (its claimed chunk has then already migrated).
        """
        with state.cond:
            state.cond.wait_for(
                lambda: state.resolved > chunk_id
                or state.error is not None
                or host not in state.live
            )
            return state.error is None and host in state.live

    def _host_lost(
        self,
        state: _RunState,
        host: str,
        reason: Union[str, Exception],
        chunk_id: Optional[int] = None,
    ) -> None:
        """Declare a host dead (once) and migrate its work to the survivors.

        Shared by the dispatch path (retries exhausted; passes the failed
        ``chunk_id``) and the heartbeat monitor (missed-ping threshold;
        no ``chunk_id`` — the in-flight entry covers any blocked
        dispatch).  The first caller wins; later calls are no-ops, which
        is what keeps ``worker_lost`` exactly-once when both paths race.
        """
        if state.finished.is_set():
            return
        sessions: List[_WorkerSession] = []
        with state.cond:
            if host not in state.live:
                return
            state.live.discard(host)
            orphans: List[int] = []
            in_flight = state.in_flight.pop(host, None)
            if chunk_id is not None and chunk_id != in_flight:
                orphans.append(chunk_id)
            if in_flight is not None:
                orphans.append(in_flight)
            orphans.extend(state.queues[host])
            state.queues[host].clear()
            orphans = [o for o in orphans if o not in state.completed]
            for registry in (state.sessions, state.monitor_sessions):
                session = registry.pop(host, None)
                if session is not None:
                    sessions.append(session)
            self.progress.on_event("worker_lost", host=host, reason=str(reason))
            survivors = sorted(state.live)
            if survivors:
                for i, orphan in enumerate(orphans):
                    target = survivors[i % len(survivors)]
                    state.queues[target].append(orphan)
                    self.progress.on_event(
                        "chunk_migrated", chunk=orphan, from_host=host, to_host=target
                    )
            state.cond.notify_all()
        # Closed outside the lock: severing the dispatch session unblocks
        # a thread parked in recv on it, which then observes the host is
        # no longer live and exits without re-queueing.
        for session in sessions:
            session.close()

    def _chunk_start(self, state: _RunState, chunk_id: int) -> None:
        self.progress.on_event(
            "chunk_start",
            chunk=chunk_id,
            trials=len(state.chunks[chunk_id]),
            boundary=state.boundaries[chunk_id],
        )

    def _record(
        self,
        state: _RunState,
        host: Optional[str],
        chunk_id: int,
        results: List[TrialResult],
    ) -> None:
        """Record a completed chunk exactly once, drop its boundary payload
        and wake waiting peers.

        ``host`` is ``None`` for a chunk the driver ran itself.
        """
        with state.cond:
            state.in_flight.pop(host, None)
            if chunk_id not in state.completed:
                state.completed[chunk_id] = results
                state.payloads.pop(chunk_id, None)
                state.done_trials += len(results)
                self.progress.on_event(
                    "chunk_done", chunk=chunk_id, trials=len(results), results=results
                )
                self.progress.on_event(
                    "progress", done=state.done_trials, total=state.total_trials
                )
            state.cond.notify_all()
