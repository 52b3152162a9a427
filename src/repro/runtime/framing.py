"""Length-prefixed socket framing shared by the cluster and the service.

Both wire codecs of the repository frame a message the same way: an
8-byte big-endian length, then that many bytes.  The cluster transport
(:mod:`repro.runtime.cluster`) fills the bytes with a protocol-5 pickle
and its out-of-band buffers; the estimation service's binary mode
(:mod:`repro.service.server`) with UTF-8 JSON.  The prefix, its limit,
the exact-size read and the open-connection registry live here once.

The module imports the standard library only, so the service client and
server load neither numpy nor the executors to speak the framing.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import List

__all__ = ["MAX_MESSAGE_BYTES"]

#: 8-byte big-endian unsigned length prefix framing every message.
_HEADER = struct.Struct(">Q")

#: Upper bound on a single framed message, buffers included — far above
#: any real chunk (specs + a snapshot whose packed overlay arrays take
#: ~3.5 MB at n = 100k), low enough to reject a garbage prefix from a
#: confused peer before allocating anything.
MAX_MESSAGE_BYTES = 1 << 31


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining > 0:
        part = sock.recv(min(remaining, 1 << 20))
        if not part:
            raise EOFError("peer closed the connection mid-message")
        chunks.append(part)
        remaining -= len(part)
    return b"".join(chunks)


def _recv_length(sock: socket.socket) -> int:
    """Read one frame's length prefix.

    Raises :class:`EOFError` when the peer closed the connection before
    the frame began, and :class:`OSError` for a length above
    :data:`MAX_MESSAGE_BYTES`, before anything it sizes is read.
    """
    header = sock.recv(_HEADER.size)
    if not header:
        raise EOFError("peer closed the connection")
    if len(header) < _HEADER.size:
        header += _recv_exact(sock, _HEADER.size - len(header))
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise OSError(
            f"framed message of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit (corrupt stream?)"
        )
    return length


class _Connections:
    """The open connections of one server, so its ``close()`` can end them.

    :class:`~repro.runtime.cluster.WorkerServer` and the estimation
    service's server each keep one: a serving thread adds its connection
    and discards it when done, and :meth:`sever` drops whatever is still
    open.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open: set = set()

    def add(self, conn: socket.socket) -> None:
        with self._lock:
            self._open.add(conn)

    def discard(self, conn: socket.socket) -> None:
        with self._lock:
            self._open.discard(conn)

    def sever(self) -> None:
        """Shut every open connection down (a thread blocked reading it
        sees EOF at once) and close it."""
        with self._lock:
            conns = list(self._open)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - peer may be gone already
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
