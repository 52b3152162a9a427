"""Property tests for the cluster's length-prefixed frame codec.

The codec (``send_message`` / ``recv_message``) must round-trip any
message dict — numpy arrays included, which travel as out-of-band
buffers behind the pickled metadata — through arbitrarily fragmented
reads, surface truncation as :class:`EOFError`, reject oversize length
prefixes, buffer counts and buffer sizes *before* allocating, and never
hang, return a non-dict or raise anything but :class:`EOFError` and
:class:`OSError`, no matter what bytes a confused peer sends.
These are wire-level invariants the chaos harness's frame faults rely
on: a torn frame must look like a transport error, never like data.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime.cluster import (
    MAX_FRAME_BUFFERS,
    MAX_MESSAGE_BYTES,
    _torn_frame,
    recv_message,
    send_message,
)

_HEADER = struct.Struct(">Q")
_LAYOUT = struct.Struct(">IQ")


def _refuse_to_decode():
    raise ValueError("this metadata does not decode")


class _Undecodable:
    """Pickles fine; unpickling it raises :class:`ValueError`."""

    def __reduce__(self):
        return (_refuse_to_decode, ())


class ScriptedSocket:
    """A fake socket replaying ``data`` in caller-chosen fragments.

    ``cuts`` are positions at which recv deliberately stops short, so a
    property can drive the codec through every split-read shape.  Once
    the data is exhausted recv returns ``b""`` — a clean peer close.
    """

    def __init__(self, data: bytes, cuts=()) -> None:
        self._data = data
        self._pos = 0
        self._stops = sorted({c for c in cuts if 0 < c < len(data)})
        self.sent = bytearray()
        self.recv_sizes = []
        #: The objects ``recv_into`` filled (the receive buffers).
        self.filled = []

    def recv(self, size: int) -> bytes:
        self.recv_sizes.append(size)
        if self._pos >= len(self._data):
            return b""
        end = self._pos + size
        for stop in self._stops:
            if self._pos < stop < end:
                end = stop
                break
        part = self._data[self._pos : end]
        self._pos = end
        return part

    def recv_into(self, buffer, nbytes: int = 0) -> int:
        view = memoryview(buffer)
        part = self.recv(nbytes or len(view))
        view[: len(part)] = part
        if part:
            self.filled.append(view.obj)
        return len(part)

    def sendall(self, data: bytes) -> None:
        self.sent.extend(data)

    def sendmsg(self, buffers) -> int:
        sent = 0
        for buffer in buffers:
            self.sent.extend(buffer)
            sent += memoryview(buffer).nbytes
        return sent


def framed(message) -> bytes:
    """The exact bytes ``send_message`` puts on the wire for ``message``."""
    sock = ScriptedSocket(b"")
    send_message(sock, message)
    return bytes(sock.sent)


messages = st.dictionaries(
    st.text(max_size=8),
    st.one_of(
        st.integers(),
        st.floats(allow_nan=False),
        st.binary(max_size=64),
        st.lists(st.integers(), max_size=8),
        st.none(),
    ),
    max_size=8,
)

arrays = hnp.arrays(
    dtype=st.sampled_from([np.int32, np.int64, np.float64]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
)

#: Messages shaped like a chunk frame: metadata beside a few arrays.
array_messages = st.fixed_dictionaries(
    {"type": st.just("chunk"), "chunk": st.integers(0, 99)},
    optional={
        "snapshot": st.dictionaries(
            st.sampled_from(["nodes", "indptr", "indices", "values"]), arrays, max_size=4
        )
    },
)


def assert_same_message(got, want):
    """Equality that compares arrays by dtype, shape and bytes (NaN-safe)."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, dict):
            assert_same_message(got[key], value)
        elif isinstance(value, np.ndarray):
            assert isinstance(got[key], np.ndarray)
            assert got[key].dtype == value.dtype
            assert got[key].shape == value.shape
            assert got[key].tobytes() == value.tobytes()
        else:
            assert got[key] == value


def table_frame(count, meta_size, sizes, length=None):
    """A hand-built frame head: prefix, layout and buffer size table."""
    body = _LAYOUT.pack(count, meta_size) + b"".join(struct.pack(">Q", n) for n in sizes)
    if length is None:
        length = len(body) + meta_size + sum(sizes)
    return _HEADER.pack(length) + body


class TestRoundTrip:
    @given(message=messages, data=st.data())
    def test_any_fragmentation_round_trips(self, message, data):
        wire = framed(message)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=max(1, len(wire) - 1)),
                max_size=8,
            )
        )
        sock = ScriptedSocket(wire, cuts=cuts)
        assert recv_message(sock) == dict(message)

    @given(message=messages)
    def test_byte_at_a_time_reads_round_trip(self, message):
        wire = framed(message)
        sock = ScriptedSocket(wire, cuts=range(1, len(wire)))
        assert recv_message(sock) == dict(message)

    def test_two_frames_back_to_back(self):
        first, second = {"type": "ping", "seq": 1}, {"type": "pong", "seq": 1}
        sock = ScriptedSocket(framed(first) + framed(second), cuts=(3, 11, 20))
        assert recv_message(sock) == first
        assert recv_message(sock) == second


class TestTruncation:
    @given(message=messages, data=st.data())
    def test_any_truncation_raises_eoferror(self, message, data):
        wire = framed(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        sock = ScriptedSocket(wire[:cut])
        with pytest.raises(EOFError):
            recv_message(sock)

    def test_clean_close_before_any_byte_is_eof(self):
        with pytest.raises(EOFError, match="peer closed"):
            recv_message(ScriptedSocket(b""))


class TestOversize:
    @given(
        length=st.integers(min_value=MAX_MESSAGE_BYTES + 1, max_value=2**64 - 1)
    )
    @settings(max_examples=30)
    def test_oversize_prefix_rejected_before_allocation(self, length):
        sock = ScriptedSocket(_HEADER.pack(length) + b"x" * 64)
        with pytest.raises(OSError, match="exceeds"):
            recv_message(sock)
        # Only the 8-byte header may have been requested — the bogus
        # payload length must never reach a recv call (no allocation).
        assert all(size <= _HEADER.size for size in sock.recv_sizes)

    def test_limit_itself_is_not_rejected_by_the_guard(self):
        # A frame of exactly MAX_MESSAGE_BYTES (its layout consistent)
        # passes the size checks and then fails as a short read —
        # EOFError, not the OSError guard.
        head = table_frame(0, MAX_MESSAGE_BYTES - _LAYOUT.size, [])
        sock = ScriptedSocket(head + b"x" * 16)
        with pytest.raises(EOFError):
            recv_message(sock)

    def test_buffer_count_over_the_limit_is_refused_before_its_size_table(self):
        count = MAX_FRAME_BUFFERS + 1
        head = table_frame(count, 0, [0] * count)
        sock = ScriptedSocket(head + bytes(64))
        with pytest.raises(OSError, match="buffers"):
            recv_message(sock)
        # The prefix and the layout were read; the size table was not.
        assert sock.recv_sizes == [_HEADER.size, _LAYOUT.size]

    def test_size_table_longer_than_the_frame_is_refused_unread(self):
        head = table_frame(4, 0, [0] * 4, length=_LAYOUT.size + 8)
        sock = ScriptedSocket(head)
        with pytest.raises(OSError, match="buffers"):
            recv_message(sock)
        assert sock.recv_sizes == [_HEADER.size, _LAYOUT.size]

    @pytest.mark.parametrize("size", [MAX_MESSAGE_BYTES, 2**62])
    def test_buffer_sizes_beyond_the_frame_are_refused_before_allocating(self, size):
        # The frame's own length is small and valid; the buffer it
        # announces is not.  Allocating 2**62 bytes would raise
        # MemoryError, so reaching the OSError proves nothing was.
        head = table_frame(1, 0, [size], length=_LAYOUT.size + 8)
        sock = ScriptedSocket(head + bytes(64))
        with pytest.raises(OSError, match="add up"):
            recv_message(sock)
        assert sock.filled == []


class TestGarbage:
    @given(payload=st.binary(min_size=0, max_size=256))
    def test_garbage_payload_never_hangs_or_yields_non_dicts(self, payload):
        # A syntactically valid header framing arbitrary bytes: the codec
        # must either produce a dict (random bytes *can* be a valid
        # pickle, e.g. b"}." is {}) or raise a transport error — never
        # hang, never hand back a non-dict.
        sock = ScriptedSocket(_HEADER.pack(len(payload)) + payload)
        try:
            message = recv_message(sock)
        except (EOFError, OSError):
            return
        assert isinstance(message, dict)

    def test_metadata_that_fails_to_unpickle_is_an_oserror(self):
        # Unpickling may raise anything, here a ValueError from a
        # __reduce__; callers only handle transport errors.
        sender = ScriptedSocket(b"")
        send_message(sender, {"type": "result", "results": _Undecodable()})
        with pytest.raises(OSError, match="undecodable.*ValueError"):
            recv_message(ScriptedSocket(bytes(sender.sent)))

    @given(junk=st.binary(min_size=1, max_size=64))
    def test_garbage_prefix_shorter_than_a_header_is_eof(self, junk):
        sock = ScriptedSocket(junk[: _HEADER.size - 1])
        with pytest.raises(EOFError):
            recv_message(sock)


class TestArrays:
    """Arrays leave in their own memory and arrive in their own buffers."""

    @given(message=array_messages, data=st.data())
    @settings(max_examples=60)
    def test_arrays_round_trip_under_any_fragmentation(self, message, data):
        wire = framed(message)
        cuts = data.draw(
            st.lists(st.integers(min_value=1, max_value=max(1, len(wire) - 1)), max_size=12)
        )
        assert_same_message(recv_message(ScriptedSocket(wire, cuts=cuts)), message)

    def test_every_array_is_an_out_of_band_buffer(self):
        message = {
            "nodes": np.arange(300, dtype=np.int32),
            "indptr": np.arange(301, dtype=np.int64),
            "values": np.linspace(0.0, 1.0, 300),
        }
        wire = framed(message)
        count, meta_size = _LAYOUT.unpack_from(wire, _HEADER.size)
        assert count == 3
        sizes = struct.unpack_from(">3Q", wire, _HEADER.size + _LAYOUT.size)
        assert list(sizes) == [a.nbytes for a in message.values()]
        # The metadata is small: the array bytes are not pickled into it.
        assert meta_size < 1024
        assert _HEADER.unpack_from(wire)[0] == len(wire) - _HEADER.size

    @given(
        message=array_messages.filter(
            lambda m: any(a.nbytes for a in m.get("snapshot", {}).values())
        ),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_truncation_inside_a_buffer_raises_eoferror(self, message, data):
        wire = framed(message)
        nbytes = sum(a.nbytes for a in message["snapshot"].values())
        cut = data.draw(st.integers(min_value=len(wire) - nbytes, max_value=len(wire) - 1))
        with pytest.raises(EOFError):
            recv_message(ScriptedSocket(wire[:cut]))

    def test_received_array_shares_memory_with_its_receive_buffer(self):
        sent = np.arange(1000, dtype=np.int64)
        sock = ScriptedSocket(framed({"indices": sent}), cuts=(100, 3000))
        got = recv_message(sock)["indices"]
        np.testing.assert_array_equal(got, sent)
        buffers = {id(obj): obj for obj in sock.filled if isinstance(obj, bytearray)}
        assert len(buffers) == 1
        (buffer,) = buffers.values()
        assert np.shares_memory(got, np.frombuffer(buffer, dtype=np.uint8))
        assert got.flags.writeable

    def test_non_contiguous_arrays_travel_in_band(self):
        message = {"strided": np.arange(20)[::3]}
        wire = framed(message)
        assert _LAYOUT.unpack_from(wire, _HEADER.size)[0] == 0
        assert_same_message(recv_message(ScriptedSocket(wire)), message)


class TestTornFrame:
    """The worker's ``truncate_frame`` fault sends ``_torn_frame``."""

    def test_cut_falls_inside_the_buffer_section(self):
        message = {"type": "result", "values": np.arange(512, dtype=np.float64)}
        wire = framed(message)
        torn = _torn_frame(message)
        assert wire.startswith(torn)
        assert len(wire) - 512 * 8 < len(torn) < len(wire)
        with pytest.raises(EOFError):
            recv_message(ScriptedSocket(torn))

    def test_cut_falls_inside_the_metadata_without_arrays(self):
        message = {"type": "result", "chunk": 3, "results": list(range(50))}
        wire = framed(message)
        torn = _torn_frame(message)
        assert wire.startswith(torn)
        assert _HEADER.size + _LAYOUT.size < len(torn) < len(wire)
        with pytest.raises(EOFError):
            recv_message(ScriptedSocket(torn))
