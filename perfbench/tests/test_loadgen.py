"""The open-loop generator: due-time accounting, and capacity on this machine."""

from __future__ import annotations

import json
import socket
import threading

import pytest

import workloads
from loadgen import percentile, run_phase, tail_percentile


class FakeClock:
    """A clock that only moves when a request or a sleep moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_requests_are_timed_from_when_they_were_due(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("loadgen.time.sleep", lambda s: setattr(clock, "now", clock.now + s))
    costs = iter([0.001] * 3 + [0.050] + [0.001] * 16)

    def call():
        clock.now += next(costs)
        return "ok"

    phase = run_phase(call, rate=100.0, duration=0.2, start=0.0, clock=clock)
    assert len(phase.samples) == 20
    # Due times follow the schedule, not the replies.
    assert [round(s.due, 6) for s in phase.samples[:5]] == [0.0, 0.01, 0.02, 0.03, 0.04]
    stalled = phase.samples[3]
    assert stalled.latency == pytest.approx(0.050)
    # The stall delays the next requests; their latency counts the wait.
    assert phase.samples[4].late == pytest.approx(0.040)
    assert phase.samples[4].latency == pytest.approx(0.041)
    assert max(s.late for s in phase.samples[10:]) == 0.0


def test_failed_requests_are_recorded_and_the_schedule_goes_on():
    clock = FakeClock()
    calls = {"n": 0}

    def call():
        calls["n"] += 1
        clock.now += 0.001
        if calls["n"] % 2:
            raise OSError("refused")
        return "ok"

    phase = run_phase(call, rate=1000.0, duration=0.01, start=0.0, clock=clock)
    assert len(phase.samples) == 10
    assert sum(1 for s in phase.samples if not s.ok) == 5


def test_stop_event_ends_a_phase():
    stop = threading.Event()
    stop.set()
    phase = run_phase(lambda: None, rate=10.0, duration=100.0, stop=stop)
    assert phase.samples == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(50) == 50.0
    assert percentile([3, 1, 2], 50) == 2


class _Stub:
    """A trivial HTTP server: one thread answering every request with one reply."""

    body = json.dumps({"round": 0, "estimates": {}}).encode()
    reply = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(body), body)
    )

    def __init__(self) -> None:
        self.sock = socket.create_server(("127.0.0.1", 0), backlog=128)
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
                conn.sendall(self.reply)

    def close(self) -> None:
        # Closing alone leaves accept() blocked on Linux; shutdown wakes it.
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join(timeout=10)


def test_generator_sustains_the_top_ladder_rate_against_a_stub():
    """``read_max_rps`` measures the service, not the generator.

    The generator drives the shipped client at the highest ladder rate
    against a trivial in-process server: it must keep up (no backlog) with
    lateness far under the latency limit.
    """
    from repro.service.server import ServiceClient

    service = workloads.WORKLOADS["service_mixed"]
    top = max(service.ladder)
    stub = _Stub()
    try:
        phase = run_phase(ServiceClient(stub.address, timeout=5.0).estimate, rate=top, duration=2.0)
    finally:
        stub.close()
    assert not stub.thread.is_alive()
    assert all(s.ok for s in phase.samples)
    late_ms = percentile([s.late for s in phase.samples], 99) * 1000.0
    assert phase.backlog() * 1000.0 < service.limit_ms / 5
    assert late_ms < service.limit_ms / 5, f"generator p99 lateness {late_ms:.1f} ms"
    assert phase.achieved_rate() >= 0.9 * top
