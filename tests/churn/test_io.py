"""Tests for churn-trace persistence."""

from __future__ import annotations

import json

import pytest

from repro.churn.io import FORMAT_VERSION, TraceFormatError, load_trace, save_trace
from repro.churn.models import (
    ChurnEvent,
    ChurnTrace,
    catastrophic_trace,
    growing_trace,
)


class TestRoundTrip:
    def test_simple_trace(self, tmp_path):
        trace = ChurnTrace([
            ChurnEvent(time=1.0, joins=10),
            ChurnEvent(time=2.5, leaves=3),
            ChurnEvent(time=9.0, frac_leaves=0.25),
            ChurnEvent(time=12.0, frac_joins=0.5),
        ])
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == 4
        for a, b in zip(trace, loaded):
            assert (a.time, a.joins, a.leaves, a.frac_joins, a.frac_leaves) == (
                b.time, b.joins, b.leaves, b.frac_joins, b.frac_leaves
            )

    def test_scenario_factories_roundtrip(self, tmp_path):
        for i, trace in enumerate(
            [catastrophic_trace(), growing_trace(1_000, 0.5, steps=7)]
        ):
            path = tmp_path / f"t{i}.jsonl"
            save_trace(trace, path)
            loaded = load_trace(path)
            assert loaded.net_change(1_000) == trace.net_change(1_000)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_trace(ChurnTrace(), path)
        assert len(load_trace(path)) == 0

    def test_loaded_trace_is_replayable(self, tmp_path):
        trace = growing_trace(500, 0.2, start=1, end=5, steps=5)
        path = tmp_path / "replay.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert [e.time for e in loaded.due(3.0)] == [1.0, 2.0, 3.0]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            load_trace(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceFormatError, match="invalid header"):
            load_trace(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
        with pytest.raises(TraceFormatError, match="not a repro churn trace"):
            load_trace(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": "repro-churn-trace", "version": FORMAT_VERSION + 1})
            + "\n"
        )
        with pytest.raises(TraceFormatError, match="unsupported version"):
            load_trace(path)

    def test_bad_event_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"format": "repro-churn-trace", "version": FORMAT_VERSION, "events": 1}
            )
            + "\n{broken\n"
        )
        with pytest.raises(TraceFormatError, match=":2:"):
            load_trace(path)

    @pytest.mark.parametrize(
        "record", [{"time": float("nan"), "joins": 1}, {"time": 1.0, "frac_joins": float("inf")}]
    )
    def test_non_finite_event_line_number_reported(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": "repro-churn-trace", "version": FORMAT_VERSION})
            + "\n"
            + json.dumps({"time": 0.5, "joins": 1})
            + "\n"
            + json.dumps(record)
            + "\n"
        )
        with pytest.raises(TraceFormatError, match=":3: bad event"):
            load_trace(path)

    def test_event_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"format": "repro-churn-trace", "version": FORMAT_VERSION, "events": 5}
            )
            + "\n"
            + json.dumps({"time": 1.0, "joins": 1})
            + "\n"
        )
        with pytest.raises(TraceFormatError, match="declares 5"):
            load_trace(path)

    def test_invalid_event_semantics(self, tmp_path):
        # joins and frac_joins together violate ChurnEvent's contract
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"format": "repro-churn-trace", "version": FORMAT_VERSION}
            )
            + "\n"
            + json.dumps({"time": 1.0, "joins": 1, "frac_joins": 0.5})
            + "\n"
        )
        with pytest.raises(TraceFormatError, match="bad event"):
            load_trace(path)
