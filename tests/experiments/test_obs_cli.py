"""CLI observability surface: `run --journal` and the `obs` family.

Also covers table1/fig7, which route through the runtime since the
observability PR: their rows must be identical at any worker count and
their batches must land in the results store like every figure's.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.cli import _runtime_options, build_parser, main
from repro.experiments.overhead import table1_overhead
from repro.experiments.scale_free_exp import fig07_scale_free_degrees
from repro.runtime import JournalReporter, LogProgress, RuntimeOptions, TeeProgress


class TestParsing:
    def test_journal_flag(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig7", "--journal", str(tmp_path / "run.jsonl")]
        )
        assert args.journal == tmp_path / "run.jsonl"
        assert build_parser().parse_args(["run", "fig7"]).journal is None

    def test_obs_subcommands_parse(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        for sub in ("summary", "validate"):
            args = build_parser().parse_args(["obs", sub, journal])
            assert args.obs_command == sub
        args = build_parser().parse_args(
            ["obs", "trace", journal, "-o", str(tmp_path / "trace.json")]
        )
        assert args.obs_command == "trace"
        assert args.out == tmp_path / "trace.json"

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_runtime_options_compose_reporters(self, tmp_path):
        journal = JournalReporter(tmp_path / "run.jsonl")
        try:
            args = build_parser().parse_args(["run", "fig7", "--progress"])
            runtime = _runtime_options(args, journal=journal)
            assert isinstance(runtime.progress, TeeProgress)
            kinds = {type(r) for r in runtime.progress.reporters}
            assert kinds == {LogProgress, JournalReporter}
            quiet = build_parser().parse_args(["run", "fig7"])
            assert _runtime_options(quiet, journal=journal).progress is journal
            assert _runtime_options(quiet).progress is None
        finally:
            journal.close()


class TestObsFlow:
    def _journal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        journal = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "run",
                    "fig7",
                    "--workers",
                    "2",
                    "--journal",
                    str(journal),
                    "--quiet",
                ]
            )
            == 0
        )
        return journal

    def test_run_writes_valid_journal(self, tmp_path, monkeypatch, capsys):
        journal = self._journal(tmp_path, monkeypatch)
        assert journal.exists()
        assert main(["obs", "validate", str(journal)]) == 0
        assert "valid journal" in capsys.readouterr().out

    def test_summary_renders(self, tmp_path, monkeypatch, capsys):
        journal = self._journal(tmp_path, monkeypatch)
        assert main(["obs", "summary", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "run journal summary" in out
        assert "estimation" in out

    def test_trace_export(self, tmp_path, monkeypatch, capsys):
        journal = self._journal(tmp_path, monkeypatch)
        trace_path = tmp_path / "trace.json"
        assert main(["obs", "trace", str(journal), "-o", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_to_stdout(self, tmp_path, monkeypatch, capsys):
        journal = self._journal(tmp_path, monkeypatch)
        assert main(["obs", "trace", str(journal)]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert "traceEvents" in trace

    def test_missing_journal_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "obs summary" in capsys.readouterr().err

    def test_invalid_journal_fails_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ts": 1.0, "event": "warp-core-breach"}\n')
        assert main(["obs", "validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "problem(s)" in out


DATA = pathlib.Path(__file__).parents[1] / "runtime" / "data"


@pytest.mark.parametrize("name", ["golden_cluster", "golden_heartbeat"])
class TestGoldenOutput:
    """`obs summary` and `obs trace` of the committed cluster journals."""

    def test_summary_matches(self, name, capsys):
        assert main(["obs", "summary", str(DATA / f"{name}_journal.jsonl")]) == 0
        assert capsys.readouterr().out == (DATA / f"{name}_summary.txt").read_text()

    def test_trace_matches(self, name, capsys):
        assert main(["obs", "trace", str(DATA / f"{name}_journal.jsonl")]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace == json.loads((DATA / f"{name}_trace.json").read_text())


class TestRoutedExperiments:
    """table1/fig7 ride the runtime now: parallel-identical and cacheable."""

    def test_table1_rows_identical_at_any_worker_count(self):
        serial = table1_overhead(scale="small")
        parallel = table1_overhead(
            scale="small", runtime=RuntimeOptions.create(workers=2)
        )
        assert serial.rows == parallel.rows
        assert serial.title == parallel.title

    def test_fig7_identical_at_any_worker_count(self):
        serial = fig07_scale_free_degrees(scale="small")
        parallel = fig07_scale_free_degrees(
            scale="small", runtime=RuntimeOptions.create(workers=2)
        )
        assert serial.params == parallel.params
        assert [(c.label, c.x.tolist(), c.y.tolist()) for c in serial.curves] == [
            (c.label, c.x.tolist(), c.y.tolist()) for c in parallel.curves
        ]

    def test_table1_batches_land_in_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        cache = tmp_path / "cache"
        argv = ["run", "table1", "--cache-dir", str(cache), "--quiet"]
        assert main(argv) == 0
        artifacts = list(cache.glob("*/*.json"))
        # sc probes, hops probes, aggregation epoch, overlay stats.
        assert len(artifacts) == 4
        mtimes = sorted(a.stat().st_mtime_ns for a in artifacts)
        assert main(argv) == 0  # warm run: all four served from the store
        assert sorted(a.stat().st_mtime_ns for a in artifacts) == mtimes

    def test_fig7_batch_lands_in_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        cache = tmp_path / "cache"
        assert main(["run", "fig7", "--cache-dir", str(cache), "--quiet"]) == 0
        artifacts = list(cache.glob("*/*.json"))
        assert len(artifacts) == 1
        meta = json.loads(artifacts[0].read_text())["meta"]
        assert meta["tag"] == "fig7"
