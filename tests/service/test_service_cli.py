"""CLI surface of the estimation service: `repro-experiment serve`."""

from __future__ import annotations

import json
import re

import pytest

from repro.analysis.obs_report import read_journal, validate_journal
from repro.experiments.cli import build_parser, main


class TestParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.bind == "127.0.0.1:0"
        assert args.binary_bind is None
        assert args.estimators == "sample_collide,aggregation"
        assert args.nodes == 2000
        assert args.max_qps == 0.0
        assert args.snapshot is None
        assert args.snapshot_every == 0
        assert args.tick_interval == 0.0
        assert args.rounds == 0

    def test_malformed_bind_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--bind", "nodeport"])
        assert exc.value.code == 2
        assert "host" in capsys.readouterr().err

    def test_unknown_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--estimators", "bogus"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err

    def test_snapshot_every_needs_snapshot(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--snapshot-every", "10"])
        assert exc.value.code == 2
        assert "--snapshot" in capsys.readouterr().err

    def test_binary_bind_must_share_the_host(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--bind", "127.0.0.1:0",
                  "--binary-bind", "0.0.0.0:0"])
        assert exc.value.code == 2
        assert "same host" in capsys.readouterr().err

    def test_unknown_serve_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--no-such-flag"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestServeSmoke:
    def test_bounded_run_prints_machine_parsable_address(self, capsys, tmp_path):
        journal_path = tmp_path / "svc.jsonl"
        snapshot_path = tmp_path / "svc.json"
        assert main([
            "serve", "--bind", "127.0.0.1:0",
            "--nodes", "200", "--estimators", "sample_collide",
            "--tick-interval", "0.001", "--rounds", "6",
            "--snapshot", str(snapshot_path), "--snapshot-every", "3",
            "--journal", str(journal_path),
        ]) == 0
        out = capsys.readouterr().out
        match = re.search(r"^REPRO_SERVICE_ADDR=127\.0\.0\.1:(\d+)$", out, re.M)
        assert match, out
        assert int(match.group(1)) > 0  # port 0 resolved to the chosen port
        assert "service listening on 127.0.0.1:" in out

        # The bounded ticker crossed two snapshot_every=3 boundaries.
        assert json.loads(snapshot_path.read_text())["round"] == 6
        events = read_journal(journal_path)
        assert validate_journal(events) == []
        kinds = [e["event"] for e in events]
        assert "service_start" in kinds
        assert kinds.count("snapshot_checkpoint") == 2

    def test_restart_restores_from_the_snapshot(self, capsys, tmp_path):
        snapshot_path = tmp_path / "svc.json"
        base = [
            "serve", "--bind", "127.0.0.1:0",
            "--nodes", "200", "--estimators", "sample_collide",
            "--tick-interval", "0.001", "--snapshot", str(snapshot_path),
        ]
        assert main(base + ["--rounds", "4", "--snapshot-every", "4"]) == 0
        capsys.readouterr()
        # Second invocation finds the checkpoint and resumes past it (the
        # checkpoint's own config governs, including snapshot_every=4).
        assert main(base + ["--rounds", "8", "--snapshot-every", "4"]) == 0
        out = capsys.readouterr().out
        assert f"service restored from {snapshot_path} (round 4" in out
        assert json.loads(snapshot_path.read_text())["round"] == 8

    def test_truncated_checkpoint_is_a_clean_exit_2(self, capsys, tmp_path):
        snapshot_path = tmp_path / "svc.json"
        base = [
            "serve", "--bind", "127.0.0.1:0",
            "--nodes", "200", "--estimators", "sample_collide",
            "--tick-interval", "0.001", "--snapshot", str(snapshot_path),
        ]
        assert main(base + ["--rounds", "2", "--snapshot-every", "2"]) == 0
        data = snapshot_path.read_bytes()
        snapshot_path.write_bytes(data[: len(data) // 2])  # a torn write
        capsys.readouterr()
        assert main(base + ["--rounds", "4"]) == 2
        captured = capsys.readouterr()
        assert f"serve: cannot restore {snapshot_path}: JSONDecodeError" in captured.err
        assert "service listening" not in captured.out
        assert snapshot_path.read_bytes() == data[: len(data) // 2]  # left as found

    def test_binary_address_line(self, capsys, tmp_path):
        assert main([
            "serve", "--bind", "127.0.0.1:0", "--binary-bind", "127.0.0.1:0",
            "--nodes", "200", "--estimators", "sample_collide",
            "--tick-interval", "0.001", "--rounds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^REPRO_SERVICE_BINARY_ADDR=127\.0\.0\.1:\d+$", out, re.M)


class TestWorkerAddrLine:
    def test_worker_serve_prints_machine_parsable_address(self, capsys):
        assert main(["worker", "serve", "--bind", "127.0.0.1:0",
                     "--max-sessions", "0"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"^REPRO_WORKER_ADDR=127\.0\.0\.1:(\d+)$", out, re.M)
        assert match, out
        assert int(match.group(1)) > 0
