"""CLI surface of the cluster backend: --hosts, $REPRO_HOSTS, worker serve."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.obs_report import read_journal, validate_journal
from repro.experiments.cli import _runtime_options, build_parser, main
from repro.runtime import WorkerServer


class TestHostsFlag:
    def test_default_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        args = build_parser().parse_args(["run", "fig1"])
        assert args.hosts is None
        assert _runtime_options(args).hosts == ()

    def test_hosts_flag_parses_to_runtime(self):
        args = build_parser().parse_args(
            ["run", "fig1", "--hosts", "a:7700,b:7701"]
        )
        assert _runtime_options(args).hosts == ("a:7700", "b:7701")

    def test_hosts_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOSTS", "envhost:7700")
        args = build_parser().parse_args(["run", "fig1"])
        assert args.hosts == "envhost:7700"
        assert _runtime_options(args).hosts == ("envhost:7700",)

    def test_malformed_hosts_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig1", "--hosts", "nodeport"])
        assert exc.value.code == 2
        assert "host" in capsys.readouterr().err


class TestWorkerServe:
    def test_malformed_bind_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["worker", "serve", "--bind", "nodeport"])
        assert exc.value.code == 2
        assert "host" in capsys.readouterr().err

    def test_serve_prints_address_and_honors_max_sessions(self, capsys):
        # max_sessions=0 exits immediately after binding — the smallest
        # end-to-end check of the serve loop that needs no driver.
        assert main(["worker", "serve", "--bind", "127.0.0.1:0",
                     "--max-sessions", "0"]) == 0
        out = capsys.readouterr().out
        assert "worker listening on 127.0.0.1:" in out

    def test_worker_without_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker"])
        assert "usage" in capsys.readouterr().err


class TestEndToEnd:
    def test_run_through_two_localhost_workers(self, tmp_path, monkeypatch):
        """fig18 at small scale through two loopback workers: exit 0, a
        validating journal with cluster events, and a cached artifact."""
        monkeypatch.setenv("REPRO_SCALE", "small")
        # No session cap: a figure may run several batches, each opening a
        # fresh driver session per host.
        servers = [WorkerServer() for _ in range(2)]
        threads = [
            threading.Thread(target=s.serve_forever, daemon=True)
            for s in servers
        ]
        for thread in threads:
            thread.start()
        journal = tmp_path / "run.jsonl"
        try:
            code = main(
                [
                    "run",
                    "fig18",
                    "--quiet",
                    "--hosts",
                    ",".join(s.address for s in servers),
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--journal",
                    str(journal),
                ]
            )
        finally:
            for server in servers:
                server.close()
            for thread in threads:
                thread.join(timeout=5.0)
        assert code == 0
        events = read_journal(journal)
        assert validate_journal(events) == []
        assert any(e["event"] == "worker_connect" for e in events)
        assert any(e["event"] == "batch_finish" for e in events)
        assert list((tmp_path / "cache").glob("*/*.json"))
