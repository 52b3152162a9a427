"""Tests for the CLI's runtime flags (--workers / --cache-dir / --force)."""

from __future__ import annotations

import pytest

from repro.experiments.cli import _runtime_options, build_parser, main


class TestFlagParsing:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        args = build_parser().parse_args(["run", "fig1"])
        assert args.workers == 1
        assert args.cache_dir is None
        assert args.force is False

    def test_workers_flag(self):
        args = build_parser().parse_args(["run", "fig1", "--workers", "4"])
        assert args.workers == 4

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        args = build_parser().parse_args(["run", "fig1"])
        assert args.workers == 3

    def test_cache_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        args = build_parser().parse_args(["run", "fig1"])
        assert args.cache_dir == tmp_path

    def test_run_honors_cache_dir_env(self, tmp_path, monkeypatch):
        """$REPRO_CACHE_DIR alone must make `run` cache its artifacts."""
        monkeypatch.setenv("REPRO_SCALE", "small")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(["run", "fig18", "--quiet"]) == 0
        assert len(list((tmp_path / "envcache").glob("*/*.json"))) == 1

    def test_cache_dir_and_force(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig1", "--cache-dir", str(tmp_path), "--force"]
        )
        assert args.cache_dir == tmp_path
        assert args.force is True

    def test_runtime_options_mapping(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig1", "--workers", "2", "--cache-dir", str(tmp_path)]
        )
        runtime = _runtime_options(args, tag="fig1")
        assert runtime.workers == 2
        assert runtime.store is not None
        assert runtime.store.root == tmp_path
        assert runtime.tag == "fig1"

    def test_no_cache_dir_no_store(self):
        runtime = _runtime_options(build_parser().parse_args(["run", "fig1"]))
        assert runtime.store is None

    def test_rejects_bad_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--workers", "two"])

    def test_rejects_file_as_cache_dir(self, tmp_path):
        not_a_dir = tmp_path / "artifact.json"
        not_a_dir.write_text("{}")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fig1", "--cache-dir", str(not_a_dir)]
            )


class TestMainWithRuntime:
    def test_figure_with_workers_and_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "small")
        cache = tmp_path / "cache"
        argv = [
            "run",
            "fig18",
            "--workers",
            "2",
            "--cache-dir",
            str(cache),
            "--quiet",
        ]
        assert main(argv) == 0
        artifacts = list(cache.glob("*/*.json"))
        assert len(artifacts) == 1
        # second invocation is served from the store (artifact untouched)
        mtime = artifacts[0].stat().st_mtime_ns
        assert main(argv) == 0
        assert artifacts[0].stat().st_mtime_ns == mtime

    def test_force_rewrites_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        cache = tmp_path / "cache"
        argv = ["run", "fig18", "--cache-dir", str(cache), "--quiet"]
        assert main(argv) == 0
        artifact = next(cache.glob("*/*.json"))
        mtime = artifact.stat().st_mtime_ns
        assert main(argv + ["--force"]) == 0
        assert next(cache.glob("*/*.json")).stat().st_mtime_ns > mtime

    def test_artifact_carries_target_tag(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_SCALE", "small")
        cache = tmp_path / "cache"
        assert main(["run", "fig18", "--cache-dir", str(cache), "--quiet"]) == 0
        artifact = json.loads(next(cache.glob("*/*.json")).read_text())
        assert artifact["meta"]["tag"] == "fig18"

    def test_ablation_honors_runtime_flags(self, tmp_path, monkeypatch, capsys):
        """The ablation tables run through the runtime since their port."""
        monkeypatch.setenv("REPRO_SCALE", "small")
        cache = tmp_path / "cache"
        argv = [
            "run",
            "ablation_hops_oracle",
            "--workers",
            "2",
            "--cache-dir",
            str(cache),
            "--quiet",
        ]
        assert main(argv) == 0
        artifacts = list(cache.glob("*/*.json"))
        assert len(artifacts) == 2  # one batch per distance mode
