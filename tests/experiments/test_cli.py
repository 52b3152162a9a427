"""Tests for the repro-experiment command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments import FIGURES, TABLES
from repro.experiments.cli import build_parser, main


class TestParser:
    def test_all_targets_accepted(self):
        parser = build_parser()
        for name in list(FIGURES) + list(TABLES) + ["all"]:
            args = parser.parse_args(["run", name])
            assert args.target == name

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["run", "fig1", "--scale", "small"])
        assert args.scale == "small"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--scale", "gigantic"])

    def test_seed_and_csv(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "table1", "--seed", "9", "--csv-dir", str(tmp_path)]
        )
        assert args.seed == 9
        assert args.csv_dir == tmp_path

    def test_cache_subcommands_parse(self, tmp_path):
        for sub in ("ls", "stats"):
            args = build_parser().parse_args(
                ["cache", sub, "--cache-dir", str(tmp_path)]
            )
            assert args.cache_command == sub
        args = build_parser().parse_args(
            ["cache", "gc", "--cache-dir", str(tmp_path), "--max-age-days", "7",
             "--max-size", "1MB", "--dry-run"]
        )
        assert args.cache_command == "gc"
        assert args.max_age_days == 7
        assert args.max_size == 10**6
        assert args.dry_run is True


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table1" in out

    def test_run_figure_renders_chart(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        # fig7 is the fastest figure (graph construction only).
        assert main(["run", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out
        assert "legend" in out

    def test_bare_target_is_a_usage_error(self, capsys):
        """A target needs the ``run`` subcommand in front of it."""
        with pytest.raises(SystemExit) as exc:
            main(["fig7"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_run_table_renders_rows(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["run", "ablation_hops_oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle distances" in out

    def test_csv_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["run", "fig7", "--csv-dir", str(tmp_path), "--quiet"]) == 0
        csv_file = tmp_path / "fig7.csv"
        assert csv_file.exists()
        assert csv_file.read_text().startswith("figure,curve,x,y")

    def test_quiet_suppresses_chart(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        main(["run", "fig7", "--quiet"])
        assert "legend" not in capsys.readouterr().out
