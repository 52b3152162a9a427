"""Tests for run_trials/sweep: caching, force, batch configs, series merge."""

from __future__ import annotations

import pytest

import repro.runtime.api as api
from repro.runtime import (
    EstimatorSpec,
    OverlaySpec,
    ResultsStore,
    RuntimeOptions,
    TelemetryCollector,
    TrialSpec,
    batch_config,
    run_trials,
    series_from_results,
    sweep,
)
from repro.runtime.trials import TrialResult


def _specs(count=5, seed=11, l=20):
    overlay = OverlaySpec.heterogeneous(250)
    estimator = EstimatorSpec.sample_collide(l=l)
    return [
        TrialSpec("static_probe", seed, i, overlay=overlay, estimator=estimator)
        for i in range(1, count + 1)
    ]


class TestBatchConfig:
    def test_shared_fields_compress(self):
        config = batch_config(_specs(3))
        assert config["trials"] == [[1, 0], [2, 0], [3, 0]]
        assert config["kind"] == "static_probe"
        assert "index" not in config

    def test_stream_pairing_changes_key(self):
        """Regression: two batches pairing the same indices with the same
        stream pool differently must not collide on one cache entry."""
        from repro.runtime.store import content_key

        overlay = OverlaySpec.heterogeneous(250)
        estimator = EstimatorSpec.sample_collide(l=20)

        def batch(pairs):
            return [
                TrialSpec(
                    "multi_probe", 11, i, overlay=overlay, estimator=estimator, stream=k
                )
                for i, k in pairs
            ]

        a = content_key(batch_config(batch([(1, 0), (2, 1)])))
        b = content_key(batch_config(batch([(1, 1), (2, 0)])))
        assert a != b

    def test_heterogeneous_batch_rejected(self):
        specs = _specs(2) + [_specs(1, l=10)[0]]
        with pytest.raises(ValueError):
            batch_config(specs)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_config([])


class TestCaching:
    def test_second_run_is_cache_hit(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        first = run_trials(_specs(), store=store)
        assert len(store) == 1

        # Any attempt to execute again would blow up: the cache must serve.
        def boom(self, specs):
            raise AssertionError("executor ran despite cache hit")

        monkeypatch.setattr(api.TrialExecutor, "run", boom)
        telemetry = TelemetryCollector()
        second = run_trials(_specs(), store=store, progress=telemetry)
        assert telemetry.count("cache_hit") == 1
        assert [(r.index, r.value) for r in first] == [
            (r.index, r.value) for r in second
        ]

    def test_force_recomputes(self, tmp_path):
        store = ResultsStore(tmp_path)
        run_trials(_specs(), store=store)
        telemetry = TelemetryCollector()
        run_trials(_specs(), store=store, force=True, progress=telemetry)
        assert telemetry.count("cache_hit") == 0
        assert telemetry.count("batch_start") == 1

    def test_different_params_different_entry(self, tmp_path):
        store = ResultsStore(tmp_path)
        run_trials(_specs(l=20), store=store)
        run_trials(_specs(l=10), store=store)
        assert len(store) == 2

    def test_runtime_options_bundle(self, tmp_path):
        runtime = RuntimeOptions.create(workers=2, cache_dir=tmp_path)
        assert runtime.store is not None
        run_trials(_specs(), runtime=runtime)
        assert len(runtime.store) == 1

    def test_kwargs_override_runtime(self, tmp_path):
        runtime = RuntimeOptions.create(cache_dir=tmp_path)
        run_trials(_specs(), runtime=runtime)
        telemetry = TelemetryCollector()
        # force=True overrides the bundled force=False
        run_trials(_specs(), runtime=runtime, force=True, progress=telemetry)
        assert telemetry.count("cache_hit") == 0


class TestSweep:
    def test_sweep_smoke(self, tmp_path):
        store = ResultsStore(tmp_path)
        grid = sweep(
            lambda l: _specs(count=3, l=l),
            [10, 20, 40],
            store=store,
        )
        assert sorted(grid) == [10, 20, 40]
        assert all(len(results) == 3 for results in grid.values())
        assert len(store) == 3
        # re-sweeping with one extra point only adds one artifact
        grid2 = sweep(lambda l: _specs(count=3, l=l), [10, 20, 40, 80], store=store)
        assert len(store) == 4
        assert [(r.index, r.value) for r in grid2[20]] == [
            (r.index, r.value) for r in grid[20]
        ]


class TestSeriesMerge:
    def test_stream_filter_and_skips(self):
        results = [
            TrialResult(1, 100.0, 250.0, stream=0),
            TrialResult(1, 90.0, 250.0, stream=1),
            TrialResult(2, 110.0, 250.0, stream=0),
            TrialResult(3, 0.0, 0.0, stream=0, ok=False),
        ]
        series = series_from_results(results, name="s0", stream=0)
        assert list(series.x) == [1.0, 2.0]
        assert list(series.estimates) == [100.0, 110.0]
        assert series.name == "s0"
