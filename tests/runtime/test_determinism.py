"""Serial-vs-parallel determinism at the figure level.

The acceptance bar for the runtime: the same figure regenerated with any
worker count — or served from the results store — is numerically identical,
curve by curve, to the serial run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.dynamic import fig09_sc_catastrophic, fig15_agg_failures
from repro.experiments.scale_free_exp import fig08_scale_free_comparison
from repro.experiments.static import fig01_sample_collide_100k, fig05_aggregation_100k
from repro.runtime import ResultsStore, RuntimeOptions, TelemetryCollector


def _assert_figures_equal(a, b):
    assert [c.label for c in a.curves] == [c.label for c in b.curves]
    for ca, cb in zip(a.curves, b.curves):
        np.testing.assert_array_equal(ca.x, cb.x)
        np.testing.assert_array_equal(ca.y, cb.y)


@pytest.mark.parametrize(
    "figure",
    [
        fig01_sample_collide_100k,  # static_probe kind
        fig05_aggregation_100k,  # agg_convergence kind
        fig08_scale_free_comparison,  # static_probe + agg_epoch, shared overlay
        fig09_sc_catastrophic,  # multi_probe kind (churn replay)
        fig15_agg_failures,  # agg_dynamic kind
    ],
)
def test_parallel_matches_serial(figure, tiny_scale):
    serial = figure(scale=tiny_scale, seed=123)
    parallel = figure(
        scale=tiny_scale,
        seed=123,
        runtime=RuntimeOptions(workers=2, chunk_size=2),
    )
    _assert_figures_equal(serial, parallel)


def test_cached_rerun_matches_and_skips_execution(tiny_scale, tmp_path):
    store = ResultsStore(tmp_path)
    first = fig01_sample_collide_100k(
        scale=tiny_scale, seed=123, runtime=RuntimeOptions(store=store)
    )
    telemetry = TelemetryCollector()
    second = fig01_sample_collide_100k(
        scale=tiny_scale,
        seed=123,
        runtime=RuntimeOptions(store=store, progress=telemetry),
    )
    _assert_figures_equal(first, second)
    assert telemetry.count("cache_hit") == 1
    assert telemetry.count("batch_start") == 0  # nothing executed

    # a different seed is a different content address, not a stale hit
    third = fig01_sample_collide_100k(
        scale=tiny_scale, seed=124, runtime=RuntimeOptions(store=store)
    )
    with pytest.raises(AssertionError):
        _assert_figures_equal(first, third)
