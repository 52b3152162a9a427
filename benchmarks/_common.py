"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure/table of the paper at the ``small``
scale preset (override with ``REPRO_SCALE``) and prints the reproduction
next to the paper's expectation, so ``pytest benchmarks/ --benchmark-only``
doubles as the experiment regeneration run.  Timings measure the full
experiment pipeline (overlay construction + protocol + accounting).

Set ``REPRO_CACHE_DIR`` to point the runtime's content-addressed results
store at a directory: reruns of unchanged figures then skip recomputation
entirely (the timing reflects the cache hit — useful when iterating on one
benchmark while the rest of the suite stays warm).  ``REPRO_WORKERS``
shards each figure's trials over worker processes; results are
bit-identical either way.  The ablation tables participate too (each grid
point is one cached batch); inspect or prune what the runs wrote with
``repro-experiment cache ls|stats|gc``.

Artifacts written through the cache carry the producing git revision in
their headers, so benchmark stores feed ``repro-experiment trends``
directly (see docs/TRENDS.md).  Additionally, set ``REPRO_BENCH_TRENDS``
to a file path to append one summary entry per executed benchmark —
experiment name, scale, seed, revision and wall-clock — building the
perf-trajectory file the CI bench-trends job uploads.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable

from repro.analysis.ascii_chart import render_figure, render_table
from repro.analysis.curves import FigureResult, TableResult
from repro.experiments.config import resolve_scale
from repro.runtime import RuntimeOptions, detect_git_revision, supports_runtime

#: Benchmarks default to the small preset unless the user overrides.
SCALE = os.environ.get("REPRO_SCALE", "small")
#: Seed fixed so benchmark numbers are comparable run to run.
SEED = 20060619
#: Optional results store + worker pool, wired from the environment.
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or None
WORKERS = int(os.environ.get("REPRO_WORKERS", "1"))
#: Optional per-run trend summary file (e.g. BENCH_trends.json).
BENCH_TRENDS = os.environ.get("REPRO_BENCH_TRENDS") or None
#: Graph backend for kernel-capable estimators (docs/KERNELS.md).  "array"
#: runs the batched numpy kernels; Sample&Collide results are
#: distributionally — not bitwise — equivalent, and every array result
#: caches under a distinct content address.
GRAPH_BACKEND = os.environ.get("REPRO_GRAPH_BACKEND", "dict")


def _experiment_kwargs(fn: Callable) -> dict:
    kwargs = {"scale": SCALE, "seed": SEED}
    runtime_needed = CACHE_DIR or WORKERS > 1 or GRAPH_BACKEND != "dict"
    if runtime_needed and supports_runtime(fn):
        # the tag labels store artifacts for `repro-experiment cache ls`
        kwargs["runtime"] = RuntimeOptions.create(
            workers=WORKERS,
            cache_dir=CACHE_DIR,
            tag=fn.__name__,
            graph_backend=GRAPH_BACKEND,
        )
    return kwargs


def _append_bench_trend(name: str, elapsed: float) -> None:
    """Append one run summary to the ``$REPRO_BENCH_TRENDS`` file.

    The file is a single JSON document (``{"bench_trends_schema": 1,
    "runs": [...]}``) that accumulates across benchmarks and across CI
    runs — the raw perf trajectory behind ``trends``' elapsed_seconds
    metric.  Best-effort: a broken or read-only file never fails a
    benchmark.
    """
    if not BENCH_TRENDS:
        return
    path = pathlib.Path(BENCH_TRENDS)
    try:
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            raise ValueError
    except (OSError, ValueError):
        doc = {"bench_trends_schema": 1, "runs": []}
    doc["runs"].append(
        {
            "experiment": name,
            "scale": SCALE,
            "seed": SEED,
            "git_revision": detect_git_revision(),
            "elapsed_seconds": elapsed,
            "timestamp": time.time(),
        }
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError:
        pass


def run_experiment(benchmark, fn: Callable, render: bool = True):
    """Execute ``fn(scale=SCALE, seed=SEED)`` once under the benchmark timer
    and return its result for shape assertions."""
    kwargs = _experiment_kwargs(fn)
    elapsed: dict = {}

    def once():
        started = time.perf_counter()
        out = fn(**kwargs)
        elapsed["seconds"] = time.perf_counter() - started
        return out

    result = benchmark.pedantic(once, rounds=1, iterations=1, warmup_rounds=0)
    _append_bench_trend(fn.__name__, elapsed.get("seconds", 0.0))
    if render:
        if isinstance(result, FigureResult):
            print()
            print(render_figure(result))
        elif isinstance(result, TableResult):
            print()
            print(render_table(result))
    return result


def scale_n_100k() -> int:
    """The node count standing in for the paper's 100k runs at this scale."""
    return resolve_scale(SCALE).n_100k
