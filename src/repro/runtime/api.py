"""Entry points of the runtime: :func:`run_trials` and :func:`sweep`.

``run_trials`` is the single funnel every experiment goes through: it
content-addresses the batch, consults the results store, and only when the
store misses (or ``force`` is set) dispatches the specs to the executor and
persists what comes back.  ``sweep`` fans a spec factory out over a
parameter grid, one cached batch per grid point.
"""

from __future__ import annotations

import inspect
import os
import pathlib
import time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..sim.metrics import EstimateSeries
from .cluster import ClusterExecutor, parse_hosts
from .pool import TrialExecutor
from .progress import NullProgress, ProgressReporter
from .provenance import detect_git_revision, summarize_results
from .store import ResultsStore, content_key, group_key
from .trials import TrialResult, TrialSpec, apply_graph_backend

__all__ = [
    "RuntimeOptions",
    "batch_config",
    "run_trials",
    "series_from_results",
    "supports_runtime",
    "sweep",
]


def supports_runtime(fn: Callable) -> bool:
    """True when ``fn`` accepts a ``runtime=`` keyword.

    Experiments grown before this subsystem (tables, fig7) don't take the
    parameter; every entry point that threads :class:`RuntimeOptions` into
    the figure registry goes through this single probe.
    """
    try:
        return "runtime" in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


@dataclass(frozen=True)
class RuntimeOptions:
    """Execution knobs threaded from the CLI down to :func:`run_trials`.

    ``None`` (the common default for the figure functions' ``runtime``
    parameter) means serial, uncached execution — exactly the historical
    behaviour.
    """

    workers: int = 1
    chunk_size: Optional[int] = None
    store: Optional[ResultsStore] = None
    force: bool = False
    progress: Optional[ProgressReporter] = None
    #: Human experiment label written into artifact meta (``cache ls``
    #: displays it).  Display-only: never part of the content address.
    tag: Optional[str] = None
    #: Git revision recorded in artifact headers for trend tracking.
    #: ``None`` auto-detects ($REPRO_GIT_REVISION, then ``git rev-parse``);
    #: like ``tag``, provenance only — never part of the content address.
    revision: Optional[str] = None
    #: Backend of the kernel-capable estimators: ``"dict"`` (the serial
    #: reference algorithms) or ``"array"`` (the batched kernels of
    #: :mod:`repro.core.kernels`; the CLI's ``--graph-backend``).  Unlike
    #: ``workers`` this is *not* execution detail: array-backend
    #: Sample&Collide results are distributionally — not bitwise —
    #: equivalent (HopsSampling's are bit-identical), so the backend is
    #: injected into the estimator specs and perturbs the content address
    #: (docs/KERNELS.md).
    graph_backend: str = "dict"
    #: Remote worker addresses (``host:port`` tuples; the CLI's ``--hosts``
    #: / ``$REPRO_HOSTS``).  Non-empty selects the cluster executor of
    #: :mod:`~repro.runtime.cluster` instead of the process pool; like
    #: ``workers`` it is pure execution detail — results and content
    #: addresses are bit-identical at any host count (docs/DISTRIBUTED.md).
    hosts: Tuple[str, ...] = ()
    #: Seconds between liveness pings per cluster host (the CLI's
    #: ``--heartbeat-interval``; ``0`` disables the monitor).  Like
    #: ``hosts``, pure execution detail — liveness changes *when* a dead
    #: worker is noticed, never what the batch computes.
    heartbeat_interval: float = 2.0
    #: Consecutive missed pings before a cluster host is declared lost
    #: (the CLI's ``--heartbeat-misses``); with the interval this bounds
    #: failure-detection latency at ~``interval * misses`` seconds.
    heartbeat_misses: int = 3

    @classmethod
    def create(
        cls,
        workers: int = 1,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        force: bool = False,
        progress: Optional[ProgressReporter] = None,
        chunk_size: Optional[int] = None,
        tag: Optional[str] = None,
        revision: Optional[str] = None,
        graph_backend: str = "dict",
        hosts: Union[None, str, Sequence[str]] = None,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 3,
    ) -> "RuntimeOptions":
        """Convenience constructor mapping CLI-level values to options.

        ``hosts`` accepts the CLI's CSV string (``"h1:p1,h2:p2"``) or a
        sequence of ``host:port`` strings; anything non-empty routes the
        batch through the cluster executor.  ``heartbeat_interval`` /
        ``heartbeat_misses`` tune that executor's liveness monitor and
        are ignored without hosts.
        """
        store = ResultsStore(pathlib.Path(cache_dir)) if cache_dir else None
        return cls(
            workers=max(1, int(workers)),
            chunk_size=chunk_size,
            store=store,
            force=force,
            progress=progress,
            tag=tag,
            revision=revision,
            graph_backend=graph_backend,
            hosts=parse_hosts(hosts),
            heartbeat_interval=float(heartbeat_interval),
            heartbeat_misses=int(heartbeat_misses),
        )

    def with_progress(self, progress: ProgressReporter) -> "RuntimeOptions":
        """Copy with a different progress reporter."""
        return replace(self, progress=progress)

    def with_tag(self, tag: str) -> "RuntimeOptions":
        """Copy with a different artifact tag."""
        return replace(self, tag=tag)


def batch_config(specs: Sequence[TrialSpec]) -> Dict[str, Any]:
    """Canonical configuration of a whole batch (the store's hash input).

    Per-trial fields that are shared across the batch compress to the
    first spec's values plus the index/stream lists, keeping the hashed
    document small at thousands of trials.
    """
    if not specs:
        raise ValueError("cannot describe an empty batch")
    first = specs[0].as_config()
    shared = {k: v for k, v in first.items() if k not in ("index", "stream")}
    for spec in specs[1:]:
        cfg = spec.as_config()
        for key, value in shared.items():
            if cfg[key] != value:
                raise ValueError(
                    f"batch is not homogeneous: trial {spec.index} differs in {key!r}"
                )
    # The exact (index, stream) pairs — not separate index/stream pools —
    # so batches that pair them differently hash to different keys.
    shared["trials"] = [[int(s.index), int(s.stream)] for s in specs]
    return shared


def run_trials(
    specs: Sequence[TrialSpec],
    *,
    runtime: Optional[RuntimeOptions] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    store: Optional[ResultsStore] = None,
    force: Optional[bool] = None,
    progress: Optional[ProgressReporter] = None,
    tag: Optional[str] = None,
) -> List[TrialResult]:
    """Run a batch of trials with caching and parallel dispatch.

    Determinism contract: the returned results are bit-identical for any
    ``workers``/``hosts``/``chunk_size`` setting and for cache hits,
    because every trial's randomness derives from ``(hub_seed, index)``
    alone and chunked churn replay resumes each chunk from its
    predecessor's boundary snapshot — the exact serial scenario state
    (``docs/SNAPSHOTS.md``).  Boundary snapshots are cached in ``store``
    alongside the results.
    Keyword arguments override the corresponding ``runtime`` fields, so
    callers can pass a shared :class:`RuntimeOptions` and still specialize
    one knob locally.  ``tag`` labels the saved artifact for ``cache ls``
    (falling back to the batch's trial kind); it is metadata only and never
    perturbs the content address.
    """
    runtime = runtime or RuntimeOptions()
    workers = runtime.workers if workers is None else workers
    chunk_size = runtime.chunk_size if chunk_size is None else chunk_size
    store = runtime.store if store is None else store
    force = runtime.force if force is None else force
    progress = progress or runtime.progress or NullProgress()
    tag = runtime.tag if tag is None else tag

    specs = list(specs)
    if not specs:
        return []
    if runtime.graph_backend != "dict":
        # Injected *before* hashing: the backend is part of the estimator
        # spec, so array-backend batches cache under their own address and
        # never shadow reference results.
        specs = apply_graph_backend(specs, runtime.graph_backend)

    portable = all(spec.portable for spec in specs)
    config = batch_config(specs) if portable else None
    if not isinstance(progress, NullProgress):
        # Spec identity for journals: which logical experiment the coming
        # events (including a possible cache hit) belong to.  Computed only
        # when someone is listening — the hashes cost a canonical-JSON pass.
        meta: Dict[str, Any] = {
            "kind": specs[0].kind,
            "trials": len(specs),
            "tag": tag or specs[0].kind,
        }
        if config is not None:
            meta["key"] = content_key(config)
            meta["group"] = group_key(config)
        progress.on_event("batch_meta", **meta)
    if store is not None and config is not None and not force:
        cached = store.load(config)
        if cached is not None:
            progress.on_event("cache_hit", trials=len(cached))
            return cached

    if runtime.hosts:
        executor: Any = ClusterExecutor(
            runtime.hosts,
            chunk_size=chunk_size,
            progress=progress,
            snapshot_store=store,
            heartbeat_interval=runtime.heartbeat_interval,
            heartbeat_misses=runtime.heartbeat_misses,
        )
    else:
        executor = TrialExecutor(
            workers=workers,
            chunk_size=chunk_size,
            progress=progress,
            snapshot_store=store,
        )
    started = time.perf_counter()
    results = executor.run(specs)
    elapsed = time.perf_counter() - started
    if store is not None and config is not None:
        # Header provenance for the trend tracker: which code computed the
        # batch, its logical-experiment group, and a scalar metric summary
        # (quality/messages from the results, runtime measured here — the
        # only place the compute is actually timed).
        metrics: Dict[str, Any] = dict(summarize_results(results))
        metrics["elapsed_seconds"] = elapsed
        store.save(
            config,
            results,
            meta={
                "trials": len(specs),
                "tag": tag or specs[0].kind,
                "git_revision": (
                    runtime.revision
                    if runtime.revision is not None
                    else detect_git_revision()
                ),
                "metrics": metrics,
            },
        )
    return results


def sweep(
    spec_factory: Callable[[Any], Sequence[TrialSpec]],
    values: Iterable[Any],
    *,
    runtime: Optional[RuntimeOptions] = None,
    **overrides: Any,
) -> Dict[Any, List[TrialResult]]:
    """Run one cached batch per grid point of a parameter sweep.

    ``spec_factory(value)`` must return the spec batch for that point;
    each point is content-addressed independently, so re-running a sweep
    after adding grid values only computes the new points.  Each batch
    runs under :func:`run_trials`' determinism contract, and grid points
    that share a churn scenario (e.g. an estimator-parameter sweep over
    one trace) also share its cached boundary snapshots.
    """
    out: Dict[Any, List[TrialResult]] = {}
    for value in values:
        out[value] = run_trials(
            list(spec_factory(value)), runtime=runtime, **overrides
        )
    return out


def series_from_results(
    results: Sequence[TrialResult],
    name: str = "",
    stream: Optional[int] = None,
) -> EstimateSeries:
    """Merge trial results into an :class:`EstimateSeries`.

    Results arrive pre-sorted by ``(index, stream)``; pass ``stream`` to
    select one stream of a multi-stream batch.  Results flagged not-ok
    (e.g. the overlay emptied before the trial's slot) are skipped, mirroring
    the serial loops which stopped appending at that point.
    """
    series = EstimateSeries(name=name)
    for result in results:
        if stream is not None and result.stream != stream:
            continue
        if not result.ok or result.true_size <= 0:
            continue
        series.append(result.index, result.value, result.true_size)
    return series
