"""Trial executor: serial loop or chunked dispatch over a process pool.

Chunking serves two purposes: it amortizes the per-chunk warm-up (overlay
construction, churn replay) over many trials, and it keeps the number of
pickled task submissions small.  Results are merged in ``(index, stream)``
order, so the caller sees the exact sequence a serial run would have
produced regardless of which worker finished first.

For the churn-replay kinds (:data:`~repro.runtime.snapshots.SNAPSHOT_KINDS`)
parallel dispatch is *pipelined*: the executor advances one replay — the
snapshot backbone — and hands each chunk its predecessor's boundary
state, so a chunk resumes mid-scenario instead of replaying the churn
prefix from t=0.  Total replay work drops from O(horizon²/chunk) to
O(horizon).  For the probe kinds the backbone is churn-only (estimations
draw from stateless child hubs and stay fully parallel in the workers);
for ``repair_replay`` churn, repair and the monitoring protocol are one
inseparable scenario, so the backbone replays all of it — still a single
O(horizon) pass replacing the C/2 prefix replays chunking used to cost.
Results are bit-identical to serial: a restored boundary state *is* the
serial scenario state at that index.  Boundary snapshots are content-
addressed into the results store when one is configured, so warm re-runs
skip the backbone too.

Fallbacks are graceful and explicit: ``workers <= 1`` never spawns a
process; batches holding live objects (graphs, closures) are not picklable
and run serially in one chunk (the single replay loop *is* the direct
serial hand-off — state simply persists across indices); and any
pool-level failure — to *dispatch* (pickling error, missing
multiprocessing support) or a worker process dying mid-batch
(``BrokenProcessPool``, e.g. killed by the OS) — keeps the chunks that
already finished and re-runs only the rest serially, after reporting a
``partial_fallback`` event.
"""

from __future__ import annotations

import math
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, List, Mapping, Optional, Sequence

from .progress import NullProgress, ProgressReporter
from .snapshots import SNAPSHOT_KINDS, snapshot_config
from .store import SnapshotRejected
from .trials import TrialResult, TrialSpec, run_chunk

__all__ = ["SnapshotBackbone", "TrialExecutor", "chunk_specs"]

#: Target chunks per worker: enough slack for load balancing (chunks are
#: not equal cost) without drowning in warm-up overhead.
CHUNKS_PER_WORKER = 4


def chunk_specs(
    specs: Sequence[TrialSpec], chunk_size: int
) -> List[List[TrialSpec]]:
    """Split ``specs`` into consecutive chunks of at most ``chunk_size``.

    Order is preserved: churn-replay kinds rely on a chunk holding a
    contiguous index range so one replay serves all of its trials.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        list(specs[start : start + chunk_size])
        for start in range(0, len(specs), chunk_size)
    ]


class SnapshotBackbone:
    """Driver-side churn-only replay feeding boundary snapshots to chunks.

    Shared by the process-pool executor here and the cluster executor in
    :mod:`~repro.runtime.cluster` — any dispatcher that chunks a
    churn-replay batch drives one of these for its hand-off payloads.
    One instance serves one pipelined batch: it advances a single replay
    state through the chunk boundaries in order (O(horizon) total work)
    and captures a hand-off snapshot at each (JSON data plus the packed
    overlay arrays).  When a store is attached, boundaries are looked up
    before computing and saved after — the content address
    (:func:`~repro.runtime.snapshots.snapshot_config`) covers only the
    scenario prefix, so any batch replaying the same scenario shares
    them.  Store hits are adopted lazily: the payload is handed out
    immediately and only materialized into a live state if a later
    boundary misses and must be advanced to.
    """

    def __init__(
        self, spec: TrialSpec, store, progress: Optional[ProgressReporter] = None
    ) -> None:
        self.spec = spec
        self.store = store
        self.progress = progress if progress is not None else NullProgress()
        self.state_cls = SNAPSHOT_KINDS[spec.kind]
        self._state = None
        self._adopt: Optional[Mapping[str, Any]] = None
        self._save_error_reported = False

    def payload_at(self, target: int) -> Optional[Mapping[str, Any]]:
        """Snapshot payload at boundary ``target`` (``None`` = no hand-off).

        Boundary 0 is the freshly built scenario before any churn — worth
        handing off too, because restoring an overlay from its packed
        arrays is far cheaper than rebuilding it from its RNG stream.
        Returns ``None`` for negative boundaries and for non-monotone
        chunk layouts the backbone cannot serve — the chunk then falls
        back to prefix replay, which is always correct.

        Every resolution is reported as a ``snapshot_boundary`` event; a
        stored artifact that fails its checks is journaled as a
        ``snapshot_rejected`` event with the reason, then recomputed (and
        overwritten) like a miss; a failed best-effort save (read-only
        store) is surfaced once per backbone as a ``snapshot_save_error``
        event instead of being silently dropped.
        """
        begin = time.perf_counter()
        if target < 0:
            self.progress.on_event(
                "snapshot_boundary", target=target, seconds=0.0, outcome="skipped"
            )
            return None
        config = snapshot_config(self.spec, target)
        if self.store is not None:
            try:
                cached = self.store.load_snapshot(config)
            except SnapshotRejected as exc:
                cached = None
                self.progress.on_event("snapshot_rejected", target=target, reason=str(exc))
            if cached is not None:
                self._adopt = cached
                self._report_boundary(target, begin, "hit")
                return cached
        if self._adopt is not None:
            self._state = self.state_cls.restore(self.spec, self._adopt)
            self._adopt = None
        if self._state is None:
            self._state = self.state_cls.boot(self.spec)
        if target < self._state.position:
            self._report_boundary(target, begin, "skipped")
            return None
        self._state.advance(target)
        payload = self._state.snapshot()
        if self.store is not None:
            try:
                self.store.save_snapshot(
                    config, payload, meta={"tag": f"snapshot:{self.spec.kind}"}
                )
            except OSError as exc:  # read-only store: snapshots are best-effort
                if not self._save_error_reported:
                    self._save_error_reported = True
                    self.progress.on_event("snapshot_save_error", error=str(exc))
        self._report_boundary(target, begin, "computed")
        return payload

    def _report_boundary(self, target: int, begin: float, outcome: str) -> None:
        self.progress.on_event(
            "snapshot_boundary",
            target=target,
            seconds=time.perf_counter() - begin,
            outcome=outcome,
        )


class TrialExecutor:
    """Runs a batch of :class:`TrialSpec` serially or over worker processes.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` selects the in-process serial path.
    chunk_size:
        Trials per dispatched chunk (default: batch split into
        ``workers * CHUNKS_PER_WORKER`` chunks).
    progress:
        Optional :class:`ProgressReporter` for telemetry.
    snapshot_store:
        Optional :class:`~repro.runtime.store.ResultsStore` the boundary
        snapshots of churn-replay kinds are cached in.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressReporter] = None,
        snapshot_store=None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = max(1, int(workers))
        self.chunk_size = chunk_size
        self.progress = progress if progress is not None else NullProgress()
        self.snapshot_store = snapshot_store

    def _auto_chunk_size(self, total: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(total / (self.workers * CHUNKS_PER_WORKER)))

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialResult]:
        """Execute the batch and return results in ``(index, stream)`` order."""
        specs = list(specs)
        if not specs:
            return []
        portable = all(spec.portable for spec in specs)
        workers = self.workers if portable else 1
        if not portable and self.workers > 1:
            self.progress.on_event(
                "fallback",
                reason="batch holds live objects that cannot be shipped to workers",
            )
        started = time.perf_counter()
        self.progress.on_event("batch_start", total=len(specs), workers=workers)

        if workers <= 1 or len(specs) == 1:
            results = self._run_local(0, specs)
        else:
            results = self._run_parallel(specs, workers)

        results.sort(key=lambda r: (r.index, r.stream))
        self.progress.on_event(
            "batch_finish", done=len(results), elapsed=time.perf_counter() - started
        )
        return results

    def _run_local(self, chunk: int, specs: List[TrialSpec]) -> List[TrialResult]:
        """Run ``specs`` in this process as chunk ``chunk``, reporting it."""
        self.progress.on_event(
            "chunk_start", chunk=chunk, trials=len(specs), boundary=None
        )
        results = run_chunk(specs)
        self.progress.on_event(
            "chunk_done", chunk=chunk, trials=len(results), results=results
        )
        return results

    def _run_parallel(
        self, specs: List[TrialSpec], workers: int
    ) -> List[TrialResult]:
        chunks = chunk_specs(specs, self._auto_chunk_size(len(specs)))
        if len(chunks) == 1:
            return self._run_local(0, specs)
        completed: dict = {}
        done = 0
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
                futures = self._submit(pool, chunks)
                chunk_of = {future: i for i, future in enumerate(futures)}
                for future in as_completed(futures):
                    part = future.result()
                    completed[chunk_of[future]] = part
                    done += len(part)
                    self.progress.on_event(
                        "chunk_done",
                        chunk=chunk_of[future],
                        trials=len(part),
                        results=part,
                    )
                    self.progress.on_event("progress", done=done, total=len(specs))
            return [r for i in sorted(completed) for r in completed[i]]
        except (pickle.PicklingError, ImportError, OSError, BrokenProcessPool) as exc:
            # Keep whatever chunks already finished; only the remainder is
            # re-run serially.  Any regrouping of specs into chunks is
            # bit-identical (every trial derives from (hub_seed, index)
            # alone), so merged results match a clean run exactly.
            remaining = [
                spec
                for i, chunk in enumerate(chunks)
                if i not in completed
                for spec in chunk
            ]
            self.progress.on_event(
                "partial_fallback",
                done=done,
                total=len(specs),
                reason=f"process pool failed ({exc}); "
                f"re-running {len(remaining)} of {len(specs)} trials serially",
            )
            kept = [r for i in sorted(completed) for r in completed[i]]
            return kept + self._run_local(len(chunks), remaining)

    def _submit(self, pool: ProcessPoolExecutor, chunks) -> List:
        """Submit every chunk, with snapshot hand-off for churn-replay kinds.

        A churn-replay chunk — including the first, whose boundary is the
        freshly built scenario at index 0 — is submitted as soon as the
        backbone has its start-boundary snapshot: the snapshot at
        ``min(chunk indices) - 1``, i.e. the predecessor chunk's end
        state.  Workers restore instead of rebuilding the overlay and
        replaying the churn prefix, so estimation overlaps with the
        backbone's cheap churn-only advance.  Other kinds carry no
        boundary.
        """
        backbone = None
        if chunks[0][0].kind in SNAPSHOT_KINDS:
            backbone = SnapshotBackbone(chunks[0][0], self.snapshot_store, self.progress)
        futures = []
        for i, chunk in enumerate(chunks):
            target = None
            if backbone is not None:
                target = min(spec.index for spec in chunk) - 1
            self.progress.on_event(
                "chunk_start", chunk=i, trials=len(chunk), boundary=target
            )
            payload = backbone.payload_at(target) if backbone is not None else None
            futures.append(pool.submit(_run_boxed_chunk, chunk, [payload]))
        return futures


def _run_boxed_chunk(specs: Sequence[TrialSpec], box: List[Any]) -> List[TrialResult]:
    """Pool-worker entry: :func:`run_chunk` on the payload popped from ``box``.

    A pool worker keeps the submitted call's arguments alive until the
    call returns; boxing the payload leaves it an empty list to keep, so
    ``run_chunk`` holds the only reference and frees the payload at the
    chunk's first departure, as a worker host does.
    """
    return run_chunk(specs, box.pop())
