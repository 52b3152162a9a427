"""Batched estimator kernels over the array-backed overlay twin.

Every estimator of the paper is a random-walk or gossip process; this
module re-expresses their inner loops as data-parallel vector operations
over :class:`~repro.overlay.arraygraph.ArrayOverlayGraph` flat arrays, the
shape a later numba/GPU backend can adopt without an algorithm rewrite:

* :func:`advance_walkers` — thousands of Sample&Collide continuous-time
  timer walkers advanced in lock step.  Each step draws one exponential
  block (the TTL decrement ``Exp(1)/deg``) and one uniform block (the
  neighbour selection, scaled by the degree vector) for the whole frontier,
  then *compacts* the frontier so late rounds with few survivors cost
  narrow — not batch-width — array operations.
* :func:`collision_cutoff` — vectorized pairwise collision counting: a
  stable argsort turns each draw's number of earlier equal draws into a
  rank inside its sorted run, and the running sum of those ranks is exactly
  the per-sample loop's pairwise-with-multiplicity collision count.
* :func:`sample_collide_sweep` — the full Sample&Collide sampling loop
  (analytically sized batches, adaptive top-up, cutoff at ``l``
  collisions) built from the two kernels above.  Both graph backends run
  it.
* :func:`gossip_spread_kernel` / :func:`bfs_frontier_distances` — the
  HopsSampling spread and the oracle-distance BFS as frontier-array
  kernels.

**RNG-lineage caveat** (docs/KERNELS.md): Sample&Collide's backends run
the same sweep and differ only in its first batch's size (60% of the
expected draws on ``"dict"``, 115% on ``"array"``).  The batch sizes set
which generator output each walk consumes, so every later batch and draw
differs too, and the estimates of the two backends are not bit-identical.
They are exchangeable samples of the same estimator law — the property
``tests/core/test_kernel_distributions.py`` verifies with KS/bootstrap-CI
gates against ``baselines/kernel_tolerances.json``.  HopsSampling has no
such split: both backends run the spread and the BFS below on the same
twin, so their estimates are bit-identical.

Every kernel gathers in the graph's own index dtype (``int32`` on a twin
that fits it), and the spread holds its per-node state in arrays
allocated once and sends each round in blocks of bounded size.

Array-backend call sites profile kernel work under the ``kernel`` phase
(:func:`kernel_phase`) when a recorder is installed (the trial runtime
wires :func:`set_phase_recorder` to :func:`repro.runtime.obs.phase`);
outside the runtime the hook is a no-op, keeping this module free of any
runtime-layer import.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..overlay.arraygraph import ArrayOverlayGraph
from .base import EstimatorError
from .birthday import sample_collide_estimate

__all__ = [
    "GRAPH_BACKENDS",
    "advance_walkers",
    "bfs_frontier_distances",
    "collision_cutoff",
    "gossip_spread_kernel",
    "kernel_phase",
    "sample_collide_sweep",
    "set_phase_recorder",
]

#: Estimator backends.  Both run the kernels below on the overlay's CSR
#: twin; only ``"array"`` times them as the ``kernel`` phase, and
#: Sample&Collide sizes its first batch per backend.
GRAPH_BACKENDS = ("dict", "array")


#: Optional phase recorder — ``repro.runtime.trials`` installs
#: ``repro.runtime.obs.phase`` here so kernel time shows up as the
#: ``kernel`` phase in chunk profiles without this module importing the
#: runtime layer (which imports this package).
_PHASE_RECORDER: Optional[Callable[[str], Iterator[None]]] = None


def set_phase_recorder(recorder: Optional[Callable[[str], Iterator[None]]]) -> None:
    """Install (or clear, with ``None``) the ``kernel``-phase recorder."""
    global _PHASE_RECORDER
    _PHASE_RECORDER = recorder


@contextmanager
def kernel_phase() -> Iterator[None]:
    """Attribute the enclosed block to the ``kernel`` phase, if wired."""
    if _PHASE_RECORDER is None:
        yield
    else:
        with _PHASE_RECORDER("kernel"):
            yield


# ----------------------------------------------------------------------
# Sample&Collide: batched continuous-time timer walkers
# ----------------------------------------------------------------------


def advance_walkers(
    graph: ArrayOverlayGraph,
    init_pos: int,
    count: int,
    timer: float,
    rng: np.random.Generator,
    max_hops: int = 10_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance ``count`` timer walks from row ``init_pos``; returns
    ``(final_positions, hops)``.

    The §III-A protocol: the initiator forwards ``T`` to a uniform
    neighbour without decrementing (isolated initiator ⇒ the walk ends on
    it with 0 hops); every visited node then decrements by
    ``Exp(1)/deg`` and forwards while ``T > 0``; walks exceeding
    ``max_hops`` stop in place.  A walk reaches a row only over one of
    its links, so no visited node has degree 0.

    Each loop iteration handles one hop for the whole surviving frontier:
    an exponential block divided by the degrees gathered for the
    frontier decrements every walker's TTL, a uniform block drawn *only
    for the survivors* selects their next neighbour, and the frontier
    arrays are compacted to those survivors.  All live walkers advance in
    lock step, so a walker's hop count is simply the round it stopped in
    — written once at stop time instead of incremented across the
    frontier every round.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    indptr, indices = graph.indptr, graph.indices
    final_pos = np.full(count, init_pos, dtype=indices.dtype)
    hops = np.zeros(count, dtype=np.int64)
    if count == 0:
        return final_pos, hops
    start0 = int(indptr[init_pos])
    deg0 = int(indptr[init_pos + 1]) - start0
    if deg0 == 0:
        return final_pos, hops

    first = (rng.random(count) * deg0).astype(indptr.dtype)
    cur = indices[start0 + first]
    ids = np.arange(count, dtype=np.int64)
    budget = np.full(count, float(timer))
    hop_round = 1
    while True:
        starts = indptr[cur]
        deg = indptr[cur + 1] - starts
        budget -= rng.standard_exponential(ids.size) / deg
        cont = budget > 0.0
        if hop_round >= max_hops:
            cont[:] = False
        stopped = ids[~cont]
        final_pos[stopped] = cur[~cont]
        hops[stopped] = hop_round
        ids = ids[cont]
        if not ids.size:
            break
        offsets = (rng.random(ids.size) * deg[cont]).astype(indptr.dtype)
        cur = indices[starts[cont] + offsets]
        budget = budget[cont]
        hop_round += 1
    return final_pos, hops


def collision_cutoff(samples: np.ndarray, l: int) -> Tuple[int, int, int]:
    """Pairwise collision count over the draw-ordered ``samples`` prefix.

    Returns ``(draws_used, collisions, distinct)`` where ``draws_used`` is
    the length of the shortest prefix whose cumulative pairwise collision
    count reaches ``l`` (the whole array when it never does — callers
    check ``collisions >= l``), ``collisions`` that prefix's count, and
    ``distinct`` its number of distinct samples.

    The count is pairwise *with multiplicity*: a draw equal to ``k``
    earlier draws contributes ``k``.  Vectorized via a stable argsort —
    within each run of equal values the stable order preserves draw order,
    so a draw's rank inside its run *is* its number of earlier copies.
    """
    n = int(samples.shape[0])
    if n == 0:
        return 0, 0, 0
    order = np.argsort(samples, kind="stable")
    sorted_s = samples[order]
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_s[1:], sorted_s[:-1], out=new_run[1:])
    run_starts = np.nonzero(new_run)[0]
    run_ids = np.cumsum(new_run) - 1
    ranks = np.arange(n, dtype=np.int64) - run_starts[run_ids]
    occ = np.empty(n, dtype=np.int64)
    occ[order] = ranks
    cum = np.cumsum(occ)
    reached = np.nonzero(cum >= l)[0]
    cut = int(reached[0]) + 1 if reached.size else n
    collisions = int(cum[cut - 1])
    distinct = int(np.count_nonzero(occ[:cut] == 0))
    return cut, collisions, distinct


def sample_collide_sweep(
    graph: ArrayOverlayGraph,
    init_pos: int,
    l: int,
    timer: float,
    rng: np.random.Generator,
    hint: int,
    first_batch: float,
) -> Tuple[float, int, int, int, int]:
    """The Sample&Collide sampling loop: walks until ``l`` collisions.

    Draws walker batches sized by the analytic prediction
    ``sqrt(2·l·N̂)``, scans for the ``l``-th pairwise collision, and
    returns ``(value, draws, collisions, distinct, walk_hops)``.  The
    first batch covers ``first_batch`` of the prediction at ``N̂ = hint``;
    top-up batches sized from the running point estimate cover bad
    hints.  The ``(cut, collisions)`` law is batch-size invariant
    (samples are i.i.d. regardless of batching), but the batch sizes set
    which draws each walk takes, so two first-batch sizes give two RNG
    lineages.  Only the walks before the cutoff are charged to
    ``walk_hops`` — unconsumed pre-drawn walks model messages never sent.
    """
    samples: List[np.ndarray] = []
    walk_hops: List[np.ndarray] = []
    batch = max(int(first_batch * math.sqrt(2.0 * l * max(hint, 1))), 16)
    guard = 0
    while True:
        guard += 1
        if guard > 10_000:  # pragma: no cover - defensive
            raise EstimatorError("sample_collide: failed to accumulate collisions")
        pos, hops = advance_walkers(graph, init_pos, batch, timer, rng)
        samples.append(pos)
        walk_hops.append(hops)
        drawn = np.concatenate(samples) if len(samples) > 1 else samples[0]
        cut, collisions, distinct = collision_cutoff(drawn, l)
        if collisions >= l:
            break
        n_guess = max(distinct, 1)
        if collisions > 0:
            n_guess = max(
                n_guess,
                int(sample_collide_estimate(max(int(drawn.shape[0]), 2), collisions)),
            )
        remaining = math.sqrt(2.0 * l * n_guess) - int(drawn.shape[0])
        batch = max(int(remaining * 1.2), 16)
    hops_all = np.concatenate(walk_hops) if len(walk_hops) > 1 else walk_hops[0]
    total_hops = int(hops_all[:cut].sum())
    value = sample_collide_estimate(cut, collisions)
    return value, cut, collisions, distinct, total_hops


# ----------------------------------------------------------------------
# HopsSampling: gossip spread and BFS as frontier kernels
# ----------------------------------------------------------------------


#: Most messages :func:`gossip_spread_kernel` sends per block of a round.
_SPREAD_BLOCK = 1 << 13


def _counter_dtype(limit: int) -> np.dtype:
    """The narrowest signed integer dtype that holds ``limit``."""
    for dtype in (np.int8, np.int16, np.int32):
        if limit <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def gossip_spread_kernel(
    graph: ArrayOverlayGraph,
    init_pos: int,
    gossip_to: int,
    gossip_for: int,
    gossip_until: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, int, int]:
    """The §III-B synchronous push-gossip spread, one set of array
    operations per block of a round.  Returns ``(hops, spread_messages,
    rounds)`` with ``hops[pos] = -1`` for nodes the spread never reached.

    Semantics (our reading of [17]/[11] with the paper's parameters):

    * each round, every *active* node emits ``gossip_to`` copies to
      uniformly random neighbours (with replacement — real gossip does not
      coordinate targets);
    * a node is active for the ``gossip_for`` rounds after it is first
      informed, and records the minimum hop count among the copies of the
      round that informed it;
    * an informed node lowers its recorded distance whenever a shorter
      path arrives later (the "lowest hopCount received" rule);
    * a node that receives a *duplicate* while inactive re-activates for
      one round, up to ``gossip_until`` times — this is the re-gossip knob
      that pushes coverage from the bare branching-process fixed point
      (≈80% at fanout 2) up to the ≈89% the paper measured ("11% of
      non-reached nodes out of 100,000");
    * the spread terminates when no node is active.

    The per-node state lives in arrays allocated once: hops and the
    lowest hop offered in ``int32``, rounds left and re-gossip budget in the
    narrowest signed dtype that holds ``gossip_for`` and ``gossip_until``.
    A round's active rows send in blocks of at most ``_SPREAD_BLOCK``
    messages, with senders in the twin's index dtype, and each block's
    targets are folded into the state before the next block draws, so a
    round allocates only block-sized arrays beyond its list of active
    rows.  Folding block by block gives the whole round's result: a
    target's minimum is the least of its blocks' minima; active targets
    keep theirs pending until the round has sent, so every block sends
    the hops the round began with; and a node informed or re-activated
    by an earlier block has a round to go, so it is no duplicate.  Once
    settled, the lowest offer never sits below a node's hops, so it
    needs no reset between blocks or rounds.
    """
    if gossip_for < 1:
        raise ValueError(f"gossip_for must be >= 1, got {gossip_for}")
    n = graph.n
    index = graph.indices.dtype
    hops = np.full(n, -1, dtype=np.int32)
    hops[init_pos] = 0
    rounds_left = np.zeros(n, dtype=_counter_dtype(gossip_for))
    rounds_left[init_pos] = gossip_for
    regossip_left = np.full(n, gossip_until, dtype=_counter_dtype(gossip_until))
    big = np.iinfo(np.int32).max
    best = np.full(n, big, dtype=np.int32)  # lowest hop offered; big = none
    mask = np.zeros(n, dtype=bool)  # the round's active rows
    mask[init_pos] = True
    step = max(_SPREAD_BLOCK // max(gossip_to, 1), 1)  # active rows per block
    active = np.array([init_pos])
    spread_messages = 0
    rounds = 0

    while active.size:
        rounds += 1
        for lo in range(0, active.size, step):
            block = active[lo : lo + step].astype(index, copy=False)
            senders = np.repeat(block, gossip_to)
            targets = graph.sample_neighbors(senders, rng)
            if targets.size and targets.min() < 0:
                ok = targets >= 0
                senders, targets = senders[ok], targets[ok]
            spread_messages += targets.size
            reach = hops[senders]
            reach += 1
            np.minimum.at(best, targets, reach)
            # Active targets keep their minimum in best until the round has
            # sent, so every block sends the hops the round began with.
            targets = targets[~mask[targets]]
            low = best[targets]
            old = hops[targets]
            fresh = old < 0
            # Fresh nodes take the block's minimum, informed ones a
            # shorter path; every copy of a target carries the same values.
            shorter = low < old
            shorter |= fresh
            hops[targets[shorter]] = low[shorter]
            rounds_left[targets[fresh]] = gossip_for
            # Informed before and hit again, while inactive with re-gossip
            # budget left: re-activate for one round (once per round, as
            # the first re-activation leaves the node a round to go).
            again = ~fresh
            again &= rounds_left[targets] <= 0
            again &= regossip_left[targets] > 0
            dup = targets[again]
            regossip_left[dup] -= 1
            rounds_left[dup] = 1
        for lo in range(0, active.size, step):
            rows = active[lo : lo + step]
            low = best[rows]
            np.minimum(low, hops[rows], out=low)
            hops[rows] = low
            rounds_left[rows] -= 1
        np.greater(rounds_left, 0, out=mask)
        active = np.flatnonzero(mask)

    return hops, spread_messages, rounds


def bfs_frontier_distances(graph: ArrayOverlayGraph, source_pos: int) -> np.ndarray:
    """Hop distances from ``source_pos`` (``-1``: unreachable), frontier BFS.

    Neighbour expansion is a single gather per level: repeat each frontier
    row's start by its degree and add a per-row ramp to enumerate every
    incident slot at C speed.
    """
    indptr, indices = graph.indptr, graph.indices
    n = graph.n
    dist = np.full(n, -1, dtype=np.int32)
    if n == 0:
        return dist
    dist[source_pos] = 0
    frontier = np.array([source_pos], dtype=indices.dtype)
    d = 0
    while frontier.size:
        d += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        bases = np.repeat(starts, counts)
        ramp = np.arange(total, dtype=indptr.dtype) - np.repeat(
            np.cumsum(counts, dtype=indptr.dtype) - counts, counts
        )
        flat = indices[bases + ramp]
        fresh = flat[dist[flat] < 0]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = d
        frontier = fresh
    return dist
