"""Per-sample reference loops of Sample&Collide and the inverted birthday.

These are the timer walk, the ``dict``-backend Sample&Collide estimate
and the inverted-birthday estimate as they ran before both lineages went
through one sweep over ``advance_walkers``:

* :func:`walk` advances a batch of timer walks one hop per round over a
  full-width ``active`` mask, decrementing each budget by ``draw / deg``
  with an ``inf`` mask for degree-0 rows;
* :func:`sample_collide` draws batches of walks and counts pairwise
  collisions sample by sample in a ``seen`` dict, sizing its first batch
  at ``first`` of ``sqrt(2·l·N̂)`` (0.6 on the ``dict`` backend);
* :func:`inverted_birthday` stops at the first sample already in a
  ``seen`` set.

Each returns what its estimator reports: ``(value, messages, meta)``.
The tests hold the estimators to the same values, messages, meta and
generator end states.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

from repro.core.base import EstimatorError
from repro.core.birthday import invert_first_collision, sample_collide_estimate
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.graph import OverlayGraph

Result = Tuple[float, int, Dict[str, Any]]


def walk(
    view: ArrayOverlayGraph,
    init_pos: int,
    count: int,
    timer: float,
    rng: np.random.Generator,
    max_hops: int = 10_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lock-step advance ``count`` walks from ``init_pos``; ``(positions, hops)``."""
    degrees = view.degrees()
    pos = np.full(count, init_pos, dtype=np.int64)
    hops = np.zeros(count, dtype=np.int64)
    budget = np.full(count, float(timer), dtype=np.float64)

    first = view.sample_neighbors(pos, rng)
    movable = first >= 0
    pos[movable] = first[movable]
    hops[movable] = 1
    active = movable.copy()

    hop_round = 1
    while np.any(active):
        idx = np.nonzero(active)[0]
        cur = pos[idx]
        deg = degrees[cur]
        draw = rng.standard_exponential(idx.shape[0])
        dec = np.where(deg > 0, draw / np.maximum(deg, 1), np.inf)
        budget[idx] -= dec
        cont = budget[idx] > 0.0
        if hop_round >= max_hops:
            cont[:] = False
        movers = idx[cont]
        if movers.size:
            nxt = view.sample_neighbors(pos[movers], rng)
            ok = nxt >= 0
            pos[movers[ok]] = nxt[ok]
            hops[movers[ok]] += 1
            active[movers[~ok]] = False
        active[idx[~cont]] = False
        hop_round += 1
    return pos, hops


def _initiator(
    graph: OverlayGraph, initiator: Optional[int], rng: np.random.Generator, name: str
) -> int:
    if initiator is not None:
        if initiator not in graph:
            raise EstimatorError(f"{name}: initiator {initiator} departed")
        return initiator
    return graph.random_node(rng)


def sample_collide(
    graph: OverlayGraph,
    l: int,
    timer: float,
    rng: np.random.Generator,
    initiator: Optional[int] = None,
    batch_hint: Optional[int] = None,
    max_hops: int = 10_000,
    first: float = 0.6,
) -> Result:
    """One Sample&Collide estimate, collisions counted per sample."""
    if graph.size == 0:
        raise EstimatorError("sample_collide: overlay is empty")
    initiator = _initiator(graph, initiator, rng, "sample_collide")
    view = graph.to_array()
    init_pos = view.position(initiator)
    seen: Dict[int, int] = {}
    collisions = 0
    draws = 0
    walk_hops = 0
    hint = batch_hint if batch_hint is not None else graph.size
    hint = max(int(hint), 1)
    batch = max(int(first * math.sqrt(2.0 * l * hint)), 16)
    while collisions < l:
        pos, hops = walk(view, init_pos, batch, timer, rng, max_hops)
        for node, h in zip(view.nodes[pos], hops):
            draws += 1
            walk_hops += int(h)
            node = int(node)
            copies = seen.get(node, 0)
            seen[node] = copies + 1
            if copies:
                collisions += copies
                if collisions >= l:
                    break
        if collisions >= l:
            break
        n_guess = max(len(seen), 1)
        if collisions > 0:
            n_guess = max(n_guess, int(sample_collide_estimate(max(draws, 2), collisions)))
        remaining = math.sqrt(2.0 * l * n_guess) - draws
        batch = max(int(remaining * 1.2), 16)
    meta = {
        "draws": draws,
        "collisions": collisions,
        "distinct": len(seen),
        "walk_hops": walk_hops,
        "initiator": initiator,
        "l": l,
        "timer": float(timer),
    }
    return sample_collide_estimate(draws, collisions), walk_hops + draws, meta


def inverted_birthday(
    graph: OverlayGraph,
    timer: float,
    rng: np.random.Generator,
    initiator: Optional[int] = None,
    max_hops: int = 10_000,
) -> Result:
    """One inverted-birthday estimate: stop at the first repeated sample."""
    if graph.size == 0:
        raise EstimatorError("inverted_birthday: overlay is empty")
    initiator = _initiator(graph, initiator, rng, "inverted_birthday")
    view = graph.to_array()
    init_pos = view.position(initiator)
    seen: Set[int] = set()
    draws = 0
    walk_hops = 0
    batch = max(int(math.sqrt(2.0 * graph.size)), 8)
    while True:
        pos, hops = walk(view, init_pos, batch, timer, rng, max_hops)
        collided = False
        for node, h in zip(view.nodes[pos], hops):
            draws += 1
            walk_hops += int(h)
            node = int(node)
            if node in seen:
                collided = True
                break
            seen.add(node)
        if collided:
            break
        batch = max(batch // 2, 8)
    meta = {
        "draws": draws,
        "walk_hops": walk_hops,
        "initiator": initiator,
        "timer": float(timer),
    }
    return invert_first_collision(draws), walk_hops + draws, meta
