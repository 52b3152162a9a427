"""Overlay graph constructors used in the paper's evaluation (§IV-A).

Three families are provided:

* :func:`heterogeneous_random` — the paper's main test topology.  All nodes
  exist up-front; nodes are wired one by one; each picks a target number of
  neighbours uniformly at random in ``[min_degree, max_degree]`` and fills
  its view with uniformly random peers whose degree is still below
  ``max_degree``.  With ``max_degree=10`` this yields an average degree of
  ≈7.2, matching the paper ("We used 10 neighbors max ... which leads in
  both overlay sizes to an average of approximatively 7.2").
* :func:`homogeneous_random` — every node ends with (close to) the same
  degree ``k``; the paper reports running control experiments on such graphs
  ("This parameter consistently improved all algorithms").
* :func:`scale_free` — Barabási–Albert growth with preferential attachment
  (paper Fig 7: ``min degree 3``, average ≈6, max ≈1177 at n=100,000).

:func:`erdos_renyi` is an extra builder used by the test-suite to stress
algorithms on a topology family with well-understood theory.

All builders take an explicit RNG (seed, generator or :class:`RngHub`) and
are deterministic given it.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

import numpy as np

from ..sim.rng import RngLike, as_generator
from .arraygraph import ArrayOverlayGraph
from .graph import GraphError, OverlayGraph

__all__ = [
    "heterogeneous_random",
    "homogeneous_random",
    "scale_free",
    "erdos_renyi",
    "ring_lattice",
]


#: Values the builders' block draws take per generator call.
_DRAW_BLOCK = 1 << 12


def _require_positive_n(n: int) -> None:
    if n <= 0:
        raise GraphError(f"graph size must be positive, got {n}")


def heterogeneous_random(
    n: int,
    max_degree: int = 10,
    min_degree: int = 1,
    rng: RngLike = None,
    max_attempts_factor: int = 20,
) -> OverlayGraph:
    """Build the paper's heterogeneous random overlay.

    Parameters
    ----------
    n:
        Number of nodes (all present before wiring starts).
    max_degree:
        Hard cap on any node's degree (paper value: 10).
    min_degree:
        Lower bound of the per-node target-degree draw (paper value: 1).
    rng:
        Seed / generator / hub controlling the construction.
    max_attempts_factor:
        Rejection-sampling patience per requested link; prevents livelock on
        saturated graphs.

    Notes
    -----
    The procedure follows §IV-A verbatim: nodes are "taken one by one to be
    wired: the current node first chooses uniformly at random its current
    number of neighbors, and fills its view with again uniformly at random
    selected nodes as neighbors, that do not already have the max fixed
    value (otherwise other random nodes are chosen)".  Because wiring is
    sequential and links are bidirectional, earlier nodes accumulate inbound
    links, producing heterogeneous final degrees in ``[min_degree‥max_degree]``.

    The wiring fills plain lists and emits the array twin directly; the
    returned graph is backed by it and builds its adjacency dict only on
    first dict-only use (:mod:`repro.overlay.graph`).
    """
    _require_positive_n(n)
    if not (0 < min_degree <= max_degree):
        raise GraphError(
            f"need 0 < min_degree <= max_degree, got {min_degree}, {max_degree}"
        )
    if n > 1 and max_degree >= n:
        max_degree = n - 1
        min_degree = min(min_degree, max_degree)
    gen = as_generator(rng, "overlay.heterogeneous")
    rows: List[List[int]] = [[] for _ in range(n)]
    if n > 1:
        _wire_heterogeneous(rows, gen, max_degree, min_degree, max_attempts_factor)
    degrees = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    # Ids are 0..n-1 in insertion order, so raw ids already are positions.
    indices = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
    )
    del rows
    nodes = np.arange(n, dtype=np.int64)
    return OverlayGraph.from_array(ArrayOverlayGraph(nodes, indptr, indices, next_id=n))


def _wire_heterogeneous(
    rows: List[List[int]],
    gen: np.random.Generator,
    max_degree: int,
    min_degree: int,
    max_attempts_factor: int,
) -> None:
    """The §IV-A wiring loop over plain lists (``rows[u]``: u's neighbours).

    Each attempt draws one candidate id.  Candidates come in blocks of
    ``integers(n, size=_DRAW_BLOCK)``, which yields the same values as one
    ``integers(n)`` call per attempt; at the end the generator is rewound
    to the start of the last block and advanced by exactly the draws used,
    leaving it where per-attempt scalar draws would have.
    """
    n = len(rows)
    ids = list(range(n))  # one shared int object per node id
    targets = gen.integers(min_degree, max_degree + 1, size=n).tolist()
    block: List[int] = []
    used = 0
    mark = None  # generator state before the current block
    # owner[v] == u: v is u itself or already u's neighbour (an O(1) test
    # at any degree that never needs clearing between nodes).
    owner = [-1] * n
    for u, row, want in zip(ids, rows, targets):
        if len(row) >= want:
            continue
        owner[u] = u
        for w in row:
            owner[w] = u
        attempts = 0
        budget = max_attempts_factor * max(want, 1)
        while len(row) < want and attempts < budget:
            attempts += 1
            if used == len(block):
                mark = gen.bit_generator.state
                block = gen.integers(n, size=_DRAW_BLOCK).tolist()
                used = 0
            v = block[used]
            used += 1
            other = rows[v]
            if owner[v] == u or len(other) >= max_degree:
                continue
            row.append(ids[v])
            other.append(u)
            owner[v] = u
    if mark is not None:
        gen.bit_generator.state = mark
        gen.integers(n, size=used)


def homogeneous_random(
    n: int,
    k: int = 8,
    rng: RngLike = None,
    max_attempts_factor: int = 50,
) -> OverlayGraph:
    """Build a near-``k``-regular random overlay.

    Random pairs among nodes whose degree is still below ``k`` are linked
    until no progress can be made.  For even ``n·k`` almost every node ends
    with degree exactly ``k``; a handful may fall short when the residual
    candidates are already mutually adjacent (documented, and irrelevant at
    the paper's scales).  In that end game every remaining attempt is a
    rejected pair of draws, so they are drawn in blocks and discarded: the
    generator ends exactly where attempt-by-attempt draws would leave it.
    """
    _require_positive_n(n)
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    if k >= n:
        k = n - 1
    gen = as_generator(rng, "overlay.homogeneous")
    g = OverlayGraph()
    g.add_nodes(n)
    if n == 1 or k == 0:
        return g

    degrees = np.zeros(n, dtype=np.int64)
    open_nodes = list(range(n))
    attempts = 0
    budget = max_attempts_factor * n * k
    while len(open_nodes) > 1 and attempts < budget:
        attempts += 1
        i = int(gen.integers(len(open_nodes)))
        j = int(gen.integers(len(open_nodes)))
        if i == j:
            continue
        u, v = open_nodes[i], open_nodes[j]
        if g.has_edge(u, v):
            continue
        g.add_edge(u, v)
        degrees[u] += 1
        degrees[v] += 1
        # Only u and v can have just saturated.
        if degrees[u] >= k:
            open_nodes.remove(u)
        if degrees[v] >= k:
            open_nodes.remove(v)
        # Pairwise-linked open nodes have degree >= len - 1 (and < k), so
        # the end game can only start once len(open_nodes) <= k.
        if 1 < len(open_nodes) <= k and all(
            g.has_edge(a, b) for a, b in itertools.combinations(open_nodes, 2)
        ):
            left = 2 * (budget - attempts)  # two draws per attempt
            while left:
                step = min(left, _DRAW_BLOCK)
                gen.integers(len(open_nodes), size=step)
                left -= step
            break
    return g


def scale_free(
    n: int,
    m: int = 3,
    rng: RngLike = None,
    seed_clique: Optional[int] = None,
) -> OverlayGraph:
    """Barabási–Albert scale-free overlay (growth + preferential attachment).

    Each arriving node attaches to ``m`` distinct existing nodes chosen with
    probability proportional to their current degree, reproducing the paper's
    Fig 7 setup (``m=3`` → power-law degree distribution, average degree ≈2m,
    hubs with degree in the hundreds at n=100,000).

    The attachment step uses the classic "repeated-endpoints" array trick:
    sampling a uniform element of the flat edge-endpoint list is exactly
    degree-proportional sampling, and appending both endpoints of each new
    edge keeps the list current in O(1).
    """
    _require_positive_n(n)
    if m < 1:
        raise GraphError(f"m must be >= 1, got {m}")
    gen = as_generator(rng, "overlay.scale_free")
    g = OverlayGraph()
    core = seed_clique if seed_clique is not None else m + 1
    core = min(core, n)
    g.add_nodes(core)
    repeated: list[int] = []
    for u in range(core):
        for v in range(u + 1, core):
            g.add_edge(u, v)
            repeated.append(u)
            repeated.append(v)
    if core < 2 and n > 1:
        # degenerate seed; fall back to a chain start
        g.add_node()
        g.add_edge(0, 1)
        repeated.extend((0, 1))
        core = 2

    for _ in range(core, n):
        u = g.add_node()
        chosen: set[int] = set()
        want = min(m, u)  # cannot attach to more nodes than exist
        guard = 0
        while len(chosen) < want and guard < 100 * want:
            guard += 1
            if repeated:
                v = repeated[int(gen.integers(len(repeated)))]
            else:  # pragma: no cover - only for pathological tiny graphs
                v = int(gen.integers(u))
            if v != u and v not in chosen:
                chosen.add(v)
        for v in chosen:
            g.add_edge(u, v)
            repeated.append(u)
            repeated.append(v)
    return g


def erdos_renyi(n: int, avg_degree: float = 8.0, rng: RngLike = None) -> OverlayGraph:
    """G(n, M) random overlay with ``M = round(n * avg_degree / 2)`` edges.

    Not used by the paper itself; provided for the test-suite and for users
    who want a textbook-random control topology.
    """
    _require_positive_n(n)
    if avg_degree < 0:
        raise GraphError("avg_degree must be non-negative")
    gen = as_generator(rng, "overlay.er")
    g = OverlayGraph()
    g.add_nodes(n)
    if n == 1:
        return g
    target_edges = int(round(n * avg_degree / 2.0))
    max_possible = n * (n - 1) // 2
    target_edges = min(target_edges, max_possible)
    added = 0
    guard = 0
    while added < target_edges and guard < 50 * target_edges + 100:
        guard += 1
        u = int(gen.integers(n))
        v = int(gen.integers(n))
        if g.try_add_edge(u, v):
            added += 1
    return g


def ring_lattice(n: int, k: int = 2) -> OverlayGraph:
    """Deterministic ring where each node links to its ``k`` nearest
    successors.  A worst-case-diameter topology used by tests to check the
    estimators' sensitivity to poor expansion (large mixing time for the
    Sample&Collide walk, slow spread for gossip)."""
    _require_positive_n(n)
    if k < 1:
        raise GraphError("k must be >= 1")
    g = OverlayGraph()
    g.add_nodes(n)
    if n == 1:
        return g
    for u in range(n):
        for delta in range(1, k + 1):
            v = (u + delta) % n
            if u != v:
                g.try_add_edge(u, v)
    return g
