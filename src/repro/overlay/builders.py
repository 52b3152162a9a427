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
are deterministic given it.  Each returns a graph whose one state is an
array twin (:mod:`repro.overlay.graph`), and none builds per-node Python
containers.

:func:`heterogeneous_random` wires into one preallocated ``int32`` slot
table of ``n × max_degree`` neighbour slots (row u starts at
``u * max_degree``; a per-node degree count says how many of its slots
are filled), then compacts the table in place, in bounded row blocks,
and shrinks it into the CSR ``indices`` of the array twin.  Node ids
therefore must fit ``int32`` (``n <= 2**31``), and so do the twin's
``nodes`` and ``indices``, which the table's rows fill without widening;
its ``indptr`` is ``int32`` too unless the half-edges outnumber
``2**31 - 1``.  The build's peak memory is the table plus the twin's
``indptr`` and ``nodes`` (see ``docs/KERNELS.md``).

The other builders collect their links, in creation order, in one
``array('i')`` of row pairs (plus a set of pair keys where they test
"already linked") and splice them onto an empty twin at once
(:meth:`ArrayOverlayGraph.with_links
<repro.overlay.arraygraph.ArrayOverlayGraph.with_links>`), so each
node's neighbour order is the order its links were made in.
"""

from __future__ import annotations

import itertools
from array import array
from typing import List, Optional, Set

import numpy as np

from ..sim.rng import RngLike, as_generator
from .arraygraph import ArrayOverlayGraph, GraphError
from .graph import OverlayGraph

__all__ = [
    "heterogeneous_random",
    "homogeneous_random",
    "scale_free",
    "erdos_renyi",
    "ring_lattice",
]


#: Values the builders' block draws take per generator call.
_DRAW_BLOCK = 1 << 12

#: Slot-table rows :func:`_compact_slots` moves per block.
_ROW_BLOCK = 1 << 14

#: Largest node id a slot-table slot (a C ``int``) holds.
_SLOT_MAX = np.iinfo(np.intc).max


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
        Number of nodes (all present before wiring starts); at most
        ``2**31``, since node ids are stored as ``int32``.
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

    The wiring fills one preallocated ``int32`` slot table of
    ``n × max_degree`` neighbour slots (no per-node containers), which is
    compacted in place into the array twin's ``indices``; that twin is
    the returned graph's state.
    """
    _require_positive_n(n)
    if not (0 < min_degree <= max_degree):
        raise GraphError(
            f"need 0 < min_degree <= max_degree, got {min_degree}, {max_degree}"
        )
    if n - 1 > _SLOT_MAX:
        raise GraphError(f"node ids must fit int32, got n={n}")
    if n > 1 and max_degree >= n:
        max_degree = n - 1
        min_degree = min(min_degree, max_degree)
    gen = as_generator(rng, "overlay.heterogeneous")
    table = np.zeros(n * max_degree, dtype=np.intc)
    degree = array("i", [0]) * n
    if n > 1:
        with memoryview(table) as slots:
            _wire_heterogeneous(
                slots, degree, gen, max_degree, min_degree, max_attempts_factor
            )
    indptr = _compact_slots(table, degree, max_degree)
    del degree
    # Ids are 0..n-1 in insertion order, so raw ids already are positions.
    nodes = np.arange(n, dtype=np.int32)
    return OverlayGraph.from_array(ArrayOverlayGraph(nodes, indptr, table, next_id=n))


def _wire_heterogeneous(
    slots: memoryview,
    degree: "array[int]",
    gen: np.random.Generator,
    max_degree: int,
    min_degree: int,
    max_attempts_factor: int,
) -> None:
    """The §IV-A wiring loop over a slot table.

    Node u's neighbours are ``slots[u*max_degree : u*max_degree + degree[u]]``
    in link order; no row ever outgrows its ``max_degree`` slots, because a
    node stops taking links at the cap.

    Each attempt draws one candidate id.  Candidates come in blocks of
    ``integers(n, size=_DRAW_BLOCK)``, which yields the same values as one
    ``integers(n)`` call per attempt; at the end the generator is rewound
    to the start of the last block and advanced by exactly the draws used,
    leaving it where per-attempt scalar draws would have.
    """
    n = len(degree)
    targets = gen.integers(min_degree, max_degree + 1, size=n).tolist()
    block: List[int] = []
    used = 0
    mark = None  # generator state before the current block
    # owner[v] == u: v is u itself or already u's neighbour (an O(1) test
    # at any degree that never needs clearing between nodes).
    owner = array("i", [-1]) * n
    for u, want in enumerate(targets):
        have = degree[u]
        if have >= want:
            continue
        base = u * max_degree
        owner[u] = u
        for w in slots[base : base + have]:
            owner[w] = u
        attempts = 0
        budget = max_attempts_factor * max(want, 1)
        while have < want and attempts < budget:
            attempts += 1
            if used == len(block):
                mark = gen.bit_generator.state
                block = gen.integers(n, size=_DRAW_BLOCK).tolist()
                used = 0
            v = block[used]
            used += 1
            if owner[v] == u:
                continue
            taken = degree[v]
            if taken >= max_degree:
                continue
            slots[base + have] = v
            have += 1
            slots[v * max_degree + taken] = u
            degree[v] = taken + 1
            owner[v] = u
        degree[u] = have
    if mark is not None:
        gen.bit_generator.state = mark
        gen.integers(n, size=used)


def _compact_slots(table: np.ndarray, degree: "array[int]", width: int) -> np.ndarray:
    """Turn the slot ``table`` into the CSR ``indices`` in place and return
    the row pointer.

    Row u keeps its first ``degree[u]`` slots in order.  Each block of
    ``_ROW_BLOCK`` rows moves its filled slots forward to their CSR
    positions; a block's output ends at ``indptr[hi] <= hi * width``, so
    it never overwrites a later block's input, and the block's own input
    is copied out before it is overwritten.  The table is then shrunk to
    the half-edge count by a realloc, so no second half-edge array ever
    exists.  ``indptr`` is ``int32`` when the half-edge count fits it.
    """
    n = len(degree)
    degrees = np.frombuffer(degree, dtype=np.intc)
    total = int(degrees.sum(dtype=np.int64))
    indptr = np.zeros(n + 1, dtype=np.intc if total <= _SLOT_MAX else np.int64)
    np.cumsum(degrees, dtype=indptr.dtype, out=indptr[1:])
    cols = np.arange(width)
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        filled = cols < degrees[lo:hi, None]
        table[indptr[lo] : indptr[hi]] = table[lo * width : hi * width].reshape(
            hi - lo, width
        )[filled]
    # No view of the table is alive, so the realloc cannot strand one.
    table.resize(total, refcheck=False)
    return indptr


def _wired(n: int, links: "array[int]") -> OverlayGraph:
    """The overlay of ``n`` fresh nodes joined by ``links`` (row pairs
    ``u0, v0, u1, v1, ...`` in creation order): one
    :meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.with_links` splice
    onto an empty twin."""
    empty = OverlayGraph().to_array()
    return OverlayGraph.from_array(empty.with_links(np.frombuffer(links, dtype=np.intc), n))


def _link_once(links: "array[int]", linked: Set[int], n: int, u: int, v: int) -> bool:
    """Append the link ``{u, v}`` to ``links`` unless it is a self-loop or
    ``linked`` (keys ``min * n + max``) already holds it; returns whether
    it was added."""
    key = u * n + v if u < v else v * n + u
    if u == v or key in linked:
        return False
    linked.add(key)
    links.append(u)
    links.append(v)
    return True


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
    links = array("i")
    linked: Set[int] = set()
    degrees = [0] * n
    open_nodes = list(range(n))  # ascending: .remove keeps the order
    attempts = 0
    budget = max_attempts_factor * n * k
    while len(open_nodes) > 1 and attempts < budget:
        attempts += 1
        i = int(gen.integers(len(open_nodes)))
        j = int(gen.integers(len(open_nodes)))
        if i == j:
            continue
        u, v = open_nodes[i], open_nodes[j]
        if not _link_once(links, linked, n, u, v):
            continue
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
            a * n + b in linked for a, b in itertools.combinations(open_nodes, 2)
        ):
            left = 2 * (budget - attempts)  # two draws per attempt
            while left:
                step = min(left, _DRAW_BLOCK)
                gen.integers(len(open_nodes), size=step)
                left -= step
            break
    return _wired(n, links)


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
    the flat link list holds each node once per link, so sampling a
    uniform element of it is exactly degree-proportional sampling, and
    appending each new link keeps it current in O(1).
    """
    _require_positive_n(n)
    if m < 1:
        raise GraphError(f"m must be >= 1, got {m}")
    gen = as_generator(rng, "overlay.scale_free")
    core = seed_clique if seed_clique is not None else m + 1
    core = min(core, n)
    links = array("i")
    for u in range(core):
        for v in range(u + 1, core):
            links.append(u)
            links.append(v)
    if core < 2 and n > 1:
        # degenerate seed; fall back to a chain start
        links.extend((0, 1))
        core = 2

    for u in range(core, n):
        chosen: Set[int] = set()
        want = min(m, u)  # cannot attach to more nodes than exist
        guard = 0
        while len(chosen) < want and guard < 100 * want:
            guard += 1
            chosen.add(links[int(gen.integers(len(links)))])
        # The set's iteration order is u's neighbour order.
        for v in chosen:
            links.append(u)
            links.append(v)
    return _wired(n, links)


def erdos_renyi(n: int, avg_degree: float = 8.0, rng: RngLike = None) -> OverlayGraph:
    """G(n, M) random overlay with ``M = round(n * avg_degree / 2)`` edges.

    Not used by the paper itself; provided for the test-suite and for users
    who want a textbook-random control topology.
    """
    _require_positive_n(n)
    if avg_degree < 0:
        raise GraphError("avg_degree must be non-negative")
    gen = as_generator(rng, "overlay.er")
    target_edges = int(round(n * avg_degree / 2.0))
    max_possible = n * (n - 1) // 2
    target_edges = min(target_edges, max_possible)
    links = array("i")
    linked: Set[int] = set()
    guard = 0
    while len(linked) < target_edges and guard < 50 * target_edges + 100:
        guard += 1
        u = int(gen.integers(n))
        v = int(gen.integers(n))
        _link_once(links, linked, n, u, v)
    return _wired(n, links)


def ring_lattice(n: int, k: int = 2) -> OverlayGraph:
    """Deterministic ring where each node links to its ``k`` nearest
    successors.  A worst-case-diameter topology used by tests to check the
    estimators' sensitivity to poor expansion (large mixing time for the
    Sample&Collide walk, slow spread for gossip)."""
    _require_positive_n(n)
    if k < 1:
        raise GraphError("k must be >= 1")
    links = array("i")
    linked: Set[int] = set()
    for u in range(n):
        for delta in range(1, k + 1):
            _link_once(links, linked, n, u, (u + delta) % n)
    return _wired(n, links)
