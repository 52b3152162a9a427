"""A dict-based reference overlay, and the join and repair loops on it.

:class:`DictGraph` is the overlay as it once was kept: one
insertion-ordered dict of neighbours per node, edited in place, one
``add_node`` / ``degree`` / ``try_add_edge`` call per step.  Its
:meth:`DictGraph.to_array` encodes the dicts into a CSR twin directly,
never through ``ArrayOverlayGraph.with_links`` or ``without``, which are
what the tests check against it.  The loops below are the batch joins
and repair rounds as they ran on the dict; the op-sequence tests hold
the twin code to the same draws, links, arrays and generator end state.
Every function mutates its graph in place and draws from its generator
in place.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.overlay.arraygraph import ArrayOverlayGraph


def _narrow(arr: np.ndarray) -> np.ndarray:
    """``arr`` as int32 when its values fit, else as int64."""
    fits = not arr.size or (-(2**31) <= arr.min() and arr.max() < 2**31)
    return arr.astype(np.int32 if fits else np.int64)


class DictGraph:
    """Undirected overlay as ``{node: {neighbour: None}}`` in insertion order."""

    def __init__(self) -> None:
        self.adj: Dict[int, Dict[int, None]] = {}
        self.next_id = 0

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, Any]) -> "DictGraph":
        """The graph an ``OverlayGraph.snapshot()`` payload describes."""
        g = cls()
        g.adj = {u: dict.fromkeys(nbrs) for u, nbrs in zip(snap["nodes"], snap["adj"])}
        g.next_id = int(snap["next_id"])
        return g

    @property
    def size(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    def __contains__(self, node: int) -> bool:
        return node in self.adj

    def __iter__(self) -> Iterator[int]:
        return iter(self.adj)

    def nodes(self) -> List[int]:
        return list(self.adj)

    def node_array(self) -> np.ndarray:
        return np.array(list(self.adj), dtype=np.int64)

    def neighbors(self, node: int) -> List[int]:
        return list(self.adj[node])

    def degree(self, node: int) -> int:
        return len(self.adj[node])

    def degrees(self) -> np.ndarray:
        return np.array([len(nbrs) for nbrs in self.adj.values()], dtype=np.int64)

    def add_node(self, node: Optional[int] = None) -> int:
        node = self.next_id if node is None else node
        assert node >= self.next_id, "ids ascend"
        self.adj[node] = {}
        self.next_id = node + 1
        return node

    def remove_node(self, node: int) -> None:
        for v in self.adj.pop(node):
            del self.adj[v][node]

    def add_edge(self, u: int, v: int) -> None:
        if not self.try_add_edge(u, v):
            raise ValueError(f"cannot link {u} and {v}")

    def try_add_edge(self, u: int, v: int) -> bool:
        if u == v or u not in self.adj or v not in self.adj or v in self.adj[u]:
            return False
        self.adj[u][v] = None
        self.adj[v][u] = None
        return True

    def snapshot(self) -> Dict[str, Any]:
        return {
            "nodes": list(self.adj),
            "adj": [list(nbrs) for nbrs in self.adj.values()],
            "next_id": self.next_id,
        }

    def to_array(self) -> ArrayOverlayGraph:
        """The CSR encoding of the dicts, each array int32 when it fits."""
        nodes = self.node_array()
        indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(self.degrees(), out=indptr[1:])
        flat = np.fromiter(
            itertools.chain.from_iterable(self.adj.values()),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        indices = np.searchsorted(nodes, flat)
        return ArrayOverlayGraph(_narrow(nodes), _narrow(indptr), _narrow(indices), self.next_id)


def join(
    graph: DictGraph,
    count: int,
    gen: np.random.Generator,
    min_degree: int = 1,
    max_degree: int = 10,
) -> Tuple[List[int], int]:
    """``MembershipPolicy.join`` on the dict: ``(node ids, links created)``."""
    created: List[int] = []
    links = 0
    candidates: List[int] = graph.nodes()
    for _ in range(count):
        u = graph.add_node()
        created.append(u)
        pool = len(candidates)
        if pool:
            want = int(gen.integers(min_degree, max_degree + 1))
            want = min(want, pool)
            attempts = 0
            budget = 20 * max(want, 1)
            got = 0
            while got < want and attempts < budget:
                attempts += 1
                v = candidates[int(gen.integers(pool))]
                if graph.degree(v) >= max_degree:
                    continue
                if graph.try_add_edge(u, v):
                    got += 1
                    links += 1
        candidates.append(u)
    return created, links


def _link_to_random_peers(
    graph: DictGraph,
    gen: np.random.Generator,
    node: int,
    want: int,
    candidates: List[int],
) -> int:
    formed = 0
    attempts = 0
    pool = len(candidates)
    budget = 20 * max(want, 1)
    while formed < want and attempts < budget and pool > 1:
        attempts += 1
        v = candidates[int(gen.integers(pool))]
        if v == node or v not in graph:
            continue
        if graph.try_add_edge(node, v):
            formed += 1
    return formed


def degree_repair_round(
    graph: DictGraph,
    gen: np.random.Generator,
    min_degree: int = 3,
    target_degree: int = 5,
    max_links_per_round: int = 200,
) -> int:
    """``DegreeRepair.repair_round`` on the dict: the links formed."""
    if graph.size < 2:
        return 0
    candidates = graph.nodes()
    needy = [u for u in candidates if graph.degree(u) < min_degree]
    if not needy:
        return 0
    order = gen.permutation(len(needy))
    formed = 0
    for i in order:
        if formed >= max_links_per_round:
            break
        u = needy[int(i)]
        want = min(target_degree - graph.degree(u), max_links_per_round - formed)
        if want > 0:
            formed += _link_to_random_peers(graph, gen, u, want, candidates)
    return formed


def full_repair_round(
    graph: DictGraph, gen: np.random.Generator, target_degree: int = 7
) -> int:
    """``FullRepair.repair_round`` on the dict: the links formed."""
    if graph.size < 2:
        return 0
    candidates = graph.nodes()
    formed = 0
    for u in candidates:
        deficit = target_degree - graph.degree(u)
        if deficit > 0:
            formed += _link_to_random_peers(graph, gen, u, deficit, candidates)
    return formed
