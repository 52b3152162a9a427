"""Dynamic peer-to-peer overlay graph.

The paper (§IV-A) runs all algorithms on *unstructured* overlays: undirected
graphs where each node knows a small random set of neighbours.  Overlays are
**dynamic** — nodes join and leave (churn), and when a node leaves, its
neighbours simply lose the link (the paper explicitly does *not* repair the
overlay: "the nodes that have lost one or several neighbors do not create new
links with other nodes").

Two representations are kept in sync:

* a mutable adjacency map (``dict[int, dict[int, None]]``) supporting O(1)
  joins, leaves and link edits — the source of truth once it exists;
* immutable flat-array views rebuilt lazily after mutations: the sorted
  :class:`CsrView` and the insertion-ordered array twin
  (:meth:`OverlayGraph.to_array`), used by every vectorized kernel (gossip
  spread, BFS, neighbour sampling, walker batches).  Per the HPC guides,
  all hot loops operate on these flat, contiguous arrays rather than on
  Python dictionaries.

Overlays are built array-first:
:func:`~repro.overlay.builders.heterogeneous_random` wires straight into
an array twin and returns :meth:`OverlayGraph.from_array`, a
*twin-backed* graph whose adjacency dict does not exist yet.  ``size``,
``len()``, ``num_edges``, ``next_id``, :meth:`~OverlayGraph.to_array`,
:meth:`~OverlayGraph.snapshot` and :meth:`~OverlayGraph.copy` answer from
the twin; every other call — membership, iteration, neighbour and degree
queries, ``csr()``, random sampling, invariant checks and every mutation
— builds the dict first, once, in bounded row blocks (one shared int
object per node id).  From then on the dict is the source of truth and
costs nothing extra per access; the twin stays cached until the first
mutation drops it, and no mutation log is kept for it (the next
``to_array()`` encodes afresh).  An array-backend run on a static
overlay therefore never builds the dict.

Node identifiers are opaque non-negative integers.  Identifiers of departed
nodes are never reused within one graph's lifetime, which lets churn traces
and estimator logs refer to nodes unambiguously.

Determinism contract (see ``docs/SNAPSHOTS.md``): node order and
per-node neighbour order are **insertion order**, a language-level dict
guarantee.  Every consumer of adjacency order (CSR row layout, hence
``CsrView.sample_neighbors``; ``random_neighbor``; join candidate lists)
therefore behaves as a pure function of the operation history — and a
graph rebuilt from :meth:`OverlayGraph.snapshot` is *behaviorally
identical* to the live one for all future operations, which is what makes
mid-replay state hand-off between worker processes bit-exact.  (Neighbour
sets would not give this: CPython set iteration order depends on internal
table history that no reconstruction can reproduce.)
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    KeysView,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from ..sim.rng import RngLike, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .arraygraph import ArrayOverlayGraph

__all__ = ["OverlayGraph", "CsrView", "GraphError"]


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class CsrView:
    """Immutable flat-array snapshot of an :class:`OverlayGraph`.

    Attributes
    ----------
    nodes:
        Sorted array of alive node ids, shape ``(n,)``.
    indptr:
        CSR row pointer, shape ``(n + 1,)``; neighbours of the ``k``-th node
        in ``nodes`` are ``indices[indptr[k]:indptr[k+1]]``.
    indices:
        Flat neighbour array holding *positions into* ``nodes`` (not raw
        ids), so kernels can work purely in compact ``0..n-1`` space.
    index_of:
        Mapping from raw node id to its position in ``nodes``; built lazily
        on first access (churn-heavy simulations rebuild snapshots far more
        often than they look up raw ids).
    """

    __slots__ = ("nodes", "indptr", "indices", "_index_of")

    def __init__(
        self, nodes: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> None:
        self.nodes = nodes
        self.indptr = indptr
        self.indices = indices
        self._index_of: Optional[Dict[int, int]] = None

    @property
    def index_of(self) -> Dict[int, int]:
        if self._index_of is None:
            self._index_of = {int(u): i for i, u in enumerate(self.nodes)}
        return self._index_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CsrView(n={self.n}, m={self.m})"

    @property
    def n(self) -> int:
        """Number of alive nodes in the snapshot."""
        return int(self.nodes.shape[0])

    @property
    def m(self) -> int:
        """Number of undirected edges in the snapshot."""
        return int(self.indices.shape[0]) // 2

    def degrees(self) -> np.ndarray:
        """Degree of each node, aligned with ``nodes``."""
        return np.diff(self.indptr)

    def neighbors(self, pos: int) -> np.ndarray:
        """Compact positions of the neighbours of the node at ``pos``."""
        return self.indices[self.indptr[pos] : self.indptr[pos + 1]]

    def sample_neighbors(self, positions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized choice of one uniform random neighbour per position.

        Positions with degree zero map to ``-1`` (no neighbour available);
        callers must handle that sentinel.  This is the inner step of both
        the push-pull aggregation round and gossip fan-out selection.
        """
        positions = np.asarray(positions, dtype=np.int64)
        starts = self.indptr[positions]
        degs = self.indptr[positions + 1] - starts
        out = np.full(positions.shape, -1, dtype=np.int64)
        nz = degs > 0
        if np.any(nz):
            offsets = (rng.random(int(nz.sum())) * degs[nz]).astype(np.int64)
            out[nz] = self.indices[starts[nz] + offsets]
        return out

    def bfs_distances(self, source_pos: int) -> np.ndarray:
        """Hop distance from ``source_pos`` to every node (``-1``: unreachable).

        Frontier-at-a-time BFS using vectorized neighbour expansion; used by
        graph diagnostics and the HopsSampling bias analysis (§V of the
        paper, where exact distances de-bias the poll).
        """
        n = self.n
        dist = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return dist
        dist[source_pos] = 0
        frontier = np.array([source_pos], dtype=np.int64)
        d = 0
        while frontier.size:
            d += 1
            # Gather all neighbours of the frontier in one shot.
            counts = self.indptr[frontier + 1] - self.indptr[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            flat = np.empty(total, dtype=np.int64)
            pos = 0
            for f, c in zip(frontier, counts):
                flat[pos : pos + c] = self.indices[self.indptr[f] : self.indptr[f] + c]
                pos += c
            fresh = flat[dist[flat] < 0]
            if fresh.size == 0:
                break
            fresh = np.unique(fresh)
            dist[fresh] = d
            frontier = fresh
        return dist

    def connected_component_sizes(self) -> List[int]:
        """Sizes of connected components, descending."""
        n = self.n
        seen = np.zeros(n, dtype=bool)
        sizes: List[int] = []
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            count = 1
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self.neighbors(u):
                    v = int(v)
                    if not seen[v]:
                        seen[v] = True
                        count += 1
                        stack.append(v)
            sizes.append(count)
        sizes.sort(reverse=True)
        return sizes


class OverlayGraph:
    """Mutable undirected overlay with lazily rebuilt CSR snapshots.

    All links are bidirectional (paper §IV-A: "whenever a node contacts
    another one, the reached node also ... keeps a link back").  Self-loops
    and parallel edges are rejected.

    Parameters
    ----------
    nodes:
        Optional initial node ids.
    edges:
        Optional initial undirected edges as ``(u, v)`` pairs.
    """

    def __init__(
        self,
        nodes: Optional[Iterable[int]] = None,
        edges: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> None:
        # Neighbour containers are insertion-ordered dicts (value always
        # None), NOT sets: iteration order must be a restorable part of the
        # graph's deterministic contract (module docstring).
        self._adj: Dict[int, Dict[int, None]] = {}
        # The array twin the dict has not been built from yet (module
        # docstring); None once ``_adj`` exists.
        self._twin: Optional["ArrayOverlayGraph"] = None
        self._next_id = 0
        self._csr: Optional[CsrView] = None
        self._array: Optional["ArrayOverlayGraph"] = None
        self._edge_count = 0
        # Incremental-twin bookkeeping: once a twin has been built
        # (``_array_base``), mutations record which rows they touched so
        # ``to_array`` can patch the base instead of re-encoding the whole
        # adjacency.  All three stay empty until the first ``to_array``
        # call, so graphs that never use the array backend pay nothing.
        self._array_base: Optional["ArrayOverlayGraph"] = None
        self._array_dirty: set = set()
        self._array_removed: set = set()
        self._array_appended: List[int] = []
        if nodes is not None:
            for u in nodes:
                self.add_node(u)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails.  The one attribute that may
        # legitimately be missing is ``_adj`` on a twin-backed graph: build
        # it now, once; from then on it sits in the instance dict and no
        # access comes back here.  (setdefault and the re-read keep two
        # concurrent first readers on one dict.)
        state = self.__dict__
        twin = state.get("_twin")
        if name == "_adj" and twin is not None:
            state.setdefault(
                "_adj", {u: dict.fromkeys(nbrs) for u, nbrs in twin.iter_rows()}
            )
            state["_twin"] = None
        if name == "_adj" and "_adj" in state:
            return state["_adj"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of alive nodes — the quantity every estimator targets."""
        twin = self._twin
        return len(self._adj) if twin is None else twin.n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._edge_count

    @property
    def next_id(self) -> int:
        """The id the next auto-assigned node will receive.

        Part of the behavioural state (see :meth:`snapshot`): two graphs
        with equal adjacency but different ``next_id`` diverge on the next
        ``add_node()``.
        """
        return self._next_id

    def __len__(self) -> int:
        return self.size

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    def nodes(self) -> List[int]:
        """List of alive node ids (unspecified order)."""
        return list(self._adj)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once each, as ``(min, max)`` pairs."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighbors(self, node: int) -> KeysView[int]:
        """The (live) neighbours of ``node``, in insertion order.

        The returned view supports the full set API (membership, length,
        iteration, comparisons) — do not mutate the underlying container.
        """
        try:
            return self._adj[node].keys()
        except KeyError:
            raise GraphError(f"node {node} is not in the overlay") from None

    def degree(self, node: int) -> int:
        """Number of neighbours of ``node``."""
        return len(self.neighbors(node))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def average_degree(self) -> float:
        """Mean degree over alive nodes (0.0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._edge_count / len(self._adj)

    def degrees(self) -> np.ndarray:
        """Bulk degree array in node *insertion* order.

        One C-level pass over the adjacency — consumers that previously
        looped ``[g.degree(u) for u in g.nodes()]`` re-walked the dict per
        node.  Note :meth:`CsrView.degrees` returns the same values in
        *sorted*-id order; this accessor is aligned with :meth:`nodes` and
        with :class:`~repro.overlay.arraygraph.ArrayOverlayGraph` rows.
        """
        return np.fromiter(
            (len(nbrs) for nbrs in self._adj.values()),
            dtype=np.int64,
            count=len(self._adj),
        )

    def neighbour_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bulk flat adjacency: ``(nodes, indptr, flat_neighbour_ids)``.

        All three arrays are in insertion order — ``nodes`` lists alive
        ids, and the neighbours of ``nodes[k]`` are
        ``flat[indptr[k]:indptr[k+1]]`` as raw ids in per-node insertion
        order.  This is the single-pass feed for
        :meth:`to_array` and for any bulk consumer that would otherwise
        issue one dict lookup per node.
        """
        n = len(self._adj)
        nodes = np.fromiter(self._adj.keys(), dtype=np.int64, count=n)
        degs = self.degrees()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        flat = np.fromiter(
            itertools.chain.from_iterable(self._adj.values()),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        return nodes, indptr, flat

    def random_node(self, rng: RngLike = None) -> int:
        """A uniformly random alive node (uses the CSR snapshot)."""
        view = self.csr()
        if view.n == 0:
            raise GraphError("cannot sample from an empty overlay")
        gen = as_generator(rng)
        return int(view.nodes[gen.integers(view.n)])

    def random_neighbor(self, node: int, rng: RngLike = None) -> Optional[int]:
        """A uniformly random neighbour of ``node`` or ``None`` if isolated."""
        nbrs = self.neighbors(node)
        if not nbrs:
            return None
        gen = as_generator(rng)
        # tuple() copy is O(deg) but deg is small (≤ max_degree ≈ 10) in the
        # paper's overlays; kernels that need bulk sampling use CsrView.
        options = tuple(nbrs)
        return options[int(gen.integers(len(options)))]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def add_node(self, node: Optional[int] = None) -> int:
        """Add an isolated node; auto-assigns the id when ``node`` is None.

        Returns the id of the added node.
        """
        if node is None:
            node = self._next_id
        node = int(node)
        if node < 0:
            raise GraphError("node ids must be non-negative")
        if node in self._adj:
            raise GraphError(f"node {node} already present")
        self._adj[node] = {}
        self._next_id = max(self._next_id, node + 1)
        if self._array_base is not None:
            self._array_appended.append(node)
        self._invalidate()
        return node

    def add_nodes(self, count: int) -> List[int]:
        """Add ``count`` fresh isolated nodes, returning their ids."""
        if count < 0:
            raise GraphError("count must be non-negative")
        return [self.add_node() for _ in range(count)]

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and sever all of its links (no repair).

        This models an abrupt departure/failure: per the paper, remaining
        neighbours do *not* rewire.
        """
        nbrs = self._adj.pop(node, None)
        if nbrs is None:
            raise GraphError(f"node {node} is not in the overlay")
        for v in nbrs:
            self._adj[v].pop(node, None)
        self._edge_count -= len(nbrs)
        if self._array_base is not None:
            self._array_removed.add(node)
            self._array_dirty.update(nbrs)
        self._invalidate()

    def add_edge(self, u: int, v: int) -> None:
        """Create the undirected edge ``{u, v}``."""
        if u == v:
            raise GraphError("self-loops are not allowed in the overlay")
        if u not in self._adj or v not in self._adj:
            raise GraphError(f"both endpoints must exist (got {u}, {v})")
        if v in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) already present")
        self._adj[u][v] = None
        self._adj[v][u] = None
        self._edge_count += 1
        if self._array_base is not None:
            self._array_dirty.add(u)
            self._array_dirty.add(v)
        self._invalidate()

    def try_add_edge(self, u: int, v: int) -> bool:
        """Like :meth:`add_edge` but returns False instead of raising on
        duplicates/self-loops. Used by randomized builders."""
        if u == v or u not in self._adj or v not in self._adj or v in self._adj[u]:
            return False
        self._adj[u][v] = None
        self._adj[v][u] = None
        self._edge_count += 1
        if self._array_base is not None:
            self._array_dirty.add(u)
            self._array_dirty.add(v)
        self._invalidate()
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) is not in the overlay")
        self._adj[u].pop(v, None)
        self._adj[v].pop(u, None)
        self._edge_count -= 1
        if self._array_base is not None:
            self._array_dirty.add(u)
            self._array_dirty.add(v)
        self._invalidate()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def _invalidate(self) -> None:
        """Drop cached flat-array views after a mutation."""
        self._csr = None
        self._array = None

    def csr(self) -> CsrView:
        """Return the current CSR snapshot, rebuilding it if stale.

        Rebuild cost is O(n + m); mutations merely invalidate the cache so
        bursts of churn pay for a single rebuild at the next kernel call.
        """
        if self._csr is None:
            self._csr = self._build_csr()
        return self._csr

    def to_array(self) -> "ArrayOverlayGraph":
        """The insertion-ordered CSR twin of this graph (cached).

        Unlike :meth:`csr` (sorted node ids), the
        :class:`~repro.overlay.arraygraph.ArrayOverlayGraph` preserves node
        and per-node neighbour *insertion* order, so
        :meth:`from_array` round-trips to a behaviorally identical dict
        graph and ``to_array().snapshot() == snapshot()`` exactly.  Like
        the CSR view, the twin is immutable and rebuilt lazily after
        mutations.

        Rebuilds are *incremental* when possible: once a twin exists,
        mutations record which rows they touched, and as long as fewer
        than half of the base twin's rows changed the stale twin is
        patched (only touched rows re-read the dict; everything else is
        vectorized splicing) instead of re-encoding the whole adjacency.
        Under churn this turns the per-step conversion from O(n + m)
        Python iteration into O(changed) — the difference between the
        array backend amortizing or losing its kernel win (see
        ``docs/KERNELS.md`` and BENCH_KERNELS.json).
        """
        if self._array is None:
            from .arraygraph import ArrayOverlayGraph

            base = self._array_base
            changed = (
                len(self._array_dirty)
                + len(self._array_removed)
                + len(self._array_appended)
            )
            if base is not None and base.n and changed <= max(16, base.n // 2):
                self._array = ArrayOverlayGraph.from_overlay_incremental(
                    self,
                    base,
                    self._array_dirty,
                    self._array_removed,
                    self._array_appended,
                )
            else:
                self._array = ArrayOverlayGraph.from_overlay(self)
            self._array_base = self._array
            self._array_dirty = set()
            self._array_removed = set()
            self._array_appended = []
        return self._array

    @classmethod
    def from_array(cls, array: "ArrayOverlayGraph") -> "OverlayGraph":
        """A graph backed by ``array`` (inverse of :meth:`to_array`).

        Nothing is decoded up front: ``array`` becomes the cached twin,
        and the adjacency dict is built from it on the first dict-only
        access or mutation (module docstring).
        """
        g = cls()
        del g._adj  # rebuilt from the twin by __getattr__ when first needed
        g._twin = g._array = array
        g._next_id = array.next_id
        g._edge_count = array.m
        return g

    def _build_csr(self) -> CsrView:
        n = len(self._adj)
        ids = np.fromiter(self._adj.keys(), dtype=np.int64, count=n)
        ids.sort()
        id_list = ids.tolist()
        adj = self._adj
        degs = np.fromiter((len(adj[u]) for u in id_list), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        total = int(indptr[-1])
        # Single C-level pass over the adjacency, then one vectorized
        # id→position translation (ids are sorted, so searchsorted is it).
        flat = np.fromiter(
            itertools.chain.from_iterable(map(adj.__getitem__, id_list)),
            dtype=np.int64,
            count=total,
        )
        indices = np.searchsorted(ids, flat)
        return CsrView(nodes=ids, indptr=indptr, indices=indices)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; used heavily by the test-suite.

        Raises :class:`GraphError` when symmetry or edge accounting breaks.
        """
        half_edges = 0
        for u, nbrs in self._adj.items():
            half_edges += len(nbrs)
            if u in nbrs:
                raise GraphError(f"self-loop at {u}")
            for v in nbrs:
                if v not in self._adj:
                    raise GraphError(f"dangling link {u}->{v}")
                if u not in self._adj[v]:
                    raise GraphError(f"asymmetric link {u}->{v}")
        if half_edges != 2 * self._edge_count:
            raise GraphError(
                f"edge count drift: counted {half_edges // 2}, cached {self._edge_count}"
            )

    def copy(self) -> "OverlayGraph":
        """Deep copy (snapshot caches are not shared, except an unbuilt
        graph's immutable twin, which backs the copy too).

        The copy preserves node and neighbour iteration order, so it is
        behaviorally identical to the original for all future operations.
        """
        if self._twin is not None:  # the twin is immutable: share it
            return OverlayGraph.from_array(self._twin)
        g = OverlayGraph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._next_id = self._next_id
        g._edge_count = self._edge_count
        return g

    # ------------------------------------------------------------------
    # state hand-off (docs/SNAPSHOTS.md)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data state capture: JSON-able, picklable, content-hashable.

        Returns ``{"nodes": [...], "adj": [[...], ...], "next_id": n}``
        where both node and per-node neighbour lists are in live iteration
        (= insertion) order.  :meth:`restore` rebuilds a graph that is
        *behaviorally identical* to this one — every future mutation,
        CSR build and neighbour sample proceeds exactly as it would have
        on the original — which is the invariant the chunk hand-off
        protocol (``repro.runtime.snapshots``) relies on.
        """
        if self._twin is not None:
            return self._twin.snapshot()
        return {
            "nodes": list(self._adj),
            "adj": [list(nbrs) for nbrs in self._adj.values()],
            "next_id": self._next_id,
        }

    @classmethod
    def restore(cls, snap: Mapping[str, Any]) -> "OverlayGraph":
        """Rebuild a graph from a :meth:`snapshot` payload.

        Inverse of :meth:`snapshot`; validates nothing beyond basic shape
        (payloads come from our own snapshot chain or the content-addressed
        store, both of which hash the producing configuration).
        """
        g = cls()
        # Ids are born plain ints in snapshot(), and both transports
        # (pickle, JSON) preserve that — no per-element coercion needed.
        adj: Dict[int, Dict[int, None]] = {
            u: dict.fromkeys(nbrs)
            for u, nbrs in zip(snap["nodes"], snap["adj"])
        }
        g._adj = adj
        g._edge_count = sum(len(nbrs) for nbrs in adj.values()) // 2
        g._next_id = int(snap["next_id"])
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayGraph(n={self.size}, m={self.num_edges})"
