"""Dynamic peer-to-peer overlay graph.

The paper (§IV-A) runs all algorithms on *unstructured* overlays: undirected
graphs where each node knows a small random set of neighbours.  Overlays are
**dynamic** — nodes join and leave (churn), and when a node leaves, its
neighbours simply lose the link (the paper explicitly does *not* repair the
overlay: "the nodes that have lost one or several neighbors do not create new
links with other nodes").

Two representations are kept in sync:

* one immutable CSR encoding, the array twin
  (:meth:`OverlayGraph.to_array`).  Every estimator on either backend,
  the aggregation round, :meth:`OverlayGraph.random_node` and
  :mod:`repro.overlay.views` read it (gossip spread, BFS, neighbour
  sampling, walker batches).  Per the HPC guides, all hot loops operate
  on these flat, contiguous arrays rather than on Python dictionaries.
* a mutable adjacency map (``dict[int, dict[int, None]]``), built only
  when a dict-only call needs it, supporting O(1) single-node and
  single-link edits (the small builders use them) — the source of truth
  while it exists.

Overlays are built array-first:
:func:`~repro.overlay.builders.heterogeneous_random` wires straight into
an array twin and returns :meth:`OverlayGraph.from_array`, a
*twin-backed* graph whose adjacency dict does not exist yet.  ``size``,
``len()``, ``num_edges``, ``next_id``, node order (:meth:`~OverlayGraph.nodes`,
iteration), membership tests (``in``), :meth:`~OverlayGraph.random_node`,
:meth:`~OverlayGraph.to_array`, :meth:`~OverlayGraph.snapshot` and
:meth:`~OverlayGraph.copy` answer from the twin.  Churn maps twin to
twin with numpy and swaps the result in (:meth:`~OverlayGraph.adopt_twin`):
a batch of departures (:meth:`~OverlayGraph.remove_nodes`, which
:meth:`MembershipPolicy.leave <repro.overlay.membership.MembershipPolicy.leave>`
uses) through :meth:`ArrayOverlayGraph.without
<repro.overlay.arraygraph.ArrayOverlayGraph.without>`, and a batch of
joins (:meth:`MembershipPolicy.join
<repro.overlay.membership.MembershipPolicy.join>`) or a repair round
(:mod:`repro.overlay.repair`) through :meth:`ArrayOverlayGraph.with_links
<repro.overlay.arraygraph.ArrayOverlayGraph.with_links>`.  A graph that
has a dict encodes it once for that and drops it.  Every other call —
neighbour and degree queries, invariant checks and the single-node and
single-link mutations — builds the dict first, once, in bounded row
blocks (one shared int object per node id).  From then on the dict is
the source of truth and costs nothing extra per access; the twin stays
cached until the first dict mutation drops it, and the next
``to_array()`` encodes the dict afresh (no mutation log is kept).  An
estimate on a growing, shrinking or repaired overlay therefore never
builds the dict, on either backend.

Node identifiers are opaque non-negative integers that **ascend in
insertion order**: :meth:`~OverlayGraph.add_node` refuses an id below
``next_id``, and the constructor and :meth:`~OverlayGraph.restore` refuse
ids out of order.  So identifiers of departed nodes are never reused
within one graph's lifetime, which lets churn traces and estimator logs
refer to nodes unambiguously, and the twin's rows are sorted by id.

Determinism contract (see ``docs/SNAPSHOTS.md``): node order and
per-node neighbour order are **insertion order**, a language-level dict
guarantee.  Every consumer of adjacency order (the twin's row layout,
hence ``ArrayOverlayGraph.sample_neighbors``; ``random_neighbor``; join
candidate lists) therefore behaves as a pure function of the operation
history — and a graph rebuilt from :meth:`OverlayGraph.snapshot` is
*behaviorally identical* to the live one for all future operations,
which is what makes mid-replay state hand-off between worker processes
bit-exact.  (Neighbour
sets would not give this: CPython set iteration order depends on internal
table history that no reconstruction can reproduce.)
"""

from __future__ import annotations

import itertools
import operator
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
    Sequence,
    Tuple,
)

import numpy as np

from ..sim.rng import RngLike, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .arraygraph import ArrayOverlayGraph

__all__ = ["OverlayGraph", "GraphError"]


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class OverlayGraph:
    """Mutable undirected overlay with a lazily rebuilt CSR twin.

    All links are bidirectional (paper §IV-A: "whenever a node contacts
    another one, the reached node also ... keeps a link back").  Self-loops
    and parallel edges are rejected.

    Parameters
    ----------
    nodes:
        Optional initial node ids, in ascending order.
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
        # The cached twin; every mutation of the dict drops it.
        self._array: Optional["ArrayOverlayGraph"] = None
        self._edge_count = 0
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
        twin = self._twin
        return node in self._adj if twin is None else twin.position(node) >= 0

    def __iter__(self) -> Iterator[int]:
        twin = self._twin
        return iter(self._adj) if twin is None else iter(twin.nodes.tolist())

    def nodes(self) -> List[int]:
        """List of alive node ids in insertion order."""
        twin = self._twin
        return list(self._adj) if twin is None else twin.nodes.tolist()

    def node_array(self) -> np.ndarray:
        """Alive node ids in insertion order as an integer array: a
        twin-backed graph's own (read-only by contract) ``nodes``, with no
        Python int per node."""
        twin = self._twin
        if twin is not None:
            return twin.nodes
        return np.fromiter(self._adj, dtype=np.int64, count=len(self._adj))

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
        n = self.size
        return 2.0 * self._edge_count / n if n else 0.0

    def degrees(self) -> np.ndarray:
        """Bulk degree array in node *insertion* order.

        One C-level pass over the adjacency — consumers that previously
        looped ``[g.degree(u) for u in g.nodes()]`` re-walked the dict per
        node.  This accessor is aligned with :meth:`nodes` and with
        :class:`~repro.overlay.arraygraph.ArrayOverlayGraph` rows.
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
        """A uniformly random alive node (one draw over the twin's rows)."""
        nodes = self.to_array().nodes
        if not nodes.size:
            raise GraphError("cannot sample from an empty overlay")
        gen = as_generator(rng)
        return int(nodes[gen.integers(nodes.size)])

    def random_neighbor(self, node: int, rng: RngLike = None) -> Optional[int]:
        """A uniformly random neighbour of ``node`` or ``None`` if isolated."""
        nbrs = self.neighbors(node)
        if not nbrs:
            return None
        gen = as_generator(rng)
        # tuple() copy is O(deg) but deg is small (≤ max_degree ≈ 10) in the
        # paper's overlays; kernels that need bulk sampling use the twin.
        options = tuple(nbrs)
        return options[int(gen.integers(len(options)))]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def add_node(self, node: Optional[int] = None) -> int:
        """Add an isolated node; auto-assigns the id when ``node`` is None.

        An explicit id must be at least :attr:`next_id`, so ids ascend in
        insertion order and a departed id is never reused.  Returns the id
        of the added node.
        """
        if node is None:
            node = self._next_id
        node = int(node)
        if node < 0:
            raise GraphError("node ids must be non-negative")
        if node in self._adj:
            raise GraphError(f"node {node} already present")
        if node < self._next_id:
            raise GraphError(
                f"node {node} is below next_id {self._next_id}: ids must ascend"
            )
        self._adj[node] = {}
        self._next_id = node + 1
        self._array = None
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
        self._array = None

    def remove_nodes(self, nodes: Sequence[int]) -> None:
        """Remove the distinct alive ``nodes``, as :meth:`remove_node` on
        each in turn would.

        The graph swaps in the twin without them
        (:meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.without`), so
        departures never build its dict.
        """
        self.adopt_twin(self.to_array().without(nodes))

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
        self._array = None

    def try_add_edge(self, u: int, v: int) -> bool:
        """Like :meth:`add_edge` but returns False instead of raising on
        duplicates/self-loops. Used by randomized builders."""
        if u == v or u not in self._adj or v not in self._adj or v in self._adj[u]:
            return False
        self._adj[u][v] = None
        self._adj[v][u] = None
        self._edge_count += 1
        self._array = None
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) is not in the overlay")
        self._adj[u].pop(v, None)
        self._adj[v].pop(u, None)
        self._edge_count -= 1
        self._array = None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def to_array(self) -> "ArrayOverlayGraph":
        """The insertion-ordered CSR twin of this graph (cached).

        The :class:`~repro.overlay.arraygraph.ArrayOverlayGraph` preserves
        node and per-node neighbour *insertion* order (node order is also
        ascending id order), so :meth:`from_array` round-trips to a
        behaviorally identical dict graph and ``to_array().snapshot() ==
        snapshot()`` exactly.  The twin is immutable; a graph whose dict
        changed since the last read encodes it afresh, once.
        """
        if self._array is None:
            from .arraygraph import ArrayOverlayGraph

            self._array = ArrayOverlayGraph.from_overlay(self)
        return self._array

    @classmethod
    def from_array(cls, array: "ArrayOverlayGraph") -> "OverlayGraph":
        """A graph backed by ``array`` (inverse of :meth:`to_array`).

        Nothing is decoded up front: ``array`` becomes the cached twin,
        and the adjacency dict is built from it on the first dict-only
        access or mutation (module docstring).
        """
        g = cls()
        g.adopt_twin(array)
        return g

    def adopt_twin(self, array: "ArrayOverlayGraph") -> None:
        """Make ``array`` this graph's whole state, dropping its dict.

        The churn mutations (:meth:`remove_nodes`, batch joins, repair
        rounds) compute the next twin from :meth:`to_array` and swap it in
        here; the dict, if any, is rebuilt from the twin by the next
        dict-only call.
        """
        self.__dict__.pop("_adj", None)  # __getattr__ rebuilds it on demand
        self._twin = self._array = array
        self._next_id = array.next_id
        self._edge_count = array.m

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
        and ascending ids (payloads come from our own snapshot chain or the
        content-addressed store, both of which hash the producing
        configuration).
        """
        ids = snap["nodes"]
        if not all(map(operator.lt, ids, itertools.islice(ids, 1, None))):
            raise GraphError("snapshot node ids must ascend")
        g = cls()
        # Ids are born plain ints in snapshot(), and both transports
        # (pickle, JSON) preserve that — no per-element coercion needed.
        adj: Dict[int, Dict[int, None]] = {
            u: dict.fromkeys(nbrs) for u, nbrs in zip(ids, snap["adj"])
        }
        g._adj = adj
        g._edge_count = sum(len(nbrs) for nbrs in adj.values()) // 2
        g._next_id = int(snap["next_id"])
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayGraph(n={self.size}, m={self.num_edges})"
