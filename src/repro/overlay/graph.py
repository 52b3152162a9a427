"""Dynamic peer-to-peer overlay graph.

The paper (§IV-A) runs all algorithms on *unstructured* overlays: undirected
graphs where each node knows a small random set of neighbours.  Overlays are
**dynamic** — nodes join and leave (churn), and when a node leaves, its
neighbours simply lose the link (the paper explicitly does *not* repair the
overlay: "the nodes that have lost one or several neighbors do not create new
links with other nodes").

An :class:`OverlayGraph` holds one immutable CSR encoding, its array twin
(:class:`~repro.overlay.arraygraph.ArrayOverlayGraph`, returned by
:meth:`OverlayGraph.to_array`), and nothing else.  Every estimator on
either backend, the aggregation round and :mod:`repro.overlay.views`
read the twin's flat arrays; per the HPC guides, hot loops gather over
contiguous arrays, not per-node Python containers.  The graph's own
queries (``size``, ``num_edges``, node order, ``in``,
:meth:`~OverlayGraph.neighbors`, :meth:`~OverlayGraph.degree`,
:meth:`~OverlayGraph.random_neighbor`, ...) answer from the twin's rows.

A mutation maps one twin to the next with numpy and swaps the result in
(:meth:`~OverlayGraph.adopt_twin`): a batch of departures
(:meth:`~OverlayGraph.remove_nodes`, which
:meth:`MembershipPolicy.leave <repro.overlay.membership.MembershipPolicy.leave>`
uses) through :meth:`ArrayOverlayGraph.without
<repro.overlay.arraygraph.ArrayOverlayGraph.without>`, and a batch of
joins (:meth:`MembershipPolicy.join
<repro.overlay.membership.MembershipPolicy.join>`), a repair round
(:mod:`repro.overlay.repair`) or a builder's whole wiring
(:mod:`repro.overlay.builders`) through :meth:`ArrayOverlayGraph.with_links
<repro.overlay.arraygraph.ArrayOverlayGraph.with_links>`.  The
single-node and single-link edits (:meth:`~OverlayGraph.add_node`,
:meth:`~OverlayGraph.add_edge`, :meth:`~OverlayGraph.remove_node`, ...)
are one such splice each, O(n + m) per call: they serve hand-built
graphs, not the simulation.

Node identifiers are opaque non-negative integers that **ascend in
insertion order**: :meth:`~OverlayGraph.add_node` refuses an id below
``next_id``, and the constructor and :meth:`~OverlayGraph.restore` refuse
ids out of order.  So identifiers of departed nodes are never reused
within one graph's lifetime, which lets churn traces and estimator logs
refer to nodes unambiguously, and the twin's rows are sorted by id.

Determinism contract (see ``docs/SNAPSHOTS.md``): node order is the
twin's row order (insertion order, which is ascending id order), and
each node's neighbour order is the order its links were made in, which
every splice keeps.  Every consumer of adjacency order
(``ArrayOverlayGraph.sample_neighbors``, ``random_neighbor``, join
candidates) therefore behaves as a pure function of the operation
history — and a graph rebuilt from :meth:`OverlayGraph.snapshot` is
*behaviorally identical* to the live one for all future operations,
which is what makes mid-replay state hand-off between worker processes
bit-exact.
"""

from __future__ import annotations

import itertools
from typing import (
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
from .arraygraph import ArrayOverlayGraph, GraphError

__all__ = ["OverlayGraph", "GraphError"]


def _empty_twin() -> ArrayOverlayGraph:
    """The twin of a graph with no nodes and ``next_id`` 0."""
    none = np.zeros(0, dtype=np.int32)
    return ArrayOverlayGraph(none, np.zeros(1, dtype=np.int32), none, 0)


class OverlayGraph:
    """Undirected overlay whose one state is its immutable CSR twin.

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
        self._twin = _empty_twin()
        if nodes is not None:
            for u in nodes:
                self.add_node(u)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of alive nodes — the quantity every estimator targets."""
        return self._twin.n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._twin.m

    @property
    def next_id(self) -> int:
        """The id the next auto-assigned node will receive.

        Part of the behavioural state (see :meth:`snapshot`): two graphs
        with equal adjacency but different ``next_id`` diverge on the next
        ``add_node()``.
        """
        return self._twin.next_id

    def __len__(self) -> int:
        return self.size

    def __contains__(self, node: int) -> bool:
        return self._twin.position(node) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._twin.nodes.tolist())

    def nodes(self) -> List[int]:
        """List of alive node ids in insertion order."""
        return self._twin.nodes.tolist()

    def node_array(self) -> np.ndarray:
        """Alive node ids in insertion order as the twin's own (read-only
        by contract) integer array, with no Python int per node."""
        return self._twin.nodes

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once each, as ``(min, max)`` pairs."""
        for u, nbrs in self._twin.iter_rows():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighbors(self, node: int) -> KeysView[int]:
        """The neighbours of ``node``, in the order their links were made.

        The returned view supports the full set API (membership, length,
        iteration, comparisons); it is a fresh copy of ``node``'s row.
        """
        return dict.fromkeys(self._twin.neighbor_ids(node).tolist()).keys()

    def degree(self, node: int) -> int:
        """Number of neighbours of ``node``."""
        return len(self._twin.neighbor_ids(node))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        twin = self._twin
        pu, pv = twin.position(u), twin.position(v)
        return pu >= 0 and pv >= 0 and bool((twin.neighbors(pu) == pv).any())

    def average_degree(self) -> float:
        """Mean degree over alive nodes (0.0 for the empty graph)."""
        return self._twin.average_degree()

    def degrees(self) -> np.ndarray:
        """Degree per node in insertion order, aligned with :meth:`nodes`."""
        return self._twin.degrees()

    def random_node(self, rng: RngLike = None) -> int:
        """A uniformly random alive node (one draw over the twin's rows)."""
        nodes = self._twin.nodes
        if not nodes.size:
            raise GraphError("cannot sample from an empty overlay")
        gen = as_generator(rng)
        return int(nodes[gen.integers(nodes.size)])

    def random_neighbor(self, node: int, rng: RngLike = None) -> Optional[int]:
        """A uniformly random neighbour of ``node`` or ``None`` if isolated
        (one ``integers(degree)`` draw over its row)."""
        nbrs = self._twin.neighbor_ids(node)
        if not nbrs.size:
            return None
        gen = as_generator(rng)
        return int(nbrs[gen.integers(nbrs.size)])

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def add_node(self, node: Optional[int] = None) -> int:
        """Add an isolated node; auto-assigns the id when ``node`` is None.

        An explicit id must be at least :attr:`next_id`, so ids ascend in
        insertion order and a departed id is never reused.  Returns the id
        of the added node.
        """
        twin = self._twin
        node = twin.next_id if node is None else int(node)
        if node < 0:
            raise GraphError("node ids must be non-negative")
        if node in self:
            raise GraphError(f"node {node} already present")
        if node < twin.next_id:
            raise GraphError(
                f"node {node} is below next_id {twin.next_id}: ids must ascend"
            )
        # A fresh row takes the id next_id, so the counter skips to node.
        skipped = ArrayOverlayGraph(twin.nodes, twin.indptr, twin.indices, node)
        self._twin = skipped.with_links((), 1)
        return node

    def add_nodes(self, count: int) -> List[int]:
        """Add ``count`` fresh isolated nodes, returning their ids."""
        if count < 0:
            raise GraphError("count must be non-negative")
        first = self.next_id
        self._twin = self._twin.with_links((), count)
        return list(range(first, first + count))

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and sever all of its links (no repair).

        This models an abrupt departure/failure: per the paper, remaining
        neighbours do *not* rewire.
        """
        self.remove_nodes([node])

    def remove_nodes(self, nodes: Sequence[int]) -> None:
        """Remove the distinct alive ``nodes`` and sever their links, in one
        :meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.without` splice."""
        self._twin = self._twin.without(nodes)

    def add_edge(self, u: int, v: int) -> None:
        """Create the undirected edge ``{u, v}``."""
        if u == v:
            raise GraphError("self-loops are not allowed in the overlay")
        twin = self._twin
        pu, pv = twin.position(u), twin.position(v)
        if pu < 0 or pv < 0:
            raise GraphError(f"both endpoints must exist (got {u}, {v})")
        if (twin.neighbors(pu) == pv).any():
            raise GraphError(f"edge ({u}, {v}) already present")
        self._twin = twin.with_links((pu, pv))

    def try_add_edge(self, u: int, v: int) -> bool:
        """Like :meth:`add_edge` but returns False instead of raising on
        duplicates, self-loops and missing endpoints."""
        try:
            self.add_edge(u, v)
        except GraphError:
            return False
        return True

    # ------------------------------------------------------------------
    # the twin
    # ------------------------------------------------------------------

    def to_array(self) -> ArrayOverlayGraph:
        """This graph's CSR twin: its whole state, shared, never copied.

        The :class:`~repro.overlay.arraygraph.ArrayOverlayGraph` keeps
        node order and per-node neighbour order, so :meth:`from_array`
        round-trips to a behaviorally identical graph and
        ``to_array().snapshot() == snapshot()`` exactly.
        """
        return self._twin

    @classmethod
    def from_array(cls, array: ArrayOverlayGraph) -> "OverlayGraph":
        """A graph whose state is ``array`` (inverse of :meth:`to_array`)."""
        g = cls()
        g.adopt_twin(array)
        return g

    def adopt_twin(self, array: ArrayOverlayGraph) -> None:
        """Make ``array`` this graph's whole state.

        The churn mutations (batch joins, repair rounds) compute the next
        twin from :meth:`to_array` and swap it in here.
        """
        self._twin = array

    def check_invariants(self) -> None:
        """Raise :class:`GraphError` unless the twin is a valid undirected
        CSR encoding (:meth:`ArrayOverlayGraph.check_invariants
        <repro.overlay.arraygraph.ArrayOverlayGraph.check_invariants>`)."""
        self._twin.check_invariants()

    def copy(self) -> "OverlayGraph":
        """An independent graph in the same state.

        The immutable twin is shared: a mutation of either graph swaps in
        a new twin for that graph alone.
        """
        return OverlayGraph.from_array(self._twin)

    # ------------------------------------------------------------------
    # state hand-off (docs/SNAPSHOTS.md)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data state capture: JSON-able, picklable, content-hashable.

        Returns ``{"nodes": [...], "adj": [[...], ...], "next_id": n}``
        where both node and per-node neighbour lists are in the twin's
        order.  :meth:`restore` rebuilds a graph that is *behaviorally
        identical* to this one — every future mutation, CSR build and
        neighbour sample proceeds exactly as it would have on the
        original — which is the invariant the chunk hand-off protocol
        (``repro.runtime.snapshots``) relies on.
        """
        return self._twin.snapshot()

    @classmethod
    def restore(cls, snap: Mapping[str, Any]) -> "OverlayGraph":
        """Rebuild a graph from a :meth:`snapshot` payload.

        The lists are encoded straight into a twin, which must pass
        :meth:`ArrayOverlayGraph.check_invariants
        <repro.overlay.arraygraph.ArrayOverlayGraph.check_invariants>`;
        a payload with one list per node whose ids ascend, whose links
        name only its nodes and are undirected is accepted, and any other
        raises :class:`GraphError`.
        """
        nodes = np.asarray(snap["nodes"], dtype=np.int64)
        rows = snap["adj"]
        if nodes.ndim != 1 or len(rows) != nodes.size:
            raise GraphError("snapshot needs one neighbour list per node")
        if np.any(nodes[1:] <= nodes[:-1]):  # the search below needs it
            raise GraphError("snapshot node ids must ascend")
        degrees = np.fromiter(map(len, rows), dtype=np.int64, count=nodes.size)
        indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        flat = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
        )
        indices = nodes.searchsorted(flat)
        if flat.size and (indices.max() >= nodes.size or np.any(nodes[indices] != flat)):
            raise GraphError("snapshot links name an id that is not a node")
        twin = ArrayOverlayGraph._narrowed(nodes, indptr, indices, int(snap["next_id"]))
        twin.check_invariants()
        return cls.from_array(twin)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayGraph(n={self.size}, m={self.num_edges})"
