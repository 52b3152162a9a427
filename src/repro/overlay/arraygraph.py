"""Insertion-ordered CSR twin of :class:`~repro.overlay.graph.OverlayGraph`.

:class:`ArrayOverlayGraph` is the flat-array representation the batched
estimator kernels (:mod:`repro.core.kernels`) run on: node ids, a CSR row
pointer and a flat neighbour array, all held as contiguous ``int64`` numpy
arrays so a walker batch advances with gathers instead of dict lookups.

It differs from :class:`~repro.overlay.graph.CsrView` in one load-bearing
way: **rows and row contents keep the dict graph's insertion order** (the
PR-5 determinism contract, ``docs/SNAPSHOTS.md``) instead of sorting node
ids.  That makes the twin a lossless re-encoding of the dict graph's
behavioural state — :meth:`to_overlay` reconstructs a graph whose node
iteration order, neighbour iteration order and ``next_id`` are identical,
and :meth:`snapshot` produces byte-for-byte the same payload as
:meth:`OverlayGraph.snapshot`.  The equivalence suite
(``tests/overlay/test_arraygraph_equivalence.py``) holds both properties
under churn/repair round-trips.

The twin is immutable: it captures one graph state.  Mutations happen on
the dict graph (the source of truth), which lazily rebuilds its cached
twin via :meth:`OverlayGraph.to_array` — incrementally
(:meth:`ArrayOverlayGraph.from_overlay_incremental`) when the mutation
log since the previous twin touched only a fraction of the rows, as churn
does.  The other direction is lazy too: overlay builders emit a twin
first, and the graph :meth:`to_overlay` returns builds its dict from
:meth:`iter_rows` only when first needed.

:meth:`ArrayOverlayGraph.pack` and :meth:`ArrayOverlayGraph.unpack` are
the twin's hand-off form (``docs/SNAPSHOTS.md``): the replay-state
payloads that pool workers, cluster hosts and store artifacts carry hold
the overlay as narrowed arrays, and ``unpack`` validates them before a
twin is built from them.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graph import GraphError, OverlayGraph

__all__ = ["ArrayOverlayGraph"]

#: Rows decoded per block by :meth:`ArrayOverlayGraph.iter_rows`: bounds the
#: temporaries of a full decode at a few MB whatever the graph size.
_ROW_BLOCK = 1 << 14

#: Array dtypes :meth:`ArrayOverlayGraph.unpack` accepts.
_PACKED_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))
_INT32 = np.iinfo(np.int32)


def _narrow(arr: np.ndarray) -> np.ndarray:
    """``arr`` as ``int32`` when every value fits, else as ``int64``."""
    if not arr.size or (_INT32.min <= arr.min() and arr.max() <= _INT32.max):
        return arr.astype(np.int32)
    return arr.astype(np.int64, copy=False)


def _member_mask(ids: Iterable[int], size: int) -> np.ndarray:
    """Boolean membership table over ``0..size-1`` (ids beyond it ignored)."""
    mask = np.zeros(max(size, 1), dtype=bool)
    ids = list(ids)
    if ids:
        arr = np.fromiter(ids, dtype=np.int64, count=len(ids))
        arr = arr[arr < size]
        if arr.size:
            mask[arr] = True
    return mask


class ArrayOverlayGraph:
    """Immutable insertion-ordered CSR snapshot of an overlay.

    Attributes
    ----------
    nodes:
        Alive node ids in dict-graph insertion order, shape ``(n,)``.
    indptr:
        CSR row pointer, shape ``(n + 1,)``.
    indices:
        Flat neighbour array holding *positions into* ``nodes`` (compact
        ``0..n-1`` space); the neighbours of row ``k`` are
        ``indices[indptr[k]:indptr[k+1]]`` in per-node insertion order.
    next_id:
        The dict graph's id counter, carried so round-trips preserve the
        full behavioural state.
    """

    __slots__ = ("nodes", "indptr", "indices", "next_id", "_position_of", "_inv_deg")

    def __init__(
        self,
        nodes: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        next_id: int,
    ) -> None:
        self.nodes = nodes
        self.indptr = indptr
        self.indices = indices
        self.next_id = int(next_id)
        self._position_of: Optional[Dict[int, int]] = None
        self._inv_deg: Optional[np.ndarray] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayOverlayGraph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # construction / round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_overlay(cls, graph: OverlayGraph) -> "ArrayOverlayGraph":
        """Encode ``graph`` into its array twin (one bulk adjacency pass).

        Raw neighbour ids translate to compact positions via a dense
        id → position lookup table when ids are counter-dense (the normal
        case: ids come from the graph's ``next_id`` counter, so
        ``max_id < next_id ≈ n + departures``), falling back to the
        ``argsort`` + ``searchsorted`` idiom for sparse id spaces —
        ``nodes`` is *not* sorted, so a permutation must mediate either way.
        """
        nodes, indptr, flat = graph.neighbour_arrays()
        return cls(
            nodes=nodes,
            indptr=indptr,
            indices=cls._compact_indices(nodes, flat),
            next_id=graph.next_id,
        )

    @staticmethod
    def _compact_indices(nodes: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Translate raw neighbour ids to positions into ``nodes``."""
        if not flat.size:
            return np.zeros(0, dtype=np.int64)
        max_id = int(nodes.max())
        if max_id < 4 * nodes.shape[0] + 1024:
            lut = np.empty(max_id + 1, dtype=np.int64)
            lut[nodes] = np.arange(nodes.shape[0], dtype=np.int64)
            return lut[flat]
        order = np.argsort(nodes, kind="stable")
        return order[np.searchsorted(nodes[order], flat)]

    @classmethod
    def from_overlay_incremental(
        cls,
        graph: OverlayGraph,
        base: "ArrayOverlayGraph",
        dirty: Iterable[int],
        removed: Iterable[int],
        appended: Sequence[int],
    ) -> "ArrayOverlayGraph":
        """Re-encode ``graph`` by patching ``base``, touching only changed rows.

        ``base`` is a twin of some *earlier* state of ``graph``; ``dirty``
        holds ids whose neighbour row changed since then, ``removed`` ids
        that departed (even if later re-added), and ``appended`` ids added
        since — in call order, duplicates resolved last-add-wins.  Rows the
        mutation log never touched copy over as vectorized segment gathers,
        so only the changed rows pay the per-edge Python iteration that
        dominates :meth:`from_overlay`.  Insertion order is preserved by
        construction: survivors keep their relative order (dict removals
        never reorder the rest) and (re-)added rows append at the end,
        exactly as the source dict iterates.  The result is bit-identical
        to ``from_overlay(graph)``.
        """
        adj = graph._adj
        old_nodes = base.nodes
        old_deg = np.diff(base.indptr)
        old_flat_ids = old_nodes[base.indices]

        lut_size = int(old_nodes.max()) + 1
        survivor = ~_member_mask(removed, lut_size)[old_nodes]
        old_dirty = _member_mask(dirty, lut_size)[old_nodes]
        surv_nodes = old_nodes[survivor]
        surv_dirty = old_dirty[survivor]

        # (Re-)added rows sit at the end of the dict in last-add order.
        seen: set = set()
        app: List[int] = []
        for u in reversed(list(appended)):
            if u not in seen:
                seen.add(u)
                if u in adj:
                    app.append(u)
        app.reverse()
        app_arr = np.fromiter(app, dtype=np.int64, count=len(app))

        nodes_new = np.concatenate([surv_nodes, app_arr])
        deg_surv = old_deg[survivor]
        if surv_dirty.any():
            fresh = surv_nodes[surv_dirty].tolist()
            deg_surv = deg_surv.copy()
            deg_surv[surv_dirty] = np.fromiter(
                (len(adj[u]) for u in fresh), dtype=np.int64, count=len(fresh)
            )
        deg_app = np.fromiter(
            (len(adj[u]) for u in app), dtype=np.int64, count=len(app)
        )
        degrees = np.concatenate([deg_surv, deg_app])
        indptr = np.zeros(nodes_new.shape[0] + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        # Changed rows re-read the dict (one chained pass over their edges
        # only); unchanged rows gather their old flat segments in bulk.
        flat = np.empty(int(indptr[-1]), dtype=np.int64)
        row_dirty = np.concatenate([surv_dirty, np.ones(len(app), dtype=bool)])
        edge_dirty = np.repeat(row_dirty, degrees)
        changed_rows = itertools.chain(surv_nodes[surv_dirty].tolist(), app)
        flat[edge_dirty] = np.fromiter(
            itertools.chain.from_iterable(adj[u] for u in changed_rows),
            dtype=np.int64,
            count=int(degrees[row_dirty].sum()),
        )
        clean = survivor & ~old_dirty
        lens = old_deg[clean]
        total = int(lens.sum())
        if total:
            starts = base.indptr[:-1][clean]
            shift = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(lens[:-1])]
            )
            gather = np.repeat(starts - shift, lens) + np.arange(
                total, dtype=np.int64
            )
            flat[~edge_dirty] = old_flat_ids[gather]

        if nodes_new.shape[0] != len(adj) or int(indptr[-1]) != 2 * graph.num_edges:
            raise GraphError(
                "incremental twin diverged from the overlay "
                f"({nodes_new.shape[0]} rows vs {len(adj)}, "
                f"{int(indptr[-1])} half-edges vs {2 * graph.num_edges})"
            )
        return cls(
            nodes=nodes_new,
            indptr=indptr,
            indices=cls._compact_indices(nodes_new, flat),
            next_id=graph.next_id,
        )

    def to_overlay(self) -> OverlayGraph:
        """Decode back to a behaviorally identical dict graph.

        Node order, per-node neighbour order and ``next_id`` all carry
        over, so the result is indistinguishable from the graph this twin
        was taken from — for every future mutation, sample and snapshot.
        The result is backed by this twin
        (:meth:`OverlayGraph.from_array`): its dict is built from
        :meth:`iter_rows` only when first needed.
        """
        return OverlayGraph.from_array(self)

    def iter_rows(self) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(node id, neighbour ids)`` per row, in insertion order.

        Rows are decoded in bounded blocks, so a full pass never holds
        more than one block's temporaries.  Every yielded id is the same
        int object as that node's entry in one shared id list: a dict
        graph or snapshot built from the rows costs one int object per
        node, not one per half-edge.
        """
        ids: List[int] = self.nodes.tolist()
        get = ids.__getitem__
        for lo in range(0, len(ids), _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, len(ids))
            bounds: List[int] = (self.indptr[lo : hi + 1] - self.indptr[lo]).tolist()
            start = int(self.indptr[lo])
            flat = list(map(get, self.indices[start : start + bounds[-1]].tolist()))
            for u, a, b in zip(ids[lo:hi], bounds, bounds[1:]):
                yield u, flat[a:b]

    def snapshot(self) -> Dict[str, Any]:
        """The *same* pure-data payload :meth:`OverlayGraph.snapshot` yields.

        Equality (and therefore content-hash equality) with the source
        graph's snapshot is the structural half of the backend
        cross-validation gate.
        """
        return {
            "nodes": self.nodes.tolist(),
            "adj": [nbrs for _, nbrs in self.iter_rows()],
            "next_id": self.next_id,
        }

    @classmethod
    def restore(cls, snap: Mapping[str, Any]) -> "ArrayOverlayGraph":
        """Build a twin straight from a :meth:`snapshot` payload."""
        return cls.from_overlay(OverlayGraph.restore(snap))

    def pack(self) -> Dict[str, Any]:
        """The twin as its hand-off payload: three arrays plus ``next_id``.

        ``nodes``, ``indptr`` and ``indices`` are ``int32`` when their
        values fit and ``int64`` otherwise, which halves what a 100k-node
        overlay costs on the wire and on disk.  :meth:`unpack` is the
        inverse.
        """
        return {
            "nodes": _narrow(self.nodes),
            "indptr": _narrow(self.indptr),
            "indices": _narrow(self.indices),
            "next_id": self.next_id,
        }

    @classmethod
    def unpack(cls, packed: Mapping[str, Any]) -> "ArrayOverlayGraph":
        """Validate a :meth:`pack` payload and widen it back into a twin.

        The payload may come off the wire or out of a store artifact, so
        every structural property the twin relies on is checked before
        use; a violation raises :class:`GraphError`.
        """
        arrays = []
        for name in ("nodes", "indptr", "indices"):
            arr = packed.get(name)
            if not isinstance(arr, np.ndarray) or arr.dtype not in _PACKED_DTYPES:
                raise GraphError(f"packed {name} must be an int32 or int64 array")
            if arr.ndim != 1:
                raise GraphError(f"packed {name} must be 1-D, got shape {arr.shape}")
            arrays.append(arr.astype(np.int64, copy=False))
        next_id = packed.get("next_id")
        if not isinstance(next_id, (int, np.integer)) or isinstance(next_id, bool):
            raise GraphError(f"packed next_id must be an integer, got {next_id!r}")
        twin = cls(*arrays, next_id=int(next_id))
        twin._check_structure()
        return twin

    # ------------------------------------------------------------------
    # accessors (kernel-facing)
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of alive nodes."""
        return int(self.nodes.shape[0])

    @property
    def size(self) -> int:
        """Alias of :attr:`n`, mirroring :attr:`OverlayGraph.size`."""
        return self.n

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.shape[0]) // 2

    @property
    def position_of(self) -> Dict[int, int]:
        """Raw node id → row position (built lazily, like ``CsrView.index_of``)."""
        if self._position_of is None:
            self._position_of = {int(u): i for i, u in enumerate(self.nodes)}
        return self._position_of

    def degrees(self) -> np.ndarray:
        """Degree per row, aligned with :attr:`nodes` (insertion order)."""
        return np.diff(self.indptr)

    def inv_degrees(self) -> np.ndarray:
        """``1/degree`` per row, ``inf`` at dead ends (cached).

        The walker kernels multiply exponential TTL decrements by this
        vector; the ``inf`` rows make a dead end absorb any walk that
        reaches it without a separate liveness mask.
        """
        if self._inv_deg is None:
            with np.errstate(divide="ignore"):
                self._inv_deg = 1.0 / np.diff(self.indptr)
        return self._inv_deg

    def average_degree(self) -> float:
        """Mean degree (0.0 for the empty graph)."""
        return 2.0 * self.m / self.n if self.n else 0.0

    def neighbors(self, pos: int) -> np.ndarray:
        """Compact neighbour positions of the row at ``pos``."""
        return self.indices[self.indptr[pos] : self.indptr[pos + 1]]

    def neighbor_ids(self, node: int) -> np.ndarray:
        """Raw neighbour ids of ``node`` in insertion order."""
        pos = self.position_of.get(int(node))
        if pos is None:
            raise GraphError(f"node {node} is not in the overlay")
        return self.nodes[self.neighbors(pos)]

    def sample_neighbors(
        self, positions: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One uniform random neighbour per position (``-1`` when isolated).

        Identical draw pattern to :meth:`CsrView.sample_neighbors`: a
        single pre-drawn uniform block scaled by the degree vector.
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

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def _check_structure(self) -> None:
        """Raise :class:`GraphError` unless the arrays form a valid CSR
        twin: row pointer, neighbour range, node ids and ``next_id``."""
        n = self.n
        indptr, indices, nodes = self.indptr, self.indices, self.nodes
        if indptr.shape[0] != n + 1 or indptr[0] != 0:
            raise GraphError("indptr must have n + 1 entries starting at 0")
        if np.any(indptr[1:] < indptr[:-1]):
            raise GraphError("indptr must be non-decreasing")
        if indptr[-1] != indices.shape[0]:
            raise GraphError("indptr tail must equal len(indices)")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("neighbour position out of range")
        if n and nodes.min() < 0:
            raise GraphError("node ids must be non-negative")
        ordered = np.sort(nodes)
        if np.any(ordered[1:] == ordered[:-1]):
            raise GraphError("duplicate node ids")
        if self.next_id < 0 or (n and self.next_id <= nodes.max()):
            raise GraphError("next_id must exceed every node id")

    def check_invariants(self) -> None:
        """Assert CSR well-formedness and undirected symmetry."""
        self._check_structure()
        n = self.n
        # Symmetry: each (row, neighbour) pair must appear mirrored.
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        forward = set(zip(rows.tolist(), self.indices.tolist()))
        for a, b in forward:
            if a == b:
                raise GraphError(f"self-loop at position {a}")
            if (b, a) not in forward:
                raise GraphError(f"asymmetric link {a}->{b}")
