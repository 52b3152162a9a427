"""Insertion-ordered CSR twin of :class:`~repro.overlay.graph.OverlayGraph`.

:class:`ArrayOverlayGraph` is the overlay's one flat-array encoding:
every estimator reads it on either backend (the batched kernels of
:mod:`repro.core.kernels` included), and so do the aggregation round and
:mod:`repro.overlay.views`.  It holds node ids, a CSR row pointer and a
flat neighbour array as contiguous numpy arrays, so a walker batch
advances with gathers instead of dict lookups.  Each array is
``int32`` when its values fit and ``int64`` otherwise (only ids of
``2**31`` and up, or more than ``2**31`` nodes or half-edges, need the
wide form); every twin this module or the builders produce follows that
rule, so the kernels gather over half the bytes.

It is a lossless re-encoding of the dict graph's behavioural state:
**rows and row contents keep the dict graph's insertion order** (the PR-5
determinism contract, ``docs/SNAPSHOTS.md``), and because ids are never
re-added below ``next_id`` that order is ascending id order, so the twin
is also the graph's sorted CSR encoding (:meth:`position` is a binary
search).  :meth:`to_overlay` reconstructs a graph whose node iteration
order, neighbour iteration order and ``next_id`` are identical, and
:meth:`snapshot` produces byte-for-byte the same payload as
:meth:`OverlayGraph.snapshot`.  The equivalence suite
(``tests/overlay/test_arraygraph_equivalence.py``) holds both properties
under churn/repair round-trips.

The twin is immutable: it captures one graph state.  A graph whose dict
exists mutates the dict (the source of truth) and lazily rebuilds its
cached twin via :meth:`OverlayGraph.to_array` — incrementally
(:meth:`ArrayOverlayGraph.from_overlay_incremental`) when the mutation
log since the previous twin touched only a fraction of the rows, as churn
does.  The other direction is lazy too: overlay builders emit a twin
first, and the graph :meth:`to_overlay` returns builds its dict from
:meth:`iter_rows` only when first needed.  Until then a batch of
departures never builds it: :meth:`without` computes the next twin with
numpy, and the graph swaps it in (:meth:`OverlayGraph.remove_nodes`).

:meth:`ArrayOverlayGraph.pack` and :meth:`ArrayOverlayGraph.unpack` are
the twin's hand-off form (``docs/SNAPSHOTS.md``): the replay-state
payloads that pool workers, cluster hosts and store artifacts carry hold
the overlay's arrays in the twin's own dtypes, and ``unpack`` validates
them before a twin is built from them.
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
    """``arr`` as ``int32`` when every value fits, else as ``int64``
    (``arr`` itself when it already has that dtype)."""
    if arr.dtype == np.int32:
        return arr
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
        Alive node ids in dict-graph insertion order, which is ascending
        id order (:meth:`check_invariants`), shape ``(n,)``.
    indptr:
        CSR row pointer, shape ``(n + 1,)``.
    indices:
        Flat neighbour array holding *positions into* ``nodes`` (compact
        ``0..n-1`` space); the neighbours of row ``k`` are
        ``indices[indptr[k]:indptr[k+1]]`` in per-node insertion order.
    next_id:
        The dict graph's id counter, carried so round-trips preserve the
        full behavioural state.

    The constructor keeps the arrays it is given; the module's producers
    (:meth:`from_overlay`, :meth:`without`, :meth:`unpack`, the builders)
    hand it arrays that follow the ``int32``-when-it-fits rule.
    """

    __slots__ = ("nodes", "indptr", "indices", "next_id", "_inv_deg")

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
        self._inv_deg: Optional[np.ndarray] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayOverlayGraph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # construction / round-trip
    # ------------------------------------------------------------------

    @classmethod
    def _narrowed(
        cls, nodes: np.ndarray, indptr: np.ndarray, indices: np.ndarray, next_id: int
    ) -> "ArrayOverlayGraph":
        """A twin whose arrays are each ``int32`` when their values fit and
        ``int64`` otherwise; arrays that already follow the rule are kept."""
        return cls(_narrow(nodes), _narrow(indptr), _narrow(indices), next_id)

    @classmethod
    def from_overlay(cls, graph: OverlayGraph) -> "ArrayOverlayGraph":
        """Encode ``graph`` into its array twin (one bulk adjacency pass).

        Raw neighbour ids translate to compact positions via a dense
        id → position lookup table when ids are counter-dense (the normal
        case: ids come from the graph's ``next_id`` counter, so
        ``max_id < next_id ≈ n + departures``), and by a binary search over
        the ascending ``nodes`` for sparse id spaces.
        """
        nodes, indptr, flat = graph.neighbour_arrays()
        return cls._narrowed(
            nodes, indptr, cls._compact_indices(nodes, flat), graph.next_id
        )

    @staticmethod
    def _compact_indices(nodes: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Translate raw neighbour ids to positions into the ascending ``nodes``."""
        if not flat.size:
            return np.zeros(0, dtype=np.int32)
        max_id = int(nodes[-1])
        if max_id < 4 * nodes.shape[0] + 1024:
            n = nodes.shape[0]
            wide = n > _INT32.max + 1  # positions 0..n-1 need int64
            lut = np.empty(max_id + 1, dtype=np.int64 if wide else np.int32)
            lut[nodes] = np.arange(n, dtype=lut.dtype)
            return lut[flat]
        return np.searchsorted(nodes, flat)

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
        that departed, and ``appended`` ids added since, in call order
        (ascending: an id is never added twice).  Rows the mutation log
        never touched copy over as vectorized segment gathers, so only the
        changed rows pay the per-edge Python iteration that dominates
        :meth:`from_overlay`.  Insertion order is preserved by
        construction: survivors keep their relative order (dict removals
        never reorder the rest) and added rows append at the end, exactly
        as the source dict iterates.  The result is bit-identical to
        ``from_overlay(graph)``.
        """
        adj = graph._adj
        old_nodes = base.nodes
        old_deg = np.diff(base.indptr)
        old_flat_ids = old_nodes[base.indices]

        lut_size = int(old_nodes[-1]) + 1
        survivor = ~_member_mask(removed, lut_size)[old_nodes]
        old_dirty = _member_mask(dirty, lut_size)[old_nodes]
        surv_nodes = old_nodes[survivor]
        surv_dirty = old_dirty[survivor]

        # Added rows sit at the end of the dict; an id added and removed
        # again since ``base`` is in neither.
        app = [u for u in appended if u in adj]
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
        return cls._narrowed(
            nodes_new, indptr, cls._compact_indices(nodes_new, flat), graph.next_id
        )

    def without(self, victims: np.ndarray) -> "ArrayOverlayGraph":
        """This twin after the nodes ``victims`` (distinct ids) departed.

        Victim rows are dropped and every half-edge into a victim is
        masked out; the survivors keep their order and each row keeps its
        neighbour order, so the result equals the twin of a dict graph
        that called :meth:`OverlayGraph.remove_node` on each victim.  The
        degree update reads the victims' own rows, which list exactly the
        rows that lose a link because rows are symmetric without repeated
        entries (:meth:`check_invariants`).  The new row pointer and
        positions are computed in this twin's own dtypes.
        """
        victims = np.asarray(victims, dtype=np.int64)
        gone = np.isin(self.nodes, victims)
        keep = ~gone
        if int(np.count_nonzero(gone)) != victims.size:
            raise GraphError("departing nodes must be distinct nodes of the overlay")
        deg = np.diff(self.indptr)
        victim_half = np.repeat(gone, deg)
        lost = np.bincount(self.indices[victim_half], minlength=self.n)
        indptr = np.zeros(self.n - victims.size + 1, dtype=self.indptr.dtype)
        np.cumsum((deg - lost)[keep], dtype=indptr.dtype, out=indptr[1:])
        live_half = keep[self.indices]
        live_half[victim_half] = False
        position = np.cumsum(keep, dtype=self.indices.dtype)
        position -= 1
        indices = position[self.indices[live_half]]
        if int(indptr[-1]) != indices.size:
            raise GraphError("twin rows are not symmetric")
        return ArrayOverlayGraph._narrowed(self.nodes[keep], indptr, indices, self.next_id)

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

        ``nodes``, ``indptr`` and ``indices`` are copies in the twin's own
        dtypes (``int32`` when their values fit), which halves what a
        100k-node overlay costs on the wire and on disk.  The caller owns
        them: an edit cannot reach the twin, which other graphs may share.
        :meth:`unpack` is the inverse.
        """
        return {
            "nodes": self.nodes.copy(),
            "indptr": self.indptr.copy(),
            "indices": self.indices.copy(),
            "next_id": self.next_id,
        }

    @classmethod
    def unpack(cls, packed: Mapping[str, Any]) -> "ArrayOverlayGraph":
        """Validate a :meth:`pack` payload and build the twin that holds it.

        The payload may come off the wire or out of a store artifact, so
        every structural property the twin relies on is checked before
        use; a violation raises :class:`GraphError`.  Arrays keep their
        dtype unless they are ``int64`` with values that fit ``int32``.
        """
        arrays = []
        for name in ("nodes", "indptr", "indices"):
            arr = packed.get(name)
            if not isinstance(arr, np.ndarray) or arr.dtype not in _PACKED_DTYPES:
                raise GraphError(f"packed {name} must be an int32 or int64 array")
            if arr.ndim != 1:
                raise GraphError(f"packed {name} must be 1-D, got shape {arr.shape}")
            arrays.append(_narrow(arr))
        next_id = packed.get("next_id")
        if not isinstance(next_id, (int, np.integer)) or isinstance(next_id, bool):
            raise GraphError(f"packed next_id must be an integer, got {next_id!r}")
        twin = cls(*arrays, next_id=int(next_id))
        twin.check_invariants()
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

    def position(self, node: int) -> int:
        """Row of ``node``, or ``-1`` when it is not in the overlay.

        One binary search over the ascending :attr:`nodes`; the id is
        compared in their dtype, so no lookup copies the array.
        """
        nodes = self.nodes
        node = int(node)
        if not 0 <= node <= np.iinfo(nodes.dtype).max:
            return -1
        row = int(nodes.searchsorted(nodes.dtype.type(node)))
        return row if row < nodes.shape[0] and nodes[row] == node else -1

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
        pos = self.position(node)
        if pos < 0:
            raise GraphError(f"node {node} is not in the overlay")
        return self.nodes[self.neighbors(pos)]

    def sample_neighbors(
        self, positions: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One uniform random neighbour per position (``-1`` when isolated).

        A single pre-drawn uniform block scaled by the degree vector; the
        gathers stay in the twin's own dtypes.
        """
        positions = np.asarray(positions)
        starts = self.indptr[positions]
        degs = self.indptr[positions + 1] - starts
        out = np.full(positions.shape, -1, dtype=self.indices.dtype)
        nz = degs > 0
        if np.any(nz):
            offsets = (rng.random(int(nz.sum())) * degs[nz]).astype(starts.dtype)
            out[nz] = self.indices[starts[nz] + offsets]
        return out

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`GraphError` unless the arrays form a valid CSR
        twin: row pointer, neighbour range, strictly ascending
        non-negative node ids, ``next_id``, and links that are undirected
        — no self-loop, no repeated neighbour entry, every half-edge
        mirrored."""
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
        if np.any(nodes[1:] <= nodes[:-1]):
            raise GraphError("node ids must ascend")
        if n and nodes[0] < 0:
            raise GraphError("node ids must be non-negative")
        if self.next_id < 0 or (n and self.next_id <= nodes[-1]):
            raise GraphError("next_id must exceed every node id")
        # One sort checks the links: half-edge (r, c) gets the key
        # 2*(min*n + max) + (r < c), so a valid twin sorts into pairs
        # (2k, 2k + 1), one per direction of each undirected link.
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        if np.any(keys == indices):
            raise GraphError("self-loop in the neighbour rows")
        upward = keys < indices
        low = np.minimum(keys, indices)
        np.maximum(keys, indices, out=keys)
        low *= n
        keys += low
        del low
        keys *= 2
        keys += upward
        keys.sort()
        even, odd = keys[0::2], keys[1::2]
        if keys.size % 2 or np.any(even & 1) or np.any(odd - even != 1):
            if np.any(keys[1:] == keys[:-1]):
                raise GraphError("repeated neighbour entry in a row")
            raise GraphError("asymmetric link in the neighbour rows")
