"""The overlay's CSR encoding: the one state of an overlay graph.

:class:`ArrayOverlayGraph` is what an
:class:`~repro.overlay.graph.OverlayGraph` holds, and every estimator
reads it on either backend (the batched kernels of
:mod:`repro.core.kernels` included), and so do the aggregation round and
:mod:`repro.overlay.views`.  It holds node ids, a CSR row pointer and a
flat neighbour array as contiguous numpy arrays, so a walker batch
advances with gathers instead of per-node lookups.  Each array is
``int32`` when its values fit and ``int64`` otherwise (only ids of
``2**31`` and up, or more than ``2**31`` nodes or half-edges, need the
wide form); every twin this module or the builders produce follows that
rule, so the kernels gather over half the bytes.

**Rows are in insertion order and each row lists its neighbours in the
order the links were made** (the determinism contract,
``docs/SNAPSHOTS.md``).  Because ids are never re-added below
``next_id``, insertion order is ascending id order, so the twin is also
the graph's sorted CSR encoding (:meth:`~ArrayOverlayGraph.position` is
a binary search).  :meth:`~ArrayOverlayGraph.snapshot` writes the same
order as per-node lists, which
:meth:`OverlayGraph.restore <repro.overlay.graph.OverlayGraph.restore>`
encodes back into an equal twin.

The twin is immutable: it captures one graph state.  Every mutation
maps one twin to the next with numpy, and the graph swaps the result in
(:meth:`OverlayGraph.adopt_twin
<repro.overlay.graph.OverlayGraph.adopt_twin>`):
:meth:`~ArrayOverlayGraph.without` drops the rows of departed nodes, and
:meth:`~ArrayOverlayGraph.with_links` splices in a batch of new links,
plus fresh rows for new nodes (the builders of
:mod:`repro.overlay.builders`, :meth:`MembershipPolicy.join
<repro.overlay.membership.MembershipPolicy.join>` and the repair rounds
of :mod:`repro.overlay.repair`).

:meth:`ArrayOverlayGraph.pack` and :meth:`ArrayOverlayGraph.unpack` are
the twin's hand-off form (``docs/SNAPSHOTS.md``): the replay-state
payloads that pool workers, cluster hosts and store artifacts carry hold
the overlay's arrays in the twin's own dtypes, and ``unpack`` validates
them before a twin is built from them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["ArrayOverlayGraph", "GraphError"]

#: Rows decoded per block by :meth:`ArrayOverlayGraph.iter_rows`: bounds the
#: temporaries of a full decode at a few MB whatever the graph size.
_ROW_BLOCK = 1 << 14

#: Rows per block of the half-edge scans in
#: :meth:`ArrayOverlayGraph.check_invariants` and
#: :meth:`ArrayOverlayGraph.without`: their temporaries scale with one
#: block's half-edges (~30k at the default overlay's mean degree), so
#: neither holds a second copy of the half-edge array.
_SCAN_BLOCK = 1 << 12

#: Array dtypes :meth:`ArrayOverlayGraph.unpack` accepts.
_PACKED_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))
_INT32 = np.iinfo(np.int32)


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


def _narrow(arr: np.ndarray) -> np.ndarray:
    """``arr`` as ``int32`` when every value fits, else as ``int64``
    (``arr`` itself when it already has that dtype)."""
    if arr.dtype == np.int32:
        return arr
    if not arr.size or (_INT32.min <= arr.min() and arr.max() <= _INT32.max):
        return arr.astype(np.int32)
    return arr.astype(np.int64, copy=False)


class ArrayOverlayGraph:
    """Immutable insertion-ordered CSR snapshot of an overlay.

    Attributes
    ----------
    nodes:
        Alive node ids in insertion order, which is ascending id order
        (:meth:`check_invariants`), shape ``(n,)``.
    indptr:
        CSR row pointer, shape ``(n + 1,)``.
    indices:
        Flat neighbour array holding *positions into* ``nodes`` (compact
        ``0..n-1`` space); the neighbours of row ``k`` are
        ``indices[indptr[k]:indptr[k+1]]`` in the order the links were made.
    next_id:
        The graph's id counter, carried so round-trips preserve the full
        behavioural state.

    The constructor keeps the arrays it is given; the module's producers
    (:meth:`without`, :meth:`with_links`, :meth:`unpack`, the builders)
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

    def without(self, victims: np.ndarray) -> "ArrayOverlayGraph":
        """This twin after the nodes ``victims`` (distinct ids) departed.

        Victim rows are dropped and every half-edge into a victim is
        masked out; the survivors keep their order and each row keeps its
        neighbour order, so the result equals removing the victims one
        at a time.  The degree update reads the victims' own rows, which
        list exactly the rows that lose a link because rows are symmetric
        without repeated entries (:meth:`check_invariants`).  The new neighbour array is
        filled one row block at a time, in this twin's own dtypes, so no
        temporary spans every half-edge.
        """
        victims = np.asarray(victims, dtype=np.int64)
        keep = ~np.isin(self.nodes, victims)
        gone = np.flatnonzero(~keep)
        if gone.size != victims.size:
            raise GraphError("departing nodes must be distinct nodes of the overlay")
        indptr, indices = self.indptr, self.indices
        # The victims' half-edges: their row segments as one index array.
        starts = indptr[gone]
        deg = indptr[gone + 1] - starts
        victim_edges = np.arange(int(deg.sum())) + np.repeat(starts - np.cumsum(deg) + deg, deg)
        lost = np.bincount(indices[victim_edges], minlength=self.n)
        new_indptr = np.zeros(self.n - gone.size + 1, dtype=indptr.dtype)
        np.cumsum((np.diff(indptr) - lost)[keep], dtype=indptr.dtype, out=new_indptr[1:])
        del victim_edges, lost
        # Survivor positions in the new twin; -1 marks a victim.
        position = np.cumsum(keep, dtype=indices.dtype)
        position -= 1
        position[gone] = -1
        new_indices = np.empty(max(int(new_indptr[-1]), 0), dtype=indices.dtype)
        filled = 0
        for lo in range(0, self.n, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, self.n)
            block = position[indices[indptr[lo] : indptr[hi]]]
            live = block >= 0
            live &= np.repeat(keep[lo:hi], np.diff(indptr[lo : hi + 1]))
            block = block[live]
            if filled + block.size > new_indices.size:
                raise GraphError("twin rows are not symmetric")
            new_indices[filled : filled + block.size] = block
            filled += block.size
        if filled != new_indptr[-1]:
            raise GraphError("twin rows are not symmetric")
        return ArrayOverlayGraph._narrowed(
            self.nodes[keep], new_indptr, new_indices, self.next_id
        )

    def with_links(self, links: np.ndarray, count: int = 0) -> "ArrayOverlayGraph":
        """This twin after a batch of new links, with ``count`` fresh rows.

        ``links`` lists the links as row pairs ``u0, v0, u1, v1, ...`` in
        creation order; rows ``n .. n + count - 1`` are fresh, with ids
        ``next_id ..``, and links may name them.  Each row keeps its old
        neighbours first and gains its new ones after them in creation
        order, so the result equals adding ``count`` nodes and then each
        link in turn.  The old segments move as one block copy; the new
        half-edges, stably sorted by row, land at the ends of their rows'
        old segments.
        """
        rows = np.asarray(links, dtype=np.int64)
        n = self.n + count
        # Half-edge 2k is "u_k gains v_k", 2k + 1 is "v_k gains u_k".
        cols = rows.reshape(-1, 2)[:, ::-1].ravel()
        order = np.argsort(rows, kind="stable")
        degrees = np.bincount(rows, minlength=n)
        degrees[: self.n] += np.diff(self.indptr)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # A fresh row's old segment is empty, at the tail.
        ends = self.indptr[np.minimum(rows[order], self.n - 1) + 1]
        indices = np.insert(self.indices, ends, cols[order])
        nodes = np.concatenate(
            [self.nodes, np.arange(self.next_id, self.next_id + count, dtype=np.int64)]
        )
        return ArrayOverlayGraph._narrowed(nodes, indptr, indices, self.next_id + count)

    def iter_rows(self) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(node id, neighbour ids)`` per row, in insertion order.

        Rows are decoded in bounded blocks, so a full pass never holds
        more than one block's temporaries.  Every yielded id is the same
        int object as that node's entry in one shared id list: a
        snapshot built from the rows costs one int object per node, not
        one per half-edge.
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
        """The overlay as pure data: ``{"nodes", "adj", "next_id"}``, node
        and per-node neighbour lists in row order.

        :meth:`OverlayGraph.snapshot
        <repro.overlay.graph.OverlayGraph.snapshot>` returns it, and
        :meth:`OverlayGraph.restore
        <repro.overlay.graph.OverlayGraph.restore>` encodes it back.
        """
        return {
            "nodes": self.nodes.tolist(),
            "adj": [nbrs for _, nbrs in self.iter_rows()],
            "next_id": self.next_id,
        }

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
        """Alias of :attr:`n`, mirroring ``OverlayGraph.size``."""
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
        gathers stay in the twin's own dtypes.  When every position has a
        neighbour (the common case), the draws index the rows directly,
        with no mask and no ``-1``-filled output.
        """
        positions = np.asarray(positions)
        starts = self.indptr[positions]
        degs = self.indptr[positions + 1] - starts
        if degs.size and degs.min() > 0:
            offsets = rng.random(degs.shape)
            offsets *= degs
            picks = offsets.astype(starts.dtype)
            picks += starts
            return self.indices[picks]
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
        # The links, in two passes over row blocks so the temporaries
        # scale with one block.  The first checks for self-loops and keys
        # each upward half-edge (r, c), r < c, as its mirror c*n + r;
        # those keys are sorted once.  The second sorts each block's keys
        # r*n + c, where a repeated entry shows as two equal keys (it lies
        # inside one row, so inside one block), and requires the block's
        # downward keys to equal the upward keys in its range
        # [lo*n, hi*n).  The verdict is the first of self-loop, repeated
        # entry and asymmetric link that the rows hold anywhere.  A
        # symmetric twin has exactly half/2 upward half-edges; once a
        # block would overrun that, they are only counted.
        half = indices.shape[0]
        upward = np.empty(half // 2, dtype=np.int64)
        ups = 0

        def block_rows(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
            rows = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo : hi + 1]))
            return rows, indices[indptr[lo] : indptr[hi]]

        for lo in range(0, n, _SCAN_BLOCK):
            rows, cols = block_rows(lo, min(lo + _SCAN_BLOCK, n))
            if np.any(rows == cols):
                raise GraphError("self-loop in the neighbour rows")
            up = rows < cols
            keys = cols[up] * np.int64(n)
            keys += rows[up]
            if ups + keys.size <= upward.size:
                upward[ups : ups + keys.size] = keys
            ups += keys.size
        symmetric = 2 * ups == half
        if symmetric:
            upward.sort()
        for lo in range(0, n, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, n)
            rows, cols = block_rows(lo, hi)
            keys = rows * n
            keys += cols
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise GraphError("repeated neighbour entry in a row")
            if symmetric:
                # Sorting keeps each key inside its row's segment, and
                # r*n + c is downward iff it is below r*(n + 1).
                rows *= n + 1
                down = keys[keys < rows]
                a, b = upward.searchsorted([lo * n, hi * n])
                symmetric = np.array_equal(down, upward[a:b])
        if not symmetric:
            raise GraphError("asymmetric link in the neighbour rows")
