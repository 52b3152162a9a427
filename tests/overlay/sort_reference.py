"""Whole-array reference versions of the twin's link check and departures.

These are ``ArrayOverlayGraph.check_invariants`` and
``ArrayOverlayGraph.without`` as they ran before both went by row block:
one sort over a key per half-edge for the link check, and full-size
masks over the half-edge array for departures.  The block tests hold the
blocked code to the same verdicts, messages, arrays and dtypes.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.graph import GraphError


def check_invariants(twin: ArrayOverlayGraph) -> None:
    """Raise :class:`GraphError` unless ``twin``'s arrays form a valid twin."""
    n = twin.n
    indptr, indices, nodes = twin.indptr, twin.indices, twin.nodes
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
    if twin.next_id < 0 or (n and twin.next_id <= nodes[-1]):
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


def without(twin: ArrayOverlayGraph, victims: np.ndarray) -> ArrayOverlayGraph:
    """``twin`` after the nodes ``victims`` (distinct ids) departed."""
    victims = np.asarray(victims, dtype=np.int64)
    gone = np.isin(twin.nodes, victims)
    keep = ~gone
    if int(np.count_nonzero(gone)) != victims.size:
        raise GraphError("departing nodes must be distinct nodes of the overlay")
    deg = np.diff(twin.indptr)
    victim_half = np.repeat(gone, deg)
    lost = np.bincount(twin.indices[victim_half], minlength=twin.n)
    indptr = np.zeros(twin.n - victims.size + 1, dtype=twin.indptr.dtype)
    np.cumsum((deg - lost)[keep], dtype=indptr.dtype, out=indptr[1:])
    live_half = keep[twin.indices]
    live_half[victim_half] = False
    position = np.cumsum(keep, dtype=twin.indices.dtype)
    position -= 1
    indices = position[twin.indices[live_half]]
    if int(indptr[-1]) != indices.size:
        raise GraphError("twin rows are not symmetric")
    return ArrayOverlayGraph._narrowed(twin.nodes[keep], indptr, indices, twin.next_id)
