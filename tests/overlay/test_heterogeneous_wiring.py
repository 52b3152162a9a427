"""The slot-table wiring of :func:`heterogeneous_random` against a reference.

The reference wires the same §IV-A loop over per-node Python lists, as
:func:`heterogeneous_random` once did, and is kept here as the oracle: the
same draws in the same order, so both must produce the same CSR arrays and
leave the generator in the same state.
"""

from __future__ import annotations

import itertools
import tracemalloc
from typing import List

import numpy as np
import pytest

from repro.overlay import builders
from repro.overlay.builders import _DRAW_BLOCK, heterogeneous_random
from repro.overlay.graph import GraphError


def _list_heterogeneous(n, max_degree, min_degree, gen, max_attempts_factor):
    """``(nodes, indptr, indices)`` of the list-based build (the oracle)."""
    if n > 1 and max_degree >= n:
        max_degree = n - 1
        min_degree = min(min_degree, max_degree)
    rows: List[List[int]] = [[] for _ in range(n)]
    if n > 1:
        _list_wiring(rows, gen, max_degree, min_degree, max_attempts_factor)
    degrees = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
    )
    return np.arange(n, dtype=np.int64), indptr, indices


def _list_wiring(rows, gen, max_degree, min_degree, max_attempts_factor):
    n = len(rows)
    targets = gen.integers(min_degree, max_degree + 1, size=n).tolist()
    block: List[int] = []
    used = 0
    mark = None
    owner = [-1] * n
    for u, (row, want) in enumerate(zip(rows, targets)):
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
            row.append(v)
            other.append(u)
            owner[v] = u
    if mark is not None:
        gen.bit_generator.state = mark
        gen.integers(n, size=used)


def _assert_matches_oracle(n, max_degree, min_degree, factor, seed):
    gen = np.random.default_rng(seed)
    twin = heterogeneous_random(
        n, max_degree, min_degree, rng=gen, max_attempts_factor=factor
    ).to_array()
    ref_gen = np.random.default_rng(seed)
    nodes, indptr, indices = _list_heterogeneous(
        n, max_degree, min_degree, ref_gen, factor
    )
    for got, want in ((twin.nodes, nodes), (twin.indptr, indptr), (twin.indices, indices)):
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)
    assert twin.next_id == n
    assert gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize("seed", [7, 20060619])
@pytest.mark.parametrize("factor", [1, 20])
@pytest.mark.parametrize("min_degree,max_degree", [(1, 10), (3, 10), (1, 1), (10, 10)])
@pytest.mark.parametrize("n", [1, 2, 3, 11, 500, 5000])
def test_slot_table_matches_list_wiring(n, min_degree, max_degree, factor, seed):
    _assert_matches_oracle(n, max_degree, min_degree, factor, seed)


@pytest.mark.parametrize("seed", [7, 20060619])
@pytest.mark.parametrize(
    "n,min_degree,max_degree", [(11, 1, 11), (11, 3, 50), (60, 1, 100), (60, 30, 60)]
)
def test_clamped_max_degree_matches_list_wiring(n, min_degree, max_degree, seed):
    # max_degree >= n is clamped to n - 1: the table is n x (n - 1) wide.
    _assert_matches_oracle(n, max_degree, min_degree, 20, seed)


@pytest.mark.parametrize("rows_per_block", [1, 7])
def test_compaction_block_size_does_not_change_the_csr(monkeypatch, rows_per_block):
    # The grid's sizes fit in one compaction block; small blocks put block
    # boundaries at every row and mid-graph.
    monkeypatch.setattr(builders, "_ROW_BLOCK", rows_per_block)
    _assert_matches_oracle(500, 10, 1, 20, 7)


def test_node_ids_must_fit_int32():
    with pytest.raises(GraphError, match="int32"):
        heterogeneous_random(2**31 + 1, rng=0)


def test_build_peak_is_bounded_by_the_twin():
    """The build holds no per-node containers and compacts the slot table
    in place: its traced peak stays within 2.0x the returned twin's arrays
    (a separate compacted copy needed ~2.5x, the list wiring ~3.4x)."""
    tracemalloc.start()
    try:
        graph = heterogeneous_random(50_000, rng=np.random.default_rng(11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    twin = graph.to_array()
    twin_bytes = twin.nodes.nbytes + twin.indptr.nbytes + twin.indices.nbytes
    assert peak <= 2.0 * twin_bytes, (peak, twin_bytes)
