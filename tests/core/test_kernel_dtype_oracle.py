"""The ``int32`` twin and its kernels against the ``int64`` code they replaced.

The references below are the gossip spread, frontier BFS (twice: the
frontier gather and the former per-frontier-node loop), timer walkers,
neighbour sampling and ``without()`` as they were when every twin array
was ``int64``, kept here as the oracle.  The kernels now gather in the
graph's own dtype and the spread keeps ``int32`` state, so on ``int32``
twins, ``int64`` twins of the same graph and twins whose ids reach
``2**31`` (``nodes`` stays ``int64``) they must return the same values
and leave the generator in the same state as the oracle.  Producers must
apply the ``int32``-when-it-fits rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hops_sampling import GossipSampleEstimator, HopsSamplingEstimator
from repro.core.kernels import (
    advance_walkers,
    bfs_frontier_distances,
    gossip_spread_kernel,
)
from repro.core.sample_collide import SampleCollideEstimator
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.builders import (
    erdos_renyi,
    heterogeneous_random,
    homogeneous_random,
    ring_lattice,
    scale_free,
)
from repro.overlay.graph import OverlayGraph
from repro.overlay.membership import MembershipPolicy
from repro.sim.rng import generator_state

BIG = 2**31


# ----------------------------------------------------------------------
# the int64 reference code
# ----------------------------------------------------------------------


def _ref_sample_neighbors(view, positions, rng):
    positions = np.asarray(positions, dtype=np.int64)
    starts = view.indptr[positions]
    degs = view.indptr[positions + 1] - starts
    out = np.full(positions.shape, -1, dtype=np.int64)
    nz = degs > 0
    if np.any(nz):
        offsets = (rng.random(int(nz.sum())) * degs[nz]).astype(np.int64)
        out[nz] = view.indices[starts[nz] + offsets]
    return out


def _ref_spread(view, init_pos, gossip_to, gossip_for, gossip_until, rng):
    n = view.n
    hops = np.full(n, -1, dtype=np.int64)
    hops[init_pos] = 0
    active = np.array([init_pos], dtype=np.int64)
    rounds_left = np.zeros(n, dtype=np.int64)
    rounds_left[init_pos] = gossip_for
    regossip_left = np.full(n, gossip_until, dtype=np.int64)
    spread_messages = 0
    rounds = 0
    big = np.iinfo(np.int64).max
    while active.size:
        rounds += 1
        senders = np.repeat(active, gossip_to)
        targets = _ref_sample_neighbors(view, senders, rng)
        ok = targets >= 0
        spread_messages += int(ok.sum())
        senders, targets = senders[ok], targets[ok]
        cand = hops[senders] + 1
        tmp = np.full(n, big, dtype=np.int64)
        np.minimum.at(tmp, targets, cand)
        hit = tmp < big
        newly = hit & (hops < 0)
        hops[newly] = tmp[newly]
        better = hit & (hops >= 0) & (tmp < hops)
        hops[better] = tmp[better]
        dup = hit & ~newly & (rounds_left <= 0) & (regossip_left > 0)
        regossip_left[dup] -= 1
        rounds_left[active] -= 1
        rounds_left[newly] = gossip_for
        rounds_left[dup] = np.maximum(rounds_left[dup], 1)
        active = np.nonzero(rounds_left > 0)[0]
    return hops, spread_messages, rounds


def _ref_bfs(view, source_pos):
    indptr, indices = view.indptr.astype(np.int64), view.indices.astype(np.int64)
    n = view.n
    dist = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return dist
    dist[source_pos] = 0
    frontier = np.array([source_pos], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        bases = np.repeat(starts, counts)
        ramp = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        flat = indices[bases + ramp]
        fresh = flat[dist[flat] < 0]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = d
        frontier = fresh
    return dist


def _ref_csr_bfs(view, source_pos):
    """The former per-frontier-node Python loop of the BFS."""
    n = view.n
    dist = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return dist
    dist[source_pos] = 0
    frontier = np.array([source_pos], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        counts = view.indptr[frontier + 1] - view.indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        flat = np.empty(total, dtype=np.int64)
        pos = 0
        for f, c in zip(frontier, counts):
            flat[pos : pos + c] = view.indices[view.indptr[f] : view.indptr[f] + c]
            pos += c
        fresh = flat[dist[flat] < 0]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = d
        frontier = fresh
    return dist


def _ref_walkers(view, init_pos, count, timer, rng, max_hops=10_000):
    indptr, indices = view.indptr.astype(np.int64), view.indices.astype(np.int64)
    final_pos = np.full(count, init_pos, dtype=np.int64)
    hops = np.zeros(count, dtype=np.int64)
    if count == 0:
        return final_pos, hops
    start0 = int(indptr[init_pos])
    deg0 = int(indptr[init_pos + 1]) - start0
    if deg0 == 0:
        return final_pos, hops
    with np.errstate(divide="ignore"):
        inv_deg = 1.0 / np.diff(indptr)
    first = (rng.random(count) * deg0).astype(np.int64)
    cur = indices[start0 + first]
    ids = np.arange(count, dtype=np.int64)
    budget = np.full(count, float(timer))
    hop_round = 1
    while True:
        budget -= rng.standard_exponential(ids.size) * inv_deg[cur]
        cont = budget > 0.0
        if hop_round >= max_hops:
            cont[:] = False
        stopped = ids[~cont]
        final_pos[stopped] = cur[~cont]
        hops[stopped] = hop_round
        ids = ids[cont]
        if not ids.size:
            break
        cur = cur[cont]
        starts = indptr[cur]
        deg = indptr[cur + 1] - starts
        offsets = (rng.random(ids.size) * deg).astype(np.int64)
        cur = indices[starts + offsets]
        budget = budget[cont]
        hop_round += 1
    return final_pos, hops


def _ref_without(twin, victims):
    """``(nodes, indptr, indices)`` of the former all-int64 ``without``."""
    nodes = twin.nodes.astype(np.int64)
    old_indptr, old_indices = twin.indptr.astype(np.int64), twin.indices.astype(np.int64)
    n = nodes.shape[0]
    victims = np.asarray(victims, dtype=np.int64)
    gone = np.isin(nodes, victims)
    keep = ~gone
    deg = np.diff(old_indptr)
    victim_half = np.repeat(gone, deg)
    lost = np.bincount(old_indices[victim_half], minlength=n)
    indptr = np.zeros(n - victims.size + 1, dtype=np.int64)
    np.cumsum((deg - lost)[keep], out=indptr[1:])
    live_half = keep[old_indices]
    live_half[victim_half] = False
    position = np.cumsum(keep)
    position -= 1
    return nodes[keep], indptr, position[old_indices[live_half]]


# ----------------------------------------------------------------------
# graphs: one state, several encodings
# ----------------------------------------------------------------------


def _rule_dtype(arr):
    fits = not arr.size or (-BIG <= arr.min() and arr.max() < BIG)
    return np.dtype(np.int32 if fits else np.int64)


def _assert_narrow(twin):
    for arr in (twin.nodes, twin.indptr, twin.indices):
        assert arr.dtype == _rule_dtype(arr)


def _wide(twin):
    """The same twin with every array ``int64``."""
    return ArrayOverlayGraph(
        twin.nodes.astype(np.int64),
        twin.indptr.astype(np.int64),
        twin.indices.astype(np.int64),
        twin.next_id,
    )


def _shifted(graph, offset):
    """``graph`` with every id moved up by ``offset`` (same row order)."""
    snap = graph.snapshot()
    return OverlayGraph.restore(
        {
            "nodes": [u + offset for u in snap["nodes"]],
            "adj": [[v + offset for v in row] for row in snap["adj"]],
            "next_id": snap["next_id"] + offset,
        }
    )


def _twins(kind):
    """Encodings of one overlay state: narrow, all-int64, and (for ids
    shifted past ``2**31``) the narrow twin whose ``nodes`` stay int64."""
    graph = heterogeneous_random(700, rng=5)
    if kind == "churned":
        # Departures leave isolated rows, so sampling meets degree 0.
        MembershipPolicy(graph, rng=3).leave(420)
    if kind == "big_ids":
        graph = _shifted(graph, BIG)
    twin = graph.to_array()
    _assert_narrow(twin)
    return [twin, _wide(twin)]


KINDS = ["fresh", "churned", "big_ids"]


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("gossip_to,gossip_for,gossip_until", [(2, 1, 1), (3, 2, 3)])
@pytest.mark.parametrize("seed", [1, 20060619])
def test_spread_matches_int64_reference(kind, gossip_to, gossip_for, gossip_until, seed):
    twins = _twins(kind)
    for init_pos in (0, twins[0].n // 2):
        ref_rng = np.random.default_rng(seed)
        want = _ref_spread(
            twins[1], init_pos, gossip_to, gossip_for, gossip_until, ref_rng
        )
        for twin in twins:
            rng = np.random.default_rng(seed)
            hops, messages, rounds = gossip_spread_kernel(
                twin, init_pos, gossip_to, gossip_for, gossip_until, rng
            )
            assert hops.dtype == np.int32
            np.testing.assert_array_equal(hops, want[0])
            assert (messages, rounds) == want[1:]
            assert generator_state(rng) == generator_state(ref_rng)


@pytest.mark.parametrize("kind", KINDS)
def test_bfs_matches_int64_reference(kind):
    twins = _twins(kind)
    for source in (0, 17, twins[0].n - 1):
        want = _ref_bfs(twins[1], source)
        np.testing.assert_array_equal(_ref_csr_bfs(twins[1], source), want)
        for twin in twins:
            np.testing.assert_array_equal(bfs_frontier_distances(twin, source), want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("timer,max_hops", [(10.0, 10_000), (1e9, 7)])
def test_walkers_match_int64_reference(kind, timer, max_hops):
    twins = _twins(kind)
    for init_pos in (0, 5):
        ref_rng = np.random.default_rng(init_pos + 31)
        want = _ref_walkers(twins[1], init_pos, 300, timer, ref_rng, max_hops)
        for twin in twins:
            rng = np.random.default_rng(init_pos + 31)
            pos, hops = advance_walkers(twin, init_pos, 300, timer, rng, max_hops)
            np.testing.assert_array_equal(pos, want[0])
            np.testing.assert_array_equal(hops, want[1])
            assert generator_state(rng) == generator_state(ref_rng)


@pytest.mark.parametrize("kind", KINDS)
def test_sample_neighbors_matches_int64_reference(kind):
    twins = _twins(kind)
    positions = np.arange(twins[0].n).repeat(2)
    ref_rng = np.random.default_rng(4)
    want = _ref_sample_neighbors(twins[1], positions, ref_rng)
    for twin in twins:
        for pos in (positions, positions.astype(np.int32)):
            rng = np.random.default_rng(4)
            got = twin.sample_neighbors(pos, rng)
            assert got.dtype == twin.indices.dtype
            np.testing.assert_array_equal(got, want)
            assert generator_state(rng) == generator_state(ref_rng)


@pytest.mark.parametrize("backend", ["array", "dict"])
@pytest.mark.parametrize("oracle", [False, True])
def test_estimates_equal_on_narrow_and_wide_twins(backend, oracle):
    twin = heterogeneous_random(600, rng=8).to_array()
    estimates = []
    for t in (twin, _wide(twin)):
        graph = OverlayGraph.from_array(t)
        rng = np.random.default_rng(12)
        hops = HopsSamplingEstimator(
            graph, rng=rng, backend=backend, oracle_distances=oracle
        )
        sc = SampleCollideEstimator(graph, l=5, rng=rng, backend=backend)
        gossip = GossipSampleEstimator(graph, reply_probability=0.2, rng=rng)
        estimates.append(
            [
                (e.value, e.messages, e.meta)
                for e in (hops.estimate(), sc.estimate(), gossip.estimate())
            ]
            + [generator_state(rng)]
        )
    assert estimates[0] == estimates[1]


# ----------------------------------------------------------------------
# producers follow the int32-when-it-fits rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
def test_without_matches_int64_reference(kind, share):
    twins = _twins(kind)
    gen = np.random.default_rng(6)
    victims = gen.choice(twins[0].nodes, size=int(share * twins[0].n), replace=False)
    want = _ref_without(twins[1], victims)
    for twin in twins:
        got = twin.without(victims)
        _assert_narrow(got)
        for arr, ref in zip((got.nodes, got.indptr, got.indices), want):
            np.testing.assert_array_equal(arr, ref)
        got.check_invariants()
    if kind == "big_ids" and share < 1.0:
        assert got.nodes.dtype == np.int64


@pytest.mark.parametrize(
    "build",
    [
        lambda: heterogeneous_random(900, rng=1),
        lambda: homogeneous_random(300, k=6, rng=2),
        lambda: scale_free(400, m=3, rng=3),
        lambda: erdos_renyi(300, avg_degree=6.0, rng=4),
        lambda: ring_lattice(200, k=3),
    ],
)
def test_builders_emit_int32_twins(build):
    twin = build().to_array()
    for arr in (twin.nodes, twin.indptr, twin.indices):
        assert arr.dtype == np.int32


def test_unpack_narrows_int64_payloads_and_keeps_big_ids_wide():
    twin = heterogeneous_random(300, rng=2).to_array()
    wide = _wide(twin).pack()
    assert {wide[k].dtype for k in ("nodes", "indptr", "indices")} == {np.dtype(np.int64)}
    back = ArrayOverlayGraph.unpack(wide)
    _assert_narrow(back)
    assert back.nodes.dtype == np.int32
    big = _shifted(twin, BIG).to_array()
    back = ArrayOverlayGraph.unpack(big.pack())
    assert (back.nodes.dtype, back.indptr.dtype, back.indices.dtype) == (
        np.int64,
        np.int32,
        np.int32,
    )
    np.testing.assert_array_equal(back.nodes, twin.nodes.astype(np.int64) + BIG)


def test_pack_hands_out_copies():
    twin = heterogeneous_random(50, rng=2).to_array()
    packed = twin.pack()
    packed["nodes"][0] = -1
    assert twin.nodes[0] == 0
    ArrayOverlayGraph.unpack(twin.pack())
