"""Sample&Collide and the inverted birthday against their per-sample loops.

:mod:`sc_reference` keeps the timer walk, the ``dict``-backend
Sample&Collide estimate and the inverted-birthday estimate as they ran
sample by sample.  ``backend="dict"`` and ``InvertedBirthdayEstimator``
must report the same value, messages and meta as those loops and leave
the generator in the same state.  The cases are six overlays at two
seeds and three ``(l, T)`` pairs, plus batch hints that make top-up
batches run, a fixed and a departed initiator, walks cut at
``max_hops`` and an isolated initiator.  The ``array`` lineage, whose
first batch is 1.15 rather than 0.6 of the prediction, is pinned on the
same cases by digests of the same record.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

import sc_reference
from repro.core.base import EstimatorError
from repro.core.sample_collide import InvertedBirthdayEstimator, SampleCollideEstimator
from repro.core.sampling import UniformWalkSampler
from repro.overlay.builders import (
    heterogeneous_random,
    homogeneous_random,
    ring_lattice,
    scale_free,
)
from repro.overlay.graph import OverlayGraph
from repro.overlay.membership import MembershipPolicy
from repro.sim.rng import generator_state

SEEDS = [1, 4242]
EDGE_SEED = 7
PARAMS = [(200, 10.0), (50, 3.0), (10, 10.0)]


def _halved():
    graph = heterogeneous_random(5_000, rng=55)
    MembershipPolicy(graph, rng=56).leave(2_500)
    return graph


_BUILDS = {
    "het2k": lambda: heterogeneous_random(2_000, rng=42),
    "het20k": lambda: heterogeneous_random(20_000, rng=20),
    "sf3k": lambda: scale_free(3_000, m=3, rng=11),
    "ring500": lambda: ring_lattice(500, k=2),
    "hom5k": lambda: homogeneous_random(5_000, rng=5),
    "het5k_halved": _halved,
    # Node 0 has no link; the walks on 1..3 can only bounce.
    "isolated": lambda: OverlayGraph(nodes=range(4), edges=[(1, 2), (2, 3)]),
}


@functools.lru_cache(maxsize=None)
def _overlay(name: str) -> OverlayGraph:
    return _BUILDS[name]()


def _departed(graph: OverlayGraph) -> int:
    """An id below ``next_id`` that is no longer in ``graph``."""
    alive = set(graph.node_array().tolist())
    return next(u for u in range(graph.size * 2) if u not in alive)


#: Extra cases: overlay and estimator parameters (``initiator`` as a row).
CASES = {
    "hint_1": ("het2k", {"l": 200, "timer": 10.0, "batch_hint": 1}),
    "hint_10n": ("het2k", {"l": 50, "timer": 10.0, "batch_hint": 20_000}),
    "fixed": ("het5k_halved", {"l": 50, "timer": 10.0, "row": 1_234}),
    "isolated": ("isolated", {"l": 10, "timer": 10.0, "row": 0}),
    # T so long that every walk stops at the 10_000-hop valve.
    "truncated": ("isolated", {"l": 1, "timer": 1e9, "row": 2}),
}

#: sha256 prefixes of the ``array``-lineage records, written before the
#: two lineages shared one sweep.
DIGESTS = {
    "het2k-l200-T10-s1": "204a83147991c56a",
    "het2k-l200-T10-s4242": "7a2700810a69e4f7",
    "het2k-l50-T3-s1": "4e8e0dd8b4a4e4f9",
    "het2k-l50-T3-s4242": "422839eed428603e",
    "het2k-l10-T10-s1": "d527a62aa0571423",
    "het2k-l10-T10-s4242": "16c90983f821ad86",
    "het20k-l200-T10-s1": "82542556c19eeae0",
    "het20k-l200-T10-s4242": "10bb9b24034120f6",
    "het20k-l50-T3-s1": "f3671f5127937d7d",
    "het20k-l50-T3-s4242": "24d99eaa9d15394f",
    "het20k-l10-T10-s1": "86b40063f7f82b9c",
    "het20k-l10-T10-s4242": "504efa1569ca16cd",
    "sf3k-l200-T10-s1": "dbafff136cbdb8be",
    "sf3k-l200-T10-s4242": "d9531615a7dbe1ff",
    "sf3k-l50-T3-s1": "7d598ae2c3bf039b",
    "sf3k-l50-T3-s4242": "ac969b50b89fd87c",
    "sf3k-l10-T10-s1": "286a2d60da96fbd0",
    "sf3k-l10-T10-s4242": "4af24fc1e15b3698",
    "ring500-l200-T10-s1": "873d1778df95aa44",
    "ring500-l200-T10-s4242": "15500e08d9721e8f",
    "ring500-l50-T3-s1": "46a6152cce73dbd7",
    "ring500-l50-T3-s4242": "3ba15680eb4e18ca",
    "ring500-l10-T10-s1": "61f3e8c572165a7c",
    "ring500-l10-T10-s4242": "0bea6496c8cb77d6",
    "hom5k-l200-T10-s1": "1c17a3fc39b97d19",
    "hom5k-l200-T10-s4242": "f96783ef5850d85e",
    "hom5k-l50-T3-s1": "110c51de0ed21be0",
    "hom5k-l50-T3-s4242": "2067ae362fa83b12",
    "hom5k-l10-T10-s1": "da04e964c2f5d965",
    "hom5k-l10-T10-s4242": "42f135401ae209cd",
    "het5k_halved-l200-T10-s1": "1dffc045118da30f",
    "het5k_halved-l200-T10-s4242": "dc5ae6b42ba9953a",
    "het5k_halved-l50-T3-s1": "9930399bd0ad9c6d",
    "het5k_halved-l50-T3-s4242": "63735b694b29dd20",
    "het5k_halved-l10-T10-s1": "09dbe2bf79af271b",
    "het5k_halved-l10-T10-s4242": "af3db7d50a840f08",
    "fixed": "245aa93f0d886fd9",
    "hint_1": "74493786a320ff3e",
    "hint_10n": "223c2d1c26d2fa61",
    "isolated": "fe2d4c950a1ec853",
    "truncated": "9ef61232cd5a708f",
}


def _case(name):
    overlay, params = CASES[name]
    graph = _overlay(overlay)
    params = dict(params)
    row = params.pop("row", None)
    if row is not None:
        params["initiator"] = int(graph.node_array()[row])
    return graph, params


def _record(estimate, rng) -> str:
    return json.dumps(
        [estimate.value, estimate.messages, estimate.meta, generator_state(rng)],
        sort_keys=True,
    )


def _digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def _sc(graph, backend, seed, **params):
    rng = np.random.default_rng(seed)
    estimate = SampleCollideEstimator(graph, rng=rng, backend=backend, **params).estimate()
    return estimate, rng


def _assert_dict_matches_reference(graph, seed, **params):
    estimate, rng = _sc(graph, "dict", seed, **params)
    ref_rng = np.random.default_rng(seed)
    want = sc_reference.sample_collide(graph, rng=ref_rng, **params)
    assert (estimate.value, estimate.messages, estimate.meta) == want
    assert generator_state(rng) == generator_state(ref_rng)
    return estimate


OVERLAYS = [name for name in _BUILDS if name != "isolated"]
GRID = [
    (name, l, timer, seed) for name in OVERLAYS for l, timer in PARAMS for seed in SEEDS
]


def _grid_id(name, l, timer, seed):
    return f"{name}-l{l}-T{timer:g}-s{seed}"


@pytest.mark.parametrize("name,l,timer,seed", GRID)
def test_dict_backend_matches_per_sample_loop(name, l, timer, seed):
    _assert_dict_matches_reference(_overlay(name), seed, l=l, timer=timer)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dict_backend_matches_per_sample_loop_on_edge_cases(case):
    graph, params = _case(case)
    estimate = _assert_dict_matches_reference(graph, EDGE_SEED, **params)
    if case == "truncated":
        assert estimate.meta["walk_hops"] == 10_000 * estimate.meta["draws"]


@pytest.mark.parametrize("name,l,timer,seed", GRID)
def test_array_lineage_is_pinned(name, l, timer, seed):
    estimate, rng = _sc(_overlay(name), "array", seed, l=l, timer=timer)
    assert _digest(_record(estimate, rng)) == DIGESTS[_grid_id(name, l, timer, seed)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_array_lineage_is_pinned_on_edge_cases(case):
    graph, params = _case(case)
    estimate, rng = _sc(graph, "array", EDGE_SEED, **params)
    assert _digest(_record(estimate, rng)) == DIGESTS[case]


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_departed_initiator_draws_nothing(backend):
    graph = _overlay("het5k_halved")
    gone = _departed(graph)
    rng = np.random.default_rng(3)
    before = generator_state(rng)
    estimator = SampleCollideEstimator(graph, l=10, initiator=gone, rng=rng, backend=backend)
    with pytest.raises(EstimatorError, match="departed"):
        estimator.estimate()
    with pytest.raises(EstimatorError, match="departed"):
        InvertedBirthdayEstimator(graph, initiator=gone, rng=rng).estimate()
    assert generator_state(rng) == before


@pytest.mark.parametrize(
    "name,row", [("het2k", None), ("het5k_halved", None), ("isolated", 0), ("isolated", 2)]
)
@pytest.mark.parametrize("seed", SEEDS)
def test_inverted_birthday_matches_set_loop(name, row, seed):
    graph = _overlay(name)
    initiator = None if row is None else int(graph.node_array()[row])
    rng = np.random.default_rng(seed)
    estimate = InvertedBirthdayEstimator(graph, initiator=initiator, rng=rng).estimate()
    ref_rng = np.random.default_rng(seed)
    want = sc_reference.inverted_birthday(graph, 10.0, ref_rng, initiator=initiator)
    assert (estimate.value, estimate.messages, estimate.meta) == want
    assert generator_state(rng) == generator_state(ref_rng)


def test_inverted_birthday_matches_set_loop_on_truncated_walks():
    graph = _overlay("isolated")
    rng = np.random.default_rng(9)
    estimate = InvertedBirthdayEstimator(graph, timer=1e9, initiator=1, rng=rng).estimate()
    ref_rng = np.random.default_rng(9)
    want = sc_reference.inverted_birthday(graph, 1e9, ref_rng, initiator=1)
    assert (estimate.value, estimate.messages, estimate.meta) == want
    assert estimate.meta["walk_hops"] == 10_000 * estimate.meta["draws"]
    assert generator_state(rng) == generator_state(ref_rng)


@pytest.mark.parametrize("name,row", [("het5k_halved", 1_234), ("isolated", 0), ("sf3k", 7)])
@pytest.mark.parametrize("timer,max_hops", [(10.0, 10_000), (10.0, 3), (1e9, 40)])
def test_sampler_matches_reference_walk(name, row, timer, max_hops):
    graph = _overlay(name)
    view = graph.to_array()
    initiator = int(view.nodes[row])
    rng = np.random.default_rng(5)
    sampler = UniformWalkSampler(graph, timer=timer, rng=rng, max_hops=max_hops)
    batch = sampler.sample_batch(initiator, 700)
    ref_rng = np.random.default_rng(5)
    pos, hops = sc_reference.walk(view, row, 700, timer, ref_rng, max_hops)
    np.testing.assert_array_equal(batch.samples, view.nodes[pos])
    np.testing.assert_array_equal(batch.hops, hops)
    assert batch.samples.dtype == view.nodes.dtype and batch.hops.dtype == np.int64
    assert generator_state(rng) == generator_state(ref_rng)
