"""Property-based tests: the array twin under arbitrary operation sequences.

Hypothesis drives random graph constructions and churn-like mutation
sequences on an :class:`OverlayGraph` and, op for op, on the dict-based
:class:`dict_reference.DictGraph`, then asserts the two hold the same
behavioural state: node order, per-node neighbour order, degree arrays,
``next_id``, the CSR arrays in the same dtypes and the content hash of
the ``snapshot()`` payload.  Departures run through
:class:`MembershipPolicy` (``leave``), which applies them to the twin in
one splice.  Batch joins and repair rounds, which splice into the twin,
are checked against the dict-based loops of :mod:`dict_reference`.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dict_reference
from dict_reference import DictGraph
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.graph import OverlayGraph
from repro.overlay.membership import MembershipPolicy
from repro.overlay.repair import DegreeRepair, FullRepair
from repro.sim.messages import MessageKind
from repro.sim.rng import generator_state

# Same op-universe as test_graph_properties plus policy departures: a
# small node-id pool keeps collisions (dup edges, missing nodes) frequent.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["add_node", "remove_node", "add_edge", "join", "leave"]),
        st.integers(0, 14),
        st.integers(0, 14),
    ),
    max_size=60,
)
# Departures only: the sequences a batch of ``without`` splices applies.
_leaves = st.lists(
    st.tuples(st.just("leave"), st.integers(0, 14), st.integers(0, 14)), max_size=8
)
# The churn mutations that swap in a new twin: policy joins and leaves
# and the two repair rounds.
_policy_ops = st.lists(
    st.tuples(
        st.sampled_from(["policy_join", "leave", "degree_repair", "full_repair"]),
        st.integers(0, 14),
    ),
    max_size=10,
)


def _apply(g, ops, offset: int = 0, seed: int = 0):
    """Apply ``ops`` to an :class:`OverlayGraph` or a :class:`DictGraph`.

    ``leave`` departs ``min(a, size)`` nodes drawn by a generator seeded
    ``seed``: through :class:`MembershipPolicy` on an overlay, by the
    same draw and one dict removal per victim on the reference.  Returns
    that generator and the victims of each leave.
    """
    gen = np.random.default_rng(seed)
    policy = MembershipPolicy(g, rng=gen) if isinstance(g, OverlayGraph) else None
    victims = []
    for kind, a, b in ops:
        if kind == "leave":
            count = min(a, g.size)
            if policy is not None:
                victims.append(policy.leave(count))
                continue
            drawn = gen.choice(g.node_array(), size=count, replace=False).tolist()
            for v in drawn:
                g.remove_node(v)
            victims.append(drawn)
            continue
        a, b = a + offset, b + offset
        if kind == "add_node":
            # Ids ascend: a slot below next_id takes the next fresh id.
            g.add_node(max(a, g.next_id))
        elif kind == "remove_node":
            if a in g:
                g.remove_node(a)
        elif kind == "add_edge":
            if a in g and b in g:
                g.try_add_edge(a, b)
        elif kind == "join":
            # Counter-allocated id, like a churn join.
            g.add_node()
    return gen, victims


def _both(ops, offset: int = 0):
    """An :class:`OverlayGraph` and its :class:`DictGraph` reference after ``ops``."""
    g, reference = OverlayGraph(), DictGraph()
    assert _apply(g, ops, offset)[1] == _apply(reference, ops, offset)[1]
    return g, reference


def _snapshot_hash(g_or_twin) -> str:
    payload = json.dumps(g_or_twin.snapshot(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _rule_dtype(arr: np.ndarray):
    """The dtype every twin array has: int32 when its values fit."""
    fits = not arr.size or (-(2**31) <= arr.min() and arr.max() < 2**31)
    return np.dtype(np.int32 if fits else np.int64)


def _assert_narrow(twin: ArrayOverlayGraph) -> None:
    for arr in (twin.nodes, twin.indptr, twin.indices):
        assert arr.dtype == _rule_dtype(arr)


def _assert_same_arrays(a: ArrayOverlayGraph, b: ArrayOverlayGraph) -> None:
    """Equal arrays in equal dtypes, each following the int32 rule."""
    for name in ("nodes", "indptr", "indices"):
        arr = getattr(a, name)
        assert arr.dtype == getattr(b, name).dtype == _rule_dtype(arr)
        np.testing.assert_array_equal(arr, getattr(b, name))
    assert a.next_id == b.next_id


@given(_ops, st.sampled_from([0, 2**31]))
@example([], 0)
@example([], 2**31)
@example([("add_node", 3, 0), ("join", 0, 0)], 2**31)
@settings(max_examples=120, deadline=None)
def test_round_trip_is_identity(ops, offset):
    g, reference = _both(ops, offset)
    twin = g.to_array()
    twin.check_invariants()
    _assert_same_arrays(twin, reference.to_array())
    back = OverlayGraph.restore(g.snapshot())
    _assert_same_arrays(back.to_array(), twin)
    assert list(back) == list(reference)
    assert back.next_id == reference.next_id
    for u in reference:
        assert list(back.neighbors(u)) == reference.neighbors(u)
    np.testing.assert_array_equal(back.degrees(), reference.degrees())
    # The hand-off form: the twin's own narrow arrays (int64 only for ids
    # >= 2**31), which unpack keeps, to the same graph.
    packed = twin.pack()
    wide = g.size and max(g) >= 2**31
    assert packed["nodes"].dtype == (np.int64 if wide else np.int32)
    unpacked = ArrayOverlayGraph.unpack(packed)
    _assert_narrow(unpacked)
    for name in ("nodes", "indptr", "indices"):
        assert getattr(unpacked, name).dtype == packed[name].dtype
    assert OverlayGraph.from_array(unpacked).snapshot() == reference.snapshot()


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_snapshot_hashes_match(ops):
    g, reference = _both(ops)
    assert _snapshot_hash(g) == _snapshot_hash(reference)
    assert _snapshot_hash(g.to_array()) == _snapshot_hash(reference)
    # Re-encoding the restored graph is a fixed point.
    assert _snapshot_hash(OverlayGraph.restore(g.snapshot())) == _snapshot_hash(reference)


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_degree_arrays_consistent(ops):
    g, reference = _both(ops)
    twin = g.to_array()
    np.testing.assert_array_equal(twin.degrees(), reference.degrees())
    np.testing.assert_array_equal(g.degrees(), reference.degrees())
    np.testing.assert_array_equal(twin.nodes, reference.node_array())
    # Twin indices decode to the raw ids the reference lists, in order.
    flat = [v for u in reference for v in reference.neighbors(u)]
    assert twin.nodes[twin.indices].tolist() == flat


@given(_ops, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_twin_cache_matches_fresh_encoding(ops, seed):
    g, reference = _both(ops)
    twin, fresh = g.to_array(), reference.to_array()
    _assert_same_arrays(twin, fresh)
    # And sampling from either view draws from the same law-bearing state.
    if g.size:
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        pos = np.arange(twin.n, dtype=np.int64)
        np.testing.assert_array_equal(
            twin.sample_neighbors(pos, rng_a), fresh.sample_neighbors(pos, rng_b)
        )


@given(_ops, st.one_of(_ops, _leaves), st.sampled_from([0, 2**31]), st.integers(0, 2**32 - 1))
@example([("join", 0, 0)] * 4 + [("add_edge", 0, 1), ("add_edge", 1, 2)], [("leave", 14, 0)], 0, 1)
@example([("add_node", 3, 0), ("add_node", 5, 0), ("add_edge", 3, 5)], [("leave", 1, 0)], 2**31, 7)
@example([], [("leave", 0, 0)], 0, 0)
@settings(max_examples=120, deadline=None)
def test_twin_backed_graph_behaves_like_dict_graph(setup, ops, offset, seed):
    """A graph backed by a twin (``from_array``) and the dict reference
    built from the same state's snapshot end every op sequence
    identically: same victims, arrays, counters and generator end state,
    with sparse ids (``offset`` 2**31) as with counter-dense ones."""
    base = OverlayGraph()
    _apply(base, setup, offset)
    twin_backed = OverlayGraph.from_array(base.to_array())
    reference = DictGraph.from_snapshot(base.snapshot())
    gen_t, victims_t = _apply(twin_backed, ops, offset, seed)
    gen_d, victims_d = _apply(reference, ops, offset, seed)
    assert victims_t == victims_d
    assert generator_state(gen_t) == generator_state(gen_d)
    _assert_same_arrays(twin_backed.to_array(), reference.to_array())
    assert (twin_backed.size, twin_backed.num_edges, twin_backed.next_id) == (
        reference.size,
        reference.num_edges,
        reference.next_id,
    )
    twin_backed.check_invariants()
    assert twin_backed.snapshot() == reference.snapshot()
    assert _snapshot_hash(twin_backed.to_array()) == _snapshot_hash(reference)


# Degree policy of the policy-op test: a low cap saturates small graphs.
_MAX_DEGREE = 4
_REPAIR = {"min_degree": 2, "target_degree": 3, "max_links_per_round": 4}
_FULL_TARGET = 5


def _start(kind: str, setup, offset: int) -> OverlayGraph:
    """A starting graph: backed by another graph's twin, restored from a
    snapshot, empty, or saturated (a clique whose nodes all sit at
    ``_MAX_DEGREE``)."""
    if kind == "empty":
        return OverlayGraph()
    if kind == "saturated":
        ids = [offset + i for i in range(_MAX_DEGREE + 1)]
        return OverlayGraph(nodes=ids, edges=itertools.combinations(ids, 2))
    base = OverlayGraph()
    _apply(base, setup, offset)
    if kind == "twin":
        return OverlayGraph.from_array(base.to_array())
    return OverlayGraph.restore(base.snapshot())


def _policy_run(g: OverlayGraph, ops, seed: int):
    """The overlay code's run: the log of every op, then the generators
    and (links formed, metered messages) of both repair policies."""
    policy = MembershipPolicy(g, max_degree=_MAX_DEGREE, rng=seed)
    degree = DegreeRepair(g, rng=seed + 1, **_REPAIR)
    full = FullRepair(g, target_degree=_FULL_TARGET, rng=seed + 2)
    log = []
    for kind, a in ops:
        if kind == "policy_join":
            report = policy.join(a)
            log.append((report.node_ids, report.links_created))
        elif kind == "leave":
            log.append(policy.leave(min(a, g.size)))
        elif kind == "degree_repair":
            log.append(degree.repair_round(0))
        else:
            log.append(full.repair_round(0))
    repairs = [(p.links_formed, p.meter.count(MessageKind.CONTROL)) for p in (degree, full)]
    return log, [policy.rng, degree.rng, full.rng], repairs


def _reference_run(g: DictGraph, ops, seed: int):
    """:func:`_policy_run` through the dict-based reference loops."""
    gens = [np.random.default_rng(seed + k) for k in range(3)]
    log = []
    formed = [0, 0]
    for kind, a in ops:
        if kind == "policy_join":
            log.append(dict_reference.join(g, a, gens[0], max_degree=_MAX_DEGREE))
        elif kind == "leave":
            victims = gens[0].choice(g.node_array(), size=min(a, g.size), replace=False)
            for v in victims.tolist():
                g.remove_node(v)
            log.append(victims.tolist())
        elif kind == "degree_repair":
            log.append(dict_reference.degree_repair_round(g, gens[1], **_REPAIR))
            formed[0] += log[-1]
        else:
            log.append(dict_reference.full_repair_round(g, gens[2], _FULL_TARGET))
            formed[1] += log[-1]
    return log, gens, [(f, f) for f in formed]


@given(
    st.sampled_from(["twin", "restored", "empty", "saturated"]),
    _ops,
    _policy_ops,
    st.sampled_from([0, 2**31]),
    st.integers(0, 2**32 - 4),
)
@example("empty", [], [("policy_join", 5), ("full_repair", 0)], 0, 3)
@example("saturated", [], [("policy_join", 3), ("degree_repair", 0)], 2**31, 1)
@example("saturated", [], [("full_repair", 0), ("policy_join", 2)], 0, 5)
@example(
    "twin",
    [("join", 0, 0)] * 6 + [("add_edge", 0, 1)],
    [("leave", 2), ("degree_repair", 0), ("policy_join", 4), ("full_repair", 0)],
    2**31,
    9,
)
@settings(max_examples=150, deadline=None)
def test_policy_ops_match_the_dict_reference(start, setup, ops, offset, seed):
    """Batch joins, leaves and repair rounds on the twin end every op
    sequence as the dict-based loops do: same join reports, victims and
    links formed, same arrays in the same dtypes, ``next_id`` and
    generator end states."""
    g = _start(start, setup, offset)
    reference = DictGraph.from_snapshot(g.snapshot())
    log, gens, repairs = _policy_run(g, ops, seed)
    ref_log, ref_gens, ref_repairs = _reference_run(reference, ops, seed)
    assert log == ref_log
    assert repairs == ref_repairs
    for gen, ref_gen in zip(gens, ref_gens):
        assert generator_state(gen) == generator_state(ref_gen)
    a = g.to_array()
    _assert_same_arrays(a, reference.to_array())
    assert (g.size, g.num_edges, g.next_id) == (
        reference.size,
        reference.num_edges,
        reference.next_id,
    )
    a.check_invariants()
