"""The Aggregation protocol against its dict-backed reference.

:mod:`agg_reference` keeps the protocol as it ran with an id→value dict
and a row cache of Python floats.  Both protocols share one overlay and
start from the same seed; a script of epochs, rounds, joins, departures
(the initiator's included), an emptied overlay and mid-epoch
snapshot/restore hand-offs drives them, and after every step they must
agree on contacts, metered messages, the generator's state,
``total_mass`` bit for bit, ``value_of`` at every alive node and at a
departed one, ``read``, ``read_all``, the best-informed fallback (the
largest value, then the largest id) and the ids and values a snapshot
lists.
"""

from __future__ import annotations

import numpy as np
import pytest

import agg_reference
from repro.core.aggregation import AggregationProtocol
from repro.core.base import EstimatorError
from repro.overlay.builders import heterogeneous_random, ring_lattice, scale_free
from repro.overlay.graph import OverlayGraph
from repro.overlay.membership import MembershipPolicy
from repro.sim.rng import generator_state

SEEDS = [1, 4242]

_BUILDS = {
    "het2k": lambda: heterogeneous_random(2_000, rng=42),
    "sf1k": lambda: scale_free(1_000, m=2, rng=11),
    "ring300": lambda: ring_lattice(300, k=2),
    # Two linked pairs and an isolated node: ties at every value.
    "pairs": lambda: OverlayGraph(nodes=range(5), edges=[(0, 1), (2, 3)]),
}

#: Steps: ("epoch", row or None), ("rounds", k), ("join", k), ("leave", k),
#: ("leave_initiator",), ("leave_all",), ("restore",).
SCRIPTS = {
    "static": [("epoch", None), ("rounds", 25)],
    "grow": [("epoch", None), ("rounds", 3), ("join", 40), ("rounds", 2),
             ("join", 1), ("rounds", 4)],
    "shrink": [("epoch", None), ("rounds", 3), ("leave", 3), ("rounds", 4),
               ("leave_initiator",), ("rounds", 3), ("leave", 2), ("rounds", 2)],
    "initiator_first": [("epoch", 0), ("leave_initiator",), ("rounds", 1),
                        ("join", 2), ("rounds", 2)],
    "emptied": [("epoch", None), ("rounds", 2), ("leave_all",), ("rounds", 2),
                ("join", 6), ("rounds", 3), ("epoch", None), ("rounds", 3)],
    "restarts": [("epoch", None), ("rounds", 5), ("epoch", 1), ("rounds", 5),
                 ("leave", 2), ("epoch", None), ("join", 3), ("rounds", 3)],
    "handoff": [("restore",), ("epoch", None), ("rounds", 4), ("leave", 2),
                ("restore",), ("rounds", 3), ("join", 5), ("restore",),
                ("restore",), ("rounds", 5), ("leave_initiator",), ("restore",),
                ("rounds", 2)],
}


def _outcome(call):
    """``call()``'s value, or the message of the EstimatorError it raised."""
    try:
        return "ok", call()
    except EstimatorError as exc:
        return "error", str(exc)


def _estimate(proto):
    est = proto.read()
    return est.value.hex(), est.messages, est.algorithm, est.meta


def _ids(values) -> bytes:
    return np.asarray(values, dtype=np.int64).tobytes()


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same(ref, proto, graph: OverlayGraph, departed: int) -> None:
    """Every observable of the two protocols agrees on ``graph``."""
    assert (proto.epoch, proto.rounds_in_epoch, proto.initiator) == (
        ref.epoch, ref.rounds_in_epoch, ref.initiator,
    )
    assert proto.meter.snapshot().counts == ref.meter.snapshot().counts
    assert generator_state(proto.rng) == generator_state(ref.rng)
    assert proto.total_mass().hex() == ref.total_mass().hex()
    for node in graph.nodes() + [departed]:
        got, want = _outcome(lambda: proto.value_of(node)), _outcome(lambda: ref.value_of(node))
        assert got == want, node
    assert _outcome(lambda: _estimate(proto)) == _outcome(lambda: _estimate(ref))
    assert _outcome(proto._best_informed) == _outcome(ref._best_informed)
    got, want = proto.read_all(), ref.read_all()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    snap, ref_snap = proto.snapshot(), ref.snapshot()
    assert _ids(snap["nodes"]) == _ids(ref_snap["nodes"])
    assert _floats(snap["values"]) == _floats(ref_snap["values"])
    for key in ("epoch", "rounds_in_epoch", "initiator", "rng"):
        assert snap[key] == ref_snap[key]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("script", sorted(SCRIPTS))
@pytest.mark.parametrize("overlay", sorted(_BUILDS))
def test_protocol_matches_dict_reference(overlay, script, seed):
    graph = _BUILDS[overlay]()
    churn = MembershipPolicy(graph, rng=seed + 1)
    ref = agg_reference.AggregationProtocol(graph, rng=seed)
    proto = AggregationProtocol(graph, rng=seed)
    departed = graph.next_id + 10**6  # never an id of this overlay
    for step, *args in SCRIPTS[script]:
        if step == "epoch":
            if not graph.size:
                continue
            row = args[0]
            initiator = None if row is None else graph.nodes()[row % graph.size]
            assert proto.start_epoch(initiator) == ref.start_epoch(initiator)
        elif step == "rounds":
            for _ in range(args[0]):
                assert proto.run_round() == ref.run_round()
        elif step == "join":
            churn.join(args[0])
        elif step == "leave":
            departed = (churn.leave(min(args[0], graph.size)) or [departed])[-1]
        elif step == "leave_initiator":
            if proto.initiator in graph:
                departed = proto.initiator
                graph.remove_node(departed)
        elif step == "leave_all":
            graph.remove_nodes(graph.nodes())
        else:  # a mid-epoch hand-off through each protocol's own payload
            proto = AggregationProtocol.restore(graph, proto.snapshot(), meter=proto.meter)
            ref = agg_reference.AggregationProtocol.restore(
                graph, ref.snapshot(), meter=ref.meter
            )
        if proto.epoch:
            assert_same(ref, proto, graph, departed)


def test_ties_go_to_the_largest_id():
    """Two linked nodes at 0.5 beside three at 0: the larger id of the two."""
    graph = OverlayGraph(nodes=range(5), edges=[(0, 1), (2, 3)])
    for protocol in (AggregationProtocol, agg_reference.AggregationProtocol):
        proto = protocol(graph, rng=3)
        proto.start_epoch(initiator=0)
        proto.run_round()
        assert proto.value_of(0) == proto.value_of(1) == 0.5
        assert proto._best_informed() == 1
    graph.remove_node(0)
    ref = agg_reference.AggregationProtocol(graph, rng=3)
    proto = AggregationProtocol(graph, rng=3)
    for p in (ref, proto):
        p.start_epoch(initiator=4)
    graph.remove_node(4)  # every alive value is 0: the largest alive id
    assert proto._best_informed() == ref._best_informed() == 3
