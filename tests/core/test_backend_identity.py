"""HopsSampling returns the same estimate on both graph backends.

Both backends run the spread kernel (and, for the §V oracle, the BFS
kernel) on the overlay's CSR twin and draw the same random numbers, so
the estimate's value, messages and meta, and the generator's end state,
are bit-identical.  Only Sample&Collide splits the RNG lineage between
its backends (docs/KERNELS.md, "The RNG-lineage caveat").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hops_sampling import HopsSamplingEstimator
from repro.overlay.builders import heterogeneous_random
from repro.overlay.membership import MembershipPolicy
from repro.sim.rng import generator_state

SEEDS = [1, 7, 4242, 20060619]


def _overlay(kind, seed):
    """A twin-backed overlay after a departure batch, or one whose joins
    built the dict (its twin is then re-encoded from the dict)."""
    graph = heterogeneous_random(800, rng=seed)
    policy = MembershipPolicy(graph, rng=seed + 1)
    policy.leave(120)
    if kind == "joined":
        policy.join(60)
    return graph


def _run(graph, backend, seed, **params):
    rng = np.random.default_rng(seed)
    estimator = HopsSamplingEstimator(graph, rng=rng, backend=backend, **params)
    estimates = [estimator.estimate() for _ in range(3)]
    return [(e.value, e.messages, e.meta) for e in estimates], generator_state(rng)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["departed", "joined"])
@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("fixed_initiator", [False, True])
def test_dict_and_array_estimates_are_bit_identical(seed, kind, oracle, fixed_initiator):
    graph = _overlay(kind, seed)
    params = {"oracle_distances": oracle}
    if fixed_initiator:
        params["initiator"] = int(graph.node_array()[graph.size // 3])
    want = _run(graph, "array", seed, **params)
    assert _run(graph, "dict", seed, **params) == want
    if fixed_initiator:
        assert {e[2]["initiator"] for e in want[0]} == {params["initiator"]}
