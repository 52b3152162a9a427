"""Distributional equivalence of the array-kernel backend with the reference.

The statistical half of the backend cross-validation gate
(``docs/KERNELS.md``): the batched kernels of :mod:`repro.core.kernels`
consume RNG output in a different order and quantity than the serial
reference, so their estimates are *not* bit-identical — they must instead
be exchangeable samples of the same estimator law.  Fixed-seed ensembles
are compared with the shared :mod:`statcheck` gates (two-sample KS +
bootstrap-CI overlap) under the tolerances recorded in
``baselines/kernel_tolerances.json``.

Also covered here: exact unit semantics of the kernels themselves
(pairwise collision counting vs a naive reference, walker edge cases) and
worker-count bit-identity of array-backend batches (the runtime
determinism contract extends to the new backend, since trial randomness
still derives from ``(hub_seed, index)`` alone).
"""

from __future__ import annotations

import collections
import json
import pathlib

import numpy as np
import pytest
import statcheck

from repro.churn.models import shrinking_trace
from repro.core.hops_sampling import HopsSamplingEstimator
from repro.core.kernels import (
    GRAPH_BACKENDS,
    advance_walkers,
    bfs_frontier_distances,
    collision_cutoff,
)
from repro.core.sample_collide import SampleCollideEstimator
from repro.core.sampling import UniformWalkSampler
from repro.overlay.graph import OverlayGraph
from repro.runtime import (
    EstimatorSpec,
    OverlaySpec,
    TrialSpec,
    run_trials,
    trace_to_payload,
)
from repro.runtime.api import RuntimeOptions
from repro.runtime.trials import BACKEND_KINDS, apply_graph_backend

TOLERANCES = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "baselines" / "kernel_tolerances.json")
    .read_text()
)
SEED_BASE = TOLERANCES["seed_base"]
ENSEMBLE = TOLERANCES["ensemble_size"]


def _ensemble(make_estimator, backend: str) -> np.ndarray:
    values = []
    for k in range(ENSEMBLE):
        est = make_estimator(np.random.default_rng(SEED_BASE + k), backend)
        values.append(float(est.estimate().value))
    return np.asarray(values)


class TestEstimatorDistributions:
    def test_sample_collide_backends_agree(self, small_het_graph):
        tol = TOLERANCES["sample_collide"]

        def make(rng, backend):
            return SampleCollideEstimator(
                small_het_graph,
                l=tol["l"],
                timer=tol["timer"],
                rng=rng,
                backend=backend,
            )

        statcheck.assert_distributions_close(
            _ensemble(make, "dict"),
            _ensemble(make, "array"),
            ks_alpha=tol["ks_alpha"],
            ci_level=tol["ci_level"],
            label="sample_collide dict vs array",
        )

    def test_hops_sampling_backends_agree(self, small_het_graph):
        tol = TOLERANCES["hops_sampling"]

        def make(rng, backend):
            return HopsSamplingEstimator(small_het_graph, rng=rng, backend=backend)

        statcheck.assert_distributions_close(
            _ensemble(make, "dict"),
            _ensemble(make, "array"),
            ks_alpha=tol["ks_alpha"],
            ci_level=tol["ci_level"],
            label="hops_sampling dict vs array",
        )

    def test_walker_samples_match_serial_sampler(self, small_het_graph):
        # Below the estimator: the raw sample law of the batched walkers
        # must match UniformWalkSampler draw-for-law (not draw-for-draw).
        view = small_het_graph.to_array()
        initiator = next(iter(small_het_graph))
        init_pos = view.position(initiator)
        serial = UniformWalkSampler(
            small_het_graph, timer=5.0, rng=np.random.default_rng(SEED_BASE)
        )
        dict_samples = serial.sample_batch(initiator, 1500, meter=None).samples
        pos, _hops = advance_walkers(
            view, init_pos, 1500, 5.0, np.random.default_rng(SEED_BASE + 1)
        )
        array_samples = view.nodes[pos]
        statcheck.assert_distributions_close(
            np.asarray(dict_samples, dtype=float),
            array_samples.astype(float),
            ks_alpha=0.005,
            ci_level=0.99,
            label="walker sample law",
        )


class TestCollisionCutoff:
    def _naive(self, samples, l):
        seen = {}
        collisions = 0
        for i, s in enumerate(samples):
            copies = seen.get(s, 0)
            seen[s] = copies + 1
            collisions += copies
            if collisions >= l:
                return i + 1, collisions, len(seen)
        return len(samples), collisions, len(seen)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.integers(0, 40, size=300)
        for l in (1, 5, 25, 10_000):
            naive = self._naive(samples.tolist(), l)
            assert collision_cutoff(samples, l) == naive

    def test_empty(self):
        assert collision_cutoff(np.zeros(0, dtype=np.int64), 5) == (0, 0, 0)

    def test_no_collisions(self):
        out = collision_cutoff(np.arange(10), 3)
        assert out == (10, 0, 10)

    def test_multiplicity_counting(self):
        # Four equal draws = 0+1+2+3 = 6 pairwise collisions.
        samples = np.array([7, 7, 7, 7])
        assert collision_cutoff(samples, 6) == (4, 6, 1)
        assert collision_cutoff(samples, 2) == (3, 3, 1)


class TestWalkerSemantics:
    def test_isolated_initiator_returns_self(self):
        g = OverlayGraph(nodes=[0, 1, 2], edges=[(1, 2)])
        view = g.to_array()
        pos, hops = advance_walkers(
            view, view.position(0), 8, 10.0, np.random.default_rng(0)
        )
        assert (pos == view.position(0)).all()
        assert (hops == 0).all()

    def test_dead_end_absorbs_walks(self):
        # 0-1 only: every walk from 0 hops to 1... and back, forever
        # budget allows; a *pendant* on a path can terminate anywhere.
        g = OverlayGraph(nodes=[0, 1], edges=[(0, 1)])
        view = g.to_array()
        pos, hops = advance_walkers(
            view, view.position(0), 16, 3.0, np.random.default_rng(1)
        )
        assert set(pos.tolist()) <= {view.position(0), view.position(1)}
        assert (hops >= 1).all()

    def test_max_hops_stops_in_place(self, tiny_graph):
        view = tiny_graph.to_array()
        _pos, hops = advance_walkers(
            view, 0, 32, 1e9, np.random.default_rng(2), max_hops=5
        )
        assert (hops <= 5).all()
        assert (hops == 5).any()

    def test_zero_walkers(self, tiny_graph):
        view = tiny_graph.to_array()
        pos, hops = advance_walkers(view, 0, 0, 10.0, np.random.default_rng(3))
        assert pos.size == 0 and hops.size == 0

    def test_bfs_matches_csr_reference(self, small_het_graph):
        # The frontier kernel on the twin against a plain breadth-first
        # search over the adjacency dict, node id by node id.
        view = small_het_graph.to_array()
        src_id = int(view.nodes[0])
        ours = bfs_frontier_distances(view, 0)
        theirs = {src_id: 0}
        queue = collections.deque([src_id])
        while queue:
            u = queue.popleft()
            for v in small_het_graph.neighbors(u):
                if v not in theirs:
                    theirs[v] = theirs[u] + 1
                    queue.append(v)
        by_id_ours = {int(view.nodes[i]): int(d) for i, d in enumerate(ours) if d >= 0}
        assert by_id_ours == theirs


class TestRuntimeIntegration:
    def _specs(self, backend=None, count=8, n=250):
        trace = shrinking_trace(n, 0.4, start=1.0, end=float(count), steps=count - 1)
        params = {
            "trace": trace_to_payload(trace),
            "time_per_estimation": 1.0,
            "max_degree": 10,
        }
        specs = [
            TrialSpec(
                "multi_probe",
                41,
                i,
                overlay=OverlaySpec.heterogeneous(n),
                estimator=EstimatorSpec.sample_collide(l=20, timer=5.0),
                params=params,
                stream=k,
            )
            for i in range(1, count + 1)
            for k in range(2)
        ]
        if backend is not None:
            specs = apply_graph_backend(specs, backend)
        return specs

    def test_backend_kinds_registry(self):
        assert BACKEND_KINDS == {"sample_collide", "hops_sampling"}
        assert GRAPH_BACKENDS == ("dict", "array")

    def test_apply_dict_backend_is_identity(self):
        specs = self._specs()
        assert apply_graph_backend(specs, "dict") == specs

    def test_apply_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            apply_graph_backend(self._specs(), "gpu")

    def test_backend_perturbs_content_address(self):
        from repro.runtime.api import batch_config
        from repro.runtime.store import content_key

        plain = content_key(batch_config(self._specs()))
        array = content_key(batch_config(self._specs(backend="array")))
        assert plain != array
        # "dict" is never recorded, keeping historical addresses stable.
        assert content_key(batch_config(self._specs(backend="dict"))) == plain

    def test_array_backend_worker_count_invariance(self):
        specs = self._specs(backend="array")
        serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
        parallel = run_trials(
            specs, runtime=RuntimeOptions(workers=4, chunk_size=4)
        )
        assert [(r.index, r.stream, r.value, r.true_size) for r in serial] == [
            (r.index, r.stream, r.value, r.true_size) for r in parallel
        ]

    def test_graph_backend_runtime_option_applies(self):
        specs = self._specs()
        via_option = run_trials(
            specs, runtime=RuntimeOptions(graph_backend="array")
        )
        explicit = run_trials(self._specs(backend="array"), runtime=None)
        assert [r.value for r in via_option] == [r.value for r in explicit]
        # And the array results genuinely differ from the dict lineage.
        dict_results = run_trials(specs, runtime=None)
        assert [r.value for r in via_option] != [r.value for r in dict_results]
