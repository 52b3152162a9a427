"""Tests for the trial model: specs, payloads, portability, chunk runners."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.churn.models import shrinking_trace
from repro.core.sample_collide import SampleCollideEstimator
from repro.overlay.repair import RepairPolicySpec
from repro.runtime.trials import (
    EstimatorSpec,
    OverlaySpec,
    TrialSpec,
    run_chunk,
    trace_from_payload,
    trace_to_payload,
)
from repro.sim.rng import RngHub


class TestTracePayload:
    def test_round_trip(self):
        trace = shrinking_trace(400, 0.5, start=1, end=10, steps=10)
        rebuilt = trace_from_payload(trace_to_payload(trace))
        assert len(rebuilt) == len(trace)
        assert [e.time for e in rebuilt] == [e.time for e in trace]
        assert [e.leaves for e in rebuilt] == [e.leaves for e in trace]
        assert rebuilt.net_change(400) == trace.net_change(400)

    def test_payload_is_jsonable(self):
        payload = trace_to_payload(shrinking_trace(100, 0.3, steps=5))
        assert all(isinstance(item, dict) for item in payload)
        spec = TrialSpec(
            "dynamic_probe",
            1,
            1,
            overlay=OverlaySpec.heterogeneous(100),
            estimator=EstimatorSpec.sample_collide(l=10),
            params={"trace": payload},
        )
        assert spec.portable


class TestSpecs:
    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError):
            OverlaySpec("does_not_exist", {"n": 10})
        with pytest.raises(ValueError):
            EstimatorSpec("does_not_exist")

    def test_overlay_build_deterministic(self):
        spec = OverlaySpec.heterogeneous(300, max_degree=8)
        a = spec.build(RngHub(5))
        b = spec.build(RngHub(5))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_portable_spec_pickles(self):
        spec = TrialSpec(
            "static_probe",
            42,
            3,
            overlay=OverlaySpec.heterogeneous(200),
            estimator=EstimatorSpec.sample_collide(l=20),
        )
        assert spec.portable
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_live_objects_not_portable(self):
        graph = OverlaySpec.heterogeneous(50).build(RngHub(1))
        assert not TrialSpec("static_probe", 1, 1, overlay=graph).portable
        assert not TrialSpec(
            "static_probe",
            1,
            1,
            overlay=OverlaySpec.heterogeneous(50),
            estimator=lambda g, h: None,
        ).portable

    def test_as_config_rejects_live_objects(self):
        graph = OverlaySpec.heterogeneous(50).build(RngHub(1))
        with pytest.raises(TypeError):
            TrialSpec("static_probe", 1, 1, overlay=graph).as_config()


class TestChunkRunners:
    def _specs(self, count=6):
        return [
            TrialSpec(
                "static_probe",
                99,
                i,
                overlay=OverlaySpec.heterogeneous(300),
                estimator=EstimatorSpec.sample_collide(l=20),
            )
            for i in range(1, count + 1)
        ]

    def test_chunk_split_matches_whole(self):
        """A chunk's results depend only on (hub_seed, index) — the
        determinism property parallel execution relies on."""
        specs = self._specs()
        whole = run_chunk(specs)
        split = run_chunk(specs[:3]) + run_chunk(specs[3:])
        assert [(r.index, r.value) for r in whole] == [
            (r.index, r.value) for r in split
        ]

    def test_matches_legacy_serial_loop(self):
        """Spec execution reproduces the historical inline loop exactly."""
        hub = RngHub(99)
        graph = OverlaySpec.heterogeneous(300).build(RngHub(99))
        expected = [
            SampleCollideEstimator(
                graph, l=20, rng=hub.child(f"run{i}").stream("sc")
            )
            .estimate()
            .value
            for i in range(1, 7)
        ]
        got = [r.value for r in run_chunk(self._specs())]
        assert got == expected

    def test_mixed_kind_chunk_rejected(self):
        specs = self._specs(2)
        bad = [specs[0], TrialSpec("agg_epoch", 99, 2, overlay=specs[1].overlay)]
        with pytest.raises(ValueError):
            run_chunk(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_chunk([TrialSpec("no_such_kind", 1, 1)])

    # Churn replay: a late chunk given no snapshot replays the prefix, so
    # estimating only a suffix of the indices yields what the full serial
    # pass produces for those indices — one test per churn-replay kind.

    @staticmethod
    def _assert_late_chunk_replays_prefix(specs, start=7):
        def by_key(results):
            return {
                (r.index, r.stream): json.dumps(r.as_dict(), sort_keys=True)
                for r in results
            }

        full = by_key(run_chunk(specs))
        tail = by_key(run_chunk([s for s in specs if s.index >= start], None))
        assert tail
        assert tail == {key: full[key] for key in tail}

    @staticmethod
    def _replay_params():
        trace = trace_to_payload(shrinking_trace(400, 0.5, start=1, end=10, steps=10))
        return {"trace": trace, "max_degree": 10}

    def test_dynamic_probe_replay_determinism(self):
        params = dict(self._replay_params(), time_per_estimation=1.0)
        est = EstimatorSpec.sample_collide(l=20)
        self._assert_late_chunk_replays_prefix([
            TrialSpec("dynamic_probe", 7, i, overlay=OverlaySpec.heterogeneous(400),
                      estimator=est, params=params)
            for i in range(1, 11)
        ])

    def test_multi_probe_replay_determinism(self):
        params = dict(self._replay_params(), time_per_estimation=1.0)
        est = EstimatorSpec.hops_sampling()
        self._assert_late_chunk_replays_prefix([
            TrialSpec("multi_probe", 7, i, overlay=OverlaySpec.heterogeneous(400),
                      estimator=est, params=params, stream=k)
            for i in range(1, 11)
            for k in range(2)
        ])

    def test_repair_replay_replay_determinism(self):
        params = dict(
            self._replay_params(),
            repair=RepairPolicySpec.degree().as_config(),
            restart_interval=4,
        )
        self._assert_late_chunk_replays_prefix([
            TrialSpec("repair_replay", 7, i, overlay=OverlaySpec.heterogeneous(400),
                      params=params)
            for i in range(1, 11)
        ])
