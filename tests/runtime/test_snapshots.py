"""Snapshot protocol: equivalence properties and chunk-boundary bit-identity.

Two layers of guarantees (docs/SNAPSHOTS.md):

* **component equivalence** — for every stateful component,
  ``snapshot() + restore() + advance`` produces bit-identical behaviour to
  an uninterrupted ``advance``;
* **batch bit-identity** — every churn-replay trial kind produces the same
  results at workers 1 and 4, with snapshot hand-off on or off, cold or
  warm cache;
* **trust boundary** — a stored snapshot artifact that fails any check
  is rejected with its reason, journaled and recomputed, never restored;
  a mutated one either restores to the original state or is rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.obs_report import read_journal, render_obs_summary, validate_journal
from repro.churn.models import catastrophic_trace, shrinking_trace
from repro.churn.scheduler import ChurnScheduler
from repro.core.aggregation import AggregationMonitor, AggregationProtocol
from repro.overlay.arraygraph import ArrayOverlayGraph
from repro.overlay.builders import heterogeneous_random
from repro.overlay.graph import OverlayGraph
from repro.overlay.membership import MembershipPolicy
from repro.overlay.repair import RepairPolicySpec
from repro.runtime import (
    EstimatorSpec,
    JournalReporter,
    OverlaySpec,
    ResultsStore,
    RuntimeOptions,
    TrialSpec,
    run_trials,
    trace_to_payload,
)
from repro.runtime.snapshots import (
    SNAPSHOT_KINDS,
    ProbeReplayState,
    RepairReplayState,
    snapshot_config,
)
from repro.runtime.store import SnapshotRejected
from repro.runtime.trials import apply_graph_backend, run_chunk
from repro.sim.messages import MessageKind, MessageMeter
from repro.sim.rng import RngHub, generator_from_state, generator_state
from repro.sim.rounds import RoundDriver


def assert_results_equal(a, b):
    """Bit-identity of two result lists (NaN == NaN, unlike dict equality)."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        da, db = ra.as_dict(), rb.as_dict()
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


# ----------------------------------------------------------------------
# component equivalence: snapshot + restore + advance == advance
# ----------------------------------------------------------------------


class TestGeneratorState:
    def test_round_trip_future_draws(self):
        gen = np.random.default_rng(7)
        gen.random(100)
        twin = generator_from_state(generator_state(gen))
        np.testing.assert_array_equal(gen.random(50), twin.random(50))

    def test_state_is_jsonable(self):
        state = generator_state(np.random.default_rng(7))
        assert json.loads(json.dumps(state)) == state


class TestGraphSnapshot:
    def _churned_graph(self):
        hub = RngHub(5)
        g = heterogeneous_random(300, rng=hub.stream("overlay"))
        policy = MembershipPolicy(g, rng=hub.stream("churn"))
        policy.leave(120)
        policy.join(60)
        return g, hub

    def test_snapshot_is_pure_data(self):
        g, _ = self._churned_graph()
        snap = g.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_restore_preserves_structure_and_order(self):
        g, _ = self._churned_graph()
        h = OverlayGraph.restore(g.snapshot())
        assert h.size == g.size and h.num_edges == g.num_edges
        assert list(h) == list(g)  # node iteration order
        for u in g:
            assert list(h.neighbors(u)) == list(g.neighbors(u))
        np.testing.assert_array_equal(h.to_array().indices, g.to_array().indices)
        h.check_invariants()

    def test_restored_graph_behaves_identically(self):
        """The crux: future mutations + sampling match the live graph's."""
        g, hub = self._churned_graph()
        h = OverlayGraph.restore(g.snapshot())
        rng_a = hub.stream("churn")
        rng_b = generator_from_state(generator_state(rng_a))
        pol_a = MembershipPolicy(g, rng=rng_a)
        pol_b = MembershipPolicy(h, rng=rng_b)
        pol_a.leave(50), pol_b.leave(50)
        pol_a.join(30), pol_b.join(30)
        assert g.snapshot() == h.snapshot()
        view_a, view_b = g.to_array(), h.to_array()
        np.testing.assert_array_equal(view_a.nodes, view_b.nodes)
        np.testing.assert_array_equal(view_a.indices, view_b.indices)
        draw = np.random.default_rng(3)
        pos = draw.integers(view_a.n, size=64)
        np.testing.assert_array_equal(
            view_a.sample_neighbors(pos, np.random.default_rng(9)),
            view_b.sample_neighbors(pos, np.random.default_rng(9)),
        )

    def test_copy_preserves_order(self):
        g, _ = self._churned_graph()
        assert g.copy().snapshot() == g.snapshot()


class TestHubSnapshot:
    def test_streams_and_fresh_counters_resume(self):
        hub = RngHub(42)
        hub.stream("churn").random(17)
        hub.fresh("proto"), hub.fresh("proto")
        twin = RngHub.restore(hub.snapshot())
        np.testing.assert_array_equal(
            hub.stream("churn").random(20), twin.stream("churn").random(20)
        )
        np.testing.assert_array_equal(
            hub.fresh("proto").random(5), twin.fresh("proto").random(5)
        )
        # a never-consumed stream derives identically on both sides
        np.testing.assert_array_equal(
            hub.stream("other").random(5), twin.stream("other").random(5)
        )

    def test_child_lineage_is_stateless(self):
        hub = RngHub(42)
        snap = hub.snapshot()
        assert (
            RngHub.restore(snap).child("run3").seed == RngHub(42).child("run3").seed
        )


class TestSchedulerSnapshot:
    def test_interrupted_equals_uninterrupted(self):
        def build():
            hub = RngHub(11)
            g = heterogeneous_random(300, rng=hub.stream("overlay"))
            trace = shrinking_trace(300, 0.5, start=1.0, end=20.0, steps=19)
            return hub, ChurnScheduler(g, trace, rng=hub.stream("churn"))

        _, straight = build()
        for t in range(1, 21):
            straight.advance_to(float(t))

        _, interrupted = build()
        for t in range(1, 11):
            interrupted.advance_to(float(t))
        trace = shrinking_trace(300, 0.5, start=1.0, end=20.0, steps=19)
        resumed = ChurnScheduler.restore(interrupted.snapshot(), trace)
        for t in range(11, 21):
            resumed.advance_to(float(t))

        assert resumed.graph.snapshot() == straight.graph.snapshot()
        # the audit log is deliberately not carried across a hand-off
        # (snapshots stay O(overlay)); it covers post-restore events only
        assert resumed.log == straight.log[-resumed.applied_events:]
        assert resumed.snapshot() == straight.snapshot()

    def test_snapshot_is_jsonable(self):
        hub = RngHub(11)
        g = heterogeneous_random(100, rng=hub.stream("overlay"))
        sched = ChurnScheduler(
            g, catastrophic_trace((2.0, 5.0), 0.25, None, 0), rng=hub.stream("churn")
        )
        sched.advance_to(3.0)
        snap = sched.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestMeterAndDriver:
    def test_meter_restore(self):
        meter = MessageMeter()
        meter.add(MessageKind.WALK, 7)
        meter.add(MessageKind.CONTROL, 3)
        twin = MessageMeter.restore(meter.snapshot().counts)
        assert twin.total == meter.total
        assert dict(twin.items()) == dict(meter.items())

    def test_driver_start_round(self):
        seen = []
        driver = RoundDriver(start_round=10)
        driver.subscribe(lambda rnd: seen.append(rnd))
        assert driver.run(3) == 3
        assert seen == [11, 12, 13]
        assert driver.current_round == 13

    def test_driver_rejects_negative_start(self):
        with pytest.raises(ValueError):
            RoundDriver(start_round=-1)


class TestAggregationSnapshot:
    def test_protocol_resumes_mid_epoch(self):
        def build():
            hub = RngHub(23)
            g = heterogeneous_random(200, rng=hub.stream("overlay"))
            return AggregationProtocol(g, rng=hub.stream("proto"))

        straight = build()
        straight.start_epoch()
        straight.run_rounds(30)

        interrupted = build()
        interrupted.start_epoch()
        interrupted.run_rounds(12)
        snap = interrupted.snapshot()
        resumed = AggregationProtocol.restore(interrupted.graph, snap)
        resumed.run_rounds(18)

        assert resumed.read().value == straight.read().value
        assert resumed.total_mass() == straight.total_mass()
        assert resumed.epoch == straight.epoch
        assert resumed.rounds_in_epoch == straight.rounds_in_epoch

    def test_monitor_resumes_with_relative_series(self):
        def build():
            hub = RngHub(31)
            g = heterogeneous_random(200, rng=hub.stream("overlay"))
            trace = shrinking_trace(200, 0.4, start=1.0, end=30.0, steps=29)
            sched = ChurnScheduler(g, trace, rng=hub.stream("churn"))
            mon = AggregationMonitor(g, restart_interval=8, rng=hub.stream("monitor"))
            driver = RoundDriver()
            sched.attach(driver)
            mon.attach(driver)
            return sched, mon, driver

        _, mon_a, driver_a = build()
        driver_a.run(30)

        sched_b, mon_b, driver_b = build()
        driver_b.run(14)
        trace = shrinking_trace(200, 0.4, start=1.0, end=30.0, steps=29)
        sched_c = ChurnScheduler.restore(sched_b.snapshot(), trace)
        mon_c = AggregationMonitor.restore(
            sched_c.graph, mon_b.snapshot(), restart_interval=8
        )
        driver_c = RoundDriver(start_round=14)
        sched_c.attach(driver_c)
        mon_c.attach(driver_c)
        driver_c.run(16)

        np.testing.assert_array_equal(
            np.asarray(mon_a.series[14:]), np.asarray(mon_c.series)
        )
        assert mon_c.failures == mon_a.failures
        assert mon_c.epoch_estimates == mon_a.epoch_estimates


class TestReplayStates:
    def _probe_spec(self, kind="multi_probe", seed=99, n=300, count=15):
        trace = shrinking_trace(n, 0.5, start=1.0, end=float(count), steps=count - 1)
        params = {
            "trace": trace_to_payload(trace),
            "time_per_estimation": 1.0,
            "max_degree": 10,
        }
        return TrialSpec(
            kind,
            seed,
            1,
            overlay=OverlaySpec.heterogeneous(n),
            estimator=EstimatorSpec.sample_collide(l=20, timer=5.0),
            params=params,
        )

    def test_probe_state_handoff_equivalence(self):
        spec = self._probe_spec()
        straight = ProbeReplayState.boot(spec)
        straight.advance(15)
        split = ProbeReplayState.boot(spec)
        split.advance(7)
        resumed = ProbeReplayState.restore(spec, split.snapshot())
        resumed.advance(15)
        assert resumed.graph.snapshot() == straight.graph.snapshot()
        assert resumed.scheduler.snapshot() == straight.scheduler.snapshot()
        assert resumed.position == straight.position

    def test_probe_state_death_is_final(self):
        # a -100% trace empties the overlay; the state must freeze there
        n = 50
        trace = shrinking_trace(n, 1.0, start=1.0, end=5.0, steps=5)
        spec = TrialSpec(
            "dynamic_probe",
            7,
            1,
            overlay=OverlaySpec.heterogeneous(n),
            estimator=EstimatorSpec.sample_collide(l=5, timer=2.0),
            params={"trace": trace_to_payload(trace), "time_per_estimation": 1.0},
        )
        state = ProbeReplayState.boot(spec)
        state.advance(10)
        assert state.dead
        death = state.position
        resumed = ProbeReplayState.restore(spec, state.snapshot())
        resumed.advance(20)
        assert resumed.dead and resumed.position == death

    def test_restored_state_keeps_int32_twins_through_churn(self):
        spec = self._probe_spec()
        state = ProbeReplayState.boot(spec)
        state.advance(3)
        payload = state.snapshot()
        packed = payload["scheduler"]["graph"]
        assert {packed[k].dtype for k in ("nodes", "indptr", "indices")} == {
            np.dtype(np.int32)
        }
        resumed = ProbeReplayState.restore(spec, payload)
        twin = resumed.graph.to_array()
        for arr in (twin.nodes, twin.indptr, twin.indices):
            assert arr.dtype == np.int32
        resumed.advance(4)  # the trace removes nodes at t=4
        state.advance(4)
        assert resumed.graph.snapshot() == state.graph.snapshot()
        for replay in (resumed, state):
            replay.scheduler.policy.join(3)  # a join splices the twin
        assert resumed.graph.snapshot() == state.graph.snapshot()
        twin = resumed.graph.to_array()
        for arr in (twin.nodes, twin.indptr, twin.indices):
            assert arr.dtype == np.int32

    def test_restored_array_replay_matches_prefix_replay(self, monkeypatch):
        """Resumed from a packed payload, an array S&C replay applies the
        shrinking trace's departures to the twin; its results equal the
        prefix replay's."""
        specs = apply_graph_backend(_specs("dynamic_probe"), "array")
        boundary = 4
        booted = ProbeReplayState.boot(specs[0])
        booted.advance(boundary)
        payload = booted.snapshot()
        assert "indptr" in payload["scheduler"]["graph"]
        restored = []
        restore = ProbeReplayState.restore.__func__

        def capture(cls, spec, snap):
            restored.append(restore(cls, spec, snap))
            return restored[-1]

        monkeypatch.setattr(ProbeReplayState, "restore", classmethod(capture))
        resumed = run_chunk([s for s in specs if s.index > boundary], payload)
        (state,) = restored
        assert state.position == COUNT and state.graph.size < N // 2 + 10
        assert any(math.isfinite(r.value) for r in resumed)
        assert_results_equal(resumed, run_chunk(specs)[boundary:])

    def test_snapshot_config_excludes_estimator(self):
        a = self._probe_spec()
        b = TrialSpec(
            a.kind,
            a.hub_seed,
            a.index,
            overlay=a.overlay,
            estimator=EstimatorSpec.hops_sampling(),
            params=a.params,
        )
        assert snapshot_config(a, 5) == snapshot_config(b, 5)
        assert snapshot_config(a, 5) != snapshot_config(a, 6)

    def test_registry_covers_replay_kinds(self):
        assert set(SNAPSHOT_KINDS) == {"dynamic_probe", "multi_probe", "repair_replay"}
        assert SNAPSHOT_KINDS["repair_replay"] is RepairReplayState


# ----------------------------------------------------------------------
# chunk-boundary bit-identity: all four churn-replay kinds
# ----------------------------------------------------------------------


N = 300
COUNT = 12


def _trace_payload(n=N, count=COUNT):
    return trace_to_payload(
        shrinking_trace(n, 0.5, start=1.0, end=float(count), steps=count - 1)
    )


def _specs(kind):
    overlay = OverlaySpec.heterogeneous(N)
    if kind == "dynamic_probe":
        params = {"trace": _trace_payload(), "time_per_estimation": 1.0, "max_degree": 10}
        return [
            TrialSpec(kind, 17, i, overlay=overlay,
                      estimator=EstimatorSpec.sample_collide(l=20, timer=5.0),
                      params=params)
            for i in range(1, COUNT + 1)
        ]
    if kind == "multi_probe":
        params = {"trace": _trace_payload(), "time_per_estimation": 1.0, "max_degree": 10}
        return [
            TrialSpec(kind, 17, i, overlay=overlay,
                      estimator=EstimatorSpec.hops_sampling(),
                      params=params, stream=k)
            for i in range(1, COUNT + 1)
            for k in range(2)
        ]
    if kind == "repair_replay":
        params = {
            "trace": _trace_payload(),
            "max_degree": 10,
            "repair": RepairPolicySpec.degree().as_config(),
            "restart_interval": 4,
        }
        return [
            TrialSpec(kind, 17, i, overlay=overlay, params=params)
            for i in range(1, COUNT + 1)
        ]
    assert kind == "agg_dynamic"
    params = {
        "trace": _trace_payload(),
        "max_degree": 10,
        "restart_interval": 4,
        "horizon": COUNT,
    }
    return [
        TrialSpec(kind, 17, i, overlay=overlay, params=params) for i in range(3)
    ]


ALL_REPLAY_KINDS = ["dynamic_probe", "multi_probe", "repair_replay", "agg_dynamic"]


class TestChunkBoundaryBitIdentity:
    @pytest.mark.parametrize("kind", ALL_REPLAY_KINDS)
    def test_workers_and_snapshot_modes_match_serial(self, kind):
        """Serial (one prefix replay) against pipelined snapshot hand-off."""
        specs = _specs(kind)
        serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
        pipelined = run_trials(
            specs, runtime=RuntimeOptions(workers=4, chunk_size=3)
        )
        assert_results_equal(serial, pipelined)

    @pytest.mark.parametrize("kind", ALL_REPLAY_KINDS)
    def test_warm_cache_matches_serial(self, kind, tmp_path):
        specs = _specs(kind)
        serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
        store = ResultsStore(tmp_path)
        cold = run_trials(
            specs, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store)
        )
        warm = run_trials(
            specs, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store)
        )
        assert_results_equal(serial, cold)
        assert_results_equal(serial, warm)

    def test_snapshots_do_not_change_result_addresses(self, tmp_path):
        """Result artifacts land at the same key pipelined or serial."""
        specs = _specs("multi_probe")
        store_a, store_b = ResultsStore(tmp_path / "a"), ResultsStore(tmp_path / "b")
        run_trials(specs, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store_a))
        run_trials(specs, runtime=RuntimeOptions(workers=1, store=store_b))
        results_a = {i.key for i in store_a.artifacts() if i.payload == "results"}
        results_b = {i.key for i in store_b.artifacts() if i.payload == "results"}
        assert results_a == results_b

    def test_snapshot_artifacts_are_shared_across_estimators(self, tmp_path):
        """Same scenario + different estimator -> snapshot cache hits."""
        store = ResultsStore(tmp_path)
        specs_sc = _specs("multi_probe")
        run_trials(specs_sc, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store))
        snaps_before = {
            i.key for i in store.artifacts() if i.payload == "snapshot"
        }
        assert snaps_before  # the backbone cached its boundaries
        specs_other = [
            TrialSpec(
                s.kind,
                s.hub_seed,
                s.index,
                overlay=s.overlay,
                estimator=EstimatorSpec.sample_collide(l=10, timer=4.0),
                params=s.params,
                stream=s.stream,
            )
            for s in specs_sc
        ]
        run_trials(
            specs_other, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store)
        )
        snaps_after = {i.key for i in store.artifacts() if i.payload == "snapshot"}
        assert snaps_after == snaps_before


# ----------------------------------------------------------------------
# store integration
# ----------------------------------------------------------------------


class TestSnapshotStore:
    def test_save_load_round_trip_with_nan(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = {"snapshot": 1, "kind": "repair_replay", "index": 3}
        payload = {
            "index": 3,
            "hold": float("nan"),
            "values": [1.0, 2.5],
            "scheduler": {"graph": heterogeneous_random(20, rng=1).to_array().pack()},
        }
        store.save_snapshot(config, payload)
        loaded = store.load_snapshot(config)
        assert loaded["index"] == 3 and loaded["values"] == [1.0, 2.5]
        assert math.isnan(loaded["hold"])

    def test_load_snapshot_misses_on_results_artifact(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.load_snapshot({"snapshot": 1, "missing": True}) is None

    def test_stats_report_snapshot_bytes_separately(self, tmp_path):
        store = ResultsStore(tmp_path)
        specs = _specs("multi_probe")
        run_trials(specs, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store))
        st = store.stats()
        assert st.snapshot_artifacts > 0
        assert 0 < st.snapshot_bytes < st.total_bytes
        infos = store.artifacts()
        assert {i.payload for i in infos} == {"results", "snapshot"}
        for info in infos:
            if info.payload == "snapshot":
                assert info.tag == "snapshot:multi_probe"

    def test_trends_scan_skips_snapshots(self, tmp_path):
        from repro.runtime.trends import scan_stores

        store = ResultsStore(tmp_path)
        specs = _specs("multi_probe")
        run_trials(
            specs,
            runtime=RuntimeOptions(workers=4, chunk_size=3, store=store, tag="figX"),
        )
        records = scan_stores([tmp_path])
        assert records  # the results artifact is seen
        assert all(r.info.payload == "results" for r in records)

    def test_gc_reclaims_snapshots(self, tmp_path):
        store = ResultsStore(tmp_path)
        specs = _specs("multi_probe")
        run_trials(specs, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store))
        report = store.gc(max_total_bytes=0)
        assert report.kept == 0
        assert store.stats().snapshot_artifacts == 0

    def test_lifecycle_covers_the_array_files(self, tmp_path):
        """Sizes, invalidate, gc and clear, checked against the disk."""
        store = ResultsStore(tmp_path)
        specs = _specs("multi_probe")
        run_trials(specs, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store))
        snaps = [i for i in store.artifacts() if i.payload == "snapshot"]
        npz = sorted(tmp_path.glob("*/*.npz"))
        assert snaps and [p.stem for p in npz] == sorted(i.key for i in snaps)
        for info in snaps:
            on_disk = info.path.stat().st_size + info.path.with_suffix(".npz").stat().st_size
            assert info.size_bytes == on_disk
        assert store.stats().snapshot_bytes == sum(i.size_bytes for i in snaps)

        config = snapshot_config(specs[0], 0)
        assert store.invalidate(config)
        assert not store.path_for(config).exists()
        assert not store.path_for(config).with_suffix(".npz").exists()

        orphan = next(i.path for i in snaps if i.path != store.path_for(config))
        orphan.unlink()  # header gone, arrays left behind
        report = store.gc(max_age_seconds=3600.0)
        assert not report.evicted
        assert not orphan.with_suffix(".npz").exists()
        assert len(list(tmp_path.glob("*/*.npz"))) == len(snaps) - 2

        store.gc(max_total_bytes=0)
        assert list(tmp_path.rglob("*")) == []

        run_trials(specs, runtime=RuntimeOptions(workers=4, chunk_size=3, store=store))
        assert store.clear() == len(snaps) + 1
        assert not list(tmp_path.glob("*/*.*"))


# ----------------------------------------------------------------------
# trust boundary: a bad snapshot artifact is a journaled miss
# ----------------------------------------------------------------------


def _rewrite_arrays(path, mutate, manifest=True):
    """Apply ``mutate(arrays)`` to a snapshot's ``.npz`` and write it back,
    re-deriving the header's manifest from the new arrays when
    ``manifest`` (so only the later checks can catch the change)."""
    npz_path = path.with_suffix(".npz")
    with np.load(npz_path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    mutate(arrays)
    np.savez(npz_path, **arrays)
    if manifest:
        header = json.loads(path.read_text())
        for entry in header["arrays"]:
            arr = arrays[entry["name"]]
            entry.update(
                dtype=arr.dtype.str,
                shape=list(arr.shape),
                sha256=hashlib.sha256(np.ascontiguousarray(arr)).hexdigest(),
            )
        path.write_text(json.dumps(header))


def _edit_header(path, edit):
    header = json.loads(path.read_text())
    edit(header)
    path.write_text(json.dumps(header))


def _flip_byte(path):
    npz = path.with_suffix(".npz")
    data = bytearray(npz.read_bytes())
    data[len(data) // 2] ^= 0xFF
    npz.write_bytes(bytes(data))


def _unknown_compression(path):
    """Give the first member an unknown compression method in the zip's
    central directory (``zipfile`` then raises ``NotImplementedError``)."""
    npz = path.with_suffix(".npz")
    data = bytearray(npz.read_bytes())
    at = data.index(b"PK\x01\x02") + 10
    data[at : at + 2] = (99).to_bytes(2, "little")
    npz.write_bytes(bytes(data))


def _set(name, fn):
    def mutate(arrays):
        arrays[f"scheduler/graph/{name}"] = fn(arrays[f"scheduler/graph/{name}"].copy())

    return mutate


def _manifest(field, value):
    def edit(header):
        for entry in header["arrays"]:
            if entry["name"] == "scheduler/graph/indptr":
                entry[field] = value

    return edit


def _assign(arr, index, value):
    arr[index] = value
    return arr


def _asymmetric_link(arrays):
    """Re-point the first half-edge at a row that does not link back."""
    indptr = arrays["scheduler/graph/indptr"]
    indices = arrays["scheduler/graph/indices"].copy()
    row = int(np.searchsorted(indptr, 0, side="right")) - 1
    linked = set(indices[indptr[row] : indptr[row + 1]].tolist()) | {row}
    indices[0] = next(x for x in range(len(indptr) - 1) if x not in linked)
    arrays["scheduler/graph/indices"] = indices


def _next_id_to_max(path):
    with np.load(path.with_suffix(".npz")) as npz:
        top = int(npz["scheduler/graph/nodes"].max())

    def edit(header):
        header["snapshot"]["scheduler"]["graph"]["next_id"] = top

    _edit_header(path, edit)


def _list_overlay(corrupt):
    """Replace the packed overlay with the per-node lists
    ``OverlayGraph.snapshot`` writes, after ``corrupt(lists)``; the
    overlay's arrays leave the ``.npz`` and the manifest."""

    def rewrite(path):
        npz_path = path.with_suffix(".npz")
        with np.load(npz_path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        header = json.loads(path.read_text())
        graph = header["snapshot"]["scheduler"]["graph"]
        for key in ("nodes", "indptr", "indices"):
            graph[key] = arrays.pop(f"scheduler/graph/{key}")
        lists = ArrayOverlayGraph.unpack(graph).snapshot()
        corrupt(lists)
        header["snapshot"]["scheduler"]["graph"] = lists
        header["arrays"] = [e for e in header["arrays"] if e["name"] in arrays]
        np.savez(npz_path, **arrays)
        path.write_text(json.dumps(header))

    return rewrite


def _bad_links(lists):
    """A self-loop, a link with no link back and a neighbour id that is
    no node."""
    nodes, adj = lists["nodes"], lists["adj"]
    adj[0].append(nodes[0])
    adj[1].append(next(v for v in nodes[2:] if v not in adj[1]))
    adj[2].append(10**9)


def _permute_monitor(seed):
    """Shuffle the monitor's (id, value) pairs, each pair kept intact."""

    def mutate(arrays):
        order = np.random.default_rng(seed).permutation(
            arrays["monitor/protocol/nodes"].size
        )
        for key in ("nodes", "values"):
            name = f"monitor/protocol/{key}"
            arrays[name] = arrays[name][order]

    return mutate


def _list_monitor(path):
    """Move the monitor's ids and values out of the ``.npz`` and the
    manifest into the header, as the lists ``snapshot()`` once wrote."""
    npz_path = path.with_suffix(".npz")
    with np.load(npz_path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    header = json.loads(path.read_text())
    protocol = header["snapshot"]["monitor"]["protocol"]
    for key in ("nodes", "values"):
        protocol[key] = arrays.pop(f"monitor/protocol/{key}").tolist()
    header["arrays"] = [e for e in header["arrays"] if e["name"] in arrays]
    np.savez(npz_path, **arrays)
    path.write_text(json.dumps(header))


#: fault -> (corrupt the artifact at ``path``, expected rejection reason)
ARTIFACT_FAULTS = {
    "truncated_npz": (
        lambda path: path.with_suffix(".npz").write_bytes(
            path.with_suffix(".npz").read_bytes()[:200]
        ),
        "BadZipFile",
    ),
    "flipped_byte": (_flip_byte, "CRC-32|sha256"),
    "unknown_compression": (_unknown_compression, "NotImplementedError"),
    "sha256_mismatch": (
        lambda path: _rewrite_arrays(
            path, _set("indices", lambda a: _assign(a, 0, a[0] ^ 1)), manifest=False
        ),
        "does not match its sha256",
    ),
    "missing_npz": (lambda path: path.with_suffix(".npz").unlink(), "FileNotFoundError"),
    "manifest_dtype": (lambda path: _edit_header(path, _manifest("dtype", "<i8")), "manifest says"),
    "manifest_shape": (lambda path: _edit_header(path, _manifest("shape", [3])), "manifest says"),
    "non_monotone_indptr": (
        lambda path: _rewrite_arrays(
            path, _set("indptr", lambda a: _assign(a, 1, a[2] + 1))
        ),
        "non-decreasing",
    ),
    "index_out_of_range": (
        lambda path: _rewrite_arrays(
            path, _set("indices", lambda a: _assign(a, 0, 10**6))
        ),
        "out of range",
    ),
    "next_id_not_above_ids": (_next_id_to_max, "next_id must exceed"),
    "asymmetric_link": (lambda path: _rewrite_arrays(path, _asymmetric_link), "asymmetric"),
    "list_overlay": (_list_overlay(lambda lists: None), "not a packed CSR twin"),
    "list_overlay_bad_links": (_list_overlay(_bad_links), "not a packed CSR twin"),
    "object_array": (
        lambda path: _rewrite_arrays(
            path, _set("nodes", lambda a: a.astype(object)), manifest=False
        ),
        "allow_pickle=False",
    ),
}

#: The same for the monitor of a ``repair_replay`` boundary.
MONITOR_FAULTS = {
    "monitor_ids_permuted": (
        lambda path: _rewrite_arrays(path, _permute_monitor(0)),
        "ids ascending",
    ),
    "list_monitor": (_list_monitor, "monitor values are not arrays"),
}


def _clean_store(kind, root):
    """Run ``kind``'s specs through a 2-worker store at ``root``; the
    stored boundaries are 3, 6 and 9."""
    specs = _specs(kind)
    run_trials(
        specs,
        runtime=RuntimeOptions(workers=2, chunk_size=3, store=ResultsStore(root)),
    )
    return specs


class TestSnapshotArtifactFaults:
    """Every corrupted artifact is rejected with its reason, journaled,
    recomputed and overwritten; results stay bit-identical to serial."""

    TARGET = 3

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        runs = {}

        def run(kind):
            if kind not in runs:
                root = tmp_path_factory.mktemp(f"clean-{kind}")
                specs = _clean_store(kind, root)
                serial = run_trials(specs, runtime=RuntimeOptions(workers=1))
                runs[kind] = specs, root, serial
            return runs[kind]

        return run

    @pytest.mark.parametrize("fault", sorted({**ARTIFACT_FAULTS, **MONITOR_FAULTS}))
    def test_bad_artifact_is_a_journaled_miss(self, clean, fault, tmp_path):
        kind = "repair_replay" if fault in MONITOR_FAULTS else "dynamic_probe"
        specs, root, serial = clean(kind)
        shutil.copytree(root, tmp_path / "store")
        store = ResultsStore(tmp_path / "store")
        config = snapshot_config(specs[0], self.TARGET)
        corrupt, reason = {**ARTIFACT_FAULTS, **MONITOR_FAULTS}[fault]
        corrupt(store.path_for(config))
        with pytest.raises(SnapshotRejected, match=reason):
            store.load_snapshot(config)

        journal_path = tmp_path / "run.jsonl"
        journal = JournalReporter(journal_path)
        again = run_trials(
            specs,
            runtime=RuntimeOptions(
                workers=2, chunk_size=3, store=store, force=True, progress=journal
            ),
        )
        journal.close()
        assert_results_equal(serial, again)
        events = read_journal(journal_path)
        assert validate_journal(events) == []
        rejected = [e for e in events if e["event"] == "snapshot_rejected"]
        assert [e["target"] for e in rejected] == [self.TARGET]
        assert re.search(reason, rejected[0]["reason"])
        assert "snapshot rejections: 1" in render_obs_summary(events)
        outcomes = {
            e["target"]: e["outcome"] for e in events if e["event"] == "snapshot_boundary"
        }
        assert outcomes == {
            t: "computed" if t == self.TARGET else "hit" for t in outcomes
        }
        assert store.load_snapshot(config) is not None  # recomputed and overwritten


# ----------------------------------------------------------------------
# mutation: a stored snapshot restores equal to the original or is rejected
# ----------------------------------------------------------------------


_MONITOR_TARGET = 3


@pytest.fixture(scope="module")
def stored_repair(tmp_path_factory):
    """A stored ``repair_replay`` boundary: (spec, config, header, npz bytes)."""
    root = tmp_path_factory.mktemp("repair-store")
    specs = _clean_store("repair_replay", root)
    config = snapshot_config(specs[0], _MONITOR_TARGET)
    path = ResultsStore(root).path_for(config)
    return specs[0], config, path.read_bytes(), path.with_suffix(".npz").read_bytes()


def _state_key(state) -> str:
    """The state's hand-off payload as canonical JSON, arrays with dtypes."""

    def plain(obj):
        if isinstance(obj, np.ndarray):
            return [obj.dtype.str, obj.tolist()]
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        return obj

    return json.dumps(plain(state.snapshot()), sort_keys=True)


def _mutate_stored(path, mutation) -> None:
    kind, *args = mutation
    npz = path.with_suffix(".npz")
    data = npz.read_bytes()
    if kind == "truncate":
        npz.write_bytes(data[: args[0] % len(data)])
    elif kind == "flip":
        at = args[0] % len(data)
        npz.write_bytes(data[:at] + bytes([data[at] ^ args[1]]) + data[at + 1 :])
    elif kind == "drop":
        _edit_header(path, lambda header: header["arrays"].pop(args[0] % len(header["arrays"])))
    elif kind == "permute":
        _rewrite_arrays(path, _permute_monitor(args[0]))
    else:  # "retype" / "reshape" one array, re-deriving the manifest or not
        pick, change, manifest = args

        def mutate(arrays):
            name = sorted(arrays)[pick % len(arrays)]
            arr = arrays[name]
            if kind == "retype":
                arrays[name] = arr.astype(change)
            else:
                arrays[name] = arr[1:] if change == "shorter" else arr.reshape(-1, 1)

        _rewrite_arrays(path, mutate, manifest=manifest)


_STORED_MUTATIONS = st.one_of(
    st.integers(0, 10**6).map(lambda at: ("truncate", at)),
    st.tuples(st.integers(0, 10**6), st.integers(1, 255)).map(lambda p: ("flip",) + p),
    st.integers(0, 10**6).map(lambda pick: ("drop", pick)),
    st.integers(0, 10**6).map(lambda seed: ("permute", seed)),
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(("<i4", "<i8", "<f8", "<f4", "<u4", "|i1")),
        st.booleans(),
    ).map(lambda p: ("retype",) + p),
    st.tuples(
        st.integers(0, 10**6), st.sampled_from(("shorter", "2d")), st.booleans()
    ).map(lambda p: ("reshape",) + p),
)


@settings(max_examples=60, deadline=None)
@given(mutation=_STORED_MUTATIONS)
def test_a_mutated_stored_snapshot_restores_equal_or_is_rejected(stored_repair, mutation):
    """``load_snapshot`` raises ``SnapshotRejected`` or returns a payload
    whose restored state equals the original's, now and two rounds on;
    nothing fails later with an ``IndexError`` or ``KeyError``."""
    spec, config, header, npz = stored_repair
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultsStore(tmp)
        path = store.path_for(config)
        path.parent.mkdir(parents=True)
        path.write_bytes(header)
        path.with_suffix(".npz").write_bytes(npz)
        original = RepairReplayState.restore(spec, store.load_snapshot(config))
        _mutate_stored(path, mutation)
        try:
            payload = store.load_snapshot(config)
        except SnapshotRejected:
            return
    restored = RepairReplayState.restore(spec, payload)
    assert _state_key(restored) == _state_key(original)
    for state in (original, restored):
        state.advance(_MONITOR_TARGET + 2)
    assert _state_key(restored) == _state_key(original)
