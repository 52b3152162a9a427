"""Replay-state snapshotting: O(horizon) churn replay across chunks.

The churn-replay trial kinds (``dynamic_probe``, ``multi_probe``,
``repair_replay``) share one evolving scenario — an overlay mutated by a
churn schedule, possibly with repair and a monitoring protocol riding on
it — that every trial of the batch observes at its own index.  A chunk of
such trials historically replayed the scenario *from t=0* up to its last
index, which makes the total replay work quadratic in the horizon once a
batch is split into chunks.

This module makes the scenario state an explicit, transferable object:

* a **replay state** (:class:`ProbeReplayState`, :class:`RepairReplayState`)
  bundles the live objects — overlay, churn scheduler, and for
  ``repair_replay`` the repair policy, aggregation monitor, message meter
  and round driver — and advances them step by step exactly as the serial
  loop did;
* :meth:`ReplayState.snapshot` captures the state as a **hand-off
  payload**: JSON data plus the overlay as its packed CSR twin
  (:meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.pack`, numpy
  arrays), picklable as it is and stored as a JSON header beside an
  ``.npz``; :meth:`ReplayState.restore` rebuilds a state whose future
  steps are *bit-identical* to the uninterrupted run's (every component
  guarantees this individually: see ``OverlayGraph.snapshot``,
  ``ChurnScheduler.pack``, ``AggregationProtocol.snapshot``,
  ``generator_state``), over a twin-backed overlay whose dict is built
  only when a join or a dict-only read first needs it;
* :func:`snapshot_config` derives the content address a boundary snapshot
  is stored under — the *scenario prefix* configuration (overlay, seed,
  churn trace, scenario params, boundary index), deliberately excluding
  everything that cannot affect the churn trajectory (the estimator spec,
  worker count, chunking), so snapshots are shared across every batch
  that replays the same scenario.  Result artifacts keep their own,
  untouched addresses: enabling snapshots never invalidates a cached
  result.

The chunk hand-off lifecycle, its invariants, and the replay-cost
arithmetic are documented in ``docs/SNAPSHOTS.md``; the executor-side
pipeline lives in :mod:`repro.runtime.pool`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Mapping, Tuple

from ..churn.models import ChurnEvent, ChurnTrace
from ..churn.scheduler import ChurnScheduler
from ..core.aggregation import AggregationMonitor
from ..overlay.graph import OverlayGraph
from ..overlay.repair import RepairPolicySpec
from ..sim.messages import MessageMeter
from ..sim.rng import RngHub, generator_from_state
from ..sim.rounds import RoundDriver

__all__ = [
    "SNAPSHOT_KINDS",
    "SNAPSHOT_SCHEMA_VERSION",
    "ProbeReplayState",
    "RepairReplayState",
    "replay_state_for",
    "snapshot_config",
]

#: Bump when snapshot payload layout or replay semantics change; mixed into
#: every snapshot's content address so stale payloads become misses, never
#: wrong restores.  Version 2 carries the overlay as packed CSR arrays.
SNAPSHOT_SCHEMA_VERSION = 2


def _fresh_trace(payload: Any) -> ChurnTrace:
    """An unconsumed :class:`ChurnTrace` from a spec's ``params["trace"]``."""
    if isinstance(payload, ChurnTrace):
        return ChurnTrace(iter(payload))
    return ChurnTrace(ChurnEvent(**item) for item in payload)


def _scenario_graph(spec) -> OverlayGraph:
    """The scenario's overlay: freshly built from a declarative spec, or a
    live graph taken as-is (the in-process fallback for non-portable
    specs, which never cross a process boundary)."""
    overlay = spec.overlay
    if isinstance(overlay, OverlayGraph):
        return overlay
    if overlay is None or not hasattr(overlay, "build"):
        raise TypeError(
            f"trial kind {spec.kind!r} needs an overlay, got {overlay!r}"
        )
    seed = spec.hub_seed if spec.overlay_seed is None else spec.overlay_seed
    return overlay.build(RngHub(seed))


class ProbeReplayState:
    """Replay state of the probe-under-churn kinds (Figs 9-14).

    The scenario is: one overlay, one churn schedule consumed through the
    hub's dedicated ``"churn"`` stream, advanced in steps of
    ``time_per_estimation``; estimations at each step draw from stateless
    per-index child hubs and therefore leave no trace in this state.  The
    serial loop's death rule is preserved exactly: once the overlay is
    empty at a step boundary the replay is *dead* — it never advances
    again, even if later trace events would regrow the membership.
    """

    kind_params: Tuple[str, ...] = ("trace", "time_per_estimation", "max_degree")

    def __init__(
        self,
        hub: RngHub,
        scheduler: ChurnScheduler,
        tpe: float,
        position: int = 0,
        dead: bool = False,
    ) -> None:
        self.hub = hub
        self.scheduler = scheduler
        self.tpe = float(tpe)
        self.position = int(position)
        self.dead = bool(dead)

    @property
    def graph(self) -> OverlayGraph:
        """The scenario's (mutating) overlay."""
        return self.scheduler.graph

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def boot(cls, spec) -> "ProbeReplayState":
        """Build the scenario at position 0 from a trial spec.

        Mirrors the historical chunk warm-up bit for bit: the overlay is
        built from its own hub (``overlay_seed`` or ``hub_seed``) while
        churn consumes the estimation hub's ``"churn"`` stream.
        """
        p = spec.params
        hub = RngHub(spec.hub_seed)
        graph = _scenario_graph(spec)
        scheduler = ChurnScheduler(
            graph,
            _fresh_trace(p["trace"]),
            rng=hub.stream("churn"),
            max_degree=int(p.get("max_degree", 10)),
        )
        return cls(hub, scheduler, tpe=float(p.get("time_per_estimation", 1.0)))

    def advance(self, to_index: int) -> None:
        """Advance the scenario through step ``to_index`` (serial semantics).

        Steps one estimation slot at a time, checking the death rule after
        each, so a state advanced in any increments visits exactly the
        same intermediate states as the uninterrupted loop.
        """
        for i in range(self.position + 1, int(to_index) + 1):
            if self.dead:
                break
            self.scheduler.advance_to(i * self.tpe)
            self.position = i
            if self.graph.size == 0:
                self.dead = True

    # -- hand-off ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Hand-off capture of the scenario at the current position."""
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "index": self.position,
            "dead": self.dead,
            "scheduler": self.scheduler.pack(),
        }

    @classmethod
    def restore(cls, spec, payload: Mapping[str, Any]) -> "ProbeReplayState":
        """Rebuild the scenario mid-replay from a :meth:`snapshot` payload.

        ``spec`` supplies the configuration (trace payload, step length);
        the payload supplies the state.  Future :meth:`advance` steps are
        bit-identical to an uninterrupted replay's.
        """
        p = spec.params
        hub = RngHub(spec.hub_seed)
        scheduler = ChurnScheduler.restore(
            payload["scheduler"],
            _fresh_trace(p["trace"]),
            max_degree=int(p.get("max_degree", 10)),
        )
        return cls(
            hub,
            scheduler,
            tpe=float(p.get("time_per_estimation", 1.0)),
            position=int(payload["index"]),
            dead=bool(payload.get("dead", False)),
        )


class RepairReplayState:
    """Replay state of ``repair_replay`` (Fig 17 revisited, with repair).

    One scenario = churn (``"churn"`` stream) + repair policy (``"rep"``
    stream) + aggregation monitor (``"monitor"`` stream) advancing in lock
    step on a shared :class:`RoundDriver`, with cumulative repair traffic
    metered.  All of that is state and all of it is captured; the
    per-round observation ``records`` list is *local* — it accumulates
    from the position the state was booted or restored at, and the chunk
    runner maps absolute round numbers onto it.
    """

    kind_params: Tuple[str, ...] = ("trace", "max_degree", "repair", "restart_interval")

    def __init__(
        self,
        scheduler: ChurnScheduler,
        policy,
        monitor: AggregationMonitor,
        meter: MessageMeter,
        position: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.policy = policy
        self.monitor = monitor
        self.meter = meter
        self.position = int(position)
        #: (graph size, cumulative repair messages, failed epochs) observed
        #: at each round run on *this* state object; index 0 is round
        #: ``position_at_construction + 1``.
        self.records: List[Tuple[int, int, int]] = []
        self.driver = RoundDriver(start_round=self.position)
        scheduler.attach(self.driver)
        policy.attach(self.driver)
        monitor.attach(self.driver)
        self.driver.subscribe(
            lambda rnd: self.records.append(
                (self.graph.size, self.meter.total, self.monitor.failures)
            ),
            priority=30,
        )

    @property
    def graph(self) -> OverlayGraph:
        """The scenario's (mutating, repaired) overlay."""
        return self.scheduler.graph

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def boot(cls, spec) -> "RepairReplayState":
        """Build the scenario at round 0 from a trial spec."""
        p = spec.params
        hub = RngHub(spec.hub_seed)
        graph = _scenario_graph(spec)
        scheduler = ChurnScheduler(
            graph,
            _fresh_trace(p["trace"]),
            rng=hub.stream("churn"),
            max_degree=int(p.get("max_degree", 10)),
        )
        meter = MessageMeter()
        policy = RepairPolicySpec.from_config(p["repair"]).build(
            graph, rng=hub.stream("rep"), meter=meter
        )
        monitor = AggregationMonitor(
            graph,
            restart_interval=int(p["restart_interval"]),
            rng=hub.stream("monitor"),
        )
        return cls(scheduler, policy, monitor, meter)

    def advance(self, to_index: int) -> None:
        """Run rounds up to ``to_index`` (round numbers are 1-based)."""
        rounds = int(to_index) - self.position
        if rounds > 0:
            self.driver.run(rounds)
            self.position = int(to_index)

    # -- hand-off ------------------------------------------------------

    @property
    def dead(self) -> bool:
        """Repair scenarios never die: an emptied overlay may regrow."""
        return False

    def snapshot(self) -> Dict[str, Any]:
        """Hand-off capture: scheduler + policy + monitor + meter state."""
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "index": self.position,
            "scheduler": self.scheduler.pack(),
            "policy": self.policy.snapshot(),
            "monitor": self.monitor.snapshot(),
            "meter": dict(self.meter.snapshot().counts),
        }

    @classmethod
    def restore(cls, spec, payload: Mapping[str, Any]) -> "RepairReplayState":
        """Rebuild the scenario mid-run from a :meth:`snapshot` payload.

        Components are restored in dependency order (overlay+scheduler,
        meter, policy, monitor) and re-attached to a fresh driver starting
        at the captured round, so hook execution order — churn, repair,
        protocol, observer — matches the uninterrupted run exactly.
        """
        p = spec.params
        scheduler = ChurnScheduler.restore(
            payload["scheduler"],
            _fresh_trace(p["trace"]),
            max_degree=int(p.get("max_degree", 10)),
        )
        graph = scheduler.graph
        meter = MessageMeter.restore(payload["meter"])
        # Build directly with the captured generator: a policy that drew
        # (or forwarded) its rng at construction time would otherwise
        # silently diverge from the uninterrupted run.
        policy = RepairPolicySpec.from_config(p["repair"]).build(
            graph, rng=generator_from_state(payload["policy"]["rng"]), meter=meter
        )
        policy.apply_snapshot(payload["policy"])
        monitor = AggregationMonitor.restore(
            graph,
            payload["monitor"],
            restart_interval=int(p["restart_interval"]),
        )
        return cls(
            scheduler,
            policy,
            monitor,
            meter,
            position=int(payload["index"]),
        )


def replay_state_for(kind: str):
    """The replay-state class handling ``kind`` (raises KeyError if none)."""
    return SNAPSHOT_KINDS[kind]


#: trial kind -> replay-state class.  Kinds absent here either have no
#: shared scenario to hand off (``agg_dynamic`` runs one independent
#: scenario per trial) or no churn at all (the static/fresh kinds).
SNAPSHOT_KINDS: Dict[str, Any] = {
    "dynamic_probe": ProbeReplayState,
    "multi_probe": ProbeReplayState,
    "repair_replay": RepairReplayState,
}


def snapshot_config(spec, index: int) -> Dict[str, Any]:
    """Content-address configuration of a boundary snapshot.

    Identifies the *churn trajectory prefix* the snapshot captures: the
    trial kind, the hub seed(s), the declarative overlay, the scenario
    subset of ``params`` (each state class's ``kind_params``) and the
    boundary ``index`` — plus :data:`SNAPSHOT_SCHEMA_VERSION`.  The
    estimator spec and the ``(index, stream)`` layout of the batch are
    excluded on purpose: they cannot influence the trajectory, so one
    stored snapshot serves every batch replaying the same scenario.
    The churn-trace payload enters the address as its SHA-256 digest —
    equally distinguishing, but a dense paper-scale trace is then not
    duplicated verbatim into every boundary artifact on disk.  Because
    this document is disjoint from a batch's result configuration (the
    ``"snapshot"`` key marks it), snapshot artifacts can never collide
    with — or invalidate — result artifacts.
    """
    from .store import canonical_json  # late: store imports trials imports us

    state_cls = SNAPSHOT_KINDS[spec.kind]
    params = {
        key: spec.params[key] for key in state_cls.kind_params if key in spec.params
    }
    trace = params.pop("trace", None)
    if trace is not None:
        params["trace_sha256"] = hashlib.sha256(
            canonical_json(trace).encode("utf-8")
        ).hexdigest()
    return {
        "snapshot": SNAPSHOT_SCHEMA_VERSION,
        "kind": spec.kind,
        "hub_seed": int(spec.hub_seed),
        "overlay": spec.overlay.as_config() if spec.overlay is not None else None,
        "overlay_seed": spec.overlay_seed,
        "params": params,
        "index": int(index),
    }
