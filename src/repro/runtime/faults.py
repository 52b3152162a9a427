"""Deterministic fault injection for the cluster backend.

The cluster's failure paths — heartbeat loss, chunk migration, work
stealing around stragglers, retry-with-backoff, the all-hosts-dead serial
fallback — are only trustworthy if they are *exercised*, and real
networks fail too rarely and too nondeterministically to exercise them in
a test suite.  This module is the declarative half of the chaos harness
(the spin-up helpers live in ``tests/runtime/chaos.py``): a
:class:`FaultPlan` names a reproducible set of fault events, and
:meth:`FaultPlan.worker_faults` compiles the per-host subset into the
:class:`WorkerFaults` knobs honoured by
:class:`~repro.runtime.cluster.WorkerServer`.

Every injected fault is reported as a ``fault_injected`` event through
the same :meth:`~repro.runtime.progress.ProgressReporter.on_event` stream
as the driver's, so chaos-run journals record both the injected
cause and the observed recovery (``heartbeat_miss``, ``worker_lost``,
``chunk_migrated``, ...) on one validated timeline — ``obs validate``
gates them in CI exactly like production journals.

Fault kinds (:data:`FAULT_KINDS`):

``kill_worker``
    The worker dies after serving ``after`` chunks: listener and every
    open connection (including heartbeat sessions) close, and future
    dials are refused — a process crash, observed from outside.
``stall_heartbeat``
    The worker stops answering pings after ``after`` pongs but keeps
    serving chunks — a partition of the control path only, which the
    driver must treat as a loss (it cannot distinguish the two).
``refuse_connect``
    The listener accepts and immediately drops connections after the
    first ``after`` — a worker whose accept queue is wedged.
``slow_host``
    Every chunk takes ``seconds`` extra — a deterministic straggler for
    the stealing and chunk-size-adaptation paths.
``drop_frame`` / ``delay_frame`` / ``truncate_frame``
    The worker's ``after``-th result frame (0-based) is swallowed,
    delayed by ``seconds``, or cut off mid-payload — wire-level faults
    the length-prefixed codec must surface as transport errors, never as
    corrupt results.

Determinism contract: faults only ever change *where and when* chunks
run, never what they compute — under every plan the batch's results must
stay bit-identical to serial with unchanged content addresses
(``tests/runtime/test_chaos.py`` asserts exactly that).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FrameFault",
    "WorkerFaults",
    "chaos_matrix",
]

#: The closed set of injectable fault kinds.
FAULT_KINDS: Tuple[str, ...] = (
    "kill_worker",
    "stall_heartbeat",
    "refuse_connect",
    "slow_host",
    "drop_frame",
    "delay_frame",
    "truncate_frame",
)

#: Kinds whose ``after`` field is meaningful (a 0-based count or index).
_COUNTED = {
    "kill_worker": "chunks served",
    "stall_heartbeat": "pongs answered",
    "refuse_connect": "connections accepted",
    "drop_frame": "result frame",
    "delay_frame": "result frame",
    "truncate_frame": "result frame",
}

#: Kinds whose ``seconds`` field is meaningful.
_TIMED = ("slow_host", "delay_frame")


@dataclass(frozen=True)
class Fault:
    """One injectable event of a :class:`FaultPlan`.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    host:
        Index of the target worker in the plan's host list (workers are
        anonymous until bound, so plans address them by position).
    after:
        Kind-specific trigger count — chunks served before a kill, pongs
        answered before a stall, the 0-based result-frame index for the
        frame faults (default 0: trigger at the first opportunity).
    seconds:
        Duration for ``slow_host`` (per chunk) and ``delay_frame``.
    """

    kind: str
    host: int = 0
    after: int = 0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.host < 0:
            raise ValueError(f"fault host index must be >= 0, got {self.host}")
        if self.after < 0:
            raise ValueError(f"fault 'after' must be >= 0, got {self.after}")
        if self.seconds < 0:
            raise ValueError(f"fault 'seconds' must be >= 0, got {self.seconds}")
        if self.kind in _TIMED and self.seconds == 0.0:
            raise ValueError(f"{self.kind} fault needs seconds > 0")

    def as_config(self) -> Dict[str, Any]:
        """Pure-data form (stable field order, JSON-able)."""
        return {
            "kind": self.kind,
            "host": int(self.host),
            "after": int(self.after),
            "seconds": float(self.seconds),
        }

    def describe(self) -> str:
        """One-line human description (journal ``detail`` field)."""
        bits = [f"{self.kind} on host {self.host}"]
        if self.kind in _COUNTED:
            bits.append(f"after {self.after} {_COUNTED[self.kind]}")
        if self.kind in _TIMED or self.seconds:
            bits.append(f"{self.seconds:g}s")
        return ", ".join(bits)


@dataclass(frozen=True)
class FrameFault:
    """A wire-level fault on one result frame (compiled, worker-side form)."""

    frame: int
    mode: str  # "drop" | "delay" | "truncate"
    seconds: float = 0.0


@dataclass(frozen=True)
class WorkerFaults:
    """The compiled per-worker knobs :class:`WorkerServer` honours.

    All fields default to "no fault"; :meth:`FaultPlan.worker_faults`
    builds these, but tests may also construct them directly.
    """

    kill_after_chunks: Optional[int] = None
    slow_seconds: float = 0.0
    stall_heartbeat_after: Optional[int] = None
    refuse_after_sessions: Optional[int] = None
    frame_faults: Tuple[FrameFault, ...] = ()

    def frame_fault_at(self, frame: int) -> Optional[FrameFault]:
        """The fault targeting result frame ``frame``, if any."""
        for fault in self.frame_faults:
            if fault.frame == frame:
                return fault
        return None


@dataclass(frozen=True)
class FaultPlan:
    """A named, reproducible set of fault events for one chaos run.

    ``seed`` identifies the plan (and seeds :meth:`random` generation);
    ``events`` is the explicit fault list.  Plans are pure data — they
    compile to per-worker :class:`WorkerFaults` via :meth:`worker_faults`
    and round-trip through :meth:`as_config`, so a failing chaos run can
    be reproduced from its journal alone.
    """

    seed: int = 0
    events: Tuple[Fault, ...] = ()
    name: str = ""

    def worker_faults(self, host: int) -> WorkerFaults:
        """Compile this plan's events targeting worker index ``host``."""
        kill = stall = refuse = None
        slow = 0.0
        frames: List[FrameFault] = []
        for event in self.events:
            if event.host != host:
                continue
            if event.kind == "kill_worker":
                kill = event.after
            elif event.kind == "stall_heartbeat":
                stall = event.after
            elif event.kind == "refuse_connect":
                refuse = event.after
            elif event.kind == "slow_host":
                slow = event.seconds
            else:  # drop/delay/truncate frame
                frames.append(
                    FrameFault(event.after, event.kind.split("_")[0], event.seconds)
                )
        return WorkerFaults(
            kill_after_chunks=kill,
            slow_seconds=slow,
            stall_heartbeat_after=stall,
            refuse_after_sessions=refuse,
            frame_faults=tuple(frames),
        )

    def hosts_touched(self) -> Tuple[int, ...]:
        """Sorted worker indices any event targets."""
        return tuple(sorted({event.host for event in self.events}))

    def as_config(self) -> Dict[str, Any]:
        """Pure-data form for journals and reproduction."""
        return {
            "seed": int(self.seed),
            "name": self.name,
            "events": [event.as_config() for event in self.events],
        }

    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`as_config` output."""
        return cls(
            seed=int(config.get("seed", 0)),
            name=str(config.get("name", "")),
            events=tuple(Fault(**event) for event in config.get("events", ())),
        )

    @classmethod
    def random(
        cls, seed: int, hosts: int = 3, events: int = 2, name: str = ""
    ) -> "FaultPlan":
        """A seed-reproducible random plan over ``hosts`` workers.

        The same ``(seed, hosts, events)`` always yields the same plan —
        soak tests iterate seeds to walk a reproducible fault space.  At
        most one fault lands per host (faults on distinct hosts compose
        predictably; stacking several on one host mostly shadows them),
        and kill faults are never drawn for host 0 so at least one worker
        survives every random plan.
        """
        if hosts < 1:
            raise ValueError(f"need at least one host, got {hosts}")
        rng = random.Random(int(seed))
        targets = rng.sample(range(hosts), k=min(int(events), hosts))
        drawn: List[Fault] = []
        for host in targets:
            kinds = [k for k in FAULT_KINDS if host != 0 or k != "kill_worker"]
            kind = rng.choice(kinds)
            after = rng.randrange(0, 3)
            seconds = round(rng.uniform(0.05, 0.3), 3) if kind in _TIMED else 0.0
            drawn.append(Fault(kind, host=host, after=after, seconds=seconds))
        return cls(
            seed=int(seed),
            events=tuple(drawn),
            name=name or f"random-{seed}",
        )

    def describe(self) -> str:
        """One-line human description of the whole plan."""
        label = self.name or f"plan-{self.seed}"
        if not self.events:
            return f"{label}: no faults"
        return f"{label}: " + "; ".join(event.describe() for event in self.events)


def chaos_matrix(slow_seconds: float = 0.2) -> Dict[str, FaultPlan]:
    """The canonical fault-plan matrix the chaos suite and CI job run.

    One plan per failure class the acceptance criteria name — worker
    kill, heartbeat stall, frame truncation, slow host — each targeting a
    different worker index so 2- and 3-host runs both exercise it.

    The kill and truncation faults fire on their host's first chunk.
    That chunk heads the host's dealt queue, and a peer steals from a
    queue's tail, only once its own queue is empty, so peers could reach
    that head only after claiming every other chunk of the batch — long
    after the host's thread has claimed it.  How many chunks a host
    serves after its first depends on stealing and latency, so a fault
    keyed to a later chunk fires on some runs only.
    """
    return {
        "kill_worker": FaultPlan(
            seed=101,
            name="kill_worker",
            events=(Fault("kill_worker", host=1, after=0),),
        ),
        "heartbeat_stall": FaultPlan(
            seed=102,
            name="heartbeat_stall",
            events=(Fault("stall_heartbeat", host=1, after=1),),
        ),
        "frame_truncate": FaultPlan(
            seed=103,
            name="frame_truncate",
            events=(Fault("truncate_frame", host=0, after=0),),
        ),
        "slow_host": FaultPlan(
            seed=104,
            name="slow_host",
            events=(Fault("slow_host", host=0, seconds=slow_seconds),),
        ),
    }
