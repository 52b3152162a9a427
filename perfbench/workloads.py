"""The benchmark's four workloads, at full and at toy size.

Each workload is plain data; :mod:`rep` runs one repetition of it.  The
toy sizes exist for the harness tests and keep every layer busy at a
fraction of the cost.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The workload seed when ``--seed`` is not given (the catalogue's default).
DEFAULT_SEED = 20060619
#: A second seed with committed digests, never used while tuning.
HELD_OUT_SEED = 4242


@dataclass(frozen=True)
class Batch:
    """A catalogue figure run through ``run_trials`` (one cold batch)."""

    name: str
    #: Figure function in :mod:`repro.experiments` (``dynamic`` or ``static``).
    figure: str
    #: Overrides applied to the ``default`` scale preset.
    scale: Tuple[Tuple[str, int], ...]
    workers: int = 1
    backend: str = "dict"
    #: Loopback ``worker serve`` hosts (0 = process pool / serial).
    hosts: int = 0
    #: Rerun the first and last estimation points serially and require the
    #: batch's rows bit for bit (the determinism contract), at any seed.
    serial_check: bool = False

    def scale_obj(self):
        from repro.experiments.config import resolve_scale

        return dataclasses.replace(
            resolve_scale("default"), name=f"bench-{self.name}", **dict(self.scale)
        )

    def expected_keys(self) -> List[Tuple[int, int]]:
        """Every ``(index, stream)`` pair the figure must produce."""
        scale = self.scale_obj()
        if self.figure == "fig11_sc_shrinking":
            return [(i, k) for i in range(1, scale.dynamic_estimations + 1) for k in range(3)]
        count = max(scale.static_estimations_1m, 20)
        return [(i, 0) for i in range(1, count + 1)]


@dataclass(frozen=True)
class Service:
    """A ``serve`` subprocess under open-loop reads and writes."""

    name: str
    nodes: int
    estimators: Tuple[str, ...] = ("sample_collide", "aggregation")
    #: Checkpoint cadence in rounds.  At 5 rounds/s in a 12-second run the
    #: checkpoints land at ~3.5, 7.1 and 10.7 s, none within 0.6 s of a
    #: phase boundary (6, 8, 10 s), so every phase holds the same number
    #: of them on every run.
    snapshot_every: int = 18
    #: Reads per second of the base phase (the latency metrics' rate).
    base_rate: float = 200.0
    #: Share of ``--seconds`` spent at the base rate; the rest is the ladder.
    base_share: float = 0.5
    #: Read rates tried after the base phase, in order, until one misses.
    #: One generator thread with the shipped client sustains the top rate
    #: on a 2-core machine even when it runs slow (tests/test_loadgen.py);
    #: 1600/s it does not always.
    ladder: Tuple[float, ...] = (400.0, 600.0, 800.0)
    #: Write pairs (ingest + tick) per second, for the whole load.
    write_rate: float = 5.0
    #: Each write ingests ``randint(0, churn)`` joins and as many leaves.
    churn: int = 10
    #: Read p99 limit (ms) a ladder step must meet.  It sits above the
    #: longest tick — one that also writes a ~1.7 MB checkpoint, ~350 ms —
    #: so the service as measured here meets it at the base rate.
    limit_ms: float = 500.0
    #: Framed-JSON round trips timed on one connection in a traced run.
    binary_requests: int = 300

    def phase_seconds(self, seconds: float) -> Tuple[float, float]:
        """``(base, per ladder step)`` durations for a run of ``seconds``."""
        base = max(1.0, seconds * self.base_share)
        step = max(0.5, (seconds - base) / len(self.ladder))
        return base, step


WORKLOADS: Dict[str, object] = {
    "churn_pool": Batch(
        name="churn_pool",
        figure="fig11_sc_shrinking",
        scale=(),
        workers=2,
        serial_check=True,
    ),
    "static_large": Batch(
        name="static_large",
        figure="fig04_hops_sampling_1m",
        scale=(("n_1m", 200_000),),
        backend="array",
    ),
    "service_mixed": Service(name="service_mixed", nodes=20_000),
    "cluster_churn": Batch(
        name="cluster_churn",
        figure="fig11_sc_shrinking",
        scale=(("n_100k", 100_000),),
        backend="array",
        hosts=2,
    ),
}

#: The same workloads shrunk for tests: every layer still does some work.
TOY: Dict[str, object] = {
    "churn_pool": dataclasses.replace(
        WORKLOADS["churn_pool"], scale=(("n_100k", 1_500), ("dynamic_estimations", 8))
    ),
    "static_large": dataclasses.replace(
        WORKLOADS["static_large"], scale=(("n_1m", 3_000),)
    ),
    "service_mixed": dataclasses.replace(
        WORKLOADS["service_mixed"], nodes=1_500, snapshot_every=3, binary_requests=20
    ),
    "cluster_churn": dataclasses.replace(
        WORKLOADS["cluster_churn"], scale=(("n_100k", 2_000), ("dynamic_estimations", 8))
    ),
}


def get(name: str, toy: bool = False):
    table = TOY if toy else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]
