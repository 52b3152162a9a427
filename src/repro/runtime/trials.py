"""Trial model: picklable (config, seed, index) units and their runners.

A :class:`TrialSpec` captures one independent estimation of one experiment
as pure data: which trial *kind* to run, the master seed of the
experiment's :class:`~repro.sim.rng.RngHub`, the trial index, and declarative
specs for the overlay and estimator.  Because every trial derives its
randomness from ``(hub_seed, index)`` alone — via the hub's stateless
``child``/``stream`` derivation — a batch of specs can be executed in any
order, in any process, and the merged results are bit-identical to a serial
run.

Chunks of specs that share a context (same overlay, same churn trace) are
executed together by a *chunk runner* so the worker warms up once per
chunk: the overlay is built a single time, and churn-driven kinds resume
the scenario from a hand-off snapshot when the executor supplies one
(:mod:`repro.runtime.snapshots`), else replay the membership trace from
t=0 (churn draws from its own named stream, so replaying events without
estimating reproduces the serial graph state exactly).  Serial and
one-chunk runs, the pool's partial fallback and boundaries the snapshot
backbone cannot serve take that prefix replay.

For backwards compatibility the ``overlay``/``estimator`` slots also accept
live objects (an :class:`~repro.overlay.graph.OverlayGraph`, a factory
closure).  Such specs are *not portable*: they cannot be pickled to workers
or hashed into a store key, so the executor runs them serially in-process
as one chunk — the graceful-fallback path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..churn.models import ChurnEvent, ChurnTrace
from ..churn.scheduler import ChurnScheduler
from ..core import kernels as _kernels
from ..core.aggregation import AggregationMonitor, AggregationProtocol
from ..core.base import EstimatorError
from ..core.hops_sampling import HopsSamplingEstimator
from ..core.idspace import IdSpaceSpec, IntervalDensityEstimator
from ..core.random_tour import RandomTourEstimator
from ..core.sample_collide import SampleCollideEstimator
from ..overlay.builders import (
    heterogeneous_random,
    homogeneous_random,
    ring_lattice,
    scale_free,
)
from ..overlay.graph import OverlayGraph
from ..overlay.repair import RepairPolicySpec
from ..sim.latency import LatencySpec
from ..overlay.views import degree_histogram, degree_stats, powerlaw_exponent
from ..sim.rng import RngHub, derive_seed
from ..sim.rounds import RoundDriver
from .obs import chunk_profiler, phase
from .snapshots import SNAPSHOT_KINDS, ProbeReplayState, RepairReplayState

__all__ = [
    "EstimatorSpec",
    "IdSpaceSpec",
    "LatencySpec",
    "OverlaySpec",
    "RepairPolicySpec",
    "TrialResult",
    "TrialSpec",
    "BACKEND_KINDS",
    "DELAY_PRICINGS",
    "ESTIMATOR_BUILDERS",
    "ESTIMATOR_RNG_BUILDERS",
    "ESTIMATOR_STREAMS",
    "OVERLAY_BUILDERS",
    "TRIAL_KINDS",
    "apply_graph_backend",
    "run_chunk",
    "trace_from_payload",
    "trace_to_payload",
]

# Kernel work inside estimators surfaces as the ``kernel`` phase of chunk
# profiles; the hook keeps :mod:`repro.core.kernels` runtime-agnostic.
_kernels.set_phase_recorder(phase)


# ----------------------------------------------------------------------
# Churn-trace payloads (JSON-able mirror of ChurnTrace)
# ----------------------------------------------------------------------


def trace_to_payload(trace: ChurnTrace) -> List[Dict[str, float]]:
    """Flatten a trace into a list of plain event dicts (JSON/pickle safe).

    Only non-default fields are emitted so payloads hash stably.
    """
    payload: List[Dict[str, float]] = []
    for ev in trace:
        item: Dict[str, float] = {"time": float(ev.time)}
        if ev.joins:
            item["joins"] = int(ev.joins)
        if ev.leaves:
            item["leaves"] = int(ev.leaves)
        if ev.frac_joins:
            item["frac_joins"] = float(ev.frac_joins)
        if ev.frac_leaves:
            item["frac_leaves"] = float(ev.frac_leaves)
        payload.append(item)
    return payload


def trace_from_payload(payload: Sequence[Mapping[str, float]]) -> ChurnTrace:
    """Rebuild a fresh (unconsumed) :class:`ChurnTrace` from a payload."""
    return ChurnTrace(ChurnEvent(**item) for item in payload)


def _as_trace(value: Union[ChurnTrace, Sequence[Mapping[str, float]]]) -> ChurnTrace:
    if isinstance(value, ChurnTrace):
        return value
    return trace_from_payload(value)


# ----------------------------------------------------------------------
# Declarative overlay / estimator specs
# ----------------------------------------------------------------------

#: builder name -> callable(hub, **params) -> OverlayGraph.  Stream names
#: match the historical runner code so spec-built overlays are identical to
#: the ones the figure functions used to build inline.  Builders that take a
#: ``stream`` parameter let callers reproduce experiments that historically
#: drew the overlay from a non-default hub channel (the topology ablation
#: uses "het"/"hom"); the default always matches the runner's lineage.
OVERLAY_BUILDERS: Dict[str, Callable[..., OverlayGraph]] = {
    "heterogeneous": lambda hub, n, max_degree=10, min_degree=1, stream="overlay": (
        heterogeneous_random(
            n, max_degree=max_degree, min_degree=min_degree, rng=hub.stream(stream)
        )
    ),
    "homogeneous": lambda hub, n, k=8, stream="overlay": homogeneous_random(
        n, k=k, rng=hub.stream(stream)
    ),
    "ring_lattice": lambda hub, n, k=2: ring_lattice(n, k=k),
    "scale_free": lambda hub, n, m=3: scale_free(n, m=m, rng=hub.stream("overlay.sf")),
}


@dataclass(frozen=True)
class OverlaySpec:
    """Declarative, picklable description of an overlay build."""

    builder: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.builder not in OVERLAY_BUILDERS:
            raise ValueError(
                f"unknown overlay builder {self.builder!r}; "
                f"have {sorted(OVERLAY_BUILDERS)}"
            )

    def build(self, hub: RngHub) -> OverlayGraph:
        """Deterministically materialize the overlay from ``hub``."""
        return OVERLAY_BUILDERS[self.builder](hub, **self.params)

    def as_config(self) -> Dict[str, Any]:
        """Plain-dict form for content addressing."""
        return {"builder": self.builder, "params": dict(self.params)}

    @classmethod
    def heterogeneous(
        cls,
        n: int,
        max_degree: int = 10,
        min_degree: int = 1,
        stream: str = "overlay",
    ) -> "OverlaySpec":
        """The paper's standard heterogeneous random overlay.

        ``stream`` names the hub channel the builder draws from; it is only
        recorded (and only perturbs the content address) when it differs
        from the historical default.
        """
        params = {
            "n": int(n),
            "max_degree": int(max_degree),
            "min_degree": int(min_degree),
        }
        if stream != "overlay":
            params["stream"] = stream
        return cls("heterogeneous", params)

    @classmethod
    def homogeneous(cls, n: int, k: int = 8, stream: str = "overlay") -> "OverlaySpec":
        """The §IV-A near-``k``-regular overlay (topology ablation)."""
        params: Dict[str, Any] = {"n": int(n), "k": int(k)}
        if stream != "overlay":
            params["stream"] = stream
        return cls("homogeneous", params)

    @classmethod
    def ring_lattice(cls, n: int, k: int = 2) -> "OverlaySpec":
        """Deterministic worst-case-expansion ring (timer ablation)."""
        return cls("ring_lattice", {"n": int(n), "k": int(k)})

    @classmethod
    def scale_free(cls, n: int, m: int = 3) -> "OverlaySpec":
        """The Fig 7/8 Barabási–Albert overlay."""
        return cls("scale_free", {"n": int(n), "m": int(m)})


class _AggregationEpoch:
    """One fixed-length Aggregation epoch wrapped as a one-shot estimator.

    The topology ablation compares Aggregation head-to-head with the probe
    estimators; this adapter gives ``AggregationProtocol(...).estimate(rounds=r)``
    the same ``.estimate()`` surface the probe kinds expose.
    """

    def __init__(self, graph: OverlayGraph, rng, rounds: int = 50) -> None:
        self._protocol = AggregationProtocol(graph, rng=rng)
        self._rounds = int(rounds)

    def estimate(self):
        """Run one fresh epoch and return its :class:`Estimate`."""
        return self._protocol.estimate(rounds=self._rounds)


#: estimator kind -> callable(graph, rng, **params) building the estimator
#: from an *explicit* generator.  This is the primitive layer: the hub-based
#: builders below and the ``fresh_probe`` trial kind (which must reproduce
#: ``hub.fresh(name)`` lineages exactly) both construct through it.
ESTIMATOR_RNG_BUILDERS: Dict[str, Callable[..., Any]] = {
    "sample_collide": lambda graph, rng, l=200, timer=10.0, backend="dict": (
        SampleCollideEstimator(graph, l=l, timer=timer, rng=rng, backend=backend)
    ),
    "hops_sampling": lambda graph, rng, gossip_to=2, min_hops_reporting=5, oracle_distances=False, backend="dict": (
        HopsSamplingEstimator(
            graph,
            gossip_to=gossip_to,
            min_hops_reporting=min_hops_reporting,
            oracle_distances=oracle_distances,
            rng=rng,
            backend=backend,
        )
    ),
    "random_tour": lambda graph, rng: RandomTourEstimator(graph, rng=rng),
    "aggregation_epoch": lambda graph, rng, rounds=50: _AggregationEpoch(
        graph, rng, rounds=rounds
    ),
    # The shared IdentifierSpace is worker-local context, not spec data:
    # ``idspace_probe`` injects it via ``build_with_rng(space=...)``.
    "interval_density": lambda graph, rng, k=50, space=None: IntervalDensityEstimator(
        graph, space=space, k=k, rng=rng
    ),
}

#: Hub channel each kind draws from when built via a hub.  "sc"/"hops"
#: match the factories previously defined inline in the figure modules,
#: preserving RNG lineage.
ESTIMATOR_STREAMS: Dict[str, str] = {
    "sample_collide": "sc",
    "hops_sampling": "hops",
    "random_tour": "rt",
    "aggregation_epoch": "agg",
    "interval_density": "ids",
}

#: Estimator kinds that accept a ``backend`` parameter (the batched-kernel
#: graph representations of :mod:`repro.core.kernels`).  Kinds outside the
#: set — e.g. the inherently sequential random tour — always run on the
#: dict reference and are left untouched by :func:`apply_graph_backend`.
BACKEND_KINDS = frozenset({"sample_collide", "hops_sampling"})


def _hub_builder(kind: str) -> Callable[..., Any]:
    def build(graph: OverlayGraph, hub: RngHub, **params: Any) -> Any:
        """Build the estimator drawing from its historical hub stream."""
        return ESTIMATOR_RNG_BUILDERS[kind](
            graph, hub.stream(ESTIMATOR_STREAMS[kind]), **params
        )

    return build


#: estimator kind -> callable(graph, hub, **params) (hub-stream lineage).
ESTIMATOR_BUILDERS: Dict[str, Callable[..., Any]] = {
    kind: _hub_builder(kind) for kind in ESTIMATOR_RNG_BUILDERS
}


@dataclass(frozen=True)
class EstimatorSpec:
    """Declarative, picklable description of an estimator instantiation."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_BUILDERS:
            raise ValueError(
                f"unknown estimator {self.kind!r}; have {sorted(ESTIMATOR_BUILDERS)}"
            )

    def build(self, graph: OverlayGraph, hub: RngHub):
        """Instantiate the estimator on ``graph`` drawing RNG from ``hub``."""
        return ESTIMATOR_BUILDERS[self.kind](graph, hub, **self.params)

    def build_with_rng(self, graph: OverlayGraph, rng, **context):
        """Instantiate the estimator with an explicit generator.

        Used by trial kinds that must reproduce a specific historical RNG
        lineage (``fresh_probe`` derives one generator per repetition).
        ``context`` passes worker-local objects the spec cannot carry —
        e.g. the shared :class:`~repro.core.idspace.IdentifierSpace` of
        ``idspace_probe`` — and never enters the content address.
        """
        return ESTIMATOR_RNG_BUILDERS[self.kind](
            graph, rng, **{**self.params, **context}
        )

    def as_config(self) -> Dict[str, Any]:
        """Plain-dict form for content addressing."""
        return {"kind": self.kind, "params": dict(self.params)}

    def with_backend(self, backend: str) -> "EstimatorSpec":
        """Copy of this spec pinned to a graph ``backend``.

        Only meaningful for kinds in :data:`BACKEND_KINDS`; other kinds
        are returned unchanged.  ``"dict"`` *removes* the key — the
        reference backend is the unrecorded default, so historical
        artifacts (hashed before the parameter existed) stay addressable,
        while ``"array"`` perturbs the content address on purpose: its
        Sample&Collide results are distributionally, not bitwise,
        equivalent.
        """
        if self.kind not in BACKEND_KINDS:
            return self
        params = {k: v for k, v in self.params.items() if k != "backend"}
        if backend != "dict":
            params["backend"] = backend
        if params == self.params:
            return self
        return EstimatorSpec(self.kind, params)

    @classmethod
    def sample_collide(
        cls, l: int = 200, timer: float = 10.0, backend: str = "dict"
    ) -> "EstimatorSpec":
        """The §III-A Sample&Collide estimator (sample size ``l``)."""
        spec = cls("sample_collide", {"l": int(l), "timer": float(timer)})
        return spec.with_backend(backend)

    @classmethod
    def hops_sampling(
        cls,
        gossip_to: int = 2,
        min_hops_reporting: int = 5,
        oracle_distances: bool = False,
        backend: str = "dict",
    ) -> "EstimatorSpec":
        """The §III-B HopsSampling estimator (gossip poll + hop histogram)."""
        params = {
            "gossip_to": int(gossip_to),
            "min_hops_reporting": int(min_hops_reporting),
        }
        # Only recorded when enabled so pre-existing artifacts (hashed
        # without the key) stay addressable.
        if oracle_distances:
            params["oracle_distances"] = True
        return cls("hops_sampling", params).with_backend(backend)

    @classmethod
    def random_tour(cls) -> "EstimatorSpec":
        """The §II random-walk baseline (cost-gap ablation)."""
        return cls("random_tour", {})

    @classmethod
    def aggregation_epoch(cls, rounds: int = 50) -> "EstimatorSpec":
        """One fixed-length Aggregation epoch as a one-shot estimate."""
        return cls("aggregation_epoch", {"rounds": int(rounds)})

    @classmethod
    def interval_density(cls, k: int = 50) -> "EstimatorSpec":
        """The §I id-density estimator (idspace ablation).

        The shared :class:`~repro.core.idspace.IdentifierSpace` is built
        worker-side from the batch's :class:`IdSpaceSpec` and injected via
        ``build_with_rng(space=...)``.
        """
        return cls("interval_density", {"k": int(k)})


# ----------------------------------------------------------------------
# TrialSpec / TrialResult
# ----------------------------------------------------------------------

OverlayLike = Union[OverlaySpec, OverlayGraph, None]
EstimatorLike = Union[EstimatorSpec, Callable, None]


@dataclass(frozen=True)
class TrialSpec:
    """One independent trial as a (config, seed, index) unit.

    Parameters
    ----------
    kind:
        Key into :data:`TRIAL_KINDS` selecting the chunk runner.
    hub_seed:
        Master seed of the experiment's :class:`RngHub`; every random draw
        of the trial derives from it and ``index`` alone.
    index:
        Trial number within the experiment (1-based estimation number for
        probe kinds, 0-based run number for aggregation kinds — whatever
        the serial code historically used, so RNG lineage is preserved).
    overlay / estimator:
        Declarative specs (portable) or live objects (in-process only).
    params:
        Kind-specific extras (churn-trace payload, horizon, rounds, …).
    stream:
        Sub-stream id for kinds that run several estimation streams over
        one churning overlay (Figs 9-14).
    overlay_seed:
        Hub seed the overlay is built from when it differs from
        ``hub_seed`` (Fig 8 builds the overlay from the figure hub but runs
        each series under a child hub).
    """

    kind: str
    hub_seed: int
    index: int
    overlay: OverlayLike = None
    estimator: EstimatorLike = None
    params: Dict[str, Any] = field(default_factory=dict)
    stream: int = 0
    overlay_seed: Optional[int] = None

    @property
    def portable(self) -> bool:
        """True when the spec can be pickled to a worker and content-hashed."""
        if self.overlay is not None and not isinstance(self.overlay, OverlaySpec):
            return False
        if self.estimator is not None and not isinstance(
            self.estimator, EstimatorSpec
        ):
            return False
        return _jsonable(self.params)

    def as_config(self) -> Dict[str, Any]:
        """Canonical per-trial configuration (raises on live objects)."""
        if not self.portable:
            raise TypeError(
                "spec holds live objects (graph/closure/trace) and cannot "
                "be content-addressed; use OverlaySpec/EstimatorSpec and "
                "JSON-able params"
            )
        return {
            "kind": self.kind,
            "hub_seed": int(self.hub_seed),
            "index": int(self.index),
            "stream": int(self.stream),
            "overlay": self.overlay.as_config() if self.overlay else None,
            "overlay_seed": self.overlay_seed,
            "estimator": self.estimator.as_config() if self.estimator else None,
            "params": dict(self.params),
        }


def _jsonable(value: Any) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _jsonable(v) for k, v in value.items())
    return False


def apply_graph_backend(
    specs: Sequence["TrialSpec"], backend: str
) -> List["TrialSpec"]:
    """Pin every kernel-capable estimator spec in ``specs`` to ``backend``.

    The funnel :func:`~repro.runtime.api.run_trials` applies to a batch
    when :attr:`~repro.runtime.api.RuntimeOptions.graph_backend` is set:
    estimator specs of :data:`BACKEND_KINDS` get the backend injected into
    their params (see :meth:`EstimatorSpec.with_backend` for the
    content-address rules), everything else passes through unchanged —
    including live-object specs, which are not portable anyway.
    """
    if backend not in _kernels.GRAPH_BACKENDS:
        raise ValueError(
            f"unknown graph backend {backend!r}; have {_kernels.GRAPH_BACKENDS}"
        )
    out: List[TrialSpec] = []
    for spec in specs:
        if isinstance(spec.estimator, EstimatorSpec):
            pinned = spec.estimator.with_backend(backend)
            if pinned is not spec.estimator:
                spec = replace(spec, estimator=pinned)
        out.append(spec)
    return out


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial.

    ``value``/``true_size`` cover the scalar probe kinds; kinds that
    produce whole curves (aggregation) carry them in ``extra``.

    ``profile`` carries worker-side phase timings attached by
    :func:`run_chunk` (see :mod:`repro.runtime.obs`).  It is pure
    telemetry: excluded from equality (``compare=False``) and from
    :meth:`as_dict`, so stored artifacts and determinism comparisons are
    byte-identical whether or not profiling ran.
    """

    index: int
    value: float
    true_size: float
    stream: int = 0
    ok: bool = True
    extra: Optional[Dict[str, Any]] = None
    profile: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form for the results store."""
        out: Dict[str, Any] = {
            "index": int(self.index),
            "value": float(self.value),
            "true_size": float(self.true_size),
        }
        if self.stream:
            out["stream"] = int(self.stream)
        if not self.ok:
            out["ok"] = False
        if self.extra is not None:
            out["extra"] = self.extra
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrialResult":
        """Rebuild a result from its :meth:`as_dict` form (store reads)."""
        return cls(
            index=int(data["index"]),
            value=float(data["value"]),
            true_size=float(data["true_size"]),
            stream=int(data.get("stream", 0)),
            ok=bool(data.get("ok", True)),
            extra=data.get("extra"),
        )


# ----------------------------------------------------------------------
# Chunk runners
# ----------------------------------------------------------------------


#: Kinds whose chunk runner mutates the overlay (churn): they must build a
#: fresh graph per chunk and must never share a memoized instance.
_MUTATING_KINDS = frozenset(
    {"dynamic_probe", "multi_probe", "agg_dynamic", "repair_replay"}
)

#: Per-process memo of the last few spec-built overlays.  Static kinds only
#: read the graph, and spec builds are deterministic, so sharing one
#: instance across chunks/batches (e.g. Fig 8's three series over one
#: scale-free overlay) changes nothing but the build count.
_GRAPH_CACHE: Dict[str, OverlayGraph] = {}
_GRAPH_CACHE_LIMIT = 4


def _chunk_graph(spec: TrialSpec) -> OverlayGraph:
    """The chunk's overlay: built from the spec, or the live graph as-is."""
    if isinstance(spec.overlay, OverlaySpec):
        seed = spec.hub_seed if spec.overlay_seed is None else spec.overlay_seed
        if spec.kind in _MUTATING_KINDS:
            with phase("boot"):
                return spec.overlay.build(RngHub(seed))
        key = f"{seed}:{sorted(spec.overlay.as_config()['params'].items())}:{spec.overlay.builder}"
        graph = _GRAPH_CACHE.get(key)
        if graph is None:
            with phase("boot"):
                graph = spec.overlay.build(RngHub(seed))
            while len(_GRAPH_CACHE) >= _GRAPH_CACHE_LIMIT:
                _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
            _GRAPH_CACHE[key] = graph
        return graph
    if isinstance(spec.overlay, OverlayGraph):
        return spec.overlay
    raise TypeError(f"trial kind {spec.kind!r} needs an overlay, got {spec.overlay!r}")


def _make_estimator(spec: TrialSpec, graph: OverlayGraph, hub: RngHub):
    if isinstance(spec.estimator, EstimatorSpec):
        return spec.estimator.build(graph, hub)
    if callable(spec.estimator):
        return spec.estimator(graph, hub)
    raise TypeError(f"trial kind {spec.kind!r} needs an estimator")


def _run_static_probe(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Independent one-shot estimations on a static overlay (Figs 1-4, 8, 18)."""
    first = specs[0]
    hub = RngHub(first.hub_seed)
    graph = _chunk_graph(first)
    out: List[TrialResult] = []
    for spec in specs:
        est = _make_estimator(spec, graph, hub.child(f"run{spec.index}"))
        with phase("estimation", (spec.index, spec.stream)):
            value = float(est.estimate().value)
        out.append(
            TrialResult(
                index=spec.index,
                value=value,
                true_size=float(graph.size),
                stream=spec.stream,
            )
        )
    return out


def _scalar_meta(meta: Mapping[str, Any]) -> Dict[str, Any]:
    """The JSON-safe scalar slice of an estimate's diagnostics."""
    out: Dict[str, Any] = {}
    for k, v in meta.items():
        if isinstance(v, (np.integer, np.floating)):
            v = v.item()
        if isinstance(v, (bool, int, float, str)):
            out[k] = v
    return out


def _fresh_results(
    specs: Sequence[TrialSpec],
    graph: OverlayGraph,
    make_estimator: Callable[[TrialSpec, Any], Any],
) -> List[TrialResult]:
    """Shared loop of the ``hub.fresh``-lineage probe kinds.

    The ablation tables historically drew one generator per repetition via
    :meth:`~repro.sim.rng.RngHub.fresh`: the ``k``-th call for a name seeds
    from ``derive_seed(hub_seed, f"{name}#{k}")``.  Here each spec's
    ``index`` *is* that counter value and ``params["fresh_name"]`` the
    stream label, so a batch reproduces the serial draws bit-for-bit in any
    execution order and at any worker count.  Message cost and the scalar
    diagnostics land in ``extra`` (``messages``, ``meta``) for the tables'
    overhead columns.
    """
    out: List[TrialResult] = []
    for spec in specs:
        name = spec.params["fresh_name"]
        if not isinstance(spec.estimator, EstimatorSpec):
            raise TypeError(f"{spec.kind} trials require an EstimatorSpec")
        rng = np.random.default_rng(
            derive_seed(spec.hub_seed, f"{name}#{spec.index}")
        )
        with phase("estimation", (spec.index, spec.stream)):
            est = make_estimator(spec, rng).estimate()
        out.append(
            TrialResult(
                index=spec.index,
                value=float(est.value),
                true_size=float(graph.size),
                stream=spec.stream,
                extra={
                    "messages": int(est.messages),
                    "meta": _scalar_meta(est.meta),
                },
            )
        )
    return out


def _run_fresh_probe(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Repetition-style estimations with ``hub.fresh`` lineage (ablations)."""
    graph = _chunk_graph(specs[0])
    return _fresh_results(
        specs, graph, lambda spec, rng: spec.estimator.build_with_rng(graph, rng)
    )


def _run_idspace_probe(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Fresh-lineage estimations against a worker-built identifier space.

    Like ``fresh_probe``, but the estimator is constructed around a shared
    :class:`~repro.core.idspace.IdentifierSpace` materialized inside the
    worker from the batch's :class:`IdSpaceSpec` (``params["idspace"]``).
    Ids draw from the hub stream the spec names — independent of the
    per-repetition fresh generators — so every chunk rebuilds the exact
    same id assignment and chunk boundaries cannot perturb results.
    """
    first = specs[0]
    graph = _chunk_graph(first)
    space = IdSpaceSpec.from_config(first.params.get("idspace") or {}).build(
        graph, RngHub(first.hub_seed)
    )
    return _fresh_results(
        specs,
        graph,
        lambda spec, rng: spec.estimator.build_with_rng(graph, rng, space=space),
    )


def _replay_probe(
    specs: Sequence[TrialSpec],
    estimate_at: Callable[[int, OverlayGraph, RngHub], List[TrialResult]],
    state: Optional[ProbeReplayState] = None,
) -> List[TrialResult]:
    """Shared churn-replay skeleton for the probe-under-churn kinds.

    Advances the churn schedule step by step exactly as the serial loop
    did; ``estimate_at`` is invoked for each step so the kind decides which
    trials (if any) run there.  Replay is exact because churn consumes only
    the hub's ``"churn"`` stream while estimations draw from per-index
    child hubs.

    With a ``state`` (restored by :func:`run_chunk` from a boundary
    snapshot) the replay *resumes* there instead of rebuilding the overlay
    and replaying the churn prefix from t=0 — the state hand-off that
    makes chunked replay O(horizon) total.  ``None`` boots the scenario.
    Restored or not, the step loop visits identical states, so results
    are bit-identical either way.
    """
    if state is None:
        with phase("boot"):
            state = ProbeReplayState.boot(specs[0])
    last = max(spec.index for spec in specs)
    out: List[TrialResult] = []
    for i in range(state.position + 1, last + 1):
        with phase("churn"):
            state.advance(i)
        if state.dead:
            break
        out.extend(estimate_at(i, state.graph, state.hub))
    return out


def _run_dynamic_probe(
    specs: Sequence[TrialSpec],
    state: Optional[ProbeReplayState] = None,
) -> List[TrialResult]:
    """Probe-style estimations interleaved with churn (single stream)."""
    wanted = {spec.index: spec for spec in specs}

    def estimate_at(i: int, graph: OverlayGraph, hub: RngHub) -> List[TrialResult]:
        """One estimation at step ``i`` when the batch wants one there."""
        spec = wanted.get(i)
        if spec is None:
            return []
        try:
            with phase("estimation", (i, spec.stream)):
                value = float(
                    _make_estimator(spec, graph, hub.child(f"run{i}")).estimate().value
                )
        except EstimatorError:
            value = float("nan")
        return [TrialResult(index=i, value=value, true_size=float(graph.size))]

    return _replay_probe(specs, estimate_at, state)


def _run_multi_probe(
    specs: Sequence[TrialSpec],
    state: Optional[ProbeReplayState] = None,
) -> List[TrialResult]:
    """Several estimation streams over one churning overlay (Figs 9-14)."""
    by_index: Dict[int, List[TrialSpec]] = {}
    for spec in specs:
        by_index.setdefault(spec.index, []).append(spec)

    def estimate_at(i: int, graph: OverlayGraph, hub: RngHub) -> List[TrialResult]:
        """All wanted streams' estimations at step ``i``, stream order."""
        out = []
        for spec in sorted(by_index.get(i, ()), key=lambda s: s.stream):
            try:
                est = _make_estimator(spec, graph, hub.child(f"s{spec.stream}r{i}"))
                with phase("estimation", (i, spec.stream)):
                    value = float(est.estimate().value)
            except EstimatorError:
                value = float("nan")
            out.append(
                TrialResult(
                    index=i,
                    value=value,
                    true_size=float(graph.size),
                    stream=spec.stream,
                )
            )
        return out

    return _replay_probe(specs, estimate_at, state)


def _run_agg_convergence(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Per-round convergence curves, one epoch per trial (Figs 5-6)."""
    first = specs[0]
    hub = RngHub(first.hub_seed)
    graph = _chunk_graph(first)
    n = graph.size
    out: List[TrialResult] = []
    for spec in specs:
        rounds = int(spec.params["rounds"])
        proto = AggregationProtocol(
            graph, rng=hub.child(f"agg{spec.index}").stream("proto")
        )
        with phase("estimation", (spec.index, spec.stream)):
            proto.start_epoch()
            qs: List[float] = []
            for _ in range(rounds):
                proto.run_round()
                try:
                    qs.append(float(proto.read().quality(n)))
                except EstimatorError:  # pragma: no cover - initiator always has value
                    qs.append(0.0)
        out.append(
            TrialResult(
                index=spec.index,
                value=qs[-1] if qs else float("nan"),
                true_size=float(n),
                extra={"quality": qs},
            )
        )
    return out


def _run_agg_epoch(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Fresh fixed-length epoch per trial on a static overlay (Fig 8).

    The i-th trial's RNG reproduces the i-th ``hub.fresh("proto")`` draw of
    the historical serial loop.
    """
    first = specs[0]
    graph = _chunk_graph(first)
    n = graph.size
    out: List[TrialResult] = []
    for spec in specs:
        rng = np.random.default_rng(
            derive_seed(spec.hub_seed, f"proto#{spec.index - 1}")
        )
        proto = AggregationProtocol(graph, rng=rng)
        with phase("estimation", (spec.index, spec.stream)):
            est = proto.estimate(rounds=int(spec.params.get("rounds", 50)))
        out.append(
            TrialResult(index=spec.index, value=float(est.value), true_size=float(n))
        )
    return out


def _run_agg_dynamic(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Continuous Aggregation monitoring under churn, one run per trial
    (Figs 15-17).  Each run builds its own overlay from its run hub."""
    first = specs[0]
    hub = RngHub(first.hub_seed)
    out: List[TrialResult] = []
    for spec in specs:
        p = spec.params
        run_hub = hub.child(f"aggdyn{spec.index}")
        if not isinstance(spec.overlay, OverlaySpec):
            raise TypeError("agg_dynamic trials require an OverlaySpec")
        with phase("boot"):
            graph = spec.overlay.build(run_hub)
        driver = RoundDriver()
        scheduler = ChurnScheduler(
            graph,
            _as_trace(p["trace"]),
            rng=run_hub.stream("churn"),
            max_degree=int(p.get("max_degree", 10)),
        )
        scheduler.attach(driver)
        monitor = AggregationMonitor(
            graph,
            restart_interval=int(p["restart_interval"]),
            rng=run_hub.stream("monitor"),
        )
        monitor.attach(driver)
        sizes: List[int] = []
        driver.subscribe(lambda rnd, g=graph, s=sizes: s.append(g.size), priority=30)
        # Churn and continuous monitoring advance in lock step inside the
        # driver; the inseparable scenario run is attributed to estimation.
        with phase("estimation", (spec.index, spec.stream)):
            driver.run(int(p["horizon"]))

        xs: List[float] = []
        ests: List[float] = []
        trues: List[float] = []
        for rnd, (est, size) in enumerate(zip(monitor.series, sizes), start=1):
            if size > 0:
                xs.append(float(rnd))
                ests.append(float(est))
                trues.append(float(size))
        out.append(
            TrialResult(
                index=spec.index,
                value=ests[-1] if ests else float("nan"),
                true_size=trues[-1] if trues else 0.0,
                ok=bool(ests),
                extra={
                    "x": xs,
                    "estimates": ests,
                    "true": trues,
                    "failures": int(monitor.failures),
                },
            )
        )
    return out


#: Pricing sequence of the delay ablation.  The serial study priced the
#: four completion-time rows in exactly this order, all consuming one
#: shared ``"lat"`` latency stream, so replay must walk the same order;
#: a ``delay_probe`` spec's ``index`` is a position in this tuple.
DELAY_PRICINGS = ("sc_sequential", "sc_parallel", "hops", "aggregation")


def _run_delay_probe(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Latency-model pricing of measured protocol structures (delay ablation).

    One chunk = one overlay + one measurement pass + a pricing replay.
    The real S&C and HopsSampling estimators run once per chunk on their
    own hub streams (``"sc"``/``"hops"``) to measure execution structure
    (walks, hops per walk, spread rounds); the :class:`LatencySpec`-built
    model then prices the :data:`DELAY_PRICINGS` sequence, drawing every
    latency from the shared ``"lat"`` stream in that fixed order.  A chunk
    starting mid-sequence replays the earlier pricings' draws and discards
    them — the latency-stream analogue of churn-prefix replay — so each
    trial depends only on ``(hub_seed, index)``.
    """
    first = specs[0]
    p = first.params
    hub = RngHub(first.hub_seed)
    graph = _chunk_graph(first)
    model = LatencySpec.from_config(p["latency"]).build(rng=hub.stream("lat"))
    with phase("estimation"):
        sc_est = ESTIMATOR_RNG_BUILDERS["sample_collide"](
            graph, hub.stream("sc"), **p.get("sc", {})
        ).estimate()
        hops_params = dict(p.get("hops", {}))
        hops_est = ESTIMATOR_RNG_BUILDERS["hops_sampling"](
            graph, hub.stream("hops"), **hops_params
        ).estimate()

    walks = int(sc_est.meta["draws"])
    hops_per_walk = sc_est.meta["walk_hops"] / max(walks, 1)
    spread_rounds = int(hops_est.meta["spread_rounds"])
    agg_rounds = int(p["agg_rounds"])
    fanout = int(hops_params.get("gossip_to", 2))
    structure = {
        "walks": walks,
        "hops_per_walk": float(hops_per_walk),
        "spread_rounds": spread_rounds,
        "agg_rounds": agg_rounds,
    }
    pricings = (
        lambda: model.sample_collide_delay(walks, hops_per_walk, parallel_walks=False),
        lambda: model.sample_collide_delay(walks, hops_per_walk, parallel_walks=True),
        lambda: model.hops_sampling_delay(spread_rounds, fanout=fanout),
        lambda: model.aggregation_delay(agg_rounds),
    )
    wanted = {spec.index: spec for spec in specs}
    last = max(wanted)
    if not (0 <= min(wanted) and last < len(pricings)):
        raise ValueError(
            f"delay_probe index out of range: have pricings 0..{len(pricings) - 1}"
        )
    out: List[TrialResult] = []
    for i in range(last + 1):
        breakdown = pricings[i]()
        spec = wanted.get(i)
        if spec is None:
            continue
        out.append(
            TrialResult(
                index=i,
                value=float(breakdown.total),
                true_size=float(graph.size),
                stream=spec.stream,
                extra={"pricing": DELAY_PRICINGS[i], **structure},
            )
        )
    return out


def _run_repair_replay(
    specs: Sequence[TrialSpec],
    state: Optional[RepairReplayState] = None,
) -> List[TrialResult]:
    """Aggregation monitoring under churn *with overlay repair* (Fig 17
    revisited).  One chunk = one scenario replay: churn (``"churn"``
    stream), the :class:`RepairPolicySpec`-built maintenance policy
    (``"rep"`` stream) and the monitor (``"monitor"`` stream) all advance
    in lock step up to the chunk's highest wanted round, exactly as the
    serial loop did — a chunk holding only late rounds reproduces the
    identical prefix because every draw comes from named hub streams.
    With a ``state`` (restored by :func:`run_chunk` from a boundary
    snapshot) the replay resumes at the captured round instead of
    rebuilding from round 1; ``None`` boots the scenario.  Each trial
    records the held estimate and true size at its round, plus the
    *cumulative* repair traffic and failed-epoch count in ``extra``
    (``messages``/``failures``), so the final round carries the serial
    run's totals.
    """
    if state is None:
        with phase("boot"):
            state = RepairReplayState.boot(specs[0])
    base = state.position
    if min(spec.index for spec in specs) < 1:
        raise ValueError("repair_replay indices are 1-based round numbers")
    last = max(spec.index for spec in specs)
    with phase("churn"):
        state.advance(last)

    wanted = {spec.index: spec for spec in specs}
    out: List[TrialResult] = []
    for i in range(base + 1, last + 1):
        spec = wanted.get(i)
        if spec is None:
            continue
        size, repair_msgs, failures = state.records[i - base - 1]
        out.append(
            TrialResult(
                index=i,
                value=float(state.monitor.series[i - base - 1]),
                true_size=float(size),
                stream=spec.stream,
                extra={"messages": int(repair_msgs), "failures": int(failures)},
            )
        )
    return out


def _run_overlay_stats(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """One overlay realization reduced to degree statistics (Fig 7).

    The trial's ``value`` is the mean degree and ``true_size`` the node
    count; ``extra`` carries the full ``(degree, count)`` histogram, the
    :class:`~repro.overlay.views.DegreeStats` scalars, the ML power-law
    exponent and ``average_degree`` (exactly ``graph.average_degree()``,
    for consumers like Table I's analytic overhead models).  Everything is
    a pure function of the built graph, so the result is as deterministic
    as the overlay build itself.
    """
    graph = _chunk_graph(specs[0])
    with phase("estimation"):
        hist = degree_histogram(graph)
        stats = degree_stats(graph)
        try:
            exponent = float(powerlaw_exponent(graph))
        except ValueError:
            exponent = float("nan")
        extra = {
            "histogram": [[int(d), int(c)] for d, c in hist],
            "powerlaw_exponent": exponent,
            "average_degree": float(graph.average_degree()),
            **{k: v for k, v in stats.as_dict().items() if k != "n"},
        }
    return [
        TrialResult(
            index=spec.index,
            value=float(stats.mean_degree),
            true_size=float(graph.size),
            stream=spec.stream,
            extra=extra,
        )
        for spec in specs
    ]


def _run_stream_epoch(specs: Sequence[TrialSpec]) -> List[TrialResult]:
    """Sequential Aggregation epochs drawing one shared hub stream (Table I).

    The historical serial code ran ``AggregationProtocol(graph,
    rng=hub.stream(name)).estimate(rounds=r)``: consecutive estimates on
    one protocol instance consume one *continuous* generator.  Here the
    i-th trial is the i-th ``estimate()`` call, so a chunk starting
    mid-sequence replays (and discards) the earlier epochs' draws — the
    same prefix-replay contract as ``delay_probe`` — making each trial a
    function of ``(hub_seed, index)`` alone.  ``extra`` records the
    epoch's message count for the tables' overhead columns.
    """
    first = specs[0]
    p = first.params
    hub = RngHub(first.hub_seed)
    graph = _chunk_graph(first)
    proto = AggregationProtocol(graph, rng=hub.stream(str(p.get("stream", "agg"))))
    rounds = int(p.get("rounds", 50))
    wanted = {spec.index: spec for spec in specs}
    if min(wanted) < 0:
        raise ValueError("stream_epoch indices are 0-based epoch numbers")
    out: List[TrialResult] = []
    for i in range(max(wanted) + 1):
        spec = wanted.get(i)
        key = (i, spec.stream) if spec is not None else None
        with phase("estimation", key):
            est = proto.estimate(rounds=rounds)
        if spec is None:
            continue
        out.append(
            TrialResult(
                index=i,
                value=float(est.value),
                true_size=float(graph.size),
                stream=spec.stream,
                extra={
                    "messages": int(est.messages),
                    "meta": _scalar_meta(est.meta),
                },
            )
        )
    return out


#: trial kind -> chunk runner.  Extend to open new workloads.  Runners of
#: kinds in :data:`~repro.runtime.snapshots.SNAPSHOT_KINDS` additionally
#: accept the chunk's restored replay state (or ``None``) as second
#: argument.
TRIAL_KINDS: Dict[str, Callable[..., List[TrialResult]]] = {
    "static_probe": _run_static_probe,
    "fresh_probe": _run_fresh_probe,
    "idspace_probe": _run_idspace_probe,
    "delay_probe": _run_delay_probe,
    "dynamic_probe": _run_dynamic_probe,
    "multi_probe": _run_multi_probe,
    "repair_replay": _run_repair_replay,
    "agg_convergence": _run_agg_convergence,
    "agg_epoch": _run_agg_epoch,
    "agg_dynamic": _run_agg_dynamic,
    "overlay_stats": _run_overlay_stats,
    "stream_epoch": _run_stream_epoch,
}


def run_chunk(
    specs: Sequence[TrialSpec],
    snapshot: Optional[Mapping[str, Any]] = None,
) -> List[TrialResult]:
    """Execute one chunk of same-kind specs; the process-pool entry point.

    ``snapshot`` — accepted only for churn-replay kinds (the keys of
    :data:`~repro.runtime.snapshots.SNAPSHOT_KINDS`) — is the predecessor
    chunk's replay state at this chunk's start boundary: the runner resumes
    there instead of replaying the churn prefix from t=0.  ``None`` — the
    serial path, and any chunk the executor has no boundary for — replays
    the prefix instead; results are bit-identical either way.

    The payload is restored here and this function's reference to it is
    dropped before the replay starts, so a caller that keeps no reference
    of its own (a worker host) frees the payload's arrays once the
    restored overlay stops using them, at the chunk's first departure.
    """
    if not specs:
        return []
    kinds = {spec.kind for spec in specs}
    if len(kinds) != 1:
        raise ValueError(f"chunk mixes trial kinds: {sorted(kinds)}")
    kind = specs[0].kind
    try:
        runner = TRIAL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown trial kind {kind!r}; have {sorted(TRIAL_KINDS)}"
        ) from None
    if snapshot is not None and kind not in SNAPSHOT_KINDS:
        raise ValueError(f"trial kind {kind!r} does not accept a replay snapshot")
    with chunk_profiler() as prof:
        if kind in SNAPSHOT_KINDS:
            state = None
            if snapshot is not None:
                with phase("restore"):
                    state = SNAPSHOT_KINDS[kind].restore(specs[0], snapshot)
                del snapshot
            results = runner(specs, state)
        else:
            results = runner(specs)
    return _attach_profiles(results, prof)


def _attach_profiles(results: List[TrialResult], prof) -> List[TrialResult]:
    """Attach worker-side phase timings to each result (telemetry only).

    The chunk-level summary (pid, epoch start, shared boot/restore/churn
    phases) rides on the first result so exactly one copy crosses the
    pickle channel per chunk.
    """
    summary = prof.chunk_summary()
    out: List[TrialResult] = []
    for pos, result in enumerate(results):
        trial = prof.trials.get((result.index, result.stream))
        profile: Dict[str, Any] = dict(trial) if trial else {"phases": {}}
        if pos == 0:
            profile["chunk"] = summary
        out.append(replace(result, profile=profile))
    return out
