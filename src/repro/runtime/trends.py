"""Trend tracking over content-addressed results stores.

The store answers "have I run this exact experiment?"; this module answers
the longitudinal question a reproduction actually lives on: *are the
numbers moving?*  It walks one or more cache directories, groups artifacts
by **logical experiment** — the ``(tag, group)`` pair, where ``group`` is
the config hash with seeds removed (:func:`~repro.runtime.store.group_key`)
— joins them across git revisions and seed sets, and quantifies drift in
estimation accuracy (*quality*), message overhead (*messages*) and compute
time (*elapsed_seconds*) with the bootstrap machinery from
:mod:`repro.analysis.validation`.

Because identical configs content-address to the same file, a single store
can hold at most one artifact per (config, seed): cross-revision history
therefore lives either in *sibling stores* (the CI layout — one store
directory per revision under a persisted parent, see
:func:`discover_stores`) or in artifacts whose seeds differ.  Both join
naturally here since grouping ignores seeds and store boundaries.

Three consumers sit on top (the ``repro-experiment trends`` CLI family):

* ``report``  — per-group revision trajectory with drift verdicts;
* ``compare`` — two named revisions joined head-to-head;
* ``check``   — current results gated against a committed *baseline*
  (JSON emitted by :func:`make_baseline`): a metric whose mean leaves the
  baseline's bootstrap interval fails the check, which is what turns the
  benchmark suite into a CI regression gate.

Determinism: every bootstrap here is seeded from the (group, metric,
revision) identity via :func:`~repro.sim.rng.derive_seed`, so a baseline
generated on one machine reproduces bit-identically on any other — a
drifting check always means the *results* moved, never the statistics.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.validation import BootstrapCI, bootstrap_mean_ci, variance_ratio_test
from ..sim.rng import derive_seed
from .provenance import (
    DEFAULT_CHECK_METRICS,
    PHASE_METRICS,
    TREND_METRICS,
    metric_values,
    summarize_results,
)
from .store import ArtifactInfo, ResultsStore, _decode_floats, group_key

__all__ = [
    "BASELINE_SCHEMA",
    "TREND_METRICS",
    "CheckOutcome",
    "CheckReport",
    "GroupTrend",
    "MetricComparison",
    "MetricTrend",
    "RevisionPoint",
    "TrendRecord",
    "TrendReport",
    "check_baseline",
    "compare_revisions",
    "discover_stores",
    "load_baseline",
    "make_baseline",
    "scan_stores",
    "trend_report",
]

#: Version stamp of the baseline JSON layout.
BASELINE_SCHEMA = 1

#: Label shown for artifacts that predate revision stamping.
UNKNOWN_REVISION = "(unknown)"


# ----------------------------------------------------------------------
# Scanning and joining
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrendRecord:
    """One artifact's contribution to the trend join.

    A thin view over :class:`ArtifactInfo` with the provenance fields
    resolved: artifacts written before headers carried ``group``/``metrics``
    are *backfilled* by one full read of the file (config → group hash,
    results → metric summary), so pre-provenance caches still join.
    """

    info: ArtifactInfo
    root: pathlib.Path
    group: str
    revision: str
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def tag(self) -> str:
        """The artifact's experiment label (half of the group identity)."""
        return self.info.tag

    @property
    def saved_at(self) -> float:
        """Best-effort save instant: header stamp, else file mtime."""
        return self.info.saved_at or self.info.created

    @property
    def uid(self) -> str:
        """Unique identity of the record across stores.

        The content *key* is not enough: the same config run at two
        revisions lives at the same key in two sibling stores, so joins
        must discriminate by path.
        """
        return str(self.info.path)


def _is_store_root(path: pathlib.Path) -> bool:
    """True when ``path`` holds the store's two-level fan-out layout."""
    try:
        return any(path.glob("??/*.json"))
    except OSError:  # pragma: no cover - unreadable directory
        return False


def discover_stores(root: Union[str, pathlib.Path], max_depth: int = 2) -> List[pathlib.Path]:
    """Store roots at or below ``root`` (depth-limited, sorted).

    Accepts either a store directory itself or a parent holding one store
    per revision (the CI cache layout ``<parent>/<git-sha>/``); nested
    stores under a store root are not searched.
    """
    root = pathlib.Path(root)
    found: List[pathlib.Path] = []

    def walk(path: pathlib.Path, depth: int) -> None:
        """Collect store roots under ``path`` up to ``max_depth``."""
        if _is_store_root(path):
            found.append(path)
            return
        if depth >= max_depth or not path.is_dir():
            return
        for child in sorted(p for p in path.iterdir() if p.is_dir()):
            walk(child, depth + 1)

    walk(root, 0)
    return found


def _backfill(info: ArtifactInfo) -> Tuple[str, Dict[str, Any]]:
    """Group hash + metric summary for a pre-provenance artifact.

    The one place enumeration pays for a full parse — only for artifacts
    old enough to lack header provenance, and never fatally (unreadable
    files yield empty provenance and are dropped by the join).
    """
    from .trials import TrialResult

    try:
        with info.path.open() as fh:
            artifact = json.load(fh)
        group = group_key(artifact["config"])
        results = [
            TrialResult.from_dict(item)
            for item in _decode_floats(artifact["results"])
        ]
    except (OSError, ValueError, KeyError, TypeError):
        return "", {}
    return group, summarize_results(results)


def scan_stores(
    roots: Sequence[Union[str, pathlib.Path]],
) -> List[TrendRecord]:
    """Enumerate every artifact under ``roots`` as trend records.

    Each root may be a store or a parent of stores (see
    :func:`discover_stores`).  Enumeration is header-only except for
    legacy artifacts, which are backfilled by one full read.  Records
    without a resolvable group are skipped.
    """
    records: List[TrendRecord] = []
    for root in roots:
        for store_root in discover_stores(root):
            for info in ResultsStore(store_root).artifacts():
                if info.payload == "snapshot":
                    # Replay-state snapshots (docs/SNAPSHOTS.md) carry no
                    # metrics and must not masquerade as experiment runs.
                    continue
                group = info.group
                metrics: Dict[str, Any] = dict(info.metrics or {})
                if not group:
                    group, metrics = _backfill(info)
                    if not group:
                        continue
                records.append(
                    TrendRecord(
                        info=info,
                        root=store_root,
                        group=group,
                        revision=info.revision or UNKNOWN_REVISION,
                        metrics=metrics,
                    )
                )
    records.sort(key=lambda r: (r.tag, r.group, r.saved_at, r.info.key))
    return records


def group_records(
    records: Iterable[TrendRecord],
) -> Dict[Tuple[str, str], List[TrendRecord]]:
    """Join records into logical experiments keyed by ``(tag, group)``."""
    out: Dict[Tuple[str, str], List[TrendRecord]] = {}
    for record in records:
        out.setdefault((record.tag, record.group), []).append(record)
    return out


def record_metric_samples(record: TrendRecord) -> Dict[str, List[float]]:
    """Raw per-trial samples of one artifact, loaded from its payload.

    ``quality``/``messages`` come from the stored trial results (full
    read); ``elapsed_seconds`` is a single header-level sample.  Artifacts
    whose payload no longer parses contribute nothing (consistent with the
    store treating them as misses).
    """
    from .trials import TrialResult

    out: Dict[str, List[float]] = {}
    try:
        with record.info.path.open() as fh:
            artifact = json.load(fh)
        results = [
            TrialResult.from_dict(item)
            for item in _decode_floats(artifact["results"])
        ]
    except (OSError, ValueError, KeyError, TypeError):
        results = []
    if results:
        out.update(metric_values(results))
    elapsed = record.metrics.get("elapsed_seconds")
    if isinstance(elapsed, (int, float)):
        out["elapsed_seconds"] = [float(elapsed)]
    # Phase timings are never persisted in the payload (telemetry only);
    # their cross-revision history is the header summary's mean.
    for metric in PHASE_METRICS:
        summary = record.metrics.get(metric)
        if isinstance(summary, Mapping) and isinstance(
            summary.get("mean"), (int, float)
        ):
            out[metric] = [float(summary["mean"])]
    return out


# ----------------------------------------------------------------------
# Trend report (revision trajectories + drift verdicts)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RevisionPoint:
    """One revision's aggregate of one metric within a group."""

    revision: str
    ci: BootstrapCI
    samples: int
    artifacts: int
    first_saved_at: float


@dataclass(frozen=True)
class MetricTrend:
    """One metric's trajectory across revisions, oldest first.

    ``drifted`` is set when the newest revision's mean falls outside the
    oldest revision's bootstrap interval; ``variance_ratio``/``noisier``
    compare their spreads (:func:`variance_ratio_test`) when both sides
    have enough samples.
    """

    metric: str
    points: List[RevisionPoint]
    drifted: bool
    delta: float
    variance_ratio: Optional[float] = None
    noisier: bool = False


@dataclass(frozen=True)
class GroupTrend:
    """Every tracked metric of one logical experiment."""

    tag: str
    group: str
    trials: int
    revisions: List[str]
    metrics: List[MetricTrend]

    @property
    def drifted(self) -> bool:
        """True when any metric of this experiment drifted."""
        return any(m.drifted for m in self.metrics)


@dataclass(frozen=True)
class TrendReport:
    """The full cross-store join: one :class:`GroupTrend` per experiment."""

    groups: List[GroupTrend]
    records: int
    stores: List[pathlib.Path]

    @property
    def drifted(self) -> bool:
        """True when any experiment in the report drifted."""
        return any(g.drifted for g in self.groups)


def _bootstrap_rng(group: str, metric: str, revision: str) -> int:
    """Fixed bootstrap seed: statistics never add noise to a verdict."""
    return derive_seed(0, f"trends:{group}:{metric}:{revision}")


def _revision_buckets(
    records: Sequence[TrendRecord],
) -> List[Tuple[str, List[TrendRecord]]]:
    """Records split by revision, ordered oldest-first by save instant."""
    buckets: Dict[str, List[TrendRecord]] = {}
    for record in records:
        buckets.setdefault(record.revision, []).append(record)
    return sorted(
        buckets.items(), key=lambda kv: (min(r.saved_at for r in kv[1]), kv[0])
    )


def _metric_points(
    group: str,
    metric: str,
    buckets: Sequence[Tuple[str, List[TrendRecord]]],
    samples: Mapping[str, Dict[str, List[float]]],
    confidence: float,
) -> List[RevisionPoint]:
    points: List[RevisionPoint] = []
    for revision, recs in buckets:
        values = [v for r in recs for v in samples[r.uid].get(metric, ())]
        if not values:
            continue
        ci = bootstrap_mean_ci(
            values,
            confidence=confidence,
            rng=_bootstrap_rng(group, metric, revision),
        )
        points.append(
            RevisionPoint(
                revision=revision,
                ci=ci,
                samples=len(values),
                artifacts=len(recs),
                first_saved_at=min(r.saved_at for r in recs),
            )
        )
    return points


def trend_report(
    roots: Sequence[Union[str, pathlib.Path]],
    metrics: Sequence[str] = TREND_METRICS,
    confidence: float = 0.95,
) -> TrendReport:
    """Join all artifacts under ``roots`` and compute per-group trends."""
    records = scan_stores(roots)
    samples = {r.uid: record_metric_samples(r) for r in records}
    groups: List[GroupTrend] = []
    for (tag, group), recs in sorted(group_records(records).items()):
        buckets = _revision_buckets(recs)
        trends: List[MetricTrend] = []
        for metric in metrics:
            points = _metric_points(group, metric, buckets, samples, confidence)
            if not points:
                continue
            first, last = points[0], points[-1]
            drifted = len(points) > 1 and not first.ci.contains(last.ci.mean)
            ratio: Optional[float] = None
            noisier = False
            if len(points) > 1:
                first_vals = [
                    v
                    for rev, rs in buckets
                    if rev == first.revision
                    for r in rs
                    for v in samples[r.uid].get(metric, ())
                ]
                last_vals = [
                    v
                    for rev, rs in buckets
                    if rev == last.revision
                    for r in rs
                    for v in samples[r.uid].get(metric, ())
                ]
                if len(first_vals) >= 3 and len(last_vals) >= 3:
                    ratio, noisier = variance_ratio_test(
                        last_vals,
                        first_vals,
                        confidence=confidence,
                        rng=_bootstrap_rng(group, metric, "variance"),
                    )
            trends.append(
                MetricTrend(
                    metric=metric,
                    points=points,
                    drifted=drifted,
                    delta=last.ci.mean - first.ci.mean,
                    variance_ratio=ratio,
                    noisier=noisier,
                )
            )
        if trends:
            groups.append(
                GroupTrend(
                    tag=tag,
                    group=group,
                    trials=sum(r.info.trials for r in recs),
                    revisions=[rev for rev, _ in buckets],
                    metrics=trends,
                )
            )
    stores = sorted({r.root for r in records})
    return TrendReport(groups=groups, records=len(records), stores=stores)


# ----------------------------------------------------------------------
# Revision comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricComparison:
    """One metric of one group, revision A vs revision B."""

    tag: str
    group: str
    metric: str
    a: RevisionPoint
    b: RevisionPoint
    drifted: bool
    delta: float
    variance_ratio: Optional[float] = None
    noisier: bool = False


def _match_revision(records: Sequence[TrendRecord], rev: str) -> Optional[str]:
    """Resolve a (possibly abbreviated) revision against scanned records."""
    revisions = {r.revision for r in records}
    if rev in revisions:
        return rev
    matches = sorted(r for r in revisions if r.startswith(rev))
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise ValueError(f"revision {rev!r} is ambiguous: {matches}")
    return None


def compare_revisions(
    roots: Sequence[Union[str, pathlib.Path]],
    rev_a: str,
    rev_b: str,
    metrics: Sequence[str] = TREND_METRICS,
    confidence: float = 0.95,
) -> List[MetricComparison]:
    """Head-to-head join of every group present at both revisions.

    ``rev_a``/``rev_b`` may be unique prefixes.  Raises :class:`ValueError`
    when a revision matches nothing in the scanned stores (comparing
    against a revision that never ran is operator error, not an empty
    report).
    """
    records = scan_stores(roots)
    full_a = _match_revision(records, rev_a)
    full_b = _match_revision(records, rev_b)
    missing = [r for r, f in ((rev_a, full_a), (rev_b, full_b)) if f is None]
    if missing:
        raise ValueError(
            f"no artifacts at revision(s) {missing!r}; "
            f"have {sorted({r.revision for r in records})}"
        )
    # Only the two selected revisions contribute samples; don't pay a full
    # payload parse for every other revision in an accumulated trend store.
    samples = {
        r.uid: record_metric_samples(r)
        for r in records
        if r.revision in (full_a, full_b)
    }
    out: List[MetricComparison] = []
    for (tag, group), recs in sorted(group_records(records).items()):
        side_a = [r for r in recs if r.revision == full_a]
        side_b = [r for r in recs if r.revision == full_b]
        if not side_a or not side_b:
            continue
        for metric in metrics:
            points = _metric_points(
                group,
                metric,
                [(full_a, side_a), (full_b, side_b)],
                samples,
                confidence,
            )
            if len(points) != 2:
                continue
            pa, pb = points
            vals_a = [v for r in side_a for v in samples[r.uid].get(metric, ())]
            vals_b = [v for r in side_b for v in samples[r.uid].get(metric, ())]
            ratio: Optional[float] = None
            noisier = False
            if len(vals_a) >= 3 and len(vals_b) >= 3:
                ratio, noisier = variance_ratio_test(
                    vals_b,
                    vals_a,
                    confidence=confidence,
                    rng=_bootstrap_rng(group, metric, "variance"),
                )
            out.append(
                MetricComparison(
                    tag=tag,
                    group=group,
                    metric=metric,
                    a=pa,
                    b=pb,
                    drifted=not pa.ci.contains(pb.ci.mean),
                    delta=pb.ci.mean - pa.ci.mean,
                    variance_ratio=ratio,
                    noisier=noisier,
                )
            )
    return out


# ----------------------------------------------------------------------
# Baselines and the CI gate
# ----------------------------------------------------------------------


def make_baseline(
    roots: Sequence[Union[str, pathlib.Path]],
    revision: Optional[str] = None,
    metrics: Sequence[str] = DEFAULT_CHECK_METRICS,
    confidence: float = 0.95,
) -> Dict[str, Any]:
    """Serialize the current state of the stores as a baseline document.

    One bootstrap interval per (group, metric) at ``revision`` (default:
    each group's newest revision).  The document is plain JSON intended to
    be committed to the repository; :func:`check_baseline` gates future
    runs against it.
    """
    records = scan_stores(roots)
    if revision is not None:
        full = _match_revision(records, revision)
        if full is None:
            raise ValueError(f"no artifacts at revision {revision!r}")
    samples: Dict[str, Dict[str, List[float]]] = {}
    groups: Dict[str, Any] = {}
    for (tag, group), recs in sorted(group_records(records).items()):
        buckets = _revision_buckets(recs)
        if revision is None:
            rev, rev_records = buckets[-1]
        else:
            sel = [b for b in buckets if b[0] == full]
            if not sel:
                continue
            rev, rev_records = sel[0]
        for r in rev_records:
            if r.uid not in samples:
                samples[r.uid] = record_metric_samples(r)
        entry_metrics: Dict[str, Any] = {}
        for metric in metrics:
            points = _metric_points(
                group, metric, [(rev, rev_records)], samples, confidence
            )
            if not points:
                continue
            point = points[0]
            entry_metrics[metric] = {
                "mean": point.ci.mean,
                "lower": point.ci.lower,
                "upper": point.ci.upper,
                "confidence": confidence,
                "samples": point.samples,
            }
        if entry_metrics:
            groups[group] = {
                "tag": tag,
                "revision": rev,
                "metrics": entry_metrics,
            }
    return {
        "baseline_schema": BASELINE_SCHEMA,
        "generated_at": time.time(),
        "metrics": list(metrics),
        "groups": groups,
    }


def load_baseline(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Parse and validate a baseline document."""
    with pathlib.Path(path).open() as fh:
        doc = json.load(fh)
    if not isinstance(doc, Mapping) or doc.get("baseline_schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: not a trends baseline (expected baseline_schema="
            f"{BASELINE_SCHEMA})"
        )
    if not isinstance(doc.get("groups"), Mapping):
        raise ValueError(f"{path}: baseline has no 'groups' mapping")
    return dict(doc)


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict for one (group, metric) against the baseline.

    ``status`` is ``"ok"`` (mean inside the baseline interval), ``"drift"``
    (outside), or ``"missing"`` (the baseline expects the experiment but
    the scanned stores hold no current results for it).
    """

    tag: str
    group: str
    metric: str
    status: str
    baseline_mean: float
    baseline_lower: float
    baseline_upper: float
    observed_mean: Optional[float] = None
    observed_samples: int = 0
    revision: str = ""

    @property
    def failed(self) -> bool:
        """True when the metric drifted or went missing."""
        return self.status != "ok"


@dataclass(frozen=True)
class CheckReport:
    """Every baseline entry checked, plus groups new since the baseline."""

    outcomes: List[CheckOutcome]
    new_groups: List[Tuple[str, str]]
    revision: str

    @property
    def failures(self) -> List[CheckOutcome]:
        """The outcomes that drifted or went missing."""
        return [o for o in self.outcomes if o.failed]

    @property
    def ok(self) -> bool:
        """True when every baselined metric is within its interval."""
        return not self.failures


def check_baseline(
    roots: Sequence[Union[str, pathlib.Path]],
    baseline: Mapping[str, Any],
    revision: Optional[str] = None,
    metrics: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Gate the stores' current results against a committed baseline.

    For every (group, metric) in the baseline the *current* mean — at
    ``revision`` when given, else the group's newest revision — is tested
    against the baseline's bootstrap interval.  A mean outside the
    interval is ``drift``; a group with no current artifacts is
    ``missing`` (an experiment silently dropping out of the benchmark
    matrix must not pass a regression gate).  Groups present in the stores
    but absent from the baseline are reported as *new*, never failures:
    adding experiments is not a regression.
    """
    records = scan_stores(roots)
    full: Optional[str] = None
    if revision is not None:
        full = _match_revision(records, revision)
        if full is None:
            raise ValueError(f"no artifacts at revision {revision!r}")
    wanted = set(metrics) if metrics is not None else None
    grouped = group_records(records)
    by_group: Dict[str, Tuple[str, List[TrendRecord]]] = {}
    for (tag, group), recs in grouped.items():
        by_group[group] = (tag, recs)
    # Payloads are parsed lazily, only for the records of each baselined
    # group's checked revision — never for the rest of the trend history.
    samples: Dict[str, Dict[str, List[float]]] = {}

    outcomes: List[CheckOutcome] = []
    checked_revision = full or ""
    for group, entry in sorted(baseline["groups"].items()):
        tag = str(entry.get("tag", ""))
        entry_metrics = entry.get("metrics")
        if not isinstance(entry_metrics, Mapping):
            continue
        current = by_group.get(group)
        rev_records: List[TrendRecord] = []
        rev = ""
        if current is not None:
            tag = current[0] or tag
            buckets = _revision_buckets(current[1])
            if full is not None:
                sel = [b for b in buckets if b[0] == full]
                if sel:
                    rev, rev_records = sel[0]
            else:
                rev, rev_records = buckets[-1]
        if not checked_revision and rev:
            checked_revision = rev
        for r in rev_records:
            if r.uid not in samples:
                samples[r.uid] = record_metric_samples(r)
        for metric, bounds in sorted(entry_metrics.items()):
            if wanted is not None and metric not in wanted:
                continue
            base_mean = float(bounds["mean"])
            lower = float(bounds["lower"])
            upper = float(bounds["upper"])
            values = [
                v
                for r in rev_records
                for v in samples[r.uid].get(metric, ())
            ]
            if not values:
                outcomes.append(
                    CheckOutcome(
                        tag=tag,
                        group=group,
                        metric=metric,
                        status="missing",
                        baseline_mean=base_mean,
                        baseline_lower=lower,
                        baseline_upper=upper,
                        revision=rev,
                    )
                )
                continue
            mean = sum(values) / len(values)
            status = "ok" if lower <= mean <= upper else "drift"
            outcomes.append(
                CheckOutcome(
                    tag=tag,
                    group=group,
                    metric=metric,
                    status=status,
                    baseline_mean=base_mean,
                    baseline_lower=lower,
                    baseline_upper=upper,
                    observed_mean=mean,
                    observed_samples=len(values),
                    revision=rev,
                )
            )
    new_groups = sorted(
        (tag, group)
        for (tag, group) in grouped
        if group not in baseline["groups"]
    )
    return CheckReport(
        outcomes=outcomes, new_groups=new_groups, revision=checked_revision
    )
