"""Provenance and metric summaries stamped into artifact headers.

The trend tracker (:mod:`repro.runtime.trends`) joins artifacts across git
revisions, so every artifact must record *which code produced it* and *what
its results look like* without forcing readers to parse the (potentially
large) trial payload.  Two pieces live here:

* :func:`detect_git_revision` — the commit hash of the working tree, taken
  from ``$REPRO_GIT_REVISION`` when set (CI jobs export it so detached
  checkouts and shallow clones stay cheap) and from ``git rev-parse HEAD``
  otherwise.  Resolution is memoized per directory: one subprocess per
  process lifetime, not one per artifact save.
* :func:`summarize_results` / :func:`metric_values` — the per-artifact
  metric summary (estimation *quality*, message *overhead*) reduced to
  scalar statistics small enough for the header's bounded prefix read.

Quality is the paper's figure-of-merit: ``100 * estimate / true_size``
(100 = perfect).  Message counts exist only for trial kinds that account
them (``fresh_probe`` records ``extra["messages"]``); kinds without
accounting simply omit the metric rather than reporting zeros.
"""

from __future__ import annotations

import math
import os
import subprocess
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .obs import PHASES

if TYPE_CHECKING:  # annotations only: the store and the CLI need no trial runners
    from .trials import TrialResult

__all__ = [
    "DEFAULT_CHECK_METRICS",
    "PHASE_METRICS",
    "TREND_METRICS",
    "detect_git_revision",
    "metric_values",
    "phase_metric_values",
    "summarize_results",
]

#: Header-metric names of the worker-side phase timings (one per phase of
#: :data:`repro.runtime.obs.PHASES`).  Timing metrics are machine-dependent:
#: reported for trend inspection, excluded from deterministic CI gates.
PHASE_METRICS = tuple(f"phase_{name}" for name in PHASES)

#: Metrics the trend tracker (:mod:`repro.runtime.trends`) knows how to
#: extract.  ``quality`` and ``messages`` are per-trial samples
#: (:func:`metric_values`); ``elapsed_seconds`` and the ``phase_*``
#: timings are header-level samples (machine-dependent — reported, but
#: excluded from CI gating defaults).
TREND_METRICS: Tuple[str, ...] = (
    "quality",
    "messages",
    "elapsed_seconds",
) + PHASE_METRICS

#: Metrics deterministic at fixed seeds — the sensible CI gate set.
DEFAULT_CHECK_METRICS: Tuple[str, ...] = ("quality", "messages")

#: Environment override consulted before asking git (CI sets this).
REVISION_ENV = "REPRO_GIT_REVISION"

_revision_cache: Dict[str, str] = {}


def detect_git_revision(cwd: Optional[str] = None) -> str:
    """Commit hash identifying the code that is running, or ``""``.

    ``$REPRO_GIT_REVISION`` wins when set (and non-empty); otherwise
    ``git rev-parse HEAD`` runs once per ``cwd`` and is memoized.  Outside
    a work tree — or without a ``git`` binary — the revision is simply
    unknown: artifact saves must never fail over provenance.
    """
    env = os.environ.get(REVISION_ENV)
    if env:
        return env.strip()
    key = cwd or os.getcwd()
    if key not in _revision_cache:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
            )
            out = proc.stdout.strip()
            _revision_cache[key] = out if proc.returncode == 0 and out else ""
        except (OSError, subprocess.SubprocessError):
            _revision_cache[key] = ""
    return _revision_cache[key]


def metric_values(results: Sequence[TrialResult]) -> Dict[str, List[float]]:
    """Per-trial metric samples extracted from a result batch.

    Returns ``{"quality": [...], "messages": [...]}`` with absent metrics
    omitted entirely.  Not-ok trials, empty overlays and non-finite
    estimates are dropped — identical to how the figure renderers filter.
    """
    quality: List[float] = []
    messages: List[float] = []
    for r in results:
        if r.ok and math.isfinite(r.value):
            if r.extra and "quality" in r.extra:
                # Convergence-style kinds store a per-round quality curve
                # and put the final quality in ``value`` directly.
                quality.append(float(r.value))
            elif r.true_size > 0:
                quality.append(100.0 * float(r.value) / float(r.true_size))
        if r.extra and isinstance(r.extra.get("messages"), (int, float)):
            messages.append(float(r.extra["messages"]))
    out: Dict[str, List[float]] = {}
    if quality:
        out["quality"] = quality
    if messages:
        out["messages"] = messages
    return out


def _stats(values: Sequence[float]) -> Dict[str, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return {"mean": mean, "std": math.sqrt(var), "min": min(values), "max": max(values), "n": n}


def phase_metric_values(results: Sequence[TrialResult]) -> Dict[str, List[float]]:
    """Per-phase timing samples from the results' observability profiles.

    Per-trial phases (estimation) contribute one sample per trial;
    chunk-level phases (boot/restore/churn) one sample per chunk.  Results
    loaded from the store carry no profiles (telemetry is never persisted
    in the payload) and contribute nothing — phase history across
    revisions instead lives in the artifact header summaries this module
    produces.
    """
    out: Dict[str, List[float]] = {}
    for r in results:
        profile = r.profile or {}
        for name, seconds in (profile.get("phases") or {}).items():
            out.setdefault(f"phase_{name}", []).append(float(seconds))
        chunk = profile.get("chunk") or {}
        for name, seconds in (chunk.get("phases") or {}).items():
            out.setdefault(f"phase_{name}", []).append(float(seconds))
    return out


def summarize_results(results: Sequence[TrialResult]) -> Dict[str, Dict[str, float]]:
    """Scalar summary of a batch — the header's ``metrics`` block.

    One ``{mean, std, min, max, n}`` entry per available metric, covering
    the result metrics (:func:`metric_values`) and the worker-side phase
    timings (:func:`phase_metric_values`).  Kept to a handful of floats so
    headers stay within the store's bounded header-probe window regardless
    of trial count.
    """
    samples = dict(metric_values(results))
    samples.update(phase_metric_values(results))
    return {metric: _stats(vals) for metric, vals in samples.items()}
