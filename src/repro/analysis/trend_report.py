"""Terminal and markdown rendering of trend-tracking output.

The :mod:`repro.runtime.trends` subsystem produces structured reports
(revision trajectories, head-to-head comparisons, baseline checks); this
module turns them into aligned ASCII tables for the terminal and pipe
tables for markdown (CI job summaries, PR comments).  Rendering is kept
apart from the computation so the JSON emitters and these humans-first
views never drift apart structurally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # imported for annotations only: rendering a report
    # needs none of the computation (its store, statistics or numpy).
    from ..runtime.trends import (
        CheckReport,
        MetricComparison,
        TrendReport,
    )

__all__ = [
    "render_check_report",
    "render_comparison",
    "render_trend_report",
]


def _short(revision: str, width: int = 10) -> str:
    if not revision:
        return "-"
    return revision if len(revision) <= width else revision[:width] + ".."


def _fmt(value: float) -> str:
    """Compact numeric formatting across the metric ranges we print
    (qualities near 100, message counts in the thousands, sub-second
    runtimes)."""
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.2f}"
    return f"{value:.4g}"


def _ci(mean: float, lower: float, upper: float) -> str:
    return f"{_fmt(mean)} [{_fmt(lower)}, {_fmt(upper)}]"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]], markdown: bool) -> str:
    """One table, GitHub-pipe style under ``markdown`` else space-aligned."""
    if markdown:
        out = ["| " + " | ".join(headers) + " |"]
        out.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            out.append("| " + " | ".join(row) + " |")
        return "\n".join(out) + "\n"
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def render_trend_report(report: TrendReport, markdown: bool = False) -> str:
    """Per-group revision trajectories with drift verdicts."""
    if not report.groups:
        if report.records:
            return (
                f"{report.records} artifact(s) scanned but none expose the "
                "requested metric(s)\n"
            )
        return "no artifacts found (empty or unreadable store directories)\n"
    blocks: List[str] = []
    for group in report.groups:
        title = (
            f"{group.tag or '(untagged)'} [{group.group[:10]}] — "
            f"{len(group.revisions)} revision(s), {group.trials} trial(s)"
        )
        blocks.append(f"### {title}" if markdown else title)
        rows: List[List[str]] = []
        for trend in group.metrics:
            first = trend.points[0]
            for point in trend.points:
                is_last = point is trend.points[-1]
                delta = (
                    f"{point.ci.mean - first.ci.mean:+.4g}"
                    if point is not first
                    else ""
                )
                flag = ""
                if is_last and point is not first:
                    flag = "DRIFT" if trend.drifted else "ok"
                    if trend.noisier:
                        flag += " noisier"
                rows.append(
                    [
                        trend.metric if point is first else "",
                        _short(point.revision),
                        _ci(point.ci.mean, point.ci.lower, point.ci.upper),
                        str(point.samples),
                        str(point.artifacts),
                        delta,
                        flag,
                    ]
                )
        blocks.append(
            _table(
                ["METRIC", "REVISION", "MEAN [95% CI]", "N", "ARTS", "DELTA", ""],
                rows,
                markdown,
            )
        )
    drifted = sum(1 for g in report.groups if g.drifted)
    blocks.append(
        f"{len(report.groups)} group(s) across {len(report.stores)} store(s), "
        f"{report.records} artifact(s); {drifted} drifted"
    )
    return "\n".join(blocks) + "\n"


def render_comparison(
    comparisons: Sequence[MetricComparison],
    rev_a: str,
    rev_b: str,
    markdown: bool = False,
) -> str:
    """Head-to-head table for ``trends compare REV_A REV_B``."""
    header = f"comparing {_short(rev_a, 12)} (A) vs {_short(rev_b, 12)} (B)"
    if not comparisons:
        return header + "\nno group has artifacts at both revisions\n"
    rows: List[List[str]] = []
    for cmp in comparisons:
        flag = "DRIFT" if cmp.drifted else "ok"
        if cmp.noisier:
            flag += " noisier"
        rows.append(
            [
                cmp.tag or "(untagged)",
                cmp.group[:10],
                cmp.metric,
                _ci(cmp.a.ci.mean, cmp.a.ci.lower, cmp.a.ci.upper),
                _ci(cmp.b.ci.mean, cmp.b.ci.lower, cmp.b.ci.upper),
                f"{cmp.delta:+.4g}",
                flag,
            ]
        )
    table = _table(
        ["TAG", "GROUP", "METRIC", "A MEAN [CI]", "B MEAN [CI]", "DELTA", ""],
        rows,
        markdown,
    )
    drifted = sum(1 for c in comparisons if c.drifted)
    summary = f"{len(comparisons)} metric(s) compared; {drifted} drifted"
    return f"{header}\n\n{table}\n{summary}\n"


def render_check_report(check: CheckReport, markdown: bool = False) -> str:
    """Verdict table for ``trends check`` against a committed baseline."""
    rows: List[List[str]] = []
    for o in check.outcomes:
        rows.append(
            [
                o.status,
                o.tag or "(untagged)",
                o.group[:10],
                o.metric,
                _ci(o.baseline_mean, o.baseline_lower, o.baseline_upper),
                _fmt(o.observed_mean) if o.observed_mean is not None else "-",
                _short(o.revision),
            ]
        )
    table = _table(
        ["STATUS", "TAG", "GROUP", "METRIC", "BASELINE [CI]", "OBSERVED", "REVISION"],
        rows,
        markdown,
    ) if rows else "baseline has no checkable entries\n"
    n_drift = sum(1 for o in check.outcomes if o.status == "drift")
    n_missing = sum(1 for o in check.outcomes if o.status == "missing")
    lines = [
        table,
        f"{len(check.outcomes)} check(s): "
        f"{len(check.outcomes) - n_drift - n_missing} ok, "
        f"{n_drift} drift, {n_missing} missing",
    ]
    if check.new_groups:
        names = ", ".join(
            f"{tag or '(untagged)'}[{group[:10]}]" for tag, group in check.new_groups
        )
        lines.append(f"{len(check.new_groups)} group(s) not in baseline: {names}")
    return "\n".join(lines) + "\n"
