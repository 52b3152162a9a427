"""Command-line entry point: experiments + results-cache lifecycle.

The CLI is organized in subcommands::

    repro-experiment run <target> [options]   # regenerate a figure/table
    repro-experiment list                     # print the catalogue
    repro-experiment cache ls                 # artifact table
    repro-experiment cache stats              # aggregate store metadata
    repro-experiment cache gc [--dry-run]     # age/size-based eviction
    repro-experiment trends report            # cross-revision drift table
    repro-experiment trends compare A B       # two revisions head-to-head
    repro-experiment trends baseline          # emit a baseline JSON
    repro-experiment trends check             # gate results vs a baseline
    repro-experiment obs summary <journal>    # phase-profile table
    repro-experiment obs trace <journal>      # Chrome trace-event export
    repro-experiment obs validate <journal>   # schema-check a journal
    repro-experiment worker serve --bind H:P  # run a cluster worker
    repro-experiment serve --bind H:P         # run the estimation service

Examples
--------
Run Fig 1 at the default scale and print the ASCII chart::

    repro-experiment run fig1

Run Table I at the small (benchmark) scale and save CSVs::

    repro-experiment run table1 --scale small --csv-dir results/

Shard the trials of each figure over 4 worker processes and cache results
so the next identical invocation is served from disk.  Every ablation —
including the delay/idspace/repair studies, whose live state travels as
declarative specs — honors the same knobs, so ``run all`` parallelizes
and caches the whole catalog::

    repro-experiment run fig1 --scale small --workers 4 --cache-dir ~/.cache/repro
    repro-experiment run all --scale small --workers 4 --cache-dir ~/.cache/repro

Inspect and prune that cache::

    repro-experiment cache ls --cache-dir ~/.cache/repro
    repro-experiment cache gc --cache-dir ~/.cache/repro --max-age-days 30 --dry-run

Track how the numbers move across git revisions, and gate a change against
a committed baseline (see docs/TRENDS.md)::

    repro-experiment trends report --cache-dir ci-trends/
    repro-experiment trends compare abc1234 def5678 --cache-dir ci-trends/
    repro-experiment trends baseline --cache-dir ci-trends/ --out baseline.json
    repro-experiment trends check --baseline baseline.json --fail-on-drift

Record a structured run journal while regenerating a figure, then render
an ASCII phase summary and a Chrome trace-event file from it (open the
trace in Perfetto / chrome://tracing — see docs/OBSERVABILITY.md)::

    repro-experiment run fig1 --scale small --workers 4 --journal run.jsonl
    repro-experiment obs summary run.jsonl
    repro-experiment obs trace run.jsonl -o trace.json

Spread a run across machines: start a worker per host, then point a
driver at them with ``--hosts`` (or ``$REPRO_HOSTS``).  Results are
bit-identical to serial at any host count, and a dead host's chunks
migrate to the survivors (see docs/DISTRIBUTED.md; the transport is
trusted-network-only)::

    repro-experiment worker serve --bind 0.0.0.0:7700          # on each host
    repro-experiment run fig11 --hosts hostA:7700,hostB:7700 --journal run.jsonl

Keep the estimators warm as a resident service: stream membership events
at it, poll ``/estimate``, and restart from its last checkpoint (see
docs/SERVICE.md).  Both ``serve`` and ``worker serve`` print their bound
address in a machine-parsable ``REPRO_*_ADDR=host:port`` stdout line, so
harnesses binding port 0 can scrape the chosen port::

    repro-experiment serve --bind 127.0.0.1:0 --estimators sample_collide,aggregation \
        --snapshot svc.ckpt --snapshot-every 50 --max-qps 100 --journal svc.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import sys
import time
from typing import TYPE_CHECKING, List, Optional

# The parser needs names only; each command imports what it runs, so
# `serve` loads no experiment, executor or report code, and `worker
# serve` no experiment or service code (tests/test_import_graph.py).
from ..runtime.provenance import DEFAULT_CHECK_METRICS, TREND_METRICS
from ..service import SERVICE_FAMILIES
from .catalog import FIGURES, TABLES
from .config import SCALES

if TYPE_CHECKING:
    from ..runtime.api import RuntimeOptions
    from ..runtime.obs import JournalReporter
    from ..runtime.store import ResultsStore

__all__ = ["main", "build_parser"]


def _cache_dir(value: str) -> pathlib.Path:
    """Reject a cache path that exists but is not a directory up front,
    instead of tracebacking at save time after the trials already ran."""
    path = pathlib.Path(value)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(
            f"--cache-dir {value!r} exists and is not a directory"
        )
    return path


def _checked_dir(path: pathlib.Path, parser: argparse.ArgumentParser) -> pathlib.Path:
    """The same up-front guard as :func:`_cache_dir` for paths that did not
    come through argparse (the $REPRO_CACHE_DIR defaults)."""
    if path.exists() and not path.is_dir():
        parser.error(f"cache directory {str(path)!r} exists and is not a directory")
    return path


_SIZE_UNITS = {
    "": 1,
    "b": 1,
    "k": 10**3,
    "kb": 10**3,
    "m": 10**6,
    "mb": 10**6,
    "g": 10**9,
    "gb": 10**9,
    "kib": 2**10,
    "mib": 2**20,
    "gib": 2**30,
}


def _parse_size(value: str) -> int:
    """Parse a human size ('500k', '1.5GB', '64MiB', plain bytes) to bytes."""
    m = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)\s*([A-Za-z]*)\s*", value)
    if not m or m.group(2).lower() not in _SIZE_UNITS:
        raise argparse.ArgumentTypeError(
            f"cannot parse size {value!r} (try '500k', '1.5GB', '64MiB' or bytes)"
        )
    return int(float(m.group(1)) * _SIZE_UNITS[m.group(2).lower()])


def _format_size(n: int) -> str:
    for unit, div in (("GB", 10**9), ("MB", 10**6), ("kB", 10**3)):
        if n >= div:
            return f"{n / div:.1f}{unit}"
    return f"{n}B"


def _format_age(seconds: float) -> str:
    if seconds >= 86400:
        return f"{seconds / 86400:.1f}d"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.0f}m"
    return f"{max(seconds, 0):.0f}s"


def _add_run_parser(subparsers) -> None:
    run = subparsers.add_parser(
        "run",
        help="regenerate a figure/table (or 'all')",
        description="Regenerate one experiment, or every one with 'all'.",
    )
    run.add_argument(
        "target",
        choices=sorted(FIGURES) + sorted(TABLES) + ["all"],
        help="experiment to run ('all' runs everything)",
    )
    run.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="scale preset (default: $REPRO_SCALE or 'default')",
    )
    run.add_argument("--seed", type=int, default=None, help="master seed override")
    run.add_argument(
        "--csv-dir",
        type=pathlib.Path,
        default=None,
        help="directory to write per-experiment CSV files into",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress chart rendering (CSV only)"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_WORKERS", "1")),
        help=(
            "worker processes for trial execution (default: $REPRO_WORKERS or 1; "
            "results are bit-identical at any worker count)"
        ),
    )
    run.add_argument(
        "--hosts",
        default=os.environ.get("REPRO_HOSTS") or None,
        help=(
            "comma-separated cluster worker addresses "
            "('host1:port,host2:port'; default: $REPRO_HOSTS) started with "
            "'worker serve'; trial chunks fan out over sockets instead of "
            "a local process pool, with work-stealing and dead-host chunk "
            "migration — results are bit-identical to serial at any host "
            "count (see docs/DISTRIBUTED.md; trusted networks only)"
        ),
    )
    run.add_argument(
        "--heartbeat-interval",
        type=float,
        default=float(os.environ.get("REPRO_HEARTBEAT_INTERVAL", "2.0")),
        help=(
            "seconds between liveness pings to each cluster worker "
            "(default: $REPRO_HEARTBEAT_INTERVAL or 2.0; 0 disables the "
            "heartbeat monitor and falls back to detecting dead workers "
            "on the next dispatch; only meaningful with --hosts)"
        ),
    )
    run.add_argument(
        "--heartbeat-misses",
        type=int,
        default=int(os.environ.get("REPRO_HEARTBEAT_MISSES", "3")),
        help=(
            "consecutive missed pings before a cluster worker is declared "
            "lost and its chunks migrate (default: $REPRO_HEARTBEAT_MISSES "
            "or 3; detection latency is bounded by interval x misses)"
        ),
    )
    env_cache = os.environ.get("REPRO_CACHE_DIR") or None
    run.add_argument(
        "--cache-dir",
        type=_cache_dir,
        default=pathlib.Path(env_cache) if env_cache else None,
        help=(
            "content-addressed results store (default: $REPRO_CACHE_DIR); "
            "reruns of an identical experiment are served from it without "
            "recomputation"
        ),
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="recompute even when the cache holds the experiment (and refresh it)",
    )
    run.add_argument(
        "--graph-backend",
        choices=("dict", "array"),
        default=os.environ.get("REPRO_GRAPH_BACKEND", "dict"),
        help=(
            "backend of kernel-capable estimators: 'dict' (reference) or "
            "'array' (batched numpy kernels; Sample&Collide is "
            "distributionally equivalent but not bit-identical to the "
            "reference, and every array result is cached under a distinct "
            "content address — see docs/KERNELS.md; "
            "default: $REPRO_GRAPH_BACKEND or 'dict')"
        ),
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="log trial progress to stderr",
    )
    run.add_argument(
        "--journal",
        type=pathlib.Path,
        default=None,
        help=(
            "append a structured JSONL run journal (batch/chunk/trial spans, "
            "phase profiles, cache and fallback events) to this file; "
            "inspect it with 'obs summary' / 'obs trace' "
            "(see docs/OBSERVABILITY.md)"
        ),
    )


def _add_cache_parser(subparsers) -> None:
    cache = subparsers.add_parser(
        "cache",
        help="inspect / garbage-collect the results store",
        description=(
            "Lifecycle tooling for the content-addressed results store "
            "written by 'run --cache-dir' (and the REPRO_CACHE_DIR-driven "
            "benchmark runs)."
        ),
    )
    sub = cache.add_subparsers(dest="cache_command", required=True)

    def _dir_arg(p):
        p.add_argument(
            "--cache-dir",
            type=_cache_dir,
            default=None,
            help="store directory (default: $REPRO_CACHE_DIR)",
        )

    ls = sub.add_parser(
        "ls",
        help="table of artifacts (key, tag, trials, size, age)",
        description=(
            "List every artifact: content key, experiment tag, trial count, "
            "size, age since creation, and whether it has served a cache hit."
        ),
    )
    _dir_arg(ls)

    stats = sub.add_parser(
        "stats",
        help="aggregate size/hit metadata",
        description="Aggregate store statistics, including a per-tag breakdown.",
    )
    _dir_arg(stats)

    gc = sub.add_parser(
        "gc",
        help="evict artifacts by age and/or size budget",
        description=(
            "Evict artifacts older than --max-age-days, then (oldest first) "
            "until the store fits --max-size.  --dry-run reports the "
            "selection without deleting anything."
        ),
    )
    _dir_arg(gc)
    gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="evict artifacts older than this many days (by creation time)",
    )
    gc.add_argument(
        "--max-size",
        type=_parse_size,
        default=None,
        help="total-size budget ('500k', '1.5GB', '64MiB' or bytes)",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted; delete nothing",
    )


def _add_trends_parser(subparsers) -> None:
    trends = subparsers.add_parser(
        "trends",
        help="track result drift across git revisions / seed sets",
        description=(
            "Join stored artifacts across git revisions and seed sets and "
            "report drift in estimation quality, message overhead and "
            "runtime.  Cross-revision history lives in sibling store "
            "directories (one per revision) under a common parent; every "
            "--cache-dir is searched recursively for stores.  See "
            "docs/TRENDS.md for the baseline workflow."
        ),
    )
    sub = trends.add_subparsers(dest="trends_command", required=True)

    # Options are attached per-subcommand so nothing parses-but-ignores:
    # 'baseline' always emits JSON (no render flags), 'check' gates against
    # intervals frozen in the baseline (no --confidence).
    def _dirs_and_metrics(p, metrics_default):
        p.add_argument(
            "--cache-dir",
            action="append",
            type=_cache_dir,
            default=None,
            dest="cache_dirs",
            help=(
                "store directory or parent of per-revision stores; "
                "repeatable (default: $REPRO_CACHE_DIR)"
            ),
        )
        p.add_argument(
            "--metric",
            action="append",
            choices=sorted(TREND_METRICS),
            default=None,
            dest="metrics",
            help=f"metric(s) to include (default: {', '.join(metrics_default)})",
        )

    def _confidence(p):
        p.add_argument(
            "--confidence",
            type=float,
            default=0.95,
            help="bootstrap confidence level (default: 0.95)",
        )

    def _render_flags(p):
        p.add_argument(
            "--markdown",
            action="store_true",
            help="emit GitHub-flavoured markdown tables instead of ASCII",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="emit machine-readable JSON instead of a table",
        )

    def _common(p, metrics_default):
        _dirs_and_metrics(p, metrics_default)
        _confidence(p)
        _render_flags(p)

    report = sub.add_parser(
        "report",
        help="per-experiment revision trajectories with drift verdicts",
        description=(
            "Group artifacts by logical experiment (tag + config minus "
            "seeds), order each group's revisions by save time, and flag "
            "metrics whose newest mean left the oldest revision's "
            "bootstrap interval."
        ),
    )
    _common(report, TREND_METRICS)

    compare = sub.add_parser(
        "compare",
        help="two revisions head-to-head",
        description=(
            "Join every experiment present at both revisions and test "
            "whether B's mean left A's bootstrap interval (unique "
            "revision prefixes are accepted)."
        ),
    )
    compare.add_argument("rev_a", help="reference revision (unique prefix ok)")
    compare.add_argument("rev_b", help="candidate revision (unique prefix ok)")
    _common(compare, TREND_METRICS)

    baseline = sub.add_parser(
        "baseline",
        help="emit a baseline JSON for 'trends check'",
        description=(
            "Serialize each experiment's bootstrap interval at its newest "
            "(or --revision) revision into a JSON document to commit; "
            "'trends check' gates future runs against it."
        ),
    )
    _dirs_and_metrics(baseline, DEFAULT_CHECK_METRICS)
    _confidence(baseline)
    baseline.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the baseline here (default: stdout)",
    )
    baseline.add_argument(
        "--revision",
        default=None,
        help="pin the baseline to this revision (default: newest per group)",
    )

    check = sub.add_parser(
        "check",
        help="gate current results against a committed baseline",
        description=(
            "Recompute each baselined experiment's current mean and fail "
            "it when the mean falls outside the baseline's bootstrap "
            "interval (drift) or when the experiment has no current "
            "artifacts (missing).  With --fail-on-drift the exit status "
            "is nonzero when anything fails — the CI regression gate."
        ),
    )
    check.add_argument(
        "--baseline",
        type=pathlib.Path,
        required=True,
        help="baseline JSON produced by 'trends baseline'",
    )
    check.add_argument(
        "--revision",
        default=None,
        help="check artifacts of this revision (default: newest per group)",
    )
    check.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="exit nonzero when any metric drifts or goes missing",
    )
    _dirs_and_metrics(check, DEFAULT_CHECK_METRICS)
    _render_flags(check)


def _add_obs_parser(subparsers) -> None:
    obs = subparsers.add_parser(
        "obs",
        help="inspect a structured run journal (summary / trace / validate)",
        description=(
            "Offline tooling for the JSONL run journals written by "
            "'run --journal': an ASCII phase-profile summary, a Chrome "
            "trace-event export for Perfetto / chrome://tracing, and a "
            "schema validator.  See docs/OBSERVABILITY.md."
        ),
    )
    sub = obs.add_subparsers(dest="obs_command", required=True)

    summary = sub.add_parser(
        "summary",
        help="ASCII table of per-phase time and journal event counts",
        description=(
            "Aggregate the journal's chunk/trial spans into a per-phase "
            "time table (boot/restore/churn/estimation/serialize) plus "
            "batch, cache-hit and fallback counts."
        ),
    )
    summary.add_argument("journal", type=pathlib.Path, help="journal JSONL file")

    trace = sub.add_parser(
        "trace",
        help="export Chrome trace-event JSON (Perfetto / chrome://tracing)",
        description=(
            "Convert the journal into Chrome trace-event JSON: one process "
            "track per worker pid, chunk and trial spans, and instants for "
            "cache hits, fallbacks and snapshot save errors."
        ),
    )
    trace.add_argument("journal", type=pathlib.Path, help="journal JSONL file")
    trace.add_argument(
        "-o",
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the trace here (default: stdout)",
    )

    validate = sub.add_parser(
        "validate",
        help="schema-check a journal; nonzero exit on problems",
        description=(
            "Verify the journal parses, declares the current schema "
            "version, and that every event carries its required fields.  "
            "Exit status 1 when problems are found."
        ),
    )
    validate.add_argument("journal", type=pathlib.Path, help="journal JSONL file")


def _add_worker_parser(subparsers) -> None:
    worker = subparsers.add_parser(
        "worker",
        help="run a cluster worker process (serve)",
        description=(
            "Cluster worker lifecycle.  A worker accepts driver "
            "connections from 'run --hosts' and executes trial chunks "
            "shipped over the socket transport (docs/DISTRIBUTED.md).  "
            "The transport pickles payloads without authentication: bind "
            "to loopback or a trusted network only."
        ),
    )
    sub = worker.add_subparsers(dest="worker_command", required=True)
    serve = sub.add_parser(
        "serve",
        help="serve trial chunks on a socket until interrupted",
        description=(
            "Bind HOST:PORT and serve chunks to any connecting driver.  "
            "Port 0 binds a free port; the bound address is printed on "
            "stdout either way, so harnesses can scrape it."
        ),
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="HOST:PORT to listen on (default: 127.0.0.1:0 = free port)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help=(
            "exit after this many driver sessions (default: serve until "
            "interrupted); a driver opens one session per host per batch"
        ),
    )


def _add_serve_parser(subparsers) -> None:
    serve = subparsers.add_parser(
        "serve",
        help="run the always-on estimation service (HTTP/JSON)",
        description=(
            "Boot a resident estimation scenario and serve /estimate, "
            "/health and /stats over HTTP, with POST /ingest, /tick and "
            "/checkpoint as the write surface (docs/SERVICE.md).  Port 0 "
            "binds a free port; the bound address is printed on stdout in "
            "a machine-parsable REPRO_SERVICE_ADDR= line either way."
        ),
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="HOST:PORT for the HTTP endpoint (default: 127.0.0.1:0 = free port)",
    )
    serve.add_argument(
        "--binary-bind",
        default=None,
        help=(
            "optional HOST:PORT for the length-prefixed binary JSON "
            "transport (framing discipline of docs/DISTRIBUTED.md; "
            "disabled when omitted)"
        ),
    )
    serve.add_argument(
        "--estimators",
        default="sample_collide,aggregation",
        help=(
            "comma-separated estimator families to keep warm "
            f"(available: {','.join(SERVICE_FAMILIES)})"
        ),
    )
    serve.add_argument(
        "--nodes", type=int, default=2_000, help="initial overlay size"
    )
    serve.add_argument("--seed", type=int, default=7, help="master seed")
    serve.add_argument(
        "--probe-interval",
        type=int,
        default=5,
        help="rounds between probe-family refreshes (default: 5)",
    )
    serve.add_argument(
        "--max-qps",
        type=float,
        default=0.0,
        help="token-bucket estimate admission (requests/second; 0 = unlimited)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=10_000,
        help="ingest queue bound in joins plus leaves; events past it are shed (default: 10000)",
    )
    serve.add_argument(
        "--snapshot",
        type=pathlib.Path,
        default=None,
        help=(
            "checkpoint file: written every --snapshot-every rounds and on "
            "POST /checkpoint, and resumed from at boot when it exists"
        ),
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="checkpoint cadence in rounds (0 = only explicit /checkpoint)",
    )
    serve.add_argument(
        "--tick-interval",
        type=float,
        default=0.0,
        help=(
            "seconds between automatic rounds (0 = rounds advance only via "
            "POST /tick, which keeps the scenario deterministic for tests)"
        ),
    )
    serve.add_argument(
        "--rounds",
        type=int,
        default=0,
        help=(
            "with --tick-interval: exit cleanly after this many rounds "
            "(0 = serve until interrupted); lets smoke tests run without "
            "signal choreography"
        ),
    )
    serve.add_argument(
        "--journal",
        type=pathlib.Path,
        default=None,
        help=(
            "append service lifecycle events (service_start, "
            "estimate_served, ingest_dropped, snapshot_checkpoint) to this "
            "JSONL run journal; inspect with 'obs validate'/'obs summary'"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Regenerate figures/tables from 'Peer to peer size estimation in "
            "large and dynamic networks: A comparative study' (HPDC 2006), "
            "and manage the content-addressed results cache."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    subparsers.add_parser("list", help="print the experiment catalogue")
    _add_cache_parser(subparsers)
    _add_trends_parser(subparsers)
    _add_obs_parser(subparsers)
    _add_worker_parser(subparsers)
    _add_serve_parser(subparsers)
    return parser


def _runtime_options(
    args, tag: Optional[str] = None, journal: Optional[JournalReporter] = None
) -> RuntimeOptions:
    """Map parsed CLI arguments onto the runtime's execution knobs."""
    from ..runtime.api import RuntimeOptions
    from ..runtime.progress import LogProgress, TeeProgress

    reporters: List[object] = []
    if args.progress:
        reporters.append(LogProgress())
    if journal is not None:
        reporters.append(journal)
    progress = None
    if len(reporters) == 1:
        progress = reporters[0]
    elif reporters:
        progress = TeeProgress(reporters)
    return RuntimeOptions.create(
        workers=args.workers,
        cache_dir=args.cache_dir,
        force=args.force,
        progress=progress,
        tag=tag,
        graph_backend=args.graph_backend,
        hosts=args.hosts,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_misses=args.heartbeat_misses,
    )


def _run_one(name: str, args, journal: Optional[JournalReporter] = None) -> object:
    from ..analysis.ascii_chart import render_figure, render_table
    from ..analysis.curves import FigureResult, TableResult
    from ..runtime.api import supports_runtime

    fn = FIGURES.get(name) or TABLES.get(name)
    kwargs = {"scale": args.scale, "seed": args.seed}
    if supports_runtime(fn):
        kwargs["runtime"] = _runtime_options(args, tag=name, journal=journal)
    start = time.perf_counter()
    result = fn(**kwargs)
    elapsed = time.perf_counter() - start
    if not args.quiet:
        if isinstance(result, FigureResult):
            sys.stdout.write(render_figure(result))
        elif isinstance(result, TableResult):
            sys.stdout.write(render_table(result))
        sys.stdout.write(f"  [{name} completed in {elapsed:.1f}s]\n\n")
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        out = args.csv_dir / f"{name}.csv"
        out.write_text(result.to_csv())
        if not args.quiet:
            sys.stdout.write(f"  wrote {out}\n")
    return result


def _cmd_run(args) -> int:
    names = (
        sorted(FIGURES) + sorted(TABLES) if args.target == "all" else [args.target]
    )
    journal = None
    if args.journal is not None:
        from ..runtime.obs import JournalReporter

        args.journal.parent.mkdir(parents=True, exist_ok=True)
        journal = JournalReporter(args.journal)
    try:
        for name in names:
            _run_one(name, args, journal=journal)
    finally:
        if journal is not None:
            journal.close()
    return 0


def _cmd_list() -> int:
    sys.stdout.write("figures: " + " ".join(sorted(FIGURES)) + "\n")
    sys.stdout.write("tables:  " + " ".join(sorted(TABLES)) + "\n")
    return 0


def _resolve_store(args, parser: argparse.ArgumentParser) -> ResultsStore:
    from ..runtime.store import ResultsStore

    cache_dir = args.cache_dir
    if cache_dir is None:
        env = os.environ.get("REPRO_CACHE_DIR")
        if env:
            cache_dir = _checked_dir(pathlib.Path(env), parser)
    if cache_dir is None:
        parser.error("no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR")
    return ResultsStore(cache_dir)


def _cmd_cache_ls(store: ResultsStore) -> int:
    infos = store.artifacts()
    if not infos:
        sys.stdout.write(f"{store.root}: empty store\n")
        return 0
    now = time.time()
    header = f"{'KEY':<14} {'TAG':<24} {'TRIALS':>6} {'SIZE':>8} {'AGE':>7}  HIT\n"
    sys.stdout.write(header)
    for info in infos:
        sys.stdout.write(
            f"{info.key[:12] + '..':<14} "
            f"{(info.tag or '-')[:24]:<24} "
            f"{info.trials:>6} "
            f"{_format_size(info.size_bytes):>8} "
            f"{_format_age(info.age_seconds(now)):>7}  "
            f"{'yes' if info.hit else '-'}\n"
        )
    sys.stdout.write(
        f"{len(infos)} artifact(s), "
        f"{_format_size(sum(i.size_bytes for i in infos))} total\n"
    )
    return 0


def _cmd_cache_stats(store: ResultsStore) -> int:
    st = store.stats()
    sys.stdout.write(f"store:          {store.root}\n")
    sys.stdout.write(f"artifacts:      {st.artifacts}\n")
    sys.stdout.write(f"total size:     {_format_size(st.total_bytes)}\n")
    # Result and snapshot payloads are reported separately so a
    # `gc --max-size` budget can be reasoned about honestly: snapshots
    # are recomputable accelerators, results are the cached science.
    sys.stdout.write(
        f"  results:      {_format_size(st.total_bytes - st.snapshot_bytes)} "
        f"({st.artifacts - st.snapshot_artifacts} artifact(s))\n"
    )
    sys.stdout.write(
        f"  snapshots:    {_format_size(st.snapshot_bytes)} "
        f"({st.snapshot_artifacts} artifact(s))\n"
    )
    sys.stdout.write(f"cached trials:  {st.trials}\n")
    sys.stdout.write(f"hit artifacts:  {st.hit_artifacts}\n")
    sys.stdout.write(f"stale schema:   {st.stale_schema}\n")
    if st.artifacts:
        sys.stdout.write(
            f"age range:      {_format_age(st.newest_age_seconds)} .. "
            f"{_format_age(st.oldest_age_seconds)}\n"
        )
    if st.by_tag:
        sys.stdout.write("by tag:\n")
        for tag, bucket in sorted(st.by_tag.items()):
            sys.stdout.write(
                f"  {tag:<28} {bucket['artifacts']:>4} artifact(s) "
                f"{_format_size(bucket['bytes']):>8} {bucket['trials']:>6} trial(s)\n"
            )
    return 0


def _cmd_cache_gc(store: ResultsStore, args, parser: argparse.ArgumentParser) -> int:
    if args.max_age_days is None and args.max_size is None:
        parser.error("cache gc needs a policy: --max-age-days and/or --max-size")
    report = store.gc(
        max_age_seconds=(
            None if args.max_age_days is None else args.max_age_days * 86400.0
        ),
        max_total_bytes=args.max_size,
        dry_run=args.dry_run,
    )
    verb = "would evict" if report.dry_run else "evicted"
    for info in report.evicted:
        sys.stdout.write(
            f"{verb} {info.key[:12]}.. "
            f"({info.tag or '-'}, {_format_size(info.size_bytes)}, "
            f"{_format_age(info.age_seconds())} old)\n"
        )
    sys.stdout.write(
        f"{verb} {len(report.evicted)} artifact(s) "
        f"({_format_size(report.evicted_bytes)}); "
        f"kept {report.kept} ({_format_size(report.kept_bytes)})\n"
    )
    return 0


def _resolve_trend_roots(args, parser: argparse.ArgumentParser) -> List[pathlib.Path]:
    roots = list(args.cache_dirs or ())
    if not roots:
        env = os.environ.get("REPRO_CACHE_DIR")
        if env:
            roots = [_checked_dir(pathlib.Path(env), parser)]
    if not roots:
        parser.error(
            "no store directories: pass --cache-dir (repeatable) or set "
            "$REPRO_CACHE_DIR"
        )
    return roots


def _point_json(point) -> dict:
    return {
        "revision": point.revision,
        "mean": point.ci.mean,
        "lower": point.ci.lower,
        "upper": point.ci.upper,
        "samples": point.samples,
        "artifacts": point.artifacts,
    }


def _report_json(report) -> dict:
    return {
        "stores": [str(s) for s in report.stores],
        "records": report.records,
        "drifted": report.drifted,
        "groups": [
            {
                "tag": g.tag,
                "group": g.group,
                "trials": g.trials,
                "revisions": g.revisions,
                "drifted": g.drifted,
                "metrics": [
                    {
                        "metric": m.metric,
                        "drifted": m.drifted,
                        "delta": m.delta,
                        "variance_ratio": m.variance_ratio,
                        "noisier": m.noisier,
                        "points": [_point_json(p) for p in m.points],
                    }
                    for m in g.metrics
                ],
            }
            for g in report.groups
        ],
    }


def _comparison_json(comparisons, rev_a: str, rev_b: str) -> dict:
    return {
        "rev_a": rev_a,
        "rev_b": rev_b,
        "drifted": any(c.drifted for c in comparisons),
        "comparisons": [
            {
                "tag": c.tag,
                "group": c.group,
                "metric": c.metric,
                "a": _point_json(c.a),
                "b": _point_json(c.b),
                "delta": c.delta,
                "drifted": c.drifted,
                "variance_ratio": c.variance_ratio,
                "noisier": c.noisier,
            }
            for c in comparisons
        ],
    }


def _check_json(check) -> dict:
    return {
        "revision": check.revision,
        "ok": check.ok,
        "outcomes": [
            {
                "tag": o.tag,
                "group": o.group,
                "metric": o.metric,
                "status": o.status,
                "baseline": {
                    "mean": o.baseline_mean,
                    "lower": o.baseline_lower,
                    "upper": o.baseline_upper,
                },
                "observed_mean": o.observed_mean,
                "observed_samples": o.observed_samples,
                "revision": o.revision,
            }
            for o in check.outcomes
        ],
        "new_groups": [
            {"tag": tag, "group": group} for tag, group in check.new_groups
        ],
    }


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_trends(args, parser: argparse.ArgumentParser) -> int:
    from ..analysis.trend_report import (
        render_check_report,
        render_comparison,
        render_trend_report,
    )
    from ..runtime.trends import (
        check_baseline,
        compare_revisions,
        load_baseline,
        make_baseline,
        trend_report,
    )

    roots = _resolve_trend_roots(args, parser)
    cmd = args.trends_command
    if cmd == "report":
        report = trend_report(
            roots,
            metrics=args.metrics or TREND_METRICS,
            confidence=args.confidence,
        )
        if args.json:
            _emit_json(_report_json(report))
        else:
            sys.stdout.write(render_trend_report(report, markdown=args.markdown))
        return 0
    if cmd == "compare":
        try:
            comparisons = compare_revisions(
                roots,
                args.rev_a,
                args.rev_b,
                metrics=args.metrics or TREND_METRICS,
                confidence=args.confidence,
            )
        except ValueError as exc:
            sys.stderr.write(f"trends compare: {exc}\n")
            return 2
        if args.json:
            _emit_json(_comparison_json(comparisons, args.rev_a, args.rev_b))
        else:
            sys.stdout.write(
                render_comparison(
                    comparisons, args.rev_a, args.rev_b, markdown=args.markdown
                )
            )
        return 0
    if cmd == "baseline":
        try:
            doc = make_baseline(
                roots,
                revision=args.revision,
                metrics=args.metrics or DEFAULT_CHECK_METRICS,
                confidence=args.confidence,
            )
        except ValueError as exc:
            sys.stderr.write(f"trends baseline: {exc}\n")
            return 2
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text)
            sys.stdout.write(
                f"wrote baseline for {len(doc['groups'])} group(s) to {args.out}\n"
            )
        else:
            sys.stdout.write(text)
        return 0
    # check
    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"trends check: {exc}\n")
        return 2
    try:
        check = check_baseline(
            roots, baseline, revision=args.revision, metrics=args.metrics
        )
    except ValueError as exc:
        sys.stderr.write(f"trends check: {exc}\n")
        return 2
    if args.json:
        _emit_json(_check_json(check))
    else:
        sys.stdout.write(render_check_report(check, markdown=args.markdown))
    if not check.ok and args.fail_on_drift:
        return 1
    return 0


def _cmd_obs(args, parser: argparse.ArgumentParser) -> int:
    from ..analysis.obs_report import (
        journal_to_trace,
        read_journal,
        render_obs_summary,
        validate_journal,
    )
    from ..runtime.obs import JOURNAL_SCHEMA_VERSION

    try:
        events = read_journal(args.journal)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"obs {args.obs_command}: {exc}\n")
        return 2
    if args.obs_command == "validate":
        problems = validate_journal(events)
        if problems:
            for problem in problems:
                sys.stdout.write(f"{problem}\n")
            sys.stdout.write(f"{args.journal}: {len(problems)} problem(s)\n")
            return 1
        sys.stdout.write(
            f"{args.journal}: valid journal "
            f"(schema {JOURNAL_SCHEMA_VERSION}, {len(events)} event(s))\n"
        )
        return 0
    if args.obs_command == "trace":
        trace = journal_to_trace(events)
        text = json.dumps(trace, sort_keys=True) + "\n"
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text)
            sys.stdout.write(
                f"wrote {len(trace['traceEvents'])} trace event(s) to "
                f"{args.out} (open in Perfetto or chrome://tracing)\n"
            )
        else:
            sys.stdout.write(text)
        return 0
    # summary
    sys.stdout.write(render_obs_summary(events))
    return 0


def _parse_bind(value: str, label: str, parser: argparse.ArgumentParser):
    """Split a ``host:port`` bind address; port 0 (ephemeral) is allowed.

    ``parse_hosts`` is meant for driver-side *connect* targets and rejects
    port 0, so bind addresses are validated separately.
    """
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit() or int(port) > 65535:
        parser.error(
            f"{label}: invalid --bind {value!r}: expected 'host:port' "
            "(port 0 binds a free port)"
        )
    return host, int(port)


def _cmd_worker(args, parser: argparse.ArgumentParser) -> int:
    from ..runtime.cluster import WorkerServer

    host, port = _parse_bind(args.bind, "worker serve", parser)
    try:
        server = WorkerServer(host, port, max_sessions=args.max_sessions)
    except OSError as exc:
        sys.stderr.write(f"worker serve: cannot bind {args.bind}: {exc}\n")
        return 2
    sys.stdout.write(f"worker listening on {server.address} (pid {os.getpid()})\n")
    # Machine-parsable form of the bound address: when --bind asks for
    # port 0 the kernel picks the port, and harnesses (CI smoke jobs,
    # scripted launchers) need it without scraping the human line above.
    sys.stdout.write(f"REPRO_WORKER_ADDR={server.address}\n")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        server.close()
    return 0


def _cmd_serve(args, parser: argparse.ArgumentParser) -> int:
    from ..runtime.obs import JournalReporter
    from ..runtime.store import SnapshotRejected
    from ..service.core import EstimationService, ServiceConfig
    from ..service.server import ServiceServer

    host, port = _parse_bind(args.bind, "serve", parser)
    binary_port = None
    binary_host = host
    if args.binary_bind is not None:
        binary_host, binary_port = _parse_bind(args.binary_bind, "serve", parser)
        if binary_host != host:
            parser.error(
                "serve: --binary-bind must use the same host as --bind "
                f"({binary_host!r} != {host!r})"
            )
    families = tuple(f for f in args.estimators.split(",") if f)
    try:
        config = ServiceConfig(
            seed=args.seed,
            initial_size=args.nodes,
            estimators=families,
            probe_interval=args.probe_interval,
            queue_limit=args.queue_limit,
            max_qps=args.max_qps,
            snapshot_every=args.snapshot_every,
        )
    except ValueError as exc:
        parser.error(f"serve: {exc}")
    if args.snapshot_every and args.snapshot is None:
        parser.error("serve: --snapshot-every needs --snapshot")

    journal = None
    if args.journal is not None:
        args.journal.parent.mkdir(parents=True, exist_ok=True)
        journal = JournalReporter(args.journal)
    snapshot_path = None if args.snapshot is None else str(args.snapshot)
    try:
        if snapshot_path is not None and os.path.exists(snapshot_path):
            # A checkpoint on disk wins over the command-line config: the
            # restore-resumes-not-replays lifecycle of docs/SERVICE.md.
            try:
                service = EstimationService.from_checkpoint(
                    snapshot_path, progress=journal
                )
            except SnapshotRejected as exc:
                reason = " ".join(f"{type(exc).__name__}: {exc}".split())
                sys.stderr.write(f"serve: cannot restore {snapshot_path}: {reason}\n")
                return 2
            sys.stdout.write(
                f"service restored from {snapshot_path} "
                f"(round {service.round}, {service.graph.size} nodes)\n"
            )
        else:
            service = EstimationService(
                config, progress=journal, snapshot_path=snapshot_path
            )
        try:
            server = ServiceServer(
                service, host=host, port=port, binary_port=binary_port
            )
        except OSError as exc:
            sys.stderr.write(f"serve: cannot bind {args.bind}: {exc}\n")
            return 2
        sys.stdout.write(
            f"service listening on {server.address} (pid {os.getpid()}, "
            f"families {','.join(service.config.estimators)})\n"
        )
        sys.stdout.write(f"REPRO_SERVICE_ADDR={server.address}\n")
        if server.binary_address is not None:
            sys.stdout.write(f"REPRO_SERVICE_BINARY_ADDR={server.binary_address}\n")
        sys.stdout.flush()
        try:
            if args.tick_interval > 0:
                server.start()
                while args.rounds <= 0 or service.round < args.rounds:
                    time.sleep(args.tick_interval)
                    service.tick()
            else:
                server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive teardown
            pass
        finally:
            server.close()
    finally:
        if journal is not None:
            journal.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        if args.cache_dir is not None:
            # --cache-dir went through _cache_dir; this re-check covers the
            # $REPRO_CACHE_DIR default, which bypasses argparse validation.
            _checked_dir(args.cache_dir, parser)
        if args.hosts is not None:
            from ..runtime.cluster import parse_hosts

            # Surface a malformed --hosts / $REPRO_HOSTS as a usage error
            # here instead of a traceback after the first batch builds.
            try:
                parse_hosts(args.hosts)
            except ValueError as exc:
                parser.error(str(exc))
        return _cmd_run(args)
    if args.command == "worker":
        return _cmd_worker(args, parser)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if args.command == "trends":
        return _cmd_trends(args, parser)
    if args.command == "obs":
        return _cmd_obs(args, parser)
    # cache family
    store = _resolve_store(args, parser)
    if args.cache_command == "ls":
        return _cmd_cache_ls(store)
    if args.cache_command == "stats":
        return _cmd_cache_stats(store)
    return _cmd_cache_gc(store, args, parser)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
