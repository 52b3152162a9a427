"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so nothing warms up
across repetitions: not the overlay memo of ``repro.runtime.trials``, not
the CSR twin cached behind ``OverlayGraph.to_array``, not the git
revision memo.  Each repetition gets its own empty results store and
journal under ``--work``.

``--mode setup`` stops at the first timed operation and reports only the
set-up time; ``--mode run`` runs the workload, checks its outputs and
prints one JSON line with its metrics (and, with ``--trace 1``, the
per-layer metrics and a Chrome trace under ``--work``).  The harness's
own checking, tracing and load-generating modules are imported after the
first timed operation, so set-up time is the program's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import random
import resource
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def _read_journal(path: pathlib.Path) -> List[Dict[str, Any]]:
    from repro.analysis.obs_report import read_journal

    return list(read_journal(path)) if path.exists() else []


def _latency_summary(prefix: str, seconds: List[float]) -> Dict[str, float]:
    from loadgen import percentile, tail_percentile

    ms = [s * 1000.0 for s in seconds]
    return {
        f"{prefix}_p50_ms": statistics.median(ms) if ms else float("nan"),
        f"{prefix}_p99_ms": percentile(ms, 99) if ms else float("nan"),
        f"{prefix}_samples": len(ms),
        f"{prefix}_tail_pct": tail_percentile(len(ms)),
    }


# ----------------------------------------------------------------------
# Batch workloads (churn_pool, static_large, cluster_churn)
# ----------------------------------------------------------------------


def _observers(captured: List[Any]) -> Dict[str, Any]:
    """The standard span attributes plus a copy of ``run_trials``' results."""
    import tracing

    def run_trials(span, args, kwargs, result):
        captured.extend(result)

    return dict(tracing.standard_observers(), **{"runtime.api:run_trials": run_trials})


def run_batch(args, wl: "workloads.Batch", t_spawn: float, kids: procs.Children) -> Dict[str, Any]:
    from repro.experiments import dynamic, static
    from repro.runtime import ResultsStore, RuntimeOptions
    from repro.runtime.obs import JournalReporter

    work = pathlib.Path(args.work)
    store_dir = work / "store"
    journal_path = work / "journal.jsonl"
    figure_fn = getattr(dynamic, wl.figure, None) or getattr(static, wl.figure)
    hosts: List[str] = []
    if wl.hosts:
        cmd = [sys.executable, "-m", "repro.experiments.cli", "worker", "serve"]
        cmd += ["--bind", "127.0.0.1:0"]
        spawned = [kids.spawn(cmd) for _ in range(wl.hosts)]
        hosts = [child.wait_line("REPRO_WORKER_ADDR=", timeout=60) for child in spawned]
    journal = JournalReporter(journal_path)
    runtime = RuntimeOptions.create(
        workers=wl.workers,
        cache_dir=store_dir,
        progress=journal,
        graph_backend=wl.backend,
        hosts=hosts or None,
    )
    scale = wl.scale_obj()
    t_first = time.monotonic()
    out: Dict[str, Any] = {"setup_s": t_first - t_spawn}
    if args.mode == "setup":
        journal.close()
        return out
    import checks
    import layers
    import tracing

    tracer: Optional[tracing.Tracer] = None
    captured: List[Any] = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(_observers(captured))
        root = tracer.begin("bench:timed")
    started = time.perf_counter()
    if tracer is not None:
        _, figure = tracer.call(
            f"experiments:{wl.figure}", figure_fn, scale=scale, seed=args.seed, runtime=runtime
        )
    else:
        figure = figure_fn(scale=scale, seed=args.seed, runtime=runtime)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()

    # A cache hit must hand back exactly what the cold run computed.
    again = figure_fn(scale=scale, seed=args.seed, runtime=runtime)
    cache_ok = again.to_csv() == figure.to_csv()
    journal.close()
    kids.close()
    # Before the checks: the serial rerun below is not part of the workload.
    peak_rss_mb = _peak_rss_mb()

    store = ResultsStore(store_dir)
    stored = [a for a in store.artifacts() if a.payload == "results"]
    results = []
    configs = [json.loads(artifact.path.read_text())["config"] for artifact in stored]
    for config in configs:
        results.extend(store.load(config) or [])
    rows = checks.rows_of(results)
    events = _read_journal(journal_path)
    expected = wl.expected_keys()
    failed_trials, problems = checks.check_batch(
        wl.name,
        args.seed,
        rows,
        expected,
        events,
        None if args.toy else checks.load_digests(),
    )
    if len(stored) != 1:
        problems.append(f"expected one stored batch, found {len(stored)}")
        failed_trials = len(expected)
    if not cache_ok:
        problems.append("the cache hit differs from the cold run")
        failed_trials = len(expected)
    if wl.serial_check and len(configs) == 1:
        indices = {expected[0][0], expected[-1][0]}
        serial = checks.serial_rows(configs[0], indices)
        batch = [r for r in rows if r[0] in indices]
        if not serial or checks.results_digest(serial) != checks.results_digest(batch):
            problems.append(f"a serial rerun of indices {sorted(indices)} differs from the batch")
            failed_trials = len(expected)

    out.update(
        {
            "wall_s": wall,
            "trials_per_s": len(rows) / wall,
            "quality_err_pct": checks.quality_err_pct(rows),
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(expected),
            "failed": failed_trials,
            "problems": problems,
            "structure_digest": checks.structure_digest(rows),
            "results_digest": checks.results_digest(rows),
        }
    )
    if tracer is not None:
        spans = tracer.spans
        out["layers"] = layers.batch_layers(
            spans,
            root,
            captured,
            events,
            os.getpid(),
            wl.hosts or wl.workers,
            _dir_bytes(store_dir),
            journal_path.stat().st_size,
        )
        out["attribution"] = tracing.attribute(spans, root)
        out["busy"] = tracing.layer_busy([s for s in spans if root.start <= s.start <= root.end])
        _write_trace(work, [("driver", tracer.dump(), spans)], events)
    return out


def _write_trace(work: pathlib.Path, processes, events) -> None:
    import tracing

    from repro.analysis.obs_report import journal_to_trace

    origin = min((float(e["ts"]) for e in events if "ts" in e), default=None)
    doc = tracing.chrome_trace(
        [(label, header, spans) for label, header, spans in processes],
        journal_to_trace(events) if events else None,
        origin,
    )
    (work / "trace.json").write_text(json.dumps(doc))


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------


def run_service(
    args, wl: "workloads.Service", t_spawn: float, kids: procs.Children
) -> Dict[str, Any]:
    from repro.service.server import ServiceClient

    work = pathlib.Path(args.work)
    journal_path = work / "service.jsonl"
    snapshot_path = work / "service.ckpt"
    spans_path = work / "server-spans.json"
    cmd = [
        sys.executable,
        str(HERE / "serve_launcher.py"),
        "--spans",
        str(spans_path) if args.trace else "",
        "--",
        "serve",
        "--bind",
        "127.0.0.1:0",
        "--binary-bind",
        "127.0.0.1:0",
        "--nodes",
        str(wl.nodes),
        "--estimators",
        ",".join(wl.estimators),
        "--seed",
        str(args.seed),
        "--journal",
        str(journal_path),
        "--snapshot",
        str(snapshot_path),
        "--snapshot-every",
        str(wl.snapshot_every),
    ]
    server = kids.spawn(cmd)
    address = server.wait_line("REPRO_SERVICE_ADDR=", timeout=120)
    binary_address = server.wait_line("REPRO_SERVICE_BINARY_ADDR=", timeout=30)
    client = ServiceClient(address, timeout=5.0)
    deadline = time.monotonic() + 60
    while True:
        try:
            health = client.health()
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)
    t_first = time.monotonic()
    out: Dict[str, Any] = {"setup_s": t_first - t_spawn}
    if args.mode == "setup":
        kids.close()
        return out
    import layers
    import tracing
    from loadgen import percentile

    tracer: Optional[tracing.Tracer] = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.standard_observers())
        root = tracer.begin("bench:timed")
    load = _drive(client, wl, args.seed, args.seconds, int(health["size"]))
    if tracer is not None:
        tracer.end(root)
    stats = client.stats()
    if tracer is not None:
        tracer.uninstall()
        load["binary_rtts"] = _binary_rtts(binary_address, wl.binary_requests)
    kids.close()
    events = _read_journal(journal_path)

    from repro.analysis.obs_report import validate_journal

    problems: List[str] = list(load["problems"])
    failed = load["failed_reads"] + load["failed_writes"]
    attempted = load["reads"] + load["writes"]
    mismatch = []
    if int(stats.get("served", -1)) != load["ok_reads"]:
        mismatch.append(f"served {stats.get('served')} != {load['ok_reads']} answered reads")
    if int(stats.get("ticks", -1)) != load["ok_ticks"]:
        mismatch.append(f"ticks {stats.get('ticks')} != {load['ok_ticks']} acknowledged ticks")
    if int(stats.get("size", -1)) != load["size"]:
        mismatch.append(f"size {stats.get('size')} != expected {load['size']}")
    journal_problems = validate_journal(events)
    if journal_problems:
        mismatch.append(f"journal: {journal_problems[:3]}")
    if mismatch:
        problems.extend(mismatch)
        failed = attempted
    base = load["base"]
    out.update(
        {
            "wall_s": load["wall_s"],
            # A batch metric: the base phase's read rate is the generator's.
            "trials_per_s": 0.0,
            "quality_err_pct": load["quality_err_pct"],
            "read_max_rps": load["read_max_rps"],
            "peak_rss_mb": _peak_rss_mb(),
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "ladder": load["ladder"],
        }
    )
    out.update(_latency_summary("read", [s.latency for s in base.samples if s.ok]))
    writes = [s.latency for s in load["writes_phase"].samples if s.ok]
    out["write_p99_ms"] = percentile(writes, 99) * 1000.0 if writes else float("nan")
    out["write_samples"] = len(writes)
    if tracer is not None:
        header, server_spans = tracing.load_spans(str(spans_path))
        load["late_ms_p99"] = percentile([s.late for s in base.samples], 99) * 1000.0
        out["layers"] = layers.service_layers(
            tracer.spans,
            server_spans,
            events,
            stats,
            load,
            snapshot_path.stat().st_size if snapshot_path.exists() else 0,
            journal_path.stat().st_size if journal_path.exists() else 0,
        )
        reader = [s for s in tracer.spans if s.tid == root.tid]
        out["attribution"] = tracing.attribute(reader, root)
        # Span ids are per process: self times are computed per process.
        out["busy"] = tracing.layer_busy(tracer.spans)
        for layer, seconds in tracing.layer_busy(server_spans).items():
            out["busy"][layer] = out["busy"].get(layer, 0.0) + seconds
        _write_trace(
            work,
            [("load generator", tracer.dump(), tracer.spans), ("serve", header, server_spans)],
            events,
        )
    return out


def _drive(
    client, wl: "workloads.Service", seed: int, seconds: float, size0: int
) -> Dict[str, Any]:
    """Run the open-loop reader (base + ladder) beside the writer thread."""
    from loadgen import percentile, run_phase

    from repro.service.server import ServiceClient

    rng = random.Random(seed)
    families = set(wl.estimators)
    base_s, step_s = wl.phase_seconds(seconds)
    limit = wl.limit_ms / 1000.0
    stop = threading.Event()
    sizes = {0: size0}
    state = {"size": size0, "pending": 0, "ok_ticks": 0}
    problems: List[str] = []

    def write() -> Dict[str, Any]:
        joins, leaves = rng.randint(0, wl.churn), rng.randint(0, wl.churn)
        reply = client.ingest([{"joins": joins, "leaves": leaves}])
        if reply.get("dropped") or reply.get("accepted") != 1:
            raise RuntimeError(f"ingest dropped events: {reply}")
        state["pending"] += joins - leaves
        tick = client.tick()
        state["size"] += state["pending"]
        state["pending"] = 0
        state["ok_ticks"] += 1
        sizes[int(tick["round"])] = state["size"]
        return tick

    writer_box: Dict[str, Any] = {}

    def writer() -> None:
        writer_box["phase"] = run_phase(write, wl.write_rate, 3600.0, stop=stop)

    last_round = [-1]
    messages: Dict[int, float] = {}

    def read() -> Dict[str, Any]:
        reply = client.estimate()
        estimates = reply.get("estimates") or {}
        if set(estimates) != families:
            raise ValueError(f"reply families {sorted(estimates)} != {sorted(families)}")
        for entry in estimates.values():
            value = entry.get("value")
            if value is not None and not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"undecodable estimate {value!r}")
        current = int(reply["round"])
        if current < last_round[0]:
            raise ValueError(f"round went backwards: {current} after {last_round[0]}")
        last_round[0] = current
        sc = estimates.get("sample_collide") or {}
        if sc.get("round") is not None:
            messages[int(sc["round"])] = float(sc.get("messages", 0))
        return reply

    started = time.perf_counter()
    thread = threading.Thread(target=writer, name="perfbench-writer", daemon=True)
    thread.start()
    errors = (ServiceClient.Error, OSError, ValueError)
    try:
        base = run_phase(read, wl.base_rate, base_s, errors=errors)
        phases = [base]
        ladder = []
        max_rps = base.achieved_rate() if _passes(base, limit) else 0.0
        if max_rps:
            for rate in wl.ladder:
                step = run_phase(read, rate, step_s, errors=errors)
                phases.append(step)
                ok = _passes(step, limit)
                ladder.append(
                    {
                        "rate": rate,
                        "p99_ms": percentile([s.latency for s in step.samples], 99) * 1000.0,
                        "backlog_ms": step.backlog() * 1000.0,
                        "passed": ok,
                    }
                )
                if not ok:
                    break
                max_rps = step.achieved_rate()
    finally:
        stop.set()
        thread.join(timeout=30)
    wall = time.perf_counter() - started
    writes_phase = writer_box["phase"]

    samples = [s for phase in phases for s in phase.samples]
    failed_reads = sum(1 for s in samples if not s.ok)
    failed_writes = sum(1 for s in writes_phase.samples if not s.ok)
    # The error a reader sees: the served value against the size at the
    # reply's round, so staleness counts too.
    errs = []
    for s in samples:
        true_size = sizes.get(int(s.reply["round"]), 0) if s.ok else 0
        if true_size <= 0:
            continue
        for entry in s.reply["estimates"].values():
            if entry.get("value") is not None:
                errs.append(abs(entry["value"] / true_size - 1.0) * 100.0)
    if failed_reads:
        problems.append(f"{failed_reads} reads failed")
    if failed_writes:
        problems.append(f"{failed_writes} writes failed")
    return {
        "base": base,
        "writes_phase": writes_phase,
        "ladder": ladder,
        "read_max_rps": max_rps,
        "quality_err_pct": statistics.mean(errs) if errs else float("nan"),
        "reads": len(samples),
        "ok_reads": len(samples) - failed_reads,
        "failed_reads": failed_reads,
        "writes": len(writes_phase.samples),
        "ok_ticks": state["ok_ticks"],
        "failed_writes": failed_writes,
        "size": state["size"],
        "wall_s": wall,
        "sent": len(samples) + 2 * len(writes_phase.samples),
        "messages": list(messages.values()),
        "problems": problems,
    }


def _passes(phase, limit: float) -> bool:
    """A rate is met: no failures, p99 from due under ``limit``, no backlog."""
    from loadgen import percentile

    if not phase.samples or not all(s.ok for s in phase.samples):
        return False
    p99 = percentile([s.latency for s in phase.samples], 99)
    return p99 <= limit and phase.backlog() <= limit


def _binary_rtts(address: str, count: int) -> List[float]:
    """Round trips of framed-JSON estimate reads on one persistent connection."""
    import socket

    from repro.service.server import recv_frame, send_frame

    host, _, port = address.rpartition(":")
    rtts = []
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        for _ in range(count):
            t0 = time.perf_counter()
            send_frame(sock, {"op": "estimate"})
            reply = recv_frame(sock)
            rtts.append(time.perf_counter() - t0)
            if reply.get("status") != 200:
                raise RuntimeError(f"binary estimate failed: {reply}")
    return rtts


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    procs.install_exit_signals()
    wl = workloads.get(args.workload, toy=args.toy)
    pathlib.Path(args.work).mkdir(parents=True, exist_ok=True)
    kids = procs.Children()
    try:
        if isinstance(wl, workloads.Service):
            out = run_service(args, wl, args.t_spawn, kids)
        else:
            out = run_batch(args, wl, args.t_spawn, kids)
    finally:
        kids.close()
    sys.stdout.write(json.dumps(out, default=float) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
