"""The benchmark end to end at toy size: names, layers, checks, attribution."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

import layers
import workloads

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per workload, per-layer metrics that must be non-zero: the layers the
#: workload is chosen to exercise.
BUSY = {
    "churn_pool": [
        "overlay.build_s",
        "churn.advance_s",
        "core.estimation_s",
        "runtime.pool.chunks",
        "runtime.pool.busy_frac",
        "runtime.snapshots.backbone_s",
        "runtime.snapshots.payload_bytes",
        "runtime.store.save_s",
        "runtime.obs.events",
    ],
    "static_large": [
        "overlay.build_s",
        "overlay.nodes_built",
        "overlay.to_array_s",
        "core.kernel_s",
        "core.estimates",
        "runtime.trials.chunk_elapsed_s",
    ],
    "service_mixed": [
        "service.core.serve_ms_p50",
        "service.core.tick_ms_p50",
        "service.core.checkpoint_ms_p50",
        "service.core.checkpoint_bytes",
        "service.core.probes",
        "service.server.connections",
        "service.server.binary_rtt_ms_p50",
        "runtime.obs.journal_bytes_per_read",
        "churn.events_applied",
        "loadgen.sent",
    ],
    "cluster_churn": [
        "runtime.cluster.first_dispatch_s",
        "runtime.cluster.frames_sent",
        "runtime.cluster.bytes_sent",
        "runtime.cluster.recv_wait_s",
        "runtime.cluster.busy_frac",
        "runtime.snapshots.boundaries",
        "runtime.snapshots.restore_s",
        "core.kernel_s",
    ],
}
#: Layers each workload bypasses: predicted (and required) to read 0.
IDLE = {
    "churn_pool": ["runtime.cluster.frames_sent", "service.core.tick_ms_p50", "loadgen.sent"],
    "static_large": [
        "runtime.pool.chunks",
        "runtime.cluster.frames_sent",
        "runtime.snapshots.boundaries",
        "churn.advance_s",
    ],
    "service_mixed": ["runtime.pool.chunks", "runtime.cluster.frames_sent", "experiments.fold_s"],
    "cluster_churn": ["runtime.pool.chunks", "service.core.tick_ms_p50"],
}


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        timeout=600,
    )


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.NAMES)
    names = [m["name"] for m in SPEC["end_to_end"]] + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(workload):
    proc = _run("--workload", workload, "--toy", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for entry in SPEC["per_layer"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    for name in BUSY[workload]:
        assert metrics[name]["value"] > 0, name
    for name in IDLE[workload]:
        assert metrics[name]["value"] == 0, name
    text = "\n".join(lines)
    assert "unattributed" in text
    assert "tracing overhead" in text
    trace = ROOT / ".perfbench" / "traces" / f"{workload}-{workloads.DEFAULT_SEED}.json"
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e.get("ph") == "X" for e in events)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--toy", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for entry in SPEC["end_to_end"]:
        assert result["metrics"][entry["name"]]["value"] > 0, entry["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn_pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
