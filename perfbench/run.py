#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and per layer.

One run of one workload::

    python3 perfbench/run.py --workload churn_pool --seed 1 --seconds 10 --trace 0

prints the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``, plus a layer table, the tracing overhead
and a Chrome trace under ``.perfbench/``) as the last stdout line, one
JSON object.  Every workload at once, with a table of every metric::

    python3 perfbench/run.py --all

Each repetition runs in a fresh interpreter (``perfbench/rep.py``) with its
own cold store and journal; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402

#: Counted set-up-only repetitions per run, half before and half after the
#: measured one, which adds the last set-up sample.
SETUP_REPS = 8
#: Wall-clock budget of one run (the contract allows 180 s).
RUN_BUDGET_S = 170.0


def revision() -> str:
    """The checkout's commit, found the way the program finds it."""
    from repro.runtime.provenance import detect_git_revision

    return detect_git_revision(str(ROOT)) or "unknown"


def fingerprint() -> Dict[str, Any]:
    """Machine and code identity recorded with every result set."""
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision(),
        "machine": platform.machine(),
    }


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Run:
    """What every repetition of one run of one workload shares."""

    workload: str
    seed: int
    seconds: float
    env: Dict[str, str]
    #: ``time.monotonic()`` by which the run must be done.
    end: float
    toy: bool = False

    def rep(self, mode: str, trace: int = 0, keep: Optional[pathlib.Path] = None) -> Dict[str, Any]:
        """Run ``rep.py`` once in a fresh interpreter and return its JSON line.

        The repetition runs in its own process group, so a timeout kills the
        servers and worker hosts it started along with it.
        """
        work = WORK / f"rep-{os.getpid()}-{time.monotonic_ns()}"
        cmd = [
            sys.executable,
            str(HERE / "rep.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--seconds",
            str(self.seconds),
            "--work",
            str(work),
            "--mode",
            mode,
            "--trace",
            str(trace),
        ] + (["--toy"] if self.toy else [])
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--t-spawn", repr(t_spawn)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.end - time.monotonic()))
        except BaseException:
            _kill_group(proc)
            shutil.rmtree(work, ignore_errors=True)
            raise
        _kill_group(proc)  # anything the repetition failed to reap
        try:
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{self.workload} repetition exited {proc.returncode}:\n{stderr[-4000:]}"
                )
            out = json.loads(stdout.strip().splitlines()[-1])
            if keep is not None and (work / "trace.json").exists():
                keep.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(work / "trace.json", keep)
            return out
        finally:
            shutil.rmtree(work, ignore_errors=True)


@contextlib.contextmanager
def start(
    workload: str, seed: int, seconds: float, toy: bool = False, budget: float = RUN_BUDGET_S
) -> Iterator[Run]:
    """One run of ``workload``, with a bytecode cache of its own.

    Every Python process of the run reads and writes bytecode only in that
    cache (``PYTHONPYCACHEPREFIX``), which starts filled with the checkout's
    code and is removed when the run ends.  The run's first set-up
    repetition adds the interpreter's and numpy's modules and is not
    counted, so every counted set-up imports warm, as an installed package
    does, and no ``__pycache__`` in the checkout changes what is measured.
    """
    end = time.monotonic() + budget
    cache = WORK / f"pycache-{os.getpid()}-{time.monotonic_ns()}"
    env = procs.child_env(revision(), cache)
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
            env=env,
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=120,
        )
        yield Run(workload, seed, seconds, env, end, toy)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - unkillable child
        pass


def measure(run: Run) -> Dict[str, Any]:
    """Set-up repetitions around one measured repetition.

    The metrics come from the measured repetition; ``setup_s`` is the
    median over it and the counted set-up repetitions, which are spread
    before and after it so they sample the machine over the whole run.
    """
    run.rep("setup")  # warms the bytecode cache; not counted
    setups = [run.rep("setup")["setup_s"] for _ in range(SETUP_REPS // 2)]
    out = run.rep("run")
    setups += [run.rep("setup")["setup_s"] for _ in range(SETUP_REPS - SETUP_REPS // 2)]
    setups.append(out["setup_s"])
    out["setup_s"] = statistics.median(setups)
    out["setup_samples"] = len(setups)
    out["failed_frac"] = out["failed"] / max(1, out["attempted"])
    return out


def traced(run: Run) -> Dict[str, Any]:
    """One untraced and one traced repetition; per-layer metrics from the latter."""
    run.rep("setup")  # warms the bytecode cache
    plain = run.rep("run")
    keep = WORK / "traces" / f"{run.workload}-{run.seed}.json"
    rep = run.rep("run", trace=1, keep=keep)
    rep["overhead"] = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": rep["wall_s"],
        "delta_wall_s": rep["wall_s"] - plain["wall_s"],
        "untraced_read_p50_ms": plain.get("read_p50_ms"),
        "traced_read_p50_ms": rep.get("read_p50_ms"),
    }
    rep["trace_file"] = str(keep.relative_to(ROOT)) if keep.exists() else None
    rep["attempted"] += plain["attempted"]
    rep["failed"] += plain["failed"]
    rep["problems"] = plain.get("problems", []) + rep.get("problems", [])
    for name in layers.UNGATED:
        rep["layers"][name] = float(plain.get(name, 0.0))
    rep["layers"]["failed_frac"] = rep["failed"] / max(1, rep["attempted"])
    return rep


def layer_table(rep: Dict[str, Any]) -> str:
    """Wall-clock attribution of the timed thread, plus busy time elsewhere."""
    attribution = rep["attribution"]
    wall = sum(attribution.values())
    lines = [f"{'layer':<22}{'self s':>10}{'share':>9}    busy s (all threads/processes)"]
    names = set(attribution) | set(rep.get("busy", {}))
    for layer in sorted(names, key=lambda k: (k == "unattributed", k)):
        seconds = attribution.get(layer, 0.0)
        busy = rep.get("busy", {}).get(layer)
        lines.append(
            f"{layer:<22}{seconds:>10.3f}{100.0 * seconds / wall if wall else 0.0:>8.1f}%"
            + (f"    {busy:.3f}" if busy is not None else "")
        )
    lines.append(f"{'wall (timed thread)':<22}{wall:>10.3f}")
    o = rep["overhead"]
    line = (
        f"tracing overhead: traced wall {o['traced_wall_s']:.3f} s - untraced "
        f"{o['untraced_wall_s']:.3f} s = {o['delta_wall_s']:+.3f} s"
    )
    if o["untraced_read_p50_ms"] is not None:
        # An open-loop load lasts as long as its schedule: the overhead
        # shows in the latency, not in the wall clock.
        line += (
            f"; read p50 {o['untraced_read_p50_ms']:.3f} ms untraced, "
            f"{o['traced_read_p50_ms']:.3f} ms traced"
        )
    lines.append(line)
    if rep.get("trace_file"):
        lines.append(f"trace: {rep['trace_file']} (Chrome trace-event JSON, loads in Perfetto)")
    return "\n".join(lines)


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, float], spec_metrics
) -> str:
    """The contract's last line: every metric of ``spec_metrics`` with its unit.

    A value that could not be measured (no successful operation of its
    kind, so the run is already incorrect) is written as 0, keeping the
    line strict JSON.
    """
    out = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name not in metrics:
            raise KeyError(f"metric {name!r} was not measured")
        value = float(metrics[name])
        out[name] = {"value": value if math.isfinite(value) else 0.0, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": out,
        }
    )


def run_one(args, spec) -> int:
    with start(args.workload, args.seed, args.seconds, args.toy) as run:
        print(
            f"# {args.workload} seed={args.seed} seconds={args.seconds} "
            + json.dumps(fingerprint())
        )
        if args.trace:
            rep = traced(run)
            print(layer_table(rep))
            for problem in rep.get("problems", []):
                print(f"check failed: {problem}")
            correct = rep["failed"] == 0 and not rep.get("problems")
            print(
                result_line(
                    correct, rep["attempted"], rep["failed"], rep["layers"], spec["per_layer"]
                )
            )
            return 0
        summary = measure(run)
    for problem in summary["problems"]:
        print(f"check failed: {problem}")
    ladder = f" ladder={json.dumps(summary['ladder'])}" if "ladder" in summary else ""
    print(f"# {_samples(summary)}{ladder}")
    correct = summary["failed"] == 0 and not summary["problems"]
    print(
        result_line(
            correct, summary["attempted"], summary["failed"], summary, spec["end_to_end"]
        )
    )
    return 0


def _samples(summary: Dict[str, Any]) -> str:
    """Sample counts behind the medians and percentiles of a summary."""
    out = f"setup_samples={summary['setup_samples']}"
    if "read_samples" in summary:
        out += (
            f" read_samples={int(summary['read_samples'])} (tail p{summary['read_tail_pct']:g})"
            f" write_samples={int(summary['write_samples'])}"
        )
    return out


def run_all(args) -> int:
    """Every workload once; a table of every end-to-end metric and check."""
    spec = load_spec()
    table = spec["end_to_end"] + [m for m in spec["per_layer"] if m["name"] in layers.UNGATED]
    rows = []
    for name in workloads.WORKLOADS:
        with start(name, args.seed, args.seconds, args.toy) as run:
            if not rows:
                print(f"# fingerprint {json.dumps(fingerprint())}")
            rows.append((name, measure(run)))
    ok = True
    for name, summary in rows:
        ok = ok and summary["failed"] == 0 and not summary["problems"]
        for problem in summary["problems"]:
            print(f"{name}: check failed: {problem}")
    width = max(len(n) for n, _ in rows)
    print(f"{'metric':<18}{'unit':<7}" + "".join(f"{n:>{width + 2}}" for n, _ in rows))
    for entry in table:
        metric = entry["name"]
        cells = "".join(
            f"{summary[metric]:>{width + 2}.4g}" if metric in summary else f"{'-':>{width + 2}}"
            for _, summary in rows
        )
        print(f"{metric:<18}{entry['unit']:<7}{cells}")
    for name, summary in rows:
        print(f"{name}: {_samples(summary)}")
    print(f"output checks: {'all passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def write_digests() -> int:
    """Recompute ``digests.json`` at the default and the held-out seed."""
    import checks

    data: Dict[str, Any] = {"structure": {}, "results": {}}
    for name, wl in workloads.WORKLOADS.items():
        if isinstance(wl, workloads.Service):
            continue
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            with start(name, seed, 1.0, budget=600.0) as run:
                rep = run.rep("run")
            previous = data["structure"].setdefault(name, rep["structure_digest"])
            if previous != rep["structure_digest"]:
                raise SystemExit(f"{name}: structure digest depends on the seed")
            if name == "churn_pool":
                data["results"].setdefault(name, {})[str(seed)] = rep["results_digest"]
            digests = f"{rep['structure_digest'][:16]} {rep['results_digest'][:16]}"
            print(f"{name} seed {seed}: {digests}")
    checks.DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--toy", action="store_true", help="toy sizes (harness tests)")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write("perfbench: no program to measure (src/repro or BENCHMARK.json missing)\n")
        return 2
    if args.write_digests:
        return write_digests()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required (or --all)")
    return run_one(args, load_spec())


if __name__ == "__main__":
    raise SystemExit(main())
