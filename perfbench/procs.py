"""Child processes the benchmark starts: spawn, scrape, reap.

Every child is registered in a :class:`Children` set whose ``close``
reaps all of them with a timeout — SIGINT first (the CLI's clean
shutdown), then SIGTERM, then SIGKILL — and callers run it in a
``finally`` so no exit path leaves a process behind.
"""

from __future__ import annotations

import os
import pathlib
import queue
import signal
import subprocess
import threading
import time
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def child_env(revision: str, pycache: pathlib.Path) -> Dict[str, str]:
    """Environment of a repetition: the checkout's ``src``, no ``REPRO_*`` knobs.

    Stray ``REPRO_SCALE``/``REPRO_HOSTS``/... settings would change what a
    workload runs, so they are dropped; ``REPRO_GIT_REVISION`` is set so
    artifact headers carry the revision without running ``git``.  Every
    Python process of the repetition reads and writes bytecode under
    ``pycache`` only, so imports are as warm as that cache, whatever
    ``__pycache__`` directories the checkout holds.  The servers and worker
    hosts a repetition starts inherit this environment.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_GIT_REVISION"] = revision or "unknown"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


class Child:
    """A running child whose stdout lines are collected on a reader thread."""

    def __init__(self, cmd: Sequence[str], cwd: Optional[str] = None) -> None:
        self.cmd = list(cmd)
        self.proc = subprocess.Popen(
            self.cmd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=cwd,
            text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.stderr_tail: List[str] = []
        self._out = threading.Thread(target=self._pump, daemon=True)
        self._err = threading.Thread(target=self._pump_err, daemon=True)
        self._out.start()
        self._err.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _pump_err(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_tail.append(line.rstrip("\n"))
            del self.stderr_tail[:-40]

    def wait_line(self, prefix: str, timeout: float) -> str:
        """Value after ``prefix`` on the first stdout line that starts with it."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{self.cmd[:4]}: no {prefix!r} line within {timeout}s")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"{self.cmd[:4]} exited before printing {prefix!r}:\n"
                    + "\n".join(self.stderr_tail)
                )
            if line.startswith(prefix):
                return line[len(prefix) :].strip()

    def stop(self, timeout: float = 10.0) -> None:
        """Reap the child: SIGINT, then SIGTERM, then SIGKILL, each bounded."""
        for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGKILL):
            if self.proc.poll() is not None:
                break
            try:
                self.proc.send_signal(sig)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout=timeout if sig != signal.SIGKILL else 30.0)
            except subprocess.TimeoutExpired:
                continue
        self._out.join(timeout=5.0)
        self._err.join(timeout=5.0)


class Children:
    """Every child of one process, reaped together."""

    def __init__(self) -> None:
        self.children: List[Child] = []

    def spawn(self, cmd: Sequence[str]) -> Child:
        child = Child(cmd, cwd=str(ROOT))
        self.children.append(child)
        return child

    def close(self) -> None:
        while self.children:
            self.children.pop().stop()


def install_exit_signals() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks reap children."""

    def _exit(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)

