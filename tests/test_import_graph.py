"""What each entry point imports.

Every check runs in a fresh interpreter and reads ``sys.modules`` after
the entry point has run: the service client loads the standard library
and the framing module only, ``serve`` and ``worker serve`` load what
they run and not the rest, and the lazy package re-exports resolve every
name they list.  No check times anything.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: The ``repro.experiments`` modules the CLI itself needs; every other
#: one defines experiments.
CLI_EXPERIMENT_MODULES = {
    "repro.experiments.catalog",
    "repro.experiments.cli",
    "repro.experiments.config",
}

LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.experiments",
    "repro.runtime",
    "repro.service",
]


def loaded_after(code: str) -> set:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_loads(argv) -> set:
    return loaded_after(f"from repro.experiments.cli import main\nassert main({argv!r}) == 0")


def figure_modules(modules) -> set:
    return {m for m in modules if m.startswith("repro.experiments.")} - CLI_EXPERIMENT_MODULES


def test_the_service_client_is_stdlib_only():
    modules = loaded_after("from repro.service.server import ServiceClient")
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("repro.runtime.")} == {"repro.runtime.framing"}
    assert "repro.service.core" not in modules


def test_serve_loads_no_executor_experiment_or_report():
    modules = cli_loads(
        ["serve", "--bind", "127.0.0.1:0", "--nodes", "50", "--tick-interval", "0.001",
         "--rounds", "1"]
    )
    assert {"repro.service.core", "repro.service.server"} <= modules  # it did serve
    assert not modules & {"repro.runtime.api", "repro.runtime.cluster", "repro.runtime.pool"}
    assert not figure_modules(modules)
    assert not {m for m in modules if m.startswith("repro.analysis.")}


def test_worker_serve_loads_no_experiment_or_service_code():
    modules = cli_loads(["worker", "serve", "--bind", "127.0.0.1:0", "--max-sessions", "0"])
    assert "repro.runtime.cluster" in modules  # it did serve
    assert not figure_modules(modules)
    # The parser names the service families, which the package itself
    # defines; no service module loads.
    assert not {m for m in modules if m.startswith("repro.service.")}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_a_lazy_package_resolves_every_listed_name(package):
    code = f"""
import sys
import {package} as pkg
loaded = sorted(m for m in sys.modules if m.startswith("repro"))
assert loaded == sorted({{"repro", "repro._lazy", {package!r}}}), loaded
missing = set(pkg.__all__) - set(dir(pkg))
assert not missing, missing
for name in pkg.__all__:
    getattr(pkg, name)
try:
    pkg.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""
    loaded_after(code)
