"""Run ``repro-experiment serve`` with the benchmark's span wrappers.

Usage: ``python3 perfbench/serve_launcher.py [--spans FILE] -- serve ARGS``

With ``--spans`` the launcher installs the same wrappers a traced
repetition uses (:mod:`tracing`) before it hands ``ARGS`` to the CLI's
``main``, and writes the recorded spans to ``FILE`` when the server
exits.  SIGTERM is turned into the Ctrl-C the CLI already handles, so the
server closes its journal on either signal.
"""

from __future__ import annotations

import argparse
import pathlib
import signal
import sys
from typing import List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="serve_launcher")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    from repro.experiments import cli

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.standard_observers())
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.write(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
