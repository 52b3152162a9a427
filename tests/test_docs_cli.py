"""README.md's flag table lists exactly the options of ``run``."""

from __future__ import annotations

import argparse
import pathlib
import re

from repro.experiments.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def documented_flags():
    """Every flag named in the first cell of the ``| Flag | Meaning |`` rows.

    A cell may name several flags (``--csv-dir DIR``, ``--quiet``, ...);
    each backtick span contributes its leading option string.
    """
    flags = []
    in_table = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| Flag | Meaning |"):
            in_table = True
        elif in_table and line.startswith("| `"):
            cell = line.strip("|").split("|")[0]
            flags.extend(re.findall(r"`(-[\w-]+)", cell))
        elif in_table and not line.startswith("|"):
            break
    return flags


def run_options():
    """Option strings of the ``run`` subcommand, minus ``-h/--help``."""
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [
        option
        for action in subparsers.choices["run"]._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]


def test_flag_table_lists_every_run_option_once():
    assert sorted(documented_flags()) == sorted(run_options())
