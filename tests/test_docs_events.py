"""docs/OBSERVABILITY.md's journal schema table lists exactly ``EVENTS``."""

from __future__ import annotations

import pathlib
import re

from repro.runtime.progress import EVENTS

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def documented_events():
    """``[(event, required fields)]`` from the schema table's rows.

    The fields cell lists the required fields first; optional ones follow
    in a ``(+ ...)`` group.
    """
    rows = []
    in_table = False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("| event | fields (beyond `ts`)"):
            in_table = True
        elif in_table and line.startswith("| `"):
            name, fields = [cell.strip() for cell in line.strip("|").split("|")][:2]
            required = fields.split("(+")[0]
            rows.append((name.strip("`"), tuple(re.findall(r"`(\w+)`", required))))
        elif in_table and not line.startswith("|"):
            break
    return rows


def test_schema_table_lists_every_event_with_its_required_fields():
    assert documented_events() == [(name, e.fields) for name, e in EVENTS.items()]
