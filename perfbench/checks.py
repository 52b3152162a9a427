"""Output checks: is what the program produced correct?

Digests live in ``digests.json`` beside this file:

* ``structure`` — sha256 of every ``(index, stream, true_size)`` row of a
  batch workload.  The true sizes follow from the scenario alone (overlay
  size and churn schedule), so the digest holds for every seed and any
  kernel RNG lineage, and proves each trial ran at the right scenario
  state.
* ``results`` — sha256 of every ``(index, stream, value, true_size)`` row,
  bit-exact, for ``churn_pool`` at the default and the held-out seed.
  The determinism contract makes them independent of the worker count.

At any other seed, :func:`serial_rows` recomputes the first and last
estimation points of a batch serially, from the configuration stored with
the artifact, and those rows must match the batch's bit for bit.

Regenerate both with ``python3 perfbench/run.py --write-digests`` (only
after a change that is meant to alter results).
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import struct
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: Largest acceptable mean |estimate/true - 1| in percent, per workload —
#: two to five times the error measured when the band was set (7-12 %), so
#: only a broken estimator trips it.
QUALITY_BAND = {"churn_pool": 25.0, "static_large": 60.0, "cluster_churn": 25.0}
#: The median of estimate/true must fall within ``[1 / F, F]``: a stuck or
#: scaled estimator moves the median; one outlier trial does not.
MEDIAN_RATIO_FACTOR = 1.5


def load_digests() -> Dict[str, Any]:
    return json.loads(DIGESTS.read_text())


def _float_hex(value: float) -> str:
    return struct.pack(">d", float(value)).hex()


def structure_digest(rows: Iterable[Tuple[int, int, float, float]]) -> str:
    h = hashlib.sha256()
    for index, stream, _value, true_size in sorted(rows, key=lambda r: (r[0], r[1])):
        h.update(f"{index},{stream},{_float_hex(true_size)}\n".encode())
    return h.hexdigest()


def results_digest(rows: Iterable[Tuple[int, int, float, float]]) -> str:
    h = hashlib.sha256()
    for index, stream, value, true_size in sorted(rows, key=lambda r: (r[0], r[1])):
        h.update(f"{index},{stream},{_float_hex(value)},{_float_hex(true_size)}\n".encode())
    return h.hexdigest()


def rows_of(results: Sequence[Any]) -> List[Tuple[int, int, float, float]]:
    return [(int(r.index), int(r.stream), float(r.value), float(r.true_size)) for r in results]


def quality_err_pct(rows: Sequence[Tuple[int, int, float, float]]) -> float:
    """Mean |estimate/true - 1| x 100 over the rows that hold an estimate."""
    errs = [
        abs(value / true_size - 1.0) * 100.0
        for _i, _k, value, true_size in rows
        if math.isfinite(value) and true_size > 0
    ]
    return sum(errs) / len(errs) if errs else float("nan")


def check_batch(
    workload: str,
    seed: int,
    rows: Sequence[Tuple[int, int, float, float]],
    expected: Sequence[Tuple[int, int]],
    journal: Sequence[Mapping[str, Any]],
    digests: Optional[Mapping[str, Any]],
) -> Tuple[int, List[str]]:
    """``(failed trials, problems)`` of one batch.

    A missing or NaN trial fails on its own; any other failed check fails
    every trial of the batch.  ``digests=None`` skips the digest checks
    (toy sizes have none).
    """
    from repro.analysis.obs_report import validate_journal

    problems: List[str] = []
    keys = [(i, k) for i, k, _v, _t in rows]
    if len(keys) != len(set(keys)):
        problems.append("duplicate (index, stream) results")
    present = set(keys)
    missing = [key for key in expected if key not in present]
    extra = sorted(present - set(expected))
    if extra:
        problems.append(f"unexpected results {extra[:5]}")
    nan = sum(1 for _i, _k, v, _t in rows if not math.isfinite(v))
    failed_trials = len(missing) + nan
    if missing:
        problems.append(f"{len(missing)} missing trials, e.g. {missing[:3]}")
    if nan:
        problems.append(f"{nan} trials without an estimate")

    if digests is not None:
        want = digests.get("structure", {}).get(workload)
        got = structure_digest(rows)
        if want != got:
            problems.append(f"structure digest {got[:12]} != committed {str(want)[:12]}")
        want_results = digests.get("results", {}).get(workload, {}).get(str(seed))
        if want_results is not None and want_results != results_digest(rows):
            problems.append("results digest differs from the committed one for this seed")

    band = QUALITY_BAND.get(workload)
    err = quality_err_pct(rows)
    if band is not None and not (err <= band):
        problems.append(f"mean error {err:.2f}% outside the {band}% band")
    ratios = sorted(v / t for _i, _k, v, t in rows if math.isfinite(v) and t > 0)
    if ratios:
        median = ratios[len(ratios) // 2]
        if not 1.0 / MEDIAN_RATIO_FACTOR <= median <= MEDIAN_RATIO_FACTOR:
            problems.append(f"median estimate/true {median:.3f} outside the band")

    journal_problems = validate_journal(list(journal))
    if journal_problems:
        problems.append(f"journal: {journal_problems[:3]}")
    problems.extend(chunk_balance(journal))

    structural = [
        p for p in problems if "missing trials" not in p and "without an estimate" not in p
    ]
    if structural:
        failed_trials = len(expected)
    return failed_trials, problems


def serial_rows(
    config: Mapping[str, Any], indices: Iterable[int]
) -> List[Tuple[int, int, float, float]]:
    """Rows of the trials at ``indices``, rerun serially from a stored batch config.

    ``config`` is the ``batch_config`` saved in the results artifact: the
    fields shared by every trial plus the ``(index, stream)`` pairs.
    """
    from repro.runtime import EstimatorSpec, OverlaySpec, TrialSpec, run_trials

    wanted = set(indices)
    overlay = config["overlay"]
    estimator = config["estimator"]
    overlay_spec = OverlaySpec(overlay["builder"], dict(overlay["params"])) if overlay else None
    estimator_spec = (
        EstimatorSpec(estimator["kind"], dict(estimator["params"])) if estimator else None
    )
    specs = [
        TrialSpec(
            config["kind"],
            int(config["hub_seed"]),
            int(index),
            overlay=overlay_spec,
            estimator=estimator_spec,
            params=dict(config["params"]),
            stream=int(stream),
            overlay_seed=config["overlay_seed"],
        )
        for index, stream in config["trials"]
        if index in wanted
    ]
    return rows_of(run_trials(specs))


def chunk_balance(journal: Sequence[Mapping[str, Any]]) -> List[str]:
    """Every executed batch's ``chunk_start`` ids match its ``chunk_done`` ids."""
    started: Dict[Any, List[Any]] = {}
    done: Dict[Any, List[Any]] = {}
    for event in journal:
        if event.get("event") == "chunk_start":
            started.setdefault(event.get("batch"), []).append(event.get("chunk"))
        elif event.get("event") == "chunk_done":
            done.setdefault(event.get("batch"), []).append(event.get("chunk"))
    out = []
    for batch in set(started) | set(done):
        if sorted(started.get(batch, [])) != sorted(done.get(batch, [])):
            out.append(f"batch {batch}: chunk_start/chunk_done do not balance")
    return out
