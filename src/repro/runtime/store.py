"""Content-addressed on-disk results store, with lifecycle tooling.

An experiment's full configuration (trial kind, seeds, overlay/estimator
specs, churn payloads, …) is canonicalized to JSON and hashed with
SHA-256; the digest addresses a JSON artifact under the store root.  Equal
configurations therefore always map to the same artifact, regardless of
where or when they ran — a second invocation of the same experiment is a
cache hit.

Cache-key semantics — what invalidates an artifact
--------------------------------------------------
The content address covers *everything that determines the trial results*:

* the trial kind and the exact ``(index, stream)`` pairs of the batch,
* the master ``hub_seed`` (and ``overlay_seed`` when distinct),
* the declarative overlay spec (builder name + all parameters),
* the declarative estimator spec (kind + all parameters),
* kind-specific ``params`` (churn-trace payloads, horizons, fresh-stream
  names, rounds, …),
* :data:`SCHEMA_VERSION`.

Changing any of these — a different seed, one more repetition, a new
estimator parameter — therefore produces a *different* key: the old
artifact is never overwritten, it simply stops being addressed (it remains
on disk until :meth:`ResultsStore.gc` or :meth:`ResultsStore.clear`
reclaims it).  Conversely, values that do **not** enter the key never
invalidate: worker count, chunk size, progress reporting, the experiment
*tag* (display metadata), and the wall-clock of the run.

Bumping :data:`SCHEMA_VERSION` invalidates every previously written
artifact at once (old files are simply misses until reclaimed).

Lifecycle tooling
-----------------
:meth:`ResultsStore.artifacts` enumerates what is on disk (key, tag, size,
age, trial count), :meth:`ResultsStore.stats` aggregates it, and
:meth:`ResultsStore.gc` evicts by age and/or total-size budget — the
``repro-experiment cache ls|stats|gc`` subcommands are thin wrappers over
these.  A cache *hit* bumps the artifact's access time (its ``atime``,
never the ``mtime``), so recency of use is observable without rewriting
artifacts.

Besides result batches the store holds replay-state *snapshots*
(:meth:`ResultsStore.save_snapshot`/:meth:`ResultsStore.load_snapshot`,
``docs/SNAPSHOTS.md``): separately addressed, marked
``payload: "snapshot"`` in their headers, accounted apart from result
bytes by :meth:`ResultsStore.stats`, and reclaimed by ``gc`` like
anything else — they are recomputable accelerators, never source data.
A snapshot is two files: the JSON header ``<key>.json`` and its arrays
in ``<key>.npz``, checked against the header's manifest on every load.
:func:`write_archive`/:func:`read_archive` hold the same header and
arrays in one ``.npz`` file instead, for state that must be replaced as
a unit (the service checkpoint, ``docs/SERVICE.md``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..overlay.arraygraph import ArrayOverlayGraph
from .provenance import detect_git_revision, summarize_results

if TYPE_CHECKING:  # the service reads and writes archives without trials
    from .trials import TrialResult

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactInfo",
    "GCReport",
    "ResultsStore",
    "SnapshotRejected",
    "StoreStats",
    "canonical_json",
    "content_key",
    "group_key",
    "read_archive",
    "write_archive",
]

#: Bump when the artifact layout or the meaning of a config changes.
SCHEMA_VERSION = 1


def _normalize(obj: Any) -> Any:
    """Reduce ``obj`` to plain JSON types with deterministic structure."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, float)):
        # bools already handled; numpy scalars coerce via float()/int()
        return obj
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, Mapping):
        return {str(k): _normalize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        return obj.item()
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for content addressing")


def _encode_floats(obj: Any) -> Any:
    """Replace non-finite floats with tagged strings so artifacts stay
    RFC-8259-valid JSON (``json.dump`` would otherwise emit bare ``NaN``
    literals that non-Python consumers reject)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, list):
        return [_encode_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _encode_floats(v) for k, v in obj.items()}
    return obj


def _decode_floats(obj: Any) -> Any:
    """Inverse of :func:`_encode_floats` (applied to loaded results and
    snapshot headers)."""
    if obj in ("NaN", "Infinity", "-Infinity"):
        return float(obj)
    if isinstance(obj, list):
        return [_decode_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _decode_floats(v) for k, v in obj.items()}
    return obj


class SnapshotRejected(Exception):
    """A stored snapshot artifact exists but failed a check; the message
    says which.  :meth:`ResultsStore.load_snapshot` raises it instead of
    restoring anything from the artifact."""


@contextlib.contextmanager
def _rejecting() -> Iterator[None]:
    """Turn any failure while decoding stored bytes into
    :class:`SnapshotRejected`: a corrupt file may fail anywhere (in
    ``zipfile``, the ``.npy`` header parser, ``json``), and the caller
    must see one typed error, never a crash."""
    try:
        yield
    except SnapshotRejected:
        raise
    except Exception as exc:  # noqa: BLE001 - see the docstring
        raise SnapshotRejected(f"{type(exc).__name__}: {exc}") from exc


def _dumps(artifact: Any) -> bytes:
    return json.dumps(artifact, allow_nan=False).encode("utf-8")


def _write_atomic(path: pathlib.Path, write: Callable[[BinaryIO], Any]) -> None:
    """Run ``write`` on a sibling temp file opened for binary writing, then
    ``os.replace`` it onto ``path``, so a crash never leaves a torn file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _unlink(path: pathlib.Path) -> bool:
    """Delete ``path``; False when it was already gone."""
    try:
        path.unlink()
        return True
    except FileNotFoundError:
        return False


def _file_size(path: pathlib.Path) -> int:
    """Size of ``path`` in bytes (0 when it does not exist)."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _sha256(arr: np.ndarray) -> str:
    """SHA-256 of an array's buffer, hashed in place (no ``tobytes`` copy)."""
    return hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()


def _split_arrays(
    payload: Mapping[str, Any], prefix: str = ""
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Split a snapshot payload into its JSON part and its arrays.

    Arrays may sit at any depth of nested mappings; each leaves the JSON
    part and is named by its key path (``"scheduler/graph/nodes"``).
    """
    header: Dict[str, Any] = {}
    arrays: Dict[str, np.ndarray] = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, np.ndarray):
            arrays[name] = value
        elif isinstance(value, Mapping):
            header[key], inner = _split_arrays(value, name + "/")
            arrays.update(inner)
        else:
            header[key] = value
    return header, arrays


#: Member of a :func:`write_archive` file that holds its JSON header.
_ARCHIVE_HEADER = "header"


def _manifest(arrays: Mapping[str, np.ndarray]) -> List[Dict[str, Any]]:
    """The header's ``arrays`` manifest: name, dtype, shape and sha256 per array."""
    return [
        {
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "sha256": _sha256(arr),
        }
        for name, arr in arrays.items()
    ]


def _checked_arrays(manifest: List[Mapping[str, Any]], npz) -> Dict[str, np.ndarray]:
    """The arrays of an open ``.npz``, each checked against its manifest entry."""
    names = [entry["name"] for entry in manifest]
    files = sorted(f for f in npz.files if f != _ARCHIVE_HEADER)
    if sorted(names) != files:
        raise SnapshotRejected(f"array file holds {files}, manifest lists {sorted(names)}")
    arrays = {}
    for entry in manifest:
        name = entry["name"]
        arr = npz[name]
        if arr.dtype.str != entry["dtype"] or list(arr.shape) != entry["shape"]:
            raise SnapshotRejected(
                f"array {name} is {arr.dtype.str}{list(arr.shape)}, "
                f"manifest says {entry['dtype']}{entry['shape']}"
            )
        if _sha256(arr) != entry["sha256"]:
            raise SnapshotRejected(f"array {name} does not match its sha256")
        arrays[name] = arr
    return arrays


def _join_arrays(payload: Dict[str, Any], arrays: Mapping[str, np.ndarray]) -> None:
    """Put checked arrays back at their key paths in ``payload``.

    Every mapping that receives arrays is one of two kinds of group, told
    apart by its keys, and must pass that kind's checks:

    * a packed overlay (it has ``indptr``):
      :meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.unpack`'s
      structural checks, raising ``GraphError``;
    * per-node values (it has ``values``): a 1-D integer ``nodes`` array
      of strictly ascending ids, the order every join of them assumes,
      and one finite ``float64`` value per node, raising
      :class:`SnapshotRejected`.

    A group of neither kind is rejected too.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    for name, arr in arrays.items():
        *parents, leaf = name.split("/")
        node = payload
        for key in parents:
            node = node[key]
        node[leaf] = arr
        groups["/".join(parents)] = node
    for path, group in groups.items():
        if "indptr" in group:
            ArrayOverlayGraph.unpack(group)
            continue
        nodes, values = group.get("nodes"), group.get("values")
        if not (
            isinstance(nodes, np.ndarray)
            and isinstance(values, np.ndarray)
            and nodes.dtype.kind == "i"
            and values.dtype == np.float64
            and nodes.ndim == 1
            and values.shape == nodes.shape
            and np.isfinite(values).all()
            and (nodes[1:] > nodes[:-1]).all()
        ):
            raise SnapshotRejected(
                f"array group {path!r} is neither a packed overlay nor one "
                "finite float64 value per integer node id, ids ascending"
            )


def write_archive(fh: BinaryIO, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` to ``fh`` as one ``.npz`` file.

    The payload's arrays become members named by their key path, as in a
    snapshot's ``.npz``; the ``header`` member holds UTF-8 JSON of the
    rest (``"payload"``) and the array manifest (``"arrays"``).  One file
    can be renamed into place as a unit, which a header + ``.npz`` pair
    cannot.  :func:`read_archive` is the inverse.
    """
    header, arrays = _split_arrays(payload)
    blob = _dumps({"arrays": _manifest(arrays), "payload": _encode_floats(header)})
    np.savez(fh, **{_ARCHIVE_HEADER: np.frombuffer(blob, dtype=np.uint8)}, **arrays)


def read_archive(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """The payload of a :func:`write_archive` file, checked as a snapshot is.

    The file is read with ``allow_pickle=False``; every array must match
    its manifest entry in name, dtype, shape and sha256, and every array
    group must pass :func:`_join_arrays`' checks.  Any failure, whatever
    its cause, raises :class:`SnapshotRejected` with the reason.
    """
    with _rejecting(), open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise SnapshotRejected("not an array archive (no zip signature)")
        fh.seek(0)
        with np.load(fh, allow_pickle=False) as npz:
            header = json.loads(npz[_ARCHIVE_HEADER].tobytes())
            payload = _decode_floats(header["payload"])
            _join_arrays(payload, _checked_arrays(header["arrays"], npz))
    return payload


def canonical_json(config: Any) -> str:
    """Deterministic JSON encoding: sorted keys, minimal separators."""
    return json.dumps(
        _normalize(config), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_key(config: Any) -> str:
    """SHA-256 content address of a configuration (schema-versioned)."""
    payload = canonical_json({"schema": SCHEMA_VERSION, "config": config})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Config keys that identify a *sampling* of an experiment rather than the
#: experiment itself; removed before hashing the logical-experiment group.
_SEED_KEYS = frozenset({"hub_seed", "overlay_seed"})


def group_key(config: Any) -> str:
    """Identity of the *logical experiment* behind a configuration.

    The SHA-256 of the config with its seed fields removed (and, unlike
    :func:`content_key`, without the schema version mixed in): artifacts
    produced at different seeds — or by differently-seeded CI runs — share
    a group, which is what lets the trend tracker join them across git
    revisions.  Changing any substantive parameter (overlay size, estimator
    settings, trial count) still changes the group.
    """
    normalized = _normalize(config)
    if isinstance(normalized, dict):
        normalized = {k: v for k, v in normalized.items() if k not in _SEED_KEYS}
    payload = canonical_json(normalized)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArtifactInfo:
    """Metadata of one on-disk artifact (one cached experiment batch).

    ``created`` is the artifact's mtime (set at save/refresh, never on
    read); ``last_access`` its atime (bumped on every cache hit).  ``tag``
    is the human experiment label recorded in the artifact's meta block —
    display-only, never part of the content address.

    ``revision``/``group``/``saved_at``/``metrics`` are the provenance
    fields the trend tracker joins on; artifacts written before they
    existed enumerate with empty defaults (reads stay backward
    compatible).
    """

    key: str
    path: pathlib.Path
    size_bytes: int
    created: float
    last_access: float
    tag: str = ""
    trials: int = 0
    schema: Optional[int] = None
    #: What the artifact holds: ``"results"`` (a trial batch) or
    #: ``"snapshot"`` (a replay-state boundary, see docs/SNAPSHOTS.md).
    payload: str = "results"
    #: Git commit the producing code was at ("" when unknown).
    revision: str = ""
    #: Logical-experiment identity (:func:`group_key`; "" on old artifacts).
    group: str = ""
    #: Wall-clock of the save (0.0 on old artifacts; survives mtime games).
    saved_at: float = 0.0
    #: Scalar metric summary: per-metric ``{mean, std, min, max, n}``
    #: blocks from :func:`summarize_results` plus batch-level scalars the
    #: producer adds (``elapsed_seconds`` from :func:`run_trials`).
    metrics: Optional[Dict[str, Any]] = None

    def age_seconds(self, now: Optional[float] = None) -> float:
        """Seconds since the artifact was written (or force-refreshed)."""
        return max(0.0, (time.time() if now is None else now) - self.created)

    @property
    def hit(self) -> bool:
        """True when the artifact has served at least one cache hit."""
        return self.last_access > self.created


@dataclass(frozen=True)
class StoreStats:
    """Aggregate view of a store directory (``cache stats``).

    ``artifacts``/``total_bytes`` cover *everything* on disk — that is
    what a ``gc --max-size`` budget applies to — while
    ``snapshot_artifacts``/``snapshot_bytes`` break out the replay-state
    snapshots so result payloads and snapshot payloads can be accounted
    separately (``result_bytes = total_bytes - snapshot_bytes``).
    """

    artifacts: int
    total_bytes: int
    trials: int
    hit_artifacts: int
    stale_schema: int
    oldest_age_seconds: float
    newest_age_seconds: float
    by_tag: Dict[str, Dict[str, int]] = field(default_factory=dict)
    snapshot_artifacts: int = 0
    snapshot_bytes: int = 0


@dataclass(frozen=True)
class GCReport:
    """Outcome of one :meth:`ResultsStore.gc` pass.

    ``evicted`` lists the artifacts removed (or, under ``dry_run``, the
    ones that *would* be); ``kept``/``kept_bytes`` describe what survives.
    """

    evicted: List[ArtifactInfo]
    kept: int
    kept_bytes: int
    dry_run: bool

    @property
    def evicted_bytes(self) -> int:
        """Total bytes the pass reclaimed (or would reclaim)."""
        return sum(a.size_bytes for a in self.evicted)


class ResultsStore:
    """Directory-backed store mapping experiment configs to trial results.

    Layout: ``<root>/<key[:2]>/<key>.json``, plus ``<key>.npz`` beside
    a snapshot's header (two-level fan-out keeps directories small at
    tens of thousands of artifacts).  Writes are
    atomic (tempfile + ``os.replace``) so a crashed run never leaves a
    torn artifact behind.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = pathlib.Path(root)

    # -- addressing ----------------------------------------------------

    def key_for(self, config: Any) -> str:
        """Content address of ``config``."""
        return content_key(config)

    def path_for(self, config: Any) -> pathlib.Path:
        """On-disk location the artifact for ``config`` lives at."""
        key = self.key_for(config)
        return self.root / key[:2] / f"{key}.json"

    # -- IO ------------------------------------------------------------

    def save(
        self,
        config: Any,
        results: List[TrialResult],
        meta: Optional[Dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Persist ``results`` under the content address of ``config``.

        The header (schema + meta) is self-describing for trend tracking:
        ``git_revision``, ``store_schema_version``, ``group``, ``saved_at``
        and a scalar ``metrics`` summary are stamped in automatically when
        the caller hasn't provided them, so *every* save — not only those
        routed through :func:`~repro.runtime.api.run_trials` — yields an
        artifact the trend tracker can join on without parsing results.
        """
        path = self.path_for(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = dict(meta or {})
        meta.setdefault("git_revision", detect_git_revision())
        meta.setdefault("store_schema_version", SCHEMA_VERSION)
        meta.setdefault("group", group_key(config))
        meta.setdefault("saved_at", time.time())
        meta.setdefault("metrics", summarize_results(results))
        # Key order matters: schema and meta lead the document so that
        # artifacts() can enumerate a large store by reading bounded
        # prefixes instead of parsing every results payload.
        artifact = {
            "schema": SCHEMA_VERSION,
            "meta": meta,
            "config": _normalize(config),
            "results": _encode_floats([r.as_dict() for r in results]),
        }
        _write_atomic(path, lambda fh: fh.write(_dumps(artifact)))
        return path

    def load(self, config: Any) -> Optional[List[TrialResult]]:
        """Results previously saved for ``config``, or ``None`` on a miss.

        Unreadable or schema-mismatched artifacts are misses, never
        errors: the store must always be safe to point at a stale cache
        directory.  So is an artifact whose stored config has another
        content address than the one it was read from (a file copied or
        moved between addresses): it is never served as this config's
        results.
        """
        from .trials import TrialResult

        path = self.path_for(config)
        try:
            with path.open() as fh:
                artifact = json.load(fh)
            if artifact["schema"] != SCHEMA_VERSION:
                return None
            if content_key(artifact["config"]) != path.stem:
                return None
            results = [
                TrialResult.from_dict(item)
                for item in _decode_floats(artifact["results"])
            ]
        except (OSError, KeyError, TypeError, ValueError):
            return None
        self._record_hit(path)
        return results

    @staticmethod
    def _record_hit(path: pathlib.Path) -> None:
        """Bump the artifact's atime (mtime untouched) to mark a cache hit.

        Best-effort: a read-only store directory must not turn hits into
        errors.
        """
        try:
            st = path.stat()
            os.utime(path, ns=(time.time_ns(), st.st_mtime_ns))
        except OSError:  # pragma: no cover - filesystem-dependent
            pass

    def save_snapshot(
        self,
        config: Any,
        payload: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Persist a replay-state snapshot under ``config``'s address.

        Snapshot configurations (see
        :func:`repro.runtime.snapshots.snapshot_config`) are disjoint from
        batch configurations by construction, so snapshot artifacts can
        never shadow result artifacts.  The header marks the artifact with
        ``payload: "snapshot"`` so lifecycle tooling (``cache ls|stats``)
        can account snapshot bytes separately from result bytes; ``gc``
        treats both uniformly — snapshots are pure accelerators that can
        always be recomputed.

        The payload's numpy arrays (the packed overlay,
        :meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.pack`, and a
        ``repair_replay`` monitor's ids and values) go to
        ``<key>.npz``, named by their key path; the JSON header keeps the
        rest plus an ``arrays`` manifest (name, dtype, shape, sha256 per
        array).  The array file is written first, so a header on disk
        always has its arrays beside it unless something removed them.
        """
        path = self.path_for(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = dict(meta or {})
        meta["payload"] = "snapshot"
        meta.setdefault("git_revision", detect_git_revision())
        meta.setdefault("store_schema_version", SCHEMA_VERSION)
        meta.setdefault("saved_at", time.time())
        header, arrays = _split_arrays(payload)
        artifact = {
            "schema": SCHEMA_VERSION,
            "meta": meta,
            "config": _normalize(config),
            "arrays": _manifest(arrays),
            "snapshot": _encode_floats(header),
        }
        _write_atomic(path.with_suffix(".npz"), lambda fh: np.savez(fh, **arrays))
        _write_atomic(path, lambda fh: fh.write(_dumps(artifact)))
        return path

    def load_snapshot(self, config: Any) -> Optional[Any]:
        """A snapshot previously saved for ``config``, or ``None`` on a miss.

        An artifact that exists but fails a check raises
        :class:`SnapshotRejected` with the reason: an unreadable header,
        a missing or unreadable array file (read with
        ``allow_pickle=False``), arrays that differ from the manifest in
        name, dtype, shape or sha256, a ``scheduler.graph`` overlay
        that is not a packed twin
        :meth:`~repro.overlay.arraygraph.ArrayOverlayGraph.unpack`
        accepts, or a monitor whose ids and values are not a ``values``
        array group.  Callers treat it as a miss, as
        :class:`~repro.runtime.pool.SnapshotBackbone` does after
        journaling it; a bad artifact is never restored.  A hit bumps the
        header's atime.
        """
        path = self.path_for(config)
        if not path.exists():
            return None
        with _rejecting():
            artifact = json.loads(path.read_bytes())
            if artifact.get("schema") != SCHEMA_VERSION or "snapshot" not in artifact:
                raise SnapshotRejected(f"not a schema-{SCHEMA_VERSION} snapshot artifact")
            payload = _decode_floats(artifact["snapshot"])
            with np.load(path.with_suffix(".npz"), allow_pickle=False) as npz:
                _join_arrays(payload, _checked_arrays(artifact["arrays"], npz))
            # Only array groups passed the checks in _join_arrays.
            if not isinstance(payload["scheduler"]["graph"].get("indptr"), np.ndarray):
                raise SnapshotRejected("the snapshot's overlay is not a packed CSR twin")
            monitor = payload.get("monitor")
            if monitor is not None and not isinstance(
                monitor["protocol"].get("values"), np.ndarray
            ):
                raise SnapshotRejected("the snapshot's monitor values are not arrays")
        self._record_hit(path)
        return payload

    def contains(self, config: Any) -> bool:
        """True when an artifact for ``config`` exists on disk."""
        return self.path_for(config).exists()

    def invalidate(self, config: Any) -> bool:
        """Delete the artifact for ``config`` (and its array file, if any);
        returns True if one existed."""
        path = self.path_for(config)
        _unlink(path.with_suffix(".npz"))
        return _unlink(path)

    def clear(self) -> int:
        """Delete every artifact under the root, array files included;
        returns the count of artifacts removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            path.unlink()
            removed += 1
        for path in self.root.glob("*/*.npz"):
            path.unlink()
        return removed

    # -- lifecycle -----------------------------------------------------

    #: Prefix window for header-only artifact reads; schema + meta always
    #: fit (meta is a tag string and a trial count), results may not.
    _HEADER_PROBE_BYTES = 64 * 1024

    @classmethod
    def _read_header(cls, fh) -> Dict[str, Any]:
        """Schema/meta of an open artifact without parsing its results.

        Artifacts are written with ``schema`` and ``meta`` leading the
        document, so for large files a bounded prefix up to the ``config``
        key parses on its own; anything surprising (pre-reorder key
        layout, oversized meta, corrupt JSON) falls back to a full parse.
        """
        prefix = fh.read(cls._HEADER_PROBE_BYTES)
        if len(prefix) == cls._HEADER_PROBE_BYTES:
            cut = prefix.find('"config"')
            if cut > 0:
                try:
                    head = json.loads(prefix[:cut].rstrip().rstrip(",") + "}")
                except ValueError:
                    head = None
                if isinstance(head, dict) and "schema" in head and "meta" in head:
                    return head
            prefix += fh.read()
        return json.loads(prefix)

    def artifacts(self) -> List[ArtifactInfo]:
        """Enumerate every artifact on disk, oldest first.

        Reads only each artifact's header (schema + meta), not the trial
        payload, so ``cache ls``/``stats``/``gc`` stay cheap on large
        stores.  A snapshot's ``size_bytes`` counts its ``.npz`` too.
        Unreadable files are skipped (consistent with :meth:`load`
        treating them as misses); artifacts written under a different
        schema version are still listed — with their recorded ``schema``
        — so ``gc`` can reclaim them.
        """
        out: List[ArtifactInfo] = []
        if not self.root.exists():
            return out
        for path in sorted(self.root.glob("*/*.json")):
            try:
                st = path.stat()
                with path.open() as fh:
                    artifact = self._read_header(fh)
                # Enumeration must be side-effect free: undo any atime
                # update our own read may have caused (hits are recorded
                # exclusively by load()).
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
            except (OSError, ValueError):
                continue
            if not isinstance(artifact, Mapping):
                continue
            size = st.st_size + _file_size(path.with_suffix(".npz"))
            meta = artifact.get("meta")
            if not isinstance(meta, Mapping):
                meta = {}
            metrics = meta.get("metrics")
            if not isinstance(metrics, Mapping):
                metrics = None
            try:
                saved_at = float(meta.get("saved_at", 0.0) or 0.0)
            except (TypeError, ValueError):
                saved_at = 0.0
            out.append(
                ArtifactInfo(
                    key=path.stem,
                    path=path,
                    size_bytes=int(size),
                    created=float(st.st_mtime),
                    last_access=float(st.st_atime),
                    tag=str(meta.get("tag", "")),
                    trials=int(meta.get("trials", 0) or 0),
                    schema=artifact.get("schema"),
                    payload=str(meta.get("payload", "results") or "results"),
                    revision=str(meta.get("git_revision", "") or ""),
                    group=str(meta.get("group", "") or ""),
                    saved_at=saved_at,
                    metrics=dict(metrics) if metrics else None,
                )
            )
        out.sort(key=lambda a: (a.created, a.key))
        return out

    def stats(self, now: Optional[float] = None) -> StoreStats:
        """Aggregate size/usage metadata over all artifacts."""
        infos = self.artifacts()
        now = time.time() if now is None else now
        by_tag: Dict[str, Dict[str, int]] = {}
        for info in infos:
            tag = info.tag or "(untagged)"
            bucket = by_tag.setdefault(tag, {"artifacts": 0, "bytes": 0, "trials": 0})
            bucket["artifacts"] += 1
            bucket["bytes"] += info.size_bytes
            bucket["trials"] += info.trials
        ages = [info.age_seconds(now) for info in infos]
        snapshots = [i for i in infos if i.payload == "snapshot"]
        return StoreStats(
            artifacts=len(infos),
            total_bytes=sum(i.size_bytes for i in infos),
            trials=sum(i.trials for i in infos),
            hit_artifacts=sum(1 for i in infos if i.hit),
            stale_schema=sum(1 for i in infos if i.schema != SCHEMA_VERSION),
            oldest_age_seconds=max(ages) if ages else 0.0,
            newest_age_seconds=min(ages) if ages else 0.0,
            by_tag=by_tag,
            snapshot_artifacts=len(snapshots),
            snapshot_bytes=sum(i.size_bytes for i in snapshots),
        )

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> GCReport:
        """Evict artifacts by age and/or total-size budget.

        Policy, applied in order:

        1. every artifact *older* than ``max_age_seconds`` (by creation
           time, i.e. mtime — cache hits never extend an artifact's life)
           is evicted;
        2. if the survivors still exceed ``max_total_bytes``, the oldest
           survivors are evicted until the store fits the budget.

        With ``dry_run=True`` the same selection is computed and reported
        but nothing is deleted.  A real pass deletes each evicted
        artifact's ``.npz`` with it, reclaims every orphan ``.npz`` whose
        header is gone, and removes emptied fan-out directories.
        """
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ValueError(f"max_age_seconds must be >= 0, got {max_age_seconds}")
        if max_total_bytes is not None and max_total_bytes < 0:
            raise ValueError(f"max_total_bytes must be >= 0, got {max_total_bytes}")
        now = time.time() if now is None else now
        infos = self.artifacts()  # oldest first
        evicted: List[ArtifactInfo] = []
        kept: List[ArtifactInfo] = []
        for info in infos:
            if max_age_seconds is not None and info.age_seconds(now) > max_age_seconds:
                evicted.append(info)
            else:
                kept.append(info)
        if max_total_bytes is not None:
            total = sum(i.size_bytes for i in kept)
            cut = 0
            while total > max_total_bytes and cut < len(kept):
                # oldest-first eviction until the survivors fit the budget
                total -= kept[cut].size_bytes
                evicted.append(kept[cut])
                cut += 1
            kept = kept[cut:]
        if not dry_run:
            for info in evicted:
                _unlink(info.path.with_suffix(".npz"))
                _unlink(info.path)
            for orphan in self.root.glob("*/*.npz"):
                if not orphan.with_suffix(".json").exists():
                    _unlink(orphan)
            self._prune_empty_dirs()
        return GCReport(
            evicted=evicted,
            kept=len(kept),
            kept_bytes=sum(i.size_bytes for i in kept),
            dry_run=dry_run,
        )

    def _prune_empty_dirs(self) -> None:
        """Drop fan-out directories emptied by eviction (best-effort)."""
        if not self.root.exists():
            return
        for sub in self.root.iterdir():
            if sub.is_dir():
                try:
                    sub.rmdir()  # only succeeds when empty
                except OSError:
                    pass

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultsStore(root={str(self.root)!r}, artifacts={len(self)})"
