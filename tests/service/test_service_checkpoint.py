"""The service checkpoint is a trust boundary: every byte is checked on restore.

A checkpoint is one ``.npz`` file (``repro.runtime.store.write_archive``):
a JSON header with an array manifest beside the packed overlay and the
aggregation monitor's per-node values.  Whatever the file holds, ``serve
--snapshot`` either restores a service that passes the same invariants
as a fresh one, or exits 2 with one line naming the reason — it never
dies later, mid-tick, on state it should have refused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cli import main
from repro.runtime.store import SnapshotRejected, read_archive, write_archive
from repro.service import EstimationService

from test_service_core import canonical, small_config


def _serve(path) -> tuple:
    """``serve --snapshot path`` in process: (exit code, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "serve", "--bind", "127.0.0.1:0", "--nodes", "200",
            "--estimators", "sample_collide", "--snapshot", str(path),
            "--tick-interval", "0.001", "--rounds", "1",
        ])
    return code, err.getvalue().splitlines()


def assert_sound(service: EstimationService) -> None:
    """The invariants a freshly booted service satisfies."""
    service.graph.check_invariants()
    assert service.health()["size"] == service.graph.size
    assert set(service.read_estimates()) == set(service.config.estimators)
    service.tick()  # applies whatever was pending
    size = service.graph.size
    service.ingest([{"joins": 3}, {"leaves": 2}])
    service.tick(2)
    service.graph.check_invariants()
    assert service.graph.size == size + 1
    assert canonical(EstimationService.from_snapshot(service.snapshot())) == canonical(service)


def _rewrite(path, payload) -> None:
    with open(path, "wb") as fh:
        write_archive(fh, payload)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> bytes:
    """A good checkpoint: past one aggregation epoch, two events pending."""
    target = tmp_path_factory.mktemp("ckpt") / "svc.npz"
    service = EstimationService(small_config(), snapshot_path=str(target))
    service.ingest([{"joins": 20}])
    service.tick(12)
    service.ingest([{"joins": 3}, {"frac_leaves": 0.01}])
    service.checkpoint()
    return target.read_bytes()


def test_fresh_and_restored_services_are_sound(checkpoint, tmp_path):
    assert_sound(EstimationService(small_config()))
    target = tmp_path / "svc.npz"
    target.write_bytes(checkpoint)
    assert _serve(target) == (0, [])
    assert_sound(EstimationService.from_checkpoint(str(target)))


def test_overlay_with_a_self_loop_and_a_dangling_neighbour_exits_2(checkpoint, tmp_path):
    """Such an overlay once restored and then killed the first tick (IndexError)."""
    target = tmp_path / "svc.npz"
    target.write_bytes(checkpoint)
    payload = read_archive(target)
    graph = payload["scheduler"]["graph"]
    indices = graph["indices"].copy()
    indices[0] = 0  # row 0 lists itself
    indices[1] = graph["nodes"].shape[0] + 5  # a neighbour position past the end
    graph["indices"] = indices
    _rewrite(target, payload)
    code, lines = _serve(target)
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith(f"serve: cannot restore {target}: SnapshotRejected: GraphError")


def test_overlay_must_be_packed(checkpoint, tmp_path):
    target = tmp_path / "svc.npz"
    target.write_bytes(checkpoint)
    payload = read_archive(target)
    payload["scheduler"]["graph"] = {"nodes": [0, 1], "adj": [[1], [0, 7]], "next_id": 2}
    _rewrite(target, payload)
    with pytest.raises(SnapshotRejected, match="packed CSR twin"):
        EstimationService.from_checkpoint(str(target))


@pytest.mark.parametrize(
    "pending, reason",
    [
        ([{"joins": 3}, {"joins": -1}], "non-negative"),
        ([{"joins": 1.5}], "integers"),
        ([{"frac_joins": float("inf")}], "finite"),
        ([7], "TypeError"),
    ],
)
def test_invalid_pending_events_exit_2(checkpoint, tmp_path, pending, reason):
    """Pending events pass the /ingest check, not only a later tick."""
    target = tmp_path / "svc.npz"
    target.write_bytes(checkpoint)
    payload = read_archive(target)
    payload["pending"] = pending
    _rewrite(target, payload)
    with pytest.raises(SnapshotRejected, match=reason):
        EstimationService.from_checkpoint(str(target))
    code, lines = _serve(target)
    assert code == 2 and len(lines) == 1


def test_pending_events_keep_only_membership_fields(checkpoint, tmp_path):
    target = tmp_path / "svc.npz"
    target.write_bytes(checkpoint)
    payload = read_archive(target)
    payload["pending"] = [{"joins": 2, "bogus": 1}]
    _rewrite(target, payload)
    service = EstimationService.from_checkpoint(str(target))
    size = service.graph.size
    service.tick()
    assert service.graph.size == size + 2


@contextlib.contextmanager
def _numpy_random_left_alone():
    """Restoring looks a bit generator up by a name the file gives, and
    ``numpy.random`` also exports callables that are not bit generators
    (``test`` runs numpy's test suite, ``seed`` reseeds the global RNG):
    none may be called."""
    with mock.patch.object(np.random, "test", create=True) as test, \
            mock.patch.object(np.random, "seed") as seed:
        yield
    assert test.call_count == seed.call_count == 0


_RNG_STATES = {
    "scheduler": ("scheduler", "rng"),
    "sample_collide": ("families", "sample_collide", "rng"),
    "aggregation": ("families", "aggregation", "monitor", "protocol", "rng"),
}


@pytest.mark.parametrize(
    "where, name",
    [("scheduler", "test"), ("scheduler", "seed"), ("scheduler", "BitGenerator"),
     ("scheduler", "default_rng"), ("sample_collide", "test"), ("aggregation", "seed")],
)
def test_an_unknown_bit_generator_exits_2_uncalled(checkpoint, tmp_path, where, name):
    target = tmp_path / "svc.npz"
    target.write_bytes(checkpoint)
    payload = read_archive(target)
    state = payload
    for key in _RNG_STATES[where]:
        state = state[key]
    state["bit_generator"] = name
    _rewrite(target, payload)
    with _numpy_random_left_alone():
        with pytest.raises(SnapshotRejected, match=f"unknown bit generator '{name}'"):
            EstimationService.from_checkpoint(str(target))
        code, lines = _serve(target)
    assert code == 2 and len(lines) == 1


def test_schema_1_json_checkpoint_exits_2(checkpoint, tmp_path):
    target = tmp_path / "svc.json"
    target.write_bytes(checkpoint)
    payload = read_archive(target)
    payload["scheduler"]["graph"] = {"nodes": [0], "adj": [[]], "next_id": 1}
    protocol = payload["families"]["aggregation"]["monitor"]["protocol"]
    protocol["nodes"], protocol["values"] = [], []
    target.write_text(json.dumps(dict(payload, schema=1)))
    code, lines = _serve(target)
    assert code == 2
    assert lines == [f"serve: cannot restore {target}: SnapshotRejected: "
                     "not an array archive (no zip signature)"]


# ----------------------------------------------------------------------
# Mutation: whatever is done to the file, exit 2 or a sound service
# ----------------------------------------------------------------------


def _members(data: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _zip(members: dict) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, raw in members.items():
            zf.writestr(name, raw)
    return buf.getvalue()


def _npy(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=False)
    return buf.getvalue()


def _header(members: dict) -> dict:
    raw = np.lib.format.read_array(io.BytesIO(members["header.npy"]))
    return json.loads(raw.tobytes())


def _key_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, prefix + (i,))


def _set_header(members: dict, header: dict) -> None:
    blob = json.dumps(header).encode("utf-8")
    members["header.npy"] = _npy(np.frombuffer(blob, dtype=np.uint8))


def _parent(header: dict, path: tuple):
    node = header
    for key in path[:-1]:
        node = node[key]
    return node


def _drop_key(data: bytes, pick: int) -> bytes:
    members = _members(data)
    header = _header(members)
    paths = list(_key_paths(header))
    path = paths[pick % len(paths)]
    del _parent(header, path)[path[-1]]
    _set_header(members, header)
    return _zip(members)


def _restring(data: bytes, pick: int, value: str) -> bytes:
    """Replace one string value of the header (a name, dtype, digest...)."""
    members = _members(data)
    header = _header(members)
    paths = [p for p in _key_paths(header) if isinstance(_parent(header, p)[p[-1]], str)]
    path = paths[pick % len(paths)]
    _parent(header, path)[path[-1]] = value
    _set_header(members, header)
    return _zip(members)


_DTYPES = ("<i4", "<i8", "<f8", "<f4", "<u4", "|i1")


def _retype(data: bytes, pick: int, dtype: str, update_manifest: bool) -> bytes:
    members = _members(data)
    header = _header(members)
    entry = header["arrays"][pick % len(header["arrays"])]
    member = entry["name"] + ".npy"
    arr = np.lib.format.read_array(io.BytesIO(members[member])).astype(dtype)
    members[member] = _npy(arr)
    if update_manifest:
        entry["dtype"] = arr.dtype.str
        entry["sha256"] = hashlib.sha256(arr).hexdigest()
        _set_header(members, header)
    return _zip(members)


def _schema_1(data: bytes) -> bytes:
    header = _header(_members(data))
    return json.dumps(dict(header["payload"], schema=1)).encode("utf-8")


_MUTATIONS = st.one_of(
    st.integers(0, 10**6).map(lambda at: ("truncate", at)),
    st.tuples(st.integers(0, 10**6), st.integers(1, 255)).map(lambda p: ("flip",) + p),
    st.integers(0, 10**6).map(lambda pick: ("drop", pick)),
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(("test", "seed", "BitGenerator", "MT19937", "PCG64", "<i8", "")),
    ).map(lambda p: ("restring",) + p),
    st.tuples(st.integers(0, 10**6), st.sampled_from(_DTYPES), st.booleans()).map(
        lambda p: ("retype",) + p
    ),
    st.just(("schema_1",)),
)


def _mutate(data: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "truncate":
        return data[: args[0] % len(data)]
    if kind == "flip":
        at = args[0] % len(data)
        return data[:at] + bytes([data[at] ^ args[1]]) + data[at + 1 :]
    if kind == "drop":
        return _drop_key(data, args[0])
    if kind == "restring":
        return _restring(data, *args)
    if kind == "retype":
        return _retype(data, *args)
    return _schema_1(data)


@settings(max_examples=60, deadline=None)
@given(mutation=_MUTATIONS)
def test_a_mutated_checkpoint_exits_2_or_restores_sound(checkpoint, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        target = pathlib.Path(tmp) / "svc.npz"
        target.write_bytes(_mutate(checkpoint, mutation))
        with _numpy_random_left_alone():
            code, lines = _serve(target)
        if code == 2:
            assert len(lines) == 1
            assert lines[0].startswith(f"serve: cannot restore {target}: ")
            return
        assert code == 0 and lines == []
        assert_sound(EstimationService.from_checkpoint(str(target)))
