"""Checkpoint format: round trips, corruption, version handling."""

import builtins
import contextlib
import errno
import hashlib
import json
import os
import struct
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncal.errors import CorruptCheckpoint, UnsupportedVersion
from ncal.nn import checkpoint
from ncal.nn.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from ncal.nn.optim import AdamState

from test_model import tiny_model


@pytest.fixture
def ckpt(tmp_path):
    return tmp_path / "model.ckpt"


def randomize(model, seed=0):
    rng = np.random.default_rng(seed)
    for t in model.params.values():
        t.data = rng.normal(size=t.data.shape) * 0.3
    return model


class TestRoundTrip:
    def test_forward_bitwise_identical(self, ckpt):
        m = randomize(tiny_model())
        save_checkpoint(ckpt, m)
        m2, opt, extra = load_checkpoint(ckpt)
        assert opt is None
        X = np.random.default_rng(1).uniform(0, 1024, size=(2, 3, 4, 2))
        assert m.forward(X).data.tobytes() == m2.forward(X).data.tobytes()

    def test_reference_rotation_preserved(self, ckpt):
        m = tiny_model()
        save_checkpoint(ckpt, m)
        m2, _, _ = load_checkpoint(ckpt)
        assert m2.reference_params.tobytes() == m.reference_params.tobytes()

    def test_config_preserved(self, ckpt):
        m = tiny_model()
        save_checkpoint(ckpt, m, extra={"epoch": 17})
        m2, _, extra = load_checkpoint(ckpt)
        assert m2.config == m.config
        assert m2.image_size == m.image_size
        assert m2.radius == m.radius
        assert extra == {"epoch": 17}

    def test_optimizer_state_round_trip(self, ckpt):
        m = randomize(tiny_model())
        state = AdamState(step=42)
        rng = np.random.default_rng(2)
        for k, t in m.params.items():
            state.m[k] = rng.normal(size=t.data.shape)
            state.v[k] = rng.uniform(0, 1, size=t.data.shape)
        save_checkpoint(ckpt, m, optimizer_state=state)
        _, state2, _ = load_checkpoint(ckpt)
        assert state2.step == 42
        for k in state.m:
            np.testing.assert_array_equal(state2.m[k], state.m[k])
            np.testing.assert_array_equal(state2.v[k], state.v[k])

    def test_file_bytes_deterministic(self, ckpt, tmp_path, monkeypatch):
        m = randomize(tiny_model())
        other = tmp_path / "again.ckpt"
        files = []
        for _ in each_hash_path(monkeypatch):
            save_checkpoint(ckpt, m)
            save_checkpoint(other, m)
            assert ckpt.read_bytes() == other.read_bytes()
            files.append(ckpt.read_bytes())
        assert files[0] == files[1]

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(
        n_cameras=st.integers(1, 4),
        n_fiducials=st.integers(1, 5),
        n_heads=st.integers(1, 2),
        head_width=st.integers(1, 3),
        n_layers=st.integers(1, 2),
        d_ff=st.integers(1, 6),
        seed=st.integers(0, 2**31),
        weight_seed=st.integers(0, 2**31),
        with_optimizer=st.booleans(),
    )
    def test_save_load_save_is_byte_stable(self, n_cameras, n_fiducials, n_heads, head_width,
                                           n_layers, d_ff, seed, weight_seed, with_optimizer):
        m = randomize(tiny_model(n_cameras, n_fiducials, n_heads * head_width, n_layers,
                                 n_heads, d_ff, seed=seed), seed=weight_seed)
        state = None
        if with_optimizer:
            rng = np.random.default_rng(weight_seed + 1)
            state = AdamState(step=int(rng.integers(1, 1000)))
            for k, t in m.params.items():
                state.m[k] = rng.normal(size=t.data.shape)
                state.v[k] = rng.uniform(0, 1, size=t.data.shape)
        with tempfile.TemporaryDirectory() as d:
            first, second = Path(d) / "first.ckpt", Path(d) / "second.ckpt"
            save_checkpoint(first, m, optimizer_state=state)
            m2, state2, _ = load_checkpoint(first)
            save_checkpoint(second, m2, optimizer_state=state2)
            assert first.read_bytes() == second.read_bytes()
        X = np.random.default_rng(weight_seed).uniform(0, 1024, size=(2, n_cameras, n_fiducials, 2))
        assert m.forward(X).data.tobytes() == m2.forward(X).data.tobytes()


def _pack_reference(model, optimizer=None, extra=None) -> bytes:
    """The checkpoint file of the module docstring's layout, written field by
    field in one buffer, independently of save_checkpoint."""
    config = {
        "model": asdict(model.config),
        "image_size": list(model.image_size),
        "radius": model.radius,
        "model_seed": model.seed,
        "has_optimizer": optimizer is not None,
        "adam_step": optimizer.step if optimizer is not None else 0,
        "extra": extra or {},
    }
    blobs = [(k, t.data) for k, t in model.params.items()]
    blobs.append(("reference", model.reference_params))
    if optimizer is not None:
        blobs += [(f"adam_m:{k}", a) for k, a in optimizer.m.items()]
        blobs += [(f"adam_v:{k}", a) for k, a in optimizer.v.items()]
    cfg = json.dumps(config, sort_keys=True).encode("utf-8")
    body = bytearray(b"NCAL")
    body += struct.pack("<I", 3)
    body += struct.pack("<Q", len(cfg)) + cfg
    body += struct.pack("<I", len(blobs))
    for name, a in blobs:
        nb = name.encode("utf-8")
        body += struct.pack("<H", len(nb)) + nb + struct.pack("<B", a.ndim)
        for d in a.shape:
            body += struct.pack("<Q", d)
        body += np.asarray(a, dtype="<f8").tobytes()
    return bytes(body) + hashlib.sha256(body).digest()


class TestFormat:
    @pytest.mark.parametrize("with_optimizer", [False, True])
    def test_bytes_match_independent_writer(self, ckpt, with_optimizer, monkeypatch):
        m = randomize(tiny_model(seed=4), seed=5)
        state = None
        if with_optimizer:
            rng = np.random.default_rng(6)
            state = AdamState(step=9)
            for k, t in m.params.items():
                state.m[k] = rng.normal(size=t.data.shape)
                state.v[k] = rng.uniform(0, 1, size=t.data.shape)
        want = _pack_reference(m, state, extra={"epoch": 3})
        for _ in each_hash_path(monkeypatch):
            with nothing_left_open():
                save_checkpoint(ckpt, m, optimizer_state=state, extra={"epoch": 3})
            assert ckpt.read_bytes() == want

    def test_loaded_arrays_are_owned_and_aligned(self, ckpt):
        m = randomize(tiny_model())
        state = AdamState(step=1)
        for k, t in m.params.items():
            state.m[k] = np.ones(t.data.shape)
            state.v[k] = np.ones(t.data.shape)
        save_checkpoint(ckpt, m, optimizer_state=state)
        m2, state2, _ = load_checkpoint(ckpt)
        arrays = [*m2.state_arrays().values(), *state2.m.values(), *state2.v.values()]
        for a in arrays:
            assert a.dtype == np.float64
            assert a.flags.owndata and a.flags.aligned and a.flags.writeable
        assert len({id(a) for a in arrays}) == len(arrays)


@contextlib.contextmanager
def nothing_left_open():
    """Checks that the block leaves no thread running and no file descriptor
    open (the descriptors only where /proc/self/fd lists them)."""

    def fds():
        return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

    threads, before = threading.active_count(), fds()
    yield
    assert threading.active_count() == threads
    assert fds() == before


def _field_offsets(data: bytes) -> dict:
    """Offset of each header field of a checkpoint, found by walking the
    module docstring's layout; the blob fields are the first blob's."""
    (n,) = struct.unpack_from("<Q", data, 8)
    count = 16 + n
    (name_len,) = struct.unpack_from("<H", data, count + 4)
    ndim = count + 4 + 2 + name_len
    dims = data[ndim]
    return {"magic": 0, "version": 4, "version high byte": 7, "config length": 8,
            "config length high byte": 15, "blob count": count, "blob count high byte": count + 3,
            "name length": count + 4, "name length high byte": count + 5, "ndim": ndim,
            "dim": ndim + 1, "dim high byte": ndim + 8, "blob data": ndim + 1 + 8 * dims,
            "digest": len(data) - 32, "digest last byte": len(data) - 1}


def each_hash_path(monkeypatch):
    """Yields once for each way a checkpoint's hash is computed: on the
    calling thread, as for a small file, then on a second thread while the
    calling thread reads (load_checkpoint) or writes (save_checkpoint) the
    file, as for a large one."""
    for min_bytes in (checkpoint._THREAD_MIN_BYTES, 0):
        monkeypatch.setattr(checkpoint, "_THREAD_MIN_BYTES", min_bytes)
        yield


def _small_checkpoint(path) -> bytes:
    save_checkpoint(path, randomize(tiny_model(1, 1, 1, 1, 1, 1)))
    return path.read_bytes()


class TestCorruption:
    # A damaged file may parse as anything, including an unsupported
    # version; the hash mismatch is what must be reported.
    @pytest.mark.parametrize("field", ["magic", "version", "version high byte", "config length",
                                       "config length high byte", "blob count",
                                       "blob count high byte", "name length",
                                       "name length high byte", "ndim", "dim", "dim high byte",
                                       "blob data", "digest", "digest last byte"])
    def test_flipped_field_reports_hash(self, ckpt, field, monkeypatch):
        data = bytearray(_small_checkpoint(ckpt))
        data[_field_offsets(data)[field]] ^= 0xFF
        ckpt.write_bytes(bytes(data))
        for _ in each_hash_path(monkeypatch):
            with nothing_left_open(), pytest.raises(CorruptCheckpoint, match="hash"):
                load_checkpoint(ckpt)

    def test_truncated_file(self, ckpt, monkeypatch):
        # Cut at every length: only a file too short to hold a header and a
        # digest may be reported as something other than a hash mismatch.
        data = _small_checkpoint(ckpt)
        for _ in each_hash_path(monkeypatch):
            with nothing_left_open():
                for n in range(len(data)):
                    ckpt.write_bytes(data[:n])
                    with pytest.raises(CorruptCheckpoint,
                                       match="too short" if n < 40 else "hash"):
                        load_checkpoint(ckpt)

    def test_flipped_byte(self, ckpt, monkeypatch):
        data = _small_checkpoint(ckpt)
        for _ in each_hash_path(monkeypatch):
            with nothing_left_open():
                for i in range(len(data)):
                    flipped = bytearray(data)
                    flipped[i] ^= 0xFF
                    ckpt.write_bytes(bytes(flipped))
                    with pytest.raises(CorruptCheckpoint, match="hash"):
                        load_checkpoint(ckpt)

    def test_load_leaves_nothing_open(self, ckpt, monkeypatch):
        m = randomize(tiny_model())
        save_checkpoint(ckpt, m)
        for _ in each_hash_path(monkeypatch):
            with nothing_left_open():
                loaded, _, _ = load_checkpoint(ckpt)
            for k, a in m.state_arrays().items():
                assert loaded.state_arrays()[k].tobytes() == a.tobytes()

    def test_bad_magic(self, ckpt):
        body = b"XXXX" + struct.pack("<I", FORMAT_VERSION)
        ckpt.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(ckpt)

    def test_version_bump_raises_unsupported(self, ckpt):
        m = tiny_model()
        save_checkpoint(ckpt, m)
        data = bytearray(ckpt.read_bytes())[:-32]
        # bump the version field (after the 4-byte magic), re-sign the body
        data[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        body = bytes(data)
        ckpt.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(UnsupportedVersion):
            load_checkpoint(ckpt)

    def test_version_1_refused(self, ckpt):
        # Version 1 stored the absolute reference rotation as the rotation
        # head's center; version 2 stored derived constants that version 3
        # recomputes. Neither may load with the current meaning.
        save_checkpoint(ckpt, tiny_model())
        data = bytearray(ckpt.read_bytes())[:-32]
        for version in (1, 2):
            data[4:8] = struct.pack("<I", version)
            body = bytes(data)
            ckpt.write_bytes(body + hashlib.sha256(body).digest())
            with pytest.raises(UnsupportedVersion):
                load_checkpoint(ckpt)

    def test_not_a_file(self, ckpt):
        ckpt.write_bytes(b"tiny")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(ckpt)

    def test_missing_reference_blob(self, ckpt):
        # The model is rebuilt from the stored reference, so a checkpoint
        # without it (renamed here, then re-hashed) cannot load.
        save_checkpoint(ckpt, tiny_model())
        body = ckpt.read_bytes()[:-32]
        assert body.count(b"reference") == 1
        body = body.replace(b"reference", b"referencX")
        ckpt.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CorruptCheckpoint, match="reference"):
            load_checkpoint(ckpt)


def _resign(path, edit_config=lambda c: c, blob_bytes=(b"", b""), extra_blob=b""):
    """Rewrite a checkpoint with an edited config, a byte replacement in its
    blob section and an appended blob, then re-hash it so only the edit is
    wrong."""
    body = path.read_bytes()[:-32]
    (n,) = struct.unpack_from("<Q", body, 8)
    config = edit_config(json.loads(body[16 : 16 + n]))
    blobs = body[16 + n :]
    old, new = blob_bytes
    if old:
        assert blobs.count(old) == 1
        blobs = blobs.replace(old, new)
    if extra_blob:
        (count,) = struct.unpack_from("<I", blobs)
        blobs = struct.pack("<I", count + 1) + blobs[4:] + extra_blob
    cfg = json.dumps(config).encode("utf-8")
    body = body[:8] + struct.pack("<Q", len(cfg)) + cfg + blobs
    path.write_bytes(body + hashlib.sha256(body).digest())


def _model(**entries):
    return lambda c: {**c, "model": {**c["model"], **entries}}


def _blob_header(name: bytes, *dims):
    return struct.pack(f"<H{len(name)}sB{len(dims)}Q", len(name), name, len(dims), *dims)


# Each file has a valid hash but does not describe a loadable model.
MALFORMED = {
    "unknown_model_key": dict(edit_config=_model(colour="red")),
    "shapes_disagree_with_blobs": dict(edit_config=_model(d_model=32)),
    "invalid_model_config": dict(edit_config=_model(n_heads=3)),
    "config_is_a_list": dict(edit_config=lambda c: [c]),
    "blob_name_not_utf8": dict(blob_bytes=(_blob_header(b"embed_b", 16),
                                           _blob_header(b"embed_\xff", 16))),
    "image_size_too_short": dict(edit_config=lambda c: {**c, "image_size": [1024]}),
    "image_size_zero": dict(edit_config=lambda c: {**c, "image_size": [0, 1024]}),
    "radius_nan": dict(edit_config=lambda c: {**c, "radius": float("nan")}),
    "cie_noise_sigma_negative": dict(edit_config=_model(cie_noise_sigma=-0.01)),
    "bad_adam_step": dict(edit_config=lambda c: {**c, "has_optimizer": True, "adam_step": "x"}),
    "blob_size_overflows": dict(blob_bytes=(_blob_header(b"reference", 3, 21),
                                            _blob_header(b"reference", 2**40, 2**30))),
    # 96 GiB, refused before it is allocated.
    "blob_larger_than_file": dict(blob_bytes=(_blob_header(b"reference", 3, 21),
                                              _blob_header(b"reference", 3, 2**32))),
    # No bytes, but a shape numpy cannot allocate.
    "empty_blob_with_huge_dim": dict(extra_blob=_blob_header(b"embed_c", 0, 2**63)),
    "duplicate_blob_name": dict(extra_blob=_blob_header(b"embed_b", 16) + bytes(16 * 8)),
    # Saved with these Adam moments; each would make a resumed train() fail
    # inside adam_step.
    "adam_moment_shape_mismatch": dict(
        optimizer=AdamState(m={"embed_b": np.zeros(5)}, v={"embed_b": np.zeros(5)})),
    "adam_moment_for_unknown_parameter": dict(
        optimizer=AdamState(m={"no_such_param": np.zeros(3)}, v={"no_such_param": np.zeros(3)})),
    "adam_m_without_adam_v": dict(optimizer=AdamState(m={"embed_b": np.zeros(16)})),
    "adam_v_without_adam_m": dict(optimizer=AdamState(v={"embed_b": np.zeros(16)})),
    # A negative step puts NaN into every weight at the next Adam step; a
    # bool or a fraction is not a step count.
    "adam_step_negative": dict(optimizer=AdamState(step=-3)),
    "adam_step_fractional": dict(optimizer=AdamState(step=2.5)),
    "adam_step_bool": dict(optimizer=AdamState(step=True)),
    # Blobs this module never writes for the stored model.
    "blob_of_a_missing_layer": dict(
        extra_blob=_blob_header(b"layer9_wq", 16, 16) + bytes(16 * 16 * 8)),
    "adam_moments_without_has_optimizer": dict(
        optimizer=AdamState(m={"embed_b": np.zeros(16)}, v={"embed_b": np.zeros(16)}),
        edit_config=lambda c: {**c, "has_optimizer": False}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_is_corrupt(ckpt, case, monkeypatch):
    edits = dict(MALFORMED[case])
    save_checkpoint(ckpt, tiny_model(d_model=16), optimizer_state=edits.pop("optimizer", None))
    _resign(ckpt, **edits)
    for _ in each_hash_path(monkeypatch):
        with nothing_left_open(), pytest.raises(CorruptCheckpoint):
            load_checkpoint(ckpt)


class _HalfWriter:
    """File stand-in whose k-th write writes half of the data, then fails like
    a full disk; the writes before it reach the file whole."""

    def __init__(self, f, k=1):
        self._f = f
        self._k = k
        self.whole = None  # bytes on disk from the writes before the k-th

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._k -= 1
        if self._k == 0:
            self.whole = self._f.tell()
            data = data[: len(data) // 2]
        self._f.write(data)
        self._f.flush()
        if self._k == 0:
            raise OSError(errno.ENOSPC, "no space left on device")


class TestCrashSafety:
    def test_failed_write_keeps_previous_file(self, ckpt, tmp_path, monkeypatch):
        save_checkpoint(ckpt, tiny_model(seed=0))
        before = ckpt.read_bytes()
        monkeypatch.setattr(
            checkpoint, "open", lambda *a, **k: _HalfWriter(builtins.open(*a, **k)), raising=False
        )
        for _ in each_hash_path(monkeypatch):
            with nothing_left_open(), pytest.raises(OSError):
                save_checkpoint(ckpt, randomize(tiny_model(seed=1)))
            assert ckpt.read_bytes() == before
            assert sorted(p.name for p in tmp_path.iterdir()) == [ckpt.name]

    @pytest.mark.parametrize("k", [2, 7, 12])
    def test_failed_kth_write_keeps_previous_file(self, ckpt, tmp_path, monkeypatch, k):
        save_checkpoint(ckpt, tiny_model(seed=0))
        before = ckpt.read_bytes()
        writers = []

        def failing_open(*a, **kw):
            writers.append(_HalfWriter(builtins.open(*a, **kw), k))
            return writers[-1]

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        for _ in each_hash_path(monkeypatch):
            writers.clear()
            with nothing_left_open(), pytest.raises(OSError):
                save_checkpoint(ckpt, randomize(tiny_model(seed=1)))
            # The header and the first (k - 2) // 2 blobs, each of at least
            # 64 bytes, were on disk when the write failed.
            assert writers[0].whole > 64 * ((k - 2) // 2)
            assert ckpt.read_bytes() == before
            assert sorted(p.name for p in tmp_path.iterdir()) == [ckpt.name]

    def test_failed_hash_on_worker_keeps_previous_file(self, ckpt, tmp_path, monkeypatch):
        save_checkpoint(ckpt, tiny_model(seed=0))
        before = ckpt.read_bytes()
        on_worker = []

        class FailingHash:
            def update(self, data):
                on_worker.append(threading.current_thread() is not threading.main_thread())
                raise RuntimeError("hash failed")

        monkeypatch.setattr(checkpoint, "_THREAD_MIN_BYTES", 0)
        monkeypatch.setattr(checkpoint, "hashlib", SimpleNamespace(sha256=FailingHash))
        with nothing_left_open(), pytest.raises(RuntimeError, match="hash failed"):
            save_checkpoint(ckpt, randomize(tiny_model(seed=1)))
        assert on_worker == [True]
        assert ckpt.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [ckpt.name]

    def test_successful_save_leaves_only_the_file(self, ckpt, tmp_path, monkeypatch):
        for _ in each_hash_path(monkeypatch):
            with nothing_left_open():
                save_checkpoint(ckpt, tiny_model())
                save_checkpoint(ckpt, randomize(tiny_model()))
            assert sorted(p.name for p in tmp_path.iterdir()) == [ckpt.name]
            load_checkpoint(ckpt)
