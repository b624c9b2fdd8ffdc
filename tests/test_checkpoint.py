"""Checkpoint format: round trips, corruption, version handling."""

import builtins
import errno
import hashlib
import struct
import tempfile
from pathlib import Path

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

    def test_file_bytes_deterministic(self, ckpt, tmp_path):
        m = randomize(tiny_model())
        save_checkpoint(ckpt, m)
        other = tmp_path / "again.ckpt"
        save_checkpoint(other, m)
        assert ckpt.read_bytes() == other.read_bytes()

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


class TestCorruption:
    def test_truncated_file(self, ckpt):
        m = tiny_model()
        save_checkpoint(ckpt, m)
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(ckpt)

    def test_flipped_byte(self, ckpt):
        m = tiny_model()
        save_checkpoint(ckpt, m)
        data = bytearray(ckpt.read_bytes())
        data[len(data) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(ckpt)

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


class _HalfWriter:
    """File stand-in that writes half of the data, then fails like a full disk."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.flush()
        raise OSError(errno.ENOSPC, "no space left on device")


class TestCrashSafety:
    def test_failed_write_keeps_previous_file(self, ckpt, tmp_path, monkeypatch):
        save_checkpoint(ckpt, tiny_model(seed=0))
        before = ckpt.read_bytes()
        monkeypatch.setattr(
            checkpoint, "open", lambda *a, **k: _HalfWriter(builtins.open(*a, **k)), raising=False
        )
        with pytest.raises(OSError):
            save_checkpoint(ckpt, randomize(tiny_model(seed=1)))
        assert ckpt.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [ckpt.name]

    def test_successful_save_leaves_only_the_file(self, ckpt, tmp_path):
        save_checkpoint(ckpt, tiny_model())
        save_checkpoint(ckpt, randomize(tiny_model()))
        assert sorted(p.name for p in tmp_path.iterdir()) == [ckpt.name]
        load_checkpoint(ckpt)
