"""Binary checkpoint files.

Layout (little-endian):

    magic   b"NCAL"
    u32     format version (currently 3)
    u64     config length, followed by that many bytes of UTF-8 JSON
    u32     blob count
    blobs   u16 name length, name bytes, u8 ndim, ndim x u64 dims,
            raw float64 data
    sha256  32-byte digest of every preceding byte

The config block stores the model architecture, image size, radius and
seed, and an "extra" dict for training state (epoch, optimizer step,
scheduler state). Blobs hold the model's trainable parameters, its
(n_cameras, 21) ``reference`` calibration, and optionally the Adam moments.

A model is stored as its constructor's inputs plus its trainable
parameters: config, image size, radius, seed and ``reference``. Everything
the constructor derives from them (the reference rotation matrices, the
affine output maps, the identity codes) is recomputed on load, never
stored. Round trips are bitwise exact.

Version history: version 1 stored the absolute reference rotation as the
rotation head's center. Version 2 stored the derived constants as frozen
blobs: ``reference_R``, ``cie`` and the per-head ``center_*`` and
``scale_*`` maps. Version 3 stores ``reference`` alone. Files of other
versions are refused with UnsupportedVersion.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict

import numpy as np

from ..errors import CorruptCheckpoint, UnsupportedVersion
from .model import PtModel, PtModelConfig
from .optim import AdamState

MAGIC = b"NCAL"
FORMAT_VERSION = 3


def _pack_blob(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    a = np.ascontiguousarray(arr, dtype="<f8")
    head = struct.pack("<H", len(nb)) + nb + struct.pack("<B", a.ndim)
    head += b"".join(struct.pack("<Q", d) for d in a.shape)
    return head + a.tobytes()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CorruptCheckpoint("checkpoint truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def u8(self):
        return struct.unpack("<B", self.take(1))[0]


def save_checkpoint(path, model: PtModel, optimizer_state: AdamState | None = None,
                    extra: dict | None = None) -> None:
    """Write model (and optionally optimizer) state to a checkpoint file.

    The file is written next to `path` under a temporary name and moved over
    `path` only once complete, so a failed save leaves the previous file.
    """
    config = {
        "model": asdict(model.config),
        "image_size": list(model.image_size),
        "radius": model.radius,
        "model_seed": model.seed,
        "has_optimizer": optimizer_state is not None,
        "adam_step": optimizer_state.step if optimizer_state is not None else 0,
        "extra": extra or {},
    }
    blobs = dict(model.state_arrays())
    if optimizer_state is not None:
        for k, v in optimizer_state.m.items():
            blobs[f"adam_m:{k}"] = v
        for k, v in optimizer_state.v.items():
            blobs[f"adam_v:{k}"] = v

    cfg_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    body = MAGIC + struct.pack("<I", FORMAT_VERSION)
    body += struct.pack("<Q", len(cfg_bytes)) + cfg_bytes
    body += struct.pack("<I", len(blobs))
    for name in blobs:
        body += _pack_blob(name, blobs[name])
    digest = hashlib.sha256(body).digest()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(body + digest)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (model, optimizer_state_or_None, extra dict).

    Raises CorruptCheckpoint on magic/hash/structure failures and
    UnsupportedVersion on a format version this build cannot read.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 4 + 32:
        raise CorruptCheckpoint("file too short to be a checkpoint")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpoint("content hash mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CorruptCheckpoint("bad magic")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"checkpoint format {version}, expected {FORMAT_VERSION}")
    try:
        config = json.loads(r.take(r.u64()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptCheckpoint(f"bad config block: {e}") from e
    n_blobs = r.u32()
    blobs = {}
    for _ in range(n_blobs):
        name = r.take(r.u16()).decode("utf-8")
        ndim = r.u8()
        shape = tuple(r.u64() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(r.take(count * 8), dtype="<f8").reshape(shape)
        blobs[name] = np.array(data, dtype=np.float64)
    if r.pos != len(body):
        raise CorruptCheckpoint("trailing bytes after last blob")

    try:
        model = PtModel(
            PtModelConfig(**config["model"]),
            blobs["reference"],
            tuple(config["image_size"]),
            config["radius"],
            seed=config["model_seed"],
        )
        model.load_state_arrays(blobs)
    except KeyError as e:
        raise CorruptCheckpoint(f"missing blob: {e}") from e

    opt_state = None
    if config.get("has_optimizer"):
        opt_state = AdamState(step=int(config.get("adam_step", 0)))
        for k, v in blobs.items():
            if k.startswith("adam_m:"):
                opt_state.m[k[len("adam_m:") :]] = v.copy()
            elif k.startswith("adam_v:"):
                opt_state.v[k[len("adam_v:") :]] = v.copy()
    return model, opt_state, config.get("extra", {})
