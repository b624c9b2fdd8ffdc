"""Binary checkpoint files.

Layout (little-endian):

    magic   b"NCAL"
    u32     format version (currently 3)
    u64     config length, followed by that many bytes of UTF-8 JSON
    u32     blob count
    blobs   u16 name length, name bytes, u8 ndim, ndim x u64 dims,
            raw float64 data
    sha256  32-byte digest of every preceding byte

The config block is ``json.dumps(config, sort_keys=True)`` of a dict with
the keys "model" (the PtModelConfig fields), "image_size", "radius",
"model_seed", "has_optimizer", "adam_step" and "extra", a dict for training
state (epoch, scheduler state). Blob names are unique. The blobs are the
model's trainable parameters in parameter order, its (n_cameras, 21)
``reference`` calibration, then optionally the Adam moments: one
``adam_m:<parameter>`` blob per first moment, then the matching
``adam_v:<parameter>`` blobs in the same order.

A model is stored as its constructor's inputs plus its trainable
parameters: config, image size, radius, seed and ``reference``. Everything
the constructor derives from them (the reference rotation matrices, the
affine output maps, the identity codes) is recomputed on load, never
stored. Round trips are bitwise exact.

The save streams: each header and each array's bytes go straight to a
temporary file and through one incremental sha256, with no copy of the file
in memory, and the finished file is moved over the target. The load reads
the file once, verifies the hash before any array is built, then parses it
through a memoryview and copies each blob once, into the array the model or
the optimizer state keeps. A load draws no weights.

Version history: version 1 stored the absolute reference rotation as the
rotation head's center. Version 2 stored the derived constants as frozen
blobs: ``reference_R``, ``cie`` and the per-head ``center_*`` and
``scale_*`` maps. Version 3 stores ``reference`` alone. Files of other
versions are refused with UnsupportedVersion.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from ..errors import CorruptCheckpoint, ShapeMismatch, UnsupportedVersion
from .model import PtModel, PtModelConfig
from .optim import AdamState

MAGIC = b"NCAL"
FORMAT_VERSION = 3
_DIGEST_SIZE = 32


class _Reader:
    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CorruptCheckpoint("checkpoint truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


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
    digest = hashlib.sha256()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:

            def put(data):
                digest.update(data)
                f.write(data)

            put(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(cfg_bytes)) + cfg_bytes
                + struct.pack("<I", len(blobs)))
            for name, arr in blobs.items():
                nb = name.encode("utf-8")
                a = np.ascontiguousarray(arr, dtype="<f8")
                put(struct.pack(f"<H{len(nb)}sB{a.ndim}Q", len(nb), nb, a.ndim, *a.shape))
                put(memoryview(a.reshape(-1)).cast("B"))
            f.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _optimizer_state(blobs: dict, params: dict, step: int) -> AdamState:
    """The Adam moments among `blobs`, checked against the model's parameters."""
    m = {k[len("adam_m:") :]: a for k, a in blobs.items() if k.startswith("adam_m:")}
    v = {k[len("adam_v:") :]: a for k, a in blobs.items() if k.startswith("adam_v:")}
    if m.keys() != v.keys():
        raise CorruptCheckpoint("adam_m and adam_v blobs name different parameters")
    for k in m:
        if k not in params:
            raise CorruptCheckpoint(f"Adam moments for unknown parameter {k!r}")
        shape = params[k].data.shape
        if m[k].shape != shape or v[k].shape != shape:
            raise CorruptCheckpoint(
                f"Adam moments of {k}: expected {shape}, got {m[k].shape} and {v[k].shape}"
            )
    return AdamState(m, v, step)


def load_checkpoint(path):
    """Read a checkpoint; returns (model, optimizer_state_or_None, extra dict).

    Raises CorruptCheckpoint on magic/hash/structure failures, on a config
    that does not describe a model matching the stored blobs, on a blob that
    is neither a parameter, the reference nor an Adam moment, and on Adam
    moments that do not pair up with the model's parameters or that a file
    saved without an optimizer holds;
    UnsupportedVersion on a format version this build cannot read.
    """
    with open(path, "rb") as f:
        raw = memoryview(f.read())
    if len(raw) < len(MAGIC) + 4 + _DIGEST_SIZE:
        raise CorruptCheckpoint("file too short to be a checkpoint")
    body = raw[:-_DIGEST_SIZE]
    if hashlib.sha256(body).digest() != raw[-_DIGEST_SIZE:]:
        raise CorruptCheckpoint("content hash mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CorruptCheckpoint("bad magic")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"checkpoint format {version}, expected {FORMAT_VERSION}")
    try:
        config = json.loads(str(r.take(r.unpack("<Q")[0]), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptCheckpoint(f"bad config block: {e}") from e
    if not isinstance(config, dict):
        raise CorruptCheckpoint("config block is not a JSON object")
    (n_blobs,) = r.unpack("<I")
    blobs = {}
    for _ in range(n_blobs):
        try:
            name = str(r.take(r.unpack("<H")[0]), "utf-8")
        except UnicodeDecodeError as e:
            raise CorruptCheckpoint(f"bad blob name: {e}") from e
        if name in blobs:
            raise CorruptCheckpoint(f"duplicate blob {name!r}")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}Q")
        data = r.take(math.prod(shape) * 8)
        blobs[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
    if r.pos != len(body):
        raise CorruptCheckpoint("trailing bytes after last blob")

    try:
        model = PtModel.from_state_arrays(
            PtModelConfig(**config["model"]),
            blobs,
            tuple(config["image_size"]),
            config["radius"],
            seed=config["model_seed"],
        )
        moments = {k for k in blobs if k.startswith(("adam_m:", "adam_v:"))}
        unexpected = blobs.keys() - model.params.keys() - {"reference"} - moments
        if unexpected:
            raise CorruptCheckpoint(f"blobs the model does not have: {sorted(unexpected)}")
        opt_state = None
        if config.get("has_optimizer"):
            opt_state = _optimizer_state(blobs, model.params, int(config.get("adam_step", 0)))
        elif moments:
            raise CorruptCheckpoint("Adam moments in a checkpoint saved without an optimizer")
    except LookupError as e:
        raise CorruptCheckpoint(f"missing config entry or blob: {e}") from e
    except (TypeError, ValueError, ShapeMismatch) as e:
        raise CorruptCheckpoint(f"config does not describe the stored model: {e}") from e
    return model, opt_state, config.get("extra", {})
