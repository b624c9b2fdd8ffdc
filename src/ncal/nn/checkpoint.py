"""Binary checkpoint files.

Layout (little-endian):

    magic   b"NCAL"
    u32     format version (currently 5)
    u64     config length, followed by that many bytes of UTF-8 JSON
    u32     blob count
    blobs   u16 name length, name bytes, u8 ndim, ndim x u64 dims,
            raw float64 data
    sha256  32-byte digest of every preceding byte

The config block is ``json.dumps(config, sort_keys=True)`` of a dict with
the keys "model" (the PtModelConfig fields), "image_size", "radius",
"model_seed", "has_optimizer", "adam_step" and "extra", a dict for training
state (epoch, scheduler state). Blob names are unique. The blobs are the
model's trainable parameters in parameter order (``embed_w`` and
``embed_b``, 15 per encoder block, whose keys have no bias, then the
head's ``head_w`` and ``head_b``), its (n_cameras, 21) ``reference``
calibration, then optionally the Adam moments: one ``adam_m:<parameter>``
blob per first moment, then the matching ``adam_v:<parameter>`` blobs in
the same order.

A model is stored as its constructor's inputs plus its trainable
parameters: config, image size, radius, seed and ``reference``. Everything
the constructor derives from them (the reference rotation matrices, the
affine output maps, the identity codes) is recomputed on load, never
stored. Round trips are bitwise exact.

The save streams: the headers and each array's bytes, taken in place with no
copy of the file in memory, go in order to a temporary file and through one
incremental sha256; the digest is appended and only then is the file moved
over the target. The load makes two passes over the open file, with no copy
of it in memory: one parses the headers and reads each blob straight into
the array the model or the optimizer state keeps, the other hashes the file
by positional reads. For a body of 16 MiB or more the hash runs on the kept
worker (``parallel.on_both_cores``) while the calling thread writes (save)
or reads (load) the same bytes, as hashlib and file I/O both release the
interpreter lock. A smaller body is hashed on the calling thread: each
buffer just before it is written, or the whole body after it is read. The
model is built only after the digest matches, and a load draws no weights. A
digest mismatch is reported ahead of any parse error or unsupported version,
since a damaged file may parse as anything; a header that declares more
bytes than the file holds is refused before anything is allocated.

Version history: version 1 stored the absolute reference rotation as the
rotation head's center. Version 2 stored the derived constants as frozen
blobs: ``reference_R``, ``cie`` and the per-head ``center_*`` and
``scale_*`` maps. Version 3 stores ``reference`` alone. Version 4 drops
each encoder block's key bias ``layer<i>_bk``, which no output depended on.
Version 5 stores the five heads ``head_{r6,t,fc,pp,kc}_{w,b}`` as one head,
``head_w`` (d_model, 18) and ``head_b`` (18,), whose column blocks they
were. Files of other versions are refused with UnsupportedVersion.
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
from . import parallel
from .model import PtModel, PtModelConfig
from .optim import AdamState

MAGIC = b"NCAL"
FORMAT_VERSION = 5
_DIGEST_SIZE = 32
_HASH_CHUNK = 1 << 20
# A body this large is hashed on the kept worker while the calling thread
# writes or reads it. A smaller one hashes in under ~20 ms, so overlapping
# saves little, and a second core kept busy (OpenBLAS workers spin for a
# while after each matmul) makes it a loss: on 2 cores, medians of 40 after
# five 300 x 300 matmuls, a 1.66 MB save took 4.4 ms inline against 4.8 ms
# with the kept worker, its load 3.5 against 3.8 ms. A 67.6 MB save took
# 0.076 s with the hash beside the write against 0.113 s after it.
_THREAD_MIN_BYTES = 16 << 20


class _Reader:
    """Reads the body, bytes [0, end), of an open checkpoint file in order.

    Every read checks its size against the bytes left in the body before
    anything is read or allocated."""

    def __init__(self, f, end: int):
        self.f = f
        self.left = end

    def take(self, n: int) -> bytes:
        if n > self.left:
            raise CorruptCheckpoint("checkpoint truncated")
        self.left -= n
        out = self.f.read(n)
        if len(out) != n:
            raise CorruptCheckpoint("checkpoint truncated")
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape: tuple) -> np.ndarray:
        """The next little-endian float64 blob of `shape`, read straight into
        a new array."""
        n = math.prod(shape) * 8
        if n > self.left:
            raise CorruptCheckpoint("checkpoint truncated")
        self.left -= n
        try:
            a = np.empty(shape, dtype="<f8")
        except ValueError as e:
            raise CorruptCheckpoint(f"bad blob shape {shape}: {e}") from e
        if self.f.readinto(a) != n:
            raise CorruptCheckpoint("checkpoint truncated")
        return a.astype(np.float64, copy=False)


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
    # The file in order, without a copy of any array: the leading header,
    # then each blob's header and the bytes of its array.
    buffers = [MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(cfg_bytes)) + cfg_bytes
               + struct.pack("<I", len(blobs))]
    for name, arr in blobs.items():
        nb = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype="<f8")
        buffers.append(struct.pack(f"<H{len(nb)}sB{a.ndim}Q", len(nb), nb, a.ndim, *a.shape))
        buffers.append(memoryview(a.reshape(-1)).cast("B"))
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            if sum(map(len, buffers)) >= _THREAD_MIN_BYTES:
                digest = parallel.on_both_cores((_write, f, buffers), (_sha256, buffers))[1]
            else:
                digest = _sha256(buffers, f)
            f.write(digest)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(f, buffers) -> None:
    for b in buffers:
        f.write(b)


def _sha256(buffers, f=None) -> bytes:
    """The sha256 digest of the concatenated `buffers`, each written to f,
    if one is given, right after it is hashed, while it is still in cache."""
    h = hashlib.sha256()
    for b in buffers:
        h.update(b)
        if f is not None:
            f.write(b)
    return h.digest()


def _optimizer_state(blobs: dict, params: dict, step) -> AdamState:
    """The Adam moments among `blobs`, checked against the model's parameters."""
    # A negative step would turn the next Adam steps' bias corrections into NaN.
    if isinstance(step, bool) or not isinstance(step, int) or step < 0:
        raise CorruptCheckpoint(f"adam_step must be a non-negative integer, got {step!r}")
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


def _digest_matches(fd: int, end: int) -> bool:
    """Whether the sha256 of bytes [0, end) of `fd` equals the 32 bytes
    stored after them. Reads by position through one reused buffer, so it
    neither moves nor depends on the file offset."""
    digest = hashlib.sha256()
    buf = memoryview(bytearray(min(_HASH_CHUNK, end)))
    pos = 0
    while pos < end:
        n = os.preadv(fd, [buf[: end - pos]], pos)
        if n == 0:
            return False
        digest.update(buf[:n])
        pos += n
    return digest.digest() == os.pread(fd, _DIGEST_SIZE, end)


def _parse(r: _Reader) -> tuple:
    """The config dict and the name -> array blobs of a checkpoint body."""
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
        # The name and the ndim byte after it, in one read.
        (n,) = r.unpack("<H")
        head = r.take(n + 1)
        try:
            name = str(head[:n], "utf-8")
        except UnicodeDecodeError as e:
            raise CorruptCheckpoint(f"bad blob name: {e}") from e
        if name in blobs:
            raise CorruptCheckpoint(f"duplicate blob {name!r}")
        blobs[name] = r.array(r.unpack(f"<{head[n]}Q"))
    if r.left:
        raise CorruptCheckpoint("trailing bytes after last blob")
    return config, blobs


def _try_parse(f, end: int) -> tuple:
    """(_parse of bytes [0, end) of f, None), or (None, the error it raised)."""
    try:
        return _parse(_Reader(f, end)), None
    except (CorruptCheckpoint, UnsupportedVersion) as e:
        return None, e


def load_checkpoint(path):
    """Read a checkpoint; returns (model, optimizer_state_or_None, extra dict).

    The blobs are read straight into the arrays the model and the optimizer
    state keep, while the kept worker hashes a large file (a small one is
    hashed after the read); the model is built only once the digest
    matches. A file whose digest does not match raises
    CorruptCheckpoint("content hash mismatch"), whatever else is wrong with
    it, so a damaged file is reported as damaged rather than as the parse
    error or format version its damage happens to produce.

    Raises CorruptCheckpoint on a file too short to hold a checkpoint, on
    hash, magic and structure failures, on a config that does not describe
    a model matching the stored blobs, on a blob that is neither a
    parameter, the reference nor an Adam moment, and on Adam moments that
    do not pair up with the model's parameters or that a file saved without
    an optimizer holds, and on an Adam step count that is not a
    non-negative integer; UnsupportedVersion on a correctly hashed file of a
    format version this build cannot read.
    """
    with open(path, "rb") as f:
        fd = f.fileno()
        end = os.fstat(fd).st_size - _DIGEST_SIZE
        if end < len(MAGIC) + 4:
            raise CorruptCheckpoint("file too short to be a checkpoint")
        if end >= _THREAD_MIN_BYTES:
            (parsed, error), digest_ok = parallel.on_both_cores((_try_parse, f, end),
                                                                (_digest_matches, fd, end))
        else:
            parsed, error = _try_parse(f, end)
            digest_ok = _digest_matches(fd, end)
    if not digest_ok:
        raise CorruptCheckpoint("content hash mismatch") from error
    if error is not None:
        raise error
    config, blobs = parsed

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
            opt_state = _optimizer_state(blobs, model.params, config.get("adam_step", 0))
        elif moments:
            raise CorruptCheckpoint("Adam moments in a checkpoint saved without an optimizer")
    except LookupError as e:
        raise CorruptCheckpoint(f"missing config entry or blob: {e}") from e
    except (TypeError, ValueError, ShapeMismatch) as e:
        raise CorruptCheckpoint(f"config does not describe the stored model: {e}") from e
    return model, opt_state, config.get("extra", {})
