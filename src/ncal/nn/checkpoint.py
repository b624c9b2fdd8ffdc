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
state (epoch, scheduler state). The config fixes the blobs, and each blob
header must be exactly the bytes of this layout, in this order: the
model's trainable parameters in parameter order (``embed_w`` and
``embed_b``, 15 per encoder block, whose keys have no bias, then the
head's ``head_w`` and ``head_b``), its (n_cameras, 21) ``reference``
calibration, then, in a file saved with Adam moments, ``adam_m:<p>`` and
then ``adam_v:<p>`` for every parameter p in parameter order.

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
since a damaged file may parse as anything. A config whose values need
more bytes than the file holds is refused before its layout is built, and
each blob header is checked against the layout before its array is
allocated.

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
import threading
from dataclasses import asdict

import numpy as np

from ..errors import CorruptCheckpoint, UnsupportedVersion
from ..geometry import N_PARAMS, is_integer
from . import parallel
from .model import PtModel, PtModelConfig, _block_spec, _param_spec
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
        a = np.empty(shape, dtype="<f8")
        if self.f.readinto(a) != n:
            raise CorruptCheckpoint("checkpoint truncated")
        return a.astype(np.float64, copy=False)


def _blob_header(name: str, shape: tuple) -> bytes:
    nb = name.encode("utf-8")
    return struct.pack(f"<H{len(nb)}sB{len(shape)}Q", len(nb), nb, len(shape), *shape)


def save_checkpoint(path, model: PtModel, optimizer_state: AdamState | None = None,
                    extra: dict | None = None) -> None:
    """Write model (and optionally optimizer) state to a checkpoint file.

    The file is written next to `path` under a temporary name of its own
    (one per process and thread) and moved over `path` only once complete,
    so a failed save leaves the previous file.
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
        a = np.ascontiguousarray(arr, dtype="<f8")
        buffers.append(_blob_header(name, a.shape))
        buffers.append(memoryview(a.reshape(-1)).cast("B"))
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
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


def _layout(config, n_blobs: int, left: int) -> tuple:
    """(PtModelConfig, name -> shape of each blob in file order) of a file
    with this config, `n_blobs` blobs and `left` bytes after the count;
    raises CorruptCheckpoint on a bad config, another blob count or more
    bytes of values than are left."""
    try:
        model_config = PtModelConfig(**config["model"])
        has_optimizer, step, extra = config["has_optimizer"], config["adam_step"], config["extra"]
    except (LookupError, TypeError, ValueError) as e:
        raise CorruptCheckpoint(f"config does not describe a model: {e}") from e
    # A negative step would turn the next Adam steps' bias corrections into NaN.
    if not (isinstance(has_optimizer, bool) and is_integer(step) and step >= 0
            and isinstance(extra, dict)):
        raise CorruptCheckpoint(f"need a bool has_optimizer, an integer adam_step >= 0 and an "
                                f"object extra, got {has_optimizer!r}, {step!r} and "
                                f"{type(extra).__name__}")
    # The layers' blobs, then embed_w, embed_b, head_w and head_b.
    block = _block_spec(model_config)
    n_params = len(block) * model_config.n_layers + 4
    moments = has_optimizer and n_blobs == 3 * n_params + 1
    if n_blobs != (3 if moments else 1) * n_params + 1:
        raise CorruptCheckpoint(f"{n_blobs} blobs do not fit the config's {n_params} parameters")
    # The layers' values must fit in the file before a layout that long is
    # built, and then all of them. Every dimension is at least 1, so each is
    # then below 2**64, as a blob header needs.
    if 8 * model_config.n_layers * sum(math.prod(s) for s, _kind in block.values()) > left:
        raise CorruptCheckpoint("checkpoint truncated")
    params = {k: shape for k, (shape, _kind) in _param_spec(model_config).items()}
    layout = {**params, "reference": (model_config.n_cameras, N_PARAMS)}
    if moments:
        layout.update((f"adam_m:{k}", shape) for k, shape in params.items())
        layout.update((f"adam_v:{k}", shape) for k, shape in params.items())
    if 8 * sum(map(math.prod, layout.values())) > left:
        raise CorruptCheckpoint("checkpoint truncated")
    return model_config, layout


def _parse(r: _Reader) -> tuple:
    """(config dict, PtModelConfig, name -> array) of a checkpoint body,
    each blob header checked against the config's layout before its array
    is read."""
    if r.take(4) != MAGIC:
        raise CorruptCheckpoint("bad magic")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"checkpoint format {version}, expected {FORMAT_VERSION}")
    try:
        config = json.loads(str(r.take(r.unpack("<Q")[0]), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CorruptCheckpoint(f"bad config block: {e}") from e
    (n_blobs,) = r.unpack("<I")
    model_config, layout = _layout(config, n_blobs, r.left)
    arrays = {}
    for name, shape in layout.items():
        header = _blob_header(name, shape)
        if r.take(len(header)) != header:
            raise CorruptCheckpoint(f"blob {len(arrays)} is not {name!r} of shape {shape}")
        arrays[name] = r.array(shape)
    if r.left:
        raise CorruptCheckpoint("trailing bytes after last blob")
    return config, model_config, arrays


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
    hash and magic failures, on a config that does not describe a model or
    whose fields have the wrong types, and on blobs that are not the
    module docstring's layout for that config; UnsupportedVersion on a
    correctly hashed file of a format version this build cannot read.
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
    config, model_config, arrays = parsed

    try:
        model = PtModel.from_state_arrays(model_config, arrays, tuple(config["image_size"]),
                                          config["radius"], seed=config["model_seed"])
    except (LookupError, TypeError, ValueError, OverflowError) as e:
        raise CorruptCheckpoint(f"config does not describe the stored model: {e}") from e
    opt_state = None
    if config["has_optimizer"]:
        m = {k: arrays[f"adam_m:{k}"] for k in model.params if f"adam_m:{k}" in arrays}
        opt_state = AdamState(m, {k: arrays[f"adam_v:{k}"] for k in m}, config["adam_step"])
    return model, opt_state, config["extra"]
