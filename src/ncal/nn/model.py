"""Point-based calibration network.

Per capture, the network sees the 2D projections of all fiducials in all
cameras and regresses the full 21-parameter calibration of every camera:

1. pixels are normalized to [-1, 1] by the image size and each camera's
   fiducial block is flattened and embedded by one affine map,
2. a fixed per-camera identity code (one-hot plus a small frozen noise) is
   added so attention can tell the cameras apart,
3. a pre-norm transformer encoder mixes information across the camera axis
   (no masking: every camera attends to every camera),
4. one linear head, (d_model, 18), emits per camera the rotation (6D),
   translation, focal lengths, principal point and distortion, in that
   column order; its 18 outputs live in a normalized space and go through
   one affine map, center + scale * raw, whose centers are the rig's
   reference calibration; the rotation columns are centered on the
   identity 6D vector (1, 0, 0, 0, 1, 0) and predict a residual rotation,
5. the residual 6D rotation is expanded to an orthonormal matrix R_delta by
   Gram-Schmidt and composed onto the stored world-to-camera reference
   rotation as R_ref @ R_delta, giving a (cameras x 21) output whose
   rotation blocks are orthogonal by construction. The residual acts in
   the world frame: for unperturbed mounts, every camera's R_delta is the
   same rotation, the rig's motion away from its reference pose, so the
   head, which all cameras share, learns one rig motion rather than one
   per mount.

Each stage is a function in ``nn.functional`` that returns its output and
its written-out backward: the embedding (step 1, ``F.embed``; the constant
identity codes of step 2 pass the gradient through unchanged), one per
encoder block (step 3, ``F.encoder_block``) and steps 4 and 5,
``F.heads``. One runner, ``PtModel._run``, calls them for both ``forward``
and ``predict``. For ``forward`` it lists each stage's parameter names and
backward, and the pullback, ``_backward``, runs them once, last first, and
drops each, with the arrays it saved, before the next one starts, so a
backward holds the saved arrays of the stages still to run, not of every
stage. For ``predict`` it keeps no list, so each backward goes as its stage
returns and inference keeps no pullback.

From ``_SPLIT_MIN_VALUES`` values in one encoder activation on, the
pullback uses both cores (``parallel.on_both_cores``): each stage's backward
runs once on rows ``[0, B // 2)`` on the calling thread and once on rows
``[B // 2, B)`` on the kept worker, over those rows of its output's gradient
and of the arrays it saved. The calling thread then joins the stage: it
writes both halves of the input gradient into one array and sums the
parameter gradients into one float64 buffer, the first half's and then the
second's, before the stage's arrays go and the next stage starts. The batch
gradient is the sum of the halves' (Goyal et al. 2017), so only the order of
the sums over rows differs from the whole-batch path, and which path runs
depends on the batch size alone. Below the gate the calling thread runs the
whole batch, which is the path the tests pin bit for bit to the tape
composition.

The parameters, their gradients and the prediction are float64. ``forward``
can run the embedding and the encoder blocks in float32 instead (mixed
precision over float64 master weights, Micikevicius et al., ICLR 2018):
those stages compute on float32 casts of the weights, and their output
returns to float64 before the heads, so Gram-Schmidt, the losses and the
optimizer never see float32. Their gradients are cast back to float64 as the
pullback collects them. No weight cast outlives its stage's forward, so none
is held across the loss, where a training step's memory peaked: the pullback
casts each block's float64 arrays, the ones its forward read, again before
the block's backward (3 ms per block at the paper's width, recomputed rather
than kept, as the blocks' norm outputs are), and the embedding's backward
needs no weights. The heads keep the encoder output in its own dtype and
cast it to float64 for their product, and again, row slice by row slice,
for their weight gradient, so no float64 copy of it is held across the
loss. ``predict`` always computes in float64.

Gram-Schmidt of the identity 6D vector is exactly the identity matrix and a
product with the identity is exact, so a zero-initialized head predicts the
factory values exactly, rotation included.

A new model draws its weights from the seed's generator: the identity-code
noise first, then every Glorot matrix in parameter order, each exactly what
``rng.uniform(-limit, limit, shape)`` would draw. All arrays are allocated
on the calling thread. When the matrices hold at least ``_SPLIT_MIN_DRAWS``
values, the kept worker fills those past the first array boundary beyond
half of the draws, from a copy of the generator advanced to their first
draw, while the calling thread fills the rest, so the weights are the same
bits either way.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .. import geometry
from ..errors import ShapeMismatch
from . import functional as F
from . import parallel
from .autodiff import Tensor

# Affine output ranges around the reference calibration. Checkpoints store
# only the reference and recompute the maps from these constants, as they do
# the identity codes from camera_identity_encoding: a change to how either is
# computed changes what a stored model means and needs a FORMAT_VERSION bump.
TRANSLATION_SCALE_RADII = 2.0  # +/- 2 rho meters
FOCAL_SCALE_FRACTION = 0.5  # (0.5, 1.5) x nominal
PRINCIPAL_POINT_SCALE_FRACTION = 0.25  # +/- size/4 pixels
DISTORTION_SCALE = 0.2

# Center of the residual rotation head: the 6D vector of the identity.
IDENTITY_R6 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

# Glorot draws from which construction fills on both cores; below it the
# calling thread fills them all. The fill alone at O-10 with 4 layers and
# d_ff = 2 d_model (2 cores, medians of 40 after five 300 x 300 matmuls)
# took 1.10 ms on both cores against 0.79 ms on one at 135 k draws and 36.5
# against 43.5 ms at the paper's 8.4 M, where train_paper setup_s fell from
# 0.063 to 0.031 s with a thread per build (BENCH_model_init.json).
_SPLIT_MIN_DRAWS = 1 << 20

# Values in one (batch, n_cameras, d_model) encoder activation from which a
# pullback runs in two row halves, one on each core; below it the calling
# thread runs the whole batch. Float32 backward at O-10 with d_model 512 x 4
# (2 cores, medians of 7 interleaved runs), halves against the whole batch:
# 1.27x the time at 164 k values, 1.09x at 328 k, even at 655 k, 0.95x at
# 1.3 M and 0.77x at the paper's 2.6 M. The train_small shape (O-6, d_model
# 64 x 2) lost at every batch up to 393 k values (1.12x).
_SPLIT_MIN_VALUES = 1 << 20

# Captures per pass in predict. A pass holds one stage's intermediates at a
# time, so this bounds the working set of one encoder block (0.42 MB per
# capture at the paper's width, traced) when a whole test set is predicted at once.
PREDICT_CHUNK = 1024


@dataclass(frozen=True)
class PtModelConfig:
    """Architecture hyper-parameters of the point-based model."""

    n_cameras: int
    n_fiducials: int
    d_model: int = 512
    n_layers: int = 4
    n_heads: int = 8
    d_ff: int = 1024
    cie_noise_sigma: float = 0.01

    def __post_init__(self):
        for name in ("n_cameras", "n_fiducials", "d_model", "n_layers", "n_heads", "d_ff"):
            v = getattr(self, name)
            if not geometry.is_integer(v) or v <= 0:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))  # a checkpoint stores it as JSON
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0.0 <= self.cie_noise_sigma < np.inf:
            raise ValueError(
                f"cie_noise_sigma must be finite and >= 0, got {self.cie_noise_sigma!r}"
            )
        if self.cie_noise_sigma == 0.0 and self.n_cameras > self.d_model:
            raise ValueError(
                "identity encodings collide: n_cameras > d_model requires cie_noise_sigma > 0"
            )


def camera_identity_encoding(n_cameras, d_model, sigma, rng) -> np.ndarray:
    """One-hot-plus-noise identity codes, one row per camera.

    Row i is e_(i mod d_model) + eta with eta ~ N(0, sigma^2); the noise keeps
    rows distinct when the camera count exceeds the embedding width. Drawn
    once and frozen.
    """
    codes = np.zeros((n_cameras, d_model))
    codes[np.arange(n_cameras), np.arange(n_cameras) % d_model] = 1.0
    if sigma > 0:
        codes = codes + sigma * rng.standard_normal((n_cameras, d_model))
    return codes


# How each kind of parameter is allocated; a "glorot" array is filled by
# _draw_glorot after every parameter is allocated.
_ALLOCATE = {"glorot": np.empty, "zeros": np.zeros, "ones": np.ones}


def _fill_glorot(rng, arrays) -> None:
    """Fill each (fan_in, fan_out) array in turn with bitwise what
    rng.uniform(-limit, limit) draws, lo + (hi - lo) * u, without a
    temporary."""
    for a in arrays:
        fan_in, fan_out = a.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        rng.random(out=a)
        a *= limit - -limit
        a += -limit


def _draw_glorot(rng, arrays) -> None:
    """_fill_glorot(rng, arrays), on both cores from _SPLIT_MIN_DRAWS values
    on: the kept worker fills the arrays after the first boundary past half
    the draws from a copy of rng's bit generator advanced past the values
    before them, one draw each, while the calling thread fills the rest."""
    sizes = [a.size for a in arrays]
    cut = parallel.split_point(sizes)
    if cut == len(arrays) or sum(sizes) < _SPLIT_MIN_DRAWS:
        _fill_glorot(rng, arrays)
        return
    ahead = copy.deepcopy(rng.bit_generator)
    ahead.advance(sum(sizes[:cut]))
    parallel.on_both_cores((_fill_glorot, rng, arrays[:cut]),
                           (_fill_glorot, np.random.Generator(ahead), arrays[cut:]))


def _block_spec(config: PtModelConfig) -> dict:
    """name -> (shape, kind) of one encoder block's parameters, in
    parameter order, which is also the order F.encoder_block takes them.
    The keys have no bias, which the attention softmax would cancel."""
    d, ff = config.d_model, config.d_ff
    spec = {"ln1_g": ((d,), "ones"), "ln1_b": ((d,), "zeros")}
    for nm in ("q", "k", "v", "o"):
        spec[f"w{nm}"] = ((d, d), "glorot")
        if nm != "k":
            spec[f"b{nm}"] = ((d,), "zeros")
    spec["ln2_g"] = ((d,), "ones")
    spec["ln2_b"] = ((d,), "zeros")
    spec["ff1_w"] = ((d, ff), "glorot")
    spec["ff1_b"] = ((ff,), "zeros")
    spec["ff2_w"] = ((ff, d), "glorot")
    spec["ff2_b"] = ((d,), "zeros")
    return spec


def _param_spec(config: PtModelConfig) -> dict:
    """name -> (shape, kind) of every trainable parameter; kind is a key of
    _ALLOCATE.

    The order is the parameter order: it fixes the sequence of Glorot draws
    from the seed's generator and the blob order of a checkpoint.
    """
    d, nf = config.d_model, config.n_fiducials
    spec = {"embed_w": ((2 * nf, d), "glorot"), "embed_b": ((d,), "zeros")}
    block = _block_spec(config)
    for i in range(config.n_layers):
        spec.update((f"layer{i}_{nm}", entry) for nm, entry in block.items())
    # One column per output of the affine output map.
    spec["head_w"] = ((d, 18), "zeros")
    spec["head_b"] = ((18,), "zeros")
    return spec


def _float64_sums(parts) -> list:
    """Per gradient, the float64 sum of its parts, all views of one new
    buffer: parts[0]'s array copied, then each later part's added in turn.

    One buffer per stage rather than one array per parameter: at the
    paper's width the 60 block gradients of a step, 1-4 MB each, left holes
    in the heap once freed that the next step's larger arrays could not
    reuse: train_paper's peak RSS read 744 MB, against 709 MB with one
    16.8 MB buffer per block (glibc malloc, 2 cores).
    """
    flat = np.empty(sum(a.size for a in parts[0]))
    out, start = [], 0
    for arrays in zip(*parts):
        view = flat[start : start + arrays[0].size].reshape(arrays[0].shape)
        np.copyto(view, arrays[0])
        for a in arrays[1:]:
            view += a
        out.append(view)
        start += view.size
    return out


def _pull(backward, g, halves, dtype, *args):
    """Run one stage's backward for the gradient g of its output, and args,
    and join what it returns: (the input gradient in dtype, one array, or
    None for the embedding, whose input is data; the parameter gradients in
    float64, one buffer).

    halves None runs backward(g, *args) on the calling thread. Otherwise
    each (rows) slice of halves runs on a core of its own, on its rows of g
    and of the arrays the stage saved, and the join sums the parameter
    gradients of the first half, then the second's.
    """
    if halves is None:
        parts = [backward(g, *args)]
    else:
        parts = parallel.on_both_cores(*((backward, g[rows], *args, rows) for rows in halves))
    gx = parts[0][0]
    if gx is not None:
        if halves is not None:
            gx = np.empty(g.shape[:1] + gx.shape[1:], dtype)
            gx[halves[0]], gx[halves[1]] = (part[0] for part in parts)
        gx = gx.astype(dtype, copy=False)
    return gx, _float64_sums([part[1:] for part in parts])


def _kept(stages, names, stage, weights=None):
    """The output of stage, an (out, backward); the backward goes on stages
    as (names, backward, weights), or, when stages is None, is dropped here
    with the arrays its stage saved, before the next stage starts."""
    out, backward = stage
    if stages is not None:
        stages.append((names, backward, weights))
    return out


def _backward(stages, g, halves, dtype):
    """The pullback: pop and run the backwards PtModel._run put on stages,
    last first, from the gradient g of the last stage's output, each with
    its halves and dropped before the next starts. Returns (the first
    stage's input gradient in dtype, or None for the embedding; a new dict
    of every listed parameter's float64 gradient, in stage order). Every
    input gradient, the heads' too, comes back in dtype, so that no float64
    copy is held while the blocks run; a block's weights are cast again."""
    grads = dict.fromkeys(k for names, *_ in stages for k in names)
    while stages:
        names, backward, weights = stages.pop()
        args = () if weights is None else ([w.astype(dtype, copy=False) for w in weights],)
        g, stage_grads = _pull(backward, g, halves, dtype, *args)
        del backward, args
        grads.update(zip(names, stage_grads))
    return g, grads


class PtModel:
    """Transformer calibration regressor with frozen output conditioning.

    reference_params: (n_cameras, 21) world calibration of the rig at its
    reference pose; defines the centers of the affine output maps. Its
    rotation blocks become the frozen matrices that the predicted residual
    rotations are composed onto. It must be finite, with proper rotations
    and positive focal lengths.
    """

    def __init__(self, config: PtModelConfig, reference_params, image_size, radius, seed=0):
        """Build a model with fresh weights drawn from the seed's generator.

        Every parameter is allocated on the calling thread. The Glorot
        matrices are then drawn in parameter order, after the identity-code
        noise, each bitwise rng.uniform(-limit, limit, shape). From
        _SPLIT_MIN_DRAWS draws on, the kept worker fills the second part of
        them from a copy of the generator advanced to its first draw (see
        _draw_glorot), so the weights do not depend on the split.
        """
        rng = self._derive(config, reference_params, image_size, radius, seed)
        spec = _param_spec(config)
        arrays = {k: _ALLOCATE[init](shape) for k, (shape, init) in spec.items()}
        _draw_glorot(rng, [arrays[k] for k, (_shape, init) in spec.items() if init == "glorot"])
        self.params = {k: Tensor(a) for k, a in arrays.items()}

    @classmethod
    def from_state_arrays(cls, config: PtModelConfig, arrays: dict, image_size, radius, seed=0):
        """Rebuild a model from its state_arrays() without drawing weights.

        The constructor's derived constants come from arrays["reference"] and
        the seed as in __init__; the trainable parameters are the float64
        arrays themselves, not copies, so training updates them in place.
        Other keys of `arrays` are ignored.
        """
        self = cls.__new__(cls)
        self._derive(config, arrays["reference"], image_size, radius, seed)
        params = {}
        for k, (shape, _init) in _param_spec(config).items():
            a = np.asarray(arrays[k], dtype=np.float64)
            if a.shape != shape:
                raise ShapeMismatch(f"parameter {k}: expected {shape}, got {a.shape}")
            params[k] = Tensor(a)
        self.params = params
        return self

    def _derive(self, config, reference_params, image_size, radius, seed):
        """Check the constructor's inputs and set everything derived from
        them; returns the seed's generator, positioned after the identity
        codes, for the Glorot draws."""
        self.config = config
        self.image_size = geometry.checked_image_size(image_size)
        self.radius = float(radius)
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"radius must be finite and positive, got {radius!r}")
        if not geometry.is_integer(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        ref = np.asarray(reference_params, dtype=float)
        if ref.shape != (config.n_cameras, geometry.N_PARAMS):
            raise ShapeMismatch(f"reference params must be (n_cameras, 21), got {ref.shape}")
        if not np.isfinite(ref).all() or np.any(ref[:, geometry.FOCAL_SLICE] <= 0.0):
            raise ValueError("reference params must be finite with positive focal lengths")

        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        self.cie = camera_identity_encoding(
            config.n_cameras, config.d_model, config.cie_noise_sigma, rng
        )
        R = ref[:, geometry.ROT_SLICE].reshape(config.n_cameras, 3, 3)
        if not geometry.is_proper_rotation(R):
            raise ValueError("reference rotations must be proper rotations")
        self._reference = ref.copy()
        self._reference_R = R.copy()
        # One affine output map over the head's 18 outputs per camera, in
        # column order: r6, t, fc, pp, kc.
        w, h = self.image_size
        n = config.n_cameras
        self._center = np.concatenate([np.tile(IDENTITY_R6, (n, 1)), ref[:, 9:21]], axis=1)
        self._scale = np.concatenate([
            np.ones((n, 6)),
            np.full((n, 3), TRANSLATION_SCALE_RADII * self.radius),
            FOCAL_SCALE_FRACTION * ref[:, geometry.FOCAL_SLICE],
            PRINCIPAL_POINT_SCALE_FRACTION * np.tile([float(w), float(h)], (n, 1)),
            np.full((n, 5), DISTORTION_SCALE),
        ], axis=1)
        return rng

    @property
    def reference_params(self) -> np.ndarray:
        """The (n_cameras, 21) reference calibration the model was built on."""
        return self._reference.copy()

    def param_group(self, name: str) -> str:
        """Learning-rate group: the prediction head vs everything else."""
        return "heads" if name.startswith("head_") else "encoder"

    def normalize_input(self, X: np.ndarray) -> np.ndarray:
        """Map pixels to [-1, 1] per axis using the image size."""
        w, h = self.image_size
        return X / np.array([w / 2.0, h / 2.0]) - 1.0

    def embed(self, X):
        """Flatten each camera's fiducial block and apply the affine embedding
        in X's dtype; returns F.embed's (out, backward).

        X: (B, n_cameras, n_fiducials, 2) normalized coordinates.
        """
        cfg = self.config
        if X.ndim != 4 or X.shape[1:] != (cfg.n_cameras, cfg.n_fiducials, 2):
            raise ShapeMismatch(
                f"expected (B, {cfg.n_cameras}, {cfg.n_fiducials}, 2), got {X.shape}"
            )
        flat = X.reshape(X.shape[0], cfg.n_cameras, 2 * cfg.n_fiducials)
        w, b = self.params["embed_w"].data, self.params["embed_b"].data
        return F.embed(flat, w.astype(X.dtype, copy=False), b.astype(X.dtype, copy=False))

    def encode(self, x: np.ndarray, stages=None) -> np.ndarray:
        """Run the transformer encoder stack over the camera axis, in x's
        dtype, and return its output. Each block's backward goes on stages
        (see _kept) with the float64 weights its forward read, which
        _backward casts again, so that no weight cast outlives the forward
        and rebinding a parameter's data in between changes no gradient."""
        if x.ndim != 3 or x.shape[-1] != self.config.d_model:
            raise ShapeMismatch(f"encoder expects (B, N_C, d_model), got {x.shape}")
        for i in range(self.config.n_layers):
            names = self._block_names(i)
            weights = [self.params[k].data for k in names]
            x = _kept(stages, names, F.encoder_block(
                x, [w.astype(x.dtype, copy=False) for w in weights], self.config.n_heads), weights)
        return x

    def _run(self, X, dtype, stages=None) -> np.ndarray:
        """The (B, n_cameras, 21) float64 prediction for the float64 batch X,
        with the embedding and the encoder blocks in dtype: normalize, embed,
        add the identity codes, encode, heads. Each stage's backward goes on
        stages (see _kept)."""
        # The identity codes are a constant offset, whose gradient is the
        # identity: added to the embedding's value, they need no backward.
        # The encoder's input is a temporary, so nothing here holds it
        # while its later blocks run.
        codes = self.cie.astype(dtype, copy=False)
        h = self.encode(_kept(stages, ["embed_w", "embed_b"], self.embed(
            self.normalize_input(X).astype(dtype, copy=False))) + codes, stages)
        return _kept(stages, ["head_w", "head_b"],
                     F.heads(h, self.params["head_w"].data, self.params["head_b"].data,
                             self._center, self._scale, self._reference_R))

    def forward(self, X, dtype=np.float64) -> Tensor:
        """Predict flattened camera parameters for a batch of captures.

        X: observations in pixels, (B, n_cameras, n_fiducials, 2); predict
        takes a single capture. dtype: the precision of the embedding and the
        encoder blocks, np.float64 or np.float32; the heads and the
        prediction are float64 either way. Returns a (B, n_cameras, 21)
        Tensor whose backward(g), _backward over the stages, returns for the
        prediction's gradient g a new dict of every parameter's float64
        gradient, keyed and ordered like params. It frees each stage's saved
        arrays as the stage's backward finishes, the heads' (with the
        encoder output) first, so a second call raises RuntimeError. From
        _SPLIT_MIN_VALUES values in the encoder's (B, n_cameras, d_model)
        activation on, each stage's backward runs as two half-batch
        backwards, one on each core (see the module docstring). Rotation
        blocks are orthonormal for any weights.
        """
        stages = []
        pred = self._run(np.asarray(X, dtype=np.float64), dtype, stages)

        def pullback(g):
            if not stages:
                raise RuntimeError("a prediction's backward runs once; run forward again")
            return _backward(stages, g, self._halves(g.shape[0]), dtype)[1]

        return Tensor(pred, pullback)

    def predict(self, X) -> np.ndarray:
        """The prediction of forward as a plain array, from _run over
        PREDICT_CHUNK captures at a time with no stage list, so a pass holds
        the intermediates of one stage at a time. A single capture,
        (n_cameras, n_fiducials, 2), gets the batch axis here, and its
        (n_cameras, 21) result loses it again."""
        X = np.asarray(X, dtype=np.float64)
        batch = X[None] if X.ndim == 3 else X
        # At least one pass, so an empty batch still meets embed's shape checks.
        chunks = [self._run(batch[lo : lo + PREDICT_CHUNK], np.float64)
                  for lo in range(0, max(len(batch), 1), PREDICT_CHUNK)]
        out = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return out[0] if X.ndim == 3 else out

    def _halves(self, batch: int):
        """The (rows) slices of the two halves a pullback of batch captures
        runs in, the first batch // 2 and the rest, or None below
        _SPLIT_MIN_VALUES."""
        if batch < 2 or batch * self.config.n_cameras * self.config.d_model < _SPLIT_MIN_VALUES:
            return None
        return slice(0, batch // 2), slice(batch // 2, batch)

    def _block_names(self, i: int) -> list:
        """Encoder block i's parameter names in F.encoder_block's order."""
        return [f"layer{i}_{nm}" for nm in _block_spec(self.config)]

    def state_arrays(self) -> dict:
        """All persistent arrays: the trainable parameters plus the reference.

        Everything else the constructor computes (identity codes, reference
        rotations, output maps) follows from the reference, the config, the
        image size, the radius and the seed, and is not stored.
        """
        out = {k: v.data for k, v in self.params.items()}
        out["reference"] = self._reference
        return out
