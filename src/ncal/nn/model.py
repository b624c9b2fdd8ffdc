"""Point-based calibration network.

Per capture, the network sees the 2D projections of all fiducials in all
cameras and regresses the full 21-parameter calibration of every camera:

1. pixels are normalized to [-1, 1] by the image size and each camera's
   fiducial block is flattened and embedded by one affine map,
2. a fixed per-camera identity code (one-hot plus a small frozen noise) is
   added so attention can tell the cameras apart,
3. a pre-norm transformer encoder mixes information across the camera axis
   (no masking: every camera attends to every camera),
4. five linear heads emit rotation (6D), translation, focal lengths,
   principal point, and distortion; their 18 outputs per camera live in a
   normalized space and go through one affine map, center + scale * raw,
   whose centers are the rig's reference calibration; the rotation head is
   centered on the identity 6D vector (1, 0, 0, 0, 1, 0) and predicts a
   residual rotation,
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
``F.heads``. A forward pass composes their backwards, in reverse, into one
pullback that writes every parameter's gradient into its ``.grad`` array.
``predict`` runs the same stages and drops each backward as its stage
returns, so inference keeps no pullback.

The parameters, their gradients and the prediction are float64. ``forward``
can run the embedding and the encoder blocks in float32 instead (mixed
precision over float64 master weights, Micikevicius et al., ICLR 2018):
those stages compute on float32 casts of the weights, and their output
returns to float64 before the heads, so Gram-Schmidt, the losses and the
optimizer never see float32. Their gradients are cast back to float64 as
the pullback writes them into the parameters' float64 ``.grad``.
``predict`` always computes in float64.

Gram-Schmidt of the identity 6D vector is exactly the identity matrix and a
product with the identity is exact, so a zero-initialized head predicts the
factory values exactly, rotation included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import geometry
from ..errors import ShapeMismatch
from . import functional as F
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

# Output heads and their widths, in the column order of the affine output map.
HEADS = {"r6": 6, "t": 3, "fc": 2, "pp": 2, "kc": 5}

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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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


def _glorot(rng, shape):
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _ones(rng, shape):
    return np.ones(shape)


def _block_spec(config: PtModelConfig) -> dict:
    """name -> (shape, initializer) of one encoder block's parameters, in
    parameter order, which is also the order F.encoder_block takes them."""
    d, ff = config.d_model, config.d_ff
    spec = {"ln1_g": ((d,), _ones), "ln1_b": ((d,), _zeros)}
    for nm in ("q", "k", "v", "o"):
        spec[f"w{nm}"] = ((d, d), _glorot)
        spec[f"b{nm}"] = ((d,), _zeros)
    spec["ln2_g"] = ((d,), _ones)
    spec["ln2_b"] = ((d,), _zeros)
    spec["ff1_w"] = ((d, ff), _glorot)
    spec["ff1_b"] = ((ff,), _zeros)
    spec["ff2_w"] = ((ff, d), _glorot)
    spec["ff2_b"] = ((d,), _zeros)
    return spec


def _param_spec(config: PtModelConfig) -> dict:
    """name -> (shape, initializer) of every trainable parameter.

    The order is the parameter order: it fixes the sequence of Glorot draws
    from the seed's generator and the blob order of a checkpoint.
    """
    d, nf = config.d_model, config.n_fiducials
    spec = {"embed_w": ((2 * nf, d), _glorot), "embed_b": ((d,), _zeros)}
    block = _block_spec(config)
    for i in range(config.n_layers):
        spec.update((f"layer{i}_{nm}", entry) for nm, entry in block.items())
    for nm, width in HEADS.items():
        spec[f"head_{nm}_w"] = ((d, width), _zeros)
        spec[f"head_{nm}_b"] = ((width,), _zeros)
    return spec


def _assign_grads(params, grads) -> None:
    """Write each parameter's gradient into its float64 .grad, cast if
    need be. The array is allocated only on the first backward (or if .grad
    was set to another shape or dtype), so every training step reuses the
    previous step's gradients instead of holding two sets at once."""
    for t, g in zip(params, grads, strict=True):
        if t.grad is None or t.grad.shape != g.shape or t.grad.dtype != np.float64:
            t.grad = np.empty(g.shape)
        np.copyto(t.grad, g)


class PtModel:
    """Transformer calibration regressor with frozen output conditioning.

    reference_params: (n_cameras, 21) world calibration of the rig at its
    reference pose; defines the centers of the affine output maps. Its
    rotation blocks become the frozen matrices that the predicted residual
    rotations are composed onto.
    """

    def __init__(self, config: PtModelConfig, reference_params, image_size, radius, seed=0):
        rng = self._derive(config, reference_params, image_size, radius, seed)
        self.params = {
            k: Tensor(init(rng, shape))
            for k, (shape, init) in _param_spec(config).items()
        }

    @classmethod
    def from_state_arrays(cls, config: PtModelConfig, arrays: dict, image_size, radius, seed=0):
        """Rebuild a model from its state_arrays() without drawing weights.

        The constructor's derived constants come from arrays["reference"] and
        the seed as in __init__; the trainable parameters are the float64
        arrays themselves, not copies. Other keys of `arrays` are ignored.
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
        self.seed = int(seed)
        ref = np.asarray(reference_params, dtype=float)
        if ref.shape != (config.n_cameras, geometry.N_PARAMS):
            raise ShapeMismatch(f"reference params must be (n_cameras, 21), got {ref.shape}")

        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        self.cie = camera_identity_encoding(
            config.n_cameras, config.d_model, config.cie_noise_sigma, rng
        )
        R = ref[:, geometry.ROT_SLICE].reshape(config.n_cameras, 3, 3)
        if not geometry.is_proper_rotation(R):
            raise ValueError("reference rotations must be proper rotations")
        self._reference = ref.copy()
        self._reference_R = R.copy()
        # One affine output map over the 18 head outputs per camera, columns
        # in head order: r6, t, fc, pp, kc.
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
        """Learning-rate group: prediction heads vs everything else."""
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

    def encode(self, x: np.ndarray):
        """Run the transformer encoder stack over the camera axis, in x's
        dtype.

        Returns (out, pullback): pullback(g) casts g to x's dtype, writes
        each block parameter's gradient, for the gradient g of out, into its
        float64 .grad (in place once .grad exists) and returns the gradient
        of x, in x's dtype.
        """
        if x.ndim != 3 or x.shape[-1] != self.config.d_model:
            raise ShapeMismatch(f"encoder expects (B, N_C, d_model), got {x.shape}")
        dtype = x.dtype
        blocks = []
        for i in range(self.config.n_layers):
            block = self._block_params(i)
            weights = [t.data.astype(dtype, copy=False) for t in block]
            x, backward = F.encoder_block(x, weights, self.config.n_heads)
            blocks.append((block, backward))

        def pullback(g):
            g = g.astype(dtype, copy=False)
            for block, backward in reversed(blocks):
                g, *grads = backward(g)
                _assign_grads(block, grads)
            return g

        return x, pullback

    def forward(self, X, dtype=np.float64) -> Tensor:
        """Predict flattened camera parameters for a batch of captures.

        X: observations in pixels, (B, n_cameras, n_fiducials, 2); predict
        takes a single capture. dtype: the precision of the embedding and the
        encoder blocks, np.float64 or np.float32; the heads and the
        prediction are float64 either way. Returns a (B, n_cameras, 21)
        Tensor whose backward(g) writes every parameter's gradient, for the
        prediction's gradient g, into its float64 .grad, in place once .grad
        exists: an array kept from an earlier backward is overwritten.
        Rotation blocks are orthonormal for any weights.
        """
        x = self.normalize_input(np.asarray(X, dtype=np.float64)).astype(dtype, copy=False)
        h, embed_backward = self.embed(x)
        # The identity codes are a constant offset, whose gradient is the
        # identity: added to the embedding's value, they need no backward.
        h += self.cie.astype(dtype, copy=False)
        h, encode_pullback = self.encode(h)
        heads = self._head_params()
        pred, heads_backward = F.heads(h.astype(np.float64, copy=False), [t.data for t in heads],
                                       self._center, self._scale, self._reference_R)

        def pullback(g):
            gh, *grads = heads_backward(g)
            _assign_grads(heads, grads)
            embed = (self.params["embed_w"], self.params["embed_b"])
            _assign_grads(embed, embed_backward(encode_pullback(gh)))

        return Tensor(pred, pullback)

    def predict(self, X) -> np.ndarray:
        """The prediction of forward as a plain array, from the same stages
        over PREDICT_CHUNK captures at a time. Each stage's backward is
        dropped as the stage returns, so a pass holds the intermediates of
        one stage at a time. A single capture, (n_cameras, n_fiducials, 2),
        gets the batch axis here, and its (n_cameras, 21) result loses it
        again."""
        X = np.asarray(X, dtype=np.float64)
        batch = X[None] if X.ndim == 3 else X
        chunks = []
        # At least one pass, so an empty batch still meets embed's shape checks.
        for lo in range(0, max(len(batch), 1), PREDICT_CHUNK):
            h = self.embed(self.normalize_input(batch[lo : lo + PREDICT_CHUNK]))[0]
            h += self.cie
            for i in range(self.config.n_layers):
                weights = [t.data for t in self._block_params(i)]
                h = F.encoder_block(h, weights, self.config.n_heads)[0]
            weights = [t.data for t in self._head_params()]
            chunks.append(F.heads(h, weights, self._center, self._scale, self._reference_R)[0])
        out = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return out[0] if X.ndim == 3 else out

    def _block_params(self, i: int) -> list:
        """Encoder block i's parameters in F.encoder_block's order."""
        return [self.params[f"layer{i}_{nm}"] for nm in _block_spec(self.config)]

    def _head_params(self) -> list:
        """The heads' parameters in F.heads' order."""
        return [self.params[f"head_{nm}_{p}"] for nm in HEADS for p in ("w", "b")]

    def state_arrays(self) -> dict:
        """All persistent arrays: the trainable parameters plus the reference.

        Everything else the constructor computes (identity codes, reference
        rotations, output maps) follows from the reference, the config, the
        image size, the radius and the seed, and is not stored.
        """
        out = {k: v.data for k, v in self.params.items()}
        out["reference"] = self._reference
        return out
