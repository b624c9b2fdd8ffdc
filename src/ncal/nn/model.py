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
   principal point, and distortion; head outputs live in a normalized space
   and are affinely mapped to physical ranges centered on the rig's
   reference calibration; the rotation head is centered on the identity
   6D vector (1, 0, 0, 0, 1, 0) and predicts a residual rotation,
5. the residual 6D rotation is expanded to an orthonormal matrix R_delta by
   Gram-Schmidt and composed onto the stored world-to-camera reference
   rotation as R_ref @ R_delta, giving a (cameras x 21) output whose
   rotation blocks are orthogonal by construction. The residual acts in
   the world frame: for unperturbed mounts, every camera's R_delta is the
   same rotation, the rig's motion away from its reference pose, so the
   head, which all cameras share, learns one rig motion rather than one
   per mount.

Gram-Schmidt of the identity 6D vector is exactly the identity matrix and a
product with the identity is exact, so a zero-initialized head predicts the
factory values exactly, rotation included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import geometry
from ..errors import ShapeMismatch
from . import autodiff as ad
from . import functional as F
from .autodiff import Tensor

# Affine output ranges around the reference calibration.
TRANSLATION_SCALE_RADII = 2.0  # +/- 2 rho meters
FOCAL_SCALE_FRACTION = 0.5  # (0.5, 1.5) x nominal
PRINCIPAL_POINT_SCALE_FRACTION = 0.25  # +/- size/4 pixels
DISTORTION_SCALE = 0.2

# Center of the residual rotation head: the 6D vector of the identity.
IDENTITY_R6 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


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
        if self.cie_noise_sigma == 0.0 and self.n_cameras > self.d_model:
            raise ValueError(
                "identity encodings collide: n_cameras > d_model requires cie_noise_sigma > 0"
            )

    def to_dict(self) -> dict:
        return {
            "n_cameras": self.n_cameras,
            "n_fiducials": self.n_fiducials,
            "d_model": self.d_model,
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "cie_noise_sigma": self.cie_noise_sigma,
        }


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


def reference_from_state(arrays) -> np.ndarray:
    """The (n_cameras, 21) reference calibration from stored arrays: the
    ``reference_R`` rotations and the ``center_{t,fc,pp,kc}`` output-map
    centers, bit for bit. Raises KeyError when one of them is missing."""
    R = arrays["reference_R"]
    n = R.shape[0]
    out = np.empty((n, geometry.N_PARAMS))
    out[:, geometry.ROT_SLICE] = R.reshape(n, 9)
    out[:, geometry.TRANS_SLICE] = arrays["center_t"]
    out[:, 12:14] = arrays["center_fc"]
    out[:, 14:16] = arrays["center_pp"]
    out[:, 16:21] = arrays["center_kc"]
    return out


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class PtModel:
    """Transformer calibration regressor with frozen output conditioning.

    reference_params: (n_cameras, 21) world calibration of the rig at its
    reference pose; defines the centers of the affine output maps. Its
    rotations are stored as frozen matrices that the predicted residual
    rotations are composed onto.
    """

    def __init__(self, config: PtModelConfig, reference_params, image_size, radius, seed=0):
        self.config = config
        self.image_size = (int(image_size[0]), int(image_size[1]))
        self.radius = float(radius)
        self.seed = int(seed)
        ref = np.asarray(reference_params, dtype=float)
        if ref.shape != (config.n_cameras, geometry.N_PARAMS):
            raise ShapeMismatch(f"reference params must be (n_cameras, 21), got {ref.shape}")

        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        self.cie = camera_identity_encoding(
            config.n_cameras, config.d_model, config.cie_noise_sigma, rng
        )
        R = ref[:, geometry.ROT_SLICE].reshape(config.n_cameras, 3, 3)
        err = np.linalg.norm(np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1))
        if err.max() > 1e-9 or np.abs(np.linalg.det(R) - 1.0).max() > 1e-9:
            raise ValueError("reference rotations must be proper rotations")
        self._reference_R = R.copy()
        self._centers, self._scales = self._output_maps(ref)

        d, ff, nf = config.d_model, config.d_ff, config.n_fiducials
        p = {}
        p["embed_w"] = _glorot(rng, 2 * nf, d)
        p["embed_b"] = np.zeros(d)
        for i in range(config.n_layers):
            p[f"layer{i}_ln1_g"] = np.ones(d)
            p[f"layer{i}_ln1_b"] = np.zeros(d)
            for nm in ("q", "k", "v", "o"):
                p[f"layer{i}_w{nm}"] = _glorot(rng, d, d)
                p[f"layer{i}_b{nm}"] = np.zeros(d)
            p[f"layer{i}_ln2_g"] = np.ones(d)
            p[f"layer{i}_ln2_b"] = np.zeros(d)
            p[f"layer{i}_ff1_w"] = _glorot(rng, d, ff)
            p[f"layer{i}_ff1_b"] = np.zeros(ff)
            p[f"layer{i}_ff2_w"] = _glorot(rng, ff, d)
            p[f"layer{i}_ff2_b"] = np.zeros(d)
        for nm, width in (("r6", 6), ("t", 3), ("fc", 2), ("pp", 2), ("kc", 5)):
            p[f"head_{nm}_w"] = np.zeros((d, width))
            p[f"head_{nm}_b"] = np.zeros(width)
        self.params = {k: ad.parameter(v) for k, v in p.items()}

    def _output_maps(self, ref):
        n = self.config.n_cameras
        w, h = self.image_size
        centers = {
            "r6": np.tile(IDENTITY_R6, (n, 1)),
            "t": ref[:, geometry.TRANS_SLICE].copy(),
            "fc": ref[:, 12:14].copy(),
            "pp": ref[:, 14:16].copy(),
            "kc": ref[:, 16:21].copy(),
        }
        scales = {
            "r6": np.ones((n, 6)),
            "t": np.full((n, 3), TRANSLATION_SCALE_RADII * self.radius),
            "fc": FOCAL_SCALE_FRACTION * ref[:, 12:14],
            "pp": PRINCIPAL_POINT_SCALE_FRACTION * np.tile([float(w), float(h)], (n, 1)),
            "kc": np.full((n, 5), DISTORTION_SCALE),
        }
        return centers, scales

    @property
    def reference_params(self) -> np.ndarray:
        """The (n_cameras, 21) reference calibration: the stored rotation
        matrices and the centers of the other output maps, bit for bit."""
        return reference_from_state(self.state_arrays())

    def parameters(self) -> dict:
        return self.params

    def param_group(self, name: str) -> str:
        """Learning-rate group: prediction heads vs everything else."""
        return "heads" if name.startswith("head_") else "encoder"

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def normalize_input(self, X: np.ndarray) -> np.ndarray:
        """Map pixels to [-1, 1] per axis using the image size."""
        w, h = self.image_size
        return X / np.array([w / 2.0, h / 2.0]) - 1.0

    def embed(self, X) -> Tensor:
        """Flatten each camera's fiducial block and apply the affine embedding.

        X: (B, n_cameras, n_fiducials, 2) normalized coordinates.
        """
        cfg = self.config
        if X.ndim != 4 or X.shape[1:] != (cfg.n_cameras, cfg.n_fiducials, 2):
            raise ShapeMismatch(
                f"expected (B, {cfg.n_cameras}, {cfg.n_fiducials}, 2), got {X.shape}"
            )
        flat = ad.constant(X.reshape(X.shape[0], cfg.n_cameras, 2 * cfg.n_fiducials))
        return F.linear(flat, self.params["embed_w"], self.params["embed_b"])

    def _block(self, x: Tensor, i: int) -> Tensor:
        cfg = self.config
        p = self.params
        B, N, D = x.data.shape
        H = cfg.n_heads
        dh = D // H

        a = F.layer_norm(x, p[f"layer{i}_ln1_g"], p[f"layer{i}_ln1_b"])
        q = F.linear(a, p[f"layer{i}_wq"], p[f"layer{i}_bq"])
        k = F.linear(a, p[f"layer{i}_wk"], p[f"layer{i}_bk"])
        v = F.linear(a, p[f"layer{i}_wv"], p[f"layer{i}_bv"])
        q = q.reshape((B, N, H, dh)).transpose((0, 2, 1, 3))
        k = k.reshape((B, N, H, dh)).transpose((0, 2, 1, 3))
        v = v.reshape((B, N, H, dh)).transpose((0, 2, 1, 3))
        scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
        attn = ad.softmax(scores, axis=-1)
        o = (attn @ v).transpose((0, 2, 1, 3)).reshape((B, N, D))
        x = x + F.linear(o, p[f"layer{i}_wo"], p[f"layer{i}_bo"])

        f = F.layer_norm(x, p[f"layer{i}_ln2_g"], p[f"layer{i}_ln2_b"])
        f = F.linear(ad.relu(F.linear(f, p[f"layer{i}_ff1_w"], p[f"layer{i}_ff1_b"])),
                     p[f"layer{i}_ff2_w"], p[f"layer{i}_ff2_b"])
        return x + f

    def encode(self, x: Tensor) -> Tensor:
        """Run the transformer encoder stack over the camera axis."""
        if x.data.ndim != 3 or x.data.shape[-1] != self.config.d_model:
            raise ShapeMismatch(f"encoder expects (B, N_C, d_model), got {x.data.shape}")
        for i in range(self.config.n_layers):
            x = self._block(x, i)
        return x

    def forward(self, X) -> Tensor:
        """Predict flattened camera parameters.

        X: observations in pixels, (n_cameras, n_fiducials, 2) or batched
        (B, n_cameras, n_fiducials, 2). Returns a (B, n_cameras, 21) Tensor;
        rotation blocks are orthonormal for any weights.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 3:
            X = X[None]
        h = self.embed(self.normalize_input(X))
        h = h + ad.constant(self.cie)
        h = self.encode(h)

        outs = {}
        for nm in ("r6", "t", "fc", "pp", "kc"):
            raw = F.linear(h, self.params[f"head_{nm}_w"], self.params[f"head_{nm}_b"])
            outs[nm] = ad.constant(self._centers[nm]) + ad.constant(self._scales[nm]) * raw
        batch = outs["r6"].data.shape[:-1]
        r_delta = F.rot6d_to_matrix_t(outs["r6"]).reshape(batch + (3, 3))
        r9 = (ad.constant(self._reference_R) @ r_delta).reshape(batch + (9,))
        return ad.concat([r9, outs["t"], outs["fc"], outs["pp"], outs["kc"]], axis=-1)

    def predict(self, X) -> np.ndarray:
        """Forward pass returning a plain array; drops the batch axis that
        forward adds for unbatched input."""
        X = np.asarray(X, dtype=np.float64)
        out = self.forward(X).data
        return out[0] if X.ndim == 3 else out

    def state_arrays(self) -> dict:
        """All persistent arrays: trainable parameters plus frozen constants."""
        out = {k: v.data for k, v in self.params.items()}
        out["cie"] = self.cie
        out["reference_R"] = self._reference_R
        for nm in ("r6", "t", "fc", "pp", "kc"):
            out[f"center_{nm}"] = self._centers[nm]
            out[f"scale_{nm}"] = self._scales[nm]
        return out

    def load_state_arrays(self, arrays: dict):
        for k, t in self.params.items():
            a = arrays[k]
            if a.shape != t.data.shape:
                raise ShapeMismatch(f"parameter {k}: expected {t.data.shape}, got {a.shape}")
            t.data = np.array(a, dtype=np.float64)
            t.grad = None
        self.cie = np.array(arrays["cie"], dtype=np.float64)
        self._reference_R = np.array(arrays["reference_R"], dtype=np.float64)
        for nm in ("r6", "t", "fc", "pp", "kc"):
            self._centers[nm] = np.array(arrays[f"center_{nm}"], dtype=np.float64)
            self._scales[nm] = np.array(arrays[f"scale_{nm}"], dtype=np.float64)
