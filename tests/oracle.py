"""Independent reference implementations of the camera model for the tests.

A scalar camera (``Intrinsics``, ``Extrinsics``, ``CameraParams``) with its
own projection, distortion and rotation helpers, written without the batched
kernels they are used to check: ``geometry.project_array``,
``geometry.project_jacobian_array`` and ``ncal.nn.functional``, and a
per-eye look-at rotation for the batched ``scene.look_at_rotation``, and a
one-sample, one-camera-at-a-time rig perturbation for the stacked
``scene.perturb_intrinsics`` and ``scene.perturb_mounts`` (with
``mount_draws``, the draws the latter takes). Only constants,
``is_proper_rotation`` and error classes come from the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ncal.errors import DegenerateRotation, NcalError
from ncal.geometry import (
    DIST_SLICE,
    FOCAL_SLICE,
    GS_EPS,
    N_PARAMS,
    ROT_SLICE,
    TRANS_SLICE,
    Z_MIN,
    is_proper_rotation,
)
from ncal.scene import EXT_ROT_MAX_ANGLE, ZERO_DISTORTION_SCALE


class BehindCamera(NcalError):
    """A 3D point lies at or behind the camera's projection plane."""


@dataclass(frozen=True)
class Intrinsics:
    """Internal camera parameters: focal lengths, principal point, distortion."""

    fx: float
    fy: float
    cx: float
    cy: float
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got {self.fx}, {self.fy}")

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.fx, self.fy, self.cx, self.cy, self.k1, self.k2, self.k3, self.p1, self.p2]
        )

    @staticmethod
    def from_array(a) -> "Intrinsics":
        a = np.asarray(a, dtype=float)
        if a.shape != (9,):
            raise ValueError(f"expected 9 intrinsic values, got shape {a.shape}")
        return Intrinsics(*a.tolist())


@dataclass(frozen=True)
class Extrinsics:
    """Camera pose as a world-to-camera rotation matrix and translation."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        t = np.asarray(self.t, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"R must be 3x3, got {R.shape}")
        if not is_proper_rotation(R):
            raise ValueError("R is not a proper rotation (orthogonality/det check failed)")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class CameraParams:
    """Full per-camera calibration: extrinsics + intrinsics (21 scalars)."""

    extrinsics: Extrinsics
    intrinsics: Intrinsics

    def to_vector(self) -> np.ndarray:
        """Flatten to the canonical 21-vector (R row-major, t, fx, fy, cx, cy, kc)."""
        v = np.empty(N_PARAMS)
        v[ROT_SLICE] = self.extrinsics.R.reshape(9)
        v[TRANS_SLICE] = self.extrinsics.t
        v[FOCAL_SLICE.start : DIST_SLICE.stop] = self.intrinsics.to_array()
        return v

    @staticmethod
    def from_vector(v) -> "CameraParams":
        v = np.asarray(v, dtype=float).reshape(N_PARAMS)
        return CameraParams(
            extrinsics=Extrinsics(R=v[ROT_SLICE].reshape(3, 3), t=v[TRANS_SLICE]),
            intrinsics=Intrinsics.from_array(v[FOCAL_SLICE.start : DIST_SLICE.stop]),
        )


def world_to_camera(P, ext: Extrinsics) -> np.ndarray:
    """Transform world point(s) (..., 3) into the camera frame: R @ P + t."""
    P = np.asarray(P, dtype=float)
    return P @ ext.R.T + ext.t


def distort(x_n, y_n, intr: Intrinsics):
    """Apply radial (sixth-order) + tangential distortion to normalized coordinates.

    Accepts scalars or arrays; returns distorted coordinates of the same shape.
    Identity map when all five coefficients are zero.
    """
    x = np.asarray(x_n, dtype=float)
    y = np.asarray(y_n, dtype=float)
    r2 = x * x + y * y
    radial = 1.0 + r2 * (intr.k1 + r2 * (intr.k2 + r2 * intr.k3))
    x_d = x * radial + 2.0 * intr.p1 * x * y + intr.p2 * (r2 + 2.0 * x * x)
    y_d = y * radial + intr.p1 * (r2 + 2.0 * y * y) + 2.0 * intr.p2 * x * y
    if np.isscalar(x_n) and np.isscalar(y_n):
        return float(x_d), float(y_d)
    return x_d, y_d


def project(P, params: CameraParams) -> np.ndarray:
    """Project one world point to pixel coordinates.

    Raises BehindCamera if the camera-frame depth is at or below Z_MIN.
    """
    Pc = world_to_camera(np.asarray(P, dtype=float).reshape(3), params.extrinsics)
    if Pc[2] <= Z_MIN:
        raise BehindCamera(f"point has camera-frame depth {Pc[2]:.3g} <= {Z_MIN}")
    x_n, y_n = Pc[0] / Pc[2], Pc[1] / Pc[2]
    x_d, y_d = distort(x_n, y_n, params.intrinsics)
    intr = params.intrinsics
    return np.array([intr.fx * x_d + intr.cx, intr.fy * y_d + intr.cy])


def rot6d_to_matrix(r6) -> np.ndarray:
    """Orthogonalize 6D rotation vectors: (..., 6) -> (..., 3, 3).

    The two 3-vectors are interpreted as (unnormalized) first and second
    columns; Gram-Schmidt yields b1, b2 and the third column is b1 x b2.
    Raises DegenerateRotation when any first vector is near zero or any two
    vectors are near parallel.
    """
    r6 = np.asarray(r6, dtype=float)
    a1, a2 = r6[..., :3], r6[..., 3:]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    if np.any(n1 <= GS_EPS):
        raise DegenerateRotation(f"first column norm {n1.min():.3g} below {GS_EPS}")
    b1 = a1 / n1
    u2 = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    n2 = np.linalg.norm(u2, axis=-1, keepdims=True)
    if np.any(n2 <= GS_EPS):
        raise DegenerateRotation(f"columns nearly parallel (residual norm {n2.min():.3g})")
    b2 = u2 / n2
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)


def matrix_to_rot6d(R) -> np.ndarray:
    """Extract the 6D representation: the first two columns of R, stacked."""
    R = np.asarray(R, dtype=float)
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def geodesic_distance(R1, R2) -> float:
    """Rotation angle of R1^T R2 in radians: arccos((trace - 1) / 2), in [0, pi].

    The arccos argument is clamped to [-1, 1] to absorb floating-point drift.
    """
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    tr = np.einsum("...ij,...ij->...", R1, R2)
    c = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    out = np.arccos(c)
    return float(out) if out.ndim == 0 else out


def _cross(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def look_at(eye, target) -> np.ndarray:
    """Camera-to-world rotation whose +z axis points from one eye (3,) toward
    target, with +y as the up hint and +x within ~1e-6 of +/-y."""
    f = np.asarray(target, dtype=float) - np.asarray(eye, dtype=float)
    f = f / np.sqrt(f @ f)
    up = np.array([1.0, 0.0, 0.0] if np.hypot(f[0], f[2]) < 1e-6 else [0.0, 1.0, 0.0])
    x = _cross(up, f)
    x = x / np.sqrt(x @ x)
    return np.stack([x, _cross(f, x), f], axis=1)


def mount_draws(rng, n_samples, n_cameras):
    """n_samples samples' mount draws from rng, one sample after another, in
    synthesis order: translation uniforms (n_samples, N_C, 3), rotation axes
    (n_samples, N_C, 3) and angle uniforms (n_samples, N_C), the arguments
    ``scene.perturb_mounts`` takes after kappa."""
    per_sample = [(rng.random((n_cameras, 3)), rng.normal(size=(n_cameras, 3)),
                   rng.random(n_cameras)) for _ in range(n_samples)]
    return tuple(np.stack(a) for a in zip(*per_sample))


def perturb_rig(intr, mount_R, mount_t, kappa_int, kappa_ext, rng):
    """One sample's perturbed intrinsics (N_C, 9), mount rotations and mount
    translations, drawn from rng in synthesis order: the intrinsic deltas,
    the translation deltas, the rotation axes, then the rotation angles."""
    n = intr.shape[0]
    delta = rng.uniform(-kappa_int, kappa_int, size=intr.shape)
    zero = np.zeros(intr.shape, dtype=bool)
    zero[:, 4:] = intr[:, 4:] == 0.0  # k1, k2, k3, p1, p2
    out = np.where(zero, delta * ZERO_DISTORTION_SCALE, intr * (1.0 + delta))
    delta_t = rng.uniform(-kappa_ext, kappa_ext, size=(n, 3))
    axes = rng.normal(size=(n, 3))
    angles = rng.uniform(-1.0, 1.0, size=n) * kappa_ext * EXT_ROT_MAX_ANGLE
    R = np.empty((n, 3, 3))
    for j in range(n):
        x, y, z = axes[j] / np.sqrt(np.sum(axes[j] * axes[j]))
        K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        s, c = np.sin(angles[j]), 1.0 - np.cos(angles[j])
        R[j] = mount_R[j] @ (np.eye(3) + s * K + c * (K @ K))
    return out, R, mount_t * (1.0 + delta_t)
